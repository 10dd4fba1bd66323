"""End-to-end and per-layer metrics computed from recorded passes.

A pass record is ``{"wall": s, "cpu": s, "rss_mb": MB, "ops": [...]}``;
each op record carries the gate result from ``workloads.check`` plus
``stdout_bytes``, ``kind`` and, in traced passes, its ``spans``.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.tracing import self_times

# name -> unit; these are the metrics printed with --trace 0.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Reported with every untraced run next to END_TO_END but not declared in
# BENCHMARK.json, whose end-to-end metrics must never read 0.
GATE = {"max_rel_dev": "ratio", "error_rate": "ratio"}

# name -> (unit, better, the end-to-end metric and workload it should move).
PER_LAYER = {
    "ladder.build_s": ("s", "lower", "wall_s on sweep (small)"),
    "ladder.calls": ("count", "lower", "wall_s on sweep (small)"),
    "exchange.integral_s": ("s", "lower", "wall_s, cpu_s on sweep; no change on cascade or verify"),
    "exchange.calls": ("count", "lower", "wall_s, cpu_s on sweep"),
    "exchange.dicke_s": ("s", "lower", "wall_s, cpu_s on sweep (real accumulators)"),
    "exchange.kerr_s": ("s", "lower", "wall_s, cpu_s on sweep (complex accumulators)"),
    "exchange.cells": ("count", "lower", "peak_rss_mb, wall_s on sweep"),
    "exchange.cells_per_s": ("1/s", "higher", "wall_s on sweep"),
    "exchange.table_mb": ("MB", "lower", "peak_rss_mb on sweep (computed, not measured)"),
    "exchange.pool_wall_s": ("s", "lower", "wall_s versus cpu_s on sweep"),
    "exchange.pool_efficiency": ("ratio", "higher", "wall_s versus cpu_s on sweep"),
    "oracle.float_s": ("s", "lower", "wall_s on verify only"),
    "oracle.float_calls": ("count", "lower", "wall_s on verify only"),
    "oracle.exact_s": ("s", "lower", "wall_s on verify only"),
    "oracle.exact_calls": ("count", "lower", "wall_s on verify only"),
    "oracle.delayed_s": ("s", "lower", "wall_s on verify only"),
    "oracle.delayed_calls": ("count", "lower", "wall_s on verify only"),
    "metrology.s": ("s", "lower", "wall_s on verify (parity), small"),
    "metrology.calls": ("count", "lower", "wall_s on verify (parity), small"),
    "dickesim.collection_s": ("s", "lower", "wall_s on cascade"),
    "dickesim.collection_calls": ("count", "lower", "wall_s on cascade"),
    "dickesim.populations_s": ("s", "lower", "wall_s on cascade"),
    "dickesim.populations_calls": ("count", "lower", "wall_s on cascade"),
    "dickesim.product_s": ("s", "lower", "wall_s on cascade"),
    "dickesim.product_calls": ("count", "lower", "wall_s on cascade"),
    "dickesim.unconverged": ("count", "lower", "correctness on cascade"),
    "budget.full_s": ("s", "lower", "wall_s on cascade (guard, tiny)"),
    "budget.calls": ("count", "lower", "wall_s on cascade (guard, tiny)"),
    "cli.self_s": ("s", "lower", "wall_s on sweep"),
    "cli.output_bytes": ("B", "lower", "wall_s on sweep"),
    "import.total_s": ("s", "lower", "setup_s on all workloads, most on verify"),
    "import.scipy_integrate_s": ("s", "lower", "setup_s on all workloads, most on verify"),
    "import.dickeqfi_self_s": ("s", "lower", "setup_s on all workloads, most on verify"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced pass wall"),
}

UNITS = {**END_TO_END, **GATE, **{name: spec[0] for name, spec in PER_LAYER.items()}}

# Seven m x m tables of the recurrence: f0, f2, c0, c2 and the
# cross-rate table in float64, f1 and c1 in complex128.
TABLE_BYTES_PER_CELL = 5 * 8 + 2 * 16


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[dict], setup_samples: list[float]) -> dict:
    return {
        "wall_s": median(p["wall"] for p in passes),
        "setup_s": median(setup_samples),
        "cpu_s": median(p["cpu"] for p in passes),
        "peak_rss_mb": median(p["rss_mb"] for p in passes),
    }


def gate(passes: list[dict]) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op["failures"])
    return {
        "max_rel_dev": max((op["max_rel_dev"] for op in ops), default=0.0),
        "error_rate": failed / len(ops) if ops else 1.0,
    }


def span_totals(ops: list[dict]) -> dict:
    """Per span name: summed self time, summed duration and call count,
    plus the exchange cell counts of one traced pass."""
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    cells = 0
    max_m = 0
    unconverged = 0
    for op in ops:
        spans = op.get("spans", [])
        for span, own in zip(spans, self_times(spans)):
            name = span["name"]
            self_s[name] += own
            total_s[name] += span["end"] - span["start"]
            calls[name] += 1
            if "m" in span:
                cells += span["m"] ** 2
                max_m = max(max_m, span["m"])
            if span.get("converged") is False:
                unconverged += 1
    return {"self": self_s, "total": total_s, "calls": calls,
            "cells": cells, "max_m": max_m, "unconverged": unconverged}


def layer_shares(ops: list[dict]) -> dict:
    """Self time per layer (first component of the span name)."""
    shares = defaultdict(float)
    for name, own in span_totals(ops)["self"].items():
        shares[name.split(".")[0]] += own
    return dict(shares)


def _pass_layers(traced: dict) -> dict:
    t = span_totals(traced["ops"])
    s, c = t["self"], t["calls"]
    integral_s = s["exchange.integral.dicke"] + s["exchange.integral.kerr"]
    return {
        "ladder.build_s": s["ladder.build"],
        "ladder.calls": c["ladder.build"],
        "exchange.integral_s": integral_s,
        "exchange.calls": c["exchange.integral.dicke"] + c["exchange.integral.kerr"],
        "exchange.dicke_s": s["exchange.integral.dicke"],
        "exchange.kerr_s": s["exchange.integral.kerr"],
        "exchange.cells": t["cells"],
        "exchange.cells_per_s": t["cells"] / integral_s if integral_s else 0.0,
        "exchange.table_mb": TABLE_BYTES_PER_CELL * t["max_m"] ** 2 / 1e6,
        "exchange.serial_s": t["total"]["exchange.sweep"],
        "oracle.float_s": s["oracle.float"],
        "oracle.float_calls": c["oracle.float"],
        "oracle.exact_s": s["oracle.exact"],
        "oracle.exact_calls": c["oracle.exact"],
        "oracle.delayed_s": s["oracle.delayed"],
        "oracle.delayed_calls": c["oracle.delayed"],
        "metrology.s": s["metrology"],
        "metrology.calls": c["metrology"],
        "dickesim.collection_s": s["dickesim.collection"],
        "dickesim.collection_calls": c["dickesim.collection"],
        "dickesim.populations_s": s["dickesim.populations"],
        "dickesim.populations_calls": c["dickesim.populations"],
        "dickesim.product_s": s["dickesim.product"],
        "dickesim.product_calls": c["dickesim.product"],
        "dickesim.unconverged": t["unconverged"],
        "budget.full_s": s["budget.full"],
        "budget.calls": c["budget.full"],
        "cli.self_s": s["cli"],
        "cli.output_bytes": sum(op["stdout_bytes"] for op in traced["ops"] if op["kind"] == "cli"),
    }


def per_layer(traced: list[dict], untraced: list[dict], pool_ops: list[dict],
              jobs: int, imports: list[dict]) -> dict:
    """Per-layer metrics: medians over traced passes, the pool probe at
    ``jobs`` workers, import-time samples and the tracing overhead."""
    rows = [_pass_layers(p) for p in traced]
    out = {name: median(r[name] for r in rows) for name in rows[0]}
    serial_s = out.pop("exchange.serial_s")
    pool_wall = span_totals(pool_ops)["total"]["exchange.sweep"]
    out["exchange.pool_wall_s"] = pool_wall
    out["exchange.pool_efficiency"] = serial_s / (jobs * pool_wall) if pool_wall else 0.0
    for name in ("import.total_s", "import.scipy_integrate_s", "import.dickeqfi_self_s"):
        out[name] = median(sample[name] for sample in imports)
    # Each traced pass runs right after an untraced one; the median of the
    # pairwise differences cancels the host's slow speed drift.
    out["trace.overhead_s"] = median(t["wall"] - u["wall"] for t, u in zip(traced, untraced))
    return {name: out[name] for name in PER_LAYER}


def parse_importtime(stderr: str) -> dict:
    """Seconds from ``python -X importtime -c 'import dickeqfi.cli'``."""
    total = scipy_integrate = own = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # column header
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        if name == "dickeqfi.cli":
            total = cumulative_us / 1e6
        elif name == "scipy.integrate":
            scipy_integrate = cumulative_us / 1e6
        if name == "dickeqfi" or name.startswith("dickeqfi."):
            own += self_us / 1e6
    return {"import.total_s": total, "import.scipy_integrate_s": scipy_integrate,
            "import.dickeqfi_self_s": own}
