"""Benchmark workloads, their operations and the correctness gate.

A workload is a fixed list of operations run one after another, each in
a fresh interpreter (closed loop, one client).  The seed picks one of
``VARIANTS`` shifted parameter grids; the shifts move inputs, not cost.
Every operation's output is parsed into named values, checked against
invariants that hold for every seed, and compared with the values stored
for its variant in ``reference.json``.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

VARIANTS = 8
# The package's own verification tolerance (``verify --tol`` default): a
# value that drifts further than this from its reference is wrong.
REL_TOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("sweep", "cascade", "verify")


@dataclass(frozen=True)
class Op:
    """One invocation: ``cli`` runs dickeqfi's command line, ``oracle``
    the library driver in ``perfbench.child``."""

    name: str
    kind: str
    args: tuple[str, ...]
    parse: Callable[[str, str], dict]
    invariants: Callable[[dict], list[str]]

    def argv(self, python: str, trace_file: str | None = None) -> list[str]:
        if self.kind == "cli" and trace_file is None:
            return [python, "-m", "dickeqfi.cli", *self.args]
        traced = ["--trace", trace_file] if trace_file else []
        return [python, "-m", "perfbench.child", *traced, self.kind, *self.args]


# -- parsers: (stdout, stderr) -> {name: float | str} -------------------------


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def parse_sweep(out: str, err: str) -> dict:
    values = {}
    errors = 0
    for row in _csv_rows(out):
        if row.get("error"):
            errors += 1
            continue
        values[f"I_N[{row['N']}]"] = float(row["I_N"])
        values[f"F_Q[{row['N']}]"] = float(row["F_Q"])
    if errors:
        values["error_rows"] = float(errors)
    return values


def sweep_invariants(values: dict) -> list[str]:
    bad = [f"error rows: {int(values['error_rows'])}"] if "error_rows" in values else []
    if not any(k.startswith("I_N[") for k in values):
        bad.append("no sweep rows")
    bad += [f"{k}={v!r} outside [0, 1]" for k, v in values.items()
            if k.startswith("I_N[") and not 0.0 <= v <= 1.0]
    return bad


def parse_loss(out: str, err: str) -> dict:
    values = {}
    for row in _csv_rows(out):
        key = f"N={row['N']},P={row['purcell']}"
        values[f"one_minus_p_exact[{key}]"] = float(row["one_minus_p_exact"])
        values[f"one_minus_p_product[{key}]"] = float(row["one_minus_p_product"])
    return values


def loss_invariants(values: dict) -> list[str]:
    # The BDF solve (rtol 1e-11, atol 1e-14) must reproduce the exact
    # branching product of the absorbing chain.
    bad = [] if values else ["no loss rows"]
    for key, exact in values.items():
        if not key.startswith("one_minus_p_exact["):
            continue
        product = values[key.replace("_exact[", "_product[")]
        if abs(exact - product) > REL_TOL * abs(product) + 1e-14:
            bad.append(f"BDF {key}={exact!r} vs product {product!r}")
    return bad


def parse_trace(out: str, err: str) -> dict:
    rows = _csv_rows(out)
    top = [c for c in rows[0] if c.startswith("P_")][-1]
    return {
        "rows": float(len(rows)),
        "P_0[end]": float(rows[-1]["P_0"]),
        f"{top}[1]": float(rows[1][top]),
        "sum[end]": float(rows[-1]["sum"]),
    }


def branching_product(n: int, purcell: float) -> float:
    """All-collected probability of the absorbing cascade, written out
    independently of dickeqfi: rung m of N decays into the waveguide at
    m(N-m+1) and out of it at m/P, so the rung keeps kP/(kP+1), k = N-m+1."""
    p = 1.0
    for k in range(1, n + 1):
        p *= k * purcell / (k * purcell + 1.0)
    return p


def trace_invariants(values: dict, n: int, purcell: float) -> list[str]:
    # The trace ends at twenty cascade durations, long after every rung has
    # decayed, so its ground-state population is the collection probability.
    bad = []
    expected = branching_product(n, purcell)
    if abs(values["P_0[end]"] - expected) > REL_TOL * expected:
        bad.append(f"P_0[end]={values['P_0[end]']!r} vs branching product {expected!r}")
    if not 0.0 <= values["sum[end]"] <= 1.0 + 1e-9:
        bad.append(f"population sum {values['sum[end]']!r} outside [0, 1]")
    return bad


def parse_report(out: str, err: str) -> dict:
    payload = json.loads(out)
    values = {
        key: float(payload[key])
        for key in ("ideal_qfi", "combined_qfi_lower_bound", "effective_exchange_integral")
    }
    values["one_minus_p"] = 1.0 - float(payload["collection_probability"])
    values["n_photons"] = float(payload["platform"]["n_photons"])
    for entry in payload["entries"]:
        values[f"entry[{entry['channel']}]"] = float(entry["value"])
    return values


def report_invariants(values: dict) -> list[str]:
    n, i_n = values["n_photons"], values["effective_exchange_integral"]
    bad = []
    # No imperfection flags are set, so the effective overlap is the bare one.
    twin = n * (i_n * n + 2.0) / 2.0
    if abs(values["ideal_qfi"] - twin) > 1e-12 * twin:
        bad.append(f"ideal_qfi {values['ideal_qfi']!r} != N(IN+2)/2 = {twin!r}")
    if not 0.0 <= i_n <= 1.0:
        bad.append(f"effective overlap {i_n!r} outside [0, 1]")
    if not 0.0 <= values["one_minus_p"] <= 1.0:
        bad.append(f"1-p {values['one_minus_p']!r} outside [0, 1]")
    return bad


_VERIFY_LINE = re.compile(
    r"^(?P<label>\S+)\s+m=(?P<m>\d+): recurrence=(?P<rec>\S+) "
    r"oracle=(?P<ora>\S+) \|diff\|=(?P<diff>\S+)$"
)


def parse_verify(out: str, err: str) -> dict:
    values = {}
    for line in out.splitlines():
        match = _VERIFY_LINE.match(line)
        if match:
            key = f"{match['label']},m={match['m']}"
            values[f"recurrence[{key}]"] = float(match["rec"])
            values[f"oracle[{key}]"] = float(match["ora"])
            values[f"diff[{key}]"] = float(match["diff"])
    values["passed"] = "passed" if "verification passed" in out else "failed"
    return values


def verify_invariants(values: dict) -> list[str]:
    diffs = {k: v for k, v in values.items() if k.startswith("diff[")}
    bad = [] if diffs else ["no verification lines"]
    bad += [f"recurrence vs oracle {k}={v!r} > 1e-9" for k, v in diffs.items() if v > 1e-9]
    bad += [f"{k}={v!r} outside [0, 1]" for k, v in values.items()
            if k.startswith("recurrence[") and not 0.0 <= v <= 1.0]
    if values["passed"] != "passed":
        bad.append("verify did not report success")
    return bad


_STDERR_NUMBER = re.compile(r"(\w+)=([-+0-9.eE]+|inf|nan)")


def parse_parity(out: str, err: str) -> dict:
    values = {k: float(v) for k, v in _STDERR_NUMBER.findall(err)}
    values["expectation_sum"] = math.fsum(float(r["expectation"]) for r in _csv_rows(out))
    return values


def parity_invariants(values: dict) -> list[str]:
    # Parity readout saturates the twin QFI: the fringe curvature equals it.
    if abs(values["saturation"] - 1.0) > REL_TOL:
        return [f"parity saturation {values['saturation']!r} != 1"]
    return []


def derivative_invariants(values: dict) -> list[str]:
    bad = parity_invariants(values)
    got, expected = values["legendre_endpoint_derivative"], values["expected"]
    if abs(got - expected) > REL_TOL:
        bad.append(f"endpoint derivative {got!r} != {expected!r}")
    return bad


def parse_oracle(out: str, err: str) -> dict:
    payload = json.loads(out)
    values = {f"exact[{m}]": v for m, v in payload["exact"].items()}
    values.update({f"delay.{k}": float(v) for k, v in payload["delay"].items()})
    return values


def oracle_invariants(values: dict) -> list[str]:
    bad = []
    if values.get("exact[2]") != "11/12":
        bad.append(f"exact oracle at m = 2 is {values.get('exact[2]')}, not 11/12")
    exact, bound, ref = (values[f"delay.{k}"] for k in ("exact", "bound", "reference"))
    if not bound <= exact <= ref * (1.0 + 1e-12):
        bad.append(f"delay check out of order: bound {bound!r}, exact {exact!r}, zero-delay {ref!r}")
    top = max(k for k in values if k.startswith("exact["))
    rational = float(Fraction(values[top]))
    if abs(rational - ref) > REL_TOL * ref:
        bad.append(f"float oracle {ref!r} vs rational {top}={rational!r}")
    return bad


# -- workloads ---------------------------------------------------------------


def operations(workload: str, seed: int, jobs: int) -> list[Op]:
    """Operations of one pass.  ``seed`` selects the grid shift; ``jobs``
    is passed explicitly so no default worker count leaks in."""
    v = seed % VARIANTS
    common = ("--jobs", str(jobs), "--no-header")
    if workload == "sweep":
        return [
            Op("exchange-dicke", "cli",
               ("exchange", "--family", "dicke", "--n", f"{40 + 2 * v}..2000",
                "--step", "160", *common),
               parse_sweep, sweep_invariants),
            Op("exchange-kerr", "cli",
               ("exchange", "--family", "anharmonic", "--u-over-gamma", "10",
                "--n", f"{8 + 2 * v}..800", "--step", "64", *common),
               parse_sweep, sweep_invariants),
        ]
    if workload == "cascade":
        f = 10.0 ** (v / 80.0)
        trace_purcell = f"{1e3 * f:.6g}"
        return [
            Op("loss-sweep", "cli",
               ("loss", "--n", "10,100,1000", "--purcell",
                f"{1e2 * f:.6g}..{1e5 * f:.6g}", "--points", "2", *common),
               parse_loss, loss_invariants),
            Op("loss-trace", "cli",
               ("loss", "--n", "100", "--purcell", trace_purcell, "--trace", *common),
               parse_trace,
               lambda values: trace_invariants(values, 100, float(trace_purcell))),
            Op("report", "cli",
               ("report", "--q", "1e6", "--n-g", "10", "--lambda-a", "300e-9",
                "--gamma-1d", "3.7699e7", "--gamma-star", f"{6.2832e5 * f:.6g}",
                "--n", "100", "--json", *common),
               parse_report, report_invariants),
        ]
    if workload == "verify":
        scale = 1.0 + v / 8.0
        gamma = f"{scale:g}"
        return [
            Op("verify", "cli",
               ("verify", "--m-max", "4", "--families",
                f"dicke,harmonic,anharmonic:{scale:g},anharmonic:{10 + v},"
                "anharmonic:1000", *common),
               parse_verify, verify_invariants),
            Op("parity-dicke", "cli",
               ("parity", "--m", "4", "--family", "dicke", "--gamma", gamma, *common),
               parse_parity, parity_invariants),
            Op("parity-derivative", "cli",
               ("parity", "--m", "4", "--single-mode", "--check-derivative", *common),
               parse_parity, derivative_invariants),
            # The delayed oracle's cost depends on gamma * tau, so the
            # delay moves with the rate to keep that product at 0.15.
            Op("oracle-driver", "oracle",
               ("--gamma", gamma, "--tau", repr(0.15 / scale), "--m-max", "4"),
               parse_oracle, oracle_invariants),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- correctness gate ----------------------------------------------------------


# Values that are rounding-level by nature: |recurrence - oracle| reads
# 1.1e-16 or 2.2e-16 as the last bits move, a relative change of 1.  They
# are recorded and bounded absolutely by ``verify_invariants``, not
# compared with the reference.
UNCOMPARED_PREFIXES = ("diff[",)


def compare(values: dict, reference: dict) -> tuple[float, list[str]]:
    """Largest relative deviation from the reference and the mismatches."""
    worst = 0.0
    bad = []
    keys = {k for k in set(values) | set(reference) if not k.startswith(UNCOMPARED_PREFIXES)}
    for key in sorted(keys):
        if key not in values or key not in reference:
            bad.append(f"{key}: {'missing' if key in reference else 'not in reference'}")
            continue
        got, want = values[key], reference[key]
        if isinstance(want, str) or isinstance(got, str):
            if got != want:
                bad.append(f"{key}: {got!r} != reference {want!r}")
            continue
        dev = abs(got - want) / abs(want) if want else abs(got)
        if not dev <= REL_TOL:  # also catches nan
            bad.append(f"{key}: {got!r} deviates {dev:.3g} from reference {want!r}")
        worst = max(worst, dev) if not math.isnan(dev) else math.inf
    return worst, bad


def check(op: Op, rc: int, stdout: bytes, stderr: bytes, reference: dict | None) -> dict:
    """Gate one operation's result.  Any entry in ``failures`` makes it a
    failed operation; ``bytes_identical`` is reported, not gated, because
    a change may move values within the tolerance."""
    record = {
        "op": op.name,
        "rc": rc,
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "values": {},
        "failures": [] if rc == 0 else [f"exit code {rc}"],
        "max_rel_dev": 0.0,
        "bytes_identical": None,
    }
    try:
        values = op.parse(stdout.decode(), stderr.decode())
        record["failures"] += op.invariants(values)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        record["failures"].append(f"unparsable output: {type(exc).__name__}: {exc}")
        return record
    record["values"] = values
    if reference is not None:
        record["bytes_identical"] = record["sha256"] == reference["sha256"]
        record["max_rel_dev"], bad = compare(values, reference["values"])
        record["failures"] += bad
    return record


def load_reference(workload: str, seed: int) -> dict:
    """Stored per-operation references for the seed's variant."""
    data = json.loads(REFERENCE_PATH.read_text())
    return data["workloads"][workload][str(seed % VARIANTS)]
