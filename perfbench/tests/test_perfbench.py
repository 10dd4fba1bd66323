"""Tests of the benchmark's own logic: span arithmetic, the correctness
gate and the metric names declared in BENCHMARK.json."""
import json
from pathlib import Path

import pytest

from perfbench import metrics, workloads
from perfbench.tracing import Tracer, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def span(id, parent, start, end, name="x", **extra):
    return {"id": id, "parent": parent, "name": name, "start": start, "end": end, **extra}


def test_self_time_of_nested_spans():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 3.5, 6.0),   # overlaps span 1 by 0.5, counted once
        span(4, 0, 8.0, 12.0),  # runs past its parent, clipped at 10
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 4.0])


def test_tracer_records_parents_and_attributes():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x * 2, "inner", lambda a, k, r: {"result": r})
    outer = tracer.wrap(lambda: inner(3) + inner(4), "outer")
    assert outer() == 14
    names = [(s["name"], s["parent"], s.get("result")) for s in tracer.spans]
    assert names == [("outer", None, None), ("inner", 0, 6), ("inner", 0, 8)]
    own = self_times(tracer.spans)
    assert own[0] <= tracer.spans[0]["end"] - tracer.spans[0]["start"]
    assert all(t >= 0.0 for t in own)


def _op(workload, name, seed=0):
    op = next(o for o in workloads.operations(workload, seed, 2) if o.name == name)
    return op, workloads.load_reference(workload, seed)[name]


def _sweep_csv(values):
    lines = ["N,I_N,F_Q,dphi2,dphi2_snl,dphi2_hl,dphi2_fock"]
    for key, value in values.items():
        if key.startswith("I_N["):
            n = key[4:-1]
            lines.append(f"{n},{value!r},{values[f'F_Q[{n}]']!r},0,0,0,0")
    return ("\n".join(lines) + "\n").encode()


def test_gate_accepts_reference_values_and_flags_a_perturbed_one():
    op, ref = _op("sweep", "exchange-dicke")
    good = workloads.check(op, 0, _sweep_csv(ref["values"]), b"", ref)
    assert good["failures"] == [] and good["max_rel_dev"] == 0.0
    assert good["bytes_identical"] is False  # reported, not gated

    key = next(k for k in ref["values"] if k.startswith("I_N["))
    perturbed = dict(ref["values"], **{key: ref["values"][key] * (1 + 1e-6)})
    bad = workloads.check(op, 0, _sweep_csv(perturbed), b"", ref)
    assert any(key in f for f in bad["failures"])
    assert bad["max_rel_dev"] == pytest.approx(1e-6, rel=1e-3)

    out_of_range = dict(ref["values"], **{key: 1.5})
    assert any("outside [0, 1]" in f
               for f in workloads.check(op, 0, _sweep_csv(out_of_range), b"", ref)["failures"])


def test_gate_flags_exit_code_missing_rows_and_garbage():
    op, ref = _op("sweep", "exchange-kerr")
    text = _sweep_csv(ref["values"])
    assert workloads.check(op, 1, text, b"", ref)["failures"] == ["exit code 1"]
    truncated = b"\n".join(text.splitlines()[:-1]) + b"\n"
    assert any("missing" in f for f in workloads.check(op, 0, truncated, b"", ref)["failures"])
    assert workloads.check(op, 0, b"not,a\ncsv", b"", ref)["failures"]


def test_gate_flags_a_wrong_rational_oracle_value():
    op, ref = _op("verify", "oracle-driver")
    exact = {k[6:-1]: v for k, v in ref["values"].items() if k.startswith("exact[")}
    delay = {k[6:]: v for k, v in ref["values"].items() if k.startswith("delay.")}
    good = json.dumps({"exact": exact, "delay": delay}).encode()
    assert workloads.check(op, 0, good, b"", ref)["failures"] == []
    exact["2"] = "11/13"
    bad = workloads.check(op, 0, json.dumps({"exact": exact, "delay": delay}).encode(), b"", ref)
    assert any("not 11/12" in f for f in bad["failures"])


def test_gate_on_real_parity_output(capsys):
    from dickeqfi.cli import main

    op, ref = _op("verify", "parity-derivative")
    assert main(list(op.args)) == 0
    captured = capsys.readouterr()
    out, err = captured.out.encode(), captured.err.encode()
    good = workloads.check(op, 0, out, err, ref)
    assert good["failures"] == [] and good["bytes_identical"] is True
    wrong = err.replace(b"legendre_endpoint_derivative=10", b"legendre_endpoint_derivative=9")
    assert any("endpoint derivative" in f for f in workloads.check(op, 0, out, wrong, ref)["failures"])


def _verify_text(values):
    lines = []
    for key in values:
        if key.startswith("recurrence["):
            label, m = key[11:-1].split(",m=")
            tail = f"{label},m={m}]"
            lines.append(f"{label}  m={m}: recurrence={values['recurrence[' + tail]!r} "
                         f"oracle={values['oracle[' + tail]!r} |diff|={values['diff[' + tail]!r}")
    lines.append("verification passed")
    return ("\n".join(lines) + "\n").encode()


def test_gate_ignores_last_bit_moves_of_recurrence_oracle_diffs():
    op, ref = _op("verify", "verify")
    assert workloads.check(op, 0, _verify_text(ref["values"]), b"", ref)["failures"] == []
    key = next(k for k, v in ref["values"].items() if k.startswith("diff[") and v > 0)
    moved = dict(ref["values"], **{key: 2 * ref["values"][key]})
    record = workloads.check(op, 0, _verify_text(moved), b"", ref)
    assert record["failures"] == [] and record["max_rel_dev"] == 0.0
    too_far = dict(ref["values"], **{key: 2e-9})
    assert any("> 1e-9" in f
               for f in workloads.check(op, 0, _verify_text(too_far), b"", ref)["failures"])


def test_trace_invariant_checks_final_ground_population_against_product():
    op, ref = _op("cascade", "loss-trace", seed=3)
    assert op.invariants(ref["values"]) == []
    perturbed = dict(ref["values"], **{"P_0[end]": ref["values"]["P_0[end]"] * (1 - 1e-6)})
    assert any("branching product" in f for f in op.invariants(perturbed))


def test_branching_product_matches_the_package():
    from dickeqfi.dickesim import LossModel, collection_probability_product

    for n, purcell in ((10, 100.0), (100, 1090.18), (1000, 1e5)):
        assert workloads.branching_product(n, purcell) == pytest.approx(
            collection_probability_product(n, LossModel(1.0, 1.0 / purcell)), rel=1e-13)


def test_loss_invariant_compares_bdf_with_product():
    values = {"one_minus_p_exact[N=10,P=100]": 0.0288,
              "one_minus_p_product[N=10,P=100]": 0.0288 * (1 + 1e-6)}
    assert workloads.loss_invariants(values)
    values["one_minus_p_product[N=10,P=100]"] = 0.0288 * (1 + 1e-12)
    assert workloads.loss_invariants(values) == []


def test_declared_metrics_match_the_metrics_module():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        metrics.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_metric_names_in_output_match_benchmark_json():
    passes = [{"wall": 2.0, "cpu": 3.0, "rss_mb": 80.0, "ops": []}]
    assert list(metrics.end_to_end(passes, [0.8])) == [m["name"] for m in BENCHMARK["end_to_end"]]

    spans = [
        span(0, None, 0.0, 5.0, "cli"),
        span(1, 0, 0.1, 4.9, "exchange.sweep"),
        span(2, 1, 0.2, 0.3, "ladder.build"),
        span(3, 1, 0.3, 4.8, "exchange.integral.dicke", m=100),
    ]
    traced = [{"wall": 5.1, "ops": [{"kind": "cli", "stdout_bytes": 42, "spans": spans}]}]
    probe = [{"spans": [span(0, None, 0.0, 3.0, "exchange.sweep")]}]
    imports = [{"import.total_s": 0.8, "import.scipy_integrate_s": 0.4,
                "import.dickeqfi_self_s": 0.03}]
    layers = metrics.per_layer(traced, [{"wall": 5.0}], probe, 2, imports)
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert layers["exchange.cells"] == 100**2
    assert layers["exchange.pool_efficiency"] == pytest.approx(4.8 / (2 * 3.0))
    assert layers["exchange.integral_s"] == pytest.approx(4.5)
    assert layers["cli.self_s"] == pytest.approx(0.2)
    assert layers["trace.overhead_s"] == pytest.approx(0.1)


def test_reference_covers_every_variant_and_operation():
    for workload in workloads.WORKLOADS:
        for seed in range(workloads.VARIANTS):
            names = {op.name for op in workloads.operations(workload, seed, 2)}
            assert set(workloads.load_reference(workload, seed)) == names


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       700 |     464491 |       scipy.integrate",
        "import time:      7168 |     719650 |     dickeqfi.dickesim",
        "import time:       840 |     966861 |   dickeqfi",
        "import time:     10117 |     976978 | dickeqfi.cli",
    ])
    assert metrics.parse_importtime(stderr) == pytest.approx({
        "import.total_s": 0.976978, "import.scipy_integrate_s": 0.464491,
        "import.dickeqfi_self_s": (7168 + 840 + 10117) / 1e6})
