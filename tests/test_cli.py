import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dickeqfi
from dickeqfi.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, RunConfig, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExchangeCommand:
    def test_sweep_to_stdout(self, capsys):
        code, out, err = run(
            capsys, "exchange", "--family", "dicke", "--n", "4,8", "--no-header"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "N,I_N,F_Q,dphi2,dphi2_snl,dphi2_hl,dphi2_fock"
        first = lines[1].split(",")
        assert first[0] == "4"
        assert float(first[1]) == pytest.approx(11.0 / 12.0, abs=1e-12)

    def test_range_spec_with_step(self, capsys):
        code, out, _ = run(
            capsys, "exchange", "--family", "harmonic", "--n", "4..10",
            "--step", "2", "--no-header",
        )
        assert code == EXIT_OK
        ns = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert ns == ["4", "6", "8", "10"]

    def test_output_bytes_deterministic(self, tmp_path, capsys):
        args = ["exchange", "--family", "anharmonic", "--u-over-gamma", "10",
                "--n", "4,6,8", "--no-header"]
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(args + ["--out", str(path)]) == EXIT_OK
            paths.append(path.read_bytes())
        capsys.readouterr()
        assert paths[0] == paths[1]

    def test_jobs_do_not_change_bytes(self, tmp_path, capsys):
        base = ["exchange", "--family", "dicke", "--n", "4..12", "--no-header"]
        blobs = []
        for jobs, name in ((1, "serial.csv"), (2, "parallel.csv")):
            path = tmp_path / name
            assert main(base + ["--jobs", str(jobs), "--out", str(path)]) == EXIT_OK
            blobs.append(path.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_header_line_present_by_default(self, capsys):
        code, out, _ = run(capsys, "exchange", "--family", "dicke", "--n", "4")
        assert code == EXIT_OK
        assert out.startswith("# generated=")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "exchange", "--family", "dicke", "--n", "4",
            "--format", "json", "--no-header",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["subcommand"] == "exchange"
        assert payload["rows"][0]["N"] == 4
        assert "generated" not in payload

    def test_verify_oracle(self, capsys):
        code, out, _ = run(
            capsys, "exchange", "--family", "dicke", "--n", "4,6",
            "--verify-oracle",
        )
        assert code == EXIT_OK
        assert "|diff|" in out

    def test_verify_oracle_honours_out(self, tmp_path, capsys):
        path = tmp_path / "check.txt"
        code, out, _ = run(
            capsys, "exchange", "--family", "dicke", "--n", "4,10",
            "--verify-oracle", "--out", str(path),
        )
        assert code == EXIT_OK
        assert out == ""
        lines = path.read_text().splitlines()
        assert lines[0].startswith("N=4: recurrence=")
        assert lines[1] == "N=10: skipped (above oracle guard 8)"

    def test_missing_n_names_key(self, capsys):
        code, _, err = run(capsys, "exchange", "--family", "dicke")
        assert code == EXIT_USAGE
        assert "n:" in err

    def test_odd_n_rejected(self, capsys):
        code, _, err = run(capsys, "exchange", "--family", "dicke", "--n", "5")
        assert code == EXIT_USAGE
        assert "n:" in err

    def test_missing_family_names_key(self, capsys):
        code, _, err = run(capsys, "exchange", "--n", "4")
        assert code == EXIT_USAGE
        assert "family:" in err


class TestLossCommand:
    def test_branching_reference(self, capsys):
        code, out, _ = run(
            capsys, "loss", "--n", "1", "--purcell", "9", "--no-header"
        )
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.1, abs=1e-9)

    def test_sweep_columns(self, capsys):
        code, out, _ = run(
            capsys, "loss", "--n", "5,10", "--purcell", "100,1000", "--no-header"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "N,purcell,one_minus_p_exact,one_minus_p_product,log_estimate"
        assert len(lines) == 5

    def test_one_minus_p_keeps_its_digits(self, capsys):
        # 1 - p summed over the rung k = 1..N where the first photon is
        # lost (probability 1/(kP + 1) each), without cancellation
        n, purcell = 10, 1e12
        terms, kept = [], 1.0
        for k in range(1, n + 1):
            share = 1.0 / (k * purcell + 1.0)
            terms.append(share * kept)
            kept *= 1.0 - share
        code, out, _ = run(
            capsys, "loss", "--n", str(n), "--purcell", "1e12", "--no-header"
        )
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(math.fsum(terms), rel=1e-12, abs=0.0)
        assert row[3] == row[2]

    def test_infinite_purcell(self, capsys):
        code, out, _ = run(
            capsys, "loss", "--n", "3", "--purcell", "inf", "--no-header"
        )
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.0, abs=1e-9)

    def test_trace_output(self, capsys):
        code, out, _ = run(
            capsys, "loss", "--n", "2", "--purcell", "inf", "--trace",
            "--no-header",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,P_0,P_1,P_2,sum"
        first = lines[1].split(",")
        assert float(first[3]) == 1.0  # fully inverted start

    def test_trace_needs_single_point(self, capsys):
        code, _, err = run(
            capsys, "loss", "--n", "2,3", "--purcell", "inf", "--trace"
        )
        assert code == EXIT_USAGE
        assert "trace:" in err


class TestParityCommand:
    def test_single_mode_legendre(self, capsys):
        code, out, err = run(
            capsys, "parity", "--single-mode", "--m", "2", "--points", "5",
            "--no-header",
        )
        assert code == EXIT_OK
        assert "saturation=1" in err

    def test_derivative_check(self, capsys):
        code, _, err = run(
            capsys, "parity", "--single-mode", "--m", "3", "--points", "3",
            "--no-header", "--check-derivative",
        )
        assert code == EXIT_OK
        assert "expected=6" in err

    def test_derivative_check_accepts_a_multimode_fringe(self, capsys):
        # a Dicke input's endpoint derivative is m(m I + 1)/2, not m(m+1)/2
        code, _, err = run(
            capsys, "parity", "--family", "dicke", "--m", "4", "--points", "3",
            "--no-header", "--check-derivative",
        )
        assert code == EXIT_OK
        derivative = float(err.split("legendre_endpoint_derivative=")[1].split()[0])
        assert derivative < 10.0
        assert f"expected={derivative:.12g}" in err

    def test_multimode_curvature_matches_qfi(self, capsys):
        code, _, err = run(
            capsys, "parity", "--family", "dicke", "--m", "2", "--points", "3",
            "--no-header",
        )
        assert code == EXIT_OK
        assert "saturation=1" in err

    def test_oracle_guard_guides_user(self, capsys):
        code, _, err = run(capsys, "parity", "--family", "dicke", "--m", "6")
        assert code == EXIT_USAGE
        assert "--single-mode" in err

    def test_guard_override(self, capsys):
        code, _, err = run(
            capsys, "parity", "--family", "dicke", "--m", "5", "--points", "3",
            "--oracle-max", "10", "--no-header",
        )
        assert code == EXIT_OK


class TestReportCommand:
    SIN = [
        "report", "--q", "1e6", "--n-g", "10", "--lambda-a", "300e-9",
        "--gamma-1d", "3.7699e7", "--gamma-star", "6.2832e5", "--n", "10",
    ]

    def test_plain_report(self, capsys):
        code, out, _ = run(capsys, *self.SIN)
        assert code == EXIT_OK
        assert "propagation_length    50000" in out
        assert "combined QFI lower bound" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, *self.SIN, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["platform"]["n_photons"] == 10
        channels = {e["channel"] for e in payload["entries"]}
        assert "retardation" in channels

    def test_infeasible_is_reported_not_fatal(self, capsys):
        args = list(self.SIN)
        args[args.index("--n") + 1] = "1000"
        code, out, _ = run(capsys, *args)
        assert code == EXIT_OK  # infeasibility is a verdict, not an error

    def test_missing_parameter_names_key(self, capsys):
        code, _, err = run(capsys, "report", "--q", "1e6")
        assert code == EXIT_USAGE
        assert "n_g:" in err

    def test_fidelity_table(self, capsys):
        code, out, _ = run(capsys, *self.SIN, "--fidelity-table")
        assert code == EXIT_OK
        assert "fidelity vs photon number" in out

    def test_zero_imperfections_reproduce_ideal(self, capsys):
        code, out, _ = run(
            capsys, "report", "--q", "1e6", "--n-g", "10", "--lambda-a",
            "300e-9", "--gamma-1d", "3.7699e7", "--gamma-star", "0",
            "--n", "4", "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        ideal = 4 * (11.0 / 12.0 * 4 + 2) / 2.0
        assert payload["ideal_qfi"] == pytest.approx(ideal, rel=1e-9)
        assert payload["combined_qfi_lower_bound"] == pytest.approx(
            ideal, rel=1e-8
        )
        assert payload["collection_probability"] == pytest.approx(1.0, abs=1e-9)


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-max", "2")
        assert code == EXIT_OK
        assert "verification passed" in out

    def test_unreachable_tolerance_fails_numerically(self, capsys):
        code, _, err = run(capsys, "verify", "--m-max", "2", "--tol", "1e-30")
        assert code == EXIT_NUMERIC
        assert "FAILED" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    @pytest.mark.parametrize(
        "argv",
        [["verify", "--m-max", "2"],
         ["exchange", "--family", "dicke", "--n", "4", "--verify-oracle"]],
        ids=["verify", "exchange"],
    )
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, argv, tol):
        # a NaN tolerance used to pass every case: worst > nan is never true
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert code == EXIT_USAGE
        assert "tol:" in err
        assert out == ""

    def test_honours_out(self, tmp_path, capsys):
        path = tmp_path / "verify.txt"
        code, out, _ = run(capsys, "verify", "--m-max", "2", "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert "verification passed" in path.read_text()


class TestConfigHandling:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "dicke", "n": "4", "no_header": True}))
        code, out, _ = run(capsys, "exchange", "--config", str(config))
        assert code == EXIT_OK
        assert out.startswith("N,")

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "dicke", "n": "4", "no_header": True}))
        code, out, _ = run(
            capsys, "exchange", "--config", str(config), "--family", "harmonic"
        )
        assert code == EXIT_OK
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_dumped_config_is_a_fixed_point(self, tmp_path, capsys):
        dump1 = tmp_path / "resolved1.json"
        dump2 = tmp_path / "resolved2.json"
        base = ["exchange", "--family", "dicke", "--n", "4", "--no-header",
                "--jobs", "1"]
        assert main(base + ["--dump-config", str(dump1)]) == EXIT_OK
        assert main(
            ["exchange", "--config", str(dump1), "--dump-config", str(dump2),
             "--jobs", "1"]
        ) == EXIT_OK
        capsys.readouterr()
        assert dump1.read_bytes() == dump2.read_bytes()
        cfg = RunConfig.from_json(dump1.read_text())
        assert cfg.subcommand == "exchange"
        assert cfg.options["family"] == "dicke"

    def test_run_config_json_round_trip(self):
        cfg = RunConfig("loss", {"n": "10", "purcell": "inf", "format": "csv"})
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_jobs_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DICKEQFI_JOBS", "1")
        dump = tmp_path / "resolved.json"
        code, _, _ = run(
            capsys, "exchange", "--family", "dicke", "--n", "4",
            "--no-header", "--dump-config", str(dump),
        )
        assert code == EXIT_OK
        assert RunConfig.from_json(dump.read_text()).options["jobs"] == 1

    @pytest.mark.parametrize("jobs", ["abc", "-3", "0", "2.5"])
    def test_invalid_jobs_flag_names_key(self, capsys, jobs):
        code, _, err = run(
            capsys, "exchange", "--family", "dicke", "--n", "4", "--jobs", jobs
        )
        assert code == EXIT_USAGE
        assert "error: jobs:" in err

    def test_invalid_jobs_in_config_names_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "dicke", "n": "4", "jobs": 0}))
        code, _, err = run(capsys, "exchange", "--config", str(config))
        assert code == EXIT_USAGE
        assert "error: jobs:" in err

    def test_invalid_jobs_env_names_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("DICKEQFI_JOBS", "abc")
        code, _, err = run(capsys, "exchange", "--family", "dicke", "--n", "4")
        assert code == EXIT_USAGE
        assert "error: DICKEQFI_JOBS:" in err

    def test_unknown_format_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "dicke", "n": "4", "format": "xml"}))
        code, _, err = run(capsys, "exchange", "--config", str(config))
        assert code == EXIT_USAGE
        assert "format:" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(
            capsys, "exchange", "--family", "dicke", "--n", "4",
            "--config", "/nonexistent/config.json",
        )
        assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["exchange", "--family", "dicke", "--n", "abc"],
        ["exchange", "--family", "dicke", "--n", "4..x"],
        ["exchange", "--family", "dicke", "--n", "0"],
        ["loss", "--n", "3", "--purcell", "zzz"],
        ["loss", "--purcell", "10"],
        ["parity", "--single-mode"],
        ["parity", "--single-mode", "--m", "0"],
        ["report", "--q", "1e6", "--n-g", "10"],
    ],
    ids=[
        "garbled-n", "garbled-range", "zero-n", "garbled-purcell",
        "missing-n", "missing-m", "zero-m", "missing-params",
    ],
)
def test_malformed_inputs_exit_usage(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "error:" in err


_SIN_REPORT = ["report", "--q", "1e6", "--n-g", "10", "--lambda-a", "300e-9",
               "--gamma-1d", "3.7699e7", "--gamma-star", "6.2832e5", "--n", "10"]


@pytest.mark.parametrize(
    "argv,key",
    [
        (_SIN_REPORT + ["--pulse-error", "nan"], "pulse_error"),
        (_SIN_REPORT + ["--delay", "nan"], "delay"),
        (_SIN_REPORT + ["--delta-gamma", "nan"], "delta_gamma"),
        (_SIN_REPORT + ["--delta-gamma", "1.5"], "delta_gamma"),
        (_SIN_REPORT + ["--margin-factor", "0"], "margin_factor"),
        (_SIN_REPORT + ["--margin-factor", "nan"], "margin_factor"),
        (_SIN_REPORT + ["--margin-factor", "inf"], "margin_factor"),
        ([*_SIN_REPORT[:-4], "--gamma-star", "inf", "--n", "10"], "gamma_star"),
        (["loss", "--n", "10", "--purcell", "nan"], "purcell"),
        (["loss", "--n", "10", "--purcell", "0"], "purcell"),
        (["loss", "--n", "10", "--purcell", "nan..1e3", "--points", "2"], "purcell"),
    ],
    ids=[
        "pulse-nan", "delay-nan", "delta-gamma-nan", "delta-gamma-1.5", "margin-0",
        "margin-nan", "margin-inf", "gamma-star-inf", "purcell-nan", "purcell-0",
        "purcell-range-nan",
    ],
)
def test_nonfinite_physical_inputs_name_the_key(capsys, argv, key):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert key in err
    assert out == ""


def test_unknown_subcommand_exits_usage():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EXIT_USAGE


def _subprocess_env():
    src = str(Path(dickeqfi.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_closed_stdout_exits_cleanly():
    # The trace is larger than a pipe buffer, so the program is still
    # writing when the reader stops after the first line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "dickeqfi.cli", "loss", "--n", "30", "--purcell", "inf",
         "--trace", "--no-header"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(),
    )
    assert proc.stdout.readline().startswith(b"t,P_0,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_OK
    assert err == b""


def test_import_loads_no_solver_or_sparse_scipy():
    # Only the population trace needs scipy, and it imports it lazily.
    probe = ("import sys, dickeqfi.cli; "
             "print(sorted(m for m in ('scipy.integrate', 'scipy.sparse') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=_subprocess_env(), check=True).stdout
    assert out.strip() == "[]"


def test_traced_names_resolve():
    # The benchmark's tracer replaces these module attributes; each must
    # exist, or a traced run fails before it starts.
    from perfbench.tracing import WRAPPED

    for module, attr, _, _ in WRAPPED:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
