import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dickeqfi
from dickeqfi.cli import (
    _EXCHANGE_N, _SUBCOMMANDS, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, MAX_EXCHANGE_N, MAX_TRACE_N,
    RunConfig, _linspace, _ratios, main,
)


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

    def test_jobs_do_not_change_grouped_dicke_bytes(self, capsys):
        # m = 100, 50 | 20 | 2: three batched passes on a pool of two
        base = ["exchange", "--family", "dicke", "--n", "4,200,40,100,4", "--no-header"]
        outputs = [run(capsys, *base, "--jobs", jobs) for jobs in ("1", "2")]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == EXIT_OK

    def test_failed_points_print_no_numpy_warnings(self):
        # Every arm's lowest rung is made 1e310 times slower, which overflows
        # 1 / c1 at the corner; the two points run the plain pass at N = 4, 6
        # and the array pass at N = 200, 202.
        spread = ("import sys\n"
                  "from dickeqfi import cli, exchange, ladder\n"
                  "build = exchange.LadderFamily.build_arm\n"
                  "def spread(family, n_total):\n"
                  "    arm = build(family, n_total)\n"
                  "    return ladder.DecayLadder(levels=arm.levels, frequencies=arm.frequencies,\n"
                  "                              rates=(arm.rates[0] * 1e-310, *arm.rates[1:]))\n"
                  "exchange.LadderFamily.build_arm = spread\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        for n_values in ("4,6", "200,202"):
            proc = subprocess.run(
                [sys.executable, "-c", spread, "exchange", "--family", "dicke",
                 "--n", n_values, "--jobs", "1", "--no-header"],
                capture_output=True, env=_subprocess_env(), timeout=120,
            )
            assert proc.returncode == EXIT_NUMERIC
            assert proc.stderr == b"2 sweep points failed\n"
            assert proc.stdout.count(b"InvalidLadderError") == 2

    @pytest.mark.parametrize("gamma", ["1e-200", "1e200", "1e-320"])
    def test_extreme_gamma_gives_the_unit_rate_overlap(self, capsys, gamma):
        # the overlap does not depend on gamma; 1e-200 read 0.0794 once
        rows = []
        for g in ("1", gamma):
            code, out, err = run(capsys, "exchange", "--family", "dicke", "--gamma", g,
                                 "--n", "20", "--no-header")
            assert (code, err) == (EXIT_OK, "")
            rows.append(out.splitlines()[1].split(","))
        assert float(rows[0][1]) == pytest.approx(0.8334949381419142, rel=1e-15)
        assert float(rows[1][1]) == pytest.approx(float(rows[0][1]), rel=5e-15)

    def test_jobs_do_not_change_nested_sweep_bytes(self, capsys):
        base = ["exchange", "--family", "anharmonic", "--u-over-gamma", "3",
                "--n", "4..40", "--no-header"]
        outputs = [run(capsys, *base, "--jobs", jobs) for jobs in ("1", "2")]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == EXIT_OK

    def test_failed_reverse_pass_exits_numerically(self, capsys, monkeypatch):
        import dickeqfi.exchange

        def boom(a, b):
            raise dickeqfi.exchange.InvalidLadderError("synthetic failure")

        monkeypatch.setattr(dickeqfi.exchange, "_reverse_pass", boom)
        code, out, err = run(capsys, "exchange", "--family", "harmonic", "--n", "4,8",
                             "--no-header")
        assert code == EXIT_NUMERIC
        assert out.splitlines()[1:] == [
            f"{n},,,,,,,InvalidLadderError: synthetic failure" for n in (4, 8)]
        assert "2 sweep points failed" in err

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

    def test_n_beyond_recurrence_reach_rejected_at_once(self, capsys):
        # 10^9 points would be built and swept; the converter rejects the
        # range by its upper end before any point exists
        start = time.perf_counter()
        code, out, err = run(capsys, "exchange", "--family", "dicke",
                             "--n", "2..2000000000", "--step", "2", "--no-header")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: n: ") and str(MAX_EXCHANGE_N) in err

    @pytest.mark.parametrize("spec", [f"4,{MAX_EXCHANGE_N + 2}", f"{MAX_EXCHANGE_N + 2}"])
    def test_n_list_beyond_reach_rejected(self, capsys, spec):
        code, out, err = run(capsys, "exchange", "--family", "dicke", "--n", spec)
        assert (code, out) == (EXIT_USAGE, "")
        assert "n:" in err

    @pytest.mark.parametrize("spec", ["10..4", ","])
    def test_empty_n_rejected(self, capsys, spec):
        # as loss rejects it: a sweep of no point is a usage error, not a header
        code, out, err = run(capsys, "exchange", "--family", "dicke", "--n", spec,
                             "--no-header")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: n: ")

    def test_n_at_reach_accepted(self):
        # the bound is inclusive; the converter is called directly, as a
        # sweep to N = MAX_EXCHANGE_N would take minutes
        for spec in (f"{MAX_EXCHANGE_N - 2}..{MAX_EXCHANGE_N}", f"4,{MAX_EXCHANGE_N}"):
            assert _EXCHANGE_N(spec) == spec

    def test_loss_n_keeps_its_own_rule(self, capsys):
        code, _, err = run(capsys, "loss", "--n", f"{MAX_EXCHANGE_N + 1}",
                           "--purcell", "1e3", "--no-header")
        assert code == EXIT_OK, err


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

    def test_unconverged_trace_exits_numeric(self, capsys, monkeypatch):
        import numpy as np

        # a grid of 0.2 cascade times and one doubling leaves excited population
        populations = dickeqfi.cli.dicke_populations
        monkeypatch.setattr(dickeqfi.cli, "dicke_populations", lambda n, loss: populations(
            n, loss, t_grid=np.linspace(0.0, 0.2, 5), max_extensions=1))
        code, out, err = run(
            capsys, "loss", "--n", "2", "--purcell", "inf", "--trace", "--no-header",
        )
        assert code == EXIT_NUMERIC
        assert out.splitlines()[0] == "t,P_0,P_1,P_2,sum" and len(out.splitlines()) == 6
        residual = populations(2, dickeqfi.cli._loss_model(math.inf),
                               t_grid=np.linspace(0.0, 0.2, 5), max_extensions=1).residual
        assert residual > 1e-10
        assert err == (f"population trace not converged: excited population {residual:.3e}"
                       " left at the horizon t=0.4\n")

    def test_trace_needs_single_point(self, capsys):
        code, _, err = run(
            capsys, "loss", "--n", "2,3", "--purcell", "inf", "--trace"
        )
        assert code == EXIT_USAGE
        assert "trace:" in err

    def test_trace_n_beyond_its_cap_rejected_at_once(self, capsys, monkeypatch):
        # a dense propagator of 10^4 levels would need about 11 GB
        def refuse(*args, **kwargs):
            raise AssertionError("the trace was started")

        monkeypatch.setattr(dickeqfi.cli, "dicke_populations", refuse)
        for n in (MAX_TRACE_N + 1, 10**4):
            code, out, err = run(capsys, "loss", "--n", str(n), "--purcell", "inf",
                                 "--trace", "--no-header")
            assert (code, out) == (EXIT_USAGE, "")
            assert err == f"error: n: a trace takes N up to {MAX_TRACE_N}, got {n}\n"


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

    @pytest.mark.parametrize("extra", [[], ["--check-derivative"]], ids=["plain", "derivative"])
    def test_a_fringe_past_the_rounding_bound_exits_numeric(self, capsys, extra):
        code, out, err = run(capsys, "parity", "--single-mode", "--m", "60", "--no-header",
                             *extra)
        assert code == EXIT_NUMERIC and out == ""
        assert err.startswith("numeric failure: parity expectation at m=60")

    def test_oracle_guard_guides_user(self, capsys):
        code, _, err = run(capsys, "parity", "--family", "dicke", "--m", "6")
        assert code == EXIT_USAGE
        assert "--single-mode" in err

    def test_oracle_guard_runs_before_the_arm_is_built(self, capsys, monkeypatch):
        # the guard used to follow a build whose cost grows linearly with m
        from dickeqfi.exchange import LadderFamily

        def refuse(self, n):
            raise AssertionError("the arm was built")

        monkeypatch.setattr(LadderFamily, "build_arm", refuse)
        code, out, err = run(capsys, "parity", "--family", "dicke", "--m", "5")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: m: 5 photons per arm exceeds the oracle guard (8 total)")

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

    @pytest.mark.parametrize("n", [MAX_EXCHANGE_N + 2, 2000000])
    def test_n_beyond_recurrence_reach_rejected_at_once(self, capsys, n):
        # an O(m^2) recurrence at m = 10^6 runs for minutes
        args = list(self.SIN)
        args[args.index("--n") + 1] = str(n)
        start = time.perf_counter()
        code, out, err = run(capsys, *args)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: n: ") and str(MAX_EXCHANGE_N) in err

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

    def test_nan_recurrence_fails(self, capsys, monkeypatch):
        # max(0.0, nan) is 0.0: a NaN difference used to pass the run
        nan = dickeqfi.oracle.ExchangeIntegral(value=math.nan, total_photons=2,
                                               method="recurrence", exchanged_count=1)
        monkeypatch.setattr(dickeqfi.cli, "exchange_integral", lambda config: nan)
        code, out, err = run(capsys, "verify", "--m-max", "1", "--families", "dicke")
        assert code == EXIT_NUMERIC
        assert "|diff|=nan" in out
        assert "passed" not in out
        assert "verification FAILED: max |diff| nan" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"], ids=lambda tol: f"verify-{tol}")
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, tol):
        # a NaN tolerance used to pass every case: worst > nan is never true
        code, out, err = run(capsys, "verify", "--m-max", "2", f"--tol={tol}")
        assert code == EXIT_USAGE
        assert "tol:" in err
        assert out == ""

    def test_oracle_guard_names_the_flags(self, capsys):
        code, out, err = run(capsys, "verify", "--oracle-max", "2", "--m-max", "2")
        assert code == EXIT_USAGE
        assert err.startswith("error: m_max:") and "--oracle-max" in err
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
    # src/ for the package, the repository root for perfbench
    src = Path(dickeqfi.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(src.parent), os.environ.get("PYTHONPATH", "")]))


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
    # Only the tests' oracles use scipy: neither the import nor a population
    # trace, whose matrix exponential is the package's own, loads any of it.
    probe = ("import contextlib, io, sys\n"
             "from dickeqfi import cli\n"
             "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
             "print(scipy())\n"
             "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             "    code = cli.main(['loss', '--n', '100', '--purcell', '1000', '--trace',"
             " '--no-header'])\n"
             "print(code, len(out.getvalue().splitlines()), scipy())\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=_subprocess_env(), check=True).stdout
    assert out.splitlines() == ["[]", "0 402 []"]


def _probe(code: str) -> list[str]:
    """Stdout lines of ``code`` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_subprocess_env(), check=True).stdout.splitlines()


# Prints whether numpy is loaded, after the probe's own statements.
_NUMPY_LOADED = "import sys; print('numpy' in sys.modules)\n"
_QUIET = ("import contextlib, io\n"
          "with contextlib.redirect_stdout(io.StringIO()), "
          "contextlib.redirect_stderr(io.StringIO()):\n")


def test_cli_import_loads_no_numpy():
    assert _probe("import dickeqfi.cli\n" + _NUMPY_LOADED) == ["False"]


def test_cli_import_loads_no_dataclasses_or_late_stdlib():
    # records build no code per class, and json, datetime and fractions are
    # imported by the functions that use them
    late = ("dataclasses", "inspect", "json", "datetime", "fractions")
    assert _probe(f"import sys, dickeqfi.cli\nprint([m for m in {late!r} if m in sys.modules])\n"
                  ) == ["[]"]


@pytest.mark.parametrize("argv", [
    ["loss", "--n", "10,100", "--purcell", "10..1e3", "--points", "3"],
    _SIN_REPORT + ["--json"],
], ids=["loss", "report-json"])
def test_runs_load_no_dataclasses(argv):
    assert _probe("from dickeqfi import cli\n" + _QUIET +
                  f"    code = cli.main({argv + ['--no-header']!r})\n"
                  "import sys; print(code, 'dataclasses' in sys.modules)\n") == ["0 False"]


_DATA = Path(__file__).with_name("data")


@pytest.mark.parametrize("argv,pin", [
    (_SIN_REPORT + ["--json"], "report_sin.json"),
    (["exchange", "--family", "dicke", "--n", "4,6", "--format", "json", "--jobs", "1"],
     "exchange_dicke_4_6.json"),
], ids=["report-json", "exchange-json"])
def test_json_output_bytes_are_pinned(tmp_path, argv, pin):
    # the bytes the commands wrote when their records were dataclasses
    out = tmp_path / "out.json"
    assert main(argv + ["--no-header", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (_DATA / pin).read_bytes()


def test_dump_config_bytes_are_pinned(tmp_path, capsys):
    dump = tmp_path / "config.json"
    assert main(["exchange", "--family", "dicke", "--n", "4,6", "--format", "json",
                 "--jobs", "1", "--no-header", "--dump-config", str(dump)]) == EXIT_OK
    capsys.readouterr()
    assert dump.read_bytes() == (_DATA / "exchange_dicke_4_6_config.json").read_bytes()


def test_cli_import_loads_the_seven_modules_and_no_numpy():
    # every name cli calls is bound at import, and none of its modules
    # imports numpy when it loads
    assert _probe("import sys, dickeqfi.cli\n"
                  "print(sorted(m for m in sys.modules if m.startswith('dickeqfi.')))\n"
                  + _NUMPY_LOADED) == [
        str([f"dickeqfi.{m}" for m in ("budget", "cli", "dickesim", "exchange", "ladder",
                                       "metrology", "oracle")]), "False"]


def test_loss_sweep_loads_no_numpy():
    # the closed forms are math, and the geometric purcell grid plain floats
    assert _probe("from dickeqfi import cli\n" + _QUIET +
                  "    code = cli.main(['loss', '--n', '10,100', '--purcell', '10..1e3',"
                  " '--points', '3', '--format', 'json', '--no-header'])\n"
                  "print(code)\n" + _NUMPY_LOADED) == ["0", "False"]


def test_cascade_closed_forms_load_no_numpy():
    assert _probe("from dickeqfi import dickesim as d\n" + _NUMPY_LOADED +
                  "loss = d.LossModel(1.0, 0.01)\n"
                  "print(d.collection_loss_probability(10, loss) > 0.0,"
                  " d.collection_probability_product(10, loss) < 1.0,"
                  " d.dicke_collection_probability(10, loss).exact < 1.0)\n"
                  + _NUMPY_LOADED) == ["False", "True True True", "False"]


def test_parity_loads_no_numpy():
    # the oracle builds the overlaps and the phi grid is plain floats
    assert _probe("from dickeqfi import cli\n" + _QUIET +
                  "    code = cli.main(['parity', '--m', '4', '--family', 'dicke',"
                  " '--no-header'])\n"
                  "print(code)\n" + _NUMPY_LOADED) == ["0", "False"]


@pytest.mark.parametrize("argv", [
    _SIN_REPORT[:-1] + ["100"],
    _SIN_REPORT[:-1] + ["100", "--json"],
    _SIN_REPORT[:-1] + ["100", "--delta-gamma", "0.1"],
    # m = 64: one pair of _PLAIN_CELLS cells
    _SIN_REPORT[:-1] + ["128", "--delta-gamma", "0.1", "--json"],
    # m = 10..2 in two groups, forked to two children
    ["exchange", "--family", "dicke", "--n", "4..20", "--jobs", "2"],
], ids=["report", "report-json", "report-delta-gamma", "report-n128", "exchange-jobs2"])
def test_small_real_runs_load_no_numpy(argv):
    # pairs of real ladders with at most _PLAIN_CELLS cells run in plain floats
    assert _probe("from dickeqfi import cli\n" + _QUIET +
                  f"    code = cli.main({argv + ['--no-header']!r})\n"
                  "print(code)\n" + _NUMPY_LOADED) == ["0", "False"]


def test_verify_loads_no_numpy():
    # the default families include three Kerr ones; their pairs of m <= 4
    # take the plain pass
    assert _probe("from dickeqfi import cli\n" + _QUIET +
                  "    code = cli.main(['verify', '--no-header'])\n"
                  "print(code)\n" + _NUMPY_LOADED) == ["0", "False"]


def test_a_small_kerr_recurrence_loads_no_numpy():
    assert _probe("from dickeqfi import exchange, ladder\n"
                  "arm = ladder.build_anharmonic(4, 1.0, 10.0)\n"
                  "value = exchange.exchange_integral(ladder.TwinConfiguration(arm, arm)).value\n"
                  "print(0.0 < value < 1.0)\n" + _NUMPY_LOADED) == ["True", "False"]


def test_a_larger_sweep_imports_numpy_once_before_forking():
    # m = 100 takes the array pass: the parent imports numpy for its children
    assert _probe("import os\n"
                  "from dickeqfi import cli\n"
                  "os.cpu_count = lambda: 2\n"
                  "fork = os.fork\n"
                  "def checked_fork():\n"
                  "    import sys; assert 'numpy' in sys.modules\n"
                  "    return fork()\n"
                  "os.fork = checked_fork\n" + _QUIET +
                  "    code = cli.main(['exchange', '--family', 'dicke', '--n', '4,200',"
                  " '--jobs', '2', '--no-header'])\n"
                  "print(code)\n" + _NUMPY_LOADED) == ["0", "True"]


def test_oracle_driver_loads_no_numpy():
    assert _probe("from dickeqfi import ladder, oracle\n"
                  "arm = ladder.build_dicke(2, 1.0)\n"
                  "print(oracle.oracle_integral_exact(arm, arm, l=1))\n"
                  "print(oracle.oracle_delay_check(arm, 0.1).exact > 0)\n"
                  + _NUMPY_LOADED) == ["11/12", "True", "False"]


@pytest.mark.parametrize("argv", [
    ["exchange", "--family", "dicke", "--n", "4,6"],
    ["loss", "--n", "10", "--purcell", "10..1e3", "--points", "3"],
    ["loss", "--n", "5", "--purcell", "100", "--trace"],
    _SIN_REPORT + ["--fidelity-table"],
], ids=["exchange", "loss", "loss-trace", "report"])
def test_array_subcommands_run_in_a_fresh_interpreter(argv):
    # numpy, where a subcommand needs it, is imported on first use, by the
    # handler or the module it calls
    assert _probe("import contextlib, io\n"
                  "from dickeqfi import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                  f"    code = cli.main({argv + ['--no-header']!r})\n"
                  "print(code, len(out.getvalue().splitlines()) > 1)\n") == ["0 True"]


def test_package_names_resolve_on_first_use():
    assert _probe("import dickeqfi, sys\n"
                  "print(sorted(m for m in sys.modules if m.startswith('dickeqfi.')))\n"
                  "print(dickeqfi.build_dicke(1, 1.0).levels)\n"
                  "print(sorted(m for m in sys.modules if m.startswith('dickeqfi.')))\n"
                  + _NUMPY_LOADED) == ["[]", "1", "['dickeqfi.ladder']", "False"]


def test_package_namespace():
    for name in dickeqfi.__all__:
        assert getattr(dickeqfi, name) is not None, name
    assert set(dickeqfi.__all__) <= set(dir(dickeqfi))
    namespace = {}
    exec("from dickeqfi import *", namespace)
    assert set(dickeqfi.__all__) <= set(namespace)
    assert namespace["exchange_integral"] is dickeqfi.exchange.exchange_integral
    with pytest.raises(AttributeError, match="no_such_name"):
        dickeqfi.no_such_name
    with pytest.raises(ImportError):
        exec("from dickeqfi import no_such_name", {})


def test_cli_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        dickeqfi.cli.no_such_name


@pytest.mark.parametrize("points", [1, 2, 3, 181, 4097])
def test_phi_grid_is_numpy_linspace_bit_for_bit(points):
    # 5e-324 and 1e-320 underflow the step to zero, where numpy scales
    # k/div by the span instead
    np = pytest.importorskip("numpy")
    for a in (0.0, 5e-324, 1e-320, 1e-300, 1e-10, 0.3, 1.0, math.pi / 2, 2.5, 1e10,
              1e300, -1.0):
        grid = np.array(_linspace(-a, a, points))
        assert grid.tobytes() == np.linspace(-a, a, points).tobytes(), a


# Ends of geometric purcell ranges: round values and the benchmark's shifted
# 1e2 and 1e5 (perfbench/workloads.py, f = 10^(v/80)).
_GEOMETRIC_ENDS = sorted({1e-2, 0.3, 1.0, 7.0, 10.0, 1e2, 1e3, 1e5, 1e12}
                         | {float(f"{e * 10.0 ** (v / 80.0):.6g}")
                            for v in range(8) for e in (1e2, 1e5)})


@pytest.mark.parametrize("points", [1, 2, 3, 17, 181])
def test_purcell_grid_is_numpy_geomspace_to_its_last_bits(points):
    # numpy's vectorised log10 and power may round an ulp away from libm's;
    # a shifted log10 of an end moves the interior points' exponents, so the
    # 2-ulp bound holds where both ends' log10 agree, and 1e-14 elsewhere
    np = pytest.importorskip("numpy")
    for lo, hi in itertools.combinations(_GEOMETRIC_ENDS, 2):
        grid = _ratios(f"{lo!r}..{hi!r}", points)
        ref = np.geomspace(lo, hi, points)
        assert len(grid) == points and grid[0] == lo and grid[-1] == (hi if points > 1 else lo)
        assert all(a < b for a, b in zip(grid, grid[1:])), (lo, hi)
        logs_agree = all(float(np.log10(x)) == math.log10(x) for x in (lo, hi))
        for x, y in zip(grid[1:-1], ref[1:-1]):
            assert abs(x - y) <= (2 * math.ulp(y) if logs_agree else 1e-14 * y), (lo, hi, x, y)
        if points == 2:
            assert np.array(grid).tobytes() == ref.tobytes()


def test_purcell_grid_near_the_largest_float_names_the_key(capsys):
    top = sys.float_info.max
    code, _, err = run(capsys, "loss", "--n", "3", "--purcell",
                       f"{math.nextafter(top, 0)!r}..{top!r}", "--points", "3")
    assert code == EXIT_USAGE
    assert err.startswith("error: purcell: ") and "overflows" in err


@pytest.mark.parametrize("name, argv", [
    ("exchange_integral", ["verify", "--m-max", "1", "--families", "dicke"]),
    ("qfi_vs_n_sweep", ["exchange", "--family", "dicke", "--n", "4", "--jobs", "1"]),
    ("oracle_integral", ["parity", "--m", "1", "--family", "dicke"]),
    ("parity_curve", ["parity", "--m", "1", "--single-mode"]),
    ("qfi_twin", ["parity", "--m", "1", "--single-mode"]),
    ("collection_loss_probability", ["loss", "--n", "3"]),
    ("dicke_populations", ["loss", "--n", "3", "--trace"]),
    ("dicke_collection_probability", _SIN_REPORT),
    ("collection_probability_product", _SIN_REPORT + ["--fidelity-table"]),
    ("full_budget", _SIN_REPORT),
])
def test_handlers_call_through_cli_attributes(monkeypatch, capsys, name, argv):
    # A replaced cli attribute (a tracer's wrapper, a test's patch) is
    # what the handler calls.
    calls = []
    original = getattr(dickeqfi.cli, name)
    monkeypatch.setattr(dickeqfi.cli, name,
                        lambda *a, **k: calls.append(name) or original(*a, **k))
    assert main(argv + ["--no-header"]) == EXIT_OK
    capsys.readouterr()
    assert calls


def test_traced_run_records_one_span_per_call():
    # The tracer wraps exchange_integral on both exchange and cli; cli must
    # hold the function itself, or each recurrence would leave two spans.
    out = _probe("import collections, contextlib, io\n"
                 "import dickeqfi.cli\n"
                 "from perfbench.tracing import Tracer, install_all\n"
                 "tracer = Tracer()\n"
                 "install_all(tracer)\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    dickeqfi.cli.main(['verify', '--m-max', '2', '--families',"
                 " 'dicke,anharmonic:3', '--no-header'])\n"
                 "print(sorted(collections.Counter(s['name'] for s in tracer.spans).items()))\n")
    # a one-level Kerr ladder has no level shift, so its span reads "dicke"
    assert out == [str([("exchange.integral.dicke", 3), ("exchange.integral.kerr", 1),
                        ("ladder.build", 4), ("oracle.float", 4)])]


def test_traced_report_records_the_budget_recurrence():
    # The budget module calls exchange_integral and build_dicke through
    # their modules, so it reaches the tracer's wrappers although cli
    # imported it before the tracer was installed: report's matched overlap
    # leaves one span each.
    out = _probe("import collections, contextlib, io\n"
                 "import dickeqfi.cli\n"
                 "from perfbench.tracing import Tracer, install_all\n"
                 "tracer = Tracer()\n"
                 "install_all(tracer)\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    dickeqfi.cli.main({_SIN_REPORT + ['--no-header']!r})\n"
                 "print(sorted(collections.Counter(s['name'] for s in tracer.spans).items()))\n")
    assert out == [str([("budget.full", 1), ("dickesim.collection", 1), ("dickesim.product", 1),
                        ("exchange.integral.dicke", 1), ("ladder.build", 1)])]


def test_traced_names_resolve():
    # The benchmark's tracer replaces these module attributes; each must
    # exist, or a traced run fails before it starts.
    from perfbench.tracing import WRAPPED

    for module, attr, _, _ in WRAPPED:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_large_negative_mismatch_stays_finite(capsys):
    # d = -1e300 asks for a second arm 1e300 times stronger; no rate may overflow
    code, out, err = run(capsys, *_SIN_REPORT[:-1], "100", "--delta-gamma=-1e300", "--json")
    assert code == EXIT_OK
    assert err == ""
    entry = next(e for e in json.loads(out)["entries"] if e["channel"] == "mixed_coupling")
    assert 0.0 <= entry["value"] <= 1.0


# Options that every run of a subcommand needs, given in its config file.
_NEEDED = {
    "exchange": {"family": "dicke", "n": "4"},
    "loss": {"n": "3"},
    "parity": {"m": 1, "family": "dicke"},
    "report": {"q": 1e6, "n_g": 10, "lambda_a": 3e-7, "gamma_1d": 3.7699e7,
               "gamma_star": 6.2832e5, "n": 4},
    "verify": {"m_max": 1},
}

# Per option: a valid value as flag text and the same value in JSON, then an
# invalid flag text (None for a switch or a path, where every flag is valid)
# and an invalid JSON value.  A switch's valid flag is the bare flag.
_CASES = {
    "family": ("harmonic", "harmonic", "cubic", 1),
    "gamma": ("0.5", 0.5, "inf", "inf"),
    "u_over_gamma": ("2", 2, "nan", "x"),
    "step": ("4", 4, "-2", 0),
    "tol": ("1e-6", 1e-6, "nan", -1),
    "out": ("out.txt", "out.txt", None, True),
    "format": ("json", "json", "xml", ["csv"]),
    "jobs": ("1", 1, "0", 2.5),
    "no_header": (True, True, None, "yes"),
    "oracle_max": ("6", 6, "0", "six"),
    "purcell": ("10..100", "10..100", "0", "100..10"),
    "points": ("3", 3, "0", 1.5),
    "trace": (True, True, None, "false"),
    "m": ("2", 2, "0", True),
    "single_mode": (True, True, None, 1),
    "phi_max": ("1", 1, "inf", "nan"),
    "check_derivative": (True, True, None, "false"),
    "q": ("2e6", 2e6, "nan", -1),
    "n_g": ("5", 5, "0", "inf"),
    "lambda_a": ("5e-7", 5e-7, "-1", 0),
    "gamma_1d": ("1e7", 1e7, "inf", "fast"),
    "gamma_star": ("0", 0, "-1", "inf"),
    "pulse_error": ("0.01", 0.01, "-0.1", "nan"),
    "delta_gamma": ("0.1", 0.1, "1", "nan"),
    "delay": ("1e-12", 1e-12, "-1", "inf"),
    "eta": ("0.01", 0.01, "2", -0.1),
    "margin_factor": ("5", 5, "0", "inf"),
    "json": (True, True, None, "true"),
    "fidelity_table": (True, True, None, 0),
    "families": ("dicke,anharmonic:3", "dicke,anharmonic:3", "cubic", "anharmonic:x"),
    "m_max": ("2", 2, "0", 0),
    ("exchange", "n"): ("4,6", "4,6", "4.5", 4.5),
    ("loss", "n"): ("3,5", "3,5", "0", "x"),
    ("report", "n"): ("6", 6, "5", 4.5),
}


def _option_rows():
    for subcommand, (_, _, table) in _SUBCOMMANDS.items():
        for flag, *_ in table:
            key = flag[2:].replace("-", "_")
            yield pytest.param(subcommand, flag, key, id=f"{subcommand}-{key}")


@pytest.mark.parametrize("subcommand,flag,key", _option_rows())
def test_every_option_reads_alike_from_flag_and_config(
    tmp_path, capsys, monkeypatch, subcommand, flag, key
):
    case = _CASES.get((subcommand, key), _CASES.get(key))
    assert case is not None, f"no test values for {subcommand} {flag}"
    valid_flag, valid_json, invalid_flag, invalid_json = case
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DICKEQFI_JOBS", "1")

    names = itertools.count()

    def config(**values):
        path = tmp_path / f"config{next(names)}.json"
        path.write_text(json.dumps({**_NEEDED[subcommand], **values}))
        return ["--config", str(path)]

    as_flag = [flag] if valid_flag is True else [f"{flag}={valid_flag}"]
    dumps = []
    for argv in (config() + as_flag, config(**{key: valid_json})):
        dump = tmp_path / f"dump{len(dumps)}.json"
        code, _, err = run(capsys, subcommand, *argv, "--dump-config", str(dump))
        assert code == EXIT_OK, err
        dumps.append(dump.read_bytes())
    assert dumps[0] == dumps[1]

    invalid = [config(**{key: invalid_json})]
    if invalid_flag is not None:
        invalid.append(config() + [f"{flag}={invalid_flag}"])
    for argv in invalid:
        code, out, err = run(capsys, subcommand, *argv)
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {key}:"), err
        assert out == ""


class _ReadRecorder(dict):
    """Options that note each key a handler reads."""

    def __init__(self, options):
        super().__init__(options)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# Runs of each subcommand that together reach every mode of its handler.
_MODES = {
    "exchange": [["--family", "dicke", "--n", "4"]],
    "loss": [["--n", "3"], ["--n", "3", "--trace"]],
    "parity": [["--m", "1", "--family", "dicke"],
               ["--m", "1", "--single-mode", "--check-derivative"]],
    "report": [_SIN_REPORT[1:] + ["--json"], _SIN_REPORT[1:] + ["--fidelity-table"]],
    "verify": [["--m-max", "1", "--families", "dicke"]],
}

# The benchmark passes --jobs and --no-header to every run, so each
# subcommand takes both: only exchange has a worker pool, and report and
# verify print no timestamp line.
_UNREAD = {"loss": {"jobs"}, "parity": {"jobs"},
           "report": {"jobs", "no_header"}, "verify": {"jobs", "no_header"}}


@pytest.mark.parametrize("subcommand", _SUBCOMMANDS)
def test_every_option_row_is_read(monkeypatch, capsys, subcommand):
    # an option its handler never reads would be accepted and ignored
    recorders = []
    resolve = dickeqfi.cli._resolve

    def recording_resolve(args, table):
        cfg = resolve(args, table)
        recorders.append(_ReadRecorder(cfg.options))
        return RunConfig(cfg.subcommand, recorders[-1])

    monkeypatch.setattr(dickeqfi.cli, "_resolve", recording_resolve)
    for argv in _MODES[subcommand]:
        assert main([subcommand, *argv, "--jobs", "1", "--no-header"]) == EXIT_OK
    capsys.readouterr()
    read = set().union(*(recorder.read for recorder in recorders))
    keys = {flag[2:].replace("-", "_") for flag, *_ in _SUBCOMMANDS[subcommand][2]}
    assert keys - read <= _UNREAD.get(subcommand, set())


# Options these subcommands once took and never read, each with a value
# that was valid then.
_DROPPED = [
    ("exchange", "verify_oracle", True),
    ("exchange", "tol", 1e-9),
    ("exchange", "oracle_max", 8),
    ("loss", "oracle_max", 8),
    ("report", "format", "csv"),
    ("report", "oracle_max", 8),
    ("verify", "format", "csv"),
]


@pytest.mark.parametrize("subcommand,key,value", _DROPPED,
                         ids=[f"{sub}-{key}" for sub, key, _ in _DROPPED])
def test_options_a_handler_does_not_read_are_rejected(tmp_path, capsys, subcommand, key, value):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as info:
        main([subcommand, flag])
    assert info.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_NEEDED[subcommand], key: value}))
    code, out, err = run(capsys, subcommand, "--config", str(config))
    assert code == EXIT_USAGE
    assert err == f"error: {key}: not an option of {subcommand}\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv,config,key",
    [
        (["loss", "--n", "3"], {"trace": "false"}, "trace"),
        (["exchange", "--family", "dicke", "--n", "4"], {"no-header": True}, "no-header"),
        (["verify", "--m-max", "0"], None, "m_max"),
        (["exchange", "--family", "dicke", "--n", "4..10", "--step=-2"], None, "step"),
        (["parity", "--family", "dicke", "--m", "2", "--gamma", "inf"], None, "gamma"),
        (["exchange", "--family", "dicke", "--n", "4.5"], None, "n"),
        (["exchange", "--family", "dicke", "--n", "1e400"], None, "n"),
        (["exchange", "--family", "dicke", "--n", "4"], {"gamma": "inf"}, "gamma"),
        (["parity", "--single-mode", "--m", "2", "--phi-max", "1e308", "--points", "3"],
         None, "phi_max"),
    ],
    ids=[
        "config-trace-string", "config-hyphen-key", "m-max-0", "negative-step",
        "infinite-gamma", "fractional-n", "overflowing-n", "config-gamma-inf",
        "overflowing-phi-span",
    ],
)
def test_misread_inputs_name_their_key(tmp_path, capsys, argv, config, key):
    # a bare cast would misread each of these or fail without naming the key
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {key}:"), err
    assert out == ""
