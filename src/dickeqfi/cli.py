"""Command-line front end: sweeps, verification runs, figure-ready files.

Subcommands
    exchange   phase-sensitivity sweep over total photon number
    loss       collection-probability sweep (or a population trace)
    parity     parity fringe with its curvature-vs-QFI consistency check
    report     consolidated error budget for a platform parameter set
    verify     recurrence-vs-oracle equivalence run

Values resolve with the precedence flags > config file > defaults.  CSV
output is comma-separated with a header row, LF endings and full double
precision; a leading timestamp comment line is suppressed by
--no-header so that output bytes are reproducible.  Exit codes: 0 on
success (also when the reader closes stdout early), 2 on validation
errors, 1 on numeric failure.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .budget import PlatformParams, full_budget
from .dickesim import (
    LossModel,
    collection_loss_probability,
    collection_probability_product,
    dicke_collection_probability,
    dicke_populations,
)
from .exchange import (
    SWEEP_COLUMNS,
    LadderFamily,
    exchange_integral,
    qfi_vs_n_sweep,
)
from .ladder import TwinConfiguration, build_dicke
from .metrology import parity_curve, qfi_twin
from .oracle import DEFAULT_MAX_TOTAL_PHOTONS, ExchangeIntegral, oracle_integral

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2

_ENV_JOBS = "DICKEQFI_JOBS"


class UsageError(ValueError):
    """Validation failure attributable to a named option."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: subcommand plus its option mapping."""

    subcommand: str
    options: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"subcommand": self.subcommand, "options": self.options},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        return cls(subcommand=data["subcommand"], options=dict(data["options"]))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _table(rows, columns, cfg: RunConfig):
    """Lines of a row table in the configured format."""
    stamp = None
    if not cfg.options["no_header"]:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if cfg.options["format"] == "json":
        payload = {"subcommand": cfg.subcommand, "rows": rows}
        if stamp:
            payload["generated"] = stamp
        yield json.dumps(payload, indent=2) + "\n"
        return
    if stamp:
        yield f"# generated={stamp}\n"
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(_fmt(row.get(c, "")) for c in columns) + "\n"


def _write(cfg: RunConfig, lines):
    """Write output lines, one at a time, to --out or stdout."""
    out = cfg.options["out"]
    if out:
        with open(out, "w", newline="") as handle:
            handle.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _parse_int_range(spec: str, step: int, key: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            lo, hi = int(float(lo)), int(float(hi))
            return list(range(lo, hi + 1, step))
        return [int(float(tok)) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise UsageError(key, f"could not parse integer list {spec!r}") from exc


def _parse_float_list(spec: str, points: int, key: str) -> list[float]:
    try:
        if ".." in spec:
            lo, hi = (float(tok) for tok in spec.split(".."))
            if lo <= 0 or hi <= lo:
                raise ValueError("need 0 < low < high for a geometric range")
            return list(np.geomspace(lo, hi, points))
        return [float(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise UsageError(key, f"could not parse value list {spec!r}") from exc


def _positive_int(value, key: str) -> int:
    text = str(value).strip()
    if not text.isdecimal() or int(text) < 1:
        raise UsageError(key, f"expected an integer >= 1, got {value!r}")
    return int(text)


def _resolve(args: argparse.Namespace, table) -> RunConfig:
    """Merge flag values over config-file values over the table defaults."""
    file_values = {}
    if args.config:
        with open(args.config) as handle:
            loaded = json.load(handle)
        if "options" in loaded:  # accept a dumped RunConfig verbatim
            file_values = dict(loaded["options"])
        else:
            file_values = dict(loaded)
    options = {}
    for name, default, _ in table:
        key = name[2:].replace("-", "_")
        flag = getattr(args, key)
        if flag is not None:
            options[key] = flag
        elif key in file_values:
            options[key] = file_values[key]
        else:
            options[key] = default
    if options["jobs"] is not None:
        options["jobs"] = _positive_int(options["jobs"], "jobs")
    elif os.environ.get(_ENV_JOBS):
        options["jobs"] = _positive_int(os.environ[_ENV_JOBS], _ENV_JOBS)
    else:
        options["jobs"] = os.cpu_count() or 1
    if options["format"] not in ("csv", "json"):
        raise UsageError("format", f"unsupported output format {options['format']!r}")
    cfg = RunConfig(subcommand=args.subcommand, options=options)
    if args.dump_config:
        with open(args.dump_config, "w") as handle:
            handle.write(cfg.to_json() + "\n")
    return cfg


def _family(options) -> LadderFamily:
    kind = options["family"]
    if kind is None:
        raise UsageError("family", "a ladder family is required")
    if kind not in ("dicke", "harmonic", "anharmonic"):
        raise UsageError("family", f"unknown family {kind!r}")
    return LadderFamily(kind=kind, gamma=float(options["gamma"]),
                        u=float(options["u_over_gamma"]) * float(options["gamma"]))


def cmd_exchange(cfg: RunConfig) -> int:
    opts = cfg.options
    if opts["n"] is None:
        raise UsageError("n", "a photon-number list or range is required")
    family = _family(opts)
    n_values = _parse_int_range(str(opts["n"]), int(opts["step"]), "n")
    for n in n_values:
        if n < 2 or n % 2:
            raise UsageError("n", f"total photon numbers must be even >= 2, got {n}")

    if opts["verify_oracle"]:
        guard = int(opts["oracle_max"])
        cases = ((f"N={n}", None if n > guard else family.build_arm(n))
                 for n in n_values)
        return _oracle_check(cfg, cases, summary=False)

    rows = qfi_vs_n_sweep(family, n_values, jobs=opts["jobs"])
    failed = [r for r in rows if "error" in r]
    _write(cfg, _table(rows, SWEEP_COLUMNS + ("error",) if failed else SWEEP_COLUMNS, cfg))
    if failed:
        print(f"{len(failed)} sweep points failed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


_LOSS_COLUMNS = ("N", "purcell", "one_minus_p_exact", "one_minus_p_product",
                 "log_estimate")


def cmd_loss(cfg: RunConfig) -> int:
    opts = cfg.options
    if opts["n"] is None:
        raise UsageError("n", "an emitter-number list is required")
    n_values = _parse_int_range(str(opts["n"]), 1, "n")
    for n in n_values:
        if n < 1:
            raise UsageError("n", f"emitter numbers must be positive, got {n}")
    purcells = []
    for tok in str(opts["purcell"]).split(","):
        tok = tok.strip()
        if tok in ("inf", "Inf", "INF"):
            purcells.append(math.inf)
        else:
            purcells.extend(_parse_float_list(tok, int(opts["points"]), "purcell"))
    for p1d in purcells:
        if not p1d > 0.0:
            raise UsageError("purcell", f"rate ratios must be positive, got {p1d}")

    if opts["trace"]:
        if len(n_values) != 1 or len(purcells) != 1:
            raise UsageError("trace", "a trace needs exactly one N and one purcell")
        n = n_values[0]
        p1d = purcells[0]
        loss = LossModel(1.0, 0.0 if math.isinf(p1d) else 1.0 / p1d)
        trace = dicke_populations(n, loss)
        levels = tuple(f"P_{m}" for m in range(n + 1))
        # JSON rows keep the key order t, sum, P_0..P_N; CSV columns put sum last
        keys = ("t", "sum") + levels
        values = np.vstack(
            (trace.times, 1.0 - trace.sum_deficit, trace.populations)
        ).T.tolist()
        rows = [dict(zip(keys, row)) for row in values]
        _write(cfg, _table(rows, ("t",) + levels + ("sum",), cfg))
        return EXIT_OK

    rows = []
    for n in n_values:
        for p1d in purcells:
            loss = LossModel(1.0, 0.0 if math.isinf(p1d) else 1.0 / p1d)
            one_minus_p = collection_loss_probability(n, loss)
            rows.append({
                "N": n,
                "purcell": p1d,
                "one_minus_p_exact": one_minus_p,
                "one_minus_p_product": one_minus_p,
                "log_estimate": 0.0 if math.isinf(p1d) else math.log(n) / p1d,
            })
    _write(cfg, _table(rows, _LOSS_COLUMNS, cfg))
    return EXIT_OK


def cmd_parity(cfg: RunConfig) -> int:
    opts = cfg.options
    m = opts["m"]
    if m is None:
        raise UsageError("m", "the photons-per-arm count is required")
    m = int(m)
    if m < 1:
        raise UsageError("m", f"need at least one photon per arm, got {m}")
    single = bool(opts["single_mode"])
    if not single and opts["family"] is None:
        raise UsageError("family", "choose --single-mode or a ladder family")

    if single:
        integrals = [1.0] * (m + 1)
    else:
        family = _family(opts)
        arm = family.build_arm(2 * m)
        guard = int(opts["oracle_max"])
        if 2 * m > guard:
            raise UsageError("m", f"{m} photons per arm exceeds the oracle guard "
                             f"({guard} total); rerun with --single-mode or raise --oracle-max")
        integrals = [
            oracle_integral(arm, arm, l=l, max_total_photons=guard).value
            for l in range(m + 1)
        ]

    phis = np.linspace(-float(opts["phi_max"]), float(opts["phi_max"]),
                       int(opts["points"]))
    curve = parity_curve(m, integrals, phis)
    one_pair = ExchangeIntegral(value=integrals[1], total_photons=2 * m,
                                method="oracle", exchanged_count=1)
    qfi = qfi_twin(2 * m, one_pair).qfi
    _write(cfg, _table(curve.to_rows(), ("phi", "expectation"), cfg))
    print(f"# curvature={-curve.curvature:.12g} qfi={qfi:.12g} "
          f"saturation={-curve.curvature / qfi:.12g}", file=sys.stderr)
    if opts["check_derivative"]:
        # m(m I + 1)/2 with the one-pair overlap I (1 for a single mode)
        endpoint_derivative = -curve.curvature / 4.0
        expected = m * (m * integrals[1] + 1.0) / 2.0
        print(f"# legendre_endpoint_derivative={endpoint_derivative:.12g} "
              f"expected={expected:.12g}", file=sys.stderr)
        if abs(endpoint_derivative - expected) > 1e-9:
            return EXIT_NUMERIC
    return EXIT_OK


_REPORT_REQUIRED = ("q", "n_g", "lambda_a", "gamma_1d", "gamma_star", "n")


def cmd_report(cfg: RunConfig) -> int:
    opts = cfg.options
    for key in _REPORT_REQUIRED:
        if opts[key] is None:
            raise UsageError(key, "required physical parameter is missing")
    params = PlatformParams(
        quality_factor=float(opts["q"]),
        group_index=float(opts["n_g"]),
        wavelength=float(opts["lambda_a"]),
        gamma_1d=float(opts["gamma_1d"]),
        gamma_star=float(opts["gamma_star"]),
        n_photons=int(opts["n"]),
        pulse_error=float(opts["pulse_error"]),
        delta_gamma=float(opts["delta_gamma"]),
        delay=float(opts["delay"]),
        interferometer_loss=float(opts["eta"]),
    )
    n = params.n_photons
    arm = build_dicke(n // 2, 1.0)
    integral = exchange_integral(TwinConfiguration(arm, arm))
    purcell = params.gamma_1d / params.gamma_star if params.gamma_star else math.inf
    loss = LossModel(1.0, 0.0 if math.isinf(purcell) else 1.0 / purcell)
    p = dicke_collection_probability(n // 2, loss).exact
    budget = full_budget(params, integral, p,
                         margin_factor=float(opts["margin_factor"]))

    if opts["json"]:
        payload = budget.to_dict()
        payload["platform"] = params.to_dict()
        _write(cfg, [json.dumps(payload, indent=2) + "\n"])
        return EXIT_OK

    lines = [
        f"error budget for N = {n} photons "
        f"(exchange integral {integral.value:.6f})",
        f"  ideal QFI                 {budget.ideal_qfi:.6g}",
        f"  combined QFI lower bound  {budget.combined_qfi_lower_bound:.6g}",
        f"  effective overlap         {budget.effective_exchange_integral:.6f}",
        f"  collection probability    {budget.collection_probability:.6f}",
        "  channel                value        ok  note",
    ]
    for entry in budget.entries:
        lines.append(
            f"  {entry.channel:<21} {entry.value:<12.6g} "
            f"{'y' if entry.feasible else 'n'}   {entry.note}"
        )
    if opts["fidelity_table"]:
        lines.append("  fidelity vs photon number (per-arm cascade):")
        lines.append("    N      p")
        n_probe = 2
        while n_probe <= 2048:
            p_probe = collection_probability_product(n_probe // 2, loss)
            lines.append(f"    {n_probe:<6d} {p_probe:.6f}")
            n_probe *= 2
    _write(cfg, [line + "\n" for line in lines])
    return EXIT_OK


def _oracle_check(cfg: RunConfig, cases, summary: bool) -> int:
    """Recurrence against the float oracle for each (label, arm) case; an
    arm of None marks a case above the oracle guard, reported as skipped.
    ``summary`` adds a closing line when every case is within --tol."""
    opts = cfg.options
    tol = float(opts["tol"])
    if not 0.0 <= tol < math.inf:
        raise UsageError("tol", f"expected a finite number >= 0, got {opts['tol']!r}")
    worst = 0.0
    lines = []
    for label, arm in cases:
        if arm is None:
            lines.append(f"{label}: skipped (above oracle guard {opts['oracle_max']})\n")
            continue
        rec = exchange_integral(TwinConfiguration(arm, arm)).value
        ora = oracle_integral(arm, arm, l=1,
                              max_total_photons=int(opts["oracle_max"])).value
        diff = abs(rec - ora)
        worst = max(worst, diff)
        lines.append(f"{label}: recurrence={rec:.12e} oracle={ora:.12e} |diff|={diff:.3e}\n")
    failed = worst > tol
    if summary and not failed:
        lines.append(f"verification passed: max |diff| {worst:.3e} <= {tol:g}\n")
    _write(cfg, lines)
    if failed:
        print(f"verification FAILED: max |diff| {worst:.3e} > {tol:g}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    opts = cfg.options
    families = []
    for tok in str(opts["families"]).split(","):
        tok = tok.strip()
        if ":" in tok:
            kind, u = tok.split(":")
            families.append(LadderFamily(kind=kind, gamma=1.0, u=float(u)))
        else:
            families.append(LadderFamily(kind=tok, gamma=1.0))
    cases = (
        (f"{_family_label(family):<22} m={m}", family.build_arm(2 * m))
        for family in families
        for m in range(1, int(opts["m_max"]) + 1)
    )
    return _oracle_check(cfg, cases, summary=True)


def _family_label(family: LadderFamily) -> str:
    return family.kind if family.u == 0 else f"{family.kind}(u={family.u:g})"


_FAMILY = ("--family", None, {"choices": ["dicke", "harmonic", "anharmonic"]})
_GAMMA = ("--gamma", 1.0, {"type": float})
_U_OVER_GAMMA = ("--u-over-gamma", 0.0, {"type": float})
_TOL = ("--tol", 1e-9, {"type": float})
_COMMON = (
    ("--out", None, {"help": "output path (default: stdout)"}),
    ("--format", "csv", {"choices": ["csv", "json"]}),
    ("--jobs", None, {"help": "worker processes, an integer >= 1 "
                              f"(default: ${_ENV_JOBS} or logical cores)"}),
    ("--no-header", False, {"action": "store_true",
                            "help": "suppress the timestamp header line"}),
    ("--oracle-max", DEFAULT_MAX_TOTAL_PHOTONS,
     {"type": int, "help": "total-photon guard for oracle evaluations"}),
)

# Each subcommand: handler, help line and its options as (flag, default,
# argparse keywords).  The parser gives every flag a None default, so that
# _resolve can tell an omitted flag from one that was set.
_SUBCOMMANDS = {
    "exchange": (cmd_exchange, "exchange-integral / QFI sweep", (
        _FAMILY, _GAMMA, _U_OVER_GAMMA,
        ("--n", None, {"help": "total photon numbers: '4..500' or '4,8,16'"}),
        ("--step", 2, {"type": int}),
        ("--verify-oracle", False, {"action": "store_true"}),
        _TOL, *_COMMON,
    )),
    "loss": (cmd_loss, "collection-probability sweep or trace", (
        ("--n", None, {"help": "emitter numbers: '10,100,1000'"}),
        ("--purcell", "inf", {"help": "'10..1e5', comma list, or 'inf'"}),
        ("--points", 17, {"type": int, "help": "points of a geometric purcell range"}),
        ("--trace", False, {"action": "store_true",
                            "help": "emit the population trace instead of the sweep"}),
        *_COMMON,
    )),
    "parity": (cmd_parity, "parity fringe and curvature check", (
        ("--m", None, {"type": int, "help": "photons per arm"}),
        ("--single-mode", False, {"action": "store_true"}),
        _FAMILY, _GAMMA, _U_OVER_GAMMA,
        ("--phi-max", math.pi / 2, {"type": float}),
        ("--points", 181, {"type": int}),
        ("--check-derivative", False, {"action": "store_true"}),
        *_COMMON,
    )),
    "report": (cmd_report, "consolidated platform error budget", (
        ("--q", None, {"type": float, "help": "waveguide quality factor"}),
        ("--n-g", None, {"type": float, "help": "group index"}),
        ("--lambda-a", None, {"type": float, "help": "emitter wavelength [m]"}),
        ("--gamma-1d", None, {"type": float, "help": "guided decay rate [rad/s]"}),
        ("--gamma-star", None, {"type": float, "help": "residual decay rate [rad/s]"}),
        ("--n", None, {"type": int, "help": "total photon number (even)"}),
        ("--pulse-error", 0.0, {"type": float}),
        ("--delta-gamma", 0.0, {"type": float, "help": "relative coupling mismatch "
                                "d < 1 of the two ensembles (exact overlap penalty)"}),
        ("--delay", 0.0, {"type": float, "help": "wavepacket arrival delay [s]"}),
        ("--eta", 0.0, {"type": float, "help": "interferometer photon-loss probability"}),
        ("--margin-factor", 10.0, {"type": float}),
        ("--json", False, {"action": "store_true"}),
        ("--fidelity-table", False, {"action": "store_true"}),
        *_COMMON,
    )),
    "verify": (cmd_verify, "recurrence-vs-oracle equivalence run", (
        ("--families", "dicke,harmonic,anharmonic:1,anharmonic:10,anharmonic:1000",
         {"help": "comma list, 'anharmonic:<u>' for shifts"}),
        ("--m-max", 4, {"type": int}),
        _TOL, *_COMMON,
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickeqfi",
        description="phase-sensitivity calculator for collectively emitted "
                    "multimode photon states",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_line, table) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, _, kwargs in table:
            p.add_argument(flag, default=None, **kwargs)
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--dump-config", help="write the resolved configuration as JSON")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, table = _SUBCOMMANDS[args.subcommand]
    try:
        code = handler(_resolve(args, table))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): the rest of the
        # output is unwanted, not an error.  Point stdout at devnull so the
        # interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, FileNotFoundError) as exc:
        # UsageError and OracleTooLargeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
