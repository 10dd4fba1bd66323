"""Command-line front end: sweeps, verification runs, figure-ready files.

Subcommands
    exchange   phase-sensitivity sweep over total photon number
    loss       collection-probability sweep (or a population trace)
    parity     parity fringe with its curvature-vs-QFI consistency check
    report     consolidated error budget for a platform parameter set
    verify     recurrence-vs-oracle equivalence run

Values resolve with the precedence flags > config file > defaults
(then $DICKEQFI_JOBS for --jobs).  Each option's row in ``_SUBCOMMANDS``
holds the converter that checks it, whatever the source; a rejected
value, a missing required one or an unknown config key names the key.
A subcommand takes only the options its handler reads, and --jobs and
--no-header, which every subcommand accepts.

exchange, loss and parity print a row table, CSV or --format json; CSV
is comma-separated with a header row, LF endings and full double
precision.  Their leading timestamp line is suppressed by --no-header
so that output bytes are reproducible.  report prints text or --json,
verify one line per case; --oracle-max guards the oracle of parity and
verify.  Exit codes: 0 on success (also when the reader closes stdout
early), 2 on validation errors, 1 on numeric failure.
"""
from __future__ import annotations

import argparse
import math
import numbers
import os
import sys

from .budget import PlatformParams, full_budget, matched_dicke_overlap
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
# build_dicke is unused here but stays a cli attribute: perfbench's tracer wraps it
from .ladder import Record, TwinConfiguration, build_dicke  # noqa: F401
from .metrology import parity_curve, qfi_twin
from .oracle import DEFAULT_MAX_TOTAL_PHOTONS, ExchangeIntegral, oracle_integral

# None of these modules imports numpy when it loads.  Handlers call the
# names as this module's globals, so a replaced cli attribute (a tracer's
# wrapper, a test's patch) is what they call; the budget looks its
# recurrence up on the exchange and ladder modules instead (see budget).

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2

_ENV_JOBS = "DICKEQFI_JOBS"


class UsageError(ValueError):
    """Validation failure attributable to a named option."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


class RunConfig(Record):
    """Fully resolved invocation: subcommand plus its option mapping."""

    __slots__ = ("subcommand", "options")
    _defaults = {"options": {}}

    def to_json(self) -> str:
        import json

        return json.dumps(
            {"subcommand": self.subcommand, "options": self.options},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        import json

        data = json.loads(text)
        return cls(subcommand=data["subcommand"], options=dict(data["options"]))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, numbers.Integral):  # numpy integers too
        return str(int(value))
    return str(value)


def _table(rows, columns, cfg: RunConfig):
    """Lines of a row table in the configured format."""
    stamp = None
    if not cfg.options["no_header"]:
        import datetime

        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if cfg.options["format"] == "json":
        import json

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


_REQUIRED = object()  # default of an option that has to be given


def _rule(need: str, parse, test=lambda x: True):
    """Converter of a flag's text or a JSON string or number that ``parse``
    reads and ``test`` accepts; ``need`` says what is accepted, unless
    ``test`` raises a ValueError of its own."""
    def convert(value):
        plain = isinstance(value, (str, int, float)) and not isinstance(value, bool)
        try:
            x = parse(str(value))
        except ValueError:
            plain = False
        if not (plain and test(x)):
            raise ValueError(f"expected {need}, got {value!r}")
        return x
    return convert


_COUNT = _rule("an integer >= 1", int, lambda n: n >= 1)
_EVEN = _rule("an even integer >= 2", int, lambda n: n >= 2 and n % 2 == 0)
_FINITE = _rule("a finite number", float, math.isfinite)
_POSITIVE = _rule("a finite number > 0", float, lambda x: 0.0 < x < math.inf)
_NONNEGATIVE = _rule("a finite number >= 0", float, lambda x: 0.0 <= x < math.inf)
_RATIO = _rule("a number > 0, or inf for no loss", float, lambda x: x > 0.0)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _choice(*names):
    """Converter to one of ``names``, and argparse keywords listing them."""
    return (_rule(f"one of {', '.join(names)}", str, names.__contains__),
            {"metavar": "{" + ",".join(names) + "}"})


def _int_list(spec: str, step: int = 1) -> range | list[int]:
    """Integers >= 1 of a '4,8,16' list or of a '4..500' range in ``step``s."""
    lo, sep, hi = spec.partition("..")
    if sep:
        return range(_COUNT(lo), _COUNT(hi) + 1, step)
    return [_COUNT(tok) for tok in spec.split(",") if tok]


# Largest total photon number of an exchange sweep or a report: m = 10^4
# photons per arm, the reach of the O(m^2) recurrence.
MAX_EXCHANGE_N = 20_000

# Largest emitter number of a population trace, whose dense propagator
# grows as N^2: 6.0 s and 440 MB peak RSS at N = 2000 (2 cores).
MAX_TRACE_N = 2000


def _within_reach(spec: str) -> bool:
    """Whether a list or range has an N and none exceeds MAX_EXCHANGE_N; a
    range is judged by its upper end, without building its points."""
    ns = _int_list(spec)
    return 0 < max(ns[-1:] if isinstance(ns, range) else ns, default=0) <= MAX_EXCHANGE_N


def _ratios(spec: str, points: int = 2) -> list[float]:
    """Rate ratios of a comma list of values, 'inf' and geometric 'lo..hi' ranges."""
    ratios = []
    for tok in filter(None, spec.split(",")):
        lo, sep, hi = tok.partition("..")
        if sep:
            lo, hi = _POSITIVE(lo), _POSITIVE(hi)
            if not lo < hi:
                raise ValueError(f"a geometric range needs low < high, got {tok!r}")
            ratios.extend(_geomspace(lo, hi, points))
        else:
            ratios.append(_RATIO(tok))
    return ratios


def _geomspace(lo: float, hi: float, num: int) -> list[float]:
    """``np.geomspace(lo, hi, num)`` of positive ends in plain floats, by its
    steps: powers of ten over ``_linspace`` of the logarithms, ends set to
    ``lo`` and ``hi``.  Ends are exact; interior points can differ from
    numpy's in the last bits, where its vectorised log10 or power rounds
    otherwise than libm."""
    logs = _linspace(math.log10(lo), math.log10(hi), num)
    try:
        grid = [lo] + [10.0 ** x for x in logs[1:-1]]
    except OverflowError:  # hi within a few ulps of the largest float
        raise ValueError(f"a geometric range to {hi!r} overflows") from None
    return grid + [hi] if num > 1 else grid


def _families(spec: str) -> list[LadderFamily]:
    """Unit-rate families of a comma list; 'anharmonic:<u>' sets the shift."""
    parts = (tok.strip().partition(":") for tok in spec.split(","))
    return [LadderFamily(kind, gamma=1.0, u=_FINITE(u) if sep else 0.0)
            for kind, sep, u in parts]


def _convert(convert, value, key: str):
    try:
        return convert(value)
    except ValueError as exc:
        raise UsageError(key, str(exc)) from None


def _resolve(args: argparse.Namespace, table) -> RunConfig:
    """Each option from its flag, else the config file, else its default;
    a given value passes through the row's converter."""
    given = {}
    if args.config:
        import json

        with open(args.config) as handle:
            loaded = json.load(handle)
        # a dumped RunConfig is accepted verbatim
        given = loaded.get("options", loaded) if isinstance(loaded, dict) else None
        if not isinstance(given, dict):
            raise UsageError("config", "expected a JSON object of options")
    keys = [row[0][2:].replace("-", "_") for row in table]
    unknown = sorted(set(given) - set(keys))
    if unknown:
        raise UsageError(unknown[0], f"not an option of {args.subcommand}")
    options = {}
    for key, (_, default, convert, _) in zip(keys, table):
        value = getattr(args, key)
        value = given.get(key) if value is None else value
        if value is not None:
            options[key] = _convert(convert, value, key)
        elif default is _REQUIRED:
            raise UsageError(key, "a value is required")
        else:
            options[key] = default
    if options["jobs"] is None:
        env = os.environ.get(_ENV_JOBS)
        options["jobs"] = _convert(_COUNT, env, _ENV_JOBS) if env else os.cpu_count() or 1
    cfg = RunConfig(subcommand=args.subcommand, options=options)
    if args.dump_config:
        with open(args.dump_config, "w") as handle:
            handle.write(cfg.to_json() + "\n")
    return cfg


def _family(options) -> LadderFamily:
    return LadderFamily(kind=options["family"], gamma=options["gamma"],
                        u=options["u_over_gamma"] * options["gamma"])


def cmd_exchange(cfg: RunConfig) -> int:
    opts = cfg.options
    family = _family(opts)
    n_values = [_convert(_EVEN, n, "n") for n in _int_list(opts["n"], opts["step"])]
    rows = qfi_vs_n_sweep(family, n_values, jobs=opts["jobs"])
    failed = [r for r in rows if "error" in r]
    _write(cfg, _table(rows, SWEEP_COLUMNS + ("error",) if failed else SWEEP_COLUMNS, cfg))
    if failed:
        print(f"{len(failed)} sweep points failed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _loss_model(purcell: float):
    """Cascade loss model of a guided-to-residual rate ratio; inf is lossless."""
    return LossModel(1.0, 0.0 if math.isinf(purcell) else 1.0 / purcell)


_LOSS_COLUMNS = ("N", "purcell", "one_minus_p_exact", "one_minus_p_product",
                 "log_estimate")


def cmd_loss(cfg: RunConfig) -> int:
    opts = cfg.options
    n_values = _int_list(opts["n"])
    # the option's converter checked the range's ends; its points may still overflow
    purcells = _convert(lambda spec: _ratios(spec, opts["points"]), opts["purcell"], "purcell")

    if opts["trace"]:
        if len(n_values) != 1 or len(purcells) != 1:
            raise UsageError("trace", "a trace needs exactly one N and one purcell")
        n = n_values[0]
        if n > MAX_TRACE_N:
            raise UsageError("n", f"a trace takes N up to {MAX_TRACE_N}, got {n}")
        import numpy as np

        trace = dicke_populations(n, _loss_model(purcells[0]))
        levels = tuple(f"P_{m}" for m in range(n + 1))
        # JSON rows keep the key order t, sum, P_0..P_N; CSV columns put sum last
        keys = ("t", "sum") + levels
        values = np.vstack(
            (trace.times, 1.0 - trace.sum_deficit, trace.populations)
        ).T.tolist()
        rows = [dict(zip(keys, row)) for row in values]
        _write(cfg, _table(rows, ("t",) + levels + ("sum",), cfg))
        if not trace.converged:
            print(f"population trace not converged: excited population {trace.residual:.3e} "
                  f"left at the horizon t={trace.horizon:.6g}", file=sys.stderr)
            return EXIT_NUMERIC
        return EXIT_OK

    rows = []
    for n in n_values:
        for p1d in purcells:
            one_minus_p = collection_loss_probability(n, _loss_model(p1d))
            rows.append({
                "N": n,
                "purcell": p1d,
                "one_minus_p_exact": one_minus_p,
                "one_minus_p_product": one_minus_p,
                "log_estimate": 0.0 if math.isinf(p1d) else math.log(n) / p1d,
            })
    _write(cfg, _table(rows, _LOSS_COLUMNS, cfg))
    return EXIT_OK


def _oracle_guard(key: str, m: int, guard: int, hint: str) -> None:
    """Reject m photons per arm when the twin state exceeds the oracle guard."""
    if 2 * m > guard:
        raise UsageError(key, f"{m} photons per arm exceeds the oracle guard "
                         f"({guard} total); {hint}")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)`` bit for bit, in plain floats: point
    k is k*step + start and the last one is stop."""
    delta = stop - start
    div = num - 1
    if not div:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:  # an underflowed step: numpy scales k/div by delta instead
        grid = [k / div * delta + start for k in range(num)]
    else:
        grid = [k * step + start for k in range(num)]
    grid[-1] = stop
    return grid


def cmd_parity(cfg: RunConfig) -> int:
    opts = cfg.options
    m = opts["m"]
    if not opts["single_mode"] and opts["family"] is None:
        raise UsageError("family", "choose --single-mode or a ladder family")

    if opts["single_mode"]:
        integrals = [1.0] * (m + 1)
    else:
        guard = opts["oracle_max"]
        _oracle_guard("m", m, guard, "rerun with --single-mode or raise --oracle-max")
        arm = _family(opts).build_arm(2 * m)
        integrals = [
            oracle_integral(arm, arm, l=l, max_total_photons=guard).value
            for l in range(m + 1)
        ]

    phis = _linspace(-opts["phi_max"], opts["phi_max"], opts["points"])
    curve = parity_curve(m, integrals, phis)
    one_pair = ExchangeIntegral(value=integrals[1], total_photons=2 * m,
                                method="oracle", exchanged_count=1)
    qfi = qfi_twin(2 * m, one_pair).qfi
    _write(cfg, _table(curve.to_rows(), ("phi", "expectation"), cfg))
    print(f"# curvature={-curve.curvature:.12g} qfi={qfi:.12g} "
          f"saturation={-curve.curvature / qfi:.12g}", file=sys.stderr)
    if opts["check_derivative"]:
        # a quarter of the twin QFI (its one-pair overlap is 1 for a single mode)
        endpoint_derivative = -curve.curvature / 4.0
        expected = qfi / 4.0
        print(f"# legendre_endpoint_derivative={endpoint_derivative:.12g} "
              f"expected={expected:.12g}", file=sys.stderr)
        if abs(endpoint_derivative - expected) > 1e-9:
            return EXIT_NUMERIC
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    opts = cfg.options
    params = PlatformParams(
        quality_factor=opts["q"], group_index=opts["n_g"], wavelength=opts["lambda_a"],
        gamma_1d=opts["gamma_1d"], gamma_star=opts["gamma_star"], n_photons=opts["n"],
        pulse_error=opts["pulse_error"], delta_gamma=opts["delta_gamma"],
        delay=opts["delay"], interferometer_loss=opts["eta"],
    )
    n = params.n_photons
    integral = matched_dicke_overlap(n // 2)
    purcell = params.gamma_1d / params.gamma_star if params.gamma_star else math.inf
    loss = _loss_model(purcell)
    p = dicke_collection_probability(n // 2, loss).exact
    budget = full_budget(params, integral, p, margin_factor=opts["margin_factor"])

    if opts["json"]:
        import json

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


def cmd_verify(cfg: RunConfig) -> int:
    opts = cfg.options
    guard, tol = opts["oracle_max"], opts["tol"]
    _oracle_guard("m_max", opts["m_max"], guard, "lower --m-max or raise --oracle-max")
    worst = 0.0
    lines = []
    for family in _families(opts["families"]):
        for m in range(1, opts["m_max"] + 1):
            arm = family.build_arm(2 * m)
            rec = exchange_integral(TwinConfiguration(arm, arm)).value
            ora = oracle_integral(arm, arm, l=1, max_total_photons=guard).value
            diff = abs(rec - ora)
            if not diff <= worst:  # a NaN difference becomes the worst
                worst = diff
            lines.append(f"{_family_label(family):<22} m={m}: recurrence={rec:.12e} "
                         f"oracle={ora:.12e} |diff|={diff:.3e}\n")
    failed = not worst <= tol
    if not failed:
        lines.append(f"verification passed: max |diff| {worst:.3e} <= {tol:g}\n")
    _write(cfg, lines)
    if failed:
        print(f"verification FAILED: max |diff| {worst:.3e} > {tol:g}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _family_label(family: LadderFamily) -> str:
    return family.kind if family.u == 0 else f"{family.kind}(u={family.u:g})"


_FAMILY_KIND = _choice("dicke", "harmonic", "anharmonic")
_N_SPEC = _rule("a list or range of integers", str, _int_list)
_EXCHANGE_N = _rule(f"a list or range of integers up to {MAX_EXCHANGE_N}", str,
                    _within_reach)
_GAMMA = ("--gamma", 1.0, _POSITIVE, {})
_U_OVER_GAMMA = ("--u-over-gamma", 0.0, _FINITE, {})
_OUT = ("--out", None, _rule("a path", str), {"help": "output path (default: stdout)"})
_FORMAT = ("--format", "csv", *_choice("csv", "json"))
_ORACLE_MAX = ("--oracle-max", DEFAULT_MAX_TOTAL_PHOTONS, _COUNT,
               {"help": "total-photon guard for oracle evaluations"})
# Every subcommand takes --jobs and --no-header, also where its handler
# reads neither: the benchmark (perfbench/workloads.py) passes both to
# each command-line run.
_JOBS = ("--jobs", None, _COUNT, {"help": "worker processes, an integer >= 1 "
                                          f"(default: ${_ENV_JOBS} or logical cores)"})
_NO_HEADER = ("--no-header", False, _flag, {"action": "store_true",
                                            "help": "suppress the timestamp header line"})

# Each subcommand: handler, help line and its options as (flag, default,
# converter, argparse keywords).  The parser gives every flag a None
# default, so that _resolve can tell an omitted flag from one that was set.
_SUBCOMMANDS = {
    "exchange": (cmd_exchange, "exchange-integral / QFI sweep", (
        ("--family", _REQUIRED, *_FAMILY_KIND), _GAMMA, _U_OVER_GAMMA,
        ("--n", _REQUIRED, _EXCHANGE_N,
         {"help": "total photon numbers: '4..500' or '4,8,16'"}),
        ("--step", 2, _COUNT, {}),
        _OUT, _FORMAT, _JOBS, _NO_HEADER,
    )),
    "loss": (cmd_loss, "collection-probability sweep or trace", (
        ("--n", _REQUIRED, _N_SPEC, {"help": "emitter numbers: '10,100,1000'"}),
        ("--purcell", "inf", _rule("a list or range of rate ratios", str, _ratios),
         {"help": "'10..1e5', comma list, or 'inf'"}),
        ("--points", 17, _COUNT, {"help": "points of a geometric purcell range"}),
        ("--trace", False, _flag, {"action": "store_true",
                                   "help": "emit the population trace instead of the sweep"}),
        _OUT, _FORMAT, _JOBS, _NO_HEADER,
    )),
    "parity": (cmd_parity, "parity fringe and curvature check", (
        ("--m", _REQUIRED, _COUNT, {"help": "photons per arm"}),
        ("--single-mode", False, _flag, {"action": "store_true"}),
        ("--family", None, *_FAMILY_KIND), _GAMMA, _U_OVER_GAMMA,
        ("--phi-max", math.pi / 2, _rule("a number x with 2x finite", float,
                                         lambda x: math.isfinite(2 * x)), {}),
        ("--points", 181, _COUNT, {}),
        ("--check-derivative", False, _flag, {"action": "store_true"}),
        _OUT, _FORMAT, _JOBS, _NO_HEADER, _ORACLE_MAX,
    )),
    "report": (cmd_report, "consolidated platform error budget", (
        ("--q", _REQUIRED, _POSITIVE, {"help": "waveguide quality factor"}),
        ("--n-g", _REQUIRED, _POSITIVE, {"help": "group index"}),
        ("--lambda-a", _REQUIRED, _POSITIVE, {"help": "emitter wavelength [m]"}),
        ("--gamma-1d", _REQUIRED, _POSITIVE, {"help": "guided decay rate [rad/s]"}),
        ("--gamma-star", _REQUIRED, _NONNEGATIVE, {"help": "residual decay rate [rad/s]"}),
        ("--n", _REQUIRED, _rule(f"an even integer from 2 up to {MAX_EXCHANGE_N}", int,
                                 lambda n: 2 <= n <= MAX_EXCHANGE_N and n % 2 == 0),
         {"help": "total photon number (even)"}),
        ("--pulse-error", 0.0, _NONNEGATIVE, {}),
        ("--delta-gamma", 0.0, _rule("a finite number < 1", float, lambda x: -math.inf < x < 1),
         {"help": "relative coupling mismatch d < 1 of the two ensembles "
                  "(exact overlap penalty)"}),
        ("--delay", 0.0, _NONNEGATIVE, {"help": "wavepacket arrival delay [s]"}),
        ("--eta", 0.0, _rule("a probability in [0, 1]", float, lambda x: 0 <= x <= 1),
         {"help": "interferometer photon-loss probability"}),
        ("--margin-factor", 10.0, _POSITIVE, {}),
        ("--json", False, _flag, {"action": "store_true"}),
        ("--fidelity-table", False, _flag, {"action": "store_true"}),
        _OUT, _JOBS, _NO_HEADER,
    )),
    "verify": (cmd_verify, "recurrence-vs-oracle equivalence run", (
        ("--families", "dicke,harmonic,anharmonic:1,anharmonic:10,anharmonic:1000",
         _rule("a list of families", str, _families),
         {"help": "comma list, 'anharmonic:<u>' for shifts"}),
        ("--m-max", 4, _COUNT, {}),
        ("--tol", 1e-9, _NONNEGATIVE, {}),
        _OUT, _JOBS, _NO_HEADER, _ORACLE_MAX,
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
        for flag, _, _, kwargs in table:
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
