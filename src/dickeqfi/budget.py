"""Experimental error budget for a superradiant metrology run.

Each imperfection of a candidate platform maps onto either a feasibility
inequality (waveguide propagation length, retardation), a multiplicative
penalty on the exchange integral (unequal couplings, arrival delay), an
additive correction to the Fisher information (detection-arm photon
loss), or a preparation-fidelity estimate (pulse-area error, emission
into unguided modes).  The unequal-coupling penalty is exact: the
recurrence's overlap of the two mismatched Dicke arms over the matched
one.  ``full_budget`` composes the channels into a single first-order
estimate: it multiplies the overlap penalties and applies the loss
correction at first order, which is a heuristic rather than a joint
theorem, and is labelled as such.

Hard "much greater than" requirements are operationalised with a
default margin factor of ten.  Each channel is one ``BudgetEntry``: the
raw ratio is its ``value``, next to the verdict, and the secondary
numbers are in its ``note``, so a different threshold can be applied
downstream.
"""
from __future__ import annotations

import functools
import math

# exchange_integral and build_dicke are looked up on their modules at call
# time, so a wrapper or a patch there (the benchmark's tracer wraps both)
# reaches the budget's recurrences whatever the import order.
from . import exchange, ladder
from .ladder import Record, TwinConfiguration
from .metrology import _one_pair_overlap, qfi_twin
from .oracle import ExchangeIntegral

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
DEFAULT_MARGIN_FACTOR = 10.0


class PlatformParams(Record):
    """Physical description of one experimental platform.

    Rates are angular (rad/s), lengths in meters, the delay in seconds;
    ``pulse_error`` and ``delta_gamma`` are relative (dimensionless) and
    ``interferometer_loss`` is a probability.  Every value must be finite.
    """

    __slots__ = ("quality_factor", "group_index", "wavelength", "gamma_1d", "gamma_star",
                 "n_photons", "pulse_error", "delta_gamma", "delay", "interferometer_loss")
    _defaults = {"pulse_error": 0.0, "delta_gamma": 0.0, "delay": 0.0,
                 "interferometer_loss": 0.0}

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        positive = {
            "quality_factor": self.quality_factor,
            "group_index": self.group_index,
            "wavelength": self.wavelength,
            "gamma_1d": self.gamma_1d,
        }
        for name, value in positive.items():
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        nonnegative = {
            "gamma_star": self.gamma_star,
            "pulse_error": self.pulse_error,
            "delay": self.delay,
            "interferometer_loss": self.interferometer_loss,
        }
        for name, value in nonnegative.items():
            if value < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.interferometer_loss > 1.0:
            raise ValueError("interferometer_loss is a probability, must be <= 1")
        if not self.delta_gamma < 1.0:
            raise ValueError(
                f"delta_gamma must be below 1 (a positive second coupling), "
                f"got {self.delta_gamma}"
            )
        if self.n_photons < 2 or self.n_photons % 2:
            raise ValueError(
                f"n_photons must be an even total >= 2, got {self.n_photons}"
            )


class BudgetEntry(Record):
    """One imperfection channel of the consolidated budget; ``kind`` is
    feasibility, multiplicative, additive or probability."""

    __slots__ = ("channel", "kind", "value", "feasible", "note")


class ErrorBudget(Record):
    """Itemised corrections and the combined first-order Fisher-information
    estimate, which ``combined_qfi_lower_bound`` holds under its old name."""

    __slots__ = ("entries", "ideal_qfi", "combined_qfi_lower_bound",
                 "effective_exchange_integral", "collection_probability")


# Each channel below takes the validated PlatformParams and returns its
# entry; only full_budget calls them, after its own checks.

def _propagation_length(params: PlatformParams, margin_factor: float) -> BudgetEntry:
    """Collective coupling needs the guided modes to outlive the array.

    The propagation length in units of the emitter wavelength is the
    quality factor over twice the group index; it must exceed the photon
    number by the margin factor.
    """
    ratio = params.quality_factor / (2.0 * params.group_index)
    margin = ratio / params.n_photons
    return BudgetEntry(
        "propagation_length", "feasibility", ratio, margin >= margin_factor,
        f"length covers {margin:.3g} array sizes (margin factor {margin_factor:g})",
    )


def _retardation(params: PlatformParams, margin_factor: float) -> BudgetEntry:
    """Photon transit across the array must beat the superradiant burst.

    The fastest collective rate grows as N^2/4 while the transit time
    grows as N, capping N^3 at 4c/(n_g lambda gamma); the usable ceiling
    divides that bound by the margin factor before the cube root.  A
    product n_g lambda gamma that underflows to zero, or a bound that
    overflows, leaves no finite ceiling: it is inf, and any N passes.
    """
    rate = params.group_index * params.wavelength * params.gamma_1d
    bound = 4.0 * SPEED_OF_LIGHT / rate if rate else math.inf
    root = (bound / margin_factor) ** (1.0 / 3.0)
    n_max = float(math.floor(root)) if root < math.inf else math.inf
    return BudgetEntry(
        "retardation", "feasibility", n_max, params.n_photons <= n_max,
        f"photon-number ceiling from transit time (raw N^3 bound {bound:.3g})",
    )


def _pulse_area(params: PlatformParams) -> BudgetEntry:
    """Preparation fidelity under an imperfect inversion pulse.

    A relative pulse-area error d leaves an admixture of one collective
    flip whose weight scales as d^2 N; the fidelity 1 - d^2 N is clamped
    at zero, and the estimate holds for small d, so the entry is flagged
    once d sqrt(N) reaches one.
    """
    d, n = params.pulse_error, params.n_photons
    return BudgetEntry(
        "pulse_area", "probability", max(0.0, 1.0 - d**2 * n), d * math.sqrt(n) < 1.0,
        "preparation fidelity estimate; flag drops once the error is nonperturbative",
    )


@functools.lru_cache(maxsize=8)
def matched_dicke_overlap(n_emitters: int) -> ExchangeIntegral:
    """Overlap of two matched unit-rate Dicke arms of ``n_emitters`` each.

    Memoised: the report's integral and the denominator of the
    mixed-coupling penalty are the same recurrence.
    """
    arm = ladder.build_dicke(n_emitters, 1.0)
    return exchange.exchange_integral(TwinConfiguration(arm, arm))


def _mixed_coupling(params: PlatformParams) -> BudgetEntry:
    """Overlap penalty when the two ensembles couple unequally.

    ``delta_gamma`` is the relative coupling mismatch d (gamma minus
    gamma-prime over gamma).  The penalty is the exact ratio
    I(gamma, (1 - d) gamma) / I(gamma, gamma) of the Dicke arms with
    N/2 photons each.  Its shortfall from one grows as d^2 and only
    slowly with N: the ratio is 0.971 at N = 1000, d = 0.1.  The stronger
    arm is built at rate one, by the scale invariance I(1, r) = I(1/r, 1),
    so no rate overflows at a large negative d; at d = 0 the ratio is
    exactly one and no recurrence runs.
    """
    d = params.delta_gamma
    ratio = 1.0
    if d != 0.0:
        r, m = 1.0 - d, params.n_photons // 2
        pair = TwinConfiguration(ladder.build_dicke(m, min(1.0, 1.0 / r)),
                                 ladder.build_dicke(m, min(r, 1.0)))
        ratio = exchange.exchange_integral(pair).value / matched_dicke_overlap(m).value
    return BudgetEntry(
        "mixed_coupling", "multiplicative", ratio, True,
        "exact overlap ratio of the mismatched arms to the matched ones",
    )


def _arrival_delay(params: PlatformParams) -> BudgetEntry:
    """Lower bound on the overlap when one wavepacket arrives late.

    The bound multiplies the overlap by exp(-N gamma tau): twice the
    top-rung rate of the half-array ladder acting over the delay;
    multimode wavepackets pay at most twice the single-mode exponent
    N gamma tau / 2.  The note gives the first order, 1 - N gamma tau.
    """
    x = params.n_photons * params.gamma_1d * params.delay
    return BudgetEntry(
        "arrival_delay", "multiplicative", math.exp(-x), True,
        f"lower-bound overlap penalty; first order {1.0 - x:.6g}",
    )


def _interferometer_loss(params: PlatformParams, i_eff: float) -> BudgetEntry:
    """First-order Fisher-information penalty for photon loss of rate eta.

    Loss model: each of the N/2 photons of one arm is lost independently
    with probability eta and the other arm is lossless.  The information
    is taken to drop by N^2 eta I / 4, the entry's value with its sign
    flipped; Heisenberg scaling demands that the drop stays below one
    information unit, i.e. eta below 4/(I N^2), the threshold in the note.

    That drop does not follow from the loss model above: its no-loss
    weight (1 - eta)^(N/2) gives F >= (1 - eta)^(N/2) F_twin, a first-order
    drop of (N eta / 2) F_twin = N^2 eta (I N + 2) / 4, about N times the
    coded one (211 against 2.06 at N = 100, eta = 1e-3, I = 0.8234).  So
    F_twin minus this drop is not a bound the model implies.
    """
    n, eta = params.n_photons, params.interferometer_loss
    decrease = n**2 * eta * i_eff / 4.0
    threshold = 4.0 / (i_eff * n**2) if i_eff > 0.0 else math.inf
    return BudgetEntry(
        "interferometer_loss", "additive", -decrease, eta <= threshold,
        f"first-order correction; Heisenberg scaling needs eta below {threshold:.3g}",
    )


def full_budget(
    params: PlatformParams,
    i_n: ExchangeIntegral | float,
    p: float,
    margin_factor: float = DEFAULT_MARGIN_FACTOR,
) -> ErrorBudget:
    """Compose every channel into one first-order Fisher-information estimate.

    Overlap penalties multiply onto the exchange integral, the collected
    fraction enters squared, and the detection-loss correction, a negative
    entry, is added at first order.  The channels are derived separately, so
    the combined number is a first-order estimate, not a joint theorem.
    The p^2 term weights the full-collection sector, whose state is the
    post-selected one (each arm given that all its photons were
    collected), but it uses ``i_n`` as given: ``report`` passes the
    lossless overlap today.
    ``params.interferometer_loss`` is the eta of the loss channel: each
    photon of one arm is lost with that probability, and the other arm
    is lossless.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"collection probability must lie in [0, 1], got {p}")
    if not 0.0 < margin_factor < math.inf:
        raise ValueError(f"margin_factor must be positive and finite, got {margin_factor}")
    value = _one_pair_overlap(i_n, params.n_photons)

    mixed = _mixed_coupling(params)
    delayed = _arrival_delay(params)
    i_eff = value * mixed.value * delayed.value
    loss = _interferometer_loss(params, i_eff)
    entries = (
        _propagation_length(params, margin_factor),
        _retardation(params, margin_factor),
        _pulse_area(params),
        mixed,
        delayed,
        BudgetEntry(
            "collection", "probability", p, p >= 0.9,
            "guided-mode collection probability; enters the bound squared",
        ),
        loss,
    )
    return ErrorBudget(
        entries=entries,
        ideal_qfi=qfi_twin(params.n_photons, value),
        combined_qfi_lower_bound=p * p * qfi_twin(params.n_photons, i_eff) + loss.value,
        effective_exchange_integral=i_eff,
        collection_probability=p,
    )
