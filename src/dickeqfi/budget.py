"""Experimental error budget for a superradiant metrology run.

Each imperfection of a candidate platform maps onto either a feasibility
inequality (waveguide propagation length, retardation), a multiplicative
penalty on the exchange integral (unequal couplings, arrival delay), an
additive correction to the Fisher information (detection-arm photon
loss), or a preparation-fidelity estimate (pulse-area error, emission
into unguided modes).  The unequal-coupling penalty is exact: the
recurrence's overlap of the two mismatched Dicke arms over the matched
one.  ``full_budget`` composes the channels into a single lower bound;
the composition multiplies the overlap penalties and applies the loss
correction at first order, which is a heuristic estimate rather than a
joint theorem, and is labelled as such.

Hard "much greater than" requirements are operationalised with a
default margin factor of ten; raw ratios are always reported next to
the verdicts so a different threshold can be applied downstream.
"""
from __future__ import annotations

import functools
import math

# exchange_integral and build_dicke are looked up on their modules at call
# time, so a wrapper or a patch there (the benchmark's tracer wraps both)
# reaches the budget's recurrences whatever the import order.
from . import exchange, ladder
from .ladder import Record, TwinConfiguration
from .metrology import twin_qfi
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


class PropagationCheck(Record):
    # margin: propagation length in units of the system size
    __slots__ = ("l_prop_over_lambda", "feasible", "margin")


class RetardationCheck(Record):
    # n_cubed_bound: raw bound on N^3 before the margin factor
    __slots__ = ("n_max", "feasible", "n_cubed_bound")


class PulseErrorEstimate(Record):
    # in_regime: perturbative treatment valid
    __slots__ = ("infidelity", "in_regime")


class DelayCorrection(Record):
    __slots__ = ("bound_factor", "first_order", "single_mode_factor")


class LossCorrection(Record):
    # perturbative: flag is False once eta > 0.1
    __slots__ = ("corrected_qfi", "qfi_decrease", "p_no_loss", "eta_threshold",
                 "heisenberg_ok", "perturbative")


def propagation_length_check(
    quality_factor: float,
    group_index: float,
    n_photons: int,
    margin_factor: float = DEFAULT_MARGIN_FACTOR,
) -> PropagationCheck:
    """Collective coupling needs the guided modes to outlive the array.

    The propagation length in units of the emitter wavelength is the
    quality factor over twice the group index; it must exceed the photon
    number by the margin factor.
    """
    if not quality_factor > 0.0 or not group_index > 0.0:
        raise ValueError("quality factor and group index must be positive")
    ratio = quality_factor / (2.0 * group_index)
    margin = ratio / n_photons
    return PropagationCheck(
        l_prop_over_lambda=ratio,
        feasible=margin >= margin_factor,
        margin=margin,
    )


def retardation_check(
    group_index: float,
    wavelength: float,
    gamma_1d: float,
    n_photons: int,
    margin_factor: float = DEFAULT_MARGIN_FACTOR,
) -> RetardationCheck:
    """Photon transit across the array must beat the superradiant burst.

    The fastest collective rate grows as N^2/4 while the transit time
    grows as N, capping N^3 at 4c/(n_g lambda gamma); the usable ceiling
    divides that bound by the margin factor before the cube root.
    """
    if not group_index > 0.0 or not wavelength > 0.0 or not gamma_1d > 0.0:
        raise ValueError("group index, wavelength and gamma_1d must be positive")
    bound = 4.0 * SPEED_OF_LIGHT / (group_index * wavelength * gamma_1d)
    n_max = int(math.floor((bound / margin_factor) ** (1.0 / 3.0)))
    return RetardationCheck(
        n_max=n_max,
        feasible=n_photons <= n_max,
        n_cubed_bound=bound,
    )


def pulse_error(delta_omega_t: float, n_photons: int) -> PulseErrorEstimate:
    """Preparation infidelity from an imperfect inversion pulse.

    A relative pulse-area error d leaves an admixture of one collective
    flip whose weight scales as d^2 N; the estimate is perturbative and
    is flagged out of regime once d sqrt(N) reaches one.
    """
    if delta_omega_t < 0.0:
        raise ValueError("pulse error must be nonnegative")
    return PulseErrorEstimate(
        infidelity=delta_omega_t**2 * n_photons,
        in_regime=delta_omega_t * math.sqrt(n_photons) < 1.0,
    )


@functools.lru_cache(maxsize=8)
def matched_dicke_overlap(n_emitters: int) -> ExchangeIntegral:
    """Overlap of two matched unit-rate Dicke arms of ``n_emitters`` each.

    Memoised: the report's integral and the denominator of
    ``mixed_rate_correction`` are the same recurrence.
    """
    arm = ladder.build_dicke(n_emitters, 1.0)
    return exchange.exchange_integral(TwinConfiguration(arm, arm))


def mixed_rate_correction(delta_gamma_rel: float, n_photons: int) -> float:
    """Overlap penalty when the two ensembles couple unequally.

    ``delta_gamma_rel`` is the relative coupling mismatch d (gamma minus
    gamma-prime over gamma).  The penalty is the exact ratio
    I(gamma, (1 - d) gamma) / I(gamma, gamma) of the Dicke arms with
    N/2 photons each.  Its shortfall from one grows as d^2 and only
    slowly with N: the ratio is 0.971 at N = 1000, d = 0.1.  The stronger
    arm is built at rate one, by the scale invariance I(1, r) = I(1/r, 1),
    so no rate overflows at a large negative d; at d = 0 the ratio is
    exactly one and no recurrence runs.
    """
    r = 1.0 - delta_gamma_rel
    if not r > 0.0:
        raise ValueError(
            f"relative mismatch {delta_gamma_rel} implies a nonpositive coupling"
        )
    if delta_gamma_rel == 0.0:
        return 1.0
    m = n_photons // 2
    pair = TwinConfiguration(ladder.build_dicke(m, min(1.0, 1.0 / r)),
                             ladder.build_dicke(m, min(r, 1.0)))
    return exchange.exchange_integral(pair).value / matched_dicke_overlap(m).value


def delay_correction(n_photons: int, gamma_1d: float, tau: float) -> DelayCorrection:
    """Lower bound on the overlap when one wavepacket arrives late.

    The bound multiplies the overlap by exp(-N gamma tau): twice the
    top-rung rate of the half-array ladder acting over the delay.  The
    single-mode comparison exp(-N gamma tau / 2) is reported alongside;
    multimode wavepackets pay at most twice the single-mode exponent.
    """
    if tau < 0.0:
        raise ValueError(f"delay must be nonnegative, got {tau}")
    if not gamma_1d > 0.0:
        raise ValueError(f"gamma_1d must be positive, got {gamma_1d}")
    x = n_photons * gamma_1d * tau
    return DelayCorrection(
        bound_factor=math.exp(-x),
        first_order=1.0 - x,
        single_mode_factor=math.exp(-x / 2.0),
    )


def interferometer_loss_correction(
    qfi: float, n_photons: int, i_n: ExchangeIntegral | float, eta: float
) -> LossCorrection:
    """First-order Fisher-information penalty for photon loss of rate eta.

    The no-loss component survives with probability 1 - N eta / 2 and its
    information drops by N^2 eta I / 4; Heisenberg scaling demands that
    the drop stays below one information unit, i.e. eta below 4/(I N^2).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"loss probability must lie in [0, 1], got {eta}")
    value = i_n.value if isinstance(i_n, ExchangeIntegral) else float(i_n)
    decrease = n_photons**2 * eta * value / 4.0
    threshold = 4.0 / (value * n_photons**2) if value > 0.0 else math.inf
    return LossCorrection(
        corrected_qfi=qfi - decrease,
        qfi_decrease=decrease,
        p_no_loss=1.0 - n_photons * eta / 2.0,
        eta_threshold=threshold,
        heisenberg_ok=eta <= threshold,
        perturbative=eta <= 0.1,
    )


class BudgetEntry(Record):
    """One imperfection channel of the consolidated budget; ``kind`` is
    feasibility, multiplicative, additive or probability."""

    __slots__ = ("channel", "kind", "value", "feasible", "note")
    _defaults = {"note": ""}


class ErrorBudget(Record):
    """Itemised corrections and the combined Fisher-information bound."""

    __slots__ = ("entries", "ideal_qfi", "combined_qfi_lower_bound",
                 "effective_exchange_integral", "collection_probability")
    _defaults = {"entries": (), "ideal_qfi": 0.0, "combined_qfi_lower_bound": 0.0,
                 "effective_exchange_integral": 0.0, "collection_probability": 1.0}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict())


def full_budget(
    params: PlatformParams,
    i_n: ExchangeIntegral | float,
    p: float,
    margin_factor: float = DEFAULT_MARGIN_FACTOR,
) -> ErrorBudget:
    """Compose every channel into one Fisher-information lower bound.

    Overlap penalties multiply onto the exchange integral, the collected
    fraction enters squared, and the detection-loss correction is
    subtracted at first order.  The channels are derived separately, so
    the combined number is a first-order estimate, not a joint theorem.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"collection probability must lie in [0, 1], got {p}")
    if not 0.0 < margin_factor < math.inf:
        raise ValueError(f"margin_factor must be positive and finite, got {margin_factor}")
    n = params.n_photons
    value = i_n.value if isinstance(i_n, ExchangeIntegral) else float(i_n)

    prop = propagation_length_check(
        params.quality_factor, params.group_index, n, margin_factor
    )
    ret = retardation_check(
        params.group_index, params.wavelength, params.gamma_1d, n, margin_factor
    )
    pulse = pulse_error(params.pulse_error, n)
    mixed = mixed_rate_correction(params.delta_gamma, n)
    delayed = delay_correction(n, params.gamma_1d, params.delay)

    i_eff = value * mixed * delayed.bound_factor
    ideal = twin_qfi(n, value)
    degraded = twin_qfi(n, i_eff)
    loss = interferometer_loss_correction(
        degraded, n, i_eff, params.interferometer_loss
    )
    combined = p * p * degraded - loss.qfi_decrease

    entries = (
        BudgetEntry(
            "propagation_length",
            "feasibility",
            prop.l_prop_over_lambda,
            prop.feasible,
            f"length covers {prop.margin:.3g} array sizes (margin factor {margin_factor:g})",
        ),
        BudgetEntry(
            "retardation",
            "feasibility",
            float(ret.n_max),
            ret.feasible,
            f"photon-number ceiling from transit time (raw N^3 bound {ret.n_cubed_bound:.3g})",
        ),
        BudgetEntry(
            "pulse_area",
            "probability",
            1.0 - pulse.infidelity,
            pulse.in_regime,
            "preparation fidelity estimate; flag drops once the error is nonperturbative",
        ),
        BudgetEntry(
            "mixed_coupling",
            "multiplicative",
            mixed,
            True,
            "exact overlap ratio of the mismatched arms to the matched ones",
        ),
        BudgetEntry(
            "arrival_delay",
            "multiplicative",
            delayed.bound_factor,
            True,
            f"lower-bound overlap penalty; first order {delayed.first_order:.6g}",
        ),
        BudgetEntry(
            "collection",
            "probability",
            p,
            p >= 0.9,
            "guided-mode collection probability; enters the bound squared",
        ),
        BudgetEntry(
            "interferometer_loss",
            "additive",
            -loss.qfi_decrease,
            loss.heisenberg_ok,
            f"first-order correction; Heisenberg scaling needs eta below {loss.eta_threshold:.3g}",
        ),
    )
    return ErrorBudget(
        entries=entries,
        ideal_qfi=ideal,
        combined_qfi_lower_bound=combined,
        effective_exchange_integral=i_eff,
        collection_probability=p,
    )
