"""Population dynamics of the collective decay cascade.

The fully inverted ensemble walks down the ladder of symmetric states;
collective jumps feed level m+1 into level m at rate m(N-m+1) times the
waveguide rate, while emission into any other channel removes weight
from the tracked ladder altogether at m times the residual rate.  The
weight arriving in the ground level is therefore the probability of
collecting all N photons in the guided mode.

The ladder is an absorbing chain with no re-entry, so its integrated
quantities are closed forms: each rung passes on the collective share
of its total decay rate, the collection probability is the product of
those shares, and the time spent on a rung is the probability of
reaching it divided by its total out-rate.  ``dicke_collection_probability``
returns p as that product and 1 - p as its sum in logarithms, both plain
``math`` over the rungs, so it loads no numpy.  Only the
time-resolved trace builds arrays (numpy is imported by the functions
that do): it needs the generator itself, which is bidiagonal, and
advances it with its matrix exponential, so no ODE solver runs.  The
exponential is the scaling-and-squaring Pade method of N. J. Higham,
"The scaling and squaring method for the matrix exponential revisited",
SIAM J. Matrix Anal. Appl. 26, 1179 (2005), written in numpy alone.
"""
from __future__ import annotations

import math

from .ladder import Record, _dicke_rates

_RESIDUAL_TOL = 1e-10
_MAX_EXTENSIONS = 12


class LossModel(Record):
    """Waveguide rate and residual (unguided) rate of one emitter."""

    __slots__ = ("gamma_1d", "gamma_star")
    _defaults = {"gamma_star": 0.0}

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.gamma_1d > 0.0:
            raise ValueError(f"gamma_1d must be positive, got {self.gamma_1d}")
        if self.gamma_star < 0.0:
            raise ValueError(f"gamma_star must be nonnegative, got {self.gamma_star}")


class PopulationTrace(Record):
    """Time-resolved ladder populations and their integrated summaries."""

    __slots__ = (
        "times",                   # shape (T,)
        "populations",             # shape (N+1, T), row m = level m
        "residence",               # shape (N+1,), time spent per level; inf at 0
        "sum_deficit",             # 1 - sum_m P_m(t) on the grid
        "converged",
        "residual",                # excited population left beyond the horizon
        "horizon",                 # end of the grid, doubled per extension
    )


class CollectionProbability(Record):
    """Collection probability p and its complement 1 - p, each formed directly."""

    __slots__ = ("p", "one_minus_p")


def collective_rates(n_emitters: int, gamma_1d: float) -> np.ndarray:
    """Collective rate of each rung, m = 1..N."""
    import numpy as np

    return np.fromiter(_dicke_rates(n_emitters, gamma_1d), float, n_emitters)


def superradiance_timescale(n_emitters: int, gamma_1d: float) -> float:
    """Total cascade duration as the sum of per-rung lifetimes."""
    import numpy as np

    return float(np.sum(1.0 / collective_rates(n_emitters, gamma_1d)))


# Higham (2005), Table 2.3: the [13/13] Pade approximant of exp is
# accurate to double precision for ||A||_1 <= theta_13.  Coefficients b_0..b_13.
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000, 32382376266240000, 7771770303897600,
            1187353796428800, 129060195264000, 10559470521600,
            670442572800, 33522128640, 1323241920, 40840800,
            960960, 16380, 182, 1)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005, Alg. 2.3).

    The matrix is halved s times until its 1-norm is within theta_13,
    the degree-13 Pade approximant is taken, and squared back s times.
    """
    import numpy as np

    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / _THETA_13))) if norm > 0.0 else 0
    a = a / 2.0**s
    b = _PADE_13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    x = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        x = x @ x
    return x


def dicke_populations(n_emitters: int, loss: LossModel) -> PopulationTrace:
    """Ladder populations from the fully inverted state, on the trace's grid.

    The grid spans twenty cascade durations in 400 equal steps, each
    advanced by one ``_expm`` propagator.  The residual is the excited
    population at the end of the grid; while it exceeds ``_RESIDUAL_TOL``
    the horizon doubles, up to ``_MAX_EXTENSIONS`` times, and the trace is
    flagged unconverged if it still does.  Residence times are closed
    forms; the ground level's residence is infinite, since it absorbs the
    collected weight.
    """
    import numpy as np

    t_max = 20.0 * superradiance_timescale(n_emitters, loss.gamma_1d)
    times = np.linspace(0.0, t_max, 401)
    gammas = collective_rates(n_emitters, loss.gamma_1d)
    out_rates = gammas + np.arange(1, n_emitters + 1) * loss.gamma_star  # m = 1..N
    generator = np.diag(np.concatenate(([0.0], -out_rates))) + np.diag(gammas, k=1)
    propagator = _expm(generator * times[1])
    populations = np.empty((n_emitters + 1, len(times)))
    y = np.zeros(n_emitters + 1)
    y[n_emitters] = 1.0
    populations[:, 0] = y
    for k in range(1, len(times)):
        y = propagator @ y
        populations[:, k] = y

    horizon = t_max
    residual = float(np.sum(y[1:]))
    extensions = 0
    while residual > _RESIDUAL_TOL and extensions < _MAX_EXTENSIONS:
        y = _expm(generator * horizon) @ y
        horizon *= 2.0
        extensions += 1
        residual = float(np.sum(y[1:]))

    # weight reaching level m is the product of the shares passed on above it
    shares = gammas / out_rates
    reach = np.append(np.cumprod(shares[:0:-1])[::-1], 1.0)
    populations = np.clip(populations, 0.0, 1.0)
    return PopulationTrace(
        times=times,
        populations=populations,
        residence=np.concatenate(([math.inf], reach / out_rates)),
        sum_deficit=1.0 - populations.sum(axis=0),
        converged=residual <= _RESIDUAL_TOL,
        residual=residual,
        horizon=horizon,
    )


def collection_probability_product(n_emitters: int, loss: LossModel) -> float:
    """No-jump branching product down the cascade.

    Each rung hands its weight to the next with probability equal to the
    collective share of its total decay rate; the product over rungs is
    the probability that all N photons end up in the guided mode.
    """
    return math.prod((g / (g + lost) for g, lost in _rungs(n_emitters, loss)), start=1.0)


def _rungs(n_emitters: int, loss: LossModel):
    """Collective and residual rate of each rung, m = 1..N."""
    for m, rate in enumerate(_dicke_rates(n_emitters, loss.gamma_1d), start=1):
        yield rate, m * loss.gamma_star


def dicke_collection_probability(n_emitters: int, loss: LossModel) -> CollectionProbability:
    """N-photon collection probability p and the loss probability 1 - p.

    ``p`` is ``collection_probability_product``.  ``one_minus_p`` is the
    same branching product summed in logarithms, so that no 1 - p
    cancellation loses digits at large Purcell factors (1.0 - p is 7e-5 off
    at N = 10, P = 1e12).  ``fsum`` makes the sum independent of the rungs'
    order.  A rung whose lost share rounds to 1, or whose loss rate
    overflows, keeps nothing and adds log 0 = -inf, so 1 - p reads exactly
    1, as the product's p = 0.
    """
    shares = (lost / (g + lost) for g, lost in _rungs(n_emitters, loss))
    total = math.fsum(math.log1p(-q) if q < 1.0 else -math.inf for q in shares)
    # 0.0 - x, not -x: a lossless chain reads 0.0, not -0.0
    return CollectionProbability(p=collection_probability_product(n_emitters, loss),
                                 one_minus_p=0.0 - math.expm1(total))
