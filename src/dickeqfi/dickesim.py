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
reaching it divided by its total out-rate.  The collection closed forms
are plain ``math`` over the rungs, so they load no numpy.  Only the
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


class LossModel(Record):
    """Waveguide rate and residual (unguided) rate of one emitter."""

    __slots__ = ("gamma_1d", "gamma_star")
    _defaults = {"gamma_star": 0.0}

    def __post_init__(self):
        if not self.gamma_1d > 0.0:
            raise ValueError(f"gamma_1d must be positive, got {self.gamma_1d}")
        if self.gamma_star < 0.0:
            raise ValueError(f"gamma_star must be nonnegative, got {self.gamma_star}")

    @property
    def purcell(self) -> float:
        """Ratio of guided to unguided decay; infinite without loss."""
        if self.gamma_star == 0.0:
            return math.inf
        return self.gamma_1d / self.gamma_star


class PopulationTrace(Record):
    """Time-resolved ladder populations and their integrated summaries."""

    __slots__ = (
        "times",                   # shape (T,)
        "populations",             # shape (N+1, T), row m = level m
        "residence",               # shape (N+1,), time spent per level; inf at 0
        "collection_probability",
        "sum_deficit",             # 1 - sum_m P_m(t) on the grid
        "converged",
        "residual",                # excited population left beyond the horizon
        "horizon",                 # end of the grid, doubled per extension
    )


class CollectionEstimate(Record):
    """Collection probability: exact branching product, log scaling."""

    __slots__ = ("exact", "log_estimate")


class SuperradianceTime(Record):
    """Cascade duration: exact rate sum and the logarithmic scaling."""

    __slots__ = ("exact", "log_estimate")


def collective_rates(n_emitters: int, gamma_1d: float) -> np.ndarray:
    """Collective rate of each rung, m = 1..N."""
    import numpy as np

    return np.fromiter(_dicke_rates(n_emitters, gamma_1d), float, n_emitters)


def superradiance_timescale(n_emitters: int, gamma_1d: float) -> SuperradianceTime:
    """Total cascade duration as the sum of per-rung lifetimes."""
    if n_emitters < 1:
        raise ValueError(f"need at least one emitter, got {n_emitters}")
    import numpy as np

    gammas = collective_rates(n_emitters, gamma_1d)
    exact = float(np.sum(1.0 / gammas))
    return SuperradianceTime(
        exact=exact,
        log_estimate=math.log(n_emitters) / (n_emitters * gamma_1d),
    )


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


def _propagate(generator: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """State at every grid time, stepped with ``expm(generator * dt)``.

    The exponential is ``_expm``, Higham's (2005) Pade scaling and
    squaring.  The propagator is recomputed only where the step changes
    by more than rounding, so a uniform grid costs one matrix exponential.
    """
    import numpy as np

    out = np.empty((len(y0), len(times)))
    out[:, 0] = y = y0
    step = math.nan
    for k, dt in enumerate(np.diff(times), start=1):
        if not abs(dt - step) <= 1e-12 * dt:
            step, propagator = dt, _expm(generator * dt)
        y = propagator @ y
        out[:, k] = y
    return out


def dicke_populations(
    n_emitters: int,
    loss: LossModel,
    t_grid=None,
    *,
    residual_tol: float = _RESIDUAL_TOL,
    max_extensions: int = 12,
) -> PopulationTrace:
    """Ladder populations on a time grid, from the fully inverted state.

    The default grid spans twenty cascade durations in 400 steps.  The
    residual is the excited population at the end of the grid; while it
    exceeds ``residual_tol`` the horizon doubles, and the trace is
    flagged unconverged if the extension budget runs out.  Residence
    times and the collection probability are closed forms; the ground
    level's residence is infinite, since it absorbs the collected weight.
    """
    if n_emitters < 1:
        raise ValueError(f"need at least one emitter, got {n_emitters}")
    import numpy as np

    if t_grid is None:
        t_max = 20.0 * superradiance_timescale(n_emitters, loss.gamma_1d).exact
        t_grid = np.linspace(0.0, t_max, 401)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if t_grid.ndim != 1 or len(t_grid) < 2:
            raise ValueError("time grid needs at least two points")
        if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0.0):
            raise ValueError("time grid must ascend from 0")

    gammas = collective_rates(n_emitters, loss.gamma_1d)
    out_rates = gammas + np.arange(1, n_emitters + 1) * loss.gamma_star  # m = 1..N
    generator = np.diag(np.concatenate(([0.0], -out_rates))) + np.diag(gammas, k=1)
    y0 = np.zeros(n_emitters + 1)
    y0[n_emitters] = 1.0
    populations = _propagate(generator, y0, t_grid)

    horizon = float(t_grid[-1])
    y_end = populations[:, -1]
    residual = float(np.sum(y_end[1:]))
    extensions = 0
    while residual > residual_tol and extensions < max_extensions:
        y_end = _propagate(generator, y_end, np.array([0.0, horizon]))[:, -1]
        horizon *= 2.0
        extensions += 1
        residual = float(np.sum(y_end[1:]))

    # weight reaching level m is the product of the shares passed on above it
    shares = gammas / out_rates
    reach = np.append(np.cumprod(shares[:0:-1])[::-1], 1.0)
    populations = np.clip(populations, 0.0, 1.0)
    return PopulationTrace(
        times=t_grid,
        populations=populations,
        residence=np.concatenate(([math.inf], reach / out_rates)),
        collection_probability=collection_probability_product(n_emitters, loss),
        sum_deficit=1.0 - populations.sum(axis=0),
        converged=residual <= residual_tol,
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


def collection_loss_probability(n_emitters: int, loss: LossModel) -> float:
    """1 - p, the chance that at least one photon leaves the guided mode.

    The same branching product as ``collection_probability_product``,
    summed in logarithms so that no 1 - p cancellation loses digits at
    large Purcell factors (1.0 - p is 7e-5 off at N = 10, P = 1e12).
    ``fsum`` makes the sum independent of the rungs' order.
    """
    total = math.fsum(math.log1p(-lost / (g + lost)) for g, lost in _rungs(n_emitters, loss))
    # 0.0 - x, not -x: a lossless chain reads 0.0, not -0.0
    return 0.0 - math.expm1(total)


def _rungs(n_emitters: int, loss: LossModel):
    """Collective and residual rate of each rung, m = 1..N."""
    for m, rate in enumerate(_dicke_rates(n_emitters, loss.gamma_1d), start=1):
        yield rate, m * loss.gamma_star


def dicke_collection_probability(n_emitters: int, loss: LossModel) -> CollectionEstimate:
    """N-photon collection probability, exact and in its log scaling.

    ``exact`` is the per-rung branching product, which is exact for the
    absorbing chain, and ``log_estimate`` is 1 - ln(N)/P.  To leading
    order in 1/P the product is 1 - H_N/P, and ln(N) is only the large-N
    form of the harmonic number H_N, so at small N the error 1 - p
    exceeds ln(N)/P for any P: by 27% at N = 10 (H_10/ln(10) = 1.27) and
    13% at N = 100.
    """
    if n_emitters < 1:
        raise ValueError(f"need at least one emitter, got {n_emitters}")
    if loss.gamma_star == 0.0:
        log_estimate = 1.0
    else:
        log_estimate = 1.0 - math.log(n_emitters) / loss.purcell
    return CollectionEstimate(
        exact=collection_probability_product(n_emitters, loss),
        log_estimate=log_estimate,
    )
