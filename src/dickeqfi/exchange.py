"""Polynomial-cost evaluation of the twin exchange integral.

The naive exchange integral over a pair of m-photon cascades costs
(m!)^4 terms.  Working in the time domain instead, integrating always
over the latest remaining emission time maps the integral onto three
triangular tables of partial integrals, distinguished by how many of
the two swapped emission times are still pending.  Filling the tables
in order of total excitation number costs O(m^2), which reaches
hundreds of photons in milliseconds.

The tables are stored in the factorial-rescaled form (dividing entry
(i, j) by i! j!); the rescaling removes the combinatorial prefactors
from the update rule and keeps every stored magnitude far from
overflow.  Ladders with unequal level spacings make the mid-table
exponent accumulators complex (transition-frequency mismatches between
the two pending branches); the final integral is provably real and is
assembled from the real part of the coupled term, so the top table
stays real throughout.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ladder import DecayLadder, TwinConfiguration, build_anharmonic, build_dicke, build_harmonic
from .metrology import twin_qfi
from .oracle import ExchangeIntegral

# Largest excess over I = 1 accepted as rounding (seen: 1.6e-15 at m = 200).
_OVERSHOOT_TOL = 1e-12


class InvalidLadderError(ValueError):
    """Ladder cannot be integrated (nonpositive exponent accumulator)."""


@dataclass
class RecurrenceState:
    """Filled partial-integral tables plus the exponent accessors.

    ``f2``, ``f1`` and ``f0`` hold the rescaled tables with two, one and
    zero swapped emission times pending; ``c2``/``c1``/``c0`` are the
    matching exponent accumulators.  Exposed mainly for validation: the
    base entry of ``f0`` is exactly one and every stored magnitude is
    finite by construction.
    """

    photons_per_arm: int
    f2: np.ndarray
    f1: np.ndarray
    f0: np.ndarray
    _c2: np.ndarray = field(repr=False, default=None)
    _c1: np.ndarray = field(repr=False, default=None)
    _c0: np.ndarray = field(repr=False, default=None)

    def c2(self, i: int, j: int) -> float:
        return self._c2[i, j]

    def c1(self, i: int, j: int) -> complex:
        return self._c1[i, j]

    def c0(self, i: int, j: int) -> float:
        return self._c0[i, j]

    @property
    def value(self) -> float:
        """The overlap, with a rounding overshoot of one clipped back to one.

        Harmonic ladders, where I = 1 exactly, come out a few ulps high.
        """
        m = self.photons_per_arm
        value = float(self.f2[m - 1, m - 1]) / m**2
        if value > 1.0 + _OVERSHOOT_TOL:
            raise InvalidLadderError(f"overlap {value!r} exceeds one beyond rounding")
        return min(value, 1.0)


def _twin_recurrence(rates, freqs) -> RecurrenceState:
    """Fill the three tables for a twin pair of identical ladders."""
    m = len(rates)
    g = np.concatenate(([0.0], np.asarray(rates, dtype=float)))
    w = np.concatenate(([0.0], np.asarray(freqs, dtype=float)))
    if np.any(g[1:] <= 0.0):
        raise InvalidLadderError("all ladder rates must be positive")

    idx = np.arange(m)
    gr0 = g[m - idx]           # accumulator rate with i swapped-pending
    gr2 = g[m - 1 - idx]
    dw = w[m - idx] - w[m - 1 - idx]
    c0 = gr0[:, None] + gr0[None, :]
    c2 = gr2[:, None] + gr2[None, :]
    c1 = (c0 + c2) / 2.0 + 1j * (dw[:, None] - dw[None, :])

    sq = np.sqrt(g[m - idx])
    s_cross = sq[:, None] * sq[None, :]
    n0 = np.empty(m)
    n1 = np.empty(m)
    n0[0] = n1[0] = np.nan  # index 0 never steps down
    if m > 1:
        ii = idx[1:]
        n0[1:] = g[m - ii + 1]
        n1[1:] = np.sqrt(g[m - ii] * g[m - ii + 1])
    n2 = g[m - idx]

    f0 = np.zeros((m, m))
    f1 = np.zeros((m, m), dtype=complex)
    f2 = np.zeros((m, m))
    f0[0, 0] = 1.0
    for k in range(1, 2 * m - 1):
        i = np.arange(max(0, k - (m - 1)), min(m - 1, k) + 1)
        j = k - i
        acc = np.zeros(len(i))
        mi = i >= 1
        acc[mi] += n0[i[mi]] / c0[i[mi] - 1, j[mi]] * f0[i[mi] - 1, j[mi]]
        mj = j >= 1
        acc[mj] += n0[j[mj]] / c0[i[mj], j[mj] - 1] * f0[i[mj], j[mj] - 1]
        f0[i, j] = acc

    for k in range(0, 2 * m - 1):
        i = np.arange(max(0, k - (m - 1)), min(m - 1, k) + 1)
        j = k - i
        acc = s_cross[i, j] / c0[i, j] * f0[i, j] + 0j
        mi = i >= 1
        acc[mi] += n1[i[mi]] / c1[i[mi] - 1, j[mi]] * f1[i[mi] - 1, j[mi]]
        mj = j >= 1
        acc[mj] += n1[j[mj]] / c1[i[mj], j[mj] - 1] * f1[i[mj], j[mj] - 1]
        f1[i, j] = acc

    for k in range(0, 2 * m - 1):
        i = np.arange(max(0, k - (m - 1)), min(m - 1, k) + 1)
        j = k - i
        # the two swapped-time branches are complex conjugates, so their
        # coupled contribution is twice the real part
        acc = 2.0 * s_cross[i, j] * np.real(f1[i, j] / c1[i, j])
        mi = i >= 1
        acc[mi] += n2[i[mi]] / c2[i[mi] - 1, j[mi]] * f2[i[mi] - 1, j[mi]]
        mj = j >= 1
        acc[mj] += n2[j[mj]] / c2[i[mj], j[mj] - 1] * f2[i[mj], j[mj] - 1]
        f2[i, j] = acc

    state = RecurrenceState(photons_per_arm=m, f2=f2, f1=f1, f0=f0)
    state._c2, state._c1, state._c0 = c2, c1, c0
    if not (np.all(np.isfinite(f0)) and np.all(np.isfinite(f2))):
        raise InvalidLadderError("recurrence produced nonfinite entries")
    return state


def exchange_integral(config: TwinConfiguration) -> ExchangeIntegral:
    """Exchange integral of a twin configuration via the table recurrence.

    Requires identical arms and zero delay; distinct arms or delayed
    arrival are exact-oracle territory (the analytic delay bound lives
    in the error-budget module).
    """
    if config.delay != 0.0:
        raise ValueError(
            "recurrence handles zero delay only; use the oracle for the "
            "exact delayed value or the budget bound"
        )
    if config.ladder_a != config.ladder_b:
        raise ValueError(
            "recurrence handles identical twin ladders only; use the "
            "oracle for distinct arms"
        )
    ladder = config.ladder_a
    state = _twin_recurrence(ladder.rates, ladder.frequencies)
    return ExchangeIntegral(
        value=state.value,
        total_photons=2 * ladder.levels,
        method="recurrence",
        exchanged_count=1,
    )


def mixed_rate_factor(gamma_ratio: float, n_total: int) -> float:
    """Per-step model penalty (2 sqrt(r) / (1 + r))^N at coupling ratio r."""
    if not gamma_ratio > 0.0:
        raise ValueError(f"gamma ratio must be positive, got {gamma_ratio}")
    r = float(gamma_ratio)
    return (2.0 * math.sqrt(r) / (1.0 + r)) ** n_total


def exchange_integral_mixed_rates(
    m: int, gamma_ratio: float, gamma_1d: float = 1.0
) -> ExchangeIntegral:
    """Per-step model of the twin overlap for unequal couplings.

    The model is the Dicke recurrence with the arm rates gamma and
    gamma' = ratio * gamma entering as their geometric mean in every
    numerator and their arithmetic mean in every exponent accumulator.
    Each of the 2m update steps then acquires the identical factor
    2 sqrt(r) / (1 + r), so the model is that factor to the power 2m
    times the equal-coupling integral, evaluated here in closed form.

    It is the exact overlap of the two ensembles only at m = 1; for
    m >= 2 the oracle on the two distinct ladders gives a larger value
    (0.9069 against 0.9016 at m = 2, r = 1.2).
    """
    factor = mixed_rate_factor(gamma_ratio, 2 * m)
    ladder = build_dicke(m, gamma_1d)
    return ExchangeIntegral(
        value=factor * _twin_recurrence(ladder.rates, ladder.frequencies).value,
        total_photons=2 * m,
        method="recurrence",
        exchanged_count=1,
    )


@dataclass(frozen=True)
class LadderFamily:
    """Family of arm ladders swept against the total photon number."""

    kind: str  # dicke | harmonic | anharmonic
    gamma: float = 1.0
    u: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dicke", "harmonic", "anharmonic"):
            raise ValueError(f"unknown ladder family {self.kind!r}")

    def build_arm(self, n_total: int) -> DecayLadder:
        if n_total % 2 or n_total < 2:
            raise ValueError(f"total photon number must be even >= 2, got {n_total}")
        m = n_total // 2
        if self.kind == "dicke":
            return build_dicke(m, self.gamma)
        if self.kind == "harmonic":
            return build_harmonic(m, self.gamma)
        return build_anharmonic(m, self.gamma, self.u)


SWEEP_COLUMNS = ("N", "I_N", "F_Q", "dphi2", "dphi2_snl", "dphi2_hl", "dphi2_fock")


def _sweep_point(family: LadderFamily, n_total: int) -> dict:
    try:
        arm = family.build_arm(n_total)
        integral = exchange_integral(TwinConfiguration(arm, arm))
        value = integral.value
        qfi = twin_qfi(n_total, value)
        return {
            "N": n_total,
            "I_N": value,
            "F_Q": qfi,
            "dphi2": 1.0 / qfi,
            "dphi2_snl": 1.0 / n_total,
            "dphi2_hl": 1.0 / n_total**2,
            "dphi2_fock": 2.0 / (n_total * (n_total + 2.0)),
        }
    except Exception as exc:  # per-point failures flag the row, not the sweep
        return {"N": n_total, "error": f"{type(exc).__name__}: {exc}"}


def _worker_count(jobs: int | None, points: int) -> int:
    """Pool size: at least one, and no more than points or logical cores."""
    return max(1, min(jobs or 1, points, os.cpu_count() or 1))


def qfi_vs_n_sweep(
    family: LadderFamily, n_values, jobs: int | None = None
) -> list[dict]:
    """Phase-sensitivity table over total photon numbers.

    Rows carry the exchange integral, the resulting quantum Fisher
    information, the per-shot phase variance and the shot-noise,
    Heisenberg and photon-number-state references.  Points run
    independently, optionally on a process pool of at most ``jobs``
    workers; rows come back in input order either way.
    """
    n_values = [int(n) for n in n_values]
    for n in n_values:
        if n % 2 or n < 2:
            raise ValueError(f"total photon number must be even >= 2, got {n}")
    workers = _worker_count(jobs, len(n_values))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, [family] * len(n_values), n_values))
    return [_sweep_point(family, n) for n in n_values]
