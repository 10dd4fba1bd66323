"""Polynomial-cost evaluation of the exchange integral of two arms.

The naive exchange integral over a pair of m-photon cascades costs
(m!)^4 terms.  Working in the time domain instead, integrating always
over the latest remaining emission time maps the integral onto three
triangular tables of partial integrals, distinguished by how many of
the two swapped emission times are still pending.  Row i of each table
steps down arm A's ladder and column j arm B's, so the arms may differ
in rates and level frequencies; identical arms are the twin case.
Entry (i, j) of each table depends only on entries (i-1, j) and
(i, j-1), so one pass over the antidiagonals i + j = k fills all three
tables together while keeping only the previous antidiagonal of each:
O(m^2) time and O(m) memory, which reaches a thousand photons per arm
in a fraction of a second.

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

import os
from dataclasses import dataclass

from .ladder import DecayLadder, TwinConfiguration, build_anharmonic, build_dicke, build_harmonic
from .metrology import twin_qfi
from .oracle import ExchangeIntegral

# numpy is imported by the two functions that build arrays: the command
# line imports this module for every subcommand, and parity never needs it.

# Largest excess over I = 1 accepted as rounding (seen: 1.6e-15 at m = 200).
_OVERSHOOT_TOL = 1e-12


class InvalidLadderError(ValueError):
    """Ladder cannot be integrated (nonpositive exponent accumulator)."""


@dataclass
class RecurrenceState:
    """Outcome of the one-pass recurrence: its last table entry.

    The pass walks the three tables antidiagonal by antidiagonal and
    keeps only the previous antidiagonal of each, so it costs O(m^2)
    time and O(m) memory; ``corner`` is the rescaled two-pending entry
    (m-1, m-1), which is m^2 times the overlap.
    """

    photons_per_arm: int
    corner: float

    @property
    def value(self) -> float:
        """The overlap, with a rounding overshoot of one clipped back to one.

        Harmonic ladders, where I = 1 exactly, come out a few ulps high.
        """
        value = self.corner / self.photons_per_arm**2
        if value > 1.0 + _OVERSHOOT_TOL:
            raise InvalidLadderError(f"overlap {value!r} exceeds one beyond rounding")
        return min(value, 1.0)


def _ladder_vectors(rates, freqs) -> dict[str, np.ndarray]:
    """The length-m coefficient vectors that every table entry is built from.

    Entry (i, j) has the exponent accumulators c0 = gr0[i] + gr0[j],
    c2 = gr2[i] + gr2[j] and c1 = (c0 + c2)/2 + 1j (dw[i] - dw[j]), the
    cross numerator sq[i] sq[j], and steps down in i with numerators
    n0[i], n1[i], n2[i] for the zero-, one- and two-pending tables.
    """
    import numpy as np

    m = len(rates)
    g = np.concatenate(([0.0], np.asarray(rates, dtype=float)))
    w = np.concatenate(([0.0], np.asarray(freqs, dtype=float)))
    if np.any(g[1:] <= 0.0):
        raise InvalidLadderError("all ladder rates must be positive")
    idx = np.arange(m)
    # index 0 never steps down: its unit numerators meet only pads and the seed
    n0 = np.ones(m)
    n1 = np.ones(m)
    n0[1:] = g[m - idx[1:] + 1]
    n1[1:] = np.sqrt(g[m - idx[1:]] * g[m - idx[1:] + 1])
    return {
        "gr0": g[m - idx],  # accumulator rate with i swapped-pending
        "gr2": g[m - 1 - idx],
        "dw": w[m - idx] - w[m - 1 - idx],
        "sq": np.sqrt(g[m - idx]),
        "n0": n0,
        "n1": n1,
        "n2": g[m - idx],
    }


def _antidiagonals(a: DecayLadder, b: DecayLadder):
    """Fill the three tables in one pass, yielding ``(lo, f0, f1, f2)``.

    Row i steps down arm a's ladder and column j arm b's.  Antidiagonal
    k holds the entries (i, k - i) for i = lo..lo + len - 1.  Each
    table's previous antidiagonal sits in a buffer of length m + 1 with
    entry i at index i + 1, so the neighbours (i - 1, j) and (i, j - 1)
    are the plain slices [lo:hi + 1] and [lo + 1:hi + 2], and the
    missing neighbours on the table's edges read a zero pad.  The
    j-indexed coefficients are slices of reversed copies of arm b's
    vectors.
    """
    import numpy as np

    vec = _ladder_vectors(a.rates, a.frequencies)
    rev = _ladder_vectors(b.rates, b.frequencies)
    rev = {name: v[::-1].copy() for name, v in rev.items()}
    m = a.levels
    # Accumulators of the previous antidiagonal, with pads of 1: a pad
    # neighbour then adds numerator / 1 * 0 = 0.  The base entry
    # f0(0, 0) = 1 enters as the up neighbour of (0, 0) on antidiagonal
    # -1, whose numerator n0[0] and accumulator pad are both 1.
    c_prev = [np.ones(m + 1), np.ones(m + 1, dtype=complex), np.ones(m + 1)]
    c_next = [np.ones(m + 1), np.ones(m + 1, dtype=complex), np.ones(m + 1)]
    p0, p1, p2 = np.zeros(m + 1), np.zeros(m + 1, dtype=complex), np.zeros(m + 1)
    p0[0] = 1.0
    for k in range(2 * m - 1):
        lo, hi = max(0, k - m + 1), min(m - 1, k)
        # i-indexed coefficients and up neighbours share one slice
        i = up = slice(lo, hi + 1)
        j, left = slice(m - 1 - k + lo, m - k + hi), slice(lo + 1, hi + 2)
        (a0, a1, a2), (b0, b1, b2) = c_prev, c_next
        c0 = np.add(vec["gr0"][i], rev["gr0"][j], out=b0[left])
        c2 = np.add(vec["gr2"][i], rev["gr2"][j], out=b2[left])
        c1 = np.add((c0 + c2) / 2.0, 1j * (vec["dw"][i] - rev["dw"][j]), out=b1[left])
        s = vec["sq"][i] * rev["sq"][j]
        q0, q1, q2 = np.zeros(m + 1), np.zeros(m + 1, dtype=complex), np.zeros(m + 1)
        f0 = np.add(
            vec["n0"][i] / a0[up] * p0[up],
            rev["n0"][j] / a0[left] * p0[left],
            out=q0[left],
        )
        f1 = np.add(
            s / c0 * f0 + vec["n1"][i] / a1[up] * p1[up],
            rev["n1"][j] / a1[left] * p1[left],
            out=q1[left],
        )
        # the two swapped-time branches are complex conjugates, so their
        # coupled contribution is twice the real part
        f2 = np.add(
            2.0 * s * (f1 / c1).real + vec["n2"][i] / a2[up] * p2[up],
            rev["n2"][j] / a2[left] * p2[left],
            out=q2[left],
        )
        if not (np.isfinite(f0).all() and np.isfinite(f2).all()):
            raise InvalidLadderError("recurrence produced nonfinite entries")
        yield lo, f0, f1, f2
        c_prev, c_next = c_next, c_prev
        p0, p1, p2 = q0, q1, q2


def _recurrence(a: DecayLadder, b: DecayLadder) -> RecurrenceState:
    """Run the recurrence for arms a and b of equal photon number."""
    for _, _, _, f2 in _antidiagonals(a, b):
        pass
    return RecurrenceState(photons_per_arm=a.levels, corner=float(f2[0]))


def exchange_integral(config: TwinConfiguration) -> ExchangeIntegral:
    """Exchange integral of a zero-delay configuration via the table recurrence.

    The two arms may be any ladders with the same photon number; delayed
    arrival is exact-oracle territory (the analytic delay bound lives in
    the error-budget module).
    """
    if config.delay != 0.0:
        raise ValueError(
            "recurrence handles zero delay only; use the oracle for the "
            "exact delayed value or the budget bound"
        )
    state = _recurrence(config.ladder_a, config.ladder_b)
    return ExchangeIntegral(
        value=state.value,
        total_photons=config.total_photons,
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
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, [family] * len(n_values), n_values))
    return [_sweep_point(family, n) for n in n_values]
