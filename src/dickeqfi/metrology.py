"""Phase-estimation figures of merit built on exchange integrals.

Once the exchange overlap of the two input wavepackets is known, the
quantum Fisher information of the interferometer state is elementary
algebra: ``qfi_general``, ``qfi_twin`` and ``qfi_mixed_number`` return it
as a float, and the per-shot Cramer-Rao variance is its inverse.  Each
takes the one-pair overlap as an ``ExchangeIntegral`` or as a number.  The
parity readout's fringe follows; its curvature at zero phase is minus the
twin QFI, so parity saturates the Cramer-Rao bound there.  All functions
here are stateless and cheap; the heavy lifting happened in the exchange
or oracle modules.
"""
from __future__ import annotations

import math

from .ladder import Record
from .oracle import ExchangeIntegral

# Largest excess over I = 1 accepted as rounding (seen: 1.6e-15 at m = 200).
_OVERSHOOT_TOL = 1e-12


def _one_pair_overlap(i_ab: ExchangeIntegral | float, total: int) -> float:
    """The single-pair overlap I of a record (whose ``exchanged_count`` must
    be 1 and whose ``total_photons`` must be ``total``) or of a number; I
    must be finite and within [0, 1] up to rounding, which keeps every QFI
    here nonnegative."""
    if isinstance(i_ab, ExchangeIntegral):
        if i_ab.exchanged_count != 1:
            raise ValueError(
                "QFI formulas take the single-pair exchange integral, got "
                f"exchanged_count={i_ab.exchanged_count}"
            )
        if i_ab.total_photons != total:
            raise ValueError(
                f"exchange integral is for {i_ab.total_photons} photons, "
                f"the QFI for {total}"
            )
        value = i_ab.value
    else:
        value = float(i_ab)
    if not math.isfinite(value):
        raise ValueError(f"exchange integral must be finite, got {value}")
    if not 0.0 <= value <= 1.0 + _OVERSHOOT_TOL:
        raise ValueError(f"exchange integral must lie in [0, 1], got {value}")
    return value


def _finite(qfi: float) -> float:
    if not qfi < math.inf:
        raise ValueError(f"quantum Fisher information must be finite, got {qfi}")
    return qfi


def _photon_number(n) -> int:
    """``n`` as an int, if it is a nonnegative integer: integral floats and
    numpy integers pass, a fractional, infinite or nan ``n`` does not."""
    if not (n % 1 == 0 and n >= 0):
        raise ValueError(f"photon numbers must be nonnegative integers, got {n}")
    return int(n)


def qfi_general(m: int, n: int, i_ab: ExchangeIntegral | float) -> float:
    """QFI for fixed photon numbers m and n in the two input ports.

    F = 2 m n I + m + n.  A vacuum port contributes nothing through the
    exchange term, so the single-arm value m is recovered for n = 0.
    """
    m, n = _photon_number(m), _photon_number(n)
    return _finite(2.0 * m * n * _one_pair_overlap(i_ab, m + n) + m + n)


def qfi_twin(n_total: int, i_n: ExchangeIntegral | float) -> float:
    """Twin-pair QFI F = N (I N + 2) / 2 for N photons and overlap I."""
    if n_total < 2 or n_total % 2:
        raise ValueError(f"twin input needs an even total photon number, got {n_total}")
    i = _one_pair_overlap(i_n, n_total)
    return _finite(n_total * (i * n_total + 2.0) / 2.0)


def qfi_mixed_number(m: int, components) -> float:
    """QFI with a fixed m-photon arm against a photon-number superposition.

    ``components`` lists (weight, n, integral) with weights summing to
    one; ``integral`` is the single-pair exchange overlap against the
    n-photon component, a record or a number, and may be None when n = 0.  Different photon
    numbers do not mix, so F = 2 m sum(w n I) + m + <n>.
    """
    m = _photon_number(m)
    weights = [float(w) for (w, _, _) in components]
    if any(w < 0 for w in weights):
        raise ValueError("component weights must be nonnegative")
    if not abs(sum(weights) - 1.0) <= 1e-12:
        raise ValueError(f"component weights must sum to 1, got {sum(weights)}")
    cross = 0.0
    n_mean = 0.0
    for w, n, integral in components:
        n = _photon_number(n)
        n_mean += w * n
        if n == 0:
            continue
        if integral is None:
            raise ValueError(f"missing exchange integral for the n={n} component")
        cross += w * n * _one_pair_overlap(integral, m + n)
    return _finite(2.0 * m * cross + m + n_mean)


# --------------------------------------------------------------------------
# Parity readout
# --------------------------------------------------------------------------


def _check_integrals(integrals) -> tuple[float, ...]:
    """The overlaps I^(0..m) as floats: at least one, each finite."""
    vals = tuple(float(v) for v in integrals)
    if not vals:
        raise ValueError("parity expectation needs the overlaps I^(0..m), got none")
    for l, val in enumerate(vals):
        if not math.isfinite(val):
            raise ValueError(f"overlap I^({l}) must be finite, got {val}")
    return vals


def parity_expectation(integrals, phi: float) -> float:
    """Expectation of photon-number parity in one output port.

    ``integrals`` holds the exchange overlaps with 0..m swapped pairs, so
    m photons per arm is one less than their number.  The
    value is a binomial-weighted trigonometric polynomial within [-1, 1],
    whose alternating terms reach 2^m / m near phi = pi/4: an
    ArithmeticError reports a sum that cancels past its rounding bound,
    unless the overlaps are all one (a single-mode input).  That fringe is
    the Legendre polynomial P_m(cos 2 phi), which Bonnet's recurrence then
    gives without cancelling.
    """
    vals = _check_integrals(integrals)
    m = len(vals) - 1
    if not math.isfinite(phi):
        raise ValueError(f"phase phi must be finite, got {phi}")
    s2 = math.sin(phi) ** 2
    c2 = math.cos(phi) ** 2
    total = size = 0.0
    for l, val in enumerate(vals):
        term = (-1.0) ** l * s2**l * c2 ** (m - l) * math.comb(m, l) ** 2 * val
        total += term
        size += abs(term)
    # Rounding bound, u = 2^-53, with sin, cos and ** within one ulp (2u):
    # s2 and c2 are off by 2 * 2u + 2u = 6u, their powers by 6 l u + 2u and
    # 6 (m - l) u + 2u, and the three products and the float of comb^2 add
    # 4u, so each term is off by (6m + 8) u of itself at most.  Each of the
    # m additions adds u of a partial sum, at most u size: the sum is off by
    # (7m + 8) u size to first order, and higher orders add (7m + 8) u of that.
    bound = (7 * m + 8) * 2.0**-53 * size
    if bound > 1e-9:
        if all(val == 1.0 for val in vals):  # Bonnet's recurrence for P_m(cos 2 phi)
            x, low, high = c2 - s2, 0.0, 1.0
            for n in range(m):
                low, high = high, ((2 * n + 1) * x * high - n * low) / (n + 1)
            return high
        raise ArithmeticError(f"parity expectation at m={m}, phi={phi!r} cancels too far: "
                              f"rounding bound {bound:.3g} exceeds 1e-9")
    return total


class ParityCurve(Record):
    """Sampled parity fringe with its curvature at the origin."""

    __slots__ = ("phi", "expectation", "curvature")

    def to_rows(self) -> list[dict]:
        return [
            {"phi": p, "expectation": e}
            for p, e in zip(self.phi, self.expectation)
        ]


def parity_curve(integrals, phi_grid) -> ParityCurve:
    """Sample the parity fringe and record its curvature at zero phase.

    ``integrals`` are the overlaps I^(0..m), as for ``parity_expectation``.
    The curvature involves only the zero- and one-pair overlaps, so it
    equals minus the twin QFI regardless of the higher exchange terms.
    """
    vals = _check_integrals(integrals)
    m = len(vals) - 1
    phis = tuple(float(p) for p in phi_grid)
    expectation = tuple(parity_expectation(vals, p) for p in phis)
    curvature = -2.0 * m * (m * vals[1] + vals[0]) if m >= 1 else 0.0
    return ParityCurve(phi=phis, expectation=expectation, curvature=curvature)
