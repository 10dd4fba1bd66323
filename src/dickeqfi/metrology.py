"""Phase-estimation figures of merit built on exchange integrals.

Once the exchange overlap of the two input wavepackets is known, the
quantum Fisher information of the interferometer state is elementary
algebra, and so is the small-angle response of a parity readout.  All
functions here are stateless and cheap; the heavy lifting happened in
the exchange or oracle modules.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

from .oracle import ExchangeIntegral

_INPUT_KINDS = ("twin", "general", "mixed_number", "lossy_lower_bound")


@dataclass(frozen=True)
class QfiReport:
    """Quantum Fisher information and the derived sensitivity ratios.

    ``phase_variance`` is the per-shot Cramer-Rao bound 1/(nu * qfi);
    ``snl_ratio`` and ``hl_ratio`` compare against the shot-noise and
    Heisenberg references F = N and F = N^2.
    """

    qfi: float
    phase_variance: float
    n_total: int
    snl_ratio: float
    hl_ratio: float
    input_kind: str
    repetitions: int = 1

    def __post_init__(self):
        if self.input_kind not in _INPUT_KINDS:
            raise ValueError(f"unknown input kind {self.input_kind!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _report(qfi: float, n_total: int, kind: str, repetitions: int = 1) -> QfiReport:
    if qfi < 0.0:
        raise ValueError(f"quantum Fisher information must be nonnegative, got {qfi}")
    if repetitions < 1:
        raise ValueError("repetitions must be a positive integer")
    return QfiReport(
        qfi=qfi,
        phase_variance=math.inf if qfi == 0.0 else 1.0 / (repetitions * qfi),
        n_total=n_total,
        snl_ratio=qfi / n_total if n_total else 0.0,
        hl_ratio=qfi / n_total**2 if n_total else 0.0,
        input_kind=kind,
        repetitions=repetitions,
    )


def _require_single_exchange(integral: ExchangeIntegral):
    if integral.exchanged_count != 1:
        raise ValueError(
            "QFI formulas take the single-pair exchange integral, got "
            f"exchanged_count={integral.exchanged_count}"
        )


def qfi_general(
    m: int, n: int, i_ab: ExchangeIntegral, repetitions: int = 1
) -> QfiReport:
    """QFI for fixed photon numbers m and n in the two input ports.

    F = 2 m n I + m + n.  A vacuum port contributes nothing through the
    exchange term, so the single-arm value m is recovered for n = 0.
    """
    if m < 0 or n < 0:
        raise ValueError("photon numbers must be nonnegative")
    _require_single_exchange(i_ab)
    qfi = 2.0 * m * n * i_ab.value + m + n
    return _report(qfi, m + n, "general", repetitions)


def twin_qfi(n_total: int, i: float) -> float:
    """Twin-pair QFI F = N (I N + 2) / 2 for N photons and overlap I."""
    return n_total * (i * n_total + 2.0) / 2.0


def qfi_twin(n_total: int, i_n: ExchangeIntegral, repetitions: int = 1) -> QfiReport:
    """Twin-pair QFI report (``twin_qfi``) from the single-pair overlap."""
    if n_total < 2 or n_total % 2:
        raise ValueError(f"twin input needs an even total photon number, got {n_total}")
    _require_single_exchange(i_n)
    return _report(twin_qfi(n_total, i_n.value), n_total, "twin", repetitions)


def qfi_mixed_number(
    m: int,
    components,
    repetitions: int = 1,
) -> QfiReport:
    """QFI with a fixed m-photon arm against a photon-number superposition.

    ``components`` lists (weight, n, integral) with weights summing to
    one; ``integral`` is the single-pair exchange overlap against the
    n-photon component and may be None when n = 0.  Different photon
    numbers do not mix, so F = 2 m sum(w n I) + m + <n>.
    """
    if m < 0:
        raise ValueError("photon number must be nonnegative")
    weights = [float(w) for (w, _, _) in components]
    if any(w < 0 for w in weights):
        raise ValueError("component weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"component weights must sum to 1, got {sum(weights)}")
    cross = 0.0
    n_mean = 0.0
    for w, n, integral in components:
        n = int(n)
        if n < 0:
            raise ValueError("photon numbers must be nonnegative")
        n_mean += w * n
        if n == 0:
            continue
        if integral is None:
            raise ValueError(f"missing exchange integral for the n={n} component")
        _require_single_exchange(integral)
        cross += w * n * integral.value
    qfi = 2.0 * m * cross + m + n_mean
    return _report(qfi, m + round(n_mean), "mixed_number", repetitions)


def qfi_lossy_lower_bound(p: float, pure_report: QfiReport) -> QfiReport:
    """Lower bound after preparing each arm with success probability p.

    The QFI is nonnegative and additive over orthogonal photon-number
    sectors, so the pure-state value survives at least with weight p^2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"collection probability must lie in [0, 1], got {p}")
    qfi = p * p * pure_report.qfi
    return _report(qfi, pure_report.n_total, "lossy_lower_bound", pure_report.repetitions)


# --------------------------------------------------------------------------
# Parity readout
# --------------------------------------------------------------------------


def _check_integrals(m: int, integrals) -> tuple[float, ...]:
    vals = tuple(float(v) for v in integrals)
    if len(vals) != m + 1:
        raise ValueError(
            f"parity expectation needs the full overlap set I^(0..{m}); "
            f"got {len(vals)} values"
        )
    return vals


def parity_expectation(m: int, integrals, phi: float) -> float:
    """Expectation of photon-number parity in one output port.

    ``integrals`` holds the exchange overlaps with 0..m swapped pairs
    (all ones for a single-mode input).  The value is a binomial-weighted
    trigonometric polynomial and stays within [-1, 1].
    """
    vals = _check_integrals(m, integrals)
    s2 = math.sin(phi) ** 2
    c2 = math.cos(phi) ** 2
    total = 0.0
    for l, val in enumerate(vals):
        total += (-1.0) ** l * s2**l * c2 ** (m - l) * math.comb(m, l) ** 2 * val
    return total


def parity_phase_variance(m: int, i_1: ExchangeIntegral) -> float:
    """Small-angle phase variance of the parity readout.

    Equals 1 / (2m (m I + 1)), the inverse of the twin QFI, so parity
    saturates the Cramer-Rao bound at the operating point.
    """
    if m < 1:
        raise ValueError("need at least one photon per arm")
    _require_single_exchange(i_1)
    return 1.0 / (2.0 * m * (m * i_1.value + 1.0))


@dataclass(frozen=True)
class ParityCurve:
    """Sampled parity fringe with its curvature at the origin."""

    phi: tuple[float, ...]
    expectation: tuple[float, ...]
    curvature: float
    integrals: tuple[float, ...]

    def to_rows(self) -> list[dict]:
        return [
            {"phi": p, "expectation": e}
            for p, e in zip(self.phi, self.expectation)
        ]


def parity_curve(m: int, integrals, phi_grid) -> ParityCurve:
    """Sample the parity fringe and record its curvature at zero phase.

    The curvature involves only the zero- and one-pair overlaps, so it
    equals minus the twin QFI regardless of the higher exchange terms.
    """
    vals = _check_integrals(m, integrals)
    phis = tuple(float(p) for p in phi_grid)
    expectation = tuple(parity_expectation(m, vals, p) for p in phis)
    curvature = -2.0 * m * (m * vals[1] + vals[0]) if m >= 1 else 0.0
    return ParityCurve(
        phi=phis, expectation=expectation, curvature=curvature, integrals=vals
    )
