"""Acceptance suite: one test per exit criterion.

Every test prints a single ``ACCEPTANCE n: PASS/FAIL`` line with the
measured numbers before asserting, so a plain ``pytest -s`` run yields
the complete checklist.

Criteria 5 and 6 compare the exact model with its derived asymptotic
laws, inside their range of validity:

* Criterion 5: in the strong-anharmonicity limit the rungs emit into
  disjoint frequency bands, so the twin overlap is the purity sum
  ``I_inf = (1/m^2) sum_k P_k`` over the m photons of one arm.  Cascade
  photons are entangled in emission time and ``P_k ~ k^(-1/2)``, so the
  overlap falls as ``N^(-3/2)`` (not ``N^(-1)``, the law for pure
  distinguishable photons): ``N^(3/2) I_N`` is flat within 10%, and the
  recurrence at u = 1000 matches ``I_inf`` (computed by quadrature, 1/3 at
  N = 4) within 2%.
* Criterion 6: the cascade is an absorbing chain, so
  ``1 - p = 1 - prod_k kP/(kP + 1)``, which is ``H_N/P`` to leading order
  in 1/P.  Every point is checked against ``H_N/P``; its large-N form
  ``ln(N)/P`` only where it holds (N >= 100).
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from dickeqfi.budget import PlatformParams, full_budget
from dickeqfi.dickesim import (
    LossModel,
    dicke_collection_probability,
    dicke_populations,
)
from dickeqfi.exchange import (
    LadderFamily,
    exchange_integral,
    qfi_vs_n_sweep,
)
from dickeqfi.ladder import TwinConfiguration, build_dicke, build_harmonic
from dickeqfi.metrology import parity_expectation, qfi_twin
from dickeqfi.oracle import oracle_delay_check, oracle_integral

from cascade_oracle import bdf_drained

FAMILIES = [
    LadderFamily("dicke"),
    LadderFamily("harmonic"),
    LadderFamily("anharmonic", u=1.0),
    LadderFamily("anharmonic", u=10.0),
    LadderFamily("anharmonic", u=1000.0),
]


def _verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for family in FAMILIES:
        for m in (1, 2, 3, 4):
            arm = family.build_arm(2 * m)
            rec = exchange_integral(TwinConfiguration(arm, arm)).value
            ora = oracle_integral(arm, arm, l=1).value
            worst = max(worst, abs(rec - ora))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    assert _verdict(
        1, ok, f"max |recurrence - oracle| = {worst:.3e} (tol 1e-9), {elapsed:.1f}s"
    )


def test_criterion_2_collective_plateau():
    start = time.perf_counter()
    values = {}
    for n in (100, 200, 500):
        arm = build_dicke(n // 2, 1.0)
        values[n] = exchange_integral(TwinConfiguration(arm, arm)).value
    elapsed = time.perf_counter() - start
    spread = max(values.values()) - min(values.values())
    in_band = all(0.80 <= v <= 0.84 for v in values.values())
    ok = in_band and spread < 0.01 and elapsed < 60.0
    assert _verdict(
        2,
        ok,
        "I_N = "
        + ", ".join(f"{n}:{v:.4f}" for n, v in values.items())
        + f"; spread {spread:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_heisenberg_fit():
    n_values = list(range(100, 501, 8))
    rows = qfi_vs_n_sweep(LadderFamily("dicke"), n_values)
    ns = np.array([row["N"] for row in rows], dtype=float)
    fq = np.array([row["F_Q"] for row in rows])
    # fit the two terms of the reference law a N^2 + b N; a free constant
    # would let the slow drift of the overlap leak into the linear term
    basis = np.column_stack([ns**2, ns])
    (quad, lin), *_ = np.linalg.lstsq(basis, fq, rcond=None)
    ok = abs(quad - 0.41) <= 0.02 and abs(lin - 1.0) <= 0.2
    assert _verdict(
        3, ok, f"quadratic coefficient {quad:.4f} (0.41 +/- 0.02), "
        f"linear {lin:.3f} (1 +/- 0.2)"
    )


def test_criterion_4_fock_baseline():
    worst_oracle = 0.0
    for n in (2, 4, 6, 8):
        arm = build_harmonic(n // 2, 1.0)
        value = oracle_integral(arm, arm, l=1).value
        worst_oracle = max(worst_oracle, abs(value - 1.0))
        qfi = qfi_twin(n, value)
        assert qfi == pytest.approx(n * (n + 2) / 2.0, rel=1e-9)
    worst_rec = 0.0
    for n in (10, 50, 200):
        arm = build_harmonic(n // 2, 1.0)
        value = exchange_integral(TwinConfiguration(arm, arm)).value
        worst_rec = max(worst_rec, abs(value - 1.0))
        # unit overlap shortcut gives the closed form at any N
        assert qfi_twin(n, 1.0) == n * (n + 2) / 2.0
    ok = worst_oracle <= 1e-9 and worst_rec <= 1e-9
    assert _verdict(
        4, ok, f"max |I - 1|: oracle {worst_oracle:.2e}, recurrence {worst_rec:.2e}"
    )


def _rung_purity(k: int, m: int) -> float:
    """Purity of the photon emitted on rung k of an m-rung Kerr ladder (u -> inf).

    Rung j decays at rate j (gamma_1 = 1).  The decay of the lower level
    records the emission time, a factor k/(k + (k-1)) (1 for k = 1),
    and the emission start time jitters between the twins by
    D_k = sum_{j>k} (X_j - X'_j) with X_j ~ Exp(j):
    P_k = k/(2k-1) * E[exp(-k |D_k|)].  The expectation is the Fourier
    integral (2/pi) int_0^inf k/(k^2+w^2) prod_{j>k} j^2/(j^2+w^2) dw.
    """
    upper = np.arange(k + 1, m + 1, dtype=float)

    def integrand(w: float) -> float:
        return k / (k * k + w * w) * math.exp(-np.sum(np.log1p((w / upper) ** 2)))

    value, _ = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-11, limit=200)
    return k / (2 * k - 1) * 2.0 / math.pi * value


def _kerr_limit_overlap(n_total: int) -> float:
    """Twin overlap of the Kerr ladder at u -> inf: (1/m^2) sum_k P_k."""
    m = n_total // 2
    return sum(_rung_purity(k, m) for k in range(1, m + 1)) / m**2


def test_criterion_5_anharmonic_falloff():
    family = LadderFamily("anharmonic", u=1000.0)
    n_values = list(range(50, 201, 2))
    rows = qfi_vs_n_sweep(family, n_values)
    ns = np.array([row["N"] for row in rows], dtype=float)
    overlaps = np.array([row["I_N"] for row in rows])
    scaled = ns**1.5 * overlaps
    dphi2 = np.array([row["dphi2"] for row in rows])
    spread = (scaled.max() - scaled.min()) / scaled.mean()
    slope = np.polyfit(np.log(ns), np.log(dphi2), 1)[0]
    power = np.polyfit(np.log(ns), np.log(overlaps), 1)[0]
    # independent u -> inf limit: exact 1/3 at four photons, and within 2%
    # of the recurrence over the window (the gap is finite-u rung overlap)
    limit_four = _kerr_limit_overlap(4)
    by_n = dict(zip(n_values, overlaps))
    limits = {n: _kerr_limit_overlap(n) for n in (50, 100, 200)}
    limit_gaps = {n: abs(by_n[n] - limit) / limit for n, limit in limits.items()}
    flat_ok = spread <= 0.10
    limit_ok = abs(limit_four - 1.0 / 3.0) <= 1e-12 and all(
        gap <= 0.02 for gap in limit_gaps.values()
    )
    slope_ok = abs(slope + 1.0) <= 0.1
    ok = flat_ok and limit_ok and slope_ok
    assert _verdict(
        5,
        ok,
        f"N^1.5*I_N spread {spread:.1%} (bar 10%), overlap falls as "
        f"N^{power:.3f}; I_inf(4) = {limit_four:.15f} (1/3); |I_N/I_inf - 1| "
        + ", ".join(f"{n}:{gap:.2%}" for n, gap in limit_gaps.items())
        + f" (bar 2%); phase-variance slope {slope:.3f} (-1 +/- 0.1)",
    )


def test_criterion_6_loss_scaling():
    start = time.perf_counter()
    failures = []
    slopes = []
    log_ratios = []
    for n in (10, 100, 1000):
        harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
        base = 100.0 * math.log(n)
        purcells = [base, 10.0 * base, 100.0 * base]
        exact = []
        for p1d in purcells:
            exact.append(dicke_collection_probability(n, LossModel(1.0, 1.0 / p1d)).one_minus_p)
        for p1d, value in zip(purcells, exact):
            deviation = abs(value - harmonic / p1d) / (harmonic / p1d)
            if deviation > 0.20:
                failures.append(f"N={n} P={p1d:.3g}: {deviation:.1%} from H_N/P")
            # ln(N)/P is the large-N form of H_N/P; H_10/ln(10) = 1.27
            log_reference = math.log(n) / p1d
            log_deviation = abs(value - log_reference) / log_reference
            if n >= 100 and log_deviation > 0.20:
                failures.append(f"N={n} P={p1d:.3g}: {log_deviation:.1%} from ln(N)/P")
        log_ratios.append(exact[0] * purcells[0] / math.log(n))
        slope = np.polyfit(np.log(purcells), np.log(exact), 1)[0]
        slopes.append(slope)
    elapsed = time.perf_counter() - start
    slopes_ok = all(abs(s + 1.0) <= 0.05 for s in slopes)
    ratios_ok = all(a > b > 1.0 for a, b in zip(log_ratios, log_ratios[1:]))
    ok = not failures and slopes_ok and ratios_ok and elapsed < 120.0
    assert _verdict(
        6,
        ok,
        f"slopes {['%.3f' % s for s in slopes]} (-1 +/- 0.05); "
        f"points beyond 20%: {failures or 'none'}; (1-p)/(ln(N)/P) at lowest P "
        f"{' -> '.join('%.3f' % r for r in log_ratios)} (falls toward 1); "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_parity_saturation():
    h = 1e-4

    def curvature(overlaps):
        # minus the central second difference of the fringe at zero phase
        return -(
            parity_expectation(overlaps, h)
            - 2.0 * parity_expectation(overlaps, 0.0)
            + parity_expectation(overlaps, -h)
        ) / h**2

    worst_single = 0.0
    for m in (1, 2, 3, 4, 5):
        worst_single = max(
            worst_single,
            abs(curvature([1.0] * (m + 1)) - 2.0 * m * (m + 1)) / (2.0 * m * (m + 1)),
        )
    # the collective m = 2 fringe, from the oracle's overlaps, saturates the
    # twin QFI when its measured curvature equals it
    arm = build_dicke(2, 1.0)
    integrals = [oracle_integral(arm, arm, l=l).value for l in range(3)]
    saturation = curvature(integrals) / qfi_twin(4, integrals[1])
    ok = worst_single <= 1e-6 and abs(saturation - 1.0) <= 1e-6
    assert _verdict(
        7,
        ok,
        f"single-mode curvature err {worst_single:.2e} (tol 1e-6); "
        f"four-photon curvature/QFI = {saturation:.12f}",
    )


def test_criterion_8_conservation_and_residence():
    worst_sum = 0.0
    worst_res = 0.0
    for n in (2, 5, 12, 20):
        trace = dicke_populations(n, LossModel(1.0, 0.0))
        worst_sum = max(worst_sum, float(np.max(np.abs(trace.sum_deficit))))
        # residences integrated by BDF, independent of the closed form
        _, residence = bdf_drained(n, 0.0)
        worst_res = max(
            worst_res, float(np.max(np.abs(trace.residence[1:] / residence[1:] - 1.0)))
        )
    ok = worst_sum <= 1e-8 and worst_res <= 1e-6
    assert _verdict(
        8, ok, f"max |sum P - 1| = {worst_sum:.2e} (tol 1e-8); "
        f"max residence error {worst_res:.2e} (tol 1e-6)"
    )


def _budget_entries(**platform):
    # the SiN waveguide of criterion 10 with overlap 0.82 and full collection
    values = dict(quality_factor=1e6, group_index=10.0, wavelength=300e-9,
                  gamma_1d=2 * math.pi * 6e6, gamma_star=0.0)
    values.update(platform)
    budget = full_budget(PlatformParams(**values), 0.82, 1.0)
    return {entry.channel: entry for entry in budget.entries}


def test_criterion_9_error_formula_identities():
    # unequal couplings: the recurrence on the two distinct arms equals
    # the exact oracle's overlap of the same arms
    worst_mixed = 0.0
    for m, ratio in ((2, 0.8), (3, 1.2), (4, 2.0)):
        a, b = build_dicke(m, 1.0), build_dicke(m, ratio)
        mixed = exchange_integral(TwinConfiguration(a, b)).value
        exact = oracle_integral(a, b, l=1).value
        worst_mixed = max(worst_mixed, abs(mixed - exact))

    arm = build_dicke(2, 1.0)
    delay_ok = True
    for tau in (1e-3, 1e-2, 1e-1):
        check = oracle_delay_check(arm, tau)
        factor = _budget_entries(n_photons=4, gamma_1d=1.0, delay=tau)["arrival_delay"].value
        bound = factor * check.reference
        delay_ok = delay_ok and bound == pytest.approx(check.bound, rel=1e-12)
        delay_ok = delay_ok and check.bound <= check.exact + 1e-12

    # the eta threshold is pinned by the Heisenberg flag on either side of it
    threshold = 4.0 / (0.82 * 100**2)
    loss = {eta: _budget_entries(n_photons=100, interferometer_loss=eta)["interferometer_loss"]
            for eta in (1e-5, threshold, math.nextafter(threshold, math.inf))}
    eta_ok = loss[1e-5].value == -(100**2 * 1e-5 * 0.82 / 4.0)
    eta_ok = eta_ok and loss[threshold].feasible
    eta_ok = eta_ok and not loss[math.nextafter(threshold, math.inf)].feasible
    eta_ok = eta_ok and abs(threshold - 4.9e-4) / 4.9e-4 <= 0.01

    ok = worst_mixed <= 1e-12 and delay_ok and eta_ok
    assert _verdict(
        9,
        ok,
        f"distinct-arm recurrence vs oracle {worst_mixed:.2e} (tol 1e-12); "
        f"delay bound below exact at three delays: {delay_ok}; "
        f"loss-correction formulas exact: {eta_ok}",
    )


def test_criterion_10_waveguide_feasibility_regression():
    entries = _budget_entries(n_photons=100)
    l_prop, n_max = entries["propagation_length"].value, entries["retardation"].value
    ok = l_prop == 5e4 and 100 <= n_max <= 400
    assert _verdict(
        10,
        ok,
        f"L_prop/lambda = {l_prop:.0f} (expect 50000); "
        f"retardation ceiling N <= {n_max:.0f} (expect within [100, 400])",
    )
