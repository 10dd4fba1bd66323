import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.integrate import solve_ivp

from dickeqfi.dickesim import (
    LossModel,
    _expm,
    collection_loss_probability,
    collection_probability_product,
    collective_rates,
    dicke_collection_probability,
    dicke_populations,
    superradiance_timescale,
)

LOSSLESS = LossModel(1.0, 0.0)


def bdf_cascade(n, gamma_star, t_eval):
    """Independent oracle: the cascade rate equations integrated with BDF.

    Rung m of N decays into the waveguide at m(N-m+1) and out of the
    ladder at m * gamma_star (unit waveguide rate); the residence
    integrals ride along as d(res_m)/dt = P_m.  Returns the populations
    on ``t_eval`` and the residences at its last time.
    """
    m = np.arange(n + 1, dtype=float)
    down = m[1:] * (n - m[1:] + 1.0)
    out = np.concatenate(([0.0], down)) + m * gamma_star
    rates = sparse.diags([-out, down], offsets=[0, 1])
    zero = sparse.csc_matrix((n + 1, n + 1))
    aug = sparse.bmat([[rates, zero], [sparse.identity(n + 1), zero]], format="csc")
    y0 = np.zeros(2 * (n + 1))
    y0[n] = 1.0
    sol = solve_ivp(lambda t, y: aug @ y, (0.0, t_eval[-1]), y0, method="BDF",
                    jac=aug, t_eval=t_eval, rtol=1e-11, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[: n + 1], sol.y[n + 1:, -1]


def bdf_drained(n, gamma_star):
    """Ground population and residences after forty cascade durations,
    by which every rung has drained."""
    horizon = 40.0 * superradiance_timescale(n, 1.0).exact
    populations, residence = bdf_cascade(n, gamma_star, [0.0, horizon])
    assert np.sum(populations[1:, -1]) < 1e-12
    return populations[0, -1], residence


class TestLossModel:
    def test_purcell(self):
        assert LossModel(2.0, 0.5).purcell == 4.0
        assert math.isinf(LossModel(1.0, 0.0).purcell)

    def test_validation(self):
        with pytest.raises(ValueError):
            LossModel(0.0, 0.1)
        with pytest.raises(ValueError):
            LossModel(1.0, -0.1)


class TestAnalyticSeeds:
    def test_top_level_exponential_lossless(self):
        grid = np.linspace(0.0, 2.0, 41)
        trace = dicke_populations(2, LOSSLESS, t_grid=grid)
        np.testing.assert_allclose(
            trace.populations[2], np.exp(-2.0 * grid), atol=1e-9
        )
        # the documented spot check: at t = 1/(2 gamma) the top level holds 1/e
        idx = np.argmin(np.abs(grid - 0.5))
        assert trace.populations[2][idx] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_top_level_exponential_with_loss(self):
        loss = LossModel(1.0, 0.3)
        grid = np.linspace(0.0, 1.0, 21)
        trace = dicke_populations(5, loss, t_grid=grid)
        np.testing.assert_allclose(
            trace.populations[5], np.exp(-5.0 * 1.3 * grid), atol=1e-9
        )

    def test_two_emitter_closed_forms(self):
        # degenerate rates (both rungs decay at 2): P_1 = 2t exp(-2t)
        grid = np.linspace(0.0, 6.0, 61)
        trace = dicke_populations(2, LOSSLESS, t_grid=grid)
        np.testing.assert_allclose(
            trace.populations[1], 2.0 * grid * np.exp(-2.0 * grid), atol=1e-9
        )
        np.testing.assert_allclose(
            trace.populations[0],
            1.0 - np.exp(-2.0 * grid) * (1.0 + 2.0 * grid),
            atol=1e-9,
        )

    def test_nonuniform_grid(self):
        # every change of step size needs its own propagator
        grid = np.array([0.0, 0.1, 0.3, 0.35, 1.0, 3.0])
        trace = dicke_populations(2, LOSSLESS, t_grid=grid)
        np.testing.assert_allclose(trace.populations[2], np.exp(-2.0 * grid), atol=1e-12)
        np.testing.assert_allclose(
            trace.populations[1], 2.0 * grid * np.exp(-2.0 * grid), atol=1e-12
        )

    def test_initial_condition(self):
        trace = dicke_populations(6, LOSSLESS)
        assert trace.populations[6][0] == 1.0
        assert np.all(trace.populations[:6, 0] == 0.0)


class TestConservation:
    @pytest.mark.parametrize("n", [2, 5, 12, 20])
    def test_lossless_total_is_one(self, n):
        trace = dicke_populations(n, LOSSLESS)
        assert np.max(np.abs(trace.sum_deficit)) <= 1e-8

    def test_lossy_total_decreases(self):
        trace = dicke_populations(8, LossModel(1.0, 0.2))
        totals = trace.populations.sum(axis=0)
        assert np.all(np.diff(totals) <= 1e-10)

    def test_populations_in_unit_interval(self):
        trace = dicke_populations(10, LossModel(1.0, 0.1))
        assert np.all(trace.populations >= 0.0)
        assert np.all(trace.populations <= 1.0)


class TestResidence:
    @pytest.mark.parametrize("n", [2, 7, 20])
    def test_residence_is_inverse_rate(self, n):
        trace = dicke_populations(n, LOSSLESS)
        gammas = collective_rates(n, 1.0)
        np.testing.assert_allclose(
            trace.residence[1:] * gammas, np.ones(n), rtol=1e-12
        )

    def test_residence_mirror_symmetry(self):
        trace = dicke_populations(20, LOSSLESS)
        res = trace.residence[1:]
        np.testing.assert_allclose(res, res[::-1], rtol=1e-12)

    @pytest.mark.parametrize("n,purcell", [(1, 4.0), (12, 50.0), (40, 300.0)])
    def test_residence_matches_integrated_occupation(self, n, purcell):
        trace = dicke_populations(n, LossModel(1.0, 1.0 / purcell))
        _, residence = bdf_drained(n, 1.0 / purcell)
        np.testing.assert_allclose(trace.residence[1:], residence[1:], rtol=1e-10)

    def test_ground_level_residence_is_infinite(self):
        # the ground level absorbs the collected weight and never empties
        assert math.isinf(dicke_populations(3, LOSSLESS).residence[0])


class TestCollectionProbability:
    def test_lossless_is_unity(self):
        est = dicke_collection_probability(6, LOSSLESS)
        assert est.exact == 1.0
        assert est.log_estimate == 1.0

    def test_single_emitter_branching(self):
        loss = LossModel(1.0, 0.25)
        est = dicke_collection_probability(1, loss)
        assert est.exact == pytest.approx(0.8, rel=1e-14)

    @pytest.mark.parametrize(
        "n,purcell", [(1, 4.0), (5, 50.0), (20, 300.0), (60, 1000.0), (100, 1000.0)]
    )
    def test_integration_matches_branching_product(self, n, purcell):
        est = dicke_collection_probability(n, LossModel(1.0, 1.0 / purcell))
        integrated, _ = bdf_drained(n, 1.0 / purcell)
        assert 1.0 - est.exact == pytest.approx(1.0 - integrated, rel=1e-10)

    @pytest.mark.parametrize(
        "n,purcell", [(1, 4.0), (10, 1e2), (10, 1e12), (10, 1e15), (1000, 1.2e5)]
    )
    def test_loss_probability_keeps_its_digits(self, n, purcell):
        assert collection_loss_probability(n, LossModel(1.0, 1.0 / purcell)) == pytest.approx(
            first_loss_sum(n, purcell), rel=1e-12, abs=0.0
        )

    def test_lossless_chain_loses_nothing(self):
        q = collection_loss_probability(7, LOSSLESS)
        assert q == 0.0 and math.copysign(1.0, q) == 1.0

    def test_hundred_emitters_kilopurcell(self):
        est = dicke_collection_probability(100, LossModel(1.0, 1e-3))
        assert 1.0 - est.exact == pytest.approx(4.6e-3, rel=0.15)

    def test_monotone_in_loss_rate(self):
        values = [
            collection_probability_product(10, LossModel(1.0, g))
            for g in (0.0, 0.01, 0.05, 0.2)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_emitter_number(self):
        values = [
            collection_probability_product(n, LossModel(1.0, 1e-3))
            for n in (5, 20, 80, 320)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(n=st.integers(1, 40), purcell=st.floats(10.0, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_product_within_unit_interval(self, n, purcell):
        p = collection_probability_product(n, LossModel(1.0, 1.0 / purcell))
        assert 0.0 < p <= 1.0

    @pytest.mark.parametrize("n,purcell", [(20, math.inf), (100, math.inf), (100, 1000.0)])
    def test_trace_matches_integration(self, n, purcell):
        gamma_star = 1.0 / purcell
        trace = dicke_populations(n, LossModel(1.0, gamma_star))
        populations, _ = bdf_cascade(n, gamma_star, trace.times)
        np.testing.assert_allclose(trace.populations, populations, rtol=0.0, atol=1e-9)

    def test_trace_collection_matches_product(self):
        loss = LossModel(1.0, 0.02)
        trace = dicke_populations(12, loss)
        assert trace.collection_probability == pytest.approx(
            collection_probability_product(12, loss), rel=1e-6
        )

    def test_trace_ground_population_matches_product(self):
        # at N = 300, P = 1e5 the grid's last ground population is the
        # branching product to the propagator's rounding (scipy's expm: 3.5e-9)
        loss = LossModel(1.0, 1e-5)
        trace = dicke_populations(300, loss)
        assert trace.populations[0, -1] == pytest.approx(
            collection_probability_product(300, loss), rel=1e-11, abs=0.0
        )


def cascade_generator(n, gamma_star):
    """Dense rate matrix of the cascade, unit waveguide rate."""
    m = np.arange(1, n + 1, dtype=float)
    down = m * (n - m + 1.0)
    return np.diag(np.concatenate(([0.0], -down - m * gamma_star))) + np.diag(down, k=1)


class TestPropagator:
    @pytest.mark.parametrize("n", [1, 2, 10, 100, 300])
    @pytest.mark.parametrize("purcell", [math.inf, 1e3])
    @pytest.mark.parametrize("steps", [400, 1])
    def test_cascade_step_matches_scipy(self, n, purcell, steps):
        from scipy.linalg import expm

        t_max = 20.0 * superradiance_timescale(n, 1.0).exact
        a = cascade_generator(n, 1.0 / purcell) * (t_max / steps)
        assert np.max(np.abs(_expm(a) - expm(a))) <= 1e-10

    # 1-norms below theta_13, taken as is, and above it, halved and squared back
    @pytest.mark.parametrize("norm", [0.01, 2.0, 5.0, 40.0, 300.0])
    def test_scaling_and_squaring_matches_scipy(self, norm):
        from scipy.linalg import expm

        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6)) + np.triu(rng.standard_normal((6, 6)), 1) * 3.0
        a -= 8.0 * np.eye(6)  # every eigenvalue has a negative real part
        a *= norm / np.abs(a).sum(axis=0).max()
        exact = expm(a)
        assert np.max(np.abs(_expm(a) - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_zero_matrix_gives_identity(self):
        # a zero norm takes no halving (log2 of zero is never asked for)
        assert np.max(np.abs(_expm(np.zeros((3, 3))) - np.eye(3))) <= 1e-15


def first_loss_sum(n, purcell):
    """1 - p as the chance that the first lost photon leaves at rung k.

    Rung k of the cascade (k = N - m + 1) loses its photon with
    probability 1/(kP + 1); the terms are positive, so ``math.fsum``
    adds them without cancellation.
    """
    terms, kept = [], 1.0
    for k in range(1, n + 1):
        share = 1.0 / (k * purcell + 1.0)
        terms.append(share * kept)
        kept *= 1.0 - share
    return math.fsum(terms)


class TestTimescale:
    def test_single_emitter(self):
        assert superradiance_timescale(1, 1.0).exact == 1.0

    def test_three_emitters(self):
        assert superradiance_timescale(3, 1.0).exact == pytest.approx(11.0 / 12.0)

    def test_rate_scaling(self):
        assert superradiance_timescale(5, 2.0).exact == pytest.approx(
            superradiance_timescale(5, 1.0).exact / 2.0
        )

    @pytest.mark.parametrize("n,purcell", [(10, 500.0), (100, 2000.0)])
    def test_upper_bounds_collection_error(self, n, purcell):
        loss = LossModel(1.0, 1.0 / purcell)
        one_minus_p = 1.0 - collection_probability_product(n, loss)
        bound = n * loss.gamma_star * superradiance_timescale(n, 1.0).exact
        assert one_minus_p <= bound


class TestGuards:
    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            dicke_populations(0, LOSSLESS)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            dicke_populations(2, LOSSLESS, t_grid=[0.5, 1.0])
        with pytest.raises(ValueError):
            dicke_populations(2, LOSSLESS, t_grid=[0.0, 0.0, 1.0])

    def test_unconverged_horizon_is_flagged(self):
        trace = dicke_populations(
            1, LOSSLESS, t_grid=np.linspace(0.0, 0.2, 5), max_extensions=0
        )
        assert not trace.converged
        assert trace.residual > 1e-10

    def test_horizon_extension_converges(self):
        trace = dicke_populations(1, LOSSLESS, t_grid=np.linspace(0.0, 0.2, 5))
        assert trace.converged
        assert trace.collection_probability == pytest.approx(1.0, abs=1e-9)
