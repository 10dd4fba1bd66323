import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickeqfi.dickesim import (
    LossModel,
    _expm,
    collection_probability_product,
    collective_rates,
    dicke_collection_probability,
    dicke_populations,
    superradiance_timescale,
)
from dickeqfi.ladder import build_dicke

from cascade_oracle import bdf_cascade, bdf_drained

LOSSLESS = LossModel(1.0, 0.0)


class TestLossModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossModel(0.0, 0.1)
        with pytest.raises(ValueError):
            LossModel(1.0, -0.1)


class TestAnalyticSeeds:
    def test_top_level_exponential_lossless(self):
        trace = dicke_populations(2, LOSSLESS)
        grid = trace.times
        np.testing.assert_allclose(
            trace.populations[2], np.exp(-2.0 * grid), atol=1e-9
        )
        # the documented spot check: at t = 1/(2 gamma) the top level holds 1/e
        idx = np.argmin(np.abs(grid - 0.5))
        assert grid[idx] == 0.5
        assert trace.populations[2][idx] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_top_level_exponential_with_loss(self):
        trace = dicke_populations(5, LossModel(1.0, 0.3))
        np.testing.assert_allclose(
            trace.populations[5], np.exp(-5.0 * 1.3 * trace.times), atol=1e-9
        )

    def test_two_emitter_closed_forms(self):
        # degenerate rates (both rungs decay at 2): P_1 = 2t exp(-2t)
        trace = dicke_populations(2, LOSSLESS)
        grid = trace.times
        np.testing.assert_allclose(
            trace.populations[1], 2.0 * grid * np.exp(-2.0 * grid), atol=1e-9
        )
        np.testing.assert_allclose(
            trace.populations[0],
            1.0 - np.exp(-2.0 * grid) * (1.0 + 2.0 * grid),
            atol=1e-9,
        )

    def test_grid_is_twenty_cascade_durations_in_400_steps(self):
        for n in (1, 2, 7):
            trace = dicke_populations(n, LOSSLESS)
            t_max = 20.0 * superradiance_timescale(n, 1.0)
            assert np.array_equal(trace.times, np.linspace(0.0, t_max, 401))

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
        assert est.p == 1.0
        assert est.one_minus_p == 0.0

    def test_single_emitter_branching(self):
        loss = LossModel(1.0, 0.25)
        est = dicke_collection_probability(1, loss)
        assert est.p == pytest.approx(0.8, rel=1e-14)

    @pytest.mark.parametrize(
        "n,purcell", [(1, 4.0), (5, 50.0), (20, 300.0), (60, 1000.0), (100, 1000.0)]
    )
    def test_integration_matches_branching_product(self, n, purcell):
        est = dicke_collection_probability(n, LossModel(1.0, 1.0 / purcell))
        integrated, _ = bdf_drained(n, 1.0 / purcell)
        assert 1.0 - est.p == pytest.approx(1.0 - integrated, rel=1e-10)

    @pytest.mark.parametrize(
        "n,purcell", [(1, 4.0), (10, 1e2), (10, 1e12), (10, 1e15), (1000, 1.2e5)]
    )
    def test_loss_probability_keeps_its_digits(self, n, purcell):
        assert loss_probability(n, LossModel(1.0, 1.0 / purcell)) == pytest.approx(
            first_loss_sum(n, purcell), rel=1e-12, abs=0.0
        )

    def test_product_is_the_numpy_product_bit_for_bit(self):
        for n, purcell in CLOSED_FORM_GRID:
            loss = LossModel(1.0, 1.0 / purcell)
            gammas, lost = numpy_rungs(n, loss)
            expected = float(np.prod(gammas / (gammas + lost)))
            assert collection_probability_product(n, loss) == expected, (n, purcell)

    def test_loss_probability_is_the_numpy_log_sum(self):
        # numpy's vectorised log1p can round an ulp away from libm's, and
        # fsum sums exactly, so the two agree to rounding, not bit for bit
        for n, purcell in CLOSED_FORM_GRID:
            loss = LossModel(1.0, 1.0 / purcell)
            gammas, lost = numpy_rungs(n, loss)
            expected = 0.0 - math.expm1(float(np.sum(np.log1p(-lost / (gammas + lost)))))
            assert loss_probability(n, loss) == pytest.approx(
                expected, rel=1e-15, abs=0.0), (n, purcell)

    def test_both_forms_keep_their_bits(self):
        # p is the product of the rung shares and 1 - p their log-sum, each
        # formed directly: neither is derived from the other
        for n, purcell in LOSS_SWEEP_GRID:
            loss = LossModel(1.0, 1.0 / purcell)
            rungs = [(k * (n - k + 1) * 1.0, k * loss.gamma_star) for k in range(1, n + 1)]
            product = math.prod((g / (g + lost) for g, lost in rungs), start=1.0)
            shares = (lost / (g + lost) for g, lost in rungs)
            total = math.fsum(math.log1p(-q) if q < 1.0 else -math.inf for q in shares)
            est = dicke_collection_probability(n, loss)
            assert est.p.hex() == product.hex(), (n, purcell)
            assert est.one_minus_p.hex() == (0.0 - math.expm1(total)).hex(), (n, purcell)

    def test_lossless_chain_loses_nothing(self):
        q = loss_probability(7, LOSSLESS)
        assert q == 0.0 and math.copysign(1.0, q) == 1.0

    @pytest.mark.parametrize("gamma_star", [1e17, 1e300, 1e308])
    def test_a_rung_that_keeps_nothing_loses_everything(self, gamma_star):
        # lost shares that round to 1 (1e17, 1e300) or loss rates m * gamma_star
        # that overflow (1e308): log1p(-1) raises and inf / inf is nan
        loss = LossModel(1.0, gamma_star)
        assert loss_probability(10, loss) == 1.0
        assert 1.0 - collection_probability_product(10, loss) == 1.0

    def test_hundred_emitters_kilopurcell(self):
        est = dicke_collection_probability(100, LossModel(1.0, 1e-3))
        assert 1.0 - est.p == pytest.approx(4.6e-3, rel=0.15)

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
        assert trace.populations[0, -1] == pytest.approx(
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


# N = 1..10^4 and P = 1e-2..1e12, where the closed forms are pinned to
# numpy's array forms of the same branching product.
CLOSED_FORM_GRID = [(n, 10.0 ** (e / 4.0))
                    for n in (1, 2, 3, 7, 10, 33, 100, 317, 1000, 3162, 10_000)
                    for e in range(-8, 49, 2)]

# The 261 points of the grid with N up to 1000, where p and 1 - p are pinned
# bit for bit to their two forms.
LOSS_SWEEP_GRID = [(n, purcell) for n, purcell in CLOSED_FORM_GRID if n <= 1000]


def loss_probability(n, loss):
    return dicke_collection_probability(n, loss).one_minus_p


def numpy_rungs(n, loss):
    """Collective and residual rate of each rung, as numpy arrays."""
    m = np.arange(1, n + 1, dtype=float)
    return m * (n - m + 1.0) * loss.gamma_1d, m * loss.gamma_star


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

        t_max = 20.0 * superradiance_timescale(n, 1.0)
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
        assert superradiance_timescale(1, 1.0) == 1.0

    def test_three_emitters(self):
        assert superradiance_timescale(3, 1.0) == pytest.approx(11.0 / 12.0)

    def test_rate_scaling(self):
        assert superradiance_timescale(5, 2.0) == pytest.approx(
            superradiance_timescale(5, 1.0) / 2.0
        )

    @pytest.mark.parametrize("n,purcell", [(10, 500.0), (100, 2000.0)])
    def test_upper_bounds_collection_error(self, n, purcell):
        loss = LossModel(1.0, 1.0 / purcell)
        one_minus_p = 1.0 - collection_probability_product(n, loss)
        bound = n * loss.gamma_star * superradiance_timescale(n, 1.0)
        assert one_minus_p <= bound


class TestGuards:
    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            dicke_populations(0, LOSSLESS)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("call", [
        lambda n: collection_probability_product(n, LossModel(1.0, 0.1)),
        lambda n: loss_probability(n, LossModel(1.0, 1e300)),
        lambda n: collective_rates(n, 1.0),
        lambda n: dicke_collection_probability(n, LossModel(1.0, 0.1)),
        lambda n: dicke_collection_probability(n, LOSSLESS),
        lambda n: superradiance_timescale(n, 1.0),
        lambda n: dicke_populations(n, LOSSLESS),
    ], ids=["product", "loss_probability", "rates", "collection", "collection_lossless",
            "timescale", "populations"])
    def test_every_cascade_function_needs_an_emitter(self, call, n):
        with pytest.raises(ValueError, match=f"need at least one emitter, got {n}$"):
            call(n)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("call", [collective_rates, superradiance_timescale, build_dicke],
                             ids=["rates", "timescale", "build_dicke"])
    def test_dicke_rates_need_a_positive_gamma(self, call, gamma):
        # -1 gave negative rates and a negative duration, nan gave nan, and
        # 0 a ZeroDivisionError from the timescale's log estimate
        with pytest.raises(ValueError, match=f"^gamma_1d must be positive, got {gamma}$"):
            call(3, gamma)

    def test_unconverged_horizon_is_flagged(self, monkeypatch):
        # one emitter keeps exp(-20) = 2.1e-9 excited at the grid's end
        monkeypatch.setattr("dickeqfi.dickesim._MAX_EXTENSIONS", 0)
        trace = dicke_populations(1, LOSSLESS)
        assert not trace.converged
        assert trace.residual > 1e-10
        assert trace.horizon == trace.times[-1] == 20.0

    def test_default_grid_extends_only_a_single_emitter(self):
        # twenty cascade durations leave exp(-20 (1 + 1/P)) excited at N = 1,
        # above the tolerance once P > 6.6: the horizon doubles once there
        # and never at N >= 2, and every trace converges
        for n in (1, 2, 3, 5, 10, 30, 100):
            for purcell in (math.inf, 1e3, 10.0, 6.0, 1.0):
                trace = dicke_populations(n, LossModel(1.0, 1.0 / purcell))
                doublings = 1 if n == 1 and purcell >= 10.0 else 0
                assert trace.horizon == trace.times[-1] * 2**doublings, (n, purcell)
                assert trace.converged

    def test_horizon_extension_converges(self):
        trace = dicke_populations(1, LOSSLESS)
        assert trace.converged
        assert trace.horizon == 40.0
