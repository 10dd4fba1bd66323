import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dickeqfi.ladder import build_anharmonic, build_dicke, build_harmonic
from dickeqfi.oracle import (
    OracleTooLargeError,
    oracle_delay_check,
    oracle_integral,
    oracle_integral_exact,
)

# Frozen reference: the four-photon collective twin overlap, derived by
# summing all 24 time orderings by hand and reproduced independently by
# the table recurrence.
X4 = Fraction(11, 12)
# Six-photon value from the exact-rational oracle, pinned as regression.
X6 = Fraction(68183, 77175)


class TestNormalization:
    @pytest.mark.parametrize(
        "ladder",
        [
            build_dicke(2, 1.0),
            build_dicke(4, 0.7),
            build_harmonic(3, 2.0),
            build_anharmonic(3, 1.0, 25.0),
        ],
        ids=["dicke2", "dicke4", "harmonic3", "anharmonic3"],
    )
    def test_zero_exchange_is_norm(self, ladder):
        result = oracle_integral(ladder, ladder, l=0)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.exchanged_count == 0

    def test_cross_arm_norm(self):
        a, b = build_dicke(2, 1.0), build_anharmonic(3, 1.5, 4.0)
        assert oracle_integral(a, b, l=0).value == pytest.approx(1.0, abs=1e-9)


class TestReferenceValues:
    def test_single_photon_pair(self):
        arm = build_dicke(1, 1.0)
        assert oracle_integral(arm, arm, l=1).value == pytest.approx(1.0, abs=1e-12)

    def test_four_photon_collective_value(self):
        arm = build_dicke(2, 1.0)
        assert oracle_integral(arm, arm, l=1).value == pytest.approx(
            float(X4), abs=1e-12
        )

    def test_exact_rational_four_photons(self):
        assert oracle_integral_exact(build_dicke(2, 1.0)) == X4

    def test_exact_rational_six_photons(self):
        assert oracle_integral_exact(build_dicke(3, 1.0)) == X6

    def test_full_swap_of_twins_is_unity(self):
        for arm in (build_dicke(2, 1.0), build_anharmonic(2, 1.0, 5.0)):
            assert oracle_integral(arm, arm, l=2).value == pytest.approx(
                1.0, abs=1e-10
            )

    def test_harmonic_twins_factorize(self):
        for m in (1, 2, 3, 4):
            arm = build_harmonic(m, 1.0)
            assert oracle_integral(arm, arm, l=1).value == pytest.approx(
                1.0, abs=1e-9
            )


class TestStructuralInvariants:
    def test_enumeration_counts(self):
        # the grouped enumeration covers all (m+n)! labeled orderings:
        # distinct sequences times the per-group permutation weights
        from dickeqfi.oracle import _group_counts, _multiset_sequences

        for m, n, l in ((2, 2, 1), (3, 3, 1), (3, 2, 2), (4, 4, 0)):
            counts = _group_counts(m, n, l)
            sequences = sum(1 for _ in _multiset_sequences(counts))
            weight = 1
            for c in counts:
                weight *= math.factorial(c)
            assert sequences * weight == math.factorial(m + n)

    def test_symmetry_reduction_matches_full_enumeration(self):
        arm = build_dicke(2, 1.0)
        reduced = oracle_integral(arm, arm, l=1, reduce_symmetry=True).value
        full = oracle_integral(arm, arm, l=1, reduce_symmetry=False).value
        assert reduced == pytest.approx(full, abs=1e-13)

    def test_enumeration_order_is_irrelevant(self):
        arm = build_anharmonic(3, 1.0, 3.0)
        base = oracle_integral(arm, arm, l=1).value
        for seed in (1, 2, 3):
            shuffled = oracle_integral(arm, arm, l=1, shuffle_seed=seed).value
            assert shuffled == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("ladder", [build_dicke(3, 1.0), build_anharmonic(3, 1.0, 8.0)])
    def test_twin_results_are_real(self, ladder):
        for l in range(0, 4):
            result = oracle_integral(ladder, ladder, l=l)
            assert result.imag_residual <= 1e-10

    @pytest.mark.parametrize(
        "ladder",
        [build_dicke(3, 1.0), build_dicke(4, 1.0), build_anharmonic(3, 1.0, 5.0)],
        ids=["dicke3", "dicke4", "anharm3"],
    )
    def test_swap_count_mirror_symmetry(self, ladder):
        # for twin arms, swapping l pairs equals swapping the other m - l
        m = ladder.levels
        values = [
            oracle_integral(ladder, ladder, l=l, max_total_photons=8).value
            for l in range(m + 1)
        ]
        for l in range(m + 1):
            assert values[l] == pytest.approx(values[m - l], abs=1e-10)

    def test_overlap_chain_bounds(self):
        arm = build_dicke(3, 1.0)
        values = [oracle_integral(arm, arm, l=l).value for l in range(4)]
        assert values[0] == pytest.approx(1.0, abs=1e-9)
        assert values[0] >= abs(values[1])
        assert all(abs(v) <= 1.0 + 1e-9 for v in values)

    def test_unequal_arm_sizes(self):
        a, b = build_dicke(2, 1.0), build_dicke(1, 1.0)
        result = oracle_integral(a, b, l=1)
        assert result.total_photons == 3
        assert abs(result.value) <= 1.0 + 1e-9
        assert result.imag_residual <= 1e-10


class TestGuards:
    def test_size_guard_names_limit(self):
        big = build_dicke(5, 1.0)
        with pytest.raises(OracleTooLargeError, match="8"):
            oracle_integral(big, big, l=1)

    def test_size_guard_override(self):
        big = build_dicke(5, 1.0)
        value = oracle_integral(big, big, l=1, max_total_photons=10).value
        assert 0.0 < value < 1.0

    def test_exchange_count_out_of_range(self):
        arm = build_dicke(2, 1.0)
        with pytest.raises(ValueError):
            oracle_integral(arm, arm, l=3)
        with pytest.raises(ValueError):
            oracle_integral(arm, arm, l=-1)

    def test_exact_mode_needs_flat_spectrum(self):
        shifted = build_anharmonic(2, 1.0, 3.0)
        with pytest.raises(ValueError):
            oracle_integral_exact(shifted, shifted)

    def test_delay_with_multiple_swaps_rejected(self):
        arm = build_dicke(2, 1.0)
        with pytest.raises(ValueError):
            oracle_integral(arm, arm, l=2, delay=0.1)


class TestDelay:
    def test_zero_delay_matches_plain(self):
        arm = build_dicke(2, 1.0)
        check = oracle_delay_check(arm, 0.0)
        assert check.exact == check.bound == check.reference

    def test_single_photon_closed_form(self):
        # one photon per arm: the delayed overlap is exactly exp(-rate*tau)
        arm = build_dicke(1, 1.0)
        for tau in (0.05, 0.3, 1.0):
            check = oracle_delay_check(arm, tau)
            assert check.exact == pytest.approx(math.exp(-tau), rel=1e-12)
            assert check.bound == pytest.approx(math.exp(-2 * tau), rel=1e-12)

    def test_small_delay_continuity(self):
        arm = build_dicke(2, 1.0)
        plain = oracle_integral(arm, arm, l=1).value
        tiny = oracle_integral(arm, arm, l=1, delay=1e-9).value
        assert tiny == pytest.approx(plain, abs=1e-7)

    @pytest.mark.parametrize("tau", [1e-3, 1e-2, 1e-1, 0.5])
    def test_bound_below_exact_below_reference(self, tau):
        arm = build_dicke(2, 1.0)
        check = oracle_delay_check(arm, tau)
        assert check.bound <= check.exact + 1e-12
        assert check.exact <= check.reference + 1e-12

    def test_bound_first_order_shape(self):
        # bound/reference = exp(-2 gamma_top tau) = 1 - N gamma tau + O(tau^2)
        arm = build_dicke(2, 1.0)
        n_total = 4
        for tau in (1e-3, 1e-2):
            check = oracle_delay_check(arm, tau)
            ratio = check.bound / check.reference
            assert abs(ratio - (1.0 - n_total * tau)) <= (n_total * tau) ** 2

    def test_anharmonic_delay_runs(self):
        arm = build_anharmonic(2, 1.0, 5.0)
        check = oracle_delay_check(arm, 0.1)
        assert 0.0 < check.exact <= check.reference + 1e-12
        assert check.bound <= check.exact + 1e-12

    def test_zero_swap_delay_is_norm(self):
        arm = build_dicke(2, 1.0)
        assert oracle_integral(arm, arm, l=0, delay=0.5).value == pytest.approx(
            1.0, abs=1e-9
        )

    def test_overlap_decreases_with_delay(self):
        arm = build_dicke(2, 1.0)
        taus = (0.0, 0.05, 0.2, 0.5, 1.0)
        values = [
            oracle_integral(arm, arm, l=1, delay=t).value if t else
            oracle_integral(arm, arm, l=1).value
            for t in taus
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_three_photon_arms_with_delay(self):
        arm = build_dicke(3, 1.0)
        check = oracle_delay_check(arm, 0.1)
        assert check.bound <= check.exact <= check.reference + 1e-12
        assert check.exact > 0.0

    @pytest.mark.parametrize("tau", [0.05, 0.3, 1.0])
    def test_independent_quadrature_cross_check(self, tau):
        # two-emitter twin: the amplitude is 2 exp(-max(u1, u2)), so after
        # integrating the regular times in closed form the delayed overlap
        # is a smooth 2D integral, evaluated here with adaptive quadrature
        # that shares no code with the ordering-algebra implementation
        from scipy.integrate import dblquad

        def g(a, b):
            a, b = min(a, b), max(a, b)
            return (
                a * math.exp(-a - b)
                + math.exp(-b) * (math.exp(-a) - math.exp(-b))
                + 0.5 * math.exp(-2 * b)
            )

        value, _ = dblquad(
            lambda t1, s1: g(t1, s1 - tau) * g(s1, t1 + tau),
            tau, tau + 40.0,
            lambda s1: 0.0, lambda s1: 40.0,
            epsabs=1e-12, epsrel=1e-12,
        )
        arm = build_dicke(2, 1.0)
        exact = oracle_integral(arm, arm, l=1, delay=tau).value
        assert exact == pytest.approx(4.0 * value, abs=1e-10)


@given(
    m=st.integers(1, 2),
    rates_a=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
    rates_b=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
)
@settings(max_examples=25, deadline=None)
def test_cross_arm_values_stay_bounded(m, rates_a, rates_b):
    from dickeqfi.ladder import DecayLadder

    a = DecayLadder(levels=2, rates=tuple(rates_a), frequencies=(0.0, 0.0))
    b = DecayLadder(levels=2, rates=tuple(rates_b), frequencies=(0.0, 0.0))
    result = oracle_integral(a, b, l=m)
    assert abs(result.value) <= 1.0 + 1e-9
    assert result.imag_residual <= 1e-9
