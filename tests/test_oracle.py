import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dickeqfi.ladder import DecayLadder, build_anharmonic, build_dicke, build_harmonic
from dickeqfi.oracle import (
    _DELAYED_ROOT,
    _GROUP_CORRS,
    _NESTED,
    _SLOT_EVENTS,
    _XH,
    _XL,
    _WH,
    _WL,
    OracleTooLargeError,
    _compensated_sum,
    _fold_delayed,
    _group_counts,
    _hypoexp_density,
    _int_power_exp,
    _polyexp_cross_integral,
    _polyexp_eval,
    _polyexp_product,
    _transition_steps,
    _walk,
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


# -- Test-side reference: enumerate every interleaving, then walk each ------
# one from the top.  No prefix is shared and nothing is memoized, and the
# terms can be summed over all (m+n)! labeled orderings or in a shuffled
# order.  With the grouped lexicographic order it performs the library's
# float operations in the library's order, so the two agree bit for bit.


def _multiset_sequences(counts):
    """All distinct orderings of group labels with the given multiplicities."""
    total = sum(counts)
    seq = []

    def rec(remaining, left):
        if left == 0:
            yield tuple(seq)
            return
        for g, c in enumerate(remaining):
            if c:
                remaining2 = list(remaining)
                remaining2[g] -= 1
                seq.append(g)
                yield from rec(remaining2, left - 1)
                seq.pop()

    yield from rec(list(counts), total)


def _walk_sequence(seq, memberships, steps):
    """Rates fired and running accumulator of each slot of one ordering."""
    fired = [0, 0, 0, 0]
    acc = 0
    for g in seq:
        fired_rates = ()
        for corr in memberships[g]:
            j = fired[corr]
            fired[corr] = j + 1
            gam, inc = steps[corr][j]
            acc += inc
            fired_rates += (gam,)
        yield fired_rates, acc


def _float_steps(a, b):
    return _transition_steps((a.rates, b.rates), (a.frequencies, b.frequencies))


def _shuffled(items, shuffle_seed):
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(items)
    return items


def reference_float(a, b, l, *, full=False, shuffle_seed=None):
    m, n = a.levels, b.levels
    steps = _float_steps(a, b)
    counts = _group_counts(m, n, l)
    if full:
        labels = [g for g, c in enumerate(counts) for _ in range(c)]
        items = [(seq, 1.0) for seq in itertools.permutations(labels)]
    else:
        weight = math.prod(math.factorial(c) for c in counts)
        items = [(seq, weight) for seq in _multiset_sequences(counts)]

    def value(seq):
        val = 1.0 + 0.0j
        for fired_rates, acc in _walk_sequence(seq, _GROUP_CORRS, steps):
            for gam in fired_rates:
                val *= math.sqrt(gam)
            val /= acc
        return val

    total = _compensated_sum(
        weight * value(seq) for seq, weight in _shuffled(items, shuffle_seed)
    )
    return total / (math.factorial(m) * math.factorial(n))


def reference_exact(arm, l):
    rates = (tuple(Fraction(r) for r in arm.rates),) * 2
    steps = _transition_steps(rates, None)
    counts = _group_counts(arm.levels, arm.levels, l)
    total = Fraction(0)
    for seq in _multiset_sequences(counts):
        denom = Fraction(1)
        for _, acc in _walk_sequence(seq, _GROUP_CORRS, steps):
            denom *= acc
        total += Fraction(1) / denom
    weight = math.prod(math.factorial(c) for c in counts)
    return math.prod(rates[0] + rates[1]) * weight * total / math.factorial(arm.levels) ** 2


def _delayed_sequence_value(seq, steps, tau):
    partials = [acc for _, acc in _walk_sequence(seq, _SLOT_EVENTS, steps)]
    p_xh, p_xl = seq.index(_XH) + 1, seq.index(_XL) + 1
    p_wh, p_wl = seq.index(_WH) + 1, seq.index(_WL) + 1
    win_x = set(range(p_xh, p_xl))
    win_w = set(range(p_wh, p_wl))
    if win_x and win_w and (win_x <= win_w or win_w <= win_x):
        return 0.0 + 0.0j

    value = 1.0 + 0.0j
    for k in range(1, len(seq) + 1):
        if k not in win_x and k not in win_w:
            value /= partials[k - 1]

    def density(ks):
        return _hypoexp_density([partials[k - 1] for k in sorted(ks)], tau)

    overlap = win_x & win_w
    if not overlap:
        for win in (win_x, win_w):
            value *= _polyexp_eval(density(win), tau)
        return value
    first, second = (win_x, win_w) if min(win_x) < min(win_w) else (win_w, win_x)
    value *= _polyexp_cross_integral(
        density(overlap),
        _polyexp_product(density(first - overlap), density(second - overlap)),
        tau,
        lambda p, beta: _int_power_exp(p, beta, tau),
    )
    return value


def reference_delayed(a, b, tau, *, shuffle_seed=None):
    m, n = a.levels, b.levels
    steps = _float_steps(a, b)
    weight = math.factorial(m - 1) * math.factorial(n - 1)
    items = [
        seq for seq in _multiset_sequences((1, 1, 1, 1, m - 1, n - 1))
        if seq.index(_XH) < seq.index(_XL) and seq.index(_WH) < seq.index(_WL)
    ]
    total = _compensated_sum(
        weight * _delayed_sequence_value(seq, steps, tau)
        for seq in _shuffled(items, shuffle_seed)
    )
    numerator = math.prod(a.rates + b.rates)
    return numerator * total / (math.factorial(m) * math.factorial(n))


def _same_bits(result, reference):
    return result.value == reference.real and result.imag_residual == abs(reference.imag)


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
        # the walk visits every distinct grouped sequence once, so its
        # leaves times the per-group permutation weights cover all (m+n)!
        # labeled orderings
        for m, n, l in ((2, 2, 1), (3, 3, 1), (3, 2, 2), (4, 4, 0)):
            counts = _group_counts(m, n, l)
            arm_a, arm_b = build_dicke(m, 1.0), build_dicke(n, 1.0)
            leaves = _walk(counts, _GROUP_CORRS, _float_steps(arm_a, arm_b),
                           lambda seq, g, rates, acc: seq + (g,), (), lambda seq: seq)
            assert leaves == list(_multiset_sequences(counts))
            weight = math.prod(math.factorial(c) for c in counts)
            assert len(leaves) * weight == math.factorial(m + n)

    def test_symmetry_reduction_matches_full_enumeration(self):
        arm = build_dicke(2, 1.0)
        reduced = oracle_integral(arm, arm, l=1).value
        full = reference_float(arm, arm, 1, full=True).real
        assert reduced == pytest.approx(full, abs=1e-13)

    def test_enumeration_order_is_irrelevant(self):
        arm = build_anharmonic(3, 1.0, 3.0)
        base = oracle_integral(arm, arm, l=1).value
        delayed = oracle_integral(arm, arm, l=1, delay=0.3).value
        for seed in (1, 2, 3):
            shuffled = reference_float(arm, arm, 1, shuffle_seed=seed).real
            assert shuffled == pytest.approx(base, abs=1e-12)
            shuffled = reference_delayed(arm, arm, 0.3, shuffle_seed=seed).real
            assert shuffled == pytest.approx(delayed, abs=1e-12)

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


TWIN_ARMS = {
    **{f"dicke{m}": build_dicke(m, 1.0) for m in (1, 2, 3)},
    **{f"kerr{m}-u{u}": build_anharmonic(m, 1.0, u) for m in (1, 2, 3) for u in (3, 13)},
}
DISTINCT_PAIRS = {
    "dicke1-dicke3": (build_dicke(1, 1.0), build_dicke(3, 1.0)),
    "dicke2-kerr3": (build_dicke(2, 1.0), build_anharmonic(3, 1.0, 3.0)),
}
FLOAT_CASES = {
    **{name: (arm, arm) for name, arm in TWIN_ARMS.items()},
    **DISTINCT_PAIRS,
}
DELAYED_CASES = {
    **{f"dicke{m}": (build_dicke(m, 1.0),) * 2 for m in (1, 2, 3)},
    "kerr2": (build_anharmonic(2, 1.0, 3.0),) * 2,
    **DISTINCT_PAIRS,
}


class TestWalkerEquivalence:
    """The prefix-sharing walk equals the enumerate-and-walk reference bit
    for bit: same leaves, same order, same float operations per leaf."""

    @pytest.mark.parametrize("a, b", FLOAT_CASES.values(), ids=FLOAT_CASES.keys())
    def test_float_path(self, a, b):
        for l in range(min(a.levels, b.levels) + 1):
            assert _same_bits(oracle_integral(a, b, l=l), reference_float(a, b, l))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rational_path(self, m):
        arm = build_dicke(m, 1.0)
        for l in range(m + 1):
            assert oracle_integral_exact(arm, arm, l=l) == reference_exact(arm, l)

    @pytest.mark.parametrize("a, b", DELAYED_CASES.values(), ids=DELAYED_CASES.keys())
    def test_delayed_path(self, a, b):
        for tau in (0.05, 0.4):
            result = oracle_integral(a, b, l=1, delay=tau)
            assert _same_bits(result, reference_delayed(a, b, tau))

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (1, 3), (3, 2), (2, 4), (4, 4)])
    def test_delayed_walk_visits_admissible_orderings_only(self, m, n):
        # orderings of m+n+2 slots with the two rigid pairs' high events
        # first: a quarter of the (m+n+2)! / ((m-1)! (n-1)!) sequences
        a, b = build_dicke(m, 1.0), build_dicke(n, 1.0)
        leaves = _walk((1, 1, 1, 1, m - 1, n - 1), _SLOT_EVENTS, _float_steps(a, b),
                       _fold_delayed, _DELAYED_ROOT, lambda state: state, dead=_NESTED)
        expected = math.factorial(m + n + 2) // (
            2 * 2 * math.factorial(m - 1) * math.factorial(n - 1)
        )
        assert len(leaves) == expected

    def test_nested_windows_are_not_walked(self, monkeypatch):
        # Once the windows nest, every completion is zero: the walk records
        # those zeros by count instead of folding through the subtree, which
        # at m = 4 skips 20,498 of the 78,828 folds.  The zeros keep their
        # places in the sum, so the value keeps its bits.
        folds = []

        def counting(state, *args):
            folds.append(state)
            return _fold_delayed(state, *args)

        monkeypatch.setattr("dickeqfi.oracle._fold_delayed", counting)
        arm = build_dicke(4, 1.0)
        result = oracle_integral(arm, arm, l=1, delay=0.15, max_total_photons=8)
        assert len(folds) == 78_828 - 20_498
        assert _NESTED not in folds
        assert _same_bits(result, reference_delayed(arm, arm, 0.15))

    def test_no_memo_survives_a_call(self):
        arm = build_anharmonic(2, 1.0, 13.0)
        for tau in (0.1, 0.7, 0.1):
            result = oracle_integral(arm, arm, l=1, delay=tau)
            assert _same_bits(result, reference_delayed(arm, arm, tau))


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

    def test_near_degenerate_rates_are_continuous(self):
        # Splitting the Dicke ladder's degenerate rates by a relative eps
        # moves the delayed overlap smoothly (slope about -0.19); a closed
        # form that divides by the tiny rate differences used to return
        # 3358 at eps = 1e-10.
        base = build_dicke(3, 1.0)
        tau = 0.2
        plain = oracle_integral(base, base, l=1, delay=tau).value
        for eps in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
            arm = DecayLadder(
                levels=3,
                rates=tuple(r * (1 + eps * (i + 1)) for i, r in enumerate(base.rates)),
                frequencies=(0.0,) * 3,
            )
            check = oracle_delay_check(arm, tau)
            assert abs(check.exact - plain) <= 0.5 * eps + 1e-12
            assert check.bound <= check.exact <= check.reference

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
    a = DecayLadder(levels=2, rates=tuple(rates_a), frequencies=(0.0, 0.0))
    b = DecayLadder(levels=2, rates=tuple(rates_b), frequencies=(0.0, 0.0))
    result = oracle_integral(a, b, l=m)
    assert abs(result.value) <= 1.0 + 1e-9
    assert result.imag_residual <= 1e-9
