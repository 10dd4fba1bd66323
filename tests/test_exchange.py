import math
import os
import tracemalloc
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dickeqfi.exchange as exchange_module
from dickeqfi.exchange import (
    InvalidLadderError,
    LadderFamily,
    exchange_integral,
    qfi_vs_n_sweep,
    _BATCH_CELLS,
    _PLAIN_CELLS,
    _adjoint_vectors,
    _antidiagonals,
    _array_diagonals,
    _complex_cell,
    _diagonals,
    _dicke_groups,
    _ladder_vectors,
    _overlap,
    _plain_diagonal,
    _rate_shift,
    _real_cell,
    _real_twin,
    _reverse_pass,
    _smith,
    _worker_count,
)
from dickeqfi.ladder import (
    DecayLadder,
    TwinConfiguration,
    build_anharmonic,
    build_dicke,
    build_harmonic,
)
from dickeqfi.budget import PlatformParams, _mixed_coupling
from dickeqfi.metrology import qfi_twin
from dickeqfi.oracle import oracle_integral, oracle_integral_exact


def twin(ladder):
    return TwinConfiguration(ladder, ladder)


def forward_corners(pairs):
    """The corner f2(m_p - 1, m_p - 1) of each pair's pass: the last entry
    of its diagonal."""
    return [diagonal[-1] for diagonal in _diagonals(pairs)]


def on_arrays(func, *args):
    """``func(*args)`` with every pass it starts on the array backend,
    whatever the pass's size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exchange_module, "_diagonals", _array_diagonals)
        return func(*args)


def _recurrence(a, b):
    """The one-pair pass of arms a and b: its corner, and the overlap that
    ``_overlap`` reads from it, as ``exchange_integral`` does."""
    corner = forward_corners([(a, b)])[0]
    return SimpleNamespace(corner=corner, value=_overlap(a.levels, corner))


def spread(arm):
    """``arm`` with its lowest rung 1e310 times slower than before.  At the
    corner c1 is that rung's rate, so 1 / c1 overflows to inf whatever the
    pair's scale, and the corner with it, from two rungs on."""
    rates = (arm.rates[0] * 1e-310, *arm.rates[1:]) if arm.levels > 1 else arm.rates
    return DecayLadder(levels=arm.levels, rates=rates, frequencies=arm.frequencies)


def spread_arms(monkeypatch):
    """Make every family build its arms through ``spread``."""
    build = LadderFamily.build_arm
    monkeypatch.setattr(LadderFamily, "build_arm", lambda self, n: spread(build(self, n)))


def point_row(family, n_total):
    """The sweep row of one point computed alone, through
    ``exchange_integral``: the reference for every sweep's rows."""
    try:
        arm = family.build_arm(n_total)
        value = exchange_integral(twin(arm)).value
    except Exception as exc:
        return {"N": n_total, "error": f"{type(exc).__name__}: {exc}"}
    qfi = qfi_twin(n_total, value)
    return {"N": n_total, "I_N": value, "F_Q": qfi, "dphi2": 1.0 / qfi,
            "dphi2_snl": 1.0 / n_total, "dphi2_hl": 1.0 / n_total**2,
            "dphi2_fock": 2.0 / (n_total * (n_total + 2.0))}


def split_tables(a, b):
    """Recurrence of arms a (rows) and b (columns), written as a plain
    double loop over the three full tables: the reference for the fused
    antidiagonal pass.  Returns the tables f0, f1 (complex) and f2."""
    m = a.levels
    ga, gb = [0.0, *a.rates], [0.0, *b.rates]
    wa, wb = [0.0, *a.frequencies], [0.0, *b.frequencies]

    def c0(i, j):
        return ga[m - i] + gb[m - j]

    def c2(i, j):
        return ga[m - 1 - i] + gb[m - 1 - j]

    def c1(i, j):
        dw = (wa[m - i] - wa[m - 1 - i]) - (wb[m - j] - wb[m - 1 - j])
        return (c0(i, j) + c2(i, j)) / 2 + 1j * dw

    def n0(g, i):
        return g[m - i + 1]

    def n1(g, i):
        return math.sqrt(g[m - i] * g[m - i + 1])

    def n2(g, i):
        return g[m - i]

    f0 = np.zeros((m, m))
    f1 = np.zeros((m, m), dtype=complex)
    f2 = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            a0, a1, a2 = (1.0 if i == j == 0 else 0.0), 0j, 0.0
            if i:
                a0 += n0(ga, i) / c0(i - 1, j) * f0[i - 1, j]
                a1 += n1(ga, i) / c1(i - 1, j) * f1[i - 1, j]
                a2 += n2(ga, i) / c2(i - 1, j) * f2[i - 1, j]
            if j:
                a0 += n0(gb, j) / c0(i, j - 1) * f0[i, j - 1]
                a1 += n1(gb, j) / c1(i, j - 1) * f1[i, j - 1]
                a2 += n2(gb, j) / c2(i, j - 1) * f2[i, j - 1]
            s_cross = math.sqrt(ga[m - i]) * math.sqrt(gb[m - j])
            f0[i, j] = a0
            f1[i, j] = a1 + s_cross / c0(i, j) * a0
            f2[i, j] = a2 + 2.0 * s_cross * (f1[i, j] / c1(i, j)).real
    return f0, f1, f2


def split_recurrence(a, b):
    """The overlap of arms a and b from ``split_tables``' corner."""
    m = a.levels
    return split_tables(a, b)[2][m - 1, m - 1] / m**2


def longdouble_corner(arm):
    """The forward recurrence's corner in extended precision, for twin arms:
    each entry is stored divided by its accumulator, with every coefficient
    built in ``numpy.longdouble`` from the ladder."""
    m = arm.levels
    g = np.concatenate(([0], np.array(arm.rates, dtype=np.longdouble)))
    w = np.concatenate(([0], np.array(arm.frequencies, dtype=np.longdouble)))
    idx = np.arange(m)
    gr0, gr2, dw = g[m - idx], g[m - 1 - idx], w[m - idx] - w[m - 1 - idx]
    sq = np.sqrt(gr0)
    n0, n1, n2 = np.ones(m, np.longdouble), np.ones(m, np.longdouble), gr0
    n0[1:] = g[m - idx[1:] + 1]
    n1[1:] = np.sqrt(g[m - idx[1:]] * g[m - idx[1:] + 1])
    rows = (gr0, gr2, dw, sq, n0, n1, n2)
    cols = [v[::-1] for v in rows]
    h0, h1, h2 = (np.zeros(m + 1, np.longdouble), np.zeros(m + 1, np.clongdouble),
                  np.zeros(m + 1, np.longdouble))
    h0[0] = 1  # the base entry, as the up neighbour of (0, 0)
    for k in range(2 * m - 1):
        lo, hi = max(0, k - m + 1), min(m - 1, k)
        i = up = slice(lo, hi + 1)
        j, left = slice(m - 1 - k + lo, m - k + hi), slice(lo + 1, hi + 2)
        (ra0, ra2, rdw, rsq, rn0, rn1, rn2) = (v[i] for v in rows)
        (cb0, cb2, cdw, csq, cn0, cn1, cn2) = (v[j] for v in cols)
        c0, c2, s = ra0 + cb0, ra2 + cb2, rsq * csq
        c1 = (c0 + c2) / 2 + 1j * (rdw - cdw)
        f0 = rn0 * h0[up] + cn0 * h0[left]
        f1 = rn1 * h1[up] + cn1 * h1[left] + s * f0 / c0
        f2 = rn2 * h2[up] + cn2 * h2[left] + 2 * s * (f1 / c1).real
        if k == 2 * m - 2:
            return f2[0]  # the corner, whose c2 is 0
        h0, h1, h2 = np.zeros_like(h0), np.zeros_like(h1), np.zeros_like(h2)
        h0[left], h1[left], h2[left] = f0 / c0, f1 / c1, f2 / c2


def real_twin(a, b):
    """Whether arms a and b make a real twin pair, whose pass stores the
    upper triangle i <= j of its tables only."""
    shift = _rate_shift(a, b)
    return _real_twin(_ladder_vectors(a, shift), _ladder_vectors(b, shift))


def full_tables(arms, column=0):
    """The three M x M tables of one column of a batched pass, rebuilt from
    the library's antidiagonals; ``arms`` is a list of arm pairs or one
    ladder (its twin pair), and M the largest photon number of the batch.
    Table 1 comes back complex, also from a complex batch's planes.  A real
    twin pair's lower triangle comes back as the mirror of its upper one,
    which its pass stores and reads, also where a batch that it shares
    computes the lower entries too."""
    pairs = arms if isinstance(arms, list) else [(arms, arms)]
    m = max(a.levels for a, _ in pairs)
    tables = (np.zeros((m, m)), np.zeros((m, m), dtype=complex), np.zeros((m, m)))
    for k, (lo, *diagonals) in enumerate(_antidiagonals(pairs)):
        i = np.arange(lo, lo + len(diagonals[0]))
        for table, diagonal in zip(tables, diagonals):
            if diagonal.ndim == 3:  # real and imaginary planes
                diagonal = diagonal[0] + 1j * diagonal[1]
            table[i, k - i] = diagonal[:, column]
    if real_twin(*pairs[column]):
        lower = np.tril_indices(m, -1)
        for table in tables:
            table[lower] = table.T[lower]
    return tables


class TestAgainstOracle:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "family",
        [
            LadderFamily("dicke"),
            LadderFamily("harmonic"),
            LadderFamily("anharmonic", u=1.0),
            LadderFamily("anharmonic", u=10.0),
            LadderFamily("anharmonic", u=1000.0),
        ],
        ids=["dicke", "harmonic", "anharm1", "anharm10", "anharm1000"],
    )
    def test_matches_oracle(self, family, m):
        arm = family.build_arm(2 * m)
        rec = exchange_integral(twin(arm)).value
        ora = oracle_integral(arm, arm, l=1).value
        assert rec == pytest.approx(ora, abs=1e-9)

    def test_four_photon_reference(self):
        arm = build_dicke(2, 1.0)
        assert exchange_integral(twin(arm)).value == pytest.approx(
            float(Fraction(11, 12)), abs=1e-12
        )

    @given(
        rates=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
        freqs=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_ladders_match_oracle(self, rates, freqs):
        arm = DecayLadder(levels=3, rates=tuple(rates), frequencies=tuple(freqs))
        rec = exchange_integral(twin(arm)).value
        ora = oracle_integral(arm, arm, l=1).value
        assert rec == pytest.approx(ora, abs=1e-9)


class TestAgainstSplitReference:
    """The fused pass against the plain double-loop reference."""

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize(
        "family",
        [
            LadderFamily("dicke"),
            LadderFamily("harmonic"),
            LadderFamily("anharmonic", u=1.0),
            LadderFamily("anharmonic", u=10.0),
            LadderFamily("anharmonic", u=1000.0),
        ],
        ids=["dicke", "harmonic", "anharm1", "anharm10", "anharm1000"],
    )
    def test_families(self, family, m):
        arm = family.build_arm(2 * m)
        reference = split_recurrence(arm, arm)
        assert exchange_integral(twin(arm)).value == pytest.approx(
            reference, rel=1e-13, abs=0.0
        )

    @given(
        m=st.integers(3, 7),
        rates=st.lists(st.floats(0.05, 20.0), min_size=14, max_size=14),
        freqs=st.lists(st.floats(-50.0, 50.0), min_size=14, max_size=14),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_ladders(self, m, rates, freqs):
        # two independently drawn arms
        a = DecayLadder(levels=m, rates=tuple(rates[:m]), frequencies=tuple(freqs[:m]))
        b = DecayLadder(levels=m, rates=tuple(rates[7:7 + m]),
                        frequencies=tuple(freqs[7:7 + m]))
        assert _recurrence(a, b).corner / m**2 == pytest.approx(
            split_recurrence(a, b), rel=1e-13, abs=0.0
        )


class TestValues:
    def test_single_photon_per_arm(self):
        assert exchange_integral(twin(build_dicke(1, 1.0))).value == pytest.approx(
            1.0, abs=1e-14
        )

    def test_collective_plateau_regression(self):
        arm = build_dicke(50, 1.0)
        assert exchange_integral(twin(arm)).value == pytest.approx(
            0.8206301843678131, abs=1e-9
        )

    def test_rate_scale_invariance(self):
        slow = exchange_integral(twin(build_dicke(3, 0.25))).value
        fast = exchange_integral(twin(build_dicke(3, 4.0))).value
        assert slow == pytest.approx(fast, rel=1e-12)

    @given(
        m=st.integers(1, 5),
        rates=st.lists(st.floats(0.05, 20.0), min_size=5, max_size=5),
        freqs=st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounded_for_any_twin(self, m, rates, freqs):
        arm = DecayLadder(
            levels=m, rates=tuple(rates[:m]), frequencies=tuple(freqs[:m])
        )
        value = exchange_integral(twin(arm)).value
        assert abs(value) <= 1.0 + 1e-10

    @pytest.mark.parametrize("kind", ["dicke", "harmonic"])
    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_flat_spectrum_values_positive(self, kind, m):
        arm = LadderFamily(kind).build_arm(2 * m)
        value = exchange_integral(twin(arm)).value
        assert 0.0 < value <= 1.0 + 1e-12


class TestRecurrenceState:
    """The one-pair pass: its tables, its corner and the overlap read from it."""

    def test_base_entry_is_exactly_one(self):
        f0, f1, f2 = full_tables(build_dicke(4, 1.0))
        assert f0[0, 0] == 1.0
        assert np.all(np.isfinite(f0))
        assert np.all(np.isfinite(f2))
        assert np.all(np.isfinite(np.abs(f1)))

    # A real twin pass stores i <= j only, so its tables are symmetric by
    # construction (test_a_twin_pass_stores_the_upper_triangle checks that
    # triangle); a Kerr pair runs the full pass, whose f0 sums the same two
    # terms in either triangle.
    @pytest.mark.parametrize("arm", [build_anharmonic(30, 1.0, 10.0)], ids=["kerr"])
    def test_zero_pending_table_is_exactly_symmetric(self, arm):
        f0, _, _ = full_tables(arm)
        assert np.array_equal(f0, f0.T)

    @pytest.mark.parametrize("arm", [build_dicke(30, 1.0), build_harmonic(30, 1.0)],
                             ids=["dicke", "harmonic"])
    def test_a_twin_pass_stores_the_upper_triangle(self, arm):
        # the stored triangle, mirrored, against the full double loop's tables
        for table, reference in zip(full_tables(arm), split_tables(arm, arm)):
            assert np.allclose(table, reference, rtol=1e-13, atol=0.0)

    def test_value_assembly(self):
        arm = build_dicke(3, 1.0)
        _, _, f2 = full_tables(arm)
        state = _recurrence(arm, arm)
        assert state.corner == f2[2, 2]
        assert state.value == f2[2, 2] / 9.0

    def test_exponent_accumulators(self):
        arm = build_dicke(2, 1.0)
        v = _ladder_vectors(arm, 0)
        # with two levels of rate 2: c0 = 4 everywhere, c2(0,0) = 4
        c0 = v["gr0"][0] + v["gr0"][0]
        c2 = v["gr2"][0] + v["gr2"][0]
        assert c0 == 4.0
        assert v["gr0"][0] + v["gr0"][1] == 4.0
        assert c2 == 4.0
        assert (c0 + c2) / 2.0 + 1j * (v["dw"][0] - v["dw"][0]) == 4.0

    def test_magnitudes_stay_moderate_at_scale(self):
        _, _, f2 = full_tables(build_dicke(250, 1.0))
        assert np.max(np.abs(f2)) < 1e8

    @pytest.mark.parametrize("kerr", [False, True], ids=["dicke", "kerr"])
    def test_memory_is_linear_in_photon_number(self, kerr):
        # three m x m tables at m = 400 would take over 10 MB
        arm = build_anharmonic(400, 1.0, 10.0) if kerr else build_dicke(400, 1.0)
        tracemalloc.start()
        try:
            exchange_integral(twin(arm))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @given(
        m=st.integers(1, 200),
        arms=st.lists(
            st.tuples(
                st.floats(-12.0, 12.0).map(lambda e: 10.0**e),
                st.one_of(st.just(0.0), st.floats(-8.0, 8.0).map(lambda e: 10.0**e)),
                st.booleans(),
            ),
            min_size=2, max_size=2,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_finite_and_bounded_over_scales(self, m, arms):
        # two independently drawn Dicke or Kerr arms
        a, b = (build_anharmonic(m, gamma, u) if kerr else build_dicke(m, gamma)
                for gamma, u, kerr in arms)
        value = _recurrence(a, b).value
        assert math.isfinite(value)
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("m,gamma", [(2, 1.0), (200, 1e-6)])
    def test_harmonic_overshoot_is_clipped_to_one(self, m, gamma):
        # the raw table entry reads a few ulps above one here
        arm = build_harmonic(m, gamma)
        state = _recurrence(arm, arm)
        assert state.corner / m**2 > 1.0
        assert state.value == 1.0

    def test_overshoot_beyond_rounding_raises(self):
        with pytest.raises(InvalidLadderError, match="exceeds one beyond rounding"):
            _overlap(1, 1.0 + 1e-9)
        assert _overlap(2, 4.0 * (1.0 + 1e-13)) == 1.0

    def test_nonfinite_entries_raise(self):
        arm = spread(build_dicke(5, 1.0))
        with pytest.raises(InvalidLadderError, match="^recurrence produced nonfinite entries$"):
            exchange_integral(twin(arm))
        for corner in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidLadderError, match="nonfinite"):
                _overlap(5, corner)

    @pytest.mark.parametrize("cross", [1.0, 0.0], ids=["inf", "nan"])
    def test_a_nonfinite_f0_reaches_its_corner(self, cross):
        # f0(3, 0) and f0(0, 3) read the infinite numerator on antidiagonal 3;
        # a zero cross factor there turns them into nan in f1 and f2.  The
        # pass runs on to the corner, which the overlap then rejects.
        def vectors(arm, shift):
            v = _ladder_vectors(arm, shift)
            v["n0"][3] = math.inf
            v["sq"][3] *= cross
            return v

        arm = build_dicke(6, 1.0)
        finite, corner = [], None
        for lo, f0, f1, f2 in _antidiagonals([(arm, arm)], vectors):
            finite.append(all(np.isfinite(f).all() for f in (f0, f1, f2)))
            corner = f2[5 - lo, 0] if len(finite) == 11 else corner
        assert finite == [True] * 3 + [False] * 8
        assert not math.isfinite(corner)
        with pytest.raises(InvalidLadderError,
                           match="^recurrence produced nonfinite entries$"):
            _overlap(6, corner)

    @given(
        data=st.data(),
        bad=st.sampled_from([math.inf, -math.inf, math.nan]),
        name=st.sampled_from(["n0", "n1", "n2"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_nonfinite_entry_reaches_only_its_own_corner(self, data, bad, name):
        # one numerator of one arm of one column of a mixed Dicke/Kerr batch
        batch = [(build_dicke(7, 1.0), build_dicke(7, 2.5)),
                 (build_anharmonic(5, 1.0, 3.0),) * 2,
                 (build_dicke(4, 1.0),) * 2,
                 (build_anharmonic(7, 0.7, 15.0), build_dicke(7, 1.0))]
        column = data.draw(st.integers(0, len(batch) - 1), label="column")
        target = data.draw(st.sampled_from(batch[column]), label="arm")
        row = data.draw(st.integers(0, target.levels - 1), label="row")

        def vectors(arm, shift):
            v = _ladder_vectors(arm, shift)
            if arm is target:
                v[name][row] = bad
            return v

        corners = {}
        for k, (lo, _, _, f2) in enumerate(_antidiagonals(batch, vectors)):
            for p, (a, _) in enumerate(batch):
                if k == 2 * a.levels - 2:
                    corners[p] = float(f2[k // 2 - lo, p])
        for p, (a, b) in enumerate(batch):
            if p == column:
                assert not math.isfinite(corners[p])
            else:
                assert corners[p] == forward_corners([(a, b)])[0]


def last_step_overflows(monkeypatch):
    """Give every arm of two or more rungs an infinite n0 on the step into
    its last row (its lowest rung), which every sub-lattice but the
    one-photon one reaches: an overflow without extreme rates."""
    def vectors(arm, shift):
        v = _ladder_vectors(arm, shift)
        if arm.levels > 1:
            v["n0"][-1] = math.inf
        return v

    monkeypatch.setattr(exchange_module, "_ladder_vectors", vectors)


class TestReversePass:
    """One adjoint pass against a forward pass per photon number."""

    @pytest.mark.parametrize("gamma", [1.0, 1e-3])
    @pytest.mark.parametrize("u", [None, 0.05, 1.0, 10.0, 1000.0],
                             ids=["harmonic", "u0.05", "u1", "u10", "u1000"])
    def test_every_sub_arm_matches_the_forward_pass(self, u, gamma):
        top = 120
        build = ((lambda m: build_harmonic(m, gamma)) if u is None
                 else (lambda m: build_anharmonic(m, gamma, u * gamma)))
        arm = build(top)
        corners = _reverse_pass(arm, arm)
        assert len(corners) == top
        # one batched forward pass: TestBatchedPass checks that each column
        # is bit-identical to its one-pair pass
        forwards = forward_corners([(build(m), build(m)) for m in range(1, top + 1)])
        for m, forward in enumerate(forwards, start=1):
            assert abs(corners[top - m] - forward) <= 1e-13 * forward, m

    def test_distinct_arms_match_the_forward_pass(self):
        # the full corner of any two arms, nested or not
        a, b = build_anharmonic(30, 1.0, 3.0), build_dicke(30, 0.5)
        forward = _recurrence(a, b).corner
        assert abs(_reverse_pass(a, b)[0] - forward) <= 1e-13 * forward

    def test_dicke_sub_lattices_are_not_dicke_arms(self):
        # a Dicke rung's rate depends on the emitter number: no nesting
        arm = build_dicke(20, 1.0)
        sub = _reverse_pass(arm, arm)[10] / 10**2
        assert not abs(sub - _recurrence(build_dicke(10, 1.0), build_dicke(10, 1.0)).value) <= 1e-3

    def test_memory_is_linear_in_photon_number(self):
        arm = build_anharmonic(400, 1.0, 10.0)
        tracemalloc.start()
        try:
            _reverse_pass(arm, arm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_nonfinite_entries_raise(self, monkeypatch):
        # the one-photon sub-lattice stays finite; every larger one overflows
        arm = build_harmonic(5, 1.0)
        last_step_overflows(monkeypatch)
        corners = _reverse_pass(arm, arm)
        assert _overlap(1, corners[4]) == 1.0
        for d in range(4):
            with pytest.raises(InvalidLadderError, match="nonfinite"):
                _overlap(5 - d, corners[d])


BATCHES = {
    "dicke-mixed": [(build_dicke(m, 1.0),) * 2 for m in (7, 4, 1, 7, 5, 4)],
    "kerr-u": [(build_anharmonic(m, 1.0, u),) * 2
               for m, u in ((6, 1.0), (3, 10.0), (6, 0.05), (4, 1000.0))],
    "distinct-arms": [(build_dicke(5, 1.0), build_dicke(5, 2.5)),
                      (build_anharmonic(8, 1.0, 2.0), build_anharmonic(8, 0.7, 15.0)),
                      (build_dicke(2, 1.0), build_anharmonic(2, 3.0, 0.5))],
}


class TestBatchedPass:
    """Several pairs per pass: each column is its own one-pair pass."""

    @pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
    def test_each_column_is_its_one_pair_pass(self, batch):
        size = max(a.levels for a, _ in batch)
        for column, (a, b) in enumerate(batch):
            m = a.levels
            alone = full_tables([(a, b)])
            batched = full_tables(batch, column)
            for own, table in zip(alone, batched):
                assert np.array_equal(table[:m, :m], own)
                # the entries past the pair's table stay exactly zero
                assert not table[m:].any() and not table[:, m:].any()
            assert batched[2].shape == (size, size)
        assert forward_corners(batch) == [_recurrence(a, b).corner for a, b in batch]

    @pytest.mark.parametrize("vectors", [None, _adjoint_vectors], ids=["forward", "adjoint"])
    @pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
    def test_the_cell_rule_writes_to_none_of_its_arguments(self, monkeypatch, batch, vectors):
        # On arrays every argument (c0, r, c2, s, na, nb, up, left) is a view
        # into the pass's coefficient or state buffers, so an augmented
        # operator that hit one would corrupt them: each call keeps their bits.
        kept = []

        def guarded(cell):
            def run(*args):
                before = [np.array(arg).tobytes() for arg in args]  # a Kerr r is a tuple
                pieces = cell(*args)
                kept.append([np.array(arg).tobytes() for arg in args] == before)
                return pieces
            return run

        expected = _array_diagonals(batch, vectors)
        for name in ("_real_cell", "_complex_cell"):
            monkeypatch.setattr(exchange_module, name, guarded(getattr(exchange_module, name)))
        assert _array_diagonals(batch, vectors) == expected
        assert kept and all(kept)

    def test_a_nonfinite_column_flags_only_its_own_rows(self, monkeypatch):
        # a spread ladder overflows from two photons per arm on; one photon
        # shares the pass and still gets its value
        spread_arms(monkeypatch)
        family = LadderFamily("dicke")
        rows = qfi_vs_n_sweep(family, [2, 4, 2, 6])
        assert [r["N"] for r in rows] == [2, 4, 2, 6]
        assert rows == [point_row(family, n) for n in (2, 4, 2, 6)]
        assert rows[0]["I_N"] == pytest.approx(1.0, rel=1e-15)
        for row in rows[1::2]:
            assert row["error"] == "InvalidLadderError: recurrence produced nonfinite entries"

    @given(ms=st.lists(st.integers(1, 3000), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_groups_follow_the_rule(self, ms):
        groups = _dicke_groups(ms)
        flat = [m for group in groups for m in group]
        assert flat == sorted(set(ms), reverse=True)
        for group, following in zip(groups, groups[1:] + [[]]):
            top = group[0]
            assert all(2 * m >= top for m in group)
            assert len(group) == 1 or len(group) * top <= _BATCH_CELLS
            # a group ends only where the next photon number breaks the rule
            if following:
                assert 2 * following[0] < top or (len(group) + 1) * top > _BATCH_CELLS

    def test_bench_grid_groups(self):
        groups = _dicke_groups(range(20, 1001, 80))
        assert groups == [[980, 900, 820, 740], [660, 580, 500, 420, 340], [260, 180],
                          [100], [20]]

    def test_rows_match_one_pass_per_point(self):
        family = LadderFamily("dicke", gamma=0.3)
        n_values = [40, 2, 18, 40, 6, 4, 100, 60]
        rows = qfi_vs_n_sweep(family, n_values)
        assert rows == [point_row(family, n) for n in n_values]

    def test_a_failed_pass_flags_its_own_group(self, monkeypatch):
        # photon numbers per arm 20 | 4, 2: the pass of the first group fails
        family = LadderFamily("dicke")
        expected = qfi_vs_n_sweep(family, [4, 8, 40])

        def fails_on_twenty(pairs):
            if pairs[0][0].levels == 20:
                raise MemoryError("synthetic failure")
            return _diagonals(pairs)

        monkeypatch.setattr(exchange_module, "_diagonals", fails_on_twenty)
        assert qfi_vs_n_sweep(family, [4, 8, 40]) == expected[:2] + [
            {"N": 40, "error": "MemoryError: synthetic failure"}]

    def test_a_failed_build_flags_its_own_point(self, monkeypatch):
        # photon numbers per arm 4, 3, 2: one group
        family = LadderFamily("dicke")
        expected = qfi_vs_n_sweep(family, [4, 6, 8])
        build = LadderFamily.build_arm

        def fails_at_six(self, n_total):
            if n_total == 6:
                raise ValueError("synthetic failure")
            return build(self, n_total)

        monkeypatch.setattr(LadderFamily, "build_arm", fails_at_six)
        assert qfi_vs_n_sweep(family, [4, 6, 8]) == [
            expected[0], {"N": 6, "error": "ValueError: synthetic failure"}, expected[2]]

    def test_sweep_memory_stays_small(self):
        # the benchmark's Dicke grid: four columns of up to 980 photons
        tracemalloc.start()
        try:
            rows = qfi_vs_n_sweep(LadderFamily("dicke"), range(40, 2001, 160), jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all("error" not in r for r in rows)
        assert peak < 2e6


class TestTableDtype:
    """Table 1 is float64, with an imaginary plane beside its real one only
    when some level frequency is nonzero."""

    @staticmethod
    def first_f1(pairs):
        return next(iter(_antidiagonals(pairs)))[2]

    def test_real_ladders_keep_table_one_real(self):
        pairs = [(build_dicke(5, 1.0), build_dicke(5, 2.5)),
                 (build_harmonic(3, 1.0), build_harmonic(3, 1.0))]
        f1 = self.first_f1(pairs)
        assert f1.dtype == np.float64 and f1.shape == (1, 2)

    def test_a_kerr_column_makes_the_batch_complex(self):
        # its first pair, two Dicke arms, runs in float64 on its own, and
        # TestBatchedPass checks that each column keeps its one-pair bits
        batch = BATCHES["distinct-arms"]
        f1 = self.first_f1(batch)
        assert f1.dtype == np.float64 and f1.shape == (2, 1, 3)
        assert self.first_f1(batch[:1]).shape == (1, 1)

    @pytest.mark.parametrize("arm,planes", [(build_harmonic(6, 1.0), 2),
                                            (build_anharmonic(6, 1.0, 1.0), 3)],
                             ids=["harmonic", "kerr"])
    def test_the_adjoint_pass_follows_the_same_rule(self, arm, planes, monkeypatch):
        seen = set()

        def spy(pairs, vectors):
            for step in _antidiagonals(pairs, vectors):
                seen.add((step[2].dtype, step[2].ndim))
                yield step

        monkeypatch.setattr(exchange_module, "_antidiagonals", spy)
        _array_diagonals([(arm, arm)], _adjoint_vectors)
        assert seen == {(np.dtype(np.float64), planes)}


# Corners (m^2 I) of real twin ladders, as float.hex: the half pass's,
# then the full pass's that came before it.  The half pass reads each
# entry (i, j > i) in place of its mirror, whose three-term sums the full
# pass associated the other way, so the two lie within 1e-15 relative.
BIT_PINS = {
    "dicke-1": (build_dicke(1, 1.0), "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    "dicke-2": (build_dicke(2, 1.0), "0x1.d555555555558p+1", "0x1.d555555555558p+1"),
    "dicke-4": (build_dicke(4, 1.0), "0x1.bb4b1450a1154p+3", "0x1.bb4b1450a1154p+3"),
    "dicke-50": (build_dicke(50, 1.0), "0x1.00726a2d04b0bp+11", "0x1.00726a2d04b0ap+11"),
    "dicke-400": (build_dicke(400, 1.0), "0x1.00aeb5a4c2610p+17", "0x1.00aeb5a4c2610p+17"),
    "dicke-980": (build_dicke(980, 1.0), "0x1.8168f4d791bbcp+19", "0x1.8168f4d791bbep+19"),
    "dicke-5-g1e-6": (build_dicke(5, 1e-6), "0x1.55faf25b88fefp+4", "0x1.55faf25b88feep+4"),
    "dicke-5-g3.7699e7": (build_dicke(5, 3.7699e7), "0x1.55faf25b88ff0p+4",
                          "0x1.55faf25b88ff0p+4"),
    "harmonic-2": (build_harmonic(2, 1.0), "0x1.0000000000001p+2", "0x1.0000000000001p+2"),
    "harmonic-2-g1e-6": (build_harmonic(2, 1e-6), "0x1.0000000000000p+2",
                         "0x1.0000000000000p+2"),
    "harmonic-200-g1e-6": (build_harmonic(200, 1e-6), "0x1.388000000000ap+15",
                           "0x1.3880000000008p+15"),
}


# Corners of Kerr ladders.  Both passes spell complex operations out in
# float64, so these bits hold on any host, whatever SIMD loops numpy picks.
KERR_PINS = {
    "kerr-4-u1": (build_anharmonic(4, 1.0, 1.0), "0x1.d0a1a663f7b22p+2"),
    "kerr-50-u10": (build_anharmonic(50, 1.0, 10.0), "0x1.61e0f56fff144p+5"),
    "kerr-400-u10": (build_anharmonic(400, 1.0, 10.0), "0x1.fb695109a2cd8p+9"),
}


def near_full_pass(corners, full_pass):
    """Whether each corner lies within 1e-15 relative of the full pass's."""
    return all(abs(c - float.fromhex(f)) <= 1e-15 * c for c, f in zip(corners, full_pass))


class TestBitPins:
    @pytest.mark.parametrize("arm,corner,full_pass", BIT_PINS.values(), ids=BIT_PINS.keys())
    def test_twin_corner(self, arm, corner, full_pass):
        got = _recurrence(arm, arm).corner
        assert got == float.fromhex(corner)
        assert near_full_pass([got], [full_pass])

    def test_distinct_dicke_arms(self):
        corner = _recurrence(build_dicke(30, 1.0), build_dicke(30, 1.3)).corner
        assert corner == float.fromhex("0x1.581e23fa89c61p+9")

    def test_first_bench_grid_group(self):
        arms = [build_dicke(m, 1.0) for m in (980, 900, 820, 740)]
        corners = forward_corners([(arm, arm) for arm in arms])
        assert corners == [
            float.fromhex(c) for c in ("0x1.8168f4d791bbcp+19", "0x1.450a26c8f3183p+19",
                                       "0x1.0dcf22c9fe981p+19", "0x1.b76fc9cdfec32p+18")]
        assert near_full_pass(corners, ("0x1.8168f4d791bbep+19", "0x1.450a26c8f3185p+19",
                                        "0x1.0dcf22c9fe982p+19", "0x1.b76fc9cdfec31p+18"))

    @pytest.mark.parametrize("arm,corner", KERR_PINS.values(), ids=KERR_PINS.keys())
    def test_kerr_twin_corner(self, arm, corner):
        assert _recurrence(arm, arm).corner == float.fromhex(corner)

    def test_distinct_kerr_arms(self):
        corner = _recurrence(build_anharmonic(30, 1.0, 2.0),
                             build_anharmonic(30, 0.7, 15.0)).corner
        assert corner == float.fromhex("0x1.8e918acc9ccdfp-2")

    def test_kerr_reverse_pass_sub_corners(self):
        # the whole m = 400 lattice, and its 200-photon sub-lattice
        arm = build_anharmonic(400, 1.0, 10.0)
        corners = _reverse_pass(arm, arm)
        assert [corners[0], corners[200]] == [
            float.fromhex("0x1.fb695109a2ce6p+9"), float.fromhex("0x1.6388c46124654p+8")]


# m at the plain pass's limit, where one pair holds _PLAIN_CELLS cells, and
# one above it
EDGE = math.isqrt(_PLAIN_CELLS)

PLAIN_PAIRS = {
    "dicke-twin": lambda m: (build_dicke(m, 1.0),) * 2,
    "dicke-1-1.3": lambda m: (build_dicke(m, 1.0), build_dicke(m, 1.3)),
    "dicke-g3.7699e7": lambda m: (build_dicke(m, 3.7699e7),) * 2,
    "harmonic-g1e-6": lambda m: (build_harmonic(m, 1e-6),) * 2,
    "kerr-u1": lambda m: (build_anharmonic(m, 1.0, 1.0),) * 2,
    "kerr-u1e4-g1e-6": lambda m: (build_anharmonic(m, 1e-6, 1e-2),) * 2,
    "kerr-distinct": lambda m: (build_anharmonic(m, 1.0, 2.0), build_anharmonic(m, 0.7, 15.0)),
}


class TestPlainPass:
    """The plain-float pass against the array pass, bit for bit, for real
    and Kerr ladders alike."""

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 20, EDGE, EDGE + 1])
    @pytest.mark.parametrize("pair", PLAIN_PAIRS.values(), ids=PLAIN_PAIRS.keys())
    def test_corner_bits_match_the_array_pass(self, pair, m):
        a, b = pair(m)
        assert _plain_diagonal(a, b)[-1].hex() == _array_diagonals([(a, b)])[0][-1].hex()

    @given(
        rates=st.lists(st.lists(st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
                                min_size=70, max_size=70), min_size=2, max_size=2),
        m=st.integers(1, 70),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_real_ladders_match_the_array_pass(self, rates, m):
        a, b = (DecayLadder(levels=m, rates=tuple(r[:m]), frequencies=(0.0,) * m)
                for r in rates)
        assert _plain_diagonal(a, b)[-1].hex() == _array_diagonals([(a, b)])[0][-1].hex()

    @given(
        rates=st.lists(st.lists(st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
                                min_size=20, max_size=20), min_size=2, max_size=2),
        freqs=st.lists(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 8.0))
                                .map(lambda p: p[0] * 10.0**p[1]),
                                min_size=20, max_size=20), min_size=2, max_size=2),
        m=st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_complex_ladders_match_the_array_pass(self, rates, freqs, m):
        a, b = (DecayLadder(levels=m, rates=tuple(r[:m]), frequencies=tuple(w[:m]))
                for r, w in zip(rates, freqs))
        assert _plain_diagonal(a, b)[-1].hex() == _array_diagonals([(a, b)])[0][-1].hex()

    @given(
        rates=st.lists(st.lists(st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
                                min_size=20, max_size=20), min_size=2, max_size=2),
        # level shifts up to 1e8, or past 1e154 where Smith's d overflows
        freqs=st.lists(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]),
                                          st.floats(-6.0, 8.0) | st.floats(150.0, 200.0))
                                .map(lambda p: p[0] * 10.0**p[1]),
                                min_size=20, max_size=20), min_size=2, max_size=2),
        m=st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_diagonals_match_the_array_pass_both_ways(self, rates, freqs, m):
        a, b = (DecayLadder(levels=m, rates=tuple(r[:m]), frequencies=tuple(w[:m]))
                for r, w in zip(rates, freqs))
        for vectors in (None, _adjoint_vectors):
            plain = _plain_diagonal(a, b, vectors)
            array = _array_diagonals([(a, b)], vectors)[0]
            assert [v.hex() for v in plain] == [v.hex() for v in array]

    @given(data=st.data(), kerr=st.booleans(), width=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_one_cell_rule_on_floats_and_on_arrays(self, data, kerr, width):
        # cells drawn one by one, then stacked into length-width arrays: the
        # shared rule gives each cell's float bits in its array element
        positive = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
        # level shifts past 1e154 overflow Smith's d
        signed = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 8.0)
                           | st.floats(150.0, 200.0)).map(lambda p: p[0] * 10.0**p[1])
        pad = (1.0, 1.0, 1.0) + (0.0,) * (6 if kerr else 3)  # the lattice's edge
        state = st.tuples(*[positive] * 3, *[positive | signed] * (len(pad) - 3))
        neighbour = st.just(pad) | state
        numerators = st.tuples(*[st.just(0.0) | positive] * 3)  # 0 on a pad row
        cells = []
        for _ in range(width):
            c0, c2 = data.draw(st.just(0.0) | positive), data.draw(positive)  # c0 = 0: a seed
            x, y = (c0 + c2) / 2.0, data.draw(signed)
            if kerr:
                r = _smith(x, y)
                if r[0] == 0.0:  # d overflowed: Smith's other branch
                    r = _smith(y, x)[::-1]
            cells.append((c0 or 1.0, r if kerr else 1.0 / x, c2, data.draw(positive),
                          data.draw(numerators), data.draw(numerators),
                          data.draw(neighbour), data.draw(neighbour)))
        cell = _complex_cell if kerr else _real_cell
        floats = [cell(*args) for args in cells]
        # tuples of pieces stack to one array per piece
        arrays = cell(*(np.array(column).T for column in zip(*cells)))
        for piece, values in zip(arrays, zip(*floats)):
            assert [float(v).hex() for v in piece] == [v.hex() for v in values]

    def test_an_overflow_raises_the_same_error_on_both_paths(self):
        # both arms' lowest rungs are slow at the corner, whose c1 is their mean
        a, b = spread(build_dicke(6, 1.0)), spread(build_dicke(6, 1.3))
        for pair in ((a, a), (a, b), (b, a)):
            messages = []
            for corner in (_plain_diagonal(*pair)[-1], _array_diagonals([pair])[0][-1]):
                with pytest.raises(InvalidLadderError) as err:
                    _overlap(6, corner)
                messages.append(str(err.value))
            assert messages == ["recurrence produced nonfinite entries"] * 2

    @pytest.mark.parametrize("m", [EDGE, EDGE + 1], ids=["plain", "array"])
    def test_both_passes_read_the_patched_vectors(self, monkeypatch, m):
        # the forward passes look _ladder_vectors up on each call, as the
        # adjoint does, so a patch on the module reaches them all
        last_step_overflows(monkeypatch)
        arm = build_dicke(m, 1.0)
        with pytest.raises(InvalidLadderError, match="^recurrence produced nonfinite entries$"):
            exchange_integral(twin(arm))

    def test_the_dispatch_counts_cells_only(self, monkeypatch):
        seen = []
        monkeypatch.setattr(exchange_module, "_plain_diagonal", lambda a, b, vectors=None:
                            seen.append(("plain", vectors)) or [1.0] * a.levels)
        monkeypatch.setattr(exchange_module, "_array_diagonals", lambda pairs, vectors=None:
                            seen.append(("array", vectors)) or [[1.0] * a.levels
                                                                for a, _ in pairs])
        dicke, kerr = build_dicke(EDGE, 1.0), build_anharmonic(EDGE, 1.0, 1.0)
        _diagonals([(dicke, dicke)])
        _diagonals([(build_dicke(EDGE + 1, 1.0),) * 2])
        # _PLAIN_CELLS counts the cells of every pair of the pass
        _diagonals([(dicke, dicke), (build_dicke(1, 1.0),) * 2])
        # a Kerr pair takes the plain pass as a real one does, up to the limit
        _diagonals([(kerr, kerr)])
        _diagonals([(build_anharmonic(EDGE + 1, 1.0, 1.0),) * 2])
        _diagonals([(kerr, kerr), (build_anharmonic(1, 1.0, 1.0),) * 2])
        # and the adjoint as the forward pass does
        _reverse_pass(kerr, kerr)
        _reverse_pass(*(build_harmonic(EDGE + 1, 1.0),) * 2)
        forward = ["plain", "array", "array", "plain", "array", "array"]
        assert seen == ([(backend, None) for backend in forward]
                        + [("plain", _adjoint_vectors), ("array", _adjoint_vectors)])


HALF_PAIRS = {
    "dicke-twin": ((build_dicke(7, 1.0),) * 2, True),
    "dicke-equal-arms": ((build_dicke(7, 1.0), build_dicke(7, 1.0)), True),
    "harmonic-twin": ((build_harmonic(7, 1.0),) * 2, True),
    "dicke-1-1.3": ((build_dicke(7, 1.0), build_dicke(7, 1.3)), False),
    "kerr-twin": ((build_anharmonic(7, 1.0, 1.0),) * 2, False),
}


class TestHalfPass:
    """A real twin pair, whose arms have equal coefficient vectors and no
    level frequency, runs its pass over i <= j only, on both backends."""

    @pytest.mark.parametrize("vectors", [None, _adjoint_vectors], ids=["forward", "adjoint"])
    @pytest.mark.parametrize("pair,half", HALF_PAIRS.values(), ids=HALF_PAIRS.keys())
    def test_a_real_twin_pass_computes_the_upper_triangle(self, monkeypatch, pair, half,
                                                          vectors):
        m = pair[0].levels
        cells = m * (m + 1) // 2 if half else m * m
        assert sum(len(f0) for _, f0, _, _ in _antidiagonals([pair], vectors)) == cells
        calls = []
        for name in ("_real_cell", "_complex_cell"):
            cell = getattr(exchange_module, name)
            monkeypatch.setattr(exchange_module, name,
                                lambda *args, cell=cell: calls.append(1) or cell(*args))
        _plain_diagonal(*pair, vectors)
        assert len(calls) == cells

    @pytest.mark.parametrize("vectors", [None, _adjoint_vectors], ids=["forward", "adjoint"])
    @pytest.mark.parametrize("m", [1, 2, 7, EDGE, EDGE + 1])
    @pytest.mark.parametrize("build", [lambda m: build_dicke(m, 1.0),
                                       lambda m: build_harmonic(m, 1.0)],
                             ids=["dicke", "harmonic"])
    def test_equal_arms_are_twins_by_value(self, build, m, vectors):
        arm, other = build(m), build(m)
        expected = [v.hex() for v in _plain_diagonal(arm, arm, vectors)]
        # a batch of real twins takes the half pass; one with a distinct
        # pair takes the full pass, and mirrors the one lower entry per
        # antidiagonal that a twin column's diagonal reads
        batches = ([(arm, arm)], [(arm, other)], [(build(max(1, m // 2)),) * 2, (arm, other)],
                   [(build_dicke(m, 1.0), build_dicke(m, 1.3)), (arm, other)])
        diagonals = [_plain_diagonal(arm, other, vectors)]
        diagonals += [_array_diagonals(batch, vectors)[-1] for batch in batches]
        for diagonal in diagonals:
            assert [v.hex() for v in diagonal] == expected


class TestExtremeGamma:
    """The pair's rates are scaled by a power of four before any product."""

    @pytest.mark.parametrize("k", [-535, -300, -100, 100, 300, 500])
    def test_power_of_four_rates_keep_every_bit(self, k):
        # rates k(m - k + 1) 4^k gamma are exact, and so is the scale
        scale = 4.0**k
        for m in (1, 5, 50, 100):  # plain passes, then an array pass
            unit = forward_corners([(build_dicke(m, 1.0),) * 2])
            assert forward_corners([(build_dicke(m, scale),) * 2]) == unit
        # the adjoint at m = 60 on either backend
        for reverse_pass in (_reverse_pass, partial(on_arrays, _reverse_pass)):
            harmonic = reverse_pass(*(build_harmonic(60, 1.0),) * 2)
            assert np.array_equal(reverse_pass(*(build_harmonic(60, scale),) * 2), harmonic)
        if k > -500:  # the Kerr frequencies k(k - 1) u stay exact
            kerr = [(build_anharmonic(40, 1.0, 3.0),) * 2]
            scaled = [(build_anharmonic(40, scale, 3.0 * scale),) * 2]
            assert forward_corners(scaled) == forward_corners(kerr)

    @pytest.mark.parametrize("gamma", [1e-320, 1e-300, 1e-200, 1e200, 1e300])
    @pytest.mark.parametrize("m", [10, 100])
    def test_dicke_overlaps_hold_at_any_gamma(self, gamma, m):
        # the rates round differently at each gamma, so the values move by
        # ulps; a subnormal gamma * 1.3 is another ratio, read back from it
        for ratio in (1.0, 1.3):
            pair = TwinConfiguration(build_dicke(m, gamma), build_dicke(m, gamma * ratio))
            reference = TwinConfiguration(build_dicke(m, 1.0),
                                          build_dicke(m, gamma * ratio / gamma))
            assert exchange_integral(pair).value == pytest.approx(
                exchange_integral(reference).value, rel=5e-15, abs=0.0)

    @pytest.mark.parametrize("gamma", [1e-300, 1e-200, 1e200, 1e300])
    @pytest.mark.parametrize("u", [0.0, 1.0, 10.0])
    def test_cavity_sweeps_hold_at_any_gamma(self, gamma, u):
        kind = "anharmonic" if u else "harmonic"
        n_values = [4, 40, 200]
        rows = qfi_vs_n_sweep(LadderFamily(kind, gamma=gamma, u=u * gamma), n_values)
        reference = qfi_vs_n_sweep(LadderFamily(kind, u=u), n_values)
        for row, expected in zip(rows, reference):
            assert row["I_N"] == pytest.approx(expected["I_N"], rel=1e-14, abs=0.0)

    def test_ladders_beyond_the_float_range_at_their_scale_are_rejected(self):
        # the scale takes the slow arm's rates to zero
        fast, slow = build_dicke(3, 1e300), build_dicke(3, 1e-300)
        with pytest.raises(InvalidLadderError, match="within a factor 2\\^1074"):
            exchange_integral(TwinConfiguration(fast, slow))
        # level shifts 1e310 times the rates leave the float range at their scale
        kerr = build_anharmonic(4, 1e-300, 1e10)
        with pytest.raises(InvalidLadderError, match="frequencies overflow"):
            exchange_integral(twin(kerr))


class TestSmithOverflow:
    """Where Smith's d = x + y (y / x) overflows, the cell takes the other
    branch, so 1 / c1 keeps its terms on every pass."""

    @pytest.mark.parametrize("u", [1e100, 1e160, 1e200])
    def test_huge_level_shifts_match_the_oracle(self, u):
        # y^2 / x passes the float range from u / gamma ~ 1e154 on
        arm = build_anharmonic(3, 1.0, u)
        expected = oracle_integral(arm, arm, l=1).value
        values = (_plain_diagonal(arm, arm)[-1] / 9, _array_diagonals([(arm, arm)])[0][-1] / 9,
                  _reverse_pass(arm, arm)[0] / 9, on_arrays(_reverse_pass, arm, arm)[0] / 9)
        for value in values:
            assert value == pytest.approx(expected, rel=0.0, abs=1e-12)
        assert values[0] == values[1] and values[2] == values[3]

    @pytest.mark.parametrize("shift", [1e3, 1e10, 1e200])
    def test_a_vanishing_accumulator_keeps_the_pass_finite(self, shift):
        # the corner's x is the lowest rung's 1e-300, so from a shift of about
        # 2e8 on y / x overflows, which one branch would turn into nan
        a = DecayLadder(levels=2, rates=(1e-300, 1.0), frequencies=(0.0, 0.0))
        b = DecayLadder(levels=2, rates=(1e-300, 1.0), frequencies=(shift, shift))
        expected = oracle_integral(a, b, l=1).value
        values = (_plain_diagonal(a, b)[-1] / 4, _array_diagonals([(a, b)])[0][-1] / 4,
                  _reverse_pass(a, b)[0] / 4, on_arrays(_reverse_pass, a, b)[0] / 4)
        for value in values:
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert values[0] == values[1] and values[2] == values[3]


class TestTrustAtScale:
    """float64 against an extended-precision copy of the forward pass at a
    thousand photons per arm, where no oracle reaches."""

    def test_float64_matches_longdouble_at_m_1000(self):
        dicke = build_dicke(1000, 1.0)
        exact = longdouble_corner(dicke)
        assert abs(_recurrence(dicke, dicke).corner - exact) <= 1e-13 * abs(exact)
        kerr = build_anharmonic(1000, 1.0, 1.0)
        exact = longdouble_corner(kerr)
        assert abs(_recurrence(kerr, kerr).corner - exact) <= 1e-13 * abs(exact)
        assert abs(_reverse_pass(kerr, kerr)[0] - exact) <= 1e-13 * abs(exact)


class TestHeisenbergConstant:
    """Dicke twins approach I = pi^2 / 12, so F_Q -> (pi^2 / 24) N^2."""

    def test_the_dicke_limit_is_pi_squared_over_twelve(self):
        ms = (1000, 2000, 4000)
        values = [exchange_integral(twin(build_dicke(m, 1.0))).value for m in ms]
        # the three-point fit of I = I_inf + (a ln m + b) / m
        limit = np.linalg.solve([[1.0, math.log(m) / m, 1.0 / m] for m in ms], values)[0]
        assert abs(limit - math.pi**2 / 12) <= 1e-6
        # m (pi^2 / 12 - I) is -(a ln m + b), which rises by -a ln 2 per doubling
        gaps = [m * (math.pi**2 / 12 - value) for m, value in zip(ms, values)]
        for low, high in zip(gaps, gaps[1:]):
            assert 0.120 <= high - low <= 0.125


class TestErrors:
    def test_rejects_delay(self):
        # a configuration has no delay: the exact delayed overlap is the
        # oracle's, the bound the budget's
        arm = build_dicke(2, 1.0)
        with pytest.raises(TypeError, match="TwinConfiguration takes the fields"):
            exchange_integral(TwinConfiguration(arm, arm, delay=0.1))


DICKE_RATIOS = [0.3, 0.5, 1.2, 2.0, 3.0]
KERR_PAIRS = [((1.0, 0.5), (2.0, 3.0)), ((1.0, 10.0), (1.5, 1.0)), ((0.3, 0.0), (2.0, 7.0))]


def _platform(n_photons, delta_gamma):
    # a budget platform whose only imperfection is the coupling mismatch
    return PlatformParams(quality_factor=1e6, group_index=10.0, wavelength=300e-9,
                          gamma_1d=1.0, gamma_star=0.0, n_photons=n_photons,
                          delta_gamma=delta_gamma)


class TestMixedRates:
    """Distinct arms: unequal couplings and Kerr ladders of different gamma, u."""

    def test_equal_couplings_reduce_to_twin(self):
        arm = build_dicke(3, 1.0)
        base = exchange_integral(twin(arm)).value
        assert exchange_integral(TwinConfiguration(arm, build_dicke(3, 1.0))).value == base

    @pytest.mark.parametrize(
        "arm", [build_dicke(5, 1.0), build_anharmonic(4, 1.0, 3.0)], ids=["dicke", "kerr"]
    )
    def test_split_reference_matches_recurrence(self, arm):
        reference = split_recurrence(arm, arm)
        assert reference == pytest.approx(exchange_integral(twin(arm)).value, rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    @pytest.mark.parametrize("ratio", [0.5, 1.2, 3.0])
    def test_distinct_arms_match_split_reference(self, m, ratio):
        a, b = build_dicke(m, 1.0), build_dicke(m, ratio)
        assert exchange_integral(TwinConfiguration(a, b)).value == pytest.approx(
            split_recurrence(a, b), rel=1e-13
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("ratio", DICKE_RATIOS)
    def test_dicke_arms_match_oracle(self, m, ratio):
        a, b = build_dicke(m, 1.0), build_dicke(m, ratio)
        rec = exchange_integral(TwinConfiguration(a, b)).value
        assert rec == pytest.approx(oracle_integral(a, b, l=1).value, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("pair", KERR_PAIRS, ids=["a", "b", "c"])
    def test_kerr_arms_match_oracle(self, m, pair):
        a, b = (build_anharmonic(m, gamma, u) for gamma, u in pair)
        rec = exchange_integral(TwinConfiguration(a, b)).value
        assert rec == pytest.approx(oracle_integral(a, b, l=1).value, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("m,ratio", [(2, 1.2), (3, 0.5)])
    def test_dicke_arms_match_rational_oracle(self, m, ratio):
        a, b = build_dicke(m, 1.0), build_dicke(m, ratio)
        exact = oracle_integral_exact(a, b, l=1)
        rec = exchange_integral(TwinConfiguration(a, b)).value
        assert rec == pytest.approx(float(exact), rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("ratio", [0.3, 0.5, 1.2, 3.0])
    def test_model_is_the_overlap_at_one_photon_per_arm(self, ratio):
        a, b = build_dicke(1, 1.0), build_dicke(1, ratio)
        exact = oracle_integral(a, b, l=1).value
        # one photon per arm: 2 sqrt(r) / (1 + r), squared
        assert exact == pytest.approx(4.0 * ratio / (1.0 + ratio) ** 2, rel=1e-14)
        assert exchange_integral(TwinConfiguration(a, b)).value == pytest.approx(
            exact, abs=1e-12
        )

    def test_documented_ten_photon_factor(self):
        # N = 10, gamma' = 1.2 gamma: the per-step model's factor was 0.9594;
        # test_budget checks this ratio against the oracle
        a, b = build_dicke(5, 1.0), build_dicke(5, 1.2)
        ratio = (exchange_integral(TwinConfiguration(a, b)).value
                 / exchange_integral(twin(a)).value)
        assert ratio == pytest.approx(0.984045, abs=5e-7)

    def test_quadratic_expansion(self):
        # small mismatch d: 1 - ratio = c d^2 + O(d^3), c independent of d
        c = [(1.0 - _mixed_coupling(_platform(100, d)).value) / d**2
             for d in (1e-2, 1e-3, -1e-3)]
        assert c[1] == pytest.approx(c[0], rel=0.02)
        assert c[2] == pytest.approx(c[1], rel=0.002)

    @pytest.mark.parametrize(
        "a,b",
        [(build_dicke(4, 1.0), build_dicke(4, 2.5)),
         (build_anharmonic(30, 1.0, 2.0), build_anharmonic(30, 0.7, 15.0)),
         (build_dicke(60, 1.0), build_anharmonic(60, 3.0, 0.5))],
        ids=["dicke", "kerr", "dicke-kerr"],
    )
    def test_symmetric_in_the_arms(self, a, b):
        forward = exchange_integral(TwinConfiguration(a, b)).value
        backward = exchange_integral(TwinConfiguration(b, a)).value
        assert forward == pytest.approx(backward, rel=1e-13, abs=0.0)

    @given(ratio=st.floats(0.05, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_ratio_inversion_symmetry(self, ratio):
        # scale invariance and arm symmetry: I(1, r) = I(1/r, 1) = I(1, 1/r)
        arm = build_dicke(3, 1.0)
        up = exchange_integral(TwinConfiguration(arm, build_dicke(3, ratio))).value
        down = exchange_integral(TwinConfiguration(arm, build_dicke(3, 1.0 / ratio))).value
        assert up == pytest.approx(down, rel=1e-12)

    def test_rejects_nonpositive_ratio(self):
        for d in (1.0, 2.0):
            with pytest.raises(ValueError, match="delta_gamma must be below 1"):
                _platform(4, d)


class TestAnharmonicFalloff:
    @pytest.mark.parametrize("u", [10.0, 1000.0])
    def test_consecutive_scaled_values_change_slowly(self, u):
        family = LadderFamily("anharmonic", u=u)
        previous = None
        for n in range(100, 201, 2):
            value = exchange_integral(twin(family.build_arm(n))).value
            scaled = n * value
            if previous is not None:
                assert abs(scaled - previous) / scaled <= 0.1
            previous = scaled


class TestSweep:
    def test_row_contents(self):
        rows = qfi_vs_n_sweep(LadderFamily("dicke"), [4, 8])
        assert [r["N"] for r in rows] == [4, 8]
        row = rows[0]
        assert row["I_N"] == pytest.approx(11.0 / 12.0, abs=1e-12)
        assert row["F_Q"] == pytest.approx(4 * (row["I_N"] * 4 + 2) / 2)
        assert row["dphi2"] == pytest.approx(1.0 / row["F_Q"])
        assert row["dphi2_snl"] == 0.25
        assert row["dphi2_hl"] == 0.0625
        assert row["dphi2_fock"] == pytest.approx(2.0 / 24.0)

    def test_harmonic_matches_fock_reference(self):
        rows = qfi_vs_n_sweep(LadderFamily("harmonic"), [4, 10, 30])
        for row in rows:
            assert row["dphi2"] == pytest.approx(row["dphi2_fock"], rel=1e-9)

    def test_rejects_odd_totals(self):
        with pytest.raises(ValueError):
            qfi_vs_n_sweep(LadderFamily("dicke"), [4, 5])
        # a non-integral total is not truncated to the even number below it
        for n in (4.5, 4.9, math.inf, math.nan):
            with pytest.raises(ValueError, match="even >= 2"):
                qfi_vs_n_sweep(LadderFamily("dicke"), [n])
        rows = qfi_vs_n_sweep(LadderFamily("dicke"), [4.0, np.int64(6)])
        assert [row["N"] for row in rows] == [4, 6]
        assert all(type(row["N"]) is int for row in rows)

    def test_worker_count_is_clamped(self):
        cores = os.cpu_count() or 1
        assert _worker_count(10**9, 3) == min(3, cores)
        assert _worker_count(10**9, 10**9) == cores
        assert _worker_count(None, 4) == 1
        assert _worker_count(-3, 4) == 1

    def test_parallel_matches_serial(self):
        family = LadderFamily("dicke")
        serial = qfi_vs_n_sweep(family, [4, 8, 12, 16], jobs=1)
        parallel = qfi_vs_n_sweep(family, [4, 8, 12, 16], jobs=2)
        assert serial == parallel  # bit-identical rows, order preserved

    def test_deterministic_repeats(self):
        family = LadderFamily("anharmonic", u=10.0)
        first = qfi_vs_n_sweep(family, [6, 12])
        second = qfi_vs_n_sweep(family, [6, 12])
        assert first == second

    def test_per_point_errors_flag_rows(self, monkeypatch):
        def boom(pairs):
            raise RuntimeError("synthetic failure")

        # the group's pass fails, and flags each of its points
        monkeypatch.setattr(exchange_module, "_diagonals", boom)
        rows = exchange_module.qfi_vs_n_sweep(LadderFamily("dicke"), [4, 8])
        assert rows == [{"N": n, "error": "RuntimeError: synthetic failure"} for n in (4, 8)]

    def test_nested_rows_match_the_forward_pass_in_input_order(self):
        family = LadderFamily("anharmonic", gamma=0.5, u=5.0)
        n_values = [12, 4, 30, 12, 8, 4]
        rows = qfi_vs_n_sweep(family, n_values)
        assert [r["N"] for r in rows] == n_values
        for row in rows:
            forward = point_row(family, row["N"])
            assert set(row) == set(forward)
            assert abs(row["I_N"] - forward["I_N"]) <= 1e-13 * forward["I_N"]
            assert row["dphi2_fock"] == forward["dphi2_fock"]
        assert rows[0] == rows[3] and rows[1] == rows[5]

    @pytest.mark.parametrize("gamma", [1.0, 1e-6])
    def test_harmonic_rows_stay_at_most_one(self, gamma):
        rows = qfi_vs_n_sweep(LadderFamily("harmonic", gamma=gamma), range(2, 802, 2))
        values = [r["I_N"] for r in rows]
        assert all(1.0 - 1e-13 <= v <= 1.0 for v in values)

    def test_nested_sweep_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "fork", refuse)
        rows = qfi_vs_n_sweep(LadderFamily("anharmonic", u=1.0), [4, 8, 12], jobs=4)
        assert all("error" not in r for r in rows)
        # two groups of Dicke points (m = 2 < 20 / 2) share a pool
        with pytest.raises(AssertionError, match="pool"):
            qfi_vs_n_sweep(LadderFamily("dicke"), [4, 40], jobs=2)
        # one group runs in-process
        assert qfi_vs_n_sweep(LadderFamily("dicke"), [4, 8], jobs=2)

    def test_nested_overshoot_flags_its_row_only(self, monkeypatch):
        # diagonal entry d holds (2 - d)^2 I; the two-photon arm's reads high
        monkeypatch.setattr(exchange_module, "_reverse_pass",
                            lambda a, b: np.array([4.0 * (1.0 + 1e-9), 1.0]))
        low, high = qfi_vs_n_sweep(LadderFamily("harmonic"), [2, 4])
        assert low["I_N"] == 1.0 and "error" not in low
        assert high["error"].startswith("InvalidLadderError: overlap")

    def test_an_overflow_flags_only_the_rows_it_reaches(self, monkeypatch):
        # the overflow reaches every harmonic sub-lattice but the one-photon
        # one, which the forward pass of its own arm confirms
        last_step_overflows(monkeypatch)
        family = LadderFamily("harmonic")
        rows = qfi_vs_n_sweep(family, [2, 12, 4, 2])
        assert rows[0] == rows[3] == point_row(family, 2)
        assert rows[0]["I_N"] == 1.0
        for row in rows[1:3]:
            assert row == point_row(family, row["N"])
            assert row["error"] == "InvalidLadderError: recurrence produced nonfinite entries"

    def test_failed_pass_flags_every_row(self, monkeypatch):
        def boom(a, b):
            raise InvalidLadderError("synthetic failure")

        monkeypatch.setattr(exchange_module, "_reverse_pass", boom)
        rows = qfi_vs_n_sweep(LadderFamily("anharmonic", u=1.0), [8, 4])
        assert rows == [{"N": n, "error": "InvalidLadderError: synthetic failure"}
                        for n in (8, 4)]

    def test_empty_sweep(self):
        assert qfi_vs_n_sweep(LadderFamily("harmonic"), []) == []
        assert qfi_vs_n_sweep(LadderFamily("dicke"), []) == []

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            LadderFamily("squeezed")


@pytest.fixture
def forks(monkeypatch):
    """Counts the children this process forks and the most alive at once,
    forbids a bare ``os.wait``, and reports eight cores, so that a pool of
    up to eight workers runs on any host."""
    fork, waitpid = os.fork, os.waitpid
    seen = {"forks": 0, "alive": set(), "peak": 0}

    def counting_fork():
        pid = fork()
        if pid:
            seen["forks"] += 1
            seen["alive"].add(pid)
            seen["peak"] = max(seen["peak"], len(seen["alive"]))
        return pid

    def counting_waitpid(pid, options):
        status = waitpid(pid, options)
        seen["alive"].discard(pid)
        return status

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "waitpid", counting_waitpid)
    monkeypatch.delattr(os, "wait")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    return seen


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkPool:
    """Dicke groups in forked children: rows, limits and clean-up."""

    # photon numbers per arm 40, 20 | 4, 2: two groups
    N_VALUES = [4, 40, 8, 80]

    def test_a_killed_child_reruns_its_points(self, forks, monkeypatch):
        family = LadderFamily("dicke")
        serial = qfi_vs_n_sweep(family, self.N_VALUES, jobs=1)
        parent, group = os.getpid(), exchange_module._dicke_group
        in_parent = []

        def dies_in_a_child(family, ms):
            if os.getpid() == parent:
                in_parent.append(ms)
            elif 40 in ms:
                os._exit(1)
            return group(family, ms)

        monkeypatch.setattr(exchange_module, "_dicke_group", dies_in_a_child)
        assert qfi_vs_n_sweep(family, self.N_VALUES, jobs=2) == serial
        # the dead child's group reruns whole in the parent, the other not at all
        assert forks["forks"] == 2 and in_parent == [[40, 20]]
        assert_no_children()

    def test_a_failed_group_in_a_child_reruns_its_points(self, forks, monkeypatch):
        spread_arms(monkeypatch)
        family = LadderFamily("dicke")
        serial = qfi_vs_n_sweep(family, [2, 4, 40], jobs=1)
        assert [("error" in row) for row in serial] == [False, True, True]
        assert qfi_vs_n_sweep(family, [2, 4, 40], jobs=2) == serial
        # a group that raises in its child sends no result and reruns in the parent
        parent, group = os.getpid(), exchange_module._dicke_group

        def raises_in_a_child(family, ms):
            if os.getpid() != parent:
                raise RuntimeError("synthetic failure")
            return group(family, ms)

        monkeypatch.setattr(exchange_module, "_dicke_group", raises_in_a_child)
        assert qfi_vs_n_sweep(family, [2, 4, 40], jobs=2) == serial
        assert forks["forks"] == 4
        assert_no_children()

    def test_a_parent_failure_reaps_every_child(self, forks, monkeypatch):
        import select

        def fails(*args):
            raise RuntimeError("parent failed")

        monkeypatch.setattr(select, "select", fails)
        with pytest.raises(RuntimeError, match="parent failed"):
            qfi_vs_n_sweep(LadderFamily("dicke"), self.N_VALUES, jobs=2)
        assert forks["forks"] == 2 and not forks["alive"]
        assert_no_children()

    def test_at_most_workers_children_at_once(self, forks):
        # photon numbers per arm 63, 31, 15, 7, 3, 1: six groups of one
        n_values = [2, 6, 14, 30, 62, 126]
        rows = qfi_vs_n_sweep(LadderFamily("dicke"), n_values, jobs=3)
        assert rows == qfi_vs_n_sweep(LadderFamily("dicke"), n_values, jobs=1)
        assert forks["forks"] == 6 and forks["peak"] == 3
        assert_no_children()

    def test_without_fork_the_sweep_runs_in_process(self, forks, monkeypatch):
        family = LadderFamily("dicke")
        serial = qfi_vs_n_sweep(family, self.N_VALUES, jobs=1)
        monkeypatch.delattr(os, "fork")
        assert qfi_vs_n_sweep(family, self.N_VALUES, jobs=2) == serial
        assert forks["forks"] == 0

    def test_the_pool_imports_no_executor(self):
        import subprocess
        import sys
        from pathlib import Path

        import dickeqfi

        probe = ("import os, sys\n"
                 "from dickeqfi.exchange import LadderFamily, qfi_vs_n_sweep\n"
                 "os.cpu_count = lambda: 2\n"
                 "forks = []\n"
                 "fork = os.fork\n"
                 "os.fork = lambda: forks.append(1) or fork()\n"
                 "rows = qfi_vs_n_sweep(LadderFamily('dicke'), [4, 40], jobs=2)\n"
                 "print(len(forks), all('error' not in r for r in rows),"
                 " [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n")
        src = str(Path(dickeqfi.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, check=True, timeout=120).stdout
        assert out.splitlines() == ["2 True []"]
