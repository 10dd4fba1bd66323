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
overflow.  Ladders with unequal level spacings make the one-pending
table and its exponent accumulator complex (transition-frequency
mismatches between the two pending branches); ladders whose level
frequencies are all zero (Dicke, harmonic) keep them in float64.  The
final integral is provably real and is assembled from the real part of
the coupled term, so the top table stays real throughout.

The corner is a linear path sum over the lattice: each entry is a
weighted sum of its two predecessors and of the lower tables at the same
node, with weights set by the two ladders alone.  Running the transposed
(adjoint) recurrence back from the corner therefore gives, at every node
(d, d), the corner of the sub-lattice that starts there, which is the
recurrence of the arms' lowest m - d rungs.  The adjoint is itself a
forward pass over the reversed lattice, with the zero- and two-pending
roles swapped, so the one antidiagonal kernel runs both directions.  For
cavity ladders the sub-lattices are the (m - d)-photon arms themselves:
rung k decays at k gamma and sits at k(k-1) u whatever the photon
number, so a smaller arm is the bottom rungs of a larger one, and one
adjoint pass at the largest photon number gives a whole sweep for the
cost of one recurrence.  Dicke arms do not nest: rung k of m emitters
decays at k(m-k+1) gamma, so each Dicke point needs its own forward pass.

The forward pass fills the tables of several pairs at once, one pair per
column, so one numpy call per antidiagonal serves them all.  For one pair
up to m ~ 1000 that call's fixed cost, not its cells, dominates a pass;
the width-4 and width-5 batches of a Dicke sweep at m ~ 300-1000 spend
about half their time in cells.  With M the largest photon number of the
batch, pair p's tables are the top-left m_p x m_p block of the M x M
lattice.  Its coefficient rows past its own arms are pads (accumulator
rates 1, every numerator and the cross factor 0), so each entry outside
its tables is 0 / positive * finite = 0 exactly, and an entry inside
reads only its own neighbours or the edge pads: every column computes its
one-pair pass's values bit for bit.  The one zero accumulator of a pair,
c2 at its corner, is reset to 1 once the corner is computed, so the pad
entries beyond it divide by 1, not 0.  A Dicke sweep groups photon
numbers within a factor of two of each other, so the pads cost little.  The groups of a sweep run in forked children,
at most ``jobs`` at a time; when some group takes the array pass, the
parent imports numpy before it forks, so no child imports it again, and a
group whose child dies reruns in the parent.  No step of a pass checks its
entries: ``_overlap`` reads every overlap (of one pair, a Dicke group or a
cavity sub-lattice) from its corner, which a nonfinite entry anywhere in
the pair's tables makes nonfinite, and no other pair's: an overflow flags
its own rows only.

A real twin pair, whose arms have equal coefficient vectors (compared by
value) and no level frequency, has symmetric tables, f(i, j) = f(j, i),
so a pass whose pairs are all real twins computes the entries i <= j
only: rows lo..k // 2 of antidiagonal k.  The one lower entry that they
read is the diagonal's left neighbour (k/2, k/2 - 1), and before each
even antidiagonal the pass copies its mirror (k/2 - 1, k/2) into its
slot.  That halves the cells of Dicke batches, twin overlaps and harmonic
adjoints at every size, with the same numpy calls.  A full pass would sum
a mirrored entry's three terms the other way round, so the two differ in
the last bits; a pass with some Kerr pair (table 1 is only
conjugate-symmetric) or distinct arms computes the full lattice, but
still copies the mirror into each real twin column, so that column keeps
its one-pair bits.

Every pass, forward or adjoint, is read through ``_diagonals`` as table
2's diagonal f2(d, d): a forward pass's last entry is its corner, and the
adjoint's entries are the sub-lattice corners.  One cell rule, written
once (``_real_cell``, and ``_complex_cell`` for Kerr pairs, whose complex
operations it spells out in real ones), fills a cell in Python floats or a
whole antidiagonal in arrays with the same bits, so a pass of at most
``_PLAIN_CELLS`` cells in all runs in floats (``_plain_diagonal``) and
only the array pass imports numpy.

Both passes build a pair's coefficient vectors at one scale: each rate and
frequency of its two arms is multiplied by the power of four that brings
the pair's largest rate into [1/2, 2) (``_rate_shift``).  A power of four
has an exact square root, so every vector and every table entry keeps its
bits; the scale only stops products such as sqrt(g g') from underflowing
or overflowing, which read a wrong overlap at gamma below about 1e-154 and
a nonfinite one above about 1e154 when the rates entered as given.
"""
from __future__ import annotations

import math
import os
from functools import partial

from .ladder import (
    DecayLadder, Record, TwinConfiguration, build_anharmonic, build_dicke, build_harmonic,
)
from .metrology import _OVERSHOOT_TOL, qfi_twin
from .oracle import ExchangeIntegral

# Most cells per antidiagonal in one batched Dicke pass (P pairs of at most
# M photons per arm hold P M cells, counted over the full lattice: a twin
# pass computes about half of them): past it, the wider buffers cost more
# memory than the saved numpy calls are worth.
_BATCH_CELLS = 4096

# Most cells (m^2 summed over its pairs, counted over the full lattice: a
# twin pair's half pass computes m(m + 1)/2 of them) in a pass in Python
# floats.  With numpy loaded, one real twin pair at m = 64 takes about 0.55
# times its array time plain, a Kerr pair about 0.95 times and four real
# twins at m = 32 about 1.0 times; a pass within the limit needs no numpy
# import, which costs about 0.1 s.
_PLAIN_CELLS = 4096


class InvalidLadderError(ValueError):
    """Ladder cannot be integrated (nonpositive rates, rates or frequencies
    beyond the float range at the pair's scale, or an overlap that is
    nonfinite or exceeds one)."""


def _rate_shift(a: DecayLadder, b: DecayLadder) -> int:
    """The even exponent 2k for which 2^(2k) times the pair's largest rate
    lies in [1/2, 2): the scale that the coefficient vectors of the pair
    are built at (see ``_ladder_vectors``)."""
    return -2 * (math.frexp(max(*a.rates, *b.rates))[1] // 2)


def _ladder_vectors(arm: DecayLadder, shift: int) -> dict[str, list[float]]:
    """The length-m coefficient vectors that every table entry is built from,
    with the arm's rates and frequencies multiplied by 2^shift.

    Entry (i, j) has the exponent accumulators c0 = gr0[i] + gr0[j],
    c2 = gr2[i] + gr2[j] and c1 = (c0 + c2)/2 + 1j (dw[i] - dw[j]), the
    cross numerator sq[i] sq[j], and steps down in i with numerators
    n0[i], n1[i], n2[i] for the zero-, one- and two-pending tables.
    An even shift multiplies every vector by an exact power of two, the
    square roots included, so each table entry keeps its bits.  A rate
    that the shift takes to zero lies 2^1074 or more below the pair's
    largest, and is rejected with the nonpositive ones; so is a frequency
    that it takes past the float range, some 1e308 times the largest rate.
    """
    m = arm.levels
    g = [0.0, *(math.ldexp(rate, shift) for rate in arm.rates)]
    if not all(rate > 0.0 for rate in g[1:]):
        raise InvalidLadderError("all ladder rates must be positive, within a factor "
                                 "2^1074 of the pair's largest")
    try:
        w = [0.0, *(math.ldexp(freq, shift) for freq in arm.frequencies)]
    except OverflowError:
        raise InvalidLadderError("level frequencies overflow at the pair's rate scale") from None
    gr0 = g[m:0:-1]  # accumulator rate with i swapped-pending: g[m - i]
    # index 0 never steps down: its unit numerators meet only pads and the seed
    return {
        "gr0": gr0,
        "gr2": g[m - 1::-1],
        "dw": [w[k] - w[k - 1] for k in range(m, 0, -1)],
        "sq": [math.sqrt(rate) for rate in gr0],
        "n0": [1.0, *g[m:1:-1]],
        "n1": [1.0, *(math.sqrt(g[k] * g[k + 1]) for k in range(m - 1, 0, -1))],
        "n2": list(gr0),
    }


def _real_twin(va: dict, vb: dict) -> bool:
    """Whether a pair's coefficient vectors are equal and real (no level
    frequency): then each of its tables is symmetric, f(i, j) = f(j, i)."""
    return va == vb and not any(va["dw"])


def _real_cell(c0, r1, c2, s, na, nb, up, left):
    """Entry (i, j) of the three tables: the cell rule of both passes, on
    Python floats for one cell or on antidiagonal slices (a column per
    pair) for a whole antidiagonal, whose elementwise operators round each
    IEEE operation as floats do, so both passes give the same bits.

    c0, c2 and r1 = 1 / c1 are the entry's accumulators, s its cross
    numerator (see ``_ladder_vectors``), and na and nb the numerators
    (n0, n1, n2) of its steps down arm a (row i) and arm b (column j).
    ``up`` and ``left``, the neighbours (i - 1, j) and (i, j - 1), hold the
    state that this returns: (c0, 1 / c1, c2, f0, f1, f2).  Each table sums
    n f / c over the two neighbours (n1 f1 / c1 for table 1); f1 adds
    (s / c0) f0, and f2 adds 2 s Re(f1 / c1), the coupled contribution of
    the two swapped-time branches, which are complex conjugates.

    Every product and sum is formed in place, with augmented operators, on
    an array that the rule itself made (f0, f1, f2 and the term t), never on
    an argument: on arrays the arguments are views into the pass's
    coefficient and state buffers, and an antidiagonal allocates only the
    rule's own temporaries.  On floats the same statements round the same
    IEEE operations in the same order.
    """
    (na0, na1, na2), (nb0, nb1, nb2) = na, nb
    (u0, u1, u2, q0, q1, q2), (l0, l1, l2, p0, p1, p2) = up, left
    f0 = na0 / u0
    f0 *= q0
    t = nb0 / l0
    t *= p0
    f0 += t
    f1 = s / c0
    f1 *= f0
    t = na1 * u1
    t *= q1
    f1 += t
    t = nb1 * l1
    t *= p1
    f1 += t
    f2 = f1 * r1
    f2 *= 2.0 * s
    t = na2 / u2
    t *= q2
    f2 += t
    t = nb2 / l2
    t *= p2
    f2 += t
    return c0, r1, c2, f0, f1, f2


def _complex_cell(c0, r, c2, s, na, nb, up, left):
    """``_real_cell`` for a complex table 1 (a Kerr pair), with r = 1 / c1 as
    (Re, Im) and the state (c0, Re 1 / c1, c2, f0, Re f1, Im f1,
    Im(1 / c1) Im f1, Im(f1 / c1), f2), whose last two the two successors read.

    Complex operations are spelt out in float ones, so IEEE operations
    alone set each bit: numpy's complex loops may fuse a multiply and an
    add, which floats cannot repeat, and their bits depend on the host's
    SIMD path.  Re f1 keeps the real rule's (n1 Re a1) Re p1 of each
    neighbour's a1 = 1 / c1 and p1 = f1, less its n1 Im a1 Im p1; Im f1
    sums their n1 Im(a1 p1).  Zero imaginary parts add terms of 0, so a
    real column of a complex batch keeps its real pass's bits.
    """
    (r1, ri), (na0, na1, na2), (nb0, nb1, nb2) = r, na, nb
    (u0, u1, u2, q0, q1, _, qh, qg, q2), (l0, l1, l2, p0, p1, _, ph, pg, p2) = up, left
    f0 = na0 / u0
    f0 *= q0
    t = nb0 / l0
    t *= p0
    f0 += t
    f1 = s / c0
    f1 *= f0
    t = na1 * u1
    t *= q1
    f1 += t
    t = nb1 * l1
    t *= p1
    f1 += t
    t = na1 * qh
    t += nb1 * ph
    f1 -= t
    fi = na1 * qg
    fi += nb1 * pg
    h = fi * ri
    g = f1 * ri
    g += fi * r1
    f2 = f1 * r1
    f2 -= h
    f2 *= 2.0 * s
    t = na2 / u2
    t *= q2
    f2 += t
    t = nb2 / l2
    t *= p2
    f2 += t
    return c0, r1, c2, f0, f1, fi, h, g, f2


def _smith(x, y):
    """1 / (x - iy) as (Re, Im) in Smith's form (1 / d, t / d), t = y / x and
    d = x + y t, so 1 / x exactly at y = 0.  Where d overflows, Re reads 0 and
    both passes take Smith's other branch: x and y swapped, parts reversed."""
    t = y / x
    d = x + y * t
    return 1.0 / d, t / d


def _antidiagonals(pairs, vectors=None):
    """Fill the three tables of every pair of arms in one pass, yielding
    ``(lo, f0, f1, f2)`` per antidiagonal.

    Pair p is column p of every array, so each numpy call covers all the
    pairs.  Within a pair, row i steps down arm a's ladder and column j
    arm b's, and the two arms have the same photon number m_p.  With M the
    largest m_p, antidiagonal k holds the entries (i, k - i) for
    i = lo..lo + len - 1 of the M x M lattice, whose top-left m_p x m_p
    block is pair p's tables.  The cell state (see ``_real_cell``) of the
    previous antidiagonal sits in a (pieces, M + 1, P) buffer with entry i
    in row i + 1, so the neighbours (i - 1, j) and (i, j - 1) are the
    contiguous row blocks [lo:hi + 1] and [lo + 1:hi + 2], and the missing
    neighbours on the lattice's edges read a pad: f = 0, accumulators 1.
    Arm b's coefficients are stored reversed, so its rows are blocks too.
    The yielded arrays are views into buffers that the next steps
    overwrite; a complex batch's f1 is its (2, len, P) planes Re and Im.

    A pass whose pairs are all real twins (``_real_twin``) yields rows
    lo..k // 2 only, the entries i <= j; in any pass, the state of a real
    twin column's entry (k/2, k/2 - 1) is overwritten with its mirror's
    before antidiagonal k, as the module docstring explains.

    ``vectors`` maps an arm and its pair's ``_rate_shift`` to its
    coefficient vectors: ``_adjoint_vectors`` for the adjoint, else
    ``_ladder_vectors``, looked up per call.  On antidiagonal 0, once c1 is
    formed, a zero c0 reads as 1: the adjoint seeds at the forward corner,
    where c2 = 0, and its seed enters table 1 undivided (a forward c0 is
    positive).  Table 1 is complex only if some arm has a level frequency.
    """
    import numpy as np

    vectors = vectors or _ladder_vectors
    size, width = max(a.levels for a, _ in pairs), len(pairs)
    # Coefficient rows outside a pair's arm are pads: with sq = 0 and zero
    # numerators, every entry past the pair's table stays exactly 0.
    pads = {"gr0": 1.0, "gr2": 1.0, "dw": 0.0, "sq": 0.0, "n0": 0.0, "n1": 0.0, "n2": 0.0}
    column = np.array([*pads.values()])[:, None, None]
    vec, rev = (np.broadcast_to(column, (len(pads), size, width)).copy() for _ in "ab")
    corners = {}  # the pairs whose corner (m_p - 1, m_p - 1) is on antidiagonal k, by k
    for p, (a, _) in enumerate(pairs):
        corners.setdefault(2 * a.levels - 2, []).append(p)
    twins = []  # the real twin pairs, whose tables are symmetric
    with np.errstate(all="ignore"):
        for p, (a, b) in enumerate(pairs):
            m, shift = a.levels, _rate_shift(a, b)
            va = vectors(a, shift)
            vb = va if b is a else vectors(b, shift)
            if _real_twin(va, vb):
                twins.append(p)
            for row, name in enumerate(pads):
                vec[row, :m, p] = va[name]
                rev[row, size - m:, p] = vb[name][::-1]
        (gr0_a, gr2_a, dw_a, sq_a), n_a = vec[:4], vec[4:]
        (gr0_b, gr2_b, dw_b, sq_b), n_b = rev[:4], rev[4:]
        # Table 1 is real when no arm has a level frequency, so every dw is 0.
        reach = 2.0 * max(np.abs(dw_a).max(), np.abs(dw_b).max())
        real = not reach
        cell = _real_cell if real else _complex_cell
        # Smith's d = x + y (y / x) overflows only where y^2 / x leaves the
        # float range.  x is at least half the least gr0 + gr2, and |y| at
        # most twice the largest |dw|, so most passes need no check.
        least = min((gr0_a + gr2_a).min(), (gr0_b + gr2_b).min()) / 2.0
        may_overflow = not reach / least * reach < 2.0**1000
        # The cell state of the previous antidiagonal, then of this one: pads
        # of 1 for the accumulators and 0 for the rest, but for the base entry
        # f0(0, 0) = 1, the up neighbour of (0, 0) on antidiagonal -1, whose
        # numerator n0[0] and accumulator pad are both 1.
        both = [np.zeros((6 if real else 9, size + 1, width)) for _ in "ab"]
        both[0][:3] = both[1][:3] = 1.0
        both[0][3, 0] = 1.0
        half = len(twins) == width
        mirror = slice(None) if half else twins
        for k in range(2 * size - 1):
            prev, state = both
            lo, hi = max(0, k - size + 1), k // 2 if half else min(size - 1, k)
            if twins and k and k % 2 == 0:
                # the diagonal's left neighbour (k/2, k/2 - 1) reads as its mirror
                prev[:, k // 2 + 1, mirror] = prev[:, k // 2, mirror]
            # i-indexed coefficients and up neighbours share one slice
            i = up = slice(lo, hi + 1)
            j, left = slice(size - 1 - k + lo, size - k + hi), slice(lo + 1, hi + 2)
            # the accumulators go straight into the state, the table entries by copy
            c0 = np.add(gr0_a[i], gr0_b[j], out=state[0, left])
            c2 = np.add(gr2_a[i], gr2_b[j], out=state[2, left])
            x = c0 + c2
            x /= 2.0
            if k == 0:
                c0[c0 == 0.0] = 1.0  # an adjoint seed: see the docstring
            if real:
                r = np.divide(1.0, x, out=state[1, left])
            else:
                y = dw_b[j] - dw_a[i]
                r = _smith(x, y)
                if may_overflow and not r[0].all():
                    over = r[0] == 0.0
                    r[1][over], r[0][over] = _smith(y[over], x[over])
                state[1, left] = r[0]
            state[3:, left] = cell(c0, r, c2, sq_a[i] * sq_b[j], n_a[:, i], n_b[:, j],
                                   prev[:, up], prev[:, left])[3:]
            # a corner has no successor in its own table; past it, c2 = 1
            # keeps the pair's pad entries at 0 / 1 * 0 instead of 0 / 0
            for p in corners.get(k, ()):
                state[2, k // 2 + 1, p] = 1.0
            yield lo, state[3, left], state[4, left] if real else state[4:6, left], state[-1, left]
            prev[3, 0] = 0.0  # the base entry is read on antidiagonal 0 only
            both.reverse()


def _array_diagonals(pairs, vectors=None) -> list[list[float]]:
    """Table 2's diagonal f2(d, d), d < m_p, of each pair from one batched
    array pass: row d of antidiagonal 2d holds entry (d, d) of every pair."""
    rows = [f2[k // 2 - lo].tolist()
            for k, (lo, _, _, f2) in enumerate(_antidiagonals(pairs, vectors)) if k % 2 == 0]
    return [[row[p] for row in rows[:a.levels]] for p, (a, _) in enumerate(pairs)]


def _plain_diagonal(a: DecayLadder, b: DecayLadder, vectors=None) -> list[float]:
    """Table 2's diagonal f2(d, d), d < m, of one pair from a pass in Python
    floats, row by row, with ``_antidiagonals``' ``vectors``, edge, seed,
    cell rule and, for a real twin pair, half lattice: an entry depends
    only on its neighbours, so it has that pass's bits.  A float overflows
    to inf or nan without raising, and no other divisor is zero: every
    accumulator but the forward corner's c2, which divides nothing, is a
    sum of positive rates, and Smith's d is at least x or |y|.
    """
    m, shift = a.levels, _rate_shift(a, b)
    vectors = vectors or _ladder_vectors
    va = vectors(a, shift)
    vb = va if b is a else vectors(b, shift)
    real = not any(va["dw"]) and not any(vb["dw"])
    half = _real_twin(va, vb)
    cell = _real_cell if real else _complex_cell
    rows, cols = (list(zip(v["gr0"], v["gr2"], v["dw"], v["sq"], zip(v["n0"], v["n1"], v["n2"])))
                  for v in (va, vb))
    edge = (1.0, 1.0, 1.0, *(0.0,) * (3 if real else 6))  # f = 0, accumulators 1
    above = [(1.0, 1.0, 1.0, 1.0, *edge[4:])] + [edge] * (m - 1)
    diagonal = []
    for i, (ga0, ga2, wa, sa, na) in enumerate(rows):
        # a half pass runs row i from j = i, whose left neighbour mirrors its up one
        start = i if half else 0
        row, left = [], above[0] if start else edge
        for up, (gb0, gb2, wb, sb, nb) in zip(above, cols[start:]):
            c0, c2 = ga0 + gb0, ga2 + gb2
            x = (c0 + c2) / 2.0
            r = 1.0 / x if real else _smith(x, wb - wa)
            if not real and r[0] == 0.0:  # d overflowed: Smith's other branch
                r = _smith(wb - wa, x)[::-1]
            left = cell(c0 or 1.0, r, c2, sa * sb, na, nb, up, left)  # c0 = 0: a seed
            row.append(left)
        diagonal.append(row[i - start][-1])
        above = row[1:] if half else row
    return diagonal


def _on_arrays(ms) -> bool:
    """Whether a pass over pairs of ``ms`` photons per arm runs on arrays."""
    return sum(m * m for m in ms) > _PLAIN_CELLS


def _diagonals(pairs, vectors=None) -> list[list[float]]:
    """Table 2's diagonal f2(d, d), d < m_p, of each pair, from the plain pass
    or, ``_on_arrays``, the array pass, with the same bits: the one entry to
    a pass in either direction (``vectors`` as in ``_antidiagonals``).  A
    forward pass's last entry is its corner, m_p^2 times the overlap."""
    if _on_arrays(a.levels for a, _ in pairs):
        return _array_diagonals(pairs, vectors)
    return [_plain_diagonal(a, b, vectors) for a, b in pairs]


def _overlap(m: int, corner: float) -> float:
    """The overlap corner / m^2 of two m-photon arms, with a rounding
    overshoot of one clipped back to one (harmonic ladders, where I = 1
    exactly, read a few ulps high).

    This is the recurrence's one finiteness check.  Every entry of a pair's
    three tables reaches its corner through strictly positive weights (n0,
    n1, n2, s / c0, and Re(1 / c1) > 0 into table 2), and 0 * inf and
    inf - inf are nan, so a nonfinite entry anywhere leaves the corner
    nonfinite; columns of a batched pass share no arithmetic, so it leaves
    exactly that pair's corner nonfinite.
    """
    if not math.isfinite(corner):
        raise InvalidLadderError("recurrence produced nonfinite entries")
    value = corner / m**2
    if value > 1.0 + _OVERSHOOT_TOL:
        raise InvalidLadderError(f"overlap {value!r} exceeds one beyond rounding")
    return min(value, 1.0)


def _adjoint_vectors(arm: DecayLadder, shift: int) -> dict[str, list[float]]:
    """The coefficient vectors of the adjoint recurrence, which is a forward
    pass over the reversed lattice: the vectors reversed, the zero- and
    two-pending roles swapped, and each numerator of the step into row
    i + 1 moved to row i of the reversed arm, with 1 at index 0 to seed
    the pass."""
    v = _ladder_vectors(arm, shift)
    swap = {"gr0": "gr2", "gr2": "gr0", "n0": "n2", "n2": "n0"}
    adjoint = {name: v[swap.get(name, name)][::-1] for name in v}
    for name in ("n0", "n1", "n2"):
        adjoint[name] = [1.0, *adjoint[name][:-1]]
    return adjoint


def _reverse_pass(a: DecayLadder, b: DecayLadder) -> list[float]:
    """The adjoint of the forward pass: for every d = 0..m-1, the corner
    of the recurrence of the two arms' sub-lattice from (d, d).

    Entry (i, j) of each adjoint table is the derivative of the corner
    f2(m-1, m-1) with respect to a unit source in the forward table at
    (i, j), so it sums the forward weights along every path from (i, j)
    to the corner.  A forward pass seeds f0 = 1 at its start, so l0(d, d)
    is the corner of a pass over the arms' lowest m - d rungs: (m-d)^2
    I(m-d) for a nested family.  The kernel runs the adjoint on the
    reversed lattice (``_adjoint_vectors``), where table 2 at node
    (d', d'), d' = m-1-d, holds l0(d, d) times the forward c0(d, d), which
    is rates_a[d'] + rates_b[d'] at the pair's scale.  Returns l0(d, d) by d.
    """
    shift = _rate_shift(a, b)
    diagonal = _diagonals([(a, b)], _adjoint_vectors)[0]
    return [f / (math.ldexp(rate_a, shift) + math.ldexp(rate_b, shift))
            for f, rate_a, rate_b in zip(diagonal, a.rates, b.rates)][::-1]


def exchange_integral(config: TwinConfiguration) -> ExchangeIntegral:
    """Exchange integral of a configuration via the table recurrence.

    The two arms may be any ladders with the same photon number, arriving
    together; the exact delayed overlap is the oracle's ``delay`` and the
    analytic delay bound is the budget's ``arrival_delay`` entry.
    """
    a, b = config.ladder_a, config.ladder_b
    return ExchangeIntegral(
        value=_overlap(a.levels, _diagonals([(a, b)])[0][-1]),
        total_photons=config.total_photons,
        method="recurrence",
        exchanged_count=1,
    )


class LadderFamily(Record):
    """Family of arm ladders swept against the total photon number;
    ``kind`` is dicke, harmonic or anharmonic."""

    __slots__ = ("kind", "gamma", "u")
    _defaults = {"gamma": 1.0, "u": 0.0}

    def __post_init__(self):
        if self.kind not in ("dicke", "harmonic", "anharmonic"):
            raise ValueError(f"unknown ladder family {self.kind!r}")

    @property
    def nested(self) -> bool:
        """Whether each arm is the bottom rungs of every larger arm (cavity
        ladders, not Dicke ones: see the module docstring)."""
        return self.kind != "dicke"

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


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sweep_row(n_total: int, outcome: float | str) -> dict:
    """Row of total photon number ``n_total`` from the corner of its arm
    pair, or from the failure text that stands in for one; a failure flags
    the row, not the sweep."""
    if isinstance(outcome, str):
        return {"N": n_total, "error": outcome}
    try:
        value = _overlap(n_total // 2, outcome)
        qfi = qfi_twin(n_total, value)
        return dict(zip(SWEEP_COLUMNS, (n_total, value, qfi, 1.0 / qfi, 1.0 / n_total,
                                        1.0 / n_total**2, 2.0 / (n_total * (n_total + 2.0)))))
    except (InvalidLadderError, ArithmeticError) as exc:
        return {"N": n_total, "error": _failure(exc)}


def _nested_sweep(family: LadderFamily, n_values: list[int]) -> list[dict]:
    """Rows of a nested family from one reverse pass at the largest N; an
    overflow flags only the rows whose sub-lattices it reaches."""
    try:
        arm = family.build_arm(max(n_values))
        corners = _reverse_pass(arm, arm)
    except Exception as exc:  # no point has an overlap: every row says why
        return [_sweep_row(n, _failure(exc)) for n in n_values]
    return [_sweep_row(n, corners[arm.levels - n // 2]) for n in n_values]


def _dicke_groups(ms) -> list[list[int]]:
    """Distinct photon numbers per arm, largest first, cut into batched
    passes: a pass whose largest is M takes the next m while m >= M/2 and
    its antidiagonals hold at most ``_BATCH_CELLS`` cells."""
    groups: list[list[int]] = []
    for m in sorted(set(ms), reverse=True):
        group = groups[-1] if groups else []
        if group and 2 * m >= group[0] and (len(group) + 1) * group[0] <= _BATCH_CELLS:
            group.append(m)
        else:
            groups.append([m])
    return groups


def _dicke_group(family: LadderFamily, ms: list[int]) -> list[float | str]:
    """One outcome per Dicke point with ``ms`` photons per arm: the corner
    of its pair from one batched pass, or the failure text of its own arm's
    build; a failure of the pass itself flags every point of the group."""
    outcomes, arms = {}, {}
    for m in ms:
        try:
            arms[m] = family.build_arm(2 * m)
        except Exception as exc:
            outcomes[m] = _failure(exc)
    try:
        diagonals = _diagonals([(arm, arm) for arm in arms.values()])
        outcomes.update(zip(arms, (diagonal[-1] for diagonal in diagonals)))
    except Exception as exc:
        outcomes.update(dict.fromkeys(arms, _failure(exc)))
    return [outcomes[m] for m in ms]


def _fork_map(func, tasks: list, workers: int) -> list:
    """``[func(task) for task in tasks]``, each call in a forked child, with
    at most ``workers`` children alive at a time.

    A forked child starts with the parent's modules, so what the parent has
    imported (numpy, when some group takes the array pass) is paid for
    once; the children run elementwise numpy only, so they never need the
    BLAS threads that a forked child lacks.
    Each child sends its result back through a pipe with ``marshal`` and
    leaves with ``os._exit``, so it runs no cleanup of the parent's and
    flushes no inherited stdout buffer.  A child that dies without a result
    gives None.  The parent waits on its own children only, and kills and
    reaps any still running when it raises.
    """
    import marshal
    import select
    import signal

    results = [None] * len(tasks)
    todo = list(enumerate(tasks))[::-1]  # popped from the end, in task order
    children = {}  # read end of a child's pipe -> (task index, pid, chunks read)
    try:
        while todo or children:
            while todo and len(children) < workers:
                index, task = todo.pop()
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:
                    status = 1
                    try:
                        os.close(read)
                        with os.fdopen(write, "wb") as pipe:
                            pipe.write(marshal.dumps(func(task)))
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write)
                children[read] = (index, pid, [])
            for read in select.select(list(children), [], [])[0]:
                index, pid, chunks = children[read]
                chunk = os.read(read, 1 << 16)
                if chunk:
                    chunks.append(chunk)
                    continue
                del children[read]
                os.close(read)
                if os.waitpid(pid, 0)[1] == 0:
                    results[index] = marshal.loads(b"".join(chunks))
    finally:
        for read, (_, pid, _) in children.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _dicke_sweep(family: LadderFamily, n_values: list[int], jobs: int | None) -> list[dict]:
    """Rows of a Dicke family, a group of points per pass (see
    ``_dicke_groups``), the groups, largest first, in at most ``jobs``
    forked children; without ``os.fork`` they run in-process."""
    groups = _dicke_groups(n // 2 for n in n_values)
    workers = _worker_count(jobs, len(groups)) if hasattr(os, "fork") else 1
    found = [None] * len(groups)
    if workers > 1:
        if any(_on_arrays(ms) for ms in groups):
            import numpy  # noqa: F401  (imported once, here, not in every child)

        found = _fork_map(partial(_dicke_group, family), groups, workers)
    # a group whose child died, or that no child ran, runs in the parent
    outcomes = {m: outcome for ms, group in zip(groups, found)
                for m, outcome in zip(ms, _dicke_group(family, ms) if group is None else group)}
    return [_sweep_row(n, outcomes[n // 2]) for n in n_values]


def _worker_count(jobs: int | None, tasks: int) -> int:
    """Pool size: at least one, and no more than tasks or logical cores."""
    return max(1, min(jobs or 1, tasks, os.cpu_count() or 1))


def qfi_vs_n_sweep(family: LadderFamily, n_values, jobs: int | None = None) -> list[dict]:
    """Phase-sensitivity table over total photon numbers.

    Rows carry the exchange integral, the resulting quantum Fisher
    information, the per-shot phase variance and the shot-noise,
    Heisenberg and photon-number-state references, in input order.  A
    nested family takes every point from one reverse pass, and ``jobs``
    is unused; Dicke points run in batched passes, the passes in at most
    ``jobs`` forked children (in-process where ``os.fork`` is missing).
    """
    totals = []
    for n in n_values:
        if n % 2 or n < 2 or n != int(n):
            raise ValueError(f"total photon number must be even >= 2, got {n}")
        totals.append(int(n))
    if not totals:
        return []
    if family.nested:
        return _nested_sweep(family, totals)
    return _dicke_sweep(family, totals, jobs)
