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
column, so one numpy call per antidiagonal serves them all; up to
m ~ 1000 that call's fixed cost, not its cells, dominates a pass.  With M
the largest photon number of the batch, pair p's tables are the top-left
m_p x m_p block of the M x M lattice.  Its coefficient rows past its own
arms are pads (accumulator rates 1, every numerator and the cross factor
0), so each entry outside its tables is 0 / positive * finite = 0
exactly, and an entry inside reads only its own neighbours or the edge
pads: every column computes its one-pair pass's values bit for bit.  The
one zero accumulator of a pair, c2 at its corner, is reset to 1 once the
corner is computed, so the pad entries beyond it divide by 1, not 0.  A
Dicke sweep groups photon numbers within a factor of two of each other,
so the pads cost little.  The groups of a sweep run in forked children,
at most ``jobs`` at a time; when some group takes the array pass, the
parent imports numpy before it forks, so no child imports it again, and a
group whose child dies reruns in the parent.  No step of a pass checks its
entries: ``_overlap`` reads every overlap (of one pair, a Dicke group or a
cavity sub-lattice) from its corner, which a nonfinite entry anywhere in
the pair's tables makes nonfinite, and no other pair's: an overflow flags
its own rows only.

Small passes skip numpy.  When the pairs hold at most ``_PLAIN_CELLS``
cells in all, ``_plain_corner`` fills each pair's tables in Python floats,
each cell with the array pass's float operations in their order, so both
passes give the same bits; ``report`` up to N = 128, ``verify`` and small
sweeps then never import numpy.  Both passes carry a complex (Kerr) entry
as its real and imaginary parts and spell every complex operation out in
float operations (see ``_antidiagonals``), so real and Kerr pairs take the
same plain pass, and no bit depends on the SIMD loops that numpy picks on
the host.  The adjoint pass stays on arrays.

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
from .metrology import twin_qfi
from .oracle import ExchangeIntegral

# numpy is imported by the functions that build arrays: the command
# line imports this module for every subcommand, and parity and the plain
# pass never need it.

# Largest excess over I = 1 accepted as rounding (seen: 1.6e-15 at m = 200).
_OVERSHOOT_TOL = 1e-12

# Most cells per antidiagonal in one batched Dicke pass (P pairs of at most
# M photons per arm hold P M cells): past it, the wider buffers cost more
# memory than the saved numpy calls are worth.
_BATCH_CELLS = 4096

# Most cells (m^2 summed over its pairs) in a pass that runs in Python floats
# rather than numpy (``_plain_corner``).  With numpy loaded, one Kerr pair at
# m = 64 takes about 3.3 ms plain against 5 ms on arrays (they meet near
# m = 90), and a real pair about 3.3 ms either way; a pass within the limit
# needs no numpy import, which costs about 0.1 s.
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


def _antidiagonals(pairs, vectors=None):
    """Fill the three tables of every pair of arms in one pass, yielding
    ``(lo, f0, f1, f2)`` per antidiagonal.

    Pair p is column p of every array, so each numpy call covers all the
    pairs.  Within a pair, row i steps down arm a's ladder and column j
    arm b's, and the two arms have the same photon number m_p.  With M the
    largest m_p, antidiagonal k holds the entries (i, k - i) for
    i = lo..lo + len - 1 of the M x M lattice, whose top-left m_p x m_p
    block is pair p's tables.  Each table's previous antidiagonal sits in
    an (M + 1, P) buffer with entry i in row i + 1, so the neighbours
    (i - 1, j) and (i, j - 1) are the contiguous row blocks [lo:hi + 1]
    and [lo + 1:hi + 2], and the missing neighbours on the lattice's edges
    read a zero pad.  The j-indexed coefficients are row blocks of arm b's
    vectors stored reversed.  The yielded arrays are views into buffers
    that the next steps overwrite.

    ``vectors`` maps an arm and its pair's ``_rate_shift`` to its
    coefficient vectors: ``_adjoint_vectors`` for the adjoint, else
    ``_ladder_vectors``, looked up on each call as the other passes look it
    up.  On antidiagonal 0, once c1 is formed, a zero c0 reads as 1: the
    adjoint seeds at the forward corner, where c2 = 0, and its seed enters
    table 1 undivided.  A forward pass has c0(0, 0) > 0, so this leaves it
    as is.

    Table 1 is complex only if some arm has a level frequency.  Its
    accumulator buffer holds the reciprocal 1 / c1, so each use of it is a
    multiply; a real batch runs in float64 throughout.  A complex batch
    spells every complex operation out in float64 ufuncs on real and
    imaginary parts, so IEEE float operations alone set each entry's bits
    and ``_plain_corner`` can repeat them: numpy's complex loops may fuse a
    multiply and an add, which Python floats cannot repeat, and their bits
    depend on the SIMD path numpy picks on the host.  With c1 = x - iy,
    the reciprocal is Smith's (1 / d, t / d), t = y / x and d = x + y t,
    which is exactly the real pass's 1 / x when y = 0.  Where d overflows
    (y^2 / x past the float range) the cell takes Smith's other branch,
    t = x / y and d = y + x t, giving (t / d, 1 / d), so no overflow drops
    a term silently; a pass whose frequencies cannot reach that far skips
    the check.  With a1 and p1 a neighbour's 1 / c1 and f1, table 1's
    update keeps the real pass's products (n1 Re a1) Re p1 and subtracts
    n1 Im a1 Im p1 for each neighbour; its imaginary part sums
    n1 Im(a1 p1).  With zero imaginary parts every added term is 0, so a
    real column of a complex batch keeps its real pass's bits.

    Table 1's buffers have a leading plane axis.  Plane 0 holds Re f1, which
    both kinds of batch write with one sum, and is a real batch's only one.
    A complex batch adds Im f1, Im(1 / c1) Im f1 and Im(f1 / c1) in planes
    1 to 3, the last two read by the entry's two successors, so each is
    formed once; it yields f1 as its (2, len, P) planes 0 and 1.
    """
    import numpy as np

    vectors = vectors or _ladder_vectors
    size, width = max(a.levels for a, _ in pairs), len(pairs)
    # Coefficient rows outside a pair's arm are pads: with sq = 0 and zero
    # numerators, every entry past the pair's table stays exactly 0.
    pads = {"gr0": 1.0, "gr2": 1.0, "dw": 0.0, "sq": 0.0, "n0": 0.0, "n1": 0.0, "n2": 0.0}
    vec = {name: np.full((size, width), pad) for name, pad in pads.items()}
    rev = {name: np.full((size, width), pad) for name, pad in pads.items()}
    corners = _corner_steps(pairs)
    with np.errstate(all="ignore"):
        for p, (a, b) in enumerate(pairs):
            m, shift = a.levels, _rate_shift(a, b)
            for name, v in vectors(a, shift).items():
                vec[name][:m, p] = v
            for name, v in vectors(b, shift).items():
                rev[name][size - m:, p] = v[::-1]
        # Table 1 is real when no arm has a level frequency, so every dw is 0.
        reach = 2.0 * max(np.abs(v["dw"]).max() for v in (vec, rev))
        real = not reach
        if not real:
            # Smith's d = x + y (y / x) overflows only where y^2 / x leaves the
            # float range.  x is at least half the least gr0 + gr2, and |y| at
            # most twice the largest |dw|, so most passes need no check.
            least = min((v["gr0"] + v["gr2"]).min() for v in (vec, rev)) / 2.0
            may_overflow = not reach / least * reach < 2.0**1000
        # Accumulators of the previous antidiagonal, with pads of 1: a pad
        # neighbour then adds numerator / 1 * 0 = 0.  The base entry
        # f0(0, 0) = 1 enters as the up neighbour of (0, 0) on antidiagonal
        # -1, whose numerator n0[0] and accumulator pad are both 1.  Buffer
        # 1 holds reciprocals (their real parts, in a complex batch), and its
        # pads read 1 / 1 = 1 as well.
        shape = (size + 1, width)
        planes = (1 if real else 4, *shape)  # table 1's: see the docstring
        c_prev = [np.ones(shape) for _ in range(3)]
        c_next = [np.ones(shape) for _ in range(3)]
        f_prev = [np.zeros(shape), np.zeros(planes), np.zeros(shape)]
        f_next = [np.zeros(shape), np.zeros(planes), np.zeros(shape)]
        f_prev[0][0] = 1.0
        # arm a's coefficient columns (row i) and arm b's reversed ones (j)
        gr0_a, gr2_a, dw_a, sq_a, n0_a, n1_a, n2_a = (vec[name] for name in pads)
        gr0_b, gr2_b, dw_b, sq_b, n0_b, n1_b, n2_b = (rev[name] for name in pads)
        for k in range(2 * size - 1):
            lo, hi = max(0, k - size + 1), min(size - 1, k)
            # i-indexed coefficients and up neighbours share one slice
            i = up = slice(lo, hi + 1)
            j, left = slice(size - 1 - k + lo, size - k + hi), slice(lo + 1, hi + 2)
            (a0, a1, a2), (b0, b1, b2) = c_prev, c_next
            (p0, p1, p2), (q0, q1, q2) = f_prev, f_next
            c0 = np.add(gr0_a[i], gr0_b[j], out=b0[left])
            c2 = np.add(gr2_a[i], gr2_b[j], out=b2[left])
            x = (c0 + c2) / 2.0  # c1 = x - iy, y = dw_b[j] - dw_a[i]
            if k == 0:
                c0[c0 == 0.0] = 1.0  # an adjoint seed: see the docstring
            s = sq_a[i] * sq_b[j]
            f0 = np.add(n0_a[i] / a0[up] * p0[up], n0_b[j] / a0[left] * p0[left], out=q0[left])
            # buffer 1 holds 1 / c1, so a1 is the previous reciprocal
            r1 = b1[left]
            if real:
                np.divide(1.0, x, out=r1)
            else:
                # 1 / c1 in Smith's form: see the docstring
                y = dw_b[j] - dw_a[i]
                t = y / x
                d = x + y * t
                np.divide(1.0, d, out=r1)
                ri = t / d
                if may_overflow and not r1.all():
                    _smith_overflow(x, y, r1, ri)
            na, nb = n1_a[i], n1_b[j]
            f1 = np.add(s / c0 * f0 + na * a1[up] * p1[0, up], nb * a1[left] * p1[0, left],
                        out=q1[0, left])
            if real:
                coupled = f1 * r1
            else:
                # less each neighbour's n1 Im a1 Im p1, then Im f1 and the
                # products Im r1 Im f1 and Im(r1 f1) that its successors read
                np.subtract(f1, na * p1[2, up] + nb * p1[2, left], out=f1)
                fi = np.add(na * p1[3, up], nb * p1[3, left], out=q1[1, left])
                h = np.multiply(fi, ri, out=q1[2, left])
                np.add(f1 * ri, fi * r1, out=q1[3, left])
                coupled = f1 * r1 - h
                f1 = q1[:2, left]
            # the two swapped-time branches are complex conjugates, so their
            # coupled contribution is twice the real part of f1 / c1
            f2 = np.add(
                2.0 * s * coupled + n2_a[i] / a2[up] * p2[up],
                n2_b[j] / a2[left] * p2[left],
                out=q2[left],
            )
            # a corner has no successor in its own table; past it, c2 = 1
            # keeps the pair's pad entries at 0 / 1 * 0 instead of 0 / 0
            for p in corners.get(k, ()):
                b2[k // 2 + 1, p] = 1.0
            yield lo, f0, f1, f2
            p0[0] = 0.0  # the base entry is read on antidiagonal 0 only
            c_prev, c_next = c_next, c_prev
            f_prev, f_next = f_next, f_prev


def _smith_overflow(x, y, rr, ri) -> None:
    """Redo, in Smith's other branch, the cells of 1 / (x - iy) = rr + i ri
    whose d = x + y (y / x) overflowed (see ``_antidiagonals``)."""
    over = rr == 0.0
    x, y = x[over], y[over]
    t = x / y
    d = y + x * t
    rr[over], ri[over] = t / d, 1.0 / d


def _corner_steps(pairs) -> dict[int, list[int]]:
    """The pairs whose corner (m_p - 1, m_p - 1) lies on antidiagonal k, by k."""
    steps: dict[int, list[int]] = {}
    for p, (a, _) in enumerate(pairs):
        steps.setdefault(2 * a.levels - 2, []).append(p)
    return steps


def _array_corners(pairs) -> list[float]:
    """The corner of each pair from one batched array pass."""
    steps = _corner_steps(pairs)
    corners = [0.0] * len(pairs)
    for k, (lo, _, _, f2) in enumerate(_antidiagonals(pairs)):
        for p in steps.get(k, ()):
            corners[p] = float(f2[k // 2 - lo, p])
    return corners


def _plain_corner(a: DecayLadder, b: DecayLadder) -> float:
    """The corner of one pair of ladders from a pass in Python floats.

    Each cell repeats ``_antidiagonals``' float operations in its order, on
    the same coefficient vectors, so the corner has the array pass's bits:
    an entry depends only on its neighbours, so filling row by row instead
    of by antidiagonals changes no value.  A cell keeps what its successors
    read: c0, Re(1 / c1) and c2, then f0, Re f1, Im(1 / c1) Im f1,
    Im(f1 / c1) and f2; a real pair carries zero imaginary parts, which
    leave its real operations as they are.  The row above (i = -1) and the
    column left of j = 0 are the edge, read as f = 0 with accumulators 1,
    and the base f0 = 1 enters as the up neighbour of (0, 0).  A float
    overflows to inf or nan without raising, and no divisor is zero: every
    accumulator but the corner's c2, which divides nothing, is a sum of
    positive rates, and Smith's d is at least x or |y| in size.
    """
    m, shift = a.levels, _rate_shift(a, b)
    va, vb = _ladder_vectors(a, shift), _ladder_vectors(b, shift)
    names = ("gr0", "gr2", "dw", "sq", "n0", "n1", "n2")
    rows, cols = zip(*(va[name] for name in names)), list(zip(*(vb[name] for name in names)))
    # per cell of the row above, as the docstring lists them
    edge = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    above = [(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)] + [edge] * (m - 1)
    for ga0, ga2, wa, sa, na0, na1, na2 in rows:
        row = []
        l0, l1, l2, p0, p1, ph, pg, p2 = edge
        for (u0, u1, u2, q0, q1, qh, qg, q2), (gb0, gb2, wb, sb, nb0, nb1, nb2) in zip(above, cols):
            c0 = ga0 + gb0
            c2 = ga2 + gb2
            x = (c0 + c2) / 2.0
            y = wb - wa
            t = y / x
            d = x + y * t
            r1, ri = 1.0 / d, t / d
            if r1 == 0.0:  # d overflowed: Smith's other branch
                t = x / y
                d = y + x * t
                r1, ri = t / d, 1.0 / d
            s = sa * sb
            f0 = na0 / u0 * q0 + nb0 / l0 * p0
            f1 = s / c0 * f0 + na1 * u1 * q1 + nb1 * l1 * p1 - (na1 * qh + nb1 * ph)
            fi = na1 * qg + nb1 * pg
            h = fi * ri
            g = f1 * ri + fi * r1
            f2 = 2.0 * s * (f1 * r1 - h) + na2 / u2 * q2 + nb2 / l2 * p2
            l0, l1, l2, p0, p1, ph, pg, p2 = cell = (c0, r1, c2, f0, f1, h, g, f2)
            row.append(cell)
        above = row
    return f2


def _corners(pairs) -> list[float]:
    """The corner f2(m_p - 1, m_p - 1) of each pair's tables, which is
    m_p^2 times its overlap: from the plain pass when the pairs hold at
    most ``_PLAIN_CELLS`` cells in all, else from one batched array pass.
    Both give the same bits."""
    if sum(a.levels**2 for a, _ in pairs) <= _PLAIN_CELLS:
        return [_plain_corner(a, b) for a, b in pairs]
    return _array_corners(pairs)


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


def _reverse_pass(a: DecayLadder, b: DecayLadder):
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
    is rates_a[d'] + rates_b[d'] at the pair's scale.  Returns l0(d, d),
    indexed by d.
    """
    import numpy as np

    m, shift = a.levels, _rate_shift(a, b)
    corners = np.empty(m)
    for k, (lo, _, _, f2) in enumerate(_antidiagonals([(a, b)], _adjoint_vectors)):
        if k % 2 == 0:
            d = k // 2
            c0 = math.ldexp(a.rates[d], shift) + math.ldexp(b.rates[d], shift)
            corners[m - 1 - d] = f2[d - lo, 0] / c0
    return corners


def exchange_integral(config: TwinConfiguration) -> ExchangeIntegral:
    """Exchange integral of a zero-delay configuration via the table recurrence.

    The two arms may be any ladders with the same photon number; delayed
    arrival is exact-oracle territory (the analytic delay bound lives in
    the error-budget module).
    """
    if config.delay != 0.0:
        raise ValueError("recurrence handles zero delay only; use the oracle for the "
                         "exact delayed value or the budget bound")
    a, b = config.ladder_a, config.ladder_b
    return ExchangeIntegral(
        value=_overlap(a.levels, _corners([(a, b)])[0]),
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
        qfi = twin_qfi(n_total, value)
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
    return [_sweep_row(n, float(corners[arm.levels - n // 2])) for n in n_values]


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
        outcomes.update(zip(arms, _corners([(arm, arm) for arm in arms.values()])))
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
        if any(sum(m * m for m in ms) > _PLAIN_CELLS for ms in groups):
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
