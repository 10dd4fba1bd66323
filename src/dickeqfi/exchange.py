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
at most ``jobs`` at a time; the parent imports numpy before it forks, so
no child imports it again.
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
# line imports this module for every subcommand, and parity never needs it.

# Largest excess over I = 1 accepted as rounding (seen: 1.6e-15 at m = 200).
_OVERSHOOT_TOL = 1e-12

# Most cells per antidiagonal in one batched Dicke pass (P pairs of at most
# M photons per arm hold P M cells): past it, the wider buffers cost more
# memory than the saved numpy calls are worth.
_BATCH_CELLS = 4096


class InvalidLadderError(ValueError):
    """Ladder cannot be integrated (nonpositive exponent accumulator)."""


class RecurrenceState(Record):
    """Outcome of the one-pass recurrence: its last table entry.

    The pass walks the three tables antidiagonal by antidiagonal and
    keeps only the previous antidiagonal of each, so it costs O(m^2)
    time and O(m) memory; ``corner`` is the rescaled two-pending entry
    (m-1, m-1), which is m^2 times the overlap.
    """

    __slots__ = ("photons_per_arm", "corner")

    @property
    def value(self) -> float:
        """The overlap, with a rounding overshoot of one clipped back to one.

        Harmonic ladders, where I = 1 exactly, come out a few ulps high.
        """
        value = self.corner / self.photons_per_arm**2
        if value > 1.0 + _OVERSHOOT_TOL:
            raise InvalidLadderError(f"overlap {value!r} exceeds one beyond rounding")
        return min(value, 1.0)


def _ladder_vectors(arm: DecayLadder) -> dict[str, np.ndarray]:
    """The length-m coefficient vectors that every table entry is built from.

    Entry (i, j) has the exponent accumulators c0 = gr0[i] + gr0[j],
    c2 = gr2[i] + gr2[j] and c1 = (c0 + c2)/2 + 1j (dw[i] - dw[j]), the
    cross numerator sq[i] sq[j], and steps down in i with numerators
    n0[i], n1[i], n2[i] for the zero-, one- and two-pending tables.
    """
    import numpy as np

    m = arm.levels
    g = np.concatenate(([0.0], np.asarray(arm.rates, dtype=float)))
    w = np.concatenate(([0.0], np.asarray(arm.frequencies, dtype=float)))
    if np.any(g[1:] <= 0.0):
        raise InvalidLadderError("all ladder rates must be positive")
    idx = np.arange(m)
    # index 0 never steps down: its unit numerators meet only pads and the seed
    n0 = np.ones(m)
    n1 = np.ones(m)
    n0[1:] = g[m - idx[1:] + 1]
    n1[1:] = np.sqrt(g[m - idx[1:]] * g[m - idx[1:] + 1])
    return {
        "gr0": g[m - idx],  # accumulator rate with i swapped-pending
        "gr2": g[m - 1 - idx],
        "dw": w[m - idx] - w[m - 1 - idx],
        "sq": np.sqrt(g[m - idx]),
        "n0": n0,
        "n1": n1,
        "n2": g[m - idx],
    }


def _antidiagonals(pairs, vectors=_ladder_vectors):
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

    ``vectors`` maps an arm to its coefficient vectors: ``_ladder_vectors``
    for the forward recurrence, ``_adjoint_vectors`` for its adjoint.  On
    antidiagonal 0, once c1 is formed, a zero c0 reads as 1: the adjoint
    seeds at the forward corner, where c2 = 0, and its seed enters table 1
    undivided.  A forward pass has c0(0, 0) > 0, so this leaves it as is.

    Table 1 and its accumulator buffer are complex only if some arm has a
    nonzero level frequency, and the buffer holds 1 / c1, so each of its
    three uses is a multiply.  numpy divides by a complex (c, 0) in
    Smith's form, as x * (1 / c), so the float64 pass of real ladders
    repeats the complex pass's bits; dividing by c in real arithmetic
    would move values by an ulp or so.
    """
    import numpy as np

    size, width = max(a.levels for a, _ in pairs), len(pairs)
    # Coefficient rows outside a pair's arm are pads: with sq = 0 and zero
    # numerators, every entry past the pair's table stays exactly 0.
    pads = {"gr0": 1.0, "gr2": 1.0, "dw": 0.0, "sq": 0.0, "n0": 0.0, "n1": 0.0, "n2": 0.0}
    vec = {name: np.full((size, width), pad) for name, pad in pads.items()}
    rev = {name: np.full((size, width), pad) for name, pad in pads.items()}
    corners = _corner_steps(pairs)
    with np.errstate(all="ignore"):
        for p, (a, b) in enumerate(pairs):
            m = a.levels
            for name, v in vectors(a).items():
                vec[name][:m, p] = v
            for name, v in vectors(b).items():
                rev[name][size - m:, p] = v[::-1]
        # Accumulators of the previous antidiagonal, with pads of 1: a pad
        # neighbour then adds numerator / 1 * 0 = 0.  The base entry
        # f0(0, 0) = 1 enters as the up neighbour of (0, 0) on antidiagonal
        # -1, whose numerator n0[0] and accumulator pad are both 1.  Buffer
        # 1 holds reciprocals, and its pads read 1 / 1 = 1 as well.
        real = not any(any(a.frequencies) or any(b.frequencies) for a, b in pairs)
        shape, types = (size + 1, width), (float, float if real else complex, float)
        c_prev = [np.ones(shape, dtype=t) for t in types]
        c_next = [np.ones(shape, dtype=t) for t in types]
        f_prev = [np.zeros(shape, dtype=t) for t in types]
        f_next = [np.zeros(shape, dtype=t) for t in types]
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
            c1 = (c0 + c2) / 2.0
            if not real:
                c1 = c1 + 1j * (dw_a[i] - dw_b[j])
            if k == 0:
                c0[c0 == 0.0] = 1.0  # an adjoint seed: see the docstring
            # buffer 1 holds 1 / c1, so a1 is the previous reciprocal
            r1 = np.divide(1.0, c1, out=b1[left])
            s = sq_a[i] * sq_b[j]
            f0 = np.add(n0_a[i] / a0[up] * p0[up], n0_b[j] / a0[left] * p0[left], out=q0[left])
            f1 = np.add(
                s / c0 * f0 + n1_a[i] * a1[up] * p1[up],
                n1_b[j] * a1[left] * p1[left],
                out=q1[left],
            )
            # the two swapped-time branches are complex conjugates, so their
            # coupled contribution is twice the real part
            f2 = np.add(
                2.0 * s * (f1 * r1).real + n2_a[i] / a2[up] * p2[up],
                n2_b[j] / a2[left] * p2[left],
                out=q2[left],
            )
            # One sum checks all three tables: a nonfinite f0 or f1 entry
            # reaches f2 at its own cell, since s / c0 >= 0 and 0 * inf is nan,
            # and the finite entries are dimensionless, bounded by about m^2,
            # so their sum cannot overflow.
            if not math.isfinite(f2.sum()):
                raise InvalidLadderError("recurrence produced nonfinite entries")
            # a corner has no successor in its own table; past it, c2 = 1
            # keeps the pair's pad entries at 0 / 1 * 0 instead of 0 / 0
            for p in corners.get(k, ()):
                b2[k // 2 + 1, p] = 1.0
            yield lo, f0, f1, f2
            p0[0] = 0.0  # the base entry is read on antidiagonal 0 only
            c_prev, c_next = c_next, c_prev
            f_prev, f_next = f_next, f_prev


def _corner_steps(pairs) -> dict[int, list[int]]:
    """The pairs whose corner (m_p - 1, m_p - 1) lies on antidiagonal k, by k."""
    steps: dict[int, list[int]] = {}
    for p, (a, _) in enumerate(pairs):
        steps.setdefault(2 * a.levels - 2, []).append(p)
    return steps


def _corners(pairs) -> list[float]:
    """The corner f2(m_p - 1, m_p - 1) of each pair's tables, which is
    m_p^2 times its overlap, from one batched pass."""
    steps = _corner_steps(pairs)
    corners = [0.0] * len(pairs)
    for k, (lo, _, _, f2) in enumerate(_antidiagonals(pairs)):
        for p in steps.get(k, ()):
            corners[p] = float(f2[k // 2 - lo, p])
    return corners


def _adjoint_vectors(arm: DecayLadder) -> dict[str, np.ndarray]:
    """The coefficient vectors of the adjoint recurrence, which is a forward
    pass over the reversed lattice: the vectors reversed, the zero- and
    two-pending roles swapped, and each numerator of the step into row
    i + 1 moved to row i of the reversed arm, with 1 at index 0 to seed
    the pass."""
    import numpy as np

    v = _ladder_vectors(arm)
    swap = {"gr0": "gr2", "gr2": "gr0", "n0": "n2", "n2": "n0"}
    adjoint = {name: v[swap.get(name, name)][::-1] for name in v}
    for name in ("n0", "n1", "n2"):
        adjoint[name] = np.concatenate(([1.0], adjoint[name][:-1]))
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
    is rates_a[d'] + rates_b[d'].  Returns l0(d, d), indexed by d.
    """
    import numpy as np

    m = a.levels
    corners = np.empty(m)
    for k, (lo, _, _, f2) in enumerate(_antidiagonals([(a, b)], _adjoint_vectors)):
        if k % 2 == 0:
            d = k // 2
            corners[m - 1 - d] = f2[d - lo, 0] / (a.rates[d] + b.rates[d])
    return corners


def _recurrence(a: DecayLadder, b: DecayLadder) -> RecurrenceState:
    """Run the recurrence for arms a and b of equal photon number: a
    batch of one pair."""
    return RecurrenceState(photons_per_arm=a.levels, corner=_corners([(a, b)])[0])


def exchange_integral(config: TwinConfiguration) -> ExchangeIntegral:
    """Exchange integral of a zero-delay configuration via the table recurrence.

    The two arms may be any ladders with the same photon number; delayed
    arrival is exact-oracle territory (the analytic delay bound lives in
    the error-budget module).
    """
    if config.delay != 0.0:
        raise ValueError(
            "recurrence handles zero delay only; use the oracle for the "
            "exact delayed value or the budget bound"
        )
    state = _recurrence(config.ladder_a, config.ladder_b)
    return ExchangeIntegral(
        value=state.value,
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


def _error_row(n_total: int, exc: Exception) -> dict:
    return {"N": n_total, "error": f"{type(exc).__name__}: {exc}"}


def _sweep_row(n_total: int, overlap) -> dict:
    """Row of total photon number ``n_total``, whose overlap ``overlap()``
    computes; a failure flags the row, not the sweep."""
    try:
        value = overlap()
        qfi = twin_qfi(n_total, value)
        return {
            "N": n_total,
            "I_N": value,
            "F_Q": qfi,
            "dphi2": 1.0 / qfi,
            "dphi2_snl": 1.0 / n_total,
            "dphi2_hl": 1.0 / n_total**2,
            "dphi2_fock": 2.0 / (n_total * (n_total + 2.0)),
        }
    except Exception as exc:
        return _error_row(n_total, exc)


def _sweep_point(family: LadderFamily, n_total: int) -> dict:
    def overlap():
        arm = family.build_arm(n_total)
        return exchange_integral(TwinConfiguration(arm, arm)).value

    return _sweep_row(n_total, overlap)


def _overlap(m: int, corner: float) -> float:
    return RecurrenceState(photons_per_arm=m, corner=corner).value


def _nested_sweep(family: LadderFamily, n_values: list[int]) -> list[dict]:
    """Rows of a nested family from one reverse pass at the largest N."""
    try:
        arm = family.build_arm(max(n_values))
        corners = _reverse_pass(arm, arm)
    except Exception as exc:  # no point has an overlap: every row says why
        return [_error_row(n, exc) for n in n_values]
    return [_sweep_row(n, partial(_overlap, n // 2, float(corners[arm.levels - n // 2])))
            for n in n_values]


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


def _dicke_group(family: LadderFamily, ms: list[int]) -> list[float] | None:
    """Corners of the Dicke points with ``ms`` photons per arm from one
    batched pass, or None if the pass fails."""
    try:
        arms = [family.build_arm(2 * m) for m in ms]
        return _corners([(arm, arm) for arm in arms])
    except Exception:  # each point reruns alone and reports its own error
        return None


def _fork_map(func, tasks: list, workers: int) -> list:
    """``[func(task) for task in tasks]``, each call in a forked child, with
    at most ``workers`` children alive at a time.

    A forked child starts with the parent's modules, so what the parent has
    imported (numpy) is paid for once; the children run elementwise numpy
    only, so they never need the BLAS threads that a forked child lacks.
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
    if workers > 1:
        import numpy  # noqa: F401  (imported once, here, not in every child)

        found = _fork_map(partial(_dicke_group, family), groups, workers)
    else:
        found = [_dicke_group(family, ms) for ms in groups]
    corners = {m: c for ms, cs in zip(groups, found) if cs is not None for m, c in zip(ms, cs)}
    # the points of a failed pass rerun alone, so each failing point flags its own row
    return [_sweep_row(n, partial(_overlap, n // 2, corners[n // 2])) if n // 2 in corners
            else _sweep_point(family, n) for n in n_values]


def _worker_count(jobs: int | None, tasks: int) -> int:
    """Pool size: at least one, and no more than tasks or logical cores."""
    return max(1, min(jobs or 1, tasks, os.cpu_count() or 1))


def qfi_vs_n_sweep(
    family: LadderFamily, n_values, jobs: int | None = None
) -> list[dict]:
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
