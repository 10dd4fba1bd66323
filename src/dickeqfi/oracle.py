"""Brute-force evaluation of photon-exchange overlap integrals.

The time-domain amplitude of a decay cascade is a product of simple
exponentials once the emission times are ordered, so the overlap of a
wavepacket pair with l photon labels swapped between the two arms
reduces to a finite sum of nested exponential integrals: one term per
interleaving of the emission times appearing in the four amplitude
factors.  Each interleaving integrates in closed form; the only
approximation anywhere is double-precision arithmetic.

Cost grows factorially with the photon number, which is the point: this
module is the independent, exact, small-scale reference that the
polynomial-cost recurrence is validated against.  One depth-first walk
over the interleavings computes each shared prefix once: at four photons
per arm and l = 1 that is 3.4k closed-form steps for 1120 interleavings,
not the 9k of walking each one from the top.  A size guard keeps
accidental large calls from running forever.

Bookkeeping. The integrand couples four cascade correlation functions:
the conjugated amplitude of each arm and the two label-swapped
unconjugated amplitudes.  Every emission time belongs to exactly two of
them.  Walking the interleavings from the latest time down, each time
fires the next pending transition of both its correlation functions,
contributing a sqrt(rate) numerator and an exponent increment; the
running exponent sums telescope to a positive real part, so every step
divides by a well-conditioned accumulator.  The float, rational and
delayed evaluations share that walk: each folds its partial value down
the common prefix, and the leaves are visited in lexicographic order and
summed in that order.  A delayed call also memoizes its window densities
and cross integrals, which repeat across orderings, for the length of
the call.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .ladder import DecayLadder

# Correlation functions: 0 = conjugated arm A, 1 = conjugated arm B,
# 2 = label-swapped arm A, 3 = label-swapped arm B.
_CORR_ARM = (0, 1, 0, 1)
_CORR_CONJ = (True, True, False, False)
# Symmetry groups of integration variables: swapped arm-A, regular arm-A,
# swapped arm-B and regular arm-B times, each with the two correlation
# functions its variables appear in.
_GROUP_CORRS = ((0, 3), (0, 2), (1, 2), (1, 3))

DEFAULT_MAX_TOTAL_PHOTONS = 8


class OracleTooLargeError(ValueError):
    """Requested size exceeds the factorial-cost guard."""


@dataclass(frozen=True)
class ExchangeIntegral:
    """Result of evaluating an exchange overlap integral.

    ``value`` is the (real) integral; ``imag_residual`` records the
    magnitude of the imaginary part discarded on extraction, a cheap
    confidence check since the integral is real for every valid input.
    """

    value: float
    total_photons: int
    method: str
    exchanged_count: int = 1
    imag_residual: float = 0.0

    def __post_init__(self):
        if self.method not in ("recurrence", "oracle"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.exchanged_count < 0:
            raise ValueError("exchanged_count must be nonnegative")


@dataclass(frozen=True)
class DelayCheck:
    """Exact delayed overlap next to its analytic lower bound."""

    exact: float
    bound: float
    reference: float  # zero-delay value of the same integral


def _group_counts(m: int, n: int, l: int):
    """Number of variables in each group of ``_GROUP_CORRS``."""
    return (l, m - l, l, n - l)


def _transition_steps(rates, freqs):
    """Rate and exponent increment of each transition, per correlation
    function in firing order.

    The increments are complex floats, or exact real numbers in the type
    of the rates (``Fraction``) when ``freqs`` is None.
    """
    steps = []
    for corr in range(4):
        arm = _CORR_ARM[corr]
        row = []
        for j, gam in enumerate(rates[arm]):
            inc = (gam - (rates[arm][j - 1] if j else 0)) / 2
            if freqs is not None:
                dw = freqs[arm][j] - (freqs[arm][j - 1] if j else 0.0)
                inc = complex(inc, -dw if _CORR_CONJ[corr] else dw)
            row.append((gam, inc))
        steps.append(row)
    return steps


def _walk(counts, memberships, steps, fold, root, leaf, dead=None):
    """Leaf values of a depth-first walk over all interleavings.

    The interleavings are the distinct orderings of group labels with
    multiplicities ``counts``, visited in lexicographic order, each read
    latest time first.  A slot of group g fires the next pending
    transition of every correlation function in ``memberships[g]``,
    adding its exponent increment to the running accumulator.
    ``fold(state, g, rates, acc)`` extends a path's partial value by one
    slot, given the rates fired and the accumulator after it, or returns
    None to prune the branch; ``leaf(state)`` turns a complete path into
    its value.  Two interleavings share the fold of their common prefix.
    A fold that returns ``dead`` marks a prefix all of whose completions
    have the value ``leaf(dead)``: that value is recorded once per
    completion, in place, without walking the subtree.
    """
    remaining = list(counts)
    fired = [0, 0, 0, 0]
    values = []

    def descend(state, acc, left):
        left -= 1
        for g, corrs in enumerate(memberships):
            c = remaining[g]
            if not c:
                continue
            rates = ()
            child_acc = acc
            for corr in corrs:
                gam, inc = steps[corr][fired[corr]]
                child_acc += inc
                rates += (gam,)
            child = fold(state, g, rates, child_acc)
            if child is None:
                continue
            if child is dead:
                remaining[g] = c - 1
                completions = math.factorial(left) // math.prod(
                    math.factorial(k) for k in remaining)
                values.extend([leaf(child)] * completions)
                remaining[g] = c
                continue
            if not left:
                values.append(leaf(child))
                continue
            remaining[g] = c - 1
            for corr in corrs:
                fired[corr] += 1
            descend(child, child_acc, left)
            for corr in corrs:
                fired[corr] -= 1
            remaining[g] = c

    descend(root, 0, sum(counts))
    return values


def _compensated_sum(terms):
    """Kahan sum of complex terms, nearly independent of their order."""
    total = comp = 0j
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _fold_float(val, g, rates, acc):
    """Closed-form factor of one slot: sqrt(rate) numerators over the
    running accumulator."""
    for gam in rates:
        val *= math.sqrt(gam)
    return val / acc


def _guard(m: int, n: int, l: int, limit: int):
    if m + n > limit:
        raise OracleTooLargeError(
            f"oracle limited to {limit} total photons "
            f"(requested {m + n}); raise max_total_photons to override"
        )
    if not 0 <= l <= min(m, n):
        raise ValueError(f"exchanged-pair count l={l} outside 0..{min(m, n)}")


def oracle_integral(
    ladder_a: DecayLadder,
    ladder_b: DecayLadder | None = None,
    l: int = 1,
    delay: float = 0.0,
    *,
    max_total_photons: int = DEFAULT_MAX_TOTAL_PHOTONS,
) -> ExchangeIntegral:
    """Exact exchange integral with l swapped photon pairs.

    ``l = 0`` returns the norm of the pair (one for any valid ladders);
    ``l = 1`` is the overlap entering the phase-sensitivity formulas.
    ``delay`` shifts arm B's wavefront and is supported for l <= 1.
    """
    if ladder_b is None:
        ladder_b = ladder_a
    m, n = ladder_a.levels, ladder_b.levels
    _guard(m, n, l, max_total_photons)
    if delay < 0.0:
        raise ValueError(f"delay must be nonnegative, got {delay}")
    if delay > 0.0 and l > 1:
        raise ValueError("delayed evaluation is supported for l <= 1 only")
    if delay > 0.0 and l == 1:
        total = _delayed_integral(ladder_a, ladder_b, delay)
    else:
        # With l = 0 the swap phases cancel pairwise, so any delay drops out.
        steps = _transition_steps(
            (ladder_a.rates, ladder_b.rates), (ladder_a.frequencies, ladder_b.frequencies)
        )
        counts = _group_counts(m, n, l)
        weight = math.prod(math.factorial(c) for c in counts)
        total = _compensated_sum(
            _walk(counts, _GROUP_CORRS, steps, _fold_float, 1.0 + 0.0j,
                  lambda val: weight * val)
        )
        total /= math.factorial(m) * math.factorial(n)
    return ExchangeIntegral(
        value=total.real,
        total_photons=m + n,
        method="oracle",
        exchanged_count=l,
        imag_residual=abs(total.imag),
    )


def oracle_integral_exact(
    ladder_a: DecayLadder,
    ladder_b: DecayLadder | None = None,
    l: int = 1,
    *,
    max_total_photons: int = 6,
) -> Fraction:
    """Second-tier oracle in exact rational arithmetic.

    Only ladders with vanishing frequencies qualify (the exponent
    accumulators are then rational in the rates).  The global numerator,
    the product of every transition rate of both arms, factors out of
    the ordering sum, so each interleaving contributes a pure product of
    rational reciprocals.
    """
    if ladder_b is None:
        ladder_b = ladder_a
    m, n = ladder_a.levels, ladder_b.levels
    _guard(m, n, l, max_total_photons)
    if any(ladder_a.frequencies) or any(ladder_b.frequencies):
        raise ValueError("exact mode requires all frequencies equal to zero")

    rates = (
        tuple(Fraction(r) for r in ladder_a.rates),
        tuple(Fraction(r) for r in ladder_b.rates),
    )
    steps = _transition_steps(rates, None)
    counts = _group_counts(m, n, l)
    weight = math.prod(math.factorial(c) for c in counts)
    numerator = math.prod(rates[0] + rates[1])

    total = sum(_walk(counts, _GROUP_CORRS, steps,
                      lambda denom, _g, _rates, acc: denom * acc, Fraction(1),
                      lambda denom: 1 / denom))
    return numerator * weight * total / (
        math.factorial(m) * math.factorial(n)
    )


def oracle_delay_check(
    ladder: DecayLadder,
    tau: float,
    *,
    max_total_photons: int = DEFAULT_MAX_TOTAL_PHOTONS,
) -> DelayCheck:
    """Exact delayed twin overlap next to the exponential lower bound.

    The bound multiplies the zero-delay integral by exp(-2 gamma_top tau)
    with gamma_top the rate of the ladder's highest rung; it is tight at
    tau = 0 and stays below the exact value for tau > 0.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    reference = oracle_integral(
        ladder, ladder, l=1, delay=0.0, max_total_photons=max_total_photons
    ).value
    if tau == 0.0:
        return DelayCheck(exact=reference, bound=reference, reference=reference)
    exact = oracle_integral(
        ladder, ladder, l=1, delay=tau, max_total_photons=max_total_photons
    ).value
    bound = math.exp(-2.0 * ladder.rates[-1] * tau) * reference
    return DelayCheck(exact=exact, bound=bound, reference=reference)


# --------------------------------------------------------------------------
# Delayed evaluation.
#
# A delay tau on arm B shifts the swapped amplitude arguments: the
# swapped arm-A factor sees its special time at w, the conjugated arm-B
# factor at w + tau, and symmetrically t / t + tau for the other pair.
# Orderings therefore run over m+n+2 event values, two rigid pairs at
# exact distance tau among them.  In gap coordinates the rigid pairs
# become window-sum constraints, and each ordering reduces to products
# and at most one scalar convolution of hypoexponential densities, which
# are evaluated exactly in a polynomial-times-exponential term algebra.
# --------------------------------------------------------------------------


def _polyexp_eval(terms, s: float):
    return sum(c * s**p * cmath.exp(-r * s) for (c, p, r) in terms)


def _polyexp_convolve(terms, rate, tau: float):
    """Convolution of a poly-exponential with exp(-rate*s) on [0, s],
    accurate for s in [0, tau]."""
    out = []
    for (c, p, r) in terms:
        beta = r - rate
        if abs(beta) <= 1e-12 * (abs(r) + abs(rate) + 1.0):
            out.append((c / (p + 1), p + 1, rate))
        elif abs(beta) * tau <= 1e-3:
            # The closed form below cancels catastrophically for small
            # beta*s, so expand the integral of v^p exp(-beta v) over
            # [0, s] in powers of s, down to rounding level at s = tau.
            coef, size, k = c, 1.0, 0
            while size > 1e-18:
                out.append((coef / (p + k + 1), p + k + 1, rate))
                k += 1
                coef *= -beta / k
                size *= abs(beta) * tau / k
        else:
            fact = math.factorial(p)
            out.append((c * fact / beta ** (p + 1), 0, rate))
            for i in range(p + 1):
                out.append((-c * fact / math.factorial(i) / beta ** (p - i + 1), i, r))
    return out


def _hypoexp_density(rate_list, tau: float):
    """Density of a sum of independent exponentials as poly-exp terms,
    accurate on [0, tau]."""
    terms = [(1.0 + 0.0j, 0, rate_list[0])]
    for rate in rate_list[1:]:
        terms = _polyexp_convolve(terms, rate, tau)
    return terms


def _int_power_exp(a: int, beta, t: float):
    """Integral of v^a exp(-beta v) over [0, t], stable for small beta*t."""
    x = beta * t
    if abs(x) <= 0.5:
        # power series in (-x), geometric-fast for |x| <= 1/2
        total = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for k in range(0, 60):
            contrib = term / (a + k + 1)
            total += contrib
            if abs(contrib) < 1e-18 * max(1.0, abs(total)):
                break
            term *= -x / (k + 1)
        return t ** (a + 1) * total
    fact = math.factorial(a)
    tail = 0.0 + 0.0j
    em = cmath.exp(-x)
    xk = 1.0 + 0.0j
    for i in range(a + 1):
        tail += xk / math.factorial(i)
        xk *= x
    return fact / beta ** (a + 1) * (1.0 - em * tail)


def _polyexp_cross_integral(f_terms, g_terms, tau: float, power_exp):
    """Integral over [0, tau] of f(v) * g(tau - v); ``power_exp(a, beta)``
    is ``_int_power_exp(a, beta, tau)``."""
    total = 0.0 + 0.0j
    for (c, p, r) in f_terms:
        for (c2, p2, r2) in g_terms:
            pref = c * c2 * cmath.exp(-r2 * tau)
            beta = r - r2
            for q in range(p2 + 1):
                coef = math.comb(p2, q) * (-1.0) ** q * tau ** (p2 - q)
                total += pref * coef * power_exp(p + q, beta)
    return total


def _polyexp_product(f_terms, g_terms):
    return [
        (c * c2, p + p2, r + r2)
        for (c, p, r) in f_terms
        for (c2, p2, r2) in g_terms
    ]


# Slot kinds for the delayed walk: the four special events plus the two
# regular-variable groups, each with the correlation functions it fires.
_XH, _XL, _WH, _WL, _RT, _RS = range(6)
_SLOT_EVENTS = (
    (3,),     # _XH: t + tau in swapped arm B
    (0,),     # _XL: t in conjugated arm A
    (1,),     # _WH: w + tau in conjugated arm B
    (2,),     # _WL: w in swapped arm A
    (0, 2),   # _RT
    (1, 3),   # _RS
)

# Gap k lies between ordered values k and k+1 (1-based, the last gap
# reaches zero), and its rate is the accumulator after slot k.  The rigid
# pair (x, x+tau) pins the gap-sum of the window between its two slots to
# exactly tau; whether gap k lies in window x or w is known once slot k
# fires.  A delayed path carries (value, x_only, w_only, both, x, w,
# x_first): the product of 1/rate over the gaps outside both windows,
# the rates of the gaps in window x only, in w only and in both, each
# window's stage (0 pending, 1 open, 2 closed) and whether x opened first.
_DELAYED_ROOT = (1.0 + 0.0j, (), (), (), 0, 0, False)
# Nested windows force x == w, an empty ordering region whose value is 0,
# and so is every completion of it.
_NESTED = "nested"


def _fold_delayed(state, g, rates, acc):
    """Extend a delayed path by one slot; None prunes the orderings in
    which a rigid pair's low event precedes its high one."""
    value, x_only, w_only, both, x, w, x_first = state
    if g == _XH:
        x, x_first = 1, w == 0
    elif g == _XL:
        if x == 0:
            return None
        if w == 1 and not x_first:
            return _NESTED
        x = 2
    elif g == _WH:
        w = 1
    elif g == _WL:
        if w == 0:
            return None
        if x == 1 and x_first:
            return _NESTED
        w = 2
    if x == 1 and w == 1:
        both += (acc,)
    elif x == 1:
        x_only += (acc,)
    elif w == 1:
        w_only += (acc,)
    else:
        value /= acc
    return value, x_only, w_only, both, x, w, x_first


def _delayed_integral(ladder_a, ladder_b, tau):
    """Delayed l = 1 overlap from the admissible orderings, whose window
    densities and cross integrals repeat across orderings and are
    memoized for the length of the call."""
    m, n = ladder_a.levels, ladder_b.levels
    rates = (ladder_a.rates, ladder_b.rates)
    steps = _transition_steps(rates, (ladder_a.frequencies, ladder_b.frequencies))

    numerator = math.prod(rates[0] + rates[1])
    weight = math.factorial(m - 1) * math.factorial(n - 1)

    @functools.cache
    def density(window):
        return _hypoexp_density(window, tau)

    @functools.cache
    def at_tau(window):
        return _polyexp_eval(density(window), tau)

    @functools.cache
    def power_exp(a, beta):
        return _int_power_exp(a, beta, tau)

    @functools.cache
    def cross(mid, left, right):
        return _polyexp_cross_integral(
            density(mid), _polyexp_product(density(left), density(right)),
            tau, power_exp,
        )

    def leaf(state):
        if state is _NESTED:
            return 0j
        value, x_only, w_only, both, _, _, x_first = state
        if not both:
            # windows are never empty: a rigid pair occupies two distinct
            # slots, so at least one gap always separates its events
            value *= at_tau(x_only)
            value *= at_tau(w_only)
        elif x_first:
            value *= cross(both, x_only, w_only)
        else:
            value *= cross(both, w_only, x_only)
        return weight * value

    counts = (1, 1, 1, 1, m - 1, n - 1)
    total = _compensated_sum(
        _walk(counts, _SLOT_EVENTS, steps, _fold_delayed, _DELAYED_ROOT, leaf,
              dead=_NESTED)
    )
    return numerator * total / (math.factorial(m) * math.factorial(n))
