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
polynomial-cost recurrence is validated against.  A size guard keeps
accidental large calls from running forever.

Bookkeeping. The integrand couples four cascade correlation functions:
the conjugated amplitude of each arm and the two label-swapped
unconjugated amplitudes.  Every emission time belongs to exactly two of
them.  Walking an interleaving from the latest time down, each time
fires the next pending transition of both its correlation functions,
contributing a sqrt(rate) numerator and an exponent increment; the
running exponent sums telescope to a positive real part, so every step
divides by a well-conditioned accumulator.
"""
from __future__ import annotations

import cmath
import itertools
import math
import random
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


def _walk(seq, memberships, steps):
    """Walk one interleaving, latest time first.

    Each slot fires the next pending transition of every correlation
    function its group belongs to; yields, per slot, the rates fired and
    the running exponent accumulator.
    """
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


def _compensated_sum(terms):
    """Kahan sum of complex terms, nearly independent of their order."""
    total = comp = 0j
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _sequence_value(seq, steps):
    """Closed-form value of one interleaving."""
    val = 1.0 + 0.0j
    for fired_rates, acc in _walk(seq, _GROUP_CORRS, steps):
        for gam in fired_rates:
            val *= math.sqrt(gam)
        val /= acc
    return val


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
    reduce_symmetry: bool = True,
    shuffle_seed: int | None = None,
) -> ExchangeIntegral:
    """Exact exchange integral with l swapped photon pairs.

    ``l = 0`` returns the norm of the pair (one for any valid ladders);
    ``l = 1`` is the overlap entering the phase-sensitivity formulas.
    ``delay`` shifts arm B's wavefront and is supported for l <= 1.

    ``reduce_symmetry=False`` enumerates all (m+n)! labeled orderings
    instead of the grouped multiset sequences; both paths must agree,
    which is itself a useful self-check.  ``shuffle_seed`` randomises the
    enumeration order (testing hook; the compensated sum makes the
    result independent of it to machine precision).
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
        value = _delayed_integral(ladder_a, ladder_b, delay, shuffle_seed)
        return ExchangeIntegral(
            value=value.real,
            total_photons=m + n,
            method="oracle",
            exchanged_count=l,
            imag_residual=abs(value.imag),
        )
    # With l = 0 the swap phases cancel pairwise, so any delay drops out.

    steps = _transition_steps(
        (ladder_a.rates, ladder_b.rates), (ladder_a.frequencies, ladder_b.frequencies)
    )
    counts = _group_counts(m, n, l)

    if reduce_symmetry:
        weight = math.prod(math.factorial(c) for c in counts)
        items = [(seq, weight) for seq in _multiset_sequences(counts)]
    else:
        labels = []
        for g, c in enumerate(counts):
            labels.extend([g] * c)
        items = [(seq, 1.0) for seq in itertools.permutations(labels)]

    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(items)

    total = _compensated_sum(
        weight * _sequence_value(seq, steps) for seq, weight in items
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

    total = Fraction(0)
    for seq in _multiset_sequences(counts):
        denom = Fraction(1)
        for _, acc in _walk(seq, _GROUP_CORRS, steps):
            denom *= acc
        total += Fraction(1) / denom
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


def _polyexp_convolve(terms, rate):
    """Convolution of a poly-exponential with exp(-rate*s) on [0, s]."""
    out = []
    for (c, p, r) in terms:
        beta = r - rate
        if abs(beta) <= 1e-12 * (abs(r) + abs(rate) + 1.0):
            out.append((c / (p + 1), p + 1, rate))
        else:
            fact = math.factorial(p)
            out.append((c * fact / beta ** (p + 1), 0, rate))
            for i in range(p + 1):
                out.append((-c * fact / math.factorial(i) / beta ** (p - i + 1), i, r))
    return out


def _hypoexp_density(rate_list):
    """Density of a sum of independent exponentials as poly-exp terms."""
    terms = [(1.0 + 0.0j, 0, rate_list[0])]
    for rate in rate_list[1:]:
        terms = _polyexp_convolve(terms, rate)
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


def _polyexp_cross_integral(f_terms, g_terms, tau: float):
    """Integral over [0, tau] of f(v) * g(tau - v)."""
    total = 0.0 + 0.0j
    for (c, p, r) in f_terms:
        for (c2, p2, r2) in g_terms:
            pref = c * c2 * cmath.exp(-r2 * tau)
            beta = r - r2
            for q in range(p2 + 1):
                coef = math.comb(p2, q) * (-1.0) ** q * tau ** (p2 - q)
                total += pref * coef * _int_power_exp(p + q, beta, tau)
    return total


def _polyexp_product(f_terms, g_terms):
    return [
        (c * c2, p + p2, r + r2)
        for (c, p, r) in f_terms
        for (c2, p2, r2) in g_terms
    ]


# Slot kinds for the delayed enumeration: the four special events plus
# the two regular-variable groups.
_XH, _XL, _WH, _WL, _RT, _RS = range(6)
_SLOT_EVENTS = {
    _XH: (3,),     # t + tau in swapped arm B
    _XL: (0,),     # t in conjugated arm A
    _WH: (1,),     # w + tau in conjugated arm B
    _WL: (2,),     # w in swapped arm A
    _RT: (0, 2),
    _RS: (1, 3),
}


def _delayed_integral(ladder_a, ladder_b, tau, shuffle_seed=None):
    m, n = ladder_a.levels, ladder_b.levels
    rates = (ladder_a.rates, ladder_b.rates)
    steps = _transition_steps(rates, (ladder_a.frequencies, ladder_b.frequencies))

    numerator = math.prod(rates[0] + rates[1])
    weight = math.factorial(m - 1) * math.factorial(n - 1)

    counts = (1, 1, 1, 1, m - 1, n - 1)
    items = []
    for seq in _multiset_sequences(counts):
        if seq.index(_XH) > seq.index(_XL):
            continue
        if seq.index(_WH) > seq.index(_WL):
            continue
        items.append(seq)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(items)

    total = _compensated_sum(
        weight * _delayed_sequence_value(seq, steps, tau) for seq in items
    )
    return numerator * total / (math.factorial(m) * math.factorial(n))


def _delayed_sequence_value(seq, steps, tau):
    partials = [acc for _, acc in _walk(seq, _SLOT_EVENTS, steps)]

    # Gap k lies between ordered values k and k+1 (1-based, last gap
    # reaches zero).  The rigid pair (x, x+tau) pins the gap-sum of the
    # window between its two positions to exactly tau.
    p_xh, p_xl = seq.index(_XH) + 1, seq.index(_XL) + 1
    p_wh, p_wl = seq.index(_WH) + 1, seq.index(_WL) + 1
    win_x = set(range(p_xh, p_xl))
    win_w = set(range(p_wh, p_wl))

    if win_x and win_w and (win_x <= win_w or win_w <= win_x):
        return 0.0 + 0.0j  # forces x == w: empty ordering region

    value = 1.0 + 0.0j
    for k in range(1, len(seq) + 1):
        if k not in win_x and k not in win_w:
            value /= partials[k - 1]

    rates_of = lambda ks: [partials[k - 1] for k in sorted(ks)]
    overlap = win_x & win_w
    if not overlap:
        # windows are never empty: a rigid pair occupies two distinct
        # slots, so at least one gap always separates its events
        for win in (win_x, win_w):
            value *= _polyexp_eval(_hypoexp_density(rates_of(win)), tau)
        return value

    first, second = (win_x, win_w) if min(win_x) < min(win_w) else (win_w, win_x)
    left = first - overlap
    right = second - overlap
    d_left = _hypoexp_density(rates_of(left))
    d_right = _hypoexp_density(rates_of(right))
    d_mid = _hypoexp_density(rates_of(overlap))
    value *= _polyexp_cross_integral(
        d_mid, _polyexp_product(d_left, d_right), tau
    )
    return value
