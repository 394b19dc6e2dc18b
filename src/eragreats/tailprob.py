"""Exact binomial tail probabilities and "1 in N" presentation.

The tail is computed by direct summation of binomial terms, accumulated
with ``math.fsum``.  The integer coefficients come from one
``math.comb(n, k_min)`` stepped by the exact recurrence
``C(n, k + 1) = C(n, k) * (n - k) // (k + 1)``, so every term is the
same double it would be with ``math.comb`` at each k.  No normal
approximation is involved, so the tiny tails this package cares about
(order 1e-6 and below) keep near-full double precision: a few ulp, plus
up to n times the relative rounding of the double ``1 - p``, since the
float path works with ``1 - p`` rounded to a double.

A tail whose union bound ``C(n, k_min) * p**k_min`` lies under
``2**-1076`` is returned as 0.0 without summing: it rounds to zero in
any case.  Otherwise, when a power of ``p`` or ``1 - p`` inside a term
that matters falls below the normal double range, the sum is redone in
exact rational arithmetic, so even denormal-range results are correctly
rounded.

"1 in N" is always the exact reciprocal of the probability, taken from
its integer ratio and rounded half up in integer arithmetic, so every
digit of N is right, also where the double ``1 / p`` would round the
last digits away or overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .formatting import half_up

MAX_TRIALS = 1000

# doubles lose precision below 2**-1021; an isolated p**k or q**(n-k)
# factor can land there long before the summed tail does
_NORMAL_EXP_FLOOR = -1021.0
# a tail at or under 2**-1075 rounds to 0.0 (ties to even); one more bit
# absorbs the rounding of the logs that bound it
_ZERO_EXP_BOUND = -1076.0
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Chance:
    """A probability paired with its "1 in N" display string."""

    probability: float
    display: str


def binomial_tail(n: int, k_min: int, p: float) -> float:
    """P(X >= k_min) for X ~ Binomial(n, p).

    ``n`` must be a positive integer no larger than ``MAX_TRIALS`` and
    ``k_min`` an integer in [0, n].  ``k_min <= 0`` returns exactly 1.0.
    """
    _check_tail_args(n, k_min, p)
    if k_min <= 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    coeff = math.comb(n, k_min)
    # union bound: P(X >= k_min) <= C(n, k_min) * p**k_min
    if math.log2(coeff) + k_min * math.log2(p) < _ZERO_EXP_BOUND:
        return 0.0
    q = 1.0 - p
    terms = []
    for k in range(k_min, n + 1):
        terms.append(coeff * p**k * q ** (n - k))
        # exact: C(n, k) * (n - k) = C(n, k + 1) * (k + 1)
        coeff = coeff * (n - k) // (k + 1)
    # fsum keeps the relative error at a few ulp even when the largest and
    # smallest terms span many orders of magnitude
    total = math.fsum(terms)
    if _factor_underflow_suspected(n, k_min, p, q, total):
        return _exact_tail(n, k_min, p)
    return min(total, 1.0)


def _check_tail_args(n: int, k_min: int, p: float) -> None:
    """Raise ``binomial_tail``'s DomainError for arguments it refuses."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"n must be an integer, got {n!r}")
    if not 1 <= n <= MAX_TRIALS:
        raise DomainError(f"n must be in [1, {MAX_TRIALS}], got {n}")
    if not isinstance(k_min, int) or isinstance(k_min, bool):
        raise DomainError(f"k_min must be an integer, got {k_min!r}")
    if not 0 <= k_min <= n:
        raise DomainError(f"k_min must be in [0, {n}], got {k_min}")
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p!r}")


def _factor_underflow_suspected(
    n: int, k_min: int, p: float, q: float, total: float
) -> bool:
    """True when a denormal power may have poisoned a term that matters."""
    if total <= 0.0:
        return True
    log_p = math.log2(p)
    log_q = math.log2(q)
    if n * log_p > _NORMAL_EXP_FLOOR and n * log_q > _NORMAL_EXP_FLOOR:
        return False
    # a poisoned term is harmless while it sits 80+ bits under the total;
    # lgamma is accurate to well under a bit at these magnitudes
    bar = math.log2(total) - 80.0
    log_n_fact = math.lgamma(n + 1)
    for k in range(k_min, n + 1):
        if k * log_p > _NORMAL_EXP_FLOOR and (n - k) * log_q > _NORMAL_EXP_FLOOR:
            continue
        log_comb = (log_n_fact - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / _LN2
        if log_comb + k * log_p + (n - k) * log_q >= bar:
            return True
    return False


def _exact_tail(n: int, k_min: int, p: float) -> float:
    """Tail sum in exact rational arithmetic, correctly rounded to a double.

    ``p`` and ``1 - p`` share one power-of-two denominator, so every term
    is an integer over ``den**n`` and the whole sum runs in exact integer
    arithmetic with a single normalization at the end.
    """
    num_p, den = p.as_integer_ratio()
    num_q = den - num_p
    mode = math.floor((n + 1) * p)
    term = math.comb(n, k_min) * num_p**k_min * num_q ** (n - k_min)
    total = term
    for k in range(k_min + 1, n + 1):
        # exact division: comb(n, k - 1) * (n - k + 1) is divisible by k,
        # and the previous term carries num_q to at least the first power
        term = term * ((n - k + 1) * num_p) // (k * num_q)
        total += term
        # past the mode the terms only shrink, and fewer than 2**10 of
        # them remain, so one sitting 140 bits under the running total
        # cannot move the rounded double
        if k >= mode and total.bit_length() - term.bit_length() > 140:
            break
    # int true division is correctly rounded, so the double comes out
    # exact even when it lands in the denormal range
    return total / (1 << ((den.bit_length() - 1) * n))


def chance_format(probability: float) -> Chance:
    """Render a probability as a "1 in N" string.

    N is the exact reciprocal of the double, rounded half up by
    ``formatting.half_up``: to a whole number when it is 10 or more, to
    tenths below 10, dropping a ".0" (so a certainty prints as "1 in 1",
    not "1 in 1.0").
    """
    if math.isnan(probability) or not 0.0 < probability <= 1.0:
        raise DomainError(f"probability must be in (0, 1], got {probability!r}")
    # the reciprocal is den / num exactly
    num, den = probability.as_integer_ratio()
    return Chance(probability, f"1 in {half_up(den, num, 10)}")
