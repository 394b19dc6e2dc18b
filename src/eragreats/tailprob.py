"""Exact binomial tail probabilities and "1 in N" presentation.

``binomial_tail`` returns the tail at the exact value of the double ``p``,
correctly rounded to a double, over the whole input domain: denormal
results and zero included.  No normal approximation and no float term is
involved.  The double ``p`` is ``a / 2**e`` exactly, so ``1 - p`` is
``c / 2**e`` with ``c = 2**e - a``, exact as well, and every binomial term
is an integer over ``2**(e*n)``.  A tail takes three steps in order:

- **two shortcuts**: above the mode, a tail whose union bound
  ``C(n, k_min) * p**k_min`` lies under ``2**-1076`` is 0.0, and below
  it, a tail whose lower tail is bounded under ``2**-55`` is 1.0: each
  rounds so in any case;
- **fixed point with Ziv's rounding test**, only where the shorter side
  is too costly to sum exactly: the side whose terms fall from its first
  one is summed in P-bit integer fixed point under a proved error bound,
  and the double is returned as soon as both ends of that bound round to
  it (A. Ziv, ACM TOMS 17(3), 1991), P going 80, 160, 320, 640.  The
  first term comes from floored tables of ``m!`` and ``1/m!``, built once
  per process on the first tail that needs them, and from one truncated
  power chain;
- **the exact side sum** of the shorter side, by Horner's rule, divided
  once: for every tail the first two steps leave, the cheap ones and the
  few that P = 640 cannot round.

"1 in N" is always the exact reciprocal of the probability, taken from
its integer ratio and rounded half up in integer arithmetic, so every
digit of N is right, also where the double ``1 / p`` would round the
last digits away or overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError
from .formatting import half_up

MAX_TRIALS = 1000

# a tail at or under 2**-1075 rounds to 0.0 (ties to even); one more bit
# absorbs the rounding of the logs that bound it
_ZERO_EXP_BOUND = -1076.0
# a tail whose lower tail is at or under 2**-54 rounds to 1.0 (the tie at
# 1 - 2**-54 goes to even, 1.0); one more bit, as for _ZERO_EXP_BOUND
_ONE_EXP_BOUND = -55.0
# an exact side sum costs about (terms) * (bits per term); under this
# product it is cheaper than a fixed-point pass
_EXACT_SUM_BITS = 4000
# fixed-point precisions P, and the guard bits the powers and the ratio
# carry on top of P (the error bound in binomial_tail relies on 20)
_PRECISIONS = (80, 160, 320, 640)
_GUARD = 20
# the factorial tables carry 20 bits more than the widest pass, so that all
# their floors together lose under 2**-9 of one floor at a pass's width
_TABLE_WIDTH = _PRECISIONS[-1] + _GUARD + 20


@dataclass(frozen=True)
class Chance:
    """A probability paired with its "1 in N" display string."""

    probability: float
    display: str


def binomial_tail(n: int, k_min: int, p: float) -> float:
    """P(X >= k_min) for X ~ Binomial(n, p), correctly rounded to a double.

    ``n`` must be a positive integer no larger than ``MAX_TRIALS`` and
    ``k_min`` an integer in [0, n].  ``k_min <= 0`` returns exactly 1.0.
    ``p`` is taken as the nearest double, ``float(p)``.

    With ``t_j = C(n, j) a**j c**(n-j) / 2**(e*n)`` the tail is
    ``U = sum_{j >= k} t_j`` and the lower tail ``L = 1 - U`` sums j < k.
    One side is bounded, and summed in fixed point, from a first term at
    index f on, where its ratio ``rho_j = (n - j) x / ((j + 1) y)`` is at
    most 1 from j = f on (it falls with j):

    - above the mode, ``(n - k) a <= (k + 1) c``: U itself, f = k, x = a,
      y = c;
    - below it: then ``k <= floor(n p)`` and, as a binomial median lies in
      ``[floor(n p), ceil(n p)]``, U >= 1/2.  L is summed, by the symmetry
      j -> n - j as the same upward sum with f = n - k + 1, x = c, y = a;
      its first ratio ``(k - 1) c / ((n - k + 2) a)`` is under 1 because
      ``(n - k) a > (k + 1) c``.  U is ``1 - L``, free of cancellation.

    *Shortcuts.*  First, a bound ``C(n, f) * 2**r`` on that side settles
    tails that round to 0.0 or 1.0 whatever the sum:

    - above the mode, the union bound ``U <= C(n, k) p**k``.  Under
      ``2**-1076`` (``_ZERO_EXP_BOUND``) it returns 0.0, as U is then
      under half the smallest denormal;
    - below it, ``rho_j > 1`` for every ``j <= k``, since rho falls with j
      and ``rho_k = (n - k) a / ((k + 1) c) > 1``.  So ``t_0 < ... <
      t_{k-1}`` and ``L <= k t_{k-1} = k C(n, k - 1) p**(k-1) q**(n-k+1)``,
      with ``log2 q = log2 c - e`` taken from the exact c.  Under
      ``2**-55`` (``_ONE_EXP_BOUND``) it returns 1.0: ``L <= 2**-54`` puts
      U in ``[1 - 2**-54, 1]``, and ``1 - 2**-54`` is the midpoint of
      ``1 - 2**-53`` and 1.0, a tie that goes to even, 1.0.

    Each bound takes ``C(n, f) <= 2**n``; the one bit under each cut
    absorbs the rounding of the float logs.

    *Exact side sum.*  A tail the shortcuts leave takes the passes below
    only when ``min(n - k + 1, k) * e * n`` exceeds ``_EXACT_SUM_BITS``.
    Otherwise, or when P = 640 leaves the rounding open, ``_exact_side``
    sums the shorter side exactly, and U, or ``2**(e*n) - L``, over
    ``2**(e*n)`` is rounded once (``_to_double``), subnormals and zero too.

    ``_fixed_sum`` takes the terms in units of ``2**-F``: F puts the first
    term in [2**P, 2**(P+1)) units for U, and is P + 2 for L, since U >=
    1/2 there.  Every step rounds down, so each computed term T_i is at
    most the exact one, tau_i, and the computed sum S is at most the
    exact one.  With W = P + 20 and ``delta = 2**(1 - W)``:

    1. *Floored factors.*  A floor to w bits keeps a factor in
       ``(1 - 2**(1 - w), 1]``.  ``x**f y**g``, g = n - f, is one chain
       over the s binary digits of ``h = max(f, g)``.  x, y and, when f
       and g share a 1 digit, the product of the floored x and y are
       floored to W bits.  Each digit pair squares the running product (1
       at the start), multiplies it by x, y or x*y as the pair says and
       floors it to W bits, which the first pair's product never needs.
       That is at most ``s + 2 <= bit_length(n) + 2`` floors, but a floor
       made r squarings before the end enters the power ``2**r`` times:
       x's floor f times, y's g times, x*y's ``f & g <= min(f, g)`` times
       and the floors after the digit pairs ``2**(s-1) - 1 <= h - 1``
       times together.  So the power holds at most
       ``f + g + min(f, g) + max(f, g) - 1 = 2n - 1`` such factors, for
       every ``n >= 1``, also when f or g is 0.  C(n, f) is the product of
       the three entries of ``_factorial_tables`` that ``binomial_tail``
       reads once per tail, ``n!``, ``1/f!`` and ``1/(n - f)!``, each
       floored once more to W bits: three floors.  An entry is at most its
       exact value, under it by at most n (for ``n!``) or
       ``MAX_TRIALS + 1 - m`` (for ``1/m!``) floors of
       ``delta_T = 2**(1 - _TABLE_WIDTH)``, 2002 over the three; as
       ``_TABLE_WIDTH >= W + 20``, ``2002 delta_T < 2**-9 delta``.  One
       more floor puts the first term in units, so
       ``T_0 >= tau_0 (1 - eps_0) - 1`` with
       ``eps_0 <= (2n + 2) delta + 2002 delta_T < (2n + 3) delta``.
    2. *The ratio.*  ``R = floor(x 2**Q / y) >= 2**(W-1)`` by the choice
       of Q, so R lies under ``x 2**Q / y`` by a factor ``1 - eta`` with
       ``eta < 1 / R <= delta``.  The loop never divides by y.
    3. *Floors of the recurrence.*
       ``T_{i+1} = floor(T_i (n - j) R / ((j + 1) 2**Q))``, as ``>> Q`` then
       ``// (j + 1)`` is one floor; it exceeds ``T_i rho_j (1 - eta) - 1``
       and ``rho_j <= 1``, so by induction
       ``T_i >= tau_i (1 - rel) - (i + 1)`` with ``rel = eps_0 + n eta``.
       So ``rel < (3n + 3) delta``, and as ``3n + 3 <= 3003 < 3 * 2**10``,
       ``rel < 3 * 2**(11 - W) < 2**(-P - 7)``.
    4. *Early stop.*  The sum stops at the first T_i that floors to 0, or
       after j = n.  A zero T_i gives ``tau_i <= (i + 1) / (1 - rel) <
       i + 2`` (as ``(i + 2) rel < 1`` for any P >= 3), and each of the
       n - j + 1 terms from there on is at most tau_i, the ratios being
       at most 1.

    So the exact side lies in ``[S, S + E]`` units with
    ``E = A + ((S + A) >> (P + 6)) + 1 + (n - j + 1)(i + 2)`` (the last
    term only after a stop at T_i = 0), where ``A = (i + 1)(i + 2) / 2``
    adds up the absolute deficits and the shift bounds
    ``(S + A) rel / (1 - rel)``.  Rounding is monotone, so when both ends
    of the interval for U round to one double, U rounds to it.  P = 640
    leaves this undecided only within about 2**-600 of a rounding
    boundary; the exact side sum then decides.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"n must be an integer, got {n!r}")
    if not 1 <= n <= MAX_TRIALS:
        raise DomainError(f"n must be in [1, {MAX_TRIALS}], got {n}")
    if not isinstance(k_min, int) or isinstance(k_min, bool):
        raise DomainError(f"k_min must be an integer, got {k_min!r}")
    if not 0 <= k_min <= n:
        raise DomainError(f"k_min must be in [0, {n}], got {k_min}")
    if p != p or not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p!r}")
    p = float(p)
    if k_min <= 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    a, den = p.as_integer_ratio()
    e = den.bit_length() - 1
    c = den - a
    upper = (n - k_min) * a <= (k_min + 1) * c
    log2_p = math.log2(p)
    # the side's bound is C(n, first) * 2**log2_rest, and under the cut the
    # tail rounds to the shortcut's value
    if upper:
        first, x, y = k_min, a, c
        log2_rest, cut, shortcut = k_min * log2_p, _ZERO_EXP_BOUND, 0.0
    else:
        first, x, y = n - k_min + 1, c, a
        log2_rest = math.log2(k_min) + (k_min - 1) * log2_p + first * (math.log2(c) - e)
        cut, shortcut = _ONE_EXP_BOUND, 1.0
    # C(n, first) <= 2**n
    if n + log2_rest < cut:
        return shortcut
    bits = e * n
    # the shorter side's term count (a builtin min() call would cost more
    # than this test)
    size = n - k_min + 1 if n - k_min < k_min else k_min
    if size * bits > _EXACT_SUM_BITS:
        # C(n, first) floored to n! / first! / (n - first)!, for the passes
        factorials, reciprocals = _factorial_tables()
        coeff = factorials[n], reciprocals[first], reciprocals[n - first]
        for precision in _PRECISIONS:
            total, error, scale = _fixed_sum(n, first, coeff, x, y, e, precision, upper)
            if upper:
                low, high = total, total + error
            else:
                low, high = (1 << scale) - total - error, (1 << scale) - total
            result = _to_double(low, scale)
            if result == _to_double(high, scale):
                return result
    return _exact_side(n, k_min, a, c, bits)


def _exact_side(n: int, k_min: int, a: int, c: int, bits: int) -> float:
    """The tail, correctly rounded, from an exact sum of its shorter side.

    That side is U, the n - k_min + 1 terms from k_min up, when it is the
    shorter one, and otherwise L, the k_min terms under k_min, with U =
    ``2**bits - L``.  Either way U is an integer over ``2**bits``, rounded
    once by ``_to_double``.  The side is
    ``sum(C(n, j) * x**j * y**(n - j) for j < count)`` by Horner's rule in
    y; the coefficient steps by ``C(n, j) = C(n, j - 1) * (n - j + 1) // j``,
    an exact one-digit division.
    """
    upper = n - k_min < k_min
    # by the symmetry j -> n - j, U is that sum with a and c swapped
    count, x, y = (n - k_min + 1, c, a) if upper else (k_min, a, c)
    total = coeff = power = 1
    for j in range(1, count):
        power *= x
        coeff = coeff * (n - j + 1) // j
        total = total * y + coeff * power
    side = total * y ** (n - count + 1)
    return _to_double(side if upper else (1 << bits) - side, bits)


def _fixed_sum(
    n: int, first: int, coeff: tuple, x: int, y: int, e: int, precision: int, relative: bool
) -> tuple[int, int, int]:
    """``(S, E, F)``: the side ``sum_{j >= first} C(n, j) x**j y**(n-j) / 2**(e*n)``
    lies in ``[S, S + E] / 2**F``.

    The ratio of successive terms must be at most 1 from ``first`` on.  The
    first term is ``coeff``, the table entries of ``n!``, ``1/first!`` and
    ``1/(n - first)!``, times ``x**first * y**(n - first)`` from one floored
    power chain, every factor floored to the pass's width.  F puts the
    first term at ``precision + 1`` bits when ``relative``, and is
    ``precision + 2`` otherwise.  See ``binomial_tail`` for the proof.
    """
    width = precision + _GUARD
    last = n - first
    head, exponent = 1, -e * n
    for bits, exp in coeff:
        excess = bits.bit_length() - width
        if excess > 0:
            bits >>= excess
            exp += excess
        head *= bits
        exponent += exp
    # x**first * y**last by one left-to-right chain over the binary digits
    # of both exponents (Straus/Shamir): per digit pair, square, then
    # multiply by x, y or the floored x*y, and floor once to width bits
    x_bits, x_shift = _floored(x, 0, width)
    y_bits, y_shift = _floored(y, 0, width)
    if first & last:
        xy_bits, xy_shift = _floored(x_bits * y_bits, x_shift + y_shift, width)
    size = (first if first > last else last).bit_length()
    bits, exp = 1, 0
    for x_digit, y_digit in zip(bin(first | 1 << size)[3:], bin(last | 1 << size)[3:]):
        bits *= bits
        exp += exp
        if x_digit == "1":
            if y_digit == "1":
                bits *= xy_bits
                exp += xy_shift
            else:
                bits *= x_bits
                exp += x_shift
        elif y_digit == "1":
            bits *= y_bits
            exp += y_shift
        excess = bits.bit_length() - width
        if excess > 0:
            bits >>= excess
            exp += excess
    head *= bits
    exponent += exp
    scale = precision + 1 - head.bit_length() - exponent if relative else precision + 2
    shift = exponent + scale
    term = head << shift if shift >= 0 else head >> -shift
    # R = floor(x 2**Q / y) >= 2**(width - 1); Q < 0 only when first == n,
    # where the loop takes no step
    q = max(0, width + y.bit_length() - x.bit_length())
    ratio = (x << q) // y
    # the factor (n - j) R steps down by R with j
    total, j, factor = 0, first, last * ratio
    while term and j < n:
        total += term
        j += 1
        term = (term * factor >> q) // j
        factor -= ratio
    total += term
    i = j - first
    deficit = (i + 1) * (i + 2) // 2
    error = deficit + ((total + deficit) >> (precision + 6)) + 1
    if not term:
        error += (n - j + 1) * (i + 2)
    return total, error, scale


@functools.cache
def _factorial_tables() -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """``(factorials, reciprocals)``: for m in [0, MAX_TRIALS],
    ``factorials[m]`` is ``(b, s)`` with ``b * 2**s`` in
    ``[m! (1 - m delta_T), m!]`` and ``reciprocals[m]`` is ``(b, s)`` with
    ``b * 2**s`` in ``[(1 - (MAX_TRIALS + 1 - m) delta_T) / m!, 1 / m!]``,
    ``delta_T = 2**(1 - _TABLE_WIDTH)``, b at most ``_TABLE_WIDTH`` bits.

    ``m!`` is built upward and ``1/m!`` downward from an exact floor of
    ``1/MAX_TRIALS!``, by ``1/(m - 1)! = m / m!``: one floored product per
    step, each keeping a factor in ``(1 - delta_T, 1]``.  Built once per
    process, on the first tail that takes a fixed-point pass.
    """

    def floored_products(bits: int, exp: int, factors: range) -> list[tuple[int, int]]:
        entries = [(bits, exp)]
        for m in factors:
            bits *= m
            excess = bits.bit_length() - _TABLE_WIDTH
            if excess > 0:
                bits >>= excess
                exp += excess
            entries.append((bits, exp))
        return entries

    factorials = floored_products(1, 0, range(1, MAX_TRIALS + 1))
    last = math.factorial(MAX_TRIALS)
    exp = -(last.bit_length() + _TABLE_WIDTH - 1)
    # 2**-exp / MAX_TRIALS! lies in (2**(_TABLE_WIDTH - 1), 2**_TABLE_WIDTH)
    reciprocals = floored_products((1 << -exp) // last, exp, range(MAX_TRIALS, 0, -1))
    return tuple(factorials), tuple(reversed(reciprocals))


def _floored(bits: int, exp: int, width: int) -> tuple[int, int]:
    """``(b, s)``: ``bits * 2**exp`` floored to ``width``-bit ``bits``, ``b * 2**s``."""
    excess = bits.bit_length() - width
    return (bits >> excess, exp + excess) if excess > 0 else (bits, exp)


def _to_double(num: int, scale: int) -> float:
    """``num / 2**scale`` correctly rounded: ``float(int)`` rounds once and
    ``ldexp`` is exact while the result is normal; int true division rounds
    correctly below that too."""
    bits = num.bit_length()
    if bits < 1024 and bits - scale >= -1021:
        return math.ldexp(float(num), -scale)
    return num / (1 << scale)


def chance_format(probability: float) -> Chance:
    """Render a probability as a "1 in N" string.

    N is the exact reciprocal of the double, rounded half up by
    ``formatting.half_up``: to a whole number when it is 10 or more, to
    tenths below 10, dropping a ".0" (so a certainty prints as "1 in 1",
    not "1 in 1.0").
    """
    if probability != probability or not 0.0 < probability <= 1.0:
        raise DomainError(f"probability must be in (0, 1], got {probability!r}")
    # the reciprocal is den / num exactly
    num, den = probability.as_integer_ratio()
    return Chance(probability, f"1 in {half_up(den, num, 10)}")


def _chance(probability: float) -> Chance:
    """The "1 in N" of a tail probability; an exact 0.0 has no N and shows "-"."""
    if probability == 0.0:
        return Chance(0.0, "-")
    return chance_format(probability)
