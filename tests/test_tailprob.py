"""Binomial tail computation against independent oracles, plus the
"1 in N" formatting rules.
"""

import math
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats as scipy_stats

from eragreats import DomainError, binomial_tail, chance_format, tailprob
from eragreats.tailprob import _EXACT_SUM_BITS, MAX_TRIALS, _exact_side
from oracles import _tail_ratio, enumerated_tail, exact_binomial_tail_as_double, one_in_n


# ---------------------------------------------------------------- tails

def test_matches_enumeration_on_small_grid():
    for n in (1, 2, 3, 5, 8):
        for k in range(n + 1):
            for p in (0.0, 0.1, 0.3, 0.5, 0.7, 0.18696, 1.0):
                expected = enumerated_tail(n, k, p)
                assert binomial_tail(n, k, p) == pytest.approx(expected, abs=1e-13)


@given(
    n=st.integers(1, 11),
    p=st.floats(0.0, 1.0, allow_nan=False),
    data=st.data(),
)
def test_matches_enumeration_on_random_inputs(n, p, data):
    k = data.draw(st.integers(0, n))
    assert binomial_tail(n, k, p) == pytest.approx(enumerated_tail(n, k, p), abs=1e-12)


@given(
    n=st.integers(1, 400),
    p=st.floats(1e-6, 1 - 1e-6, allow_nan=False),
    data=st.data(),
)
def test_matches_scipy_survival_function(n, p, data):
    k = data.draw(st.integers(0, n))
    ours = binomial_tail(n, k, p)
    reference = float(scipy_stats.binom.sf(k - 1, n, p))
    if reference >= 1e-100:
        assert math.isclose(ours, reference, rel_tol=1e-9)
    elif ours > 0.0 and reference > 0.0:
        # scipy's incomplete-beta backend drifts in the deep tails that the
        # exact rational path keeps to the last bit, so only the order of
        # magnitude is comparable down here
        assert math.isclose(math.log10(ours), math.log10(reference), abs_tol=1.0)
    else:
        assert ours <= 1e-100 and reference <= 1e-100


def test_reference_values_from_fixed_inputs():
    # frozen from the exact rational oracle: each is the correctly rounded tail
    for n, k, p, frozen in (
        (10, 6, 0.18696, 0.004480521654768477),
        (10, 7, 0.18696, 0.0005616671356848984),
        (25, 12, 0.18696, 0.0008262067419771768),
        (25, 15, 0.18696, 5.719718819994149e-06),
        (10, 6, 0.2110, 0.008395850243962333),
    ):
        assert binomial_tail(n, k, p) == exact_binomial_tail_as_double(n, k, p) == frozen


def test_degenerate_cases():
    assert binomial_tail(7, 0, 0.3) == 1.0
    assert binomial_tail(7, 3, 0.0) == 0.0
    assert binomial_tail(7, 0, 0.0) == 1.0
    assert binomial_tail(7, 7, 1.0) == 1.0
    assert binomial_tail(7, 7, 0.5) == pytest.approx(0.5**7, rel=1e-12)
    assert binomial_tail(1, 1, 0.25) == pytest.approx(0.25, rel=1e-15)


def test_large_n_stays_finite_and_sane():
    value = binomial_tail(1000, 600, 0.5)
    assert 0.0 < value < 1e-9
    assert binomial_tail(1000, 0, 0.5) == 1.0


def test_deep_tails_round_correctly():
    # frozen from exact rational evaluation; in each case some isolated
    # p**k factor leaves the normal double range even though the sum may
    # not, which poisons a plain float summation
    assert binomial_tail(224, 209, 0.03125) == 1.4026091661776092e-292
    assert binomial_tail(1000, 500, 0.2298) == 3.645917786264917e-77
    assert binomial_tail(1000, 1000, 0.5) == 9.332636185032189e-302
    # a denormal result still comes out correctly rounded, not zeroed
    assert binomial_tail(100, 98, 5e-4) == 1.5603e-320
    # and a tail below the smallest denormal rounds to exactly zero
    assert binomial_tail(300, 299, 0.001) == 0.0
    # p**2 lies exactly halfway between two doubles and rounds to even
    p = (2**27 - 1) / 2**28
    assert binomial_tail(2, 2, p) == exact_binomial_tail_as_double(2, 2, p)


# p from three families: uniform, log-uniform down to the smallest
# denormal, and just under 1 (where 1 - p has the fewest bits)
P_FAMILIES = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(-1074.0, 0.0).map(lambda exponent: 2.0**exponent),
    st.integers(1, 53).map(lambda m: 1.0 - 2.0**-m),
)


@settings(max_examples=200)
@given(n=st.integers(1, MAX_TRIALS), p=P_FAMILIES, data=st.data())
def test_is_the_correctly_rounded_exact_tail(n, p, data):
    k = data.draw(st.integers(0, n))
    assert binomial_tail(n, k, p) == exact_binomial_tail_as_double(n, k, p)


# tail-sweep inputs that sit near a rounding boundary (n * p nearly halfway
# between two doubles, so the rounding rests on the p**2 term, under 2**-670
# of the tail), a large-n true near-tie (1000 * p is exactly halfway between
# two doubles), and an exact tie: p**2 lies halfway between two doubles
EXACT_RUNG_CASES = [
    (3, 1, 8.810523205732772e-255),
    (7, 1, 1.9947951610209488e-274),
    (10, 1, 4.218098192212159e-205),
    (1000, 1, 8.745614198645258e-272),
    (2, 2, (2**27 - 1) / 2**28),
]


def exact_side(n, k, p):
    """``_exact_side`` called as ``binomial_tail`` calls it, on a double p."""
    a, den = p.as_integer_ratio()
    return _exact_side(n, k, a, den - a, (den.bit_length() - 1) * n)


@pytest.mark.parametrize("n, k, p", EXACT_RUNG_CASES)
def test_exact_rung_rounds_correctly(n, k, p):
    expected = exact_binomial_tail_as_double(n, k, p)
    assert exact_side(n, k, p) == expected
    assert binomial_tail(n, k, p) == expected


def test_fixed_point_hands_unsettled_roundings_to_the_exact_rung(monkeypatch):
    rung = []

    def counted(n, k, a, c, bits):
        # p is a / 2**e, and a + c is 2**e
        rung.append((n, k, a / (a + c)))
        return _exact_side(n, k, a, c, bits)

    monkeypatch.setattr(tailprob, "_exact_side", counted)
    falling_through = EXACT_RUNG_CASES[1:4]
    for n, k, p in falling_through:
        # too many bits for the exact side sum to run first: the counted
        # call is the one after the last fixed-point pass
        e = p.as_integer_ratio()[1].bit_length() - 1
        assert min(n - k + 1, k) * e * n > _EXACT_SUM_BITS
        assert binomial_tail(n, k, p) == exact_binomial_tail_as_double(n, k, p)
    assert rung == falling_through
    # a tail well clear of any rounding boundary settles in fixed point
    assert binomial_tail(1000, 400, 0.3) == exact_binomial_tail_as_double(1000, 400, 0.3)
    assert len(rung) == 3


def _broken_brackets(n, k, p, precisions):
    """The precisions whose pass breaks the error bound proved in the
    binomial_tail docstring: the exact side the fixed-point pass sums lies
    in its [S, S + E] bracket.  The exact side is taken once, for all of
    them, as an unreduced ratio: at n = 1000 and a tiny p the oracle's sum
    takes about a second, and reducing it to a Fraction twice that."""
    a, den = p.as_integer_ratio()
    c = den - a
    upper = (n - k) * a <= (k + 1) * c
    first, x, y = (k, a, c) if upper else (n - k + 1, c, a)
    factorials, reciprocals = tailprob._factorial_tables()
    coeff = factorials[n], reciprocals[first], reciprocals[n - first]
    tail, whole = _tail_ratio(n, k, p)
    side = tail if upper else whole - tail
    broken = []
    for precision in precisions:
        total, error, scale = tailprob._fixed_sum(
            n, first, coeff, x, y, den.bit_length() - 1, precision, upper
        )
        # S <= side / whole * 2**F <= S + E, in integers
        if not total * whole <= side << scale <= (total + error) * whole:
            broken.append(precision)
    return broken


@st.composite
def trials_and_k(draw):
    """``(n, k)`` with n in [1, MAX_TRIALS] and k in [1, n]."""
    n = draw(st.integers(1, MAX_TRIALS))
    return n, draw(st.integers(1, n))


# at n = 2, 3 and 4 the power chain's floors are the most relative to n:
# 53-bit x and y are floored at P = 4, and some digit pairs take x * y
@given(nk=trials_and_k(), p=P_FAMILIES)
@example(nk=(2, 1), p=0.1)
@example(nk=(3, 2), p=0.7)
@example(nk=(3, 1), p=0.9)
@example(nk=(4, 2), p=1 / 3)
@example(nk=(4, 1), p=0.9)
def test_fixed_point_bracket_holds_the_exact_side(nk, p):
    # also at precisions far under the ones the kernel runs at (the proof
    # holds from P = 3), where every error term is relatively larger, and at
    # the widest pass, whose width is nearest the factorial tables' own
    assume(0.0 < p < 1.0)
    n, k = nk
    assert _broken_brackets(n, k, p, (4, 8, 80, 640)) == []


# at P = 8 the floors of the recurrence lose more than one unit on these
@pytest.mark.parametrize(
    "n, k, p",
    [(82, 80, 0.8348438269222932), (119, 116, 0.9313455426041871), (13, 11, 0.6110956847822738)],
)
def test_fixed_point_bracket_covers_the_floors(n, k, p):
    assert _broken_brackets(n, k, p, (8,)) == []


def test_factorial_tables_are_floored_within_their_proved_deficit():
    # binomial_tail's proof needs the tables 20 bits wider than the widest
    # pass, every entry at most its exact value, and under it by at most
    # m floors of 2**(1 - width) for m! and MAX_TRIALS + 1 - m for 1/m!
    width = tailprob._TABLE_WIDTH
    assert width >= tailprob._PRECISIONS[-1] + tailprob._GUARD + 20
    factorials, reciprocals = tailprob._factorial_tables()
    assert len(factorials) == len(reciprocals) == MAX_TRIALS + 1
    for m in range(MAX_TRIALS + 1):
        exact = math.factorial(m)
        (f, f_exp), (g, g_exp) = factorials[m], reciprocals[m]
        assert f.bit_length() <= width and g.bit_length() <= width
        assert f_exp >= 0 and g_exp < 0
        # m! - F <= m! m 2**(1 - width)
        entry = f << f_exp
        assert entry <= exact
        assert (exact - entry) << (width - 1) <= m * exact
        # 1/m! - G <= (MAX_TRIALS + 1 - m) 2**(1 - width) / m!, times m! 2**-g_exp
        one = 1 << -g_exp
        assert g * exact <= one
        assert (one - g * exact) << (width - 1) <= (MAX_TRIALS + 1 - m) * one


def test_factorial_tables_are_built_on_the_first_fixed_point_tail():
    # a one-shot command with no fixed-point tail builds no table (`tail`
    # here takes the exact side sum), nor does a one shortcut that C <= 2**n
    # settles; the first tail that needs them, here a fixed-point one,
    # builds them
    script = """
import contextlib, io
from eragreats import binomial_tail, cli, tailprob
argvs = (["dilution"], ["proportion"], ["tail", "--n", "10", "--k", "6", "--p", "0.18696"])
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert binomial_tail(1000, 10, 1 - 2**-40) == 1.0
sizes = [tailprob._factorial_tables.cache_info().currsize]
binomial_tail(1000, 400, 0.3)
sizes.append(tailprob._factorial_tables.cache_info().currsize)
print(sizes)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[0, 1]\n", "")


def test_zero_shortcut_boundary_rounds_like_exact():
    # p puts the union bound log2(C(n, k) * p**k) in [-1080, -1070], on
    # both sides of the 2**-1076 cut, and so does the bound the shortcut
    # tests, n + k log2(p) with C(n, k) <= 2**n: results must split between
    # 0.0 and the smallest denormals exactly as the exact tail rounds
    outcomes = set()
    for n in (1, 2, 5, 30, 200, 1000):
        for k in sorted({n, n - 1, n - n // 4, n // 2} - {0}):
            log_comb = math.log2(math.comb(n, k))
            ps = [2.0 ** ((bound - log_comb) / k) for bound in range(-1080, -1069)]
            ps += [2.0 ** ((-1076 + bits - n) / k) for bits in range(-4, 5)]
            for p in ps:
                if p == 0.0:
                    continue
                a, den = p.as_integer_ratio()
                # above the mode, where the tail itself is summed
                assert (n - k) * a <= (k + 1) * (den - a), (n, k, p)
                expected = exact_binomial_tail_as_double(n, k, p)
                assert binomial_tail(n, k, p) == expected, (n, k, p)
                outcomes.add(expected > 0.0)
    assert outcomes == {False, True}


def _p_for_lower_bound(n, k, log2_bound):
    """The p, near 1, at which the one shortcut's bound on the lower tail,
    ``k * C(n, k - 1) * p**(k - 1) * (1 - p)**(n - k + 1)``, is about
    ``2**log2_bound``: bisection on log2(1 - p), where the bound rises with
    1 - p up to 1 - (k - 1) / n."""
    log2_head = math.log2(k * math.comb(n, k - 1))

    def log2_of_bound(log2_q):
        q = 2.0**log2_q
        return log2_head + (k - 1) * math.log2(1.0 - q) + (n - k + 1) * log2_q

    low, high = -53.0, math.log2(1.0 - (k - 1) / n)
    for _ in range(60):
        middle = (low + high) / 2
        low, high = (middle, high) if log2_of_bound(middle) < log2_bound else (low, middle)
    return 1.0 - 2.0**low


def test_one_shortcut_boundary_rounds_like_exact():
    # p puts the lower side's bound in [2**-60, 2**-48], on both sides of
    # the 2**-55 cut, and so does the bound the shortcut tests, with
    # C(n, k - 1) <= 2**n: results must split between 1.0 and the doubles
    # under it exactly as the exact tail rounds
    outcomes = set()
    for n in (2, 3, 5, 30, 200, 1000):
        for k in sorted({1, 2, n // 4, n // 2, n - n // 4, n - 1} - {0, n}):
            bounds = list(range(-60, -47))
            # C(n, k - 1) taken as 2**n raises the bound n - log2 C(n, k - 1)
            # bits: nine more put that within 4 bits of the cut, where some
            # p < 1 can (at k = n - 1 and n >= 200 even p = 1 - 2**-53 leaves
            # it far over)
            if n + math.log2(k) - 53 * (n - k + 1) < -59:
                log_comb = math.log2(math.comb(n, k - 1))
                bounds += [-55 + bits - n + log_comb for bits in range(-4, 5)]
            for bound in bounds:
                p = _p_for_lower_bound(n, k, bound)
                a, den = p.as_integer_ratio()
                # below the mode, where the lower tail is summed
                assert (n - k) * a > (k + 1) * (den - a), (n, k, p)
                expected = exact_binomial_tail_as_double(n, k, p)
                assert binomial_tail(n, k, p) == expected, (n, k, p)
                outcomes.add(expected < 1.0)
    assert outcomes == {False, True}


def test_one_shortcut_takes_no_fixed_point_pass(monkeypatch):
    passes = []

    def counted(*args):
        passes.append(args)
        return fixed_sum(*args)

    fixed_sum = tailprob._fixed_sum
    monkeypatch.setattr(tailprob, "_fixed_sum", counted)
    # a bound under 2**-55 with C(n, k - 1) <= 2**n
    assert binomial_tail(1000, 10, 1 - 2**-40) == 1.0
    assert passes == []
    # with C(n, k - 1) <= 2**n the bound stays over the cut, though the exact
    # one lies under it (log2 about -59) or not (about -53): one pass
    # decides each, and the tail still rounds to 1.0
    assert binomial_tail(1000, 999, 1 - 2**-44) == 1.0
    assert len(passes) == 1
    assert binomial_tail(1000, 999, 1 - 2**-41) == 1.0
    assert len(passes) == 2


def test_only_a_fixed_point_tail_reads_the_factorial_tables(monkeypatch):
    calls = []

    def counted(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)

        monkeypatch.setattr(tailprob, name, call)

    counted("_factorial_tables", tailprob._factorial_tables)
    counted("_fixed_sum", tailprob._fixed_sum)
    # both shortcuts, each on both sides of its cut with C(n, f) <= 2**n and
    # with the exact coefficient; passes well clear of the cuts; a tail the
    # passes hand to the exact side sum; and an exact side sum run first
    cases = [(1000, 999, 1 - 2**-m) for m in range(1, 54)]
    cases += [(1000, 999, p) for p in (0.2, 0.3, 0.35, 0.48)]
    cases += [(1000, 10, 1 - 2**-40), (1000, 400, 0.3), (1000, 1, 8.745614198645258e-272)]
    cases += [(10, 6, 0.18696)]
    kinds = set()
    for args in cases:
        del calls[:]
        binomial_tail(*args)
        reads, passes = calls.count("_factorial_tables"), calls.count("_fixed_sum")
        # once for a tail that takes a pass, however many, and never for one
        # that takes none
        assert reads == (1 if passes else 0), (args, reads, passes)
        kinds.add(reads)
    assert kinds == {0, 1}


def test_the_bound_test_runs_before_the_exact_side_sum(monkeypatch):
    calls = []

    def counted(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)

        monkeypatch.setattr(tailprob, name, call)

    counted("_exact_side", tailprob._exact_side)
    counted("_fixed_sum", tailprob._fixed_sum)
    # cheap sides, each settled by a shortcut with no sum at all
    for args, shortcut in (((2, 2, 5e-324), 0.0), ((3, 1, 1 - 2**-53), 1.0)):
        del calls[:]
        assert binomial_tail(*args) == shortcut
        assert calls == [], args
    # a cheap side the bound leaves: one exact side sum, no pass
    del calls[:]
    e = (0.3).as_integer_ratio()[1].bit_length() - 1
    assert 3 * e * 10 <= _EXACT_SUM_BITS
    assert binomial_tail(10, 3, 0.3) == exact_binomial_tail_as_double(10, 3, 0.3)
    assert calls == ["_exact_side"]


@given(n=st.integers(1, 60), p=st.floats(0.0, 1.0, allow_nan=False), data=st.data())
def test_monotone_in_k(n, p, data):
    k = data.draw(st.integers(1, n))
    assert binomial_tail(n, k, p) <= binomial_tail(n, k - 1, p) + 1e-15


@given(
    n=st.integers(1, 60),
    p1=st.floats(0.0, 1.0, allow_nan=False),
    p2=st.floats(0.0, 1.0, allow_nan=False),
    data=st.data(),
)
def test_monotone_in_p(n, p1, p2, data):
    k = data.draw(st.integers(0, n))
    low, high = sorted((p1, p2))
    assert binomial_tail(n, k, low) <= binomial_tail(n, k, high) + 1e-12


@given(n=st.integers(1, 200), p=st.floats(0.0, 1.0, allow_nan=False), data=st.data())
def test_bounded_by_unit_interval(n, p, data):
    k = data.draw(st.integers(0, n))
    value = binomial_tail(n, k, p)
    assert 0.0 <= value <= 1.0


def test_rejects_out_of_domain_arguments():
    with pytest.raises(DomainError):
        binomial_tail(0, 0, 0.5)
    with pytest.raises(DomainError):
        binomial_tail(1001, 3, 0.5)
    with pytest.raises(DomainError):
        binomial_tail(10, -1, 0.5)
    with pytest.raises(DomainError):
        binomial_tail(10, 11, 0.5)
    with pytest.raises(DomainError):
        binomial_tail(10, 3, -0.01)
    with pytest.raises(DomainError):
        binomial_tail(10, 3, 1.01)
    with pytest.raises(DomainError):
        binomial_tail(10, 3, float("nan"))
    with pytest.raises(DomainError):
        binomial_tail(10.0, 3, 0.5)
    with pytest.raises(DomainError):
        binomial_tail(10, 3.0, 0.5)
    with pytest.raises(DomainError):
        binomial_tail(10, True, 0.5)


@pytest.mark.parametrize("n, k", [(10, 3), (10, 8), (1000, 400), (1000, 1)])
@pytest.mark.parametrize("p", [Fraction(1, 3), Decimal("0.3"), Fraction(1, 10**400), 1])
def test_a_p_that_is_not_a_double_is_taken_as_the_nearest_one(n, k, p):
    value = binomial_tail(n, k, p)
    assert value == binomial_tail(n, k, float(p))
    assert 0.0 <= value <= 1.0


def test_an_out_of_range_p_is_shown_as_given():
    # p is compared exactly, never converted: one too large for a double is
    # refused like any other, not with an OverflowError
    for p in (Fraction(4, 3), Decimal("-0.1"), 10**400, Fraction(10**400, 3),
              float("nan"), Decimal("NaN")):
        with pytest.raises(DomainError, match=f"^{re.escape(f'p must be in [0, 1], got {p!r}')}$"):
            binomial_tail(10, 3, p)

# ------------------------------------------------------------- chances

def test_chance_display_integer_from_ten_up():
    assert chance_format(1 / 223.21).display == "1 in 223"
    assert chance_format(1 / 40.11).display == "1 in 40"
    assert chance_format(1 / 1780.4).display == "1 in 1780"
    assert chance_format(1 / 1780.6).display == "1 in 1781"
    assert chance_format(1 / 174874.2).display == "1 in 174874"
    assert chance_format(0.1).display == "1 in 10"


def test_chance_display_one_decimal_below_ten():
    assert chance_format(1 / 7.7).display == "1 in 7.7"
    assert chance_format(1 / 3.65).display == "1 in 3.7"
    assert chance_format(1 / 9.2).display == "1 in 9.2"
    assert chance_format(1 / 9.04).display == "1 in 9"
    assert chance_format(0.5).display == "1 in 2"
    assert chance_format(1.0).display == "1 in 1"


def test_chance_display_boundary_between_rules():
    # 9.96 rounds up to 10 under the one-decimal rule, matching the
    # integer rule across the threshold
    assert chance_format(1 / 9.96).display == "1 in 10"
    assert chance_format(1 / 9.94).display == "1 in 9.9"
    assert chance_format(1 / 10.4).display == "1 in 10"


def test_chance_keeps_probability():
    chance = chance_format(0.004)
    assert chance.probability == 0.004
    assert chance.display == "1 in 250"


def test_chance_rejects_out_of_domain_probabilities():
    for bad in (0.0, -0.2, 1.0000001, float("nan"), Decimal("NaN"), 10**400, Fraction(10**400, 3)):
        message = f"probability must be in (0, 1], got {bad!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            chance_format(bad)


@given(st.floats(5e-324, 1.0, allow_nan=False, allow_subnormal=True))
def test_chance_display_shape(probability):
    display = chance_format(probability).display
    assert display.startswith("1 in ")
    tail = display[5:]
    assert float(tail) > 0
    # one decimal at most, and only below ten
    if "." in tail:
        whole, frac = tail.split(".")
        assert len(frac) == 1
        assert float(tail) < 10


@given(st.floats(5e-324, 1.0, allow_subnormal=True))
@example(1e-20)
def test_chance_display_is_the_exact_reciprocal_rounded_half_up(probability):
    assert chance_format(probability).display == one_in_n(probability)
