"""Positional significant-figure rendering and the half-up display rule."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from eragreats import DomainError, format_probability
from eragreats.formatting import format_per_roster_spot, format_proportion, half_up
from oracles import rounded_half_up, significant_figures


def test_three_significant_figures_positional():
    assert format_probability(0.004482) == "0.00448"
    assert format_probability(0.0005617) == "0.000562"
    assert format_probability(5.7184e-06) == "0.00000572"
    assert format_probability(0.02493) == "0.0249"
    assert format_probability(0.10923) == "0.109"
    assert format_probability(0.2734) == "0.273"
    assert format_probability(1.0) == "1.00"
    assert format_probability(0.0) == "0"


def test_never_scientific_notation():
    assert "e" not in format_probability(3.21e-9)
    assert format_probability(3.21e-9) == "0.00000000321"


def test_requested_precision_is_respected():
    assert format_probability(5.7184e-06, significant=2) == "0.0000057"
    assert format_probability(0.1234, significant=1) == "0.1"
    assert format_probability(987.6, significant=2) == "990"


def test_rounding_that_crosses_a_power_of_ten():
    assert format_probability(0.0999999) == "0.100"
    assert format_probability(0.9996) == "1.00"


@given(
    value=st.one_of(
        st.floats(min_value=5e-324, max_value=sys.float_info.min, exclude_max=True),
        st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max),
    ),
    significant=st.integers(1, 6),
)
# subnormals whose rounded value is no exact double, so that a log10 of it
# would misplace the exponent by one, and the smallest subnormal
@example(value=9.99989e-321, significant=3)
@example(value=1.00295e-321, significant=2)
@example(value=5e-324, significant=6)
# from about 1e22 up, the double nearest a round value is not round
@example(value=1e23, significant=3)
@example(value=1.234e25, significant=3)
@example(value=sys.float_info.max, significant=6)
def test_matches_exact_decimal_rounding(value, significant):
    assert format_probability(value, significant) == significant_figures(value, significant)


def test_large_values_print_every_figure():
    assert format_probability(1e23) == "100000000000000000000000"
    assert format_probability(sys.float_info.max) == "180" + "0" * 306
    assert format_probability(sys.float_info.max, significant=17) == "17976931348623157" + "0" * 292


def test_proportion_uses_three_decimals():
    assert format_proportion(0.1869566464866726) == "0.187"
    assert format_proportion(1.0) == "1.000"
    assert format_proportion(0.0134) == "0.013"


def test_rejects_non_finite_and_bad_precision():
    with pytest.raises(DomainError):
        format_probability(float("nan"))
    with pytest.raises(DomainError):
        format_probability(float("inf"))
    with pytest.raises(DomainError):
        format_probability(0.5, significant=0)
    with pytest.raises(DomainError):
        format_proportion(float("nan"))
    # an int past the largest double is compared exactly, not converted
    for format_value in (format_probability, format_proportion):
        with pytest.raises(DomainError, match=f"^value must be finite, got {10**400}$"):
            format_value(10**400)


# 0.1235 and 0.15 round the other way from their doubles
@pytest.mark.parametrize("value", [3, 2**60 + 1, Fraction(1, 3), Fraction(3, 20),
                                   Decimal("0.1235"), Decimal("0.15")], ids=repr)
def test_a_number_that_is_not_a_float_prints_as_its_nearest_double(value):
    for format_value in (format_probability, format_proportion, format_per_roster_spot):
        assert format_value(value) == format_value(float(value))


@given(
    num=st.integers(1, 10**40),
    den=st.integers(1, 10**40),
    whole_from=st.sampled_from([10, 100]),
)
@example(num=1, den=20, whole_from=10)  # 0.05 is a tie: up to 0.1
@example(num=199, den=2, whole_from=100)  # 99.5 stays in tenths
@example(num=1999, den=20, whole_from=100)  # 99.95 rounds up to a whole 100
@example(num=201, den=2, whole_from=100)  # 100.5 is a tie: up to 101
def test_half_up_matches_exact_rounding(num, den, whole_from):
    assert half_up(num, den, whole_from) == rounded_half_up(Fraction(num, den), whole_from)
