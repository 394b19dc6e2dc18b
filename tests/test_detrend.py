"""Era detrending: single values, careers, and the historic average."""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from eragreats import DataError, DomainError
from eragreats.detrend import (
    SeasonStat,
    compute_historic_average,
    detrend_career,
    detrend_value,
    load_season_stats,
)

finite_values = st.floats(-1e6, 1e6, allow_nan=False)
positive_values = st.floats(1e-3, 1e6, allow_nan=False)


def test_detrend_value_examples():
    # a value posted against a league average twice the historic norm halves
    assert detrend_value(40.0, 10.0, 5.0) == 20.0
    assert detrend_value(40.0, 5.0, 10.0) == 80.0
    assert detrend_value(0.0, 3.0, 7.0) == 0.0


def test_detrend_value_at_historic_average_is_identity():
    assert detrend_value(31.5, 4.2, 4.2) == pytest.approx(31.5, rel=1e-15)


@given(value=finite_values, league=positive_values, historic=positive_values,
       factor=st.floats(1e-3, 1e3, allow_nan=False))
def test_detrend_value_is_homogeneous_in_value(value, league, historic, factor):
    scaled = detrend_value(value * factor, league, historic)
    assert scaled == pytest.approx(factor * detrend_value(value, league, historic), rel=1e-9)


@given(value=finite_values, league=positive_values, historic=positive_values)
def test_detrend_value_preserves_sign(value, league, historic):
    detrended = detrend_value(value, league, historic)
    assert math.copysign(1, detrended) == math.copysign(1, value) or value == 0


def test_detrend_value_domain():
    with pytest.raises(DomainError):
        detrend_value(1.0, 0.0, 5.0)
    with pytest.raises(DomainError):
        detrend_value(1.0, -2.0, 5.0)
    with pytest.raises(DomainError):
        detrend_value(1.0, 5.0, 0.0)
    with pytest.raises(DomainError):
        detrend_value(float("nan"), 5.0, 5.0)
    with pytest.raises(DomainError):
        detrend_value(float("inf"), 5.0, 5.0)
    # an int past the largest double is compared exactly, not converted
    with pytest.raises(DomainError, match=f"^value must be finite, got {10**400}$"):
        detrend_value(10**400, 1.0, 1.0)
    with pytest.raises(DomainError, match=(
            f"^league average must be positive and finite, got {10**400}$")):
        detrend_value(1.0, 10**400, 1.0)
    with pytest.raises(DomainError):
        detrend_value(1e300, 1e-300, 1.0)
    # ints whose product passes the largest double are taken as doubles too
    with pytest.raises(DomainError, match=re.escape(
            f"detrended value {10**300} * {10**300} / 1 overflows a double")):
        detrend_value(10**300, 1, 10**300)
    # the product overflows, the result does not
    assert detrend_value(1e300, 1e20, 1e10) == 1e290
    assert detrend_value(-1e300, 1e20, 1e10) == -1e290


def test_historic_average_is_arithmetic_mean():
    assert compute_historic_average([2.0, 4.0]) == 3.0
    assert compute_historic_average([5.0]) == 5.0
    # a number that is not a float is taken as its nearest double
    assert compute_historic_average([5]) == 5.0
    assert compute_historic_average([Fraction(1, 3)]) == compute_historic_average([1 / 3])
    with pytest.raises(DomainError):
        compute_historic_average([])
    with pytest.raises(DomainError):
        compute_historic_average([2.0, -1.0])
    with pytest.raises(DomainError, match=(
            f"^league averages must be positive and finite, got {10**400}$")):
        compute_historic_average([10**400])
    # the sum overflows, the mean does not
    assert compute_historic_average([1e308, 1e308]) == 1e308
    big = 1.7e308
    assert compute_historic_average([big] * 3) == math.ldexp(
        compute_historic_average([math.ldexp(big, -600)] * 3), 600
    )


# every positive double, with the largest ones often enough that sums overflow
positive_doubles = st.one_of(
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
    st.sampled_from([5e-324, 1e308, sys.float_info.max]),
)
signed_doubles = st.one_of(positive_doubles, positive_doubles.map(float.__neg__))


def _rounded(x: Fraction) -> Fraction:
    """Positive ``x`` rounded to a double, as if the exponent had no top."""
    shift = max(0, x.numerator.bit_length() - x.denominator.bit_length() - 1000)
    return Fraction(float(x / 2**shift)) * 2**shift


@given(st.lists(positive_doubles, min_size=1, max_size=8))
@example([sys.float_info.max] * 3)
def test_historic_average_is_the_rounded_sum_over_the_count(values):
    # fsum(values) / len(values), also where fsum overflows
    expected = float(_rounded(sum(map(Fraction, values))) / len(values))
    assert compute_historic_average(values) == expected


@given(st.lists(st.tuples(signed_doubles, positive_doubles), min_size=1, max_size=8),
       st.one_of(st.none(), positive_doubles))
@example([(1e308, 1.0), (1e308, 1.0), (-1e308, 1.0)], 1.0)
@example([(1e308, 1.0), (1e308, 1.0)], None)
def test_career_is_the_rounded_sum_of_its_seasons(rows, historic):
    stats = [SeasonStat(1900 + i, value, league) for i, (value, league) in enumerate(rows)]
    if historic is None:
        average = compute_historic_average(league for _, league in rows)
    else:
        average = historic
    try:
        seasons = [detrend_value(s.value, s.league_average, average) for s in stats]
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            detrend_career(stats, historic)
        return
    try:
        # fsum(seasons), correctly rounded, overflows where this does
        expected = float(sum(map(Fraction, seasons)))
    except OverflowError:
        with pytest.raises(DomainError, match="career total overflows a double"):
            detrend_career(stats, historic)
    else:
        assert detrend_career(stats, historic) == expected


def test_career_sums_detrended_seasons():
    stats = [
        SeasonStat(1920, 40.0, 10.0),
        SeasonStat(1921, 30.0, 5.0),
    ]
    # historic average defaults to mean(10, 5) = 7.5
    expected = 40.0 * 7.5 / 10.0 + 30.0 * 7.5 / 5.0
    assert detrend_career(stats) == pytest.approx(expected, rel=1e-12)
    # explicit override
    assert detrend_career(stats, historic_average=5.0) == pytest.approx(
        40.0 * 0.5 + 30.0, rel=1e-12
    )
    # int values and league averages are taken as doubles
    assert detrend_career([SeasonStat(1900, 5, 4)]) == detrend_career([SeasonStat(1900, 5.0, 4.0)])


def test_career_with_uniform_league_average_is_plain_sum():
    stats = [SeasonStat(year, float(value), 6.0) for year, value in
             [(1950, 12), (1951, 15), (1952, 9)]]
    assert detrend_career(stats) == pytest.approx(36.0, rel=1e-12)


@given(st.lists(st.tuples(positive_values, positive_values), min_size=1, max_size=8),
       st.floats(1e-2, 1e2, allow_nan=False))
def test_career_is_homogeneous_in_values(rows, factor):
    stats = [SeasonStat(1900 + i, value, league) for i, (value, league) in enumerate(rows)]
    scaled = [SeasonStat(1900 + i, value * factor, league)
              for i, (value, league) in enumerate(rows)]
    assert detrend_career(scaled) == pytest.approx(factor * detrend_career(stats), rel=1e-9)


def test_career_needs_at_least_one_season():
    with pytest.raises(DomainError):
        detrend_career([], 5.0)


def test_career_overflow_is_a_domain_error():
    stats = [SeasonStat(1922, 1e308, 1.0), SeasonStat(1923, 1e308, 1.0)]
    with pytest.raises(DomainError):
        detrend_career(stats)


def test_career_total_that_fits_after_an_overflowing_partial_sum():
    stats = [SeasonStat(1922, 1e308, 1.0), SeasonStat(1923, 1e308, 1.0),
             SeasonStat(1924, -1e308, 1.0)]
    assert detrend_career(stats, historic_average=1.0) == 1e308


def test_season_validation():
    with pytest.raises(DataError):
        SeasonStat(1920, 10.0, 0.0)
    with pytest.raises(DataError):
        SeasonStat(1920, 10.0, -1.0)


def test_load_season_stats(tmp_path):
    path = tmp_path / "seasons.csv"
    path.write_text("season,value,league_average\n1920,54,0.12\n1921,59,0.13\n")
    stats = load_season_stats(path)
    assert [s.season for s in stats] == [1920, 1921]
    assert stats[0].value == 54.0
    path.write_text("season,value,league_average\n1920,54,0.12\n1920,59,0.13\n")
    with pytest.raises(DataError):
        load_season_stats(path)
    path.write_text("season,value,league_average\n1920,54\n")
    with pytest.raises(DataError):
        load_season_stats(path)
    path.write_text("season,value,league_average\n")
    with pytest.raises(DataError):
        load_season_stats(path)
