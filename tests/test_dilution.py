"""Per-roster-spot dilution values and their display rule."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from eragreats import DataError, DomainError
from eragreats.defaults import default_league_seasons
from eragreats.dilution import (
    LeagueSeason,
    build_league_seasons,
    load_league_config,
    per_roster_spot,
)
from eragreats.formatting import format_per_roster_spot
from oracles import rounded_half_up


def test_hand_computed_values():
    # 5.01 million people over 8 teams of 15: 41.75 thousand per spot
    assert per_roster_spot(LeagueSeason(1890, 5.01, 8, 15)) == pytest.approx(41.75, rel=1e-12)
    # 11.59 million over 16 teams of 25: 28.975 thousand per spot
    assert per_roster_spot(LeagueSeason(1950, 11.59, 16, 25)) == pytest.approx(28.975, rel=1e-12)
    assert per_roster_spot(LeagueSeason(2010, 72.27, 30, 25)) == pytest.approx(96.36, rel=1e-12)


@given(
    population=st.floats(0.01, 500.0, allow_nan=False),
    teams=st.integers(1, 40),
    roster=st.integers(1, 40),
)
def test_value_times_spots_recovers_population(population, teams, roster):
    season = LeagueSeason(1900, population, teams, roster)
    value = per_roster_spot(season)
    # thousands per spot times spots is the population in thousands
    assert value * teams * roster == pytest.approx(population * 1000, rel=1e-12)


def test_display_rule():
    assert format_per_roster_spot(28.975) == "29"
    assert format_per_roster_spot(41.75) == "41.8"
    assert format_per_roster_spot(21.4) == "21.4"
    assert format_per_roster_spot(96.36) == "96.4"
    assert format_per_roster_spot(99.96) == "100"
    assert format_per_roster_spot(100.0) == "100"
    assert format_per_roster_spot(123.4) == "123"
    assert format_per_roster_spot(123.5) == "124"
    assert format_per_roster_spot(3.0) == "3"
    with pytest.raises(DomainError):
        format_per_roster_spot(0.0)
    with pytest.raises(DomainError):
        format_per_roster_spot(-1.0)
    with pytest.raises(DomainError):
        format_per_roster_spot(float("inf"))
    with pytest.raises(DomainError, match=(
            f"^per-roster-spot value must be positive and finite, got {10**400}$")):
        format_per_roster_spot(10**400)


@given(st.floats(min_value=5e-324, allow_infinity=False))
@example(8.333333333333333e300)  # 1e300 million people over 8 teams of 15
@example(99.95)  # the double sits just above 99.95: up to a whole 100
@example(99.85)  # the double sits just under 99.85: down to 99.8
def test_display_is_the_exact_value_rounded_half_up(value):
    assert format_per_roster_spot(value) == rounded_half_up(Fraction(value), 100)


def test_overflowing_value_is_a_domain_error():
    # about 1.8e302 million people and up overflow a double once in people
    with pytest.raises(DomainError):
        per_roster_spot(LeagueSeason(1890, 2e302, 8, 15))
    # roster spots past the double range cannot divide a double
    with pytest.raises(DomainError, match="roster spots overflow"):
        per_roster_spot(LeagueSeason(1890, 5.01, 10**400, 25))


def test_bundled_league_history(table):
    seasons = default_league_seasons(table)
    assert [s.year for s in seasons] == [1890, 1910, 1930, 1950, 1970, 1990, 2010]
    values = [per_roster_spot(s) for s in seasons]
    published = [41.7, 21.4, 24.8, 29.0, 40.8, 57.6, 96.3]
    for value, reference in zip(values, published):
        assert abs(value - reference) <= 0.1


def test_join_requires_matching_period_end(table):
    with pytest.raises(DataError):
        build_league_seasons([(1895, 8, 15)], table)


def test_season_validation():
    with pytest.raises(DataError):
        LeagueSeason(1950, 10.0, 0, 25)
    with pytest.raises(DataError):
        LeagueSeason(1950, 10.0, 16, 0)
    with pytest.raises(DataError):
        LeagueSeason(1950, -1.0, 16, 25)


def test_load_league_config(tmp_path):
    path = tmp_path / "league.csv"
    path.write_text("year,teams,roster_size\n1900,12,20\n")
    assert load_league_config(path) == [(1900, 12, 20)]
    path.write_text("year,teams\n1900,12\n")
    with pytest.raises(DataError):
        load_league_config(path)
    path.write_text("year,teams,roster_size\n1900,twelve,20\n")
    with pytest.raises(DataError) as excinfo:
        load_league_config(path)
    assert ":2" in str(excinfo.value)
    path.write_text("year,teams,roster_size\n")
    with pytest.raises(DataError):
        load_league_config(path)
