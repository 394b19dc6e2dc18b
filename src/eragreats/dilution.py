"""Talent dilution: eligible population per major-league roster spot.

The per-spot figures display through ``formatting.format_per_roster_spot``,
beside ``half_up``, the exact half-up rule the "1 in N" figures use, with
whole numbers from 100 up.  The package root does not list this module's
names; import them from ``eragreats.dilution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError, DomainError
from .population import PopulationTable, fixed_columns, read_rows


@dataclass(frozen=True)
class LeagueSeason:
    """League size in a given year, joined with that year's period population.

    ``eligible_population`` is in millions and refers to the population of
    the period ending in ``year``.
    """

    year: int
    eligible_population: float
    teams: int
    roster_size: int

    def __post_init__(self):
        if self.teams < 1:
            raise DataError(f"{self.year}: teams must be >= 1, got {self.teams}")
        if self.roster_size < 1:
            raise DataError(f"{self.year}: roster size must be >= 1, got {self.roster_size}")
        if not self.eligible_population > 0:
            raise DataError(
                f"{self.year}: eligible population must be positive, "
                f"got {self.eligible_population!r}"
            )


def per_roster_spot(season: LeagueSeason) -> float:
    """Eligible people per roster spot, in thousands."""
    spots = season.teams * season.roster_size
    try:
        value = season.eligible_population * 1e6 / spots / 1e3
    except OverflowError:
        raise DomainError(f"{season.year}: roster spots overflow a double") from None
    if math.isinf(value):
        raise DomainError(f"{season.year}: people per roster spot overflow a double")
    return value


def load_league_config(path) -> list[tuple[int, int, int]]:
    """Read ``year,teams,roster_size`` rows from CSV, one row per year."""
    columns = fixed_columns("year,teams,roster_size", int, int, int)
    return read_rows(path, columns, lambda *row: row)


def build_league_seasons(
    config: list[tuple[int, int, int]], table: PopulationTable
) -> list[LeagueSeason]:
    """Join league-size rows with the population of the period each year ends.

    Every configured year must be the end year of some table period.
    """
    by_year = {rec.period_end_year: rec for rec in table.records}
    seasons = []
    for year, teams, roster in config:
        rec = by_year.get(year)
        if rec is None:
            raise DataError(
                f"league year {year} is not a period end year of the population table"
            )
        seasons.append(LeagueSeason(year, rec.population, teams, roster))
    return seasons
