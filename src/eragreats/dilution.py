"""Talent dilution: eligible population per major-league roster spot."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .errors import DataError, DomainError
from .population import PopulationTable, parse_int, read_rows


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
    return season.eligible_population * 1e6 / spots / 1e3


def format_per_roster_spot(value: float) -> str:
    """Display rule: one decimal below 100 with a trailing ".0" dropped,
    whole numbers from 100 up.
    """
    if not value > 0:
        raise DomainError(f"per-roster-spot value must be positive, got {value!r}")
    if value < 100:
        rounded = Decimal(value).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
        text = str(rounded)
        return text[:-2] if text.endswith(".0") else text
    return str(Decimal(value).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def load_league_config(path) -> list[tuple[int, int, int]]:
    """Read ``year,teams,roster_size`` rows from CSV."""
    columns = ("year", "teams", "roster_size")

    def build(config):
        if not config:
            raise DataError("no league rows found")
        return config

    return read_rows(
        path,
        ",".join(columns),
        lambda cells: tuple(parse_int(cell, name) for name, cell in zip(columns, cells)),
        build,
    )


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
