"""Bundled default data.

The package ships the population table, four ranked lists, the interest
weight regimes, and a league-size history so the command line works out
of the box.  Everything here is plain CSV under ``eragreats/data``.
"""

from __future__ import annotations

from pathlib import Path

from .dilution import LeagueSeason, build_league_seasons, load_league_config
from .population import (
    PopulationTable,
    WeightRegime,
    load_population_table,
    load_weight_regimes,
)
from .rankings import RankedList, load_ranked_list

DEFAULT_CUTOFF_YEAR = 1950
DEFAULT_POOL_CUTOFF_YEAR = 1999
DEFAULT_DEPTHS = (10, 25)
DEFAULT_LIST_NAMES = ("ranker", "bwar", "fwar", "espn")
DEFAULT_BRIDGE_COUNTS = ((10, 6), (25, 10))


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(__file__).parent / "data" / name


def default_population_table() -> PopulationTable:
    return load_population_table(data_path("population.csv"))


def default_weight_regimes() -> dict[str, WeightRegime]:
    return load_weight_regimes(data_path("weight_regimes.csv"))


def default_ranked_lists() -> list[RankedList]:
    return [load_ranked_list(data_path(f"{name}.csv")) for name in DEFAULT_LIST_NAMES]


def default_league_seasons(table: PopulationTable) -> list[LeagueSeason]:
    return build_league_seasons(load_league_config(data_path("league_config.csv")), table)
