"""Bundled default data.

The package ships the population table, four ranked lists, the interest
weight regimes, and a league-size history so the command line works out
of the box.  Everything here is plain CSV under ``eragreats/data``.

``data_path`` and the ``DEFAULT_*`` constants import nothing of the
package, so the command line can build its parser from them alone; each
``default_*`` loader imports its loader's module when it is called.
"""

from __future__ import annotations

from pathlib import Path

# typing.TYPE_CHECKING without importing typing, which nothing else on
# the command line's import path loads; type checkers take it as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .dilution import LeagueSeason
    from .population import PopulationTable, WeightRegime
    from .rankings import RankedList

DEFAULT_CUTOFF_YEAR = 1950
DEFAULT_POOL_CUTOFF_YEAR = 1999
DEFAULT_DEPTHS = (10, 25)
DEFAULT_LIST_NAMES = ("ranker", "bwar", "fwar", "espn")
DEFAULT_BRIDGE_COUNTS = ((10, 6), (25, 10))


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(__file__).parent / "data" / name


def default_population_table() -> PopulationTable:
    from .population import load_population_table

    return load_population_table(data_path("population.csv"))


def default_weight_regimes() -> dict[str, WeightRegime]:
    from .population import load_weight_regimes

    return load_weight_regimes(data_path("weight_regimes.csv"))


def default_ranked_lists() -> list[RankedList]:
    from .rankings import load_ranked_list

    return [load_ranked_list(data_path(f"{name}.csv")) for name in DEFAULT_LIST_NAMES]


def default_league_seasons(table: PopulationTable) -> list[LeagueSeason]:
    from .dilution import build_league_seasons, load_league_config

    return build_league_seasons(load_league_config(data_path("league_config.csv")), table)
