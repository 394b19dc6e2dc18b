"""Era-representation analysis for all-time-greatest baseball rankings.

Quantifies whether players from early eras are overrepresented in ranked
all-time-greats lists, given how small the eligible talent pool used to
be.  The pieces: cumulative eligible-population shares (optionally
interest-weighted), exact binomial tail probabilities with "1 in N"
presentation, per-roster-spot talent dilution, and era detrending of raw
statistics.
"""

from .analysis import (
    OverrepReport,
    analyze,
    bridge_check,
    monte_carlo_oracle,
    sensitivity_matrix,
)
from .defaults import (
    default_league_seasons,
    default_population_table,
    default_ranked_lists,
    default_weight_regimes,
)
from .detrend import (
    SeasonStat,
    compute_historic_average,
    detrend_career,
    detrend_value,
    load_season_stats,
)
from .dilution import (
    LeagueSeason,
    build_league_seasons,
    format_per_roster_spot,
    load_league_config,
    per_roster_spot,
)
from .errors import DataError, DomainError, EraGreatsError
from .formatting import format_probability, format_proportion
from .population import (
    PopulationRecord,
    PopulationTable,
    WeightRegime,
    cumulative_population,
    cumulative_proportion,
    load_population_table,
    load_weight_regimes,
)
from .rankings import PlayerEntry, RankedList, count_early, load_ranked_list
from .tailprob import Chance, binomial_tail, chance_format

__version__ = "0.1.0"

__all__ = [
    "Chance",
    "DataError",
    "DomainError",
    "EraGreatsError",
    "LeagueSeason",
    "OverrepReport",
    "PlayerEntry",
    "PopulationRecord",
    "PopulationTable",
    "RankedList",
    "SeasonStat",
    "WeightRegime",
    "analyze",
    "binomial_tail",
    "bridge_check",
    "build_league_seasons",
    "chance_format",
    "compute_historic_average",
    "count_early",
    "cumulative_population",
    "cumulative_proportion",
    "default_league_seasons",
    "default_population_table",
    "default_ranked_lists",
    "default_weight_regimes",
    "detrend_career",
    "detrend_value",
    "format_per_roster_spot",
    "format_probability",
    "format_proportion",
    "load_league_config",
    "load_population_table",
    "load_ranked_list",
    "load_season_stats",
    "load_weight_regimes",
    "monte_carlo_oracle",
    "per_roster_spot",
    "sensitivity_matrix",
]
