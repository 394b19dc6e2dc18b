"""Era-representation analysis for all-time-greatest baseball rankings.

Quantifies whether players from early eras are overrepresented in ranked
all-time-greats lists, given how small the eligible talent pool used to
be.  The pieces: cumulative eligible-population shares (optionally
interest-weighted), exact binomial tail probabilities with "1 in N"
presentation, per-roster-spot talent dilution, and era detrending of raw
statistics.

Importing the package imports none of its modules: each public name is
imported from its module on first use (PEP 562) and then bound here, so
a command or a caller pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name, listed once under the module that defines it
_NAMES_BY_MODULE = {
    "analysis": ("OverrepReport", "analyze", "bridge_check", "monte_carlo_oracle",
                 "sensitivity_matrix"),
    "defaults": ("default_league_seasons", "default_population_table",
                 "default_ranked_lists", "default_weight_regimes"),
    "detrend": ("SeasonStat", "compute_historic_average", "detrend_career", "detrend_value",
                "load_season_stats"),
    "dilution": ("LeagueSeason", "build_league_seasons", "load_league_config",
                 "per_roster_spot"),
    "errors": ("DataError", "DomainError", "EraGreatsError"),
    "formatting": ("format_per_roster_spot", "format_probability", "format_proportion"),
    "population": ("PopulationRecord", "PopulationTable", "WeightRegime",
                   "cumulative_population", "cumulative_proportion", "load_population_table",
                   "load_weight_regimes"),
    "rankings": ("PlayerEntry", "RankedList", "count_early", "load_ranked_list"),
    "tailprob": ("Chance", "binomial_tail", "chance_format"),
}
_MODULE_OF = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # called only for a name not yet bound here; the import system's own
    # lock makes a module's first import run once, and every thread then
    # reads the same object from it
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
