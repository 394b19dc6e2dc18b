"""Era-representation analysis for all-time-greatest baseball rankings.

Quantifies whether players from early eras are overrepresented in ranked
all-time-greats lists, given how small the eligible talent pool used to
be.  The pieces: cumulative eligible-population shares (optionally
interest-weighted), exact binomial tail probabilities with "1 in N"
presentation, per-roster-spot talent dilution, and era detrending of raw
statistics.

The package root holds the names README's "Library API" lists, the ones
that reproduce the paper's reports.  Every other public name, those of
``dilution`` and ``detrend`` included, is imported from its own module.
Importing the package imports none of its modules: each root name is
imported from its module on first use (PEP 562) and then bound here, so
a command or a caller pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each root name, listed once under the module that defines it
_NAMES_BY_MODULE = {
    "analysis": ("OverrepReport", "analyze", "bridge_check", "sensitivity_matrix"),
    "defaults": ("default_population_table", "default_ranked_lists", "default_weight_regimes"),
    "errors": ("DataError", "DomainError", "EraGreatsError"),
    "formatting": ("format_probability",),
    "population": ("PopulationTable", "WeightRegime", "cumulative_proportion",
                   "load_population_table", "load_weight_regimes"),
    "rankings": ("RankedList", "load_ranked_list"),
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
