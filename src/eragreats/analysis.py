"""End-to-end overrepresentation reports.

An analysis takes a ranked list, a depth, and an era cutoff: count how
many of the top players started their careers by the cutoff, look up the
share of the all-time eligible pool that existed by then, and ask how
surprising that count would be if greatness were spread evenly over the
pool (an exact binomial tail).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError
from .population import (
    _PARSED_LIMIT,
    PopulationTable,
    WeightRegime,
    _exact_population,
    _parsed_lock,
    cumulative_proportion,
)
from .rankings import RankedList, count_early
from .tailprob import Chance, _check_tail_args, binomial_tail, chance_format

if TYPE_CHECKING:
    import numpy

# run time grows with the draws: 10**8 take about 7 s on one Xeon core
_MAX_SIMULATED_TRIALS = 10**8
_DRAW_CHUNK = 65536


@dataclass(frozen=True)
class OverrepReport:
    """One cell of an overrepresentation analysis.

    ``proportion_used`` is the null probability that a single great comes
    from the early era; ``regime`` is None for unweighted reports.
    """

    source: str
    depth: int
    early_count: int
    proportion_used: float
    tail_probability: float
    chance: Chance
    regime: str | None = None


def _check_span(ranked: RankedList, table: PopulationTable) -> None:
    first, final = table.first_year, table.final_year
    years = ranked.start_years
    # ``first < year <= final`` for every year, in C; operator.lt and
    # operator.le compare as the chained comparison does, for every type
    if all(map(operator.lt, repeat(first), years)) and all(map(operator.le, years, repeat(final))):
        return
    for entry in ranked.entries:
        if not first < entry.career_start_year <= final:
            raise DomainError(
                f"{entry.name!r} starts in {entry.career_start_year}, outside the "
                f"covered span ({first}, {final}]"
            )


def _chance(probability: float) -> Chance:
    """The "1 in N" of a tail probability; an exact 0.0 has no N and shows "-"."""
    if probability == 0.0:
        return Chance(0.0, "-")
    return chance_format(probability)


# report steps kept per process, and (in cli) their rendered texts.  One
# report-grid pass of the benchmark makes 1920 steps: 89, 90 and 95
# distinct keys on seeds 1, 2 and 3, rendered as 153, 154 and 159 distinct
# (key, format, regime column) texts, so each cache holds a whole pass with
# room to spare; an entry holds one report or row per source.  The same
# pass keeps 18 grids of 132 keys in all in ``_grids`` on each seed
_REPORTS_LIMIT = 256


@lru_cache(maxsize=_REPORTS_LIMIT)
def _reports(
    sources: tuple[str, ...], depth: int, counts: tuple[int, ...], proportion: float,
    regime: str | None = None,
) -> tuple[OverrepReport, ...]:
    """A report per (source, count) with checked tail arguments: each
    distinct count's tail is one ``binomial_tail`` call, and reports with
    equal counts share it and its ``Chance``.

    The result is kept per argument tuple, which determines every field of
    every report: the source, depth, count and share, the tail
    ``binomial_tail(depth, count, share)`` and its ``Chance``, and the
    regime name.  Callers check every argument before this step runs, so
    no error is ever kept and the first error of a call is unchanged.  A
    share is never NaN and never -0.0 (a ratio of non-negative integers is
    at least +0.0), so equal keys are equal shares.  Every share and tail
    lies in [0, 1] and is never NaN, infinite or -0.0 (a tail is a ratio of
    non-negative integers), so the CLI renderer may key each on its float
    value.  The reports are frozen and the result a tuple; callers copy it
    into lists of their own.
    """
    chances = {k: _chance(binomial_tail(depth, k, proportion)) for k in set(counts)}
    # positional: keyword construction costs about 1.8 times as much
    return tuple(
        OverrepReport(source, depth, k, proportion, chances[k].probability, chances[k], regime)
        for source, k in zip(sources, counts)
    )


def analyze(
    ranked: RankedList,
    depth: int,
    cutoff_year: int,
    table: PopulationTable,
    regime: WeightRegime | None = None,
) -> OverrepReport:
    """Overrepresentation report for one list at one depth.

    With a regime the null proportion is interest-weighted; otherwise it is
    the raw population share.  The proportion flows into the binomial tail
    at full precision.
    """
    return sensitivity_matrix([ranked], [regime], [depth], cutoff_year, table)[0]


def sensitivity_matrix(
    lists: Sequence[RankedList],
    regimes: Sequence[WeightRegime | None],
    depths: Sequence[int],
    cutoff_year: int,
    table: PopulationTable,
) -> list[OverrepReport]:
    """Reports for every (regime, depth, list) combination.

    Row order is regimes in the given order, then depths in the given
    order, then lists in the given order.  A ``None`` regime gives the
    unweighted reports.  Each (regime, depth) is one ``_reports`` step,
    kept per process, and the grid's step keys are kept per its inputs
    (see ``_grid``).
    """
    return [r for key in _grid(lists, regimes, depths, cutoff_year, table) for r in _reports(*key)]


# ``_grid``'s kept grids: (list ids, regime ids, depths, cutoff, table id)
# -> (keys, lists, regimes, table), the oldest entry first
_grids: dict = {}


def _grid(lists, regimes, depths, cutoff_year, table) -> tuple[tuple, ...]:
    """The ``_reports`` key of each (regime, depth) step of a grid, in row
    order, with every argument of every step checked.

    Each cell needs its list's span check, its regime's share and its
    (list, depth) early count, in that order, each count followed by its
    tail's argument check.  The first regime's cells run them in that
    order, so the first error is the one checking every cell afresh would
    raise.  After that only a share can fail, as every share lies in
    [0, 1]: a later regime is one share, with the first regime's counts.

    The keys are kept per process in ``_grids``, keyed on the identity of
    each list, each regime and the table, with the depths and the cutoff,
    for up to ``_PARSED_LIMIT`` grids; the oldest goes first.  Lists,
    regimes and tables are frozen (their entries, weights and records are
    read-only, as the kept ``start_years``, ``years`` and prefix sums
    already assume), so the keys are a function of those objects: a
    repeated grid over the same parsed inputs is one lookup, and a file
    parsed again gives new objects and misses.  An entry holds the objects
    its ids name, so no id is reused while it is kept.  Only a grid whose
    cutoff and depths are all exactly ``int`` is kept or looked up, since
    ``True == 1`` and ``1950.0 == 1950`` hash alike but are refused.  No
    error is ever kept, and the keys are a tuple, which no caller can edit.
    """
    if not lists:
        raise DomainError("sensitivity analysis needs at least one ranked list")
    if not regimes:
        raise DomainError("sensitivity analysis needs at least one weight regime")
    if not depths:
        raise DomainError("sensitivity analysis needs at least one depth")
    depths = tuple(depths)
    exact = type(cutoff_year) is int and all(type(depth) is int for depth in depths)
    if exact:
        kept_key = (tuple(map(id, lists)), tuple(map(id, regimes)), depths, cutoff_year, id(table))
        kept = _grids.get(kept_key)
        if kept is not None:
            return kept[0]
    sources = tuple(ranked.source for ranked in lists)
    grid = []
    for position, depth in enumerate(depths):
        counts = []
        for i, ranked in enumerate(lists):
            if not position:
                _check_span(ranked, table)
                if not i:
                    proportion = cumulative_proportion(table, cutoff_year, regime=regimes[0])
            counts.append(count_early(ranked, depth, cutoff_year))
            _check_tail_args(depth, counts[-1], proportion)
        grid.append((depth, tuple(counts)))
    keys = []
    for index, regime in enumerate(regimes):
        if index:
            proportion = cumulative_proportion(table, cutoff_year, regime=regime)
        name = None if regime is None else regime.name
        keys += [(sources, depth, counts, proportion, name) for depth, counts in grid]
    keys = tuple(keys)
    if exact:
        # evict-then-store is one step for threads, as in the parse cache
        with _parsed_lock:
            if len(_grids) >= _PARSED_LIMIT:
                del _grids[next(iter(_grids))]
            _grids[kept_key] = keys, tuple(lists), tuple(regimes), table
    return keys


def bridge_check(
    counts: Sequence[tuple[int, int]],
    pool_cutoff_year: int,
    era_cutoff_year: int,
    table: PopulationTable,
) -> list[OverrepReport]:
    """Recompute externally reported results against a truncated pool.

    The null proportion is the population through ``era_cutoff_year``
    divided by the population through ``pool_cutoff_year``, both linearly
    prorated.  ``counts`` holds (depth, early_count) pairs as reported.
    """
    keys = _bridge_grid(counts, pool_cutoff_year, era_cutoff_year, table)
    return [r for key in keys for r in _reports(*key)]


def _bridge_grid(counts, pool_cutoff_year, era_cutoff_year, table) -> list[tuple]:
    """The ``_reports`` key of each pair's step, in pair order, with every
    argument checked."""
    if not isinstance(pool_cutoff_year, int) or not isinstance(era_cutoff_year, int):
        raise DomainError("cutoff years must be integers")
    if era_cutoff_year > pool_cutoff_year:
        raise DomainError(
            f"era cutoff {era_cutoff_year} must not exceed pool cutoff {pool_cutoff_year}"
        )
    if not counts:
        raise DomainError("bridge check needs at least one (depth, count) pair")
    era, _ = _exact_population(table, era_cutoff_year)
    pool, _ = _exact_population(table, pool_cutoff_year)
    proportion = era / pool
    for depth, early in counts:
        _check_tail_args(depth, early, proportion)
    return [(("external",), depth, (early,), proportion, None) for depth, early in counts]


def monte_carlo_oracle(depth: int, p: float, trials: int, seed: int) -> numpy.ndarray:
    """Empirical tail estimates from simulated binomial draws.

    Returns an array of length ``depth + 1`` whose entry k estimates
    P(X >= k).  Fully determined by ``seed``.  ``trials`` is at most
    10**8; the draws are taken in fixed chunks, which bounds memory and
    gives the same draws as one call.
    """
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        raise DomainError(f"depth must be a positive integer, got {depth!r}")
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise DomainError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p!r}")
    if trials > _MAX_SIMULATED_TRIALS:
        raise DomainError(f"trials must be at most {_MAX_SIMULATED_TRIALS}, got {trials!r}")
    # numpy costs about 100 ms to import, and only the simulation needs it
    import numpy as np

    rng = np.random.default_rng(seed)
    counts = np.zeros(depth + 1, dtype=np.int64)
    for start in range(0, trials, _DRAW_CHUNK):
        draws = rng.binomial(depth, p, size=min(_DRAW_CHUNK, trials - start))
        counts += np.bincount(draws, minlength=depth + 1)
    at_least = counts[::-1].cumsum()[::-1]
    return at_least / trials
