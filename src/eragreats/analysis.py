"""End-to-end overrepresentation reports.

An analysis takes a ranked list, a depth, and an era cutoff: count how
many of the top players started their careers by the cutoff, look up the
share of the all-time eligible pool that existed by then, and ask how
surprising that count would be if greatness were spread evenly over the
pool (an exact binomial tail).

Nothing is kept between calls: each call checks its inputs and takes its
tails afresh, one ``binomial_tail`` per distinct (depth, count, share).
The command line keeps each report command's output text (see ``cli``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError
from .population import (
    PopulationTable,
    WeightRegime,
    _exact_population,
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


def _report(source, depth, count, proportion, regime, chances) -> OverrepReport:
    """The report of one (source, count) with checked tail arguments.
    ``chances`` maps each (depth, count, share) already seen in the call
    to its ``Chance``, so each distinct one is one ``binomial_tail`` call;
    a share is never NaN, so equal keys are equal shares."""
    key = depth, count, proportion
    chance = chances.get(key)
    if chance is None:
        chance = chances[key] = _chance(binomial_tail(depth, count, proportion))
    # positional: keyword construction costs about 1.8 times as much
    return OverrepReport(source, depth, count, proportion, chance.probability, chance, regime)


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
    unweighted reports.

    Each cell needs its list's span check, its regime's share and its
    (list, depth) early count, in that order, each count followed by its
    tail's argument check.  The first regime's cells run them in that
    order, so the first error is the one checking every cell afresh would
    raise.  After that only a share can fail, as every share lies in
    [0, 1]: a later regime is one share, with the first regime's counts.
    Each distinct (depth, count, share) of the call is one tail.
    """
    if not lists:
        raise DomainError("sensitivity analysis needs at least one ranked list")
    if not regimes:
        raise DomainError("sensitivity analysis needs at least one weight regime")
    if not depths:
        raise DomainError("sensitivity analysis needs at least one depth")
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
        grid.append((depth, counts))
    chances = {}
    reports = []
    for index, regime in enumerate(regimes):
        if index:
            proportion = cumulative_proportion(table, cutoff_year, regime=regime)
        name = None if regime is None else regime.name
        reports += [
            _report(ranked.source, depth, k, proportion, name, chances)
            for depth, counts in grid for ranked, k in zip(lists, counts)
        ]
    return reports


def bridge_check(
    counts: Sequence[tuple[int, int]],
    pool_cutoff_year: int,
    era_cutoff_year: int,
    table: PopulationTable,
) -> list[OverrepReport]:
    """Recompute externally reported results against a truncated pool.

    The null proportion is the population through ``era_cutoff_year``
    divided by the population through ``pool_cutoff_year``, both linearly
    prorated.  ``counts`` holds (depth, early_count) pairs as reported;
    every pair is checked, in order, before any tail is taken.
    """
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
    chances = {}
    return [_report("external", depth, early, proportion, None, chances)
            for depth, early in counts]


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
