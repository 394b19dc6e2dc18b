"""End-to-end overrepresentation reports.

An analysis takes a ranked list, a depth, and an era cutoff: count how
many of the top players started their careers by the cutoff, look up the
share of the all-time eligible pool that existed by then, and ask how
surprising that count would be if greatness were spread evenly over the
pool (an exact binomial tail).

Nothing is kept between calls.  A grid is the loop over its cells, each
cell checking its list's span, counting its early players and taking its
tail; a map local to the call makes each distinct (depth, count, share)
one ``binomial_tail`` call.  A bridge check is the loop over its pairs,
one tail per pair, in order.  The command line keeps each report
command's output text (see ``cli``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import DomainError
from .population import (
    PopulationTable,
    WeightRegime,
    _exact_population,
    cumulative_proportion,
)
from .rankings import RankedList, count_early
from .tailprob import Chance, _chance, binomial_tail

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
    for entry in ranked.entries:
        if not first < entry.career_start_year <= final:
            raise DomainError(
                f"{entry.name!r} starts in {entry.career_start_year}, outside the "
                f"covered span ({first}, {final}]"
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
    lists: Iterable[RankedList],
    regimes: Iterable[WeightRegime | None],
    depths: Iterable[int],
    cutoff_year: int,
    table: PopulationTable,
) -> list[OverrepReport]:
    """Reports for every (regime, depth, list) combination.

    Row order is regimes in the given order, then depths in the given
    order, then lists in the given order.  A ``None`` regime gives the
    unweighted reports.

    The cells run in that order, each checking its list's span, then
    taking its regime's share (once per regime, at its first cell), then
    counting its early players, then taking its tail, so the first error
    is the first faulty cell's.  Each distinct (depth, count, share) of
    the call is one tail.
    """
    lists, regimes, depths = tuple(lists), tuple(regimes), tuple(depths)
    if not lists:
        raise DomainError("sensitivity analysis needs at least one ranked list")
    if not regimes:
        raise DomainError("sensitivity analysis needs at least one weight regime")
    if not depths:
        raise DomainError("sensitivity analysis needs at least one depth")
    chances = {}
    reports = []
    for regime in regimes:
        name = None if regime is None else regime.name
        proportion = None
        for depth in depths:
            for ranked in lists:
                _check_span(ranked, table)
                if proportion is None:
                    proportion = cumulative_proportion(table, cutoff_year, regime=regime)
                count = count_early(ranked, depth, cutoff_year)
                # count_early has checked the depth, and no share is NaN: equal keys, equal tails
                key = depth, count, proportion
                chance = chances.get(key)
                if chance is None:
                    chance = chances[key] = _chance(binomial_tail(*key))
                # positional: keyword construction costs about 1.8 times as much
                reports.append(OverrepReport(ranked.source, depth, count, proportion,
                                             chance.probability, chance, name))
    return reports


def bridge_check(
    counts: Iterable[tuple[int, int]],
    pool_cutoff_year: int,
    era_cutoff_year: int,
    table: PopulationTable,
) -> list[OverrepReport]:
    """Recompute externally reported results against a truncated pool.

    The null proportion is the population through ``era_cutoff_year``
    divided by the population through ``pool_cutoff_year``, both linearly
    prorated.  ``counts`` holds (depth, early_count) pairs as reported;
    their tails are taken in order, so the first faulty pair raises.
    """
    if not isinstance(pool_cutoff_year, int) or not isinstance(era_cutoff_year, int):
        raise DomainError("cutoff years must be integers")
    if era_cutoff_year > pool_cutoff_year:
        raise DomainError(
            f"era cutoff {era_cutoff_year} must not exceed pool cutoff {pool_cutoff_year}"
        )
    counts = tuple(counts)
    if not counts:
        raise DomainError("bridge check needs at least one (depth, count) pair")
    era, pool, _ = _exact_population(table, None, era_cutoff_year, pool_cutoff_year)
    proportion = era / pool
    reports = []
    for depth, early in counts:
        chance = _chance(binomial_tail(depth, early, proportion))
        reports.append(OverrepReport("external", depth, early, proportion,
                                     chance.probability, chance))
    return reports


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
    if p != p or not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p!r}")
    if trials > _MAX_SIMULATED_TRIALS:
        raise DomainError(f"trials must be at most {_MAX_SIMULATED_TRIALS}, got {trials!r}")
    # only the simulation needs numpy, whose import took 101-133 ms on a
    # 2-vCPU host with OpenBLAS's default thread pool and 52-58 ms with one
    # thread, the command line's default (see __main__)
    import numpy as np

    rng = np.random.default_rng(seed)
    counts = np.zeros(depth + 1, dtype=np.int64)
    for start in range(0, trials, _DRAW_CHUNK):
        draws = rng.binomial(depth, p, size=min(_DRAW_CHUNK, trials - start))
        counts += np.bincount(draws, minlength=depth + 1)
    at_least = counts[::-1].cumsum()[::-1]
    return at_least / trials
