"""Era detrending for raw statistics.

A season value is rescaled by (historic average / that season's league
average), so seasons posted against an easy league shrink and seasons
posted against a hard league grow.  A career total is the exact sum of
its detrended seasons, rounded once (``detrend_career``); the ``detrend``
command prints that total too.  The package root does not list this
module's names; import them from ``eragreats.detrend``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError, DomainError
from .population import finite, fixed_columns, read_rows


@dataclass(frozen=True)
class SeasonStat:
    """One season of a counting or rate statistic for one player."""

    season: int
    value: float
    league_average: float

    def __post_init__(self):
        if not self.league_average > 0:
            raise DataError(
                f"season {self.season}: league average must be positive, "
                f"got {self.league_average!r}"
            )


def detrend_value(value: float, league_average: float, historic_average: float) -> float:
    """Rescale one value: ``value * historic_average / league_average``.

    Where that expression overflows, it is redone on the ``frexp``
    mantissas and the exponents are added back by ``ldexp``: the same two
    roundings without the overflowing product, so a result that fits a
    double is returned, and every result that fitted before is unchanged.
    A result that itself overflows a double raises DomainError.
    """
    if value != value or not abs(value) <= sys.float_info.max:
        raise DomainError(f"value must be finite, got {value!r}")
    if not 0 < league_average <= sys.float_info.max:
        raise DomainError(f"league average must be positive and finite, got {league_average!r}")
    if not 0 < historic_average <= sys.float_info.max:
        raise DomainError(
            f"historic average must be positive and finite, got {historic_average!r}"
        )
    detrended = value * historic_average / league_average
    if not math.isinf(detrended):
        return detrended
    (v, v_exp), (h, h_exp), (a, a_exp) = map(
        math.frexp, (value, historic_average, league_average)
    )
    try:
        return math.ldexp(v * h / a, v_exp + h_exp - a_exp)
    except OverflowError:
        raise DomainError(
            f"detrended value {value!r} * {historic_average!r} / {league_average!r} "
            f"overflows a double"
        ) from None


# every finite double is a whole number of 2**-1074
_UNITS = 1 << 1074


def _exact_sum(values: list[float]) -> int:
    """The sum of ``values`` in units of 2**-1074, exactly."""
    return sum(num * (_UNITS // den) for num, den in map(float.as_integer_ratio, values))


def compute_historic_average(league_averages: Iterable[float]) -> float:
    """Arithmetic mean of per-season league averages.

    The exact sum is rounded at 2**-k of its size, where 2**k brings it
    under 2**1023, divided by the count and scaled back by ``ldexp``.  A
    power of two commutes with both roundings in the normal range, so this
    is ``fsum(values) / len(values)``, also where that sum overflows.
    """
    values = list(league_averages)
    if not values:
        raise DomainError("historic average needs at least one league average")
    for v in values:
        if not 0 < v <= sys.float_info.max:
            raise DomainError(f"league averages must be positive and finite, got {v!r}")
    total = _exact_sum(values)
    # 2**2097 units of 2**-1074 are 2**1023
    k = max(0, total.bit_length() - 2097)
    return math.ldexp(total / (_UNITS << k) / len(values), k)


def detrend_career(stats: Sequence[SeasonStat], historic_average: float | None = None) -> float:
    """Sum of detrended season values, taken exactly and rounded once.

    ``historic_average`` defaults to the mean of the league averages carried
    by ``stats`` themselves.
    """
    if not stats:
        raise DomainError("career detrending needs at least one season")
    if historic_average is None:
        historic_average = compute_historic_average(s.league_average for s in stats)
    return _career_sum([detrend_value(s.value, s.league_average, historic_average) for s in stats])


def _career_sum(detrended: list[float]) -> float:
    """The exact sum of already detrended season values, rounded once."""
    try:
        return _exact_sum(detrended) / _UNITS
    except OverflowError:
        raise DomainError("career total overflows a double") from None


def load_season_stats(path) -> list[SeasonStat]:
    """Read ``season,value,league_average`` rows from CSV."""
    columns = fixed_columns("season,value,league_average", int, finite, finite)
    return read_rows(path, columns, SeasonStat)
