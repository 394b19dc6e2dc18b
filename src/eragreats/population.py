"""Eligible-population accounting.

The core quantity is the share of everyone who was ever eligible to play
that had already existed by some cutoff year.  Eligible population is
recorded per period, each identified by its final calendar year (decades
in the bundled data, with a trailing half-decade).  A cutoff strictly
inside a period earns that period a linear fraction of its population;
a cutoff on a period's final year includes the period in full.

Interest weighting scales each period's population by a regime weight in
both the numerator and the denominator, which models era-dependent talent
pull without changing the total-share normalization.  The share functions
take the regime as an optional ``regime=`` argument.  Every total is exact
(``_exact_population``), so every share is correctly rounded.

``read_rows`` is the one CSV reader: each loader declares one parser per
column, and the reader applies every cell and key rule for all of them,
one row at a time in file order.  It reads every file as UTF-8 and keeps
what it parses, keyed on the file's bytes, so the same content read
again in one process is not parsed again.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .errors import DataError, DomainError


@dataclass(frozen=True)
class PopulationRecord:
    """One period of the eligible-population table.

    ``population`` is in millions.  ``period_length_years`` defaults to a
    decade; the final period of a table may be shorter.
    """

    period_end_year: int
    population: float
    period_length_years: int = 10

    def __post_init__(self):
        if not self.population > 0:
            raise DataError(
                f"population for period ending {self.period_end_year} must be "
                f"positive, got {self.population!r}"
            )
        if not 1 <= self.period_length_years <= 10:
            raise DataError(
                f"period length for {self.period_end_year} must be between 1 "
                f"and 10 years, got {self.period_length_years!r}"
            )

    @property
    def period_start_year(self) -> int:
        return self.period_end_year - self.period_length_years


@dataclass(frozen=True)
class PopulationTable:
    """An ordered, non-overlapping sequence of population periods."""

    records: tuple[PopulationRecord, ...]

    def __post_init__(self):
        if not self.records:
            raise DataError("population table must contain at least one period")
        years = self.years
        # ``_exact_population``'s prefix sums per weight set (None: unweighted)
        object.__setattr__(self, "_sums", {})
        if list(years) != sorted(set(years)):
            raise DataError("population periods must have strictly increasing end years")
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.period_start_year < prev.period_end_year:
                raise DataError(
                    f"period ending {cur.period_end_year} overlaps the one "
                    f"ending {prev.period_end_year}"
                )

    @property
    def first_year(self) -> int:
        """First covered year (start of the earliest period)."""
        return self.records[0].period_start_year

    @property
    def final_year(self) -> int:
        """Last covered year (end of the latest period)."""
        return self.records[-1].period_end_year

    @cached_property
    def years(self) -> tuple[int, ...]:
        """Period end years in table order, built once per table."""
        return tuple(r.period_end_year for r in self.records)


@dataclass(frozen=True)
class WeightRegime:
    """Per-period interest weights, keyed by period end year.

    Weights live in [0, 1].  ``weights`` is a read-only copy of the
    mapping given at construction.
    """

    name: str
    weights: Mapping[int, float]

    def __post_init__(self):
        if not self.name:
            raise DataError("weight regime needs a non-empty name")
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))
        for year, w in self.weights.items():
            if not 0.0 <= w <= 1.0:
                raise DataError(
                    f"regime {self.name!r} has weight {w!r} for {year}, "
                    f"expected a value in [0, 1]"
                )
        # keys its prefix sums on a table: a frozenset keeps its own hash
        object.__setattr__(self, "_items", frozenset(self.weights.items()))


def _check_weight_years(table: PopulationTable, regime: WeightRegime) -> None:
    table_years, weight_years = set(table.years), regime.weights.keys()
    missing = sorted(table_years - weight_years)
    extra = sorted(weight_years - table_years)
    parts = []
    if missing:
        parts.append(f"missing weights for {missing}")
    if extra:
        parts.append(f"weights for unknown years {extra}")
    if parts:
        raise DataError(f"regime {regime.name!r} does not match the table: {'; '.join(parts)}")


# the least total that rounds past the largest double: 2**1024 - 2**970
_DOUBLE_OVERFLOW = (1 << 1024) - (1 << 970)


def _exact_population(
    table: PopulationTable, cutoff_year: int, regime: WeightRegime | None = None
) -> tuple[int, int]:
    """(exact total through ``cutoff_year``, scale): two totals of one
    table and regime share the scale, so they divide exactly.  A total past
    the largest double is a DomainError.

    A term, population times weight, is an integer over a power of two for
    doubles.  Over the terms' common denominator times 2520, the lcm of
    1..10, every term and its per-year part are integers.  Their prefix
    sums are kept on the table per weight set, for as many sets as the
    parse cache keeps files, the oldest going first.  The weight years are
    checked only when an entry is built: a kept one passed already.
    """
    if not isinstance(cutoff_year, int) or isinstance(cutoff_year, bool):
        raise DomainError(f"cutoff year must be an integer, got {cutoff_year!r}")
    if not table.first_year < cutoff_year <= table.final_year:
        raise DomainError(
            f"cutoff year {cutoff_year} is outside the covered span "
            f"({table.first_year}, {table.final_year}]"
        )
    key = None if regime is None else regime._items
    sums = table._sums.get(key)
    if sums is None:
        terms = [rec.population.as_integer_ratio() for rec in table.records]
        if regime is not None:
            _check_weight_years(table, regime)
            weights = [regime.weights[year].as_integer_ratio() for year in table.years]
            terms = [(p * w, q * v) for (p, q), (w, v) in zip(terms, weights)]
        common = math.lcm(*(q for _, q in terms))
        lengths = [rec.period_length_years for rec in table.records]
        per_year = [p * (common // q) * (2520 // n) for (p, q), n in zip(terms, lengths)]
        sums = [0, *accumulate(map(operator.mul, per_year, lengths))], per_year, 2520 * common
        _keep(table._sums, key, sums)
    prefix, per_year, scale = sums
    # periods are ordered and do not overlap: the ones that end by the
    # cutoff are a prefix, and only the next one can be split
    end = bisect_right(table.years, cutoff_year)
    total = prefix[end]
    if end < len(per_year):
        start = table.records[end].period_start_year
        if start < cutoff_year:
            total += per_year[end] * (cutoff_year - start)
    if total >= _DOUBLE_OVERFLOW * scale:
        raise DomainError(f"population total through {cutoff_year} overflows a double")
    return total, scale


def cumulative_population(
    table: PopulationTable, cutoff_year: int, regime: WeightRegime | None = None
) -> float:
    """Eligible population (millions) that existed through ``cutoff_year``,
    each period scaled by its ``regime`` weight when one is given, summed
    exactly and rounded once."""
    total, scale = _exact_population(table, cutoff_year, regime)
    return total / scale


def cumulative_proportion(
    table: PopulationTable, cutoff_year: int, regime: WeightRegime | None = None
) -> float:
    """Share of the all-time eligible population through ``cutoff_year``.

    With a ``regime``, each period's population is scaled by its weight in
    both the numerator and the denominator; uniform weights give the
    unweighted share.  Both totals are exact, so the share is their ratio
    correctly rounded, and exactly 1.0 at the table's final year.
    """
    numerator, _ = _exact_population(table, cutoff_year, regime)
    denominator, _ = _exact_population(table, table.final_year, regime)
    if not denominator:
        raise DomainError(f"regime {regime.name!r} gives the whole table zero weight")
    return numerator / denominator


# parsed files, keyed on (loader key, file bytes); every kept map holds
# at most this many entries (see ``_keep``)
_PARSED_LIMIT = 32
_parsed: dict = {}
_parsed_lock = threading.Lock()


def _keep(store: dict, key, value) -> None:
    """Store ``value`` under ``key`` in ``store``, first evicting the
    oldest entry once ``store`` holds ``_PARSED_LIMIT``.  The lock makes
    evict-then-store one step for threads that store at once."""
    with _parsed_lock:
        if len(store) >= _PARSED_LIMIT:
            del store[next(iter(store))]
        store[key] = value


def read_rows(path, columns, make, build=list, *, key):
    """Read the CSV file at ``path`` and return ``build(rows)``, where
    ``rows`` holds ``make(*values)`` for each non-blank data row.

    ``columns`` takes the header cells and returns one parser per column
    (``fixed_columns`` for a fixed header), or raises DataError.  A parser
    maps cell text to a value, raising ValueError on bad text: ``int``,
    ``str.strip``, ``finite``.  Cells reach it unstripped, since ``int`` and
    ``float`` ignore surrounding blanks.  Each data row must be as wide as
    the header; a refused cell is ``bad <column>: '<cell>'``, and a repeated
    value of the first column, the key, is ``duplicate <column> <value>``.
    An empty path and a file with no data row are refused.  A DataError
    gains ``Path(path)``, plus the line when the header or a row is at
    fault; the file is opened by the path as given, and a ``Path`` is built
    only for such an error.

    The file is opened once and read as bytes.  ``key`` is hashable and
    names everything besides those bytes that the result depends on (the
    loader, and for a ranked list the path's stem): a result is kept per
    (``key``, bytes), up to ``_PARSED_LIMIT`` files, and returned again for
    the same pair without a parse.  An error is never kept, and a list or
    dict result is returned as a fresh shallow copy, so a caller's edit
    never reaches a later load.

    The bytes are decoded as UTF-8, whatever the locale.  On a miss the
    data rows are checked and parsed in one pass, row by row in file
    order, so the error raised is that of the first faulty line.
    """
    if not path:
        raise DataError("empty file path")
    try:
        # os.fspath refuses an int, which open would take for a file descriptor
        with open(os.fspath(path), "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read file: {exc.strerror or exc}", path=Path(path)) from None
    entry = (key, raw)
    value = _parsed.get(entry)
    if value is None:
        value = _parse(path, raw, columns, make, build)
        _keep(_parsed, entry, value)
    # what the loaders build is immutable, but a list or dict holding it is not
    return value.copy() if isinstance(value, (list, dict)) else value


def _parse(path, raw, columns, make, build):
    """``build(rows)`` from the file bytes ``raw``, as ``read_rows``
    describes.  The text layer is the one ``open(path, encoding="utf-8",
    newline="")`` builds, so lines split and a bad byte is reported as they
    would be there.  Each non-blank data row is checked in turn: width,
    then cells in column order, then a repeated key, then ``make``.
    """
    try:
        rows = list(csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot parse file: {exc}", path=Path(path)) from None
    if not rows:
        raise DataError("file is empty", path=Path(path))
    try:
        parsers = columns(rows[0])
    except DataError as exc:
        raise DataError(str(exc), path=Path(path), line=1) from None
    names = [cell.strip() for cell in rows[0]]
    parsed = []
    keys = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not "".join(row).strip():
            continue
        try:
            if len(row) != len(parsers):
                raise DataError(f"expected {len(parsers)} columns, got {len(row)}")
            values = []
            for name, parse, cell in zip(names, parsers, row):
                try:
                    values.append(parse(cell))
                except ValueError:
                    raise DataError(f"bad {name}: {cell.strip()!r}") from None
            if values[0] in keys:
                raise DataError(f"duplicate {names[0]} {values[0]}")
            keys.add(values[0])
            parsed.append(make(*values))
        except DataError as exc:
            raise DataError(str(exc), path=Path(path), line=lineno) from None
    if not parsed:
        raise DataError("no data rows found", path=Path(path))
    try:
        return build(parsed)
    except DataError as exc:
        raise DataError(str(exc), path=Path(path)) from None


def fixed_columns(header: str, *parsers):
    """``columns`` for a header that must spell ``header`` once stripped."""

    def columns(cells):
        if [cell.strip() for cell in cells] != header.split(","):
            raise DataError(f"expected header {header!r}, got {','.join(cells)!r}")
        return parsers

    return columns


def finite(cell: str) -> float:
    """Parse a float cell, refusing nan and the infinities."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


def load_population_table(path) -> PopulationTable:
    """Read a population table from CSV.

    Expected columns: ``year,population_millions[,period_length_years]``,
    and every row as wide as the header.  The length column is optional
    and defaults to 10; an empty cell also means 10.
    """

    def columns(cells):
        names = [cell.strip() for cell in cells]
        if names not in (["year", "population_millions"],
                         ["year", "population_millions", "period_length_years"]):
            raise DataError(
                "expected header 'year,population_millions[,period_length_years]', "
                f"got {','.join(cells)!r}"
            )
        return (int, finite, lambda cell: int(cell) if cell.strip() else 10)[:len(names)]

    return read_rows(
        path, columns, PopulationRecord, lambda records: PopulationTable(tuple(records)),
        key="population",
    )


def load_weight_regimes(path) -> dict[str, WeightRegime]:
    """Read weight regimes from CSV, one column per regime.

    Expected header: ``year,<name>,<name>,...``.  Returns regimes keyed by
    name, in column order.
    """
    names: list[str] = []

    def columns(cells):
        stripped = [cell.strip() for cell in cells]
        if stripped[:1] != ["year"] or len(cells) < 2:
            raise DataError(f"expected header 'year,<regime>,...', got {','.join(cells)!r}")
        names.extend(stripped[1:])
        if len(set(names)) != len(names):
            raise DataError("duplicate regime names in header")
        return (int, *[finite] * len(names))

    def build(rows):
        years, *weights = zip(*rows)
        return {name: WeightRegime(name, dict(zip(years, w))) for name, w in zip(names, weights)}

    return read_rows(path, columns, lambda *row: row, build, key="weights")
