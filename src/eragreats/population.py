"""Eligible-population accounting.

The core quantity is the share of everyone who was ever eligible to play
that had already existed by some cutoff year.  Eligible population is
recorded per period, each identified by its final calendar year (decades
in the bundled data, with a trailing half-decade).  A cutoff strictly
inside a period earns that period a linear fraction of its population;
a cutoff on a period's final year includes the period in full.

Interest weighting scales each period's population by a regime weight in
both the numerator and the denominator, which models era-dependent talent
pull without changing the total-share normalization.  The share function,
``cumulative_proportion``, takes the regime as an optional ``regime=``
argument.  Every total is exact (``_exact_population``), so every share is
correctly rounded; nothing of a total is kept between calls.

``read_rows`` is the one CSV reader: each loader declares one parser per
column, and the reader applies every cell and key rule for all of them,
one row at a time in file order.  It reads every file as UTF-8, and every
call reads and parses afresh: nothing of a file is kept.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from functools import cached_property
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
        if self.population == math.inf:
            raise DataError(
                f"population for period ending {self.period_end_year} must be "
                f"finite, got {self.population!r}"
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
    table: PopulationTable, regime: WeightRegime | None, *cutoff_years: int
) -> tuple[int, ...]:
    """(exact total through each of ``cutoff_years``, in order, then the
    scale): the totals share the scale, so any two divide exactly.  Each
    cutoff is checked, then its total; a total past the largest double is a
    DomainError.

    A term, population times weight, is an integer over a power of two for
    doubles.  Over the terms' common denominator times 2520, the lcm of
    1..10, every term and its per-year part are integers.  They are built
    once per call, after the first cutoff passes its check, and the weight
    years are checked then.  A total is each period's per-year part times
    its years through the cutoff, summed.
    """
    totals = []
    for cutoff_year in cutoff_years:
        if not isinstance(cutoff_year, int) or isinstance(cutoff_year, bool):
            raise DomainError(f"cutoff year must be an integer, got {cutoff_year!r}")
        if not table.first_year < cutoff_year <= table.final_year:
            raise DomainError(
                f"cutoff year {cutoff_year} is outside the covered span "
                f"({table.first_year}, {table.final_year}]"
            )
        if not totals:
            terms = [rec.population.as_integer_ratio() for rec in table.records]
            if regime is not None:
                _check_weight_years(table, regime)
                weights = [regime.weights[year].as_integer_ratio() for year in table.years]
                terms = [(p * w, q * v) for (p, q), (w, v) in zip(terms, weights)]
            common = math.lcm(*(q for _, q in terms))
            per_year = [p * (common // q) * (2520 // rec.period_length_years)
                        for (p, q), rec in zip(terms, table.records)]
            scale = 2520 * common
        # a period ending by the cutoff counts in full, one straddling it
        # pro rata, and a later one not at all
        total = sum(part * (min(rec.period_end_year, cutoff_year) - rec.period_start_year)
                    for part, rec in zip(per_year, table.records)
                    if rec.period_start_year < cutoff_year)
        if total >= _DOUBLE_OVERFLOW * scale:
            raise DomainError(f"population total through {cutoff_year} overflows a double")
        totals.append(total)
    return (*totals, scale)


def cumulative_proportion(
    table: PopulationTable, cutoff_year: int, regime: WeightRegime | None = None
) -> float:
    """Share of the all-time eligible population through ``cutoff_year``.

    With a ``regime``, each period's population is scaled by its weight in
    both the numerator and the denominator; uniform weights give the
    unweighted share.  Both totals are exact, so the share is their ratio
    correctly rounded, and exactly 1.0 at the table's final year.
    """
    numerator, denominator, _ = _exact_population(table, regime, cutoff_year, table.final_year)
    if not denominator:
        raise DomainError(f"regime {regime.name!r} gives the whole table zero weight")
    return numerator / denominator


def read_rows(path, columns, make, build=list):
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

    The file is opened once and read as bytes (``_read_bytes``), which are
    decoded as UTF-8, whatever the locale.  The data rows are checked and
    parsed in one pass, row by row in file order, so the error raised is
    that of the first faulty line.  Each call builds a new result.
    """
    return _parse(path, _read_bytes(path), columns, make, build)


def _read_bytes(path) -> bytes:
    """The bytes of the file at ``path``; an empty path and a file that
    cannot be read are refused."""
    if not path:
        raise DataError("empty file path")
    try:
        # os.fspath refuses an int, which open would take for a file descriptor
        with open(os.fspath(path), "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read file: {exc.strerror or exc}", path=Path(path)) from None


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
    return _population_table(path, _read_bytes(path))


def _population_table(path, raw: bytes) -> PopulationTable:
    """``load_population_table`` of ``raw``, the bytes read from ``path``."""

    def columns(cells):
        names = [cell.strip() for cell in cells]
        if names not in (["year", "population_millions"],
                         ["year", "population_millions", "period_length_years"]):
            raise DataError(
                "expected header 'year,population_millions[,period_length_years]', "
                f"got {','.join(cells)!r}"
            )
        return (int, finite, lambda cell: int(cell) if cell.strip() else 10)[:len(names)]

    return _parse(path, raw, columns, PopulationRecord,
                  lambda records: PopulationTable(tuple(records)))


def load_weight_regimes(path) -> dict[str, WeightRegime]:
    """Read weight regimes from CSV, one column per regime.

    Expected header: ``year,<name>,<name>,...``.  Returns regimes keyed by
    name, in column order.
    """
    return _weight_regimes(path, _read_bytes(path))


def _weight_regimes(path, raw: bytes) -> dict[str, WeightRegime]:
    """``load_weight_regimes`` of ``raw``, the bytes read from ``path``."""
    names: list[str] = []

    def columns(cells):
        stripped = [cell.strip() for cell in cells]
        if stripped[:1] != ["year"] or len(cells) < 2:
            raise DataError(f"expected header 'year,<regime>,...', got {','.join(cells)!r}")
        names.extend(stripped[1:])
        if len(set(names)) != len(names):
            raise DataError("duplicate regime names in header")
        if "" in names:
            raise DataError("blank regime name in header")
        return (int, *[finite] * len(names))

    def build(rows):
        years, *weights = zip(*rows)
        return {name: WeightRegime(name, dict(zip(years, w))) for name, w in zip(names, weights)}

    return _parse(path, raw, columns, lambda *row: row, build)
