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
take the regime as an optional ``regime=`` argument.

``read_rows`` is the one CSV reader every loader in the package uses;
each data row must be as wide as the file's header.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
        years = [r.period_end_year for r in self.records]
        if years != sorted(set(years)):
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

    @property
    def years(self) -> tuple[int, ...]:
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
    table_years = set(table.years)
    regime_years = set(regime.weights)
    if table_years != regime_years:
        missing = sorted(table_years - regime_years)
        extra = sorted(regime_years - table_years)
        parts = []
        if missing:
            parts.append(f"missing weights for {missing}")
        if extra:
            parts.append(f"weights for unknown years {extra}")
        raise DataError(f"regime {regime.name!r} does not match the table: " + "; ".join(parts))


def _accumulate(
    table: PopulationTable, cutoff_year: int, regime: WeightRegime | None
) -> float:
    """Population total through ``cutoff_year``, each period scaled by its
    ``regime`` weight, prorating any period the cutoff splits.  Summed
    with ``math.fsum`` so that the share at the final table year is
    exactly 1.
    """
    terms = []
    for rec in table.records:
        weight = 1.0 if regime is None else regime.weights[rec.period_end_year]
        if rec.period_end_year <= cutoff_year:
            terms.append(weight * rec.population)
        elif rec.period_start_year < cutoff_year:
            fraction = (cutoff_year - rec.period_start_year) / rec.period_length_years
            terms.append(weight * rec.population * fraction)
    return math.fsum(terms)


def _check_inputs(
    table: PopulationTable, cutoff_year: int, regime: WeightRegime | None
) -> None:
    if not isinstance(cutoff_year, int) or isinstance(cutoff_year, bool):
        raise DomainError(f"cutoff year must be an integer, got {cutoff_year!r}")
    if not table.first_year < cutoff_year <= table.final_year:
        raise DomainError(
            f"cutoff year {cutoff_year} is outside the covered span "
            f"({table.first_year}, {table.final_year}]"
        )
    if regime is not None:
        _check_weight_years(table, regime)


def cumulative_population(
    table: PopulationTable, cutoff_year: int, regime: WeightRegime | None = None
) -> float:
    """Eligible population (millions) that existed through ``cutoff_year``,
    each period scaled by its ``regime`` weight when one is given."""
    _check_inputs(table, cutoff_year, regime)
    return _accumulate(table, cutoff_year, regime)


def cumulative_proportion(
    table: PopulationTable, cutoff_year: int, regime: WeightRegime | None = None
) -> float:
    """Share of the all-time eligible population through ``cutoff_year``.

    With a ``regime``, each period's population is scaled by its weight in
    both the numerator and the denominator; uniform weights give the
    unweighted share.  No intermediate rounding: the ratio is taken
    between two full-precision accumulations, and equals exactly 1.0 at
    the table's final year.
    """
    _check_inputs(table, cutoff_year, regime)
    numerator = _accumulate(table, cutoff_year, regime)
    denominator = _accumulate(table, table.final_year, regime)
    if denominator == 0.0:
        raise DomainError(f"regime {regime.name!r} gives the whole table zero weight")
    return numerator / denominator


def read_rows(path, header, parse_row, build=list):
    """Read the CSV file at ``path`` and return ``build(rows)``, where
    ``rows`` holds ``parse_row(cells)`` for each non-blank data row.

    ``header`` is the expected header, such as ``"year,teams,roster_size"``,
    which the stripped header cells must spell; or a callable that takes
    those cells and raises DataError when they are wrong.  A data row must
    have as many cells as the header, and its cells reach ``parse_row``
    stripped.  A file with no data row is refused.  A DataError from any
    step gains the path, plus the line when the header or a row is at
    fault.
    """
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read file: {exc.strerror or exc}", path=path) from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot parse file: {exc}", path=path) from None
    if not rows:
        raise DataError("file is empty", path=path)
    names = [cell.strip() for cell in rows[0]]
    if callable(header):
        try:
            header(names)
        except DataError as exc:
            raise DataError(str(exc), path=path, line=1) from None
    elif names != header.split(","):
        raise DataError(
            f"expected header {header!r}, got {','.join(rows[0])!r}", path=path, line=1
        )
    parsed = []
    for lineno, row in enumerate(rows[1:], start=2):
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        try:
            if len(cells) != len(names):
                raise DataError(f"expected {len(names)} columns, got {len(cells)}")
            parsed.append(parse_row(cells))
        except DataError as exc:
            raise DataError(str(exc), path=path, line=lineno) from None
    if not parsed:
        raise DataError("no data rows found", path=path)
    try:
        return build(parsed)
    except DataError as exc:
        raise DataError(str(exc), path=path) from None


def parse_int(cell: str, what: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise DataError(f"bad {what}: {cell!r}") from None


def parse_float(cell: str, what: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"bad {what}: {cell!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise DataError(f"bad {what}: {cell!r}")
    return value


def load_population_table(path) -> PopulationTable:
    """Read a population table from CSV.

    Expected columns: ``year,population_millions[,period_length_years]``,
    and every row as wide as the header.  The length column is optional
    and defaults to 10; an empty cell also means 10.
    """
    columns = ["year", "population_millions", "period_length_years"]

    def check_header(names):
        if names not in (columns[:2], columns):
            raise DataError(
                "expected header 'year,population_millions[,period_length_years]', "
                f"got {','.join(names)!r}"
            )

    def parse(cells):
        year = parse_int(cells[0], "year")
        population = parse_float(cells[1], "population_millions")
        length = 10
        if len(cells) == 3 and cells[2]:
            length = parse_int(cells[2], "period_length_years")
        return PopulationRecord(year, population, length)

    return read_rows(path, check_header, parse, lambda records: PopulationTable(tuple(records)))


def load_weight_regimes(path) -> dict[str, WeightRegime]:
    """Read weight regimes from CSV, one column per regime.

    Expected header: ``year,<name>,<name>,...``.  Returns regimes keyed by
    name, in column order.
    """
    names: list[str] = []
    years: set[int] = set()

    def check_header(cells):
        if cells[:1] != ["year"] or len(cells) < 2:
            raise DataError(f"expected header 'year,<regime>,...', got {','.join(cells)!r}")
        names.extend(cells[1:])
        if len(set(names)) != len(names):
            raise DataError("duplicate regime names in header")

    def parse(cells):
        year = parse_int(cells[0], "year")
        if year in years:
            raise DataError(f"duplicate year {year}")
        years.add(year)
        return year, [parse_float(cell, f"weight {name!r}") for name, cell in zip(names, cells[1:])]

    def build(rows):
        return {
            name: WeightRegime(name, {year: weights[i] for year, weights in rows})
            for i, name in enumerate(names)
        }

    return read_rows(path, check_header, parse, build)
