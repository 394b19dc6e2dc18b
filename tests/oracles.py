"""Independent reference implementations used only by the tests.

The enumeration oracle computes binomial tails with no binomial
coefficients and no shared code with the package: it walks every one of
the 2^n outcome vectors, multiplies per-trial probabilities, and adds up
the outcomes with at least k successes.  Exponential cost caps it at
small n, which is exactly why it makes a trustworthy oracle there.

The exact oracle reads the bundled CSV text itself and computes shares,
tails and "1 in N" displays in rational arithmetic.  Like the
enumeration oracle it imports nothing from the package.

``significant_figures`` rounds the exact binary value of a double in
``Decimal`` arithmetic, as the reference for ``format_probability``.

``reference_read_rows`` keeps the package's original CSV reader, one
row at a time with no parse cache, as the reference the package reader
must match in every object it builds and every error it raises, whether
it parses a file afresh or returns it from its cache; ``indented_json``
is the original JSON rendering the CLI's JSON output must match byte
for byte.

``reference_report_text`` keeps the CLI's original report rendering, one
row dict per report and every cell formatted afresh, as the reference
the CLI's report rows rendered through ``cli._emit``, and so every kept
report text, must match byte for byte in every format.

``exact_cumulative_population`` and ``exact_cumulative_proportion`` take
each total in rational arithmetic at the exact values of the table's and
the regime's doubles and round it once, as the reference the package's
shares must equal bit for bit and in every error they raise.

``per_cell_reports`` keeps the plain per-cell loop over a report grid
(span check, share, early count and tail for every cell, nothing reused
between cells), built from the package's own steps, as the reference
the grid evaluator must match report for report and in its first error.
``per_pair_bridge`` does the same for ``bridge_check``, one reported
(depth, count) pair at a time.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path


def enumerated_tail(n: int, k_min: int, p: float) -> float:
    """P(X >= k_min) by exhaustive enumeration of outcome vectors."""
    terms = []
    for outcome in itertools.product((True, False), repeat=n):
        if sum(outcome) >= k_min:
            prob = 1.0
            for hit in outcome:
                prob *= p if hit else 1.0 - p
            terms.append(prob)
    return math.fsum(terms)


def enumerated_tails_all_k(n: int, p: float) -> list[float]:
    """[P(X >= k) for k in 0..n] from a single enumeration pass."""
    per_count: list[list[float]] = [[] for _ in range(n + 1)]
    for outcome in itertools.product((True, False), repeat=n):
        prob = 1.0
        for hit in outcome:
            prob *= p if hit else 1.0 - p
        per_count[sum(outcome)].append(prob)
    return [
        math.fsum(term for count in range(k, n + 1) for term in per_count[count])
        for k in range(n + 1)
    ]


def _read_rows(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _periods(population_csv) -> list[tuple[int, str, int]]:
    """(end year, population text, length) per period of the table."""
    return [
        (
            int(row["year"]),
            row["population_millions"].strip(),
            int(row.get("period_length_years") or 10),
        )
        for row in _read_rows(population_csv)
    ]


def exact_share(
    population_csv, cutoff_year: int, weights_csv=None, regime=None, doubles=False
) -> Fraction:
    """The (weighted) population share through ``cutoff_year``, exactly.

    Populations and weights are taken as the rationals their decimal text
    denotes, or with ``doubles`` as the doubles that text parses to; a
    period the cutoff splits counts pro rata.
    """
    number = (lambda text: Fraction(float(text))) if doubles else Fraction
    weights = None
    if weights_csv is not None:
        weights = {int(row["year"]): number(row[regime]) for row in _read_rows(weights_csv)}
    early = total = Fraction(0)
    for end, text, length in _periods(population_csv):
        amount = number(text) * (1 if weights is None else weights[end])
        total += amount
        start = end - length
        if end <= cutoff_year:
            early += amount
        elif start < cutoff_year:
            early += amount * Fraction(cutoff_year - start, length)
    return early / total


def share_envelope(population_csv, cutoff_year: int) -> tuple[Fraction, Fraction]:
    """Least and greatest unweighted share through ``cutoff_year`` over
    every table whose entries round to the bundled ones.

    Each entry may lie anywhere within half a unit of its last printed
    digit.  The share is least with every early entry at its floor and
    every later one at its ceiling, and greatest the other way round.
    ``cutoff_year`` must be a period end, so no period is split.
    """
    early = late = early_slack = late_slack = Fraction(0)
    for end, text, length in _periods(population_csv):
        if end - length < cutoff_year < end:
            raise ValueError(f"cutoff {cutoff_year} splits the period ending {end}")
        slack = Fraction(5) * Fraction(10) ** (Decimal(text).as_tuple().exponent - 1)
        if end <= cutoff_year:
            early += Fraction(text)
            early_slack += slack
        else:
            late += Fraction(text)
            late_slack += slack
    least, most = early - early_slack, early + early_slack
    return least / (least + late + late_slack), most / (most + late - late_slack)


def _tail_ratio(n: int, k_min: int, p) -> tuple[int, int]:
    """P(X >= k_min) for X ~ Binomial(n, p) at the exact value of ``p``, as
    a numerator over ``b**n``, where ``p = a / b``.

    The numerator is the sum of ``comb(n, k) * a**k * (b - a)**(n - k)``,
    taken by Horner's rule in ``b - a`` so that n = 1000 stays within a
    second or so.
    """
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    numerator = 0
    for k in range(k_min, n + 1):
        numerator = numerator * (b - a) + math.comb(n, k) * a**k
    return numerator, b**n


def exact_binomial_tail(n: int, k_min: int, p) -> Fraction:
    """P(X >= k_min) for X ~ Binomial(n, p) at the exact value of ``p``."""
    return Fraction(*_tail_ratio(n, k_min, p))


def exact_binomial_tail_as_double(n: int, k_min: int, p) -> float:
    """``float(exact_binomial_tail(n, k_min, p))``: the numerator over
    ``b**n`` by int true division, which rounds correctly, into the
    subnormal range too.  It skips the Fraction's gcd, which costs about
    two thirds of the time at n = 1000 and a tiny p."""
    numerator, denominator = _tail_ratio(n, k_min, p)
    return numerator / denominator


def rounded_half_up(value: Fraction, whole_from) -> str:
    """``value`` rounded half up: to a whole number from ``whole_from`` on,
    to one decimal below it, dropping a trailing ".0"."""
    if value >= whole_from:
        return str(math.floor(value + Fraction(1, 2)))
    whole, tenth = divmod(math.floor(10 * value + Fraction(1, 2)), 10)
    return str(whole) if tenth == 0 else f"{whole}.{tenth}"


def significant_figures(value: float, significant: int) -> str:
    """The exact binary ``value`` rounded half even to ``significant``
    significant figures in decimal arithmetic, written positionally."""
    if value == 0:
        return "0"
    with localcontext() as context:
        context.prec = significant
        context.rounding = ROUND_HALF_EVEN
        rounded = +Decimal(value)
        # keep trailing zeros: the last figure sits at 10**(exponent - significant + 1)
        last = Decimal(1).scaleb(rounded.adjusted() - significant + 1)
        return format(rounded.quantize(last), "f")


def one_in_n(probability) -> str:
    """ "1 in N" with N the exact reciprocal rounded half up: to a whole
    number from 10 on, to one decimal below 10, dropping a trailing ".0"."""
    return f"1 in {rounded_half_up(1 / Fraction(probability), 10)}"


def _reference_check_inputs(table, cutoff_year: int, regime) -> None:
    from eragreats.errors import DataError, DomainError

    if not isinstance(cutoff_year, int) or isinstance(cutoff_year, bool):
        raise DomainError(f"cutoff year must be an integer, got {cutoff_year!r}")
    if not table.first_year < cutoff_year <= table.final_year:
        raise DomainError(
            f"cutoff year {cutoff_year} is outside the covered span "
            f"({table.first_year}, {table.final_year}]"
        )
    if regime is None:
        return
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


def exact_population(table, cutoff_year: int, regime=None) -> Fraction:
    """The (weighted) population through ``cutoff_year`` at the exact
    values of the table's and the regime's doubles, a period the cutoff
    splits counting pro rata."""
    total = Fraction(0)
    for rec in table.records:
        amount = Fraction(rec.population)
        if regime is not None:
            amount *= Fraction(regime.weights[rec.period_end_year])
        if rec.period_end_year <= cutoff_year:
            total += amount
        elif rec.period_start_year < cutoff_year:
            start = rec.period_start_year
            total += amount * Fraction(cutoff_year - start, rec.period_length_years)
    return total


def _as_double(total: Fraction, cutoff_year: int) -> float:
    from eragreats.errors import DomainError

    try:
        return float(total)
    except OverflowError:
        raise DomainError(f"population total through {cutoff_year} overflows a double") from None


def exact_cumulative_population(table, cutoff_year: int, regime=None) -> float:
    _reference_check_inputs(table, cutoff_year, regime)
    return _as_double(exact_population(table, cutoff_year, regime), cutoff_year)


def exact_cumulative_proportion(table, cutoff_year: int, regime=None) -> float:
    """The exact ratio of the exact totals through the cutoff and through
    the final year, rounded once; each total must fit a double."""
    from eragreats.errors import DomainError

    _reference_check_inputs(table, cutoff_year, regime)
    numerator = exact_population(table, cutoff_year, regime)
    _as_double(numerator, cutoff_year)
    denominator = exact_population(table, table.final_year, regime)
    _as_double(denominator, table.final_year)
    if denominator == 0:
        raise DomainError(f"regime {regime.name!r} gives the whole table zero weight")
    return float(numerator / denominator)


def per_cell_reports(lists, regimes, depths, cutoff_year, table) -> list:
    """Reports for every (regime, depth, list) cell, in that order, each
    cell running all its steps afresh; a ``None`` regime is unweighted."""
    from eragreats.analysis import OverrepReport, _chance, _check_span
    from eragreats.population import cumulative_proportion
    from eragreats.rankings import count_early
    from eragreats.tailprob import binomial_tail

    reports = []
    for regime in regimes:
        for depth in depths:
            for ranked in lists:
                _check_span(ranked, table)
                proportion = cumulative_proportion(table, cutoff_year, regime=regime)
                early = count_early(ranked, depth, cutoff_year)
                chance = _chance(binomial_tail(depth, early, proportion))
                reports.append(OverrepReport(
                    source=ranked.source, depth=depth, early_count=early,
                    proportion_used=proportion, tail_probability=chance.probability,
                    chance=chance, regime=None if regime is None else regime.name,
                ))
    return reports


def per_pair_bridge(counts, pool_cutoff_year, era_cutoff_year, table) -> list:
    """``bridge_check`` for valid cutoffs and a non-empty ``counts``, one
    (depth, early count) pair at a time: its tail, its chance, its report.
    The share is the exact ratio of the two exact totals, rounded once."""
    from eragreats.analysis import OverrepReport, _chance
    from eragreats.tailprob import binomial_tail

    proportion = float(exact_population(table, era_cutoff_year)
                       / exact_population(table, pool_cutoff_year))
    reports = []
    for depth, early in counts:
        chance = _chance(binomial_tail(depth, early, proportion))
        reports.append(OverrepReport(
            source="external", depth=depth, early_count=early, proportion_used=proportion,
            tail_probability=chance.probability, chance=chance,
        ))
    return reports


def reference_read_rows(path, columns, make, build=list, *, key=None):
    """``read_rows`` as it first was, reading the file as UTF-8: each
    non-blank data row checked for width, parsed cell by cell, checked for
    a repeated key and built, in file order, so the first faulty line
    raises.  Every call parses the file afresh: ``key``, which names the
    package reader's cache entry, is ignored."""
    from eragreats.errors import DataError

    if not path:
        raise DataError("empty file path")
    path = Path(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read file: {exc.strerror or exc}", path=path) from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot parse file: {exc}", path=path) from None
    if not rows:
        raise DataError("file is empty", path=path)
    try:
        parsers = columns(rows[0])
    except DataError as exc:
        raise DataError(str(exc), path=path, line=1) from None
    names = [cell.strip() for cell in rows[0]]
    parsed = []
    keys = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not "".join(row).strip():
            continue
        try:
            if len(row) != len(parsers):
                raise DataError(f"expected {len(parsers)} columns, got {len(row)}")
            try:
                values = [parse(cell) for parse, cell in zip(parsers, row)]
            except ValueError:
                for name, parse, cell in zip(names, parsers, row):
                    try:
                        parse(cell)
                    except ValueError:
                        raise DataError(f"bad {name}: {cell.strip()!r}") from None
            if values[0] in keys:
                raise DataError(f"duplicate {names[0]} {values[0]}")
            keys.add(values[0])
            parsed.append(make(*values))
        except DataError as exc:
            raise DataError(str(exc), path=path, line=lineno) from None
    if not parsed:
        raise DataError("no data rows found", path=path)
    try:
        return build(parsed)
    except DataError as exc:
        raise DataError(str(exc), path=path) from None


def indented_json(rows) -> str:
    """The JSON text of ``rows`` as the CLI first rendered it."""
    return json.dumps(rows, indent=2) + "\n"


def report_row(report, regime: bool = False) -> dict:
    """The row of one report, led by its ``regime`` column when ``regime``
    is true."""
    row = {"regime": report.regime} if regime else {}
    row["source"] = report.source
    row["depth"] = report.depth
    row["early_count"] = report.early_count
    row["proportion"] = report.proportion_used
    row["probability"] = report.tail_probability
    row["chance"] = report.chance.display
    return row


def _reference_cell(column: str, value) -> str:
    from eragreats.formatting import format_probability, format_proportion

    if column == "proportion":
        return format_proportion(value)
    if column == "probability":
        return format_probability(value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _reference_render(columns, rows, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [
        max(len(col), max((len(row[i]) for row in rows), default=0))
        for i, col in enumerate(columns)
    ]
    lines = []
    for row in [list(columns), *rows]:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def reference_report_text(reports, fmt: str, regime: bool = False) -> str:
    """The CLI text of ``reports`` in ``fmt``: JSON is ``indented_json`` of
    the report rows; table and CSV format every cell of every row."""
    rows = [report_row(report, regime) for report in reports]
    if fmt == "json":
        return indented_json(rows)
    columns = list(rows[0])
    return _reference_render(
        columns, [[_reference_cell(c, row[c]) for c in columns] for row in rows], fmt
    )
