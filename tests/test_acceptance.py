"""Acceptance gate.

Eight criteria, one test each, in a fixed order.  Every test prints a
single "criterion N: PASS/FAIL" line straight to the terminal (bypassing
pytest's capture) and fails with a cell-by-cell diff on any mismatch.

The reference values asserted here are the published analysis results
this package exists to reproduce, kept verbatim.  Every cell is compared
with its published string, except six chance strings that cannot follow
from the bundled inputs.  Each of those is checked by a proof of why:

- Precision cells (criterion 2: ranker top-10 and ranker, bwar and fwar
  top-25).  The published table was computed from unrounded eligible
  populations.  The program's display is checked against the exact
  oracle on the bundled inputs.  All eight published probability and
  chance pairs must reproduce at ``PUBLISHED_SHARE``, and that share must
  lie inside the envelope the bundled table's rounding allows.  A cell
  the bundled inputs do reproduce is refused as a precision cell.
- Errata (criterion 3: w3 bwar and fwar top-10).  The published chance
  contradicts the published probability of the same cell.  ``ERRATA``
  records the published string, the corrected one and the reason.  An
  entry is admitted only if the chances at both ends of the
  probability's display interval exclude the published chance, and its
  corrected string must equal the exact oracle's.

Every report in criteria 2 and 3 is also checked against the exact
oracle in ``oracles.py``, which shares no code with the package.
"""

import json
import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import pytest

from eragreats import (
    WeightRegime,
    analyze,
    binomial_tail,
    bridge_check,
    chance_format,
    cumulative_proportion,
    format_probability,
    sensitivity_matrix,
)
from eragreats.analysis import monte_carlo_oracle
from eragreats.defaults import data_path, default_league_seasons
from eragreats.detrend import SeasonStat, compute_historic_average, detrend_career, detrend_value
from eragreats.dilution import per_roster_spot
from eragreats.formatting import format_per_roster_spot
from eragreats.population import PopulationRecord, PopulationTable
from oracles import (
    enumerated_tails_all_k,
    exact_binomial_tail,
    exact_share,
    one_in_n,
    share_envelope,
)

POPULATION_CSV = data_path("population.csv")
WEIGHTS_CSV = data_path("weight_regimes.csv")

TRIALS = 10**6
SEED = 0


def _announce(capsys, number: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"criterion {number}: {status} ({label})", flush=True)
    if failures:
        pytest.fail("\n".join(failures), pytrace=False)


def _sig_figs(text: str) -> int:
    return len(text.replace(".", "").lstrip("0"))


def _probability_cell(computed: float, published: str) -> str | None:
    """Mismatch message if the computed value does not display as the
    published string at the published string's own precision."""
    rendered = format_probability(computed, significant=_sig_figs(published))
    if rendered != published:
        return f"displays {rendered}, published {published}"
    return None


def _check_against_oracle(
    cell: str, report, exact: Fraction, of_doubles: Fraction, failures: list[str]
) -> str:
    """Check a report against the exact oracle and return the oracle's
    chance.

    The share must be the correctly rounded exact share of the bundled
    doubles, ``of_doubles``, and lie within 2 ulp of the exact share of the
    decimal text, ``exact`` (parsing the text moves it: the w2 share at
    1950 ends in ...256 from the decimals, ...253 from the doubles).  The
    tail and chance are checked at the report's own share: the tail equal
    to the correctly rounded exact tail, the chance string exactly.
    """
    share = report.proportion_used
    if share != float(of_doubles):
        failures.append(f"{cell}: share {share!r}, exact share of the doubles "
                        f"{float(of_doubles)!r}")
    if abs(Fraction(share) - exact) > 2 * math.ulp(share):
        failures.append(f"{cell}: share {share!r}, exact {float(exact)!r}")
    tail = exact_binomial_tail(report.depth, report.early_count, share)
    if report.tail_probability != float(tail):
        failures.append(f"{cell}: tail {report.tail_probability!r}, exact {float(tail)!r}")
    oracle = one_in_n(tail)
    if report.chance.display != oracle:
        failures.append(f"{cell}: chance {report.chance.display!r}, exact oracle {oracle!r}")
    return oracle


# criterion 1 ---------------------------------------------------------

def test_criterion_1_population_shares(table, capsys):
    expected = [
        "0.013", "0.027", "0.043", "0.068", "0.093", "0.122", "0.154", "0.187",
        "0.240", "0.310", "0.407", "0.515", "0.689", "0.896", "1.000",
    ]
    failures = []
    for year, reference in zip(table.years, expected):
        got = f"{cumulative_proportion(table, year):.3f}"
        if got != reference:
            failures.append(f"share through {year}: computed {got}, published {reference}")
    _announce(capsys, 1, "cumulative shares at every period end", failures)


# criterion 2 ---------------------------------------------------------

UNWEIGHTED_CELLS = [
    # (source, depth, early_count, probability, chance)
    ("ranker", 10, 7, "0.000562", "1 in 1780"),
    ("bwar", 10, 6, "0.00448", "1 in 223"),
    ("fwar", 10, 6, "0.00448", "1 in 223"),
    ("espn", 10, 5, "0.0249", "1 in 40"),
    ("ranker", 25, 15, "0.0000057", "1 in 174816"),
    ("bwar", 25, 15, "0.0000057", "1 in 174816"),
    ("fwar", 25, 12, "0.000826", "1 in 1210"),
    ("espn", 25, 11, "0.00322", "1 in 310"),
]

# The share behind the published table.  Any share from about 0.18696143
# to 0.18696152 reproduces all eight published pairs; the bundled table,
# whose entries are rounded to 0.01 million, gives 6516/34853 = 0.1869566.
PUBLISHED_SHARE = 0.1869615

# (source, depth) of the cells whose published chance needs PUBLISHED_SHARE
PRECISION_CELLS = {("ranker", 10), ("ranker", 25), ("bwar", 25), ("fwar", 25)}


def test_criterion_2_unweighted_reports(table, lists_by_name, capsys):
    failures = []
    least, most = share_envelope(POPULATION_CSV, 1950)
    if not least <= PUBLISHED_SHARE <= most:
        failures.append(
            f"published share {PUBLISHED_SHARE} lies outside the bundled table's "
            f"rounding envelope [{float(least):.7f}, {float(most):.7f}]"
        )
    exact = exact_share(POPULATION_CSV, 1950)
    of_doubles = exact_share(POPULATION_CSV, 1950, doubles=True)
    for source, depth, early, probability, chance in UNWEIGHTED_CELLS:
        report = analyze(lists_by_name[source], depth, 1950, table)
        cell = f"{source} top-{depth}"
        oracle = _check_against_oracle(cell, report, exact, of_doubles, failures)
        if report.early_count != early:
            failures.append(f"{cell}: early count {report.early_count}, published {early}")
        problem = _probability_cell(report.tail_probability, probability)
        if problem:
            failures.append(f"{cell}: probability {problem}")
        published_tail = binomial_tail(depth, early, PUBLISHED_SHARE)
        problem = _probability_cell(published_tail, probability)
        if problem:
            failures.append(f"{cell}: at the published share, probability {problem}")
        published_display = chance_format(published_tail).display
        if published_display != chance:
            failures.append(
                f"{cell}: at the published share, chance {published_display!r}, "
                f"published {chance!r}"
            )
        if (source, depth) in PRECISION_CELLS:
            if oracle == chance:
                failures.append(
                    f"{cell}: the bundled table reproduces the published chance "
                    f"{chance!r}, so it is no precision cell"
                )
        elif report.chance.display != chance:
            failures.append(
                f"{cell}: chance {report.chance.display!r}, published {chance!r}"
            )
    _announce(capsys, 2, "unweighted reports at cutoff 1950", failures)


# criterion 3 ---------------------------------------------------------

WEIGHTED_CELLS = {
    "w1": {
        "share": "0.211",
        10: [("ranker", "0.00121", "1 in 824"), ("bwar", "0.00839", "1 in 119"),
             ("fwar", "0.00839", "1 in 119"), ("espn", "0.0406", "1 in 25")],
        25: [("ranker", "0.0000267", "1 in 37519"), ("bwar", "0.0000267", "1 in 37519"),
             ("fwar", "0.00250", "1 in 401"), ("espn", "0.00845", "1 in 118")],
    },
    "w2": {
        "share": "0.234",
        10: [("ranker", "0.00230", "1 in 434"), ("bwar", "0.0141", "1 in 71"),
             ("fwar", "0.0141", "1 in 71"), ("espn", "0.0604", "1 in 17")],
        25: [("ranker", "0.0000944", "1 in 10595"), ("bwar", "0.0000944", "1 in 10595"),
             ("fwar", "0.00608", "1 in 164"), ("espn", "0.0182", "1 in 55")],
    },
    "w3": {
        "share": "0.361",
        10: [("ranker", "0.0311", "1 in 32"), ("bwar", "0.109", "1 in 9"),
             ("fwar", "0.109", "1 in 9"), ("espn", "0.273", "1 in 3.7")],
        25: [("ranker", "0.0128", "1 in 78"), ("bwar", "0.0128", "1 in 78"),
             ("fwar", "0.152", "1 in 6.6"), ("espn", "0.266", "1 in 3.8")],
    },
    "w4": {
        "share": "0.275",
        10: [("ranker", "0.00622", "1 in 161"), ("bwar", "0.0311", "1 in 32"),
             ("fwar", "0.0311", "1 in 32"), ("espn", "0.110", "1 in 9.1")],
        25: [("ranker", "0.000649", "1 in 1542"), ("bwar", "0.000649", "1 in 1542"),
             ("fwar", "0.0227", "1 in 44"), ("espn", "0.0561", "1 in 18")],
    },
}


class Erratum(NamedTuple):
    published: str
    corrected: str
    reason: str


_W3_TOP_10 = Erratum(
    published="1 in 9",
    corrected="1 in 9.2",
    reason="the published probability 0.109 has reciprocal 9.17 and displays "
    "as 1 in 9.1 to 1 in 9.2, never as 1 in 9",
)

# (regime, source, depth) -> a published chance that its own published
# probability rules out
ERRATA = {
    ("w3", "bwar", 10): _W3_TOP_10,
    ("w3", "fwar", 10): _W3_TOP_10,
}


def _chance_value(display: str) -> Decimal:
    return Decimal(display.removeprefix("1 in "))


def _erratum_problem(erratum: Erratum, probability: str, chance: str) -> str | None:
    """Why ``erratum`` may not stand in for the published ``chance``.

    It must name that chance verbatim, and the chance must be one that no
    value displaying as ``probability`` can give.  Those values fill the
    interval of half a unit in the last digit around ``probability``, and
    the chance display is monotone in the probability, so every one of
    them displays between the chances at the interval's two ends.
    """
    if erratum.published != chance:
        return f"erratum names {erratum.published!r}, published {chance!r}"
    value = Decimal(probability)
    half = Decimal(5).scaleb(value.as_tuple().exponent - 1)
    fewest = chance_format(float(value + half)).display
    most = chance_format(float(value - half)).display
    if _chance_value(fewest) <= _chance_value(chance) <= _chance_value(most):
        return (
            f"published chance {chance!r} can follow from probability "
            f"{probability} ({fewest} to {most}), so it is no erratum"
        )
    return None


def test_criterion_3_weighted_reports(table, regimes, lists_by_name, capsys):
    failures = []
    for regime_name, block in WEIGHTED_CELLS.items():
        regime = regimes[regime_name]
        exact = exact_share(POPULATION_CSV, 1950, WEIGHTS_CSV, regime_name)
        of_doubles = exact_share(POPULATION_CSV, 1950, WEIGHTS_CSV, regime_name, doubles=True)
        for depth in (10, 25):
            for source, probability, chance in block[depth]:
                report = analyze(lists_by_name[source], depth, 1950, table, regime)
                cell = f"{regime_name} {source} top-{depth}"
                oracle = _check_against_oracle(cell, report, exact, of_doubles, failures)
                share = f"{report.proportion_used:.3f}"
                if share != block["share"]:
                    failures.append(
                        f"{cell}: share {share}, published {block['share']}"
                    )
                problem = _probability_cell(report.tail_probability, probability)
                if problem:
                    failures.append(f"{cell}: probability {problem}")
                erratum = ERRATA.get((regime_name, source, depth))
                if erratum is None:
                    if report.chance.display != chance:
                        failures.append(
                            f"{cell}: chance {report.chance.display!r}, "
                            f"published {chance!r}"
                        )
                    continue
                problem = _erratum_problem(erratum, probability, chance)
                if problem:
                    failures.append(f"{cell}: {problem}")
                if erratum.corrected != oracle:
                    failures.append(
                        f"{cell}: corrected chance {erratum.corrected!r}, "
                        f"exact oracle {oracle!r}"
                    )
    _announce(capsys, 3, "weighted reports across four regimes", failures)


# criterion 4 ---------------------------------------------------------

def test_criterion_4_truncated_pool_bridge(table, capsys):
    failures = []
    reports = bridge_check([(10, 6), (25, 10)], 1999, 1950, table)
    share = f"{reports[0].proportion_used:.4f}"
    if share != "0.2784":
        failures.append(f"pool share: computed {share}, published 0.2784")
    for report, chance in zip(reports, ["1 in 30", "1 in 7.7"]):
        if report.chance.display != chance:
            failures.append(
                f"depth {report.depth}, count {report.early_count}: chance "
                f"{report.chance.display!r}, published {chance!r}"
            )
    _announce(capsys, 4, "truncated-pool recomputation at pool cutoff 1999", failures)


# criterion 5 ---------------------------------------------------------

def test_criterion_5_dilution(table, capsys):
    failures = []
    published = [41.7, 21.4, 24.8, 29.0, 40.8, 57.6, 96.3]
    seasons = default_league_seasons(table)
    for season, reference in zip(seasons, published):
        value = per_roster_spot(season)
        if abs(value - reference) > 0.1:
            failures.append(
                f"{season.year}: computed {value:.3f}, published {reference} "
                f"(difference above 0.1)"
            )
    spot_1950 = per_roster_spot(seasons[3])
    if format_per_roster_spot(spot_1950) != "29":
        failures.append(
            f"1950 display: {format_per_roster_spot(spot_1950)!r}, expected '29'"
        )
    _announce(capsys, 5, "per-roster-spot dilution history", failures)


# criterion 6 ---------------------------------------------------------

def test_criterion_6_detrending(capsys):
    failures = []
    if detrend_value(40.0, 10.0, 5.0) != 20.0:
        failures.append(
            f"detrend_value(40, 10, 5) = {detrend_value(40.0, 10.0, 5.0)}, expected 20"
        )
    stats = [SeasonStat(1920, 40.0, 10.0), SeasonStat(1921, 30.0, 5.0)]
    if compute_historic_average(s.league_average for s in stats) != 7.5:
        failures.append("historic average should default to the plain mean 7.5")
    career = detrend_career(stats)
    if not math.isclose(career, 75.0, rel_tol=1e-12):
        failures.append(f"career total {career}, expected 75.0")
    override = detrend_career(stats, historic_average=5.0)
    if not math.isclose(override, 50.0, rel_tol=1e-12):
        failures.append(f"career total with override {override}, expected 50.0")
    _announce(capsys, 6, "era detrending of values and careers", failures)


# criterion 7 ---------------------------------------------------------

def test_criterion_7_oracle_equivalence(table, capsys):
    failures = []
    for n in range(1, 13):
        for tenth in range(11):
            p = tenth / 10
            reference = enumerated_tails_all_k(n, p)
            for k in range(n + 1):
                computed = binomial_tail(n, k, p)
                if abs(computed - reference[k]) > 1e-12:
                    failures.append(
                        f"tail({n}, {k}, {p}): {computed!r} vs enumeration "
                        f"{reference[k]!r}"
                    )
    share = cumulative_proportion(table, 1950)
    for depth, counts in ((10, (5, 6, 7)), (25, (11, 12, 15))):
        estimates = monte_carlo_oracle(depth, share, TRIALS, SEED)
        for k in counts:
            estimate = float(estimates[k])
            exact = binomial_tail(depth, k, share)
            margin = 3 * math.sqrt(estimate * (1 - estimate) / TRIALS)
            if abs(estimate - exact) > margin:
                failures.append(
                    f"simulated tail({depth}, {k}): estimate {estimate} is more "
                    f"than three standard errors from {exact}"
                )
    pinned = float(monte_carlo_oracle(10, 0.18696, TRIALS, SEED)[6])
    margin = 3 * math.sqrt(pinned * (1 - pinned) / TRIALS)
    if abs(pinned - 0.00448) > margin:
        failures.append(
            f"simulated tail(10, 6) at 0.18696: estimate {pinned} is more than "
            f"three standard errors from the published 0.00448"
        )
    _announce(capsys, 7, "exact tails match enumeration and simulation", failures)


# criterion 8 ---------------------------------------------------------

def _cli(*argv) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "eragreats", *argv], capture_output=True
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_criterion_8_invariants_and_determinism(table, regimes, ranked_lists, capsys):
    failures = []

    # tails shrink as the required count grows and grow with p
    for n in (1, 5, 10, 25, 100):
        previous = 1.0
        for k in range(n + 1):
            current = binomial_tail(n, k, 0.18696)
            if current > previous + 1e-15:
                failures.append(f"tail({n}, {k}) rose above tail({n}, {k - 1})")
            previous = current
        grid = [binomial_tail(n, min(3, n), tenth / 20) for tenth in range(21)]
        if any(b < a - 1e-12 for a, b in zip(grid, grid[1:])):
            failures.append(f"tail({n}, ...) is not monotone in p")

    # shares grow with the cutoff and reach exactly one
    shares = [
        cumulative_proportion(table, year)
        for year in range(table.first_year + 1, table.final_year + 1)
    ]
    if any(b < a - 1e-12 for a, b in zip(shares, shares[1:])):
        failures.append("cumulative share is not monotone in the cutoff year")
    if shares[-1] != 1.0:
        failures.append(f"share at the final year is {shares[-1]!r}, not 1.0")

    # uniform weights change nothing; rescaling the units changes nothing
    uniform = WeightRegime("uniform", {year: 0.37 for year in table.years})
    scaled = PopulationTable(
        tuple(
            PopulationRecord(r.period_end_year, r.population * 1000, r.period_length_years)
            for r in table.records
        )
    )
    for cutoff in (1875, 1950, 1999, 2015):
        plain = cumulative_proportion(table, cutoff)
        if not math.isclose(
            cumulative_proportion(table, cutoff, regime=uniform), plain, rel_tol=1e-12
        ):
            failures.append(f"uniform weights shift the share at {cutoff}")
        if not math.isclose(
            cumulative_proportion(scaled, cutoff), plain, rel_tol=1e-12
        ):
            failures.append(f"population rescaling shifts the share at {cutoff}")

    # every report is internally consistent
    reports = sensitivity_matrix(
        ranked_lists, list(regimes.values()), (10, 25), 1950, table
    ) + [analyze(ranked, depth, 1950, table) for depth in (10, 25) for ranked in ranked_lists]
    for report in reports:
        if not 0 <= report.early_count <= report.depth:
            failures.append(f"{report.source}: early count outside [0, depth]")
        if not 0.0 < report.proportion_used <= 1.0:
            failures.append(f"{report.source}: share outside (0, 1]")
        if report.chance.probability != report.tail_probability:
            failures.append(f"{report.source}: chance and tail probability disagree")

    # repeated runs emit identical bytes
    for argv in (("analyze", "--format", "json"), ("sensitivity",)):
        if _cli(*argv) != _cli(*argv):
            failures.append(f"{' '.join(argv)}: output differs between runs")

    _announce(capsys, 8, "cross-cutting invariants and byte determinism", failures)
