"""Output checks: the benchmark's own exact references and what each
workload's outputs must agree with.

Every check returns ``{key: reason}`` for the op keys whose output is
wrong; an op whose key appears there counts as failed.  The checks run
after the timed phase.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from workloads import CUTOFF, DEPTHS, POOL_CUTOFF, early_count

# "a few ulp on the float path" (README, Numerical notes)
TAIL_ULPS = 4
SHARE_ULPS = 8


# ------------------------------------------------------------ exact tails

def exact_tail(n: int, k: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p) at the exact value of the double p,
    correctly rounded to a double.

    p = a / 2**e exactly, so every term is an integer over 2**(e*n).  The sum
    stops once the terms shrink and a geometric bound on the rest leaves the
    rounded result unchanged; int true division rounds correctly, also into
    the denormal range.
    """
    if k <= 0:
        return 1.0
    a, den = p.as_integer_ratio()
    if a == 0:
        return 0.0
    if a == den:
        return 1.0
    b = den - a
    scale = 1 << ((den.bit_length() - 1) * n)
    term = math.comb(n, k) * a**k * b ** (n - k)
    total = term
    for j in range(k, n):
        # term_{j+1} / term_j = (n - j) a / ((j + 1) b), and the ratio only
        # falls with j, so once it is below 1 the rest is below a geometric
        # series
        up, down = (n - j) * a, (j + 1) * b
        if up < down and (j - k) % 8 == 0:
            rest = term * up // (down - up) + 1
            if total / scale == (total + rest) / scale:
                break
        term = term * up // down
        total += term
    return total / scale


def tail_ok(n: int, k: int, p: float, value: float) -> bool:
    """The README contract: correctly rounded below the normal range, a few
    ulp above it.  The float path works with 1 - p rounded to a double,
    which moves a term with q**m by up to m times that rounding; that input
    error is allowed on top of the few ulp."""
    expected = exact_tail(n, k, p)
    if value == expected:
        return True
    if expected < sys.float_info.min or not math.isfinite(value):
        return False
    exact_q = 1 - Fraction(p)
    q_error = float(abs(Fraction(1.0 - p) - exact_q) / exact_q)
    allowed = TAIL_ULPS * math.ulp(expected) + 1.01 * n * q_error * expected
    return abs(value - expected) <= allowed


def chance_text(reciprocal: Fraction) -> str:
    """ "1 in N": N rounded half up, whole from 10 on, one decimal below."""
    if reciprocal >= 10:
        return f"1 in {math.floor(reciprocal + Fraction(1, 2))}"
    whole, tenth = divmod(math.floor(10 * reciprocal + Fraction(1, 2)), 10)
    return f"1 in {whole}" if tenth == 0 else f"1 in {whole}.{tenth}"


def chance_ok(probability: float, display: str) -> bool:
    """The display must be the half-up rounding of the reciprocal, taken
    exactly or as the correctly rounded double 1 / p (the README fixes the
    rounding rule, not the precision of the reciprocal)."""
    if probability <= 0.0:
        return display == "-"
    allowed = {chance_text(1 / Fraction(probability))}
    reciprocal = 1.0 / probability
    if math.isfinite(reciprocal):
        allowed.add(chance_text(Fraction(reciprocal)))
    return display in allowed


# ----------------------------------------------------------- exact shares

def exact_population(periods, cutoff: int, weights=None) -> Fraction:
    """Exact (weighted) population through ``cutoff``; ``periods`` holds
    (end_year, population, length) with exact values, a split period
    counting pro rata."""
    total = Fraction(0)
    for end, population, length in periods:
        w = 1 if weights is None else weights[end]
        if end <= cutoff:
            total += w * population
        elif end - length < cutoff:
            total += w * population * Fraction(cutoff - (end - length), length)
    return total


def exact_share(periods, cutoff: int, weights=None, pool_cutoff=None) -> Fraction:
    final = max(end for end, _, _ in periods) if pool_cutoff is None else pool_cutoff
    return exact_population(periods, cutoff, weights) / exact_population(periods, final, weights)


def share_ok(value: float, exact: Fraction) -> bool:
    return abs(Fraction(value) - exact) <= SHARE_ULPS * Fraction(math.ulp(float(exact)))


def _rounded_share_ok(text: str, exact: Fraction) -> bool:
    # three decimals, so within half a unit of the third place
    return abs(Fraction(text) - exact) <= Fraction(1, 2000) + Fraction(1, 10**12)


def _rounded_probability_ok(text: str, depth: int, early: int, share: Fraction) -> bool:
    # three significant figures
    expected = exact_tail(depth, early, float(share))
    if expected == 0.0:
        return text == "0"
    return abs(Fraction(text) - Fraction(expected)) <= Fraction(expected) * Fraction(5, 1000)


# ------------------------------------------------------------- tail-sweep

def check_tail_sweep(triples, outputs: dict) -> dict:
    bad = {}
    for key, (probability, display) in outputs.items():
        n, k, p = triples[int(key)]
        if not tail_ok(n, k, p, probability):
            bad[key] = f"tail({n}, {k}, {p!r}) = {probability!r}, expected {exact_tail(n, k, p)!r}"
        elif not chance_ok(probability, display):
            bad[key] = f"chance({probability!r}) = {display!r}"
    return bad


# ------------------------------------------------------------ report-grid

def check_report_grid(truth: dict, outputs: dict) -> dict:
    periods = [(year, pop, 1) for year, pop in sorted(truth["populations"].items())]
    lists = truth["lists"]
    bad = {}
    for key, text in outputs.items():
        try:
            if key == "sensitivity":
                problem = _check_sensitivity(json.loads(text), truth, periods)
            elif key == "analyze":
                share = exact_share(periods, CUTOFF)
                rows = [line.split() for line in text.splitlines()[1:]]
                rows = [[*row[:5], " ".join(row[5:])] for row in rows]
                problem = _check_rows(rows, lists, share)
            elif key.startswith("analyze-"):
                regime = key.split("-", 1)[1]
                share = exact_share(periods, CUTOFF, truth["weights"][regime])
                rows = list(csv.reader(io.StringIO(text)))[1:]
                problem = _check_rows(rows, lists, share)
            else:
                share = exact_share(periods, CUTOFF, pool_cutoff=POOL_CUTOFF)
                source = lists[key.split("-", 1)[1]]
                rows = [line.split() for line in text.splitlines()[1:]]
                expected = [(d, early_count(source, d, CUTOFF)) for d in DEPTHS]
                problem = _check_bridge(rows, expected, share)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unparsable output: {exc!r}"
        if problem:
            bad[key] = problem
    return bad


def _check_sensitivity(rows, truth, periods) -> str | None:
    expected = [
        (regime, name, depth)
        for regime in truth["regimes"] for depth in DEPTHS for name in truth["lists"]
    ]
    if [(r["regime"], r["source"], r["depth"]) for r in rows] != expected:
        return "rows out of order or missing"
    shares = {
        regime: exact_share(periods, CUTOFF, truth["weights"][regime])
        for regime in truth["regimes"]
    }
    for row in rows:
        early = early_count(truth["lists"][row["source"]], row["depth"], CUTOFF)
        if row["early_count"] != early:
            return f"{row['source']} depth {row['depth']}: early_count {row['early_count']}, expected {early}"
        if not share_ok(row["proportion"], shares[row["regime"]]):
            return f"{row['regime']}: proportion {row['proportion']!r}"
        if not tail_ok(row["depth"], early, row["proportion"], row["probability"]):
            return f"{row['regime']} {row['source']} {row['depth']}: probability {row['probability']!r}"
        if not chance_ok(row["probability"], row["chance"]):
            return f"chance {row['chance']!r} for {row['probability']!r}"
    return None


def _check_rows(rows, lists, share) -> str | None:
    expected = [(name, depth) for depth in DEPTHS for name in lists]
    if [(row[0], int(row[1])) for row in rows] != expected:
        return "rows out of order or missing"
    for source, depth, early, proportion, probability, chance in rows:
        depth, early = int(depth), int(early)
        if early != early_count(lists[source], depth, CUTOFF):
            return f"{source} depth {depth}: early_count {early}"
        if not _rounded_share_ok(proportion, share):
            return f"{source} depth {depth}: proportion {proportion}"
        if not _rounded_probability_ok(probability, depth, early, share):
            return f"{source} depth {depth}: probability {probability}"
        if not chance.startswith("1 in "):
            return f"{source} depth {depth}: chance {chance!r}"
    return None


def _check_bridge(rows, expected, share) -> str | None:
    if [(int(row[1]), int(row[2])) for row in rows] != expected:
        return "depth and count rows differ from --counts"
    for row in rows:
        if row[0] != "external" or not _rounded_share_ok(row[3], share):
            return f"row {row}"
        if not _rounded_probability_ok(row[4], int(row[1]), int(row[2]), share):
            return f"probability {row[4]}"
    return None


# --------------------------------------------------------------- cli-cold

# the README's transcripts, byte for byte
GOLDEN = {
    "analyze": """\
source  depth  early_count  proportion  probability  chance
ranker  10     7            0.187       0.000562     1 in 1781
bwar    10     6            0.187       0.00448      1 in 223
fwar    10     6            0.187       0.00448      1 in 223
espn    10     5            0.187       0.0249       1 in 40
ranker  25     15           0.187       0.00000572   1 in 174874
bwar    25     15           0.187       0.00000572   1 in 174874
fwar    25     12           0.187       0.000826     1 in 1211
espn    25     11           0.187       0.00322      1 in 310
""",
    "proportion": "0.187\n",
    "tail": """\
probability  chance
0.00448      1 in 223
""",
    "bridge": """\
source    depth  early_count  proportion  probability  chance
external  10     6            0.278       0.0333       1 in 30
external  25     10           0.278       0.130        1 in 7.7
""",
    "dilution": """\
year  teams  roster_size  population_millions  per_roster_spot_thousands
1890  8      15           5.01                 41.8
1910  16     25           8.56                 21.4
1930  16     25           9.92                 24.8
1950  16     25           11.59                29
1970  24     25           24.49                40.8
1990  26     25           37.46                57.6
2010  30     25           72.27                96.4
""",
}

# P(X >= 6), X ~ Binomial(10, 0.18696); a million draws estimate it to
# within five standard deviations
_TAIL_10_6 = 0.004480521654768476
_MC_TOLERANCE = 5 * math.sqrt(_TAIL_10_6 * (1 - _TAIL_10_6) / 1_000_000)


def check_cli_cold(data_dir: Path, seasons: Path, outputs: dict) -> dict:
    bad = {}
    for key, text in outputs.items():
        try:
            problem = _check_cli_output(key, text, data_dir, seasons)
        except (ValueError, KeyError, IndexError) as exc:
            problem = f"unparsable output: {exc!r}"
        if problem:
            bad[key] = problem
    return bad


def _check_cli_output(key, text, data_dir, seasons) -> str | None:
    if key in GOLDEN:
        return None if text == GOLDEN[key] else "differs from the README transcript"
    lines = text.splitlines()
    if key == "sensitivity":
        header = "regime  source  depth  early_count  proportion  probability  chance"
        ok = lines[0] == header and len(lines) == 1 + 4 * 2 * 4
        return None if ok else "not a 4 x 2 x 4 grid"
    if key == "proportion-w3":
        periods = _read_periods(data_dir / "population.csv")
        weights = _read_weights(data_dir / "weight_regimes.csv")["w3"]
        ok = _rounded_share_ok(text.strip(), exact_share(periods, CUTOFF, weights))
        return None if ok else f"weighted share {text.strip()}"
    if key == "trials":
        cells = lines[1].split()
        ok = (
            lines[0].split() == ["probability", "chance", "monte_carlo"]
            and cells[:4] == ["0.00448", "1", "in", "223"]
            and abs(float(cells[4]) - _TAIL_10_6) <= _MC_TOLERANCE
        )
        return None if ok else f"monte carlo row {lines[1]!r}"
    if key == "detrend":
        return _check_detrend(lines, seasons)
    return "no check for this op"


def _check_detrend(lines, seasons) -> str | None:
    rows = list(csv.reader(seasons.read_text().splitlines()))[1:]
    stats = [(int(s), Fraction(v), Fraction(a)) for s, v, a in rows]
    historic = sum(a for _, _, a in stats) / len(stats)
    printed = [line.split() for line in lines[1:1 + len(stats)]]
    if len(printed) != len(stats):
        return f"{len(printed)} season rows for {len(stats)} seasons"
    for (season, value, average), cells in zip(stats, printed):
        if int(cells[0]) != season or not _close(cells[3], value * historic / average):
            return f"season {season}: {cells}"
    total = sum(v * historic / a for _, v, a in stats)
    if lines[-1].split()[0] != "career_total" or not _close(lines[-1].split()[1], total):
        return f"career total {lines[-1]!r}"
    return None


def _close(text: str, exact: Fraction) -> bool:
    # %g keeps six significant figures
    return abs(Fraction(text) - exact) <= abs(exact) * Fraction(1, 10**5)


def _read_periods(path: Path):
    rows = list(csv.reader(path.read_text().splitlines()))[1:]
    return [(int(r[0]), Fraction(r[1]), int(r[2]) if len(r) > 2 and r[2] else 10) for r in rows if r]


def _read_weights(path: Path) -> dict:
    rows = list(csv.reader(path.read_text().splitlines()))
    names = rows[0][1:]
    weights = {name: {} for name in names}
    for row in rows[1:]:
        for name, cell in zip(names, row[1:]):
            weights[name][int(row[0])] = Fraction(cell)
    return weights
