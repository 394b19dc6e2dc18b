"""The benchmark's workloads and their seeded inputs.

Every input is made from the workload seed alone, so the same seed gives
the same bytes.  The program under test only ever sees the generated
files and values; the ground truth kept beside them (early counts, exact
shares) is what the output checks compare against.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

# The package's MAX_TRIALS when this benchmark was defined.  Fixed here so
# that the tail-sweep inputs do not change when the program changes.
MAX_N = 1000

CUTOFF = 1950
POOL_CUTOFF = 1999
DEPTHS = (10, 25, 50, 100)
LISTS = 8
PLAYERS = 100
REGIMES = 16
FIRST_YEAR, FINAL_YEAR = 1871, 2020

# tail-sweep inputs: one (n, k) pair in each cell of a grid of n and k
# strata, so 1024 distinct inputs; the timed loop cycles through them
N_STRATA, K_STRATA = 32, 32
# report-grid cycles per pass, so that a pass holds over 100 ops
REPORT_GRID_CYCLES = 24

WHY = {
    "cli-cold": (
        "What a command-line user pays per call: one op is one fresh "
        "`python -m eragreats` process over the bundled data.  Interpreter "
        "start and imports dominate (numpy is about 100 ms of them) and "
        "share and tail work is negligible, so lazy imports and import "
        "trimming show here and kernel work should show nothing.  The "
        "`--trials` op is the one that still needs numpy."
    ),
    "report-grid": (
        "A realistic larger study run in process: one op is one "
        "`cli.main(argv)` call over generated annual data (150 one-year "
        "periods for 1871-2020, 16 weight regimes, 8 lists of 100 players, "
        "depths 10/25/50/100).  CSV loading, share accumulation, span checks "
        "and rendering dominate; `sensitivity_matrix` recomputes the share "
        "for all 512 cells though only 16 are distinct, and its tails are "
        "small-n and repeat the same (n, p).  Share hoisting, the one-reader "
        "change and render changes show here; import shows nothing."
    ),
    "tail-sweep": (
        "The tail kernel alone: one op is `binomial_tail(n, k, p)` then "
        "`chance_format` when the result is > 0, as `eragreats tail` does, "
        "over few large distinct tails (n log-uniform up to 1000, p uniform, "
        "log-uniform down to 5e-324, or near 1) where report-grid has many "
        "small repeated ones, so a kernel change that trades one for the "
        "other shows.  The domain reaches denormal results, so the known "
        "`chance_format` overflow crash counts as failures."
    ),
}


# ---------------------------------------------------------------- tail-sweep

def tail_sweep_inputs(seed: int) -> list[tuple[int, int, float]]:
    """(n, k, p) triples: n log-uniform in [1, MAX_N], k uniform in [0, n],
    p uniform in (0, 1), log-uniform down to 5e-324 or one minus
    log-uniform near 1.

    The draws are stratified: one (n, k) in each cell of an n-by-k grid of
    equal-probability strata, the p family fixed by the cell and, within a
    family, one p per equal-probability stratum, the strata spread over
    the grid in a fixed order.  The seed draws the point inside every
    stratum and the order of the ops, so every seed gets the same mix of
    cheap and costly tails, which is what sets the timings.
    """
    rng = random.Random(seed)
    cells = [(a, b) for a in range(N_STRATA) for b in range(K_STRATA)]
    family = [(a + b) % 3 for a, b in cells]
    counts = [family.count(f) for f in range(3)]
    steps = [_spreading_step(count) for count in counts]
    seen = [0, 0, 0]
    triples = []
    for (a, b), f in zip(cells, family):
        n = min(MAX_N, int(math.exp((a + rng.random()) / N_STRATA * math.log(MAX_N + 1))))
        k = min(n, int((b + rng.random()) / K_STRATA * (n + 1)))
        u = (seen[f] * steps[f] % counts[f] + rng.random()) / counts[f]
        seen[f] += 1
        if f == 0:
            p = u or 0.5 / len(cells)
        elif f == 1:
            p = 2.0 ** (-1074.0 * u)
        else:
            p = 1.0 - 2.0 ** (-1.0 - 52.0 * u)
        triples.append((n, k, p))
    rng.shuffle(triples)
    return triples


def _spreading_step(count: int) -> int:
    """A step near count / golden ratio and coprime with ``count``: taking
    strata j * step mod count for j = 0, 1, ... visits each once and
    keeps neighbouring cells in far-apart strata."""
    step = round(count / 1.618033988749895)
    while math.gcd(step, count) != 1:
        step += 1
    return step


# --------------------------------------------------------------- report-grid

def report_grid_inputs(seed: int, directory: Path) -> dict:
    """Write the report-grid CSVs into ``directory`` and return the truth
    the checks need: exact populations and weights, and each list's start
    years in rank order."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    years = list(range(FIRST_YEAR, FINAL_YEAR + 1))

    populations = {}
    lines = ["year,population_millions,period_length_years"]
    for year in years:
        growth = 0.4 + 1.6 * ((year - FIRST_YEAR) / (FINAL_YEAR - FIRST_YEAR)) ** 1.5
        text = f"{growth * rng.uniform(0.9, 1.1):.3f}"
        populations[year] = Fraction(text)
        lines.append(f"{year},{text},1")
    _write(directory / "population.csv", lines)

    names = [f"r{i:02d}" for i in range(1, REGIMES + 1)]
    weights = {name: {} for name in names}
    shapes = [(rng.uniform(0.3, 0.9), rng.uniform(-0.6, 0.4)) for _ in names]
    lines = ["year," + ",".join(names)]
    for year in years:
        x = (year - FIRST_YEAR) / (FINAL_YEAR - FIRST_YEAR)
        cells = []
        for name, (base, slope) in zip(names, shapes):
            w = min(1.0, max(0.05, base + slope * x + rng.uniform(-0.05, 0.05)))
            text = f"{w:.2f}"
            weights[name][year] = Fraction(text)
            cells.append(text)
        lines.append(f"{year}," + ",".join(cells))
    _write(directory / "weights.csv", lines)

    # a shared pool of players, early-leaning as all-time lists are
    pool = [
        (f"Player {i:04d}", FIRST_YEAR + int((FINAL_YEAR - FIRST_YEAR) * rng.random() ** 1.4))
        for i in range(3 * PLAYERS)
    ]
    lists = {}
    for i in range(1, LISTS + 1):
        chosen = rng.sample(pool, PLAYERS)
        lists[f"list{i}"] = [year for _, year in chosen]
        lines = ["rank,name,career_start_year"]
        lines += [f"{rank},{name},{year}" for rank, (name, year) in enumerate(chosen, start=1)]
        _write(directory / f"list{i}.csv", lines)

    return {"populations": populations, "weights": weights, "regimes": names, "lists": lists}


def report_grid_ops(directory: Path, truth: dict) -> list[dict]:
    """One pass: cycles of sensitivity (json), analyze (table), two weighted
    analyze (csv) and bridge.  The mix keeps the median inside the
    weighted-analyze group and the p90 inside the sensitivity group."""
    population = ["--population", str(directory / "population.csv")]
    weights = ["--weights", str(directory / "weights.csv")]
    lists = []
    for name in truth["lists"]:
        lists += ["--list", str(directory / f"{name}.csv")]
    depths = ["--depths", ",".join(map(str, DEPTHS)), "--cutoff", str(CUTOFF)]
    regimes = truth["regimes"]
    ops = []
    for i in range(REPORT_GRID_CYCLES):
        cycle = i % LISTS
        list_name = f"list{cycle + 1}"
        counts = ",".join(
            f"{d}:{early_count(truth['lists'][list_name], d, CUTOFF)}" for d in DEPTHS
        )
        ops.append({"key": "sensitivity", "argv": [
            "sensitivity", *population, *weights, *lists, *depths, "--format", "json"]})
        ops.append({"key": "analyze", "argv": ["analyze", *population, *lists, *depths]})
        for regime in (regimes[cycle], regimes[cycle + LISTS]):
            ops.append({"key": f"analyze-{regime}", "argv": [
                "analyze", *population, *weights, "--regime", regime, *lists, *depths,
                "--format", "csv"]})
        ops.append({"key": f"bridge-{list_name}", "argv": [
            "bridge", *population, "--cutoff", str(CUTOFF),
            "--pool-cutoff", str(POOL_CUTOFF), "--counts", counts]})
    return ops


def early_count(start_years: list[int], depth: int, cutoff: int) -> int:
    return sum(1 for year in start_years[:depth] if year <= cutoff)


# ------------------------------------------------------------------ cli-cold

CLI_COLD_TAIL = ["tail", "--n", "10", "--k", "6", "--p", "0.18696"]


def cli_cold_inputs(seed: int, directory: Path) -> Path:
    """Write the 20-season detrend file and return its path."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    first = rng.randint(1900, 1990)
    lines = ["season,value,league_average"]
    for season in range(first, first + 20):
        lines.append(f"{season},{rng.uniform(20, 200):.1f},{rng.uniform(3.5, 5.0):.3f}")
    path = directory / "seasons.csv"
    _write(path, lines)
    return path


def cli_cold_ops(seasons: Path) -> list[dict]:
    """One pass of fresh-process subcommands.  The Monte Carlo op runs twice
    per pass so that the p90 falls inside its group."""
    trials = [*CLI_COLD_TAIL, "--trials", "1000000", "--seed", "0"]
    return [
        {"key": "analyze", "argv": ["analyze"]},
        {"key": "sensitivity", "argv": ["sensitivity"]},
        {"key": "trials", "argv": trials},
        {"key": "bridge", "argv": ["bridge"]},
        {"key": "dilution", "argv": ["dilution"]},
        {"key": "proportion", "argv": ["proportion", "--cutoff", "1950"]},
        {"key": "proportion-w3", "argv": ["proportion", "--regime", "w3"]},
        {"key": "tail", "argv": CLI_COLD_TAIL},
        {"key": "trials", "argv": trials},
        {"key": "detrend", "argv": ["detrend", str(seasons)]},
    ]


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")
