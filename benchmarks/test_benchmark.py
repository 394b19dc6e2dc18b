"""Self-checks for the benchmark itself (not part of the package's suite).

Run from the repository root:  python3 -m pytest benchmarks -q
"""

import json
import math
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads
from loop import REFERENCE_SECONDS, failed_ops, median_latencies, spread_schedule
from run import END_TO_END_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import enumerated_tail  # noqa: E402


def _plain_exact_tail(n, k, p):
    """Every term, no early stop, rounded once through Fraction."""
    p = Fraction(p)
    return float(sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1)))


def test_exact_tail_agrees_with_enumeration_oracle():
    for n in range(1, 13):
        for k in range(n + 1):
            for p in (1e-5, 0.1, 0.18696, 0.3, 0.5, 0.7, 0.99999):
                expected = enumerated_tail(n, k, p)
                assert math.isclose(checks.exact_tail(n, k, p), expected, rel_tol=1e-12)


def test_exact_tail_early_stop_keeps_the_rounded_value():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 80)
        k = rng.randint(0, n)
        p = rng.choice([rng.random(), 2.0 ** rng.uniform(-1074, 0), 1 - 2.0 ** rng.uniform(-53, -1)])
        assert checks.exact_tail(n, k, p) == _plain_exact_tail(n, k, p)


def test_tail_ok_demands_correct_rounding_in_the_denormal_range():
    n, k, p = 100, 98, 5e-4
    exact = checks.exact_tail(n, k, p)
    assert exact < sys.float_info.min
    assert checks.tail_ok(n, k, p, exact)
    assert not checks.tail_ok(n, k, p, math.nextafter(exact, 1.0))


def test_chance_text_rounds_half_up():
    assert checks.chance_text(Fraction(2235, 10)) == "1 in 224"
    assert checks.chance_text(Fraction(925, 100)) == "1 in 9.3"
    assert checks.chance_text(Fraction(996, 100)) == "1 in 10"
    assert checks.chance_text(Fraction(1)) == "1 in 1"
    assert checks.chance_ok(0.004480521654768476, "1 in 223")
    assert not checks.chance_ok(0.004480521654768476, "1 in 224")


def test_generators_are_byte_deterministic(tmp_path):
    def snapshot(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    for seed in (0, 1):
        for run in ("a", "b"):
            workloads.report_grid_inputs(seed, tmp_path / f"grid-{seed}-{run}")
            workloads.cli_cold_inputs(seed, tmp_path / f"cli-{seed}-{run}")
        for kind in ("grid", "cli"):
            assert snapshot(tmp_path / f"{kind}-{seed}-a") == snapshot(tmp_path / f"{kind}-{seed}-b")
        assert repr(workloads.tail_sweep_inputs(seed)) == repr(workloads.tail_sweep_inputs(seed))
    assert snapshot(tmp_path / "grid-0-a") != snapshot(tmp_path / "grid-1-a")


def test_tail_sweep_inputs_cover_the_domain():
    triples = workloads.tail_sweep_inputs(3)
    assert all(1 <= n <= workloads.MAX_N and 0 <= k <= n and 0.0 < p < 1.0 for n, k, p in triples)
    assert min(p for _, _, p in triples) < 1e-300
    assert max(n for n, _, _ in triples) > 900


def test_spread_schedule_repeats_cheap_ops_across_the_pass():
    latencies = [1e-5, 1e-2, 5e-4, 1e-5] * 8
    schedule = spread_schedule(latencies, budget=2e-3, slots=4)
    assert schedule[:8] == list(range(8))
    assert all(schedule.count(i) == (4 if t < 1e-3 else 1) for i, t in enumerate(latencies))
    # the repeats of an op are a slot apart, not back to back
    positions = [at for at, i in enumerate(schedule) if i == 0]
    assert min(b - a for a, b in zip(positions, positions[1:])) >= 8


def test_failures_count_ops_not_repeats():
    records = [("a", 1.0, None, 1.0), ("b", 1.0, "ValueError", 1.0),
               ("b", 1.0, "ValueError", 1.0), ("c", 1.0, None, 1.0), ("a", 1.0, None, 1.0)]
    assert failed_ops(records, ["a", "b", "c"], wrong={}) == 1
    assert failed_ops(records, ["a", "b", "c", "a"], wrong={"a": "differs"}) == 3


def test_median_latencies_pool_repeats_at_the_reference_speed():
    ref = REFERENCE_SECONDS
    records = [("a", 3.0, None, ref), ("b", 1.0, None, ref), ("a", 2.0, None, 2 * ref),
               ("a", 2.0, None, ref)]
    assert median_latencies(records, ["a", "b", "a"]) == [2.0, 1.0, 2.0]
    assert median_latencies(records, ["a"], scaled=False) == [2.0]


def test_metric_names_and_units_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)


def test_self_time_subtracts_child_coverage():
    spans = [
        {"name": "cli", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "analysis", "parent": 0, "start": 1.0, "end": 5.0},
        {"name": "tailprob.tail", "parent": 1, "start": 2.0, "end": 3.0},
        {"name": "formatting", "parent": 0, "start": 6.0, "end": 7.0},
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_import_metrics_split_interpreter_numpy_and_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 | site",
        "import time:        50 |         50 |   os",
        tracing.IMPORT_MARKER,
        "import time:      1000 |      90000 |     numpy",
        "import time:       500 |     120000 | eragreats",
        "import time:       200 |       2000 | eragreats.cli",
        "import time:        10 |         10 | json",
    ])
    assert tracing.import_metrics(stderr) == {
        "import.interpreter_ms": 0.3,
        "import.numpy_ms": 90.0,
        "import.eragreats_ms": 122.0,
    }


def test_child_scripts_write_the_import_marker():
    for name in ("worker.py", "cli_trace.py"):
        assert f'sys.stderr.write("{tracing.IMPORT_MARKER}\\n")' in (BENCH_DIR / name).read_text()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tail-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
