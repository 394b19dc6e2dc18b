"""Command line behavior: output shapes, golden snapshots, exit codes,
and byte-for-byte determinism across repeated runs.
"""

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import eragreats
from eragreats import analysis, cli, formatting
from eragreats.cli import _TEXTS_LIMIT
from eragreats.analysis import OverrepReport
from eragreats.defaults import DEFAULT_CUTOFF_YEAR, DEFAULT_POOL_CUTOFF_YEAR, data_path
from eragreats.detrend import detrend_career, load_season_stats
from eragreats.tailprob import Chance
from oracles import (
    exact_binomial_tail_as_double,
    exact_share,
    one_in_n,
    per_cell_reports,
    per_pair_bridge,
    reference_report_text,
)

ANALYZE_CSV = """\
source,depth,early_count,proportion,probability,chance
ranker,10,7,0.187,0.000562,1 in 1781
bwar,10,6,0.187,0.00448,1 in 223
fwar,10,6,0.187,0.00448,1 in 223
espn,10,5,0.187,0.0249,1 in 40
ranker,25,15,0.187,0.00000572,1 in 174874
bwar,25,15,0.187,0.00000572,1 in 174874
fwar,25,12,0.187,0.000826,1 in 1211
espn,25,11,0.187,0.00322,1 in 310
"""

BRIDGE_CSV = """\
source,depth,early_count,proportion,probability,chance
external,10,6,0.278,0.0333,1 in 30
external,25,10,0.278,0.130,1 in 7.7
"""

DILUTION_CSV = """\
year,teams,roster_size,population_millions,per_roster_spot_thousands
1890,8,15,5.01,41.8
1910,16,25,8.56,21.4
1930,16,25,9.92,24.8
1950,16,25,11.59,29
1970,24,25,24.49,40.8
1990,26,25,37.46,57.6
2010,30,25,72.27,96.4
"""


DETREND_OVERFLOW_SEASON = "season,value,league_average\n1922,1e300,1e-300\n"
DETREND_OVERFLOW_CAREER = "season,value,league_average\n1922,1e308,1\n1923,1e308,1\n"
# the league averages' sum and the season's product overflow, the results do not
DETREND_LARGE_AVERAGE = "season,value,league_average\n1922,1,1e308\n1923,1,1e308\n"
DETREND_LARGE_PRODUCT = "season,value,league_average\n1922,1e300,1e20\n"


def run_cli(*argv, binary=False):
    return subprocess.run(
        [sys.executable, "-m", "eragreats", *argv],
        capture_output=True,
        text=not binary,
    )


def run_main(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)`` run in process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


# run in a fresh interpreter: import the package or its CLI, or run one
# command through cli.main; print the package modules then loaded (the
# root as "") and which of csv, dataclasses, json and numpy are, read
# before the script imports json itself
LOADED_MODULES = """
import contextlib, io, sys
argv = sys.argv[1:]
if argv == ["eragreats"]:
    import eragreats
elif argv == ["eragreats.cli"]:
    import eragreats.cli
else:
    from eragreats import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
package = sorted(name[len("eragreats"):].lstrip(".") for name in sys.modules
                 if name.partition(".")[0] == "eragreats")
standard = [name for name in ("csv", "dataclasses", "json", "numpy") if name in sys.modules]
import json
print(json.dumps([package, standard]))
"""
CLI_MODULES = ["", "cli", "defaults", "errors", "formatting"]
REPORT_MODULES = sorted([*CLI_MODULES, "analysis", "population", "rankings", "tailprob"])
# population reads its CSV files with csv, and its records are dataclasses
LOADERS = ["csv", "dataclasses"]


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # numpy is most of a cold start, and only `tail --trials` needs it; the
    # package root imports no module until a name is used, the CLI only
    # what builds its parser and renders, and each command what it runs
    seasons = tmp_path / "seasons.csv"
    seasons.write_text("season,value,league_average\n1919,54,4.0\n1920,29,3.5\n")
    expected = {
        # entry point: (package modules, standard modules)
        "eragreats": ([""], []),
        "eragreats.cli": (CLI_MODULES, []),
        "tail --n 10 --k 6 --p 0.18696": (sorted([*CLI_MODULES, "tailprob"]), ["dataclasses"]),
        "tail --n 10 --k 6 --p 0.18696 --trials 100": (REPORT_MODULES, [*LOADERS, "numpy"]),
        "tail --n 10 --k 6 --p 0.18696 --format json": (
            sorted([*CLI_MODULES, "tailprob"]), ["dataclasses", "json"]),
        "proportion --regime w3": (sorted([*CLI_MODULES, "population"]), LOADERS),
        "dilution": (sorted([*CLI_MODULES, "dilution", "population"]), LOADERS),
        f"detrend {seasons}": (sorted([*CLI_MODULES, "detrend", "population"]), LOADERS),
        "analyze": (REPORT_MODULES, LOADERS),
        "sensitivity": (REPORT_MODULES, LOADERS),
        "bridge": (REPORT_MODULES, LOADERS),
    }
    loaded = {}
    for entry in expected:
        result = subprocess.run([sys.executable, "-c", LOADED_MODULES, *entry.split()],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded[entry] = tuple(json.loads(result.stdout))
    assert loaded == expected


def test_a_report_command_leaves_threading_unloaded():
    # the kept-text lock comes from _thread, which every interpreter has
    # loaded; under -S no site hook imports threading either
    script = """
import contextlib, io, sys
from eragreats import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["sensitivity"]) == 0
print("threading" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(eragreats.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-S", "-c", script],
                            capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


# run in a fresh interpreter, where no public name is bound in the root yet
LAZY_ROOT = """
import importlib, json, sys, threading
import eragreats
names = eragreats.__all__
unbound = [name for name in names if name not in vars(eragreats)]
listed = dir(eragreats)
# two threads resolve every name at once, each in its own order, and
# switch often while they do
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(2, timeout=60)
resolved = {}
def resolve(order):
    barrier.wait()
    resolved[order] = {name: getattr(eragreats, name) for name in names[::order]}
threads = [threading.Thread(target=resolve, args=(order,)) for order in (1, -1)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads) and len(resolved) == 2
home = {name: getattr(sys.modules[value.__module__], name) for name, value in resolved[1].items()}
star = {}
exec("from eragreats import *", star)
def missing(name):
    try:
        getattr(eragreats, name)
    except AttributeError as exc:
        return str(exc)
# the names that left the root, as (module, name): each stays importable
# from its module, and the root refuses it as it does an unknown name
left = [path.partition(".")[::2] for path in sys.argv[1:]]
def home_of(module, name):
    return getattr(importlib.import_module(f"eragreats.{module}"), name, None)
deleted = [("population", "cumulative_population"), ("detrend", "_career_total"),
           ("dilution", "format_per_roster_spot")]
print(json.dumps({
    "names": len(names),
    "version": eragreats.__version__,
    "unbound": len(unbound),
    "threads_agree": all(resolved[1][name] is resolved[-1][name] for name in names),
    "bound": all(vars(eragreats).get(name) is resolved[1][name] for name in names),
    "home": [name for name in names if home[name] is not resolved[1][name]],
    "star": sorted(name for name in star if name != "__builtins__") == sorted(names)
            and all(star[name] is home[name] for name in names),
    "dir": "__all__" in listed and set(names) <= set(listed),
    "unknown": missing("no_such_name"),
    "left_not_home": [name for module, name in left
                      if getattr(home_of(module, name), "__module__", None)
                      != f"eragreats.{module}"],
    "left_in_root": [name for _, name in left
                     if missing(name) != f"module 'eragreats' has no attribute {name!r}"],
    "deleted_still_there": [name for module, name in deleted
                            if home_of(module, name) is not None],
}))
"""
# each public name that is not in the package root, as module.name
LEFT_ROOT = [
    "analysis.monte_carlo_oracle", "defaults.default_league_seasons",
    "detrend.SeasonStat", "detrend.compute_historic_average", "detrend.detrend_career",
    "detrend.detrend_value", "detrend.load_season_stats",
    "dilution.LeagueSeason", "dilution.build_league_seasons", "dilution.load_league_config",
    "dilution.per_roster_spot",
    "formatting.format_per_roster_spot", "formatting.format_proportion",
    "population.PopulationRecord", "rankings.PlayerEntry", "rankings.count_early",
]


def test_the_package_root_resolves_each_public_name_from_its_module():
    result = subprocess.run([sys.executable, "-c", LAZY_ROOT, *LEFT_ROOT],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "names": 21,
        "version": "0.1.0",
        # nothing is bound before its first use, though dir lists it ...
        "unbound": 21,
        "dir": True,
        # ... and then every name is the object its module holds, in every
        # thread, and is bound in the root
        "threads_agree": True,
        "bound": True,
        "home": [],
        "star": True,
        "unknown": "module 'eragreats' has no attribute 'no_such_name'",
        # every name that left the root is its module's own object, and the
        # root has no attribute of that name; the three deleted names are gone
        "left_not_home": [],
        "left_in_root": [],
        "deleted_still_there": [],
    }


def test_readme_library_api_lists_the_package_root():
    # one line per root name, in README's "Library API" section
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)", section, re.MULTILINE)
    assert len(listed) == len(set(listed)) == 21
    assert sorted(listed) == sorted(eragreats.__all__)


def test_proportion_prints_three_decimals():
    result = run_cli("proportion", "--cutoff", "1950")
    assert result.returncode == 0
    assert result.stdout == "0.187\n"


def test_proportion_with_regime():
    result = run_cli("proportion", "--cutoff", "1950", "--regime", "w3")
    assert result.returncode == 0
    assert result.stdout == "0.361\n"


def test_analyze_golden_csv():
    result = run_cli("analyze", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == ANALYZE_CSV


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command", ["analyze", "sensitivity", "bridge"])
def test_report_outputs_match_golden_bytes(command, fmt):
    # tests/golden/<command>.<format> holds the command's stdout on the
    # bundled data; any change to report rendering must print these bytes
    code, stdout, stderr = run_main([command, "--format", fmt])
    assert (code, stderr) == (0, "")
    assert stdout.encode() == (GOLDEN / f"{command}.{fmt}").read_bytes()


def test_golden_json_shares_and_tails_are_exact():
    # the JSON snapshots carry full precision: every share must be the
    # correctly rounded exact share of the bundled doubles, and every tail
    # the correctly rounded exact tail at that share
    population, weights = data_path("population.csv"), data_path("weight_regimes.csv")
    shares = {name: exact_share(population, DEFAULT_CUTOFF_YEAR, weights, name, doubles=True)
              for name in ("w1", "w2", "w3", "w4")}
    shares[None] = exact_share(population, DEFAULT_CUTOFF_YEAR, doubles=True)
    # both shares are over the same all-time total, so this is era / pool
    bridge = shares[None] / exact_share(population, DEFAULT_POOL_CUTOFF_YEAR, doubles=True)
    rows = [(row, shares[row.get("regime")]) for command in ("analyze", "sensitivity")
            for row in json.loads((GOLDEN / f"{command}.json").read_text())]
    rows += [(row, bridge) for row in json.loads((GOLDEN / "bridge.json").read_text())]
    assert len(rows) == 8 + 32 + 2
    for row, share in rows:
        assert row["proportion"] == float(share), row
        assert row["probability"] == exact_binomial_tail_as_double(
            row["depth"], row["early_count"], row["proportion"]), row


def test_tail_and_dilution_json_match_golden_bytes():
    # tests/golden/tail.json and dilution.json hold these commands' stdout,
    # taken before the report renderer and the shares last changed
    for name, argv in (("tail", ["tail", "--n", "10", "--k", "6", "--p", "0.18696"]),
                       ("dilution", ["dilution"])):
        code, stdout, stderr = run_main([*argv, "--format", "json"])
        assert (code, stderr) == (0, "")
        assert stdout.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("golden, flags", [("detrend", []),
                                           ("detrend_historic", ["--historic-average", "0.6"])])
def test_detrend_outputs_match_golden_bytes(golden, flags, fmt):
    # tests/golden/detrend*.<format> hold the stdout of `detrend` on the
    # committed tests/golden/seasons.csv, whose career total in JSON is the
    # exact sum rounded once, two ulps above the running sum of its seasons
    code, stdout, stderr = run_main(["detrend", str(GOLDEN / "seasons.csv"), *flags,
                                     "--format", fmt])
    assert (code, stderr) == (0, "")
    assert stdout.encode() == (GOLDEN / f"{golden}.{fmt}").read_bytes()


def test_analyze_table_layout():
    result = run_cli("analyze")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].split() == [
        "source", "depth", "early_count", "proportion", "probability", "chance",
    ]
    assert len(lines) == 9
    assert "1 in 223" in lines[2]


def test_analyze_json_carries_full_precision():
    result = run_cli("analyze", "--format", "json")
    assert result.returncode == 0
    rows = json.loads(result.stdout)
    assert len(rows) == 8
    first = rows[0]
    assert first["source"] == "ranker"
    assert first["depth"] == 10
    assert first["early_count"] == 7
    assert abs(first["proportion"] - 0.1869566464866726) < 1e-15
    assert first["chance"] == "1 in 1781"


def test_analyze_with_regime_flag():
    result = run_cli("analyze", "--regime", "w4", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[4] == "espn,10,5,0.275,0.110,1 in 9.1"


def test_analyze_with_custom_list(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "rank,name,career_start_year\n"
        "1,Old Timer,1900\n2,Mid Century,1950\n3,Modern Player,1995\n"
    )
    result = run_cli(
        "analyze", "--list", str(path), "--depths", "3", "--format", "json"
    )
    assert result.returncode == 0
    rows = json.loads(result.stdout)
    assert len(rows) == 1
    assert rows[0]["source"] == "tiny"
    assert rows[0]["early_count"] == 2


def test_input_files_are_read_as_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "accents.csv"
    path.write_bytes("rank,name,career_start_year\n1,José Méndez,1908\n".encode("utf-8"))
    # the C locale, neither coerced nor in UTF-8 mode, has ASCII as its
    # encoding; stdout alone is set to UTF-8, to print the name
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONIOENCODING": "utf-8"}
    analyze = subprocess.run(
        [sys.executable, "-m", "eragreats", "analyze", "--list", str(path), "--depths", "1"],
        capture_output=True, env=env,
    )
    assert (analyze.returncode, analyze.stderr) == (0, b"")
    assert analyze.stdout.decode().splitlines()[1].split()[:3] == ["accents", "1", "1"]
    load = subprocess.run(
        [sys.executable, "-c",
         "import sys, eragreats; print(eragreats.load_ranked_list(sys.argv[1]).entries[0].name)",
         str(path)],
        capture_output=True, env=env,
    )
    assert (load.returncode, load.stderr, load.stdout.decode()) == (0, b"", "José Méndez\n")


def test_sensitivity_covers_every_regime():
    result = run_cli("sensitivity", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 33
    assert lines[1].startswith("w1,ranker,10,7,0.211,")
    assert lines[32] == "w4,espn,25,11,0.275,0.0561,1 in 18"
    # `analyze --regime R` prints exactly sensitivity's rows for R, less
    # the regime column, for every bundled regime and in csv and json
    regimes = [line.split(",")[0] for line in lines[1::8]]
    assert regimes == ["w1", "w2", "w3", "w4"]
    code, stdout, stderr = run_main(["sensitivity", "--format", "json"])
    assert (code, stderr) == (0, "")
    rows = json.loads(stdout)
    for regime in regimes:
        code, csv_out, stderr = run_main(["analyze", "--regime", regime, "--format", "csv"])
        assert (code, stderr) == (0, "")
        assert csv_out.splitlines() == [lines[0].partition(",")[2]] + [
            line.partition(",")[2] for line in lines[1:] if line.startswith(regime + ",")]
        code, json_out, stderr = run_main(["analyze", "--regime", regime, "--format", "json"])
        assert (code, stderr) == (0, "")
        assert json_out == json.dumps([
            {column: value for column, value in row.items() if column != "regime"}
            for row in rows if row["regime"] == regime], indent=2) + "\n"


def test_bridge_golden_csv():
    result = run_cli("bridge", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == BRIDGE_CSV


def test_bridge_custom_counts():
    result = run_cli("bridge", "--counts", "10:7", "--format", "json")
    assert result.returncode == 0
    rows = json.loads(result.stdout)
    assert rows[0]["early_count"] == 7


def test_dilution_golden_csv():
    result = run_cli("dilution", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == DILUTION_CSV


def test_tail_reports_probability_and_chance():
    result = run_cli("tail", "--n", "10", "--k", "6", "--p", "0.18696", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == "probability,chance\n0.00448,1 in 223\n"


def test_tail_with_denormal_probability_prints_exact_chance():
    # 0.49**1000 is denormal: its double reciprocal overflows
    result = run_cli("tail", "--n", "1000", "--k", "1000", "--p", "0.49", "--format", "csv")
    assert result.returncode == 0
    probability = exact_binomial_tail_as_double(1000, 1000, 0.49)
    assert result.stdout.splitlines()[1].split(",")[1] == one_in_n(probability)


def test_tail_monte_carlo_is_seeded():
    args = ("tail", "--n", "10", "--k", "6", "--p", "0.18696",
            "--trials", "100000", "--seed", "11", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["trials"] == 100000
    assert abs(payload["monte_carlo"] - payload["probability"]) < 0.002


# run in a fresh interpreter: import the process entry, or run `tail
# --trials` through cli.main in process, then print OPENBLAS_NUM_THREADS
BLAS_THREADS = """
import contextlib, io, os, sys
if sys.argv[1:] == ["entry"]:
    import eragreats.__main__
else:
    from eragreats import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["tail", "--n", "10", "--k", "6", "--p", "0.18696", "--trials", "100"]) == 0
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def run_without_blas_threads(*argv, **env):
    """stdout of a fresh ``python *argv`` whose environment has no
    OPENBLAS_NUM_THREADS other than one given in ``env``."""
    base = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run([sys.executable, *argv], env={**base, **env},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("env, expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")],
                         ids=["unset", "set by the user"])
def test_the_process_entry_defaults_blas_to_one_thread(env, expected):
    assert run_without_blas_threads("-c", BLAS_THREADS, "entry", **env) == expected + "\n"


def test_cli_main_in_process_leaves_the_blas_threads_alone():
    # an embedding process owns its BLAS: only the process entry sets one
    assert run_without_blas_threads("-c", BLAS_THREADS, "cli") == "None\n"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or os.cpu_count() == 1,
                    reason="needs /proc/self/task and more than one CPU")
def test_numpy_under_the_process_entry_starts_no_blas_thread():
    count = "import os, eragreats.__main__, numpy; print(len(os.listdir('/proc/self/task')))"
    assert run_without_blas_threads("-c", count) == "1\n"


def test_the_process_entry_prints_what_cli_main_prints():
    # one BLAS thread in the fresh process, this process's own count here:
    # the seeded draws are the same
    argv = ["tail", "--n", "10", "--k", "6", "--p", "0.18696",
            "--trials", "100000", "--seed", "11", "--format", "json"]
    code, stdout, _ = run_main(argv)
    assert code == 0 and stdout
    assert run_without_blas_threads("-m", "eragreats", *argv) == stdout


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_console_script_runs_the_process_entry():
    import tomllib

    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert tomllib.loads(pyproject)["project"]["scripts"] == {"eragreats": "eragreats.__main__:main"}


def test_zero_tails_display_a_dash(tmp_path):
    # the tail of 0.278**1000 underflows to exactly 0.0
    result = run_cli("tail", "--n", "1000", "--k", "1000", "--p", "0.278", "--format", "csv")
    assert (result.returncode, result.stdout) == (0, "probability,chance\n0,-\n")
    result = run_cli("bridge", "--counts", "1000:1000", "--format", "csv")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[1] == "external,1000,1000,0.278,0,-"

    # a regime of weight 0 through the 1950 cutoff gives a share of 0
    years = [row.split(",")[0] for row in data_path("weight_regimes.csv").read_text().split()[1:]]
    late = tmp_path / "late.csv"
    late.write_text("year,late\n" + "".join(f"{y},{int(int(y) > 1950)}\n" for y in years))
    for argv in (["analyze", "--weights", str(late), "--regime", "late"],
                 ["sensitivity", "--weights", str(late)]):
        result = run_cli(*argv, "--format", "json")
        assert (result.returncode, result.stderr) == (0, "")
        reports = json.loads(result.stdout)
        assert len(reports) == 8
        for report in reports:
            assert report["proportion"] == 0.0
            assert (report["probability"], report["chance"]) == (
                (0.0, "-") if report["early_count"] else (1.0, "1 in 1"))


def test_detrend_formats(tmp_path):
    path = tmp_path / "seasons.csv"
    path.write_text("season,value,league_average\n1920,40,10\n1921,30,5\n")

    table = run_cli("detrend", str(path), "--historic-average", "5")
    assert table.returncode == 0
    assert "career_total      50" in table.stdout

    csv_out = run_cli("detrend", str(path), "--format", "csv")
    assert csv_out.returncode == 0
    assert csv_out.stdout.splitlines()[-1] == "career_total,,,75"

    payload = json.loads(run_cli("detrend", str(path), "--format", "json").stdout)
    assert payload["historic_average"] == 7.5
    assert payload["career_total"] == 75.0
    assert payload["seasons"][0]["detrended"] == 30.0


JSON_TEXT = st.text(st.characters(max_codepoint=0x2FFFF)) | st.sampled_from(
    ['},\n    {', '"},\n    {"', "\\", '\\"', "\n", ",\n    ", "é ünïcode ☃", "\ud800"]
)


# shares and tails: the ends of [0, 1], the least subnormal, and any value
# between, never -0.0
SHARE_OR_TAIL = st.sampled_from([0.0, 5e-324, 1.0]) | st.floats(0, 1).map(abs)


@st.composite
def report_grids(draw):
    """The reports of a grid and whether a ``regime`` column leads, with
    few distinct texts, shares and tails repeated over the rows, as in a
    grid."""
    texts = st.sampled_from(draw(st.lists(JSON_TEXT, min_size=1, max_size=4)))
    shares = st.sampled_from(draw(st.lists(SHARE_OR_TAIL, min_size=1, max_size=3)))
    tails = st.sampled_from(draw(st.lists(SHARE_OR_TAIL, min_size=1, max_size=4)))
    regime = draw(st.booleans())
    names = texts if regime else st.none() | texts
    reports = []
    for _ in range(draw(st.integers(1, 12))):
        tail = draw(tails)
        reports.append(OverrepReport(
            draw(texts), draw(st.integers()), draw(st.integers()), draw(shares), tail,
            Chance(tail, draw(texts)), draw(names)))
    return reports, regime


@settings(max_examples=300)
@given(report_grids())
def test_report_rows_render_as_the_reference(grid):
    # the rendering the report commands run on a miss
    reports, regime = grid
    for fmt in cli.FORMATS:
        assert cli._emit(cli._report_rows(reports, regime), fmt) == reference_report_text(
            reports, fmt, regime), fmt


@pytest.fixture
def formatter_calls(monkeypatch):
    """The values each report formatter is called with; cli looks the
    formatters up as module globals, which is also what the benchmark
    tracer wraps."""
    calls = {"format_proportion": [], "format_probability": []}

    def counting(name):
        def format_value(value):
            calls[name].append(value)
            return getattr(formatting, name)(value)
        return format_value

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    return calls


def test_kept_report_text_formats_no_value(formatter_calls):
    # a warm report command prints its kept text alone
    for command in ("analyze", "sensitivity", "bridge"):
        for fmt in ("table", "csv"):
            argv = [command, "--format", fmt]
            run_main(argv)
            for values in formatter_calls.values():
                values.clear()
            code, stdout, _ = run_main(argv)
            assert (code, stdout.encode()) == (0, (GOLDEN / f"{command}.{fmt}").read_bytes())
            assert formatter_calls == {"format_proportion": [], "format_probability": []}


@pytest.fixture
def kept_texts(monkeypatch):
    """An empty map of kept report texts for the test, the process's own
    left as it was."""
    texts = {}
    monkeypatch.setattr(cli, "_texts", texts)
    return texts


def bundled_lists(*names):
    return [arg for name in names for arg in ("--list", str(data_path(f"{name}.csv")))]


@pytest.mark.parametrize("first, second", [
    (["analyze"], ["analyze", "--cutoff", "1940"]),
    (["analyze"], ["analyze", "--depths", "10"]),
    (["sensitivity"], ["sensitivity", "--format", "csv"]),
    (["analyze", "--regime", "w2"], ["analyze", "--regime", "w3"]),
    (["bridge"], ["bridge", "--counts", "10:5"]),
    (["bridge"], ["bridge", "--pool-cutoff", "2010"]),
    (["analyze", *bundled_lists("espn", "bwar")], ["analyze", *bundled_lists("bwar", "espn")]),
], ids=["cutoff", "depths", "format", "regime", "counts", "pool-cutoff", "list-order"])
def test_a_command_that_differs_in_one_argument_prints_its_own_text(kept_texts, first, second):
    # the first command's text is kept; the second must not be served it
    fresh = run_cli(*second)
    assert fresh.returncode == 0
    assert run_main(first)[1] != fresh.stdout
    assert run_main(second) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert len(kept_texts) == 2


def test_an_input_rewritten_in_place_prints_the_new_result(kept_texts, tmp_path):
    path = tmp_path / "mine.csv"
    argv = ["analyze", "--list", str(path), "--format", "csv"]
    outputs = []
    for name in ("espn", "ranker"):
        path.write_bytes(data_path(f"{name}.csv").read_bytes())
        fresh = run_cli(*argv)
        assert run_main(argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        outputs.append(fresh.stdout)
    assert outputs[0] != outputs[1]


def bridge_commands():
    """33 distinct one-pair bridge commands, one more than the bound, and
    the reports of each."""
    return [
        (["bridge", "--counts", f"10:{k}", "--format", fmt], [(10, k)])
        for k in range(11) for fmt in cli.FORMATS
    ]


def test_report_text_past_the_bound_evicts_the_oldest(kept_texts, table):
    commands = bridge_commands()
    assert len(commands) == _TEXTS_LIMIT + 1
    expected = [
        (0, reference_report_text(
            per_pair_bridge(pairs, DEFAULT_POOL_CUTOFF_YEAR, DEFAULT_CUTOFF_YEAR, table),
            argv[-1]), "")
        for argv, pairs in commands
    ]
    assert len({stdout for _, stdout, _ in expected}) == len(commands)
    for (argv, _), output in zip(commands, expected):
        assert run_main(argv) == output
    kept = list(kept_texts.values())
    assert kept == [stdout for _, stdout, _ in expected[1:]]
    # the evicted first command is rendered again, and evicts the second
    assert run_main(commands[0][0]) == expected[0]
    kept = list(kept_texts.values())
    assert kept == [stdout for _, stdout, _ in expected[2:] + expected[:1]]


def test_threads_running_commands_at_once_share_the_bounded_map(kept_texts):
    commands = [cli.build_parser().parse_args(argv) for argv, _ in bridge_commands()]
    assert len(commands) > _TEXTS_LIMIT
    expected = [args.handler(args) for args in commands]
    errors = []

    def run_all(offset):
        try:
            for i in range(3 * len(commands)):
                index = (i + offset) % len(commands)
                assert commands[index].handler(commands[index]) == expected[index]
                assert len(kept_texts) <= _TEXTS_LIMIT
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run_all, args=(7 * n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_report_text_keeps_no_error(kept_texts, monkeypatch):
    # a command whose rendering fails is rendered afresh on the next run
    def failing(value):
        raise RuntimeError("formatter failed")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "format_probability", failing)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="formatter failed"):
                run_main(["analyze", "--format", "csv"])
    # a fault of the inputs is refused on every run
    for _ in range(2):
        code, stdout, stderr = run_main(["analyze", "--depths", "26"])
        assert (code, stdout) == (4, "") and "26" in stderr
    assert not kept_texts
    assert run_main(["analyze", "--format", "csv"]) == (0, ANALYZE_CSV, "")
    assert len(kept_texts) == 1


def test_one_process_runs_many_commands_as_fresh_ones():
    # the parser is built once per process; no run may leave state in it
    invocations = [
        ["analyze", "--list", str(data_path("espn.csv")), "--format", "csv"],
        ["analyze", "--format", "csv"],
        ["sensitivity"],
    ]
    for argv in invocations:
        fresh = run_cli(*argv)
        assert run_main(argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert run_main(invocations[1])[1] == ANALYZE_CSV
    assert cli.build_parser() is cli.build_parser()


def test_output_is_byte_identical_across_runs():
    for argv in (
        ("analyze", "--format", "json"),
        ("sensitivity",),
        ("bridge", "--format", "csv"),
        ("dilution",),
    ):
        first = run_cli(*argv, binary=True)
        second = run_cli(*argv, binary=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout


# ------------------------------------------------------------ exit codes

def test_usage_errors_exit_2():
    assert run_cli("analyze", "--bogus-flag").returncode == 2
    assert run_cli("unknown-command").returncode == 2
    assert run_cli("analyze", "--depths", "ten").returncode == 2
    assert run_cli("bridge", "--counts", "10-6").returncode == 2
    assert run_cli("tail", "--n", "10", "--k", "6").returncode == 2


def test_input_data_errors_exit_3(tmp_path):
    missing = run_cli("analyze", "--population", str(tmp_path / "nope.csv"))
    assert missing.returncode == 3
    assert "nope.csv" in missing.stderr

    bad = tmp_path / "bad.csv"
    bad.write_text("year,population_millions\n1900,minus\n")
    result = run_cli("proportion", "--population", str(bad))
    assert result.returncode == 3
    assert "bad.csv" in result.stderr

    assert run_cli("proportion", "--regime", "w9").returncode == 3

    seasons = tmp_path / "seasons.csv"
    seasons.write_text("season,value,league_average\n1920,54,inf\n")
    result = run_cli("detrend", str(seasons))
    assert result.returncode == 3
    assert "seasons.csv:2" in result.stderr

    league = tmp_path / "league.csv"
    league.write_text("year,teams,roster_size\n1890,8,15\n1890,9,15\n")
    result = run_cli("dilution", "--league", str(league))
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == f"eragreats: {league}:3: duplicate year 1890\n"

    # an empty path or regime name is refused, not taken for the default
    for argv in (["proportion", "--population", ""],
                 ["proportion", "--weights", "", "--regime", "w1"],
                 ["dilution", "--league", ""]):
        result = run_cli(*argv)
        assert (result.returncode, result.stdout) == (3, ""), argv
        assert result.stderr == "eragreats: empty file path\n", argv
    result = run_cli("analyze", "--regime", "")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("eragreats: ")

    # --weights is read whether or not a regime is picked
    for command in ("analyze", "proportion"):
        result = run_cli(command, "--weights", str(tmp_path / "nope.csv"))
        assert (result.returncode, result.stdout) == (3, ""), command
        assert "nope.csv" in result.stderr


def test_the_first_faulty_input_is_the_one_reported(tmp_path):
    # a report command reads every input's bytes before it parses any, yet
    # a file that cannot be read is reported at its own turn: after a
    # fault of an input loaded before it, or of the --regime picked
    population = tmp_path / "population.csv"
    population.write_text("year,population_millions\n1890,x\n")
    missing = str(tmp_path / "nonexistent.csv")
    cases = [
        (["analyze", "--regime", "nope", "--list", missing],
         "unknown regime 'nope', available: w1, w2, w3, w4"),
        (["sensitivity", "--population", str(population), "--weights", missing],
         f"{population}:2: bad population_millions: 'x'"),
    ]
    for argv, message in cases:
        result = run_cli(*argv)
        assert (result.returncode, result.stdout, result.stderr) == (
            3, "", f"eragreats: {message}\n"), argv
        assert run_main(argv) == (3, "", f"eragreats: {message}\n"), argv


def test_domain_errors_exit_4(tmp_path):
    assert run_cli("proportion", "--cutoff", "3000").returncode == 4
    assert run_cli("tail", "--n", "10", "--k", "20", "--p", "0.5").returncode == 4
    assert run_cli("tail", "--n", "10", "--k", "2", "--p", "1.5").returncode == 4
    assert run_cli("analyze", "--depths", "26").returncode == 4
    # people per roster spot overflow a double past about 1.8e302 million
    population = tmp_path / "population.csv"
    population.write_text("year,population_millions\n1890,2e302\n")
    league = tmp_path / "league.csv"
    league.write_text("year,teams,roster_size\n1890,8,15\n")
    assert run_cli(
        "dilution", "--population", str(population), "--league", str(league)
    ).returncode == 4
    # the simulation is capped at 10**8 draws, refused before any is taken
    assert run_cli(
        "tail", "--n", "10", "--k", "2", "--p", "0.5", "--trials", "100000001"
    ).returncode == 4
    # a detrended season and a career total that overflow
    for rows, extra in [(DETREND_OVERFLOW_SEASON, ["--historic-average", "1"]),
                        (DETREND_OVERFLOW_CAREER, [])]:
        seasons = tmp_path / "seasons.csv"
        seasons.write_text(rows)
        result = run_cli("detrend", str(seasons), *extra, "--format", "json")
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr.startswith("eragreats: ")
        assert "overflows a double" in result.stderr


def test_detrend_results_that_fit_past_an_overflowing_step(tmp_path):
    seasons = tmp_path / "seasons.csv"
    seasons.write_text(DETREND_LARGE_AVERAGE)
    assert run_cli("detrend", str(seasons), "--format", "csv").stdout == (
        "season,value,league_average,detrended\n"
        "1922,1,1e+308,1\n1923,1,1e+308,1\ncareer_total,,,2\n"
    )
    seasons.write_text(DETREND_LARGE_PRODUCT)
    result = run_cli("detrend", str(seasons), "--historic-average", "1e10", "--format", "csv")
    assert result.stdout == (
        "season,value,league_average,detrended\n"
        "1922,1e+300,1e+20,1e+290\ncareer_total,,,1e+290\n"
    )


def test_detrend_total_is_the_library_career_total(tmp_path):
    # the running sum of the seasons overflows a double, the total does not
    seasons = tmp_path / "seasons.csv"
    seasons.write_text(
        "season,value,league_average\n1922,1e308,1\n1923,1e308,1\n1924,-1e308,1\n"
        "1925,3e-324,1\n1926,1.5,0.7\n"
    )
    stats = load_season_stats(seasons)
    for flags, historic in (([], None), (["--historic-average", "1.25"], 1.25)):
        code, stdout, _ = run_main(["detrend", str(seasons), *flags, "--format", "json"])
        assert code == 0
        total = json.loads(stdout)["career_total"]
        assert total.hex() == detrend_career(stats, historic).hex()


def test_detrend_detrends_each_season_once(tmp_path, monkeypatch):
    # the rows and the career total share one detrended value per season
    from eragreats import detrend

    seasons = tmp_path / "seasons.csv"
    seasons.write_text("season,value,league_average\n" + "".join(
        f"{1900 + i},{10 + i},{1 + i / 8}\n" for i in range(20)))
    calls = []

    def counted(*args):
        calls.append(args)
        return detrend_value(*args)

    detrend_value = detrend.detrend_value
    monkeypatch.setattr(detrend, "detrend_value", counted)
    for fmt in ("table", "csv", "json"):
        calls.clear()
        code, stdout, _ = run_main(["detrend", str(seasons), "--format", fmt])
        assert code == 0 and stdout
        assert len(calls) == 20, fmt


def test_report_grid_errors_match_the_per_cell_loop(tmp_path, monkeypatch):
    # each fault that the report grid finds, alone and behind another
    stray = tmp_path / "stray.csv"
    stray.write_text("rank,name,career_start_year\n1,Old Timer,1900\n2,Stray Player,1850\n")
    header, first, *rest = data_path("weight_regimes.csv").read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join([header, *rest]) + "\n")
    zero = tmp_path / "zero.csv"
    rows = [line.split(",") for line in [first, *rest]]
    zero.write_text("year,w1,zero\n" + "".join(f"{year},{w1},0\n" for year, w1, *_ in rows))
    ranker = ["--list", str(data_path("ranker.csv"))]
    invocations = [
        ["analyze", "--list", str(stray)],
        ["analyze", *ranker, "--list", str(stray), "--depths", "2,26"],
        ["analyze", *ranker, "--list", str(stray), "--depths", "26"],
        ["analyze", "--depths", "10,26"],
        ["analyze", "--cutoff", "3000", "--list", str(stray)],
        ["analyze", "--weights", str(short), "--regime", "w2"],
        ["analyze", "--weights", str(zero), "--regime", "zero", "--depths", "26"],
        ["sensitivity", "--weights", str(short)],
        ["sensitivity", "--weights", str(zero)],
        ["sensitivity", "--weights", str(zero), "--depths", "10,26"],
        ["sensitivity", "--weights", str(short), *ranker, "--list", str(stray)],
        ["sensitivity", "--cutoff", "1860", "--depths", "26"],
    ]
    grid = [run_main(argv) for argv in invocations]

    def per_cell_grid(*args):
        per_cell_reports(*args)
        raise AssertionError("the per-cell loop found no fault")

    # the handlers import sensitivity_matrix from analysis at each command
    monkeypatch.setattr(analysis, "sensitivity_matrix", per_cell_grid)
    assert grid == [run_main(argv) for argv in invocations]
    assert {code for code, _, _ in grid} == {3, 4}
    assert all(stdout == "" for _, stdout, _ in grid)


def test_errors_go_to_stderr_not_stdout():
    result = run_cli("proportion", "--cutoff", "3000")
    assert result.stdout == ""
    assert "3000" in result.stderr


def test_a_closed_stdout_pipe_exits_3_without_a_message():
    # the pipe has no reader before the child starts, so its write fails
    # every time; the reader left on purpose, so nothing is printed
    reader, writer = os.pipe()
    os.close(reader)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "eragreats", "tail", "--n", "10", "--k", "6", "--p", "0.18696"],
            stdout=writer, stderr=subprocess.PIPE,
        )
    finally:
        os.close(writer)
    assert (result.returncode, result.stderr) == (3, b"")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="counts the open fds in /dev/fd")
def test_a_broken_stdout_leaves_no_open_fd_behind(monkeypatch):
    # in process, each failed write points the stream's fd at devnull
    class Broken:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        def fileno(self):
            return writer

    reader, writer = os.pipe()
    monkeypatch.setattr(sys, "stdout", Broken())
    try:
        before = len(os.listdir("/dev/fd"))
        for _ in range(5):
            assert cli.main(["tail", "--n", "10", "--k", "6", "--p", "0.18696"]) == 3
        assert len(os.listdir("/dev/fd")) == before
    finally:
        os.close(reader)
        os.close(writer)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_3_with_one_line():
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "eragreats", "analyze"], stdout=full, stderr=subprocess.PIPE
        )
    lines = result.stderr.decode().splitlines()
    assert result.returncode == 3
    assert len(lines) == 1 and lines[0].startswith("eragreats: cannot write output: "), lines


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child")
def test_a_closed_stdout_exits_3_with_one_line():
    # with fd 1 closed at start the interpreter sets sys.stdout to None
    result = subprocess.run(
        [sys.executable, "-m", "eragreats", "analyze"],
        preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
    )
    assert (result.returncode, result.stderr) == (
        3, b"eragreats: cannot write output: Bad file descriptor\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, full_stdout, code", [
    (["proportion", "--cutoff", "3000"], False, 4),
    (["proportion", "--cutoff", "3000"], True, 4),
    (["analyze", "--list", "{tmp}/missing.csv"], False, 3),
    (["analyze", "--list", "{tmp}/missing.csv"], True, 3),
    (["analyze"], True, 3),
])
def test_an_unwritable_stderr_keeps_the_exit_code(tmp_path, argv, full_stdout, code):
    # the one-line message is lost, the documented exit code is not
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "eragreats", *(arg.format(tmp=tmp_path) for arg in argv)],
            stdout=full if full_stdout else subprocess.PIPE, stderr=full,
        )
    assert (result.returncode, result.stdout or b"") == (code, b"")


# ------------------------------------------------------ CLI contract

# numbers at and past the edge of every domain, and text that is none
NUMBER = st.one_of(
    st.integers(-10**25, 10**25).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "1e309", "2e302", "5e-324", "1_0", "0x10", "ten",
                     "1" + "0" * 400, "1.7976931348623157e308"]),
)
YEAR = st.one_of(st.integers(1860, 2030).map(str), NUMBER)
COUNT = st.one_of(st.integers(-2, 1010).map(str), NUMBER)
SHARE = st.one_of(st.floats(0, 1).map(repr), NUMBER)
CELL = st.one_of(st.integers(0, 2030).map(str), st.floats(0, 1e3).map(repr), NUMBER)
FORMAT = st.sampled_from(["table", "csv", "json"])


def csv_file(header):
    """Bytes of a CSV file: the header or a shuffle of it, then rows of
    edge numbers whose widths vary; or raw bytes; or None for a file that
    does not exist."""
    columns = header.split(",")
    width = len(columns)
    row = st.one_of(st.lists(CELL, min_size=width, max_size=width),
                    st.lists(CELL, min_size=width - 1, max_size=width + 1))
    text = st.tuples(
        st.one_of(st.just(columns), st.permutations(columns)), st.lists(row, max_size=4)
    ).map(lambda parts: "".join(",".join(cells) + "\n" for cells in [parts[0], *parts[1]]))
    return st.one_of(text.map(str.encode), st.binary(max_size=40), st.none())


POPULATION = csv_file("year,population_millions,period_length_years")
WEIGHTS = csv_file("year,w1,w2")
LIST = csv_file("rank,name,career_start_year")
DEPTHS = st.lists(COUNT, min_size=1, max_size=3).map(",".join)
REPORT_OPTIONS = {"--population": POPULATION, "--list": LIST, "--cutoff": YEAR,
                  "--depths": DEPTHS, "--weights": WEIGHTS, "--format": FORMAT}
REGIME = st.sampled_from(["w1", "w4", "w9", ""])

# subcommand -> (required arguments, optional ones); a positional has key ""
COMMANDS = {
    "proportion": ({}, {"--population": POPULATION, "--cutoff": YEAR,
                        "--weights": WEIGHTS, "--regime": REGIME}),
    # --trials runs that many draws, so it stays at most 1e5 or lies past
    # the 10**8 cap, which is refused before any draw
    "tail": ({"--n": COUNT, "--k": COUNT, "--p": SHARE},
             {"--trials": st.one_of(st.integers(-2, 10**5),
                                    st.integers(10**8 + 1, 10**30)).map(str),
              "--seed": COUNT, "--format": FORMAT}),
    "analyze": ({}, {**REPORT_OPTIONS, "--regime": REGIME}),
    "sensitivity": ({}, REPORT_OPTIONS),
    "bridge": ({}, {"--population": POPULATION, "--cutoff": YEAR, "--pool-cutoff": YEAR,
                    "--counts": st.lists(st.tuples(COUNT, COUNT).map(":".join),
                                         min_size=1, max_size=2).map(",".join),
                    "--format": FORMAT}),
    "dilution": ({}, {"--population": POPULATION,
                      "--league": csv_file("year,teams,roster_size"), "--format": FORMAT}),
    "detrend": ({"": csv_file("season,value,league_average")},
                {"--historic-average": NUMBER, "--format": FORMAT}),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    argv = [command]
    for flag, value in draw(st.fixed_dictionaries(required, optional=optional)).items():
        argv += [flag, value] if flag else [value]
    return argv


@settings(max_examples=200)
@given(invocations())
# people per roster spot that overflow a double
@example(["dilution", "--population", b"year,population_millions\n1890,2e302\n",
          "--league", b"year,teams,roster_size\n1890,8,15\n"])
# roster spots past the double range, and a population total that overflows
@example(["dilution", "--league",
          b"year,teams,roster_size\n1890,1" + b"0" * 400 + b",25\n"])
@example(["proportion", "--population",
          b"year,population_millions,period_length_years\n1880,1e308,10\n1890,1e308,1\n",
          "--cutoff", "1890"])
@example(["tail", "--n", "10", "--k", "2", "--p", "0.5", "--trials", "10", "--seed", "-1"])
@example(["proportion", "--population", b"\xff\xfe"])
@example(["detrend", b"season,value,league_average\n" + b"1" * 200_000 + b"\n"])
@example(["tail", "--n", "10", "--k", "2", "--p", "0.5", "--trials", str(10**8 + 1)])
# a detrended season and a career total that overflow, and results that
# fit past an overflowing sum or product
@example(["detrend", DETREND_OVERFLOW_SEASON.encode(), "--historic-average", "1",
          "--format", "json"])
@example(["detrend", DETREND_OVERFLOW_CAREER.encode()])
@example(["detrend", DETREND_LARGE_AVERAGE.encode()])
@example(["detrend", DETREND_LARGE_PRODUCT.encode(), "--historic-average", "1e10"])
def test_every_invocation_ends_with_a_documented_exit_code(argv):
    with tempfile.TemporaryDirectory() as directory:
        args = []
        for position, part in enumerate(argv):
            if part is None or isinstance(part, bytes):
                path = Path(directory) / f"input{position}.csv"
                if part is not None:
                    path.write_bytes(part)
                part = str(path)
            args.append(part)
        code, _, stderr = run_main(args)
    assert code in (0, 2, 3, 4), (code, stderr)
