"""The eragreats benchmark: one command for every workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` and
keeps its generated inputs under ``.bench_work/``.  Each workload is a
closed loop with one client in one process (see ``workloads.WHY`` for why
each was chosen).  Every output is checked after the timed phase.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics with the
tracing overhead.  The last line of stdout is the JSON result.

An op's latency is the median wall time of its repeats over the whole
run, each read against a reference kernel timed beside it and reported
at the kernel's reference speed (see loop.py); ``setup_s`` is read the
same way.  p50 and p90 are taken over the ops of the workload's mix and
``ops_per_s`` is the mix run back to back at those latencies.  The
summary also prints the unscaled times.  An op is attempted once per run and fails if any repeat
raised or its output is wrong, so ``attempted`` and ``failed`` depend on
the seed alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import checks
import tracing
import workloads
from loop import REFERENCE_SECONDS, Loop, failed_ops, median_latencies, reference_time

BENCH_DIR = Path(__file__).resolve().parent
MIN_OPS = 100  # at least ten samples above the p90
SETUP_SPAWNS = 11
# tail-sweep has one op per input, from microseconds to tens of ms; a pass
# repeats the cheap ones up to this many seconds each (see
# loop.spread_schedule).  The other mixes repeat their ops already.
SPREAD_BUDGET = {"tail-sweep": 0.002}
# each run must end within 180 s
DEADLINE_S = 170.0

SETUP_IMPORT = {
    "cli-cold": "import eragreats.cli",
    "report-grid": "import eragreats.cli",
    "tail-sweep": "import eragreats.tailprob",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "eragreats" / "__init__.py").is_file():
        raise BenchError(f"no package at {src / 'eragreats'}; run from the repository root")
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    deadline = started + DEADLINE_S

    setup = [_spawn_import(SETUP_IMPORT[args.workload], root, env) for _ in range(SETUP_SPAWNS)]

    if args.workload == "cli-cold":
        seasons = workloads.cli_cold_inputs(args.seed, workdir)
        ops = workloads.cli_cold_ops(seasons)
        raw = _run_cli_cold(ops, args, root, env, workdir, deadline)
        wrong = checks.check_cli_cold(src / "eragreats" / "data", seasons, raw["outputs"])
    elif args.workload == "report-grid":
        truth = workloads.report_grid_inputs(args.seed, workdir / "inputs")
        ops = workloads.report_grid_ops(workdir / "inputs", truth)
        raw = _run_worker(args, ops, root, env, workdir, deadline)
        wrong = checks.check_report_grid(truth, raw["outputs"])
    else:
        triples = workloads.tail_sweep_inputs(args.seed)
        ops = [{"key": str(i), "n": n, "k": k, "p": p} for i, (n, k, p) in enumerate(triples)]
        raw = _run_worker(args, ops, root, env, workdir, deadline)
        wrong = checks.check_tail_sweep(triples, raw["outputs"])
    for key in raw["mismatched"]:
        wrong.setdefault(key, "output differs between repeats of the op")

    # every op of the seeded mix is attempted once however many passes
    # ran; it failed if any of its repeats raised or its output is wrong
    keys = [op["key"] for op in ops]
    first_error = {}
    for key, _, error, _ in raw["records"]:
        if error:
            first_error.setdefault(key, error)
    errors = Counter(first_error[key] for key in keys if key in first_error)
    failed = failed_ops(raw["records"], keys, wrong)
    result = {"correct": not wrong, "attempted": len(ops), "failed": failed}

    if args.trace:
        metrics, units, samples = _layer_results(raw, ops)
    else:
        metrics, samples = _end_to_end(raw, setup, failed, keys)
        units = END_TO_END_UNITS
    note = None if args.trace else _unscaled_note(raw, setup, keys)
    _print_summary(args, metrics, units, samples, result, errors, wrong, raw, note)
    if args.trace:
        print(f"  tracing overhead over one pass: {len(ops) / raw['wall']:.6g} ops/s untraced, "
              f"{len(ops) / raw['traced_wall']:.6g} ops/s traced")
    print(json.dumps({"meta": _meta(args, samples)}))
    result["metrics"] = {
        name: {"value": metrics[name], "unit": units[name]} for name in metrics
    }
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------- running ops

def _spawn_import(statement: str, root: Path, env: dict) -> tuple[float, float]:
    """Seconds for a fresh interpreter to start and import the package,
    and the reference kernel's time just before (see loop.py)."""
    reference = reference_time()
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", statement], cwd=root, env=env,
                          capture_output=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"{statement!r} failed: {done.stderr.decode(errors='replace')}")
    return elapsed, reference


def _run_cli_cold(ops, args, root, env, workdir, deadline) -> dict:
    """Fresh `python -m eragreats` processes, one at a time."""

    def launch(command, op):
        done = subprocess.run([*command, *op["argv"]], cwd=root, env=env, capture_output=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}")
        return done

    # an op takes a few hundred ms: time the reference kernel before each
    loop = Loop(lambda op: launch([sys.executable, "-m", "eragreats"], op).stdout.decode(), ops,
                reference_every=0.0)
    raw = {}
    if not args.trace:
        raw["wall"] = loop.timed(args.seconds, MIN_OPS)
    else:
        raw["wall"] = loop.one_pass()
        stderr = []

        def traced(op):
            spans_path = workdir / f"spans-{len(stderr)}.jsonl"
            command = [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_trace.py"),
                       str(spans_path)]
            done = launch(command, op)
            stderr.append(done.stderr.decode(errors="replace"))
            return done.stdout.decode()

        loop.run = traced
        raw["traced_wall"] = loop.one_pass()
        spans = []
        for index in range(len(stderr)):
            base = len(spans)
            with open(workdir / f"spans-{index}.jsonl") as fh:
                for line in fh:
                    span = json.loads(line)
                    span["op"] = index
                    if span["parent"] is not None:
                        span["parent"] += base
                    spans.append(span)
        raw["spans"] = spans
        per_child = [tracing.import_metrics(text) for text in stderr]
        raw["imports"] = {
            name: statistics.fmean(m[name] for m in per_child) for name in per_child[0]
        }
    raw["rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    raw.update(records=loop.records, outputs=loop.outputs, mismatched=sorted(loop.mismatched))
    return raw


def _run_worker(args, ops, root, env, workdir, deadline) -> dict:
    """One worker process runs the in-process loop; see worker.py."""
    job = {"workload": args.workload, "seconds": args.seconds, "min_ops": MIN_OPS,
           "spread_budget": SPREAD_BUDGET.get(args.workload),
           "trace": args.trace, "ops": ops}
    (workdir / "job.json").write_text(json.dumps(job))
    command = [sys.executable, str(BENCH_DIR / "worker.py"), str(workdir)]
    if args.trace:
        command[1:1] = ["-X", "importtime"]
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("the worker did not finish in time") from None
    stderr = done.stderr.decode(errors="replace")
    if done.returncode != 0:
        raise BenchError(f"the worker failed:\n{stderr}")
    raw = json.loads((workdir / "result.json").read_text())
    if args.trace:
        with open(workdir / "spans.jsonl") as fh:
            raw["spans"] = [json.loads(line) for line in fh]
        raw["imports"] = tracing.import_metrics(stderr)
    return raw


# ----------------------------------------------------------------- metrics

def _end_to_end(raw, setup, failed, keys) -> tuple[dict, dict]:
    records = raw["records"]
    latencies = median_latencies(records, keys)
    metrics = {
        # the child need not run on the CPU the kernel ran on, so the median
        # spawn is read against the median kernel time, not spawn by spawn
        "setup_s": statistics.median(s for s, _ in setup) * REFERENCE_SECONDS
        / statistics.median(r for _, r in setup),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_p90": 1e3 * statistics.quantiles(latencies, n=10)[8],
        # one client running the mix's ops back to back at those latencies
        "ops_per_s": len(keys) / math.fsum(latencies),
        "ok_frac": 1.0 - failed / len(keys),
        "peak_rss_mb": raw["rss_kb"] / 1024,
    }
    samples = {
        "setup_s": len(setup),
        "op_ms_p50": len(records),
        "op_ms_p90": len(records),
        "ops_per_s": len(records),
        "ok_frac": len(keys),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def _layer_results(raw, ops) -> tuple[dict, dict, dict]:
    metrics = dict(raw["imports"])
    metrics.update(tracing.layer_metrics(raw["spans"]))
    # traced minus untraced throughput over the same pass of ops
    metrics["trace.ops_per_s_delta"] = len(ops) / raw["traced_wall"] - len(ops) / raw["wall"]
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    samples = {name: len(ops) for name in metrics}
    return {name: metrics[name] for name in units}, units, samples


# ---------------------------------------------------------------- printing

def _unscaled_note(raw, setup, keys) -> str:
    """The plain wall times behind the scaled metrics, for the reader."""
    unscaled = median_latencies(raw["records"], keys, scaled=False)
    return (f"  unscaled: setup_s {statistics.median(s for s, _ in setup):.6g} s, "
            f"op_ms_p50 {1e3 * statistics.median(unscaled):.6g} ms, "
            f"op_ms_p90 {1e3 * statistics.quantiles(unscaled, n=10)[8]:.6g} ms; "
            f"reference kernel {1e6 * statistics.median(r for *_, r in raw['records']):.6g} us")


def _print_summary(args, metrics, units, samples, result, errors, wrong, raw, note) -> None:
    raw_records, wall = raw["records"], raw["wall"]
    mode = "one traced pass" if args.trace else f"{args.seconds:g} s closed loop"
    print(f"workload {args.workload}, seed {args.seed}, {mode}, one client")
    if not args.trace:
        print(f"  (times at the reference kernel's {1e6 * REFERENCE_SECONDS:g} us; op latency is "
              f"each op's median repeat; {len(raw_records) / wall:.6g} repeats/s over {wall:.3g} s)")
    for name, value in metrics.items():
        print(f"  {name:34} {value:14.6g} {units[name]:9} ({samples[name]} samples)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':34} {failed / attempted:14.6g} {'fraction':9} "
          f"({failed} of the pass's {attempted} ops)")
    for kind, count in sorted(errors.items()):
        print(f"  raised {kind}: {count} ops")
    for key, reason in sorted(wrong.items())[:20]:
        print(f"  wrong output for op {key}: {reason}")
    if note:
        print(note)


def _meta(args, samples) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": _commit(Path.cwd()),
        "samples": samples,
    }


def _commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
