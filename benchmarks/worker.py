"""Run one in-process workload and write its raw results.

Usage: python3 benchmarks/worker.py WORKDIR

Reads WORKDIR/job.json, written by run.py, and writes WORKDIR/result.json.
An untraced job runs one untimed pass, then the closed loop for the
job's seconds.  A traced job runs one untraced pass, then one pass with
the layer functions wrapped, and writes the spans to WORKDIR/spans.jsonl.
"""

import sys

# everything imported before this line is the interpreter's own start-up
sys.stderr.write("eragreats-bench: interpreter ready\n")

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from loop import Loop, spread_schedule  # noqa: E402


def report_grid_runner():
    import eragreats.analysis as analysis
    import eragreats.cli as cli

    def run(op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise RuntimeError(f"exit {code}")
        return out.getvalue()

    return run, [cli, analysis]


def tail_sweep_runner():
    import eragreats.tailprob as tailprob

    def run(op):
        n, k, p = op["n"], op["k"], op["p"]
        # what `eragreats tail` does with the result
        probability = tailprob.binomial_tail(n, k, p)
        chance = tailprob.chance_format(probability).display if probability > 0 else "-"
        return [probability, chance]

    return run, [tailprob]


RUNNERS = {"report-grid": report_grid_runner, "tail-sweep": tail_sweep_runner}


def main(workdir: Path) -> None:
    job = json.loads((workdir / "job.json").read_text())
    run, modules = RUNNERS[job["workload"]]()
    loop = Loop(run, job["ops"])
    result = {}
    if not job["trace"]:
        # an untimed pass runs every op once: the peak memory of the ops is
        # read after it, before the timed passes' records add to it, and
        # its latencies set the repeats of each op where the job asks
        loop.one_pass()
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if job["spread_budget"]:
            loop.schedule = spread_schedule([t for _, t, _, _ in loop.records],
                                            job["spread_budget"])
        loop.records.clear()
        result["wall"] = loop.timed(job["seconds"], job["min_ops"])
    else:
        from tracing import Tracer

        result["wall"] = loop.one_pass()
        tracer = Tracer()
        tracer.install(modules)

        def before(index):
            tracer.op = index

        result["traced_wall"] = loop.one_pass(before)
        tracer.write(workdir / "spans.jsonl")
    result.setdefault("rss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    result["records"] = loop.records
    result["outputs"] = loop.outputs
    result["mismatched"] = sorted(loop.mismatched)
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
