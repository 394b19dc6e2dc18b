"""The closed loop shared by every workload: one client, one op at a time.

The host this runs on is shared: from one minute to the next the same
work runs at one of a few speeds, up to 1.7 times apart, and within a
minute it stays at one of them.  A run of 30 s cannot average that out,
so every latency is also read against a fixed pure-Python reference
kernel timed beside it, and reported at the kernel's reference speed.
A change to the program moves its ops and not the kernel.
"""

import statistics
import time
from collections import deque

# the reference kernel's time on a 2-vCPU x86-64 VM under CPython 3.11
# while the host ran at its faster speed; latencies are reported at it
REFERENCE_SECONDS = 2e-4


def _reference_kernel() -> float:
    """Integer arithmetic, then dict updates and float arithmetic, about
    half the time each.  The host's slower speeds slow the two unequally,
    and the program's ops, which mix both, fall between them."""
    total = 0
    for i in range(1500):
        total += i * i % 7
    weights: dict[int, float] = {}
    for i in range(360):
        year = 1871 + i % 150
        weights[year] = weights.get(year, 0.0) + (i % 7) * 0.25
        total += abs(weights[year] - i / 3.0)
    return total


def reference_time() -> float:
    """The fastest of five runs of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Loop:
    """Runs ``run(op)`` over ``ops`` in whole passes and records, per op,
    its key, latency, failure and the reference kernel's latest time, plus
    the first output of each key and the keys whose later outputs differed
    from it.

    A pass runs the ops at the indices in ``schedule``: all of them once
    unless the schedule is changed (see ``spread_schedule``).  The kernel
    is timed again before an op once ``reference_every`` seconds have gone
    since it last was, about 0.2% of the run at the default, and an op is
    read against the median of its last nine timings: the host's speed
    holds for a minute or more, the kernel's own timing noise does not."""

    def __init__(self, run, ops, reference_every: float = 0.25):
        self.run, self.ops = run, ops
        self.schedule = list(range(len(ops)))
        self.reference_every = reference_every
        self.references: deque[float] = deque(maxlen=9)
        self.reference, self.reference_at = 0.0, -float("inf")
        self.records: list[tuple[str, float, str | None, float]] = []
        self.outputs: dict = {}
        self.mismatched: set = set()

    def one_pass(self, before=None) -> float:
        start = time.perf_counter()
        for index in self.schedule:
            op = self.ops[index]
            if before:
                before(index)
            if time.perf_counter() - self.reference_at >= self.reference_every:
                self.references.append(reference_time())
                self.reference = statistics.median(self.references)
                self.reference_at = time.perf_counter()
            t0 = time.perf_counter()
            try:
                output = self.run(op)
            except Exception as exc:  # a failed op is counted and the loop goes on
                self.records.append((op["key"], time.perf_counter() - t0, type(exc).__name__,
                                     self.reference))
                continue
            self.records.append((op["key"], time.perf_counter() - t0, None, self.reference))
            if self.outputs.setdefault(op["key"], output) != output:
                self.mismatched.add(op["key"])
        return time.perf_counter() - start

    def timed(self, seconds: float, min_ops: int) -> float:
        """Whole passes until ``seconds`` have gone and ``min_ops`` ops ran."""
        start = time.perf_counter()
        while True:
            self.one_pass()
            wall = time.perf_counter() - start
            if wall >= seconds and len(self.records) >= min_ops:
                return wall


def spread_schedule(latencies: list[float], budget: float, slots: int = 16) -> list[int]:
    """A pass that runs op i about ``budget / latencies[i]`` times, at least
    once and at most ``slots`` times, its repeats spread evenly over the
    pass: the ops are cut into ``slots`` runs, and after each run but the
    first come the ops that still have repeats left.

    An op's latency is the median of its repeats (see
    ``median_latencies``), which wants many repeats spread over the run.
    Cheap ops get many of them for little time; the costly ones, which
    set the length of a pass, get one.
    """
    count = len(latencies)
    repeats = [min(slots, max(1, int(budget / max(t, 1e-9)))) for t in latencies]
    schedule = []
    for slot in range(slots):
        schedule += range(slot * count // slots, (slot + 1) * count // slots)
        if slot:
            schedule += [i for i in range(count) if repeats[i] > slot]
    return schedule


def failed_ops(records, keys: list[str], wrong) -> int:
    """How many of the ops with these keys raised in any repeat or gave a
    wrong output.  Counting ops rather than repeats makes the failure
    count a function of the seed alone, however many passes fit in the
    run."""
    failing = {key for key, _, error, _ in records if error} | set(wrong)
    return sum(1 for key in keys if key in failing)


def median_latencies(records, keys: list[str], scaled: bool = True) -> list[float]:
    """Per key, the median latency of all its repeats in the run, each at
    the reference speed (see the module docstring) unless ``scaled`` is
    false.

    Ops with the same key do identical work, so the repeats of a key are
    pooled within a pass as well as across passes, and the median of
    repeats spread over the whole run does not grow more optimistic as
    more of them fit in the run.
    """
    repeats: dict[str, list[float]] = {}
    for key, seconds, _, reference in records:
        if scaled:
            seconds *= REFERENCE_SECONDS / reference
        repeats.setdefault(key, []).append(seconds)
    typical = {key: statistics.median(values) for key, values in repeats.items()}
    return [typical[key] for key in keys]
