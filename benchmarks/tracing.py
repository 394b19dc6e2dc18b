"""Spans around the package's layers, recorded from outside the package.

``Tracer.install`` replaces the public names that ``eragreats.cli`` and
``eragreats.analysis`` look up in their own namespaces with wrappers that
record one span per call: layer name, start, end, parent span and the op
it belongs to.  Spans stay in memory and are written once, at the end.
``layer_metrics`` turns spans into the per-layer metrics, where a layer's
self time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import time

LAYERS = {
    "main": "cli",
    "load_population_table": "population.load",
    "load_weight_regimes": "population.load",
    "cumulative_population": "population.share",
    "cumulative_proportion": "population.share",
    "weighted_cumulative_proportion": "population.share",
    "load_ranked_list": "rankings.load",
    "count_early": "rankings.count_early",
    "analyze": "analysis",
    "sensitivity_matrix": "analysis",
    "bridge_check": "analysis",
    "monte_carlo_oracle": "analysis.monte_carlo",
    "binomial_tail": "tailprob.tail",
    "chance_format": "tailprob.chance",
    "format_probability": "formatting",
    "format_proportion": "formatting",
    "build_league_seasons": "dilution",
    "load_league_config": "dilution",
    "per_roster_spot": "dilution",
    "format_per_roster_spot": "dilution",
    "load_season_stats": "detrend",
    "compute_historic_average": "detrend",
    "detrend_value": "detrend",
    "detrend_career": "detrend",
    "data_path": "defaults",
    "default_population_table": "defaults",
    "default_ranked_lists": "defaults",
    "default_weight_regimes": "defaults",
    "default_league_seasons": "defaults",
}

# doubles lose precision below 2**-1021 (the package's underflow probe)
_NORMAL_EXP_FLOOR = -1021.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []

    def install(self, modules) -> None:
        for module in modules:
            for name, layer in LAYERS.items():
                if hasattr(module, name):
                    setattr(module, name, self.wrap(layer, getattr(module, name)))

    def wrap(self, layer: str, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {
                "name": layer,
                "op": self.op,
                "parent": stack[-1] if stack else None,
                "args": _span_args(layer, func.__name__, args),
                "error": None,
            }
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **span}) + "\n")


def _span_args(layer: str, func: str, args) -> list | None:
    if layer == "population.share":
        regime = args[1].name if func == "weighted_cumulative_proportion" else None
        return [func, regime, args[-1]]
    if layer == "tailprob.tail":
        return list(args[:3])
    return None


def underflow_risk(n: int, p: float) -> bool:
    """True when an isolated p**n or (1 - p)**n leaves the normal range,
    the input property that can send a tail to the exact-rational path."""
    if not 0.0 < p < 1.0:
        return False
    return (n * math.log2(p) <= _NORMAL_EXP_FLOOR
            or n * math.log1p(-p) / math.log(2.0) <= _NORMAL_EXP_FLOOR)


def self_times(spans: list[dict]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(span["end"] - span["start"] - covered)
    return result


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times (ms) over all the given spans."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    for span, self_s in zip(spans, own):
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        ms[span["name"]] = ms.get(span["name"], 0.0) + 1e3 * self_s

    share_keys = {(s["op"], tuple(s["args"])) for s in spans if s["name"] == "population.share"}
    tails = [s for s in spans if s["name"] == "tailprob.tail"]
    risky = [underflow_risk(s["args"][0], s["args"][2]) for s in tails]
    terms = sum(
        n - k + 1 for n, k, p in (s["args"] for s in tails) if k >= 1 and 0.0 < p < 1.0
    )
    share_calls = calls.get("population.share", 0)
    return {
        "cli.calls": calls.get("cli", 0),
        "cli.self_ms": ms.get("cli", 0.0),
        "population.load_calls": calls.get("population.load", 0),
        "population.load_ms": ms.get("population.load", 0.0),
        "rankings.load_calls": calls.get("rankings.load", 0),
        "rankings.load_ms": ms.get("rankings.load", 0.0),
        "rankings.count_early_calls": calls.get("rankings.count_early", 0),
        "population.share_calls": share_calls,
        "population.share_ms": ms.get("population.share", 0.0),
        "population.share_distinct_ratio": len(share_keys) / share_calls if share_calls else 0.0,
        "analysis.calls": calls.get("analysis", 0),
        "analysis.self_ms": ms.get("analysis", 0.0),
        "tailprob.tail_calls": len(tails),
        "tailprob.tail_ms": ms.get("tailprob.tail", 0.0),
        "tailprob.terms": terms,
        "tailprob.underflow_risk_share": sum(risky) / len(tails) if tails else 0.0,
        "tailprob.tail_ms_risk": sum(1e3 * (s["end"] - s["start"]) for s, r in zip(tails, risky) if r),
        "tailprob.tail_ms_normal": sum(1e3 * (s["end"] - s["start"]) for s, r in zip(tails, risky) if not r),
        "tailprob.chance_calls": calls.get("tailprob.chance", 0),
        "tailprob.chance_ms": ms.get("tailprob.chance", 0.0),
        "tailprob.chance_failed": sum(1 for s in spans if s["name"] == "tailprob.chance" and s["error"]),
        "formatting.calls": calls.get("formatting", 0),
        "formatting.ms": ms.get("formatting", 0.0),
        "analysis.monte_carlo_ms": ms.get("analysis.monte_carlo", 0.0),
        "dilution.ms": ms.get("dilution", 0.0),
        "detrend.ms": ms.get("detrend", 0.0),
        "defaults.ms": ms.get("defaults", 0.0),
    }


IMPORT_MARKER = "eragreats-bench: interpreter ready"

# every per-layer metric: unit, and which way is better
PER_LAYER = {
    "import.interpreter_ms": ("ms", "lower"),
    "import.numpy_ms": ("ms", "lower"),
    "import.eragreats_ms": ("ms", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "population.load_calls": ("count", "lower"),
    "population.load_ms": ("ms", "lower"),
    "rankings.load_calls": ("count", "lower"),
    "rankings.load_ms": ("ms", "lower"),
    "rankings.count_early_calls": ("count", "lower"),
    "population.share_calls": ("count", "lower"),
    "population.share_ms": ("ms", "lower"),
    "population.share_distinct_ratio": ("fraction", "higher"),
    "analysis.calls": ("count", "lower"),
    "analysis.self_ms": ("ms", "lower"),
    "tailprob.tail_calls": ("count", "lower"),
    "tailprob.tail_ms": ("ms", "lower"),
    "tailprob.terms": ("count", "lower"),
    "tailprob.underflow_risk_share": ("fraction", "lower"),
    "tailprob.tail_ms_risk": ("ms", "lower"),
    "tailprob.tail_ms_normal": ("ms", "lower"),
    "tailprob.chance_calls": ("count", "lower"),
    "tailprob.chance_ms": ("ms", "lower"),
    "tailprob.chance_failed": ("count", "lower"),
    "formatting.calls": ("count", "lower"),
    "formatting.ms": ("ms", "lower"),
    "analysis.monte_carlo_ms": ("ms", "lower"),
    "dilution.ms": ("ms", "lower"),
    "detrend.ms": ("ms", "lower"),
    "defaults.ms": ("ms", "lower"),
    "trace.ops_per_s_delta": ("1/s", "higher"),
}


def import_metrics(stderr: str) -> dict[str, float]:
    """Import times (ms) from ``-X importtime`` output.  Top-level imports
    before the marker line are the interpreter's own start-up; eragreats
    counts every top-level ``eragreats`` module, numpy included."""
    interpreter = numpy = package = 0.0
    started = False
    for line in stderr.splitlines():
        if line.strip() == IMPORT_MARKER:
            started = True
            continue
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        top_level = not name.startswith("  ", 1)
        module = name.strip()
        value = int(cumulative) / 1e3
        if not started:
            interpreter += value if top_level else 0.0
        elif module == "numpy":
            numpy += value
        elif top_level and (module == "eragreats" or module.startswith("eragreats.")):
            package += value
    return {
        "import.interpreter_ms": interpreter,
        "import.numpy_ms": numpy,
        "import.eragreats_ms": package,
    }
