"""Command line interface.

Subcommands mirror the library: ``proportion``, ``tail``, ``analyze``,
``sensitivity``, ``bridge``, ``dilution``, ``detrend``.  All output is
deterministic byte-for-byte for a given invocation: fixed column orders,
fixed float rendering, no timestamps, no hash-order iteration.

Exit codes: 0 success, 2 usage errors (argparse), 3 invalid input data,
4 domain errors in a computation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .analysis import _chance, bridge_check, monte_carlo_oracle, sensitivity_matrix
from .defaults import (
    DEFAULT_BRIDGE_COUNTS,
    DEFAULT_CUTOFF_YEAR,
    DEFAULT_DEPTHS,
    DEFAULT_POOL_CUTOFF_YEAR,
    data_path,
    default_ranked_lists,
)
from .detrend import (
    _career_total,
    compute_historic_average,
    detrend_value,
    load_season_stats,
)
from .dilution import (
    build_league_seasons,
    format_per_roster_spot,
    load_league_config,
    per_roster_spot,
)
from .errors import DataError, DomainError
from .formatting import format_probability, format_proportion
from .population import cumulative_proportion, load_population_table, load_weight_regimes
from .rankings import load_ranked_list
from .tailprob import binomial_tail

FORMATS = ("table", "csv", "json")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except DataError as exc:
        print(f"eragreats: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"eragreats: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call and then reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="eragreats",
        description="Quantify how overrepresented early eras are in "
        "all-time-greatest baseball rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("proportion", help="cumulative share of the eligible pool at a cutoff")
    _add_population(p)
    _add_cutoff(p)
    _add_weights(p, regime=True)
    p.set_defaults(handler=_cmd_proportion)

    p = sub.add_parser("tail", help="exact binomial tail probability P(X >= k)")
    p.add_argument("--n", type=int, required=True, help="number of trials")
    p.add_argument("--k", type=int, required=True, help="minimum success count")
    p.add_argument("--p", type=float, required=True, help="per-trial success probability")
    p.add_argument("--trials", type=int, metavar="N",
                   help="also report a Monte Carlo estimate from N simulated draws")
    p.add_argument("--seed", type=int, default=0, help="simulation seed (default: 0)")
    _add_format(p)
    p.set_defaults(handler=_cmd_tail)

    p = sub.add_parser("analyze", help="overrepresentation report per list and depth")
    _add_population(p)
    _add_lists(p)
    _add_cutoff(p)
    _add_depths(p)
    _add_weights(p, regime=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("sensitivity", help="reports across every weighting regime")
    _add_population(p)
    _add_weights(p, regime=False)
    _add_lists(p)
    _add_cutoff(p)
    _add_depths(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_sensitivity)

    p = sub.add_parser("bridge", help="recompute reported results against a truncated pool")
    _add_population(p)
    _add_cutoff(p)
    p.add_argument("--pool-cutoff", type=int, default=DEFAULT_POOL_CUTOFF_YEAR,
                   metavar="YEAR", help="pool truncation year (default: %(default)s)")
    p.add_argument("--counts", type=_counts_arg, default=DEFAULT_BRIDGE_COUNTS,
                   metavar="D:K[,D:K...]",
                   help="reported depth:early_count pairs (default: 10:6,25:10)")
    _add_format(p)
    p.set_defaults(handler=_cmd_bridge)

    p = sub.add_parser("dilution", help="eligible population per roster spot over time")
    _add_population(p)
    p.add_argument("--league", metavar="PATH", default=data_path("league_config.csv"),
                   help="league size CSV: year,teams,roster_size (default: bundled)")
    _add_format(p)
    p.set_defaults(handler=_cmd_dilution)

    p = sub.add_parser("detrend", help="rescale seasons by historic/league average")
    p.add_argument("stats", metavar="PATH", help="season stats CSV: season,value,league_average")
    p.add_argument("--historic-average", type=float, metavar="X",
                   help="override the historic average (default: mean of the file's league averages)")
    _add_format(p)
    p.set_defaults(handler=_cmd_detrend)

    return parser


def _add_population(p: argparse.ArgumentParser) -> None:
    p.add_argument("--population", metavar="PATH", default=data_path("population.csv"),
                   help="population table CSV (default: bundled)")


def _add_cutoff(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF_YEAR, metavar="YEAR",
                   help="era cutoff year, inclusive (default: %(default)s)")


def _add_depths(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depths", type=_depths_arg, default=DEFAULT_DEPTHS, metavar="D[,D...]",
                   help="rank depths to analyze (default: 10,25)")


def _add_weights(p: argparse.ArgumentParser, regime: bool) -> None:
    p.add_argument("--weights", metavar="PATH", default=data_path("weight_regimes.csv"),
                   help="weight regimes CSV (default: bundled)")
    if regime:
        p.add_argument("--regime", metavar="NAME", help="apply this interest-weighting regime")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="table",
                   help="output format (default: %(default)s)")


def _add_lists(p: argparse.ArgumentParser) -> None:
    p.add_argument("--list", action="append", metavar="PATH", dest="lists",
                   help="ranked list CSV, repeatable (default: the four bundled lists)")


def _depths_arg(text: str) -> tuple[int, ...]:
    # str.split always gives at least one part, so the tuple is never empty
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad depth list {text!r}, expected e.g. 10,25")


def _counts_arg(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for part in text.split(","):
        try:
            # unpacking fails unless the part holds exactly one colon
            left, right = part.split(":")
            pairs.append((int(left), int(right)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad count {part!r}, expected depth:count")
    return tuple(pairs)


def _pick_regime(args):
    regimes = load_weight_regimes(args.weights)
    if args.regime is None:
        return None
    if args.regime not in regimes:
        raise DataError(
            f"unknown regime {args.regime!r}, available: {', '.join(regimes)}"
        )
    return regimes[args.regime]


def _ranked_lists(args):
    if args.lists:
        return [load_ranked_list(path) for path in args.lists]
    return default_ranked_lists()


def _cmd_proportion(args) -> str:
    table = load_population_table(args.population)
    value = cumulative_proportion(table, args.cutoff, regime=_pick_regime(args))
    return format_proportion(value) + "\n"


def _cmd_tail(args) -> str:
    probability = binomial_tail(args.n, args.k, args.p)
    row = {"probability": probability, "chance": _chance(probability).display}
    simulated = {}
    if args.trials is not None:
        oracle = monte_carlo_oracle(args.n, args.p, args.trials, args.seed)
        row["monte_carlo"] = float(oracle[args.k])
        simulated = {"trials": args.trials, "seed": args.seed}
    if args.format == "json":
        return _emit({"n": args.n, "k_min": args.k, "p": args.p, **row, **simulated}, "json")
    return _emit([row], args.format)


def _cmd_analyze(args) -> str:
    table = load_population_table(args.population)
    regime = _pick_regime(args)
    lists = _ranked_lists(args)
    reports = sensitivity_matrix(lists, [regime], args.depths, args.cutoff, table)
    return _emit_reports(reports, args.format, regime=False)


def _cmd_sensitivity(args) -> str:
    table = load_population_table(args.population)
    regimes = list(load_weight_regimes(args.weights).values())
    lists = _ranked_lists(args)
    reports = sensitivity_matrix(lists, regimes, args.depths, args.cutoff, table)
    return _emit_reports(reports, args.format, regime=True)


def _cmd_bridge(args) -> str:
    table = load_population_table(args.population)
    reports = bridge_check(args.counts, args.pool_cutoff, args.cutoff, table)
    return _emit_reports(reports, args.format, regime=False)


def _cmd_dilution(args) -> str:
    table = load_population_table(args.population)
    seasons = build_league_seasons(load_league_config(args.league), table)
    rows = [
        {
            "year": season.year,
            "teams": season.teams,
            "roster_size": season.roster_size,
            "population_millions": season.eligible_population,
            "per_roster_spot_thousands": per_roster_spot(season),
        }
        for season in seasons
    ]
    return _emit(rows, args.format)


def _cmd_detrend(args) -> str:
    stats = load_season_stats(args.stats)
    if args.historic_average is not None:
        historic = args.historic_average
    else:
        historic = compute_historic_average(s.league_average for s in stats)
    rows = [
        {"season": s.season, "value": s.value, "league_average": s.league_average,
         "detrended": detrend_value(s.value, s.league_average, historic)}
        for s in stats
    ]
    total = _career_total([row["detrended"] for row in rows])
    if args.format == "json":
        return _emit({"historic_average": historic, "seasons": rows, "career_total": total},
                     "json")
    body = _emit(rows, args.format)
    if args.format == "csv":
        return body + f"career_total,,,{total:g}\n"
    return body + f"\nhistoric_average  {historic:g}\ncareer_total      {total:g}\n"


def _cell(column: str, value) -> str:
    """Display text of one value of a ``tail``, ``dilution`` or ``detrend``
    row.  The formatters are looked up as module globals at each call, so a
    wrapper installed there (as the benchmark tracer does) sees every call."""
    if column in ("probability", "monte_carlo"):
        return format_probability(value)
    if column == "per_roster_spot_thousands":
        return format_per_roster_spot(value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _emit(rows, fmt: str) -> str:
    """Render ``rows``, dicts of raw values keyed by column name, in ``fmt``.

    JSON output is ``json.dumps(rows, indent=2)`` plus a newline; the
    ``tail`` and ``detrend`` payloads, one dict each, are rendered by it
    too.  Table and CSV cells are the ``_cell`` text of each value.
    """
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    columns = list(rows[0])
    return _render(columns, [[_cell(c, row[c]) for c in columns] for row in rows], fmt)


# each report column and the ``OverrepReport`` field it shows
_REPORT_FIELDS = {
    "regime": "regime",
    "source": "source",
    "depth": "depth",
    "early_count": "early_count",
    "proportion": "proportion_used",
    "probability": "tail_probability",
    "chance": "chance.display",
}


def _emit_reports(reports, fmt: str, regime: bool) -> str:
    """Render a non-empty sequence of reports in ``fmt``, one row each,
    led by a ``regime`` column when ``regime`` is true.

    The text is what ``_emit`` gives for the rows of the fields above: JSON
    as ``json.dumps(rows, indent=2)``, table and CSV through ``_render``.
    A grid repeats few values over many rows, so each distinct value of a
    column is rendered once per call.  JSON rows follow one row template,
    cut before each field: each distinct value of a column is written once
    after its key, as the JSON encoder writes it (text escaped by
    ``encode_basestring_ascii``, an int or float as its ``repr``), and a
    row is the join of its fields.  Keying on a float is exact because
    ``_reports`` gives no share or tail that is NaN, infinite or -0.0.
    The formatters are looked up as module globals, as ``_cell`` does.
    """
    columns = list(_REPORT_FIELDS)[0 if regime else 1:]
    values = zip(*map(attrgetter(*(_REPORT_FIELDS[name] for name in columns)), reports))
    if fmt == "json":
        encoders = {"depth": int.__repr__, "early_count": int.__repr__,
                    "proportion": float.__repr__, "probability": float.__repr__}
        fields = [
            _each_once(encoders.get(name, encode_basestring_ascii), column,
                       ("  {\n" if i == 0 else ",\n") + f'    "{name}": ')
            for i, (name, column) in enumerate(zip(columns, values))
        ]
        return "[\n" + "\n  },\n".join(map("".join, zip(*fields))) + "\n  }\n]\n"
    formatters = {"depth": str, "early_count": str,
                  "proportion": format_proportion, "probability": format_probability}
    cells = [
        _each_once(formatters[name], column) if name in formatters else column
        for name, column in zip(columns, values)
    ]
    return _render(columns, list(zip(*cells)), fmt)


def _each_once(func, values, head: str = "") -> list:
    """``[head + func(v) for v in values]``, calling ``func`` once per
    distinct value."""
    memo = {value: head + func(value) for value in set(values)}
    return list(map(memo.__getitem__, values))


def _render(columns, rows, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    table = [columns, *rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join(["  ".join(map(str.ljust, row, widths)).rstrip() for row in table]) + "\n"
