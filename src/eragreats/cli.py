"""Command line interface.

Subcommands mirror the library: ``proportion``, ``tail``, ``analyze``,
``sensitivity``, ``bridge``, ``dilution``, ``detrend``.  All output is
deterministic byte-for-byte for a given invocation: fixed column orders,
fixed float rendering, no timestamps, no hash-order iteration.  The
output text of each report command (``analyze``, ``sensitivity``,
``bridge``) is kept per process, keyed on its arguments and parsed inputs
(``_report_text``), so a repeated command over the same file bytes is one
lookup; the library calls behind it keep nothing.

Exit codes: 0 success, 2 usage errors (argparse), 3 invalid input data
or a stdout that cannot be written, 4 domain errors in a computation.  A
stdout whose reader has gone (a closed pipe) ends with exit 3 and no
message, since the reader left on purpose; a closed stdout (fd 1 not open
at start) ends with exit 3 and one "cannot write output" line.  A stderr
that cannot be written loses its one-line message but not the exit code.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import os
import sys

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
from .population import _keep, cumulative_proportion, load_population_table, load_weight_regimes
from .rankings import load_ranked_list
from .tailprob import binomial_tail

FORMATS = ("table", "csv", "json")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except DataError as exc:
        _complain(str(exc))
        return 3
    except DomainError as exc:
        _complain(str(exc))
        return 4
    try:
        if sys.stdout is None:
            # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        _silence(sys.stdout)
        if not isinstance(exc, BrokenPipeError):
            _complain(f"cannot write output: {exc.strerror}")
        return 3
    return 0


def _complain(message: str) -> None:
    """Print one ``eragreats:`` line to stderr; a stderr that cannot be
    written loses the line and nothing else."""
    try:
        if sys.stderr is not None:
            print(f"eragreats: {message}", file=sys.stderr, flush=True)
    except OSError:
        _silence(sys.stderr)


def _silence(stream) -> None:
    """Point a standard stream's fd at devnull, so the interpreter's exit
    flush of what is still buffered there stays silent."""
    if stream is not None:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


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
    return _report_text(args, (table, regime, *lists), False, lambda: sensitivity_matrix(
        lists, [regime], args.depths, args.cutoff, table))


def _cmd_sensitivity(args) -> str:
    table = load_population_table(args.population)
    regimes = list(load_weight_regimes(args.weights).values())
    lists = _ranked_lists(args)
    return _report_text(args, (table, *regimes, *lists), True, lambda: sensitivity_matrix(
        lists, regimes, args.depths, args.cutoff, table))


def _cmd_bridge(args) -> str:
    table = load_population_table(args.population)
    return _report_text(args, (table,), False, lambda: bridge_check(
        args.counts, args.pool_cutoff, args.cutoff, table))


# report command texts: (every parsed argument, the id of each parsed
# input) -> (text, inputs), the oldest entry first
_texts: dict = {}


def _report_text(args, inputs: tuple, regime: bool, reports) -> str:
    """The ``args.format`` text of the reports ``reports()`` returns, one
    row each, led by a ``regime`` column when ``regime`` is true; kept per
    process.

    The key is every parsed argument (a list of paths as a tuple) and the
    identity of each parsed input: the table, the regimes and the lists.
    The parse cache hands back the same objects for the same file bytes,
    and they are immutable, so the text is a function of the key; a file
    read again with new bytes gives new objects and misses.  An entry
    holds its inputs, so no id is reused while it is kept.  Up to
    ``_PARSED_LIMIT`` texts are kept, the oldest going first, and an
    error is never kept: every input is loaded, and so checked, before
    the lookup, and a miss raises before anything is stored.
    """
    key = (*[(name, tuple(value) if isinstance(value, list) else value)
             for name, value in vars(args).items()], *map(id, inputs))
    kept = _texts.get(key)
    if kept is not None:
        return kept[0]
    text = _emit(_report_rows(reports(), regime), args.format)
    _keep(_texts, key, (text, inputs))
    return text


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
    """Display text of one value of a row.  The formatters are looked up
    as module globals at each call, so a wrapper installed there (as the
    benchmark tracer does) sees every call."""
    if column in ("probability", "monte_carlo"):
        return format_probability(value)
    if column == "proportion":
        return format_proportion(value)
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


def _report_rows(reports, regime: bool) -> list[dict]:
    """One row per report, led by a ``regime`` column when ``regime`` is true."""
    return [
        {**({"regime": r.regime} if regime else {}), "source": r.source, "depth": r.depth,
         "early_count": r.early_count, "proportion": r.proportion_used,
         "probability": r.tail_probability, "chance": r.chance.display}
        for r in reports
    ]


def _render(columns, rows, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    # columns padded to their widest cell, two spaces apart, no trailing blanks
    table = [columns, *rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join(["  ".join(map(str.ljust, row, widths)).rstrip() for row in table]) + "\n"
