"""Command line interface.

Subcommands mirror the library: ``proportion``, ``tail``, ``analyze``,
``sensitivity``, ``bridge``, ``dilution``, ``detrend``.  All output is
deterministic byte-for-byte for a given invocation: fixed column orders,
fixed float rendering, no timestamps, no hash-order iteration.

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
from json.encoder import encode_basestring_ascii

from .analysis import _REPORTS_LIMIT, _bridge_grid, _chance, _grid, _reports, monte_carlo_oracle
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
    return _emit_reports(_grid(lists, [regime], args.depths, args.cutoff, table),
                         args.format, regime=False)


def _cmd_sensitivity(args) -> str:
    table = load_population_table(args.population)
    regimes = list(load_weight_regimes(args.weights).values())
    lists = _ranked_lists(args)
    return _emit_reports(_grid(lists, regimes, args.depths, args.cutoff, table),
                         args.format, regime=True)


def _cmd_bridge(args) -> str:
    table = load_population_table(args.population)
    keys = _bridge_grid(args.counts, args.pool_cutoff, args.cutoff, table)
    return _emit_reports(keys, args.format, regime=False)


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


_REPORT_COLUMNS = (
    "regime", "source", "depth", "early_count", "proportion", "probability", "chance",
)


def _emit_reports(keys, fmt: str, regime: bool) -> str:
    """Render the reports of a non-empty sequence of ``_reports`` keys in
    ``fmt``, one row each, led by a ``regime`` column when ``regime`` is
    true.  The text is what ``_emit`` gives for the rows of the reports'
    fields: JSON as ``json.dumps(rows, indent=2)``, table and CSV through
    ``_render``.  Each step's rows come from ``_step_text``: JSON is the
    steps joined as rows are, CSV the header and then the steps, and a
    table pads every cell once, to widths that span all the steps.
    """
    steps = [_step_text(key, fmt, regime) for key in keys]
    if fmt == "json":
        return "[\n" + "\n  },\n".join(steps) + "\n  }\n]\n"
    columns = _REPORT_COLUMNS[0 if regime else 1:]
    if fmt == "csv":
        return ",".join(columns) + "\n" + "".join(steps)
    widths = list(map(max, map(len, columns), *(step_widths for _, step_widths in steps)))
    return _table([columns, *(row for rows, _ in steps for row in rows)], widths)


@functools.lru_cache(maxsize=_REPORTS_LIMIT)
def _step_text(key: tuple, fmt: str, regime: bool):
    """The rows of one report step, ``_reports(*key)``, rendered in
    ``fmt`` for ``_emit_reports``: in JSON the rows' text joined by
    ``"\\n  },\\n"``, each row from its ``"  {\\n"`` to its last value; in CSV
    the rows' lines; for a table the rows' cells and each column's widest
    cell, as tuples.

    The text is kept per process, as many entries as ``_reports`` keeps:
    a key determines every field of its reports (see ``_reports``), so
    the text is a function of the key, the format and ``regime``.  Within
    a step the depth, the share and the regime name are one value each,
    and each distinct tail is formatted once.  JSON writes each value as
    the JSON encoder does (text escaped by ``encode_basestring_ascii``, an
    int or float as its ``repr``).  Rendering raises no error on the
    reports of a checked key, and ``lru_cache`` keeps only returned
    values, so no error is ever kept.  The formatters are looked up as
    module globals, as ``_cell`` does.
    """
    _, depth, _, proportion, name = key
    reports = _reports(*key)
    if fmt == "json":
        lead = "  {\n" + (f'    "regime": {encode_basestring_ascii(name)},\n' if regime else "")
        middle = f',\n    "depth": {depth!r},\n    "early_count": '
        share = f',\n    "proportion": {proportion!r},\n    "probability": '
        return "\n  },\n".join(
            f'{lead}    "source": {encode_basestring_ascii(r.source)}{middle}{r.early_count!r}'
            f'{share}{r.tail_probability!r},\n    "chance": '
            f"{encode_basestring_ascii(r.chance.display)}"
            for r in reports
        )
    tails = {tail: format_probability(tail) for tail in {r.tail_probability for r in reports}}
    lead = (name,) if regime else ()
    depth, share = str(depth), format_proportion(proportion)
    rows = tuple(
        (*lead, r.source, depth, str(r.early_count), share, tails[r.tail_probability],
         r.chance.display)
        for r in reports
    )
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    return rows, tuple(max(map(len, column)) for column in zip(*rows))


def _render(columns, rows, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    table = [columns, *rows]
    return _table(table, [max(map(len, column)) for column in zip(*table)])


def _table(rows, widths) -> str:
    """Rows of cells as lines of columns padded to ``widths``, two spaces
    apart, with no trailing blanks."""
    return "\n".join(["  ".join(map(str.ljust, row, widths)).rstrip() for row in rows]) + "\n"
