"""Command-line front end: counting, table reproduction, verification, series.

`cacti count` holds no route's rules: it checks the mode table's level and
flag rules, then looks the route up in `ROUTES`, whose entry points all take
`(mode, stat, *, color, s, kind)` and answer, p = 0 included, or raise their
own refusal; `--check` recomputes through `ROUTES` too.  Exit codes are a
stable contract: 0 success, 1 cross-check mismatch, 2 usage / validation /
budget errors and failed exactness guards.  Counts are always rendered as
exact decimal strings (they outgrow 64-bit integers quickly), and JSON
output never encodes a count as a native number.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import decimal
import io
import json
import sys

from . import formulas, oracle, series, stats
from .formulas import GonalKind
from .stats import (BudgetExceeded, ColorStat, InconsistentResult, SizeStat,
                    Statistic, UsageError, ValidationError)

# The options a JSON count echoes as its query, in this order; `kind` only
# for --mode gonal.
QUERY_OPTIONS = ("mode", "m", "p", "colors", "degrees", "color", "s", "kind")

# Degree rows of the published degree-distribution table; the first row is
# incoherent (its rows disagree on the polygon count) and must be annotated,
# not silently fixed.
TABLE1_ROWS: list[tuple[int, str]] = [
    (2, "1^5 3^2; 2^7"),
    (2, "1^2 2^2 4^1; 1^2 2^4"),
    (3, "1^3 2^3; 1^3 2^3; 1^6 3^1"),
    (3, "1^2 2^1; 1^2 2^1; 1^2 2^1"),
    (3, "4^1; 1^4; 1^4"),
    (3, "2^2; 1^2 2^1; 1^4"),
    (3, "1^1 3^1; 1^2 2^1; 1^4"),
    (3, "1^2 2^2; 1^2 2^2; 1^4 2^1"),
    (3, "1^3 2^1 4^1; 1^3 2^3; 1^7 2^1"),
    (3, "1^3 2^2; 1^3 2^2; 1^3 2^2"),
    (3, "1^2 3^2; 1^4 2^2; 1^6 2^1"),
    (3, "2^4; 1^4 2^2; 1^6 2^1"),
    (3, "1^4 4^1; 1^4 2^2; 1^4 2^2"),
    (3, "1^2 2^3; 1^4 2^2; 1^4 2^2"),
    (4, "1^4 2^2; 1^4 2^2; 1^4 2^2; 1^6 2^1"),
]

TABLE2_ROWS: list[tuple[int, ...]] = [
    (7, 7), (5, 6),
    (6, 6, 7), (4, 4, 5), (5, 6, 8), (5, 5, 5), (4, 6, 7), (5, 6, 6),
    (3, 4, 4, 5), (6, 6, 6, 7),
    (1, 3, 3), (2, 2, 3), (1, 4, 4), (2, 3, 4), (3, 3, 3), (3, 3, 5),
    (1, 3, 3, 3), (2, 2, 3, 3), (2, 3, 4, 4), (4, 4, 4, 4),
]


def _exact_str(value) -> str:
    """Decimal string of a count of any size."""
    try:
        return str(value)
    except ValueError:  # past the interpreter's int-to-str digit limit
        return str(decimal.Decimal(value))


def _build_stat(args) -> Statistic:
    given = [name for name in ("p", "colors", "degrees")
             if getattr(args, name) is not None]
    if len(given) != 1:
        raise UsageError("exactly one of --p, --colors, --degrees is required")
    if args.p is not None:
        return stats.size_stat(args.m, args.p)
    if args.colors is not None:
        try:
            counts = [int(c) for c in args.colors.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --colors value {args.colors!r}") from exc
        return stats.color_stat(args.m, counts)
    rows = args.degrees.count(";") + 1  # as parse_degree_spec splits them
    if rows != args.m:
        raise UsageError(f"--degrees has {rows} rows but --m is {args.m}")
    return stats.parse_degree_spec(args.degrees)


# How a level-bound mode names the level it works at.
_LEVELS = {SizeStat: "works at size level (--p)", ColorStat: "needs --colors"}


ROUTES = {  # --path or --check: the route's `(mode, stat, *, color, s, kind)`
    "formula": lambda mode, stat, **options: formulas.MODES[mode].formula(stat, **options),
    "series": series.count,
    "oracle": oracle.count,
}


def cmd_count(args) -> int:
    stat = _build_stat(args)
    level = formulas.MODES[args.mode].level  # the mode table's rules, before any route
    if level is not None and not isinstance(stat, level):
        raise UsageError(f"--mode {args.mode} {_LEVELS[level]}")
    if args.mode.startswith("aut-") and args.s is None:
        raise UsageError(f"--mode {args.mode} requires --s")
    options = {"color": args.color, "s": args.s, "kind": GonalKind(args.kind)}
    count = ROUTES[args.path](args.mode, stat, **options)
    if args.check and args.path != args.check:
        other = ROUTES[args.check](args.mode, stat, **options)
        if other != count:
            print(f"MISMATCH: {args.path} gives {count}, {args.check} gives {other}",
                  file=sys.stderr)
            return 1
    if args.format == "json":
        query = {name: getattr(args, name) for name in QUERY_OPTIONS
                 if getattr(args, name) is not None
                 and (name != "kind" or args.mode == "gonal")}
        print(json.dumps({"query": query, "count": _exact_str(count),
                          "path": args.path}))
    else:
        print(_exact_str(count))
    return 0


def _table1(args) -> list[list]:
    rows = []
    for m, spec in TABLE1_ROWS:
        try:
            matrix = stats.parse_degree_spec(spec)
        except ValidationError as exc:
            rows.append([m, spec, f"COHERENCE-FAIL ({type(exc).__name__}: {exc})",
                         "", "", ""])
            continue
        counts = formulas.centred_counts(matrix)
        rows.append([m, spec, " ".join(str(counts["pointed", c])
                                       for c in range(1, m + 1)),
                     *(counts[mode, None]
                       for mode in ("rooted", "unlabelled", "asymmetric"))])
    return rows


def _table2(args) -> list[list]:
    return [[",".join(map(str, counts)), formulas.count_rooted(c),
             *formulas.count_classes(c)]
            for counts in TABLE2_ROWS
            for c in [stats.color_stat(len(counts), counts)]]


def _table3(args) -> list[list]:
    try:
        m_lo, m_hi = map(int, args.m_range.split(".."))
    except ValueError as exc:
        raise UsageError(f"bad --m-range {args.m_range!r}, expected like 2..7") from exc
    if m_lo > m_hi or args.p_max < 0:
        raise UsageError(f"empty table: --m-range {args.m_range} --p-max {args.p_max}")
    return [[m, p, stat.n, unlabelled, asymmetric,
             formulas.gonal_orbits(stat, unlabelled)]
            for m in range(m_lo, m_hi + 1) for p in range(args.p_max + 1)
            for stat in [stats.size_stat(m, p)]
            for unlabelled, asymmetric in [formulas.count_classes(stat)]]


TABLES = {  # which: (header, the rows of cells for the parsed options)
    1: (["m", "degrees", "pointed", "rooted", "unlabelled", "asymmetric"], _table1),
    2: (["colors", "rooted", "unlabelled", "asymmetric"], _table2),
    3: (["m", "p", "n", "unlabelled", "asymmetric", "gonal"], _table3),
}


def cmd_table(args) -> int:
    header, rows = TABLES[args.which]
    table = [[_exact_str(c) for c in row] for row in rows(args)]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(table)
        sys.stdout.write(buf.getvalue())
        return 0
    widths = [max(len(h), *(len(row[i]) for row in table))
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def cmd_verify(args) -> int:
    report = oracle.verify(args.m, args.p_max)
    if args.format == "json":
        print(json.dumps({
            "m": report.m, "p_max": report.p_max, "passed": report.passed,
            "results": [dataclasses.asdict(r) for r in report.results]}))
    else:
        for r in report.results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"{mark} m={report.m} p={r.p} {r.name} ({r.comparisons} comparisons)"
            if r.detail:
                line += f" -- {r.detail}"
            print(line)
        print("all checks passed" if report.passed
              else f"FAILED: {report.first_failure.name}")
    return 0 if report.passed else 1


def cmd_series(args) -> int:
    one_sort = args.one_sort
    if args.color is not None and (args.target != "planted" or one_sort):
        named = f"--target {args.target}" + (" --one-sort" if one_sort else "")
        raise UsageError(f"{named} takes no --color")
    bound = series.SERIES_ONE_SORT_BOUND if one_sort else series.SERIES_MULTI_BOUND
    if args.order < 1 or args.order > bound:
        raise BudgetExceeded(
            f"--order must be within 1..{bound} for this target")
    if args.color is not None and not 1 <= args.color <= args.m:
        raise formulas.ColorOutOfRange(f"color {args.color} not in 1..{args.m}")
    if not one_sort and args.m > series.SERIES_MULTI_BOUND + 1:
        # m - 1 exceeds every accepted order: each H_i is 0, each A_i is x_i
        raise BudgetExceeded(
            f"--m must be at most {series.SERIES_MULTI_BOUND + 1} without --one-sort")
    family = (series.solve_one_sort(args.m, args.order) if one_sort
              else series.solve_planted(args.m, args.order))
    if args.target == "planted":
        out = family[1] if one_sort else series.series_planted(family, args.color or 1)
    else:  # the mode's `Centres`, which depend on m alone for these targets
        form = formulas.MODES[args.target].centres(stats.size_stat(args.m, 1))
        out = series.centred(family, [form])[0]
        if not one_sort:
            out = {family.unpack(e): c for e, c in out.items() if c}
    if one_sort:  # a list by degree is in the printed order already
        items = [((n,), c) for n, c in enumerate(out) if c]
    else:
        items = sorted(out.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    if args.format == "json":
        print(json.dumps({
            "m": args.m, "order": args.order, "target": args.target,
            "one_sort": one_sort,
            "coefficients": [{"exponents": list(e), "coefficient": str(c)}
                             for e, c in items]}))
        return 0
    for e, c in items:
        print(f"{_monomial(e, one_sort)} {c}")
    return 0


def _monomial(exponents: tuple[int, ...], one_sort: bool) -> str:
    if not any(exponents):
        return "1"
    bits = []
    for i, e in enumerate(exponents):
        if e:
            name = "x" if one_sort else f"x{i + 1}"
            bits.append(name if e == 1 else f"{name}^{e}")
    return "*".join(bits)


def _count_options(count: argparse.ArgumentParser) -> None:
    count.add_argument("--m", type=int, required=True, help="gon size (>= 2)")
    count.add_argument("--p", type=int, help="polygon count (size level)")
    count.add_argument("--colors", help="comma-separated color counts, e.g. 4,4,5")
    count.add_argument("--degrees", help='degree rows, e.g. "1^2 2^2 4^1; 1^2 2^4"')
    count.add_argument("--mode", choices=formulas.MODES, required=True)
    count.add_argument("--color", type=int, help="pointed color (1-based)")
    count.add_argument("--s", type=int, help="automorphism order for aut-* modes")
    count.add_argument("--kind", choices=[k.value for k in GonalKind],
                       default="unlabelled", help="gonal count kind")
    count.add_argument("--path", choices=["formula", "series", "oracle"],
                       default="formula", help="computation path")
    count.add_argument("--check", choices=["oracle"],
                       help="recompute via the oracle and fail on mismatch")
    count.add_argument("--format", choices=["text", "json"], default="text")
    count.set_defaults(func=cmd_count)


def _table_options(table: argparse.ArgumentParser) -> None:
    table.add_argument("which", type=int, choices=[1, 2, 3])
    table.add_argument("--m-range", default="2..7", help="table 3 range, e.g. 2..7")
    table.add_argument("--p-max", type=int, default=12, help="table 3 max p")
    table.add_argument("--format", choices=["text", "csv"], default="text")
    table.set_defaults(func=cmd_table)


def _verify_options(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("--m", type=int, required=True)
    verify.add_argument("--p-max", type=int, required=True)
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.set_defaults(func=cmd_verify)


def _series_options(ser: argparse.ArgumentParser) -> None:
    ser.add_argument("--m", type=int, required=True)
    ser.add_argument("--order", type=int, required=True)
    ser.add_argument("--target", choices=["planted", "rooted", "unlabelled"],
                     required=True)
    ser.add_argument("--one-sort", action="store_true",
                     help="single-variable series graded by vertex count")
    ser.add_argument("--color", type=int, help="which planted series (default 1)")
    ser.add_argument("--format", choices=["text", "json"], default="text")
    ser.set_defaults(func=cmd_series)


SUBCOMMANDS = {  # name: (help line, function adding its options)
    "count": ("count cacti for one statistic", _count_options),
    "table": ("reproduce a published table", _table_options),
    "verify": ("cross-check formulas against the oracle", _verify_options),
    "series": ("print truncated series coefficients", _series_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The grammar of `cacti`, or of `cacti <command>` alone.

    Given a subcommand name, the parser holds only that subcommand's options
    and reads the arguments after the name, as the full grammar's subparser
    of the same prog does.  Without one, it holds every subcommand; `main`
    builds it only to print the help or an error, since building options
    that the parse never reads dominates the cost of a small count.
    """
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"cacti {command}")
        SUBCOMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="cacti",
        description="Exact counts of cyclically colored polygonal plane cacti.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_options) in SUBCOMMANDS.items():
        add_options(sub.add_parser(name, help=text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args, rest = (build_parser(argv[0]).parse_known_args(argv[1:])
                  if argv and argv[0] in SUBCOMMANDS else (None, True))
    if rest:  # no subcommand, or arguments it left: the full grammar's help or error
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, UsageError, BudgetExceeded, InconsistentResult) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
