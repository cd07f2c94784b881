#!/usr/bin/env python3
"""Run the full formula / series / oracle cross-validation sweep.

Exhaustively generates small cacti and compares every count against the
closed forms.  Over the same sizes it checks every entry of
`formulas.centred_counts`, which `verify` reads, against the per-mode
closed form of `formulas.MODES`.  Then it checks every count that the
series route answers (rooted, labelled, pointed, unlabelled, asymmetric and
every automorphism stratum) against the closed forms of the mode table:
each realizable colour vector for m = 2, 3 up to a total degree, read off
the centre series and the rooted series, with every entry of its
`formulas.centred_counts`, and each polygon count for
m = 2..7 read off the one-sort series to the CLI's order bound.  Exits
1 on the first mismatch, or on a count that does not come out whole.  The
exhaustive sweep covers the oracle's whole generation budget unless
--budgets narrows it.

Usage: python scripts/crosscheck.py [--degree 16] [--budgets "2:6,3:4,4:3"]
"""

import argparse
import sys
import time

from cacti import formulas, oracle, series, stats
from cacti.cli import SERIES_MULTI_BOUND, SERIES_ONE_SORT_BOUND
from cacti.formulas import GonalKind


def parse_budgets(text: str) -> dict[int, int]:
    """The m:p_max pairs of --budgets, each within the generation budget."""
    out = {}
    for pair in text.split(","):
        try:
            m, p = map(int, pair.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad m:p pair {pair!r}") from None
        if m < 2 or p < 1:
            raise argparse.ArgumentTypeError(f"need m >= 2 and p >= 1 in {pair!r}")
        cap = oracle.GEN_BUDGET.get(m, 1)
        if p > cap:
            raise argparse.ArgumentTypeError(
                f"{pair!r} is past the generation budget p <= {cap} for m = {m}")
        out[m] = p
    return out


def parse_degree(text: str) -> int:
    """The total degree of --degree, at least 1."""
    try:
        degree = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree {text!r}") from None
    if degree < 1:
        raise argparse.ArgumentTypeError(f"need a degree >= 1, got {degree}")
    return degree


def _queries(stat):
    """Every (mode, options) that the series route answers for `stat`."""
    for mode, entry in formulas.MODES.items():
        if entry.centres is None:
            continue
        if mode.startswith("aut-"):
            yield from ((mode, {"s": s}) for s in range(2, stat.p + 1))
        elif mode == "pointed" and not isinstance(stat, stats.SizeStat):
            yield from ((mode, {"color": c}) for c in range(1, stat.m + 1))
        else:
            yield mode, {}


def _sweep(statistics, read) -> tuple[str | None, int]:
    """The first count of `statistics` where `read(stat, form)`, the series
    count of the mode's `formulas.Centres`, differs from the closed form,
    or None, and the number of counts compared."""
    checked = 0
    for stat in statistics:
        for mode, options in _queries(stat):
            value = read(stat, formulas.MODES[mode].centres(stat, **options))
            expected = formulas.MODES[mode].formula(stat, **options)
            if value != expected:
                where = (f"x^{stat.n}" if isinstance(stat, stats.SizeStat)
                         else stat.counts)
                flags = "".join(f" {k}={v}" for k, v in options.items())
                return (f"{mode}{flags} m={stat.m} at {where}: series {value}, "
                        f"formula {expected}"), checked
            checked += 1
    return None, checked


def centred_sweep(m: int, p_max: int) -> tuple[str | None, int]:
    """The first entry of `formulas.centred_counts` that differs from its
    mode's closed form, or that is missing or extra, over every statistic
    that `verify(m, p_max)` compares, or None, and the number of entries
    compared."""
    checked = 0
    for p in range(1, p_max + 1):
        for stat in [stats.size_stat(m, p), *oracle._all_color_vectors(m, p),
                     *oracle._all_degree_matrices(m, p)]:
            size = isinstance(stat, stats.SizeStat)
            where = f"p={p}" if size else getattr(stat, "counts", None) or stat.rows
            counts = formulas.centred_counts(stat)
            colors = [None] if size else range(1, m + 1)
            keys = ([(mode, None) for mode in ("rooted", "unlabelled", "asymmetric")]
                    + [(mode, s) for s in range(2, p + 1) if p % s == 0
                       for mode in ("aut-exact", "aut-atleast")]
                    + [("pointed", c) for c in colors])
            if set(counts) != set(keys):
                return (f"centred counts m={m} at {where}: keys "
                        f"{sorted(counts, key=str)}, expected {sorted(keys, key=str)}"
                        ), checked
            for mode, option in keys:
                expected = formulas.MODES[mode].formula(
                    stat, **{"color" if mode == "pointed" else "s": option})
                if counts[mode, option] != expected:
                    return (f"centred {mode} {option} m={m} at {where}: "
                            f"{counts[mode, option]}, formula {expected}"), checked
                checked += 1
    return None, checked


def centre_sweep(family: series.PlantedFamily, statistics) -> tuple[str | None, int]:
    """`_sweep` of colour statistics on the coefficients of the family's
    centre and rooted series, one centre series per colour, weight and
    stretch, then every entry of each statistic's `formulas.centred_counts`
    against the series count of its mode's `Centres`."""
    rooted, centres = series.series_rooted(family), {}

    def read(stat, form):
        value = form.rooted * rooted.get(stat.counts, 0)
        for color in form.colors:
            key = (color, form.weight, form.s)
            if key not in centres:
                centres[key] = series.series_centre(family, *key)
            value += centres[key].get(stat.counts, 0)
        return value

    failure, checked = _sweep(statistics, read)
    if failure:
        return failure, checked
    for stat in statistics:
        for (mode, option), value in formulas.centred_counts(stat).items():
            expected = read(stat, formulas.MODES[mode].centres(stat, color=option,
                                                               s=option))
            if value != expected:
                return (f"centred {mode} {option} m={stat.m} at {stat.counts}: "
                        f"{value}, series {expected}"), checked
            checked += 1
    return None, checked


def one_sort_sweep(order: int) -> str | None:
    """The first size-level count, m = 2..7, whose one-sort series
    coefficient differs from the closed form, or None.  The coefficient of
    x^n counts the cacti with n = (m-1)p + 1 vertices: rooted is A - x, and
    every colour shares one list centre per weight and stretch.  The
    unlabelled series that `cacti series --one-sort` prints has no other
    term."""
    for m in range(2, 8):
        a, hat = series.solve_one_sort(m, order)
        centres = {}

        def read(stat, form):
            key = (form.weight, form.s)
            if form.colors and key not in centres:
                centres[key] = series.one_sort_centre(m, hat, *key)
            centre = centres[key][stat.n] if form.colors else 0
            return form.rooted * a[stat.n] + len(form.colors) * centre

        sizes = [stats.size_stat(m, p) for p in range((order - 1) // (m - 1) + 1)]
        failure, _ = _sweep(sizes[1:], read)
        if failure:
            return f"one-sort {failure}"
        printed = series.one_sort_series(m, order, "unlabelled")
        if printed != {(s.n,): formulas.count_unlabelled(s) for s in sizes}:
            return f"one-sort unlabelled series m={m}: not the closed forms"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=parse_degree, default=SERIES_MULTI_BOUND,
                        help="series agreement bound (total degree)")
    parser.add_argument("--budgets", type=parse_budgets, default=",".join(
                            f"{m}:{p}" for m, p in oracle.GEN_BUDGET.items()),
                        help="m:p_max pairs for the exhaustive sweep")
    args = parser.parse_args()
    try:
        return cross_check(args)
    except stats.InconsistentResult as exc:  # a division that did not cancel
        print(f"  first failure: {type(exc).__name__}: {exc}")
        return 1


def cross_check(args) -> int:
    """Every sweep in turn: 0 if all pass, else 1 at the first mismatch."""
    start = time.perf_counter()

    for m, p_max in sorted(args.budgets.items()):
        verify_start = time.perf_counter()
        report = oracle.verify(m, p_max)
        seconds = time.perf_counter() - verify_start
        status = "ok" if report.passed else "FAILED"
        comparisons = sum(r.comparisons for r in report.results)
        print(f"verify m={m} p<={p_max}: {comparisons} comparisons {status} "
              f"in {seconds:.2f}s")
        if not report.passed:
            failure = report.first_failure
            print(f"  first failure: {failure.name} p={failure.p}: {failure.detail}")
            return 1
        for p in range(1, p_max + 1):
            gonal = oracle.enumerate_gonal(m, p)
            expected = formulas.count_gonal(m, p, GonalKind.UNLABELLED)
            if gonal != expected:
                print(f"gonal mismatch m={m} p={p}: {gonal} vs {expected}")
                return 1
        print(f"gonal m={m} p<={p_max}: ok")
        failure, checked = centred_sweep(m, p_max)
        if failure:
            print(f"mismatch in {failure}")
            return 1
        print(f"centred counts m={m} p<={p_max}: {checked} entries ok")

    for m in (2, 3):
        vectors = [c for p in range(1, (args.degree - 1) // (m - 1) + 1)
                   for c in oracle._all_color_vectors(m, p)]
        failure, checked = centre_sweep(series.solve_planted(m, args.degree), vectors)
        if failure:
            print(f"series mismatch in {failure}")
            return 1
        print(f"series m={m} degree<={args.degree}: {checked} counts ok")

    failure = one_sort_sweep(SERIES_ONE_SORT_BOUND)
    if failure:
        print(f"series mismatch in {failure}")
        return 1
    print(f"one-sort series m=2..7 order<={SERIES_ONE_SORT_BOUND}: ok")

    print(f"all cross-checks passed in {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
