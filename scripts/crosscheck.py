#!/usr/bin/env python3
"""Run the full formula / series / oracle cross-validation sweep.

Exhaustively generates small cacti and compares every count against the
closed forms.  Over the same sizes it checks every entry of
`formulas.centred_counts`, which `verify` reads, against the per-mode
closed form of `formulas.MODES`.  Then it checks every count that the
series route answers (rooted, labelled, pointed, unlabelled, asymmetric and
every automorphism stratum) against the closed forms of the mode table:
each realizable colour vector for m = 2..5 up to a total degree, with
every entry of its `formulas.centred_counts`, and each polygon count for
m = 2..7 to the CLI's one-sort order bound, each read off its form's series
from one `series.centred` call per family.  Exits
1 on the first mismatch, or on a count that does not come out whole.  The
exhaustive sweep runs each m = 2..7 to the oracle's reach, the largest p
whose rooted cacti fit its generation budget, unless --budgets names other
m:p_max pairs, each within the reach of its m.

Usage: python scripts/crosscheck.py [--degree 16] [--budgets "2:6,3:4,4:3"]
"""

import argparse
import sys
import time

from cacti import formulas, oracle, series, stats
from cacti.formulas import GonalKind
from cacti.series import SERIES_MULTI_BOUND, SERIES_ONE_SORT_BOUND


def parse_budgets(text: str) -> dict[int, int]:
    """The m:p_max pairs of --budgets, each within the oracle's reach."""
    out = {}
    for pair in text.split(","):
        try:
            m, p = map(int, pair.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad m:p pair {pair!r}") from None
        if m < 2 or p < 1:
            raise argparse.ArgumentTypeError(f"need m >= 2 and p >= 1 in {pair!r}")
        cap = oracle.reach(m)
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


def _queries(statistics):
    """(stat, mode, options, form) for every count that the series route
    answers for each of `statistics`, form being the mode's `Centres`."""
    for stat in statistics:
        for mode, entry in formulas.MODES.items():
            if entry.centres is None:
                continue
            if mode.startswith("aut-"):
                choices = [{"s": s} for s in range(2, stat.p + 1)]
            elif mode == "pointed" and not isinstance(stat, stats.SizeStat):
                choices = [{"color": c} for c in range(1, stat.m + 1)]
            else:
                choices = [{}]
            for options in choices:
                yield stat, mode, options, entry.centres(stat, **options)


def _read(family, forms) -> dict:
    """Each distinct form of `forms` with its series, from one call of the
    series reader: a packed family's maps, or the one-sort lists."""
    forms = list(dict.fromkeys(forms))
    return dict(zip(forms, series.centred(family, forms)))


def _sweep(queries, value) -> tuple[str | None, int]:
    """The first of `queries` where `value(stat, form)`, the series count,
    differs from the mode's closed form, or None, and the number of counts
    compared."""
    for checked, (stat, mode, options, form) in enumerate(queries):
        got = value(stat, form)
        expected = formulas.MODES[mode].formula(stat, **options)
        if got != expected:
            where = (f"x^{stat.n}" if isinstance(stat, stats.SizeStat)
                     else stat.counts)
            flags = "".join(f" {k}={v}" for k, v in options.items())
            return (f"{mode}{flags} m={stat.m} at {where}: series {got}, "
                    f"formula {expected}"), checked
    return None, len(queries)


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
    """`_sweep` of colour statistics on the family's series of each form,
    then every entry of each statistic's `formulas.centred_counts` against
    the series count of its mode's `Centres`, all forms read at once."""
    queries = list(_queries(statistics))
    entries = [(stat, mode, option, count,
                formulas.MODES[mode].centres(stat, color=option, s=option))
               for stat in statistics
               for (mode, option), count in formulas.centred_counts(stat).items()]
    found = _read(family, [q[-1] for q in queries] + [e[-1] for e in entries])

    def value(stat, form):
        return found[form].get(family.pack(stat.counts), 0)

    failure, checked = _sweep(queries, value)
    if failure:
        return failure, checked
    for stat, mode, option, count, form in entries:
        if count != value(stat, form):
            return (f"centred {mode} {option} m={stat.m} at {stat.counts}: "
                    f"{count}, series {value(stat, form)}"), checked
        checked += 1
    return None, checked


def one_sort_sweep(order: int) -> str | None:
    """The first size-level count, m = 2..7, whose one-sort series
    coefficient differs from the closed form, or None.  The coefficient of
    x^n counts the cacti with n = (m-1)p + 1 vertices.  The unlabelled
    series that `cacti series --one-sort` prints is the same form's, and
    has no other term."""
    for m in range(2, 8):
        sizes = [stats.size_stat(m, p) for p in range((order - 1) // (m - 1) + 1)]
        queries = list(_queries(sizes[1:]))
        printed = formulas.MODES["unlabelled"].centres(sizes[0])
        found = _read(series.solve_one_sort(m, order),
                      [q[-1] for q in queries] + [printed])
        failure, _ = _sweep(queries, lambda stat, form: found[form][stat.n])
        if failure:
            return f"one-sort {failure}"
        if ({(n,): c for n, c in enumerate(found[printed]) if c}
                != {(s.n,): formulas.count_unlabelled(s) for s in sizes}):
            return f"one-sort unlabelled series m={m}: not the closed forms"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=parse_degree, default=SERIES_MULTI_BOUND,
                        help="series agreement bound (total degree)")
    parser.add_argument("--budgets", type=parse_budgets, default=",".join(
                            f"{m}:{oracle.reach(m)}" for m in range(2, 8)),
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

    for m in range(2, 6):
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
