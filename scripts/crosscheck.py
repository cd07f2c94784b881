#!/usr/bin/env python3
"""Run the full formula / series / oracle cross-validation sweep.

Exhaustively generates small cacti and compares every count against the
closed forms, then checks the truncated rooted, unlabelled and pointed (one
per colour) series coefficients against the closed forms of the mode table
up to a total degree, and the one-sort rooted and unlabelled series for
m = 2..7 to the CLI's order bound against the size-level closed forms.
Exits nonzero on the first mismatch.  The exhaustive sweep covers the
oracle's whole generation budget unless --budgets narrows it.

Usage: python scripts/crosscheck.py [--degree 10] [--budgets "2:6,3:4,4:3"]
"""

import argparse
import sys
import time

from cacti import formulas, oracle, series, stats
from cacti.cli import SERIES_ONE_SORT_BOUND
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


def one_sort_sweep(order: int) -> str | None:
    """The first coefficient of the one-sort rooted or unlabelled series,
    m = 2..7, that differs from the size-level closed form, or None.  The
    coefficient of x^n counts the cacti with n = (m-1)p + 1 vertices."""
    for m in range(2, 8):
        rooted = series.solve_one_sort(m, order) - series.variable(1, order, 0)
        unlabelled = series.series_unlabelled(m, order, one_sort=True)
        for name, out, formula in (("rooted", rooted, formulas.count_rooted),
                                   ("unlabelled", unlabelled,
                                    formulas.count_unlabelled)):
            expected = {((m - 1) * p + 1,): formula(stats.size_stat(m, p))
                        for p in range((order - 1) // (m - 1) + 1)}
            for n in sorted(set(expected) | set(out.coeffs)):
                if out[n] != expected.get(n, 0):
                    return (f"one-sort {name} m={m} at x^{n[0]}: series "
                            f"{out[n]}, formula {expected.get(n, 0)}")
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=10,
                        help="series agreement bound (total degree)")
    parser.add_argument("--budgets", type=parse_budgets, default=",".join(
                            f"{m}:{p}" for m, p in oracle.GEN_BUDGET.items()),
                        help="m:p_max pairs for the exhaustive sweep")
    args = parser.parse_args()
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

    for m in (2, 3):
        fam = series.solve_planted(m, args.degree)
        sweeps = [("rooted", {}, series.series_rooted(fam)),
                  ("unlabelled", {}, series.series_unlabelled(m, args.degree))]
        sweeps += [("pointed", {"color": c}, series.series_pointed_unlabelled(fam, c))
                   for c in range(1, m + 1)]
        checked = 0
        for mode, options, out in sweeps:
            formula = formulas.MODES[mode].formula
            for counts, coeff in sorted(out.coeffs.items()):
                if sum(counts) == 1:  # the single vertex keeps its own conventions
                    continue
                if coeff != formula(stats.color_stat(m, counts), **options):
                    print(f"series mismatch in {mode} {options} at {counts}")
                    return 1
                checked += 1
        print(f"series m={m} degree<={args.degree}: {checked} coefficients ok")

    failure = one_sort_sweep(SERIES_ONE_SORT_BOUND)
    if failure:
        print(f"series mismatch in {failure}")
        return 1
    print(f"one-sort series m=2..7 order<={SERIES_ONE_SORT_BOUND}: ok")

    print(f"all cross-checks passed in {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
