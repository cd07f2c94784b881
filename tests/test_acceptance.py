"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integer equality); the wall-clock limits are part
of the contract and asserted.  Expected values are frozen from the published
tables; the three library paths (closed forms, truncated series, exhaustive
generation) are compared against them and against each other.
"""

import csv
import io
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

import series_reference as ref
from inversion_reference import chottin_extract
from maps_oracle import count_rooted_bipartite_maps
from stats_reference import shift

from cacti import cli, formulas as F, oracle, series, stats
from cacti.arith import divisors, euler_phi
from cacti.formulas import AutMode, GonalKind

# --- frozen table data -----------------------------------------------------

# per m: p -> (unlabelled, asymmetric, gonal); published ranges only
TABLE3 = {
    2: {0: (1, 1, 1), 1: (1, 1, 1), 2: (2, 0, 1), 3: (3, 1, 2), 4: (6, 2, 3),
        5: (10, 8, 6), 6: (28, 18, 14), 7: (63, 61, 34), 8: (190, 170, 95),
        9: (546, 538, 280), 10: (1708, 1654, 854), 11: (5346, 5344, 2694),
        12: (17428, 17252, 8714)},
    3: {0: (1, 1, 1), 1: (1, 1, 1), 2: (3, 0, 1), 3: (6, 3, 2), 4: (19, 10, 7),
        5: (57, 54, 19), 6: (258, 222, 86), 7: (1110, 1107, 372),
        8: (5475, 5346, 1825), 9: (27429, 27399, 9143),
        10: (143379, 142770, 47801), 11: (764970, 764967, 254990),
        12: (4173906, 4170672, 1391302)},
    4: {0: (1, 1, 1), 1: (1, 1, 1), 2: (4, 0, 1), 3: (10, 6, 3), 4: (44, 28, 11),
        5: (197, 193, 52), 6: (1228, 1140, 307), 7: (7692, 7688, 1936),
        8: (52828, 52364, 13207), 9: (373636, 373560, 93496),
        10: (2735952, 2732836, 683988), 11: (20506258, 20506254, 5127163),
        12: (156922676, 156899748, 39230669)},
    5: {0: (1, 1, 1), 1: (1, 1, 1), 2: (5, 0, 1), 3: (15, 10, 3), 4: (85, 60, 17),
        5: (510, 505, 102), 6: (4051, 3876, 811), 7: (33130, 33125, 6626),
        8: (291925, 290700, 58385), 9: (2661255, 2661100, 532251),
        10: (25059670, 25049020, 5011934), 11: (241724380, 241724375, 48344880),
        12: (2379912355, 2379812100, 475982471)},
    6: {0: (1, 1, 1), 1: (1, 1, 1), 2: (6, 0, 1), 3: (21, 15, 4),
        4: (146, 110, 25), 5: (1101, 1095, 187), 6: (10632, 10326, 1772),
        7: (107062, 107056, 17880), 8: (1151802, 1149126, 191967),
        9: (12845442, 12845166, 2141232), 10: (147845706, 147817170, 24640989)},
    7: {0: (1, 1, 1), 1: (1, 1, 1), 2: (7, 0, 1), 3: (28, 21, 4),
        4: (231, 182, 33), 5: (2100, 2093, 300), 6: (23884, 23394, 3412),
        7: (285390, 285383, 40770), 8: (3626295, 3621150, 518043),
        9: (47813815, 47813367, 6830545), 10: (650367788, 650302814, 92909684)},
}

# colors -> (rooted, unlabelled, asymmetric), all 20 published rows
TABLE2 = {
    (7, 7): (226512, 17424, 17424),
    (5, 6): (5292, 536, 523),
    (6, 6, 7): (28224, 3138, 3135),
    (4, 4, 5): (225, 39, 36),
    (5, 6, 8): (10584, 1176, 1176),
    (5, 5, 5): (1323, 189, 189),
    (4, 6, 7): (1960, 248, 242),
    (5, 6, 6): (5488, 692, 680),
    (3, 4, 4, 5): (50, 10, 10),
    (6, 6, 6, 7): (21952, 2752, 2736),
    (1, 3, 3): (1, 1, 0),
    (2, 2, 3): (3, 1, 1),
    (1, 4, 4): (1, 1, 0),
    (2, 3, 4): (6, 2, 1),
    (3, 3, 3): (16, 4, 4),
    (3, 3, 5): (20, 4, 4),
    (1, 3, 3, 3): (1, 1, 0),
    (2, 2, 3, 3): (3, 1, 1),
    (2, 3, 4, 4): (6, 2, 1),
    (4, 4, 4, 4): (125, 25, 25),
}

# degree spec -> (pointed tuple, rooted, unlabelled, asymmetric); the first
# published row is incoherent and expected to be rejected, so it is absent.
TABLE1 = {
    "1^2 2^2 4^1; 1^2 2^4": ((76, 90), 150, 16, 14),
    "1^3 2^3; 1^3 2^3; 1^6 3^1": ((600, 600, 702), 900, 102, 99),
    "1^2 2^1; 1^2 2^1; 1^2 2^1": ((12, 12, 12), 16, 4, 4),
    "4^1; 1^4; 1^4": ((1, 1, 1), 1, 1, 0),
    "2^2; 1^2 2^1; 1^4": ((1, 2, 2), 2, 1, 0),
    "1^1 3^1; 1^2 2^1; 1^4": ((2, 3, 4), 4, 1, 1),
    "1^2 2^2; 1^2 2^2; 1^4 2^1": ((54, 54, 69), 81, 15, 12),
    "1^3 2^1 4^1; 1^3 2^3; 1^7 2^1": ((600, 720, 960), 1080, 120, 120),
    "1^3 2^2; 1^3 2^2; 1^3 2^2": ((280, 280, 280), 392, 56, 56),
    "1^2 3^2; 1^4 2^2; 1^6 2^1": ((120, 180, 212), 240, 32, 28),
    "2^4; 1^4 2^2; 1^6 2^1": ((20, 30, 36), 40, 6, 4),
    "1^4 4^1; 1^4 2^2; 1^4 2^2": ((252, 300, 300), 400, 52, 48),
    "1^2 2^3; 1^4 2^2; 1^4 2^2": ((504, 600, 600), 800, 104, 96),
    "1^4 2^2; 1^4 2^2; 1^4 2^2; 1^6 2^1": ((6000, 6000, 6000, 7008),
                                           8000, 1008, 992),
}

INCOHERENT_ROW = "1^5 3^2; 2^7"


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s")


def _run_cli(capsys, *argv) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_criterion_1_table3(capsys):
    with criterion(1, "table 3 reproduction (m=2..7)", 5.0):
        out = _run_cli(capsys, "table", "3", "--m-range", "2..7",
                       "--p-max", "12", "--format", "csv")
        cells = {(int(r["m"]), int(r["p"])):
                 (int(r["unlabelled"]), int(r["asymmetric"]), int(r["gonal"]))
                 for r in csv.DictReader(io.StringIO(out))}
        for m, column in TABLE3.items():
            for p, expected in column.items():
                assert cells[(m, p)] == expected, (m, p)
                assert (m - 1) * p + 1 == [int(r["n"]) for r in
                        csv.DictReader(io.StringIO(out))
                        if int(r["m"]) == m and int(r["p"]) == p][0]


def test_criterion_2_table2(capsys):
    with criterion(2, "table 2 reproduction (20 color rows)", 1.0):
        out = _run_cli(capsys, "table", "2", "--format", "csv")
        rows = {tuple(int(x) for x in r["colors"].split(",")):
                (int(r["rooted"]), int(r["unlabelled"]), int(r["asymmetric"]))
                for r in csv.DictReader(io.StringIO(out))}
        assert len(rows) == 20
        for colors, expected in TABLE2.items():
            assert rows[colors] == expected, colors


def test_criterion_3_table1(capsys):
    with criterion(3, "table 1 reproduction (degree rows, first row rejected)", 1.0):
        out = _run_cli(capsys, "table", "1", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["degrees"] == INCOHERENT_ROW
        assert "COHERENCE-FAIL" in rows[0]["pointed"]
        assert "RowSumMismatch" in rows[0]["pointed"]
        with pytest.raises(stats.RowSumMismatch):
            stats.parse_degree_spec(INCOHERENT_ROW)
        for row in rows[1:]:
            pointed, rooted, unlabelled, asymmetric = TABLE1[row["degrees"]]
            assert tuple(int(x) for x in row["pointed"].split()) == pointed
            assert (int(row["rooted"]), int(row["unlabelled"]),
                    int(row["asymmetric"])) == (rooted, unlabelled, asymmetric)
        assert len(rows) == len(TABLE1) + 1


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle cross-check: verify (2,<=6) (3,<=4) (4,<=3)", 60.0):
        for m, p_max in [(2, 6), (3, 4), (4, 3)]:
            report = oracle.verify(m, p_max)
            assert report.passed, report.first_failure
            names = {r.name for r in report.results}
            assert {"rooted size", "rooted color", "rooted degree",
                    "classes size", "classes color", "classes degree",
                    "labelled", "pointed orbits", "factorizations"} <= names


def test_criterion_5_series_formula_agreement():
    with criterion(5, "series/formula agreement to degree 10 (m=2,3)", 30.0):
        bound = 10
        for m in (2, 3):
            fam = series.solve_planted(m, bound)
            rooted = ref.read(fam, ref.ROOTED)
            unlabelled = ref.read(fam, ref.unlabelled_form(m))
            pointed = [ref.read(fam, ref.centre(c, euler_phi))
                       for c in range(1, m + 1)]
            valid = {}
            for p in range(1, (bound - 1) // (m - 1) + 1):
                for c in oracle._all_color_vectors(m, p):
                    valid[c.counts] = c
            # every validated statistic within the bound, both directions
            for counts, c in valid.items():
                assert rooted.get(counts, 0) == F.count_rooted(c)
                assert unlabelled.get(counts, 0) == F.count_unlabelled(c)
                for color in range(1, m + 1):
                    assert pointed[color - 1].get(counts, 0) == F.count_pointed(c, color)
            units = {tuple(1 if i == j else 0 for j in range(m))
                     for i in range(m)}
            for exponents in set(rooted) | set(unlabelled):
                assert exponents in valid or exponents in units
            for i, unit in enumerate(sorted(units, reverse=True)):
                assert unlabelled.get(unit, 0) == 1 and rooted.get(unit, 0) == 0
                assert pointed[i].get(unit, 0) == 1  # the matching-color pointing
            # inversion formula against direct coefficient extraction
            geo = [1] * (bound + 1)
            lattice = {(0,) * m: ref.const(m, bound, 1)}
            alphas = sorted((a for a in product(range(bound + 1), repeat=m)
                             if 0 < sum(a) <= bound), key=sum)
            for alpha in alphas:
                i = next(k for k, v in enumerate(alpha) if v)
                prev = tuple(v - (1 if k == i else 0)
                             for k, v in enumerate(alpha))
                lattice[alpha] = lattice[prev] * ref.planted(fam, i + 1)
            for alpha, prod_series in lattice.items():
                for counts in valid:
                    if any(n < a for n, a in zip(counts, alpha)):
                        continue
                    if (sum(counts) - sum(alpha)) % (m - 1):
                        continue
                    assert chottin_extract(
                        [geo] * m, list(alpha), list(counts)
                    ) == prod_series[counts], (alpha, counts)


def test_criterion_6_identity_suite():
    with criterion(6, "identity suite over all statistics (m<=4, p<=6)", 30.0):
        for m in (2, 3, 4):
            for p in range(1, 7):
                size = stats.size_stat(m, p)
                strata = [s for s in divisors(p) if s >= 2]
                vectors = oracle._all_color_vectors(m, p)
                matrices = oracle._all_degree_matrices(m, p)

                def check(stat, pointed_counts):
                    # dissymmetry
                    assert sum(pointed_counts) == (
                        F.count_unlabelled(stat) + (m - 1) * F.count_rooted(stat))
                    # stratification and Moebius/phi duality
                    exact = {s: F.count_aut(stat, s, AutMode.EXACTLY)
                             for s in strata}
                    assert F.count_unlabelled(stat) == (
                        F.count_asymmetric(stat) + sum(exact.values()))
                    for s in strata:
                        at_least = sum(v for t, v in exact.items() if t % s == 0)
                        assert F.count_aut(stat, s, AutMode.AT_LEAST) == at_least
                    # integrality is the return type: everything above is int
                    for value in (*pointed_counts, F.count_labelled(stat),
                                  F.count_rooted(stat)):
                        assert isinstance(value, int)

                check(size, [F.count_pointed(size)])
                for c in vectors:
                    pointed = [F.count_pointed(c, i) for i in range(1, m + 1)]
                    check(c, pointed)
                    for i in range(1, m + 1):  # shift covariance
                        assert pointed[i - 1] == F.count_pointed(
                            shift(c, i - 1), 1)
                for d in matrices:
                    pointed = [F.count_pointed(d, i) for i in range(1, m + 1)]
                    check(d, pointed)
                    for i in range(1, m + 1):
                        assert pointed[i - 1] == F.count_pointed(
                            shift(d, i - 1), 1)
                    # reciprocal sum: a class with |Aut| = s has p/s rootings
                    assert Fraction(F.count_rooted(d), p) == F.count_asymmetric(d) + sum(
                        Fraction(F.count_aut(d, s, AutMode.EXACTLY), s) for s in strata)

                # color marginalization down to size level
                for counter, total in [
                        (F.count_rooted, F.count_rooted(size)),
                        (F.count_unlabelled, F.count_unlabelled(size)),
                        (F.count_asymmetric, F.count_asymmetric(size))]:
                    assert sum(counter(c) for c in vectors) == total
                assert sum(F.count_pointed(c, i) for c in vectors
                           for i in range(1, m + 1)) == F.count_pointed(size)
                # degree marginalization down to color level
                by_marginal = {}
                for d in matrices:
                    by_marginal.setdefault(d.color_counts, []).append(d)
                for c in vectors:
                    group = by_marginal.get(c.counts, [])
                    assert sum(F.count_rooted(d) for d in group) == F.count_rooted(c)


def test_criterion_7_gonal_and_free():
    with criterion(7, "gonal enumeration and free-cactus brute force", 60.0):
        for m, p_max in [(2, 6), (3, 4)]:
            for p in range(1, p_max + 1):
                assert oracle.enumerate_gonal(m, p) == F.count_gonal(
                    m, p, GonalKind.UNLABELLED), (m, p)
        # every colour vector of m <= 7, p <= 8 inside the brute force's budget
        free_cases = [c for m in range(2, 8) for p in range(1, 9)
                      for c in oracle._all_color_vectors(m, p)
                      if (pool := math.prod(c.counts)) <= oracle.SUBSET_BUDGET
                      and math.comb(pool, p) <= oracle.SUBSET_BUDGET]
        assert len(free_cases) == 59
        for c in free_cases:
            assert oracle.free_labelled_bruteforce(c) == F.count_free_labelled(c), c


def test_criterion_8_constellations():
    with criterion(8, "rooted constellations: trivia, integrality, map oracle", 1.0):
        for m in range(2, 8):
            assert F.count_constellation_rooted(m, 1) == 1
            for p in range(1, 31):
                assert isinstance(F.count_constellation_rooted(m, p), int)
        for p in range(1, 4):
            assert count_rooted_bipartite_maps(p) == F.count_constellation_rooted(2, p)
        assert F.count_constellation_rooted(2, 2) == 3
