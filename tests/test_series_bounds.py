"""Series against closed forms at the CLI's series order bounds."""

import itertools
import math

import pytest

from cacti import cli
from cacti import formulas as F
from cacti import oracle, series, stats
from cacti.arith import euler_phi
import series_reference as ref
from test_series import weighted_family


@pytest.mark.parametrize("m", [2, 3])
def test_color_level_at_multi_bound(m):
    order = series.SERIES_MULTI_BOUND
    fam = series.solve_planted(m, order)
    rooted = ref.read(fam, ref.ROOTED)
    unlabelled = ref.read(fam, ref.unlabelled_form(m))
    pointed = [ref.read(fam, ref.centre(c, euler_phi)) for c in range(1, m + 1)]
    checked = set()
    for p in range(1, (order - 1) // (m - 1) + 1):
        for counts in itertools.product(range(1, p + 1), repeat=m):
            if sum(counts) != (m - 1) * p + 1:
                continue
            c = stats.color_stat(m, counts)
            assert rooted.get(counts, 0) == F.count_rooted(c)
            assert unlabelled.get(counts, 0) == F.count_unlabelled(c)
            for color in range(1, m + 1):
                assert pointed[color - 1].get(counts, 0) == F.count_pointed(c, color)
            checked.add(counts)
    assert set(rooted) == checked


def test_degree_level_at_multi_bound(capsys):
    order = series.SERIES_MULTI_BOUND
    fam = weighted_family(2, order)
    rooted = ref.rooted(fam)
    by_colors: dict = {}
    visited = set()
    for e, value in rooted.coeffs.items():
        rows = [{h: k for (c, h), k in zip(fam.slots, e[2:]) if c == color and k}
                for color in (1, 2)]
        d = stats.degree_stat(2, rows)
        assert value == F.count_rooted(d)
        visited.add(d)
        by_colors[e[:2]] = by_colors.get(e[:2], 0) + value
    for counts, total in by_colors.items():
        assert total == F.count_rooted(stats.color_stat(2, counts))
    every = {d for p in range(1, order)  # n = p + 1 <= order
             for d in oracle._all_degree_matrices(2, p)}
    assert visited == every and len(visited) > 100
    code = cli.main(["count", "--m", "2", "--degrees", "15^1; 1^15",
                     "--mode", "rooted", "--path", "series"])
    assert code == 0 and capsys.readouterr().out == "1\n"


def _degree_spec(d: stats.DegreeStat) -> str:
    return "; ".join(" ".join(f"{h}^{k}" for h, k in row) for row in d.rows)


@pytest.mark.parametrize("m,p_max", [(3, 7), (4, 5)])
def test_every_degree_matrix_through_the_cli(m, p_max, capsys):
    checked = 0
    for p in range(1, p_max + 1):
        for d in oracle._all_degree_matrices(m, p):
            for mode, formula in (("rooted", F.count_rooted),
                                  ("labelled", F.count_labelled)):
                code = cli.main(["count", "--m", str(m), "--degrees", _degree_spec(d),
                                 "--mode", mode, "--path", "series"])
                assert code == 0
                assert capsys.readouterr().out == f"{formula(d)}\n", (d, mode)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("m,p_max", [(3, 7), (4, 5)])
def test_every_color_vector_through_the_cli(m, p_max, capsys):
    for p in range(1, p_max + 1):
        for c in oracle._all_color_vectors(m, p):
            base = ["count", "--m", str(m), "--colors", ",".join(map(str, c.counts)),
                    "--path", "series", "--mode"]
            expected = [F.count_rooted(c), F.count_unlabelled(c)] + [
                F.count_pointed(c, color) for color in range(1, m + 1)]
            argvs = [base + ["rooted"], base + ["unlabelled"]] + [
                base + ["pointed", "--color", str(color)] for color in range(1, m + 1)]
            for argv, value in zip(argvs, expected):
                assert cli.main(argv) == 0
                assert capsys.readouterr().out == f"{value}\n", argv


@pytest.mark.parametrize("m", range(2, 8))
def test_one_sort_planted_is_fuss_catalan(m):
    order = series.SERIES_ONE_SORT_BOUND
    fuss_catalan = {((m - 1) * p + 1,): math.comb(m * p, p) // ((m - 1) * p + 1)
                    for p in range((order - 1) // (m - 1) + 1)}
    _, a = series.solve_one_sort(m, order)
    assert {(n,): c for n, c in enumerate(a) if c} == fuss_catalan


@pytest.mark.parametrize("m,order", [(1, 3), (0, 3), (2, 0)])
def test_solver_rejects_bad_input(m, order):
    with pytest.raises(stats.ValidationError):
        series.solve_planted(m, order)
    with pytest.raises(stats.ValidationError):
        series.solve_one_sort(m, order)


def _centre_queries(stat, strata) -> list[list[str]]:
    """The flags of every count by centres that `count --path series` has
    answered since it reads each mode's `Centres`: labelled, asymmetric
    and the automorphism strata at `strata`, plus pointed at size level."""
    flags = [["labelled"], ["asymmetric"]]
    flags += [[mode, "--s", str(s)] for mode in ("aut-exact", "aut-atleast")
              for s in strata]
    if isinstance(stat, stats.SizeStat):
        flags.append(["pointed"])
    return flags


def _formula_count(argv: list[str], capsys) -> str:
    assert cli.main(argv) == 0, argv
    return capsys.readouterr().out


@pytest.mark.parametrize("m,p_max", [(2, 10), (3, 5), (4, 4)])
def test_centre_modes_on_every_color_vector_through_the_cli(m, p_max, capsys):
    checked = 0
    for p in range(1, p_max + 1):
        for c in oracle._all_color_vectors(m, p):
            base = ["count", "--m", str(m), "--colors", ",".join(map(str, c.counts)),
                    "--mode"]
            for flags in _centre_queries(c, range(2, p + 1)):
                expected = _formula_count(base + flags, capsys)
                assert cli.main(base + flags + ["--path", "series"]) == 0
                assert capsys.readouterr().out == expected, base + flags
                checked += 1
    assert checked > 200


@pytest.mark.parametrize("m", range(2, 8))
def test_centre_modes_at_the_one_sort_bound_through_the_cli(m, capsys):
    p_max = (series.SERIES_ONE_SORT_BOUND - 1) // (m - 1)
    for p in (p_max - 1, p_max):
        stat = stats.size_stat(m, p)
        strata = [s for s in range(2, p + 1) if p % s == 0] + [p + 1]
        base = ["count", "--m", str(m), "--p", str(p), "--mode"]
        for flags in _centre_queries(stat, strata):
            expected = _formula_count(base + flags, capsys)
            assert cli.main(base + flags + ["--path", "series"]) == 0
            assert capsys.readouterr().out == expected, base + flags
