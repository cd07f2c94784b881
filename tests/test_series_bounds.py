"""Series against closed forms at the CLI's series order bounds."""

import itertools
import math

import pytest

from cacti import cli
from cacti import formulas as F
from cacti import series, stats


@pytest.mark.parametrize("m", [2, 3])
def test_color_level_at_multi_bound(m):
    order = cli.SERIES_MULTI_BOUND
    fam = series.solve_planted(m, order)
    rooted = series.series_rooted(fam)
    unlabelled = series.series_unlabelled(m, order)
    pointed = [series.series_pointed_unlabelled(fam, c) for c in range(1, m + 1)]
    checked = set()
    for p in range(1, (order - 1) // (m - 1) + 1):
        for counts in itertools.product(range(1, p + 1), repeat=m):
            if sum(counts) != (m - 1) * p + 1:
                continue
            c = stats.color_stat(m, counts)
            assert rooted[counts] == F.count_rooted(c)
            assert unlabelled[counts] == F.count_unlabelled(c)
            for color in range(1, m + 1):
                assert pointed[color - 1][counts] == F.count_pointed(c, color)
            checked.add(counts)
    assert set(rooted.coeffs) == checked


def test_degree_level_at_multi_bound(capsys):
    order = cli.SERIES_MULTI_BOUND
    rooted = series.series_rooted(series.solve_planted(2, order, weighted=True))
    checked = 0
    for counts, poly in rooted.coeffs.items():
        for key, value in poly.terms.items():
            rows = [{h: k for (c, h), k in key if c == color} for color in (1, 2)]
            assert value == F.count_rooted(stats.degree_stat(2, rows))
            checked += 1
        assert poly.set_ones() == F.count_rooted(stats.color_stat(2, counts))
    assert rooted[(1, 15)].terms[(((1, 15), 1), ((2, 1), 15))] == 1
    assert checked > 100
    code = cli.main(["count", "--m", "2", "--degrees", "15^1; 1^15",
                     "--mode", "rooted", "--path", "series"])
    assert code == 0 and capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("m", range(2, 8))
def test_one_sort_planted_is_fuss_catalan(m):
    order = cli.SERIES_ONE_SORT_BOUND
    fuss_catalan = {((m - 1) * p + 1,): math.comb(m * p, p) // ((m - 1) * p + 1)
                    for p in range((order - 1) // (m - 1) + 1)}
    assert series.solve_one_sort(m, order).coeffs == fuss_catalan


@pytest.mark.parametrize("m,order", [(1, 3), (0, 3), (2, 0)])
def test_solver_rejects_bad_input(m, order):
    with pytest.raises(stats.ValidationError):
        series.solve_planted(m, order)
    with pytest.raises(stats.ValidationError):
        series.solve_one_sort(m, order)
