"""Rooted degree-level counts against the hook-character census of the
factorizations of the full p-cycle, past every generation budget."""

import itertools
from math import comb, factorial

import pytest

from hook_reference import census, hook_characters

from cacti import formulas as F
from cacti import oracle


def test_hook_characters_at_the_identity_and_the_cycle():
    for p in range(1, 9):
        assert hook_characters(((1, p),)) == [comb(p - 1, k) for k in range(p)]
        assert hook_characters(((p, 1),)) == [(-1) ** k for k in range(p)]


@pytest.mark.parametrize("m, p_max", [(2, 14), (3, 9), (4, 7)])
def test_every_degree_matrix_against_the_formula(m, p_max):
    checked = 0
    for p in range(1, p_max + 1):
        for d in oracle._all_degree_matrices(m, p):
            assert census(d.rows) == F.count_rooted(d), d
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("m, p_max", sorted(oracle.FACT_BUDGET.items()))
def test_factorization_census_inside_its_budget(m, p_max):
    for p in range(1, p_max + 1):
        counted = oracle.factorizations(m, p)
        keys = list(itertools.product(oracle._partitions(p), repeat=m))
        assert set(counted) <= set(keys)
        for key in keys:
            assert census(key) == counted.get(key, 0), key
        # every g_1 .. g_{m-1} fixes g_m
        assert sum(map(census, keys)) == factorial(p) ** (m - 1)
