"""The exhaustive route's budgets cap work that is known before it is done.

`oracle.reach(m)` is the largest p whose rooted cacti, C(mp, p) /
((m - 1)p + 1) of them, fit `ROOTED_BUDGET`; the free brute force runs while
its candidate polygons and their p-subsets fit `SUBSET_BUDGET`.  The two caps
replace a p-per-m table for generation and a pool and a p limit for the free
brute force, and every size those admitted is still answered.  Each check
counts up to its cap, never at the query's own size, so a huge query is
refused at once.
"""

import math
import os
import subprocess
import sys

import pytest

import cacti
from cacti import cli, formulas as F, oracle, stats
from cacti.formulas import GonalKind

# What generation and the free brute force admitted before the two caps.
OLD_GENERATION = {2: 8, 3: 6, 4: 4, 5: 4, 6: 3, 7: 3}
OLD_FREE_POOL, OLD_FREE_P = 16, 4


def fuss_catalan(m, p):
    return math.comb(m * p, p) // ((m - 1) * p + 1)


def test_reach_only_widens_the_old_table():
    assert all(oracle.reach(m) >= p for m, p in OLD_GENERATION.items())
    assert all(oracle.reach(m) >= 1 for m in range(2, 3000))
    assert all(oracle.reach(10 ** k) == 1 for k in (4, 9, 18, 100))


def test_reach_by_m():
    assert [oracle.reach(m) for m in range(2, 9)] == [8, 6, 5, 4, 4, 4, 4]
    assert {oracle.reach(m) for m in range(9, 32)} == {3}
    assert {oracle.reach(m) for m in range(32, 1431)} == {2}
    assert oracle.reach(1431) == 1


@pytest.mark.parametrize("m", [*range(2, 41), 300, 1430, 1431])
def test_reach_is_the_last_p_whose_rooted_count_fits(m):
    top = oracle.reach(m)
    assert fuss_catalan(m, top) <= oracle.ROOTED_BUDGET < fuss_catalan(m, top + 1)


@pytest.mark.parametrize("m", range(2, 9))
def test_generation_at_reach_stays_within_the_budget(m):
    rooted = oracle.generate_rooted(m, oracle.reach(m))
    assert len(rooted) == fuss_catalan(m, oracle.reach(m)) <= oracle.ROOTED_BUDGET


def test_free_cap_admits_every_vector_the_old_limits_did():
    old = [stats.color_stat(m, (1,) + (0,) * (m - 1)) for m in range(2, 5)]
    old += [c for m in range(2, 18) for p in range(1, OLD_FREE_P + 1)
            for c in oracle._all_color_vectors(m, p)
            if math.prod(c.counts) <= OLD_FREE_POOL]
    for c in old:
        pool = math.prod(c.counts)
        assert pool <= oracle.SUBSET_BUDGET, c
        assert math.comb(pool, c.p) <= oracle.SUBSET_BUDGET, c
        assert oracle.free_labelled_bruteforce(c) == F.count_free_labelled(c), c


def test_free_brute_force_refuses_past_the_subset_budget(capsys):
    # 16 candidates, as the old pool limit allowed, but C(16, 7) subsets of them
    past = stats.color_stat(2, (4, 4))
    assert math.comb(16, past.p) > oracle.SUBSET_BUDGET
    with pytest.raises(stats.BudgetExceeded):
        oracle.free_labelled_bruteforce(past)
    assert cli.main(["count", "--m", "2", "--colors", "4,4", "--mode", "free",
                     "--path", "oracle"]) == 2
    assert capsys.readouterr().err == (
        "error: BudgetExceeded: free brute force capped at 1820 candidates and "
        "p-subsets; got pool = 16, p = 7\n")


def _count(m, p, mode):
    return ["count", "--m", str(m), "--p", str(p), "--mode", mode, "--path", "oracle"]


def _verify(m, p):
    return ["verify", "--m", str(m), "--p-max", str(p)]


@pytest.mark.parametrize("m", range(2, 9))
def test_answers_at_reach_and_refuses_past_it(capsys, m):
    top = oracle.reach(m)
    for argv in (_count(m, top, "rooted"), _count(m, top, "unlabelled"),
                 _verify(m, top)):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    for argv in (_count(m, top + 1, "rooted"), _count(m, top + 1, "unlabelled"),
                 _verify(m, top + 1)):
        assert cli.main(argv) == 2, argv
    assert capsys.readouterr().err == 3 * (
        f"error: BudgetExceeded: generation capped at p <= {top} for m = {m}, "
        f"got p = {top + 1}\n")


def test_refuses_p_2_past_m_1430(capsys):
    assert cli.main(_count(1430, 2, "rooted")) == 0
    assert capsys.readouterr().out == "1430\n"
    for argv in (_count(1431, 2, "rooted"), _count(1431, 2, "unlabelled"),
                 _verify(1431, 2)):
        assert cli.main(argv) == 2, argv
    assert capsys.readouterr().err == 3 * (
        "error: BudgetExceeded: generation capped at p <= 1 for m = 1431, got p = 2\n")


@pytest.mark.parametrize("argv", [
    ["--m", "2", "--p", "1000000000", "--mode", "rooted"],
    ["--m", "1000000000", "--p", "2", "--mode", "unlabelled"],
    ["--m", "2", "--colors", "500000,500001", "--mode", "free"],
], ids=" ".join)
def test_budget_checks_do_not_build_the_query(argv):
    """A check that evaluated C(mp, p), or the subsets, at the query's own
    size would hang here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cacti.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "cacti.cli", "count", *argv, "--path", "oracle"],
        capture_output=True, text=True, env=env, timeout=20)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: BudgetExceeded: ")


@pytest.mark.parametrize("m, p", [(8, 4), (16, 3), (31, 3), (40, 2)])
def test_verify_passes_at_the_new_reach(m, p):
    assert p == oracle.reach(m)
    report = oracle.verify(m, p)
    assert report.passed, report.first_failure


def test_oracle_matches_the_formulas_at_m_300():
    m, p = 300, 2
    size = stats.size_stat(m, p)
    for mode, options in [("rooted", {}), ("labelled", {}), ("unlabelled", {}),
                          ("asymmetric", {}), ("pointed", {}),
                          ("aut-exact", {"s": 2}), ("aut-atleast", {"s": 2})]:
        assert oracle.count(mode, size, **options) == F.MODES[mode].formula(
            size, **options), mode
    assert oracle.count("gonal", size) == F.count_gonal(m, p, GonalKind.UNLABELLED)
    colors = stats.color_stat(m, (1,) + (2,) * (m - 1))
    for c in (1, 2, m):
        assert (oracle.count("pointed", colors, color=c)
                == F.count_pointed(colors, c)), c
    assert oracle.count("unlabelled", colors) == F.count_unlabelled(colors)
