"""The orbit pass of the oracle against its plain references.

`enumerate_unlabelled` expands each rooted cactus into its orbit under
re-rooting; the reference below keys every rooted cactus separately by
`canonical_unrooted` and groups equal keys.  `factorizations` looks cycle
types up in a table built once; the reference computes one per tuple.
"""

from itertools import permutations, product

import pytest

from cacti import oracle
from cacti.oracle import Planted, Rooted
from cacti.stats import InconsistentResult


def classes_by_canonical_key(m, p):
    """(representative, aut order, colours, degrees) per class, by key."""
    groups = {}
    for rc in oracle.generate_rooted(m, p):
        key = oracle.canonical_unrooted(oracle.to_graph(rc))
        groups.setdefault(key, []).append(rc)
    out = []
    for key in sorted(groups):
        members = groups[key]
        rep = next(rc for rc in members if oracle.encode_rooted(rc) == key)
        colors, degrees = oracle.graph_stats(oracle.to_graph(rep))
        out.append((rep, p // len(members), colors, degrees))
    return out


@pytest.mark.parametrize("m, p", [(2, 6), (2, 7), (3, 4), (4, 3)])
def test_orbit_pass_matches_canonical_grouping(m, p):
    got = [(rep, st.aut_order, st.colors, st.degrees)
           for rep, st in oracle.enumerate_unlabelled(m, p)]
    assert got == classes_by_canonical_key(m, p)


def factorizations_recounted(m, p):
    sigma = tuple((i + 1) % p for i in range(p))
    census = {}
    for gs in product(permutations(range(p)), repeat=m - 1):
        acc = tuple(range(p))
        for g in gs:
            acc = oracle._compose(acc, g)
        last = oracle._compose(oracle._inverse(acc), sigma)
        key = tuple(oracle._cycle_type(g) for g in gs + (last,))
        census[key] = census.get(key, 0) + 1
    return census


@pytest.mark.parametrize("m, p", [(2, 5), (3, 4)])
def test_factorizations_match_recount(m, p):
    assert oracle.factorizations(m, p) == factorizations_recounted(m, p)


def test_re_rooting_outside_the_generated_list_raises(monkeypatch):
    stray = Rooted(2, (Planted(1, ()), Planted(2, ((Planted(1, ()),),) * 9)))
    monkeypatch.setattr(oracle, "re_root", lambda g, pid: stray)
    with pytest.raises(InconsistentResult, match="not generated"):
        oracle.enumerate_unlabelled(2, 3)
    with pytest.raises(InconsistentResult, match="not generated"):
        oracle.verify(2, 3)


def test_re_rooting_into_an_earlier_orbit_raises(monkeypatch):
    first = oracle.generate_rooted(2, 3)[0]
    monkeypatch.setattr(oracle, "re_root", lambda g, pid: first)
    with pytest.raises(InconsistentResult, match="earlier orbit"):
        oracle.enumerate_unlabelled(2, 3)


def test_orbit_size_not_dividing_p_raises(monkeypatch):
    # Re-rooting only at polygons 0 and 1 gives the 4-vertex path, whose
    # three rootings are distinct, an orbit of two.
    re_root = oracle.re_root
    monkeypatch.setattr(oracle, "re_root",
                        lambda g, pid: re_root(g, min(pid, 1)))
    with pytest.raises(InconsistentResult, match="do not divide p = 3"):
        oracle.enumerate_unlabelled(2, 3)


def test_duplicate_rooted_cactus_raises(monkeypatch):
    # The first copy of a duplicate never lands in an orbit: every lookup
    # of it finds the second copy.
    rooted = oracle.generate_rooted(2, 3)
    monkeypatch.setattr(oracle, "generate_rooted",
                        lambda m, p: rooted + rooted[:1])
    with pytest.raises(InconsistentResult, match="1 rooted cacti lie in no"):
        oracle.enumerate_unlabelled(2, 3)
