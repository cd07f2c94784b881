"""The oracle's centroid classes against plain references.

`enumerate_unlabelled` builds each class once from its centroid and counts
pointed orbits by Burnside's lemma; `oracle_reference` re-roots every
generated cactus instead, and keys every vertex for the pointed orbits.
The re-rooting reference is itself checked against a grouping by
`canonical_unrooted`.  `enumerate_gonal` keys each class at its centroid;
`reference_gonal` keys every rooted cactus at every rooting.
`_necklaces` extends prenecklaces only; `rotation_filter_necklaces` keeps
each branch sequence that is its own least rotation.
`factorizations` reads the census of factorizations off the hook
characters; `oracle_reference.factorizations` counts it over the
permutations, one factor at a time and the first factors once per cycle
type of what they factor, and a plainer recount walks every tuple.
"""

from collections import Counter
from itertools import permutations, product

import pytest

from cacti import formulas, oracle
from cacti.formulas import GonalKind
from cacti.oracle import Planted
from cacti.stats import InconsistentResult
import oracle_reference
from oracle_reference import (
    canonical_unrooted,
    count_pointed_orbits,
    encode_rooted,
    graph_stats,
    orbit_classes,
    reference_classes,
    reference_gonal,
    to_graph,
)

SIZES = [(m, p) for m in range(2, 8) for p in range(1, oracle.reach(m) + 1)]


def classes_by_canonical_key(m, p):
    """(representative, aut order, colours, degrees) per class, by key."""
    groups = {}
    for rc in oracle.generate_rooted(m, p):
        key = canonical_unrooted(to_graph(rc))
        groups.setdefault(key, []).append(rc)
    out = []
    for key in sorted(groups):
        members = groups[key]
        rep = next(rc for rc in members if encode_rooted(rc) == key)
        colors, degrees = graph_stats(to_graph(rep))
        out.append((rep, p // len(members), colors, degrees))
    return out


@pytest.mark.parametrize("m, p", [(2, 6), (2, 7), (3, 4), (4, 3)])
def test_orbit_pass_matches_canonical_grouping(m, p):
    assert reference_classes(m, p) == classes_by_canonical_key(m, p)


@pytest.mark.parametrize("m, p", SIZES)
def test_centroid_classes_match_reference(m, p):
    got = Counter()
    for rep, st in oracle.enumerate_unlabelled(m, p):
        got[(canonical_unrooted(to_graph(rep)), st.aut_order,
             st.colors, st.degrees,
             tuple(st.pointed(c) for c in range(1, m + 1)))] += 1
    expected = Counter()
    for rep, aut, colors, degrees in reference_classes(m, p):
        g = to_graph(rep)
        expected[(canonical_unrooted(g), aut, colors, degrees,
                  tuple(count_pointed_orbits(g, c) for c in range(1, m + 1)))] += 1
    assert got == expected


@pytest.mark.parametrize("m, p", SIZES)
def test_gonal_classes_from_representatives_match_reference(m, p):
    got = oracle.enumerate_gonal(m, p)
    assert got == reference_gonal(m, p)
    assert got == formulas.count_gonal(m, p, GonalKind.UNLABELLED)


@pytest.mark.parametrize("m, p", SIZES + [(2, 9), (2, 10)])
def test_necklaces_match_rotation_filter(m, p):
    necklaces = oracle._necklaces(m, p)
    assert Counter(necklaces) == Counter(
        oracle_reference.rotation_filter_necklaces(m, p))
    assert len(set(necklaces)) == len(necklaces)


def test_gonal_classes_build_no_statistic(monkeypatch):
    def no_statistic(readings):
        raise AssertionError("enumerate_gonal read a degree statistic")

    monkeypatch.setattr(oracle, "_merged_rows", no_statistic)
    assert oracle.enumerate_gonal(3, 5) == 19


def compose(a, b):
    """Apply a first, then b."""
    return tuple(b[i] for i in a)


def factorizations_recounted(m, p):
    sigma = tuple((i + 1) % p for i in range(p))
    census = {}
    for gs in product(permutations(range(p)), repeat=m - 1):
        acc = tuple(range(p))
        for g in gs:
            acc = compose(acc, g)
        last = compose(oracle_reference.inverse(acc), sigma)
        key = tuple(oracle_reference.cycle_type(g) for g in gs + (last,))
        census[key] = census.get(key, 0) + 1
    return census


@pytest.mark.parametrize("m, p", [(2, 5), (3, 4), (4, 3), (3, 5), (5, 3), (2, 6)])
def test_factorizations_match_recount(m, p):
    assert oracle_reference.factorizations(m, p) == factorizations_recounted(m, p)


def test_factorizations_take_each_cycle_type_once(monkeypatch):
    expected = factorizations_recounted(4, 4)
    calls = []
    cycle_type = oracle_reference.cycle_type

    def counted(perm):
        calls.append(perm)
        return cycle_type(perm)

    monkeypatch.setattr(oracle_reference, "cycle_type", counted)
    assert oracle_reference.factorizations(4, 4) == expected
    assert len(calls) == 24 == len(set(calls))


@pytest.mark.parametrize("m, p_max", sorted(oracle.FACT_BUDGET.items()))
def test_hook_census_is_the_permutation_census(m, p_max):
    """Key for key, with no key of count 0 on either side."""
    for p in range(1, p_max + 1):
        assert oracle.factorizations(m, p) == oracle_reference.factorizations(m, p)


def test_re_rooting_outside_the_generated_list_raises(monkeypatch):
    stray = (Planted(()), Planted(((Planted(()),),) * 9))
    monkeypatch.setattr(oracle_reference, "re_root", lambda g, pid: stray)
    with pytest.raises(InconsistentResult, match="not generated"):
        reference_classes(2, 3)


def test_re_rooting_into_an_earlier_orbit_raises(monkeypatch):
    first = min(oracle.generate_rooted(2, 3), key=encode_rooted)
    monkeypatch.setattr(oracle_reference, "re_root", lambda g, pid: first)
    with pytest.raises(InconsistentResult, match="earlier orbit"):
        reference_classes(2, 3)


def test_orbit_size_not_dividing_p_raises(monkeypatch):
    # Re-rooting only at polygons 0 and 1 gives the 4-vertex path, whose
    # three rootings are distinct, an orbit of two.
    re_root = oracle_reference.re_root
    monkeypatch.setattr(oracle_reference, "re_root",
                        lambda g, pid: re_root(g, min(pid, 1)))
    with pytest.raises(InconsistentResult, match="do not divide p = 3"):
        reference_classes(2, 3)


def test_duplicate_rooted_cactus_raises():
    # The first copy of a duplicate never lands in an orbit: every lookup
    # of it finds the second copy.
    rooted = sorted(oracle.generate_rooted(2, 3), key=encode_rooted)
    with pytest.raises(InconsistentResult, match="1 rooted cacti lie in no"):
        orbit_classes(3, rooted[:1] + rooted)


def test_verify_raises_when_the_classes_miss_a_rooting(monkeypatch):
    generate_rooted = oracle.generate_rooted
    monkeypatch.setattr(oracle, "generate_rooted",
                        lambda m, p: generate_rooted(m, p) * 2)
    with pytest.raises(InconsistentResult, match="1 rootings, but 2 rooted"):
        oracle.verify(2, 3)
