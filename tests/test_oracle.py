from collections import Counter

import pytest

from cacti import formulas as F
from cacti import cli, oracle, stats
from cacti.oracle import Planted, Rooted
from oracle_reference import (
    canonical_unrooted,
    count_pointed_orbits,
    encode_rooted,
    re_root,
    to_graph,
)


def _parse_planted(text: str, pos: int, color: int,
                   m: int) -> tuple[Planted, int]:
    """The planted cactus at `pos`, whose root the position gives colour
    `color`; the encoded colour must agree."""
    start = pos
    while text[pos].isdigit():
        pos += 1
    if int(text[start:pos]) != color:
        raise ValueError(f"expected colour {color} at {start} in {text!r}")
    if text[pos] != "(":
        raise ValueError(f"expected '(' at {pos} in {text!r}")
    pos += 1
    polys = []
    while text[pos] == "[":
        pos += 1
        members = []
        while True:
            sub, pos = _parse_planted(text, pos, (color + len(members)) % m + 1, m)
            members.append(sub)
            if text[pos] == ",":
                pos += 1
                continue
            break
        if text[pos] != "]":
            raise ValueError(f"expected ']' at {pos} in {text!r}")
        pos += 1
        polys.append(tuple(members))
    if text[pos] != ")":
        raise ValueError(f"expected ')' at {pos} in {text!r}")
    return Planted(tuple(polys)), pos + 1


def parse_rooted(text: str) -> Rooted:
    """Inverse of oracle_reference.encode_rooted."""
    if not text.startswith("{") or not text.endswith("}"):
        raise ValueError(f"not a rooted encoding: {text!r}")
    # n = (m - 1)p + 1 vertices, one "(" each; p - 1 polygons off the
    # root polygon, one "[" each.
    m = (text.count("(") - 1) // (text.count("[") + 1) + 1
    pos = 1
    comps = []
    while True:
        pc, pos = _parse_planted(text, pos, len(comps) + 1, m)
        comps.append(pc)
        if text[pos] == ",":
            pos += 1
            continue
        break
    if pos != len(text) - 1:
        raise ValueError(f"trailing junk in {text!r}")
    if len(comps) != m:
        raise ValueError(f"{len(comps)} components, expected {m} in {text!r}")
    return tuple(comps)


def test_generate_rooted_counts():
    assert len(oracle.generate_rooted(2, 3)) == 5
    assert len(oracle.generate_rooted(3, 1)) == 1
    assert len(oracle.generate_rooted(3, 4)) == 55


def test_generate_rooted_is_deterministic_and_duplicate_free():
    first = oracle.generate_rooted(3, 3)
    second = oracle.generate_rooted(3, 3)
    assert first == second
    encodings = [encode_rooted(rc) for rc in first]
    assert len(set(encodings)) == len(encodings)


def test_generation_budget():
    with pytest.raises(oracle.BudgetExceeded):
        oracle.generate_rooted(2, 99)
    with pytest.raises(oracle.BudgetExceeded):
        oracle.verify(2, 99)


@pytest.mark.parametrize("mode", ["rooted", "unlabelled", "gonal", "pointed"])
def test_oracle_counts_one_polygon_at_large_m(capsys, mode):
    # The m parts of the root polygon are split without recursing on m.
    argv = ["count", "--m", "1000", "--p", "1", "--mode", mode]
    assert cli.main(argv + ["--path", "oracle"]) == 0
    by_oracle = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert by_oracle == capsys.readouterr().out


def two_triangles_shared_color1() -> Rooted:
    # two triangles glued at their color-1 vertex; rooted at one of them
    leaf = Planted(())
    hub = Planted(((leaf, leaf),))
    return (hub, leaf, leaf)


def _read_stats(g):
    """Color and degree statistics counted vertex by vertex."""
    colors = stats.color_stat(g.m, [g.colors.count(c) for c in range(1, g.m + 1)])
    rows = [Counter(len(polys) for polys, c in zip(g.vertex_polys, g.colors)
                    if c == color) for color in range(1, g.m + 1)]
    return colors, stats.degree_stat(g.m, rows)


def test_rooted_tally_counts_every_cactus():
    for m in range(2, 8):
        for p in range(1, oracle.reach(m) + 1):
            rooted = oracle.generate_rooted(m, p)
            expected = Counter(st for rc in rooted
                               for st in _read_stats(to_graph(rc)))
            assert oracle.rooted_tally(rooted) == expected
            assert sum(expected.values()) == 2 * len(rooted)


def test_rooted_tally_builds_one_statistic_per_degree_matrix(monkeypatch):
    rooted = oracle.generate_rooted(2, 6)
    built = []

    def counted(m, rows):
        built.append(rows)
        return stats.DegreeStat(m, rows)

    monkeypatch.setattr(oracle, "DegreeStat", counted)
    tally = oracle.rooted_tally(rooted)
    matrices = [key for key in tally if isinstance(key, stats.DegreeStat)]
    assert sorted(built) == sorted(d.rows for d in matrices)


def test_unlabelled_classes_read_each_necklace_once(monkeypatch):
    m, p = 3, 5
    polygon_centred = len(oracle._rooted(m, p, (p - 1) // 2))
    necklaces = len(oracle._necklaces(m, p))
    calls = []
    merged_rows = oracle._merged_rows

    def counted(readings):
        calls.append(readings)
        return merged_rows(readings)

    monkeypatch.setattr(oracle, "_merged_rows", counted)
    classes = oracle.enumerate_unlabelled(m, p)
    assert len(calls) == polygon_centred + necklaces
    assert len(classes) == polygon_centred + m * necklaces
    assert [st.centre for _, st in classes] == (
        [None] * polygon_centred + [c for c in range(1, m + 1)
                                    for _ in range(necklaces)])


def test_to_graph_shapes():
    single = (Planted(()),) * 3
    g = to_graph(single)
    assert len(g.colors) == 3 and len(g.polygons) == 1

    g = to_graph(two_triangles_shared_color1())
    assert len(g.colors) == 5 and len(g.polygons) == 2
    shared = [v for v in range(len(g.colors)) if len(g.vertex_polys[v]) == 2]
    assert len(shared) == 1 and g.colors[shared[0]] == 1


def test_graph_round_trip():
    for m, p in [(2, 4), (3, 3)]:
        for rc in oracle.generate_rooted(m, p):
            g = to_graph(rc)
            assert re_root(g, 0) == rc


def test_encoding_round_trip():
    for rc in oracle.generate_rooted(3, 3):
        assert parse_rooted(encode_rooted(rc)) == rc


def test_canonical_unrooted():
    # all rootings of one cactus share a key
    for rc in oracle.generate_rooted(2, 4):
        g = to_graph(rc)
        keys = {canonical_unrooted(to_graph(re_root(g, pid)))
                for pid in range(len(g.polygons))}
        assert len(keys) == 1
    # the 3-vertex paths colored 1-2-1 and 2-1-2 are distinct classes, each
    # with a single rooting up to isomorphism (the end swap is an automorphism)
    path_rootings = oracle.generate_rooted(2, 2)
    assert len(path_rootings) == 2
    keys = {canonical_unrooted(to_graph(rc)) for rc in path_rootings}
    assert len(keys) == 2
    # the 4-vertex path 1-2-1-2 is a single class with three distinct rootings
    classes = oracle.enumerate_unlabelled(2, 3)
    path = [st for _, st in classes if st.degrees.rows == (((1, 1), (2, 1)),) * 2]
    assert len(path) == 1 and path[0].aut_order == 1
    # sharing at color 1 vs color 2 gives different cacti
    m3p2 = oracle.generate_rooted(3, 2)
    keys = {canonical_unrooted(to_graph(rc)) for rc in m3p2}
    assert len(keys) == 3


def test_enumerate_unlabelled():
    reps = oracle.enumerate_unlabelled(3, 2)
    assert len(reps) == 3
    assert all(st.aut_order == 2 for _, st in reps)

    reps = oracle.enumerate_unlabelled(2, 1)
    assert len(reps) == 1 and reps[0][1].aut_order == 1

    reps = oracle.enumerate_unlabelled(3, 4)
    assert len(reps) == 19
    histogram = Counter(st.aut_order for _, st in reps)
    assert histogram == {1: 10, 2: 6, 4: 3}


def test_rooting_orbit_sizes():
    for m, p in [(2, 5), (3, 4)]:
        reps = oracle.enumerate_unlabelled(m, p)
        assert sum(p // st.aut_order for _, st in reps) == len(
            oracle.generate_rooted(m, p))


def test_export_lines_parse_back():
    lines = [encode_rooted(rep)
             for rep, _ in oracle.enumerate_unlabelled(3, 3)]
    assert len(lines) == F.count_unlabelled(stats.size_stat(3, 3))
    for line in lines:
        assert encode_rooted(parse_rooted(line)) == line


def test_count_pointed_orbits():
    g = to_graph(two_triangles_shared_color1())
    assert count_pointed_orbits(g, 1) == 1
    assert count_pointed_orbits(g, 2) == 1
    single = (Planted(()),) * 3
    gs = to_graph(single)
    assert all(count_pointed_orbits(gs, c) == 1 for c in (1, 2, 3))
    # By Burnside: the centre of colour 1 is fixed, the two colour-2
    # vertices are swapped, and a single polygon has no centre vertex.
    classes = {encode_rooted(rep): st
               for rep, st in oracle.enumerate_unlabelled(3, 2)}
    st = classes[encode_rooted(two_triangles_shared_color1())]
    assert (st.centre, st.aut_order) == (1, 2)
    assert [st.pointed(c) for c in (1, 2, 3)] == [1, 1, 1]
    [(_, st)] = oracle.enumerate_unlabelled(3, 1)
    assert st.centre is None and [st.pointed(c) for c in (1, 2, 3)] == [1, 1, 1]
    for color in (0, 4, -1):
        with pytest.raises(oracle.ColorOutOfRange):
            st.pointed(color)


def test_factorizations_census():
    census = oracle.factorizations(2, 3)
    one3 = ((1, 3),)
    three = ((3, 1),)
    two_one = ((1, 1), (2, 1))
    assert census[(one3, three)] == 1
    assert census[(three, one3)] == 1
    assert census[(two_one, two_one)] == 3
    # the remaining factorization is the incoherent pair of 3-cycles
    assert census[(three, three)] == 1
    assert sum(census.values()) == 6

    assert oracle.factorizations(2, 1) == {(((1, 1),), ((1, 1),)): 1}
    with pytest.raises(oracle.BudgetExceeded):
        oracle.factorizations(2, 20)


@pytest.mark.parametrize("m", range(2, 13))
def test_factorizations_at_p_1_are_the_identity_alone(m):
    assert oracle.factorizations(m, 1) == {(((1, 1),),) * m: 1}


def test_factorizations_match_rooted_degree_counts():
    for m, p in [(2, 4), (3, 2), (3, 3)]:
        census = oracle.factorizations(m, p)
        n = (m - 1) * p + 1
        for key, count in census.items():
            try:
                d = stats.degree_stat(m, [dict(row) for row in key])
            except stats.ValidationError:
                total = sum(k for row in key for _, k in row)
                assert total != n  # incoherent keys miss the vertex count
                continue
            assert count == F.count_rooted(d)


def test_free_labelled_bruteforce():
    assert oracle.free_labelled_bruteforce(stats.color_stat(2, (2, 2))) == 4
    assert oracle.free_labelled_bruteforce(stats.color_stat(2, (1, 1))) == 1
    assert oracle.free_labelled_bruteforce(stats.color_stat(3, (2, 2, 3))) == 24
    with pytest.raises(oracle.BudgetExceeded):
        oracle.free_labelled_bruteforce(stats.color_stat(2, (4, 5)))


def test_enumerate_gonal():
    assert oracle.enumerate_gonal(3, 4) == 7
    assert oracle.enumerate_gonal(2, 1) == 1
    assert oracle.enumerate_gonal(2, 6) == 14


def test_verify_passes():
    report = oracle.verify(3, 4)
    assert report.passed and report.first_failure is None
    assert {r.p for r in report.results} == {1, 2, 3, 4}
    assert oracle.verify(2, 6).passed


@pytest.mark.parametrize("m, p_max", [(2, 6), (3, 4), (4, 3)],
                         ids=["m2-p6", "m3-p4", "m4-p3"])
def test_entries_that_verify_leaves_out_count_the_classes(m, p_max):
    """`verify` holds the `aut-atleast` entries of `formulas.centred_counts`
    to the classes at size level only, and the labelled closed form at size
    and colour level only; the colour- and degree-level strata and the
    degree-level labelled count agree with the classes too."""
    for p in range(1, p_max + 1):
        groups = {}
        for _, st in oracle.enumerate_unlabelled(m, p):
            for stat in (st.colors, st.degrees):
                groups.setdefault(stat, []).append(st)
        degrees = oracle._all_degree_matrices(m, p)
        for stat in oracle._all_color_vectors(m, p) + degrees:
            counts = F.centred_counts(stat)
            for s in range(2, p + 1):
                if p % s == 0:
                    assert counts["aut-atleast", s] == F.MODES["aut-atleast"].classes(
                        groups[stat], stat, s=s), (stat, s)
        for stat in degrees:
            assert F.MODES["labelled"].formula(stat) == F.MODES["labelled"].classes(
                groups[stat], stat), stat


def test_verify_details_name_the_first_failure(monkeypatch):
    """A closed form or a census entry off in every check: each check fails
    with the first failing comparison's label, at every level it compares,
    and every check keeps its comparison count."""
    colour = stats.color_stat(2, (2, 3))
    degree = stats.degree_stat(2, [{2: 2}, {1: 2, 2: 1}])
    rooted_degree, pointed_degree = oracle._all_degree_matrices(2, 3)[:2]
    census_degree = oracle._all_degree_matrices(2, 2)[0]
    bumps = {  # statistic -> the centred-count keys that are off by one
        stats.size_stat(2, 1): [("rooted", None), ("pointed", None)],
        stats.color_stat(2, (2, 1)): [("rooted", None)],
        stats.color_stat(2, (1, 2)): [("pointed", 2)],
        rooted_degree: [("rooted", None)],
        pointed_degree: [("pointed", 1)],
        stats.size_stat(2, 4): [("aut-atleast", 2)],
        colour: [("unlabelled", None)],
        degree: [("aut-exact", 2)],
    }
    passing = oracle.verify(2, 4)
    centred_counts, count_labelled = F.centred_counts, F.count_labelled
    factorizations = oracle.factorizations

    def off_by_one(stat, *forms):
        counts = centred_counts(stat, *forms)
        for key in bumps.get(stat, []):
            counts[key] += 1
        return counts

    def labelled_off_by_one(stat):
        bumped = stat in (stats.size_stat(2, 2), stats.color_stat(2, (2, 2)))
        return count_labelled(stat) + bumped

    def census_off(m, p):
        census = factorizations(m, p)
        if p == 2:
            census[census_degree.rows] += 1
        if p == 4:  # a coherent key of another size
            census[rooted_degree.rows] = 1
        return census

    monkeypatch.setattr(F, "centred_counts", off_by_one)
    monkeypatch.setattr(F, "count_labelled", labelled_off_by_one)
    monkeypatch.setattr(oracle, "factorizations", census_off)
    report = oracle.verify(2, 4)
    assert [(r.name, r.p, r.comparisons) for r in report.results] == [
        (r.name, r.p, r.comparisons + ((r.name, r.p) == ("factorizations", 4)))
        for r in passing.results]
    assert [(r.name, r.p, r.detail) for r in report.results if not r.passed] == [
        ("rooted size", 1, "count: expected 2, got 1"),
        ("pointed orbits", 1, "size: expected 3, got 2"),
        ("rooted color", 2, "(2, 1): expected 2, got 1"),
        ("labelled", 2, "size: expected 7, got 6"),
        ("pointed orbits", 2, "color (1, 2) @2: expected 2, got 1"),
        ("factorizations", 2, "census (((2, 1),), ((1, 2),)): expected 1, got 2"),
        ("rooted degree", 3, "(((3, 1),), ((1, 3),)): expected 2, got 1"),
        ("classes degree", 3,
         "reciprocal (((3, 1),), ((1, 3),)): expected 2, got 1"),
        ("labelled", 3, "color (2, 2): expected 5, got 4"),
        ("pointed orbits", 3,
         "degree (((1, 1), (2, 1)), ((1, 1), (2, 1))) @1: expected 3, got 2"),
        ("factorizations", 3, "census (((3, 1),), ((1, 3),)): expected 2, got 1"),
        ("classes size", 4, "aut>=2: expected 5, got 4"),
        ("classes color", 4, "unlabelled (2, 3): expected 3, got 2"),
        ("classes degree", 4,
         "aut=2 (((2, 2),), ((1, 2), (2, 1))): expected 2, got 1"),
        ("factorizations", 4,
         "incoherent (((3, 1),), ((1, 3),)): expected False, got True")]
    assert report.first_failure.name == "rooted size"
