import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stats_reference import shift

from cacti import oracle, stats


def test_color_validation():
    c = stats.color_stat(3, (4, 4, 5))
    assert c.p == 6 and c.n == 13
    assert stats.color_stat(2, (1, 1)).p == 1
    with pytest.raises(stats.NonIntegralP):
        stats.color_stat(3, (4, 4, 4))
    with pytest.raises(stats.ColorBoundViolation):
        stats.color_stat(2, (5, 0))
    with pytest.raises(stats.ValidationError):
        stats.color_stat(1, (3,))
    with pytest.raises(stats.ValidationError):
        stats.color_stat(2, (3, -1))


def test_size_validation():
    s = stats.size_stat(3, 0)
    assert s.n == 1 and s.p == 0
    assert stats.size_stat(2, 5).n == 6
    with pytest.raises(stats.ValidationError):
        stats.size_stat(2, -1)


def test_degree_validation():
    d = stats.parse_degree_spec("1^2 2^2 4^1; 1^2 2^4")
    assert d.p == 10 and d.n == 11 and d.color_counts == (5, 6)
    with pytest.raises(stats.RowSumMismatch):
        stats.parse_degree_spec("1^5 3^2; 2^7")
    # a degree-0 vertex is rejected once p >= 1
    with pytest.raises(stats.IsolatedDegreeZero):
        stats.degree_stat(2, [{1: 1, 2: 1}, {3: 1, 0: 1}])
    # the single-vertex cactus is the one valid degree-0 carrier
    single = stats.degree_stat(2, [{0: 1}, {}])
    assert single.p == 0 and single.n == 1
    # coherent row sums but wrong vertex total
    with pytest.raises(stats.NonIntegralP):
        stats.degree_stat(2, [{3: 1}, {3: 1}])


def test_degree_spec_grammar():
    d = stats.parse_degree_spec("1^5 3^3; 2^7")
    assert d.p == 14
    assert stats.parse_degree_spec("1;1;1").p == 1
    with pytest.raises(stats.DuplicateDegree):
        stats.parse_degree_spec("1^2 1^3; 2^7")
    with pytest.raises(stats.DegreeSpecError):
        stats.parse_degree_spec("1^2 x; 2^7")
    with pytest.raises(stats.DegreeSpecError):
        stats.parse_degree_spec("0^2; 2^7")
    with pytest.raises(stats.DegreeSpecError):
        stats.parse_degree_spec("1^2;; 1^2")


def test_color_marginal():
    d = stats.parse_degree_spec("1^2 2^2 4^1; 1^2 2^4")
    assert stats.color_marginal(d).counts == (5, 6)
    single = stats.parse_degree_spec("1; 1; 1")
    assert stats.color_marginal(single).counts == (1, 1, 1)
    quaternary = stats.parse_degree_spec(
        "1^7 2^1 4^1; 1^7 2^3; 1^8 2^1 3^1; 1^9 2^2")
    assert stats.color_marginal(quaternary).counts == (9, 10, 10, 11)
    assert quaternary.p == 13 and quaternary.n == 40


def test_shift():
    c = stats.color_stat(3, (4, 5, 6))
    assert shift(c, 1).counts == (5, 6, 4)
    assert shift(c, 3) == c
    assert shift(shift(c, 1), 2) == c
    d = stats.parse_degree_spec("1^2 2^2 4^1; 1^2 2^4")
    assert shift(d, 2) == d
    assert shift(d, 1).color_counts == (6, 5)
    assert shift(d, 1).p == d.p
    with pytest.raises(TypeError):
        shift(stats.size_stat(2, 3), 1)


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(h,) + rest for h in range(total + 1)
            for rest in _compositions(total - h, parts - 1)]


def _all_valid_vectors():
    out = []
    for m in (2, 3, 4):
        for p in range(1, 6):
            n = (m - 1) * p + 1
            for counts in _compositions(n, m):
                if all(1 <= c <= p for c in counts):
                    out.append(stats.color_stat(m, counts))
    return out


@given(st.sampled_from(_all_valid_vectors()), st.integers(min_value=0, max_value=8))
def test_shift_is_bijective_and_preserves_p(c, k):
    shifted = shift(c, k)
    assert shifted.p == c.p
    assert sorted(shifted.counts) == sorted(c.counts)
    assert shift(shifted, c.m - k % c.m) == c


@pytest.mark.parametrize("m,p", [(2, 4), (3, 3), (4, 2)])
def test_degree_validity_implies_marginal_validity(m, p):
    for d in oracle._all_degree_matrices(m, p):
        marginal = stats.color_marginal(d)
        assert marginal.p == d.p


@pytest.mark.parametrize("m,p_max", [(2, 4), (3, 4)])
def test_color_acceptance_matches_existence(m, p_max):
    # Exhaustive check that validation accepts a color vector exactly when
    # some cactus realizes it.
    for p in range(1, p_max + 1):
        n = (m - 1) * p + 1
        realized = {st_.colors.counts
                    for _, st_ in oracle.enumerate_unlabelled(m, p)}
        for counts in _compositions(n, m):
            try:
                stats.color_stat(m, counts)
                accepted = True
            except stats.ValidationError:
                accepted = False
            assert accepted == (counts in realized), counts


@pytest.mark.parametrize("m,p_max", [(2, 3), (3, 3)])
def test_degree_acceptance_matches_existence(m, p_max):
    from collections import Counter

    def partitions(total, max_part):
        if total == 0:
            return [()]
        return [(part,) + rest
                for part in range(min(total, max_part), 0, -1)
                for rest in partitions(total - part, part)]

    for p in range(1, p_max + 1):
        realized = {st_.degrees.rows
                    for _, st_ in oracle.enumerate_unlabelled(m, p)}
        rows = [tuple(sorted(Counter(parts).items()))
                for parts in partitions(p, p)]
        from itertools import product
        for combo in product(rows, repeat=m):
            try:
                stats.degree_stat(m, [dict(r) for r in combo])
                accepted = True
            except stats.ValidationError:
                accepted = False
            assert accepted == (combo in realized), combo


@pytest.mark.parametrize("factory, cls, m, raw, direct", [
    (stats.size_stat, stats.SizeStat, 2, -1, -1),
    (stats.size_stat, stats.SizeStat, 1, 3, 3),
    (stats.color_stat, stats.ColorStat, 3, (4, 4, 4), (4, 4, 4)),
    (stats.color_stat, stats.ColorStat, 2, (5, 0), (5, 0)),
    (stats.color_stat, stats.ColorStat, 2, (3, -1), (3, -1)),
    (stats.color_stat, stats.ColorStat, 3, (2, 2), (2, 2)),
    (stats.degree_stat, stats.DegreeStat, 2, [{1: 5, 3: 2}, {2: 7}],
     (((1, 5), (3, 2)), ((2, 7),))),
    (stats.degree_stat, stats.DegreeStat, 2, [{1: 1, 2: 1}, {0: 1, 3: 1}],
     (((1, 1), (2, 1)), ((0, 1), (3, 1)))),
    (stats.degree_stat, stats.DegreeStat, 2, [{3: 1}, {3: 1}],
     (((3, 1),), ((3, 1),))),
    (stats.degree_stat, stats.DegreeStat, 2, [{1: -1}, {}], (((1, -1),), ())),
    (stats.degree_stat, stats.DegreeStat, 3, [{1: 1}, {1: 1}],
     (((1, 1),), ((1, 1),))),
])
def test_direct_construction_raises_like_its_factory(factory, cls, m, raw, direct):
    with pytest.raises(stats.ValidationError) as by_factory:
        factory(m, raw)
    with pytest.raises(stats.ValidationError) as by_class:
        cls(m, direct)
    assert type(by_class.value) is type(by_factory.value)
    assert str(by_class.value) == str(by_factory.value)


def test_direct_degree_rows_must_be_in_normal_form():
    for rows in ((((1, 1), (1, 1)), ((2, 1),)),   # a degree twice in one row
                 (((2, 1), (1, 1)), ((1, 1), (2, 1))),   # unsorted
                 (((1, 0), (2, 1)), ((1, 1),))):   # zero multiplicity
        with pytest.raises(stats.ValidationError):
            stats.DegreeStat(2, rows)



@pytest.mark.parametrize("stat, fields, sizes, text", [
    (stats.color_stat(3, (4, 4, 5)), (3, (4, 4, 5)), (6, 13),
     "ColorStat(m=3, counts=(4, 4, 5))"),
    (stats.parse_degree_spec("1^2 2^2 4^1; 1^2 2^4"),
     (2, (((1, 2), (2, 2), (4, 1)), ((1, 2), (2, 4)))), (10, 11),
     "DegreeStat(m=2, rows=(((1, 2), (2, 2), (4, 1)), ((1, 2), (2, 4))))"),
], ids=["color", "degree"])
def test_cached_sizes_leave_equality_hash_and_repr_alone(stat, fields, sizes, text):
    """`p`, `n` and `color_counts` are stored on the object by validation,
    not as fields: the oracle's tallies key by statistics, so they must not
    change a statistic's fields, nor how it compares, hashes or prints."""
    fresh = type(stat)(*fields)
    assert tuple(getattr(fresh, f.name) for f in dataclasses.fields(fresh)) == fields
    stored = vars(fresh)  # set at construction, before any read
    assert (stored["p"], stored["n"]) == sizes
    assert all(name not in vars(type(fresh)) for name in ("p", "n", "color_counts"))
    assert (stat.p, stat.n) == sizes
    if isinstance(stat, stats.DegreeStat):
        assert stat.color_counts == (5, 6)
    assert stat == fresh and hash(stat) == hash(fresh) == hash(fields)
    assert repr(stat) == repr(fresh) == text
    assert {fresh: 1}[stat] == 1
