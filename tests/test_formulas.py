import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gonal_reference
from stats_reference import shift

from cacti import formulas as F
from cacti import oracle, stats
from cacti.arith import binomial, divisors, euler_phi
from cacti.formulas import AutMode, GonalKind


def size(m, p):
    return stats.size_stat(m, p)


def color(m, counts):
    return stats.color_stat(m, counts)


def degree(text):
    return stats.parse_degree_spec(text)


class TestRooted:
    def test_published_values(self):
        assert F.count_rooted(color(2, (5, 6))) == 5292
        assert F.count_rooted(degree("1^2 2^2 4^1; 1^2 2^4")) == 150
        assert F.count_rooted(degree("1^2 2^1; 1^2 2^1; 1^2 2^1")) == 16
        assert F.count_rooted(color(3, (6, 6, 7))) == 28224
        assert F.count_rooted(color(4, (3, 4, 4, 5))) == 50

    def test_trivial(self):
        assert F.count_rooted(size(2, 1)) == 1
        assert F.count_rooted(size(5, 0)) == 0
        assert F.count_rooted(color(3, (0, 1, 0))) == 0

    def test_size_matches_oracle(self):
        for m, p in [(2, 5), (3, 3), (4, 2)]:
            assert F.count_rooted(size(m, p)) == len(oracle.generate_rooted(m, p))


class TestLabelled:
    def test_small_values(self):
        assert F.count_labelled(color(2, (2, 2))) == 4
        assert F.count_labelled(size(3, 2)) == 180
        assert F.count_labelled(color(2, (1, 1))) == 1
        assert F.count_labelled(size(4, 0)) == 1

    def test_bicolored_tree_specialization(self):
        # for m = 2 the count is n1^(n2-1 rising) * n2^(n1-1 rising)
        for n1, n2 in [(2, 3), (3, 3), (4, 5), (1, 6)]:
            c = color(2, (n1, n2))
            expected = (math.prod(range(n1, n1 + n2 - 1))
                        * math.prod(range(n2, n2 + n1 - 1)))
            assert F.count_labelled(c) == expected

    def test_matches_oracle_labelling_count(self):
        # labelled = sum over classes of labellings / |Aut|: n! at size
        # level, prod n_i! at colour and degree level
        for m, p in [(2, p) for p in range(1, 6)] + [(3, p) for p in range(1, 4)]:
            classes = [st_ for _, st_ in oracle.enumerate_unlabelled(m, p)]
            n = (m - 1) * p + 1
            assert F.count_labelled(size(m, p)) == sum(
                Fraction(math.factorial(n), st_.aut_order) for st_ in classes)
            totals = {}
            for st_ in classes:
                weight = math.prod(math.factorial(c) for c in st_.colors.counts)
                for key in (st_.colors, st_.degrees):
                    totals[key] = totals.get(key, 0) + Fraction(weight, st_.aut_order)
            for stat in (oracle._all_color_vectors(m, p)
                         + oracle._all_degree_matrices(m, p)):
                assert F.count_labelled(stat) == totals.get(stat, 0)


class TestPointed:
    def test_published_values(self):
        d = degree("1^2 2^2 4^1; 1^2 2^4")
        assert F.count_pointed(d, 1) == 76
        assert F.count_pointed(d, 2) == 90
        assert F.count_pointed(size(2, 1)) == 2
        assert F.count_pointed(size(3, 4)) == 129
        assert F.count_pointed(color(3, (1, 2, 2)), 2) == 1

    def test_level_color_contract(self):
        with pytest.raises(F.ColorForbidden):
            F.count_pointed(size(3, 2), 1)
        with pytest.raises(F.ColorRequired):
            F.count_pointed(color(3, (1, 2, 2)))
        with pytest.raises(F.ColorOutOfRange):
            F.count_pointed(color(3, (1, 2, 2)), 4)

    def test_single_vertex_convention(self):
        assert F.count_pointed(size(3, 0)) == 1
        assert F.count_pointed(color(3, (1, 0, 0)), 1) == 1


class TestUnlabelledAsymmetric:
    def test_published_values(self):
        assert F.count_unlabelled(size(3, 4)) == 19
        assert F.count_unlabelled(color(3, (4, 4, 5))) == 39
        assert F.count_unlabelled(degree("1^2 2^1; 1^2 2^1; 1^2 2^1")) == 4
        assert F.count_unlabelled(size(7, 2)) == 7
        assert F.count_asymmetric(size(3, 4)) == 10
        assert F.count_asymmetric(color(2, (5, 6))) == 523
        assert F.count_asymmetric(degree("2^2; 1^2 2^1; 1^4")) == 0

    def test_single_vertex(self):
        assert F.count_unlabelled(size(2, 0)) == 1
        assert F.count_asymmetric(size(6, 0)) == 1


class TestAutStrata:
    def test_ternary_p4(self):
        s = size(3, 4)
        assert F.count_aut(s, 2, AutMode.EXACTLY) == 6
        assert F.count_aut(s, 4, AutMode.EXACTLY) == 3
        assert F.count_aut(s, 3, AutMode.EXACTLY) == 0
        assert F.count_aut(s, 2, AutMode.AT_LEAST) == 9

    def test_contract(self):
        with pytest.raises(F.STooSmall):
            F.count_aut(size(3, 4), 1, AutMode.EXACTLY)
        assert F.count_aut(size(3, 0), 2, AutMode.EXACTLY) == 0

    def test_matches_oracle_strata(self):
        for m, p in [(2, 5), (3, 4)]:
            classes = oracle.enumerate_unlabelled(m, p)
            for s in range(2, p + 1):
                expected = sum(1 for _, st_ in classes if st_.aut_order == s)
                assert F.count_aut(size(m, p), s, AutMode.EXACTLY) == expected


class TestReciprocalSum:
    """The sum of 1/|Aut| over the classes of a degree statistic is rooted / p:
    a class has p/|Aut| rootings."""

    @staticmethod
    def reciprocal(d):
        return Fraction(F.count_rooted(d), d.p)

    def test_values(self):
        assert self.reciprocal(degree("1^2 2^1; 1^2 2^1; 1^2 2^1")) == 4
        assert self.reciprocal(degree("1^2 2^2 4^1; 1^2 2^4")) == 15
        assert self.reciprocal(degree("1; 1; 1")) == 1

    def test_reduced(self):
        d = degree("1^2; 1^2; 2^1")
        value = self.reciprocal(d)
        assert value == Fraction(1, 2)
        assert value == sum(Fraction(1, st.aut_order) for _, st
                            in oracle.enumerate_unlabelled(3, 2) if st.degrees == d)


class TestGonal:
    def test_published_values(self):
        assert F.count_gonal(3, 4, GonalKind.UNLABELLED) == 7
        assert F.count_gonal(2, 12, GonalKind.UNLABELLED) == 8714
        assert F.count_gonal(5, 0, GonalKind.UNLABELLED) == 1
        assert F.count_gonal(2, 2, GonalKind.LABELLED) == 3

    def test_p0_kinds(self):
        for kind in GonalKind:
            expected = 0 if kind is GonalKind.ROOTED else 1
            assert F.count_gonal(4, 0, kind) == expected

    def test_single_polygon(self):
        for m in range(2, 6):
            assert F.count_gonal(m, 1, GonalKind.UNLABELLED) == 1
            assert F.count_gonal(m, 1, GonalKind.ROOTED) == 1

    def test_combination(self):
        for m, p in [(2, 5), (3, 4), (4, 6)]:
            parts = [F.count_gonal(m, p, k) for k in
                     (GonalKind.POINTED, GonalKind.ROOTED, GonalKind.PLANTED)]
            assert F.count_gonal(m, p, GonalKind.UNLABELLED) == (
                parts[0] + parts[1] - parts[2])

    @pytest.mark.parametrize("kind", list(GonalKind), ids=lambda k: k.value)
    def test_matches_reference(self, kind):
        for m in range(2, 12):
            for p in range(151):
                assert F.count_gonal(m, p, kind) == gonal_reference.count_gonal(
                    m, p, kind), (m, p)

    def test_burnside_over_colour_rotations(self):
        # Uncoloured = (p * coloured + T) / (mp), with T the cacti fixed by
        # the colour rotations of order d >= 2.
        for m in range(2, 12):
            for p in range(1, 151):
                fixed = sum(euler_phi(d) * binomial(m * p // d, (p - 1) // d)
                            for d in divisors(math.gcd(m, p - 1)) if d >= 2)
                for kind, coloured in [
                        (GonalKind.UNLABELLED, F.count_unlabelled(size(m, p))),
                        (GonalKind.ROOTED, F.count_rooted(size(m, p)))]:
                    assert m * p * gonal_reference.count_gonal(m, p, kind) == (
                        p * coloured + fixed), (m, p, kind)


class TestFreeLabelled:
    def test_values(self):
        assert F.count_free_labelled(color(2, (2, 2))) == 4
        assert F.count_free_labelled(color(3, (2, 2, 3))) == 24
        assert F.count_free_labelled(color(2, (1, 1))) == 1

    def test_free_bicolored_tree_specialization(self):
        for n1, n2 in [(2, 3), (3, 4), (2, 5)]:
            c = color(2, (n1, n2))
            assert F.count_free_labelled(c) == n1 ** (n2 - 1) * n2 ** (n1 - 1)


class TestConstellations:
    def test_values(self):
        for m in range(2, 8):
            assert F.count_constellation_rooted(m, 1) == 1
        assert F.count_constellation_rooted(2, 2) == 3
        assert F.count_constellation_rooted(2, 3) == 12

    def test_integrality(self):
        for m in range(2, 8):
            for p in range(1, 31):
                assert isinstance(F.count_constellation_rooted(m, p), int)

    def test_contract(self):
        with pytest.raises(F.NonPositiveP):
            F.count_constellation_rooted(3, 0)


def _valid_color_vectors(m, p):
    n = (m - 1) * p + 1

    def rec(remaining, slots):
        if slots == 1:
            return [(remaining,)] if 1 <= remaining <= p else []
        return [(h,) + rest for h in range(1, p + 1)
                for rest in rec(remaining - h, slots - 1)]

    return [stats.color_stat(m, v) for v in rec(n, m)]


def _assert_moebius_phi_duality(stat):
    """aut-atleast s sums aut-exact t over s | t | p, and unlabelled sums it
    over t | p, with the asymmetric count at t = 1."""
    p = stat.p
    exact = {t: F.count_aut(stat, t, AutMode.EXACTLY) if t > 1
             else F.count_asymmetric(stat) for t in divisors(p)}
    assert F.count_unlabelled(stat) == sum(exact.values())
    for s in exact:
        if s > 1:
            assert F.count_aut(stat, s, AutMode.AT_LEAST) == sum(
                count for t, count in exact.items() if t % s == 0)


class TestIdentities:
    @pytest.mark.parametrize("m,p", [(2, 4), (2, 7), (3, 4), (4, 3)])
    def test_dissymmetry_size(self, m, p):
        s = size(m, p)
        assert F.count_pointed(s) == (
            F.count_unlabelled(s) + (m - 1) * F.count_rooted(s))

    @pytest.mark.parametrize("m,p", [(2, 5), (3, 4)] + [(m, 0) for m in range(2, 6)])
    def test_dissymmetry_color(self, m, p):
        """Pointed at each colour, summed, is unlabelled plus (m - 1) rooted;
        at p = 0 over the lone vertex of each colour, at colour and degree
        level, where it is pointed once, at its own colour."""
        lone = [[int(j == i) for j in range(m)] for i in range(m)]
        statistics = _valid_color_vectors(m, p) if p else (
            [color(m, counts) for counts in lone]
            + [stats.degree_stat(m, [{0: k} for k in counts]) for counts in lone])
        for c in statistics:
            lhs = sum(F.count_pointed(c, i) for i in range(1, m + 1))
            assert lhs == F.count_unlabelled(c) + (m - 1) * F.count_rooted(c), c

    @pytest.mark.parametrize("m,p", [(2, 6), (3, 4), (5, 6)])
    def test_labelled_rooted_bridge(self, m, p):
        s = size(m, p)
        assert p * F.count_labelled(s) == math.factorial(s.n) * F.count_rooted(s)
        for c in _valid_color_vectors(m, p)[:20]:
            labellings = math.prod(math.factorial(x) for x in c.counts)
            assert p * F.count_labelled(c) == labellings * F.count_rooted(c)

    @pytest.mark.parametrize("m,p", [(2, 5), (3, 3)])
    def test_labelled_rooted_bridge_degree_level(self, m, p):
        for d in oracle._all_degree_matrices(m, p):
            labellings = math.prod(math.factorial(x) for x in d.color_counts)
            assert p * F.count_labelled(d) == labellings * F.count_rooted(d)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=30))
    @settings(max_examples=60)
    def test_stratification_size(self, m, p):
        s = size(m, p)
        total = F.count_asymmetric(s)
        total += sum(F.count_aut(s, k, AutMode.EXACTLY)
                     for k in range(2, p + 1) if p % k == 0)
        assert total == F.count_unlabelled(s)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=24))
    @settings(max_examples=60)
    def test_moebius_phi_duality_size(self, m, p):
        _assert_moebius_phi_duality(size(m, p))

    @pytest.mark.parametrize("m,p", [(2, 6), (3, 4), (4, 3)])
    def test_moebius_phi_duality_color(self, m, p):
        for c in _valid_color_vectors(m, p):
            _assert_moebius_phi_duality(c)

    @pytest.mark.parametrize("m,p", [(2, 6), (3, 4)])
    def test_moebius_phi_duality_degree(self, m, p):
        for d in oracle._all_degree_matrices(m, p):
            _assert_moebius_phi_duality(d)

    @pytest.mark.parametrize("m,p", [(3, 4), (4, 3)])
    def test_shift_covariance(self, m, p):
        for c in _valid_color_vectors(m, p):
            for i in range(1, m + 1):
                assert F.count_pointed(c, i) == F.count_pointed(
                    shift(c, i - 1), 1)

    @pytest.mark.parametrize("m,p", [(2, 6), (3, 4)])
    def test_color_marginalization(self, m, p):
        vectors = _valid_color_vectors(m, p)
        assert sum(F.count_rooted(c) for c in vectors) == F.count_rooted(size(m, p))
        assert sum(F.count_unlabelled(c) for c in vectors) == F.count_unlabelled(size(m, p))
