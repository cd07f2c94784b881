import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import series_reference as ref
from inversion_reference import CoherenceViolation, chottin_extract

import cacti
from cacti import formulas as F
from cacti import oracle, series, stats
from cacti.arith import euler_phi, moebius_mu

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cacti.__file__)))


def weighted_family(m: int, order: int) -> series.PlantedFamily:
    """The unboxed weighted planted family: A_i = x_i * sum_{h>=1} r[i,h] *
    hat(A_i)^(h-1), where r[i,h] marks a color-i vertex of degree h, for
    h <= (order - 1) // (m - 1) + 1, the planted root's stem included."""
    slots = tuple((i, h) for i in range(1, m + 1)
                  for h in range(1, (order - 1) // (m - 1) + 2))
    return series.solve_planted(m, order, slots)


def _solved(kind: str, m: int, order: int) -> tuple[list, list]:
    """A_i and H_i of every color as reference series, for a family of one
    `kind`: "one-sort", whose colors share the solver's list A; "planted",
    one x per color; or "weighted".  H_i is the reference product."""
    if kind == "one-sort":
        a = ref.one_sort(m, order)
        return [a] * m, [ref.power(a, m - 1)] * m
    fam = (weighted_family if kind == "weighted" else series.solve_planted)(m, order)
    return ([ref.planted(fam, i) for i in range(1, m + 1)],
            [ref.hat(fam, i) for i in range(1, m + 1)])


def _exponent(fam: series.PlantedFamily, d: stats.DegreeStat) -> tuple:
    """A degree statistic's exponent in a weighted family: color counts, then
    the multiplicity of each marker slot (color, degree)."""
    rows = [dict(row) for row in d.rows]
    return d.color_counts + tuple(rows[i - 1].get(h, 0) for i, h in fam.slots)


def collapse_to_one_sort(coeffs: dict) -> dict:
    out: dict = {}
    for e, c in coeffs.items():
        key = (sum(e),)
        out[key] = out.get(key, 0) + c
    return out


def _forms(stat: stats.Statistic) -> list:
    """Every mode's `Centres` at `stat`, each colour's pointed form and the
    strata s = 2 and 3 included; modes that read neither option repeat."""
    colors = [None] if isinstance(stat, stats.SizeStat) else range(1, stat.m + 1)
    return [entry.centres(stat, color=color, s=s) for entry in F.MODES.values()
            if entry.centres for color in colors for s in (2, 3)]


class TestCentred:
    """`series.centred`, the one reader of `formulas.Centres` on the series
    side, on either layout of a family."""

    @pytest.mark.parametrize("kind, m", [
        ("planted", 3), ("boxed", 3), ("weighted", 2),
        ("one-sort", 2), ("one-sort", 3), ("one-sort", 7)])
    def test_a_batch_reads_each_form_as_alone(self, kind, m):
        if kind == "one-sort":
            order = series.SERIES_ONE_SORT_BOUND
            stat = stats.size_stat(m, (order - 1) // (m - 1))
            family = series.solve_one_sort(m, order)
        elif kind == "weighted":  # rooted and labelled forms: no colours
            stat = stats.parse_degree_spec("1^2 2^1; 1^1 3^1")
            family = weighted_family(m, 7)
        else:
            stat = stats.color_stat(m, (2, 2, 3))
            family = (series.solve_planted(m, 10) if kind == "planted"
                      else series.solve_planted(m, stat.n, (), stat.counts))
        forms = [f for f in _forms(stat) if kind != "weighted" or not f.colors]
        batch = forms + forms[::3]
        random.Random(kind).shuffle(batch)
        assert len({f.rooted for f in batch}) > 1 < len(set(batch)) < len(batch)
        assert series.centred(family, batch) == [
            series.centred(family, [form])[0] for form in batch]

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_the_lone_vertex_counts_once(self, m):
        """x, the cactus of no polygon, is 1 in every s = 1 series with
        colours and 0 in R: once on lists, whose colours share one centre,
        and once per colour x_i of the form in a packed family."""
        forms = _forms(stats.size_stat(m, 1))
        lists = series.centred(series.solve_one_sort(m, 2 * m - 1), forms)
        for form, coeffs in zip(forms, lists):
            assert coeffs[1] == (form.s == 1 and bool(form.colors)), form
        fam = series.solve_planted(m, m)
        forms = _forms(stats.color_stat(m, (1,) * m))
        for form, coeffs in zip(forms, series.centred(fam, forms)):
            for i in range(1, m + 1):
                x_i = fam.pack([int(j == i) for j in range(1, m + 1)])
                assert coeffs.get(x_i, 0) == (form.s == 1 and i in form.colors), form

    @pytest.mark.parametrize("kind", ["planted", "one-sort"])
    def test_each_centre_is_solved_once_per_call(self, monkeypatch, kind):
        """A key is (colour, weight, s) packed, and (weight, s) on lists,
        the arguments after the family, or after m and A."""
        calls = []
        name, skip = ("_centre", 1) if kind == "planted" else ("one_sort_centre", 2)
        solve = getattr(series, name)
        monkeypatch.setattr(series, name,
                            lambda *args: calls.append(args[skip:]) or solve(*args))
        if kind == "planted":
            stat, family = stats.color_stat(3, (2, 2, 3)), series.solve_planted(3, 7)
            keys = {(c, f.weight, f.s) for f in _forms(stat) for c in f.colors}
        else:
            stat, family = stats.size_stat(3, 4), series.solve_one_sort(3, 9)
            keys = {(f.weight, f.s) for f in _forms(stat) if f.colors}
        series.centred(family, _forms(stat) * 2)
        assert len(calls) == len(set(calls)) == len(keys) > 2


class TestPlanted:
    def test_first_coefficients(self):
        fam = series.solve_planted(2, 8)
        assert series.series_planted(fam, 1)[(1, 0)] == 1
        assert (ref.planted(fam, 1) * ref.planted(fam, 2))[(3, 3)] == 20

    def test_defining_equation_residual(self):
        for m, order in [(2, 8), (3, 9)]:
            fam = series.solve_planted(m, order)
            for i in range(1, m + 1):
                expected = ref.geometric(ref.hat(fam, i)).shift(i - 1)
                assert expected == ref.planted(fam, i)
                assert expected.coeffs == series.series_planted(fam, i)

    @pytest.mark.parametrize("m, order, kind", [
        (2, 9, "planted"), (3, 10, "planted"), (4, 13, "planted"), (3, 9, "boxed"),
        (2, 20, "one-sort"), (3, 20, "one-sort"), (2, 7, "weighted"),
        (3, 7, "weighted")])
    def test_kept_rooted_is_the_product_of_all_planted_series(self, m, order, kind):
        """The kept R, or A - x on lists, is A_1 ... A_m to the order, and
        in a boxed family to the box."""
        if kind == "one-sort":
            kept = series._rooted(series.solve_one_sort(m, order))
            assert ({(n,): c for n, c in enumerate(kept) if c}
                    == ref.power(ref.one_sort(m, order), m).coeffs)
            return
        fam = (weighted_family(m, order) if kind == "weighted"
               else series.solve_planted(m, order, (), (3, 3, 3) if kind == "boxed"
                                         else None))
        product = ref.rooted(fam)  # the reference's A_1 ... A_m
        assert product.coeffs and ref.whole(fam, fam.rooted) == product

    def test_weighted_residual_and_single_polygon(self):
        m, order = 3, 7
        fam = weighted_family(m, order)
        width = m + len(fam.slots)
        for i in range(1, m + 1):
            hat = ref.hat(fam, i)
            power = ref.Series(m, order, {(0,) * width: 1})
            total = ref.Series(m, order, {})
            for h in range(1, (order - 1) // (m - 1) + 2):
                total = total + power.shift(m + fam.slots.index((i, h)))
                power = power * hat
            assert total.shift(i - 1) == ref.planted(fam, i)
        rooted = ref.rooted(fam)
        single = {e: c for e, c in rooted.coeffs.items() if e[:m] == (1, 1, 1)}
        assert single == {_exponent(fam, stats.parse_degree_spec("1; 1; 1")): 1}

    def test_weighted_collapse(self):
        for m in (2, 3):
            weighted = weighted_family(m, 7)
            plain = series.solve_planted(m, 7)
            for i in range(1, m + 1):
                collapsed: dict = {}
                for e, c in series.series_planted(weighted, i).items():
                    collapsed[e[:m]] = collapsed.get(e[:m], 0) + c
                assert collapsed == series.series_planted(plain, i)

    def test_weighted_monomials_count_degree_distributions(self):
        fam = weighted_family(2, 9)
        rooted = ref.rooted(fam)
        for spec in ("1^2 2^2; 1 2 3", "1^3 3^1; 2^3"):
            d = stats.parse_degree_spec(spec)
            assert rooted[_exponent(fam, d)] == F.count_rooted(d)


class TestRootedSeries:
    def test_published_coefficients(self):
        fam = series.solve_planted(2, 11)
        assert ref.read(fam, ref.ROOTED)[(5, 6)] == 5292
        fam3 = series.solve_planted(3, 13)
        rooted = ref.read(fam3, ref.ROOTED)
        assert rooted[(1, 1, 1)] == 1
        assert rooted[(4, 4, 5)] == 225
        assert (1, 0, 0) not in rooted

    @pytest.mark.parametrize("m, order, kind", [
        (2, 11, "planted"), (3, 13, "planted"), (4, 9, "planted"), (5, 9, "planted"),
        (2, 30, "one-sort"), (5, 41, "one-sort")])
    def test_planted_equation_gives_the_full_product(self, m, order, kind):
        planted, hats = _solved(kind, m, order)
        fam = (series.solve_one_sort(m, order) if kind == "one-sort"
               else series.solve_planted(m, order))
        assert ref.read(fam, ref.ROOTED) == (hats[0] * planted[0]).coeffs

    def test_weighted_family_reads_the_product(self):
        """A weighted family has no planted shortcut: A_1 - x_1 r[1,1] is not
        H_1 * A_1, and R is the kept product, formed inside the box."""
        fam = weighted_family(2, 4)
        assert ref.read(fam, ref.ROOTED) == ref.rooted(fam).coeffs
        stem = fam.pack((1, 0) + (0,) * len(fam.slots)) + fam.pack(
            (0, 0) + tuple(int(slot == (1, 1)) for slot in fam.slots))
        assert stem in {e for part in fam.planted[0].values() for e in part}
        assert stem not in series.centred(fam, [ref.ROOTED])[0]

    @pytest.mark.parametrize("m, order, weighted", [
        (2, 9, False), (3, 10, False), (4, 9, False), (2, 9, True), (3, 7, True)])
    def test_rooted_series_equals_the_full_product(self, m, order, weighted):
        """Unboxed, and boxed at every exponent of the product (weighted: at
        its degree statistics), so that the box cuts terms of A_1 and H_1
        in every coordinate, as a count inside a statistic does."""
        fam = (weighted_family if weighted else series.solve_planted)(m, order)
        rooted = ref.rooted(fam)
        assert ref.read(fam, ref.ROOTED) == rooted.coeffs
        for e in rooted.coeffs:
            if sum(e[:m]) == order:
                boxed = series.solve_planted(m, order, fam.slots, e)
                assert ref.read(boxed, ref.ROOTED) == ref.rooted(boxed).coeffs, e
                assert series.centred(boxed, [ref.ROOTED])[0][boxed.pack(e)] == rooted[e]


class TestPointedSeries:
    def test_values(self):
        fam = series.solve_planted(2, 6)
        pointed = ref.read(fam, ref.centre(1, euler_phi))
        assert pointed[(1, 0)] == 1
        assert pointed[(2, 2)] == 2
        fam3 = series.solve_planted(3, 9)
        assert ref.read(fam3, ref.centre(2, euler_phi))[(1, 2, 2)] == 1
        assert 0 not in pointed.values()

    def test_weighted_family_rejected(self):
        fam = weighted_family(2, 4)
        with pytest.raises(stats.ValidationError):
            series.centred(fam, [ref.centre(1, euler_phi)])

    def test_weighted_family_rejected_under_optimize(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        code = ("from cacti import formulas, series, stats\n"
                "from cacti.arith import euler_phi\n"
                "slots = tuple((i, h) for i in (1, 2) for h in range(1, 5))\n"
                "weighted = series.solve_planted(2, 4, slots)\n"
                "try:\n"
                "    series.centred(weighted, [formulas.Centres((1,), euler_phi, 1, 0)])\n"
                "except stats.ValidationError:\n"
                "    print('raised')\n")
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "raised\n"


class TestPointedAgainstReference:
    """The one-log pointed series against one log per d."""

    @pytest.mark.parametrize("m", range(2, 8))
    def test_one_sort_every_order(self, m):
        top = series.SERIES_ONE_SORT_BOUND
        full = ref.pointed_from_hat(ref.power(ref.one_sort(m, top), m - 1), top)
        for order in range(1, top + 1):
            _, a = series.solve_one_sort(m, order)
            got = series.one_sort_centre(m, a, euler_phi)
            assert got == [full[(n,)] for n in range(order + 1)]
            assert all(type(c) is int for c in got)

    @pytest.mark.parametrize("m", [2, 3])
    def test_every_color_at_multi_bound(self, m):
        fam = series.solve_planted(m, series.SERIES_MULTI_BOUND)
        for color in range(1, m + 1):
            assert (ref.read(fam, ref.centre(color, euler_phi))
                    == ref.pointed(fam, color).coeffs)

    @pytest.mark.parametrize("m, order", [(2, 12), (3, 13)])
    def test_boxed_color_level_reads(self, m, order):
        fam = series.solve_planted(m, order)
        pointed = [ref.pointed(fam, c) for c in range(1, m + 1)]
        rooted = ref.rooted(fam)
        for p in range(1, (order - 1) // (m - 1) + 1):
            for counts in _color_vectors(m, p):
                c = stats.color_stat(m, counts)
                boxed = series.solve_planted(m, c.n, (), counts)
                for color in range(1, m + 1):
                    assert (ref.read(boxed, ref.centre(color, euler_phi))
                            == ref.pointed(boxed, color).coeffs)
                    assert (series.count("pointed", c, color=color)
                            == pointed[color - 1][counts])
                assert series.count("unlabelled", c) == (
                    sum(s[counts] for s in pointed) - (m - 1) * rooted[counts])

    @pytest.mark.parametrize("m, p", [(2, 6), (3, 4)])
    def test_boxed_centre_forms_no_term_that_its_lift_leaves(self, monkeypatch, m, p):
        """A term of T with x_i at its cap would read terms of R above the
        box, and its lift by x_i leaves the box: no product of the colour-i
        centre forms one."""
        formed = []
        product_part = series._product_part

        def recorded(*args):
            formed.append(product_part(*args))
            return formed[-1]

        monkeypatch.setattr(series, "_product_part", recorded)
        for c in oracle._all_color_vectors(m, p):
            fam = series.solve_planted(m, c.n, (), c.counts)
            for color in range(1, m + 1):
                formed.clear()
                series.centred(fam, [ref.centre(color, euler_phi, s) for s in (1, 2)])
                assert formed, (c.counts, color)
                assert all(fam.unpack(e)[color - 1] < c.counts[color - 1]
                           for part in formed for e in part), (c.counts, color)

    def test_non_integral_numerator_raises(self):
        """The message names the exponent as a tuple, not as its packed int."""
        with pytest.raises(stats.InconsistentResult, match=(
                r"^centre coefficient 2/3 at \(0, 3\) is not an integer$")):
            series.centred(series.solve_planted(2, 6), [ref.centre(1, lambda d: 1)])
        with pytest.raises(stats.InconsistentResult, match=(
                r"^centre coefficient \d+/\d+ at \(\d+,\) is not an integer$")):
            series.centred(series.solve_one_sort(2, 4),
                           [F.Centres(range(1, 3), lambda d: 1, 1, -1)])


class TestUnlabelledSeries:
    def test_multivariate(self):
        u = ref.read(series.solve_planted(3, 13), ref.unlabelled_form(3))
        assert u[(4, 4, 5)] == 39
        assert u[(1, 0, 0)] == 1 and u[(0, 1, 0)] == 1

    def test_one_sort(self):
        for m, order, n, count in [(3, 9, 9, 19), (2, 7, 7, 28), (4, 4, 1, 1)]:
            one_sort = series.solve_one_sort(m, order)
            assert ref.read(one_sort, ref.unlabelled_form(m))[(n,)] == count

    def test_one_sort_matches_formula_column(self):
        s = ref.read(series.solve_one_sort(2, 13), ref.unlabelled_form(2))
        for p in range(0, 13):
            assert s.get((p + 1,), 0) == F.count_unlabelled(stats.size_stat(2, p))


class TestOneSort:
    def test_planted_coefficients(self):
        assert ref.read(series.solve_one_sort(2, 8), ref.ROOTED)[(7,)] == 132
        assert series.solve_one_sort(2, 8)[1][1] == 1
        assert ref.read(series.solve_one_sort(3, 9), ref.ROOTED)[(9,)] == 55
        assert len(oracle.generate_rooted(3, 4)) == 55

    def test_support_grading(self):
        _, a = series.solve_one_sort(4, 10)
        for n, c in enumerate(a):
            assert (n % 3 == 1) == (c > 0)

    def test_cost_does_not_grow_with_m(self):
        """At m - 1 >= order, A^(m-1) is 0 within the order, so A = x,
        the centre series is x, and the reader counts x once in the
        unlabelled series: the solver forms no power past the order, no loop
        of the centre runs, the reader takes the m colours of the form as
        one list centre, and nothing is allocated in proportion to m."""
        m = 10 ** 5
        forms = [ref.unlabelled_form(m), F.MODES["asymmetric"].centres(
            stats.size_stat(m, 1)), ref.ROOTED]
        tracemalloc.start()
        try:
            family = series.solve_one_sort(m, 64)
            unlabelled, asymmetric, rooted = series.centred(family, forms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert family == (m, [0, 1] + [0] * 63)
        assert unlabelled == asymmetric == [0, 1] + [0] * 63
        assert rooted == [0] * 65
        assert peak < 2 ** 16

    def test_collapse_of_multivariate_rooted(self):
        for m, order in [(2, 8), (3, 9)]:
            fam = series.solve_planted(m, order)
            collapsed = collapse_to_one_sort(ref.read(fam, ref.ROOTED))
            a = ref.one_sort(m, order)
            assert collapsed == (a - ref.variable(1, order, 0)).coeffs

    @pytest.mark.parametrize("m", range(2, 6))
    def test_list_centre_is_the_collapsed_packed_centre(self, m):
        """The list centre and the packed multivariate centre share no code:
        setting every x_i to x in the colour-i centre series gives the
        one-sort one, at both weights and every stretch."""
        order = series.SERIES_MULTI_BOUND
        fam = series.solve_planted(m, order)
        _, a = series.solve_one_sort(m, order)
        for weight in (euler_phi, moebius_mu):
            for s in range(1, 5):
                centre = series.one_sort_centre(m, a, weight, s)
                expected = {(n,): c for n, c in enumerate(centre) if c}
                for color in range(1, m + 1):
                    assert collapse_to_one_sort(ref.read(
                        fam, ref.centre(color, weight, s))) == expected, (weight, s, color)


class TestChottin:
    def test_published_values(self):
        geo = [1] * 17
        assert chottin_extract([geo, geo], [1, 1], [5, 6]) == 5292
        assert chottin_extract([geo] * 3, [1, 1, 1], [4, 4, 5]) == 225
        assert chottin_extract([geo, geo], [2, 5], [2, 5]) == 1

    def test_coherence_errors(self):
        geo = [1] * 9
        with pytest.raises(CoherenceViolation):
            chottin_extract([geo] * 3, [0, 0, 0], [1, 1, 1])
        with pytest.raises(CoherenceViolation):
            chottin_extract([geo, geo], [3, 0], [2, 4])
        with pytest.raises(CoherenceViolation):
            chottin_extract([geo, geo], [1, 1], [5, 0])

    def test_negative_shift_gives_zero(self):
        geo = [1] * 9
        # alpha = (0, 0): beta_i = beta - n_i goes negative for the larger n_i
        assert chottin_extract([geo, geo], [0, 0], [1, 3]) == 0

    def test_agreement_with_direct_extraction(self):
        m, bound = 2, 8
        fam = series.solve_planted(m, bound)
        geo = [1] * (bound + 1)
        powers = {(0, 0): ref.const(m, bound, 1)}
        for a1 in range(bound + 1):
            for a2 in range(bound + 1):
                if (a1, a2) == (0, 0) or a1 + a2 > bound:
                    continue
                prev = (a1 - 1, a2) if a1 else (a1, a2 - 1)
                factor = ref.planted(fam, 1 if a1 else 2)
                powers[(a1, a2)] = powers[prev] * factor
        for (a1, a2), prod in powers.items():
            for n1 in range(1, bound + 1):
                for n2 in range(1, bound + 1 - n1):
                    if n1 < a1 or n2 < a2:
                        continue
                    value = chottin_extract([geo, geo], [a1, a2], [n1, n2])
                    assert value == prod[(n1, n2)]


class TestSeriesAgainstFormulas:
    @pytest.mark.parametrize("m,bound", [(2, 8), (3, 9), (4, 10)])
    def test_rooted_pointed_unlabelled(self, m, bound):
        fam = series.solve_planted(m, bound)
        rooted = ref.read(fam, ref.ROOTED)
        unlabelled = ref.read(fam, ref.unlabelled_form(m))
        pointed = [ref.read(fam, ref.centre(c, euler_phi)) for c in range(1, m + 1)]
        for p in range(1, (bound - 1) // (m - 1) + 1):
            for counts in _color_vectors(m, p):
                c = stats.color_stat(m, counts)
                assert rooted.get(counts, 0) == F.count_rooted(c)
                assert unlabelled.get(counts, 0) == F.count_unlabelled(c)
                for color in range(1, m + 1):
                    assert pointed[color - 1].get(counts, 0) == F.count_pointed(c, color)


def _families(m: int) -> dict:
    """A family of each kind the packed solver builds, three polygons deep:
    multivariate, boxed at a colour vector, weighted."""
    order = 3 * (m - 1) + 1
    vectors = _color_vectors(m, 3)
    counts = vectors[len(vectors) // 2]
    return {"planted": series.solve_planted(m, order),
            "boxed": series.solve_planted(m, sum(counts), (), counts),
            "weighted": weighted_family(m, order)}


class TestSparseParts:
    """A product of k planted series has terms only at total degrees = k
    (mod m - 1), so the solver forms and keeps no other part."""

    @pytest.mark.parametrize("m", range(2, 6))
    def test_kept_parts_are_non_empty_and_in_their_residue(self, m):
        for kind, fam in _families(m).items():
            assert fam.rooted, kind
            for parts in fam.planted + (fam.rooted,):  # A_i and R, at residue 1
                assert all(parts.values()), kind
                assert all(d % (m - 1) == 1 % (m - 1) for d in parts), kind

    @pytest.mark.parametrize("m", range(2, 6))
    def test_one_sort_lists_are_non_zero_exactly_in_their_residue(self, m):
        order, q = 4 * (m - 1) + 1, m - 1
        _, a = series.solve_one_sort(m, order)
        assert len(a) == order + 1
        assert all((c > 0) == (n > 0 and n % q == 1 % q) for n, c in enumerate(a))

    @pytest.mark.parametrize("m", range(2, 6))
    def test_no_product_part_is_empty(self, monkeypatch, m):
        formed = []
        product_part = series._product_part

        def recorded(*args):
            formed.append(product_part(*args))
            return formed[-1]

        monkeypatch.setattr(series, "_product_part", recorded)
        fam = series.solve_planted(m, 4 * (m - 1) + 1)
        series.centred(fam, [ref.centre(color, euler_phi, s)
                             for color in range(1, m + 1) for s in (1, 2)])
        assert formed and all(formed)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_one_sort_route_forms_no_product_part(self, monkeypatch, m):
        """A one-sort series has one term a degree, so its solver, the reader
        on its lists, rooted series included, and every size-level count
        work on lists of coefficients and never call the multivariate
        kernel."""
        calls = []
        product_part = series._product_part
        monkeypatch.setattr(series, "_product_part",
                            lambda *args: calls.append(args) or product_part(*args))
        order = series.SERIES_ONE_SORT_BOUND
        stat = stats.size_stat(m, (order - 1) // (m - 1))
        queries = [(mode, s) for mode in F.MODES if F.MODES[mode].centres
                   for s in (2, 3)]
        series.centred(series.solve_one_sort(m, order),
                       [F.MODES[mode].centres(stat, s=s) for mode, s in queries])
        for mode, s in queries:
            series.count(mode, stat, s=s)
        assert calls == []

    @pytest.mark.parametrize("m", range(2, 6))
    def test_no_product_by_the_constant_one(self, monkeypatch, m):
        """R is left[m - 1] * A_m, and in a weighted family H_1 is right[1]
        and H_m is left[m - 1]: no product with the constant series 1, and
        no planted series or centre is formed by one."""
        one = {0: {0: 1}}  # the constant 1 as degree -> packed part
        factors = []
        product_part = series._product_part

        def recorded(a, b, *args):
            factors.append((a == one, b == one))  # b grows after the call
            return product_part(a, b, *args)

        monkeypatch.setattr(series, "_product_part", recorded)
        for fam in _families(m).values():
            series.centred(fam, [ref.ROOTED] + [ref.centre(color, euler_phi)
                                                for color in range(1, m + 1)
                                                if not fam.slots])
        assert factors and not any(map(any, factors))


class TestOneRootedPart:
    """Unweighted, H_i * A_i is the product R of all m planted series, so
    A_i = x_i + R for every colour: the solver forms R's part once a degree,
    from the prefix products, and keeps it as every A_i's."""

    @pytest.mark.parametrize("m", range(2, 6))
    def test_one_product_a_degree_for_all_planted_series(self, monkeypatch, m):
        degrees = []
        product_part = series._product_part

        def counted(a, b, d, inside):
            degrees.append(d)
            return product_part(a, b, d, inside)

        monkeypatch.setattr(series, "_product_part", counted)
        q = m - 1
        for order in range(1, 17):
            degrees.clear()
            series.solve_planted(m, order)
            # a prefix product lies at a degree != 1 (mod q) for m > 2
            assert sum(d % q == 1 % q for d in degrees) == (order - 1) // q, order
            if m == 2:  # R = A_1 * A_2 is the only product
                assert len(degrees) == order - 1

    @pytest.mark.parametrize("m, products", [(2, 15), (3, 14), (4, 15), (5, 14)])
    def test_unweighted_solve_forms_prefixes_and_rooted_only(self, monkeypatch,
                                                            m, products):
        """No suffix product, H_i or power: at order 16, the prefix
        products A_1 ... A_k, k = 2..m - 1, and R, each at its degrees."""
        calls = []
        product_part = series._product_part
        monkeypatch.setattr(series, "_product_part",
                            lambda *args: calls.append(args) or product_part(*args))
        series.solve_planted(m, series.SERIES_MULTI_BOUND)
        assert len(calls) == products

    @pytest.mark.parametrize("m", range(2, 6))
    def test_every_planted_series_keeps_one_rooted_map(self, m):
        families = _families(m)
        vectors = _color_vectors(m, 5)
        counts = vectors[len(vectors) // 3]
        for fam in (families["planted"], families["boxed"], series.solve_planted(m, 16),
                    series.solve_planted(m, sum(counts), (), counts)):
            rooted = [{d: part for d, part in a.items() if d > 1} for a in fam.planted]
            assert rooted[0] and all(r == rooted[0] for r in rooted), fam.box
            assert all(r[d] is rooted[0][d] for r in rooted for d in r), fam.box


def _color_vectors(m, p):
    def rec(remaining, slots):
        if slots == 1:
            return [(remaining,)] if 1 <= remaining <= p else []
        return [(h,) + rest for h in range(1, p + 1)
                for rest in rec(remaining - h, slots - 1)]

    return rec((m - 1) * p + 1, m)


class TestPackedExponents:
    """Inside `cacti.series` an exponent is one int, `width` bits a
    coordinate, where width = order.bit_length() + 1 or more."""

    @given(st.integers(0, 7), st.sampled_from((-1, 0, 1)), st.integers(1, 6),
           st.data())
    def test_round_trip_and_box_test(self, k, offset, ncoords, data):
        order = max(1, 2 ** k + offset)
        coordinate = st.integers(0, order)
        e = tuple(data.draw(st.lists(coordinate, min_size=ncoords, max_size=ncoords)))
        caps = tuple(data.draw(st.lists(coordinate, min_size=ncoords, max_size=ncoords)))
        fam = series.PlantedFamily(ncoords, order)  # m coordinates, no marker
        assert fam.unpack(fam.pack(e)) == e
        boxed = series.PlantedFamily(ncoords, order, box=caps)
        assert boxed.unpack(boxed.pack(e)) == e
        bias, guard = boxed.inside
        outside = any(x > cap for x, cap in zip(e, caps))
        assert bool((boxed.pack(e) + bias) & guard) == outside
        assert fam.inside == (0, 0)

    @pytest.mark.parametrize("n, width", [(7, 4), (8, 5), (9, 5), (15, 5), (16, 6)])
    def test_counts_where_the_width_changes(self, n, width):
        """Statistics of n vertices with a colour count, or a degree
        multiplicity, at the most it can be: the target sits at the caps of
        the box, and the width changes between neighbouring n."""
        for m in (2, 3, 4):
            p, rest = divmod(n - 1, m - 1)
            if rest:
                continue
            assert series.PlantedFamily(m, n).width == width
            queries = [(stats.size_stat(m, p), "pointed", None)] + [
                (stats.color_stat(m, counts), "pointed", c)
                for counts in _color_vectors(m, p) if p in counts
                for c in range(1, m + 1)]
            queries += [(stat, mode, None) for stat, _, c in queries if c in (None, 1)
                        for mode in ("rooted", "unlabelled", "asymmetric")]
            if m == 2:
                queries += [(stats.parse_degree_spec(spec), mode, None)
                            for spec in (f"{p}; 1^{p}", f"1^{p}; {p}",
                                         f"1^{p - 2} 2; 1 {p - 1}")
                            for mode in ("rooted", "labelled")]
            for stat, mode, color in queries:
                entry = F.MODES[mode]
                assert (series.count(mode, stat, color=color)
                        == entry.formula(stat, color=color)), (mode, color, stat)
