"""Exhaustive generation of small cacti: the formula-free ground truth.

A planted cactus (a vertex with a dangling half-edge pair) is rigid, so the
recursive representation below is canonical: two planted cacti are equal as
Python values iff they are isomorphic.  A rooted cactus is the m-tuple of
planted cacti hanging off its root polygon's vertices.

`enumerate_unlabelled` builds each isomorphism class of unrooted cacti
once, from its centroid by polygon count: the centre of the vertex-polygon
tree on which the dissymmetry theorem (Bergeron, Labelle and Leroux,
*Combinatorial Species and Tree-like Structures*) rests.  A branch at a
vertex is one incident polygon with everything beyond it.  Exactly one of
two cases holds:

- Vertex-centred: some vertex v has no branch of more than p/2 polygons.
  That vertex is unique, and the class is a necklace of its k branches.
  The sequence that is its own least rotation is built once; with period
  t, the automorphism group is the rotations by multiples of t, of order
  k / t.  The class is represented by its rooting at the first polygon of
  that sequence.
- Polygon-centred: a unique polygon has m planted parts of fewer than p/2
  polygons each.  Its corners carry the colours 1..m in order, so every
  automorphism fixes it, and rigidity leaves only the identity.  The class
  is the rooted cactus with that polygon as its root.

A non-trivial automorphism fixes the centre vertex and no other vertex, so
by Burnside's lemma a class with automorphism order a and n_c vertices of
colour c has (n_c - d) / a + d orbits of them, where d is 1 if the centre
has colour c and 0 otherwise.

Colour and degree statistics are read off the recursive form, where each
planted cactus caches its vertex degrees, and gonal keys are read off the
branches at the centroid: the oracle builds no graph.

Everything here is brute force on purpose.  Budgets are hard caps: beyond
them the functions raise instead of grinding for hours.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product

from . import formulas
from .arith import divisors
from .formulas import ColorOutOfRange  # raised by CactusStats.pointed
from .stats import (
    ColorStat,
    DegreeStat,
    InconsistentResult,
    ValidationError,
    color_marginal,
    color_stat,
    degree_stat,
    size_stat,
)

GEN_BUDGET = {2: 8, 3: 6, 4: 4, 5: 4, 6: 3, 7: 3}  # generate_rooted: max p per m
FACT_BUDGET = {2: 7, 3: 5, 4: 4}      # factorizations: (p!)^(m-1) enumeration
FREE_POOL_BUDGET = 16                 # free_labelled_bruteforce: candidate polygons
FREE_P_BUDGET = 4


class BudgetExceeded(ValueError):
    """Requested size is beyond the documented brute-force bounds."""


DegreeReading = tuple[tuple[tuple[int, int], int], ...]  # ((colour, degree), count)


@dataclass(frozen=True)
class Planted:
    """Planted cactus: ordered polygons at the root vertex, each polygon an
    (m-1)-tuple of planted sub-cacti at the other colors in cyclic order."""

    color: int
    polygons: tuple[tuple["Planted", ...], ...]

    @cached_property
    def degrees(self) -> DegreeReading:
        """Sorted ((colour, degree), count) pairs over the vertices; the
        root's degree counts its stem."""
        tally = {(self.color, len(self.polygons) + 1): 1}
        for poly in self.polygons:
            for sub in poly:
                for key, k in sub.degrees:
                    tally[key] = tally.get(key, 0) + k
        return tuple(sorted(tally.items()))


@dataclass(frozen=True)
class Rooted:
    """Rooted cactus: one planted component per color of the root polygon."""

    m: int
    components: tuple[Planted, ...]


@dataclass(frozen=True)
class CactusStats:
    colors: ColorStat
    degrees: DegreeStat
    aut_order: int
    centre: int | None  # colour of the centre vertex, None for a polygon

    def pointed(self, color: int) -> int:
        """Orbits of colour-`color` vertices under the automorphism group."""
        formulas.pointed_colors(self.colors, color)
        fixed = int(self.centre == color)
        orbits, rest = divmod(self.colors.counts[color - 1] - fixed,
                              self.aut_order)
        if rest:
            raise InconsistentResult(
                f"{self.aut_order} does not divide the moved colour-{color} "
                "vertices")
        return orbits + fixed


def _check_size(m: int, p: int) -> None:
    if m < 2 or p < 1:
        raise ValidationError(f"need m >= 2 and p >= 1, got m = {m}, p = {p}")
    budget = GEN_BUDGET.get(m, 1)
    if p > budget:
        raise BudgetExceeded(
            f"generation capped at p <= {budget} for m = {m}, got p = {p}")


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        return [(total,)]
    return [(head,) + rest for head in range(total + 1)
            for rest in _compositions(total - head, parts - 1)]


def _capped_compositions(total: int, cap: int) -> list[tuple[int, ...]]:
    """All tuples of ints in 1..cap summing to `total`."""
    if total == 0:
        return [()]
    return [(head,) + rest for head in range(1, min(total, cap) + 1)
            for rest in _capped_compositions(total - head, cap)]


_planted_cache: dict[tuple[int, int, int], tuple[Planted, ...]] = {}


def _planted_all(m: int, color: int, q: int) -> tuple[Planted, ...]:
    """All planted cacti at a color-`color` vertex carrying q polygons."""
    key = (m, color, q)
    got = _planted_cache.get(key)
    if got is not None:
        return got
    if q == 0:
        result: tuple[Planted, ...] = (Planted(color, ()),)
    else:
        out = []
        for w in range(1, q + 1):  # weight of the first polygon
            for poly in _polygons_at(m, color, w):
                for rest in _planted_all(m, color, q - w):
                    out.append(Planted(color, (poly,) + rest.polygons))
        result = tuple(out)
    _planted_cache[key] = result
    return result


def _polygons_at(m: int, color: int, w: int) -> list[tuple[Planted, ...]]:
    """All single polygons of total weight w attached at a color-`color` vertex."""
    others = [((color - 1 + k) % m) + 1 for k in range(1, m)]
    out = []
    for split in _compositions(w - 1, m - 1):
        for combo in product(*(_planted_all(m, c, qk)
                               for c, qk in zip(others, split))):
            out.append(combo)
    return out


def _rooted(m: int, p: int, cap: int) -> list[Rooted]:
    """Rooted cacti with p polygons and at most `cap` in each planted part."""
    return [Rooted(m, combo) for split in _compositions(p - 1, m)
            if max(split) <= cap
            for combo in product(*(_planted_all(m, c, q)
                                   for c, q in enumerate(split, start=1)))]


def generate_rooted(m: int, p: int) -> list[Rooted]:
    """All rooted cacti with p polygons, each once."""
    _check_size(m, p)
    return _rooted(m, p, p)


def _merged_degrees(readings: tuple[DegreeReading, ...]) -> DegreeStat:
    """The degree matrix of a rooted cactus whose m components have these
    `Planted.degrees` readings: the root polygon is each component's stem."""
    rows: list[dict[int, int]] = [{} for _ in readings]
    for reading in readings:
        for (color, degree), k in reading:
            rows[color - 1][degree] = rows[color - 1].get(degree, 0) + k
    return DegreeStat(len(rows), tuple(tuple(sorted(row.items())) for row in rows))


def rooted_tally(rooted: list[Rooted]) -> Counter:
    """How many of the rooted cacti have each color and degree statistic:
    each is read off its components, each distinct reading validated once."""
    tally: Counter = Counter()
    readings = Counter(tuple(pc.degrees for pc in rc.components) for rc in rooted)
    for key, k in readings.items():
        degrees = _merged_degrees(key)
        tally[degrees] += k
        tally[color_marginal(degrees)] += k
    return tally


def _necklaces(m: int, p: int) -> Iterator[
        tuple[int, tuple[tuple[Planted, ...], ...], int]]:
    """(centre colour, branches, automorphism order) of each vertex-centred
    class: every branch sequence around the centre with at most p // 2
    polygons per branch that is its own least rotation."""
    for color in range(1, m + 1):
        for weights in _capped_compositions(p, p // 2):
            k = len(weights)
            for picks in product(*(enumerate(_polygons_at(m, color, w))
                                   for w in weights)):
                seq = [(w, i) for w, (i, _) in zip(weights, picks)]
                rotations = [seq[r:] + seq[:r] for r in range(1, k)]
                if any(rot < seq for rot in rotations):
                    continue
                period = next((r for r, rot in enumerate(rotations, start=1)
                               if rot == seq), k)
                yield color, tuple(poly for _, poly in picks), k // period


def _rooted_at_first(m: int, color: int,
                     branches: tuple[tuple[Planted, ...], ...]) -> Rooted:
    """The rooting at the first branch's polygon of a colour-`color` centre."""
    # The centre, then the first polygon's parts: colours color, color + 1, ...
    around = (Planted(color, branches[1:]),) + branches[0]
    shift = m + 1 - color
    return Rooted(m, around[shift:] + around[:shift])


def _classes(m: int, p: int) -> Iterator[tuple[Rooted, tuple, int | None, int]]:
    """(representative, branches, centre colour, automorphism order) of each
    class, built from its centroid: the branches are the m planted parts of a
    centre polygon (centre colour None), or the polygons around a centre
    vertex.  Polygon-centred classes come first, then the vertex-centred
    ones by centre colour."""
    for rc in _rooted(m, p, (p - 1) // 2):
        yield rc, rc.components, None, 1
    for color, branches, aut in _necklaces(m, p):
        yield _rooted_at_first(m, color, branches), branches, color, aut


def enumerate_unlabelled(m: int, p: int) -> list[tuple[Rooted, CactusStats]]:
    """One representative per isomorphism class, with exact automorphism data,
    built from the class's centroid (see the module docstring)."""
    _check_size(m, p)
    out = []
    for rep, _, centre, aut in _classes(m, p):
        degrees = _merged_degrees(tuple(pc.degrees for pc in rep.components))
        out.append((rep, CactusStats(color_marginal(degrees), degrees, aut, centre)))
    return out


CycleType = tuple[tuple[int, int], ...]


def _cycle_type(perm: tuple[int, ...]) -> CycleType:
    seen = [False] * len(perm)
    lengths: dict[int, int] = {}
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths[length] = lengths.get(length, 0) + 1
    return tuple(sorted(lengths.items()))


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Apply a first, then b."""
    return tuple(b[a[i]] for i in range(len(a)))


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def factorizations(m: int, p: int) -> dict[tuple[CycleType, ...], int]:
    """Census of m-factorizations of the full cycle (1 2 ... p).

    For every (g_1, ..., g_m) with g_1 g_2 ... g_m equal to the cycle
    (applying g_1 first), the m-tuple of cycle types gets one tick.  Cycle
    types use the same (length, multiplicity) row format as DegreeStat, so
    coherent keys compare directly against rooted degree-level counts.

    The first m - 2 factors are enumerated; the last two multiply to the
    rest r.  Conjugation preserves cycle types, so the census of pairs with
    product r depends only on the cycle type of r, and is counted once per
    type.
    """
    if m < 2 or p < 1:
        raise ValidationError(f"need m >= 2 and p >= 1, got m = {m}, p = {p}")
    if p > FACT_BUDGET.get(m, 2):
        raise BudgetExceeded(
            f"factorizations capped at p <= {FACT_BUDGET.get(m, 2)} for m = {m}")
    sigma = tuple((i + 1) % p for i in range(p))
    identity = tuple(range(p))
    census: Counter = Counter()
    cycle_types = {g: _cycle_type(g) for g in permutations(range(p))}
    pairs_by_type: dict[CycleType, Counter] = {}
    for gs in product(cycle_types, repeat=m - 2):
        acc = identity
        for g in gs:
            acc = _compose(acc, g)
        rest = _compose(_inverse(acc), sigma)
        pairs = pairs_by_type.get(cycle_types[rest])
        if pairs is None:
            pairs = pairs_by_type[cycle_types[rest]] = Counter(
                (cycle_types[a], cycle_types[_compose(_inverse(a), rest)])
                for a in cycle_types)
        head = tuple(cycle_types[g] for g in gs)
        for pair, count in pairs.items():
            census[head + pair] += count
    return dict(census)


def free_labelled_bruteforce(colors: ColorStat) -> int:
    """Count labelled free cacti by enumerating p-subsets of candidate polygons.

    A candidate polygon picks one labelled vertex of each color; a subset is
    a free cactus iff it uses every vertex and its polygon-vertex incidence
    graph is connected and acyclic (checked by union-find while inserting).
    """
    p = colors.p
    if p == 0:
        return 1
    pool = math.prod(colors.counts)
    if pool > FREE_POOL_BUDGET or p > FREE_P_BUDGET:
        raise BudgetExceeded(
            f"free brute force capped at pool <= {FREE_POOL_BUDGET}, "
            f"p <= {FREE_P_BUDGET}; got pool = {pool}, p = {p}")
    offsets = [0]
    for c in colors.counts[:-1]:
        offsets.append(offsets[-1] + c)
    n = colors.n
    candidates = [tuple(offsets[i] + v[i] for i in range(colors.m))
                  for v in product(*(range(c) for c in colors.counts))]
    count = 0
    for subset in combinations(candidates, p):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        used = set()
        ok = True
        for poly in subset:
            used.update(poly)
            anchor = find(poly[0])
            for v in poly[1:]:
                r = find(v)
                if r == anchor:
                    ok = False  # polygon closes a cycle
                    break
                parent[r] = anchor
            if not ok:
                break
        if ok and len(used) == n and len({find(v) for v in range(n)}) == 1:
            count += 1
    return count


def _colorless_planted(pc: Planted) -> str:
    return "(" + "".join(map(_colorless_polygon, pc.polygons)) + ")"


def _colorless_polygon(poly: tuple[Planted, ...]) -> str:
    return "[" + ",".join(map(_colorless_planted, poly)) + "]"


def enumerate_gonal(m: int, p: int) -> int:
    """Unlabelled plane m-gonal cacti (colors erased) with p polygons.

    The centroid is chosen by polygon counts alone, so it survives erasing
    the colours, and each gonal class is keyed at its centre.  Without
    colours a centre polygon may rotate: its key is the least of the m
    rotations of its colourless parts.  A centre vertex keys by the least
    rotation of its colourless branches.  A colouring is fixed by the colour of one vertex,
    and the centre is unique, so every vertex-centred gonal class has
    exactly one colouring with a colour-1 centre: only those classes are
    keyed.  Part keys start with "(" and branch keys with "[", so the two
    cases never share a key.
    """
    _check_size(m, p)
    keys = set()
    for _, branches, centre, _ in _classes(m, p):
        if centre is None:
            words = list(map(_colorless_planted, branches))
        elif centre == 1:
            words = list(map(_colorless_polygon, branches))
        else:
            break  # `_classes` yields the centre colours in order
        keys.add(min("".join(words[r:] + words[:r]) for r in range(len(words))))
    return len(keys)


@dataclass
class CheckResult:
    name: str
    p: int
    comparisons: int
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    m: int
    p_max: int
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def first_failure(self) -> CheckResult | None:
        return next((r for r in self.results if not r.passed), None)


def _all_color_vectors(m: int, p: int) -> list[ColorStat]:
    """Every realizable color distribution for the given m and p."""
    n = (m - 1) * p + 1
    out = []
    for head in product(*(range(1, p + 1) for _ in range(m - 1))):
        last = n - sum(head)
        if 1 <= last <= p:
            out.append(color_stat(m, head + (last,)))
    return out


def _partitions(p: int) -> list[tuple[tuple[int, int], ...]]:
    """Partitions of p in the sparse (part, multiplicity) row format."""
    def rec(remaining: int, max_part: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        return [(part,) + rest
                for part in range(min(remaining, max_part), 0, -1)
                for rest in rec(remaining - part, part)]

    return [tuple(sorted(Counter(parts).items())) for parts in rec(p, p)]


def _all_degree_matrices(m: int, p: int) -> list[DegreeStat]:
    """Every realizable degree distribution for the given m and p."""
    n = (m - 1) * p + 1
    rows_by_len: dict[int, list] = {}
    for row in _partitions(p):
        rows_by_len.setdefault(sum(k for _, k in row), []).append(row)
    out = []
    for counts in _all_color_vectors(m, p):
        pools = [rows_by_len.get(c, []) for c in counts.counts]
        for combo in product(*pools):
            out.append(DegreeStat(m, tuple(combo)))
    if any(sum(k for r in d.rows for _, k in r) != n for d in out):
        raise InconsistentResult(f"a degree matrix misses n = {n} vertices")
    return out


def verify(m: int, p_max: int) -> VerifyReport:
    """Compare every formula against exhaustive enumeration for p <= p_max."""
    _check_size(m, p_max)
    results: list[CheckResult] = []

    def record(name: str, p: int, pairs: list[tuple[str, object, object]]) -> None:
        bad = [(what, exp, act) for what, exp, act in pairs if exp != act]
        detail = ""
        if bad:
            what, exp, act = bad[0]
            detail = f"{what}: expected {exp}, got {act}"
        results.append(CheckResult(name, p, len(pairs), not bad, detail))

    def compare(label: str, mode: str, stat, members: list[CactusStats],
                **options) -> tuple[str, int, int]:
        """The mode's closed form against its count over the classes."""
        row = formulas.MODES[mode]
        return (label, row.formula(stat, **options),
                row.classes(members, stat, **options))

    for p in range(1, p_max + 1):
        size = size_stat(m, p)
        rooted = generate_rooted(m, p)
        classes = [st for _, st in enumerate_unlabelled(m, p)]
        rootings = sum(p // st.aut_order for st in classes)
        if rootings != len(rooted):
            raise InconsistentResult(
                f"{len(classes)} classes have {rootings} rootings, "
                f"but {len(rooted)} rooted cacti were generated")
        groups: dict[ColorStat | DegreeStat, list[CactusStats]] = {}
        for st in classes:
            for stat in (st.colors, st.degrees):
                groups.setdefault(stat, []).append(st)
        color_vectors = _all_color_vectors(m, p)
        degree_matrices = _all_degree_matrices(m, p)
        levels = [("color", [(c, c.counts) for c in color_vectors]),
                  ("degree", [(d, d.rows) for d in degree_matrices])]

        record("rooted size", p,
               [("count", formulas.count_rooted(size), len(rooted))])
        tally = rooted_tally(rooted)
        for level, keyed in levels:
            record(f"rooted {level}", p, [(str(key), formulas.count_rooted(stat),
                                           tally[stat]) for stat, key in keyed])

        strata = sorted(s for s in divisors(p) if s >= 2)
        pairs = [compare(mode, mode, size, classes)
                 for mode in ("unlabelled", "asymmetric")]
        for s in strata:
            pairs.append(compare(f"aut={s}", "aut-exact", size, classes, s=s))
            pairs.append(compare(f"aut>={s}", "aut-atleast", size, classes, s=s))
        record("classes size", p, pairs)

        for level, keyed in levels:
            pairs = []
            for stat, key in keyed:
                members = groups.get(stat, [])
                pairs += [compare(f"{mode} {key}", mode, stat, members)
                          for mode in ("unlabelled", "asymmetric")]
                pairs += [compare(f"aut={s} {key}", "aut-exact", stat, members, s=s)
                          for s in strata]
                if level == "degree":
                    # the sum of 1/|Aut|: a class has p/|Aut| rootings
                    pairs.append((f"reciprocal {key}",
                                  Fraction(formulas.count_rooted(stat), p),
                                  sum(Fraction(1, st.aut_order)
                                      for st in members) or Fraction(0)))
            record(f"classes {level}", p, pairs)

        record("labelled", p, [compare("size", "labelled", size, classes)] + [
            compare(f"color {c.counts}", "labelled", c, groups.get(c, []))
            for c in color_vectors])

        pairs = [compare("size", "pointed", size, classes)]
        for level, keyed in levels:
            pairs += [compare(f"{level} {key} @{color}", "pointed", stat,
                              groups.get(stat, []), color=color)
                      for stat, key in keyed for color in range(1, m + 1)]
        record("pointed orbits", p, pairs)

        if p <= FACT_BUDGET.get(m, 2):
            census = factorizations(m, p)
            valid_keys = {d.rows: d for d in degree_matrices}
            pairs = [(f"census {d.rows}", formulas.count_rooted(d),
                      census.get(d.rows, 0)) for d in degree_matrices]
            for key in census:
                if key not in valid_keys:
                    try:
                        degree_stat(m, [dict(row) for row in key])
                        coherent = True
                    except ValidationError:
                        coherent = False
                    pairs.append((f"incoherent {key}", False, coherent))
            record("factorizations", p, pairs)

    return VerifyReport(m, p_max, results)
