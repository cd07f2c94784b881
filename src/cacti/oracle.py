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
  That vertex is unique, and the class is a necklace of its k branches,
  built once for every centre colour as its least rotation; with period
  t, the automorphism group is the rotations by multiples of t, of order
  k / t.  The class is represented by its rooting at the first polygon of
  that sequence, whose degree rows are read once and rotated to its colour.
- Polygon-centred: a unique polygon has m planted parts of fewer than p/2
  polygons each.  Its corners carry the colours 1..m in order, so every
  automorphism fixes it, and rigidity leaves only the identity.  The class
  is the rooted cactus with that polygon as its root.

A non-trivial automorphism fixes the centre vertex and no other vertex, so
by Burnside's lemma a class with automorphism order a and n_c vertices of
colour c has (n_c - d) / a + d orbits of them, where d is 1 if the centre
has colour c and 0 otherwise.

A planted cactus stores no colours: a polygon carries the colours 1..m in
cyclic order, so one value serves every root colour, and it caches its
vertex degrees by colour offset from the root.  Colour and degree
statistics are read off this recursive form, and the gonal classes are
counted off the centroid's branches, as values: the oracle builds no graph.

Everything here is brute force on purpose.  Budgets cap work known before
it is done: generation by its C(mp, p) / ((m - 1)p + 1) rooted cacti, counted
by `math.comb` and not by `formulas`, and the free brute force by its subsets.
Beyond them the functions raise instead of grinding for hours.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, permutations, product
from operator import itemgetter

from . import formulas
from .arith import divisors
from .formulas import ColorOutOfRange  # raised by CactusStats.pointed
from .formulas import GonalKind
from .stats import (BudgetExceeded, ColorStat, DegreeStat, InconsistentResult,
                    SizeStat, Statistic, UsageError, ValidationError,
                    color_marginal, color_stat, degree_stat, size_stat)

ROOTED_BUDGET = 1430  # generate_rooted: rooted cacti, C(16, 8) / 9 at (2, 8)
FACT_BUDGET = {2: 7, 3: 5, 4: 4, 5: 4, 6: 3, 7: 3}  # factorizations: max p per m
SUBSET_BUDGET = 1820  # free_labelled_bruteforce: candidates and p-subsets, C(16, 4)
VERIFY_M_BUDGET = 100  # verify: its pointed comparisons grow as m^2 at p = 1


DegreeReading = tuple[tuple[tuple[int, int], int], ...]  # ((offset, degree), count)
DegreeRows = tuple[tuple[tuple[int, int], ...], ...]  # `DegreeStat.rows`


@dataclass(frozen=True, order=True)
class Planted:
    """Planted cactus: ordered polygons at the root vertex, each polygon an
    (m-1)-tuple of planted sub-cacti at colour offsets 1..m-1 from the root."""

    polygons: tuple[tuple["Planted", ...], ...]

    @cached_property
    def degrees(self) -> DegreeReading:
        """Sorted ((offset, degree), count) pairs over the vertices, by colour
        offset from the root mod m; the root's degree counts its stem."""
        tally = {(0, len(self.polygons) + 1): 1}
        for poly in self.polygons:
            m = len(poly) + 1
            for k, sub in enumerate(poly, start=1):
                for (offset, degree), count in sub.degrees:
                    key = ((offset + k) % m, degree)
                    tally[key] = tally.get(key, 0) + count
        return tuple(sorted(tally.items()))


@dataclass(frozen=True)
class Rooted:
    """Rooted cactus: component c - 1 hangs at colour c of the root polygon."""

    components: tuple[Planted, ...]


@dataclass(frozen=True)
class CactusStats:
    colors: ColorStat
    degrees: DegreeStat
    aut_order: int
    centre: int | None  # colour of the centre vertex, None for a polygon

    def pointed(self, color: int) -> int:
        """Orbits of colour-`color` vertices under the automorphism group."""
        if not 1 <= color <= self.colors.m:
            raise ColorOutOfRange(f"color {color} not in 1..{self.colors.m}")
        fixed = int(self.centre == color)
        orbits, rest = divmod(self.colors.counts[color - 1] - fixed,
                              self.aut_order)
        if rest:
            raise InconsistentResult(
                f"{self.aut_order} does not divide the moved colour-{color} "
                "vertices")
        return orbits + fixed


def reach(m: int) -> int:
    """The largest p whose C(mp, p) / ((m - 1)p + 1) rooted cacti fit in
    `ROOTED_BUDGET`, counted up: no binomial past the first misfit is built."""
    p = 2
    while math.comb(m * p, p) // ((m - 1) * p + 1) <= ROOTED_BUDGET:
        p += 1
    return p - 1


def _check_size(m: int, p: int, least: int = 1) -> None:
    if m < 2 or p < least:
        raise ValidationError(f"need m >= 2 and p >= {least}, got m = {m}, p = {p}")
    if p > (budget := reach(m)):
        raise BudgetExceeded(
            f"generation capped at p <= {budget} for m = {m}, got p = {p}")


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total`, in
    lexicographic order: stars and bars, with no recursion on `parts`."""
    slots = total + parts - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
            for bars in combinations(range(slots), parts - 1)]


_planted_cache: dict[tuple[int, int], tuple[Planted, ...]] = {}


def _planted_all(m: int, q: int) -> tuple[Planted, ...]:
    """All planted m-ary cacti carrying q polygons, at a root of any colour."""
    key = (m, q)
    got = _planted_cache.get(key)
    if got is not None:
        return got
    if q == 0:
        result: tuple[Planted, ...] = (Planted(()),)
    else:
        out = []
        for w in range(1, q + 1):  # weight of the first polygon
            for poly in _polygons_at(m, w):
                for rest in _planted_all(m, q - w):
                    out.append(Planted((poly,) + rest.polygons))
        result = tuple(out)
    _planted_cache[key] = result
    return result


def _polygons_at(m: int, w: int) -> list[tuple[Planted, ...]]:
    """All single polygons of total weight w attached at a vertex."""
    return [combo for split in _compositions(w - 1, m - 1)
            for combo in product(*(_planted_all(m, q) for q in split))]


def _rooted(m: int, p: int, cap: int) -> list[Rooted]:
    """Rooted cacti with p polygons and at most `cap` in each planted part."""
    return [Rooted(combo) for split in _compositions(p - 1, m)
            if max(split) <= cap
            for combo in product(*(_planted_all(m, q) for q in split))]


def generate_rooted(m: int, p: int) -> list[Rooted]:
    """All rooted cacti with p polygons, each once: none at p = 0."""
    _check_size(m, p, 0)
    return _rooted(m, p, p)


def _merged_rows(readings: tuple[DegreeReading, ...]) -> DegreeRows:
    """The degree rows of a rooted cactus whose m components have these
    `Planted.degrees` readings: the root polygon is each component's stem,
    and component i, at colour i + 1, shifts its offsets by i."""
    m = len(readings)
    rows: list[dict[int, int]] = [{} for _ in readings]
    for i, reading in enumerate(readings):
        for (offset, degree), k in reading:
            row = rows[(i + offset) % m]
            row[degree] = row.get(degree, 0) + k
    return tuple(tuple(sorted(row.items())) for row in rows)


def rooted_tally(rooted: list[Rooted]) -> Counter:
    """How many of the rooted cacti have each color and degree statistic:
    each is read off its components, and the statistics are validated once
    per distinct degree matrix."""
    readings = Counter(tuple(pc.degrees for pc in rc.components) for rc in rooted)
    matrices: Counter = Counter()
    for key, k in readings.items():
        matrices[_merged_rows(key)] += k
    tally: Counter = Counter()
    for rows, k in matrices.items():
        degrees = DegreeStat(len(rows), rows)
        tally[degrees] += k
        tally[color_marginal(degrees)] += k
    return tally


def _necklaces(m: int, p: int) -> list[
        tuple[tuple[tuple[Planted, ...], ...], int]]:
    """(branches, automorphism order) of each vertex-centred class with a
    centre of any one colour: every branch sequence around the centre with
    at most p // 2 polygons per branch that is its own least rotation.

    The Fredricksen-Kessler-Maiorana recursion (Ruskey, Savage and Wang,
    "Generating necklaces", J. Algorithms 13, 1992) extends prenecklaces
    only, over the branches ordered by weight and index in `_polygons_at`:
    a prefix of period t takes a letter no less than the one t back, and
    keeps t iff the letter equals it.  At weight p a prefix of length k is
    a necklace iff t divides k, and the rotations by multiples of t, of
    order k / t, fix it."""
    letters = [(w, poly) for w in range(1, p // 2 + 1)
               for poly in _polygons_at(m, w)]
    out = []
    seq: list[int] = []

    def extend(weight: int, period: int) -> None:
        k = len(seq)
        if weight == p and k % period == 0:
            out.append((tuple(letters[i][1] for i in seq), k // period))
        least = seq[k - period] if k else 0
        for i in range(least, len(letters)):
            w = letters[i][0]
            if weight + w > p:
                break  # the letters run by weight: at weight p, at once
            seq.append(i)
            extend(weight + w, period if k and i == least else k + 1)
            seq.pop()

    extend(0, 1)
    return out


def enumerate_unlabelled(m: int, p: int) -> list[tuple[Rooted, CactusStats]]:
    """One representative per isomorphism class, with exact automorphism data,
    built from the class's centroid (see the module docstring): the
    polygon-centred classes first, then the vertex-centred ones by centre
    colour, each necklace once per colour."""
    _check_size(m, p)
    by_rows: dict[DegreeRows, tuple[ColorStat, DegreeStat]] = {}

    def statistics(rows: DegreeRows, aut: int, centre: int | None) -> CactusStats:
        pair = by_rows.get(rows)
        if pair is None:
            degrees = DegreeStat(m, rows)
            pair = by_rows[rows] = (color_marginal(degrees), degrees)
        return CactusStats(*pair, aut, centre)

    out = [(rc, statistics(_merged_rows(tuple(pc.degrees for pc in rc.components)),
                           1, None))
           for rc in _rooted(m, p, (p - 1) // 2)]
    # Around a colour-1 centre: the centre, then the first polygon's parts
    arounds = [((Planted(b[1:]),) + b[0], aut) for b, aut in _necklaces(m, p)]
    necklaces = [(around, _merged_rows(tuple(pc.degrees for pc in around)), aut)
                 for around, aut in arounds]
    for color in range(1, m + 1):
        shift = m + 1 - color  # a colour-`color` centre leads at that colour
        out += [(Rooted(around[shift:] + around[:shift]),
                 statistics(rows[shift:] + rows[:shift], aut, color))
                for around, rows, aut in necklaces]
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

    The census steps through one factor at a time.  A k-factorization of r
    is a first factor a followed by a (k - 1)-factorization of the rest,
    a^-1 r, whose cycle type is that of r^-1 a.  Conjugation preserves
    cycle types, so the census depends only on the cycle type of r: the
    first factors are split once per type, by their type and the rest's,
    and each split extends the (k - 1)-census of the rest's type.  Only the
    cycle needs its m-factorizations.  A split composes the p! permutations
    with one r, in place of enumerating (p!)^(m-2) tuples of factors.
    """
    if m < 2 or p < 1:
        raise ValidationError(f"need m >= 2 and p >= 1, got m = {m}, p = {p}")
    if p > FACT_BUDGET.get(m, 1):
        raise BudgetExceeded(
            f"factorizations capped at p <= {FACT_BUDGET.get(m, 1)} for m = {m}")
    if p == 1:  # the identity alone: `itemgetter` of one index gives no tuple
        return {(((1, 1),),) * m: 1}
    cycle_types = {g: _cycle_type(g) for g in permutations(range(p))}
    sigma = tuple((i + 1) % p for i in range(p))
    cycle = cycle_types[sigma]
    # one permutation of each cycle type is factored; at m = 2 the cycle alone
    factored = {t: g for g, t in cycle_types.items()} if m > 2 else {cycle: sigma}
    splits = {}
    for t, r in factored.items():
        rest = itemgetter(*_inverse(r))  # a -> r^-1 a, of the type of a^-1 r
        splits[t] = Counter((ta, cycle_types[rest(a)])
                            for a, ta in cycle_types.items())
    tails = {t: {(t,): 1} for t in cycle_types.values()}
    for k in range(2, m + 1):
        extended = {}
        for t in factored if k < m else [cycle]:
            census: Counter = Counter()
            for (ta, tr), count in splits[t].items():
                for tail, more in tails[tr].items():
                    census[(ta,) + tail] += count * more
            extended[t] = census
        tails = extended
    return dict(tails[cycle])


def free_labelled_bruteforce(colors: ColorStat) -> int:
    """Count labelled free cacti by enumerating p-subsets of candidate polygons.

    A candidate polygon picks one labelled vertex of each color; a subset is
    a free cactus iff its polygon-vertex incidence graph is a tree.  That
    graph has p + n nodes and mp = p + n - 1 edges, so it is a tree iff it
    is acyclic: no polygon, inserted by union-find, joins two vertices that
    are already connected.  Such a subset uses every vertex.
    """
    p, pool = colors.p, math.prod(colors.counts)
    if pool > SUBSET_BUDGET or math.comb(pool, p) > SUBSET_BUDGET:
        raise BudgetExceeded(f"free brute force capped at {SUBSET_BUDGET} candidates "
                             f"and p-subsets; got pool = {pool}, p = {p}")
    offsets = list(accumulate(colors.counts[:-1], initial=0))
    candidates = [tuple(offsets[i] + v[i] for i in range(colors.m))
                  for v in product(*(range(c) for c in colors.counts))]
    count = 0
    for subset in combinations(candidates, p):
        parent = list(range(colors.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def joins(poly: tuple[int, ...]) -> bool:
            """Merge the polygon's vertices; False if it closes a cycle."""
            anchor = find(poly[0])
            for v in poly[1:]:
                r = find(v)
                if r == anchor:
                    return False
                parent[r] = anchor
            return True

        count += all(map(joins, subset))
    return count


def enumerate_gonal(m: int, p: int) -> int:
    """Unlabelled plane m-gonal cacti (colors erased) with p polygons.

    The centroid is chosen by polygon counts alone, so it survives erasing
    the colours.  A centre polygon is keyed by the planted cacti at its
    corners, which store no colours; the polygon may then rotate, so its
    key is the least of the m rotations of its parts.  A colouring is fixed
    by the colour of one vertex, and the centre is unique, so every
    vertex-centred gonal class has exactly one colouring with a colour-1
    centre.  The necklaces around a centre of one colour are those classes,
    each once, so they are counted, not keyed.  At p = 0 the one necklace
    is empty: the lone vertex.
    """
    _check_size(m, p, 0)
    keys = set()
    for rc in _rooted(m, p, (p - 1) // 2):
        doubled = rc.components * 2
        keys.add(min(doubled[r:r + m] for r in range(m)))
    return len(keys) + len(_necklaces(m, p))


def count(mode: str, stat: Statistic, *, color: int | None = None,
          s: int | None = None, kind: GonalKind = GonalKind.UNLABELLED) -> int:
    """The exhaustive route's count of `mode` at `stat`, or its refusal, the
    same at every p: gonal counts but the unlabelled, and constellations.
    The classes are counted by the mode's `classes` over those of
    `enumerate_unlabelled`.  The lone vertex (p = 0) has no rooting, and is
    one rigid class, pointed once at its own colour, colour 1 at size level."""
    if mode == "gonal" and kind is not GonalKind.UNLABELLED:
        raise UsageError("--path oracle supports only unlabelled gonal counts")
    if mode == "constellation":
        raise UsageError("no exhaustive constellation generator; use --path formula")
    m, p = stat.m, stat.p
    if mode == "free":
        return free_labelled_bruteforce(stat)
    if mode == "gonal":
        return enumerate_gonal(m, p)
    if mode == "rooted":
        rooted = generate_rooted(m, p)
        return len(rooted) if isinstance(stat, SizeStat) else rooted_tally(rooted)[stat]
    if p == 0:
        lone = (color_stat(m, (1,) + (0,) * (m - 1)) if isinstance(stat, SizeStat)
                else color_marginal(stat) if isinstance(stat, DegreeStat) else stat)
        members = [CactusStats(lone, degree_stat(m, [{0: k} for k in lone.counts]),
                               1, lone.counts.index(1) + 1)]
    else:
        members = [st for _, st in enumerate_unlabelled(m, p)
                   if isinstance(stat, SizeStat) or stat in (st.colors, st.degrees)]
    return formulas.MODES[mode].classes(members, stat, color=color, s=s)


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
    """Every realizable color distribution for the given m and p, in
    lexicographic order: the p - n_c vertices each colour c lacks sum to
    p - 1, so they run through its compositions in reverse."""
    return [color_stat(m, tuple(p - d for d in lacks))
            for lacks in reversed(_compositions(p - 1, m))]


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
    out = [DegreeStat(m, combo) for counts in _all_color_vectors(m, p)
           for combo in product(*(rows_by_len.get(c, []) for c in counts.counts))]
    if any(sum(k for r in d.rows for _, k in r) != n for d in out):
        raise InconsistentResult(f"a degree matrix misses n = {n} vertices")
    return out


def verify(m: int, p_max: int) -> VerifyReport:
    """Compare every formula against exhaustive enumeration for p <= p_max:
    each check walks the size, colour and degree levels in one loop, and
    one `compare` holds a mode's closed form to its count at every level."""
    _check_size(m, p_max)
    if m > VERIFY_M_BUDGET:
        raise BudgetExceeded(f"verify capped at m <= {VERIFY_M_BUDGET}, got m = {m}")
    results: list[CheckResult] = []

    def record(name: str, p: int, pairs: list[tuple[tuple, object, object]]) -> None:
        """Each pair's label is a tuple of parts; only the first failure's
        is joined, by spaces, into the detail."""
        bad = next((pair for pair in pairs if pair[1] != pair[2]), None)
        detail = ""
        if bad:
            what, exp, act = bad
            detail = f"{' '.join(map(str, what))}: expected {exp}, got {act}"
        results.append(CheckResult(name, p, len(pairs), not bad, detail))

    def compare(label: tuple, mode: str, stat, option: int | None = None) -> tuple:
        """The mode's closed form (a centred count but for labelled) against the
        rooted tally or its count over the classes; `option` is its s or colour."""
        form = formulas.MODES[mode]
        expected = (form.formula(stat) if mode == "labelled"
                    else centred[stat][mode, option])
        return (label, expected, tally[stat] if mode == "rooted"
                else form.classes(groups.get(stat, []), stat, color=option, s=option))

    for p in range(1, p_max + 1):
        size = size_stat(m, p)
        rooted = generate_rooted(m, p)
        classes = [st for _, st in enumerate_unlabelled(m, p)]
        rootings = sum(p // st.aut_order for st in classes)
        if rootings != len(rooted):
            raise InconsistentResult(
                f"{len(classes)} classes have {rootings} rootings, "
                f"but {len(rooted)} rooted cacti were generated")
        groups: dict[object, list[CactusStats]] = {size: classes}
        for st in classes:
            for stat in (st.colors, st.degrees):
                groups.setdefault(stat, []).append(st)
        # each level's statistics, with the label parts that name one
        levels = {"size": [(size, ())],
                  "color": [(c, (c.counts,)) for c in _all_color_vectors(m, p)],
                  "degree": [(d, (d.rows,)) for d in _all_degree_matrices(m, p)]}
        centred = {stat: formulas.centred_counts(stat)
                   for keyed in levels.values() for stat, _ in keyed}
        tally = rooted_tally(rooted)
        tally[size] = len(rooted)

        for level, keyed in levels.items():
            record(f"rooted {level}", p, [compare(key or ("count",), "rooted", stat)
                                          for stat, key in keyed])

        strata = sorted(s for s in divisors(p) if s >= 2)
        for level, keyed in levels.items():
            pairs = []
            for stat, key in keyed:
                pairs += [compare((mode, *key), mode, stat)
                          for mode in ("unlabelled", "asymmetric")]
                for s in strata:
                    pairs.append(compare((f"aut={s}", *key), "aut-exact", stat, s))
                    if level == "size":
                        pairs.append(compare((f"aut>={s}",), "aut-atleast", stat, s))
                if level == "degree":  # the sum of 1/|Aut|: a class has p/|Aut| rootings
                    pairs.append((("reciprocal", *key),
                                  Fraction(centred[stat]["rooted", None], p),
                                  sum(Fraction(1, st.aut_order)
                                      for st in groups.get(stat, []))))
            record(f"classes {level}", p, pairs)

        record("labelled", p, [compare((level, *key), "labelled", stat)
                               for level in ("size", "color")
                               for stat, key in levels[level]])
        record("pointed orbits", p, [
            compare((level, *key, f"@{c}") if c else (level,), "pointed", stat, c)
            for level, keyed in levels.items() for stat, key in keyed
            for c in ([None] if level == "size" else range(1, m + 1))])

        if p <= FACT_BUDGET.get(m, 1):
            census = factorizations(m, p)
            known = {rows for _, (rows,) in levels["degree"]}
            pairs = [(("census", rows), centred[d]["rooted", None],
                      census.get(rows, 0)) for d, (rows,) in levels["degree"]]
            for key in census:
                if key not in known:
                    try:
                        degree_stat(m, [dict(row) for row in key])
                        coherent = True
                    except ValidationError:
                        coherent = False
                    pairs.append((("incoherent", key), False, coherent))
            record("factorizations", p, pairs)

    return VerifyReport(m, p_max, results)
