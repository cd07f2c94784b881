"""Plain references for the oracle's isomorphism classes and pointed orbits.

The oracle builds each class once from its centroid and counts pointed
orbits by Burnside's lemma.  The references here work from the rooted
cacti instead: `orbit_classes` re-roots each generated cactus at every
polygon and folds the orbits together, `canonical_unrooted` keys one cactus
by its least rooting, and `count_pointed_orbits` keys every vertex of a
class by the cyclic sequence of polygons around it.  `encode_rooted` is the
string form of a rooted cactus that these keys compare.

The oracle keeps one form of a cactus, the recursive one.  `to_graph`
expands it into an explicit incidence graph, a `CactusGraph`, and
`re_root` rebuilds the recursive form rooted at any polygon of the graph.
`graph_stats` reads the colour and degree statistics off the graph, vertex
by vertex, where the oracle reads them off the recursive form.
`reference_gonal` keys every generated rooted cactus by its least colourless
rooting, where the oracle keys each class at its centroid.
`rotation_filter_necklaces` builds the branch sequences around a centre
vertex by enumerating every sequence and keeping each that is its own least
rotation, where the oracle extends prenecklaces only.
`factorizations` counts the m-factorizations of the full cycle over the
permutations of S_p, where the oracle reads them off the hook characters.

The recursive form stores no colours: component c - 1 of a rooted cactus
hangs at colour c, and part k of a polygon sits k colours on from the
polygon's vertex in the parent.  The helpers here take each colour from
that position.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product

from cacti import oracle
from cacti.oracle import Planted, Rooted
from cacti.stats import DegreeStat, InconsistentResult, color_marginal


@dataclass
class CactusGraph:
    """Explicit incidence form: colors, cyclic polygon order per vertex,
    and the m vertices of each polygon in color order."""

    m: int
    colors: list[int]
    vertex_polys: list[list[int]]
    polygons: list[list[int]]


def to_graph(rc: Rooted) -> CactusGraph:
    """Expand the recursive form into an explicit incidence structure.

    Polygon 0 is the root polygon; the cyclic order at each vertex starts
    with the polygon through which the vertex was first reached.
    """
    m = len(rc)
    g = CactusGraph(m, [], [], [])
    g.polygons.append([-1] * m)
    for color, pc in enumerate(rc, start=1):
        v = _new_vertex(g, color, 0)
        g.polygons[0][color - 1] = v
        _attach(g, v, pc)
    return g


def _new_vertex(g: CactusGraph, color: int, parent_poly: int) -> int:
    g.colors.append(color)
    g.vertex_polys.append([parent_poly])
    return len(g.colors) - 1


def _attach(g: CactusGraph, v: int, pc: Planted) -> None:
    color = g.colors[v]
    for poly in pc.polygons:
        pid = len(g.polygons)
        g.polygons.append([-1] * g.m)
        g.polygons[pid][color - 1] = v
        g.vertex_polys[v].append(pid)
        for k, sub in enumerate(poly, start=1):
            c = _colour_at(color, k, g.m)
            w = _new_vertex(g, c, pid)
            g.polygons[pid][c - 1] = w
            _attach(g, w, sub)


def _planted_from(g: CactusGraph, v: int, parent_poly: int) -> Planted:
    inc = g.vertex_polys[v]
    i = inc.index(parent_poly)
    polys = []
    for q in inc[i + 1:] + inc[:i]:
        polys.append(_polygon_from(g, v, q))
    return Planted(tuple(polys))


def _polygon_from(g: CactusGraph, v: int, q: int) -> tuple[Planted, ...]:
    color = g.colors[v]
    members = []
    for k in range(1, g.m):
        c = _colour_at(color, k, g.m)
        members.append(_planted_from(g, g.polygons[q][c - 1], q))
    return tuple(members)


def re_root(g: CactusGraph, pid: int) -> Rooted:
    """Rebuild the rooted form with polygon `pid` as the root."""
    return tuple(_planted_from(g, g.polygons[pid][c], pid) for c in range(g.m))


def _colour_at(color, k, m):
    """The colour k steps on from `color` around a polygon."""
    return (color - 1 + k) % m + 1


def _encode_polygon(poly, color, m):
    """The parts of a polygon at a colour-`color` vertex."""
    return "[" + ",".join(encode_planted(sub, _colour_at(color, k, m), m)
                          for k, sub in enumerate(poly, start=1)) + "]"


def encode_planted(pc, color, m):
    """String form of a planted cactus whose root has colour `color`."""
    return f"{color}(" + "".join(_encode_polygon(poly, color, m)
                                 for poly in pc.polygons) + ")"


def encode_rooted(rc):
    m = len(rc)
    return "{" + ",".join(encode_planted(c, color, m)
                          for color, c in enumerate(rc, start=1)) + "}"


def _degree_rows(g):
    """The sorted degree rows of an incidence structure, one per color."""
    rows = [{} for _ in range(g.m)]
    for color, polys in zip(g.colors, g.vertex_polys):
        row = rows[color - 1]
        row[len(polys)] = row.get(len(polys), 0) + 1
    return tuple(tuple(sorted(row.items())) for row in rows)


def graph_stats(g):
    """Color and degree distributions read off an incidence structure."""
    degrees = DegreeStat(g.m, _degree_rows(g))
    return color_marginal(degrees), degrees


def canonical_unrooted(g):
    """Isomorphism-complete key: minimum rooted encoding over all rootings."""
    return min(encode_rooted(re_root(g, pid))
               for pid in range(len(g.polygons)))


def orbit_classes(p, rooted):
    """(representative, aut order, colours, degrees) of each class of
    `rooted`, all rooted cacti with p polygons in encoding order.

    Each cactus not yet seen is re-rooted at every polygon and the positions
    of its re-rootings are marked.  The first member of an orbit met in the
    walk is its least rooting, so classes come out sorted by that rooting.
    """
    position = {rc: i for i, rc in enumerate(rooted)}
    seen = bytearray(len(rooted))
    out = []
    for i, rc in enumerate(rooted):
        if seen[i]:
            continue
        g = to_graph(rc)
        orbit = set()
        for pid in range(len(g.polygons)):
            j = position.get(re_root(g, pid))
            if j is None or seen[j]:
                raise InconsistentResult(
                    f"re-rooting {encode_rooted(rc)} at polygon {pid} "
                    "gives a cactus that was not generated or lies in an "
                    "earlier orbit")
            orbit.add(j)
        if p % len(orbit):
            raise InconsistentResult(
                f"{len(orbit)} rootings of {encode_rooted(rc)} "
                f"do not divide p = {p}")
        for j in orbit:
            seen[j] = 1
        colors, degrees = graph_stats(g)
        out.append((rc, p // len(orbit), colors, degrees))
    if not all(seen):
        raise InconsistentResult(
            f"{seen.count(0)} rooted cacti lie in no re-rooting orbit")
    return out


def reference_classes(m, p):
    """`orbit_classes` of every rooted cactus, sorted by encoding."""
    return orbit_classes(p, sorted(oracle.generate_rooted(m, p),
                                   key=encode_rooted))


def _pointed_key(g, v):
    """Canonical encoding of the cactus pointed at vertex v.

    Pointing removes the linear order at v, so the incident polygons are
    only cyclically ordered: minimize over rotations.
    """
    parts = [_encode_polygon(_polygon_from(g, v, q), g.colors[v], g.m)
             for q in g.vertex_polys[v]]
    return min(f"{g.colors[v]}<" + "".join(parts[r:] + parts[:r]) + ">"
               for r in range(len(parts)))


def count_pointed_orbits(g, color):
    """Orbits of colour-`color` vertices under the automorphism group."""
    return len({_pointed_key(g, v) for v, c in enumerate(g.colors) if c == color})


def _colourless(pc):
    """String form of a planted cactus with its colours erased."""
    return "(" + "".join("[" + ",".join(map(_colourless, poly)) + "]"
                         for poly in pc.polygons) + ")"


def reference_gonal(m, p):
    """Unlabelled plane m-gonal cacti with p polygons: the least colourless
    key over all rootings and root rotations of every rooted cactus."""
    keys = set()
    for rc in oracle.generate_rooted(m, p):
        g = to_graph(rc)
        best = None
        for pid in range(len(g.polygons)):
            comps = [_colourless(c) for c in re_root(g, pid)]
            for r in range(m):
                key = "{" + ",".join(comps[r:] + comps[:r]) + "}"
                if best is None or key < best:
                    best = key
        keys.add(best)
    return len(keys)


def _capped_compositions(total, cap):
    """All tuples of ints in 1..cap summing to `total`."""
    if total == 0:
        return [()]
    return [(head,) + rest for head in range(1, min(total, cap) + 1)
            for rest in _capped_compositions(total - head, cap)]


def rotation_filter_necklaces(m, p):
    """(branches, automorphism order) of each vertex-centred class with a
    centre of any one colour: every branch sequence around the centre with
    at most p // 2 polygons per branch that is its own least rotation."""
    for weights in _capped_compositions(p, p // 2):
        k = len(weights)
        for picks in product(*(enumerate(oracle._polygons_at(m, w))
                               for w in weights)):
            seq = [(w, i) for w, (i, _) in zip(weights, picks)]
            rotations = [seq[r:] + seq[:r] for r in range(1, k)]
            if any(rot < seq for rot in rotations):
                continue
            period = next((r for r, rot in enumerate(rotations, start=1)
                           if rot == seq), k)
            yield tuple(poly for _, poly in picks), k // period


def cycle_type(perm):
    """The cycle type of a permutation of range(p), in DegreeStat's sparse
    (length, multiplicity) row format."""
    seen = [False] * len(perm)
    lengths = {}
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


def inverse(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def factorizations(m, p):
    """`oracle.factorizations` counted over the permutations: for every
    (g_1, ..., g_m) with g_1 g_2 ... g_m equal to the cycle (1 2 ... p),
    applying g_1 first, the m-tuple of cycle types gets one tick.

    The census steps through one factor at a time.  A k-factorization of r
    is a first factor a followed by a (k - 1)-factorization of the rest,
    a^-1 r, whose cycle type is that of r^-1 a.  Conjugation preserves
    cycle types, so the census depends only on the cycle type of r: the
    first factors are split once per type, by their type and the rest's,
    and each split extends the (k - 1)-census of the rest's type.  Only the
    cycle needs its m-factorizations.  A split composes the p! permutations
    with one r, in place of enumerating (p!)^(m-2) tuples of factors.
    """
    cycle_types = {g: cycle_type(g) for g in permutations(range(p))}
    sigma = tuple((i + 1) % p for i in range(p))
    cycle = cycle_types[sigma]
    # one permutation of each cycle type is factored; at m = 2 the cycle alone
    factored = {t: g for g, t in cycle_types.items()} if m > 2 else {cycle: sigma}
    splits = {}
    for t, r in factored.items():
        rest = inverse(r)  # a -> r^-1 a, of the type of a^-1 r
        splits[t] = Counter((ta, cycle_types[tuple(a[j] for j in rest)])
                            for a, ta in cycle_types.items())
    tails = {t: {(t,): 1} for t in cycle_types.values()}
    for k in range(2, m + 1):
        extended = {}
        for t in factored if k < m else [cycle]:
            census = Counter()
            for (ta, tr), count in splits[t].items():
                for tail, more in tails[tr].items():
                    census[(ta,) + tail] += count * more
            extended[t] = census
        tails = extended
    return dict(tails[cycle])
