"""Reference values the benchmark computes apart from the program.

Nothing here imports `cacti`.  The values come from four sources:

* the published tables of M. Bona, M. Bousquet, G. Labelle and P. Leroux,
  "Enumeration of m-ary cacti", Advances in Applied Mathematics 24 (2000),
  arXiv:math/9804119 (Tables 1-3, transcribed below);
* Fuss-Catalan numbers, which count rooted cacti by size and are the
  coefficients of the one-sort planted series A = x + A^m;
* the Goulden-Jackson products for rooted cacti by colour and by degree
  distribution;
* size-level counts derived here from the planted series P = 1 + z P^m by
  Lagrange inversion and a necklace count of the branches around a vertex,
  then split by automorphism order with Moebius inversion.

Each function raises `ReferenceError` if an exact division fails, so a
wrong reference can never pass silently.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations, product

SOURCE = ("Bona, Bousquet, Labelle, Leroux, 'Enumeration of m-ary cacti', "
          "Adv. Appl. Math. 24 (2000), arXiv:math/9804119")

# Table 3 of the source: m -> {p: (unlabelled, asymmetric, gonal)}.
TABLE3 = {
    2: {0: (1, 1, 1), 1: (1, 1, 1), 2: (2, 0, 1), 3: (3, 1, 2), 4: (6, 2, 3),
        5: (10, 8, 6), 6: (28, 18, 14), 7: (63, 61, 34), 8: (190, 170, 95),
        9: (546, 538, 280), 10: (1708, 1654, 854), 11: (5346, 5344, 2694),
        12: (17428, 17252, 8714)},
    3: {0: (1, 1, 1), 1: (1, 1, 1), 2: (3, 0, 1), 3: (6, 3, 2), 4: (19, 10, 7),
        5: (57, 54, 19), 6: (258, 222, 86), 7: (1110, 1107, 372),
        8: (5475, 5346, 1825), 9: (27429, 27399, 9143),
        10: (143379, 142770, 47801), 11: (764970, 764967, 254990),
        12: (4173906, 4170672, 1391302)},
    4: {0: (1, 1, 1), 1: (1, 1, 1), 2: (4, 0, 1), 3: (10, 6, 3), 4: (44, 28, 11),
        5: (197, 193, 52), 6: (1228, 1140, 307), 7: (7692, 7688, 1936),
        8: (52828, 52364, 13207), 9: (373636, 373560, 93496),
        10: (2735952, 2732836, 683988), 11: (20506258, 20506254, 5127163),
        12: (156922676, 156899748, 39230669)},
    5: {0: (1, 1, 1), 1: (1, 1, 1), 2: (5, 0, 1), 3: (15, 10, 3), 4: (85, 60, 17),
        5: (510, 505, 102), 6: (4051, 3876, 811), 7: (33130, 33125, 6626),
        8: (291925, 290700, 58385), 9: (2661255, 2661100, 532251),
        10: (25059670, 25049020, 5011934), 11: (241724380, 241724375, 48344880),
        12: (2379912355, 2379812100, 475982471)},
    6: {0: (1, 1, 1), 1: (1, 1, 1), 2: (6, 0, 1), 3: (21, 15, 4),
        4: (146, 110, 25), 5: (1101, 1095, 187), 6: (10632, 10326, 1772),
        7: (107062, 107056, 17880), 8: (1151802, 1149126, 191967),
        9: (12845442, 12845166, 2141232), 10: (147845706, 147817170, 24640989)},
    7: {0: (1, 1, 1), 1: (1, 1, 1), 2: (7, 0, 1), 3: (28, 21, 4),
        4: (231, 182, 33), 5: (2100, 2093, 300), 6: (23884, 23394, 3412),
        7: (285390, 285383, 40770), 8: (3626295, 3621150, 518043),
        9: (47813815, 47813367, 6830545), 10: (650367788, 650302814, 92909684)},
}

# Table 2 of the source: colour counts -> (rooted, unlabelled, asymmetric).
TABLE2 = {
    (7, 7): (226512, 17424, 17424),
    (5, 6): (5292, 536, 523),
    (6, 6, 7): (28224, 3138, 3135),
    (4, 4, 5): (225, 39, 36),
    (5, 6, 8): (10584, 1176, 1176),
    (5, 5, 5): (1323, 189, 189),
    (4, 6, 7): (1960, 248, 242),
    (5, 6, 6): (5488, 692, 680),
    (3, 4, 4, 5): (50, 10, 10),
    (6, 6, 6, 7): (21952, 2752, 2736),
    (1, 3, 3): (1, 1, 0),
    (2, 2, 3): (3, 1, 1),
    (1, 4, 4): (1, 1, 0),
    (2, 3, 4): (6, 2, 1),
    (3, 3, 3): (16, 4, 4),
    (3, 3, 5): (20, 4, 4),
    (1, 3, 3, 3): (1, 1, 0),
    (2, 2, 3, 3): (3, 1, 1),
    (2, 3, 4, 4): (6, 2, 1),
    (4, 4, 4, 4): (125, 25, 25),
}

# Table 1 of the source: degree rows -> (pointed per colour, rooted,
# unlabelled, asymmetric).  The source's first row is incoherent (its rows
# imply different polygon counts) and has no values.
TABLE1_INCOHERENT = "1^5 3^2; 2^7"
TABLE1 = {
    "1^2 2^2 4^1; 1^2 2^4": ((76, 90), 150, 16, 14),
    "1^3 2^3; 1^3 2^3; 1^6 3^1": ((600, 600, 702), 900, 102, 99),
    "1^2 2^1; 1^2 2^1; 1^2 2^1": ((12, 12, 12), 16, 4, 4),
    "4^1; 1^4; 1^4": ((1, 1, 1), 1, 1, 0),
    "2^2; 1^2 2^1; 1^4": ((1, 2, 2), 2, 1, 0),
    "1^1 3^1; 1^2 2^1; 1^4": ((2, 3, 4), 4, 1, 1),
    "1^2 2^2; 1^2 2^2; 1^4 2^1": ((54, 54, 69), 81, 15, 12),
    "1^3 2^1 4^1; 1^3 2^3; 1^7 2^1": ((600, 720, 960), 1080, 120, 120),
    "1^3 2^2; 1^3 2^2; 1^3 2^2": ((280, 280, 280), 392, 56, 56),
    "1^2 3^2; 1^4 2^2; 1^6 2^1": ((120, 180, 212), 240, 32, 28),
    "2^4; 1^4 2^2; 1^6 2^1": ((20, 30, 36), 40, 6, 4),
    "1^4 4^1; 1^4 2^2; 1^4 2^2": ((252, 300, 300), 400, 52, 48),
    "1^2 2^3; 1^4 2^2; 1^4 2^2": ((504, 600, 600), 800, 104, 96),
    "1^4 2^2; 1^4 2^2; 1^4 2^2; 1^6 2^1": ((6000, 6000, 6000, 7008),
                                           8000, 1008, 992),
}


class ReferenceError(ArithmeticError):
    """An exact division in a reference formula left a remainder."""


def exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ReferenceError(f"{a} / {b} is not an integer")
    return q


# --- elementary number theory ------------------------------------------------

def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    return math.prod((q - 1) * q ** (e - 1) for q, e in _prime_factors(n).items())


def mobius(n: int) -> int:
    factors = _prime_factors(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def multinomial(parts) -> int:
    out, total = 1, 0
    for k in parts:
        total += k
        out *= math.comb(total, k)
    return out


# --- rooted counts -----------------------------------------------------------

def fuss_catalan(m: int, p: int) -> int:
    """Rooted cacti with p polygons; [x^((m-1)p+1)] of A = x + A^m."""
    return exact_div(math.comb(m * p, p), (m - 1) * p + 1)


def rooted_color(counts: tuple[int, ...]) -> int:
    """Goulden-Jackson: rooted cacti with colour counts n = (n_1..n_m)."""
    m = len(counts)
    p = exact_div(sum(counts) - 1, m - 1)
    return exact_div(math.prod(math.comb(p, c) for c in counts), p)


def rooted_degree(rows: list[dict[int, int]]) -> int:
    """Goulden-Jackson: p^(m-1) / prod n_i * prod_i multinomial(n_i; row_i)."""
    m = len(rows)
    p = sum(j * k for j, k in rows[0].items())
    counts = [sum(row.values()) for row in rows]
    top = p ** (m - 1) * math.prod(multinomial(row.values()) for row in rows)
    return exact_div(top, math.prod(counts))


# --- size level, split by automorphism order ---------------------------------

def necklaces(m: int, q: int) -> int:
    """Cyclic sequences of branches of total size q around one vertex.

    A branch is a polygon carrying m-1 planted cacti, so the branch series
    is G = z P^(m-1) with P = 1 + z P^m = 1/(1-G).  Cycle index of the
    cyclic groups: sum_d phi(d)/d [z^q] log P(z^d), and Lagrange inversion
    gives [z^k] log P = C(mk, k)/(mk).
    """
    return exact_div(sum(phi(d) * math.comb(m * q // d, q // d)
                         for d in divisors(q)), m * q)


@lru_cache(maxsize=None)
def size_counts(m: int, p: int) -> dict:
    """Every size-level count for p >= 1, derived without the program.

    A class whose automorphism order is a multiple of s >= 2 has a unique
    central vertex whose branch necklace is s-periodic, so it is one
    necklace of size p/s around a centre of any of the m colours.
    Moebius inversion over the multiples gives the exact strata, the
    dissymmetry theorem gives the unlabelled count, and the asymmetric
    count is what remains.
    """
    rooted = fuss_catalan(m, p)
    pointed = m * necklaces(m, p)
    unlabelled = pointed - (m - 1) * rooted
    strata = [s for s in divisors(p) if s >= 2]
    at_least = {s: m * necklaces(m, p // s) for s in strata}
    exact = {s: sum(mobius(t // s) * at_least[t] for t in strata if t % s == 0)
             for s in strata}
    asymmetric = unlabelled - sum(exact.values())
    if rooted != p * asymmetric + sum(p // s * n for s, n in exact.items()):
        raise ReferenceError(f"size strata inconsistent at m={m}, p={p}")
    n = (m - 1) * p + 1
    return {"rooted": rooted, "pointed": pointed, "unlabelled": unlabelled,
            "asymmetric": asymmetric, "exact": exact, "at_least": at_least,
            "labelled": exact_div(rooted * math.factorial(n), p)}


def gonal(m: int, p: int, kind: str) -> int:
    """Plane m-gonal cacti without the colouring (p >= 1).

    Otter's dissymmetry on the vertex-polygon tree: classes = vertex-pointed
    + polygon-pointed - corner-pointed.  Corner-pointed cacti are rigid and
    number fuss_catalan(m, p); a polygon-pointed cactus is m planted cacti
    around a polygon, up to its m rotations.
    """
    planted = fuss_catalan(m, p)
    if kind == "planted":
        return planted
    if kind == "labelled":
        n = (m - 1) * p + 1
        return exact_div(math.factorial(n) * planted, m * p)
    pointed = necklaces(m, p)
    if kind == "pointed":
        return pointed
    # [z^(p-1)] P(z^d)^(m/d) = C(mp/d, (p-1)/d) / p when d | p-1.
    rooted = exact_div(sum(phi(d) * math.comb(m * p // d, (p - 1) // d)
                           for d in divisors(math.gcd(m, p - 1))), m * p)
    if kind == "rooted":
        return rooted
    return pointed + rooted - planted


def constellation(m: int, p: int) -> int:
    """Rooted m-constellations with p polygons (Bousquet-Melou and Schaeffer,
    'Enumeration of planar constellations', Adv. Appl. Math. 24 (2000))."""
    top = (m + 1) * m ** (p - 1) * math.comb(m * p, p)
    return exact_div(top, ((m - 1) * p + 2) * ((m - 1) * p + 1))


def free_bicoloured(n1: int, n2: int) -> int:
    """Labelled spanning trees of K_{n1,n2} (Scoins): free 2-ary cacti."""
    return n1 ** (n2 - 1) * n2 ** (n1 - 1)


# --- what `verify` must compare ----------------------------------------------

@lru_cache(maxsize=None)
def color_vectors(m: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Realizable colour counts: 1 <= n_i <= p summing to (m-1)p + 1."""
    n = (m - 1) * p + 1
    return tuple(v for v in product(range(1, p + 1), repeat=m) if sum(v) == n)


@lru_cache(maxsize=None)
def partitions_into(p: int, k: int) -> int:
    """Partitions of p into exactly k positive parts."""
    if p == 0 and k == 0:
        return 1
    if p <= 0 or k <= 0:
        return 0
    return partitions_into(p - 1, k - 1) + partitions_into(p - k, k)


def degree_matrix_count(m: int, p: int) -> int:
    return sum(math.prod(partitions_into(p, c) for c in v)
               for v in color_vectors(m, p))


@lru_cache(maxsize=None)
def incoherent_census_keys(m: int, p: int) -> int:
    """Cycle-type tuples of m-factorizations of the p-cycle with genus > 0.

    Enumerates (g_1, ..., g_{m-1}) and sets g_m so that the product is the
    cycle; a tuple of cycle types is coherent iff the total number of
    cycles is (m-1)p + 1.
    """
    sigma = tuple((i + 1) % p for i in range(p))

    def cycles(g):
        seen, out = [False] * p, []
        for start in range(p):
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = g[i]
                length += 1
            if length:
                out.append(length)
        return tuple(sorted(out))

    keys = set()
    perms = list(permutations(range(p)))
    for gs in product(perms, repeat=m - 1):
        acc = tuple(range(p))
        for g in gs:
            acc = tuple(g[acc[i]] for i in range(p))
        inverse = [0] * p
        for i, j in enumerate(acc):
            inverse[j] = i
        last = tuple(sigma[inverse[i]] for i in range(p))
        keys.add(tuple(cycles(g) for g in gs) + (cycles(last),))
    return sum(1 for key in keys
               if sum(len(c) for c in key) != (m - 1) * p + 1)


def verify_comparisons(m: int, p: int, with_census: bool) -> dict[str, int]:
    """Check name -> number of comparisons `verify` makes at size p."""
    colours = len(color_vectors(m, p))
    degrees = degree_matrix_count(m, p)
    strata = len(divisors(p)) - 1
    out = {
        "rooted size": 1,
        "rooted color": colours,
        "rooted degree": degrees,
        "classes size": 2 + 2 * strata,
        "classes color": colours * (2 + strata),
        "classes degree": degrees * (3 + strata),
        "labelled": 1 + colours,
        "pointed orbits": 1 + m * colours + m * degrees,
    }
    if with_census:
        out["factorizations"] = degrees + incoherent_census_keys(m, p)
    return out
