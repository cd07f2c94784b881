"""Closed-form counts of m-ary cacti over validated statistics.

Every function takes a statistic built by `cacti.stats` and returns an exact
int (or a reduced Fraction for the reciprocal automorphism sum).  The counts
come in five flavours per statistic level:

* rooted      -- a polygon is distinguished (rooted cacti are rigid),
* labelled    -- vertices carry distinct labels within each color,
* pointed     -- a vertex of a given color is distinguished,
* unlabelled  -- plain isomorphism classes,
* asymmetric  -- classes with trivial automorphism group,

plus the strata count_aut for classes whose automorphism group has order
exactly s / a multiple of s.  Unlabelled and pointed counts are divisor sums
weighted by Euler's phi; replacing phi by the Moebius function turns them
into asymmetric / exact-order counts.  `MODES` names each mode once for
every route: its closed form, its count over isomorphism classes and the
statistic level it is bound to.

Conventions for the empty cactus (p = 0, a single vertex): rooted counts are
0 (there is no polygon to distinguish), all other counts are 1.  Every
division in the formulas below cancels exactly; a failed conversion to int
would signal an implementation bug, hence `InconsistentResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .arith import (
    binomial,
    common_divisors,
    divisors,
    euler_phi,
    moebius_mu,
    multinomial,
    rising_factorial,
)
from .stats import (
    ColorStat,
    DegreeStat,
    InconsistentResult,
    SizeStat,
    Statistic,
    ValidationError,
    shift,
    size_stat,
)


class AutMode(Enum):
    EXACTLY = "exactly"
    AT_LEAST = "at-least"


class GonalKind(Enum):
    LABELLED = "labelled"
    UNLABELLED = "unlabelled"
    POINTED = "pointed"
    ROOTED = "rooted"
    PLANTED = "planted"


class ColorOutOfRange(ValidationError):
    """Pointed color must lie in 1..m."""


class ColorRequired(ValidationError):
    """Pointed counts at color/degree level need an explicit color."""


class ColorForbidden(ValidationError):
    """Size-level pointed counts sum over colors; no color argument."""


class STooSmall(ValidationError):
    """Automorphism strata exist only for order s >= 2."""


class NonPositiveP(ValidationError):
    """Constellations need at least one polygon."""


def _exact(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise InconsistentResult(f"non-integral {context}: {value}")
    return int(value)


def _row_parts(row: tuple[tuple[int, int], ...], scale: int = 1) -> list[int]:
    """Multiplicities of a degree row, each divided by `scale`."""
    return [k // scale for _, k in row]


def _row_minus_unit(row: tuple[tuple[int, int], ...], h: int) -> list[int]:
    """Multiplicities of a row with one degree-h vertex removed."""
    return [k - 1 if j == h else k for j, k in row]


def count_rooted(stat: Statistic) -> int:
    """Cacti with a distinguished polygon (these have no symmetries)."""
    p = stat.p
    if p == 0:
        return 0
    if isinstance(stat, SizeStat):
        return _exact(Fraction(binomial(stat.m * p, p), stat.n), "rooted size count")
    if isinstance(stat, ColorStat):
        prod = math.prod(binomial(p, c) for c in stat.counts)
        return _exact(Fraction(prod, p), "rooted color count")
    counts = stat.color_counts
    prod = math.prod(multinomial(c, _row_parts(row))
                     for c, row in zip(counts, stat.rows))
    return _exact(Fraction(p ** (stat.m - 1) * prod, math.prod(counts)),
                  "rooted degree count")


def count_labelled(stat: Statistic) -> int:
    """Cacti on labelled vertices (labels distinct within each color)."""
    p = stat.p
    if p == 0:
        return 1
    if isinstance(stat, SizeStat):
        value = Fraction(math.factorial(stat.n - 1) * binomial(stat.m * p, p), p)
        return _exact(value, "labelled size count")
    if isinstance(stat, ColorStat):
        prod = math.prod(rising_factorial(p - c + 1, c - 1) for c in stat.counts)
        return p ** (stat.m - 2) * prod
    counts = stat.color_counts
    prod = math.prod(math.factorial(c - 1) * multinomial(c, _row_parts(row))
                     for c, row in zip(counts, stat.rows))
    return p ** (stat.m - 2) * prod


def pointed_colors(stat: Statistic, color: int | None) -> range:
    """The colors a pointed count sums over: all of them at size level, which
    takes no color; else the one given color, which must lie in 1..m."""
    if isinstance(stat, SizeStat):
        if color is not None:
            raise ColorForbidden("size-level pointed counts take no color")
        return range(1, stat.m + 1)
    if color is None:
        raise ColorRequired("pointed counts need a color at this level")
    if not 1 <= color <= stat.m:
        raise ColorOutOfRange(f"color {color} not in 1..{stat.m}")
    return range(color, color + 1)


def count_pointed(stat: Statistic, color: int | None = None) -> int:
    """Cacti pointed at a vertex; summed over colors at size level."""
    pointed_colors(stat, color)
    p = stat.p
    if p == 0:
        return 1
    if isinstance(stat, SizeStat):
        total = sum(euler_phi(d) * binomial(p * stat.m // d, p // d)
                    for d in divisors(p))
        return _exact(Fraction(total, p), "pointed size count")
    stat = shift(stat, color - 1)
    if isinstance(stat, ColorStat):
        total = _color_sum(p, stat.counts, 0, euler_phi, min_d=1)
        return _exact(Fraction((p - stat.counts[0] + 1) * total, p * p),
                      "pointed color count")
    total = _degree_sum(stat, 0, euler_phi, min_d=1)
    rest = math.prod(stat.color_counts[1:])
    return _exact(Fraction(p ** (stat.m - 2) * total, rest),
                  "pointed degree count")


def _color_sum(p: int, counts: tuple[int, ...], i0: int,
               weight: Callable[[int], int], min_d: int,
               s: int = 1) -> int:
    """Inner divisor sum of the pointed/unlabelled color formulas.

    Sums weight(d/s) * C(p/d, (n_i - 1)/d) * prod_{j != i} C(p/d, n_j/d)
    over d > min_d - 1 with s | d and d dividing p and every component of
    the count vector lowered by one unit at position i0.
    """
    lowered = [c - 1 if j == i0 else c for j, c in enumerate(counts)]
    total = 0
    for d in common_divisors([p] + lowered):
        if d < min_d or d % s:
            continue
        term = weight(d // s) * binomial(p // d, lowered[i0] // d)
        for j, c in enumerate(counts):
            if j != i0:
                term *= binomial(p // d, c // d)
        total += term
    return total


def _degree_sum(stat: DegreeStat, i0: int, weight: Callable[[int], int],
                min_d: int, s: int = 1) -> int:
    """Inner (h, d) sum of the pointed/unlabelled degree formulas.

    Pairs (h, d) run over degrees h present in row i0 and d with s | d,
    d >= min_d, d dividing h, p and every entry of the matrix after one
    degree-h vertex of color i0 is removed.
    """
    p = stat.p
    counts = stat.color_counts
    other_entries = [k for i, row in enumerate(stat.rows) if i != i0
                     for _, k in row]
    total = 0
    for h, _ in stat.rows[i0]:
        lowered = _row_minus_unit(stat.rows[i0], h)
        for d in common_divisors([h, p] + lowered + other_entries):
            if d < min_d or d % s:
                continue
            term = weight(d // s) * multinomial(
                (counts[i0] - 1) // d, [k // d for k in lowered])
            for i, row in enumerate(stat.rows):
                if i != i0:
                    term *= multinomial(counts[i] // d, _row_parts(row, d))
            total += term
    return total


def _count_plain(stat: Statistic, weight: Callable[[int], int],
                 context: str) -> int:
    """Shared body of count_unlabelled (weight = phi) / count_asymmetric (mu)."""
    p = stat.p
    if p == 0:
        return 1
    if isinstance(stat, SizeStat):
        total = Fraction(binomial(stat.m * p, p), stat.n)
        total += sum(weight(p // d) * binomial(stat.m * d, d)
                     for d in divisors(p) if d < p)
        return _exact(total / p, context)
    if isinstance(stat, ColorStat):
        total = math.prod(binomial(p, c) for c in stat.counts)
        for i, c in enumerate(stat.counts):
            total += (p - c + 1) * _color_sum(p, stat.counts, i, weight, min_d=2)
        return _exact(Fraction(total, p * p), context)
    counts = stat.color_counts
    total = Fraction(math.prod(multinomial(c, _row_parts(row))
                               for c, row in zip(counts, stat.rows)),
                     math.prod(counts))
    for i in range(stat.m):
        rest = math.prod(c for j, c in enumerate(counts) if j != i)
        total += Fraction(_degree_sum(stat, i, weight, min_d=2), rest)
    return _exact(p ** (stat.m - 2) * total, context)


def count_unlabelled(stat: Statistic) -> int:
    """Isomorphism classes of cacti with the given statistic."""
    return _count_plain(stat, euler_phi, "unlabelled count")


def count_asymmetric(stat: Statistic) -> int:
    """Isomorphism classes with trivial automorphism group."""
    return _count_plain(stat, moebius_mu, "asymmetric count")


def _check_stratum(s: int) -> None:
    if s < 2:
        raise STooSmall(f"automorphism order s = {s} < 2")


def count_aut(stat: Statistic, s: int, mode: AutMode) -> int:
    """Classes whose automorphism group order is exactly s / a multiple of s.

    Automorphisms are rotations about a central vertex, so their order must
    divide p; the count is 0 whenever s does not.
    """
    _check_stratum(s)
    p = stat.p
    if p == 0 or p % s:
        return 0
    weight = moebius_mu if mode is AutMode.EXACTLY else euler_phi
    if isinstance(stat, SizeStat):
        total = sum(weight(d) * binomial(p * stat.m // (s * d), p // (s * d))
                    for d in divisors(p // s))
        return _exact(Fraction(s * total, p), "aut size count")
    if isinstance(stat, ColorStat):
        total = Fraction(0)
        for i, c in enumerate(stat.counts):
            inner = _color_sum(p, stat.counts, i, weight, min_d=s, s=s)
            total += Fraction(s * (p - c + 1) * inner, p * p)
        return _exact(total, "aut color count")
    counts = stat.color_counts
    total = Fraction(0)
    for i in range(stat.m):
        rest = math.prod(c for j, c in enumerate(counts) if j != i)
        inner = _degree_sum(stat, i, weight, min_d=s, s=s)
        total += Fraction(p ** (stat.m - 2) * s * inner, rest)
    return _exact(total, "aut degree count")


def aut_reciprocal_sum(stat: DegreeStat) -> Fraction:
    """Sum of 1/|Aut| over unlabelled cacti with this degree distribution.

    Equals the rooted count divided by p, since each class contributes
    p/|Aut| distinct rootings; useful as a completeness check when listing
    classes exhaustively.
    """
    if stat.p == 0:
        raise ValidationError("reciprocal sum needs p >= 1")
    return Fraction(count_rooted(stat), stat.p)


def count_gonal(m: int, p: int, kind: GonalKind) -> int:
    """Plane cacti on m-gons without the cyclic coloring.

    Rooted gonal cacti are no longer rigid (the root polygon may rotate),
    so unlabelled gonal counts combine pointed, rooted and planted counts:
    unlabelled = pointed + rooted - planted.
    """
    size_stat(m, p)  # range checks
    if p == 0:
        return 0 if kind is GonalKind.ROOTED else 1
    n = (m - 1) * p + 1
    if kind is GonalKind.LABELLED:
        return _exact(Fraction(math.factorial(n - 1) * binomial(m * p, p), m * p),
                      "labelled gonal count")
    if kind is GonalKind.PLANTED:
        return _exact(Fraction(binomial(m * p, p), n), "planted gonal count")
    if kind is GonalKind.POINTED:
        total = sum(euler_phi(p // d) * binomial(d * m, d) for d in divisors(p))
        return _exact(Fraction(total, m * p), "pointed gonal count")
    if kind is GonalKind.ROOTED:
        total = sum(euler_phi(d) * binomial(p * m // d, (p - 1) // d)
                    for d in divisors(math.gcd(m, p - 1)))
        return _exact(Fraction(total, m * p), "rooted gonal count")
    return (count_gonal(m, p, GonalKind.POINTED)
            + count_gonal(m, p, GonalKind.ROOTED)
            - count_gonal(m, p, GonalKind.PLANTED))


def count_free_labelled(colors: ColorStat) -> int:
    """Labelled cacti without the plane embedding (polygon sets, not cycles)."""
    p = colors.p
    if p == 0:
        return 1
    value = Fraction(p ** colors.m, p * p)
    for c in colors.counts:
        value *= Fraction(math.factorial(c - 1) * c ** (p - c),
                          math.factorial(p - c))
    return _exact(value, "free labelled count")


def count_constellation_rooted(m: int, p: int) -> int:
    """Rooted constellations: like rooted cacti but polygon cycles allowed."""
    if m < 2:
        raise ValidationError(f"gon size m = {m}, need m >= 2")
    if p < 1:
        raise NonPositiveP(f"constellations need p >= 1, got {p}")
    value = Fraction((m + 1) * m ** (p - 1),
                     ((m - 1) * p + 2) * ((m - 1) * p + 1))
    return _exact(value * binomial(m * p, p), "rooted constellation count")


@dataclass(frozen=True)
class Mode:
    """One counting mode, the same for every route.

    `formula(stat, ...)` is the closed form.  `classes(members, stat, ...)`
    counts the isomorphism classes `members` of the statistic `stat`,
    reading of each only `aut_order`, `colors` and `pointed(color)`; it is
    None where the oracle counts another way or not at all.  Both take the
    options `color`, `s` and `kind` by keyword and ignore those their mode
    does not read.  `level` is the one statistic type the mode accepts, if
    it accepts just one.
    """

    formula: Callable[..., int]
    classes: Callable[..., int] | None = None
    level: type | None = None


def _labelled_classes(members, stat: Statistic, **_) -> int:
    """Sum of labellings / |Aut|: n! labellings at size level, else the
    product of n_c! over the colors."""
    if isinstance(stat, SizeStat):
        return sum(math.factorial(stat.n) // st.aut_order for st in members)
    return sum(math.prod(math.factorial(c) for c in st.colors.counts)
               // st.aut_order for st in members)


def _aut_mode(which: AutMode) -> Mode:
    def classes(members, stat: Statistic, *, s: int, **_) -> int:
        _check_stratum(s)
        if which is AutMode.EXACTLY:
            return sum(st.aut_order == s for st in members)
        return sum(st.aut_order % s == 0 for st in members)

    return Mode(lambda stat, *, s, **_: count_aut(stat, s, which), classes)


MODES: dict[str, Mode] = {
    "rooted": Mode(lambda stat, **_: count_rooted(stat)),
    "labelled": Mode(lambda stat, **_: count_labelled(stat), _labelled_classes),
    "pointed": Mode(
        lambda stat, color=None, **_: count_pointed(stat, color),
        lambda members, stat, color=None, **_: sum(
            st.pointed(c) for c in pointed_colors(stat, color) for st in members)),
    "unlabelled": Mode(lambda stat, **_: count_unlabelled(stat),
                       lambda members, stat, **_: len(members)),
    "asymmetric": Mode(lambda stat, **_: count_asymmetric(stat),
                       lambda members, stat, **_: sum(st.aut_order == 1
                                                      for st in members)),
    "aut-exact": _aut_mode(AutMode.EXACTLY),
    "aut-atleast": _aut_mode(AutMode.AT_LEAST),
    "gonal": Mode(lambda stat, kind=GonalKind.UNLABELLED, **_:
                  count_gonal(stat.m, stat.p, kind), level=SizeStat),
    "free": Mode(lambda stat, **_: count_free_labelled(stat), level=ColorStat),
    "constellation": Mode(lambda stat, **_:
                          count_constellation_rooted(stat.m, stat.p),
                          level=SizeStat),
}
