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
exactly s / a multiple of s.  Every count of classes follows the
dissymmetry theorem (Bergeron, Labelle and Leroux): a sum of centre sums,
one per colour of the centre vertex, plus a multiple of the rooted count.
The colour-i centre sum at weight w and stretch s sums w(d/s) over the d
with s | d that divide the statistic less one colour-i vertex:

* pointed at i              -- centre_i(phi, 1),
* unlabelled / asymmetric   -- sum_i centre_i(phi / mu, 1) - (m - 1) rooted,
* aut-atleast / aut-exact s -- sum_i centre_i(phi / mu, s), s >= 2.

`MODES` names each mode once for every route: its closed form, its count
over isomorphism classes, the statistic level it is bound to and its
`Centres`, which the series route reads.

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
from typing import Callable, NamedTuple, Sequence

from .arith import (
    binomial,
    common_divisors,
    divisors,
    euler_phi,
    moebius_mu,
    multinomial,
)
from .stats import (
    ColorStat,
    DegreeStat,
    InconsistentResult,
    SizeStat,
    Statistic,
    ValidationError,
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
    prod = math.prod(multinomial(c, [k for _, k in row])
                     for c, row in zip(counts, stat.rows))
    return _exact(Fraction(p ** (stat.m - 1) * prod, math.prod(counts)),
                  "rooted degree count")


def _labellings(stat: Statistic) -> int:
    """n! at size level, else the product of n_c! over the colors."""
    if isinstance(stat, SizeStat):
        return math.factorial(stat.n)
    counts = stat.counts if isinstance(stat, ColorStat) else stat.color_counts
    return math.prod(map(math.factorial, counts))


def count_labelled(stat: Statistic) -> int:
    """Cacti on labelled vertices (labels distinct within each color).

    A rooted cactus is rigid, so it takes every labelling, and a labelled
    cactus has p rootings: labellings * rooted / p.
    """
    p = stat.p
    if p == 0:
        return 1
    return _exact(Fraction(_labellings(stat) * count_rooted(stat), p),
                  "labelled count")


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


class Centres(NamedTuple):
    """A count by the dissymmetry theorem: the centre sums of the 1-based
    `colors` at `weight` and stretch `s`, plus `rooted` times the rooted
    count (-(m - 1) for the classes at s = 1, 0 for pointed counts)."""

    colors: Sequence[int]
    weight: Callable[[int], int] | None
    s: int
    rooted: int | Fraction


def pointed_centres(stat: Statistic, color: int | None = None) -> Centres:
    return Centres(pointed_colors(stat, color), euler_phi, 1, 0)


def class_centres(stat: Statistic, weight: Callable[[int], int],
                  s: int = 1) -> Centres:
    """Classes: plain (phi) or asymmetric (mu) at s = 1, else those whose
    automorphism order is a multiple of s (phi) or exactly s (mu).  Past
    s = 1 the centre is a vertex, so no rooted term corrects the sum."""
    return Centres(range(1, stat.m + 1), weight, s, (1 - stat.m) * (s == 1))


def _centre(stat: Statistic, colors: Sequence[int],
            weight: Callable[[int], int], s: int, min_d: int) -> tuple[int, int]:
    """The centre sums of `colors` as a numerator over the level's
    denominator, p, p^2 or n_1 ... n_m.  The colour-i term of d >= min_d,
    s | d, is weight(d/s) times a count of the statistic less a colour-i
    vertex (of degree h at degree level, summed over h), each part over d."""
    p, m = stat.p, stat.m

    def strides(values: list[int]) -> list[int]:
        return [d for d in common_divisors(values) if d >= min_d and not d % s]

    if isinstance(stat, SizeStat):
        # Colour rotation maps the colour-i centres onto the colour-(i+1) ones.
        total = sum(weight(d // s) * binomial(m * p // d - 1, p // d - 1)
                    for d in strides([p]))
        return s * len(colors) * total, p
    if isinstance(stat, ColorStat):
        total = 0
        for i in colors:
            lowered = list(stat.counts)
            lowered[i - 1] -= 1
            total += (p - lowered[i - 1]) * sum(
                weight(d // s) * math.prod(binomial(p // d, c // d) for c in lowered)
                for d in strides([p] + lowered))
        return s * total, p * p
    counts = stat.color_counts
    total = 0
    for i in colors:
        for h, _ in stat.rows[i - 1]:
            rows = [[k - (j == i - 1 and g == h) for g, k in row]
                    for j, row in enumerate(stat.rows)]
            total += counts[i - 1] * sum(
                weight(d // s) * math.prod(multinomial(sum(row) // d,
                                                       [k // d for k in row])
                                           for row in rows)
                for d in strides([h, p] + [k for row in rows for k in row]))
    return s * p ** (m - 2) * total, math.prod(counts)


def _count_centred(stat: Statistic, centres: Centres, context: str) -> int:
    """A pointed or class count in closed form.  With rooted = -(m - 1),
    the d = 1 terms of the m centre sums and the rooted term together are
    the rooted count over p, so the sums start at d = 2."""
    colors, weight, s, rooted = centres
    p = stat.p
    if p == 0:
        return int(s == 1)
    num, den = _centre(stat, colors, weight, s, 2 if rooted else 1)
    if rooted:
        num += count_rooted(stat) * den // p
    return _exact(Fraction(num, den), context)


def count_pointed(stat: Statistic, color: int | None = None) -> int:
    """Cacti pointed at a vertex; summed over colors at size level."""
    return _count_centred(stat, pointed_centres(stat, color), "pointed count")


def count_unlabelled(stat: Statistic) -> int:
    """Isomorphism classes of cacti with the given statistic."""
    return _count_centred(stat, class_centres(stat, euler_phi), "unlabelled count")


def count_asymmetric(stat: Statistic) -> int:
    """Isomorphism classes with trivial automorphism group."""
    return _count_centred(stat, class_centres(stat, moebius_mu), "asymmetric count")


def _check_stratum(s: int) -> None:
    if s < 2:
        raise STooSmall(f"automorphism order s = {s} < 2")


def _aut_centres(stat: Statistic, s: int, mode: AutMode) -> Centres:
    _check_stratum(s)
    return class_centres(stat, moebius_mu if mode is AutMode.EXACTLY
                         else euler_phi, s)


def count_aut(stat: Statistic, s: int, mode: AutMode) -> int:
    """Classes whose automorphism group order is exactly s / a multiple of s.

    Automorphisms are rotations about a central vertex, so their order must
    divide p; the count is 0 whenever s does not.
    """
    return _count_centred(stat, _aut_centres(stat, s, mode), "aut count")


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
    None where the oracle counts another way or not at all.  `centres(stat,
    ...)` writes the count as centre sums plus a multiple of the rooted
    count, for a statistic with p >= 1; it is None where the series route
    has no such form.  All three take the options `color`, `s` and `kind`
    by keyword and ignore those their mode does not read.  `level` is the
    one statistic type the mode accepts, if it accepts just one.
    """

    formula: Callable[..., int]
    classes: Callable[..., int] | None = None
    level: type | None = None
    centres: Callable[..., Centres] | None = None


def _aut_mode(which: AutMode) -> Mode:
    def classes(members, stat: Statistic, *, s: int, **_) -> int:
        _check_stratum(s)
        if which is AutMode.EXACTLY:
            return sum(st.aut_order == s for st in members)
        return sum(st.aut_order % s == 0 for st in members)

    return Mode(lambda stat, *, s, **_: count_aut(stat, s, which), classes,
                centres=lambda stat, *, s, **_: _aut_centres(stat, s, which))


MODES: dict[str, Mode] = {
    "rooted": Mode(lambda stat, **_: count_rooted(stat),
                   centres=lambda stat, **_: Centres((), None, 1, 1)),
    # The sum over classes of labellings / |Aut| is labellings * rooted / p.
    "labelled": Mode(lambda stat, **_: count_labelled(stat),
                     lambda members, stat, **_: sum(
                         _labellings(stat) // st.aut_order for st in members),
                     centres=lambda stat, **_: Centres(
                         (), None, 1, Fraction(_labellings(stat), stat.p))),
    "pointed": Mode(
        lambda stat, color=None, **_: count_pointed(stat, color),
        lambda members, stat, color=None, **_: sum(
            st.pointed(c) for c in pointed_colors(stat, color) for st in members),
        centres=lambda stat, color=None, **_: pointed_centres(stat, color)),
    "unlabelled": Mode(lambda stat, **_: count_unlabelled(stat),
                       lambda members, stat, **_: len(members),
                       centres=lambda stat, **_: class_centres(stat, euler_phi)),
    "asymmetric": Mode(lambda stat, **_: count_asymmetric(stat),
                       lambda members, stat, **_: sum(st.aut_order == 1
                                                      for st in members),
                       centres=lambda stat, **_: class_centres(stat, moebius_mu)),
    "aut-exact": _aut_mode(AutMode.EXACTLY),
    "aut-atleast": _aut_mode(AutMode.AT_LEAST),
    "gonal": Mode(lambda stat, kind=GonalKind.UNLABELLED, **_:
                  count_gonal(stat.m, stat.p, kind), level=SizeStat),
    "free": Mode(lambda stat, **_: count_free_labelled(stat), level=ColorStat),
    "constellation": Mode(lambda stat, **_:
                          count_constellation_rooted(stat.m, stat.p),
                          level=SizeStat),
}
