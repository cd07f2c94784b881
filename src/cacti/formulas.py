"""Closed-form counts of m-ary cacti over validated statistics.

Every function takes a statistic built by `cacti.stats` and returns an exact
int.  The counts come in five flavours per statistic level:

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

`_count_centred` reads any list of `Centres` as `series.centred`, the
series route's reader, does, from one pass that forms each centre term once
for all the forms that weigh it; the d = 1 terms, n_i rooted / p, need no
pass.  The narrow readers ask it for what they return: `count_classes` for
phi and mu together at one stretch, `count_pointed` for phi at one colour.
`centred_counts` asks for every count above at once, by the modes' own
`Centres`, each colour's pointed count included; `oracle.verify` and
table 1 read it, `verify` with the forms of each level built once
(`centred_forms`).
`gonal_orbits` reads the uncoloured gonal counts off the coloured ones.
`MODES` names each mode once for every route: its closed form, its count
over isomorphism classes, the statistic level it is bound to and its
`Centres`, which both routes read.

Conventions for the empty cactus (p = 0, a single vertex): rooted counts are
0 (there is no polygon to distinguish), and so are the strata s >= 2 (it
has no symmetry), and so are pointed counts at a colour the vertex lacks;
all other counts are 1.  Every division in the formulas below cancels
exactly; `_exact` raises `InconsistentResult` on a remainder, which would
signal an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .arith import binomial, divisors, euler_phi, moebius_mu, multinomial
from .stats import (ColorStat, InconsistentResult, SizeStat, Statistic,
                    ValidationError, size_stat)


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


def _exact(value: int | Fraction, context: str, den: int = 1) -> int:
    quotient, rest = divmod(value, den)
    if rest:
        raise InconsistentResult(f"non-integral {context}: {Fraction(value, den)}")
    return quotient


def count_rooted(stat: Statistic) -> int:
    """Cacti with a distinguished polygon (these have no symmetries)."""
    p = stat.p
    if p == 0:
        return 0
    if isinstance(stat, SizeStat):
        return _exact(binomial(stat.m * p, p), "rooted size count", stat.n)
    if isinstance(stat, ColorStat):
        prod = math.prod(binomial(p, c) for c in stat.counts)
        return _exact(prod, "rooted color count", p)
    counts = stat.color_counts
    prod = math.prod(multinomial(c, [k for _, k in row])
                     for c, row in zip(counts, stat.rows))
    return _exact(p ** (stat.m - 1) * prod, "rooted degree count",
                  math.prod(counts))


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
    return _exact(_labellings(stat) * count_rooted(stat), "labelled count", p)


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
    count (-(m - 1) for the classes at s = 1, 0 for pointed counts; the
    rooted and labelled counts sum no centres but at p = 0).  Both routes
    read it so: the formula route by `_count_centred`, the series route by
    `series.centred`, which `series.count` and `cacti series` call."""

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


def _count_centred(stat: Statistic, forms: Sequence[Centres]) -> list[int]:
    """The count of each of `forms`, from one pass over the centres.  The
    colour-i term of d is a count of the statistic less a colour-i vertex
    (of degree h at degree level, summed over h), each part over d, as a
    numerator over the level's denominator, p, p^2 or n_1 ... n_m.  For
    d >= 2 the pass forms it once for all the forms that sum colour i, each
    weighing it s * weight(d / s) where s | d, and skips it where those
    weights are all 0; a centre whose p and n_i - 1 (at degree level, p
    and h) are coprime has no such d, and is skipped before its lowered
    statistic is built.  At d = 1 it needs no pass: it is n_i R / p, the
    n_i colour-i vertices of each of the R rooted cacti over the p rootings
    of a cactus.  At size level colour rotation makes colour 1's terms
    every colour's, and n_i is n / m.  The p = 0 cactus, a lone vertex, has
    no rooting, one class and no symmetry, and one pointing at its own
    colour only; a size-level form sums all colours or none."""
    p, m = stat.p, stat.m
    size = isinstance(stat, SizeStat)
    if p == 0:
        lone = 1 if size else (stat.counts if isinstance(stat, ColorStat)
                               else stat.color_counts).index(1) + 1
        return [int(form.s == 1 and lone in form.colors) for form in forms]
    specs = [(k, form.colors, form.s, form.weight)
             for k, form in enumerate(forms) if form.colors]
    totals = [0] * len(forms)

    def add(i: int, factor: int, values: list[int], term: Callable[[int], int]) -> None:
        for d in divisors(math.gcd(*values))[1:]:
            t = None
            for k, colors, s, weight in specs:
                if not d % s and (size or i in colors) and (w := s * weight(d // s)):
                    if t is None:
                        t = factor * term(d)
                    totals[k] += w * t

    centres = [] if size else sorted({c for form in forms for c in form.colors})
    if size:
        add(1, 1, [p], lambda d: binomial(m * p // d - 1, p // d - 1))
        den = p
    elif isinstance(stat, ColorStat):
        vertices = stat.counts
        for i in centres:
            if math.gcd(p, vertices[i - 1] - 1) == 1:
                continue
            lowered = list(vertices)
            lowered[i - 1] -= 1
            add(i, p - lowered[i - 1], [p] + lowered,
                lambda d: math.prod(binomial(p // d, c // d) for c in lowered))
        den = p * p
    else:
        vertices = stat.color_counts
        for i in centres:
            for h, _ in stat.rows[i - 1]:
                if math.gcd(h, p) == 1:
                    continue
                lowered = [[k - (j == i - 1 and g == h) for g, k in row]
                           for j, row in enumerate(stat.rows)]
                add(i, p ** (m - 2) * vertices[i - 1],
                    [h, p] + [k for row in lowered for k in row],
                    lambda d: math.prod(multinomial(sum(row) // d, [k // d for k in row])
                                        for row in lowered))
        den = math.prod(vertices)
    rooted = count_rooted(stat) if any(f.s == 1 or f.rooted for f in forms) else 0
    base = rooted * den // p  # R / p over den, the d = 1 term per vertex
    counts = []
    for form, total in zip(forms, totals):
        if form.s == 1 and form.colors:
            total += form.weight(1) * (base * stat.n // m if size else
                                       base * sum([vertices[c - 1] for c in form.colors]))
        counts.append(_exact((len(form.colors) if size else 1) * total
                             + form.rooted * rooted * den, "centred count", den))
    return counts


def count_pointed(stat: Statistic, color: int | None = None) -> int:
    """Cacti pointed at a vertex; summed over colors at size level."""
    return _count_centred(stat, [pointed_centres(stat, color)])[0]


def _check_stratum(s: int, least: int = 2) -> None:
    if s < least:
        raise STooSmall(f"automorphism order s = {s} < {least}")


def count_classes(stat: Statistic, s: int = 1) -> tuple[int, int]:
    """The class counts at weights phi and mu, from one pass over the centres:
    (unlabelled, asymmetric) at s = 1, else (aut-atleast s, aut-exact s)."""
    _check_stratum(s, 1)
    return tuple(_count_centred(stat, [class_centres(stat, weight, s)
                                       for weight in (euler_phi, moebius_mu)]))


def count_unlabelled(stat: Statistic) -> int:
    """Isomorphism classes of cacti with the given statistic."""
    return count_classes(stat)[0]


def count_asymmetric(stat: Statistic) -> int:
    """Isomorphism classes with trivial automorphism group."""
    return count_classes(stat)[1]


def count_aut(stat: Statistic, s: int, mode: AutMode) -> int:
    """Classes whose automorphism group order is exactly s / a multiple of s.

    Automorphisms are rotations about a central vertex, so their order must
    divide p; the count is 0 whenever s does not.
    """
    _check_stratum(s)
    return count_classes(stat, s)[mode is AutMode.EXACTLY]


def centred_forms(stat: Statistic) -> tuple[list[tuple[str, int | None]],
                                             list[Centres]]:
    """The keys of `centred_counts` and the modes' `Centres` for them, which
    depend only on the level, m and p of `stat`: rooted, unlabelled and
    asymmetric with option None, aut-atleast and aut-exact at each s | p
    with s >= 2, and pointed at each colour, or summed over the colours
    with option None at size level."""
    keys = [("rooted", None), ("unlabelled", None), ("asymmetric", None),
            *((mode, s) for s in divisors(stat.p or 1)[1:]
              for mode in ("aut-atleast", "aut-exact")),
            *(("pointed", c) for c in ([None] if isinstance(stat, SizeStat)
                                       else range(1, stat.m + 1)))]
    return keys, [MODES[mode].centres(stat, color=option, s=option)
                  for mode, option in keys]


def centred_counts(stat: Statistic, forms: tuple[list, list[Centres]] | None = None
                   ) -> dict[tuple[str, int | None], int]:
    """Every count that the dissymmetry theorem writes with centre sums, from
    the modes' `Centres` in one pass, keyed (mode, option) as `centred_forms`
    keys them.  `forms`, that function's value at a statistic of the same
    level, m and p, spares building them again."""
    keys, centres = forms or centred_forms(stat)
    return dict(zip(keys, _count_centred(stat, centres)))


def gonal_orbits(stat: SizeStat, coloured: int) -> int:
    """Uncoloured gonal cacti, unlabelled or rooted, from the coloured count.

    By Burnside's lemma over the m colour rotations: a rotation of order
    d >= 2 fixes a cactus only by turning a centre polygon, so d divides m
    and p - 1, and the phi(d) such rotations fix C(mp/d, (p - 1)/d) / p each.
    """
    m, p = stat.m, stat.p
    if p == 0:
        return coloured
    fixed = sum(euler_phi(d) * binomial(m * p // d, (p - 1) // d)
                for d in divisors(math.gcd(m, p - 1)) if d >= 2)
    return _exact(p * coloured + fixed, "gonal count", m * p)


def count_gonal(m: int, p: int, kind: GonalKind) -> int:
    """Plane cacti on m-gons without the cyclic coloring.  The colour
    rotations act freely on labelled and on pointed cacti, so those counts
    are the coloured ones over m; a planted gonal cactus, its root coloured
    1, is a coloured rooted one; the rest are orbits (`gonal_orbits`)."""
    stat = size_stat(m, p)
    if p == 0:
        return int(kind is not GonalKind.ROOTED)
    if kind in (GonalKind.LABELLED, GonalKind.POINTED):
        coloured = (count_labelled if kind is GonalKind.LABELLED else count_pointed)(stat)
        return _exact(coloured, f"{kind.value} gonal count", m)
    if kind is GonalKind.UNLABELLED:
        return gonal_orbits(stat, count_unlabelled(stat))
    rooted = count_rooted(stat)
    return rooted if kind is GonalKind.PLANTED else gonal_orbits(stat, rooted)


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
    count, at every p; it is None where the series route has no such form.
    All three take the options `color`, `s` and `kind` by keyword and
    ignore those their mode does not read.  `level` is the one statistic
    type the mode accepts, if it accepts just one.
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

    def centres(stat: Statistic, *, s: int, **_) -> Centres:
        _check_stratum(s)
        return class_centres(stat, moebius_mu if which is AutMode.EXACTLY
                             else euler_phi, s)

    return Mode(lambda stat, *, s, **_: count_aut(stat, s, which), classes,
                centres=centres)


MODES: dict[str, Mode] = {
    "rooted": Mode(lambda stat, **_: count_rooted(stat),
                   centres=lambda stat, **_: Centres((), None, 1, 1)),
    # The sum over classes of labellings / |Aut| is labellings * rooted / p;
    # the lone vertex has one labelling and is one class, with no symmetry.
    "labelled": Mode(lambda stat, **_: count_labelled(stat),
                     lambda members, stat, **_: sum(  # the labellings once
                         n // st.aut_order for n in [_labellings(stat)] for st in members),
                     centres=lambda stat, **_: Centres(
                         (), None, 1, Fraction(_labellings(stat), stat.p))
                     if stat.p else class_centres(stat, euler_phi)),
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
