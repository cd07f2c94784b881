"""Truncated formal power series solving the cactus functional equations.

This is the second, independent computation path: the planted generating
series A_1, ..., A_m satisfy A_i = x_i / (1 - prod_{j != i} A_j); solved
degree by degree, they give the rooted series and the centre series, whose
sums give every class count (the dissymmetry theorem).  Coefficients are
exact ints.  The centre series at weight w (phi or mu) and stretch s takes
one log L = log 1/(1 - hat(A_i)) for every d: its Euler derivative is
solved in integers, and each coefficient is one exact division by its total
degree, which raises `InconsistentResult` if it leaves a remainder.  The
weighted variant marks a color-i vertex of degree h with r[i,h], one more
integer coordinate of the exponent after x_1..x_m.
Truncation is by the total degree of the x coordinates: every monomial of a
p-polygon cactus has total degree (m-1)p + 1, so a total-degree bound is a
polygon bound.  A count of one statistic solves inside a box instead, one
cap per coordinate taken from the statistic: a term above a cap cannot
divide the target, so it is dropped as soon as it is formed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add, gt
from typing import Callable, Mapping, Optional, Sequence

from .arith import euler_phi
from .stats import (ColorStat, InconsistentResult, SizeStat, Statistic,
                    ValidationError)


Box = Optional[tuple[int, ...]]  # one cap per exponent coordinate, or none


def _meet(a: Box, b: Box) -> Box:
    return a if b is None else b if a is None else tuple(map(min, a, b))


@dataclass(frozen=True, eq=False)
class Series:
    """Multivariate power series truncated at a total-degree bound.

    The first `nvars` exponent coordinates are the graded variables x_i; a
    weighted series has one marker coordinate per slot after them, which the
    bound does not grade.  A series with a box also drops every term above it.
    """

    nvars: int
    bound: int
    coeffs: dict[tuple[int, ...], int] = field(default_factory=dict)
    box: Box = None

    def __post_init__(self):
        n, box = self.nvars, self.box
        clean = {e: c for e, c in self.coeffs.items()
                 if c and sum(e[:n]) <= self.bound
                 and (box is None or not any(map(gt, e, box)))}
        object.__setattr__(self, "coeffs", clean)

    def __getitem__(self, exponents: Sequence[int]) -> int:
        return self.coeffs.get(tuple(exponents), 0)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Series) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __add__(self, other: "Series") -> "Series":
        if self.nvars != other.nvars:
            raise ValidationError(f"series in {self.nvars} and {other.nvars} variables")
        merged = dict(self.coeffs)
        for e, c in other.coeffs.items():
            merged[e] = merged.get(e, 0) + c
        return Series(self.nvars, min(self.bound, other.bound), merged,
                      _meet(self.box, other.box))

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        if self.nvars != other.nvars:
            raise ValidationError(f"series in {self.nvars} and {other.nvars} variables")
        n, bound = self.nvars, min(self.bound, other.bound)
        terms_b = sorted(((sum(e[:n]), e, c) for e, c in other.coeffs.items()),
                         key=lambda t: t[0])
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in self.coeffs.items():
            room = bound - sum(ea[:n])
            for db, eb, cb in terms_b:
                if db > room:
                    break
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return Series(n, bound, out, _meet(self.box, other.box))

    def scale(self, factor: int) -> "Series":
        return Series(self.nvars, self.bound,
                      {e: factor * c for e, c in self.coeffs.items()}, self.box)

    def shift(self, var: int) -> "Series":
        """Multiply by the variable of index `var` (0-based)."""
        out = {}
        for e, c in self.coeffs.items():
            lifted = tuple(x + (1 if i == var else 0) for i, x in enumerate(e))
            out[lifted] = c
        return Series(self.nvars, self.bound, out, self.box)


def variable(nvars: int, bound: int, var: int) -> Series:
    e = tuple(1 if i == var else 0 for i in range(nvars))
    return Series(nvars, bound, {e: 1})


def _product_part(a: Mapping[int, dict], b: Mapping[int, dict], d: int,
                  box: Box = None) -> dict:
    """Degree-d part of a product inside the box, both factors given as
    degree -> part."""
    out: dict[tuple[int, ...], int] = {}
    for da, part_a in a.items():
        part_b = b.get(d - da)
        if not part_b:
            continue
        for ea, ca in part_a.items():
            for eb, cb in part_b.items():
                e = tuple(map(add, ea, eb))
                if box is None or not any(map(gt, e, box)):
                    out[e] = out.get(e, 0) + ca * cb
    return out


def _lift(part: dict, k: Optional[int], box: Box) -> dict:
    """A part times the variable or marker of coordinate k (None: none)."""
    if k is None:
        return {}
    return {e[:k] + (e[k] + 1,) + e[k + 1:]: c for e, c in part.items()
            if box is None or e[k] < box[k]}


def _log_parts(s: Series, bound: int, box: Box) -> dict[int, dict]:
    """T = E(log 1/(1 - s)), s unweighted with zero constant term, as
    degree -> part to total degree `bound` inside the box.  The Euler
    derivative E scales each monomial by its total degree, and T = E(s) +
    s * T gives the parts in integers by increasing degree; the log itself
    is T / degree."""
    s_parts: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in s.coeffs.items():
        s_parts.setdefault(sum(e), {})[e] = c
    t_parts: dict[int, dict[tuple[int, ...], int]] = {}
    for deg in range(1, bound + 1):
        part = _product_part(s_parts, t_parts, deg, box)
        for e, c in s_parts.get(deg, {}).items():
            part[e] = part.get(e, 0) + deg * c
        t_parts[deg] = part
    return t_parts


@dataclass(frozen=True)
class PlantedFamily:
    """The m planted series (one per root color), solved to a common bound.

    `hats` holds each H_i = hat(i) to total degree order - 1, all that is
    read of it.  A weighted family has one marker coordinate per (color,
    degree) pair of `slots`, in that order, after the m coordinates x_i.
    """

    m: int
    order: int
    series: tuple[Series, ...]
    hats: tuple[Series, ...]
    slots: tuple[tuple[int, int], ...] = ()

    def hat(self, i: int) -> Series:
        """Product of all planted series except the one of 1-based color i."""
        return self.hats[i - 1]


def _solve(m: int, order: int, nvars: int, slots: tuple = (),
           box: Box = None) -> PlantedFamily:
    """The m planted series, built part by part in increasing total degree.

    A_i = x_i * B_i with B_i = 1 + H_i * B_i, or B_i = sum_{h>=1} r[i,h] *
    H_i^(h-1) with marker `slots`, and H_i = prod_{j != i} A_j starts at
    degree m - 1, so the degree-d part of B_i needs only lower parts.  The
    marker r[i,h] adds one to coordinate nvars + k for (i, h) = slots[k]; a
    marker without a slot, and a term above the box, is dropped as soon as
    its part is formed.  With nvars = 1 every color is graded by one x and
    shares one series, solved once.  The family keeps each H_i it builds.
    """
    if m < 2 or order < 1:
        raise ValidationError(f"need m >= 2, order >= 1: m = {m}, order = {order}")
    coord = {slot: nvars + k for k, slot in enumerate(slots)}
    # the highest power of H_i that a marker of color i multiplies
    top = [max((h - 1 for c, h in slots if c == i + 1), default=0)
           for i in range(nvars)]
    one = {0: {(0,) * (nvars + len(slots)): 1}}
    a: list[dict] = [{} for _ in range(nvars)]  # degree -> part of A_i
    b = [{0: _lift(one[0], coord.get((i + 1, 1)), box) if slots else one[0]}
         for i in range(nvars)]
    # Color j has series j % nvars.  left[k] = A_0 ... A_{k-1} and right[k] =
    # A_k ... A_{m-1}, so H_i = left[i] * right[i + 1].
    left = [one, a[0]] + [{} for _ in range(2, nvars)]
    right = [{} for _ in range(m - 1)] + [a[(m - 1) % nvars], one]
    hats: list[dict] = [{} for _ in range(nvars)]
    powers = [[one] + [{} for _ in range(top[i])] for i in range(nvars)]
    for d in range(1, order + 1):
        for i in range(nvars):
            a[i][d] = _lift(b[i][d - 1], i, box)
        if d == order:
            break
        for k in range(2, nvars):
            left[k][d] = _product_part(left[k - 1], a[k - 1], d, box)
        for k in range(m - 2, 0, -1):
            right[k][d] = _product_part(a[k % nvars], right[k + 1], d, box)
        for i, hat in enumerate(hats):
            hat[d] = _product_part(left[i], right[i + 1], d, box)
            if not slots:
                b[i][d] = _product_part(hat, b[i], d, box)
                continue
            part = b[i][d] = {}
            for k in range(1, min(d // (m - 1), top[i]) + 1):
                powers[i][k][d] = _product_part(powers[i][k - 1], hat, d, box)
                lifted = _lift(powers[i][k][d], coord.get((i + 1, k + 1)), box)
                for e, c in lifted.items():
                    part[e] = part.get(e, 0) + c

    def whole(parts: dict) -> Series:
        return Series(nvars, order, {e: c for part in parts.values()
                                     for e, c in part.items()}, box)

    copies = m // nvars
    return PlantedFamily(m, order, tuple(map(whole, a)) * copies,
                         tuple(map(whole, hats)) * copies, slots)


def solve_planted(m: int, order: int) -> PlantedFamily:
    """The planted series A_i = x_i / (1 - hat(A_i)), exact to the
    truncation order."""
    return _solve(m, order, m)


def series_rooted(family: PlantedFamily) -> Series:
    """Rooted cacti: the product of all planted series."""
    return family.hat(1) * family.series[0]


def rooted_coefficient(family: PlantedFamily, exponents: Sequence[int]) -> int:
    """[x^exponents] of `series_rooted(family)`, summed over the coefficients
    of A_1 rather than read off the whole product."""
    target = tuple(exponents)
    hat = family.hat(1)
    return sum(c * hat[tuple(t - x for x, t in zip(e, target))]
               for e, c in family.series[0].coeffs.items())


def series_centre(family: PlantedFamily, color: int,
                  weight: Callable[[int], int], s: int = 1) -> Series:
    """The centre series of color i = `color` at weight w and stretch s:

        x_i * ([s = 1] + sum_{d >= 1} (w(d)/d) * L(x^(s*d))),  L = log 1/(1 - hat(A_i)).

    With w = phi and s = 1 it counts the cacti pointed at a color-i vertex.
    The term T[e] of T = E(L), e of degree g, adds s * w(d) * T[e] / (s*d*g)
    at s*d*e, whose degree is s*d*g: each exponent inside the box (only
    those get all their d) sums its numerators and divides once, exactly.
    """
    if family.slots:
        raise ValidationError("a centre series needs an unweighted family")
    order = family.order
    hat = family.hat(color)
    box = hat.box
    # every term of hat, and so of T, has degree g >= m - 1
    w = [0] + [weight(d) for d in range(1, (order - 1) // (s * (family.m - 1)) + 1)]
    sums: dict[tuple[int, ...], int] = {}
    for g, part in _log_parts(hat, (order - 1) // s, box).items():
        for e, c in part.items():
            for d in range(1, (order - 1) // (s * g) + 1):
                de = tuple(s * d * x for x in e)
                if box is not None and any(map(gt, de, box)):
                    break
                sums[de] = sums.get(de, 0) + s * w[d] * c
    inner = {(0,) * hat.nvars: int(s == 1)}
    for e, total in sums.items():
        inner[e], rest = divmod(total, sum(e))
        if rest:
            raise InconsistentResult(f"centre coefficient {total}/{sum(e)} "
                                     f"at {e} is not an integer")
    var = color - 1 if hat.nvars > 1 else 0
    return Series(hat.nvars, order, inner, box).shift(var)


def series_unlabelled(m: int, order: int, one_sort: bool = False) -> Series:
    """Unlabelled cacti via pointed and rooted series.

    Multivariate: sum_i pointed_i - (m-1) * rooted.  One-sort (single
    variable x, coefficient of x^n counts all cacti with n vertices): the
    same combination collapsed, minus (m-1)x so the single-vertex cactus is
    counted once rather than once per color.
    """
    family = _solve(m, order, 1 if one_sort else m)
    if one_sort:
        pointed = (series_centre(family, 1, euler_phi).scale(m)
                   - variable(1, order, 0).scale(m - 1))
    else:
        pointed = reduce(add, (series_centre(family, color, euler_phi)
                               for color in range(1, m + 1)))
    return pointed - series_rooted(family).scale(m - 1)


def count_target(stat: Statistic, colors: Sequence[int],
                 weight: Callable[[int], int] | None, s: int,
                 rooted: int | Fraction) -> int:
    """The count of a statistic with p >= 1 by `formulas.Centres`: the sum
    over the 1-based `colors` of the centre series at `weight` and stretch
    `s`, plus `rooted` times the rooted count.  Size level solves one-sort,
    so that every color shares one series.  Else the family is solved inside
    the statistic's exponent: each x_i capped at n_i and, at degree level,
    one slot per (color, degree) pair of the rows, capped at its multiplicity.
    """
    nvars, slots, box = stat.m, (), None  # one-sort: the order caps x
    if isinstance(stat, SizeStat):
        nvars = 1
    elif isinstance(stat, ColorStat):
        box = stat.counts
    else:
        slots = tuple((i, h) for i, row in enumerate(stat.rows, start=1)
                      for h, _ in row)
        box = stat.color_counts + tuple(k for row in stat.rows for _, k in row)
    target = box or (stat.n,)
    family = _solve(stat.m, stat.n, nvars, slots, box)
    total = rooted * rooted_coefficient(family, target) if rooted else 0
    for color, times in Counter((c - 1) % nvars + 1 for c in colors).items():
        total += times * series_centre(family, color, weight, s)[target]
    if Fraction(total).denominator != 1:
        raise InconsistentResult(f"count {total} at {target} is not an integer")
    return int(total)


def solve_one_sort(m: int, order: int) -> Series:
    """Univariate planted series A with A = x + A^m."""
    return _solve(m, order, 1).series[0]
