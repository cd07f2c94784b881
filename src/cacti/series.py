"""Truncated formal power series solving the cactus functional equations.

This is the second, independent computation path: the planted generating
series A_1, ..., A_m satisfy A_i = x_i / (1 - prod_{j != i} A_j); solved
degree by degree, they give the rooted series and the centre series, whose
sums give every class count (the dissymmetry theorem).  Coefficients are
exact ints.  The solver keeps each series as total degree -> part, each
exponent packed into one int (see `PlantedFamily`); that form stays inside
this module, and each target it returns is a plain {exponent tuple:
coefficient} map.  The centre series at weight w (phi or mu) and stretch s
takes one log L = log 1/(1 - H_i), H_i = prod_{j != i} A_j, for every d:
its Euler derivative is solved in integers, and each coefficient is one
exact division by its total degree, which raises `InconsistentResult` if it
leaves a remainder.  The weighted variant marks a color-i vertex of degree
h with r[i,h], one more coordinate of the exponent after x_1..x_m.
The one-sort family, every color graded by one x, has one term a degree:
A = x + A^m, its H = A^(m-1) and its centre series are lists of
coefficients by degree, solved and read without the packed layer.
Truncation is by the total degree of the x coordinates: every monomial of a
p-polygon cactus has total degree (m-1)p + 1, so a total-degree bound is a
polygon bound, and a product of k planted series lies at total degrees = k
(mod m - 1): the solver forms no other part, and keeps no empty one.  A count
of one statistic solves inside a box instead, one cap per coordinate taken
from the statistic: a term above a cap cannot divide the target, so it is
dropped as soon as it is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, Mapping, Optional, Sequence

from .arith import euler_phi
from .stats import (ColorStat, InconsistentResult, SizeStat, Statistic,
                    ValidationError)


Parts = dict[int, dict[int, int]]  # total degree -> non-empty packed part
Inside = tuple[int, int]  # (bias, guard): e is in the box iff not (e + bias) & guard


def _combine(*terms: tuple[int, Mapping[tuple[int, ...], int]]) -> dict:
    """sum(factor * coefficients) over the (factor, coefficients) terms, as
    {exponent: coefficient} without zero entries."""
    out: dict[tuple[int, ...], int] = {}
    for factor, coeffs in terms:
        for e, c in coeffs.items():
            out[e] = out.get(e, 0) + factor * c
    return {e: c for e, c in out.items() if c}


def _product_part(a: Mapping[int, dict], b: Mapping[int, dict], d: int,
                  inside: Inside) -> dict:
    """Degree-d part of a product inside the box, both factors given as
    degree -> part."""
    bias, guard = inside
    out: dict[int, int] = {}
    for da, part_a in a.items():
        part_b = b.get(d - da)
        if not part_b:
            continue
        for ea, ca in part_a.items():
            for eb, cb in part_b.items():
                e = ea + eb
                if not (e + bias) & guard:
                    out[e] = out.get(e, 0) + ca * cb
    return out


def _lift(part: dict, unit: Optional[int], inside: Inside) -> dict:
    """A part times the variable or marker of exponent `unit` (None: none)."""
    if unit is None:
        return {}
    bias, guard = inside
    return {e + unit: c for e, c in part.items() if not (e + unit + bias) & guard}


def _keep(parts: Parts, d: int, part: dict) -> None:
    if part:  # an empty part is not kept
        parts[d] = part


@dataclass(frozen=True)
class PlantedFamily:
    """The m planted series (one per root color), solved to a common bound
    and kept as the degree -> part maps the solver built.

    `planted[i - 1]` holds A_i to total degree `order`, and `hats[i - 1]`
    holds H_i = prod_{j != i} A_j to order - 1, all that is read of it.  Only
    the non-empty parts are kept: those of A_i lie at total degrees = 1 and
    those of H_i at degrees = 0 (mod m - 1).  An exponent has the m graded
    coordinates x_1..x_m and, in a weighted family, one marker coordinate
    per (color, degree) pair of `slots`, in that order.  `box` caps each
    coordinate, or is None.

    A part keys each exponent by one int, `pack`ed with coordinate k in bits
    k * width .. k * width + width - 1.  A vertex adds one to an x and to at
    most one marker, so no coordinate of a term exceeds the order, which is
    below 2^(width - 1): a product adds two exponents, a lift adds a unit and
    a stretch multiplies by s*d, all within the order, so no field carries.
    `inside` is (bias, guard): guard holds the top bit of each field and bias
    2^(width - 1) - 1 - cap_k in field k, so (e + bias) & guard sets the top
    bit of field k exactly where e_k > cap_k.  Both are 0 without a box.
    """

    m: int
    order: int
    slots: tuple[tuple[int, int], ...] = ()
    box: Optional[tuple[int, ...]] = None
    planted: tuple[Parts, ...] = ()
    hats: tuple[Parts, ...] = ()

    @cached_property
    def width(self) -> int:
        return max((self.order,) + (self.box or ())).bit_length() + 1

    def pack(self, exponents: Sequence[int]) -> int:
        return sum(x << k * self.width for k, x in enumerate(exponents))

    def unpack(self, e: int) -> tuple[int, ...]:
        w, n = self.width, self.m + len(self.slots)
        return tuple(e >> k * w & (1 << w) - 1 for k in range(n))

    @cached_property
    def inside(self) -> Inside:
        top = 1 << self.width - 1
        return ((self.pack([top - 1 - cap for cap in self.box]),
                 self.pack([top] * len(self.box))) if self.box else (0, 0))


def _solve(m: int, order: int, slots: tuple = (),
           box: Optional[tuple[int, ...]] = None) -> PlantedFamily:
    """The m planted series, one x_i per color, by increasing total degree.

    A_i = x_i * B_i with B_i = 1 + H_i * B_i, or B_i = sum_{h>=1} r[i,h] *
    H_i^(h-1) with marker `slots`, and H_i = prod_{j != i} A_j starts at
    degree m - 1, so the degree-d part of B_i needs only lower parts.  The
    marker r[i,h] adds one to coordinate m + k for (i, h) = slots[k]; a
    marker without a slot, and a term above the box, is dropped as soon as
    its part is formed.  Nothing is multiplied by the constant 1: H_1 is
    right[1], H_m is left[m - 1], H_i^1 is H_i, and b[i] holds B_i less its
    constant, so that unweighted b[i] = H_i + H_i * b[i].
    """
    if m < 2 or order < 1:
        raise ValidationError(f"need m >= 2, order >= 1: m = {m}, order = {order}")
    shell = PlantedFamily(m, order, slots, box)  # the layout, no series yet
    inside = shell.inside
    unit = [1 << k * shell.width for k in range(m + len(slots))]  # x_i, then markers
    # the unit of marker r[i,h]; unweighted, r[i,1] = r[i,2] = 1 mark nothing
    marker = ({slot: unit[m + k] for k, slot in enumerate(slots)} if slots
              else {(i, h): 0 for i in range(1, m + 1) for h in (1, 2)})
    # the highest power of H_i that a marker of color i multiplies
    top = [max((h - 1 for c, h in marker if c == i + 1), default=0)
           for i in range(m)]
    a: list[Parts] = [{} for _ in range(m)]
    b: list[Parts] = [{} for _ in range(m)]
    for i in range(m):
        stem = _lift({0: 1}, marker.get((i + 1, 1)), inside)
        _keep(a[i], 1, _lift(stem, unit[i], inside))
    # left[k] = A_0 ... A_{k-1} and right[k] = A_k ... A_{m-1}, so H_i =
    # left[i] * right[i + 1]; the empty products left[0] and right[m] are
    # never formed.
    left = [None, a[0]] + [{} for _ in range(2, m)]
    right = [{} for _ in range(m - 1)] + [a[m - 1]]
    hats = [right[1]] + [{} for _ in range(2, m)] + [left[-1]]
    powers = [[hat] + [{} for _ in range(1, top[i])] for i, hat in enumerate(hats)]
    q = m - 1  # a product of k planted series lives at degrees = k (mod q)
    for d in range(1, order):
        for k in range(2, m):
            if (d - k) % q == 0:
                _keep(left[k], d, _product_part(left[k - 1], a[k - 1], d, inside))
        for k in range(m - 2, 0, -1):
            if (d - (m - k)) % q == 0:
                _keep(right[k], d, _product_part(a[k], right[k + 1], d, inside))
        if d % q:
            continue
        for i, hat in enumerate(hats):
            if 0 < i < m - 1:
                _keep(hat, d, _product_part(left[i], right[i + 1], d, inside))
            part = _product_part(hat, b[i], d, inside) if b[i] and not slots else {}
            for k in range(1, min(d // q, top[i]) + 1):  # H_i^k at powers[i][k - 1]
                if k > 1:
                    _keep(powers[i][k - 1], d,
                          _product_part(powers[i][k - 2], hat, d, inside))
                power = powers[i][k - 1].get(d, {})
                for e, c in _lift(power, marker.get((i + 1, k + 1)), inside).items():
                    part[e] = part.get(e, 0) + c
            _keep(b[i], d, part)
            _keep(a[i], d + 1, _lift(part, unit[i], inside))
    # for m = 2 the hats are A_2 and A_1, which reach the order
    return PlantedFamily(m, order, slots, box, tuple(a), tuple(
        {d: part for d, part in hat.items() if d < order} for hat in hats))


def solve_planted(m: int, order: int) -> PlantedFamily:
    """The planted series A_i = x_i / (1 - H_i), exact to the truncation
    order, one x_i per color."""
    return _solve(m, order)


def solve_one_sort(m: int, order: int) -> tuple[list[int], list[int]]:
    """The one-sort family, every color sharing A = x + A * A^(m-1), as
    coefficient lists by degree: A to the order and H = A^(m-1) below it.

    A^j lies at degrees = j (mod q), q = m - 1, so one j in 2..m has a term
    at each degree d, and it is one dot product of two strided slices, A
    times A^(j-1), the shorter first.  Only the powers below the order are
    kept: at q >= order, H = A^q is 0 within it.
    """
    if m < 2 or order < 1:
        raise ValidationError(f"need m >= 2, order >= 1: m = {m}, order = {order}")
    q = m - 1
    a = [0, 1] + [0] * (order - 1)
    powers = [a] + [[0] * order for _ in range(2, min(m, order))]  # A^j at j - 1
    for d in range(2, order + 1):
        j = (d - 2) % q + 2
        if j <= d and (j == m or d < order):  # A^m = A - x; H is read below the order
            (a if j == m else powers[j - 1])[d] = sum(
                map(mul, a[1:d:q], powers[j - 2][d - 1::-q]))
    return a, powers[q - 1][:order] if q < order else [0] * order


def one_sort_centre(m: int, hat: Sequence[int], weight: Callable[[int], int],
                    s: int = 1) -> list[int]:
    """`series_centre` with every x_i set to x, as a list by degree to the
    order len(hat), from H = `hat`.  T = E(L), L = log 1/(1 - H), lies at
    multiples g of q = m - 1, and T[g] = g * H[g] + sum_a H[a] * T[g - a] is
    one dot product of strided slices; T[g] adds s * w(d) * T[g] at n =
    s*d*g, and each n is divided once, exactly.  At q >= order no loop runs.
    """
    order, q = len(hat), m - 1
    top = (order - 1) // s  # every term of T that some d stretches below the order
    w = [0] + [weight(d) for d in range(1, (order - 1) // (s * q) + 1)]
    t, sums = [0] * (top + 1), [0] * order
    for g in range(q, top + 1, q):
        t[g] = g * hat[g] + sum(map(mul, hat[q:g:q], t[g - q:0:-q]))
        for d in range(1, (order - 1) // (s * g) + 1):
            sums[s * d * g] += s * w[d] * t[g]
    centre = [0, int(s == 1)] + [0] * (order - 1)  # x * [s = 1]
    for n in range(s * q, order, s * q):
        centre[n + 1], rest = divmod(sums[n], n)
        if rest:
            raise InconsistentResult(
                f"centre coefficient {sums[n]}/{n} at ({n},) is not an integer")
    return centre


def one_sort_series(m: int, order: int, target: str) -> dict:
    """The one-sort `target` as {(n,): coefficient}: "planted" A, "rooted"
    A - x = H * A, or "unlabelled" m * pointed - (m - 1) * (x + rooted), in
    which the single-vertex cactus x counts once, not once per color."""
    a, hat = solve_one_sort(m, order)
    if target == "unlabelled":
        a = [m * c - (m - 1) * x for c, x in zip(one_sort_centre(m, hat, euler_phi), a)]
    elif target == "rooted":
        a[1] = 0
    return {(n,): c for n, c in enumerate(a) if c}


def series_planted(family: PlantedFamily, color: int = 1) -> dict:
    """A_i of the 1-based `color` as {exponent: coefficient}."""
    return {family.unpack(e): c for part in family.planted[color - 1].values()
            for e, c in part.items()}


def series_rooted(family: PlantedFamily) -> dict:
    """Rooted cacti, H_1 * A_1, which the planted equation makes A_1 - x_1
    in an unweighted family."""
    if family.slots:
        raise ValidationError("the rooted series needs an unweighted family")
    x_1 = (1,) + (0,) * (family.m - 1)
    return _combine((1, series_planted(family)), (-1, {x_1: 1}))


def rooted_coefficient(family: PlantedFamily, exponents: Sequence[int]) -> int:
    """[x^exponents] of H_1 * A_1, weighted or not, to the family's order:
    for each term of A_1 of total degree d, its complement is read in part
    n - d of H_1.  The target gets the top bit of each field set, so that
    taking a term away borrows no further, and clears it where the term
    exceeds the target."""
    n = sum(exponents[:family.m])
    if max(n, *exponents) > family.order:
        return 0
    tops = family.pack([1 << family.width - 1] * len(exponents))
    target, hat = family.pack(exponents) + tops, family.hats[0]
    total = 0
    for d, part in family.planted[0].items():
        rest = hat.get(n - d)
        if rest:
            total += sum(c * rest.get(target - e - tops, 0) for e, c in part.items()
                         if (target - e) & tops == tops)
    return total


def series_centre(family: PlantedFamily, color: int,
                  weight: Callable[[int], int], s: int = 1) -> dict:
    """The centre series of color i = `color` at weight w and stretch s:

        x_i * ([s = 1] + sum_{d >= 1} (w(d)/d) * L(x^(s*d))),  L = log 1/(1 - H_i).

    With w = phi and s = 1 it counts the cacti pointed at a color-i vertex.
    The term T[e] of T = E(L), e of degree g, adds s * w(d) * T[e] / (s*d*g)
    at s*d*e, whose degree is s*d*g: each exponent inside the box (only
    those get all their d) sums its numerators and divides once, exactly.
    """
    return {family.unpack(e): c for e, c in _centre(family, color, weight, s).items()}


def _centre(family: PlantedFamily, color: int,
            weight: Callable[[int], int], s: int) -> dict[int, int]:
    """`series_centre` keyed by packed exponents."""
    if family.slots:
        raise ValidationError("a centre series needs an unweighted family")
    order, inside, q = family.order, family.inside, family.m - 1
    bias, guard = inside
    # every term of H_i, and so of T, has a degree g that is a multiple of q
    w = [0] + [weight(d) for d in range(1, (order - 1) // (s * q) + 1)]
    hat, t_parts = family.hats[color - 1], {}
    sums: dict[int, int] = {}
    degrees: dict[int, int] = {}
    for g in range(q, (order - 1) // s + 1, q):
        # E scales a monomial by its degree, and T = E(H_i) + H_i * T
        part = _product_part(hat, t_parts, g, inside) if t_parts else {}
        for e, c in hat.get(g, {}).items():
            part[e] = part.get(e, 0) + g * c
        _keep(t_parts, g, part)
        for e, c in part.items():
            for d in range(1, (order - 1) // (s * g) + 1):
                de = s * d * e
                if (de + bias) & guard:
                    break
                sums[de] = sums.get(de, 0) + s * w[d] * c
                degrees[de] = s * d * g
    inner = {0: 1} if s == 1 else {}
    for e, total in sums.items():
        quotient, rest = divmod(total, degrees[e])
        if rest:
            raise InconsistentResult(f"centre coefficient {total}/{degrees[e]} "
                                     f"at {family.unpack(e)} is not an integer")
        if quotient:
            inner[e] = quotient
    return _lift(inner, 1 << (color - 1) * family.width, inside)


def series_unlabelled(m: int, order: int) -> dict:
    """Unlabelled cacti via pointed and rooted series: sum_i pointed_i -
    (m-1) * rooted."""
    family = solve_planted(m, order)
    return _combine(*((1, series_centre(family, color, euler_phi))
                      for color in range(1, m + 1)),
                    (1 - m, series_rooted(family)))


def count_target(stat: Statistic, colors: Sequence[int],
                 weight: Callable[[int], int] | None, s: int,
                 rooted: int | Fraction) -> int:
    """The count of a statistic with p >= 1 by `formulas.Centres`: the sum
    over the 1-based `colors` of the centre series at `weight` and stretch
    `s`, plus `rooted` times the rooted count.  Size level reads the one-sort
    lists, whose colors share one series.  Else the family is solved inside
    the statistic's exponent: each x_i capped at n_i and, at degree level,
    one slot per (color, degree) pair of the rows, capped at its multiplicity.
    """
    if isinstance(stat, SizeStat):  # one-sort: the order caps x
        n, target = stat.n, (stat.n,)
        a, hat = solve_one_sort(stat.m, n)
        total = rooted * a[n] if rooted else 0  # H * A = A - x, and n > 1
        if colors:
            total += len(colors) * one_sort_centre(stat.m, hat, weight, s)[n]
    else:
        if isinstance(stat, ColorStat):
            family, target = _solve(stat.m, stat.n, (), stat.counts), stat.counts
        else:
            slots = tuple((i, h) for i, row in enumerate(stat.rows, start=1)
                          for h, _ in row)
            target = stat.color_counts + tuple(k for row in stat.rows for _, k in row)
            family = _solve(stat.m, stat.n, slots, target)
        total = rooted * rooted_coefficient(family, target) if rooted else 0
        for color in colors:
            total += _centre(family, color, weight, s).get(family.pack(target), 0)
    if Fraction(total).denominator != 1:
        raise InconsistentResult(f"count {total} at {target} is not an integer")
    return int(total)
