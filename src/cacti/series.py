"""Truncated formal power series solving the cactus functional equations.

This is the second, independent computation path: the planted generating
series A_1, ..., A_m satisfy A_i = x_i / (1 - H_i), H_i = prod_{j != i} A_j,
and their product R = A_1 ... A_m is the rooted series, so unweighted A_i =
x_i + R.  A family is solved degree by degree and keeps A and R alone.  By
the dissymmetry theorem a count is a sum of centre series plus a multiple of
R, as a `formulas.Centres` writes it; `centred` is the one place that forms
that sum, for any list of forms, and `count`, the route's one entry point,
reads one coefficient of it.  Coefficients are exact.  The solver keeps each
series as total degree -> part, each exponent packed into one int (see
`PlantedFamily`), and `centred` keys its series so.  The centre series at
weight w (phi or mu) and stretch s takes one log L = log(A_i/x_i) = log(1 +
R/x_i) for every d: its Euler derivative is solved in integers, and each
coefficient is one exact division by its total degree, which raises
`InconsistentResult` if it leaves a remainder.  The weighted variant marks a
color-i vertex of degree h with r[i,h], one more coordinate of the exponent
after x_1..x_m.  The one-sort family, every color graded by one x, is the
list of A = x + A^m by degree, one term a degree; R = A - x and the centre
series are lists too, read without the packed layer.  Truncation is by the
total degree of the x coordinates: every monomial of a p-polygon cactus has
total degree (m-1)p + 1, so a total-degree bound is a polygon bound, and a
product of k planted series lies at total degrees = k (mod m - 1): the
solver forms no other part, and keeps no empty one.  A count of one
statistic solves inside a box instead, one cap per coordinate taken from the
statistic: a term above a cap cannot divide the target, so it is dropped as
soon as it is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, Mapping, Optional, Sequence

from . import formulas
from .stats import (BudgetExceeded, ColorStat, DegreeStat, InconsistentResult,
                    SizeStat, Statistic, UsageError, ValidationError,
                    color_marginal)

SERIES_MULTI_BOUND = 16  # the highest order a count or `cacti series` solves
SERIES_ONE_SORT_BOUND = 64  # the same on the one-sort lists


Parts = dict[int, dict[int, int]]  # total degree -> non-empty packed part
Inside = tuple[int, int]  # (bias, guard): e is in the box iff not (e + bias) & guard
OneSort = tuple[int, list[int]]  # m and A, as `solve_one_sort` returns them


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
    """The m planted series (one per root color) and their product R, the
    rooted series, solved to a common bound as the solver's degree -> parts.

    `planted[i - 1]` holds A_i and `rooted` R = A_1 ... A_m, both to total
    degree `order`, and only their non-empty parts, all at total degrees = 1
    (mod m - 1).  Unweighted, A_i = x_i + R: past degree 1 every A_i keeps
    R's parts.  Every term of R holds each x_i, so no field borrows when x_i
    is taken from R's exponents.  An exponent has the m graded coordinates
    x_1..x_m and, in a weighted family, one marker coordinate per (color,
    degree) pair of `slots`, in that order.  `box` caps each coordinate, or
    is None.

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
    rooted: Parts = field(default_factory=dict)

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


def solve_planted(m: int, order: int, slots: tuple = (),
                  box: Optional[tuple[int, ...]] = None) -> PlantedFamily:
    """The m planted series A_i = x_i / (1 - H_i), one x_i per color, and
    their product R, exact to the truncation order, by increasing degree.

    H_i = prod_{j != i} A_j starts at degree m - 1, so the degree-d part of
    A_i needs only lower parts.  R is formed once a degree, the last prefix
    product times A_m.  Unweighted, H_i * A_i = R, so every A_i = x_i + R
    keeps R's part.  Weighted, A_i = x_i * sum_{h>=1} r[i,h] * H_i^(h-1), so
    only this branch forms the suffix products and the H_i; the marker
    r[i,h] adds one to coordinate m + k for (i, h) = slots[k], and a power
    of H_i that no slot marks, and a term above the box, is dropped as soon
    as its part is formed.  Nothing is multiplied by the constant 1: H_1 is
    right[1], H_m is left[m - 1], H_i^1 is H_i.
    """
    if m < 2 or order < 1:
        raise ValidationError(f"need m >= 2, order >= 1: m = {m}, order = {order}")
    shell = PlantedFamily(m, order, slots, box)  # the layout, no series yet
    inside = shell.inside
    unit = [1 << k * shell.width for k in range(m + len(slots))]  # x_i, then markers
    marker = {slot: unit[m + k] for k, slot in enumerate(slots)}  # the unit of r[i,h]
    # the highest power of H_i that a marker of color i multiplies
    top = [max((h - 1 for c, h in marker if c == i + 1), default=0)
           for i in range(m)]
    a: list[Parts] = [{} for _ in range(m)]
    rooted: Parts = {}
    for i in range(m):  # x_i, and r[i,1] with it when weighted
        stem = _lift({0: 1}, marker.get((i + 1, 1)), inside) if slots else {0: 1}
        _keep(a[i], 1, _lift(stem, unit[i], inside))
    # left[k] = A_0 ... A_{k-1}, right[k] = A_k ... A_{m-1}, H_i = left[i] *
    # right[i + 1]; the empty products left[0] and right[m] are never formed.
    left = [None, a[0]] + [{} for _ in range(2, m)]
    right = [{} for _ in range(m - 1)] + [a[m - 1]]
    hats = [right[1]] + [{} for _ in range(2, m)] + [left[-1]]
    powers = [[hat] + [{} for _ in range(1, top[i])] for i, hat in enumerate(hats)]
    q = m - 1  # a product of k planted series lives at degrees = k (mod q)
    for d in range(1, order):
        for k in range(2, m):
            if (d - k) % q == 0:
                _keep(left[k], d, _product_part(left[k - 1], a[k - 1], d, inside))
        for k in range(m - 2, 0, -1) if slots else ():
            if (d - (m - k)) % q == 0:
                _keep(right[k], d, _product_part(a[k], right[k + 1], d, inside))
        if d % q:
            continue
        part = _product_part(left[-1], a[-1], d + 1, inside)  # R's degree d + 1
        for parts in [rooted] if slots else [rooted, *a]:  # unweighted, every A_i's
            _keep(parts, d + 1, part)
        if not slots:
            continue
        for i in range(1, m - 1):
            _keep(hats[i], d, _product_part(left[i], right[i + 1], d, inside))
        for i, hat in enumerate(hats):  # weighted, by powers
            part = {}
            for k in range(1, min(d // q, top[i]) + 1):  # H_i^k at powers[i][k - 1]
                if k > 1:
                    _keep(powers[i][k - 1], d,
                          _product_part(powers[i][k - 2], hat, d, inside))
                power = powers[i][k - 1].get(d, {})
                for e, c in _lift(power, marker.get((i + 1, k + 1)), inside).items():
                    part[e] = part.get(e, 0) + c
            _keep(a[i], d + 1, _lift(part, unit[i], inside))
    return PlantedFamily(m, order, slots, box, tuple(a), rooted)


def solve_one_sort(m: int, order: int) -> OneSort:
    """The one-sort family, every color sharing A = x + A * A^(m-1), as
    (m, A), A a coefficient list by degree to the order.

    A^j lies at degrees = j (mod q), q = m - 1, so one j in 2..m has a term
    at each degree d, and it is one dot product of two strided slices, A
    times A^(j-1), the shorter first.  Only the powers below the order are
    formed: at q >= order, A^m is 0 within it.
    """
    if m < 2 or order < 1:
        raise ValidationError(f"need m >= 2, order >= 1: m = {m}, order = {order}")
    q = m - 1
    a = [0, 1] + [0] * (order - 1)
    powers = [a] + [[0] * order for _ in range(2, min(m, order))]  # A^j at j - 1
    for d in range(2, order + 1):
        j = (d - 2) % q + 2
        if j <= d and (j == m or d < order):  # A^m = A - x; A^(m-1) only below it
            (a if j == m else powers[j - 1])[d] = sum(
                map(mul, a[1:d:q], powers[j - 2][d - 1::-q]))
    return m, a


def one_sort_centre(m: int, a: list[int], weight: Callable[[int], int],
                    s: int = 1) -> list[int]:
    """`_centre` with every x_i set to x, as a list by degree to the order
    of A = `a`.  T = E(L) = E(Q) - Q * T, Q = R/x, lies at multiples g of q
    = m - 1, and T[g] = g * Q[g] - sum_a Q[a] * T[g - a] is one dot product
    of strided slices; T[g] adds s * w(d) * T[g] at n = s*d*g, and each n
    is divided once, exactly.  At q >= order no loop runs.
    """
    order, q = len(a) - 1, m - 1
    quotient = [0] + a[2:]  # Q = R/x
    top = (order - 1) // s  # every term of T that some d stretches below the order
    w = [0] + [weight(d) for d in range(1, (order - 1) // (s * q) + 1)]
    t, sums = [0] * (top + 1), [0] * order
    for g in range(q, top + 1, q):
        t[g] = g * quotient[g] - sum(map(mul, quotient[q:g:q], t[g - q:0:-q]))
        for d in range(1, (order - 1) // (s * g) + 1):
            sums[s * d * g] += s * w[d] * t[g]
    centre = [0, int(s == 1)] + [0] * (order - 1)  # x * [s = 1]
    for n in range(s * q, order, s * q):
        centre[n + 1], rest = divmod(sums[n], n)
        if rest:
            raise InconsistentResult(
                f"centre coefficient {sums[n]}/{n} at ({n},) is not an integer")
    return centre


def series_planted(family: PlantedFamily, color: int = 1) -> dict:
    """A_i of the 1-based `color` as {exponent: coefficient}."""
    return {family.unpack(e): c for part in family.planted[color - 1].values()
            for e, c in part.items()}


def _centre(family: PlantedFamily, color: int,
            weight: Callable[[int], int], s: int) -> dict[int, int]:
    """The centre series of color i = `color` at weight w and stretch s,

        x_i * ([s = 1] + sum_{d >= 1} (w(d)/d) * L(x^(s*d))),  L = log(1 + R/x_i),

    keyed by packed exponents; 1 + R/x_i = A_i/x_i = 1/(1 - H_i).  With w =
    phi and s = 1 it counts the cacti pointed at a color-i vertex.  The term
    T[e] of T = E(L) = E(Q) - Q * T, Q = R/x_i, e of degree g, adds s * w(d)
    * T[e] / (s*d*g) at s*d*e, whose degree is s*d*g: each exponent inside
    the box once lifted by x_i (only those get all their d, and read no
    term of R above the box) sums its numerators and divides once, exactly.
    """
    if family.slots:
        raise ValidationError("a centre series needs an unweighted family")
    order, q, unit = family.order, family.m - 1, 1 << (color - 1) * family.width
    bias, guard = inside = family.inside[0] + unit, family.inside[1]
    top = (order - 1) // s  # every term of T that some d stretches below the order
    minus = {d - 1: {e - unit: -c for e, c in part.items()}
             for d, part in family.rooted.items() if d <= top + 1}
    w = [0] + [weight(d) for d in range(1, (order - 1) // (s * q) + 1)]
    t_parts: Parts = {}
    sums, degrees = {}, {}  # at s*d*e: the summed numerators, and their degree
    for g in range(q, top + 1, q):  # -Q lies at these degrees, as T does
        # E scales a monomial by its degree, and T = E(Q) - Q * T
        part = _product_part(minus, t_parts, g, inside) if t_parts else {}
        for e, c in minus.get(g, {}).items():
            part[e] = part.get(e, 0) - g * c
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
    return _lift(inner, unit, family.inside)


def _rooted(family: PlantedFamily | OneSort) -> dict[int, int] | list[int]:
    """The rooted series R in the family's layout: its parts, or A - x."""
    if not isinstance(family, PlantedFamily):
        return [0, 0] + family[1][2:]
    return {e: c for part in family.rooted.values() for e, c in part.items()}


def centred(family: PlantedFamily | OneSort, forms: Sequence) -> list:
    """The series of each `formulas.Centres` of `forms`: the centre series
    of its colours at its weight and stretch, plus `rooted` times R, keyed
    in the family's layout.  A `PlantedFamily` gives {packed exponent:
    coefficient} maps, each colour its own centre, so the lone vertex x_i
    counts once per colour of the form; a weighted family has no centre
    series.  The one-sort lists (m, A) give lists by degree, where the
    colours share one centre, len(colors) times, and x counts once.  Each
    centre is solved once per call, from R alone.
    """
    packed = isinstance(family, PlantedFamily)
    rooted, centres, out = _rooted(family), {}, []
    for colors, w, s, factor in forms:
        keys = [(c, w, s) for c in colors] if packed else [(w, s)] * bool(colors)
        for key in [key for key in keys if key not in centres]:
            centres[key] = (_centre(family, *key) if packed
                            else one_sort_centre(*family, *key))
        if packed:
            total = {}
            terms = ([(1, centres[key]) for key in keys]
                     + [(factor, rooted)] * bool(factor))
            for k, part in terms:
                for e, c in part.items():
                    total[e] = total.get(e, 0) + k * c
        elif colors:  # one centre for every colour, and x once
            centre, k = centres[w, s], len(colors)
            total = [k * c + factor * r for c, r in zip(centre, rooted)]
            total[1] = centre[1]
        else:
            total = [factor * r for r in rooted]
        out.append(total)
    return out


def count(mode: str, stat: Statistic, *, color: int | None = None,
          s: int | None = None, kind=None) -> int:
    """The series route's count of `mode` at `stat`: the statistic's
    coefficient in the series of the mode's `formulas.Centres`, or a
    refusal where the mode has none, past the order bounds, and for centres
    at degree level, which a weighted family has not.  Size level reads the
    one-sort lists at x^n.  Else the family is solved inside the statistic's
    exponent: each x_i capped at n_i and, at degree level, one slot per
    (color, degree) pair of the rows, capped at its multiplicity.  No slot
    marks degree 0, so the lone vertex is counted at its colour vector."""
    centres = formulas.MODES[mode].centres
    if centres is None:
        raise UsageError(f"--path series does not support mode {mode!r}")
    if isinstance(stat, DegreeStat) and stat.p == 0:
        stat = color_marginal(stat)
    form = centres(stat, color=color, s=s)
    bound = SERIES_ONE_SORT_BOUND if isinstance(stat, SizeStat) else SERIES_MULTI_BOUND
    if stat.n > bound:
        raise BudgetExceeded(f"series order {stat.n} > {bound}")
    if isinstance(stat, DegreeStat) and form.colors:
        raise UsageError("--path series at degree level counts no centres: "
                         "--mode rooted or labelled only")
    if isinstance(stat, SizeStat):  # one-sort: the order caps x
        target = (stat.n,)
        total = centred(solve_one_sort(stat.m, stat.n), [form])[0][stat.n]
    else:
        if isinstance(stat, ColorStat):
            slots, target = (), stat.counts
        else:
            slots = tuple((i, h) for i, row in enumerate(stat.rows, start=1)
                          for h, _ in row)
            target = stat.color_counts + tuple(k for row in stat.rows for _, k in row)
        family = solve_planted(stat.m, stat.n, slots, target)
        total = centred(family, [form])[0].get(family.pack(target), 0)
    if Fraction(total).denominator != 1:
        raise InconsistentResult(f"count {total} at {target} is not an integer")
    return int(total)
