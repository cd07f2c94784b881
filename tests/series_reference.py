"""Whole truncated power series, for the tests only.

The solver in `cacti.series` keeps each series as total degree -> part, or
as a coefficient list in the one-sort family, and `series.centred` returns
each form's series in that layout; `read` gives it as a plain {exponent:
coefficient} map.  This module builds the same targets the long way, as
`Series` objects with whole-series arithmetic, from the solver's planted
series alone: each H_i and the rooted series as full products of them,
weighted families included, and one logarithm of 1/(1 - H_i) per d, in
Fractions, for the pointed series.  The tests check the solver against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add, gt, mul
from typing import Optional, Sequence

from cacti import arith, formulas, series, stats

Box = Optional[tuple[int, ...]]


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

    def scale(self, factor) -> "Series":
        return Series(self.nvars, self.bound,
                      {e: factor * c for e, c in self.coeffs.items()}, self.box)

    def shift(self, var: int) -> "Series":
        """Multiply by the variable or marker of coordinate `var` (0-based)."""
        out = {}
        for e, c in self.coeffs.items():
            out[e[:var] + (e[var] + 1,) + e[var + 1:]] = c
        return Series(self.nvars, self.bound, out, self.box)


ROOTED = formulas.Centres((), None, 1, 1)


def centre(color: int, weight, s: int = 1) -> formulas.Centres:
    """The form of one colour's centre series alone."""
    return formulas.Centres((color,), weight, s, 0)


def unlabelled_form(m: int) -> formulas.Centres:
    return formulas.class_centres(stats.size_stat(m, 1), arith.euler_phi)


def read(family, form: formulas.Centres) -> dict:
    """A form's series by `series.centred`, as {exponent tuple: coefficient}
    without zero entries: packed exponents unpacked, list degrees as (n,)."""
    coeffs = series.centred(family, [form])[0]
    if isinstance(family, series.PlantedFamily):
        return {family.unpack(e): c for e, c in coeffs.items() if c}
    return {(n,): c for n, c in enumerate(coeffs) if c}


def const(nvars: int, bound: int, value: int) -> Series:
    return Series(nvars, bound, {(0,) * nvars: value})


def variable(nvars: int, bound: int, var: int) -> Series:
    return const(nvars, bound, 1).shift(var)


def whole(fam: series.PlantedFamily, parts: dict) -> Series:
    """A series of the family from its degree -> part map."""
    return Series(fam.m, fam.order,
                  {fam.unpack(e): c for part in parts.values()
                   for e, c in part.items()},
                  fam.box)


def planted(fam: series.PlantedFamily, color: int) -> Series:
    return whole(fam, fam.planted[color - 1])


def hat(fam: series.PlantedFamily, color: int) -> Series:
    """H_i = prod_{j != i} A_j, the full product of the planted series."""
    return reduce(mul, (planted(fam, j) for j in range(1, fam.m + 1) if j != color))


def rooted(fam: series.PlantedFamily) -> Series:
    """The full product A_1 ... A_m, weighted or not."""
    return reduce(mul, (planted(fam, j) for j in range(1, fam.m + 1)))


def power(s: Series, k: int) -> Series:
    """s^k for k >= 1."""
    return reduce(mul, [s] * k)


def geometric(s: Series) -> Series:
    """1 / (1 - s) for a series with zero constant term: the plain sum of
    its first `bound` powers, since s^k starts at degree k."""
    assert s[(0,) * s.nvars] == 0, "geometric needs zero constant term"
    out = power = const(s.nvars, s.bound, 1)
    for _ in range(s.bound):
        power = power * s
        out = out + power
    return out


def log_geometric(s: Series) -> Series:
    """log(1 / (1 - s)) for a series with zero constant term: the plain sum
    of s^k / k, in Fractions, until a power vanishes."""
    out = Series(s.nvars, s.bound, {}, s.box)
    power = Series(s.nvars, s.bound, {(0,) * s.nvars: 1}, s.box)
    for k in range(1, s.bound + 1):
        power = power * s
        if not power.coeffs:
            break
        out = out + power.scale(Fraction(1, k))
    return out


def one_sort(m: int, order: int) -> Series:
    """A of the one-sort family, from the solver's list."""
    _, a = series.solve_one_sort(m, order)
    return Series(1, order, {(n,): c for n, c in enumerate(a)})


def pointed(fam: series.PlantedFamily, color: int) -> Series:
    """The pointed series of a color with one log per d."""
    return pointed_from_hat(hat(fam, color), fam.order, color - 1)


def pointed_from_hat(h: Series, order: int, var: int = 0) -> Series:
    """The pointed series with one log per d, as the formula reads:
    x_i * (1 + sum_d phi(d)/d * log 1/(1 - H_i(x^d))), H_i = `h` and x_i the
    coordinate `var`."""
    inner = Series(h.nvars, order - 1, {(0,) * h.nvars: 1}, h.box)
    for d in range(1, order):
        sub = Series(h.nvars, order - 1,
                     {tuple(d * x for x in e): c for e, c in h.coeffs.items()},
                     h.box)
        inner = inner + log_geometric(sub).scale(Fraction(arith.euler_phi(d), d))
    return Series(h.nvars, order, inner.coeffs, h.box).shift(var)


def unlabelled(fam: series.PlantedFamily) -> Series:
    """sum_i pointed_i - (m-1) * rooted."""
    total = reduce(add, (pointed(fam, c) for c in range(1, fam.m + 1)))
    return total - rooted(fam).scale(fam.m - 1)


def one_sort_unlabelled(m: int, order: int) -> Series:
    """m * pointed - (m-1) * (x + rooted): the one-sort family counts the
    single-vertex cactus once, not once per color."""
    a = one_sort(m, order)
    return (pointed_from_hat(power(a, m - 1), order).scale(m)
            - (variable(1, order, 0) + power(a, m)).scale(m - 1))
