"""Truncated formal power series solving the cactus functional equations.

This is the second, independent computation path: the planted generating
series A_1, ..., A_m satisfy A_i = x_i / (1 - prod_{j != i} A_j); solved
degree by degree, they give the rooted, pointed and plain unlabelled series.
Coefficients are exact (ints, Fractions in intermediate log computations,
or integer polynomials in degree markers r_ih for the weighted variant) and
truncation is by total degree: every monomial of a p-polygon cactus has
total degree (m-1)p + 1, so a total-degree bound is a polygon bound.

`chottin_extract` implements the alternating multidimensional Lagrange
inversion that turns coefficients of A_1^a1 ... A_m^am into coefficients of
powers of the defining one-variable series, with the rational constant

    D = prod_i (1 + b_i/n_i) - sum_j (b_j/n_j) prod_{i != j} (1 + b_i/n_i).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .arith import euler_phi
from .stats import InconsistentResult, ValidationError


class CoherenceViolation(ValueError):
    """Exponent data admits no integral inversion parameters."""


Monomial = tuple[tuple[tuple[int, int], int], ...]  # ((color, degree), exp), sorted


class MarkerPoly:
    """Sparse integer polynomial in the degree markers r[color, degree]."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int]):
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def marker(cls, color: int, degree: int) -> "MarkerPoly":
        return cls({(((color, degree), 1),): 1})

    @classmethod
    def const(cls, value: int) -> "MarkerPoly":
        return cls({(): value} if value else {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MarkerPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == MarkerPoly.const(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = MarkerPoly.const(other) if isinstance(other, int) else other
        if not isinstance(other, MarkerPoly):
            return NotImplemented
        merged = dict(self.terms)
        for k, v in other.terms.items():
            merged[k] = merged.get(k, 0) + v
        return MarkerPoly(merged)

    __radd__ = __add__

    def __neg__(self):
        return MarkerPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MarkerPoly)
                       else MarkerPoly.const(-other))

    def __mul__(self, other):
        if isinstance(other, int):
            return MarkerPoly({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, MarkerPoly):
            return NotImplemented
        out: dict[Monomial, int] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                merged: dict[tuple[int, int], int] = dict(ka)
                for var, e in kb:
                    merged[var] = merged.get(var, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, 0) + va * vb
        return MarkerPoly(out)

    __rmul__ = __mul__

    def set_ones(self) -> int:
        """Value after substituting 1 for every marker."""
        return sum(self.terms.values())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            factors = [f"r[{i},{h}]" + (f"^{e}" if e > 1 else "")
                       for (i, h), e in key]
            coeff = self.terms[key]
            body = "*".join(factors) if factors else "1"
            bits.append(body if coeff == 1 and factors else f"{coeff}*{body}"
                        if factors else str(coeff))
        return " + ".join(bits)


Coeff = Union[int, Fraction, MarkerPoly]


def _normal(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


@dataclass(frozen=True, eq=False)
class Series:
    """Multivariate power series truncated at a total-degree bound."""

    nvars: int
    bound: int
    coeffs: dict[tuple[int, ...], Coeff] = field(default_factory=dict)

    def __post_init__(self):
        clean = {e: _normal(c) for e, c in self.coeffs.items()
                 if sum(e) <= self.bound and c}
        object.__setattr__(self, "coeffs", clean)

    def __getitem__(self, exponents: Sequence[int]) -> Coeff:
        return self.coeffs.get(tuple(exponents), 0)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Series) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __add__(self, other: "Series") -> "Series":
        assert self.nvars == other.nvars
        merged = dict(self.coeffs)
        for e, c in other.coeffs.items():
            merged[e] = merged.get(e, 0) + c
        return Series(self.nvars, min(self.bound, other.bound), merged)

    def __neg__(self) -> "Series":
        return Series(self.nvars, self.bound,
                      {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        assert self.nvars == other.nvars
        bound = min(self.bound, other.bound)
        out: dict[tuple[int, ...], Coeff] = {}
        for ea, ca in self.coeffs.items():
            da = sum(ea)
            for eb, cb in other.coeffs.items():
                if da + sum(eb) > bound:
                    continue
                e = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(e)
                out[e] = ca * cb if prev is None else prev + ca * cb
        return Series(self.nvars, bound, out)

    def scale(self, factor: Coeff) -> "Series":
        return Series(self.nvars, self.bound,
                      {e: factor * c for e, c in self.coeffs.items()})

    def shift(self, var: int) -> "Series":
        """Multiply by the variable of index `var` (0-based)."""
        out = {}
        for e, c in self.coeffs.items():
            lifted = tuple(x + (1 if i == var else 0) for i, x in enumerate(e))
            out[lifted] = c
        return Series(self.nvars, self.bound, out)

    def power_substitute(self, d: int) -> "Series":
        """Substitute x_i -> x_i^d for every variable."""
        return Series(self.nvars, self.bound,
                      {tuple(x * d for x in e): c for e, c in self.coeffs.items()})

    def homogeneous(self) -> dict[int, dict[tuple[int, ...], Coeff]]:
        by_deg: dict[int, dict[tuple[int, ...], Coeff]] = {}
        for e, c in self.coeffs.items():
            by_deg.setdefault(sum(e), {})[e] = c
        return by_deg


def zero(nvars: int, bound: int) -> Series:
    return Series(nvars, bound, {})


def const(nvars: int, bound: int, value: Coeff) -> Series:
    return Series(nvars, bound, {(0,) * nvars: value})


def variable(nvars: int, bound: int, var: int) -> Series:
    e = tuple(1 if i == var else 0 for i in range(nvars))
    return Series(nvars, bound, {e: 1})


def _product_part(a: Mapping[int, dict], b: Mapping[int, dict], d: int) -> dict:
    """Degree-d part of a product, both factors given as degree -> part."""
    out: dict[tuple[int, ...], Coeff] = {}
    for da, part_a in a.items():
        part_b = b.get(d - da)
        if not part_b:
            continue
        for ea, ca in part_a.items():
            for eb, cb in part_b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    return out


def geometric(s: Series) -> Series:
    """1 / (1 - s) for a series with zero constant term."""
    assert s[(0,) * s.nvars] == 0, "geometric needs zero constant term"
    out = power = const(s.nvars, s.bound, 1)
    for _ in range(s.bound):  # s^k starts at degree k
        power = power * s
        out = out + power
    return out


def log_geometric(s: Series) -> Series:
    """log(1 / (1 - s)) for a series with zero constant term.

    Solved through the Euler derivative E (multiplying each monomial by its
    total degree): E(log 1/(1-s)) = E(s) + s * E(log 1/(1-s)), which gives
    the homogeneous parts by increasing degree without composing full logs.
    Coefficients pick up exact rational factors 1/deg.
    """
    assert s[(0,) * s.nvars] == 0, "log_geometric needs zero constant term"
    s_parts = s.homogeneous()
    es_parts = {deg: {e: deg * c for e, c in part.items()}
                for deg, part in s_parts.items()}
    t_parts: dict[int, dict[tuple[int, ...], Coeff]] = {}
    for deg in range(1, s.bound + 1):
        part = _product_part(s_parts, t_parts, deg)
        for e, c in es_parts.get(deg, {}).items():
            part[e] = part.get(e, 0) + c
        t_parts[deg] = part
    out: dict[tuple[int, ...], Coeff] = {}
    for deg, part in t_parts.items():
        for e, c in part.items():
            out[e] = Fraction(c, deg) if isinstance(c, int) else c / deg
    return Series(s.nvars, s.bound, out)


@dataclass(frozen=True)
class PlantedFamily:
    """The m planted series (one per root color), solved to a common bound."""

    m: int
    order: int
    weighted: bool
    series: tuple[Series, ...]

    def hat(self, i: int) -> Series:
        """Product of all planted series except the one of 1-based color i."""
        out = const(self.series[0].nvars, self.order, 1)
        for j, s in enumerate(self.series, start=1):
            if j != i:
                out = out * s
        return out


def _solve(m: int, order: int, nvars: int,
           weighted: bool = False) -> tuple[Series, ...]:
    """The m planted series, built part by part in increasing total degree.

    A_i = x_i * B_i with B_i = 1 + H_i * B_i, or B_i = sum_{h>=1} r[i,h] *
    H_i^(h-1) when weighted, and H_i = prod_{j != i} A_j starts at degree
    m - 1, so the degree-d part of B_i needs only lower parts.  With nvars = 1
    every color is graded by one x and shares one series, solved once.
    """
    if m < 2 or order < 1:
        raise ValidationError(f"need m >= 2, order >= 1: m = {m}, order = {order}")
    one = {0: {(0,) * nvars: 1}}
    a: list[dict] = [{} for _ in range(nvars)]  # degree -> part of A_i
    b = [{0: {(0,) * nvars: MarkerPoly.marker(i + 1, 1) if weighted else 1}}
         for i in range(nvars)]
    # Color j has series j % nvars.  left[k] = A_0 ... A_{k-1} and right[k] =
    # A_k ... A_{m-1}, so H_i = left[i] * right[i + 1].
    left = [one, a[0]] + [{} for _ in range(2, nvars)]
    right = [{} for _ in range(m - 1)] + [a[(m - 1) % nvars], one]
    hats: list[dict] = [{} for _ in range(nvars)]
    powers = [[one] + [{} for _ in range(order // (m - 1))] for _ in range(nvars)]
    for d in range(1, order + 1):
        for i in range(nvars):
            a[i][d] = {tuple(x + (v == i) for v, x in enumerate(e)): c
                       for e, c in b[i][d - 1].items()}
        if d == order:
            break
        for k in range(2, nvars):
            left[k][d] = _product_part(left[k - 1], a[k - 1], d)
        for k in range(m - 2, 0, -1):
            right[k][d] = _product_part(a[k % nvars], right[k + 1], d)
        for i, hat in enumerate(hats):
            hat[d] = _product_part(left[i], right[i + 1], d)
            if not weighted:
                b[i][d] = _product_part(hat, b[i], d)
                continue
            part = b[i][d] = {}
            for k in range(1, d // (m - 1) + 1):  # H_i^k starts at degree k(m-1)
                powers[i][k][d] = _product_part(powers[i][k - 1], hat, d)
                marker = MarkerPoly.marker(i + 1, k + 1)
                for e, c in powers[i][k][d].items():
                    part[e] = part.get(e, 0) + marker * c
    solved = tuple(Series(nvars, order, {e: c for part in ai.values()
                                         for e, c in part.items()}) for ai in a)
    return solved * (m // nvars)


def solve_planted(m: int, order: int, weighted: bool = False) -> PlantedFamily:
    """The planted series, exact to the truncation order.

    Unweighted: A_i = x_i / (1 - hat(A_i)).  Weighted: A_i = x_i * sum_{h>=1}
    r[i,h] * hat(A_i)^(h-1), where r[i,h] marks a color-i vertex of degree h.
    """
    return PlantedFamily(m, order, weighted, _solve(m, order, m, weighted))


def series_rooted(family: PlantedFamily) -> Series:
    """Rooted cacti: the product of all planted series."""
    return family.hat(1) * family.series[0]


def rooted_coefficient(family: PlantedFamily, exponents: Sequence[int]) -> Coeff:
    """[x^exponents] of `series_rooted(family)`, summed over the coefficients
    of A_1 rather than read off the whole product.  A term above the target in
    some variable cannot reach it, so every planted series drops those first."""
    target = tuple(exponents)
    below = replace(family, series=tuple(Series(s.nvars, s.bound, {
        e: c for e, c in s.coeffs.items()
        if all(x <= t for x, t in zip(e, target))}) for s in family.series))
    hat = below.hat(1)
    return sum((c * hat[tuple(t - x for x, t in zip(e, target))]
                for e, c in below.series[0].coeffs.items()), 0)


def series_pointed_unlabelled(family: PlantedFamily, color: int,
                              order: int | None = None) -> Series:
    """Unlabelled cacti pointed at a color-`color` vertex:

        x_i * (1 + sum_{d >= 1} (phi(d)/d) * log 1/(1 - hat(A_i)(x^d))).
    """
    assert not family.weighted, "pointed series implemented for unweighted families"
    order = family.order if order is None else order
    assert order <= family.order
    hat = family.hat(color)
    inner = const(hat.nvars, order - 1, 1)
    d = 1
    while d * (family.m - 1) <= order - 1:
        sub = Series(hat.nvars, order - 1, hat.power_substitute(d).coeffs)
        inner = inner + log_geometric(sub).scale(Fraction(euler_phi(d), d))
        d += 1
    var = color - 1 if hat.nvars > 1 else 0
    return Series(hat.nvars, order, inner.coeffs).shift(var)


def series_unlabelled(m: int, order: int, one_sort: bool = False) -> Series:
    """Unlabelled cacti via pointed and rooted series.

    Multivariate: sum_i pointed_i - (m-1) * rooted.  One-sort (single
    variable x, coefficient of x^n counts all cacti with n vertices): the
    same combination collapsed, minus (m-1)x so the single-vertex cactus is
    counted once rather than once per color.
    """
    family = PlantedFamily(m, order, False, _solve(m, order, 1 if one_sort else m))
    if one_sort:
        pointed = (series_pointed_unlabelled(family, 1).scale(m)
                   - variable(1, order, 0).scale(m - 1))
    else:
        pointed = zero(m, order)
        for color in range(1, m + 1):
            pointed = pointed + series_pointed_unlabelled(family, color)
    return pointed - series_rooted(family).scale(m - 1)


def solve_one_sort(m: int, order: int) -> Series:
    """Univariate planted series A with A = x + A^m."""
    return _solve(m, order, 1)[0]


def geometric_coefficients(order: int) -> list[int]:
    """Univariate coefficients of 1/(1-s) up to the given order."""
    return [1] * (order + 1)


def _upoly_mul(a: list, b: list, bound: int) -> list:
    out = [0] * (min(len(a) + len(b) - 1, bound + 1))
    for i, ca in enumerate(a):
        if not ca or i > bound:
            continue
        for j, cb in enumerate(b):
            if i + j > bound:
                break
            out[i + j] += ca * cb
    return out


def _upoly_coeff_of_power(phi: Sequence[int], exponent: int, index: int) -> Fraction:
    """[s^index] phi(s)^exponent, exact."""
    if index < 0:
        return Fraction(0)
    if len(phi) <= index:
        raise CoherenceViolation(
            f"series given to order {len(phi) - 1}, need {index}")
    out = [1]
    base = list(phi[:index + 1])
    for _ in range(exponent):
        out = _upoly_mul(out, base, index)
    return Fraction(out[index]) if index < len(out) else Fraction(0)


def chottin_extract(phis: Sequence[Sequence[int]], alphas: Sequence[int],
                    ns: Sequence[int]) -> int:
    """[x^ns] A_1^a1 ... A_m^am for A_i = x_i * phi_i(prod_{j != i} A_j).

    phis are one-variable coefficient lists; alphas the exponents a_i >= 0;
    ns the target exponents n_i >= 1.  Requires (sum n - sum a) divisible by
    m - 1; returns 0 when some shifted exponent b_i goes negative.
    """
    m = len(phis)
    if not (len(alphas) == len(ns) == m):
        raise CoherenceViolation("phis, alphas and ns must have equal length")
    if any(n < 1 for n in ns):
        raise CoherenceViolation(f"target exponents must be >= 1: {ns}")
    if any(a < 0 for a in alphas):
        raise CoherenceViolation(f"negative exponent in {alphas}")
    if any(n < a for n, a in zip(ns, alphas)):
        raise CoherenceViolation(f"need n_i >= a_i componentwise: {ns} vs {alphas}")
    n, a = sum(ns), sum(alphas)
    if (n - a) % (m - 1):
        raise CoherenceViolation(f"(n - a) = {n - a} not divisible by {m - 1}")
    beta = (n - a) // (m - 1)
    betas = [beta - ni + ai for ni, ai in zip(ns, alphas)]
    if any(b < 0 for b in betas):
        return 0
    ratios = [Fraction(b, ni) for b, ni in zip(betas, ns)]
    product_all = 1
    for r in ratios:
        product_all *= 1 + r
    d_const = product_all
    for j, rj in enumerate(ratios):
        partial = rj
        for i, ri in enumerate(ratios):
            if i != j:
                partial *= 1 + ri
        d_const -= partial
    value = Fraction(d_const)
    for phi, ni, bi in zip(phis, ns, betas):
        value *= _upoly_coeff_of_power(phi, ni, bi)
    if value.denominator != 1:
        raise InconsistentResult(f"non-integral extraction: {value}")
    return int(value)
