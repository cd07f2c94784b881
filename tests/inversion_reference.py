"""The m-dimensional Lagrange inversion, a reference for the series route.

The paper derives its formulas with this inversion; no route of the program
counts with it.  The tests check it against the solved planted series.

`chottin_extract` implements the alternating multidimensional Lagrange
inversion that turns coefficients of A_1^a1 ... A_m^am into coefficients of
powers of the defining one-variable series, with the rational constant

    D = prod_i (1 + b_i/n_i) - sum_j (b_j/n_j) prod_{i != j} (1 + b_i/n_i).
"""

from fractions import Fraction
from typing import Sequence

from cacti.stats import InconsistentResult


class CoherenceViolation(ValueError):
    """Exponent data admits no integral inversion parameters."""


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
