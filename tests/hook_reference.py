"""Rooted degree-level counts from the hook characters of S_p, for the tests.

Goulden and Jackson (Europ. J. Combin. 13, 1992): the rooted m-ary cacti
with degree rows (mu_1, ..., mu_m) are as many as the m-factorizations of
the full p-cycle whose factors have the cycle types mu_i.  By the Frobenius
formula that census is

    (prod_i |C_i| / p!) * sum_lambda prod_i chi(C_i) * chi(p-cycle) / f^(m-1).

chi vanishes on the p-cycle unless lambda is a hook (p-k, 1^k), where it is
(-1)^k and f = C(p-1, k); the hook values on a class mu are the coefficients
of prod_j (1 - (-q)^mu_j) / (1 + q) (Macdonald, Symmetric Functions and Hall
Polynomials, ch. I).  So the census is a sum of p terms, with no group and
no enumeration.  A row is a partition in (part, multiplicity) pairs.
"""

from fractions import Fraction
from math import comb, factorial, prod


def hook_characters(row) -> list[int]:
    """chi^(p-k, 1^k) on the class of `row`, for k = 0 .. p-1."""
    poly = [1]
    for part, mult in row:
        for _ in range(mult):  # times 1 - (-q)^part
            poly = poly + [0] * part
            for i in range(len(poly) - part - 1, -1, -1):
                poly[i + part] -= (-1) ** part * poly[i]
    quotient = []  # divided by 1 + q
    for c in poly[:-1]:
        quotient.append(c - (quotient[-1] if quotient else 0))
    return quotient


def census(rows) -> int:
    """The m-factorizations of the p-cycle whose factors have cycle types `rows`."""
    p = sum(part * mult for part, mult in rows[0])
    sizes = prod(factorial(p) // prod(part ** mult * factorial(mult)
                                      for part, mult in row) for row in rows)
    chars = [hook_characters(row) for row in rows]
    total = sum(Fraction((-1) ** k * prod(c[k] for c in chars),
                         comb(p - 1, k) ** (len(rows) - 1)) for k in range(p))
    value = total * sizes / factorial(p)
    if value.denominator != 1:
        raise ArithmeticError(f"census {value} of {rows} is not an integer")
    return int(value)
