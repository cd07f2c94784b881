"""Exact integer arithmetic primitives used by every counting formula.

All functions work on Python's arbitrary-precision ints and never touch
floating point.  Rationals (intermediate values in divisor-sum formulas)
are `fractions.Fraction`.

Out-of-range binomials return 0 instead of raising: the divisor sums in the
counting formulas rely on vanishing terms whenever an index fails a
divisibility or ordering condition, and the zero convention keeps that code
branch-free.
"""

from __future__ import annotations

import math
from functools import cache


class SumMismatch(ValueError):
    """Multinomial parts do not sum to the declared total."""


class NonPositive(ValueError):
    """Argument must be >= 1."""


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that out-of-range arguments give 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: list[int] | tuple[int, ...]) -> int:
    """n! / (parts[0]! * parts[1]! * ...), requiring sum(parts) == n."""
    total = 0
    result = 1
    for part in parts:
        if part < 0:
            raise SumMismatch(f"negative part {part}")
        total += part
        result *= math.comb(total, part)
    if total != n:
        raise SumMismatch(f"parts sum to {total}, expected {n}")
    return result


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


@cache
def phi_mu(d: int) -> tuple[int, int]:
    """Euler's totient and the Moebius function of d, from one factorization,
    made once per d."""
    if d < 1:
        raise NonPositive(f"phi_mu({d})")
    phi, mu = d, 1
    for prime, e in _factorize(d):
        phi = phi // prime * (prime - 1)
        mu = 0 if e > 1 else -mu
    return phi, mu


def euler_phi(d: int) -> int:
    """Euler's totient: the number of 1 <= k <= d coprime to d."""
    return phi_mu(d)[0]


def moebius_mu(d: int) -> int:
    """Moebius function: (-1)^(#prime factors) if squarefree, else 0."""
    return phi_mu(d)[1]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise NonPositive(f"divisors({n})")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]
