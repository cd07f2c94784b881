import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cacti import arith


def test_binomial_values():
    assert arith.binomial(12, 4) == 495
    assert arith.binomial(5, 0) == 1
    assert arith.binomial(3, 5) == 0
    assert arith.binomial(-1, 0) == 0
    assert arith.binomial(4, -2) == 0


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=-5, max_value=205))
def test_binomial_symmetry(n, k):
    if 0 <= k <= n:
        assert arith.binomial(n, k) == arith.binomial(n, n - k)


def test_multinomial_values():
    assert arith.multinomial(5, [2, 2, 1]) == 30
    assert arith.multinomial(7, [7]) == 1
    assert arith.multinomial(0, []) == 1
    with pytest.raises(arith.SumMismatch):
        arith.multinomial(4, [2, 1])
    with pytest.raises(arith.SumMismatch):
        arith.multinomial(1, [2, -1])


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6))
def test_multinomial_times_part_factorials(parts):
    n = sum(parts)
    value = arith.multinomial(n, parts)
    assert value * math.prod(math.factorial(x) for x in parts) == math.factorial(n)


def test_euler_phi():
    assert arith.euler_phi(1) == 1
    assert arith.euler_phi(4) == 2
    assert arith.euler_phi(12) == 4
    with pytest.raises(arith.NonPositive):
        arith.euler_phi(0)


def test_moebius_mu():
    assert arith.moebius_mu(1) == 1
    assert arith.moebius_mu(4) == 0
    assert arith.moebius_mu(6) == 1
    assert arith.moebius_mu(30) == -1
    with pytest.raises(arith.NonPositive):
        arith.moebius_mu(-3)


def test_phi_mu_by_definition():
    for d in range(1, 301):
        phi = sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
        squarefree = all(d % (q * q) for q in range(2, d + 1))
        primes = sum(1 for q in range(2, d + 1) if d % q == 0
                     and all(q % r for r in range(2, q)))
        assert arith.phi_mu(d) == (phi, (-1) ** primes if squarefree else 0)
    with pytest.raises(arith.NonPositive):
        arith.phi_mu(0)


def test_divisors():
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(1) == [1]
    assert arith.divisors(7) == [1, 7]
    with pytest.raises(arith.NonPositive):
        arith.divisors(0)



def test_phi_divisor_sums_to_n():
    phi = {k: arith.euler_phi(k) for k in range(1, 10_001)}
    for n in range(1, 10_001):
        assert sum(phi[d] for d in arith.divisors(n)) == n


def test_mu_divisor_sums_vanish():
    mu = {k: arith.moebius_mu(k) for k in range(1, 10_001)}
    assert sum(mu[d] for d in arith.divisors(1)) == 1
    for n in range(2, 10_001):
        assert sum(mu[d] for d in arith.divisors(n)) == 0
