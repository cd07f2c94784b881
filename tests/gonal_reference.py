"""The uncoloured gonal counts as their own closed forms, a reference for
`formulas.count_gonal`, which reads them off the coloured counts.

Rooted gonal cacti are no longer rigid (the root polygon may rotate), so
the unlabelled count combines pointed, rooted and planted counts:
unlabelled = pointed + rooted - planted.  The pointed count is the divisor
sum phi(p/d) C(dm, d) / (mp) over d | p, the rooted count the sum
phi(d) C(pm/d, (p - 1)/d) / (mp) over d | gcd(m, p - 1).
"""

import math
from fractions import Fraction

from cacti.arith import binomial, divisors, euler_phi
from cacti.formulas import GonalKind
from cacti.stats import InconsistentResult, size_stat


def _exact(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise InconsistentResult(f"non-integral {context}: {value}")
    return int(value)


def count_gonal(m: int, p: int, kind: GonalKind) -> int:
    """Plane cacti on m-gons without the cyclic coloring."""
    size_stat(m, p)  # range checks
    if p == 0:
        return 0 if kind is GonalKind.ROOTED else 1
    n = (m - 1) * p + 1
    if kind is GonalKind.LABELLED:
        return _exact(Fraction(math.factorial(n - 1) * binomial(m * p, p), m * p),
                      "labelled gonal count")
    if kind is GonalKind.PLANTED:
        return _exact(Fraction(binomial(m * p, p), n), "planted gonal count")
    if kind is GonalKind.POINTED:
        total = sum(euler_phi(p // d) * binomial(d * m, d) for d in divisors(p))
        return _exact(Fraction(total, m * p), "pointed gonal count")
    if kind is GonalKind.ROOTED:
        total = sum(euler_phi(d) * binomial(p * m // d, (p - 1) // d)
                    for d in divisors(math.gcd(m, p - 1)))
        return _exact(Fraction(total, m * p), "rooted gonal count")
    return (count_gonal(m, p, GonalKind.POINTED)
            + count_gonal(m, p, GonalKind.ROOTED)
            - count_gonal(m, p, GonalKind.PLANTED))
