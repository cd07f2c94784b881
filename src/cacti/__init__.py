"""Exact enumeration of cyclically colored polygonal plane cacti.

Three mutually cross-checking computation paths: closed-form counting
formulas (`cacti.formulas`), truncated formal power series solving the
species functional equations (`cacti.series`), and exhaustive generation of
small instances with exact automorphism data (`cacti.oracle`).
"""

from .arith import (
    binomial,
    common_divisors,
    divisors,
    euler_phi,
    moebius_mu,
    multinomial,
    rising_factorial,
)
from .formulas import (
    AutMode,
    GonalKind,
    aut_reciprocal_sum,
    count_asymmetric,
    count_aut,
    count_constellation_rooted,
    count_free_labelled,
    count_gonal,
    count_labelled,
    count_pointed,
    count_rooted,
    count_unlabelled,
)
from .stats import (
    ColorStat,
    DegreeStat,
    SizeStat,
    Statistic,
    color_marginal,
    color_stat,
    degree_stat,
    parse_degree_spec,
    shift,
    size_stat,
    validate,
)

__all__ = [
    "AutMode",
    "GonalKind",
    "ColorStat",
    "DegreeStat",
    "SizeStat",
    "Statistic",
    "aut_reciprocal_sum",
    "binomial",
    "color_marginal",
    "color_stat",
    "common_divisors",
    "count_asymmetric",
    "count_aut",
    "count_constellation_rooted",
    "count_free_labelled",
    "count_gonal",
    "count_labelled",
    "count_pointed",
    "count_rooted",
    "count_unlabelled",
    "degree_stat",
    "divisors",
    "euler_phi",
    "moebius_mu",
    "multinomial",
    "parse_degree_spec",
    "rising_factorial",
    "shift",
    "size_stat",
    "validate",
]
