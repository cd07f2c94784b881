"""Cyclic colour relabelling of a statistic, which only the tests read.

The counts are covariant under it: a count pointed at colour i equals the
count pointed at colour 1 of the statistic shifted by i - 1.
"""

from cacti.stats import ColorStat, DegreeStat


def shift(stat: ColorStat | DegreeStat, k: int) -> ColorStat | DegreeStat:
    """Cyclic color relabelling: color i of the result is color i+k of the input."""
    m = stat.m
    if isinstance(stat, ColorStat):
        return ColorStat(m, tuple(stat.counts[(i + k) % m] for i in range(m)))
    if isinstance(stat, DegreeStat):
        return DegreeStat(m, tuple(stat.rows[(i + k) % m] for i in range(m)))
    raise TypeError(f"shift needs a color or degree statistic, got {stat!r}")
