"""Statistics of m-ary cacti and their coherence validation.

A statistic fixes the level at which cacti are counted:

* ``SizeStat``    -- gon size m and polygon count p only,
* ``ColorStat``   -- the vector (n_1, ..., n_m) of vertex counts per color,
* ``DegreeStat``  -- the sparse matrix n_ij of color-i vertices of degree j,
  where the degree of a vertex is the number of polygons incident to it.

Validation enforces the exact existence conditions: a cactus with n vertices
and p polygons exists iff n = (m-1)p + 1; a color vector is realizable iff
additionally n_i <= p for every color (p >= 1); a degree matrix iff every
row satisfies sum_j j*n_ij = p and no vertex has degree 0 while p >= 1.
Validated statistics are therefore always realizable, and every count in
`cacti.formulas` assumes its input went through these constructors.

Colors are 1-based in every public signature, matching the cyclic labelling
of polygon corners.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union


class ValidationError(ValueError):
    """A statistic, or an option of a count, is invalid."""


class UsageError(ValueError):
    """Incompatible or missing flags, or a query that a route refuses."""


class BudgetExceeded(ValueError):
    """Requested size is beyond a route's documented bounds."""


class InconsistentResult(RuntimeError):
    """A computed result breaks an identity that holds by construction.

    Raised where a check guards a result rather than an input, so that it
    holds under ``python -O`` too.
    """


def exact(value: int | Fraction, what: str, den: int = 1, at: object = None) -> int:
    """`value` / `den`, a count that divides exactly by construction, else
    `InconsistentResult` naming `what`, and `at` (formatted only then)."""
    quotient, rest = divmod(value, den)
    if rest:
        where = "" if at is None else f" at {at}"
        raise InconsistentResult(f"non-integral {what}{where}: {Fraction(value, den)}")
    return quotient


class NonIntegralP(ValidationError):
    """Vertex count incompatible with any polygon count: n != (m-1)p + 1."""


class ColorBoundViolation(ValidationError):
    """Some color has more vertices than there are polygons."""


class RowSumMismatch(ValidationError):
    """Degree rows imply different polygon counts (sum_j j*n_ij differs)."""


class IsolatedDegreeZero(ValidationError):
    """A degree-0 vertex is only allowed in the single-vertex cactus."""


class DegreeSpecError(ValidationError):
    """Malformed degree-distribution text."""


class DuplicateDegree(DegreeSpecError):
    """The same degree appears twice within one row of a degree spec."""


def _check_m(m: int) -> None:
    if m < 2:
        raise ValidationError(f"gon size m = {m}, need m >= 2")


@dataclass(frozen=True)
class SizeStat:
    m: int
    p: int

    def __post_init__(self):
        _check_m(self.m)
        if self.p < 0:
            raise ValidationError(f"polygon count p = {self.p} < 0")

    @property
    def n(self) -> int:
        return (self.m - 1) * self.p + 1


@dataclass(frozen=True)
class ColorStat:
    """`n` and `p`, computed once by validation, are plain attributes and
    not fields, so equality, hashing and repr ignore them."""

    m: int
    counts: tuple[int, ...]

    def __post_init__(self):
        m, counts = self.m, self.counts
        _check_m(m)
        if len(counts) != m:
            raise ValidationError(f"{len(counts)} counts for m = {m} colors")
        if any(c < 0 for c in counts):
            raise ValidationError(f"negative color count in {counts}")
        n = sum(counts)
        if n < 1 or (n - 1) % (m - 1) != 0:
            raise NonIntegralP(f"no polygon count fits {n} vertices at m = {m}")
        p = (n - 1) // (m - 1)
        for i, c in enumerate(counts, start=1):
            if c > p >= 1:
                raise ColorBoundViolation(
                    f"color {i} has {c} vertices but only {p} polygons")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class DegreeStat:
    """`p`, `n` and `counts`, the vertices per color as in `ColorStat`, are
    computed once by validation, as plain attributes and not fields, so
    equality, hashing and repr ignore them.  Degree 0 and empty rows
    validate only as the lone vertex, (((0, 1),), (), ...) rotated."""

    # rows[i] lists (degree, multiplicity) pairs for color i+1, sorted by
    # distinct degree, multiplicities >= 1; degrees are unbounded so rows
    # stay sparse.
    m: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        m, rows = self.m, self.rows
        _check_m(m)
        if len(rows) != m:
            raise ValidationError(f"{len(rows)} rows for m = {m} colors")
        sums, counts = [], []
        for row in rows:
            last, total, count = -1, 0, 0
            for j, k in row:
                if j < 0 or k < 1:
                    raise ValidationError(f"bad degree entry {j}^{k}")
                if j <= last:
                    raise ValidationError(f"row {row} not sorted by distinct degree")
                last, total, count = j, total + j * k, count + k
            sums.append(total)
            counts.append(count)
        n = sum(counts)
        if len(set(sums)) > 1:
            raise RowSumMismatch(f"rows imply different polygon counts: {sums}")
        p = sums[0]
        if n != (m - 1) * p + 1:
            raise NonIntegralP(f"{n} vertices incompatible with {p} polygons at m = {m}")
        for i, row in enumerate(rows, start=1):
            if p >= 1 and row and row[0][0] == 0:  # sorted: degree 0 comes first
                raise IsolatedDegreeZero(f"color {i} has a degree-0 vertex")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", tuple(counts))


Statistic = Union[SizeStat, ColorStat, DegreeStat]


def size_stat(m: int, p: int) -> SizeStat:
    """Validated size-level statistic."""
    return SizeStat(m, p)


def color_stat(m: int, counts: Sequence[int]) -> ColorStat:
    """Validated color distribution; p is derived, never supplied."""
    return ColorStat(m, tuple(counts))


def degree_stat(m: int, rows: Sequence[Mapping[int, int]]) -> DegreeStat:
    """Validated degree distribution from one degree->multiplicity map per color."""
    return DegreeStat(m, tuple(tuple(sorted((j, k) for j, k in row.items() if k))
                               for row in rows))


def color_marginal(stat: DegreeStat) -> ColorStat:
    """Collapse a degree matrix to its per-color vertex counts."""
    return color_stat(stat.m, stat.counts)


_TERM_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_degree_spec(text: str) -> DegreeStat:
    """Parse "1^2 2^2 4; 1^2 2^4" style text into a validated DegreeStat.

    Rows are ';'-separated, one per color; each row lists terms ``j^k``
    (k >= 1 vertices of degree j) or bare ``j`` (meaning j^1), no degree
    twice; `DegreeStat` alone decides which rows are coherent.
    """
    rows = []
    for row_text in text.split(";"):
        row: dict[int, int] = {}
        for term in row_text.split():
            match = _TERM_RE.match(term)
            if not match:
                raise DegreeSpecError(f"bad term {term!r}")
            j = int(match.group(1))
            k = int(match.group(2)) if match.group(2) else 1
            if k < 1:
                raise DegreeSpecError(f"term {term!r}: count must be >= 1")
            if j in row:
                raise DuplicateDegree(f"degree {j} repeated in row {row_text.strip()!r}")
            row[j] = k
        rows.append(row)
    return degree_stat(len(rows), rows)
