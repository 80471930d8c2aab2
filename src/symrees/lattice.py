"""The rational triangle attached to a presentation and its lattice points.

Write v = x^s2 z^u2 / y^t and w = x^s3 y^t3 / z^u.  The degree-(e*a*b) part
of K[x, y, z] is spanned by the Laurent monomials y^(e*a) v^alpha w^beta
whose x, y, z exponents are all nonnegative; those (alpha, beta) are exactly
the integer points of the triangle e*D, where D has vertices (0, 0),
(u, u2) and (delta1, delta2) = (a*s3/c, -a*s2/c), cut out by

    beta <= (u2/u) * alpha                 (z exponent >= 0)
    beta >= -(s2/s3) * alpha               (x exponent >= 0)
    beta >= (t/t3) * (alpha - e*u) + e*u2  (y exponent >= 0).

All comparisons are exact: each column of points is obtained by one ceil
and one floor in integer arithmetic.  Those integer column bounds come from
one helper, `_column_bounds`.  The column counts behind the EU criterion,
the point totals, the columns of the finite-difference verdict system and
`DeltaRegion.contains` read them directly, with no point and no Fraction
built, so an inapplicable triple costs O(u) rather than the area of D.
Witness extraction builds the points it keeps from the same bounds, at
most u^2 + 1 (see `symrees.witness._kept_groups`).  The slope-interval
counts behind GK come from one integer helper, `interval_count`.  Nothing
is cached at module level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .presentation import HerzogPresentation


class LatticePoint(NamedTuple):
    alpha: int
    beta: int


@dataclass(frozen=True)
class DeltaRegion:
    """Scaled triangle e*D for one presentation, with exact boundary data."""

    presentation: HerzogPresentation
    e: int

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError("scale e must be >= 1")

    def contains(self, alpha: int, beta: int) -> bool:
        """Is (alpha, beta) an integer point of e*D?  Integer arithmetic only."""
        p, e = self.presentation, self.e
        if alpha < 0 or alpha > e * p.u:
            return False
        b_lo, b_hi = next(_column_bounds(p, e, (alpha,)))
        return b_lo <= beta <= b_hi

    def monomial_exponents(self, point: LatticePoint) -> tuple[int, int, int]:
        """(x, y, z) exponents of y^(e*a) v^alpha w^beta; nonnegative inside."""
        p, e = self.presentation, self.e
        al, be = point
        return (
            al * p.s2 + be * p.s3,
            e * p.a - al * p.t + be * p.t3,
            al * p.u2 - be * p.u,
        )


def _column_bounds(
    p: HerzogPresentation, e: int, alphas: Iterable[int] | None = None
) -> Iterator[tuple[int, int]]:
    """(b_lo, b_hi) for each column alpha of e*D, alpha = 0..e*u in order by default.

    b_lo is the ceiling of the higher of the two lower boundary lines and
    b_hi the floor of the upper one, both in integer arithmetic; the column
    holds the integers b_lo..b_hi, none when b_lo > b_hi.  ``alphas`` picks
    other abscissas; the formula is not limited to 0..e*u.
    """
    if e < 1:
        raise ValueError("scale e must be >= 1")
    s2, s3, t, t3, u, u2 = p.s2, p.s3, p.t, p.t3, p.u, p.u2
    for alpha in range(e * u + 1) if alphas is None else alphas:
        b_hi = (u2 * alpha) // u
        lo1 = -((s2 * alpha) // s3)  # ceil(-s2*alpha/s3)
        num2 = t * (alpha - e * u) + e * u2 * t3
        lo2 = -((-num2) // t3)  # ceil(num2/t3)
        yield max(lo1, lo2), b_hi


def enumerate_points(p: HerzogPresentation, e: int = 1) -> list[LatticePoint]:
    """Integer points of e*D, ordered by (alpha ascending, beta descending).

    The ordering is frozen so that constraint matrices, witnesses and
    regression values are reproducible bit for bit.  (0, 0) is always first.
    """
    points = []
    for alpha, (b_lo, b_hi) in enumerate(_column_bounds(p, e)):
        points.extend(LatticePoint(alpha, beta) for beta in range(b_hi, b_lo - 1, -1))
    return points


def count_points(p: HerzogPresentation, e: int = 1) -> int:
    """Number of integer points of e*D, read from the column bounds."""
    return sum(max(0, b_hi - b_lo + 1) for b_lo, b_hi in _column_bounds(p, e))


def column_counts(p: HerzogPresentation) -> tuple[int, ...]:
    """(l_1, ..., l_u): points of D per column alpha = 1..u (alpha = 0 excluded).

    Each count is max(0, b_hi - b_lo + 1) from the same integer column
    bounds that `enumerate_points` walks, so it costs O(u) whatever the
    area of D: no point is built and nothing is cached.
    """
    bounds = _column_bounds(p, 1)
    next(bounds)  # column alpha = 0 holds only (0, 0)
    return tuple(max(0, b_hi - b_lo + 1) for b_lo, b_hi in bounds)


def interval_count(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> int:
    """Number of integers in [lo_num/lo_den, hi_num/hi_den] (0 if empty).

    Denominators must be positive; one floor and one ceiling by integer
    division, no Fraction built.
    """
    return max(0, hi_num // hi_den + (-lo_num) // lo_den + 1)


def compute_nm(p: HerzogPresentation) -> tuple[int, int]:
    """Integer counts n, m of the slope intervals bounding the triangle.

    n counts [-s2/s3, u2/u] and m counts [u2/u, t/t3]; both are >= 1 since
    the first interval contains 0 and the second contains 1.
    """
    return (
        interval_count(-p.s2, p.s3, p.u2, p.u),
        interval_count(p.u2, p.u, p.t, p.t3),
    )
