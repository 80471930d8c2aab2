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
and one floor in integer arithmetic, in one helper, `_column_bounds`.  One
sweep of it gives the column profile `column_counts`, with no point and no
Fraction built, so an inapplicable triple costs O(u) rather than the area
of D.  It is the only point count: EU, the point totals of a verdict and
of a piece, the verdict system and the points kept for a witness (at most
u^2 + 1, `symrees.witness._kept_groups`) read only it and `column_top`.
`DeltaRegion.contains` tests the three inequalities above, cross-multiplied
by their positive denominators.  GK counts slopes with one integer helper,
`interval_count`.  Nothing is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .presentation import HerzogPresentation


class LatticePoint(NamedTuple):
    alpha: int
    beta: int


@dataclass(frozen=True)
class DeltaRegion:
    """Scaled triangle e*D for one presentation, with exact boundary data.

    The scale e >= 1 is checked once, where points are counted: ``column_counts``.
    """

    presentation: HerzogPresentation
    e: int

    def contains(self, alpha: int, beta: int) -> bool:
        """Is (alpha, beta) an integer point of e*D?  Integer arithmetic only.

        The three defining inequalities, each multiplied by its positive
        slope denominator.  They bound alpha to 0..e*u on their own: the
        vertices of e*D have alpha = 0, e*u and e*a*s3/c, and
        u*c - a*s3 = u*s2*t3 + s3*t3*u2 > 0.
        """
        p, e = self.presentation, self.e
        return (
            p.u * beta <= p.u2 * alpha
            and p.s3 * beta >= -p.s2 * alpha
            and p.t3 * beta >= p.t * (alpha - e * p.u) + e * p.u2 * p.t3
        )

    def monomial_exponents(self, point: LatticePoint) -> tuple[int, int, int]:
        """(x, y, z) exponents of y^(e*a) v^alpha w^beta; nonnegative inside."""
        p, e = self.presentation, self.e
        al, be = point
        return (
            al * p.s2 + be * p.s3,
            e * p.a - al * p.t + be * p.t3,
            al * p.u2 - be * p.u,
        )


def _column_bounds(p: HerzogPresentation, e: int) -> Iterator[tuple[int, int]]:
    """(b_lo, b_hi) for each column alpha = 0..e*u of e*D, in order.

    b_lo is the ceiling of the higher of the two lower boundary lines and
    b_hi the floor of the upper one, both in integer arithmetic; the column
    holds the integers b_lo..b_hi, none when b_lo > b_hi.
    """
    if e < 1:
        raise ValueError("scale e must be >= 1")
    s2, s3, t, t3, u, u2 = p.s2, p.s3, p.t, p.t3, p.u, p.u2
    for alpha in range(e * u + 1):
        b_hi = (u2 * alpha) // u
        lo1 = -((s2 * alpha) // s3)  # ceil(-s2*alpha/s3)
        num2 = t * (alpha - e * u) + e * u2 * t3
        lo2 = -((-num2) // t3)  # ceil(num2/t3)
        yield max(lo1, lo2), b_hi


def column_top(p: HerzogPresentation, alpha: int) -> int:
    """b_hi of column alpha at every scale e: a column of l points holds b_hi - l + 1..b_hi."""
    return (p.u2 * alpha) // p.u


def column_counts(p: HerzogPresentation, e: int = 1) -> tuple[int, ...]:
    """(l_1, ..., l_(e*u)): points of e*D per column alpha = 1..e*u (alpha = 0 excluded).

    Each count is max(0, b_hi - b_lo + 1) from the integer column bounds,
    so it costs O(e*u) whatever the area of e*D: no point is built and
    nothing is cached.  The points of e*D number 1 + sum(column_counts(p, e)).
    """
    bounds = _column_bounds(p, e)
    next(bounds)  # column alpha = 0 holds only (0, 0)
    return tuple(max(0, b_hi - b_lo + 1) for b_lo, b_hi in bounds)


def interval_count(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> int:
    """Number of integers in [lo_num/lo_den, hi_num/hi_den] (0 if empty).

    Denominators must be positive; one floor and one ceiling by integer
    division, no Fraction built.
    """
    return max(0, hi_num // hi_den + (-lo_num) // lo_den + 1)


def _left_count(p: HerzogPresentation, scale: int) -> int:
    # integers in scale * [-s2/s3, u2/u]
    return interval_count(-scale * p.s2, p.s3, scale * p.u2, p.u)


def _right_count(p: HerzogPresentation, scale: int) -> int:
    # integers in scale * [u2/u, t/t3]
    return interval_count(scale * p.u2, p.u, scale * p.t, p.t3)


def compute_nm(p: HerzogPresentation) -> tuple[int, int]:
    """Integer counts n, m of the slope intervals bounding the triangle.

    n counts [-s2/s3, u2/u] and m counts [u2/u, t/t3]; both are >= 1 since
    the first interval contains 0 and the second contains 1.
    """
    return _left_count(p, 1), _right_count(p, 1)
