"""The EU and GK combinatorial criteria.

EU: sort the column counts l_1..l_u of the triangle ascending; the condition
holds when the i-th smallest count is at least i.  It is sufficient for
finite generation under the classifier hypotheses.

GK: an interval-count condition on the boundary slopes, sufficient for
infinite generation.  It has a two-clause defining form and an equivalent
five-case form (GK1..GK5) valid under the hypotheses; both are always
computed and compared.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .lattice import column_counts, compute_nm, interval_count
from .presentation import HerzogPresentation, InternalConsistencyError


@dataclass(frozen=True)
class EuReport:
    ell: tuple[int, ...]
    ell_sorted: tuple[int, ...]
    holds: bool
    first_failure_index: int | None  # 1-based i with ell_sorted[i-1] < i


def check_eu(p: HerzogPresentation) -> EuReport:
    ell = column_counts(p)
    ell_sorted = tuple(sorted(ell))
    failure = None
    for i, value in enumerate(ell_sorted, start=1):
        if value < i:
            failure = i
            break
    return EuReport(ell, ell_sorted, failure is None, failure)


class GkClause(enum.Enum):
    GK1 = "GK1"  # n = 1
    GK2 = "GK2"  # m = 1
    GK3 = "GK3"  # n = m = 2 < u
    GK4 = "GK4"  # 3 <= n < u, m = 2, right-interval count matches n
    GK5 = "GK5"  # n = 2, 3 <= m < u, left-interval count matches m


@dataclass(frozen=True)
class GkReport:
    n: int
    m: int
    def_I_holds: bool
    def_II_holds: bool
    five_way: GkClause | None

    @property
    def holds(self) -> bool:
        return self.def_I_holds or self.def_II_holds


def _right_count(p: HerzogPresentation, scale: int) -> int:
    # integers in scale * [u2/u, t/t3]
    return interval_count(scale * p.u2, p.u, scale * p.t, p.t3)


def _left_count(p: HerzogPresentation, scale: int) -> int:
    # integers in scale * [-s2/s3, u2/u]
    return interval_count(-scale * p.s2, p.s3, scale * p.u2, p.u)


def _gk_definition(p: HerzogPresentation, n: int, m: int) -> GkReport:
    def_I = _right_count(p, n - 1) == n and (p.u2 * n) % p.u != 0
    def_II = _left_count(p, m - 1) == m and (p.u1 * m) % p.u != 0
    return GkReport(n, m, def_I, def_II, five_way=None)


def _gk_five(p: HerzogPresentation, n: int, m: int) -> GkClause | None:
    if n == 1:
        return GkClause.GK1
    if m == 1:
        return GkClause.GK2
    if n == 2 and m == 2 and p.u > 2:
        return GkClause.GK3
    if 3 <= n < p.u and m == 2 and _right_count(p, n - 1) == n:
        return GkClause.GK4
    if n == 2 and 3 <= m < p.u and _left_count(p, m - 1) == m:
        return GkClause.GK5
    return None


def check_gk(p: HerzogPresentation, *, validated: bool = False) -> GkReport:
    """Evaluate GK in both forms; with validated=True a mismatch is fatal.

    Under the classifier hypotheses the defining form holds iff some five-way
    clause fires; a disagreement there would mean the hypothesis validation
    itself is broken, so it raises instead of returning.  (n, m) is
    computed once and shared by both forms.
    """
    n, m = compute_nm(p)
    report = _gk_definition(p, n, m)
    clause = _gk_five(p, n, m)
    if validated and report.holds != (clause is not None):
        raise InternalConsistencyError(
            f"GK forms disagree on {p.triple}: definition={report.holds}, "
            f"five-way={clause}"
        )
    return GkReport(report.n, report.m, report.def_I_holds, report.def_II_holds, clause)
