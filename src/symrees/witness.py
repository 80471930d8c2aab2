"""Degree-ab witness test and the top-level classification verdict.

In characteristic 0 a Laurent polynomial phi(v, w) lies in the ideal
(v-1, w-1)^n exactly when all partials of total order below n vanish at
(1, 1).  On the span of the triangle's lattice points this is a linear
system with one row per derivative order (k, l), k + l < n, and entries
ff(alpha, k) * ff(beta, l) (falling factorials).  The graded piece of the
n-th symbolic power in degree e*a*b is its kernel.  The package builds it
with each (k, l) row divided by k! l!, which changes neither the kernel nor
the row space.

The classification question reduces to: does the kernel of the (e=1, n=u)
system contain a vector with nonzero coordinate at (0, 0)?  Equivalently,
the unit vector at (0, 0) must not lie in the row space of the system.
When such a witness exists the ring is finitely generated; otherwise not
(always under the validated hypotheses).

The verdict, the rank and the piece dimensions are decided in an equivalent
finite-difference column basis built from the column bounds alone.  Only
witness extraction builds lattice points, because the canonical witness is
defined by the reduced row echelon form in point order; it keeps the first
min(l_alpha, u) points of each column, at most u^2 + 1 in all, which gives
the same rank, existence and witness as every point of the triangle (see
``_witness_test``).  The re-checks of an emitted witness, membership in the
triangle and ``shift_membership_test``, run in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .criteria import EuReport, GkReport, InternalConsistencyError, check_eu, check_gk
from .lattice import DeltaRegion, LatticePoint, _column_bounds, count_points, enumerate_points
from .linalg import _echelon
from .presentation import (
    AssumptionReport,
    CurveTriple,
    HerzogPresentation,
    NotCoprimeError,
    NotThreeGeneratedError,
    compute_presentation,
    validate_assumptions,
)


class AssumptionViolationError(RuntimeError):
    """Witness test requested outside the validated hypotheses."""


class NoWitnessError(RuntimeError):
    """Witness extraction requested although none exists."""


def derivative_orders(n: int) -> list[tuple[int, int]]:
    """(k, l) with k + l < n, ordered by total order then l ascending.

    Frozen ordering: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...
    """
    return [(total - l, l) for total in range(n) for l in range(total + 1)]


def _binom_table(values: set[int], n: int) -> dict[int, list[int]]:
    # binomials C(v, 0..n-1) for arbitrary integer v: ff(v, k) / k!
    table = {}
    for v in values:
        row = [1]
        for k in range(1, n):
            row.append(row[-1] * (v - k + 1) // k)
        table[v] = row
    return table


def _scaled_rows(points, n: int) -> list[list[int]]:
    """Nonzero rows of the row-rescaled constraint system, as fresh int lists.

    Entry C(alpha, k) * C(beta, l): dividing the (k, l) row by k! l! leaves
    rank, kernel and row space unchanged but keeps the elimination entries
    much smaller.  Witness extraction uses this form.  All-zero rows are
    dropped.
    """
    binom_a = _binom_table({al for al, _ in points}, n)
    binom_b = _binom_table({be for _, be in points}, n)
    cols = [(binom_a[al], binom_b[be]) for al, be in points]
    rows = ([ca[k] * cb[l] for ca, cb in cols] for (k, l) in derivative_orders(n))
    return [row for row in rows if any(row)]


def _fd_rows(p: HerzogPresentation, e: int, n: int) -> tuple[list[list[int]], int]:
    """Nonzero rows and column count of the (e, n) system in the finite-difference basis.

    Column alpha of e*D holds the points (alpha, b_lo..b_hi), l_alpha of
    them; their monomials w^beta span the same space as w^b_lo (w-1)^j,
    j < l_alpha, by a unimodular triangular change of basis, so the rank is
    that of the point system.  Under v = 1+s, w = 1+r the column (alpha, j)
    has entry C(alpha, k) * C(b_lo, l-j) in row (k, l), zero when l < j;
    columns with j >= n are zero and left out.  Column alpha = 0 is the
    single point (0, 0), so the unit vector there is the same in both bases.
    Column order: (0, 0), then j descending, alpha ascending, which keeps the
    elimination short; row (k, l) is zero on the leading columns with j > l.
    """
    groups = [
        (alpha, b_lo, min(b_hi - b_lo + 1, n))
        for alpha, (b_lo, b_hi) in enumerate(_column_bounds(p, e))
        if b_hi >= b_lo
    ]
    binom_a = _binom_table({al for al, _, _ in groups}, n)
    binom_b = _binom_table({b_lo for _, b_lo, _ in groups}, n)
    cols = []  # the columns after (0, 0)
    skip = [0] * n  # skip[l]: leading columns with j > l
    for j in range(max(width for _, _, width in groups) - 1, -1, -1):
        skip[j] = len(cols)
        cols += [
            (binom_a[al], [0] * j + binom_b[b_lo][:n - j])
            for al, b_lo, width in groups
            if al and j < width
        ]
    # column (0, 0) holds C(0, k) * C(0, l): 1 in row (0, 0) only
    rows = (
        [int(k == l == 0)] + [0] * skip[l] + [ca[k] * cb[l] for ca, cb in cols[skip[l]:]]
        for k, l in derivative_orders(n)
    )
    return [row for row in rows if any(row)], 1 + len(cols)


def _fd_decision(p: HerzogPresentation, e: int, n: int) -> tuple[int, bool]:
    """(rank, constant term forced) for the (e, n) system, in one elimination.

    The guard is the unit at new column 0, which is (0, 0); the constant term
    is forced iff it reduces to zero.
    """
    rows, ncols = _fd_rows(p, e, n)
    reduced = _echelon(rows, ncols, [1] + [0] * (ncols - 1))
    return reduced.rank, not any(reduced.guard)


def piece_dimension(p: HerzogPresentation, e: int, n: int) -> int:
    """dim of the degree-(e*a*b) piece of the n-th symbolic power.

    Computed as (number of lattice points of e*D) minus the rank of the
    derivative system, taken in the finite-difference basis; n = 0 means no
    constraints.
    """
    if e < 1 or n < 0:
        raise ValueError("need e >= 1 and n >= 0")
    points = count_points(p, e)
    return points - _fd_decision(p, e, n)[0] if n else points


def _require_assumptions(p: HerzogPresentation) -> AssumptionReport:
    report = validate_assumptions(p)
    if not report.all_hold:
        raise AssumptionViolationError(
            f"hypotheses fail for {p.triple}: coprime={report.pairwise_coprime}, "
            f"negative_curve={report.negative_curve_iii}"
        )
    return report


def huneke_witness_exists(p: HerzogPresentation) -> bool:
    """Does some element of the (e=1, n=u) kernel have nonzero (0,0) term?"""
    _require_assumptions(p)
    return _witness_test(p, want_witness=False)[2]


@dataclass(frozen=True)
class WitnessElement:
    """Kernel vector normalized to constant coefficient 1.

    Stands for the homogeneous element y^(e*a) * sum C_(alpha,beta)
    v^alpha w^beta of the (n-th symbolic power, degree e*a*b) piece.
    """

    coefficients: dict[LatticePoint, Fraction]
    e: int
    n: int

    def integerized(self) -> dict[LatticePoint, int]:
        """Same vector scaled by the lcm of denominators."""
        scale = math.lcm(*(c.denominator for c in self.coefficients.values()))
        return {pt: int(c * scale) for pt, c in self.coefficients.items()}

    def monomials(self, p: HerzogPresentation) -> list[tuple[int, int, int, Fraction]]:
        """Expansion as (x_exp, y_exp, z_exp, coefficient) terms."""
        region = DeltaRegion(p, self.e)
        out = []
        for pt, coeff in sorted(self.coefficients.items()):
            ex, ey, ez = region.monomial_exponents(pt)
            out.append((ex, ey, ez, coeff))
        return out


def _witness_test(p: HerzogPresentation, want_witness: bool):
    """(point count, rank, witness exists, witness or None) for the (e=1, n=u) system.

    One elimination decides everything: the finite-difference one of
    ``_fd_decision`` without a witness wanted, else the point system's.  Its
    guard, the unit vector at (0, 0), reduces to a multiple of e_j - R[r_j]
    (R the RREF, j the (0, 0) column), whose entry at a free column is
    nonzero exactly when that column's canonical kernel basis vector is
    nonzero at (0, 0).  So the constant term is forced to 0 iff the reduced
    guard vanishes, and otherwise its first nonzero column fc gives the
    canonical witness.

    The point system is built on the column prefixes only: column alpha
    contributes its first min(l_alpha, u) points in point order, at most
    u^2 + 1 columns in all whatever the triangle's area.  Rank, witness
    existence and the witness are those of the full point system:

    * For fixed alpha, the entry C(alpha, k) * C(beta, l) of every row is a
      polynomial in beta of degree l < u.  The prefix holds u consecutive
      betas, so by Newton interpolation every later point of the column is
      an integer combination of the prefix columns: a free column.
    * A column that is a combination of earlier columns is zero below the
      current rank when elimination reaches it, so Bareiss finds no pivot
      there and moves on.  Deleting such columns changes no step: pivots,
      rank and the echelon rows at the kept columns stay the same.
    * The reduced guard is a multiple of the unit (zero off alpha = 0) plus
      a combination of the rows, so on each column alpha >= 1 it is again a
      polynomial of degree < u in beta (up to a rescaling that keeps its
      zero pattern).  Point order reaches a column's later points only
      after its first u.  If fc is not among those, the guard is zero there
      at that moment: zero at each pivot by construction, and zero at each
      free column, or that column would be fc.  Vanishing at u points, it
      vanishes on the whole column, and the later pivot rows, zero before
      their pivot column, leave it so.
    * Hence fc lies in a prefix, and the witness, supported on the pivots
      and fc, is the ``kernel_vector(fc)`` of the full system.
    """
    if not want_witness:
        rank, forced = _fd_decision(p, 1, p.u)
        return count_points(p, 1), rank, not forced, None
    n_points = count_points(p, 1)
    points = enumerate_points(p, 1, p.u)
    j = points.index(LatticePoint(0, 0))
    unit = [0] * len(points)
    unit[j] = 1
    reduced = _echelon(_scaled_rows(points, p.u), len(points), unit)
    fc = next((c for c, x in enumerate(reduced.guard) if x), None)
    if fc is None:
        return n_points, reduced.rank, False, None
    vec = reduced.kernel_vector(fc)
    coeffs = {pt: Fraction(x, vec[j]) for pt, x in zip(points, vec) if x}
    return n_points, reduced.rank, True, WitnessElement(coefficients=coeffs, e=1, n=p.u)


def extract_witness(p: HerzogPresentation) -> WitnessElement:
    """Deterministic witness with coefficient 1 at (0, 0).

    Takes the first kernel basis vector (in the frozen free-column order)
    with nonzero constant coordinate and rescales it.
    """
    _require_assumptions(p)
    witness = _witness_test(p, want_witness=True)[3]
    if witness is None:
        raise NoWitnessError(f"kernel of the witness system for {p.triple} forces the constant term")
    return witness


def shift_membership_test(coefficients: dict, n: int) -> bool:
    """Independent oracle for membership of phi in (v-1, w-1)^n.

    Multiplying by the units v, w does not change membership, so the support
    is first shifted to nonnegative exponents; then v -> 1+s, w -> 1+r is
    expanded by exact binomials and membership holds iff every coefficient
    of total degree below n vanishes.  A nonzero scalar does not change
    membership either, so the coefficients are cleared of denominators once
    and the sums run over integers.  The coefficient of s^i r^j is
    sum_alpha C(alpha, i) * A_alpha[j], where A_alpha[j] sums c * C(beta, j)
    over the terms of abscissa alpha; the A_alpha are summed first.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = [(int(al), int(be), c) for (al, be), c in coefficients.items() if c != 0]
    if not terms:
        return True
    shift_a = max(0, -min(al for al, _, _ in terms))
    shift_b = max(0, -min(be for _, be, _ in terms))
    scale = math.lcm(*(c.denominator for _, _, c in terms))
    column_sums: dict[int, list[int]] = {}
    for al, be, c in terms:
        weight = c.numerator * (scale // c.denominator)
        term = [weight * math.comb(be + shift_b, j) for j in range(n)]
        acc = column_sums.get(al + shift_a)
        column_sums[al + shift_a] = term if acc is None else [x + y for x, y in zip(acc, term)]
    for i in range(n):
        weighted = [(math.comb(al, i), acc) for al, acc in column_sums.items()]
        for j in range(n - i):
            if sum(w * acc[j] for w, acc in weighted) != 0:
                return False
    return True


INAPPLICABLE = None  # verdict value when the hypotheses do not hold


@dataclass(frozen=True)
class Verdict:
    """Complete classification record for one triple.

    ``noetherian`` is True/False exactly when all hypotheses hold, in which
    case it equals ``witness_exists``; otherwise it is None (inapplicable)
    and ``reason`` says why.
    """

    triple: CurveTriple
    presentation: HerzogPresentation | None
    assumptions: AssumptionReport
    eu: EuReport | None
    gk: GkReport | None
    witness_exists: bool | None
    noetherian: bool | None
    reason: str | None
    points: int | None = None
    dim_piece_u: int | None = None
    witness: WitnessElement | None = None


def _inapplicable(triple, assumptions, reason, presentation=None, eu=None, gk=None):
    return Verdict(
        triple=triple,
        presentation=presentation,
        assumptions=assumptions,
        eu=eu,
        gk=gk,
        witness_exists=None,
        noetherian=INAPPLICABLE,
        reason=reason,
    )


def classify(triple: CurveTriple, *, want_witness: bool = False) -> Verdict:
    """Full pipeline: presentation, hypotheses, EU, GK, witness test.

    Cross-checks the proved implications on the way (EU forces a witness,
    GK forbids one) and raises InternalConsistencyError if they ever fail.
    """
    coprime = triple.pairwise_coprime()
    try:
        pres = compute_presentation(triple)
    except NotCoprimeError:
        report = AssumptionReport(False, False, False)
        return _inapplicable(triple, report, "weights are not pairwise coprime")
    except NotThreeGeneratedError:
        report = AssumptionReport(coprime, False, False)
        return _inapplicable(
            triple, report, "curve ideal is not minimally generated by three binomials"
        )

    assumptions = validate_assumptions(pres)
    eu = check_eu(pres)
    gk = check_gk(pres, validated=assumptions.all_hold)
    if not assumptions.all_hold:
        return _inapplicable(
            triple,
            assumptions,
            "u^2*c < a*b fails: the candidate generator is not a negative curve",
            presentation=pres,
            eu=eu,
            gk=gk,
        )

    n_points, rank, exists, witness = _witness_test(pres, want_witness)
    if eu.holds and not exists:
        raise InternalConsistencyError(f"EU holds but no witness on {triple}")
    if gk.holds and exists:
        raise InternalConsistencyError(f"GK holds but witness found on {triple}")
    return Verdict(
        triple=triple,
        presentation=pres,
        assumptions=assumptions,
        eu=eu,
        gk=gk,
        witness_exists=exists,
        noetherian=exists,
        reason=None,
        points=n_points,
        dim_piece_u=n_points - rank,
        witness=witness,
    )
