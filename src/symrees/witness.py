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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .criteria import EuReport, GkReport, InternalConsistencyError, check_eu, check_gk
from .lattice import DeltaRegion, LatticePoint, count_points, enumerate_points
from .linalg import QMatrix, _echelon
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
    much smaller; all decisions (witness existence, piece dimensions, witness
    extraction) use this form.  All-zero rows are dropped.
    """
    binom_a = _binom_table({al for al, _ in points}, n)
    binom_b = _binom_table({be for _, be in points}, n)
    cols = [(binom_a[al], binom_b[be]) for al, be in points]
    rows = ([ca[k] * cb[l] for ca, cb in cols] for (k, l) in derivative_orders(n))
    return [row for row in rows if any(row)]


def _scaled_system(points, n: int) -> QMatrix:
    """The rows of ``_scaled_rows`` as a QMatrix labelled by the points."""
    return QMatrix(_scaled_rows(points, n), col_labels=list(points))


def piece_dimension(p: HerzogPresentation, e: int, n: int) -> int:
    """dim of the degree-(e*a*b) piece of the n-th symbolic power.

    Computed as (number of lattice points of e*D) minus the rank of the
    derivative system; n = 0 means no constraints.
    """
    if e < 1 or n < 0:
        raise ValueError("need e >= 1 and n >= 0")
    if n == 0:
        return count_points(p, e)
    points = enumerate_points(p, e)
    return len(points) - _scaled_system(points, n).rank()


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

    One elimination decides everything.  The unit vector at (0, 0) is carried
    as the guard row; it reduces to a multiple of e_j - R[r_j] (R the RREF,
    j the (0, 0) column), whose entry at a free column is nonzero exactly
    when that column's canonical kernel basis vector is nonzero at (0, 0).
    So the constant term is forced to 0 iff the reduced guard vanishes, and
    otherwise its first nonzero column gives the canonical witness.
    """
    points = enumerate_points(p, 1)
    j = points.index(LatticePoint(0, 0))
    unit = [0] * len(points)
    unit[j] = 1
    reduced = _echelon(_scaled_rows(points, p.u), len(points), unit)
    fc = next((c for c, x in enumerate(reduced.guard) if x), None)
    if fc is None or not want_witness:
        return len(points), reduced.rank, fc is not None, None
    vec = reduced.kernel_vector(fc)
    coeffs = {pt: Fraction(x, vec[j]) for pt, x in zip(points, vec) if x}
    return len(points), reduced.rank, True, WitnessElement(coefficients=coeffs, e=1, n=p.u)


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
    and the sums run over integers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = [(int(al), int(be), c) for (al, be), c in coefficients.items() if c != 0]
    if not terms:
        return True
    shift_a = max(0, -min(al for al, _, _ in terms))
    shift_b = max(0, -min(be for _, be, _ in terms))
    scale = math.lcm(*(c.denominator for _, _, c in terms))
    terms = [
        (al + shift_a, be + shift_b, c.numerator * (scale // c.denominator))
        for al, be, c in terms
    ]
    comb_b = {be: [math.comb(be, j) for j in range(n)] for _, be, _ in terms}
    for i in range(n):
        weighted = [(c * math.comb(al, i), comb_b[be]) for al, be, c in terms]
        for j in range(n - i):
            if sum(w * row[j] for w, row in weighted) != 0:
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
