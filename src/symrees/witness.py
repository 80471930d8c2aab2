"""Degree-ab witness test and the top-level classification verdict.

In characteristic 0 a Laurent polynomial phi(v, w) lies in the ideal
(v-1, w-1)^n exactly when all partials of total order below n vanish at
(1, 1).  On the span of the triangle's lattice points this is a linear
system with one row per derivative order (k, l), k + l < n, and entries
ff(alpha, k) * ff(beta, l) (falling factorials).  The graded piece of the
n-th symbolic power in degree e*a*b is its kernel.  For each l, the rows
of order l in w span, as functions of alpha, the polynomials of degree
< n-l times C(beta, l); the package eliminates them in the integer Lagrange
basis at the nodes alpha = 0..n-l-1 (``_system_rows``), a unimodular change
of basis from C(alpha, k) that keeps the row space, the rank, the kernel and
the reduced row echelon form, and makes each row zero on the node columns
but one.

The classification question reduces to: does the kernel of the (e=1, n=u)
system contain a vector with nonzero coordinate at (0, 0)?  Equivalently,
the unit vector at (0, 0) must not lie in the row space of the system.
When such a witness exists the ring is finitely generated; otherwise not
(always under the validated hypotheses).

The verdict, the rank and the piece dimensions are decided in an equivalent
finite-difference column basis built from the column bounds alone.  Each
column group alpha >= 1 with at least n points spans every jet modulo
(w-1)^n; it is taken out before that system is built and lowers its order
by one, which keeps the constant-term test and accounts for a known share
of the rank (see ``_fd_columns``).  On the rank-deep benchmark pool this
takes a pass from 47,970 to 14,654 rows, from 66,469 to 17,533 columns and
from 1,530,190 to 276,906 nonzeros.  A witness request is decided in the
same basis first, unless EU holds; only when a witness exists does
extraction build lattice points, because the canonical witness is defined
by the reduced row echelon form in point order.  It keeps the first
min(l_alpha, u) points of each column, at most u^2 + 1 in all, which gives
the same rank, existence and witness as every point of the triangle (see
``_witness_test``).  Both column sets go through the one row builder.  The
re-checks of an emitted witness, membership in the triangle and
``shift_membership_test``, run in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter

from .criteria import EuReport, GkReport, check_eu, check_gk
from .lattice import DeltaRegion, LatticePoint, _column_bounds, count_points, enumerate_points
from .linalg import _echelon
from .presentation import (
    AssumptionReport,
    CurveTriple,
    HerzogPresentation,
    InternalConsistencyError,
    NotCoprimeError,
    NotThreeGeneratedError,
    compute_presentation,
    validate_assumptions,
)


class AssumptionViolationError(RuntimeError):
    """Witness test requested outside the validated hypotheses."""


class NoWitnessError(RuntimeError):
    """Witness extraction requested although none exists."""


def _binom_table(values: set[int], n: int) -> dict[int, list[int]]:
    # binomials C(v, 0..n-1) for arbitrary integer v: ff(v, k) / k!
    table = {}
    for v in values:
        row = [1]
        for k in range(1, n):
            row.append(row[-1] * (v - k + 1) // k)
        table[v] = row
    return table


def _lagrange_values(n: int, alphas) -> dict[int, list[list[int]]]:
    """{alpha: [L^(m)(alpha) for m = 0..min(alpha, n)]}: Lagrange values beyond the nodes.

    L^(m)(alpha) = [L_i^(m)(alpha) for i < m], with L_i^(m) the integer
    Lagrange basis at the nodes 0..m-1; alpha lies beyond the nodes exactly
    when m <= alpha.  One table per system, from the Newton form: the
    interpolant at m nodes adds C(alpha, m-1) times the (m-1)-th forward
    difference at 0 to the one at m-1 nodes, so for i < m-1

        L_i^(m-1)(alpha) = L_i^(m)(alpha) - C(alpha, m-1) * C(m-1, i) * (-1)^(m-1-i).

    The recurrence starts from the unit vector at m = alpha+1, where alpha
    is the last node, or, when alpha >= n, from the closed form at m = n:
    (-1)^(n-1-i) * C(alpha, i) * C(alpha-i-1, n-1-i), which is
    C(alpha, n) * w_i / (alpha - i) with w_i = (-1)^(n-1-i) * n * C(n-1, i),
    an exact division.
    """
    # step[m]: (-1)^(m-1-i) * C(m-1, i) for i < m-1
    step = [[math.comb(m - 1, i) * (-1) ** (m - 1 - i) for i in range(m - 1)] for m in range(n + 1)]
    weights = [n * math.comb(n - 1, i) * (-1) ** (n - 1 - i) for i in range(n)]
    values = {}
    for alpha in alphas:
        if alpha >= n:
            m, top = n, math.comb(alpha, n)
            vals = [top * w // (alpha - i) for i, w in enumerate(weights)]
            c = top * n // (alpha - n + 1)
            table = [vals]
        else:
            m, c = alpha + 1, 1
            vals = [0] * alpha + [1]
            table = []
        while m > 1:  # vals = L^(m)(alpha), c = C(alpha, m-1)
            vals = [x - c * w for x, w in zip(vals, step[m])]
            m -= 1
            c = c * m // (alpha - m + 1)
            table.append(vals)
        table.append([])
        table.reverse()
        values[alpha] = table
    return values


def _system_rows(cols: list[tuple[int, list[int]]], n: int) -> list[list[int]]:
    """Nonzero rows of the order-n derivative system in the interpolating row basis.

    A column is (alpha, f), alpha >= 0: f[l] is its beta factor in the rows
    of order l in w, C(beta, l) for a point (alpha, beta).  Row (i, l), i + l < n, has
    entry L_i^(n-l)(alpha) * f[l], for L_i^(m) the Lagrange basis at the
    nodes 0..m-1 (``_lagrange_values``).  The rows C(alpha, k) * f[l],
    k < n-l, of the binomial-scaled system (the order-(k, l) derivative at
    (1, 1) divided by k! l!) span the same space: both sets are integer
    bases of the polynomials of degree < n-l in alpha, related by a
    unimodular change of basis.  So the rank, the row-space membership and
    the reduced row echelon form, and with them the verdict and the
    canonical witness, are those of the derivative system.

    Only nonzero entries are written, straight into the rows, which start
    as zeros.  Row (i, l) is zero on the node columns alpha < n-l except
    alpha = i, where it holds f[l], and nonzero beyond the nodes wherever
    f[l] is; the nonzero counts are tallied as the entries are written.
    All-zero rows are dropped, and the rows are sorted by nonzero count,
    sparsest first (stable), which keeps the elimination short.
    """
    ncols = len(cols)
    lagrange = _lagrange_values(n, {alpha for alpha, _ in cols})
    blocks = [[[0] * ncols for _ in range(n - l)] for l in range(n)]  # blocks[l][i]: row (i, l)
    at_node = [[0] * (n - l) for l in range(n)]  # entries of row (i, l) on the nodes
    beyond = [0] * n  # entries of each row of order l beyond the nodes
    for c, (alpha, f) in enumerate(cols):
        for l in compress(range(n), f):
            v = f[l]
            if alpha < n - l:
                blocks[l][alpha][c] = v
                at_node[l][alpha] += 1
            else:
                for row, x in zip(blocks[l], lagrange[alpha][n - l]):
                    row[c] = x * v
                beyond[l] += 1
    rows = [
        (count + far, row)
        for block, counts, far in zip(blocks, at_node, beyond)
        for count, row in zip(counts, block)
        if count + far
    ]
    rows.sort(key=itemgetter(0))
    return [row for _, row in rows]


def _point_columns(points: list[LatticePoint], n: int) -> list[tuple[int, list[int]]]:
    """The (alpha, beta factor) columns of the order-n point system: f[l] = C(beta, l)."""
    binom_b = _binom_table({be for _, be in points}, n)
    return [(al, binom_b[be]) for al, be in points]


def _fd_columns(p: HerzogPresentation, e: int, n: int) -> tuple[list[tuple[int, list[int]]], int]:
    """(columns, m) of the (e, n) system in the finite-difference basis, full groups taken out.

    Column alpha of e*D holds the points (alpha, b_lo..b_hi), l_alpha of
    them; their monomials w^beta span the same space as w^b_lo (w-1)^j,
    j < l_alpha, by a unimodular triangular change of basis, so the rank is
    that of the point system.  Under v = 1+s, w = 1+r the column (alpha, j)
    has beta factor C(b_lo, l-j) in the rows of order l in w, zero when
    l < j; columns with j >= n are zero and left out.  Column alpha = 0 is
    the single point (0, 0), so the unit vector there is the same in both
    bases.

    A group gamma >= 1 with l_gamma >= n is full: it spans every jet
    (1+s)^gamma * K[r]/r^n.  Modulo one full group the system is the same
    system one order lower:

    * A row of order l is P(alpha) * f[l] with deg P < n - l.
    * It vanishes on the span of gamma iff P = (x - gamma) * Q with
      deg Q < (n - 1) - l.
    * So the rows that vanish on gamma form the order-(n - 1) system, with
      every other column scaled by alpha - gamma != 0.
    * So the rank drops by exactly n, and the guard, the unit at (0, 0),
      which is zero on gamma and whose column is scaled by 0 - gamma != 0,
      keeps its verdict.
    * The other full groups are still full at order n - 1, so all f of
      them come out one at a time.

    So with f full groups the rank is sum_(k < min(f, n)) (n - k) plus the
    rank of the order-m system, m = max(0, n - f), on the short groups
    alone, and the constant term is forced exactly when it is forced there.
    Its columns are (0, 0), then j descending, alpha ascending, for
    j < min(l_alpha, m), which keeps the elimination short; none when
    m = 0, where no row is left.
    """
    bounds = [
        (alpha, b_lo, b_hi - b_lo + 1) for alpha, (b_lo, b_hi) in enumerate(_column_bounds(p, e))
    ]
    short = [(al, b_lo, length) for al, b_lo, length in bounds[1:] if 0 < length < n]
    m = max(0, n - sum(1 for _, _, length in bounds[1:] if length >= n))
    if not m:
        return [], 0
    binom_b = _binom_table({0} | {b_lo for _, b_lo, _ in short}, m)
    cols = [(0, binom_b[0])]  # (0, 0): 1 in the rows of order 0 in w
    for j in range(min(max((length for _, _, length in short), default=0), m) - 1, -1, -1):
        cols += [(al, [0] * j + binom_b[b_lo][:m - j]) for al, b_lo, length in short if j < length]
    return cols, m


def _fd_decision(p: HerzogPresentation, e: int, n: int) -> tuple[int, bool]:
    """(rank, constant term forced) for the (e, n) system, in one elimination.

    The full groups are taken out by lowering the order to m (see
    ``_fd_columns``), which accounts for n(n+1)/2 - m(m+1)/2 of the rank.
    The guard is the unit at new column 0, which is (0, 0); the constant
    term is forced iff it reduces to zero.
    """
    cols, m = _fd_columns(p, e, n)
    peeled = (n * (n + 1) - m * (m + 1)) // 2
    if not m:
        return peeled, False
    reduced = _echelon(_system_rows(cols, m), len(cols), [1] + [0] * (len(cols) - 1))
    return peeled + reduced.rank, not any(reduced.guard)


def piece_dimension(p: HerzogPresentation, e: int, n: int) -> int:
    """dim of the degree-(e*a*b) piece of the n-th symbolic power.

    Computed as (number of lattice points of e*D) minus the rank of the
    derivative system, taken in the finite-difference basis; n = 0 means no
    constraints.  With k nonempty columns, the longest of length L, the
    piece is 0 once n >= k + L - 1, and no system is built: for each point,
    the product of (alpha - alpha') over the other columns and
    (beta - beta') over the other points of its column has degree
    <= k + L - 2 < n and vanishes at every point but that one, so the rows,
    which span the polynomials of degree < n evaluated at the points, have
    full rank.
    """
    if e < 1 or n < 0:
        raise ValueError("need e >= 1 and n >= 0")
    lengths = [b_hi - b_lo + 1 for b_lo, b_hi in _column_bounds(p, e) if b_hi >= b_lo]
    if n >= len(lengths) + max(lengths) - 1:
        return 0
    points = sum(lengths)
    return points - _fd_decision(p, e, n)[0] if n else points


def _applicable_verdict(p: HerzogPresentation, want_witness: bool) -> Verdict:
    verdict = _verdict(p, want_witness)
    if verdict.noetherian is INAPPLICABLE:
        raise AssumptionViolationError(f"hypotheses fail for {p.triple}: {verdict.reason}")
    return verdict


def huneke_witness_exists(p: HerzogPresentation) -> bool:
    """Does some element of the (e=1, n=u) kernel have nonzero (0,0) term?

    Decided as ``classify`` decides it, from ``p``, with its hypothesis gate
    and cross-checks.
    """
    return _applicable_verdict(p, want_witness=False).witness_exists


@dataclass(frozen=True)
class WitnessElement:
    """Kernel vector normalized to constant coefficient 1.

    Stands for the homogeneous element y^(e*a) * sum C_(alpha,beta)
    v^alpha w^beta of the (n-th symbolic power, degree e*a*b) piece.
    """

    coefficients: dict[LatticePoint, Fraction]
    e: int
    n: int

    def monomials(self, p: HerzogPresentation) -> list[tuple[int, int, int, Fraction]]:
        """Expansion as (x_exp, y_exp, z_exp, coefficient) terms."""
        region = DeltaRegion(p, self.e)
        out = []
        for pt, coeff in sorted(self.coefficients.items()):
            ex, ey, ez = region.monomial_exponents(pt)
            out.append((ex, ey, ez, coeff))
        return out


def _witness_test(p: HerzogPresentation, want_witness: bool, decide_first: bool):
    """(point count, rank, witness exists, witness or None) for the (e=1, n=u) system.

    The finite-difference elimination of ``_fd_decision`` decides whether a
    witness exists.  The point system is eliminated only for a witness that
    is wanted: after that decision has found one with ``decide_first``, at
    once without it (EU forces a witness).  Its one elimination gives the rest:
    the guard, the unit vector at (0, 0), reduces to a multiple of e_j - R[r_j]
    (R the RREF, j the (0, 0) column), whose entry at a free column is
    nonzero exactly when that column's canonical kernel basis vector is
    nonzero at (0, 0).  So the constant term is forced to 0 iff the reduced
    guard vanishes, and otherwise its first nonzero column fc gives the
    canonical witness.

    The point system is built on the column prefixes only: column alpha
    contributes its first min(l_alpha, u) points in point order, at most
    u^2 + 1 columns in all whatever the triangle's area.  Rank, witness
    existence and the witness are those of the full point system:

    * For fixed alpha, the entry L_i^(u-l)(alpha) * C(beta, l) of every row
      is a polynomial in beta of degree l < u.  The prefix holds u consecutive
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
    n_points = count_points(p, 1)
    if decide_first or not want_witness:
        rank, forced = _fd_decision(p, 1, p.u)
        if forced or not want_witness:
            return n_points, rank, not forced, None
    points = enumerate_points(p, 1, p.u)
    j = points.index(LatticePoint(0, 0))
    unit = [0] * len(points)
    unit[j] = 1
    reduced = _echelon(_system_rows(_point_columns(points, p.u), p.u), len(points), unit)
    fc = next((c for c, x in enumerate(reduced.guard) if x), None)
    if fc is None:
        return n_points, reduced.rank, False, None
    vec = reduced.kernel_vector(fc)
    coeffs = {pt: Fraction(x, vec[j]) for pt, x in zip(points, vec) if x}
    return n_points, reduced.rank, True, WitnessElement(coefficients=coeffs, e=1, n=p.u)


def extract_witness(p: HerzogPresentation) -> WitnessElement:
    """Deterministic witness with coefficient 1 at (0, 0).

    Takes the first kernel basis vector (in the frozen free-column order)
    with nonzero constant coordinate and rescales it.  Decided as
    ``classify`` decides it, from ``p``, so a triple without a witness is
    refused without building the point system.
    """
    witness = _applicable_verdict(p, want_witness=True).witness
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
    GK forbids one, and for u <= 6 exactly one of EU and GK holds) and
    raises InternalConsistencyError if they ever fail.
    """
    try:
        pres = compute_presentation(triple)
    except NotCoprimeError:
        report = AssumptionReport(False, False, False)
        return _inapplicable(triple, report, "weights are not pairwise coprime")
    except NotThreeGeneratedError:  # raised only after the coprimality test
        report = AssumptionReport(True, False, False)
        return _inapplicable(
            triple, report, "curve ideal is not minimally generated by three binomials"
        )
    return _verdict(pres, want_witness)


def _verdict(pres: HerzogPresentation, want_witness: bool) -> Verdict:
    """``classify`` from the presentation on: hypotheses, EU, GK, witness test."""
    triple = pres.triple
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

    # GK forbids a witness and EU forces one; the cross-checks below still
    # run on whichever system decided
    n_points, rank, exists, witness = _witness_test(pres, want_witness and not gk.holds, not eu.holds)
    if eu.holds and not exists:
        raise InternalConsistencyError(f"EU holds but no witness on {triple}")
    if gk.holds and exists:
        raise InternalConsistencyError(f"GK holds but witness found on {triple}")
    # so EU and GK exclude each other; for u <= 6 one of them holds, which
    # makes the verdict the EU verdict
    if pres.u <= 6 and not (eu.holds or gk.holds):
        raise InternalConsistencyError(f"u <= 6 but neither EU nor GK holds on {triple}")
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
