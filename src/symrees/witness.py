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
the (0, 0) column must lie in the span of the other columns, so with that
column last the constant term is forced exactly when it is a pivot.  When
such a witness exists the ring is finitely generated; otherwise not
(always under the validated hypotheses).

The verdict, the rank and the piece dimensions are decided in an equivalent
finite-difference column basis built from the column profile alone
(``lattice.column_counts``, which a verdict reads from its EU report).  Each
column group alpha >= 1 with at least n points spans every jet modulo
(w-1)^n; it is taken out before that system is built and lowers its order
by one, which keeps the constant-term test and accounts for a known share
of the rank (see ``_fd_columns``).

The canonical witness is defined by the reduced row echelon form in point
order.  Extraction keeps the first min(l_alpha, m_alpha) points of each
column, m_alpha the order left after the same lowering takes the full
groups out of the columns before alpha; that gives the rank, existence and
witness of every point of the triangle (``_kept_groups``).  When the kept
counts are u, u-1, ..., 1, which held on every Noetherian triple with
weights up to 40 and on both benchmark pools, the kernel is one line and
the witness is back-substituted through the lowering in integers, with no
row built and no elimination (``_back_substituted``).  Otherwise a witness
request is decided in the finite-difference basis first, and the kept
points are eliminated only when a witness exists (``_kept_elimination``),
through the one row builder.  The re-checks of an emitted witness,
membership in the triangle, ``shift_membership_test`` and the curve test
``polynomials.curve_substitution_zero``, run in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter, mul

from .criteria import EuReport, GkReport, check_eu, check_gk
from .lattice import DeltaRegion, LatticePoint, column_counts, column_top
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
    when m <= alpha.  Each value has the closed form

        L_i^(m)(alpha) = (-1)^(m-1-i) * C(alpha, i) * C(alpha-i-1, m-1-i)
                       = C(alpha, m) * w_i / (alpha - i),
        w_i = (-1)^(m-1-i) * m * C(m-1, i),

    an exact division (alpha - i >= 1 beyond the nodes).
    """
    weights = [[(-1) ** (m - 1 - i) * m * math.comb(m - 1, i) for i in range(m)] for m in range(n + 1)]
    values = {}
    for alpha in alphas:
        table = []
        for m in range(min(alpha, n) + 1):
            top = math.comb(alpha, m)
            table.append([top * w // (alpha - i) for i, w in enumerate(weights[m])])
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
    f[l] is.  All-zero rows are dropped, and the rows are sorted by their
    count of zeros, most first (stable, so sparsest first), which keeps the
    elimination short.
    """
    ncols = len(cols)
    lagrange = _lagrange_values(n, {alpha for alpha, _ in cols})
    blocks = [[[0] * ncols for _ in range(n - l)] for l in range(n)]  # blocks[l][i]: row (i, l)
    for c, (alpha, f) in enumerate(cols):
        for l in compress(range(n), f):
            v = f[l]
            if alpha < n - l:
                blocks[l][alpha][c] = v
            else:
                for row, x in zip(blocks[l], lagrange[alpha][n - l]):
                    row[c] = x * v
    rows = [row for block in blocks for row in block if any(row)]
    rows.sort(key=lambda row: row.count(0), reverse=True)
    return rows


def _point_columns(points: list[LatticePoint], n: int) -> list[tuple[int, list[int]]]:
    """The (alpha, beta factor) columns of the order-n point system: f[l] = C(beta, l)."""
    binom_b = _binom_table({be for _, be in points}, n)
    return [(al, binom_b[be]) for al, be in points]


def _fd_columns(
    p: HerzogPresentation, lengths: tuple[int, ...], n: int
) -> tuple[list[tuple[int, list[int]]], int]:
    """(columns, m) of the order-n system in the finite-difference basis, full groups taken out.

    Column alpha of e*D holds l_alpha = lengths[alpha - 1] points (alpha,
    b_lo..b_hi), b_hi its ``column_top``; their monomials w^beta span the
    same space as w^b_lo (w-1)^j, j < l_alpha, by a unimodular triangular
    change of basis, so the rank is that of the point system.  Under
    v = 1+s, w = 1+r the column (alpha, j) has beta factor C(b_lo, l-j) in
    the rows of order l in w, zero when l < j; columns with j >= n are zero
    and left out.  Column alpha = 0 is the single point (0, 0), so the unit
    vector there is the same in both bases.

    A group gamma >= 1 with l_gamma >= n is full: it spans every jet
    (1+s)^gamma * K[r]/r^n.  Modulo one full group the system is the same
    system one order lower:

    * A row of order l is P(alpha) * f[l] with deg P < n - l.
    * It vanishes on the span of gamma iff P = (x - gamma) * Q with
      deg Q < (n - 1) - l.
    * So the rows that vanish on gamma form the order-(n - 1) system, with
      every other column scaled by alpha - gamma != 0.
    * So the rank drops by exactly n, and the (0, 0) column, scaled by
      0 - gamma != 0, lies in the span of the other columns left exactly
      when it lay in the span of the others before: the constant-term test
      keeps its verdict.
    * The other full groups are still full at order n - 1, so all f of
      them come out one at a time.

    So with f full groups the rank is sum_(k < min(f, n)) (n - k) plus the
    rank of the order-m system, m = max(0, n - f), on the short groups
    alone, and the constant term is forced exactly when it is forced there.
    Its columns are j descending, alpha ascending, for j < min(l_alpha, m),
    which keeps the elimination short, then (0, 0) last, so that the
    verdict is a pivot test (``_fd_decision``); none when m = 0, where no
    row is left.
    """
    m = max(0, n - sum(1 for length in lengths if length >= n))
    if not m:
        return [], 0
    short = [(al, column_top(p, al) - length + 1, length)
             for al, length in enumerate(lengths, 1) if 0 < length < n]
    binom_b = _binom_table({0} | {b_lo for _, b_lo, _ in short}, m)
    cols = []
    for j in range(min(max((length for _, _, length in short), default=0), m) - 1, -1, -1):
        cols += [(al, [0] * j + binom_b[b_lo][:m - j]) for al, b_lo, length in short if j < length]
    cols.append((0, binom_b[0]))  # (0, 0): 1 in the rows of order 0 in w
    return cols, m


def _fd_decision(p: HerzogPresentation, lengths: tuple[int, ...], n: int) -> tuple[int, bool]:
    """(rank, constant term forced) for the order-n system on ``lengths``, in one elimination.

    The full groups are taken out by lowering the order to m (see
    ``_fd_columns``), which accounts for n(n+1)/2 - m(m+1)/2 of the rank.
    Some kernel vector is nonzero at (0, 0) exactly when the (0, 0) column
    lies in the span of the others.  It is the last column, so the constant
    term is forced iff it is a pivot: the last pivot, since no column
    follows it.
    """
    cols, m = _fd_columns(p, lengths, n)
    peeled = (n * (n + 1) - m * (m + 1)) // 2
    if not m:
        return peeled, False
    reduced = _echelon(_system_rows(cols, m), len(cols))
    return peeled + reduced.rank, reduced.pivots[-1] == len(cols) - 1


def piece_dimension(p: HerzogPresentation, e: int, n: int) -> int:
    """dim of the degree-(e*a*b) piece of the n-th symbolic power.

    Computed as (number of lattice points of e*D) minus the rank of the
    derivative system, taken in the finite-difference basis; n = 0 means no
    constraints.  Both come from one ``column_counts``.  With k nonempty
    columns, the longest of length L, the piece is 0 once n >= k + L - 1,
    and no system is built: for each point, the product of (alpha - alpha')
    over the other columns and (beta - beta') over the other points of its
    column has degree <= k + L - 2 < n and vanishes at every point but that
    one, so the rows, which span the polynomials of degree < n evaluated at
    the points, have full rank.
    """
    return _points_and_dimension(p, e, n)[1]


def _points_and_dimension(p: HerzogPresentation, e: int, n: int) -> tuple[int, int]:
    """(lattice points of e*D, ``piece_dimension``), both from one ``column_counts``."""
    if n < 0:  # e < 1 is refused by column_counts
        raise ValueError("need n >= 0")
    lengths = column_counts(p, e)
    points = 1 + sum(lengths)  # column 0 holds only (0, 0)
    if n >= sum(map(bool, lengths)) + max(lengths):  # k + L - 1, k counting column 0
        return points, 0
    return points, points - _fd_decision(p, lengths, n)[0]


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


def _kept_groups(p: HerzogPresentation, ell: tuple[int, ...], n: int) -> list[tuple[int, int, int]]:
    """(alpha, b_hi, k) for each column alpha >= 1 of D that keeps k >= 1 points.

    Column alpha, with l_alpha = ell[alpha - 1] points under b_hi =
    ``column_top``, keeps its first k = min(l_alpha, m_alpha) points in point
    order, (alpha, b_hi) down to (alpha, b_hi - k + 1), where m_alpha is the
    order left after the repeated lowering of ``_fd_columns`` takes the full
    groups out of the columns 1..alpha-1, longest first: while some group
    left has at least m points, take it out and lower m by one.  Which
    group goes first does not matter, because a group full at order m stays
    full at every lower order, so the order left is the same.  Column 0
    keeps (0, 0).  Built from the profile alone, no point made.

    Every point not kept is a combination of earlier columns other than
    (0, 0), so the kept columns have the rank, the witness existence and the
    canonical witness of the whole (e=1, n) point system:

    * A combination of the rows is a function P(alpha, beta) = sum_l
      P_l(alpha) * C(beta, l), deg P_l < n - l, and a point column lies in
      the span of a column set iff every such P that vanishes on the set
      vanishes at the point.
    * Let gamma_1..gamma_f be the groups taken out before column alpha.  By
      the lowering, the P that vanish on all their points are
      prod_k (x - gamma_k) * Q(alpha, beta) with Q = sum_l Q_l(alpha) *
      C(beta, l), deg Q_l < m_alpha - l.  At alpha, not among the gamma_k,
      Q is a polynomial in beta of degree < m_alpha, so if P also vanishes
      on the m_alpha consecutive kept points of column alpha, it vanishes
      on the whole column.  So each later point of column alpha lies in the
      span of the points of the gamma_k and the kept points of its own
      column, all earlier in point order and none at alpha = 0.
    * Such a column is free in the reduced row echelon form, and adding it
      does not change the span S_c of the columns 1..c before it.
    * The witness column fc is the first column c with the (0, 0) column in
      S_c.  The canonical kernel vector of a free column c is supported on c
      and the pivots before it, so it is nonzero at (0, 0) only if (0, 0)
      lies in S_c.  For the first such c, c is free, and a kernel vector on
      the columns up to c that is nonzero at (0, 0), less the canonical
      vectors of the earlier free columns (zero at (0, 0)), is the
      canonical vector of c.  So fc is never a dropped column.
    * The canonical kernel vector of fc is zero at every other free column,
      so it is zero at every dropped point: it is the canonical kernel
      vector of fc on the kept columns, whose pivots are the same.
    """
    groups = []
    m, above, below = n, 0, [0] * n  # below[l]: groups of length l < m left
    for alpha, length in enumerate(ell, 1):
        if not m:
            break
        if length >= m:
            groups.append((alpha, column_top(p, alpha), m))
            above += 1
        elif length:
            groups.append((alpha, column_top(p, alpha), length))
            below[length] += 1
        while above and m:  # take a full group out, lowering the order
            m -= 1
            above += below[m] - 1
            below[m] = 0
    return groups


def _back_substituted(groups: list[tuple[int, int, int]], n: int) -> WitnessElement:
    """The canonical witness when the kept counts are n, n-1, ..., 1: no elimination.

    Group g_m, the one that keeps m points, is full at order m.  Taking out
    g_n leaves the order-(n-1) system on the other kept columns, each scaled
    by alpha - g_n (``_fd_columns``), and so on down to order 0, where no row
    is left.  So the rank is n + (n-1) + ... + 1 = n(n+1)/2, the kept columns
    other than (0, 0) are independent, and the kernel of the kept columns is
    one line, spanned by a vector x with x_(0,0) != 0: the canonical witness.

    Read upwards, the lowering builds x in O(n^3) integer operations:

    * At order 0, x_(0,0) = 1.
    * A row P(alpha) * C(beta, l) of order m, deg P < m - l, splits as
      (x - g_m) * Q(alpha) * C(beta, l), deg Q < m - 1 - l, which is a row of
      order m-1 applied to the columns scaled by alpha - g_m, plus P(g_m) *
      C(beta, l), constant in alpha.  So at order m the coordinates known
      at order m-1 are divided by alpha - g_m, and the m coordinates of g_m,
      at beta_i = b - i, solve sum_i x_i C(b - i, l) = r_l for l < m, with
      r_l = -sum_known x_pt C(beta_pt, l).
    * That solve is closed.  In generating functions it reads sum_i x_i
      (1+t)^(b-i) = R(t) mod t^m; with 1 + t' = 1/(1+t) it becomes sum_i x_i
      (1+t')^i = (1+t')^b R(-t'/(1+t')) mod t'^m.  So c_j = sum_(l<=j) (-1)^l
      C(b-l, j-l) r_l are the coefficients of sum_i x_i (1+t')^i, and x_i =
      sum_(j>=i) (-1)^(j-i) C(j, i) c_j: integers from integers.

    Only the moments M[l] = sum x_pt C(beta_pt, l) of each group enter r,
    and a division scales a whole group.  So the moments are kept by order
    across groups, moment[l][g], as each group was solved, and each group
    keeps one running factor: r_l = -sum_g factor[g] * moment[l][g] is one
    dot product, and a division rescales the factors alone, after all of
    them are multiplied by the lcm of the alpha - g_m so that it is exact.
    The new group's moments below m are r itself, since its solve enforces
    sum_i x_i C(b - i, l) = r_l; only those from m up are summed.  The
    witness divides by the factor of (0, 0) once.
    """
    binom = _binom_table({b - i for _, b, k in groups for i in range(k)}, n)
    signed_pascal = [[(-1) ** (j - i) * math.comb(j, i) for i in range(j + 1)] for j in range(n)]
    alphas, factors = [0], [1]  # (0, 0), x = 1
    moment = [[1]] + [[0] for _ in range(n - 1)]
    solved = {}
    for gamma, b, m in sorted(groups, key=itemgetter(2)):
        scale = math.lcm(*(alpha - gamma for alpha in alphas))
        factors = [f * (scale // (alpha - gamma)) for f, alpha in zip(factors, alphas)]
        r = [-sum(map(mul, factors, row)) for row in moment[:m]]
        c = [0] * m
        for l, rl in enumerate(r):
            if rl:
                rl = -rl if l % 2 else rl  # (-1)^l r_l
                c[l:] = [cj + rl * v for cj, v in zip(c[l:], binom[b - l])]
        x = [sum(signed_pascal[j][i] * c[j] for j in range(i, m)) for i in range(m)]
        upper = [0] * (n - m)
        for i, xi in enumerate(x):
            if xi:
                upper = [acc + xi * v for acc, v in zip(upper, binom[b - i][m:])]
        for row, v in zip(moment, r + upper):
            row.append(v)
        solved[gamma] = x
        alphas.append(gamma)
        factors.append(1)
    factor = dict(zip(alphas, factors))
    base = factors[0]
    coefficients = {LatticePoint(0, 0): Fraction(1)}
    for gamma, b, _ in groups:  # point order: alpha ascending, beta descending
        f = factor[gamma]
        for i, xi in enumerate(solved[gamma]):
            if xi:
                q, rem = divmod(xi * f, base)  # Fraction(q) skips the gcd when base divides
                coeff = Fraction(xi * f, base) if rem else Fraction(q)
                coefficients[LatticePoint(gamma, b - i)] = coeff
    return WitnessElement(coefficients=coefficients, e=1, n=n)


def _kept_elimination(groups: list[tuple[int, int, int]], n: int) -> tuple[int, WitnessElement | None]:
    """(rank, canonical witness or None) from one elimination of the kept points.

    The columns are (0, 0) and the kept points of ``groups`` in point order.
    The canonical witness is the canonical kernel vector of the first free
    column fc whose vector is nonzero at (0, 0), normalized there; when
    there is no such column the constant term is forced to 0.
    """
    points = [LatticePoint(0, 0)]
    points += [LatticePoint(alpha, b - i) for alpha, b, k in groups for i in range(k)]
    reduced = _echelon(_system_rows(_point_columns(points, n), n), len(points))
    pivots = set(reduced.pivots)
    for fc in range(len(points)):
        if fc not in pivots:
            vec = reduced.kernel_vector(fc)
            if vec[0]:
                coeffs = {pt: Fraction(x, vec[0]) for pt, x in zip(points, vec) if x}
                return reduced.rank, WitnessElement(coefficients=coeffs, e=1, n=n)
    return reduced.rank, None


def _witness_test(p: HerzogPresentation, ell: tuple[int, ...], want_witness: bool):
    """(rank, witness exists, witness or None) for the (e=1, n=u) system.

    ``ell`` is the column profile of D (``EuReport.ell``).  Without a
    witness wanted, the finite-difference elimination of ``_fd_decision``
    decides.  A wanted witness lies in the kernel of the
    kept columns (``_kept_groups``).  When their counts are u, u-1, ..., 1
    that kernel is one line, and back-substitution through the order
    lowering gives the witness with no elimination (``_back_substituted``).
    Otherwise ``_fd_decision`` decides first and the kept points are
    eliminated only for a witness that exists (``_kept_elimination``).

    The route follows the kept counts, not EU.  Counts u, ..., 1 imply EU
    (the lowering reaches order 0), but not conversely: with column lengths
    3, 3, 5, 4, 1 at u = 5, EU holds, yet the two groups of length 3 are
    taken out one order apart, so the kept counts are 3, 3, 5, 4, 1.  No
    validated triple with that shape is known.
    """
    n = p.u
    if want_witness:
        groups = _kept_groups(p, ell, n)
        if sorted(k for _, _, k in groups) == list(range(1, n + 1)):
            return n * (n + 1) // 2, True, _back_substituted(groups, n)
    rank, forced = _fd_decision(p, ell, n)
    if forced or not want_witness:
        return rank, not forced, None
    rank, witness = _kept_elimination(groups, n)
    return rank, witness is not None, witness


def shift_membership_test(coefficients: dict, n: int) -> bool:
    """Independent oracle for membership of phi in (v-1, w-1)^n.

    Multiplying by the units v, w does not change membership, so the support
    is first shifted to nonnegative exponents; then v -> 1+s, w -> 1+r is
    expanded by exact binomials and membership holds iff every coefficient
    of total degree below n vanishes.  A nonzero scalar does not change
    membership either, so the coefficients are cleared of denominators once
    and the sums run over integers.  The coefficient of s^i r^j is
    sum_alpha C(alpha, i) * A_alpha[j], where A_alpha[j] sums c * C(beta, j)
    over the terms of abscissa alpha.  The A_alpha are built in place first;
    then each order i is summed in one pass over the columns, skipping those
    with alpha < i, whose weight C(alpha, i) is zero.

    A nonzero phi with T terms is never a member once n >= T, so the work
    is bounded by the terms, not by n.  Substitute v = x^p, w = x^q, with p
    and q chosen so that the exponents e_k = p*alpha_k + q*beta_k of the
    terms are distinct (q = 1 and p above the spread of the beta do).  Then
    v-1 and w-1 are multiples of x-1, so a member of (v-1, w-1)^n maps to a
    Laurent polynomial sum c_k x^(e_k) that vanishes to order n at x = 1,
    and (x d/dx)^j of it, sum c_k e_k^j, is zero at 1 for j < n.  For
    j < T that is a Vandermonde system in the nonzero c_k with distinct
    nodes e_k, which has no nonzero solution.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = [(int(al), int(be), c) for (al, be), c in coefficients.items() if c != 0]
    if not terms:
        return True
    if n >= len(terms):
        return False
    shift_a = max(0, -min(al for al, _, _ in terms))
    shift_b = max(0, -min(be for _, be, _ in terms))
    scale = math.lcm(*(c.denominator for _, _, c in terms))
    column_sums: dict[int, list[int]] = {}
    for al, be, c in terms:
        weight = c.numerator * (scale // c.denominator)
        acc = column_sums.setdefault(al + shift_a, [0] * n)
        for j in range(n):
            acc[j] += weight * math.comb(be + shift_b, j)
    for i in range(n):
        total = [0] * (n - i)
        for al, acc in column_sums.items():
            if al >= i:
                weight = math.comb(al, i)
                for j in range(n - i):
                    total[j] += weight * acc[j]
        if any(total):
            return False
    return True


INAPPLICABLE = None  # verdict value when the hypotheses do not hold
NOT_NEGATIVE_CURVE = "u^2*c < a*b fails: the candidate generator is not a negative curve"


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

    The one entry point to a verdict; with ``want_witness`` the verdict also
    carries the canonical witness, when one exists.  Cross-checks the proved
    facts on the way (the two GK forms agree, EU forces a witness, GK forbids
    one, and for u <= 6 exactly one of EU and GK holds) and raises
    InternalConsistencyError if they ever fail.
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
    assumptions = validate_assumptions(pres)
    eu = check_eu(pres)
    gk = check_gk(pres)
    if not assumptions.all_hold:
        return _inapplicable(
            triple,
            assumptions,
            NOT_NEGATIVE_CURVE,
            presentation=pres,
            eu=eu,
            gk=gk,
        )

    # GK forbids a witness and EU forces one; the cross-checks below still
    # run on whichever system decided
    rank, exists, witness = _witness_test(pres, eu.ell, want_witness and not gk.holds)
    if eu.holds and not exists:
        raise InternalConsistencyError(f"EU holds but no witness on {triple}")
    if gk.holds and exists:
        raise InternalConsistencyError(f"GK holds but witness found on {triple}")
    # so EU and GK exclude each other; for u <= 6 one of them holds, which
    # makes the verdict the EU verdict
    if pres.u <= 6 and not (eu.holds or gk.holds):
        raise InternalConsistencyError(f"u <= 6 but neither EU nor GK holds on {triple}")
    if gk.holds != (gk.five_way is not None):  # the two GK forms are equivalent here
        forms = f"definition={gk.holds}, five-way={gk.five_way}"
        raise InternalConsistencyError(f"GK forms disagree on {triple}: {forms}")
    n_points = 1 + sum(eu.ell)  # column 0 holds only (0, 0)
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
