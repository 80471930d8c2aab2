"""Plain rational reference implementations that only the tests use.

Each one is the straightforward route the package's faster code must agree
with: every lattice point of the triangle in point order (the package
reads only the column counts), a dense rational matrix with rank,
row-space and kernel queries, a Fraction reduced row echelon form
(unique, so it pins down ranks, pivots and the canonical kernel basis),
fraction-free Bareiss elimination (the package keeps primitive rows
instead; both give the same pivots and canonical kernel vectors),
a guard row reduced against an echelon form (the package decides the
constant term by a pivot test instead), matrix-vector products, the
shift-substitution membership test with Fraction coefficients and term by
term over integers, the curve substitution test summed in Fraction, the
re-checks of ``symrees witness --verify`` with order-u membership tested on
the lattice coefficients and order 1 on the monomials, the Zariski-Nagata
jet system on the x, y, z monomials of one degree (it needs only the
weights; no presentation or triangle enters), the witness
extraction over every lattice point of the triangle, the depth-u column
prefixes that witness extraction eliminated before it kept fewer points,
the finite-difference decision over every column of that basis, full
groups included, the derivative system over the lattice points in its
falling-factorial (spec) and binomial-scaled forms (the package eliminates
a Lagrange row basis instead), the Lagrange row basis built densely from
one Pascal table, the GK interval counts in Fraction arithmetic, a
Fraction front end to the integer interval count,
the ``dataclasses.asdict`` record encoding, every representation of an
integer by two coprime weights and the minimal-j one per integer, and the
triangle's slopes, vertices and column ordinates as fractions, and the
paper's hand-typed x = 0 staircases of the family's second and third
symbolic powers and of their product (``verify_family_report`` derives
them from the elements it builds).  Some small helpers that only tests need
live here too: the derivative order sequence, the record decoder, the
integer-scaled witness, the (a, b) swap, the kept points of
``witness._kept_groups``, the minimal generators of a monomial ideal in
y, z and the staircases that ``verify_family_report`` measures.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, mul
from typing import Sequence
from unittest import mock

from symrees import polynomials
from symrees.lattice import DeltaRegion, LatticePoint, _column_bounds, interval_count
from symrees.linalg import Echelon, _echelon
from symrees.presentation import CurveTriple
from symrees.records import VerdictRecord
from symrees.witness import WitnessElement, _binom_table, _system_rows, shift_membership_test

Rat = int | Fraction


def enumerate_points(p, e: int = 1) -> list[LatticePoint]:
    """Integer points of e*D, ordered by (alpha ascending, beta descending).

    The ordering is frozen so that constraint matrices, witnesses and
    regression values are reproducible bit for bit.  (0, 0) is always first.
    The package counts points from ``lattice.column_counts`` alone; the point
    systems here walk the same column bounds.
    """
    points = []
    for alpha, (b_lo, b_hi) in enumerate(_column_bounds(p, e)):
        points.extend(LatticePoint(alpha, beta) for beta in range(b_hi, b_lo - 1, -1))
    return points


def derivative_orders(n: int) -> list[tuple[int, int]]:
    """(k, l) with k + l < n, ordered by total order then l ascending.

    Frozen ordering: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...  There
    are n(n+1)/2 of them, the constraint count ``symrees piece-dim`` prints.
    """
    return [(total - l, l) for total in range(n) for l in range(total + 1)]


def row_to_ints(row: Sequence[Rat]) -> list[int]:
    """Clear denominators of one row (rank is invariant under row scaling)."""
    denoms = [x.denominator for x in row if type(x) is not int]
    if not denoms:
        return list(row)
    scale = math.lcm(*denoms)
    return [int(x * scale) for x in row]


class QMatrix:
    """Dense exact matrix over the rationals with labelled columns.

    Immutable after construction; entries may be ``int`` or ``Fraction``
    (both exact).  Column labels are opaque tags used to keep witness
    coordinates attached to the lattice points they stand for.
    """

    def __init__(self, entries: Sequence[Sequence[Rat]], col_labels: Sequence | None = None):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        if col_labels is None:
            col_labels = list(range(self.cols))
        self.col_labels = list(col_labels)
        if len(self.col_labels) != self.cols:
            raise ValueError("need one label per column")
        if len(set(self.col_labels)) != self.cols:
            raise ValueError("column labels must be distinct")

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"

    def echelon(self) -> Echelon:
        """One elimination of the rows to an echelon form of primitive rows.

        Rows are cleared of denominators (row scaling changes neither the
        row space nor the kernel) and zero rows are dropped first.
        """
        rows = [r for r in map(row_to_ints, self.entries) if any(r)]
        return _echelon(rows, self.cols)

    def rank(self) -> int:
        return self.echelon().rank

    def rank_and_row_space_contains(self, v: Sequence[Rat]) -> tuple[int, bool]:
        """(rank of the matrix, whether v lies in its row space).

        The candidate row is reduced against the echelon rows
        (``reduce_against``); it ends up zero exactly when it is a
        combination of the matrix rows.
        """
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        reduced = self.echelon()
        return reduced.rank, not any(reduce_against(reduced, row_to_ints(v)))

    def row_space_contains(self, v: Sequence[Rat]) -> bool:
        """True iff v is a rational linear combination of the rows."""
        return self.rank_and_row_space_contains(v)[1]

    def null_space(self) -> list[list[Fraction]]:
        """Basis of the exact kernel {x : Mx = 0}, one vector per free column.

        Deterministic: free columns in ascending order, and the basis vector
        for free column j has coordinate 1 there and 0 at the other free
        columns.  (This basis is canonical: it only depends on the RREF,
        which is unique.)
        """
        reduced = self.echelon()
        pivot_set = set(reduced.pivots)
        basis = []
        for fc in range(self.cols):
            if fc not in pivot_set:
                vec = reduced.kernel_vector(fc)
                basis.append([Fraction(x, vec[fc]) for x in vec])
        return basis


def scaled_rows(points, n: int) -> list[list[int]]:
    """Nonzero rows of the binomial-scaled point system, as fresh int lists.

    Entry C(alpha, k) * C(beta, l) in row (k, l), in ``derivative_orders``
    order: the (k, l) derivative row divided by k! l!, which leaves rank,
    kernel and row space unchanged.  The package eliminates the same row
    space in a Lagrange basis in alpha; this is the independent binomial
    form.  All-zero rows are dropped.
    """
    binom_a = _binom_table({al for al, _ in points}, n)
    binom_b = _binom_table({be for _, be in points}, n)
    cols = [(binom_a[al], binom_b[be]) for al, be in points]
    rows = ([ca[k] * cb[l] for ca, cb in cols] for (k, l) in derivative_orders(n))
    return [row for row in rows if any(row)]


def lagrange_table(top: int, n: int) -> list[list[list[int]]]:
    """Integer Lagrange values: table[m][i][alpha] = L_i^(m)(alpha), 1 <= m <= n, i < m.

    L_i^(m) is the Lagrange basis of the polynomials of degree < m at the
    nodes 0..m-1: delta(i, alpha) for alpha < m, and
    (-1)^(m-1-i) * C(alpha, i) * C(alpha-i-1, m-1-i) for alpha >= m.  Each
    list covers at least alpha = 0..top.  The binomials come from one Pascal
    table, kept by columns: column[k][x] = C(x, k) for x <= top, k < n.
    """
    column = [[1] * (top + 1)]
    for _ in range(1, n):
        column.append([0] + list(accumulate(column[-1][:top])))
    signed = [c if k % 2 == 0 else [-x for x in c] for k, c in enumerate(column)]
    table: list[list[list[int]]] = [[]]
    for m in range(1, n + 1):
        at_m = []
        for i in range(m):
            k = m - 1 - i
            nodes = [0] * m
            nodes[i] = 1
            # alpha = m..top: C(alpha, i) * (-1)^k C(alpha-1-i, k)
            at_m.append(nodes + list(map(mul, column[i][m:], signed[k][k:top - i])))
        table.append(at_m)
    return table


def dense_system_rows(cols, n: int) -> list[list[int]]:
    """The rows of ``witness._system_rows``, every entry computed.

    Row (i, l) holds L_i^(n-l)(alpha) * f[l] at every column (alpha, f),
    from one Pascal table (``lagrange_table``), zeros included; the
    all-zero rows are left out and the rest sorted by zero count, most
    zeros first (stable).
    """
    alphas = [al for al, _ in cols]
    ncols = len(cols)
    lagrange = lagrange_table(max(alphas), n)
    rows = []
    for l in range(n):
        factors = [f[l] for _, f in cols]
        first = next(filter(None, factors), 0)
        if not first:
            continue
        start = factors.index(first)  # leading zero columns stay zero
        lead = [0] * start
        tail = factors[start:]
        # the spare index keeps a tuple when one column is left; map stops at tail
        gather = itemgetter(*alphas[start:], 0)
        for values in lagrange[n - l]:
            row = lead + list(map(mul, tail, gather(values)))
            zeros = row.count(0)
            if zeros < ncols:
                rows.append((zeros, row))
    rows.sort(key=itemgetter(0), reverse=True)
    return [row for _, row in rows]


def scaled_system(points, n: int) -> QMatrix:
    """The binomial-scaled point system of ``scaled_rows``, labelled by the points."""
    return QMatrix(scaled_rows(points, n), col_labels=list(points))


def point_system_decision(p, e: int, n: int) -> tuple[int, bool]:
    """(rank, constant term forced) for the (e, n) point system.

    The route the verdict took before the finite-difference basis: one
    elimination of the scaled rows over every lattice point of e*D, with the
    unit vector at (0, 0) reduced against it as the guard.  The constant
    term is forced iff that unit lies in the row space.
    """
    points = enumerate_points(p, e)
    unit = [0] * len(points)
    unit[points.index(LatticePoint(0, 0))] = 1
    reduced = _echelon(scaled_rows(points, n), len(points))
    return reduced.rank, not any(reduce_against(reduced, unit))


def full_fd_columns(p, e: int, n: int) -> list[tuple[int, list[int]]]:
    """Every column of the (e, n) system in the finite-difference basis.

    Column (alpha, j), j < min(l_alpha, n), is v^alpha w^b_lo (w-1)^j, with
    beta factor C(b_lo, l-j) in the rows of order l in w (zero when l < j);
    (0, 0) first, then j descending, alpha ascending.  The package takes the
    full groups out of this set and lowers the order before it builds rows.
    """
    groups = [
        (alpha, b_lo, min(b_hi - b_lo + 1, n))
        for alpha, (b_lo, b_hi) in enumerate(_column_bounds(p, e))
        if b_hi >= b_lo
    ]
    binom_b = _binom_table({b_lo for _, b_lo, _ in groups}, n)
    cols = [(0, binom_b[0])]
    for j in range(max(width for _, _, width in groups) - 1, -1, -1):
        cols += [
            (al, [0] * j + binom_b[b_lo][:n - j])
            for al, b_lo, width in groups
            if al and j < width
        ]
    return cols


def full_fd_decision(p, e: int, n: int) -> tuple[int, bool]:
    """(rank, constant term forced) from one elimination of every finite-difference column.

    The route the verdict took before the full groups were taken out: the
    rows of ``witness._system_rows`` over ``full_fd_columns`` at order n
    (the tests check them against ``dense_system_rows``), with the unit at
    (0, 0), the first column, reduced against it as the guard.
    """
    cols = full_fd_columns(p, e, n)
    reduced = _echelon(_system_rows(cols, n), len(cols))
    return reduced.rank, not any(reduce_against(reduced, [1] + [0] * (len(cols) - 1)))


def point_system_witness(p) -> tuple[int, int, bool, WitnessElement | None]:
    """(points, rank, witness exists, witness or None) over every lattice point of D.

    The route witness extraction took before the column prefixes: one
    elimination of the scaled (e=1, n=u) rows over all points of D, with the
    unit vector at (0, 0) reduced against it as the guard, and the canonical
    kernel vector of the guard's first nonzero column, normalized at (0, 0).
    """
    points = enumerate_points(p, 1)
    j = points.index(LatticePoint(0, 0))
    unit = [0] * len(points)
    unit[j] = 1
    reduced = _echelon(scaled_rows(points, p.u), len(points))
    fc = next((c for c, x in enumerate(reduce_against(reduced, unit)) if x), None)
    if fc is None:
        return len(points), reduced.rank, False, None
    vec = reduced.kernel_vector(fc)
    coeffs = {pt: Fraction(x, vec[j]) for pt, x in zip(points, vec) if x}
    return len(points), reduced.rank, True, WitnessElement(coefficients=coeffs, e=1, n=p.u)


def prefix_points(p, e: int, depth: int) -> list[LatticePoint]:
    """The points of e*D in point order, each column cut after its first ``depth``.

    (alpha, b_hi) down to (alpha, b_hi - depth + 1).  At depth u this is the
    column set witness extraction eliminated before it kept only the first
    min(l_alpha, m_alpha) points of each column (``witness._kept_groups``):
    every later point of a column is an integer combination of its first u,
    so both sets have the rank and the canonical witness of every point.
    """
    points = []
    for alpha, (b_lo, b_hi) in enumerate(_column_bounds(p, e)):
        b_lo = max(b_lo, b_hi - depth + 1)
        points.extend(LatticePoint(alpha, beta) for beta in range(b_hi, b_lo - 1, -1))
    return points


def kept_points(groups) -> list[LatticePoint]:
    """(0, 0) and the points that ``witness._kept_groups`` keeps, in point order."""
    return [LatticePoint(0, 0)] + [
        LatticePoint(alpha, b - i) for alpha, b, k in groups for i in range(k)
    ]


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a QMatrix over Fraction: (rows, pivot cols).

    Pivot choice: largest |numerator * denominator| in the column.
    """
    m = [[Fraction(x) for x in row] for row in matrix.entries]
    pivots: list[int] = []
    r = 0
    for c in range(matrix.cols):
        best, best_size = -1, None
        for i in range(r, matrix.rows):
            if m[i][c] != 0:
                size = abs(m[i][c].numerator * m[i][c].denominator)
                if best_size is None or size > best_size:
                    best, best_size = i, size
        if best < 0:
            continue
        m[r], m[best] = m[best], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(matrix.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == matrix.rows:
            break
    return m, pivots


def rref_null_space(matrix) -> list[list[Fraction]]:
    """Canonical kernel basis read off the RREF, one vector per free column."""
    m, pivots = rref(matrix)
    basis = []
    for fc in range(matrix.cols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * matrix.cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def reduce_against(reduced: Echelon, v: Sequence[int]) -> list[int]:
    """The guard row v reduced against an echelon form: c*v - r, c != 0, r in the row space.

    One fraction-free step per pivot row, in pivot order, wherever v has an
    entry in the pivot column, with the content divided out after each.
    The result is zero at every pivot column, so it is zero exactly when v
    lies in the row space.  For v the unit at column j it is a multiple of
    e_j - R[r_j] (R the RREF), nonzero at a free column exactly when that
    column's canonical kernel vector is nonzero at j: the witness column.
    """
    g = list(v)
    for row, pc in zip(reduced.rows, reduced.pivots):
        q = g[pc]
        if q:
            g = [row[pc] * x - q * y for x, y in zip(g, row)]
            content = math.gcd(*g)
            if content > 1:
                g = [x // content for x in g]
    return g


def eager_echelon(rows, ncols: int) -> Echelon:
    """Fraction-free Bareiss elimination, every row rescaled at every step.

    The reference for ``symrees.linalg._echelon``: its entries are minors of
    the input, and its rows differ from the package's primitive ones, but
    under the same pivot rule (smallest nonzero magnitude, earliest input
    row on ties; the rows not yet pivoted stay in input order and no row is
    swapped) it has the same pivots and, normalized, the same kernel
    vectors.  A row with a zero in the pivot column is multiplied by
    p / prev.  Works on copies of its arguments.
    """
    rows = [list(row) for row in rows]
    waiting = list(range(len(rows)))  # input indices of the rows not yet pivoted
    reduced: list[list[int]] = []
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        candidates = [(abs(rows[idx][col]), idx) for idx in waiting if rows[idx][col]]
        if not candidates:
            continue
        _, pick = min(candidates)
        waiting.remove(pick)
        pr = rows[pick]
        p = pr[col]
        pr_tail = pr[col:]
        for idx in waiting:
            ri = rows[idx]
            q = ri[col]
            if q == 0:
                if p != prev:
                    ri[col:] = [(p * x) // prev for x in ri[col:]]
            elif prev == 1:
                ri[col:] = [p * x - q * y for x, y in zip(ri[col:], pr_tail)]
            else:
                ri[col:] = [(p * x - q * y) // prev for x, y in zip(ri[col:], pr_tail)]
        prev = p
        reduced.append(pr)
        pivots.append(col)
    return Echelon(rows=reduced, pivots=pivots, cols=ncols)


def assert_lazy_echelon_matches_eager(rows, ncols):
    """``_echelon`` agrees with ``eager_echelon`` on what every echelon form shares.

    Their rows differ (``_echelon`` keeps primitive rows, the oracle keeps
    minors of the input), so the check is on the invariants: the pivots,
    and with them the rank; for every free column fc, both kernel vectors
    normalized at fc, and the definition of the canonical vector that
    ``rref_null_space`` reads off the RREF (zero at the other free columns,
    and M x = 0); every returned row has content 1 and lies in the row space
    of the input.  Every entry is an ``int``.  ``_echelon`` works in place, so
    it gets copies; the oracle copies itself.
    """
    want = eager_echelon(rows, ncols)
    got = _echelon([list(r) for r in rows], ncols)
    assert got.pivots == want.pivots, rows
    free = [fc for fc in range(ncols) if fc not in got.pivots]
    for fc in free:
        kernel = got.kernel_vector(fc)
        assert all(type(x) is int for x in kernel) and kernel[fc] > 0, (rows, fc)
        assert all(kernel[c] == 0 for c in free if c != fc), (rows, fc)
        assert all(sum(map(mul, row, kernel)) == 0 for row in rows), (rows, fc)
        eager = want.kernel_vector(fc)
        assert [Fraction(x, kernel[fc]) for x in kernel] == [Fraction(x, eager[fc]) for x in eager]
    for row in got.rows:
        assert all(type(x) is int for x in row) and math.gcd(*row) == 1, rows
        assert not any(reduce_against(want, row)), rows


def mul_vector(matrix, x) -> list[Fraction]:
    if len(x) != matrix.cols:
        raise ValueError("length mismatch")
    return [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in matrix.entries]


def shift_membership_fraction(coefficients: dict, n: int) -> bool:
    """Membership of phi in (v-1, w-1)^n, with the binomial sums in Fraction."""
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = [(int(al), int(be), c) for (al, be), c in coefficients.items() if c != 0]
    if not terms:
        return True
    shift_a = max(0, -min(al for al, _, _ in terms))
    shift_b = max(0, -min(be for _, be, _ in terms))
    for i in range(n):
        for j in range(n - i):
            total = sum(
                c * math.comb(al + shift_a, i) * math.comb(be + shift_b, j)
                for al, be, c in terms
            )
            if total != 0:
                return False
    return True


def shift_membership_per_term(coefficients: dict, n: int) -> bool:
    """Membership of phi in (v-1, w-1)^n, over integers, one binomial product per term.

    The denominators are cleared once, as in ``shift_membership_test``, but
    each coefficient of s^i r^j is summed term by term.
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


def curve_substitution_fraction(poly, weights) -> bool:
    """Vanishing under x -> T^a, y -> T^b, z -> T^c, each degree summed in Fraction.

    The package clears the denominators once and sums integers per degree
    instead.
    """
    a, b, c = weights
    acc = {}
    for (ex, ey, ez), coeff in poly.terms.items():
        d = ex * a + ey * b + ez * c
        s = acc.get(d, 0) + coeff
        if s == 0:
            acc.pop(d, None)
        else:
            acc[d] = s
    return not acc


def lattice_reverify_witness(pres, payload: dict, terms: dict) -> list[str]:
    """The re-checks of ``symrees witness --verify`` with order-u membership on the lattice terms.

    phi(v, w) is tested at order u and the monomials at order 1 only, by the
    curve substitution.  The package tests the monomials themselves,
    f(1, y, z), at order u once they are the expansion, and runs no curve test.
    """
    a, b, c = payload["triple"]
    certificate = {"e": 1, "order": pres.u, "degree": a * b}
    problems = [
        f"{key} is {payload[key]}, not {want}"
        for key, want in certificate.items()
        if payload[key] != want
    ]
    if problems:
        return problems
    coeffs = {LatticePoint(*pt): coeff for pt, coeff in terms["lattice_coefficients"].items()}
    if coeffs.get(LatticePoint(0, 0)) != 1:
        problems.append("constant lattice coefficient is not 1")
    region = DeltaRegion(pres, payload["e"])
    if not all(region.contains(pt.alpha, pt.beta) for pt in coeffs):
        problems.append("support leaves the triangle")
    if not shift_membership_test(coeffs, payload["order"]):
        problems.append("shift-substitution membership fails")
    monomials = terms["monomials"]
    expansion = {region.monomial_exponents(pt): coeff for pt, coeff in coeffs.items() if coeff}
    if {ex: coeff for ex, coeff in monomials.items() if coeff} != expansion:
        problems.append("monomials are not the expansion of the lattice coefficients")
    poly = polynomials.SparsePoly(monomials)
    if not polynomials.curve_substitution_zero(poly, (a, b, c)):
        problems.append("reconstructed polynomial does not vanish on the curve")
    degrees = {x * a + y * b + z * c for x, y, z in monomials}
    if degrees != {payload["degree"]}:
        problems.append(f"monomial degrees {sorted(degrees)} != {payload['degree']}")
    return problems


def degree_monomials(weights, d: int) -> list[tuple[int, int, int]]:
    """Every x^i y^j z^k of weighted degree d, as (i, j, k), k then j ascending."""
    a, b, c = weights
    out = []
    for k in range(d // c + 1):
        for j in range((d - k * c) // b + 1):
            i, rest = divmod(d - j * b - k * c, a)
            if not rest:
                out.append((i, j, k))
    return out


def jet_rows(columns, n: int) -> list[list[int]]:
    """The order-n Zariski-Nagata jet system on the monomials ``columns``.

    Row (q, r), q + r < n, holds C(j, q) * C(k, r) on x^i y^j z^k: the
    coefficient of s^q t^r in f(1, 1 + s, 1 + t).  A weighted-homogeneous f
    lies in p^(n) exactly when f(1, y, z) vanishes to order n at (1, 1),
    since the curve is the closure of the orbit of (1, 1, 1): exactly when
    its coefficient vector is in the kernel.  Neither the Herzog
    presentation nor the triangle enters.
    """
    return [
        [math.comb(j, q) * math.comb(k, r) for _, j, k in columns]
        for q in range(n)
        for r in range(n - q)
    ]


def jet_decision(weights, d: int, n: int) -> tuple[int, int, bool]:
    """(columns, rank, pure y power column is a pivot) of the jet system in degree d, order n.

    The columns are every monomial of degree d, y^(d/b) placed last when it
    is one.  That column is a pivot exactly when no element of the degree-d
    piece of p^(n) has a y^(d/b) term; at d = ab and n = u, when the ring is
    not Noetherian.  Without the pure power the answer is False.
    """
    pure = (0, d // weights[1], 0)
    columns = degree_monomials(weights, d)
    if pure in columns:
        columns.remove(pure)
        columns.append(pure)
    reduced = _echelon(jet_rows(columns, n), len(columns))
    pivot = reduced.pivots[-1:] == [len(columns) - 1]
    return len(columns), reduced.rank, pivot and columns[-1] == pure


def falling_factorial(n: int, k: int) -> int:
    """Return n(n-1)...(n-k+1), the k-th falling factorial at n.

    Defined for any integer n (negative included) and k >= 0; the empty
    product (k = 0) is 1.  This is the value of the k-th derivative of
    v**n at v = 1, divided by nothing: d^k/dv^k v^n |_{v=1}.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1
    for i in range(k):
        out *= n - i
    return out


@dataclass(frozen=True)
class DerivativeMatrix:
    """Constraint system: rows = derivative orders, columns = lattice points."""

    base: QMatrix
    points: tuple[LatticePoint, ...]
    orders: tuple[tuple[int, int], ...]
    n: int
    e: int


def _ff_table(values: set[int], n: int) -> dict[int, list[int]]:
    # falling factorials ff(v, 0..n-1) per distinct coordinate value
    table = {}
    for v in values:
        row = [1]
        for k in range(1, n):
            row.append(row[-1] * (v - k + 1))
        table[v] = row
    return table


def build_matrix(points: list[LatticePoint], n: int, e: int = 1) -> DerivativeMatrix:
    """The spec form of the derivative system: entry ff(alpha, k) * ff(beta, l)."""
    if n < 1:
        raise ValueError("derivative order bound n must be >= 1")
    if not points or len(set(points)) != len(points):
        raise ValueError("points must be nonempty and distinct")
    orders = derivative_orders(n)
    ff_a = _ff_table({al for al, _ in points}, n)
    ff_b = _ff_table({be for _, be in points}, n)
    entries = [
        [ff_a[al][k] * ff_b[be][l] for (al, be) in points]
        for (k, l) in orders
    ]
    return DerivativeMatrix(
        base=QMatrix(entries, col_labels=list(points)),
        points=tuple(points),
        orders=tuple(orders),
        n=n,
        e=e,
    )


def witness_system(p, e: int = 1, n: int | None = None) -> DerivativeMatrix:
    """Spec-form system of p at scale e; n defaults to the decisive u * e."""
    if n is None:
        n = p.u * e
    return build_matrix(enumerate_points(p, e), n, e)


def interval_lattice_count(lo: Fraction, hi: Fraction) -> int:
    """Integers in the closed interval [lo, hi] by ``lattice.interval_count``."""
    lo, hi = Fraction(lo), Fraction(hi)
    return interval_count(lo.numerator, lo.denominator, hi.numerator, hi.denominator)


def fraction_interval_count(lo: Fraction, hi: Fraction) -> int:
    """Integers in the closed interval [lo, hi] by Fraction floor and ceiling."""
    if hi < lo:
        return 0
    return max(0, math.floor(hi) - math.ceil(lo) + 1)


def fraction_right_count(p, scale: int) -> int:
    """Integers in scale * [u2/u, t/t3]."""
    return fraction_interval_count(scale * Fraction(p.u2, p.u), scale * Fraction(p.t, p.t3))


def fraction_left_count(p, scale: int) -> int:
    """Integers in scale * [-s2/s3, u2/u]."""
    return fraction_interval_count(scale * Fraction(-p.s2, p.s3), scale * Fraction(p.u2, p.u))


def fraction_nm(p) -> tuple[int, int]:
    """(n, m): the unscaled left and right counts."""
    return fraction_left_count(p, 1), fraction_right_count(p, 1)


def asdict_record(record, *, with_timing: bool = True) -> dict:
    """A VerdictRecord encoded by ``dataclasses.asdict`` (a deep copy)."""
    data = asdict(record)
    data["triple"] = list(record.triple)
    if not with_timing:
        del data["timing_ms"]
    return data


def all_representations(M: int, p: int, q: int) -> list[tuple[int, int]]:
    """Every (i, j) with i, j >= 0 and i*p + j*q = M, j ascending; gcd(p, q) = 1.

    Starts from a Bezout pair of the extended Euclidean algorithm rather
    than the package's modular inverse; consecutive solutions differ by
    (-q, +p).
    """
    r0, r1, x0, x1 = p, q, 1, 0
    while r1:
        quo = r0 // r1
        r0, r1, x0, x1 = r1, r0 - quo * r1, x1, x0 - quo * x1
    if r0 != 1:
        raise ValueError(f"weights {p}, {q} are not coprime")
    y0 = (1 - x0 * p) // q  # x0*p + y0*q = 1, so y0 = q^{-1} mod p
    out = []
    j = M * y0 % p
    while j * q <= M:
        out.append(((M - j * q) // p, j))
        j += p
    return out


def representable(M: int, p: int, q: int) -> tuple[int, int] | None:
    """Minimal-j solution of M = i*p + j*q with i, j >= 0, or None.

    The smallest admissible j is M * q^{-1} mod p, computed directly for
    each M; one oracle of ``presentation._minimal_multiple``, tried on each
    multiple in turn.  Requires gcd(p, q) = 1.
    """
    if M < 1 or p < 1 or q < 1:
        raise ValueError("arguments must be positive")
    j = (M * pow(q, -1, p)) % p if p > 1 else 0
    if j * q > M:
        return None
    return (M - j * q) // p, j


def minimal_multiple_by_steps(w: int, p: int, q: int) -> tuple[int, tuple[int, int]]:
    """Least k >= 1 with k*w in N0*p + N0*q and its minimal-j witness, in O(k) steps.

    The search ``presentation._minimal_multiple`` made before its
    continued-fraction descent, kept as a second oracle: the least j with
    k*w = j*q (mod p) advances by w*q^{-1} mod p per k, one addition each,
    and the first k with j*q <= k*w is the answer.  Every integer beyond the
    Frobenius number p*q - p - q is representable, which caps k.  Requires
    gcd(p, q) = 1.
    """
    cap = max(1, (p * q - p - q) // w + 1)
    step = (w * pow(q, -1, p)) % p if p > 1 else 0
    j = 0
    for k in range(1, cap + 1):
        j += step
        if j >= p:
            j -= p
        if j * q <= k * w:
            return k, ((k * w - j * q) // p, j)
    raise AssertionError(f"no multiple of {w} representable by ({p}, {q})")


def slopes(region) -> tuple[Fraction, Fraction, Fraction]:
    """(lower left, upper, lower right) boundary slopes of e*D: -s2/s3, u2/u, t/t3."""
    p = region.presentation
    return Fraction(-p.s2, p.s3), Fraction(p.u2, p.u), Fraction(p.t, p.t3)


def vertices(region) -> tuple[tuple[Fraction, Fraction], ...]:
    """The vertices (0, 0), e*(u, u2) and e*(a*s3/c, -a*s2/c) of e*D."""
    p, e = region.presentation, region.e
    return (
        (Fraction(0), Fraction(0)),
        (Fraction(e * p.u), Fraction(e * p.u2)),
        (Fraction(e * p.a * p.s3, p.c), Fraction(-e * p.a * p.s2, p.c)),
    )


def beta_range(region, alpha: int) -> tuple[Fraction, Fraction]:
    """Exact lower and upper boundary ordinates of column alpha of e*D."""
    p, e = region.presentation, region.e
    lower_left, upper, lower_right = slopes(region)
    lo = max(lower_left * alpha, lower_right * (alpha - e * p.u) + e * p.u2)
    return lo, upper * alpha


def from_dict(data: dict) -> VerdictRecord:
    """The record a ``records.to_dict`` encoding came from."""
    return VerdictRecord(
        triple=tuple(data["triple"]),
        presentation=data["presentation"],
        assumptions=data["assumptions"],
        eu=data["eu"],
        gk=data["gk"],
        witness_exists=data["witness_exists"],
        noetherian=data["noetherian"],
        reason=data["reason"],
        points=data["points"],
        dim_piece_u=data["dim_piece_u"],
        timing_ms=data.get("timing_ms"),
        version=data["version"],
    )


def integerized(witness: WitnessElement) -> dict[LatticePoint, int]:
    """The witness vector scaled by the lcm of its denominators."""
    scale = math.lcm(*(c.denominator for c in witness.coefficients.values()))
    return {pt: int(c * scale) for pt, c in witness.coefficients.items()}


def swapped_ab(triple: CurveTriple) -> CurveTriple:
    return CurveTriple(triple.b, triple.a, triple.c)


def second_power_slice_gens(p) -> tuple[tuple[int, int], ...]:
    """The paper's x = 0 slice of the family's second symbolic power:
    (y^3, y^2 z^(2u1), y z^(u+u1), z^(2u))."""
    return ((3, 0), (2, 2 * p.u1), (1, p.u + p.u1), (0, 2 * p.u))


def third_power_slice_gens(p) -> tuple[tuple[int, int], ...]:
    """The paper's x = 0 slice of the family's third symbolic power:
    (y^5, y^4 z^(2u1-u2), y^3 z^u, y^2 z^(u+2u1), y z^(2u+u1), z^(3u))."""
    u, u1 = p.u, p.u1
    return ((5, 0), (4, 2 * u1 - p.u2), (3, u), (2, u + 2 * u1), (1, 2 * u + u1), (0, 3 * u))


def product_23_slice_gens(p) -> tuple[tuple[int, int], ...]:
    """The paper's x = 0 slice of (second power) * (third power)."""
    u, u1, u2 = p.u, p.u1, p.u2
    return (
        (8, 0),
        (7, 2 * u1 - u2),
        (6, min(u, 4 * u1 - u2)),
        (5, 4 * u1),
        (4, 4 * u1 + u2),
        (3, 3 * u),
        (2, 3 * u + 2 * u1),
        (1, 4 * u + u1),
        (0, 5 * u),
    )


def minimal_generators(gens) -> list[tuple[int, int]]:
    """The monomials y^i z^j of ``gens`` that no other one divides, sorted."""
    gens = set(gens)
    return sorted(
        (i, j) for i, j in gens
        if not any((gi, gj) != (i, j) and gi <= i and gj <= j for gi, gj in gens)
    )


def report_staircases(params) -> list[tuple[tuple[int, int], ...]]:
    """The staircases ``verify_family_report`` measures, in its order: the
    slices at orders 2 and 3, then their product."""
    with mock.patch.object(
        polynomials, "staircase_length", wraps=polynomials.staircase_length
    ) as spy:
        polynomials.verify_family_report(params)
    return [call.args[0] for call in spy.call_args_list]
