"""Plain rational reference implementations that only the tests use.

Each one is the straightforward route the package's faster code must agree
with: a Fraction reduced row echelon form (unique, so it pins down ranks,
pivots and the canonical kernel basis), matrix-vector products, the
shift-substitution membership test with Fraction coefficients, the
derivative system in its falling-factorial (spec) form, the GK interval
counts in Fraction arithmetic, and the ``dataclasses.asdict`` record encoding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from symrees.lattice import LatticePoint, enumerate_points
from symrees.linalg import QMatrix
from symrees.witness import derivative_orders


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
