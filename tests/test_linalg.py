import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    QMatrix,
    assert_lazy_echelon_matches_eager,
    falling_factorial,
    mul_vector,
    reduce_against,
    rref,
    rref_null_space,
)
from symrees.linalg import _echelon


def test_falling_factorial_base_cases():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(2, 3) == 0  # factor hits zero
    assert falling_factorial(-2, 3) == (-2) * (-3) * (-4) == -24
    assert falling_factorial(7, 1) == 7
    assert falling_factorial(4, 4) == 24


def _binom_any(n: int, k: int) -> int:
    # binomial extended to negative n by the polynomial identity
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


@given(st.integers(-40, 40), st.integers(0, 12))
def test_falling_factorial_is_k_factorial_times_binomial(n, k):
    assert falling_factorial(n, k) == math.factorial(k) * _binom_any(n, k)


def test_rank_examples():
    assert QMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]).rank() == 0
    assert QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3
    assert QMatrix([[1, 2], [2, 4]]).rank() == 1


def test_rank_with_fractions():
    m = QMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]])
    assert m.rank() == 2
    # second row = (3/2) * first
    m2 = QMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)]])
    assert m2.rank() == 1


def test_null_space_examples():
    assert QMatrix([[1, 0], [0, 1]]).null_space() == []
    basis = QMatrix([[1, 1]]).null_space()
    assert len(basis) == 1
    x = basis[0]
    assert x[0] == -x[1] != 0
    basis = QMatrix([[1, 2, 3]]).null_space()
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + 2 * vec[1] + 3 * vec[2] == 0


def test_row_space_contains_examples():
    assert QMatrix([[1, 0], [0, 1]]).row_space_contains([1, 0])
    assert not QMatrix([[0, 0]]).row_space_contains([1, 0])
    # (1, 0) = (row1 + row2) / 2
    assert QMatrix([[1, 1], [1, -1]]).row_space_contains([1, 0])
    assert QMatrix([[1, 1], [1, -1]]).row_space_contains([0, 0])
    assert not QMatrix([[1, 1, 0], [0, 0, 1]]).row_space_contains([1, 0, 0])


def _random_matrix(rng, rows, cols, denom=False):
    def entry():
        v = rng.randint(-6, 6)
        if denom and rng.random() < 0.3:
            return Fraction(v, rng.randint(1, 5))
        return v

    return QMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


def test_rank_nullity_and_kernel_exactness_random():
    rng = random.Random(24001)
    for _ in range(250):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols, denom=True)
        basis = m.null_space()
        assert m.rank() + len(basis) == m.cols
        for vec in basis:
            assert all(v == 0 for v in mul_vector(m, vec))


def test_row_space_membership_matches_kernel_orthogonality():
    # v in rowspace(M)  <=>  v is orthogonal to every kernel vector
    rng = random.Random(24002)
    for _ in range(250):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        v = [rng.randint(-4, 4) for _ in range(cols)]
        via_rank = m.row_space_contains(v)
        via_kernel = all(
            sum(Fraction(a) * b for a, b in zip(v, x)) == 0 for x in rref_null_space(m)
        )
        assert via_rank == via_kernel


def test_null_space_matches_rref_basis():
    # the canonical basis is a function of the RREF, which is unique, so the
    # back-substituted vectors must equal the oracle's entry for entry
    rng = random.Random(24005)
    cases = [_random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), denom=True) for _ in range(300)]
    cases += [
        QMatrix([[0, 0, 0]]),
        QMatrix([[0, 0, 0], [0, 0, 0]]),
        QMatrix([[0, 0, 0], [1, 2, 3], [0, 0, 0], [2, 4, 6]]),
        QMatrix([[0, 1, 0, 2], [0, 0, 0, 0], [0, 3, 1, 0]]),
    ]
    for _ in range(20):
        cases.append(_random_matrix(rng, rng.randint(1, 3), rng.randint(7, 12), denom=True))  # wide
        cases.append(_random_matrix(rng, rng.randint(7, 12), rng.randint(1, 3), denom=True))  # tall
    for m in cases:
        assert m.null_space() == rref_null_space(m), m.entries


def test_reduced_unit_guard_marks_basis_vectors_nonzero_at_its_column():
    # the unit row e_j reduces to a multiple of e_j - R[r_j]: nonzero at a
    # free column exactly when that column's canonical basis vector is
    # nonzero at j, which is how the witness oracles choose the witness column
    rng = random.Random(24006)
    for _ in range(150):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), denom=True)
        _, pivots = rref(m)
        free = [c for c in range(m.cols) if c not in pivots]
        basis = rref_null_space(m)
        for j in range(m.cols):
            unit = [0] * m.cols
            unit[j] = 1
            guard = reduce_against(m.echelon(), unit)
            marked = [c for c in range(m.cols) if guard[c] != 0]
            assert marked == [f for f, vec in zip(free, basis) if vec[j] != 0], (m.entries, j)


def test_rank_matches_rref_pivot_count_random():
    rng = random.Random(24003)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols, denom=True)
        _, pivots = rref(m)
        assert m.rank() == len(pivots)
        assert m.echelon().pivots == pivots


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=1, max_size=5))
def test_appending_spanned_row_keeps_rank(rows):
    m = QMatrix(rows)
    combo = [sum(r[j] for r in rows) for j in range(3)]
    assert m.row_space_contains(combo)
    stacked = QMatrix(rows + [combo])
    assert stacked.rank() == m.rank()


def _sparse_matrices(zero_frac):
    # sparse rows give runs of zeros in the pivot column, rows the
    # elimination leaves in their buckets; zero rows and ties in magnitude
    # exercise the pivot rule's tie break on the input row index
    rng = random.Random(24007 + int(100 * zero_frac))

    def row(cols):
        return [0 if rng.random() < zero_frac else rng.randint(-6, 6) for _ in range(cols)]

    for _ in range(300):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        yield [row(ncols) for _ in range(nrows)], ncols


@pytest.mark.parametrize("zero_frac", [0, 0.3, 0.6, 0.85])
def test_lazy_echelon_matches_eager_oracle(zero_frac):
    for rows, ncols in _sparse_matrices(zero_frac):
        assert_lazy_echelon_matches_eager(rows, ncols)
        # and the RREF, on these small matrices: its pivots and its kernel basis
        matrix = QMatrix(rows)
        assert matrix.echelon().pivots == rref(matrix)[1], rows
        assert matrix.null_space() == rref_null_space(matrix), rows


def test_pivot_ties_go_to_the_earliest_input_row():
    # column 1 ties between input rows 0 and 1 (entries -1 and 1, which the
    # pivot -1 of row 2 leaves as they are); row 0 wins and is kept as it
    # was given, although an eager kernel that swaps row 2 to the top would
    # have moved row 1 ahead of it
    reduced = _echelon([[0, -1], [0, 1], [-1, 0]], 2)
    assert (reduced.rows, reduced.pivots) == ([[-1, 0], [0, -1]], [0, 1])
    assert_lazy_echelon_matches_eager([[0, -1], [0, 1], [-1, 0]], 2)


def last_column_is_pivot(rows):
    # the witness test's rule, against the canonical kernel basis: the last
    # column is a pivot exactly when every kernel vector is zero there
    m = QMatrix(rows)
    pivots = m.echelon().pivots
    pivot = bool(pivots) and pivots[-1] == m.cols - 1
    assert pivot is all(vec[-1] == 0 for vec in rref_null_space(m)), rows
    return pivot


def test_last_column_is_a_pivot_iff_every_kernel_vector_is_zero_there():
    # on the sparse matrices above, each column moved last; then a
    # combination of the other columns, which is never a pivot, and a unit
    # column on a fresh row, which always is
    rng = random.Random(24008)
    seen = set()
    for zero_frac in (0, 0.3, 0.6, 0.85):
        for rows, ncols in _sparse_matrices(zero_frac):
            for j in range(ncols):
                seen.add(last_column_is_pivot([r[:j] + r[j + 1:] + [r[j]] for r in rows]))
            weights = [rng.randint(-3, 3) for _ in range(ncols)]
            combo = [sum(w * x for w, x in zip(weights, r)) for r in rows]
            assert not last_column_is_pivot([r + [x] for r, x in zip(rows, combo)]), rows
            assert last_column_is_pivot([r + [0] for r in rows] + [[0] * ncols + [1]]), rows
    assert seen == {False, True}


def test_column_labels_must_be_distinct():
    with pytest.raises(ValueError):
        QMatrix([[1, 2]], col_labels=["a", "a"])
