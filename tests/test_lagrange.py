"""The interpolating row basis of the derivative systems.

For each order l in w the package replaces the rows C(alpha, k) * f[l],
k < m = n - l, by L_i^(m)(alpha) * f[l], i < m, with L_i^(m) the integer
Lagrange basis at the nodes 0..m-1.  The values of ``_lagrange_values`` (a
closed form in C(alpha, m), one table per system) and of the dense
Pascal-table oracle are checked against the Fraction product and against
each other, the change of basis against the binomial basis, the rows
against the binomial-scaled system of ``oracles.scaled_rows``, and the
sparse row builder against the dense one, entry for entry and in the same
order.
"""

import random
from fractions import Fraction

from oracles import QMatrix, dense_system_rows, lagrange_table, rref, scaled_rows
from symrees.lattice import LatticePoint
from symrees.witness import _lagrange_values, _point_columns, _system_rows

M_MAX = 20


def lagrange_product(m, i, alpha):
    value = Fraction(1)
    for h in range(m):
        if h != i:
            value *= Fraction(alpha - h, i - h)
    return value


def binom(x, k):
    # C(x, k) for any integer x >= 0 here
    value = Fraction(1)
    for j in range(k):
        value = value * (x - j) / (j + 1)
    return value


def determinant(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c]), None)
        if r is None:
            return Fraction(0)
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def lagrange_columns(m, top):
    # values[i][alpha] = L_i^(m)(alpha), alpha = 0..top: the package's values
    # beyond the nodes, delta(i, alpha) on them
    by_alpha = _lagrange_values(m, range(top + 1))
    return [
        [by_alpha[alpha][m][i] if alpha >= m else int(i == alpha) for alpha in range(top + 1)]
        for i in range(m)
    ]


def test_lagrange_recurrence_matches_the_table_for_every_order():
    # one table per system of order n holds L^(m)(alpha) for every m <= n
    # beyond the nodes (m <= alpha)
    for n in range(1, 25):
        top = 2 * n + 3
        table = lagrange_table(top, n)
        values = _lagrange_values(n, range(top + 1))
        for alpha in range(top + 1):
            assert len(values[alpha]) == min(alpha, n) + 1, (n, alpha)
            for m in range(min(alpha, n) + 1):
                assert values[alpha][m] == [table[m][i][alpha] for i in range(m)], (n, alpha, m)


def test_lagrange_table_values():
    # the package's values and the Pascal-table oracle, at the nodes and
    # beyond, against the Fraction product
    table = lagrange_table(3 * M_MAX, M_MAX)
    for m in range(1, M_MAX + 1):
        got = lagrange_columns(m, 3 * m)
        assert len(got) == len(table[m]) == m
        for i, values in enumerate(got):
            for alpha in range(3 * m + 1):
                want = lagrange_product(m, i, alpha)
                if alpha < m:
                    assert values[alpha] == (alpha == i), (m, i, alpha)
                assert values[alpha] == table[m][i][alpha] == want, (m, i, alpha)
                assert type(values[alpha]) is int


def test_lagrange_basis_is_a_unimodular_change_of_the_binomial_basis():
    # L_i = sum_k T[i][k] C(alpha, k) with T[i][k] the k-th forward difference
    # of L_i at 0; T must be integral with determinant +-1 and reproduce the
    # values at every alpha <= 3m
    for m in range(1, M_MAX + 1):
        columns = lagrange_columns(m, 3 * m)
        change = [
            [sum((-1) ** (k - j) * binom(k, j) * values[j] for j in range(k + 1)) for k in range(m)]
            for values in columns
        ]
        assert all(x.denominator == 1 for row in change for x in row), m
        assert abs(determinant(change)) == 1, m
        for i, values in enumerate(columns):
            for alpha in range(3 * m + 1):
                assert values[alpha] == sum(t * binom(alpha, k) for k, t in enumerate(change[i]))


def test_lagrange_table_small_top():
    # alpha at or below the node count: the package's values and the
    # oracle's lists still hold L_i^(m) at 0..top, and a system whose columns
    # all sit on nodes gets the unit rows
    for top in range(7):
        table = lagrange_table(top, 6)
        for m in range(1, 7):
            got = lagrange_columns(m, top)
            for i in range(m):
                want = [lagrange_product(m, i, alpha) for alpha in range(top + 1)]
                assert got[i] == table[m][i][:top + 1] == want, (top, m, i)
        cols = [(alpha, [1] * 6) for alpha in range(top + 1)]
        assert _system_rows(cols, 6) == dense_system_rows(cols, 6), top


def test_system_rows_match_the_dense_builder():
    # rows and order, on random point sets with negative ordinates, repeats in
    # a column, alphas beyond the nodes and columns that vanish at some orders
    rng = random.Random(7)
    for _ in range(300):
        alphas = rng.sample(range(15), rng.randint(1, 7))
        points = sorted(
            {LatticePoint(al, rng.randint(-6, 6)) for al in alphas for _ in range(rng.randint(1, 4))}
        )
        n = rng.randint(1, 8)
        cols = _point_columns(points, n)
        assert _system_rows(cols, n) == dense_system_rows(cols, n), (points, n)


def test_system_rows_span_the_binomial_row_space():
    # same row space and reduced row echelon form as the binomial-scaled
    # system on random point sets, negative ordinates and repeats in a
    # column included; rows come sparsest first
    rng = random.Random(5)
    for _ in range(150):
        alphas = rng.sample(range(12), rng.randint(1, 6))
        points = sorted(
            {LatticePoint(al, rng.randint(-6, 6)) for al in alphas for _ in range(rng.randint(1, 4))}
        )
        n = rng.randint(1, 7)
        got = _system_rows(_point_columns(points, n), n)
        want = scaled_rows(points, n)
        assert all(any(row) for row in got)
        counts = [len(row) - row.count(0) for row in got]
        assert counts == sorted(counts)
        if want:
            got_rref, got_pivots = rref(QMatrix(got))
            want_rref, want_pivots = rref(QMatrix(want))
            assert got_pivots == want_pivots, (points, n)
            rank = len(want_pivots)
            assert got_rref[:rank] == want_rref[:rank], (points, n)
        else:
            assert got == []
