"""The interpolating row basis of the derivative systems.

For each order l in w the package replaces the rows C(alpha, k) * f[l],
k < m = n - l, by L_i^(m)(alpha) * f[l], i < m, with L_i^(m) the integer
Lagrange basis at the nodes 0..m-1.  The table is checked against the
Fraction product, the change of basis against the binomial basis, and the
rows against the binomial-scaled system of ``oracles.scaled_rows``.
"""

import random
from fractions import Fraction

from oracles import QMatrix, rref, scaled_rows
from symrees.lattice import LatticePoint
from symrees.witness import _lagrange_table, _point_columns, _system_rows

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


def test_lagrange_table_values():
    table = _lagrange_table(3 * M_MAX, M_MAX)
    for m in range(1, M_MAX + 1):
        assert len(table[m]) == m
        for i, values in enumerate(table[m]):
            for alpha in range(3 * m + 1):
                if alpha < m:
                    assert values[alpha] == (alpha == i), (m, i, alpha)
                assert values[alpha] == lagrange_product(m, i, alpha), (m, i, alpha)
                assert type(values[alpha]) is int


def test_lagrange_basis_is_a_unimodular_change_of_the_binomial_basis():
    # L_i = sum_k T[i][k] C(alpha, k) with T[i][k] the k-th forward difference
    # of L_i at 0; T must be integral with determinant +-1 and reproduce the
    # table at every alpha <= 3m
    table = _lagrange_table(3 * M_MAX, M_MAX)
    for m in range(1, M_MAX + 1):
        change = [
            [sum((-1) ** (k - j) * binom(k, j) * values[j] for j in range(k + 1)) for k in range(m)]
            for values in table[m]
        ]
        assert all(x.denominator == 1 for row in change for x in row), m
        assert abs(determinant(change)) == 1, m
        for i, values in enumerate(table[m]):
            for alpha in range(3 * m + 1):
                assert values[alpha] == sum(t * binom(alpha, k) for k, t in enumerate(change[i]))


def test_lagrange_table_small_top():
    # top at or below the node count: the lists still hold L_i^(m) at 0..top
    for top in range(7):
        table = _lagrange_table(top, 6)
        for m in range(1, 7):
            for i, values in enumerate(table[m]):
                want = [lagrange_product(m, i, alpha) for alpha in range(top + 1)]
                assert values[:top + 1] == want, (top, m, i)


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
