"""The Zariski-Nagata jet system on the x, y, z monomials agrees with the package.

A weighted-homogeneous f lies in p^(n) exactly when f(1, y, z) vanishes to
order n at (1, 1).  The system of that condition (``oracles.jet_decision``)
needs only the weights (a, b, c); the package decides through the Herzog
presentation and the (v, w) triangle, so a wrong exponent or a wrong
triangle would show here.
"""

import math

from oracles import jet_decision
from symrees.lattice import column_counts
from symrees.witness import classify, piece_dimension


def test_jet_verdict_matches_classify_up_to_30(validated_30):
    # Noetherian exactly when the y^a column of the degree-ab, order-u system
    # lies in the span of the other monomials
    assert len(validated_30) == 1158
    for p in validated_30:
        _, _, pivot = jet_decision((p.a, p.b, p.c), p.a * p.b, p.u)
        assert classify(p.triple).noetherian is not pivot, p.triple


def test_jet_pieces_match_the_column_profile_up_to_20(validated_30):
    # one column per monomial of degree e*ab, one per lattice point of e*D
    cases = 0
    for p in validated_30:
        if max(p.a, p.b, p.c) > 20:
            continue
        for e, n in ((1, p.u), (1, p.u - 1), (2, p.u + 1)):
            columns, rank, _ = jet_decision((p.a, p.b, p.c), e * p.a * p.b, n)
            assert columns == 1 + sum(column_counts(p, e)), (p.triple, e)
            assert columns - rank == piece_dimension(p, e, n), (p.triple, e, n)
            cases += 1
    assert cases == 876


def test_no_partner_of_xi_below_order_u_up_to_30(validated_30):
    # Theorem Kmain1 puts the partner of xi (degree uc, in p) in p^(u), degree
    # ab.  By weighted Bezout a Huneke partner of xi in p^(r) has degree
    # r*ab/u; it has a pure power of y, y^(r*a/u), only when u divides r*a,
    # which for some r < u happens exactly when gcd(u, a) > 1.  At each such
    # r the y power column is a pivot: no element of that piece has the term.
    checked = 0
    for p in validated_30:
        step = p.u // math.gcd(p.u, p.a)
        if step == p.u:
            continue
        for r in range(step, p.u, step):
            _, _, pivot = jet_decision((p.a, p.b, p.c), r * p.a * p.b // p.u, r)
            assert pivot, (p.triple, r)
        checked += 1
    assert checked == 152
