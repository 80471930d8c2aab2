import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    beta_range,
    fraction_left_count,
    fraction_nm,
    fraction_right_count,
    interval_lattice_count,
    slopes,
    vertices,
)
from symrees.criteria import _left_count, _right_count
from symrees.lattice import (
    DeltaRegion,
    LatticePoint,
    column_counts,
    column_top,
    compute_nm,
    count_points,
    enumerate_points,
)
from symrees.presentation import CurveTriple, NotThreeGeneratedError, compute_presentation
from symrees.scan import ScanJob, iter_triples


def pres(a, b, c):
    return compute_presentation(CurveTriple(a, b, c))


def test_points_8_19_9_exact_list():
    pts = enumerate_points(pres(8, 19, 9), 1)
    assert pts == [
        (0, 0),
        (1, 0), (1, -1), (1, -2), (1, -3), (1, -4), (1, -5),
        (2, 0), (2, -1), (2, -2),
        (3, 1),
    ]
    assert pts[0] == LatticePoint(0, 0)


def test_points_25_29_72_exact_list():
    pts = enumerate_points(pres(25, 29, 72), 1)
    assert pts == [(0, 0), (1, 0), (1, -1), (2, 1), (2, 0), (3, 2)]


def test_points_17_503_169_column_profile():
    pts = enumerate_points(pres(17, 503, 169), 1)
    assert len(pts) == 28
    per_column = [sum(1 for p in pts if p.alpha == a) for a in range(8)]
    assert per_column == [1, 2, 4, 5, 7, 5, 3, 1]


def test_column_counts_match_worked_examples():
    assert column_counts(pres(8, 19, 9)) == (6, 3, 1)
    assert column_counts(pres(25, 29, 72)) == (2, 2, 1)
    assert column_counts(pres(17, 503, 169)) == (2, 4, 5, 7, 5, 3, 1)


def test_point_total_is_one_plus_column_sum():
    for triple in [(8, 19, 9), (25, 29, 72), (17, 503, 169)]:
        p = pres(*triple)
        assert len(enumerate_points(p, 1)) == 1 + sum(column_counts(p))


def test_last_column_has_single_point(validated_30):
    # the upper and lower-right boundary lines meet at (u, u2)
    for p in validated_30:
        assert column_counts(p)[-1] == 1


def test_region_slopes_and_vertices_8_19_9():
    region = DeltaRegion(pres(8, 19, 9), 1)
    assert slopes(region) == (Fraction(-6), Fraction(1, 3), Fraction(3))
    v0, v1, v2 = vertices(region)
    assert v0 == (0, 0)
    assert v1 == (3, 1)
    assert v2 == (Fraction(8, 9), Fraction(-16, 3))


def test_monomial_positivity_equivalence(validated_30):
    # (alpha, beta) lies in the region iff y^(ea) v^alpha w^beta has
    # nonnegative x, y, z exponents; checked pointwise on a surrounding box
    for p in validated_30[::7]:
        for e in (1, 2):
            region = DeltaRegion(p, e)
            points = set(enumerate_points(p, e))
            beta_lo = min((b for _, b in points), default=0) - 2
            beta_hi = max((b for _, b in points), default=0) + 2
            for alpha in range(-1, e * p.u + 2):
                for beta in range(beta_lo, beta_hi + 1):
                    pt = LatticePoint(alpha, beta)
                    exps = region.monomial_exponents(pt)
                    assert (min(exps) >= 0) == (pt in points), (p.triple, e, pt)


def test_scaled_region_contains_scaled_integer_vertices(validated_30):
    for p in validated_30[::11]:
        for e in (2, 3):
            region = DeltaRegion(p, e)
            assert region.contains(0, 0)
            assert region.contains(e * p.u, e * p.u2)
            d1, d2 = vertices(region)[2]
            if d1.denominator == 1 and d2.denominator == 1:
                assert region.contains(int(d1), int(d2))


def test_interval_lattice_count_examples():
    assert interval_lattice_count(Fraction(-7, 4), Fraction(2, 3)) == 2  # {-1, 0}
    assert interval_lattice_count(Fraction(1, 3), Fraction(3)) == 3  # {1, 2, 3}
    assert interval_lattice_count(Fraction(2, 3), Fraction(2, 3)) == 0
    assert interval_lattice_count(Fraction(2), Fraction(2)) == 1
    assert interval_lattice_count(Fraction(3), Fraction(1)) == 0


def test_interval_lattice_count_brute_force():
    for num_lo in range(-12, 12):
        for num_hi in range(-12, 12):
            lo, hi = Fraction(num_lo, 4), Fraction(num_hi, 4)
            expected = sum(1 for k in range(-5, 5) if lo <= k <= hi)
            assert interval_lattice_count(lo, hi) == expected


def test_compute_nm_worked_examples():
    assert compute_nm(pres(25, 29, 72)) == (2, 2)
    assert compute_nm(pres(17, 503, 169)) == (2, 3)
    assert compute_nm(pres(8, 19, 9)) == (7, 3)


def test_enumeration_rejects_bad_scale():
    with pytest.raises(ValueError):
        enumerate_points(pres(8, 19, 9), 0)


def test_column_bounds_match_exact_boundary_arithmetic(validated_30):
    # the integer fast path must agree with floor/ceil of the Fraction form,
    # and so must the column profile at every scale and each column's top
    for p in validated_30[::17]:
        for e in (1, 2, 3):
            region = DeltaRegion(p, e)
            points = enumerate_points(p, e)
            counts = column_counts(p, e)
            assert count_points(p, e) == len(points) == 1 + sum(counts), (p.triple, e)
            assert len(counts) == e * p.u, (p.triple, e)
            for alpha in range(e * p.u + 1):
                lo, hi = beta_range(region, alpha)
                betas = sorted(pt.beta for pt in points if pt.alpha == alpha)
                expected = list(range(math.ceil(lo), math.floor(hi) + 1))
                assert betas == expected, (p.triple, e, alpha)
                if alpha:
                    assert counts[alpha - 1] == len(betas), (p.triple, e, alpha)
                    assert column_top(p, alpha) == math.floor(hi), (p.triple, e, alpha)


def tallied_column_counts(p):
    """Oracle for column_counts: per-column tally of the enumerated points."""
    tally = Counter(pt.alpha for pt in enumerate_points(p, 1))
    return tuple(tally[alpha] for alpha in range(1, p.u + 1))


def test_column_counts_match_enumeration_up_to_40():
    # every three-generated triple, inapplicable ones included
    checked = 0
    for triple in iter_triples(ScanJob.upto(40)):
        try:
            p = pres(*triple)
        except NotThreeGeneratedError:
            continue
        assert column_counts(p) == tallied_column_counts(p), triple
        checked += 1
    assert checked > 10000


def next_coprime(n, m):
    """Least integer >= m that is coprime to n."""
    while math.gcd(n, m) > 1:
        m += 1
    return m


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10**4), st.integers(2, 10**4), st.integers(2, 10**4))
def test_column_counts_match_enumeration_property(a, b, c):
    b = next_coprime(a, b)
    c = next_coprime(a * b, c)
    try:
        p = pres(a, b, c)
    except NotThreeGeneratedError:
        assume(False)
    # twice the area of D is a*(u*s2 + u2*s3)/c; skip triangles beyond ~10^5 points
    assume(p.a * (p.u * p.s2 + p.u2 * p.s3) <= 2 * 10**5 * p.c)
    assert column_counts(p) == tallied_column_counts(p)


def assert_integer_gk_counts_match_fractions(p):
    assert compute_nm(p) == fraction_nm(p), p.triple
    for scale in range(p.u + 1):
        assert _right_count(p, scale) == fraction_right_count(p, scale), (p.triple, scale)
        assert _left_count(p, scale) == fraction_left_count(p, scale), (p.triple, scale)


def test_integer_gk_counts_match_fractions_up_to_40():
    # every three-generated triple, inapplicable ones included
    checked = 0
    for triple in iter_triples(ScanJob.upto(40)):
        try:
            p = pres(*triple)
        except NotThreeGeneratedError:
            continue
        assert_integer_gk_counts_match_fractions(p)
        checked += 1
    assert checked > 10000


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10**4), st.integers(2, 10**4), st.integers(2, 10**4))
def test_integer_gk_counts_match_fractions_property(a, b, c):
    b = next_coprime(a, b)
    c = next_coprime(a * b, c)
    try:
        p = pres(a, b, c)
    except NotThreeGeneratedError:
        assume(False)
    assert_integer_gk_counts_match_fractions(p)
