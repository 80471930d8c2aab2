import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symrees.polynomials
import symrees.presentation
from oracles import all_representations, representable
from symrees import witness
from symrees.cli import main
from symrees.presentation import (
    CurveTriple,
    InternalConsistencyError,
    NotCoprimeError,
    NotThreeGeneratedError,
    compute_presentation,
    is_negative_curve,
    validate_assumptions,
    _minimal_multiple,
)
from symrees.scan import ScanJob, iter_triples


def scan_representable(M, p, q):
    """Literal semigroup-membership scan, used as oracle for representable()."""
    for j in range(M // q + 1):
        if (M - j * q) % p == 0:
            return ((M - j * q) // p, j)
    return None


def test_representable_examples():
    assert representable(56, 19, 9) == (2, 2)  # 56 = 2*19 + 2*9
    assert representable(19, 8, 9) is None
    assert representable(8, 8, 9) == (1, 0)


def test_representable_matches_scan():
    for M in range(1, 400):
        for p, q in [(8, 9), (19, 9), (25, 29), (7, 3), (1, 5)]:
            assert representable(M, p, q) == scan_representable(M, p, q), (M, p, q)


def minimal_multiple_by_scan(w, p, q):
    """Per-k search with representable(), the oracle for _minimal_multiple()."""
    cap = max(1, (p * q - p - q) // w + 1)
    for k in range(1, cap + 1):
        rep = representable(k * w, p, q)
        if rep is not None:
            return k, rep
    raise AssertionError(f"no multiple of {w} representable by ({p}, {q})")


def test_minimal_multiple_matches_per_k_search():
    for a, b, c in iter_triples(ScanJob(60)):
        for w, p, q in ((a, b, c), (b, a, c), (c, a, b)):
            assert _minimal_multiple(w, p, q) == minimal_multiple_by_scan(w, p, q), (w, p, q)


def test_presentation_is_the_minimal_j_witnesses_up_to_60():
    # not three-generated exactly when some minimal multiple is 1; otherwise
    # the nine exponents are the per-k minimal-j witnesses, with no search
    three_generated = 0
    for a, b, c in iter_triples(ScanJob(60)):
        (s, (t1, u1)), (t, (s2, u2)), (u, (s3, t3)) = (
            minimal_multiple_by_scan(a, b, c),
            minimal_multiple_by_scan(b, a, c),
            minimal_multiple_by_scan(c, a, b),
        )
        if 1 in (s, t, u):
            with pytest.raises(NotThreeGeneratedError):
                compute_presentation(CurveTriple(a, b, c))
            continue
        p = compute_presentation(CurveTriple(a, b, c))
        got = (p.s, p.t1, p.u1, p.t, p.s2, p.u2, p.u, p.s3, p.t3)
        assert got == (s, t1, u1, t, s2, u2, u, s3, t3), (a, b, c)
        three_generated += 1
    assert three_generated == 43686


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10**6), st.integers(2, 10**6), st.integers(2, 10**6))
def test_generator_exponents_are_the_unique_bounded_representations(a, b, c):
    # the uniqueness behind compute_presentation's proof: each generator
    # degree has one representation with both coefficients positive and
    # below the partner exponents
    while math.gcd(a, b) != 1:
        b += 1
    while math.gcd(a * b, c) != 1:
        c += 1
    try:
        p = compute_presentation(CurveTriple(a, b, c))
    except NotThreeGeneratedError:
        assume(False)
    cases = [
        (p.s * a, b, c, (p.t, p.u), (p.t1, p.u1)),
        (p.t * b, a, c, (p.s, p.u), (p.s2, p.u2)),
        (p.u * c, a, b, (p.s, p.t), (p.s3, p.t3)),
    ]
    for degree, p_w, q_w, (i_max, j_max), exponents in cases:
        bounded = [
            (i, j)
            for i, j in all_representations(degree, p_w, q_w)
            if 0 < i < i_max and 0 < j < j_max
        ]
        assert bounded == [exponents], (a, b, c, degree)


def test_inconsistent_witness_is_an_internal_error(monkeypatch, capsys):
    assert witness.InternalConsistencyError is InternalConsistencyError
    real = _minimal_multiple

    def skewed(w, p, q):
        k, (i, j) = real(w, p, q)
        return k, (i + 1, j)  # k*w != i*p + j*q

    monkeypatch.setattr(symrees.presentation, "_minimal_multiple", skewed)
    with pytest.raises(InternalConsistencyError):
        compute_presentation(CurveTriple(8, 19, 9))
    assert main(["classify", "8", "19", "9"]) == 4
    assert "internal consistency failure" in capsys.readouterr().err


KNOWN_PRESENTATIONS = {
    # triple -> (s, t1, u1, t, s2, u2, u, s3, t3)
    (8, 19, 9): (7, 2, 2, 3, 6, 1, 3, 1, 1),
    (25, 29, 72): (11, 7, 1, 11, 7, 2, 3, 4, 4),
    (17, 503, 169): (89, 2, 3, 3, 49, 4, 7, 40, 1),
}


@pytest.mark.parametrize("triple,expected", KNOWN_PRESENTATIONS.items())
def test_worked_example_presentations(triple, expected):
    pres = compute_presentation(CurveTriple(*triple))
    s, t1, u1, t, s2, u2, u, s3, t3 = expected
    assert (pres.s, pres.t1, pres.u1) == (s, t1, u1)
    assert (pres.t, pres.s2, pres.u2) == (t, s2, u2)
    assert (pres.u, pres.s3, pres.t3) == (u, s3, t3)


def test_family_base_triple_presentation():
    pres = compute_presentation(CurveTriple(16, 683, 97))
    assert (pres.s, pres.t, pres.u) == (73, 2, 11)
    assert (pres.s2, pres.s3) == (49, 24)
    assert (pres.t1, pres.t3) == (1, 1)
    assert (pres.u1, pres.u2) == (5, 6)


def test_degree_identities_hold():
    pres = compute_presentation(CurveTriple(8, 19, 9))
    a, b, c = 8, 19, 9
    assert pres.s * a == pres.t1 * b + pres.u1 * c
    assert pres.t * b == pres.s2 * a + pres.u2 * c
    assert pres.u * c == pres.s3 * a + pres.t3 * b
    assert a == pres.t * pres.u - pres.t3 * pres.u2
    assert b == pres.s * pres.u - pres.s3 * pres.u1
    assert c == pres.s * pres.t - pres.s2 * pres.t1
    assert (pres.deg_f, pres.deg_g, pres.deg_h) == (56, 57, 27)


def test_minimality_of_s_t_u_by_exhaustive_scan():
    pres = compute_presentation(CurveTriple(8, 19, 9))
    for k in range(1, pres.s):
        assert scan_representable(k * 8, 19, 9) is None
    for k in range(1, pres.t):
        assert scan_representable(k * 19, 8, 9) is None
    for k in range(1, pres.u):
        assert scan_representable(k * 9, 8, 19) is None


def test_not_coprime_rejected():
    with pytest.raises(NotCoprimeError):
        compute_presentation(CurveTriple(6, 10, 15))
    with pytest.raises(NotCoprimeError):
        compute_presentation(CurveTriple(4, 6, 9))


def test_complete_intersections_rejected():
    # (2, 3, 5): z - xy and x^3 - y^2 generate, so only two generators
    with pytest.raises(NotThreeGeneratedError):
        compute_presentation(CurveTriple(2, 3, 5))
    # weight 1 forces s = 1 or t = 1 or u = 1
    with pytest.raises(NotThreeGeneratedError):
        compute_presentation(CurveTriple(1, 2, 3))


def test_positive_weights_required():
    with pytest.raises(ValueError):
        CurveTriple(0, 2, 3)


def test_assumptions_on_worked_examples():
    for triple in [(8, 19, 9), (25, 29, 72), (17, 503, 169)]:
        report = validate_assumptions(compute_presentation(CurveTriple(*triple)))
        assert report.all_hold, triple


def test_assumption_iii_fails_for_order_two_family_triple():
    pres = compute_presentation(CurveTriple(16, 683, 97))
    report = validate_assumptions(pres)
    assert report.pairwise_coprime and report.three_generated
    assert not report.negative_curve_iii  # 11^2 * 97 = 11737 > 16 * 683 = 10928
    assert not report.all_hold
    assert not is_negative_curve(pres.deg_h, 1, (pres.a, pres.b, pres.c))


def test_negative_curve_condition_is_exact_integer_comparison():
    pres = compute_presentation(CurveTriple(8, 19, 9))
    assert pres.u**2 * pres.c == 81
    assert pres.a * pres.b == 152
    assert is_negative_curve(pres.deg_h, 1, (pres.a, pres.b, pres.c))
    assert symrees.polynomials.is_negative_curve is is_negative_curve  # written once
