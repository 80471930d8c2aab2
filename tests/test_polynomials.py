import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symrees.polynomials
from oracles import (
    curve_substitution_fraction,
    minimal_generators,
    product_23_slice_gens,
    report_staircases,
    second_power_slice_gens,
    third_power_slice_gens,
)
from symrees.cli import main
from symrees.polynomials import (
    FamilyCheck,
    FamilyParams,
    FamilyRejectionError,
    InfiniteColengthError,
    NotDivisibleError,
    SparsePoly,
    _times,
    _xi,
    _zeta,
    build_generators,
    check_minor_relations,
    curve_substitution_zero,
    generate_family,
    is_negative_curve,
    staircase_length,
    verify_family_report,
)
from symrees.presentation import CurveTriple, HerzogPresentation, compute_presentation


def family_16_683_97():
    return generate_family(Fraction(6, 5), Fraction(49, 24), 1, 1)


def test_sparse_poly_arithmetic():
    x = SparsePoly({(1, 0, 0): 1})
    y = SparsePoly({(0, 1, 0): 1})
    p = (x + y) * (x - y)
    assert p == SparsePoly({(2, 0, 0): 1, (0, 2, 0): -1})
    assert (p - p).is_zero()
    assert (x + y) ** 2 == SparsePoly({(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1})


def test_divide_exact():
    p = SparsePoly({(2, 1, 0): 1, (3, 0, 0): -1})  # x^2 y - x^3
    assert p.divide_exact((2, 0, 0)) == SparsePoly({(0, 1, 0): 1, (1, 0, 0): -1})
    q = SparsePoly({(2, 1, 0): 1, (0, 3, 0): -1})  # x^2 y - y^3
    with pytest.raises(NotDivisibleError) as err:
        q.divide_exact((1, 0, 0))
    assert err.value.term == (0, 3, 0)


def test_generators_8_19_9():
    f, g, h = build_generators(compute_presentation(CurveTriple(8, 19, 9)))
    assert f == SparsePoly({(7, 0, 0): 1, (0, 2, 2): -1})
    assert g == SparsePoly({(0, 3, 0): 1, (6, 0, 1): -1})
    assert h == SparsePoly({(0, 0, 3): 1, (1, 1, 0): -1})
    assert f.weighted_degree((8, 19, 9)) == 56
    assert g.weighted_degree((8, 19, 9)) == 57
    assert h.weighted_degree((8, 19, 9)) == 27


def test_generators_16_683_97():
    params = family_16_683_97()
    assert params.presentation.triple == CurveTriple(16, 683, 97)
    f, g, h = build_generators(params.presentation)
    assert f == SparsePoly({(73, 0, 0): 1, (0, 1, 5): -1})
    assert g == SparsePoly({(0, 2, 0): 1, (49, 0, 6): -1})
    assert h == SparsePoly({(0, 0, 11): 1, (24, 1, 0): -1})
    for poly in (f, g, h):
        assert poly.is_homogeneous((16, 683, 97))


def test_minor_relations():
    for source in (compute_presentation(CurveTriple(8, 19, 9)), family_16_683_97().presentation):
        f, g, h = build_generators(source)
        assert check_minor_relations(f, g, h, source)


def test_minor_relations_detect_mutation():
    p = family_16_683_97().presentation
    f, g, h = build_generators(p)
    broken = f + SparsePoly({(0, 0, 0): 1})
    assert not check_minor_relations(broken, g, h, p)


def test_xi_identities_and_degree():
    p = family_16_683_97().presentation
    xi, companion, slice_ok = _xi(p, *build_generators(p))
    assert companion and slice_ok
    assert xi.slice_x0() == {(3, 0): 1}
    assert xi.weighted_degree((16, 683, 97)) == 2049 == 3 * p.b
    assert is_negative_curve(2049, 2, (16, 683, 97))  # 2049^2 < 4*16*683*97


def test_zeta_identities():
    p = family_16_683_97().presentation
    f, g, h = build_generators(p)
    zeta, companion, slice_ok = _zeta(p, f, h, _xi(p, f, g, h)[0])
    assert companion and slice_ok
    assert zeta.slice_x0() == {(4, 4): -1}  # 2u1 - u2 = 4
    assert zeta.weighted_degree((16, 683, 97)) == 4 * p.b + 4 * p.c == 3120


def test_admissible_parameters_always_pass_the_gates():
    p = generate_family(Fraction(6, 5), Fraction(49, 24), 3, 2).presentation
    f, g, h = build_generators(p)
    xi, *xi_clauses = _xi(p, f, g, h)
    _, *zeta_clauses = _zeta(p, f, h, xi)
    assert xi_clauses == zeta_clauses == [True, True]


def test_report_fails_data_outside_the_construction_range():
    # u2 = 5 >= 2*u1 = 4: xi is built, but 2u1 - u2 = -1 leaves z^-1 in
    # the order-3 numerator, which x^s3 does not divide
    zeta_out = HerzogPresentation(
        CurveTriple(9, 59, 11), 9, 2, 7, s2=7, s3=2, t1=1, t3=1, u1=2, u2=5
    )
    assert verify_family_report(FamilyParams(Fraction(5, 2), Fraction(7, 2), 1, 1, zeta_out)) == [
        FamilyCheck("generator syzygies", True),
        FamilyCheck("exponent inequalities s2 > 2*s3, u1 < u2 < 2*u1", False),
        FamilyCheck("order-2 element: x^s3 divides z^(u2-u1) f^2 - g h", True),
        FamilyCheck("order-2 companion: z^u1 xi = x^(s2-s3) h^2 - f g", True),
        FamilyCheck("order-2 slice: xi = y^3 mod (x)", True),
        FamilyCheck(
            "order-2 element is a negative curve", False, "deg^2 = 31329 vs 4abc = 23364"
        ),
        FamilyCheck(
            "order-3 element: x^s3 divides f^3 + z^(2u1-u2) h xi",
            False,
            "term x^2 y^4 z^-1 not divisible by (2, 0, 0)",
        ),
    ]
    # t1 = 2 and u2 = 1 < u1 = 2: the order-2 numerator has the term y^3 z^3
    xi_out = compute_presentation(CurveTriple(8, 19, 9))
    assert verify_family_report(FamilyParams(Fraction(1, 2), Fraction(6), 1, 1, xi_out)) == [
        FamilyCheck("generator syzygies", True),
        FamilyCheck("exponent inequalities s2 > 2*s3, u1 < u2 < 2*u1", False),
        FamilyCheck(
            "order-2 element: x^s3 divides z^(u2-u1) f^2 - g h",
            False,
            "term x^0 y^3 z^3 not divisible by (1, 0, 0)",
        ),
    ]


def test_staircase_lengths():
    assert staircase_length(((1, 0), (0, 1))) == 1
    assert staircase_length(((3, 0), (2, 10), (1, 16), (0, 22))) == 48
    assert staircase_length(((5, 0), (4, 4), (3, 11), (2, 21), (1, 27), (0, 33))) == 96
    with pytest.raises(InfiniteColengthError):
        staircase_length(((1, 1),))


def test_staircase_brute_force_cross_check():
    rng = random.Random(77001)
    for _ in range(60):
        gens = [(rng.randint(1, 6), 0), (0, rng.randint(1, 6))]
        gens += [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(0, 4))]
        expected = sum(
            1
            for i in range(8)
            for j in range(8)
            if not any(gi <= i and gj <= j for gi, gj in gens)
        )
        assert staircase_length(tuple(gens)) == expected


def test_times_matches_a_brute_force_product():
    # y^i z^j lies in IJ when it splits as a monomial of I times one of J
    def member(ideal, i, j):
        return any(gi <= i and gj <= j for gi, gj in ideal)

    def outside_product(ideal_i, ideal_j):
        rows = min(i for i, j in ideal_i if j == 0) + min(i for i, j in ideal_j if j == 0)
        cols = min(j for i, j in ideal_i if i == 0) + min(j for i, j in ideal_j if i == 0)
        return sum(
            1
            for i in range(rows)
            for j in range(cols)
            if not any(
                member(ideal_i, i1, j1) and member(ideal_j, i - i1, j - j1)
                for i1 in range(i + 1)
                for j1 in range(j + 1)
            )
        )

    def random_ideal(rng):
        gens = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5))]
        return tuple(gens + [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(0, 3))])

    rng = random.Random(77003)
    for _ in range(60):
        ideal_i, ideal_j, ideal_k = random_ideal(rng), random_ideal(rng), random_ideal(rng)
        assert staircase_length(_times(ideal_i, ideal_j)) == outside_product(ideal_i, ideal_j)
        assert set(_times(ideal_i, ideal_j, ideal_k)) == set(_times(_times(ideal_i, ideal_j), ideal_k))


def test_slice_ideals_match_length_formula():
    params = family_16_683_97()
    p = params.presentation
    order2, order3, _ = report_staircases(params)
    assert second_power_slice_gens(p) == ((3, 0), (2, 10), (1, 16), (0, 22))
    assert minimal_generators(order2) == minimal_generators(second_power_slice_gens(p))
    assert minimal_generators(order3) == minimal_generators(third_power_slice_gens(p))
    assert staircase_length(order2) == staircase_length(second_power_slice_gens(p)) == 3 * p.a == 48
    assert staircase_length(order3) == staircase_length(third_power_slice_gens(p)) == 6 * p.a == 96


def test_product_gap():
    params = family_16_683_97()
    p = params.presentation
    *_, product = report_staircases(params)
    assert product_23_slice_gens(p) == (
        (8, 0), (7, 4), (6, 11), (5, 20), (4, 26), (3, 33), (2, 43), (1, 49), (0, 55),
    )
    assert minimal_generators(product) == minimal_generators(product_23_slice_gens(p))
    len_product, len_symbolic = staircase_length(product), 15 * p.a
    gap = len_product - len_symbolic
    assert (len_product, len_symbolic, gap) == (241, 240, 1)
    assert len_product == min(29 * p.u1 + 16 * p.u2, 32 * p.u1 + 14 * p.u2)
    assert gap == min(p.u2 - p.u1, 2 * p.u1 - p.u2)


def test_gap_mismatch_is_a_fail_line_not_an_exception(monkeypatch, capsys):
    # a wrong colength of the product staircase alone: the report clause checks
    # the gap against min(u2 - u1, 2*u1 - u2) = 1, and a mismatch is a FAIL line
    product = minimal_generators(product_23_slice_gens(family_16_683_97().presentation))
    monkeypatch.setattr(
        symrees.polynomials,
        "staircase_length",
        lambda gens: staircase_length(gens) + (minimal_generators(gens) == product),
    )
    checks = verify_family_report(family_16_683_97())
    failed = [chk for chk in checks if not chk.ok]
    assert [chk.label for chk in failed] == [
        "order 2*3 product is strictly smaller than the order-5 power"
    ]
    assert failed[0].detail == "colengths 242 vs 240 (gap 2)"
    assert main(["verify-family", "--alpha", "6/5", "--beta", "49/24"]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] order 2*3 product is strictly smaller" in out and "conclusion" not in out


def test_generate_family_example_values():
    p = family_16_683_97().presentation
    assert (p.s2, p.s3, p.u1, p.u2) == (49, 24, 5, 6)
    assert p.triple == CurveTriple(16, 683, 97)
    assert p.triple.pairwise_coprime()
    scaled = generate_family(Fraction(6, 5), Fraction(49, 24), 3, 2).presentation
    assert scaled.triple == CurveTriple(16 * 2, 683 * 6, 97 * 3)


def test_generate_family_rejections():
    with pytest.raises(FamilyRejectionError):
        generate_family(Fraction(4, 3), Fraction(49, 24), 1, 1)  # alpha >= 5/4
    with pytest.raises(FamilyRejectionError):
        generate_family(Fraction(6, 5), Fraction(2, 1), 1, 1)  # beta <= 2
    with pytest.raises(FamilyRejectionError):
        generate_family(Fraction(6, 5), Fraction(25, 12), 1, 1)  # beta at the upper bound
    with pytest.raises(FamilyRejectionError):
        generate_family(Fraction(6, 5), Fraction(49, 24), 0, 1)


def test_family_bound_arithmetic():
    # upper bound for beta at alpha = 6/5 is 7/3 - (1/5)/(4/5) = 25/12
    alpha = Fraction(6, 5)
    bound = Fraction(7, 3) - (alpha - 1) / (2 - alpha)
    assert bound == Fraction(25, 12)
    assert Fraction(49, 24) < bound


def _random_admissible_params(rng):
    while True:
        alpha = Fraction(rng.randint(101, 124), 100)
        if not Fraction(1) < alpha < Fraction(5, 4):
            continue
        bound = Fraction(7, 3) - (alpha - 1) / (2 - alpha)
        lo, hi = Fraction(2), bound
        beta = lo + (hi - lo) * Fraction(rng.randint(1, 9), 10)
        if not lo < beta < hi:
            continue
        return generate_family(alpha, beta, rng.randint(1, 3), rng.randint(1, 3))


def test_report_staircases_are_the_papers():
    # the three pinned members, then a seeded sample of the box
    rng = random.Random(77004)
    pinned = ((1, 1), (2, 1), (3, 2))
    members = [generate_family(Fraction(6, 5), Fraction(49, 24), m, n) for m, n in pinned]
    members += [_random_admissible_params(rng) for _ in range(400)]
    for params in members:
        p = params.presentation
        oracle = (second_power_slice_gens(p), third_power_slice_gens(p), product_23_slice_gens(p))
        assert [minimal_generators(s) for s in report_staircases(params)] == [
            minimal_generators(s) for s in oracle
        ], (params.alpha, params.beta, params.m, params.n)


def test_family_identities_hold_across_parameter_box():
    rng = random.Random(77002)
    for _ in range(12):
        params = _random_admissible_params(rng)
        report = verify_family_report(params)
        for chk in report:
            assert chk.ok, (params.alpha, params.beta, params.m, params.n, chk.label)
        p = params.presentation
        weights = (p.a, p.b, p.c)
        f, g, h = build_generators(p)
        xi, *xi_clauses = _xi(p, f, g, h)
        assert xi.weighted_degree(weights) == 3 * p.b
        zeta, *zeta_clauses = _zeta(p, f, h, xi)
        assert xi_clauses == zeta_clauses == [True, True]
        expected = 4 * p.b + (2 * p.u1 - p.u2) * p.c
        assert zeta.weighted_degree(weights) == expected


def test_family_identities_do_not_need_coprimality():
    # the polynomial layer accepts any positive exponent data; only the
    # classifier path requires pairwise coprime weights
    params = generate_family(Fraction(6, 5), Fraction(49, 24), 2, 1)
    triple = params.presentation.triple
    assert math.gcd(triple.a, triple.b, triple.c) == 2 and not triple.pairwise_coprime()
    assert all(chk.ok for chk in verify_family_report(params))


def test_curve_substitution():
    f, g, h = build_generators(compute_presentation(CurveTriple(8, 19, 9)))
    for poly in (f, g, h):
        assert curve_substitution_zero(poly, (8, 19, 9))
    assert not curve_substitution_zero(
        SparsePoly({(1, 0, 0): 1, (0, 1, 0): 1}), (8, 19, 9)
    )


coefficients = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=7)
)
exponents = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
sparse_polys = st.dictionaries(exponents, coefficients, max_size=8).map(SparsePoly)


@settings(max_examples=200, deadline=None)
@given(
    pick=st.integers(0, 10**6),
    q=sparse_polys,
    other=sparse_polys,
    which=st.integers(0, 2),
    shift=exponents,
    split=st.fractions(min_value=-5, max_value=5, max_denominator=9),
    whole=st.integers(-2, 2),
)
def test_curve_substitution_matches_fraction_oracle_property(
    validated_30, pick, q, other, which, shift, split, whole
):
    # int, Fraction and mixed coefficients; members q * f, q * g, q * h of a
    # validated presentation; x^b m and y^a m share a weighted degree, so the
    # denominators of split and whole - split cancel only inside that degree
    p = validated_30[pick % len(validated_30)]
    weights = (p.a, p.b, p.c)
    member = q * build_generators(p)[which]
    ex, ey, ez = shift
    pair = SparsePoly({(ex + p.b, ey, ez): split, (ex, ey + p.a, ez): whole - split})
    assert curve_substitution_zero(member, weights) is True
    assert curve_substitution_zero(member + pair, weights) is (whole == 0)
    for poly in (member, other, pair, member + other, member + pair, other + pair):
        want = curve_substitution_fraction(poly, weights)
        assert curve_substitution_zero(poly, weights) is want, (poly, weights)


def test_homogeneity_guard():
    p = SparsePoly({(1, 0, 0): 1, (0, 1, 0): 1})
    assert not p.is_homogeneous((2, 3, 5))
    with pytest.raises(ValueError):
        p.weighted_degree((2, 3, 5))
    # a polynomial carries no grading: the weights are always passed
    for check in (p.is_homogeneous, p.weighted_degree):
        with pytest.raises(TypeError):
            check()
