import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symrees.lattice
import symrees.witness
from oracles import (
    assert_lazy_echelon_matches_eager,
    build_matrix,
    derivative_orders,
    enumerate_points,
    integerized,
    mul_vector,
    rref_null_space,
    scaled_system,
    shift_membership_fraction,
    witness_system,
)
from symrees import cli
from symrees.lattice import LatticePoint
from symrees.polynomials import SparsePoly, curve_substitution_zero
from symrees.presentation import CurveTriple, InternalConsistencyError, compute_presentation
from symrees.scan import ScanJob, iter_triples
from symrees.witness import (
    Verdict,
    classify,
    piece_dimension,
    shift_membership_test,
    _point_columns,
    _system_rows,
)


def pres(a, b, c):
    return compute_presentation(CurveTriple(a, b, c))


def pts(pairs):
    return [LatticePoint(a, b) for a, b in pairs]


def test_derivative_order_sequence_is_frozen():
    assert derivative_orders(3) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(derivative_orders(7)) == 28


def test_build_matrix_single_point():
    system = build_matrix(pts([(0, 0)]), 1)
    assert system.base.entries == [[1]]


def test_build_matrix_pinned_example():
    system = build_matrix(pts([(0, 0), (1, 0), (1, -1)]), 2)
    assert system.orders == ((0, 0), (1, 0), (0, 1))
    assert system.base.entries == [[1, 1, 1], [0, 1, 1], [0, 0, -1]]


def test_build_matrix_17_503_169_is_square():
    p = pres(17, 503, 169)
    system = witness_system(p)
    assert system.base.rows == 28
    assert system.base.cols == 28


def test_build_matrix_rejects_duplicates():
    with pytest.raises(ValueError):
        build_matrix(pts([(0, 0), (0, 0)]), 1)


def test_scaled_system_matches_spec_system(validated_30):
    # the binomial-rescaled rows must have the same rank and kernel
    for p in validated_30[::9]:
        points = enumerate_points(p, 1)
        spec_form = build_matrix(points, p.u).base
        fast_form = scaled_system(points, p.u)
        assert spec_form.rank() == fast_form.rank()
        for vec in fast_form.null_space():
            assert all(v == 0 for v in mul_vector(spec_form, vec))


def test_piece_dimension_values():
    p = pres(8, 19, 9)
    assert piece_dimension(p, 1, 0) == 11  # no constraints
    assert piece_dimension(p, 1, 3) == 5  # frozen: 11 points, full-rank 6-row system
    assert piece_dimension(p, 1, 3) >= 11 - 6

    q = pres(25, 29, 72)
    assert piece_dimension(q, 1, 3) == 0  # frozen: 6x6 system is nonsingular
    assert piece_dimension(q, 2, 6) == 1  # frozen exploratory value


@pytest.mark.parametrize("e, n", [(0, 1), (-1, 1), (1, -1), (0, 0)])
def test_piece_dimension_refuses_a_scale_or_order_out_of_range(e, n):
    # e >= 1 is checked by lattice.column_counts alone, n >= 0 here
    with pytest.raises(ValueError):
        piece_dimension(pres(8, 19, 9), e, n)


def test_piece_dimension_lower_bound(validated_30):
    for p in validated_30[::13]:
        n_points = len(enumerate_points(p, 1))
        assert piece_dimension(p, 1, p.u) >= n_points - p.u * (p.u + 1) // 2


def test_witness_existence_worked_examples():
    # a witness is extracted exactly when one exists
    for triple, exists in [((8, 19, 9), True), ((25, 29, 72), False), ((17, 503, 169), False)]:
        v = classify(CurveTriple(*triple), want_witness=True)
        assert v.witness_exists is exists and (v.witness is not None) is exists, triple


def test_extracted_witness_8_19_9():
    w = classify(CurveTriple(8, 19, 9), want_witness=True).witness
    assert w.coefficients[LatticePoint(0, 0)] == 1
    assert sum(w.coefficients.values()) == 0  # the (0,0) constraint row
    assert shift_membership_test(w.coefficients, 3)
    # frozen deterministic witness
    assert integerized(w) == {
        LatticePoint(0, 0): 1,
        LatticePoint(1, -2): 1,
        LatticePoint(1, -1): -1,
        LatticePoint(1, 0): -3,
        LatticePoint(2, -1): -2,
        LatticePoint(2, 0): 5,
        LatticePoint(3, 1): -1,
    }


def test_witness_polynomial_is_homogeneous_of_degree_ab():
    v = classify(CurveTriple(8, 19, 9), want_witness=True)
    monos = v.witness.monomials(v.presentation)
    assert all(ex >= 0 and ey >= 0 and ez >= 0 for ex, ey, ez, _ in monos)
    assert {8 * ex + 19 * ey + 9 * ez for ex, ey, ez, _ in monos} == {152}
    poly = SparsePoly({(ex, ey, ez): c for ex, ey, ez, c in monos})
    assert curve_substitution_zero(poly, (8, 19, 9))


def test_shift_membership_basics():
    v_minus_1 = {(1, 0): 1, (0, 0): -1}
    assert shift_membership_test(v_minus_1, 1)
    assert not shift_membership_test(v_minus_1, 2)
    product = {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1}  # (v-1)(w-1)
    assert shift_membership_test(product, 2)
    assert not shift_membership_test(product, 3)
    assert shift_membership_test({}, 4)  # zero element lies in every power


def test_shift_membership_handles_negative_exponents():
    # v^-1 - 1 = -v^-1 (v - 1)
    phi = {(-1, 0): 1, (0, 0): -1}
    assert shift_membership_test(phi, 1)
    assert not shift_membership_test(phi, 2)
    # (v^-1 - 1)(w^-2 - 1)
    phi = {(-1, -2): 1, (-1, 0): -1, (0, -2): -1, (0, 0): 1}
    assert shift_membership_test(phi, 2)
    assert not shift_membership_test(phi, 3)


def _random_point_set(rng, max_size=20):
    size = rng.randint(1, max_size)
    points = set()
    while len(points) < size:
        points.add((rng.randint(-8, 8), rng.randint(-8, 8)))
    return pts(sorted(points))


def test_oracle_agrees_with_matrix_on_random_instances():
    rng = random.Random(61001)
    for _ in range(120):
        points = _random_point_set(rng, max_size=12)
        n = rng.randint(1, 5)
        system = build_matrix(points, n)
        for vec in system.base.null_space():
            coeffs = dict(zip(points, vec))
            assert shift_membership_test(coeffs, n)
        # random vector: member iff annihilated by the constraint rows
        vec = [Fraction(rng.randint(-5, 5)) for _ in points]
        is_member = all(v == 0 for v in mul_vector(system.base, vec))
        assert shift_membership_test(dict(zip(points, vec)), n) == is_member


def test_integer_shift_oracle_matches_fraction_loop():
    # clearing denominators once must not change any answer, members
    # (kernel vectors) and non-members (perturbed or random vectors) alike
    rng = random.Random(61003)
    answers = Counter()
    for _ in range(150):
        points = _random_point_set(rng, max_size=12)
        n = rng.randint(1, 5)
        candidates = []
        for vec in rref_null_space(build_matrix(points, n).base):
            scalar = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            candidates.append([x * scalar for x in vec])
        for vec in list(candidates):
            bumped = list(vec)
            bumped[rng.randrange(len(bumped))] += Fraction(1, rng.randint(1, 7))
            candidates.append(bumped)
        candidates.append([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in points])
        for vec in candidates:
            coeffs = dict(zip(points, vec))
            answer = shift_membership_test(coeffs, n)
            assert answer == shift_membership_fraction(coeffs, n), (coeffs, n)
            answers[answer] += 1
    assert answers[True] > 50 and answers[False] > 50, answers


def _times(phi, psi):
    product = Counter()
    for (a1, b1), c1 in phi.items():
        for (a2, b2), c2 in psi.items():
            product[a1 + a2, b1 + b2] += c1 * c2
    return dict(product)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        max_size=3,
    ),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_shift_test_matches_fraction_oracle_past_the_term_count(g, i, j):
    # phi = (v-1)^i (w-1)^j g lies in (v-1, w-1)^(i+j); n runs past its
    # count T of nonzero terms, where a nonzero phi is never a member
    phi = g
    for factor in [{(1, 0): 1, (0, 0): -1}] * i + [{(0, 1): 1, (0, 0): -1}] * j:
        phi = _times(phi, factor)
    terms = sum(1 for c in phi.values() if c)
    for n in range(1, terms + 3):
        answer = shift_membership_test(phi, n)
        assert answer == shift_membership_fraction(phi, n), (phi, n)
        if n >= terms:
            assert answer is (terms == 0), (phi, n)


def _random_staircase(rng, u):
    alphas = rng.sample(range(-15, 16), u)
    points = []
    for i, alpha in enumerate(alphas, start=1):
        betas = sorted(rng.sample(range(-15, 16), i))
        points.extend(LatticePoint(alpha, b) for b in betas)
    return points


def test_staircase_configurations_have_trivial_kernel():
    # columns with 1, 2, ..., u points at distinct abscissas admit no
    # element of the u-th power of the shifted maximal ideal
    rng = random.Random(61002)
    for _ in range(40):
        u = rng.randint(1, 5)
        points = _random_staircase(rng, u)
        system = build_matrix(points, u)
        assert system.base.rank() == len(points)
        assert system.base.null_space() == []


def test_piece_dimension_exploratory_scale_regressions():
    p = pres(8, 19, 9)
    assert len(enumerate_points(p, 2)) == 38
    assert piece_dimension(p, 2, 3) == 32  # frozen: 38 points minus 6 full-rank rows
    assert piece_dimension(p, 2, 6) == 17  # frozen: 38 points minus 21 full-rank rows


def test_eu_forces_full_row_rank(validated_30):
    # under EU a staircase subset of columns is nonsingular, so the witness
    # system always has independent constraint rows
    from symrees.criteria import check_eu

    for p in validated_30[::5]:
        if check_eu(p).holds:
            n_points = len(enumerate_points(p, 1))
            assert piece_dimension(p, 1, p.u) == n_points - p.u * (p.u + 1) // 2


def test_witness_decision_matches_direct_kernel_inspection(validated_30):
    # third route: existence of a kernel vector with nonzero constant
    # coordinate, read off a nullspace basis of the unscaled system
    for p in validated_30[::31]:
        points = enumerate_points(p, 1)
        system = build_matrix(points, p.u)
        j = points.index(LatticePoint(0, 0))
        direct = any(vec[j] != 0 for vec in system.base.null_space())
        assert classify(p.triple).witness_exists == direct, p.triple


def test_lazy_echelon_matches_eager_on_witness_systems(validated_30):
    # every validated triple up to 30
    for p in validated_30:
        points = enumerate_points(p, 1)
        rows = _system_rows(_point_columns(points, p.u), p.u)
        assert_lazy_echelon_matches_eager(rows, len(points))


def _oracle_witness(p):
    # first RREF kernel basis vector nonzero at (0, 0), normalized there
    points = enumerate_points(p, 1)
    j = points.index(LatticePoint(0, 0))
    basis = rref_null_space(scaled_system(points, p.u))
    for vec in basis:
        if vec[j] != 0:
            coeffs = {pt: x / vec[j] for pt, x in zip(points, vec) if x != 0}
            return True, len(basis), coeffs
    return False, len(basis), None


def test_classify_witness_matches_rref_oracle(validated_30):
    sample = validated_30[::5]
    found = 0
    for p in sample:
        v = classify(p.triple, want_witness=True)
        exists, dim, coeffs = _oracle_witness(p)
        assert (v.witness_exists, v.dim_piece_u) == (exists, dim), p.triple
        if exists:
            assert list(v.witness.coefficients.items()) == list(coeffs.items()), p.triple
            for c in v.witness.coefficients.values():
                assert type(c.numerator) is int and type(c.denominator) is int, p.triple
            found += 1
        else:
            assert v.witness is None
    assert 0 < found < len(sample)


def test_classify_worked_examples():
    v = classify(CurveTriple(8, 19, 9))
    assert v.noetherian is True and v.witness_exists is True
    assert v.eu.holds and not v.gk.holds
    assert (v.points, v.dim_piece_u) == (11, 5)

    v = classify(CurveTriple(25, 29, 72))
    assert v.noetherian is False and v.witness_exists is False
    assert not v.eu.holds and v.gk.five_way.value == "GK3"
    assert v.points == 6

    v = classify(CurveTriple(17, 503, 169))
    assert v.noetherian is False
    assert not v.eu.holds and not v.gk.holds and v.gk.five_way is None


def test_pure_witness_decision_when_no_criterion_fires():
    # smallest validated triples where neither EU nor GK applies and the
    # kernel computation alone decides (all turn out non-Noetherian)
    for triple, dim in [((11, 58, 13), 0), ((58, 11, 13), 0), ((19, 60, 17), 1)]:
        v = classify(CurveTriple(*triple))
        assert not v.eu.holds and not v.gk.holds, triple
        assert v.witness_exists is False
        assert v.noetherian is False
        assert v.dim_piece_u == dim, triple


def test_classify_inapplicable_cases():
    v = classify(CurveTriple(6, 10, 15))
    assert v.noetherian is None and "coprime" in v.reason
    assert v.witness_exists is None

    v = classify(CurveTriple(2, 3, 5))
    assert v.noetherian is None and "three binomials" in v.reason

    v = classify(CurveTriple(16, 683, 97))
    assert v.noetherian is None
    assert v.assumptions.pairwise_coprime and v.assumptions.three_generated
    assert not v.assumptions.negative_curve_iii
    assert v.eu is not None and v.gk is not None  # criteria still reported


def test_classify_with_witness_round_trip():
    v = classify(CurveTriple(8, 19, 9), want_witness=True)
    assert v.witness is not None
    assert v.witness.coefficients[LatticePoint(0, 0)] == 1
    v2 = classify(CurveTriple(8, 19, 9))
    assert v2.witness is None


def test_classify_inapplicable_builds_no_point(monkeypatch):
    # 714,257,142 lattice points: building them would exhaust memory, so the
    # verdict must come from the column bounds alone
    def no_points(*args):
        raise AssertionError("lattice point built for an inapplicable triple")

    monkeypatch.setattr(symrees.witness, "LatticePoint", no_points)
    monkeypatch.setattr(symrees.lattice, "LatticePoint", no_points)
    v = classify(CurveTriple(99991, 100003, 7))
    assert v.noetherian is None
    assert v.reason == "u^2*c < a*b fails: the candidate generator is not a negative curve"
    assert v.presentation.u == 42855
    assert sum(v.eu.ell) == 714257141


def counting(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def test_one_column_sweep_per_verdict_and_per_piece(monkeypatch):
    # the column profile of the EU report gives the point count, the kept
    # groups and the finite-difference system, and piece_dimension reads one
    # profile for its early exit, its point count and its system, so each
    # call walks the column bounds once: decided, with or without a
    # witness, through the fallback's decision, or inapplicable; so does
    # `symrees piece-dim`, which prints the point count and the dimension
    p = pres(40, 57, 11)
    calls = Counter()
    sweep = counting(calls, "sweeps", symrees.lattice._column_bounds)
    monkeypatch.setattr(symrees.lattice, "_column_bounds", sweep)
    monkeypatch.setattr(symrees.witness, "_column_bounds", sweep, raising=False)  # if imported
    runs = [
        lambda: classify(CurveTriple(8, 19, 9)).noetherian,
        lambda: classify(CurveTriple(8, 19, 9), want_witness=True).witness is not None,
        lambda: classify(CurveTriple(17, 503, 169), want_witness=True).noetherian,
        lambda: classify(CurveTriple(16, 683, 97)).noetherian,
        lambda: piece_dimension(p, 2, 28),
        lambda: cli.main(["piece-dim", "40", "57", "11", "--e", "2", "--n", "28"]),
    ]
    got = []
    for run in runs:
        calls.clear()
        got.append((run(), calls["sweeps"]))
    assert got == [(True, 1), (True, 1), (False, 1), (None, 1), (19, 1), (0, 1)]


def test_classify_back_substitutes_the_witness_without_elimination(monkeypatch, validated_30):
    # a witness whose kept counts are u, u-1, ..., 1 comes from back-substitution
    # through the order lowering, with no row built and nothing eliminated;
    # where GK forbids a witness, the finite-difference system alone decides
    sample = validated_30[::9]
    calls = Counter()
    names = ["_back_substituted", "_kept_elimination", "_system_rows", "_echelon"]
    for name in names:
        monkeypatch.setattr(symrees.witness, name, counting(calls, name, getattr(symrees.witness, name)))
    verdicts = []
    for p in sample:
        calls.clear()
        verdicts.append(classify(p.triple, want_witness=True))
        gk = verdicts[-1].gk.holds
        got = tuple(calls[name] for name in names)
        assert got == ((0, 0, 1, 1) if gk else (1, 0, 0, 0)), p.triple
        assert verdicts[-1].witness_exists is not gk, p.triple
    assert any(v.gk.holds for v in verdicts) and not all(v.gk.holds for v in verdicts)
    monkeypatch.undo()
    with_witness = [(p, v) for p, v in zip(sample, verdicts) if v.witness_exists]
    for p, v in with_witness:
        assert v.witness == classify(p.triple, want_witness=True).witness, p.triple
        assert v.points - v.dim_piece_u == p.u * (p.u + 1) // 2, p.triple


def test_classify_keeps_both_cross_checks(monkeypatch):
    # a forged EU on a triple without a witness, and GK forged on one with a
    # witness, must both be caught, with a witness wanted or not
    no_witness, with_witness = CurveTriple(25, 29, 72), CurveTriple(8, 19, 9)
    check_eu, check_gk = symrees.witness.check_eu, symrees.witness.check_gk
    monkeypatch.setattr(symrees.witness, "check_eu", lambda p: replace(check_eu(p), holds=True))
    for want in (False, True):
        with pytest.raises(InternalConsistencyError, match="EU holds"):
            classify(no_witness, want_witness=want)
    monkeypatch.undo()
    monkeypatch.setattr(
        symrees.witness, "check_gk", lambda p, **kw: replace(check_gk(p, **kw), def_I_holds=True)
    )
    for want in (False, True):
        with pytest.raises(InternalConsistencyError, match="GK holds"):
            classify(with_witness, want_witness=want)


def test_every_entry_point_keeps_the_u_le_6_dichotomy(monkeypatch):
    # for u <= 6 exactly one of EU and GK holds: EU forged away on a triple
    # with a witness, and GK forged away on one without, must both be caught
    # by classify, with a witness wanted or not
    with_witness, no_witness = CurveTriple(8, 19, 9), CurveTriple(25, 29, 72)  # u = 3 and 3
    check_eu, check_gk = symrees.witness.check_eu, symrees.witness.check_gk
    monkeypatch.setattr(symrees.witness, "check_eu", lambda p: replace(check_eu(p), holds=False))
    for want in (False, True):
        with pytest.raises(InternalConsistencyError, match="neither EU nor GK"):
            classify(with_witness, want_witness=want)
    monkeypatch.undo()
    monkeypatch.setattr(
        symrees.witness,
        "check_gk",
        lambda p, **kw: replace(check_gk(p, **kw), def_I_holds=False, def_II_holds=False),
    )
    for want in (False, True):
        with pytest.raises(InternalConsistencyError, match="neither EU nor GK"):
            classify(no_witness, want_witness=want)


def test_verdicts_match_criteria_on_validated_pool(validated_30):
    for p in validated_30[::5]:
        v = classify(p.triple)
        assert isinstance(v, Verdict)
        assert v.noetherian == v.witness_exists
        if v.eu.holds:
            assert v.witness_exists
        if v.gk.holds:
            assert not v.witness_exists


def test_verdict_invariant_under_ab_swap():
    # swapping a and b renames x and y, a graded isomorphism, so the verdict
    # and the degree-ab piece cannot change; the presentation and the EU and
    # GK reports may differ in content
    verdicts = {}
    for triple in iter_triples(ScanJob(30)):
        verdict = classify(CurveTriple(*triple))
        if verdict.presentation is not None:  # three-generated
            verdicts[triple] = verdict
    assert sum(v.noetherian is not None for v in verdicts.values()) > 1000
    for (a, b, c), v in verdicts.items():
        w = verdicts[b, a, c]
        assert (v.noetherian, v.points, v.dim_piece_u) == (
            w.noetherian, w.points, w.dim_piece_u
        ), (a, b, c)
