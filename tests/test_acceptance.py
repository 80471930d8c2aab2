"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines live.
All tolerances are exact equalities; the time budgets are the stated ones.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from symrees import witness
from symrees.criteria import GkClause
from symrees.lattice import LatticePoint
from symrees.linalg import _echelon
from symrees.polynomials import (
    _xi,
    _zeta,
    build_generators,
    check_minor_relations,
    generate_family,
    is_negative_curve,
    staircase_length,
    verify_family_report,
)
from oracles import build_matrix, mul_vector, report_staircases
from symrees.presentation import CurveTriple
from symrees.scan import ScanJob, run_scan
from symrees.witness import classify, shift_membership_test


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_triple_8_19_9():
    verdict, elapsed = _timed(lambda: classify(CurveTriple(8, 19, 9)))
    p = verdict.presentation
    assert (p.s, p.t, p.u) == (7, 3, 3)
    assert (p.s2, p.s3, p.t1, p.t3, p.u1, p.u2) == (6, 1, 2, 1, 2, 1)
    assert verdict.eu.ell == (6, 3, 1)
    assert verdict.eu.holds is True
    assert verdict.gk.holds is False
    assert verdict.noetherian is True
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - (8,19,9) Noetherian, EU holds ({elapsed*1000:.0f} ms)")


def test_criterion_2_triple_25_29_72():
    verdict, elapsed = _timed(lambda: classify(CurveTriple(25, 29, 72)))
    assert verdict.eu.ell == (2, 2, 1)
    assert verdict.eu.holds is False
    assert verdict.gk.five_way.value == "GK3"
    assert verdict.noetherian is False
    # the 6-point, 6-constraint system is nonsingular, forcing the constant term
    assert verdict.points == 6 and verdict.dim_piece_u == 0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS - (25,29,72) not Noetherian via GK3 ({elapsed*1000:.0f} ms)")


def test_criterion_3_triple_17_503_169():
    verdict, elapsed = _timed(lambda: classify(CurveTriple(17, 503, 169)))
    assert verdict.eu.ell == (2, 4, 5, 7, 5, 3, 1)
    assert verdict.eu.holds is False
    assert verdict.gk.five_way is None
    assert verdict.gk.holds is False
    assert verdict.points == 28  # vs 28 constraint rows at order u = 7
    assert verdict.presentation.u * (verdict.presentation.u + 1) // 2 == 28
    assert verdict.noetherian is False
    assert elapsed < 5.0
    print(
        "\nACCEPTANCE 3: PASS - (17,503,169) not Noetherian, neither criterion "
        f"({elapsed*1000:.0f} ms)"
    )


def test_criterion_4_family_instance():
    def run():
        params = generate_family(Fraction(6, 5), Fraction(49, 24), 1, 1)
        p = params.presentation
        assert p.triple == CurveTriple(16, 683, 97)
        f, g, h = build_generators(p)
        assert check_minor_relations(f, g, h, p)
        xi, *xi_clauses = _xi(p, f, g, h)
        _, *zeta_clauses = _zeta(p, f, h, xi)
        assert xi_clauses == zeta_clauses == [True, True]  # companion and slice
        # the staircases the report derives from f, g, h, xi and zeta
        order2, order3, product = report_staircases(params)
        assert staircase_length(order2) == 48 == 3 * p.a
        assert staircase_length(order3) == 96 == 6 * p.a
        len_product = staircase_length(product)
        assert (len_product, 15 * p.a, len_product - 15 * p.a) == (241, 240, 1)
        assert xi.weighted_degree((16, 683, 97)) == 2049
        assert is_negative_curve(2049, 2, (16, 683, 97))
        assert 2049**2 < 4 * 16 * 683 * 97
        assert all(chk.ok for chk in verify_family_report(params))
        return params

    _, elapsed = _timed(run)
    assert elapsed < 2.0
    print(
        "\nACCEPTANCE 4: PASS - family instance (16,683,97), all polynomial "
        f"identities and lengths exact ({elapsed*1000:.0f} ms)"
    )


def test_criterion_5_property_scan_to_60():
    start = time.perf_counter()
    records = list(run_scan(ScanJob(60, require_assumptions=True, jobs=2)))
    by_triple = {r.triple: r for r in records}
    violations = []
    cutkosky = 0
    for r in records:
        eu, gk, we = r.eu["holds"], r.gk["holds"], r.witness_exists
        if eu and not we:
            violations.append((r.triple, "EU without witness"))
        if gk and we:
            violations.append((r.triple, "GK with witness"))
        if r.presentation["u"] <= 6:
            if eu == gk:
                violations.append((r.triple, "u<=6 but EU/GK not exclusive"))
            if r.noetherian != eu:
                violations.append((r.triple, "u<=6 verdict does not match EU"))
        if (r.gk["def_I_holds"] or r.gk["def_II_holds"]) != (r.gk["five_way"] is not None):
            violations.append((r.triple, "GK forms disagree"))
        a, b, c = r.triple
        swapped = by_triple.get((b, a, c))
        if swapped is None:
            violations.append((r.triple, "swap partner missing"))
        elif swapped.noetherian != r.noetherian:
            violations.append((r.triple, "verdict changes under a<->b swap"))
        # Cutkosky (J. reine angew. Math. 416, 1991): (a+b+c)^2 > abc gives
        # a Noetherian R_s(p)
        if (a + b + c) ** 2 > a * b * c:
            cutkosky += 1
            if not r.noetherian:
                violations.append((r.triple, "Cutkosky's bound holds but not Noetherian"))
    elapsed = time.perf_counter() - start
    assert not violations, violations[:10]
    assert (len(records), cutkosky) == (12274, 566)
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 5: PASS - {len(records)} validated triples up to 60, "
        f"zero violations of the five properties and of Cutkosky's bound "
        f"({cutkosky} triples) ({elapsed:.1f} s)"
    )


def _random_points(rng, max_size):
    size = rng.randint(1, max_size)
    points = set()
    while len(points) < size:
        points.add((rng.randint(-9, 9), rng.randint(-9, 9)))
    return [LatticePoint(a, b) for a, b in sorted(points)]


def test_criterion_6_oracle_equivalence():
    rng = random.Random(96001)
    instances = 0
    nonmembers = 0
    while instances < 500 or nonmembers < 500:
        points = _random_points(rng, max_size=20)
        n = rng.randint(1, 5)
        system = build_matrix(points, n)
        instances += 1
        for vec in system.base.null_space():
            assert shift_membership_test(dict(zip(points, vec)), n), (points, n)
        for _ in range(3):
            vec = [rng.randint(-4, 4) for _ in points]
            if any(v != 0 for v in mul_vector(system.base, vec)):
                assert not shift_membership_test(dict(zip(points, vec)), n), (points, n)
                nonmembers += 1
    print(
        f"\nACCEPTANCE 6: PASS - shift oracle matches the derivative system on "
        f"{instances} instances and {nonmembers} non-members"
    )


def test_criterion_7_staircase_systems_nonsingular():
    rng = random.Random(96002)
    checked = 0
    for _ in range(200):
        u = rng.randint(1, 6)
        alphas = rng.sample(range(-20, 21), u)
        points = []
        for i, alpha in enumerate(alphas, start=1):
            betas = sorted(rng.sample(range(-20, 21), i))
            points.extend(LatticePoint(alpha, b) for b in betas)
        system = build_matrix(points, u)
        assert system.base.rank() == len(points) == u * (u + 1) // 2
        assert system.base.null_space() == []
        checked += 1
    print(
        f"\nACCEPTANCE 7: PASS - {checked} random staircase systems have "
        "trivial kernel at order u"
    )


def test_criterion_8_family_triple_gets_no_verdict():
    verdict = classify(CurveTriple(16, 683, 97))
    assert verdict.noetherian is None  # never true/false: hypothesis (iii) fails
    assert verdict.reason
    assert verdict.assumptions.pairwise_coprime
    assert verdict.assumptions.three_generated
    assert not verdict.assumptions.negative_curve_iii
    params = generate_family(Fraction(6, 5), Fraction(49, 24), 1, 1)
    assert all(chk.ok for chk in verify_family_report(params))
    print(
        "\nACCEPTANCE 8: PASS - (16,683,97) reported inapplicable by the "
        "classifier; family checks carry the conclusion"
    )


@pytest.mark.parametrize(
    "triple, points, dim, echelon",
    [
        # (rank, last pivot, columns, largest echelon entry in bits)
        ((1969, 2492, 1713), 1435, 9, (1373, 1381, 1382, 101)),
        ((1999, 2915, 2656), 1099, 64, (861, 906, 907, 90)),
        ((2743, 2273, 1660), 1882, 1, (1820, 1820, 1821, 121)),
    ],
)
def test_criterion_9_large_residual_systems(monkeypatch, triple, points, dim, echelon):
    # neither EU nor GK holds, so one elimination alone decides; primitive
    # rows under the smallest-magnitude pivot keep its entries to the pinned
    # sizes
    shapes = []

    def spy(rows, ncols):
        reduced = _echelon(rows, ncols)
        bits = max(abs(x).bit_length() for row in reduced.rows for x in row)
        shapes.append((reduced.rank, reduced.pivots[-1], ncols, bits))
        return reduced

    monkeypatch.setattr(witness, "_echelon", spy)
    verdict, elapsed = _timed(lambda: classify(CurveTriple(*triple)))
    assert verdict.eu.holds is False and verdict.gk.holds is False
    assert verdict.noetherian is False
    assert (verdict.points, verdict.dim_piece_u) == (points, dim)
    assert shapes == [echelon]
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 9: PASS - {triple} not Noetherian by elimination alone, "
        f"{points} points, rank {echelon[0]}, entries up to {echelon[3]} bits "
        f"({elapsed*1000:.0f} ms)"
    )


def test_criterion_10_goto_nishida_watanabe_family():
    # Goto-Nishida-Watanabe (Proc. AMS 120, 1994): for 3 not dividing n >= 4,
    # R_s(p) of (7n-3, (5n-2)n, 8n-3) is not Noetherian.  Exactly the order
    # with c = (5n-2)n and its a<->b swap meet the paper's hypotheses, and GK3
    # decides both; n = 2 is refused in every order
    checked = 0
    for n in [2] + [n for n in range(4, 41) if n % 3]:
        a, b, c = 7 * n - 3, 8 * n - 3, (5 * n - 2) * n
        validated = {}
        for order in set(permutations((a, b, c))):
            verdict = classify(CurveTriple(*order))
            if verdict.noetherian is not None:
                validated[order] = verdict
        assert set(validated) == (set() if n == 2 else {(a, b, c), (b, a, c)}), n
        for verdict in validated.values():
            assert verdict.presentation.u == 3, verdict.triple
            assert verdict.gk.five_way is GkClause.GK3, verdict.triple
            assert verdict.noetherian is False, verdict.triple
            checked += 1
    print(
        f"\nACCEPTANCE 10: PASS - Goto-Nishida-Watanabe family for n <= 40: "
        f"{checked} validated orders, each GK3 with u = 3 and not Noetherian"
    )
