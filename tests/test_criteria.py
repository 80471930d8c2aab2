from oracles import swapped_ab
from symrees.criteria import GkClause, check_eu, check_gk
from symrees.presentation import (
    CurveTriple,
    compute_presentation,
    validate_assumptions,
    NotCoprimeError,
    NotThreeGeneratedError,
)


def pres(a, b, c):
    return compute_presentation(CurveTriple(a, b, c))


def test_eu_worked_examples():
    r = check_eu(pres(8, 19, 9))
    assert r.ell_sorted == (1, 3, 6) and r.holds
    assert r.first_failure_index is None

    r = check_eu(pres(25, 29, 72))
    assert r.ell_sorted == (1, 2, 2) and not r.holds
    assert r.first_failure_index == 3  # third smallest count is 2 < 3

    r = check_eu(pres(17, 503, 169))
    assert r.ell_sorted == (1, 2, 3, 4, 5, 5, 7) and not r.holds
    assert r.first_failure_index == 6


def test_eu_sorted_is_permutation(validated_30):
    for p in validated_30:
        r = check_eu(p)
        assert sorted(r.ell) == list(r.ell_sorted)
        assert r.holds == all(v >= i for i, v in enumerate(r.ell_sorted, start=1))


def test_gk_definition_worked_examples():
    r = check_gk(pres(25, 29, 72))
    assert (r.n, r.m) == (2, 2)
    assert r.def_I_holds and r.holds

    r = check_gk(pres(17, 503, 169))
    assert (r.n, r.m) == (2, 3)
    assert not r.def_I_holds and not r.def_II_holds and not r.holds

    r = check_gk(pres(8, 19, 9))
    assert (r.n, r.m) == (7, 3)
    assert not r.holds


def test_gk_five_worked_examples():
    assert check_gk(pres(25, 29, 72)).five_way is GkClause.GK3
    assert check_gk(pres(17, 503, 169)).five_way is None
    assert check_gk(pres(8, 19, 9)).five_way is None


def test_gk_forms_agree_on_validated_triples(validated_30):
    for p in validated_30:
        report = check_gk(p, validated=True)
        assert report.holds == (report.five_way is not None), p.triple


def test_eu_and_gk_never_both_hold(validated_30):
    for p in validated_30:
        if check_eu(p).holds:
            assert not check_gk(p).holds, p.triple


def test_u_le_6_dichotomy(validated_30):
    for p in validated_30:
        if p.u <= 6:
            assert check_eu(p).holds != check_gk(p).holds, p.triple


def _swap_ab(p):
    try:
        return compute_presentation(swapped_ab(p.triple))
    except (NotCoprimeError, NotThreeGeneratedError):
        return None


def test_criteria_invariant_under_ab_swap(validated_30):
    for p in validated_30:
        q = _swap_ab(p)
        assert q is not None  # same semigroup data, so still three-generated
        assert validate_assumptions(q).all_hold  # u and c are unchanged
        assert check_eu(p).holds == check_eu(q).holds, p.triple
        assert check_gk(p).holds == check_gk(q).holds, p.triple


def test_gk_clause_values_round_trip():
    assert GkClause("GK4") is GkClause.GK4
    assert {c.value for c in GkClause} == {"GK1", "GK2", "GK3", "GK4", "GK5"}
