"""The finite-difference column basis against the systems it replaces.

The verdict, the rank and the piece dimensions are decided on the columns
v^alpha w^b_lo (w-1)^j, with the unit pivots of the full column groups
counted instead of eliminated.  Two oracles check it: the point system over
every lattice point (``oracles.point_system_decision``) and one elimination
over every finite-difference column (``oracles.full_fd_decision``).  All
must give the same rank and the same answer to "is the constant term
forced".
"""

import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symrees.lattice
import symrees.witness
from oracles import (
    assert_lazy_echelon_matches_eager,
    dense_system_rows,
    derivative_orders,
    full_fd_columns,
    full_fd_decision,
    point_system_decision,
    point_system_witness,
)
from symrees.criteria import check_eu, check_gk
from symrees.lattice import _column_bounds, count_points, enumerate_points
from symrees.presentation import (
    CurveTriple,
    NotCoprimeError,
    NotThreeGeneratedError,
    compute_presentation,
    validate_assumptions,
)
from symrees.scan import ScanJob, iter_triples
from symrees.witness import (
    _fd_columns,
    _fd_decision,
    _point_columns,
    _system_rows,
    NoWitnessError,
    classify,
    extract_witness,
    huneke_witness_exists,
    piece_dimension,
)

POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def pool_rows(name):
    data = json.loads((POOLS / name).read_text())
    return [dict(zip(data["columns"], row)) for row in data["rows"]]


def pres(a, b, c):
    return compute_presentation(CurveTriple(a, b, c))


def test_fd_decision_matches_point_system_up_to_40(validated_40):
    assert len(validated_40) == 3046
    for p in validated_40:
        decision = _fd_decision(p, 1, p.u)
        assert decision == full_fd_decision(p, 1, p.u), p.triple
        assert decision == point_system_decision(p, 1, p.u), p.triple


def test_fd_decision_matches_rank_deep_pool():
    # the pool's points, verdicts and dim_piece_u were recorded from the
    # point system; every 8th row is also eliminated here over its points
    rows = pool_rows("rank_deep.json")
    assert len(rows) == 1024
    for i, row in enumerate(rows):
        p = pres(row["a"], row["b"], row["c"])
        rank, forced = _fd_decision(p, 1, p.u)
        assert count_points(p, 1) == row["points"], row
        assert (row["points"] - rank, not forced) == (row["dim_piece_u"], row["noetherian"]), row
        assert (rank, forced) == full_fd_decision(p, 1, p.u), row
        if i % 8 == 0:
            assert (rank, forced) == point_system_decision(p, 1, p.u), row


def test_fd_decision_matches_witness_extract_pool():
    rows = pool_rows("witness_extract.json")
    assert len(rows) == 512
    for row in rows:
        p = pres(row["a"], row["b"], row["c"])
        assert count_points(p, 1) == row["points"], row
        decision = _fd_decision(p, 1, p.u)
        assert decision == point_system_decision(p, 1, p.u), row
        assert decision == full_fd_decision(p, 1, p.u), row
        assert not decision[1], row  # every pool triple has a witness


def test_fd_decision_matches_point_system_beyond_hypotheses():
    # the change of basis needs no hypothesis beyond a three-binomial
    # presentation: every such triple up to 12, at scales 1 and 2 and every
    # order up to e*u + 1
    cases = 0
    for a, b, c in iter_triples(ScanJob.upto(12)):
        try:
            p = pres(a, b, c)
        except (NotCoprimeError, NotThreeGeneratedError):
            continue
        for e in (1, 2):
            if count_points(p, e) > 300:
                continue
            for n in range(1, e * p.u + 2):
                want = point_system_decision(p, e, n)
                assert _fd_decision(p, e, n) == want, (p.triple, e, n)
                assert full_fd_decision(p, e, n) == want, (p.triple, e, n)
                cases += 1
    assert cases > 1500


@settings(max_examples=80, deadline=None)
@given(
    st.integers(3, 150),
    st.integers(3, 150),
    st.integers(3, 150),
    st.integers(1, 2),
    st.integers(1, 40),
)
def test_fd_decision_matches_point_system_property(a, b, c, e, n_seed):
    while math.gcd(a, b) != 1:
        b += 1
    while math.gcd(a * b, c) != 1:
        c += 1
    try:
        p = pres(a, b, c)
    except NotThreeGeneratedError:
        assume(False)
    assume(count_points(p, e) <= 300)
    n = 1 + n_seed % (e * p.u + 1)
    decision = _fd_decision(p, e, n)
    assert decision == point_system_decision(p, e, n), (p.triple, e, n)
    assert decision == full_fd_decision(p, e, n), (p.triple, e, n)


def large_u_sample():
    # one validated triple in each band of 8 in u, from 20 to 60, from a
    # seeded stream of weights up to 6000 (c up to 600), past the u <= 16 of
    # the benchmark pools: the first where EU holds in the even bands and
    # the first where GK holds in the odd ones, so both verdicts occur
    rng = random.Random(20)
    found = {}
    while len(found) < 5:
        a, b, c = rng.randint(2, 6000), rng.randint(2, 6000), rng.randint(2, 600)
        try:
            p = pres(a, b, c)
        except (NotCoprimeError, NotThreeGeneratedError):
            continue
        band = (p.u - 20) // 8
        if band in found or not 0 <= band < 5 or not validate_assumptions(p).all_hold:
            continue
        if (check_gk(p) if band % 2 else check_eu(p)).holds:
            found[band] = p
    return [found[band] for band in range(5)]


def test_fd_decision_matches_full_system_at_large_u():
    for band, p in enumerate(large_u_sample()):
        decision = _fd_decision(p, 1, p.u)
        assert decision == full_fd_decision(p, 1, p.u), p.triple
        assert decision[1] is bool(band % 2), p.triple  # GK forces the constant term


def test_piece_dimension_matches_point_system_up_to_20(validated_30):
    # also the constant-term decision, at every scale and order tried
    validated_20 = [p for p in validated_30 if max(p.a, p.b, p.c) <= 20]
    assert validated_20
    cases = 0
    for p in validated_20:
        for e in (1, 2):
            points = len(enumerate_points(p, e))
            assert piece_dimension(p, e, 0) == points, p.triple
            for n in range(1, p.u + 2):
                rank, forced = point_system_decision(p, e, n)
                assert piece_dimension(p, e, n) == points - rank, (p.triple, e, n)
                assert _fd_decision(p, e, n) == (rank, forced), (p.triple, e, n)
                cases += 1
    assert cases > 700


def test_fd_system_size_is_bounded_by_columns_and_orders(validated_30):
    # each unit pivot taken out removes one column and one row
    for p in validated_30:
        for e in (1, 2):
            lengths = [b_hi - b_lo + 1 for b_lo, b_hi in _column_bounds(p, e) if b_hi >= b_lo]
            for n in (1, 2, p.u, e * p.u + 1):
                cols, full = _fd_columns(p, e, n)
                rows, ncols = _system_rows(cols, n, full), len(cols)
                units = sum(max(0, n - al) for al in full)
                assert full == {al for al, ell in enumerate(lengths) if al and ell >= n}
                assert ncols + units == sum(min(ell, n) for ell in lengths), (p.triple, e, n)
                assert len(rows) + units <= len(derivative_orders(n))
                assert all(len(row) == ncols for row in rows)


def test_fd_columns_are_the_full_set_with_the_unit_pivots_out(validated_30):
    # same groups and the same (alpha, j) order as the full set; a full group
    # keeps its columns j >= n - alpha with beta factor e_j
    for p in validated_30:
        for e in (1, 2):
            for n in (1, 2, p.u, e * p.u + 1):
                cols, full = _fd_columns(p, e, n)
                want = []
                for al, f in full_fd_columns(p, e, n):
                    j = f.index(1)  # f = [0] * j + [C(b_lo, 0), ...]
                    if al not in full:
                        want.append((al, f))
                    elif j >= n - al:
                        want.append((al, [int(l == j) for l in range(n)]))
                assert cols == want, (p.triple, e, n)


def both_column_sets(p):
    # the verdict's finite-difference columns, with the node rows of the full
    # groups dropped, and the witness system's points
    cols, full = _fd_columns(p, 1, p.u)
    return (cols, full), (_point_columns(enumerate_points(p, 1, p.u), p.u), frozenset())


def test_fd_systems_eliminate_as_the_eager_kernel_up_to_30(validated_30):
    # the verdict's own systems, unit guard at (0, 0): rows, pivots, guard and
    # every kernel vector as the eagerly rescaled kernel gives them
    for p in validated_30:
        cols, full = _fd_columns(p, 1, p.u)
        guard = [1] + [0] * (len(cols) - 1)
        assert_lazy_echelon_matches_eager(_system_rows(cols, p.u, full), len(cols), guard)


def test_system_rows_match_the_dense_builder_up_to_30(validated_30):
    for p in validated_30:
        for cols, drop in both_column_sets(p):
            assert _system_rows(cols, p.u, drop) == dense_system_rows(cols, p.u, drop), p.triple
        cols = full_fd_columns(p, 1, p.u)
        assert _system_rows(cols, p.u) == dense_system_rows(cols, p.u), p.triple


@pytest.mark.parametrize("pool", ["rank_deep.json", "witness_extract.json"])
def test_system_rows_match_the_dense_builder_on_pools(pool):
    for row in pool_rows(pool):
        p = pres(row["a"], row["b"], row["c"])
        for cols, drop in both_column_sets(p):
            assert _system_rows(cols, p.u, drop) == dense_system_rows(cols, p.u, drop), row


def test_classify_without_witness_builds_no_point(monkeypatch, validated_30):
    sample = validated_30[::7] + [pres(17, 503, 169)]
    want = [
        (classify(p.triple), huneke_witness_exists(p), piece_dimension(p, 2, p.u))
        for p in sample
    ]

    def no_points(*args):
        raise AssertionError("lattice point built without a witness wanted")

    monkeypatch.setattr(symrees.witness, "enumerate_points", no_points)
    monkeypatch.setattr(symrees.witness, "LatticePoint", no_points)
    monkeypatch.setattr(symrees.lattice, "LatticePoint", no_points)
    got = [
        (classify(p.triple), huneke_witness_exists(p), piece_dimension(p, 2, p.u))
        for p in sample
    ]
    assert got == want
    assert any(v.noetherian for v, _, _ in got) and not all(v.noetherian for v, _, _ in got)


def test_gk_verdict_with_witness_wanted_matches_point_system(monkeypatch, validated_40):
    # GK forbids a witness, so classify(want_witness=True) decides GK triples
    # in the finite-difference basis and builds no lattice point
    gk = [p for p in validated_40 if classify(p.triple).gk.holds]
    assert len(gk) > 100
    want = [point_system_witness(p) for p in gk]

    def no_points(*args):
        raise AssertionError("lattice point built for a GK triple")

    monkeypatch.setattr(symrees.witness, "enumerate_points", no_points)
    for p, (points, rank, exists, witness) in zip(gk, want):
        v = classify(p.triple, want_witness=True)
        assert not exists and witness is None, p.triple
        assert v == replace(
            classify(p.triple),
            points=points,
            dim_piece_u=points - rank,
            witness_exists=exists,
            noetherian=exists,
            witness=witness,
        ), p.triple


def test_extract_witness_refuses_gk_triples_without_points(monkeypatch, validated_40):
    # extract_witness goes through classify, which decides GK triples in the
    # finite-difference basis
    gk = [p for p in validated_40 if classify(p.triple).gk.holds]
    assert len(gk) > 100

    def no_points(*args):
        raise AssertionError("lattice point built for a GK triple")

    monkeypatch.setattr(symrees.witness, "enumerate_points", no_points)
    for p in gk:
        with pytest.raises(NoWitnessError):
            extract_witness(p)


# every validated triple up to 60 where neither EU nor GK holds (none up to
# 40), the README's example and the one such triple of the rank-deep pool;
# none of them is Noetherian
NEITHER_CRITERION = [
    (11, 58, 13),
    (19, 60, 17),
    (51, 58, 55),
    (58, 11, 13),
    (58, 51, 55),
    (60, 19, 17),
    (17, 503, 169),
    (364, 1515, 2069),
]


def test_witness_request_without_a_criterion_is_decided_before_points(monkeypatch):
    # the finite-difference decision comes first, so no point is built for a
    # witness that does not exist
    sample = [pres(*t) for t in NEITHER_CRITERION]
    want = [(classify(p.triple), point_system_witness(p)) for p in sample]

    def no_points(*args):
        raise AssertionError("lattice point built for a triple without a witness")

    monkeypatch.setattr(symrees.witness, "enumerate_points", no_points)
    for p, (v, (points, rank, exists, _)) in zip(sample, want):
        assert not (v.eu.holds or v.gk.holds or exists), p.triple
        assert (v.points, v.dim_piece_u, v.witness_exists) == (points, points - rank, exists)
        assert classify(p.triple, want_witness=True) == v, p.triple
        with pytest.raises(NoWitnessError):
            extract_witness(p)
