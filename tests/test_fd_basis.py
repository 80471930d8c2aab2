"""The finite-difference column basis against the systems it replaces.

The verdict, the rank and the piece dimensions are decided on the columns
v^alpha w^b_lo (w-1)^j of the short column groups, at the order lowered by
one for each full group.  Two oracles check it: the point system over
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
    enumerate_points,
    full_fd_columns,
    full_fd_decision,
    kept_points,
    point_system_decision,
    point_system_witness,
)
from symrees.criteria import check_eu, check_gk
from symrees.lattice import _column_bounds, column_counts
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
    _kept_groups,
    _point_columns,
    _system_rows,
    classify,
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
        decision = _fd_decision(p, column_counts(p), p.u)
        assert decision == full_fd_decision(p, 1, p.u), p.triple
        assert decision == point_system_decision(p, 1, p.u), p.triple


def test_fd_decision_matches_rank_deep_pool():
    # the pool's points, verdicts and dim_piece_u were recorded from the
    # point system; every 8th row is also eliminated here over its points
    rows = pool_rows("rank_deep.json")
    assert len(rows) == 1024
    for i, row in enumerate(rows):
        p = pres(row["a"], row["b"], row["c"])
        rank, forced = _fd_decision(p, column_counts(p), p.u)
        assert 1 + sum(column_counts(p)) == row["points"], row
        assert (row["points"] - rank, not forced) == (row["dim_piece_u"], row["noetherian"]), row
        assert (rank, forced) == full_fd_decision(p, 1, p.u), row
        if i % 8 == 0:
            assert (rank, forced) == point_system_decision(p, 1, p.u), row


def test_fd_decision_matches_witness_extract_pool():
    rows = pool_rows("witness_extract.json")
    assert len(rows) == 512
    for row in rows:
        p = pres(row["a"], row["b"], row["c"])
        assert 1 + sum(column_counts(p)) == row["points"], row
        decision = _fd_decision(p, column_counts(p), p.u)
        assert decision == point_system_decision(p, 1, p.u), row
        assert decision == full_fd_decision(p, 1, p.u), row
        assert not decision[1], row  # every pool triple has a witness


def test_fd_decision_matches_point_system_beyond_hypotheses():
    # the change of basis needs no hypothesis beyond a three-binomial
    # presentation: every such triple up to 12, at scales 1 and 2 and every
    # order up to e*u + 1
    cases = 0
    for a, b, c in iter_triples(ScanJob(12)):
        try:
            p = pres(a, b, c)
        except (NotCoprimeError, NotThreeGeneratedError):
            continue
        for e in (1, 2):
            if 1 + sum(column_counts(p, e)) > 300:
                continue
            for n in range(1, e * p.u + 2):
                want = point_system_decision(p, e, n)
                assert _fd_decision(p, column_counts(p, e), n) == want, (p.triple, e, n)
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
    assume(1 + sum(column_counts(p, e)) <= 300)
    n = 1 + n_seed % (e * p.u + 1)
    decision = _fd_decision(p, column_counts(p, e), n)
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
        decision = _fd_decision(p, column_counts(p), p.u)
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
                assert _fd_decision(p, column_counts(p, e), n) == (rank, forced), (p.triple, e, n)
                cases += 1
    assert cases > 700


def column_lengths(p, e):
    # l_alpha for alpha = 0..e*u, 0 for an empty column
    return [max(0, b_hi - b_lo + 1) for b_lo, b_hi in _column_bounds(p, e)]


def test_fd_decision_matches_full_system_at_low_orders(validated_30):
    # small orders reach both sides of the lowering: every group full
    # (f >= n, no system built) and some full, some short (0 < n - f < n)
    sides = set()
    for p in validated_30:
        for e in (1, 2, 3):
            lengths = column_lengths(p, e)
            for n in range(1, 5):
                f = sum(1 for ell in lengths[1:] if ell >= n)
                sides.add("all full" if f >= n else "lowered" if f else "none full")
                decision = _fd_decision(p, column_counts(p, e), n)
                assert decision == full_fd_decision(p, e, n), (p.triple, e, n)
    assert {"all full", "lowered"} <= sides


def test_fd_system_size_is_bounded_by_columns_and_orders(validated_30):
    # one column per short-group jet below the lowered order, plus (0, 0)
    for p in validated_30:
        for e in (1, 2):
            lengths = column_lengths(p, e)
            for n in (1, 2, p.u, e * p.u + 1):
                f = sum(1 for ell in lengths[1:] if ell >= n)
                cols, m = _fd_columns(p, column_counts(p, e), n)
                assert m == max(0, n - f), (p.triple, e, n)
                if not m:
                    assert cols == [], (p.triple, e, n)
                    continue
                rows = _system_rows(cols, m)
                assert len(cols) == 1 + sum(min(ell, m) for ell in lengths[1:] if ell < n)
                assert len(rows) <= len(derivative_orders(m))
                assert all(len(row) == len(cols) for row in rows)


def test_fd_columns_are_the_lowered_full_set_without_the_full_groups(validated_30):
    # the columns of every short group at order n - f, in the order of the
    # full set at that order, with (0, 0) moved from first to last
    for p in validated_30:
        for e in (1, 2):
            lengths = column_lengths(p, e)
            for n in (1, 2, p.u, e * p.u + 1):
                full = {al for al, ell in enumerate(lengths) if al and ell >= n}
                cols, m = _fd_columns(p, column_counts(p, e), n)
                if m:
                    origin, *rest = full_fd_columns(p, e, m)
                    want = [(al, f) for al, f in rest if al not in full] + [origin]
                    assert cols == want, (p.triple, e, n)


def test_eu_gives_full_row_rank_in_the_verdict(validated_40):
    # EU says the lowering, repeated on the groups that become full, reaches
    # order 0: the u(u+1)/2 rows of the witness system are independent
    eu = [p.triple for p in validated_40 if check_eu(p).holds]
    for name in ("rank_deep.json", "witness_extract.json"):
        for row in pool_rows(name):
            triple = CurveTriple(row["a"], row["b"], row["c"])
            if check_eu(compute_presentation(triple)).holds:
                eu.append(triple)
    assert len(eu) > 1000
    for triple in eu:
        v = classify(triple)
        u = v.presentation.u
        assert v.eu.holds and v.dim_piece_u == v.points - u * (u + 1) // 2, triple


def test_piece_dimension_is_zero_from_the_separating_order():
    # 8 19 9 has 11 points in k = 4 columns, the longest of L = 6, so its
    # piece is 0 from n = 9 on; at n = 10^6 a system would not fit
    p = pres(8, 19, 9)
    lengths = [ell for ell in column_lengths(p, 1) if ell]
    assert (sum(lengths), len(lengths), max(lengths)) == (11, 4, 6)
    assert piece_dimension(p, 1, 10**6) == 0


def test_piece_dimension_at_the_separating_order_matches_point_system(validated_30):
    # at n = k + L - 1 every point is cut out by a polynomial of degree < n,
    # so the point system has full column rank
    validated_20 = [p for p in validated_30 if max(p.a, p.b, p.c) <= 20]
    assert validated_20
    for p in validated_20:
        for e in (1, 2):
            lengths = [ell for ell in column_lengths(p, e) if ell]
            n = len(lengths) + max(lengths) - 1
            rank, forced = point_system_decision(p, e, n)
            assert (rank, forced) == (sum(lengths), True), (p.triple, e, n)
            assert piece_dimension(p, e, n) == 0, (p.triple, e, n)


def both_column_sets(p):
    # the verdict's finite-difference columns at their lowered order, when
    # a system is left, and the kept points of the witness system at order u
    cols, m = _fd_columns(p, column_counts(p), p.u)
    point_set = (_point_columns(kept_points(_kept_groups(p, column_counts(p), p.u)), p.u), p.u)
    return [(cols, m), point_set] if m else [point_set]


def test_fd_systems_eliminate_as_the_eager_kernel_up_to_30(validated_30):
    # the verdict's own systems: rows, pivots and every kernel vector as the
    # eagerly rescaled kernel gives them
    for p in validated_30:
        cols, m = _fd_columns(p, column_counts(p), p.u)
        if m:
            assert_lazy_echelon_matches_eager(_system_rows(cols, m), len(cols))


def test_system_rows_match_the_dense_builder_up_to_30(validated_30):
    for p in validated_30:
        for cols, n in both_column_sets(p):
            assert _system_rows(cols, n) == dense_system_rows(cols, n), p.triple
        cols = full_fd_columns(p, 1, p.u)
        assert _system_rows(cols, p.u) == dense_system_rows(cols, p.u), p.triple


@pytest.mark.parametrize("pool", ["rank_deep.json", "witness_extract.json"])
def test_system_rows_match_the_dense_builder_on_pools(pool):
    for row in pool_rows(pool):
        p = pres(row["a"], row["b"], row["c"])
        for cols, n in both_column_sets(p):
            assert _system_rows(cols, n) == dense_system_rows(cols, n), row


def test_classify_without_witness_builds_no_point(monkeypatch, validated_30):
    sample = validated_30[::7] + [pres(17, 503, 169)]
    want = [(classify(p.triple), piece_dimension(p, 2, p.u)) for p in sample]

    def no_points(*args):
        raise AssertionError("lattice point built without a witness wanted")

    monkeypatch.setattr(symrees.witness, "LatticePoint", no_points)
    monkeypatch.setattr(symrees.lattice, "LatticePoint", no_points)
    got = [(classify(p.triple), piece_dimension(p, 2, p.u)) for p in sample]
    assert got == want
    assert any(v.noetherian for v, _ in got) and not all(v.noetherian for v, _ in got)


def test_gk_verdict_with_witness_wanted_matches_point_system(monkeypatch, validated_40):
    # GK forbids a witness, so classify(want_witness=True) decides GK triples
    # in the finite-difference basis and builds no lattice point
    gk = [p for p in validated_40 if classify(p.triple).gk.holds]
    assert len(gk) > 100
    want = [point_system_witness(p) for p in gk]

    def no_points(*args):
        raise AssertionError("lattice point built for a GK triple")

    monkeypatch.setattr(symrees.witness, "LatticePoint", no_points)
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

    monkeypatch.setattr(symrees.witness, "LatticePoint", no_points)
    for p, (v, (points, rank, exists, _)) in zip(sample, want):
        assert not (v.eu.holds or v.gk.holds or exists), p.triple
        assert (v.points, v.dim_piece_u, v.witness_exists) == (points, points - rank, exists)
        assert classify(p.triple, want_witness=True) == v, p.triple
