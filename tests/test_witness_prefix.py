"""Witness extraction on the kept columns against the full point system.

``classify(want_witness=True)`` and ``symrees witness`` keep the first
min(l_alpha, m_alpha) points of each column (``witness._kept_groups``).  When the kept counts are u, u-1, ..., 1 they
back-substitute through the order lowering (``_back_substituted``);
otherwise they eliminate the kept points (``_kept_elimination``).
``oracles.point_system_witness`` eliminates the (e=1, n=u) system over every
lattice point of the triangle.  All must give the same point count, rank,
witness existence and canonical witness, coefficient order included.  The
kept columns are also held to the depth-u column prefixes
(``oracles.prefix_points``) that extraction eliminated before.  The two
re-checks of an emitted witness, triangle membership and the shift test,
are compared with their rational and term-by-term forms.
"""

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symrees.witness
from oracles import (
    beta_range,
    enumerate_points,
    kept_points,
    point_system_witness,
    prefix_points,
    reduce_against,
    rref_null_space,
    scaled_system,
    shift_membership_per_term,
    vertices,
)
from symrees.criteria import check_eu
from symrees.lattice import DeltaRegion, column_counts, column_top
from symrees.presentation import (
    CurveTriple,
    NotCoprimeError,
    NotThreeGeneratedError,
    compute_presentation,
    validate_assumptions,
)
from symrees.witness import (
    _echelon,
    _kept_elimination,
    _kept_groups,
    _point_columns,
    _system_rows,
    _witness_test,
    classify,
    shift_membership_test,
)

POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def pool_rows(name):
    data = json.loads((POOLS / name).read_text())
    return [dict(zip(data["columns"], row)) for row in data["rows"]]


def pres(a, b, c):
    return compute_presentation(CurveTriple(a, b, c))


def assert_same_witness(got, want, label):
    assert got[:3] == want[:3], label
    if want[3] is None:
        assert got[3] is None, label
    else:
        assert list(got[3].coefficients.items()) == list(want[3].coefficients.items()), label
        assert (got[3].e, got[3].n) == (want[3].e, want[3].n), label


def kept_groups(p):
    """The kept groups of the (e=1, n=u) witness system, from the column profile of D."""
    return _kept_groups(p, column_counts(p), p.u)


def staircase(p):
    """Are the kept counts u, u-1, ..., 1, so that the witness is back-substituted?"""
    return sorted(k for _, _, k in kept_groups(p)) == list(range(1, p.u + 1))


def assert_matches_point_system(p):
    """classify(want_witness=True) and the full point system agree; returns the oracle.

    On the triples these tests use, a witness exists exactly when the kept
    counts are u, u-1, ..., 1.
    """
    want = point_system_witness(p)
    v = classify(p.triple, want_witness=True)
    assert_same_witness((v.points, v.points - v.dim_piece_u, v.noetherian, v.witness), want, p.triple)
    assert staircase(p) is want[2], p.triple
    return want


@pytest.fixture
def no_fallback(monkeypatch):
    # classify reaches the kept-point elimination on none of these triples
    def refuse(*args):
        raise AssertionError("witness eliminated instead of back-substituted")

    monkeypatch.setattr(symrees.witness, "_kept_elimination", refuse)


def test_prefix_witness_matches_point_system_up_to_40(validated_40, no_fallback):
    found = sum(assert_matches_point_system(p)[2] for p in validated_40)
    assert len(validated_40) == 3046 and found == 2786


def witness_digest(coefficients):
    # the pool's witness_sha256, as perfbench/workloads.py computes it
    text = ";".join(f"{al},{be}:{c}" for (al, be), c in sorted(coefficients.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def test_prefix_witness_matches_witness_extract_pool(no_fallback):
    rows = pool_rows("witness_extract.json")
    assert len(rows) == 512
    for row in rows:
        p = pres(row["a"], row["b"], row["c"])
        points, _, exists, witness = assert_matches_point_system(p)
        assert exists and points == row["points"], row
        assert witness_digest(witness.coefficients) == row["witness_sha256"], row


def test_prefix_witness_matches_rank_deep_pool(no_fallback):
    # the verdict rows of the rank-deep pool, now with a witness wanted
    rows = pool_rows("rank_deep.json")
    assert len(rows) == 1024
    for row in rows:
        p = pres(row["a"], row["b"], row["c"])
        points, rank, exists, _ = assert_matches_point_system(p)
        assert (points, points - rank, exists) == (
            row["points"], row["dim_piece_u"], row["noetherian"]
        ), row


def test_prefix_witness_on_triangles_far_larger_than_the_prefixes(no_fallback):
    # (triple, u, points, depth-u prefix points, kept points)
    for triple, u, points, prefix, kept in [
        ((5883, 4379, 1466), 7, 8782, 44, 29),
        ((4519, 4373, 1482), 6, 6637, 32, 22),
    ]:
        p = pres(*triple)
        assert validate_assumptions(p).all_hold and p.u == u
        want = assert_matches_point_system(p)
        assert want[0] == points and len(prefix_points(p, 1, u)) == prefix <= u**2 + 1
        assert len(kept_points(kept_groups(p))) == kept
        if want[2]:
            assert classify(p.triple, want_witness=True).witness == want[3]


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 200), st.integers(3, 200), st.integers(3, 200))
def test_prefix_witness_matches_point_system_property(a, b, c):
    # the kept-column argument needs only n = u, not the hypotheses, so any
    # three-binomial triple is compared through ``_witness_test``, which
    # back-substitutes or eliminates the kept points
    while math.gcd(a, b) != 1:
        b += 1
    while math.gcd(a * b, c) != 1:
        c += 1
    try:
        p = pres(a, b, c)
    except NotThreeGeneratedError:
        assume(False)
    assume(p.u <= 16 and 1 + sum(column_counts(p)) <= 400)
    got = (1 + sum(column_counts(p)), *_witness_test(p, column_counts(p), want_witness=True))
    assert_same_witness(got, point_system_witness(p), p.triple)


def test_fallback_eliminates_exactly_the_kept_columns(monkeypatch, validated_30):
    shapes = []
    echelon = symrees.witness._echelon

    def recording(rows, ncols):
        shapes.append(ncols)
        return echelon(rows, ncols)

    monkeypatch.setattr(symrees.witness, "_echelon", recording)
    sample = validated_30[::3] + [pres(5883, 4379, 1466), pres(17, 503, 169)]
    for p in sample:
        _kept_elimination(kept_groups(p), p.u)
    assert shapes == [len(kept_points(kept_groups(p))) for p in sample]
    assert all(shape <= p.u**2 + 1 for p, shape in zip(sample, shapes))


def test_fallback_elimination_matches_point_system_up_to_30(validated_30):
    # no triple up to 40 reaches the fallback through classify, so it is
    # called directly, on triples with and without a witness
    found = 0
    for p in validated_30:
        points, rank, exists, witness = point_system_witness(p)
        got_rank, got = _kept_elimination(kept_groups(p), p.u)
        want = (points, rank, exists, witness)
        assert_same_witness((points, got_rank, got is not None, got), want, p.triple)
        found += exists
    assert 0 < found < len(validated_30)


def eliminate(points, n):
    """(rank, first nonzero column of the reduced unit guard at (0, 0) or None)."""
    unit = [int(pt == (0, 0)) for pt in points]
    reduced = _echelon(_system_rows(_point_columns(points, n), n), len(points))
    return reduced.rank, next((c for c, x in enumerate(reduce_against(reduced, unit)) if x), None)


def test_kept_columns_keep_the_rank_and_the_witness_column_of_the_prefixes(validated_30):
    # the truncation argument of witness._kept_groups, against the depth-u prefixes
    cut = 0
    for p in validated_30:
        prefix, kept = prefix_points(p, 1, p.u), kept_points(kept_groups(p))
        kept_set = set(kept)
        assert kept == [pt for pt in prefix if pt in kept_set], p.triple
        (rank, fc), (kept_rank, kept_fc) = eliminate(prefix, p.u), eliminate(kept, p.u)
        assert kept_rank == rank, p.triple
        assert (fc is None) is (kept_fc is None), p.triple
        if fc is not None:
            assert prefix[fc] == kept[kept_fc], p.triple
        cut += len(kept) < len(prefix)
    assert (cut, len(validated_30)) == (532, 1158)


def test_kept_counts_are_u_to_1_exactly_when_eu_holds(validated_40, no_fallback):
    # counts u, ..., 1 imply EU; the converse fails on some column profiles
    # (next test) but on no triple here, and no triple here without those
    # counts has a witness, so classify never eliminates the kept points
    names = ("rank_deep.json", "witness_extract.json")
    pools = [pres(row["a"], row["b"], row["c"]) for name in names for row in pool_rows(name)]
    for p in validated_40 + pools:
        eu = check_eu(p).holds
        assert staircase(p) is eu, p.triple
        if not eu:
            assert not classify(p.triple, want_witness=True).noetherian, p.triple


def test_eu_profile_whose_kept_counts_are_not_u_to_1(monkeypatch, validated_30):
    # column lengths 3, 3, 5, 4, 1 at u = 5 pass EU's sorted test, but the
    # two groups of length 3 wait below the order and are taken out one
    # order apart, so each keeps 3 points: the witness request is decided
    # first and the kept points are eliminated, which finds the witness; the
    # profile goes to both functions as the verdict hands over its EU report's
    lengths = (3, 3, 5, 4, 1)
    assert all(ell >= i for i, ell in enumerate(sorted(lengths), 1))
    p = next(p for p in validated_30 if p.u == 5)
    groups = _kept_groups(p, lengths, 5)
    assert groups == [(al, column_top(p, al), k) for al, k in enumerate(lengths, 1)]
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_back_substituted", "_kept_elimination"):
        monkeypatch.setattr(symrees.witness, name, counting(name, getattr(symrees.witness, name)))
    rank, exists, witness = _witness_test(p, lengths, want_witness=True)
    assert (rank, exists, calls) == (15, True, {"_kept_elimination": 1})
    points = kept_points(groups)
    vec = next(vec for vec in rref_null_space(scaled_system(points, 5)) if vec[0])
    want = [(pt, x / vec[0]) for pt, x in zip(points, vec) if x]
    assert list(witness.coefficients.items()) == want
    assert shift_membership_test(witness.coefficients, 5)


def large_eu_sample():
    # EU triples with u from 17 to 45, from a seeded stream of weights up to
    # 6000 (c up to 600), past the u <= 16 of the benchmark pools
    rng = random.Random(15)
    found = []
    while len(found) < 8:
        a, b, c = rng.randint(2, 6000), rng.randint(2, 6000), rng.randint(2, 600)
        try:
            p = pres(a, b, c)
        except (NotCoprimeError, NotThreeGeneratedError):
            continue
        if 17 <= p.u <= 45 and validate_assumptions(p).all_hold and check_eu(p).holds:
            found.append(p)
    return found


def test_back_substitution_matches_kept_elimination_at_large_u():
    # the full point system costs seconds per triple at u near 40, so the
    # back-substituted witness is held to the kept-point elimination there
    sample = large_eu_sample()
    assert max(p.u for p in sample) >= 35
    for p in sample:
        assert staircase(p), p.triple
        v = classify(p.triple, want_witness=True)
        rank, witness = _kept_elimination(kept_groups(p), p.u)
        assert rank == v.points - v.dim_piece_u == p.u * (p.u + 1) // 2, p.triple
        assert list(v.witness.coefficients.items()) == list(witness.coefficients.items()), p.triple
        assert shift_membership_test(v.witness.coefficients, p.u), p.triple


def test_enumerate_points_depth_keeps_each_column_top(validated_30):
    # the depth-limited prefixes of the tests against the full enumeration
    for p in validated_30[::11]:
        for e in (1, 2):
            full = enumerate_points(p, e)
            for depth in (1, 2, p.u):
                rank_in_column = Counter()
                want = []
                for pt in full:
                    if rank_in_column[pt.alpha] < depth:
                        want.append(pt)
                    rank_in_column[pt.alpha] += 1
                assert prefix_points(p, e, depth) == want, (p.triple, e, depth)
            assert prefix_points(p, e, len(full)) == full


def test_contains_matches_rational_description(validated_30):
    # every point of a box around e*D, against beta_range's exact fractions;
    # the members of each region are its point count, read from the column profile
    members = Counter()
    for p in validated_30:
        for e in (1, 2, 3):
            region = DeltaRegion(p, e)
            before = members[True]
            ys = [y for _, y in vertices(region)]
            b_lo, b_hi = math.ceil(min(ys)), math.floor(max(ys))
            for alpha in range(-1, e * p.u + 2):
                inside_columns = 0 <= alpha <= e * p.u
                lo, hi = beta_range(region, alpha) if inside_columns else (None, None)
                for beta in range(b_lo - 2, b_hi + 3):
                    want = inside_columns and lo <= beta <= hi
                    assert region.contains(alpha, beta) == want, (p.triple, e, alpha, beta)
                    members[want] += 1
            assert members[True] - before == 1 + sum(column_counts(p, e)) > 0, (p.triple, e)
    assert members[False] > members[True] > 100000


laurent_terms = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=12,
)


def times_power(coefficients, k, n):
    """phi * (v - 1)^k * (w - 1)^(n - k): a member of (v-1, w-1)^n."""
    out = Counter()
    for (al, be), c in coefficients.items():
        for i in range(k + 1):
            for j in range(n - k + 1):
                sign = (-1) ** (k - i + n - k - j)
                out[al + i, be + j] += c * sign * math.comb(k, i) * math.comb(n - k, j)
    return {pt: Fraction(c) for pt, c in out.items()}


@settings(max_examples=300, deadline=None)
@given(laurent_terms, st.integers(1, 6), st.integers(0, 6), st.integers(0, 6))
def test_shift_test_matches_per_term_oracle_property(coefficients, n, k_seed, extra):
    # random Laurent polynomials (mostly non-members) and multiples of a
    # product of n factors v - 1, w - 1 (members), with negative exponents
    assert shift_membership_test(coefficients, n) == shift_membership_per_term(coefficients, n)
    k = k_seed % (n + 1)
    member = times_power(coefficients, k, n)
    assert shift_membership_test(member, n) is True
    assert shift_membership_per_term(member, n) is True
    deeper = n + 1 + extra % 3
    answer = shift_membership_test(member, deeper)
    assert answer == shift_membership_per_term(member, deeper)
