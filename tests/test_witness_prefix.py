"""Witness extraction on the column prefixes against the full point system.

``classify(want_witness=True)``, ``extract_witness`` and ``symrees witness``
eliminate the (e=1, n=u) system over the first min(l_alpha, u) points of
each column only; ``oracles.point_system_witness`` eliminates it over every
lattice point of the triangle.  Both must give the same point count, rank,
witness existence and canonical witness, coefficient order included.  The
two re-checks of an emitted witness, triangle membership and the shift
test, are compared with their rational and term-by-term forms.
"""

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symrees.witness
from oracles import beta_range, point_system_witness, shift_membership_per_term, vertices
from symrees.lattice import DeltaRegion, _column_bounds, count_points, enumerate_points
from symrees.presentation import (
    CurveTriple,
    NotThreeGeneratedError,
    compute_presentation,
    validate_assumptions,
)
from symrees.witness import _witness_test, classify, extract_witness, shift_membership_test

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


def assert_matches_point_system(p):
    """classify(want_witness=True) and the full point system agree; returns the oracle."""
    want = point_system_witness(p)
    v = classify(p.triple, want_witness=True)
    assert_same_witness((v.points, v.points - v.dim_piece_u, v.witness_exists, v.witness), want, p.triple)
    return want


def test_prefix_witness_matches_point_system_up_to_40(validated_40):
    found = sum(assert_matches_point_system(p)[2] for p in validated_40)
    assert len(validated_40) == 3046 and found == 2786


def witness_digest(coefficients):
    # the pool's witness_sha256, as perfbench/workloads.py computes it
    text = ";".join(f"{al},{be}:{c}" for (al, be), c in sorted(coefficients.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def test_prefix_witness_matches_witness_extract_pool():
    rows = pool_rows("witness_extract.json")
    assert len(rows) == 512
    for row in rows:
        p = pres(row["a"], row["b"], row["c"])
        points, _, exists, witness = assert_matches_point_system(p)
        assert exists and points == row["points"], row
        assert witness_digest(witness.coefficients) == row["witness_sha256"], row


def test_prefix_witness_matches_rank_deep_pool():
    # the verdict rows of the rank-deep pool, now with a witness wanted
    rows = pool_rows("rank_deep.json")
    assert len(rows) == 1024
    for row in rows:
        p = pres(row["a"], row["b"], row["c"])
        points, rank, exists, _ = assert_matches_point_system(p)
        assert (points, points - rank, exists) == (
            row["points"], row["dim_piece_u"], row["noetherian"]
        ), row


def test_prefix_witness_on_triangles_far_larger_than_the_prefixes():
    # (triple, u, points, prefix points)
    for triple, u, points, prefix in [
        ((5883, 4379, 1466), 7, 8782, 44),
        ((4519, 4373, 1482), 6, 6637, 32),
    ]:
        p = pres(*triple)
        assert validate_assumptions(p).all_hold and p.u == u
        want = assert_matches_point_system(p)
        assert want[0] == points and len(enumerate_points(p, 1, u)) == prefix <= u**2 + 1
        if want[2]:
            assert extract_witness(p) == want[3]


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 200), st.integers(3, 200), st.integers(3, 200))
def test_prefix_witness_matches_point_system_property(a, b, c):
    # the prefix argument needs only n = u, not the hypotheses, so any
    # three-binomial triple is compared through the point system of _witness_test
    while math.gcd(a, b) != 1:
        b += 1
    while math.gcd(a * b, c) != 1:
        c += 1
    try:
        p = pres(a, b, c)
    except NotThreeGeneratedError:
        assume(False)
    assume(p.u <= 16 and count_points(p, 1) <= 400)
    got = _witness_test(p, want_witness=True, decide_first=False)
    assert_same_witness(got, point_system_witness(p), p.triple)


def test_witness_system_has_one_column_per_prefix_point(monkeypatch, validated_30):
    shapes = []
    echelon = symrees.witness._echelon

    def recording(rows, ncols, guard=None):
        shapes.append(ncols)
        return echelon(rows, ncols, guard)

    monkeypatch.setattr(symrees.witness, "_echelon", recording)
    sample = validated_30[::3] + [pres(5883, 4379, 1466)]
    for p in sample:
        _witness_test(p, want_witness=True, decide_first=False)
    want = [
        sum(min(b_hi - b_lo + 1, p.u) for b_lo, b_hi in _column_bounds(p, 1) if b_hi >= b_lo)
        for p in sample
    ]
    assert shapes == want
    assert all(len(enumerate_points(p, 1, p.u)) == n for p, n in zip(sample, want))


def test_enumerate_points_depth_keeps_each_column_top(validated_30):
    for p in validated_30[::11]:
        for e in (1, 2):
            full = enumerate_points(p, e)
            assert enumerate_points(p, e, None) == full
            for depth in (1, 2, p.u):
                rank_in_column = Counter()
                want = []
                for pt in full:
                    if rank_in_column[pt.alpha] < depth:
                        want.append(pt)
                    rank_in_column[pt.alpha] += 1
                assert enumerate_points(p, e, depth) == want, (p.triple, e, depth)


def test_contains_matches_rational_description(validated_30):
    # every point of a box around e*D, against beta_range's exact fractions
    members = Counter()
    for p in validated_30:
        for e in (1, 2, 3):
            region = DeltaRegion(p, e)
            ys = [y for _, y in vertices(region)]
            b_lo, b_hi = math.ceil(min(ys)), math.floor(max(ys))
            for alpha in range(-1, e * p.u + 2):
                inside_columns = 0 <= alpha <= e * p.u
                lo, hi = beta_range(region, alpha) if inside_columns else (None, None)
                for beta in range(b_lo - 2, b_hi + 3):
                    want = inside_columns and lo <= beta <= hi
                    assert region.contains(alpha, beta) == want, (p.triple, e, alpha, beta)
                    members[want] += 1
            assert members[True] > 0
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
