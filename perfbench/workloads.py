"""Workloads of the symrees benchmark: inputs, the operation and its check.

Inputs come from reference pools under ``perfbench/data`` (written by
``make_pools.py`` from the classifier itself, with the verdicts it gave).
A closed-loop run works in whole passes over a fixed, cost-spread sample of
its pool (see sample_pass); the run's seed sets the order in which the
triples reach the program, which only ever receives the triples.  Every run
of a workload thus times the same triples, each equally often.

Every operation goes through the package's public API and every output is
checked: against the recorded references, and against the exact properties
the package promises.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import symrees  # noqa: E402
from symrees import records, scan, witness  # noqa: E402
from symrees.lattice import DeltaRegion, LatticePoint  # noqa: E402
from symrees.polynomials import SparsePoly, curve_substitution_zero  # noqa: E402
from symrees.presentation import CurveTriple  # noqa: E402
from symrees.scan import ScanJob  # noqa: E402

if Path(symrees.__file__).resolve().parent != SRC / "symrees":
    raise ImportError(f"symrees imported from {symrees.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "batch" (one scan at a time) or "closed" (next op after the last ends)
    clients: int  # closed loop: concurrent callers; batch: worker processes
    generator: dict[str, Any]
    # fixed per workload so that runs stay comparable: the highest of
    # 50/90/95/99/99.5/99.9 with ten samples beyond it in one pass
    tail_percentile: float
    trace_ops: int  # operations in each pass of a traced run (closed loop)
    stride: int = 1  # closed loop: a pass takes every stride-th cost rank of the pool


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="scan-dense",
            loop="batch",
            clients=2,
            generator={
                "job": "ScanJob.upto(bound, jobs=2)",
                "bound": 40,
                "tiny_bound": 12,
                "encoding": "json.dumps(to_dict(record, with_timing=False)) per line",
            },
            tail_percentile=99.9,
            trace_ops=0,
        ),
        Workload(
            name="rank-deep",
            loop="closed",
            clients=1,
            generator={
                "pool": "rank_deep.json",
                "weights": [2, 3000],
                "u": [10, 16],
                "points": [100, 400],
                "hypotheses": "all hold",
                "cost": "rows x points of the witness system",
                "pass": "every 2nd cost rank",
            },
            tail_percentile=95.0,
            trace_ops=60,
            stride=2,
        ),
        Workload(
            name="witness-extract",
            loop="closed",
            clients=1,
            generator={
                "pool": "witness_extract.json",
                "weights": [2, 1000],
                "u": [7, 12],
                "points": [1, 400],
                "hypotheses": "all hold, Noetherian",
                "cost": "rows x points of the witness system",
                "pass": "every 2nd cost rank",
            },
            tail_percentile=95.0,
            trace_ops=80,
            stride=2,
        ),
        Workload(
            name="wide-inapplicable",
            loop="closed",
            clients=1,
            generator={
                "pool": "wide_inapplicable.json",
                "weights": [2, 10000],
                "hypotheses": "pairwise coprime, three-generated, u^2 c >= ab",
                "cost": "area of the triangle D",
                "pass": "the whole pool",
            },
            tail_percentile=99.5,
            trace_ops=600,
            stride=1,
        ),
    )
}


# ---------------------------------------------------------------- pools


def load_pool(name: str) -> list[dict[str, Any]]:
    """Rows of a reference pool file, as dicts."""
    with open(DATA / name) as fh:
        data = json.load(fh)
    return [dict(zip(data["columns"], row)) for row in data["rows"]]


def sample_pass(rows: list[dict[str, Any]], cost: Callable[[dict], float], seed: int,
                stride: int) -> list[dict[str, Any]]:
    """One pass of a closed loop: every ``stride``-th cost rank, in a seeded order.

    Rows are sorted by ``cost`` and every ``stride``-th rank is kept, the
    same rows for every seed: the median and tail of a few hundred triples
    whose costs span two orders of magnitude move by up to about 10% from
    one subset of the pool to another, which would be spread without a
    cause in the program.  The seed sets the order: bit-reversed rank order
    from a seeded offset, so that cheap and expensive triples alternate and
    any prefix (a traced run takes one) spreads evenly over the cost ranks.
    """
    sample = sorted(rows, key=cost)[::stride]
    bits = max(1, (len(sample) - 1).bit_length())
    size = 1 << bits
    offset = random.Random(seed).randrange(size)
    ranks = ((int(f"{j:0{bits}b}"[::-1], 2) + offset) % size for j in range(size))
    return [sample[rank] for rank in ranks if rank < len(sample)]


def system_cells(row: dict[str, Any]) -> int:
    return row["u"] * (row["u"] + 1) // 2 * row["points"]


def witness_digest(coefficients: dict) -> str:
    text = ";".join(f"{al},{be}:{c}" for (al, be), c in sorted(coefficients.items()))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- tracing hook


class NullTracer:
    """Stand-in used by untraced runs: a span is one shared no-op context."""

    _span = contextlib.nullcontext()
    op = 0

    def span(self, name: str):
        return self._span


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------- closed-loop ops
#
# Each op takes a pool row and a tracer and returns (output, problems); the
# check compares the output to the row's references and returns problems.
# Layer functions are looked up on their modules at call time, so a traced
# run sees the wrappers it installs.


def op_rank_deep(row, tracer):
    return witness.classify(CurveTriple(row["a"], row["b"], row["c"])), []


def check_rank_deep(row, verdict) -> list[str]:
    problems = []
    for field in ("noetherian", "dim_piece_u", "points"):
        if getattr(verdict, field) != row[field]:
            problems.append(f"{field} {getattr(verdict, field)} != reference {row[field]}")
    return problems


def recheck_witness(verdict, tracer) -> list[str]:
    """The five re-checks `symrees witness` applies, through the public API."""
    p, w = verdict.presentation, verdict.witness
    a, b, c = p.a, p.b, p.c
    problems = []
    if w.coefficients.get(LatticePoint(0, 0)) != 1:
        problems.append("constant coefficient is not 1")
    region = DeltaRegion(p, w.e)
    with tracer.span("lattice.DeltaRegion.contains"):
        inside = all(region.contains(al, be) for al, be in w.coefficients)
    if not inside:
        problems.append("support leaves the triangle")
    with tracer.span("witness.shift_membership_test"):
        member = witness.shift_membership_test(w.coefficients, w.n)
    if not member:
        problems.append("shift-substitution membership fails")
    with tracer.span("witness.WitnessElement.monomials"):
        terms = w.monomials(p)
    with tracer.span("polynomials.curve_substitution_zero"):
        poly = SparsePoly({(ex, ey, ez): coeff for ex, ey, ez, coeff in terms})
        vanishes = curve_substitution_zero(poly, (a, b, c))
        homogeneous = poly.is_homogeneous((a, b, c)) and poly.weighted_degree((a, b, c)) == a * b
    if not vanishes:
        problems.append("polynomial does not vanish on the curve")
    if not homogeneous:
        problems.append("monomials are not homogeneous of degree ab")
    return problems


def op_witness_extract(row, tracer):
    verdict = witness.classify(CurveTriple(row["a"], row["b"], row["c"]), want_witness=True)
    if verdict.witness is None:
        return verdict, ["no witness extracted"]
    return verdict, recheck_witness(verdict, tracer)


def check_witness_extract(row, verdict) -> list[str]:
    problems = []
    if verdict.noetherian is not True or verdict.points != row["points"]:
        problems.append(f"verdict {verdict.noetherian}/{verdict.points} != reference")
    elif witness_digest(verdict.witness.coefficients) != row["witness_sha256"]:
        problems.append("witness differs from the reference")
    return problems


def op_wide_inapplicable(row, tracer):
    return witness.classify(CurveTriple(row["a"], row["b"], row["c"])), []


def check_wide_inapplicable(row, verdict) -> list[str]:
    asm = verdict.assumptions
    if verdict.noetherian is not None or verdict.presentation is None:
        return [f"expected inapplicable with a presentation, got {verdict.noetherian}"]
    if not (asm.pairwise_coprime and asm.three_generated) or asm.negative_curve_iii:
        return [f"unexpected hypothesis report {asm}"]
    p = verdict.presentation
    if (p.s, p.t, p.u) != (row["s"], row["t"], row["u"]):
        return [f"(s, t, u) = {(p.s, p.t, p.u)} != reference"]
    if sum(verdict.eu.ell) != row["column_points"]:
        return [f"column counts sum {sum(verdict.eu.ell)} != reference {row['column_points']}"]
    return []


@dataclass(frozen=True)
class ClosedLoopSpec:
    op: Callable
    check: Callable
    cost: Callable[[dict], float]


CLOSED_LOOP = {
    "rank-deep": ClosedLoopSpec(op_rank_deep, check_rank_deep, system_cells),
    "witness-extract": ClosedLoopSpec(op_witness_extract, check_witness_extract, system_cells),
    "wide-inapplicable": ClosedLoopSpec(
        op_wide_inapplicable, check_wide_inapplicable, lambda row: row["area"]
    ),
}


# ---------------------------------------------------------------- scan-dense

_classify_one = scan.classify_one


def timed_classify_one(args):
    """scan.classify_one that also reports its own time in ``timing_ms``.

    Installed in place of the module attribute while a scan runs, so the
    pool's workers report per-triple service times; the JSON lines written
    without timing stay byte-identical.
    """
    start = time.perf_counter()
    record = _classify_one(args)
    return dataclasses.replace(record, timing_ms=(time.perf_counter() - start) * 1000.0)


def scan_bound(tiny: bool) -> int:
    """The table is exhaustive: its input is the bound alone, not the seed."""
    gen = WORKLOADS["scan-dense"].generator
    return gen["tiny_bound"] if tiny else gen["bound"]


class ScanChecker:
    """Re-checks the five cross-criteria properties on applicable records.

    Keeps one small tuple per applicable triple, so that memory stays with
    the program under test.
    """

    def __init__(self) -> None:
        self.rows: dict[tuple[int, int, int], tuple] = {}

    def add(self, record) -> None:
        if record.assumptions["all_hold"]:
            gk = record.gk
            self.rows[record.triple] = (
                record.eu["holds"], gk["holds"], record.witness_exists, record.noetherian,
                record.presentation["u"], gk["def_I_holds"] or gk["def_II_holds"],
                gk["five_way"] is not None,
            )

    def violations(self) -> list[tuple[tuple[int, int, int], str]]:
        out = []
        for triple, (eu, gk, we, noeth, u, gk_def, gk_five) in self.rows.items():
            if eu and not we:
                out.append((triple, "EU without witness"))
            if gk and we:
                out.append((triple, "GK with witness"))
            if u <= 6 and (eu == gk or noeth != eu):
                out.append((triple, "u<=6 but EU/GK not exclusive or verdict != EU"))
            if gk_def != gk_five:
                out.append((triple, "GK forms disagree"))
            a, b, c = triple
            partner = self.rows.get((b, a, c))
            if partner is None or partner[3] != noeth:
                out.append((triple, "verdict changes under a<->b swap"))
        return out


@dataclass
class ScanResult:
    bound: int
    jobs: int
    wall_s: float
    triples: int
    applicable: int
    eu: int
    gk: int
    undecided: int
    bytes: int
    digest: str
    latencies_ms: list[float]
    violations: list


def scan_once(bound: int, jobs: int, tracer=NULL_TRACER, timed: bool = True) -> ScanResult:
    """One `symrees scan --max bound --jobs jobs` run, JSON lines hashed.

    With ``timed`` the workers report per-triple times through
    :func:`timed_classify_one`.
    """
    digest = hashlib.sha256()
    checker = ScanChecker()
    triples = nbytes = eu = gk = undecided = 0
    latencies: list[float] = []
    if timed:
        scan.classify_one = timed_classify_one
    try:
        start = time.perf_counter()
        for record in scan.run_scan(ScanJob.upto(bound, jobs=jobs)):
            with tracer.span("records.encode"):
                line = json.dumps(records.to_dict(record, with_timing=False)) + "\n"
            data = line.encode()
            digest.update(data)
            nbytes += len(data)
            triples += 1
            if record.timing_ms is not None:
                latencies.append(record.timing_ms)
            checker.add(record)
            if record.noetherian is not None:
                eu += record.eu["holds"]
                gk += record.gk["holds"]
                undecided += not (record.eu["holds"] or record.gk["holds"])
        wall = time.perf_counter() - start
    finally:
        scan.classify_one = _classify_one
    return ScanResult(
        bound, jobs, wall, triples, len(checker.rows), eu, gk, undecided, nbytes,
        digest.hexdigest(), latencies, checker.violations(),
    )


def scan_reference(bound: int) -> dict[str, Any]:
    with open(DATA / "scan_dense.json") as fh:
        return json.load(fh)["bounds"][str(bound)]
