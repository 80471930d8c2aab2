"""Batch classification of every triple up to a bound.

Workers share nothing mutable; results are merged back in input order, so
the output stream is byte-identical for a given job regardless of the
parallelism degree.  At most one worker process per CPU is started, however
many jobs are asked for.  ``classify`` checks every verdict under validated
hypotheses against the proved cross-criteria implications; a violation
raises InternalConsistencyError and aborts the scan, since it would falsify
the implementation.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterator

from .presentation import CurveTriple
from .records import VerdictRecord, from_verdict
from .witness import classify


@dataclass(frozen=True)
class ScanJob:
    """Every pairwise coprime triple with weights 1..bound, plus filters for one batch run."""

    bound: int
    u_max: int | None = None
    require_assumptions: bool = False
    jobs: int = 1

    # ScanJob(...) under a second name, kept for perfbench: run.py SETUP_CODE, workloads.scan_once
    @classmethod
    def upto(cls, bound: int, **kwargs) -> "ScanJob":
        return cls(bound, **kwargs)

    def __post_init__(self) -> None:
        if self.bound < 3:
            raise ValueError("bound must be >= 3")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def iter_triples(job: ScanJob) -> Iterator[tuple[int, int, int]]:
    """Pairwise coprime triples of the job, in lexicographic order."""
    weights = range(1, job.bound + 1)
    for a in weights:
        for b in weights:
            if math.gcd(a, b) != 1:
                continue
            for c in weights:
                if math.gcd(a, c) == 1 and math.gcd(b, c) == 1:
                    yield (a, b, c)


def classify_one(args: tuple[int, int, int]) -> VerdictRecord:
    return from_verdict(classify(CurveTriple(*args)))


def _keep(record: VerdictRecord, job: ScanJob) -> bool:
    if job.require_assumptions and not record.assumptions["all_hold"]:
        return False
    if job.u_max is not None:
        if record.presentation is None or record.presentation["u"] > job.u_max:
            return False
    return True


def run_scan(job: ScanJob) -> Iterator[VerdictRecord]:
    """Classify every triple of the job; yields records in input order."""
    triples = iter_triples(job)
    workers = min(job.jobs, os.cpu_count() or 1)
    with nullcontext() if workers == 1 else Pool(processes=workers) as pool:
        if pool is None:
            records = map(classify_one, triples)
        else:
            records = pool.imap(classify_one, triples, chunksize=64)
        for record in records:
            if _keep(record, job):
                yield record
