"""Batch classification of every triple up to a bound.

Workers share nothing mutable; results are merged back in input order, so
the output stream is byte-identical for a given job regardless of the
parallelism degree.  At most one worker process per CPU is started, however
many jobs are asked for, and at most ``_CHUNKS_PER_WORKER`` chunks of
``_CHUNK`` triples per worker are in flight (queued, being classified, or
classified and not yet read), so a slow reader keeps the parent's memory
bounded.  ``classify`` checks every verdict under validated
hypotheses against the proved cross-criteria implications; a violation
raises InternalConsistencyError and aborts the scan, since it would falsify
the implementation.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .presentation import CurveTriple
from .records import VerdictRecord, from_verdict
from .witness import classify

_CHUNK = 64
_CHUNKS_PER_WORKER = 8


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
    records = map(classify_one, triples) if workers == 1 else _pooled(triples, workers)
    for record in records:
        if _keep(record, job):
            yield record


def _classify_chunk(chunk: list[tuple[int, int, int]]) -> list[VerdictRecord]:
    return [classify_one(triple) for triple in chunk]


def _pooled(triples: Iterator[tuple[int, int, int]], workers: int) -> Iterator[VerdictRecord]:
    """Records of the triples from a pool of workers, in input order.

    A chunk is submitted only when the reader has taken every record of an
    earlier one, so at most ``_CHUNKS_PER_WORKER * workers`` chunks are in
    flight.  No thread feeds the pool: a reader that stops early (a closed
    generator, or an exception such as BrokenPipeError that drops it) leaves
    the ``with`` block, which terminates the workers.
    """
    from multiprocessing import Pool

    chunks = iter(lambda: list(islice(triples, _CHUNK)), [])
    with Pool(processes=workers) as pool:
        window = islice(chunks, _CHUNKS_PER_WORKER * workers)
        pending = deque(pool.apply_async(_classify_chunk, (chunk,)) for chunk in window)
        while pending:
            yield from pending.popleft().get()
            chunk = next(chunks, None)
            if chunk is not None:
                pending.append(pool.apply_async(_classify_chunk, (chunk,)))
