import hashlib
import json
import math
import multiprocessing
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import symrees.scan
from symrees.records import to_dict
from symrees.scan import ScanJob, classify_one, iter_triples, run_scan

SCAN_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "scan_dense.json"


def test_iter_triples_lexicographic_and_coprime():
    triples = list(iter_triples(ScanJob(6)))
    assert triples == sorted(triples)
    assert all(
        math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1 for a, b, c in triples
    )
    assert (2, 3, 5) in triples
    assert (2, 4, 5) not in triples


def test_scan_job_validation():
    with pytest.raises(ValueError):
        ScanJob(2)
    with pytest.raises(ValueError):
        ScanJob(5, jobs=0)


def test_parallel_scan_matches_sequential():
    seq = list(run_scan(ScanJob(10)))
    par = list(run_scan(ScanJob(10, jobs=2)))
    assert seq == par


def test_filters():
    records = list(run_scan(ScanJob(12, require_assumptions=True)))
    assert records and all(r.assumptions["all_hold"] for r in records)
    records = list(run_scan(ScanJob(12, u_max=3)))
    assert records and all(r.presentation["u"] <= 3 for r in records)


def test_scan_includes_inapplicable_rows_by_default():
    records = list(run_scan(ScanJob(8)))
    reasons = {r.reason for r in records if r.noetherian is None}
    assert any(reasons)


def test_classify_one_record_shape():
    record = classify_one((8, 19, 9))
    assert record.triple == (8, 19, 9)
    assert record.noetherian is True
    assert record.version


@pytest.mark.parametrize("jobs", [1, 2, 16])
def test_scan_bytes_match_recorded_digest(jobs):
    # the JSON-lines encoding of the bound-12 table, as `symrees scan` writes it
    recorded = json.loads(SCAN_DIGESTS.read_text())["bounds"]["12"]
    digest = hashlib.sha256()
    size = 0
    for record in run_scan(ScanJob(12, jobs=jobs)):
        line = (json.dumps(to_dict(record, with_timing=False)) + "\n").encode()
        digest.update(line)
        size += len(line)
    assert size == recorded["bytes"]
    assert digest.hexdigest() == recorded["sha256"]


@pytest.mark.parametrize(
    "cpus, jobs, started",
    [(4, 100000, [4]), (4, 2, [2]), (2, 16, [2]), (None, 8, []), (1, 3, [])],
)
def test_scan_workers_are_capped_at_the_cpu_count(monkeypatch, cpus, jobs, started):
    # a worker count above the CPUs starts one worker per CPU, and one worker
    # (or an unknown CPU count) runs in-process; the records do not change.
    # The pool is a recorder that runs each chunk in-process, so no process
    # starts.
    pools = []

    class RecordingPool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, fn, args):
            result = fn(*args)
            return SimpleNamespace(get=lambda: result)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(symrees.scan.os, "cpu_count", lambda: cpus)
    records = list(run_scan(ScanJob(8, jobs=jobs)))
    assert pools == started
    assert records == list(run_scan(ScanJob(8)))


def test_a_slow_reader_bounds_the_records_in_flight(monkeypatch):
    # records in flight are the triples drawn from iter_triples and not yet
    # read: a reader that pauses does not let the workers run ahead of it by
    # more than the window (bound 20 has 2,488 triples, the window 1,024)
    drawn = 0

    def counted(job):
        nonlocal drawn
        for triple in iter_triples(job):
            drawn += 1
            yield triple

    monkeypatch.setattr(symrees.scan, "iter_triples", counted)
    monkeypatch.setattr(symrees.scan.os, "cpu_count", lambda: 2)
    window = symrees.scan._CHUNKS_PER_WORKER * 2 * symrees.scan._CHUNK
    most = read = 0
    for read, _ in enumerate(run_scan(ScanJob(20, jobs=2)), 1):
        most = max(most, drawn - read)
        if read % 200 == 1:
            time.sleep(0.05)
    assert read == drawn == 2488
    assert 0 < most <= window


def test_an_abandoned_scan_stops_its_workers(monkeypatch):
    # a closed generator, and a reader that raises (as the CLI's write does
    # on a closed pipe), both shut the pool down and return
    monkeypatch.setattr(symrees.scan.os, "cpu_count", lambda: 2)
    records = run_scan(ScanJob(40, jobs=2))
    next(records)
    records.close()
    assert multiprocessing.active_children() == []

    def read_until_the_pipe_breaks():
        for _ in run_scan(ScanJob(40, jobs=2)):
            raise BrokenPipeError

    try:
        read_until_the_pipe_breaks()
    except BrokenPipeError:
        pass
    assert multiprocessing.active_children() == []
