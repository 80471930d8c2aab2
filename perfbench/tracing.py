"""Spans around the public entry points of each symrees layer.

The tracer wraps, from outside the package, the functions one layer calls
in another (module attributes and QMatrix / DeltaRegion methods), keeps
every span in memory and derives per-layer self times and counts from
them.  Spans are written out once, when the run ends.

A span is (id, parent id, name, start ns, end ns, op id); the name's first
component is the layer.  A span's self time is its duration minus that of
its children; calls are nested and single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

_now = time.perf_counter_ns


def _count_presentation(tracer, args, result):
    tracer.counts["presentation.multiples_tried"] += result.s + result.t + result.u


def _count_points_list(tracer, args, result):
    tracer.counts["lattice.points"] += len(result)


def _count_points_columns(tracer, args, result):
    tracer.counts["lattice.points"] += sum(result)


def _count_rank_cells(tracer, args, result):
    matrix = args[0]
    tracer.counts["linalg.rank_cells"] += matrix.rows * matrix.cols
    tracer.maxima["linalg.max_points"] = max(tracer.maxima["linalg.max_points"], matrix.cols)


# (module, attribute path, span name, counter).  Each entry is the name under
# which a caller looks the function up, so that the wrapper is what it calls.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("symrees.witness", "compute_presentation", "presentation.compute_presentation",
     _count_presentation),
    ("symrees.witness", "validate_assumptions", "presentation.validate_assumptions", None),
    ("symrees.witness", "check_eu", "criteria.check_eu", None),
    ("symrees.witness", "check_gk", "criteria.check_gk", None),
    ("symrees.witness", "enumerate_points", "lattice.enumerate_points", _count_points_list),
    ("symrees.witness", "extract_witness", "witness.extract_witness", None),
    ("symrees.witness", "classify", "witness.classify", None),
    ("symrees.scan", "classify", "witness.classify", None),
    ("symrees.criteria", "column_counts", "lattice.column_counts", _count_points_columns),
    ("symrees.criteria", "compute_nm", "lattice.compute_nm", None),
    ("symrees.criteria", "interval_lattice_count", "lattice.interval_lattice_count", None),
    ("symrees.lattice", "DeltaRegion.monomial_exponents", "lattice.monomial_exponents", None),
    ("symrees.linalg", "QMatrix.rank", "linalg.rank", _count_rank_cells),
    ("symrees.linalg", "QMatrix.rank_and_row_space_contains", "linalg.rank", _count_rank_cells),
    ("symrees.linalg", "QMatrix.null_space", "linalg.null_space", None),
    ("symrees.scan", "from_verdict", "records.from_verdict", None),
    ("symrees.scan", "classify_one", "scan.classify_one", None),
]

# per-layer self-time metric -> span names (or name prefixes ending in ".")
SELF_TIME_METRICS = {
    "presentation.self_s": ("presentation.",),
    "lattice.self_s": ("lattice.",),
    "criteria.self_s": ("criteria.",),
    "linalg.rank_self_s": ("linalg.rank",),
    "linalg.nullspace_self_s": ("linalg.null_space",),
    "witness.self_s": ("witness.classify", "witness.extract_witness",
                       "witness.WitnessElement.monomials"),
    "witness.oracle_self_s": ("witness.shift_membership_test",),
    "polynomials.self_s": ("polynomials.",),
    "records.self_s": ("records.",),
}


def _bucket(name: str) -> str | None:
    for metric, names in SELF_TIME_METRICS.items():
        for pattern in names:
            if name == pattern or (pattern.endswith(".") and name.startswith(pattern)):
                return metric
    return None


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        tr._next += 1
        self.sid = tr._next
        self.parent = tr._stack[-1] if tr._stack else 0
        tr._stack.append(self.sid)
        self.start = _now()
        return self

    def __exit__(self, *exc):
        end = _now()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, self.parent, self.name, self.start, end, tr.op))
        return False


class Tracer:
    """In-memory span recorder; ``install`` wraps the layer entry points."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.op = 0
        self._next = 0
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Span(tracer, name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, path, name, counter in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:  # the program no longer has this entry point
                self.missing.append(f"{module_name}.{path}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per SELF_TIME_METRICS entry."""
        child = defaultdict(int)
        for _, parent, _, start, end, _ in self.spans:
            child[parent] += end - start
        totals = dict.fromkeys(SELF_TIME_METRICS, 0)
        for sid, _, name, start, end, _ in self.spans:
            metric = _bucket(name)
            if metric is not None:
                totals[metric] += end - start - child[sid]
        return {metric: ns / 1e9 for metric, ns in totals.items()}

    def total_s(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end, _ in self.spans if n == name) / 1e9

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "op": op}) + "\n")
