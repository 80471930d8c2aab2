"""symrees benchmark: one seeded workload, checked outputs, named metrics.

    python3 perfbench/run.py --workload rank-deep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and README.md): scan-dense, rank-deep,
witness-extract, wide-inapplicable.  With ``--trace 0`` the run measures
the end-to-end metrics with tracing off; with ``--trace 1`` it runs a fixed
prefix of the workload untraced and then traced, and reports per-layer
self times and counts derived from the spans (written to
perfbench/out/).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
state the run environment, the sample counts and the tail percentile.
Exits non-zero, printing no result, when the program under test cannot
be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

try:
    import tracing
    import workloads as W
except ImportError as exc:  # the checkout does not hold the program under test
    sys.exit(f"benchmark: cannot import the program under test: {exc}")

HERE = Path(__file__).resolve().parent
SPANS_DIR = HERE / "out"
SETUP_SAMPLES = 9
TINY_SETUP_SAMPLES = 2
TINY_POOL = 8  # --tiny: the cheapest rows of each pool

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "presentation.self_s": "s",
    "presentation.multiples_tried": "count",
    "lattice.self_s": "s",
    "lattice.points": "count",
    "criteria.self_s": "s",
    "criteria.eu_share": "ratio",
    "criteria.gk_share": "ratio",
    "criteria.undecided_share": "ratio",
    "inapplicable_share": "ratio",
    "linalg.rank_self_s": "s",
    "linalg.rank_cells": "count",
    "linalg.max_points": "count",
    "linalg.nullspace_self_s": "s",
    "witness.self_s": "s",
    "witness.oracle_self_s": "s",
    "polynomials.self_s": "s",
    "records.self_s": "s",
    "records.bytes": "bytes",
    "scan.parallel_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
}

PERCENTILE_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 50.0)


# ---------------------------------------------------------------- statistics


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, pct: float) -> int:
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(latencies_ms: list[float], pct: float) -> tuple[float, float, int]:
    """(value, percentile used, samples beyond it).

    Uses the workload's fixed percentile; falls back down the ladder only
    when the run has fewer than ten samples beyond it.
    """
    values = sorted(latencies_ms)
    for p in (pct, *[q for q in PERCENTILE_LADDER if q < pct]):
        if beyond(len(values), p) >= 10:
            return percentile(values, p), p, beyond(len(values), p)
    return values[-1], 100.0, 0


def peak_rss_mb(children: int = 0) -> float:
    """Peak RSS of this process plus ``children`` times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------- environment


def environment(symrees) -> dict:
    try:
        import gmpy2  # noqa: F401
        gmpy2_ok = True
    except ImportError:
        gmpy2_ok = False
    mpz = getattr(symrees.linalg, "_mpz", int)
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "elimination_backend": "python-int" if mpz is int else f"{mpz.__module__}.mpz",
        "gmpy2_importable": gmpy2_ok,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": nproc,
        "machine": platform.machine(),
        "symrees_version": symrees.__version__,
    }


# ---------------------------------------------------------------- set-up

SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
from symrees import CurveTriple, classify
classify(CurveTriple(8, 19, 9), want_witness=True)
if {pool}:
    from symrees.scan import ScanJob, run_scan
    list(run_scan(ScanJob.upto(6, jobs={pool})))
"""


def measure_setup(src: Path, pool: int, samples: int) -> list[float]:
    """Wall times of fresh interpreters that import, warm up and start the pool."""
    code = SETUP_CODE.format(src=str(src), pool=pool)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=src.parent)
        times.append(time.perf_counter() - start)
    return times


def clear_program_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "symrees" or name.startswith("symrees."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# ---------------------------------------------------------------- accounting


class Tally:
    """Attempted / failed operations, plus the shares every report states."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.triples = 0
        self.inapplicable = 0
        self.eu = self.gk = self.undecided = 0

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems)}")

    def verdict(self, v) -> None:
        self.triples += 1
        if v is None or v.noetherian is None:
            self.inapplicable += 1
            return
        self.eu += v.eu.holds
        self.gk += v.gk.holds
        self.undecided += not (v.eu.holds or v.gk.holds)

    def shares(self) -> dict[str, float]:
        applicable = self.triples - self.inapplicable
        return {
            "criteria.eu_share": self.eu / applicable if applicable else 0.0,
            "criteria.gk_share": self.gk / applicable if applicable else 0.0,
            "criteria.undecided_share": self.undecided / applicable if applicable else 0.0,
            "inapplicable_share": self.inapplicable / self.triples if self.triples else 0.0,
        }


# ---------------------------------------------------------------- closed loop


def run_op(spec, row, tally, tracer):
    label = f"({row['a']}, {row['b']}, {row['c']})"
    start = time.perf_counter()
    try:
        out, problems = spec.op(row, tracer)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        out, problems = None, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    if out is not None:
        problems = problems + spec.check(row, out)
    tally.op(label, problems)
    tally.verdict(out)
    return elapsed


def closed_pass(wl, spec, seed, tiny):
    rows = W.load_pool(wl.generator["pool"])
    if tiny:
        rows = sorted(rows, key=spec.cost)[:TINY_POOL]
    return W.sample_pass(rows, spec.cost, seed, 1 if tiny else wl.stride)


def closed_loop(wl, seed, seconds, tiny, tally):
    """Whole passes over the run's sample, each from cold caches.

    A run makes at least one pass and then another while the last one's
    duration still fits in ``seconds``, so a run times each sampled triple
    equally often.
    """
    spec = W.CLOSED_LOOP[wl.name]
    rows = closed_pass(wl, spec, seed, tiny)
    latencies = []
    passes = 0
    start = time.perf_counter()
    while True:
        clear_program_caches()
        pass_start = time.perf_counter()
        latencies.extend(run_op(spec, row, tally, W.NULL_TRACER) for row in rows)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    lat_ms = [x * 1000.0 for x in latencies]
    value, pct, n_beyond = tail(lat_ms, wl.tail_percentile)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": value,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "samples": len(lat_ms),
        "passes": f"{passes} x {len(rows)} triples",
        "op_tail_ms": f"p{pct:g}, {n_beyond} samples beyond, n={len(lat_ms)}",
        "ops_per_s": "operations / summed operation time, one client",
    }
    return metrics, notes


def closed_trace(wl, seed, tiny, tally):
    spec = W.CLOSED_LOOP[wl.name]
    prefix = closed_pass(wl, spec, seed, tiny)[:wl.trace_ops]
    # an untimed first pass takes the first-touch and allocator costs, so
    # that the traced and untraced passes after it start from the same state
    for row in prefix:
        run_op(spec, row, tally, W.NULL_TRACER)
    clear_program_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = 0.0
        for i, row in enumerate(prefix, start=1):
            tracer.op = i
            with tracer.span("bench.op"):
                traced += run_op(spec, row, tally, tracer)
    finally:
        tracer.uninstall()
    clear_program_caches()
    untraced = sum(run_op(spec, row, tally, W.NULL_TRACER) for row in prefix)
    extra = {"scan.parallel_efficiency": 0.0, "records.bytes": 0}
    notes = {"traced_ops": len(prefix), "untraced_s": untraced, "traced_s": traced}
    return tracer, traced / untraced - 1.0, extra, notes


# ---------------------------------------------------------------- scan-dense


def check_scan(result, reference, tally) -> None:
    tally.attempted += result.triples
    if result.digest != reference["sha256"] or result.triples != reference["triples"]:
        tally.failed += result.triples
        tally.problems.append(f"bound {result.bound} jobs {result.jobs}: JSON-lines digest "
                              f"{result.digest[:12]} != reference {reference['sha256'][:12]}")
    elif result.violations:
        tally.failed += len({triple for triple, _ in result.violations})
        tally.problems.extend(f"{t}: {why}" for t, why in result.violations[:10])
    tally.triples += result.triples
    tally.inapplicable += result.triples - result.applicable
    tally.eu += result.eu
    tally.gk += result.gk
    tally.undecided += result.undecided


def scan_measure(wl, seed, seconds, tiny, tally):
    bound = W.scan_bound(tiny)
    reference = W.scan_reference(bound)
    rates, lat_ms = [], []
    start = time.perf_counter()
    while True:
        result = W.scan_once(bound, jobs=wl.clients)
        check_scan(result, reference, tally)
        rates.append(result.triples / result.wall_s)
        lat_ms.extend(result.latencies_ms)
        if time.perf_counter() - start >= seconds:
            break
    value, pct, n_beyond = tail(lat_ms, wl.tail_percentile)
    metrics = {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": value,
        "peak_rss_mb": peak_rss_mb(children=wl.clients),
    }
    notes = {
        "bound": bound,
        "scans": len(rates),
        "samples": len(lat_ms),
        "ops_per_s": f"median over {len(rates)} scans of triples / scan wall time",
        "op_p50_ms": "per-triple time inside the pool workers",
        "op_tail_ms": f"p{pct:g}, {n_beyond} samples beyond, n={len(lat_ms)}",
        "peak_rss_mb": f"parent + {wl.clients} x largest worker",
    }
    return metrics, notes


def scan_trace(wl, seed, tiny, tally):
    bound = W.scan_bound(tiny)
    reference = W.scan_reference(bound)
    parallel = W.scan_once(bound, jobs=wl.clients, timed=False)
    check_scan(parallel, reference, tally)
    clear_program_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = W.scan_once(bound, jobs=1, tracer=tracer, timed=False)
    finally:
        tracer.uninstall()
    check_scan(traced, reference, tally)
    clear_program_caches()
    single = W.scan_once(bound, jobs=1, timed=False)
    check_scan(single, reference, tally)
    classify_sum = tracer.total_s("scan.classify_one")
    extra = {
        "scan.parallel_efficiency": classify_sum / (wl.clients * parallel.wall_s),
        "records.bytes": traced.bytes,
    }
    notes = {"bound": bound, "parallel_wall_s": parallel.wall_s,
             "single_wall_s": single.wall_s, "traced_wall_s": traced.wall_s}
    return tracer, traced.wall_s / single.wall_s - 1.0, extra, notes


# ---------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and set-up samples (smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = W.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(W.symrees)
    tally = Tally()
    # warm-up: lazy imports and first-call costs stay out of the timings
    W.witness.classify(W.CurveTriple(8, 19, 9), want_witness=True)

    if args.trace:
        trace = scan_trace if wl.loop == "batch" else closed_trace
        tracer, overhead, extra, notes = trace(wl, args.seed, args.tiny, tally)
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
        metrics.update(tracer.self_times())
        metrics.update(tracer.counts)
        metrics.update(tracer.maxima)
        metrics.update(tally.shares())
        metrics.update(extra)
        metrics["trace.overhead_frac"] = overhead
        units = PER_LAYER_UNITS
        spans_file = SPANS_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.dump(spans_file)
        notes.update(spans=len(tracer.spans), spans_file=str(spans_file.relative_to(HERE.parent)))
        if tracer.missing:
            notes["entry_points_missing"] = tracer.missing
    else:
        measure = scan_measure if wl.loop == "batch" else closed_loop
        metrics, notes = measure(wl, args.seed, args.seconds, args.tiny, tally)
        setup = measure_setup(W.SRC, wl.clients if wl.loop == "batch" else 0,
                              TINY_SETUP_SAMPLES if args.tiny else SETUP_SAMPLES)
        metrics["setup_s"] = statistics.median(setup)
        notes["setup_s"] = (f"median of {len(setup)} fresh interpreters: import, "
                            "warm-up classify" + (", pool start" if wl.loop == "batch" else ""))
        units = END_TO_END_UNITS

    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "loop": wl.loop, "clients": wl.clients, "generator": wl.generator,
        "env": env, "notes": notes,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        **tally.shares(),
    }
    for line in tally.problems:
        print(f"FAILED {line}")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    for name, unit in units.items():
        print(f"metric {name:28s} {metrics[name]:>16.6g} {unit}")
    print(f"metric {'failed_frac':28s} {report['failed_frac']:>16.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
