"""Regenerate the benchmark's reference pools under perfbench/data.

    python3 perfbench/make_pools.py            # all pools, about five minutes

Each pool is drawn with a fixed generator seed from the distribution its
workload describes (see WORKLOADS in workloads.py) and stores, next to each
triple, the outputs the classifier gave for it: the references that runs
are checked against.  Re-run only when a change of the program is meant to
change those outputs, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import random

from workloads import (
    DATA,
    WORKLOADS,
    scan_once,
    witness_digest,
)
from symrees import CurveTriple, classify, compute_presentation, validate_assumptions
from symrees.presentation import NotCoprimeError, NotThreeGeneratedError

GENERATOR_SEED = 20170526


def _presentations(rng, hi):
    """Endless (triple, presentation) draws with weights uniform in [2, hi]."""
    while True:
        triple = CurveTriple(rng.randint(2, hi), rng.randint(2, hi), rng.randint(2, hi))
        try:
            yield triple, compute_presentation(triple)
        except (NotCoprimeError, NotThreeGeneratedError):
            continue


def _write(name, columns, rows, generator):
    path = DATA / name
    with open(path, "w") as fh:
        json.dump({"generator": generator, "columns": columns, "rows": rows}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    print(f"{path.name}: {len(rows)} rows")


def _draw(seed: int, hi: int, size: int, row_for) -> list[list]:
    """``size`` distinct triples with weights in [2, hi] that ``row_for`` keeps.

    ``row_for(triple, presentation)`` returns the reference columns of a
    kept triple, or None to skip it.
    """
    rng = random.Random(seed)
    rows, seen = [], set()
    for triple, pres in _presentations(rng, hi):
        key = (triple.a, triple.b, triple.c)
        if key in seen:
            continue
        row = row_for(triple, pres)
        if row is not None:
            seen.add(key)
            rows.append([*key, *row])
            if len(rows) == size:
                return rows


def rank_deep(size: int) -> None:
    gen = WORKLOADS["rank-deep"].generator

    def row_for(triple, pres):
        if not gen["u"][0] <= pres.u <= gen["u"][1] or not validate_assumptions(pres).all_hold:
            return None
        verdict = classify(triple)
        if not gen["points"][0] <= verdict.points <= gen["points"][1]:
            return None
        return [pres.u, verdict.points, verdict.noetherian, verdict.dim_piece_u]

    rows = _draw(GENERATOR_SEED, gen["weights"][1], size, row_for)
    _write("rank_deep.json", ["a", "b", "c", "u", "points", "noetherian", "dim_piece_u"],
           rows, dict(gen, seed=GENERATOR_SEED))


def witness_extract(size: int) -> None:
    gen = WORKLOADS["witness-extract"].generator

    def row_for(triple, pres):
        if not gen["u"][0] <= pres.u <= gen["u"][1] or not validate_assumptions(pres).all_hold:
            return None
        verdict = classify(triple, want_witness=True)
        if not verdict.noetherian or not gen["points"][0] <= verdict.points <= gen["points"][1]:
            return None
        return [pres.u, verdict.points, witness_digest(verdict.witness.coefficients)]

    rows = _draw(GENERATOR_SEED + 1, gen["weights"][1], size, row_for)
    _write("witness_extract.json", ["a", "b", "c", "u", "points", "witness_sha256"],
           rows, dict(gen, seed=GENERATOR_SEED + 1))


def wide_inapplicable(size: int) -> None:
    gen = WORKLOADS["wide-inapplicable"].generator

    def row_for(triple, pres):
        if validate_assumptions(pres).all_hold:
            return None
        verdict = classify(triple)
        # exact area of the triangle D with vertices (0,0), (u,u2), (a*s3/c, -a*s2/c)
        area = pres.a * (pres.u * pres.s2 + pres.u2 * pres.s3) / (2 * pres.c)
        return [pres.s, pres.t, pres.u, sum(verdict.eu.ell), round(area, 1)]

    rows = _draw(GENERATOR_SEED + 2, gen["weights"][1], size, row_for)
    _write("wide_inapplicable.json", ["a", "b", "c", "s", "t", "u", "column_points", "area"],
           rows, dict(gen, seed=GENERATOR_SEED + 2))


def scan_dense() -> None:
    gen = WORKLOADS["scan-dense"].generator
    out = {}
    for bound in (gen["tiny_bound"], gen["bound"]):
        result = scan_once(bound, jobs=2, timed=False)
        if result.violations:
            raise SystemExit(f"bound {bound}: {result.violations[:5]}")
        out[str(bound)] = {"sha256": result.digest, "triples": result.triples,
                           "applicable": result.applicable, "bytes": result.bytes}
        print(f"scan bound {bound}: {result.triples} triples, {result.digest[:12]}")
    with open(DATA / "scan_dense.json", "w") as fh:
        json.dump({"generator": gen, "bounds": out}, fh, indent=1)
        fh.write("\n")


POOLS = {
    "scan-dense": scan_dense,
    "rank-deep": lambda: rank_deep(1024),
    "witness-extract": lambda: witness_extract(512),
    "wide-inapplicable": lambda: wide_inapplicable(2048),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help=f"any of {', '.join(POOLS)} (default all)")
    args = parser.parse_args()
    unknown = set(args.workloads) - set(POOLS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    DATA.mkdir(exist_ok=True)
    for name in args.workloads or POOLS:
        POOLS[name]()


if __name__ == "__main__":
    main()
