"""Command-line surface.

Exit codes for `classify`: 0 Noetherian, 1 not Noetherian, 2 inapplicable
(hypotheses fail), 3 usage error, 4 internal consistency failure, 5 i/o
error.  `witness` uses the same codes: 0 witness emitted or verified, 1 no
witness (not Noetherian), 2 inapplicable, 4 a witness file that fails a
re-check, is for another triple or is not a well-formed witness payload.
`witness --verify` exits 2, before any re-check, when the triple fails the
hypotheses: there is then no verdict for a witness to certify.  It tests
order-u membership on the file's x, y, z monomials, not on the lattice terms.
Every command exits 4 on an unexpected error (an exception none of the
above covers, such as a failed exact division or running out of memory),
with one `internal error: <type>: <message>` line on stderr, so that it is
never read as "not Noetherian".  A reader of stdout that has gone (as with
`| head -c 0`) changes no exit code and writes nothing to stderr, whether
stdout is buffered or not: the rest of the output goes to os.devnull, and
`scan`, which stops writing there, exits 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .lattice import DeltaRegion, LatticePoint
from .polynomials import FamilyRejectionError, generate_family, verify_family_report
from .presentation import (
    CurveTriple,
    HerzogPresentation,
    NotCoprimeError,
    NotThreeGeneratedError,
    compute_presentation,
    validate_assumptions,
)
from .records import CSV_COLUMNS, csv_row, from_verdict, human_table, to_dict
from .scan import ScanJob, run_scan
from .witness import (
    NOT_NEGATIVE_CURVE,
    InternalConsistencyError,
    _points_and_dimension,
    classify,
    shift_membership_test,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # "inapplicable" verdict code; remap to 3
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(3)


_COEFFICIENT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # str(Fraction)


def _rational(text) -> Fraction | None:
    """``text`` as a Fraction if it is an integer or P/Q as str(Fraction) writes it, else None.

    An exponent form such as "1e100000000", which takes Fraction seconds, is refused unparsed.
    """
    if not (isinstance(text, str) and _COEFFICIENT.fullmatch(text)):
        return None
    try:
        return Fraction(text)
    except ValueError:  # more digits than int() converts
        return None


def _fraction(text: str) -> Fraction:
    value = _rational(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"not an integer or P/Q: {text!r}")
    return value


def _print(*args, **kwargs) -> None:
    """``print`` to stdout; once its reader has gone, stdout is os.devnull.

    So the command goes on to its own exit code: an unbuffered stdout fails
    at a print, a buffered one at the flush that ``main`` makes before it
    returns (after it, at exit, the failure would cost code 120).
    """
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="symrees", description=__doc__)
    parser.add_argument("--version", action="version", version=f"symrees {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_cls = sub.add_parser("classify", help="classify one triple")
    p_cls.add_argument("a", type=int)
    p_cls.add_argument("b", type=int)
    p_cls.add_argument("c", type=int)
    fmt = p_cls.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--table", action="store_true", help="human-readable table")

    p_scan = sub.add_parser("scan", help="classify all pairwise coprime triples up to a bound")
    p_scan.add_argument("--max", type=int, required=True, help="upper bound for a, b, c")
    p_scan.add_argument("--u-le", type=int, default=None, help="keep only rows with u <= K")
    p_scan.add_argument("--require-assumptions", action="store_true",
                        help="keep only rows satisfying all hypotheses")
    p_scan.add_argument("--out", default=None, help="output file (default stdout)")
    p_scan.add_argument("--jobs", type=int, default=1,
                        help="worker processes, at most one per CPU (output does not depend on it)")
    p_scan.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")

    p_dim = sub.add_parser("piece-dim", help="dimension of one graded piece of a symbolic power")
    p_dim.add_argument("a", type=int)
    p_dim.add_argument("b", type=int)
    p_dim.add_argument("c", type=int)
    p_dim.add_argument("--e", type=int, default=1, help="degree scale (degree e*a*b)")
    p_dim.add_argument("--n", type=int, required=True, help="symbolic power order")

    p_wit = sub.add_parser("witness", help="extract or verify the degree-ab witness")
    p_wit.add_argument("a", type=int)
    p_wit.add_argument("b", type=int)
    p_wit.add_argument("c", type=int)
    p_wit.add_argument("--out", default=None, help="write witness JSON to a file")
    p_wit.add_argument("--verify", default=None, metavar="FILE",
                       help="re-verify a previously emitted witness JSON")

    p_fam = sub.add_parser("verify-family", help="check the order-two-negative-curve family")
    p_fam.add_argument("--alpha", type=_fraction, required=True, help="u2/u1 as P/Q")
    p_fam.add_argument("--beta", type=_fraction, required=True, help="s2/s3 as P/Q")
    p_fam.add_argument("--m", type=int, default=1)
    p_fam.add_argument("--n", type=int, default=1)
    return parser


def _cmd_classify(args) -> int:
    start = time.perf_counter()
    verdict = classify(CurveTriple(args.a, args.b, args.c))
    timing = (time.perf_counter() - start) * 1000.0
    record = from_verdict(verdict, timing_ms=round(timing, 3))
    if args.table:
        _print(human_table(record))
    else:
        _print(json.dumps(to_dict(record)))
    if verdict.noetherian is None:
        return 2
    return 0 if verdict.noetherian else 1


def _cmd_scan(args) -> int:
    job = ScanJob(
        args.max,
        u_max=args.u_le,
        require_assumptions=args.require_assumptions,
        jobs=args.jobs,
    )
    stream = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if args.format == "csv":
            writer = csv.writer(stream)
            writer.writerow(CSV_COLUMNS)
            for record in run_scan(job):
                writer.writerow(csv_row(record))
        else:
            for record in run_scan(job):
                # timing omitted: scan output must be byte-identical across runs
                stream.write(json.dumps(to_dict(record, with_timing=False)) + "\n")
    finally:
        if args.out:
            stream.close()
    return 0


def _cmd_piece_dim(args) -> int:
    triple = CurveTriple(args.a, args.b, args.c)
    if args.e < 1 or args.n < 0:
        print("piece-dim: need --e >= 1 and --n >= 0", file=sys.stderr)
        return 3
    points, dim = _points_and_dimension(compute_presentation(triple), args.e, args.n)
    constraints = args.n * (args.n + 1) // 2  # derivative orders (k, l), k + l < n
    _print(json.dumps({
        "triple": [args.a, args.b, args.c],
        "e": args.e,
        "n": args.n,
        "points": points,
        "constraints": constraints,
        "dimension": dim,
    }))
    return 0


def _witness_payload(verdict) -> dict:
    pres = verdict.presentation
    wit = verdict.witness
    coeffs = [
        {"alpha": pt.alpha, "beta": pt.beta, "coefficient": str(c)}
        for pt, c in sorted(wit.coefficients.items())
    ]
    monomials = [
        {"x": ex, "y": ey, "z": ez, "coefficient": str(c)}
        for ex, ey, ez, c in wit.monomials(pres)
    ]
    return {
        "triple": [pres.a, pres.b, pres.c],
        "e": wit.e,
        "order": wit.n,
        "degree": wit.e * pres.a * pres.b,
        "lattice_coefficients": coeffs,
        "monomials": monomials,
        "version": __version__,
    }


_TERM_FIELDS = {"lattice_coefficients": ("alpha", "beta"), "monomials": ("x", "y", "z")}


def _term(item, fields) -> tuple[tuple[int, ...], Fraction] | None:
    """(integer ``fields``, coefficient) of a term as ``_witness_payload`` writes it, or None.

    The coefficient is parsed once, by ``_rational``.
    """
    if not isinstance(item, dict) or any(type(item.get(name)) is not int for name in fields):
        return None
    coefficient = _rational(item.get("coefficient"))
    if coefficient is None:
        return None
    return tuple(item[name] for name in fields), coefficient


def _payload_problem(payload) -> tuple[str | None, dict]:
    """(why ``payload`` is not a well-formed witness payload or None, its parsed terms)."""
    if not isinstance(payload, dict):
        return "not a JSON object", {}
    missing = [k for k in ("triple", "e", "order", "degree", *_TERM_FIELDS) if k not in payload]
    if missing:
        return f"missing {', '.join(missing)}", {}
    triple = payload["triple"]
    if not (isinstance(triple, list) and len(triple) == 3 and all(type(x) is int for x in triple)):
        return "triple is not three integers", {}
    for key in ("e", "order", "degree"):
        if type(payload[key]) is not int or payload[key] < 1:
            return f"{key} is not a positive integer", {}
    terms = {}
    for key, fields in _TERM_FIELDS.items():
        items = payload[key] if isinstance(payload[key], list) else [None]
        parsed = [_term(t, fields) for t in items]
        if None in parsed:
            return f"{key} is not a list of integer terms with rational coefficients", {}
        terms[key] = dict(parsed)
        if len(terms[key]) < len(parsed):
            return f"{key} lists a ({', '.join(fields)}) twice", {}
    return None, terms


def _reverify_witness(pres: HerzogPresentation, payload: dict, terms: dict) -> list[str]:
    """Exact re-checks of a witness payload for ``pres``; returns failure messages.

    Only the degree-ab piece of the u-th symbolic power (e = 1, order u)
    certifies the verdict, so any other header is refused before the
    re-checks run.  Once the nonzero monomials are the expansion of the
    nonzero lattice terms, f(1, y, z) must vanish to order u at (1, 1):
    membership in p^(u) by Zariski-Nagata.  At the one degree ab that also
    gives f(T^a, T^b, T^c) = T^(ab) f(1, 1, 1) = 0, so no curve test runs.
    """
    a, b, c = payload["triple"]
    certificate = {"e": 1, "order": pres.u, "degree": a * b}
    problems = [
        f"{key} is {payload[key]}, not {want}"
        for key, want in certificate.items()
        if payload[key] != want
    ]
    if problems:
        return problems
    coeffs = {LatticePoint(*pt): coeff for pt, coeff in terms["lattice_coefficients"].items()}
    if coeffs.get(LatticePoint(0, 0)) != 1:
        problems.append("constant lattice coefficient is not 1")
    region = DeltaRegion(pres, payload["e"])
    if not all(region.contains(pt.alpha, pt.beta) for pt in coeffs):
        problems.append("support leaves the triangle")
    monomials = terms["monomials"]
    nonzero = {ex: coeff for ex, coeff in monomials.items() if coeff}
    expansion = {region.monomial_exponents(pt): coeff for pt, coeff in coeffs.items() if coeff}
    if nonzero != expansion:
        problems.append("monomials are not the expansion of the lattice coefficients")
    elif not shift_membership_test({(j, k): coeff for (_, j, k), coeff in nonzero.items()}, pres.u):
        problems.append("shift-substitution membership fails")
    degrees = {x * a + y * b + z * c for x, y, z in monomials}
    if degrees != {payload["degree"]}:
        problems.append(f"monomial degrees {sorted(degrees)} != {payload['degree']}")
    return problems


def _cmd_witness(args) -> int:
    if args.verify:
        with open(args.verify, "rb") as fh:
            data = fh.read()
        try:
            payload = json.loads(data)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            problem = f"not JSON ({exc})"
        else:
            problem, terms = _payload_problem(payload)
        if problem:
            print(f"FAIL: malformed witness file: {problem}", file=sys.stderr)
            return 4
        if tuple(payload["triple"]) != (args.a, args.b, args.c):
            print(f"FAIL: witness file is for triple {payload['triple']}", file=sys.stderr)
            return 4
        pres = compute_presentation(CurveTriple(args.a, args.b, args.c))
        if not validate_assumptions(pres).all_hold:  # no verdict to certify
            print(f"inapplicable: {NOT_NEGATIVE_CURVE}", file=sys.stderr)
            return 2
        problems = _reverify_witness(pres, payload, terms)
        if problems:
            for msg in problems:
                print(f"FAIL: {msg}", file=sys.stderr)
            return 4
        _print("witness verifies")
        return 0

    verdict = classify(CurveTriple(args.a, args.b, args.c), want_witness=True)
    if verdict.noetherian is None:
        print(f"inapplicable: {verdict.reason}", file=sys.stderr)
        return 2
    if not verdict.noetherian:
        print("no witness (not Noetherian)", file=sys.stderr)
        return 1
    payload = _witness_payload(verdict)
    problem, terms = _payload_problem(payload)
    problems = [problem] if problem else _reverify_witness(verdict.presentation, payload, terms)
    if problems:  # would mean an extraction bug
        for msg in problems:
            print(f"internal error: {msg}", file=sys.stderr)
        return 4
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        _print(text)
    return 0


def _cmd_verify_family(args) -> int:
    try:
        params = generate_family(args.alpha, args.beta, args.m, args.n)
    except FamilyRejectionError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    p = params.presentation
    a, b, c = p.a, p.b, p.c
    gcd_abc = math.gcd(a, b, c)
    coprime = p.triple.pairwise_coprime()
    _print(f"parameters   alpha={params.alpha} beta={params.beta} m={params.m} n={params.n}")
    _print(f"exponents    s2={p.s2} s3={p.s3} t1=1 t3=1 u1={p.u1} u2={p.u2}")
    _print(f"weights      (a, b, c) = ({a}, {b}, {c}), gcd = {gcd_abc}, "
           f"pairwise coprime = {coprime}")
    if math.gcd(params.m, params.n) != 1:
        _print(f"warning: m={params.m} and n={params.n} are not coprime")
    if gcd_abc != 1:
        _print(f"warning: gcd(a, b, c) = {gcd_abc} != 1 "
               f"(needs m odd and further coprimality of the scales); "
               f"the infinite-generation conclusion does not apply")
    elif not coprime:
        _print("warning: a, b, c are not pairwise coprime; "
               "the infinite-generation conclusion does not apply")
    checks = verify_family_report(params)
    failed = [chk for chk in checks if not chk.ok]
    for chk in checks:
        status = "PASS" if chk.ok else "FAIL"
        detail = f"  [{chk.detail}]" if chk.detail else ""
        _print(f"[{status}] {chk.label}{detail}")
    if failed:
        return 4
    if coprime:
        _print("conclusion: symbolic Rees ring of p(a, b, c) is infinitely generated")
        _print("note: the negative curve sits in the second symbolic power, outside the "
               "classifier hypotheses; `classify` deliberately reports inapplicable here")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "classify": _cmd_classify,
        "scan": _cmd_scan,
        "piece-dim": _cmd_piece_dim,
        "witness": _cmd_witness,
        "verify-family": _cmd_verify_family,
    }
    try:
        return handlers[args.command](args)
    except (NotCoprimeError, NotThreeGeneratedError) as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:  # scan's reader (e.g. head) has gone; the flush below silences stdout
        return 0
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:  # bad argument values (nonpositive weights, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, not a verdict: never exit 1 with a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        _print(end="", flush=True)


if __name__ == "__main__":
    sys.exit(main())
