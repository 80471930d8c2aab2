import hashlib
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from symrees.cli import main
from oracles import from_dict
from symrees.lattice import DeltaRegion, LatticePoint
from symrees.records import CSV_COLUMNS, from_verdict, to_dict
from symrees.presentation import CurveTriple, compute_presentation
from symrees.witness import classify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_noetherian_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "8", "19", "9")
    assert code == 0
    data = json.loads(out)
    assert data["triple"] == [8, 19, 9]
    assert data["noetherian"] is True
    assert data["eu"]["holds"] is True
    assert data["gk"]["five_way"] is None
    assert data["presentation"]["s"] == 7
    assert data["version"]
    assert data["timing_ms"] >= 0


def test_classify_not_noetherian_exit_code(capsys):
    code, out, _ = run_cli(capsys, "classify", "25", "29", "72")
    assert code == 1
    data = json.loads(out)
    assert data["noetherian"] is False
    assert data["gk"]["five_way"] == "GK3"


def test_classify_inapplicable_exit_code(capsys):
    code, out, _ = run_cli(capsys, "classify", "16", "683", "97")
    assert code == 2
    data = json.loads(out)
    assert data["noetherian"] is None
    assert data["reason"]


def test_unexpected_error_exits_4_not_the_not_noetherian_code(capsys, monkeypatch):
    def broken(triple, **kwargs):
        raise ArithmeticError("back-substitution division failed")

    monkeypatch.setattr("symrees.cli.classify", broken)
    code, out, err = run_cli(capsys, "classify", "8", "19", "9")
    assert (code, out) == (4, "")
    assert err == "internal error: ArithmeticError: back-substitution division failed\n"


def test_classify_table_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "8", "19", "9", "--table")
    assert code == 0
    assert "Noetherian" in out
    assert "x^7 - y^2z^2" in out


def test_classify_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "symrees", "classify", "8", "nineteen", "9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3


def test_classify_nonpositive_weight_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "classify", "0", "2", "3")
    assert code == 3
    assert "positive" in err


def test_scan_includes_known_noetherian_triple(capsys, tmp_path):
    out_file = tmp_path / "scan.jsonl"
    code, _, _ = run_cli(
        capsys, "scan", "--max", "20", "--require-assumptions", "--out", str(out_file)
    )
    assert code == 0
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert all("timing_ms" not in row for row in rows)
    match = [r for r in rows if r["triple"] == [8, 19, 9]]
    assert len(match) == 1
    assert match[0]["noetherian"] is True


def test_scan_u_filter_dichotomy(capsys):
    code, out, _ = run_cli(capsys, "scan", "--max", "20", "--u-le", "6", "--require-assumptions")
    assert code == 0
    for line in out.splitlines():
        row = json.loads(line)
        assert row["presentation"]["u"] <= 6
        assert row["eu"]["holds"] != row["gk"]["holds"]
        assert row["noetherian"] == row["eu"]["holds"]


def test_scan_empty_range(capsys, tmp_path):
    out_file = tmp_path / "empty.csv"
    code, _, _ = run_cli(
        capsys, "scan", "--max", "3", "--u-le", "0", "--format", "csv",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_scan_bound_below_3_is_usage_error_before_output(capsys, tmp_path):
    # ScanJob refuses the bound before the output file is opened
    out_file = tmp_path / "scan.jsonl"
    code, out, err = run_cli(capsys, "scan", "--max", "2", "--out", str(out_file))
    assert (code, out, err) == (3, "", "error: bound must be >= 3\n")
    assert not out_file.exists()


def test_scan_csv_columns(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "scan", "--max", "12", "--format", "csv", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "a,b,c,s,t,u,eu,gk_clause,witness_exists,noetherian,points,dim_piece_u"
    assert len(lines) > 1


SCAN_12_CSV_SHA256 = "a0a7bf5f771a37cde8d7bd6027a589976548d1b1dbabd5d2c327f55afa84be65"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_csv_bytes_are_pinned(capsys, tmp_path, jobs):
    # the bound-12 CSV table: 509 lines ending in \r\n, the same bytes
    # through stdout and through --out, whatever the job count
    argv = ["scan", "--max", "12", "--format", "csv", "--jobs", jobs]
    stdout = subprocess.run(
        [sys.executable, "-m", "symrees", *argv], capture_output=True, check=True
    ).stdout
    out_file = tmp_path / "scan.csv"
    assert run_cli(capsys, *argv, "--out", str(out_file))[0] == 0
    for data in (stdout, out_file.read_bytes()):
        assert (len(data), data.count(b"\r\n"), data.count(b"\n")) == (16070, 509, 509)
        assert hashlib.sha256(data).hexdigest() == SCAN_12_CSV_SHA256


def test_scan_deterministic_across_parallelism(capsys, tmp_path):
    f1, f2 = tmp_path / "scan1.jsonl", tmp_path / "scan2.jsonl"
    run_cli(capsys, "scan", "--max", "12", "--out", str(f1))
    run_cli(capsys, "scan", "--max", "12", "--jobs", "2", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_piece_dim_output(capsys):
    code, out, _ = run_cli(capsys, "piece-dim", "8", "19", "9", "--e", "1", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["points"] == 11
    assert data["constraints"] == 6
    assert data["dimension"] == 5


def test_piece_dim_no_constraints(capsys):
    code, out, _ = run_cli(capsys, "piece-dim", "8", "19", "9", "--e", "1", "--n", "0")
    data = json.loads(out)
    assert code == 0
    assert data["dimension"] == data["points"] == 11


def test_piece_dim_25_29_72(capsys):
    code, out, _ = run_cli(capsys, "piece-dim", "25", "29", "72", "--n", "3")
    data = json.loads(out)
    assert (data["points"], data["constraints"]) == (6, 6)


def test_witness_emit_and_verify(capsys, tmp_path):
    out_file = tmp_path / "witness.json"
    code, out, _ = run_cli(capsys, "witness", "8", "19", "9", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["triple"] == [8, 19, 9]
    assert payload["degree"] == 152
    constant = [
        item for item in payload["lattice_coefficients"]
        if item["alpha"] == 0 and item["beta"] == 0
    ]
    assert constant[0]["coefficient"] == "1"
    assert len(payload["lattice_coefficients"]) <= 11

    code, out, _ = run_cli(capsys, "witness", "8", "19", "9", "--verify", str(out_file))
    assert code == 0
    assert "verifies" in out


def test_witness_u39_file_is_pinned(capsys, tmp_path):
    # 2187 373 253 has u = 39 and a witness of 781 terms, all back-substituted;
    # the file bytes, coefficient order included, are pinned, not only re-verified
    out_file = tmp_path / "w39.json"
    code, _, _ = run_cli(capsys, "witness", "2187", "373", "253", "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "0407b067734c72a71f51ddc82d0ffb157ed9c478a59e1ce717fb1563a2429c9f"
    )
    witness = classify(CurveTriple(2187, 373, 253), want_witness=True).witness
    assert len(witness.coefficients) == 781
    assert all(type(c) is Fraction for c in witness.coefficients.values())


def test_witness_verify_rejects_tampering(capsys, tmp_path):
    out_file = tmp_path / "witness.json"
    run_cli(capsys, "witness", "8", "19", "9", "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    payload["lattice_coefficients"][1]["coefficient"] = "7"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "witness", "8", "19", "9", "--verify", str(tampered))
    assert code == 4
    assert "FAIL" in err


def _verify_file(capsys, tmp_path, text):
    path = tmp_path / "witness.json"
    path.write_text(text)
    return run_cli(capsys, "witness", "8", "19", "9", "--verify", str(path))


def _record_parses(monkeypatch):
    parsed = []

    def recording(text):
        parsed.append(text)
        return Fraction(text)

    monkeypatch.setattr("symrees.cli.Fraction", recording)
    return parsed


def _emitted_payload(capsys, tmp_path):
    out_file = tmp_path / "emitted.json"
    run_cli(capsys, "witness", "8", "19", "9", "--out", str(out_file))
    return json.loads(out_file.read_text())


@pytest.mark.parametrize(
    "key", ["triple", "e", "order", "degree", "lattice_coefficients", "monomials"]
)
def test_witness_verify_rejects_missing_key(capsys, tmp_path, key):
    payload = _emitted_payload(capsys, tmp_path)
    del payload[key]
    code, out, err = _verify_file(capsys, tmp_path, json.dumps(payload))
    assert code == 4
    assert out == ""
    assert err.startswith("FAIL: malformed witness file: missing " + key)


@pytest.mark.parametrize("text", ["[8, 19, 9]", '"witness"', "null", "3"])
def test_witness_verify_rejects_non_object_payload(capsys, tmp_path, text):
    code, _, err = _verify_file(capsys, tmp_path, text)
    assert code == 4
    assert err == "FAIL: malformed witness file: not a JSON object\n"


def test_witness_verify_rejects_invalid_json(capsys, tmp_path):
    text = json.dumps(_emitted_payload(capsys, tmp_path), indent=2)
    for broken in [text[: len(text) // 2], "", "{'triple': [8, 19, 9]}"]:
        code, _, err = _verify_file(capsys, tmp_path, broken)
        assert code == 4, broken
        assert err.startswith("FAIL: malformed witness file: not JSON"), broken


def test_witness_verify_rejects_mistyped_fields(capsys, tmp_path):
    payload = _emitted_payload(capsys, tmp_path)
    edits = [
        ("triple", [8, 19]),
        ("e", "1"),
        ("order", 0),
        ("lattice_coefficients", {"alpha": 0}),
        ("monomials", [{"x": 1, "y": 2, "z": "3", "coefficient": "1"}]),
        ("lattice_coefficients", [{"alpha": 0, "beta": 0, "coefficient": "1/0"}]),
        ("lattice_coefficients", [{"alpha": 0, "beta": 0, "coefficient": 1}]),
    ]
    for key, value in edits:
        code, _, err = _verify_file(capsys, tmp_path, json.dumps({**payload, key: value}))
        assert code == 4, (key, value)
        assert err.startswith(f"FAIL: malformed witness file: {key} "), (key, value, err)


@pytest.mark.parametrize("coefficient", ["1e100000000", "0.5", " 1", "1_0", "+1"])
def test_witness_verify_refuses_a_coefficient_it_never_writes(
    capsys, tmp_path, monkeypatch, coefficient
):
    # a coefficient must read as str(Fraction) writes it; anything else is
    # malformed before it is parsed (Fraction("1e100000000") alone takes
    # seconds)
    payload = _emitted_payload(capsys, tmp_path)
    payload["lattice_coefficients"][1]["coefficient"] = coefficient
    parsed = _record_parses(monkeypatch)
    code, out, err = _verify_file(capsys, tmp_path, json.dumps(payload))
    assert code == 4
    assert out == ""
    assert err == (
        "FAIL: malformed witness file: lattice_coefficients is not a list of "
        "integer terms with rational coefficients\n"
    )
    assert coefficient not in parsed


def test_witness_verify_parses_each_coefficient_once(capsys, tmp_path, monkeypatch):
    payload = _emitted_payload(capsys, tmp_path)
    parsed = _record_parses(monkeypatch)
    code, out, _ = _verify_file(capsys, tmp_path, json.dumps(payload))
    assert (code, out) == (0, "witness verifies\n")
    terms = payload["lattice_coefficients"] + payload["monomials"]
    assert sorted(parsed) == sorted(item["coefficient"] for item in terms)


def test_witness_verify_refuses_a_coefficient_too_long_to_convert(capsys, tmp_path):
    # 5000 digits pass the grammar; where int() refuses them the file is
    # malformed, elsewhere the re-checks fail: exit 4 either way
    payload = _emitted_payload(capsys, tmp_path)
    payload["lattice_coefficients"][1]["coefficient"] = "1" * 5000
    code, out, err = _verify_file(capsys, tmp_path, json.dumps(payload))
    assert code == 4
    assert out == ""
    assert err.startswith("FAIL: ")


@pytest.mark.parametrize("key, value", [("order", 1), ("order", 2), ("e", 2), ("degree", 304)])
def test_witness_verify_refuses_a_non_certificate(capsys, tmp_path, key, value):
    # 8 19 9 has u = 3; a witness of another piece proves nothing about it
    payload = _emitted_payload(capsys, tmp_path)
    want = {"e": 1, "order": 3, "degree": 152}[key]
    code, out, err = _verify_file(capsys, tmp_path, json.dumps({**payload, key: value}))
    assert code == 4
    assert out == ""
    assert err == f"FAIL: {key} is {value}, not {want}\n"


def test_witness_verify_refuses_a_huge_order_before_any_recheck(capsys, tmp_path, monkeypatch):
    # a header other than the certificate's is refused before any re-check
    payload = _emitted_payload(capsys, tmp_path)

    def no_recheck(*args):
        raise AssertionError("re-check run on a non-certificate")

    monkeypatch.setattr("symrees.cli.shift_membership_test", no_recheck)
    monkeypatch.setattr("symrees.cli.curve_substitution_zero", no_recheck)
    code, _, err = _verify_file(capsys, tmp_path, json.dumps({**payload, "order": 10**18}))
    assert code == 4
    assert err == f"FAIL: order is {10**18}, not 3\n"


def test_witness_verify_rejects_monomials_that_are_not_the_expansion(capsys, tmp_path):
    # x^19 - y^8 has degree ab = 152 and vanishes on the curve, but it is not
    # the element of the lattice coefficients
    payload = _emitted_payload(capsys, tmp_path)
    payload["monomials"] = [
        {"x": 19, "y": 0, "z": 0, "coefficient": "1"},
        {"x": 0, "y": 8, "z": 0, "coefficient": "-1"},
    ]
    code, out, err = _verify_file(capsys, tmp_path, json.dumps(payload))
    assert code == 4
    assert out == ""
    assert err == "FAIL: monomials are not the expansion of the lattice coefficients\n"


@pytest.mark.parametrize(
    "key, fields", [("lattice_coefficients", "alpha, beta"), ("monomials", "x, y, z")]
)
def test_witness_verify_rejects_a_repeated_term(capsys, tmp_path, key, fields):
    # a first copy with another coefficient would be overwritten by the
    # emitted term, so the rest of the file still verifies
    payload = _emitted_payload(capsys, tmp_path)
    payload[key].insert(0, {**payload[key][0], "coefficient": "5"})
    code, out, err = _verify_file(capsys, tmp_path, json.dumps(payload))
    assert code == 4
    assert out == ""
    assert err == f"FAIL: malformed witness file: {key} lists a ({fields}) twice\n"


def test_witness_verify_is_bounded_by_the_file_not_by_u(capsys, tmp_path):
    # 9999991 10000003 7 passes the hypotheses with u = 2,857,142; the 11
    # terms of (v-1)^10 lie in (v-1, w-1)^10 but in no higher power, and the
    # shift test says so from the term count, not with u entries per column
    # (10.9 s and 301 MB before)
    pres = compute_presentation(CurveTriple(9999991, 10000003, 7))
    region = DeltaRegion(pres, 1)
    terms = {LatticePoint(k, 0): (-1) ** k * math.comb(10, k) for k in range(11)}
    payload = {
        "triple": [9999991, 10000003, 7],
        "e": 1,
        "order": pres.u,
        "degree": pres.a * pres.b,
        "lattice_coefficients": [
            {"alpha": al, "beta": be, "coefficient": str(c)} for (al, be), c in terms.items()
        ],
        "monomials": [
            {**dict(zip("xyz", region.monomial_exponents(pt))), "coefficient": str(c)}
            for pt, c in terms.items()
        ],
    }
    path = tmp_path / "binomial.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "witness", "9999991", "10000003", "7", "--verify", str(path))
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (4, "", "FAIL: shift-substitution membership fails\n")


def test_witness_verify_refuses_a_triple_outside_the_hypotheses(capsys, tmp_path, monkeypatch):
    # 3 5 4 fails u^2 c < ab (16 > 15), so no witness certifies a verdict:
    # the kernel vector y^3 + x z^3 - 3 x^2 y z + x^5 (order 2, degree 15)
    # passes every re-check, and is refused before any of them runs
    path = tmp_path / "outside.json"
    path.write_text(
        '{"triple": [3, 5, 4], "e": 1, "order": 2, "degree": 15, "lattice_coefficients": ['
        '{"alpha": 0, "beta": 0, "coefficient": "1"}, {"alpha": 1, "beta": -1, "coefficient": "1"}, '
        '{"alpha": 1, "beta": 0, "coefficient": "-3"}, {"alpha": 2, "beta": 1, "coefficient": "1"}], '
        '"monomials": [{"x": 0, "y": 3, "z": 0, "coefficient": "1"}, '
        '{"x": 1, "y": 0, "z": 3, "coefficient": "1"}, {"x": 2, "y": 1, "z": 1, "coefficient": "-3"}, '
        '{"x": 5, "y": 0, "z": 0, "coefficient": "1"}]}'
    )

    def no_recheck(*args):
        raise AssertionError("re-check run outside the hypotheses")

    monkeypatch.setattr("symrees.cli.shift_membership_test", no_recheck)
    monkeypatch.setattr("symrees.cli.curve_substitution_zero", no_recheck)
    code, out, err = run_cli(capsys, "witness", "3", "5", "4", "--verify", str(path))
    assert (code, out) == (2, "")
    assert err == "inapplicable: u^2*c < a*b fails: the candidate generator is not a negative curve\n"
    monkeypatch.undo()
    for command in ("classify", "witness"):
        assert run_cli(capsys, command, "3", "5", "4")[0] == 2


def test_witness_absent(capsys):
    code, _, err = run_cli(capsys, "witness", "25", "29", "72")
    assert code == 1
    assert "no witness" in err


def test_witness_inapplicable(capsys):
    code, _, err = run_cli(capsys, "witness", "16", "683", "97")
    assert code == 2


def test_verify_family_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify-family", "--alpha", "6/5", "--beta", "49/24", "--m", "1", "--n", "1"
    )
    assert code == 0
    assert "(a, b, c) = (16, 683, 97)" in out
    assert "FAIL" not in out
    assert "infinitely generated" in out


def test_verify_family_warns_on_even_m(capsys):
    code, out, _ = run_cli(
        capsys, "verify-family", "--alpha", "6/5", "--beta", "49/24", "--m", "2", "--n", "1"
    )
    assert code == 0
    assert "warning" in out
    assert "gcd(a, b, c) = 2" in out
    # no infinite-generation claim without gcd 1
    assert "conclusion: symbolic Rees ring" not in out


def test_verify_family_rejects_bad_alpha(capsys):
    code, _, err = run_cli(capsys, "verify-family", "--alpha", "4/3", "--beta", "49/24")
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize("alpha", ["1e3000000", "1.2", "6/0", " 6/5", "+6/5", "1" * 5000])
def test_verify_family_refuses_alpha_outside_the_documented_forms(capsys, monkeypatch, alpha):
    # only an integer or P/Q, the grammar of witness-file coefficients: the
    # exponent form, which Fraction would take seconds to expand, and an
    # integer with more digits than int() converts are usage errors, unparsed
    # or refused by the conversion limit, before any family is built
    parsed = _record_parses(monkeypatch)
    monkeypatch.setattr("symrees.cli.generate_family", None)  # never reached
    with pytest.raises(SystemExit) as exc:
        main(["verify-family", "--alpha", alpha, "--beta", "49/24"])
    assert exc.value.code == 3
    assert "--alpha: not an integer or P/Q" in capsys.readouterr().err
    assert "1e3000000" not in parsed


def test_record_json_round_trip():
    record = from_verdict(classify(CurveTriple(8, 19, 9)), timing_ms=1.25)
    data = json.loads(json.dumps(to_dict(record)))
    assert from_dict(data) == record
    inapplicable = from_verdict(classify(CurveTriple(16, 683, 97)))
    data = json.loads(json.dumps(to_dict(inapplicable)))
    assert from_dict(data) == inapplicable


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "symrees", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "symrees" in proc.stdout


_FAMILY_CHECKS = """\
[PASS] generator syzygies
[PASS] exponent inequalities s2 > 2*s3, u1 < u2 < 2*u1
[PASS] order-2 element: x^s3 divides z^(u2-u1) f^2 - g h
[PASS] order-2 companion: z^u1 xi = x^(s2-s3) h^2 - f g
[PASS] order-2 slice: xi = y^3 mod (x)
[PASS] order-2 element is a negative curve  [deg^2 = {deg2} vs 4abc = {abc4}]
[PASS] order-3 element: x^s3 divides f^3 + z^(2u1-u2) h xi
[PASS] order-3 companion: z^(u2-u1) zeta = f xi + x^(s2-2s3) h^3
[PASS] order-3 slice: zeta = -y^4 z^(2u1-u2) mod (x)
[PASS] slice colength at order 2 equals 3a  [{len2} vs 3a = {len2}]
[PASS] slice colength at order 3 equals 6a  [{len3} vs 6a = {len3}]
[PASS] order 2*3 product is strictly smaller than the order-5 power  [colengths {lp} vs {ls} (gap {gap})]
"""
_FAMILY_CONCLUSION = (
    "conclusion: symbolic Rees ring of p(a, b, c) is infinitely generated\n"
    "note: the negative curve sits in the second symbolic power, outside the classifier "
    "hypotheses; `classify` deliberately reports inapplicable here\n"
)

# the whole verify-family report, byte for byte: (argv, exit code, stdout, stderr)
_FAMILY_PINS = [
    (
        ["--alpha", "6/5", "--beta", "49/24"],
        0,
        "parameters   alpha=6/5 beta=49/24 m=1 n=1\n"
        "exponents    s2=49 s3=24 t1=1 t3=1 u1=5 u2=6\n"
        "weights      (a, b, c) = (16, 683, 97), gcd = 1, pairwise coprime = True\n"
        + _FAMILY_CHECKS.format(deg2=4198401, abc4=4240064, len2=48, len3=96, lp=241, ls=240, gap=1)
        + _FAMILY_CONCLUSION,
        "",
    ),
    (
        ["--alpha", "6/5", "--beta", "49/24", "--m", "2", "--n", "1"],
        0,
        "parameters   alpha=6/5 beta=49/24 m=2 n=1\n"
        "exponents    s2=98 s3=48 t1=1 t3=1 u1=5 u2=6\n"
        "weights      (a, b, c) = (16, 1366, 194), gcd = 2, pairwise coprime = False\n"
        "warning: gcd(a, b, c) = 2 != 1 (needs m odd and further coprimality of the scales); "
        "the infinite-generation conclusion does not apply\n"
        + _FAMILY_CHECKS.format(deg2=16793604, abc4=16960256, len2=48, len3=96, lp=241, ls=240, gap=1),
        "",
    ),
    (
        ["--alpha", "6/5", "--beta", "49/24", "--m", "3", "--n", "2"],
        0,
        "parameters   alpha=6/5 beta=49/24 m=3 n=2\n"
        "exponents    s2=147 s3=72 t1=1 t3=1 u1=10 u2=12\n"
        "weights      (a, b, c) = (32, 4098, 291), gcd = 1, pairwise coprime = False\n"
        "warning: a, b, c are not pairwise coprime; "
        "the infinite-generation conclusion does not apply\n"
        + _FAMILY_CHECKS.format(
            deg2=151142436, abc4=152642304, len2=96, len3=192, lp=482, ls=480, gap=2
        ),
        "",
    ),
    (["--alpha", "4/3", "--beta", "49/24"], 2, "", "rejected: alpha=4/3 violates 1 < alpha < 5/4\n"),
    (
        ["--alpha", "121/100", "--beta", "21/10"],
        2,
        "",
        "rejected: beta=21/10 violates 2 < beta < 490/237\n",
    ),
]


@pytest.mark.parametrize(
    "argv, code, out, err", _FAMILY_PINS, ids=[" ".join(pin[0]) for pin in _FAMILY_PINS]
)
def test_verify_family_report_is_pinned(argv, code, out, err):
    proc = subprocess.run(
        [sys.executable, "-m", "symrees", "verify-family", *argv], capture_output=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
