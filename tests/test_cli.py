import gc
import hashlib
import itertools
import json
import math
import random
import time

import numpy as np
import pytest
from util import paley6_roux, paley_exponents, record_calls, roux_json, su3_spec, su33_bench_spec, two_graph_json

from rouxforge.cli import main
from rouxforge.oracles import gram_vectors
from rouxforge.roux import RouxMatrix, switch


# Digests of the JSON reports of `family psl2 --q 13` and `family psu3 --q 3`.
# Their float fields come from LAPACK, so another numpy or BLAS build may
# change the last digits.
PSL2_Q13_SHA256 = "ddc70eeb424ba41caddf85209a5ee525fd760c190dfe7a5885984c82cc1cb2dc"
PSU3_Q3_SHA256 = "c0f63165530a9f878ac4a294c17bb3b659a2710c74760386e3e6611538ee8ee8"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_psl2_q13(tmp_path, capsys):
    out = tmp_path / "psl13.json"
    code, _, _ = run(["family", "psl2", "--q", "13", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    quad = next(c for c in report["characters"] if c["character"]["image_order"] == 2)
    k1 = next(ls for ls in quad["line_sets"] if ls["k"] == 1)
    assert k1["etf"]["d"] == 7
    assert k1["real_algebraic"] is True
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PSL2_Q13_SHA256


def test_family_psl2_q9_exit2(capsys):
    code, _, err = run(["family", "psl2", "--q", "9"], capsys)
    assert code == 2
    assert "exceptional" in err and "cover" in err


def test_family_psl2_even_q_exit2(capsys):
    code, _, err = run(["family", "psl2", "--q", "8"], capsys)
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["suzuki", "--q", "2097152"],
        ["ree", "--q", "14348907"],
        ["psu3", "--q", "1031", "--allow-large"],
        ["psu3", "--q", str(10**18 + 9), "--allow-large"],
        ["suzuki", "--q", "128"],  # no built-in field polynomial for 2^7
        ["sp", "--m", "9"],
        ["sp", "--m", "64"],
        ["psl2", "--q", "1000000000039"],
        ["psu3", "--q", "1000000000039"],
    ],
    ids=lambda argv: "-".join(a.strip("-") for a in argv),
)
def test_family_size_flags_exit2_at_once(argv, capsys):
    start = time.perf_counter()
    code, out, err = run(["family"] + argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_family_psu3_q3_blocks(tmp_path, capsys):
    out = tmp_path / "psu3.json"
    code, _, _ = run(["family", "psu3", "--q", "3", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    orders = sorted(
        c["character"]["image_order"] for c in report["characters"] if c["higman"]
    )
    assert orders == [1, 2, 4, 4]
    assert report["passed"] is True
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PSU3_Q3_SHA256


def test_family_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["family", "psl2", "--q", "5", "--out", str(a)], capsys)[0] == 0
    assert run(["family", "psl2", "--q", "5", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_family_csv_summary(tmp_path, capsys):
    out = tmp_path / "psl5.csv"
    code, _, _ = run(
        ["family", "psl2", "--q", "5", "--format", "csv", "--out", str(out)], capsys
    )
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("family,q,n,character")
    assert any(",3," in line for line in text[1:])


def test_family_sp(capsys):
    code, out, _ = run(["family", "sp", "--m", "3", "--epsilon", "-"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_detect_s3(tmp_path, capsys):
    spec = {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(["detect", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 3
    assert report["character_count"] == 2
    for row in report["characters"]:
        assert row["higman"] is True
        assert row["params"] is not None
        dims = {round(e["d"]) for e in row["idempotents"]}
        assert dims <= {1, 2}


def test_detect_sl25_projective(tmp_path, capsys):
    spec = {
        "kind": "matrix",
        "field": {"p": 5, "k": 1, "irreducible": [0, 1]},
        "dim": 2,
        "generators": [[1, 1, 0, 1], [0, 1, 4, 0]],
        "action": "projective",
    }
    path = tmp_path / "sl25.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(["detect", str(path), "--jobs", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 6
    quad = [
        row
        for row in report["characters"]
        if row["higman"] and row["character"]["image_order"] == 2
    ]
    assert len(quad) == 1
    assert quad[0]["params"] == [2, 0, 2, 0]
    assert quad[0]["key"][1] == 0
    higman_count = sum(1 for row in report["characters"] if row["higman"])
    assert higman_count == 2


def test_detect_computes_the_stabilizer_once(tmp_path, capsys, monkeypatch):
    # the double-transitivity test and the cover share one stabilizer
    from rouxforge import group

    stabilizers = record_calls(monkeypatch, group, "stabilizer")
    spec = {"kind": "permutation", "degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(["detect", str(path)], capsys)
    assert code == 0 and json.loads(out)["stabilizer_order"] == 6
    assert [H.order for H in stabilizers] == [6]


def test_detect_intransitive_exit3(tmp_path, capsys):
    spec = {"kind": "permutation", "degree": 4, "generators": [[1, 0, 2, 3]]}
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(["detect", str(path)], capsys)
    assert code == 3
    assert "H1" in err


def test_detect_not_doubly_transitive_exit3(tmp_path, capsys):
    spec = {"kind": "permutation", "degree": 4, "generators": [[1, 2, 3, 0]]}
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(["detect", str(path)], capsys)
    assert code == 3


def test_detect_fewer_than_three_points_exit3(tmp_path, capsys):
    # S2 on 2 points is doubly transitive, but its radicalization is no
    # Higman pair: N(H) is all of S2 x C_2, not G0* x C_2
    spec = {"kind": "permutation", "degree": 2, "generators": [[1, 0]]}
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["detect", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "H1" in err


def test_detect_malformed_exit2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["detect", str(path)], capsys)[0] == 2
    path.write_text(json.dumps({"kind": "nonsense"}))
    assert run(["detect", str(path)], capsys)[0] == 2


S3_SPEC = {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
SL25_SPEC = {
    "kind": "matrix",
    "field": {"p": 5, "k": 1, "irreducible": [0, 1]},
    "dim": 2,
    "generators": [[1, 1, 0, 1], [0, 1, 4, 0]],
    "action": "projective",
}


@pytest.mark.parametrize(
    "spec,key",
    [
        (dict(S3_SPEC, degree=3.5), "degree"),
        (dict(SL25_SPEC, field=dict(SL25_SPEC["field"], p=5.9)), "p"),
        (dict(SL25_SPEC, dim=2.2), "dim"),
        (dict(S3_SPEC, generators=[[1, 0, 2], [1, 2, 0.0]]), "generators"),
        (dict(SL25_SPEC, generators=[[1, 1.5, 0, 1], [0, 1, 4, 0]]), "generators"),
    ],
    ids=["degree", "p", "dim", "image", "entry"],
)
def test_detect_non_integer_group_spec_exit2(tmp_path, capsys, spec, key):
    # a float is refused, not truncated to a smaller group
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["detect", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key}: expected an integer") and err.count("\n") == 1


F2_3X3_SPEC = {
    "kind": "matrix",
    "field": {"p": 2, "k": 1, "irreducible": [0, 1]},
    "dim": 3,
    "generators": [[1, 1, 0, 0, 1, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0, 0, 1, 0]],
}


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "permutation", "degree": 0, "generators": [[]]},
        {"kind": "permutation", "degree": -1, "generators": [[]]},
        dict(SL25_SPEC, dim=0, generators=[[]]),
        dict(SL25_SPEC, dim=-1, generators=[[1]]),
        dict(SL25_SPEC, action="natural"),
        dict(S3_SPEC, action="projective"),
        dict(S3_SPEC, action="isotropic"),
        dict(F2_3X3_SPEC, action="projective"),
        {"kind": "product", "base": S3_SPEC, "r": 2},
        {"kind": "product", "base": S3_SPEC, "r": 2, "action": "natural"},
        {"kind": "product", "base": S3_SPEC, "r": 2, "action": "isotropic"},
        {"kind": "product", "base": S3_SPEC, "r": 0, "action": "natural"},
        {"kind": "product", "base": S3_SPEC, "r": -2, "action": "natural"},
        # diag(w, 1, 1) over F_4 moves isotropic lines off the isotropic set
        {"kind": "matrix", "field": {"p": 2, "k": 2}, "dim": 3,
         "generators": [[[0, 1], 0, 0, 0, 1, 0, 0, 0, 1]], "action": "isotropic"},
    ],
    ids=[
        "degree-0", "degree-neg", "dim-0", "dim-neg", "matrix-natural", "perm-projective",
        "perm-isotropic", "3x3-projective", "product", "product-natural", "product-isotropic",
        "product-r-0", "product-r-neg", "isotropic-off-set",
    ],
)
def test_detect_spec_without_a_fitting_action_exit2(tmp_path, capsys, spec):
    # a count below 1, an action that does not fit the group kind, or a
    # generator that moves a point off the point set, is malformed input
    # rather than a traceback or an H1 failure
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["detect", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


HUGE = 10**20


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "permutation", "degree": HUGE, "generators": []},
        dict(S3_SPEC, degree=HUGE),
        dict(SL25_SPEC, dim=HUGE, generators=[]),
        dict(SL25_SPEC, dim=HUGE),
        dict(SL25_SPEC, field={"p": 2**61 - 1, "k": 1}),
        dict(SL25_SPEC, field={"p": HUGE, "k": 1}),
        dict(SL25_SPEC, field={"p": 5, "k": HUGE}),
    ],
    ids=["degree-no-generators", "degree", "dim-no-generators", "dim", "p-prime", "p", "k"],
)
def test_detect_huge_count_exit2(tmp_path, capsys, spec):
    # each count is checked before anything of its size is built, and
    # before a trial division of p: these would exhaust memory or time
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["detect", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec,singular",
    [
        ({"kind": "matrix", "field": {"p": 3, "k": 1}, "dim": 2, "generators": [[1, 1, 1, 1]]}, 0),
        (dict(SL25_SPEC, generators=SL25_SPEC["generators"] + [[1, 0, 0, 0]]), 2),
    ],
    ids=["rank-1", "sl25-plus-projection"],
)
def test_detect_singular_generator_exit2(tmp_path, capsys, spec, singular):
    # a singular generator would close to a semigroup, not a group
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["detect", str(path)], capsys) == (2, "", f"error: generator {singular} is a singular matrix\n")


@pytest.mark.parametrize(
    "command,text",
    [
        (["detect"], "[]"),
        (["detect"], "5"),
        (["detect"], '"x"'),
        (["detect"], "null"),
        (["detect"], json.dumps(dict(SL25_SPEC, field=5))),
        (["detect"], json.dumps(dict(SL25_SPEC, field=[3]))),
        (["detect"], json.dumps({"kind": "product", "base": [], "r": 2})),
        (["verify", "--kind", "roux"], "[]"),
    ],
    ids=["list", "number", "string", "null", "field-number", "field-list", "product-base-list", "verify-list"],
)
def test_non_object_json_exit2(tmp_path, capsys, command, text):
    # exit 1 would claim a failed certificate
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(command + [str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_detect_builds_no_product_group(tmp_path, capsys, monkeypatch):
    # radicalize proves N(H) = G~0* instead of scanning G* x C_r
    from rouxforge import oracles

    products = record_calls(monkeypatch, oracles, "direct_product_with_cyclic")
    path = tmp_path / "sl25.json"
    path.write_text(json.dumps(SL25_SPEC))
    code, out, _ = run(["detect", str(path)], capsys)
    assert code == 0 and json.loads(out)["n"] == 6
    assert products == []


def test_verify_roux_file(tmp_path, capsys):
    B = paley6_roux(4)
    path = tmp_path / "roux.json"
    path.write_text(json.dumps(roux_json(B)))
    code, out, _ = run(["verify", str(path), "--kind", "roux"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["params"]["c"] == [2, 0, 2, 0]


def test_verify_corrupted_roux_locates_cell(tmp_path, capsys):
    B = paley6_roux(4)
    blob = roux_json(B)
    blob["entries"][0][1] = (blob["entries"][0][1] + 1) % 4  # break inverse-symmetry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(["verify", str(path), "--kind", "roux"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["error"]["cell"] == [0, 1]


# Digests of the `verify --kind roux` reports for the Paley C_4 roux at
# p = 29 switched by a seeded diagonal, and for a copy with cell (0,1)
# shifted by 2.  Unchanged since the identity was checked with r^2
# integer matmuls.
PALEY29_ROUX_SHA256 = "406d6e342a30667019b70d3e5f751977cf1247c22aa95809034c1547228cda43"
PALEY29_CORRUPTED_SHA256 = "2ae9715ccb0475da1ddf6ad4bc618c244ec44d457db287ea8361a335c081a9ee"


def test_verify_switched_paley29_reports_are_pinned(tmp_path, capsys):
    rng = random.Random(29)
    B = switch(RouxMatrix(30, 4, paley_exponents(29)), [rng.randrange(4) for _ in range(30)])
    blob = roux_json(B)
    path = tmp_path / "paley29.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(["verify", str(path), "--kind", "roux"], capsys)
    assert code == 0
    assert json.loads(out)["params"]["c"] == [14, 0, 14, 0]
    assert hashlib.sha256(out.encode()).hexdigest() == PALEY29_ROUX_SHA256
    blob["entries"][0][1] = (blob["entries"][0][1] + 2) % 4
    path.write_text(json.dumps(blob))
    code, out, _ = run(["verify", str(path), "--kind", "roux"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["cell"] == [0, 1]
    assert hashlib.sha256(out.encode()).hexdigest() == PALEY29_CORRUPTED_SHA256


PALEY6 = roux_json(paley6_roux(4))
SHORT_ROW = [row[:] for row in PALEY6["entries"]]
SHORT_ROW[3].pop()
STRING_EXPONENT = [row[:] for row in PALEY6["entries"]]
STRING_EXPONENT[2][4] = "2"
HALF_EXPONENT = [row[:] for row in PALEY6["entries"]]
HALF_EXPONENT[2][4] = 1.5
BOOL_EXPONENT = [row[:] for row in PALEY6["entries"]]
BOOL_EXPONENT[2][4] = True
HUGE_EXPONENT = [row[:] for row in PALEY6["entries"]]
HUGE_EXPONENT[2][4] = 2**70
BOOL_DIAGONAL = [row[:] for row in PALEY6["entries"]]
BOOL_DIAGONAL[0][0] = False


@pytest.mark.parametrize(
    "blob,message",
    [
        (dict(PALEY6, entries=STRING_EXPONENT), "cell (2,4) must be null or an integer, got '2'"),
        (dict(PALEY6, entries=SHORT_ROW), "entries must be 6 rows of 6 cells"),
        (dict(PALEY6, entries=HALF_EXPONENT), "cell (2,4) must be null or an integer, got 1.5"),
        (dict(PALEY6, entries=BOOL_EXPONENT), "cell (2,4) must be null or an integer, got True"),
        (dict(PALEY6, entries=HUGE_EXPONENT), "exponents must lie in the 64-bit integer range"),
        (dict(PALEY6, entries=PALEY6["entries"][:5]), "entries must be 6 rows of 6 cells"),
        (dict(PALEY6, entries="none"), "entries must be 6 rows of 6 cells"),
        (dict(PALEY6, n=-1), "n must be a positive integer, got -1"),
        (dict(PALEY6, n="6"), "n must be a positive integer, got '6'"),
        (dict(PALEY6, r=0), "r must be a positive integer, got 0"),
        (dict(PALEY6, r=4.0), "r must be a positive integer, got 4.0"),
        ({"n": 6, "entries": PALEY6["entries"]}, "missing key 'r'"),
        (dict(PALEY6, entries=BOOL_DIAGONAL), "cell (0,0) must be null or an integer, got False"),
    ],
    ids=["string", "short-row", "half", "bool", "huge", "missing-row", "not-a-grid",
         "n-negative", "n-string", "r-zero", "r-float", "no-r", "bool-diagonal"],
)
def test_verify_malformed_roux_file_exit2(tmp_path, capsys, blob, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert run(["verify", str(path), "--kind", "roux"], capsys) == (2, "", f"error: {message}\n")


def without(blob: dict, key: str) -> dict:
    return {k: v for k, v in blob.items() if k != key}


@pytest.mark.parametrize(
    "command,blob,key",
    [
        ("detect", dict(SL25_SPEC, field={"k": 1}), "p"),
        ("detect", dict(SL25_SPEC, field={"p": 5}), "k"),
        ("detect", without(S3_SPEC, "generators"), "generators"),
        ("detect", without(SL25_SPEC, "dim"), "dim"),
        ("roux", without(PALEY6, "r"), "r"),
        ("roux", without(PALEY6, "entries"), "entries"),
        ("signature", {"entries": [[1.0, 0.0]]}, "n"),
    ],
    ids=["field-p", "field-k", "generators", "dim", "roux-r", "roux-entries", "signature-n"],
)
def test_missing_required_key_exit2_naming_it(tmp_path, capsys, command, blob, key):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(blob))
    argv = ["detect", str(path)] if command == "detect" else ["verify", str(path), "--kind", command]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: missing key '{key}'\n"


@pytest.mark.parametrize("n,r", [(3, 10**9), (40, 10**8)])
def test_verify_roux_too_large_to_verify_exit2_at_once(tmp_path, capsys, n, r):
    # verification would need 4 n^2 r bytes: 33.5 GiB and 596 GiB
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "r": r, "entries": [[None if i == j else 0 for j in range(n)] for i in range(n)]}))
    start = time.perf_counter()
    code, out, err = run(["verify", str(path), "--kind", "roux"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "bytes" in err and err.count("\n") == 1


def test_verify_paley29_over_c400(tmp_path, capsys):
    # a large r within the bound still verifies
    path = tmp_path / "paley29.json"
    path.write_text(json.dumps(roux_json(RouxMatrix(30, 400, np.array(paley_exponents(29)) * 100))))
    code, out, _ = run(["verify", str(path), "--kind", "roux"], capsys)
    assert code == 0
    c = json.loads(out)["params"]["c"]
    assert (c[0], c[200], sum(c)) == (14, 14, 28)


def test_verify_roux_r1_faults_keep_exit1_and_cell(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for cell, value, message in [
        ((2, 2), 1, "diagonal cell (2,2) must be zero"),
        ((3, 1), None, "off-diagonal cell (3,1) missing"),
    ]:
        entries = [row[:] for row in PALEY6["entries"]]
        entries[cell[0]][cell[1]] = value
        entries[4][4] = 3  # a later fault: the first one in row-major order is reported
        path.write_text(json.dumps(dict(PALEY6, entries=entries)))
        code, out, _ = run(["verify", str(path), "--kind", "roux"], capsys)
        assert code == 1
        assert json.loads(out)["error"] == {"message": message, "cell": list(cell)}


@pytest.mark.parametrize("kind", ["signature", "etf"])
@pytest.mark.parametrize(
    "entries,message",
    [
        ([[0.0, 0.0, 0.0]] * 4, "entries must be 4 [re, im] pairs of numbers"),
        ([[0.0, 0.0]] * 3, "entries must be 4 [re, im] pairs of numbers"),
        ([[0.0, 0.0]] * 3 + [[1.0]], "entries must be 4 [re, im] pairs"),
        ([[0.0, 0.0]] * 3 + [["1", "0"]], "entries must be 4 [re, im] pairs of numbers"),
        ([[0.0, 0.0]] * 3 + [[None, 0.0]], "entries must be 4 [re, im] pairs of numbers"),
        ([[0.0, 0.0]] * 3 + [[float("nan"), 0.0]], "entries must be finite"),
        ({"0": [0.0, 0.0]}, "entries must be 4 [re, im] pairs of numbers"),
        ([[0.0, 0.0]] * 3 + [[[1.0], 0.0]], "entries must be 4 [re, im] pairs"),
        ([[True, False]] * 4, "entries must be 4 [re, im] pairs of numbers"),
    ],
    ids=["three-numbers", "too-few", "ragged", "string", "null", "nan", "dict", "nested-cell", "booleans"],
)
def test_verify_malformed_matrix_file_exit2(tmp_path, capsys, kind, entries, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "entries": entries}))
    assert run(["verify", str(path), "--kind", kind], capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("kind", ["signature", "etf"])
@pytest.mark.parametrize(
    "entries",
    [
        [[0, 0], [0, 0], [0, 0], [True, 0.0]],
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [False, 0.0]],
        [[0, 0], [1, 0], [1, 0], [0, False]],
    ],
    ids=["true-among-floats", "false-among-floats", "false-among-integers"],
)
def test_verify_boolean_among_numbers_exit2(tmp_path, capsys, kind, entries):
    # numpy reads a boolean among numbers as 0 or 1, so without its own
    # check the file was certified, or refused with exit 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "entries": entries}))
    message = "error: entries must be 4 [re, im] pairs of numbers\n"
    assert run(["verify", str(path), "--kind", kind], capsys) == (2, "", message)


@pytest.fixture(scope="module")
def paley110_files(tmp_path_factory):
    """The Paley roux at p = 109 and its signature, Gram and two-graph
    files: n = 110, so a pairs file parses to 12,100 lists."""
    exps = paley_exponents(109)
    n = len(exps)
    signs = [[1 if e == 0 else -1 for e in row] for row in exps]
    mu = 1 / math.sqrt(n - 1)

    def pairs(diagonal, scale):
        return [[diagonal if i == j else scale * signs[i][j], 0.0] for i in range(n) for j in range(n)]

    blobs = {
        "roux": roux_json(RouxMatrix(n, 4, exps)),
        "signature": {"n": n, "entries": pairs(0.0, 1.0)},
        "etf": {"n": n, "entries": pairs(1.0, mu)},
        "twograph": {"n": n, "triples": [
            [i, j, k] for i, j, k in itertools.combinations(range(n), 3) if signs[i][j] * signs[j][k] * signs[k][i] < 0
        ]},
    }
    root = tmp_path_factory.mktemp("paley110")
    for kind, blob in blobs.items():
        (root / f"{kind}.json").write_text(json.dumps(blob))
    return root


@pytest.mark.parametrize("kind", ["roux", "signature", "etf", "twograph"])
def test_verify_makes_no_collection(paley110_files, capsys, kind):
    argv = ["verify", str(paley110_files / f"{kind}.json"), "--kind", kind]
    assert main(argv) == 0  # first call: the parser and lazy imports
    events = []

    def record(phase, info):
        events.append((phase, info["generation"]))

    gc.collect()  # nothing left over from earlier tests starts a collection
    gc.callbacks.append(record)
    try:
        code = main(argv)
    finally:
        gc.callbacks.remove(record)
    capsys.readouterr()
    assert (code, events) == (0, [])


@pytest.mark.parametrize("enabled", [True, False])
def test_main_keeps_the_callers_collector_state(tmp_path, capsys, enabled):
    good, corrupted, malformed = tmp_path / "good.json", tmp_path / "corrupted.json", tmp_path / "malformed.json"
    good.write_text(json.dumps(PALEY6))
    flipped = [row[:] for row in PALEY6["entries"]]
    flipped[0][1] = (flipped[0][1] + 1) % 4  # breaks inverse-symmetry: exit 1
    corrupted.write_text(json.dumps(dict(PALEY6, entries=flipped)))
    malformed.write_text(json.dumps(dict(PALEY6, entries=STRING_EXPONENT)))
    cases = [
        (["verify", str(good), "--kind", "roux"], 0),
        (["verify", str(corrupted), "--kind", "roux"], 1),
        (["verify", str(malformed), "--kind", "roux"], 2),
        (["verify", str(tmp_path / "absent.json"), "--kind", "etf"], 2),
        (["family", "psl2", "--q", "5"], 0),
    ]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in cases:
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_verify_signature_all_ones(tmp_path, capsys):
    n = 4
    S = np.ones((n, n)) - np.eye(n)
    blob = {"n": n, "entries": [[float(v.real), float(v.imag)] for v in S.flatten()]}
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(["verify", str(path), "--kind", "signature"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["d"] == 1


def test_verify_etf_gram(tmp_path, capsys):
    from rouxforge.lines import gram_from_signature
    from rouxforge.roux import signature_matrix

    gram = gram_from_signature(signature_matrix(paley6_roux(4), 1))
    blob = {
        "n": 6,
        "entries": [[float(v.real), float(v.imag)] for v in gram.matrix.flatten()],
    }
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(["verify", str(path), "--kind", "etf"], capsys)
    assert code == 0
    assert json.loads(out)["certificate"]["mu"] == pytest.approx(1 / math.sqrt(5))


def test_verify_twograph(tmp_path, capsys):
    from rouxforge.oracles import two_graph_from_lines
    from rouxforge.roux import signature_matrix

    tg = two_graph_from_lines(signature_matrix(paley6_roux(4), 1))
    path = tmp_path / "tg.json"
    path.write_text(json.dumps(two_graph_json(tg)))
    code, out, _ = run(["verify", str(path), "--kind", "twograph"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["regularity"]["regular"] is True
    assert report["regularity"]["d"] == pytest.approx(3)


def test_verify_twograph_odd_4subset_at_31_vertices(tmp_path, capsys):
    path = tmp_path / "tg31.json"
    path.write_text(json.dumps({"n": 31, "triples": [[0, 1, 2]]}))
    code, out, _ = run(["verify", str(path), "--kind", "twograph"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["error"]["message"] == "4-subset (0, 1, 2, 3) contains 1 triples"


@pytest.mark.parametrize(
    "blob",
    [
        {"n": "x", "triples": []},
        {"n": 4.7, "triples": []},
        {"n": 0, "triples": []},
        {"n": 4, "triples": [[0, 1]]},
        {"n": 4, "triples": [[0, 1, 9]]},
        {"n": 4, "triples": [[0, 0, 1]]},
        {"n": 4, "triples": [[0, 1, 2.0]]},
        {"n": 4, "triples": "none"},
    ],
    ids=["n-string", "n-float", "n-zero", "short-triple", "out-of-range", "repeated-vertex",
         "float-vertex", "not-a-list"],
)
def test_verify_malformed_twograph_file_exit2(tmp_path, capsys, blob):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(["verify", str(path), "--kind", "twograph"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", [1025, 100000, 10**20])
def test_verify_twograph_huge_n_exit2_at_once(tmp_path, capsys, n):
    # the parity check builds n x n arrays: 9.31 GiB at n = 100000
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n, "triples": [[0, 1, 2]]}))
    start = time.perf_counter()
    code, out, err = run(["verify", str(path), "--kind", "twograph"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: n: at most 1024 vertices, got {n}\n")


def test_detect_reducible_field_polynomial_exit2(tmp_path, capsys):
    # x^5 + 1 = (x + 1)(x^4 + x^3 + x^2 + x + 1) over F_2
    spec = {
        "kind": "matrix",
        "field": {"p": 2, "k": 5, "irreducible": [1, 0, 0, 0, 0, 1]},
        "dim": 2,
        "generators": [[1, 1, 0, 1], [0, 1, 1, 0]],
        "action": "projective",
    }
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(["detect", str(path)], capsys)
    assert code == 2
    assert "not irreducible" in err


def test_verify_exported_psl27_roux(tmp_path, capsys):
    from rouxforge.families import sl2_family

    rep = sl2_family(7)
    block = next(b for b in rep.characters if b.higman and b.image_order == 2)
    path = tmp_path / "psl27.json"
    path.write_text(json.dumps(roux_json(block.roux_matrix)))
    code, out, _ = run(["verify", str(path), "--kind", "roux"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["params"]["c"] == [0, 3, 0, 3]


def test_tolerance_override_flags(tmp_path, capsys):
    from rouxforge.lines import gram_from_signature
    from rouxforge.roux import signature_matrix

    vectors = gram_vectors(gram_from_signature(signature_matrix(paley6_roux(4), 1)))
    vectors[1, 0] += 0.01  # tilt one vector: still a Gram, no longer equiangular
    vectors[:, 0] /= np.linalg.norm(vectors[:, 0])
    M = vectors.conj().T @ vectors
    blob = {"n": 6, "entries": [[float(v.real), float(v.imag)] for v in M.flatten()]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(blob))
    assert run(["verify", str(path), "--kind", "etf"], capsys)[0] == 1
    assert run(["verify", str(path), "--kind", "etf", "--tol-etf", "0.05"], capsys)[0] == 0
    # the flag holds for its own call only
    assert run(["verify", str(path), "--kind", "etf"], capsys)[0] == 1


def test_tol_eig_sets_gram_rank(tmp_path, capsys):
    from rouxforge.lines import gram_from_signature
    from rouxforge.roux import signature_matrix

    # the (6,3) frame with one vector tilted 1e-2 into a fourth axis: the
    # Gram gains an eigenvalue near 2.5e-5 of its largest
    vectors = gram_vectors(gram_from_signature(signature_matrix(paley6_roux(4), 1)))
    Phi = np.vstack([vectors, np.zeros((1, 6))])
    Phi[3, 0] = 1e-2
    Phi[:, 0] /= np.linalg.norm(Phi[:, 0])
    M = Phi.conj().T @ Phi
    blob = {"n": 6, "entries": [[float(v.real), float(v.imag)] for v in M.flatten()]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(blob))
    _, out, _ = run(["verify", str(path), "--kind", "etf"], capsys)
    assert json.loads(out)["certificate"]["d"] == 4
    _, out, _ = run(["verify", str(path), "--kind", "etf", "--tol-eig", "1e-3"], capsys)
    assert json.loads(out)["certificate"]["d"] == 3
    # the flag holds for its own call only
    _, out, _ = run(["verify", str(path), "--kind", "etf"], capsys)
    assert json.loads(out)["certificate"]["d"] == 4


def test_detect_takes_no_tolerance_flags(tmp_path):
    # detect builds no Gram, so the tolerances belong to family and verify only
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_SPEC))
    for flag in ("--tol-eig", "--tol-etf"):
        with pytest.raises(SystemExit) as exc:
            main(["detect", str(path), flag, "1e-3"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag,value",
    [("--tol-eig", v) for v in ("nan", "inf", "2", "1", "0", "-1")] + [("--tol-etf", v) for v in ("nan", "inf", "0", "-1")],
)
@pytest.mark.parametrize("command", [["family", "psl2", "--q", "5"], ["verify", "unread.json", "--kind", "etf"]])
def test_tolerance_flags_out_of_range_exit2(capsys, command, flag, value):
    # refused while parsing: a rank of 0 or a certificate that always
    # passes or always fails would follow from these values
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a finite number in (0, " in err


def test_detect_character_cap_exit2(tmp_path, capsys, monkeypatch):
    from rouxforge import cli
    from rouxforge.group import CapExceededError

    def over_cap(G):
        raise CapExceededError("abelianization exceeds character cap")

    monkeypatch.setattr(cli, "enumerate_linear_characters", over_cap)
    spec = {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(["detect", str(path)], capsys)
    assert code == 2
    assert "cap" in err


def test_parameter_disagreement_exit1(tmp_path, capsys, monkeypatch):
    # a verified roux whose parameters differ from the counted ones is a
    # failed certificate in both the family and the detect pipeline
    from rouxforge import radical
    from rouxforge.roux import RouxParameters

    verified = radical.verify_roux

    def shifted(B):
        params = verified(B)
        half = params.r // 2
        return RouxParameters(params.n, params.r, params.coeffs[half:] + params.coeffs[:half])

    monkeypatch.setattr(radical, "verify_roux", shifted)
    code, _, err = run(["family", "psl2", "--q", "5"], capsys)
    assert code == 1
    assert err == "error: roux parameters disagree with the counting formula\n"
    path = tmp_path / "sl25.json"
    path.write_text(json.dumps(SL25_SPEC))
    code, out, err = run(["detect", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: roux parameters disagree with the counting formula\n"


def test_failed_symmetry_certificate_exit1(tmp_path, capsys, monkeypatch):
    # a cocycle that is 1 everywhere does not carry the quadratic roux to itself
    from rouxforge import cli
    from rouxforge.radical import HigmanDecompositionTable

    class Trivialized(HigmanDecompositionTable):
        def __init__(self, cover, x=None):
            super().__init__(cover, x)
            self.h[:] = cover.stab.index[cover.ops.identity]

    monkeypatch.setattr(cli, "HigmanDecompositionTable", Trivialized)
    path = tmp_path / "sl25.json"
    path.write_text(json.dumps(SL25_SPEC))
    code, out, err = run(["detect", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: symmetry certificate fails for generator ") and err.count("\n") == 1


def test_family_failed_line_certificate_exit1(capsys):
    # no Gram is tight to 1e-300: the first line set checked fails, named
    # by its character, k and residual, with no traceback
    code, out, err = run(["family", "psl2", "--q", "13", "--tol-etf", "1e-300"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: character 0, k = 0: input Gram is not tight (residual ")
    assert err.count("\n") == 1


def test_family_failed_line_certificate_names_the_first_failing_set(capsys):
    # with certificates shared between equal phase grids, the first set
    # that fails is still named with the residual of its own Gram
    from rouxforge.families import sl2_family
    from rouxforge.lines import gram_from_signature
    from rouxforge.roux import signature_matrix

    first = next(b for b in sl2_family(13).characters if b.higman)
    assert first.index == 0
    residual = gram_from_signature(signature_matrix(first.working_roux, 0)).tightness_residual
    code, out, err = run(["family", "psl2", "--q", "13", "--tol-etf", "1e-300"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: character 0, k = 0: input Gram is not tight (residual {residual:.3e})\n"


def test_detect_su33_reads_one_transversal_per_action_and_base(tmp_path, capsys, monkeypatch):
    # the stabilizer and the decomposition table share the G* transversal
    # from b; the table adds the stabilizer's transversal from x.b
    from rouxforge import group
    from rouxforge.group import MatOps, Transversal

    built, counts = [], {"apply": 0, "mul": 0}

    def counted(name):
        original = getattr(MatOps, name)

        def wrapper(self, *args):
            counts[name] += 1
            return original(self, *args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(MatOps, name, counted(name))
    init = Transversal.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Transversal, "__init__", recording_init)
    stabilizers = record_calls(monkeypatch, group, "stabilizer")
    path = tmp_path / "su33.json"
    path.write_text(json.dumps(dict(su33_bench_spec(), action="isotropic")))
    code, out, _ = run(["detect", str(path)], capsys)
    assert code == 0 and json.loads(out)["stabilizer_order"] == 216
    assert len(stabilizers) == 1
    assert [(len(t.reps), t.base) for t in built] == [(28, 0), (27, built[1].base)] and built[1].base != 0
    # 1,006 applies and 934 products before the transversals were shared
    assert counts["apply"] <= 380 and counts["mul"] <= 800


def test_detect_su33_walks_the_g_star_orbit_once(tmp_path, capsys, monkeypatch):
    # the stabilizer's transversal walks it; the transitivity checks, the
    # search for x and the decomposition table read that transversal
    from rouxforge.group import FiniteGroup, GroupAction

    walks = []
    search_tree = GroupAction.search_tree

    def recording(self, base):
        # G* is only generated; the stabilizer's actions are enumerated
        walks.append(isinstance(self.group, FiniteGroup))
        return search_tree(self, base)

    monkeypatch.setattr(GroupAction, "search_tree", recording)
    path = tmp_path / "su33.json"
    path.write_text(json.dumps(dict(su33_bench_spec(), action="isotropic")))
    code, out, _ = run(["detect", str(path)], capsys)
    assert code == 0 and json.loads(out)["group_order"] == 6048
    assert walks.count(False) == 1


def test_detect_never_closes_the_group(tmp_path, capsys, monkeypatch):
    # every closure detect makes lies inside the stabilizer, of order 216;
    # G* = SU(3,3) has order 6048, n |G0*| by orbit-stabilizer
    from rouxforge import group

    closures = record_calls(monkeypatch, group, "closure")
    path = tmp_path / "su33.json"
    path.write_text(json.dumps(dict(su33_bench_spec(), action="isotropic")))
    code, out, _ = run(["detect", str(path)], capsys)
    report = json.loads(out)
    assert code == 0 and (report["group_order"], report["stabilizer_order"]) == (6048, 216)
    assert closures and max(G.order for G in closures) == 216
    # the Schreier products' closure, then the greedy generating set's
    assert len(closures) == 2


# SHA-256 of the `detect` report on `su3_spec(5)`, taken while detect still
# closed G* (order 378,000): the reports are byte-identical
SU3_Q5_DETECT_SHA256 = "59c96fbc9e13bb8f984beafbd62fc530fcaa5fc053a6a226977dda8eda1a0da1"


def test_detect_su35_report_is_pinned(tmp_path, capsys):
    path = tmp_path / "su35.json"
    path.write_text(json.dumps(su3_spec(5)))
    code, out, err = run(["detect", str(path)], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SU3_Q5_DETECT_SHA256


def test_detect_su37_beyond_the_closure_cap(tmp_path, capsys):
    # |SU(3,7)| = 5,663,616 exceeds CLOSURE_CAP, which once refused it;
    # only the stabilizer, of order 16,464, is closed
    path = tmp_path / "su37.json"
    path.write_text(json.dumps(su3_spec(7)))
    code, out, err = run(["detect", str(path)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["n"], report["group_order"], report["stabilizer_order"]) == (344, 5663616, 16464)
    assert report["group_order"] == 344 * 16464
    assert sum(row["higman"] for row in report["characters"]) == 8


def test_detect_isotropic_points_beyond_the_cap_exit2_at_once(tmp_path, capsys):
    # F_{2^20} has q = 2^10, so q^3 + 1 isotropic points exceed MAX_ORDER;
    # a scan of the 2^40 vectors once ran for hours
    irreducible = [0] * 21
    irreducible[0] = irreducible[3] = irreducible[20] = 1  # x^20 + x^3 + 1
    spec = {"kind": "matrix", "field": {"p": 2, "k": 20, "irreducible": irreducible}, "dim": 3,
            "generators": [[1, 0, 0, 0, 1, 0, 0, 0, 1]], "action": "isotropic"}
    path = tmp_path / "f2_20.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, out, err = run(["detect", str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: isotropic lines: at most 1048576 points, got q^3 + 1 for q = 1024\n"
