"""Workload inputs and the benchmark's own output oracle.

Every input is generated here from the benchmark seed, in pure Python,
without calling rouxforge.  The oracle checks each report against values
derived from closed forms, again without calling rouxforge.

Workloads (see README.md for why each was chosen):

* ``family``: ``family psl2 --q 31`` and ``family psu3 --q 4``.  Both are
  deterministic in q; the seed only orders them.
* ``materialized``: ``detect`` on SU(3,3) acting on its 28 isotropic
  points, given by a seeded random generating set, plus
  ``family sp --m 3 --epsilon +``.
* ``certify``: ``verify --kind roux|signature|etf`` on the Paley-type C_4
  roux at p = 389 and p = 509, switched by a seeded random diagonal.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

WORKLOADS = ("family", "materialized", "certify")

PSL2_Q = 31
PSU3_Q = 4
PALEY_PRIMES = (389, 509)
WELCH_TOL = 1e-9


@dataclass(frozen=True)
class Input:
    """One CLI call and the oracle for its report (returns error strings)."""

    label: str
    argv: tuple
    check: Callable[[dict], list]


# ---------------------------------------------------------------------------
# family


def family_inputs(seed: int, workdir: Path) -> list[Input]:
    inputs = [
        Input(f"psl2-q{PSL2_Q}", ("family", "psl2", "--q", str(PSL2_Q), "--jobs", "1"),
              partial(check_psl2, q=PSL2_Q)),
        Input(f"psu3-q{PSU3_Q}", ("family", "psu3", "--q", str(PSU3_Q), "--jobs", "1"),
              partial(check_psu3, q=PSU3_Q)),
    ]
    random.Random(seed).shuffle(inputs)
    return inputs


def welch(n: int, d: int) -> float:
    return math.sqrt((n - d) / (d * (n - 1)))


def check_psl2(report: dict, q: int) -> list[str]:
    n, d = q + 1, (q + 1) // 2
    half = (q - 1) // 2
    params = [half, 0, half, 0] if q % 4 == 1 else [0, half, 0, half]
    errors = _expect(report, {"family": "psl2", "n": n, "character_count": q - 1, "higman_count": 2})
    quad = [c for c in report.get("characters", []) if c["higman"] and c["character"]["image_order"] == 2]
    if len(quad) != 1 or quad[0]["params"] != params:
        errors.append(f"quadratic parameters are not {params}")
        return errors
    frames = [ls["etf"] for ls in quad[0]["line_sets"] if ls["k"] % 2 == 1]
    return errors + _check_frames(frames, n, d, f"psl2 q={q}")


def check_psu3(report: dict, q: int) -> list[str]:
    n, d = q**3 + 1, q * q - q + 1
    errors = _expect(report, {"family": "psu3", "n": n, "character_count": q * q - 1, "higman_count": q + 1})
    for block in report.get("characters", []):
        r_prime = block["character"]["image_order"]
        if not block["higman"] or r_prime == 1:
            continue
        bulk = (q + 1) // r_prime * (q * q - 1)
        closed = [bulk + q - q * q] + [bulk] * (r_prime - 1)
        if block["working_params"] != closed:
            errors.append(f"r'={r_prime} index {block['character']['index']}: parameters are not {closed}")
        frames = [
            ls["etf"] if ls["etf"]["d"] == d else ls["complement"]
            for ls in block["line_sets"]
            if ls["k"]
        ]
        errors += _check_frames(frames, n, d, f"psu3 r'={r_prime}")
    return errors


def _check_frames(frames: list, n: int, d: int, where: str) -> list[str]:
    """Each frame must be an (n, d) ETF at the Welch bound."""
    mu = welch(n, d)
    errors = [] if frames else [f"{where}: no line sets"]
    for etf in frames:
        if not (etf and etf["passed"] and etf["n"] == n and etf["d"] == d and abs(etf["mu"] - mu) < WELCH_TOL):
            errors.append(f"{where}: frame is not ({n},{d}) at the Welch bound {mu:.9f}")
    return errors


# ---------------------------------------------------------------------------
# materialized: SU(3,3) over F_9 = F_3[i], i^2 = -1, for the Hermitian form
# (u, v) = u1 v3^3 + u2 v2^3 + u3 v1^3 that the isotropic action uses.

F9_IRREDUCIBLE = [1, 0, 1]  # x^2 + 1, as in the field layer's built-in table
SU33_ORDER = 6048
SU33_POINTS = 28
SU33_STABILIZER = 216


def _f9(a0: int, a1: int) -> tuple:
    return (a0 % 3, a1 % 3)


def _f9_add(a, b):
    return _f9(a[0] + b[0], a[1] + b[1])


def _f9_mul(a, b):
    return _f9(a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _f9_neg(a):
    return _f9(-a[0], -a[1])


def _f9_conj(a):  # Frobenius a -> a^3
    return _f9(a[0], -a[1])


def _f9_inv(a):
    norm = (a[0] * a[0] + a[1] * a[1]) % 3  # a * conj(a), in F_3
    return _f9(a[0] * norm, -a[1] * norm)  # norm is its own inverse in F_3


ZERO, ONE = _f9(0, 0), _f9(1, 0)


def _mat_mul(a, b):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = ZERO
            for k in range(3):
                acc = _f9_add(acc, _f9_mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_inv(a):
    """Adjugate; every generator has determinant 1."""
    def minor(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        (p, q), (r, s) = [[a[x][y] for y in cols] for x in rows]
        return _f9_add(_f9_mul(p, s), _f9_neg(_f9_mul(q, r)))

    det = ZERO
    for j in range(3):
        term = _f9_mul(a[0][j], minor(0, j))
        det = _f9_add(det, term if j % 2 == 0 else _f9_neg(term))
    if det != ONE:
        raise ValueError("SU(3,3) generator must have determinant 1")
    return tuple(
        tuple(minor(j, i) if (i + j) % 2 == 0 else _f9_neg(minor(j, i)) for j in range(3))
        for i in range(3)
    )


def su33_base_generators() -> list:
    """A torus element, two root elements and the antidiagonal Weyl element.

    The first three generate the Borel subgroup (the point stabilizer of
    order 216); adding the Weyl element generates SU(3,3).
    """
    omega = _f9(1, 1)  # primitive: its powers run through all 8 units
    eta = ((omega, ZERO, ZERO),
           (ZERO, _f9_mul(_f9_conj(omega), _f9_inv(omega)), ZERO),
           (ZERO, ZERO, _f9_inv(_f9_conj(omega))))

    def xi(a, b):  # needs a^(q+1) + b + b^q = 0
        return ((ONE, a, b), (ZERO, ONE, _f9_neg(_f9_conj(a))), (ZERO, ZERO, ONE))

    weyl = ((ZERO, ZERO, ONE), (ZERO, _f9_neg(ONE), ZERO), (ONE, ZERO, ZERO))
    return [eta, xi(ONE, ONE), xi(ZERO, _f9(0, 1)), weyl]


def su33_generating_set(seed: int) -> list:
    """The base generators conjugated by one seeded random word, plus one
    more random word.  Conjugates of a generating set by a group element
    generate the same group, so the set always closes to SU(3,3)."""
    rng = random.Random(seed)
    base = su33_base_generators()
    inverses = [_mat_inv(g) for g in base]
    word, word_inv = base[0], inverses[0]
    for _ in range(12):
        i = rng.randrange(len(base))
        word = _mat_mul(word, base[i])
        word_inv = _mat_mul(inverses[i], word_inv)
    extra = base[rng.randrange(len(base))]
    for _ in range(8):
        extra = _mat_mul(extra, base[rng.randrange(len(base))])
    return [_mat_mul(_mat_mul(word, g), word_inv) for g in base] + [extra]


def su33_group_json(seed: int) -> dict:
    return {
        "kind": "matrix",
        "name": "SU(3,3)",
        "field": {"p": 3, "k": 2, "irreducible": F9_IRREDUCIBLE},
        "dim": 3,
        "generators": [[list(e) for row in g for e in row] for g in su33_generating_set(seed)],
        "action": "isotropic",
    }


def materialized_inputs(seed: int, workdir: Path) -> list[Input]:
    path = workdir / "su33.json"
    path.write_text(json.dumps(su33_group_json(seed)))
    inputs = [
        Input("detect-su33", ("detect", str(path), "--jobs", "1"), check_su33),
        Input("sp-m3-plus", ("family", "sp", "--m", "3", "--epsilon", "+", "--jobs", "1"),
              partial(check_sp, m=3)),
    ]
    random.Random(seed).shuffle(inputs)
    return inputs


def check_su33(report: dict) -> list[str]:
    errors = _expect(report, {"n": SU33_POINTS, "group_order": SU33_ORDER, "stabilizer_order": SU33_STABILIZER})
    # Closed forms for q = 3: the trivial character gives (n-2, 0); the
    # unitary formula c = [bulk + q - q^2, bulk, ...] with bulk =
    # (q+1)/r' (q^2-1) gives [10, 16] for r' = 2 and [2, 8, 8, 8] for
    # r' = 4, each lifted to C_{2r'} on the even exponents and rotated by
    # the key's square root.
    expected = {1: [[26, 0]], 2: [[10, 0, 16, 0]], 4: [[8, 0, 8, 0, 2, 0, 8, 0]] * 2}
    found: dict = {}
    for row in report.get("characters", []):
        if row["higman"]:
            found.setdefault(row["character"]["image_order"], []).append(row["params"])
    if found != expected:
        errors.append(f"Higman characters and parameters {found} are not {expected}")
    return errors


def check_sp(report: dict, m: int) -> list[str]:
    n = 2 ** (2 * m - 1) + 2 ** (m - 1)
    sp_order = 2 ** (m * m)
    for i in range(1, m + 1):
        sp_order *= 4**i - 1
    errors = _expect(report, {"family": "symplectic"})
    checks = {c["name"]: c for c in report.get("checks", [])}
    stab = checks.get("stabilizer_order", {})
    if f"|O| = {sp_order // n} " not in stab.get("detail", "") + " ":
        errors.append(f"stabilizer order is not {sp_order // n}")
    if f"doubly transitive action on {n} points" not in report.get("notes", []):
        errors.append(f"action is not on {n} points")
    return errors


# ---------------------------------------------------------------------------
# certify: the Paley-type roux over C_4 (exponent 0 on residues, 2 on
# non-residues, point p as infinity), switched by a random diagonal.


def paley_exponents(p: int) -> list[list[int]]:
    residues = {(x * x) % p for x in range(1, p)}
    n = p + 1
    exps = [[0] * n for _ in range(n)]
    for i in range(p):
        for j in range(p):
            if i != j:
                exps[i][j] = 0 if (i - j) % p in residues else 2
    return exps


def switched_paley(p: int, rng: random.Random) -> list[list[int]]:
    exps = paley_exponents(p)
    n = p + 1
    diag = [rng.randrange(4) for _ in range(n)]
    return [[(exps[i][j] + diag[i] - diag[j]) % 4 for j in range(n)] for i in range(n)]


_PHASES = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))  # i^e

# The files are written from per-exponent JSON tokens: json.dumps on
# 260k cells would make input generation dominate the set-up time.


def _cells(exps: list[list[int]], diagonal: str, tokens: list[str]) -> list[list[str]]:
    return [[diagonal if i == j else tokens[e] for j, e in enumerate(row)] for i, row in enumerate(exps)]


def roux_file(exps: list[list[int]]) -> str:
    rows = _cells(exps, "null", ["0", "1", "2", "3"])
    entries = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return f'{{"n": {len(exps)}, "r": 4, "entries": [{entries}]}}'


def _pairs_file(exps: list[list[int]], diagonal: tuple, values: list) -> str:
    rows = _cells(exps, json.dumps(diagonal), [json.dumps(v) for v in values])
    return f'{{"n": {len(exps)}, "entries": [{", ".join(", ".join(row) for row in rows)}]}}'


def signature_file(exps: list[list[int]]) -> str:
    """Image of the roux under the character k = 1: entries i^e."""
    return _pairs_file(exps, (0.0, 0.0), _PHASES)


def gram_file(exps: list[list[int]]) -> str:
    """Gram I + S / sqrt(n-1) of the (n, n/2) frame of a conference signature."""
    mu = 1.0 / math.sqrt(len(exps) - 1)
    return _pairs_file(exps, (1.0, 0.0), [(mu * re, mu * im) for re, im in _PHASES])


def certify_inputs(seed: int, workdir: Path, primes=PALEY_PRIMES) -> list[Input]:
    rng = random.Random(seed)
    inputs = []
    for p in primes:
        exps = switched_paley(p, rng)
        for kind, make in (("roux", roux_file), ("signature", signature_file), ("etf", gram_file)):
            path = workdir / f"paley{p}-{kind}.json"
            path.write_text(make(exps))
            inputs.append(Input(f"{kind}-p{p}", ("verify", str(path), "--kind", kind, "--jobs", "1"),
                                partial(check_paley, kind=kind, p=p)))
    rng.shuffle(inputs)
    return inputs


def check_paley(report: dict, kind: str, p: int) -> list[str]:
    n = p + 1
    if kind == "roux":
        half = (p - 1) // 2
        return _expect(report.get("params", {}), {"n": n, "r": 4, "c": [half, 0, half, 0]})
    cert = report.get("certificate", {})
    errors = _expect(cert, {"n": n, "d": n // 2, "welch_equality": True, "real": True, "passed": True})
    if abs(cert.get("mu", 0.0) - welch(n, n // 2)) >= WELCH_TOL:
        errors.append(f"mu is not the Welch bound {welch(n, n // 2):.9f}")
    return errors


def corrupted_roux(workdir: Path, p: int = 13) -> Input:
    """A small Paley roux with one flipped cell: it must fail with exit 1."""
    exps = paley_exponents(p)
    exps[0][1] = (exps[0][1] + 2) % 4
    path = workdir / "corrupted-roux.json"
    path.write_text(roux_file(exps))
    return Input("corrupted-roux", ("verify", str(path), "--kind", "roux", "--jobs", "1"),
                 partial(check_paley, kind="roux", p=p))


# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, workdir: Path) -> list[Input]:
    if workload == "family":
        return family_inputs(seed, workdir)
    if workload == "materialized":
        return materialized_inputs(seed, workdir)
    if workload == "certify":
        return certify_inputs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_inputs(workdir: Path) -> list[Input]:
    """Small instances of every command the workloads run, for a warm-up
    pass that loads the code paths and numpy's linear algebra."""
    sl25 = workdir / "sl25.json"
    sl25.write_text(json.dumps({
        "kind": "matrix", "field": {"p": 5, "k": 1, "irreducible": [0, 1]}, "dim": 2,
        "generators": [[1, 1, 0, 1], [0, 1, 4, 0]], "action": "projective",
    }))
    return [
        Input("psl2-q5", ("family", "psl2", "--q", "5", "--jobs", "1"), partial(check_psl2, q=5)),
        Input("detect-sl25", ("detect", str(sl25), "--jobs", "1"), lambda report: []),
    ] + certify_inputs(0, workdir, primes=(13,))


def _expect(obj: dict, fields: dict) -> list[str]:
    return [f"{k} is {obj.get(k)!r}, expected {v!r}" for k, v in fields.items() if obj.get(k) != v]
