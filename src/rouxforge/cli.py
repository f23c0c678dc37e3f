"""Command-line front end.

Subcommands: ``family`` (built-in family sweeps and negative witnesses),
``detect`` (Higman-pair detection on user-supplied groups), and
``verify`` (certification of roux/signature/Gram/two-graph files).

Exit codes are a stable contract: 0 success, 1 certification failure,
2 input error, 3 double-transitivity (H1) precondition failure.
Reports are deterministic: the same configuration produces byte-identical
output.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import gc
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from pathlib import Path

import numpy as np

from . import families, lines
from .field import FieldError
from .group import (
    FiniteGroup,
    enumerate_linear_characters,
    group_from_json,
    is_doubly_transitive,
    natural_permutation_action,
    projective_line_action,
    stabilizer,
)
from .radical import CertificateError, CoverData, HigmanDecompositionTable, RadicalError, higman_roux
from .roux import (
    RouxAxiomError,
    RouxFormatError,
    RouxIdentityError,
    RouxMatrix,
    idempotent_report,
    verify_roux,
)

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_INPUT = 2
EXIT_NOT_2TRANSITIVE = 3


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# IO helpers


def _emit(payload: dict, args) -> None:
    if args.format == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload: dict) -> str:
    """Lossy flat summary; JSON is the source of truth."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    rows = payload.get("csv_rows")
    if rows:
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(row.values())
    else:
        writer.writerow(["key", "value"])
        for key in sorted(payload):
            if not isinstance(payload[key], (dict, list)):
                writer.writerow([key, payload[key]])
    return buf.getvalue()


def _load_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return data


def _input_error(exc: Exception) -> None:
    """One ``error:`` line for an input file the command cannot read."""
    text = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    print(f"error: {text}", file=sys.stderr)


def _complex_matrix_from_json(data: dict) -> np.ndarray:
    """The n x n matrix of a file whose entries are n^2 [re, im] pairs, row-major."""
    n = data["n"]
    if type(n) is not int or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    try:
        # popped, so the n^2 parsed pairs are freed here and not by the caller
        pairs = np.asarray(data.pop("entries"))
    except ValueError as exc:  # ragged rows
        raise InputError(f"entries must be {n * n} [re, im] pairs") from exc
    if pairs.shape != (n * n, 2) or pairs.dtype.kind not in "iuf":
        raise InputError(f"entries must be {n * n} [re, im] pairs of numbers")
    pairs = pairs.astype(float, copy=False)
    if not np.isfinite(pairs).all():
        raise InputError("entries must be finite")
    # each contiguous [re, im] row of float64 is one complex128
    return pairs.view(complex).reshape(n, n)


# ---------------------------------------------------------------------------
# family subcommand


def cmd_family(args) -> int:
    name = args.family
    try:
        if name == "psl2":
            _require(args.q is not None, "--q is required for psl2")
            report = families.sl2_family(args.q)
        elif name == "psu3":
            _require(args.q is not None, "--q is required for psu3")
            report = families.su3_family(args.q, allow_large=args.allow_large)
        elif name == "suzuki":
            _require(args.q is not None, "--q is required for suzuki")
            report = families.suzuki_refutation(args.q)
        elif name == "ree":
            _require(args.q is not None, "--q is required for ree")
            report = families.ree_refutation(args.q)
        elif name == "sp":
            _require(args.m is not None, "--m is required for sp")
            eps = +1 if args.epsilon in ("+", "plus", "1", "+1") else -1
            report = families.symplectic_witness(args.m, eps)
        else:
            raise InputError(f"unknown family {name!r}")
    except (families.FamilyError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except families.LineSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERT_FAIL

    payload = report.to_json()
    if name in ("psl2", "psu3") and args.r_prime:
        payload["characters"] = [
            c
            for c in payload["characters"]
            if c["character"]["image_order"] == args.r_prime
        ]
    if args.format == "csv":
        payload["csv_rows"] = _family_csv_rows(payload)
    _emit(payload, args)
    return EXIT_OK if report.passed else EXIT_CERT_FAIL


def _family_csv_rows(payload: dict) -> list[dict]:
    rows = []
    for block in payload.get("characters", []):
        for ls in block.get("line_sets", []):
            rows.append(
                {
                    "family": payload["family"],
                    "q": payload["q"],
                    "n": payload["n"],
                    "character": block["character"]["index"],
                    "image_order": block["character"]["image_order"],
                    "k": ls["k"],
                    "d": ls["etf"]["d"],
                    "mu": ls["etf"]["mu"],
                    "real": ls["real_algebraic"],
                    "welch": ls["etf"]["welch_equality"],
                }
            )
    if not rows:
        for check in payload.get("checks", []):
            rows.append(
                {
                    "family": payload["family"],
                    "check": check["name"],
                    "passed": check["passed"],
                }
            )
    return rows


def _require(cond, message: str) -> None:
    if not cond:
        raise InputError(message)


# ---------------------------------------------------------------------------
# detect subcommand


def _action_for(G: FiniteGroup, spec: str):
    if spec == "natural":
        return natural_permutation_action(G)
    if spec == "projective":
        return projective_line_action(G)
    if spec == "isotropic":
        return families.isotropic_line_action(G)
    raise InputError(f"unknown action kind {spec!r}")


def cmd_detect(args) -> int:
    data = _load_json(args.group)
    action_kind = data.pop("action", "natural" if data.get("kind") == "permutation" else "projective")
    try:
        G = group_from_json(data)
        action = _action_for(G, action_kind)
        # first: it needs no transitivity, and the H1 checks below reuse
        # the generators' point permutations it reads and the cover's
        # stabilizer action
        cover = CoverData(action, stabilizer(action, action.points[0]))
        if not action.is_transitive():
            print("error: action is not transitive (H1 fails)", file=sys.stderr)
            return EXIT_NOT_2TRANSITIVE
        if action.degree < 3:
            # radicalize's normalizer identity N(H) = G0* x C_r needs n >= 3
            print("error: action has fewer than 3 points (H1 fails)", file=sys.stderr)
            return EXIT_NOT_2TRANSITIVE
        if not is_doubly_transitive(action, cover.stab_action):
            print("error: action is not doubly transitive (H1 fails)", file=sys.stderr)
            return EXIT_NOT_2TRANSITIVE
        cover.verify()
        chars = enumerate_linear_characters(cover.stab)
    except (KeyError, TypeError, ValueError) as exc:  # GroupError and InputError included
        _input_error(exc)
        return EXIT_INPUT

    if args.character_index is not None:
        if not 0 <= args.character_index < len(chars):
            print(f"error: character index out of range 0..{len(chars) - 1}", file=sys.stderr)
            return EXIT_INPUT
        wanted = [(args.character_index, chars[args.character_index])]
    else:
        wanted = list(enumerate(chars))

    x = cover.first_outside_stabilizer()
    # x's index in sorted G: every element of G below x lies in the stabilizer
    x_index = bisect.bisect_left(cover.stab.elements, x)
    table = HigmanDecompositionTable(cover, x)

    def run(item):
        idx, alpha = item
        found = higman_roux(table, alpha)
        row = {
            "character": {
                "index": idx,
                "image_order": alpha.modulus,
                "exponents_on_generators": [alpha.exponent(g) for g in cover.stab.generators],
            },
            "higman": found is not None,
            "key": None,
            "params": None,
            "idempotents": None,
        }
        if found is not None:
            row["key"] = [x_index, found.key.z_exponent]
            row["params"] = list(found.params.coeffs)
            row["r"] = found.rad.r
            row["idempotents"] = idempotent_report(found.params)
        return row

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(run, wanted))
    else:
        rows = [run(item) for item in wanted]

    payload = {
        "n": action.degree,
        "group_order": G.order,
        "stabilizer_order": cover.stab.order,
        "character_count": len(chars),
        "characters": rows,
    }
    if args.format == "csv":
        payload["csv_rows"] = [
            {
                "character": row["character"]["index"],
                "image_order": row["character"]["image_order"],
                "higman": row["higman"],
                "params": "" if row["params"] is None else " ".join(map(str, row["params"])),
            }
            for row in rows
        ]
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify subcommand


def cmd_verify(args) -> int:
    """``verify`` with the cyclic collector paused: a parsed file holds
    up to n^2 lists and no reference cycle, so each collection would walk
    them for nothing.  The tree is dead when ``_verify_file`` returns,
    before collection resumes, and the caller's collector state is kept."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _verify_file(args)
    finally:
        if enabled:
            gc.enable()


def _verify_file(args) -> int:
    data = _load_json(args.file)
    kind = args.kind
    try:
        if kind == "roux":
            return _verify_roux_file(data, args)
        if kind == "signature":
            return _verify_signature_file(data, args)
        if kind == "etf":
            return _verify_etf_file(data, args)
        if kind == "twograph":
            return _verify_twograph_file(data, args)
        raise InputError(f"unknown kind {kind!r}")
    except (InputError, RouxFormatError, lines.TwoGraphFormatError, KeyError, TypeError) as exc:
        _input_error(exc)
        return EXIT_INPUT


def _verify_roux_file(data: dict, args) -> int:
    try:
        B = RouxMatrix.from_json(data)
        params = verify_roux(B)
    except (RouxAxiomError, RouxIdentityError) as exc:
        payload = {
            "kind": "roux",
            "passed": False,
            "error": {"message": str(exc), "cell": getattr(exc, "cell", None)},
        }
        _emit(payload, args)
        return EXIT_CERT_FAIL
    payload = {
        "kind": "roux",
        "passed": True,
        "params": params.to_json(),
        "idempotents": idempotent_report(params),
    }
    _emit(payload, args)
    return EXIT_OK


def _verify_signature_file(data: dict, args) -> int:
    S = _complex_matrix_from_json(data)
    try:
        gram = lines.gram_from_signature(S)
        cert = lines.verify_etf(gram)
    except lines.SignatureAxiomError as exc:
        _emit({"kind": "signature", "passed": False,
               "error": {"message": str(exc), "cell": getattr(exc, "cell", None)}}, args)
        return EXIT_CERT_FAIL
    except lines.LinesError as exc:
        _emit({"kind": "signature", "passed": False, "error": {"message": str(exc)}}, args)
        return EXIT_CERT_FAIL
    payload = {"kind": "signature", "passed": cert.passed or cert.degenerate, "certificate": cert.to_json()}
    _emit(payload, args)
    return EXIT_OK if payload["passed"] else EXIT_CERT_FAIL


def _verify_etf_file(data: dict, args) -> int:
    G = _complex_matrix_from_json(data)
    try:
        cert = lines.verify_etf(G)
    except lines.LinesError as exc:
        _emit({"kind": "etf", "passed": False, "error": {"message": str(exc)}}, args)
        return EXIT_CERT_FAIL
    payload = {"kind": "etf", "passed": cert.passed, "certificate": cert.to_json()}
    _emit(payload, args)
    return EXIT_OK if cert.passed else EXIT_CERT_FAIL


def _verify_twograph_file(data: dict, args) -> int:
    tg = lines.TwoGraph.from_json(data)
    try:
        reg = lines.two_graph_regularity(tg)
    except lines.LinesError as exc:
        _emit({"kind": "twograph", "passed": False, "error": {"message": str(exc)}}, args)
        return EXIT_CERT_FAIL
    payload = {"kind": "twograph", "passed": True, "regularity": reg}
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _tolerance(upper: float):
    """argparse type of a tolerance flag: a float in (0, upper), which NaN and infinities are not."""
    def tolerance(text: str) -> float:
        value = float(text)
        if not 0 < value < upper:
            raise argparse.ArgumentTypeError(f"expected a finite number in (0, {upper:g}), got {text!r}")
        return value
    return tolerance


@cache  # parsing reads the parser and never changes it, so in-process calls share one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rouxforge",
        description="construct and certify doubly transitive line packings from finite-group data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", help="output path (default: stdout)")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--jobs", type=int, default=1, help="worker pool size for character sweeps")
    # only the commands that certify lines read the tolerances
    tolerances = argparse.ArgumentParser(add_help=False)
    tolerances.add_argument("--tol-eig", type=_tolerance(1.0), help="relative eigenvalue clustering tolerance, in (0, 1)")
    tolerances.add_argument("--tol-etf", type=_tolerance(float("inf")), help="frame certification tolerance, finite and > 0")

    fam = sub.add_parser("family", parents=[shared, tolerances], help="run a built-in family pipeline")
    fam.add_argument("family", choices=("psl2", "psu3", "suzuki", "ree", "sp"))
    fam.add_argument("--q", type=int)
    fam.add_argument("--m", type=int)
    fam.add_argument("--epsilon", choices=("+", "-", "plus", "minus", "+1", "-1", "1"), default="+")
    fam.add_argument("--r-prime", type=int, help="restrict report to characters of this image order")
    fam.add_argument("--allow-large", action="store_true", help="lift the desk-scale cap for psu3")
    fam.set_defaults(func=cmd_family)

    det = sub.add_parser("detect", parents=[shared], help="Higman-pair detection for a group file")
    det.add_argument("group", help="group spec JSON (see README for the format)")
    det.add_argument("--character-index", type=int, default=None)
    det.set_defaults(func=cmd_detect)

    ver = sub.add_parser("verify", parents=[shared, tolerances], help="verify a matrix or two-graph file")
    ver.add_argument("file")
    ver.add_argument("--kind", choices=("roux", "etf", "signature", "twograph"), required=True)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the tolerance flags hold for this call only
    saved = lines.EIG_CLUSTER_RTOL, lines.ETF_TOL
    if getattr(args, "tol_eig", None) is not None:
        lines.EIG_CLUSTER_RTOL = args.tol_eig
    if getattr(args, "tol_etf", None) is not None:
        lines.ETF_TOL = args.tol_etf
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERT_FAIL
    except (InputError, RadicalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        lines.EIG_CLUSTER_RTOL, lines.ETF_TOL = saved


if __name__ == "__main__":
    sys.exit(main())
