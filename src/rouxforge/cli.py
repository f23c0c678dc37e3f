"""Command-line front end.

Subcommands: ``family`` (built-in family sweeps and negative witnesses),
``detect`` (Higman-pair detection on user-supplied groups), and
``verify`` (certification of roux/signature/Gram/two-graph files).

Exit codes are a stable contract: 0 success, 1 certification failure,
2 input error, 3 double-transitivity (H1) precondition failure.  Each
error class carries its code as ``exit_code``: 1 for ``CertificateError``,
``LineSetError``, ``LinesError``, ``RouxAxiomError`` and
``RouxIdentityError``; 2 for ``InputError``, ``FamilyError``,
``FieldError``, ``GroupError``, ``RadicalError``, ``RouxFormatError`` and
``TwoGraphFormatError``; 3 for ``TransitivityError``.  ``main`` alone
maps an error, a malformed file's ``KeyError``, ``TypeError`` or other
``ValueError`` (2) included, to its code and one ``error:`` line; ``verify``
reports a failed certificate as a ``"passed": false`` payload instead.
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
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import families, lines
from .group import (
    GeneratedGroup,
    TransitivityError,
    enumerate_linear_characters,
    is_doubly_transitive,
    natural_permutation_action,
    parse_group_spec,
    projective_line_action,
    stabilizer,
)
from .radical import CoverData, HigmanDecompositionTable, higman_roux
from .roux import RouxMatrix, idempotent_report, verify_roux

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_INPUT = 2


class InputError(ValueError):
    exit_code = EXIT_INPUT


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


def _complex_matrix_from_json(data: dict) -> np.ndarray:
    """The n x n matrix of a file whose entries are n^2 [re, im] pairs of
    numbers, row-major.  The pairs are flattened first: numpy reads a flat
    list faster, and one pass over it refuses a boolean, which numpy would
    read as 0 or 1."""
    n = data["n"]
    if type(n) is not int or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    # popped, so the n^2 parsed pairs are freed here and not by the caller
    entries = data.pop("entries")
    rows = (type(entries) is list and len(entries) == n * n
            and set(map(type, entries)) == {list} and set(map(len, entries)) == {2})
    if rows:
        entries = list(chain.from_iterable(entries))
    try:
        pairs = np.asarray(entries)
    except ValueError as exc:  # ragged rows
        raise InputError(f"entries must be {n * n} [re, im] pairs") from exc
    if not rows or pairs.shape != (2 * n * n,) or pairs.dtype.kind not in "iuf" or bool in set(map(type, entries)):
        raise InputError(f"entries must be {n * n} [re, im] pairs of numbers")
    pairs = pairs.astype(float, copy=False)
    if not np.isfinite(pairs).all():
        raise InputError("entries must be finite")
    # each contiguous [re, im] row of float64 is one complex128
    return pairs.view(complex).reshape(n, n)


# ---------------------------------------------------------------------------
# family subcommand


def cmd_family(args) -> int:
    name = args.family  # one of the parser's choices
    if name == "sp":
        _require(args.m is not None, "--m is required for sp")
    else:
        _require(args.q is not None, f"--q is required for {name}")
    if name == "psl2":
        report = families.sl2_family(args.q, lines.Tolerances(etf=args.tol_etf))
    elif name == "psu3":
        report = families.su3_family(args.q, lines.Tolerances(etf=args.tol_etf))
    elif name == "suzuki":
        report = families.suzuki_refutation(args.q)
    elif name == "ree":
        report = families.ree_refutation(args.q)
    else:
        eps = +1 if args.epsilon in ("+", "plus", "1", "+1") else -1
        report = families.symplectic_witness(args.m, eps)

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


def _action_for(G: GeneratedGroup, spec: str):
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
    # G* is never closed: its stabilizer, order and x come from its action
    action = _action_for(GeneratedGroup(*parse_group_spec(data)), action_kind)
    # first: it needs no transitivity, and the H1 checks below reuse the
    # transversal of point 0 it builds, the generators' point permutations
    # it reads and the cover's stabilizer action
    cover = CoverData(action, stabilizer(action, action.points[0]))
    # raises TransitivityError on an intransitive action
    doubly_transitive = is_doubly_transitive(action, cover.stab_action)
    if action.degree < 3:
        # radicalize's normalizer identity N(H) = G0* x C_r needs n >= 3
        raise TransitivityError("action has fewer than 3 points (H1 fails)")
    if not doubly_transitive:
        raise TransitivityError("action is not doubly transitive (H1 fails)")
    cover.verify()
    chars = enumerate_linear_characters(cover.stab)

    if args.character_index is not None:
        if not 0 <= args.character_index < len(chars):
            raise InputError(f"character index out of range 0..{len(chars) - 1}")
        wanted = [(args.character_index, chars[args.character_index])]
    else:
        wanted = list(enumerate(chars))

    # x is the least element of G* outside the stabilizer
    table = HigmanDecompositionTable(cover)
    # x's index in sorted G*: every element of G* below x lies in the stabilizer
    x_index = bisect.bisect_left(cover.stab.elements, table.x)

    rows = []
    for idx, alpha in wanted:
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
        rows.append(row)

    payload = {
        "n": action.degree,
        "group_order": action.degree * cover.stab.order,  # orbit-stabilizer: the action is transitive
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
    before collection resumes, and the caller's collector state is kept.
    An error raised on the way keeps it alive until ``main`` reports it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _verify_file(args)
    finally:
        if enabled:
            gc.enable()


def _verify_file(args) -> int:
    data = _load_json(args.file)
    kind = args.kind  # one of the parser's choices
    if kind == "roux":
        return _verify_roux_file(data, args)
    if kind == "signature":
        return _verify_signature_file(data, args)
    if kind == "etf":
        return _verify_etf_file(data, args)
    return _verify_twograph_file(data, args)


def _verify_roux_file(data: dict, args) -> int:
    params = verify_roux(RouxMatrix.from_json(data))
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
    tol = _tolerances(args)
    cert = lines.verify_etf(lines.gram_from_signature(S, tol), tol)
    payload = {"kind": "signature", "passed": cert.passed or cert.degenerate, "certificate": cert.to_json()}
    _emit(payload, args)
    return EXIT_OK if payload["passed"] else EXIT_CERT_FAIL


def _verify_etf_file(data: dict, args) -> int:
    cert = lines.verify_etf(_complex_matrix_from_json(data), _tolerances(args))
    payload = {"kind": "etf", "passed": cert.passed, "certificate": cert.to_json()}
    _emit(payload, args)
    return EXIT_OK if cert.passed else EXIT_CERT_FAIL


def _verify_twograph_file(data: dict, args) -> int:
    reg = lines.two_graph_regularity(lines.TwoGraph.from_json(data), _tolerances(args))
    payload = {"kind": "twograph", "passed": True, "regularity": reg}
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _tolerances(args) -> lines.Tolerances:
    """The ``--tol-etf`` and ``--tol-eig`` of a ``verify`` call, defaults where not given."""
    return lines.Tolerances(args.tol_etf, args.tol_eig)


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
    # no command reads it: it is kept because bench/workloads.py passes --jobs 1 on every input
    shared.add_argument("--jobs", type=int, default=1, help="accepted and ignored; no command reads it")
    # only the commands that certify lines read the tolerances, with the defaults of
    # lines.Tolerances; only verify computes eigenvalues, so only it reads --tol-eig
    tolerances = argparse.ArgumentParser(add_help=False)
    tolerances.add_argument("--tol-etf", type=_tolerance(float("inf")), default=lines.Tolerances.etf,
                            help="frame certification tolerance, finite and > 0")

    fam = sub.add_parser("family", parents=[shared, tolerances], help="run a built-in family pipeline")
    fam.add_argument("family", choices=("psl2", "psu3", "suzuki", "ree", "sp"))
    fam.add_argument("--q", type=int)
    fam.add_argument("--m", type=int)
    fam.add_argument("--epsilon", choices=("+", "-", "plus", "minus", "+1", "-1", "1"), default="+")
    fam.add_argument("--r-prime", type=int, help="restrict report to characters of this image order")
    fam.set_defaults(func=cmd_family)

    det = sub.add_parser("detect", parents=[shared], help="Higman-pair detection for a group file")
    det.add_argument("group", help="group spec JSON (see README for the format)")
    det.add_argument("--character-index", type=int, default=None)
    det.set_defaults(func=cmd_detect)

    ver = sub.add_parser("verify", parents=[shared, tolerances], help="verify a matrix or two-graph file")
    ver.add_argument("file")
    ver.add_argument("--tol-eig", type=_tolerance(1.0), default=lines.Tolerances.eig,
                     help="relative eigenvalue clustering tolerance, in (0, 1)")
    ver.add_argument("--kind", choices=("roux", "etf", "signature", "twograph"), required=True)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, TypeError, ValueError) as exc:  # the one exit-code mapping: see the module docstring
        code = getattr(exc, "exit_code", EXIT_INPUT)
        if args.command == "verify" and code == EXIT_CERT_FAIL:
            error = {"message": str(exc)}
            if hasattr(exc, "cell"):
                error["cell"] = exc.cell
            _emit({"kind": args.kind, "passed": False, "error": error}, args)
        else:
            text = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            print(f"error: {text}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
