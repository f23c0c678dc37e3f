"""Fuzzing of the CLI's one exit-code mapping: mutated `verify` files of
every kind and mutated `detect` group specs must each end in one exit
code and at most one `error:` line, never in an exception out of `main`.
A structural fault (a dropped key, a value of the wrong JSON type, cut
rows, a boolean among the numbers, a bad `n`, `r`, `degree`, `dim` or
field `p` or `k`) must exit 2.  `degree`, `dim`, `p`, `k` and the
two-graph's `n` are drawn up to 10^20: each is checked before anything of
its size is built."""

import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from util import paley6_roux, roux_json, two_graph_json

from rouxforge.cli import main
from rouxforge.field import MAX_ORDER
from rouxforge.lines import gram_from_signature
from rouxforge.oracles import two_graph_from_lines
from rouxforge.roux import signature_matrix


def pairs_json(M: np.ndarray) -> dict:
    return {"n": M.shape[0], "entries": [[float(v.real), float(v.imag)] for v in M.flatten()]}


SIGNATURE = signature_matrix(paley6_roux(4), 1)
VERIFY_FILES = {
    "roux": roux_json(paley6_roux(4)),
    "signature": pairs_json(SIGNATURE),
    "etf": pairs_json(gram_from_signature(SIGNATURE).matrix),
    "twograph": two_graph_json(two_graph_from_lines(signature_matrix(paley6_roux(2), 1))),
}
GROUP_SPECS = {
    "S3": {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    "S4": {"kind": "permutation", "degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]},
    "SL25": {"kind": "matrix", "field": {"p": 5, "k": 1}, "dim": 2,
             "generators": [[1, 1, 0, 1], [0, 1, 4, 0]], "action": "projective"},
}
# the keys without which a file or spec cannot be read, by path to their object
REQUIRED = {
    "roux": {(): ("n", "r", "entries")},
    "signature": {(): ("n", "entries")},
    "etf": {(): ("n", "entries")},
    "twograph": {(): ("n", "triples")},
    "S3": {(): ("kind", "degree", "generators")},
    "S4": {(): ("kind", "degree", "generators")},
    "SL25": {(): ("kind", "field", "dim", "generators"), ("field",): ("p", "k")},
}
# where the rows, and the numbers in them, sit
ROWS = {
    "roux": "entries", "signature": "entries", "etf": "entries", "twograph": "triples",
    "S3": "generators", "S4": "generators", "SL25": "generators",
}
# the counts drawn up to HUGE; the readers' other numbers stay small
HUGE = 10**20
WIDE = {
    "degree": st.integers(-HUGE, HUGE),
    "dim": st.integers(-HUGE, HUGE),
    "k": st.integers(-HUGE, HUGE),
    # a prime p in between makes SL(2, p) a group whose closure is long
    # real work, not a fault in reading the spec
    "p": st.integers(-HUGE, 12) | st.integers(MAX_ORDER + 1, HUGE),
}
TWOGRAPH_MAX_N = math.isqrt(MAX_ORDER)
# a two-graph on up to TWOGRAPH_MAX_N points is well formed, and its
# regularity test is long real work at the top of that range
TWOGRAPH_N = st.integers(-HUGE, 12) | st.integers(TWOGRAPH_MAX_N + 1, HUGE)
WRONG_TYPE = {
    int: [None, "3", 1.5, True, [], {}],
    str: [None, 1, 1.5, True, [], {}],
    list: [None, "x", 3, 1.5, True, {}],
    dict: [None, "x", 3, True, []],
}


def argv_for(name: str, path) -> list[str]:
    if name in VERIFY_FILES:
        return ["verify", str(path), "--kind", name]
    return ["detect", str(path)]


def base(name: str) -> dict:
    return copy.deepcopy(VERIFY_FILES.get(name) or GROUP_SPECS[name])


def at(obj: dict, path: tuple) -> dict:
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def structural_faults(draw):
    """A valid file or spec with one structural fault: (name, object)."""
    name = draw(st.sampled_from(sorted(REQUIRED)))
    obj = base(name)
    fault = draw(st.sampled_from(["drop key", "wrong type", "cut rows", "boolean", "bad count"]))
    if fault in ("drop key", "wrong type"):
        path = draw(st.sampled_from(sorted(REQUIRED[name])))
        parent = at(obj, path)
        key = draw(st.sampled_from(REQUIRED[name][path]))
        if fault == "drop key":
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from(WRONG_TYPE[type(parent[key])]))
    elif fault == "cut rows":
        rows = obj[ROWS[name]]
        # fewer triples or generators still make a well-formed file
        if name in ("roux", "signature", "etf") and draw(st.booleans()):
            del rows[draw(st.integers(0, len(rows) - 1)):]
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            del row[draw(st.integers(0, len(row) - 1)):]
    elif fault == "boolean":
        rows = obj[ROWS[name]]
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.booleans())
    else:
        parent, key = obj, {"S3": "degree", "S4": "degree"}.get(name, "n")
        if name == "roux":
            key = draw(st.sampled_from(["n", "r"]))
        if name == "SL25":
            key = draw(st.sampled_from(["dim", "p", "k"]))
            parent = obj["field"] if key != "dim" else obj
        bad = [0, -1]  # any r >= 1 reads exponents mod r
        if key == "p":
            # not prime, or a field beyond 2^20
            bad += [1, 4, draw(st.integers(MAX_ORDER + 1, HUGE))]
        elif key == "k":
            # 5^k has no built-in polynomial for k >= 3, and is beyond 2^20 for k >= 9
            bad += [draw(st.integers(3, HUGE))]
        elif key != "r":
            # the rows fit n, degree or dim exactly, and the two-graph has a
            # triple through vertex n - 1; on more points it is well formed
            bad += [obj[key] - 1] if name == "twograph" else [obj[key] - 1, obj[key] + 1]
            if key in WIDE:
                bad.append(draw(st.integers(obj[key] + 1, HUGE)))
            elif name == "twograph":
                # beyond n^2 = MAX_ORDER vertices
                bad.append(draw(st.integers(TWOGRAPH_MAX_N + 1, HUGE)))
        parent[key] = draw(st.sampled_from(bad))
    return name, obj


def leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, path + (i,))
    yield path


ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-1e3, 1e3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def mutations(draw):
    """A valid file or spec with 1 to 3 nodes anywhere dropped or replaced
    by any JSON value, which may leave it valid: (name, object)."""
    name = draw(st.sampled_from(sorted(REQUIRED)))
    obj = base(name)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(leaves(obj), key=repr)))
        if not path:
            obj = draw(ANY_JSON)
            break
        parent = at(obj, path[:-1])
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            wide = TWOGRAPH_N if (name, path) == ("twograph", ("n",)) else WIDE.get(path[-1])
            parent[path[-1]] = draw(ANY_JSON if wide is None else ANY_JSON | wide)
    return name, obj


def run(name: str, obj, tmp_dir) -> tuple:
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv_for(name, path))  # an exception here is a traceback
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_the_unmutated_inputs_pass(name, tmp_dir):
    assert run(name, base(name), tmp_dir)[0] == 0


@settings(max_examples=300, deadline=None)
@given(structural_faults())
def test_every_structural_fault_exits_2_with_one_error_line(tmp_dir, case):
    code, out, err = run(*case, tmp_dir)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=300, deadline=None)
@given(mutations())
def test_every_mutation_ends_in_one_exit_code_and_at_most_one_error_line(tmp_dir, case):
    code, out, err = run(*case, tmp_dir)
    assert code in (0, 1, 2, 3)
    if code and out:  # verify reports a failed certificate on stdout
        assert (code, json.loads(out)["passed"], err) == (1, False, "")
    else:
        assert err.count("error:") == err.count("\n") == (code != 0)
