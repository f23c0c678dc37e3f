"""The benchmark's tracer (``bench/spans.py``) wraps production functions
by name from outside the package.  A renamed or removed binding must fail
here, in the tests, and not first in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import rouxforge.cli
from rouxforge.cli import main  # loads every module the tracer wraps

BENCH = Path(__file__).resolve().parent.parent / "bench"
SL25_SPEC = {
    "kind": "matrix", "field": {"p": 5, "k": 1}, "dim": 2,
    "generators": [[1, 1, 0, 1], [0, 1, 4, 0]], "action": "projective",
}


def load_bench(name: str):
    """``bench/<name>.py`` as a module, read without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def bindings() -> dict:
    """Every module-level and class-level binding of the loaded rouxforge modules."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "rouxforge" or name.startswith("rouxforge."):
            for key, value in vars(mod).items():
                out[name, key] = value
                if isinstance(value, type):
                    out.update(((name, key, attr), v) for attr, v in vars(value).items())
    return out


def test_the_bench_tracer_wraps_and_restores_production(tmp_path, capsys):
    spans = load_bench("spans")
    before = bindings()
    path = tmp_path / "sl25.json"
    path.write_text(json.dumps(SL25_SPEC))
    with spans.Tracer() as tracer:
        assert main(["detect", str(path)]) == 0
        assert main(["family", "psl2", "--q", "5"]) == 0
    capsys.readouterr()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    # the wrapped layer boundaries that the materialized and family workloads expect
    for path_, calls in [("stabilizer", 1), ("is_doubly_transitive", 1), ("CoverData.verify", 1),
                         ("CoverData.__init__", 2), ("HigmanDecompositionTable.__init__", 2)]:
        assert tracer.calls[path_] == calls, path_


def test_small_workloads_reach_every_wrapped_call_the_bench_expects(tmp_path, capsys):
    # the benchmark's check of a traced run: a workload that no longer
    # reaches a function its EXPECTED_CALLS lists fails here first
    spans, workloads = load_bench("spans"), load_bench("workloads")
    path = tmp_path / "sl25.json"
    path.write_text(json.dumps(SL25_SPEC))
    argvs = {
        "family": [["family", "psl2", "--q", "5"], ["family", "psu3", "--q", "3"]],
        "materialized": [["detect", str(path)], ["family", "sp", "--m", "3"]],
        "certify": [list(i.argv) for i in workloads.certify_inputs(0, tmp_path, primes=(13,))],
    }
    assert len(argvs["certify"]) == 3
    with spans.Tracer() as tracer:
        for workload, calls in argvs.items():
            tracer.reset()
            for argv in calls:
                # through the module attribute: the binding the tracer wraps
                assert rouxforge.cli.main(argv) == 0, argv
            assert tracer.missing_calls(workload) == [], workload
    capsys.readouterr()
