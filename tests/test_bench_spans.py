"""The benchmark's tracer (``bench/spans.py``) wraps production functions
by name from outside the package.  A renamed or removed binding must fail
here, in the tests, and not first in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

from rouxforge.cli import main  # loads every module the tracer wraps

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    """``bench/spans.py`` as a module, read without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
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
    spans = load_spans()
    before = bindings()
    path = tmp_path / "sl25.json"
    path.write_text(json.dumps({
        "kind": "matrix", "field": {"p": 5, "k": 1}, "dim": 2,
        "generators": [[1, 1, 0, 1], [0, 1, 4, 0]], "action": "projective",
    }))
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
