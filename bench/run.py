"""rouxforge benchmark.

One process, one closed-loop caller: every input is a ``rouxforge`` CLI
call made in-process through ``rouxforge.cli.main`` with ``--jobs 1``,
BLAS threads pinned to 1 and ``ROUXFORGE_CACHE`` unset.  Each report is
checked against the benchmark's own oracle (``workloads.py``).

    python3 bench/run.py --workload family --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
untraced pass, then traced passes (``spans.py``) and prints the per-layer
metrics.  The last line of standard output is the result object; a record
with the environment, pass times, report SHA-256s and (traced) the spans
is written to ``.perfbench/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from spans import Tracer
from speed import SpeedProbe

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pin_environment() -> None:
    """Re-execute this script with the pinned environment unless it is set.

    The thread counts must be set before numpy loads and the hash seed
    before the interpreter starts.  ``ROUXFORGE_CACHE`` is removed: a
    cached closure would hide the group layer.
    """
    env = {k: v for k, v in os.environ.items() if k != "ROUXFORGE_CACHE"}
    env.update(PINNED_ENV)
    if env != dict(os.environ):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_PASSES = 2
SETUP_SAMPLES = 5
MAX_UNCOVERED_SHARE = 0.10


@dataclass
class Outcome:
    """One CLI call: exit code (None if it raised), times, report hash, oracle errors.

    ``slowdown`` is the machine's slowdown during the call (``speed.py``),
    1.0 where no probe ran.
    """

    label: str
    code: int | None
    start: float
    wall: float
    cpu: float
    sha256: str
    errors: list = field(default_factory=list)
    slowdown: float = 1.0


@dataclass
class Pass:
    outcomes: list

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)


def median_pass(passes: list[Pass], attr: str, at_reference: bool = False) -> float:
    """Sum over the inputs of each input's median time across passes.

    With ``at_reference`` each call's time is first divided by the
    machine's slowdown during that call, which gives its time at the
    probe's reference speed.
    """
    times: dict = {}
    for p in passes:
        for o in p.outcomes:
            times.setdefault(o.label, []).append(getattr(o, attr) / (o.slowdown if at_reference else 1.0))
    return sum(statistics.median(t) for t in times.values())


def call(cli, inp: workloads.Input) -> Outcome:
    buf = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(inp.argv))
    except SystemExit as exc:  # argparse rejects an argument
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed input, not a failed benchmark
        traceback.print_exc()
        code = None
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    text = buf.getvalue()
    return Outcome(inp.label, code, wall0, wall, cpu, hashlib.sha256(text.encode()).hexdigest(), judge(inp, code, text))


def judge(inp: workloads.Input, code: int | None, text: str) -> list[str]:
    if code is None:
        return ["crashed"]
    errors = [] if code == 0 else [f"exit code {code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return errors + ["report is not JSON"]
    if report.get("passed", True) is not True:
        errors.append("report says passed: false")
    return errors + inp.check(report)


def run_pass(cli, inputs) -> Pass:
    return Pass([call(cli, inp) for inp in inputs])


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, generate the inputs and make a warm-up pass
    over small instances of the same commands."""
    sys.path.insert(0, str(SRC))
    from rouxforge import cli

    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workloads.make_inputs(workload, seed, workdir)
    warm = run_pass(cli, workloads.warmup_inputs(workdir))
    return cli, inputs, [f"warm-up {o.label}: {e}" for o in warm.outcomes for e in o.errors]


def time_setup(args) -> tuple[float, float]:
    """Start and wall time of a fresh interpreter doing the whole set-up and exiting."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return start, time.perf_counter() - start


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    inc, own, n = tracer.inclusive, tracer.self_time, tracer.span_calls
    return {
        "field.mul.calls": (tracer.count("field.mul"), "count"),
        "group.mul.calls": (tracer.count("group.mul"), "count"),
        "group.inv.calls": (tracer.count("group.inv"), "count"),
        "group.closure.s": (own("group.closure"), "s"),
        "group.characters.s": (inc("group.characters"), "s"),
        "group.stabilizer.s": (inc("group.stabilizer"), "s"),
        "radical.table.s": (inc("radical.table"), "s"),
        "radical.table.mul_per_cell": (tracer.table_mul_per_cell(), "mul/cell"),
        "radical.detect.s": (inc("radical.detect"), "s"),
        "radical.radicalize.s": (inc("radical.radicalize"), "s"),
        "radical.build.s": (inc("radical.build"), "s"),
        "radical.cover_verify.s": (inc("radical.cover_verify"), "s"),
        "roux.verify.s": (inc("roux.verify"), "s"),
        "roux.verify.calls": (n("roux.verify"), "count"),
        "roux.compress.s": (inc("roux.compress"), "s"),
        "lines.gram.s": (inc("lines.gram"), "s"),
        "lines.etf.s": (inc("lines.etf"), "s"),
        "lines.real.s": (inc("lines.real"), "s"),
        "lines.check_signature.calls": (n("lines.check_signature"), "count"),
        "families.cover.s": (inc("families.cover"), "s"),
        "families.witness.s": (own("families.witness"), "s"),
        "cli.io.s": (inc("cli.io"), "s"),
        "cli.self.s": (own("cli.main"), "s"),
        "trace.uncovered_share": ((wall - tracer.covered_seconds()) / wall, "ratio"),
    }


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "rouxforge_cache": os.environ.get("ROUXFORGE_CACHE", "unset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rouxforge" / "cli.py").is_file():
        print(f"error: no rouxforge sources under {SRC}", file=sys.stderr)
        return 2
    if "ROUXFORGE_CACHE" in os.environ:
        print("error: ROUXFORGE_CACHE must be unset", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        cli, inputs, problems = setup(args.workload, args.seed, workdir)
        if args.trace:
            result, record = traced_run(cli, inputs, args, problems)
        else:
            result, record = untraced_run(cli, inputs, args, problems)
        # A corrupted input must count as a failure (it has oracle errors)
        # with exit code 1, not as a crash.
        selftest = call(cli, workloads.corrupted_roux(workdir))
        if not selftest.errors or selftest.code != 1:
            problems.append(f"corrupted input gave exit {selftest.code} with {selftest.errors}, not one failure with exit 1")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["correct"] = result["correct"] and not problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    env = environment(args)
    record.update(env=env, problems=problems, result=result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    if "raw" in record:
        print("raw " + json.dumps(record["raw"], sort_keys=True))
    for label, digest in sorted(record["sha256"].items()):
        print(f"sha256 {label} {digest}")
    if args.trace:
        print("counters " + json.dumps(record["counters"], sort_keys=True))
    print(json.dumps(result))
    return 0


def tally(passes: list[Pass], problems: list) -> tuple[dict, dict]:
    """Attempted/failed counts, and each report's SHA-256, which must match across passes."""
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o.errors]
    for o in failed:
        problems.append(f"{o.label}: {'; '.join(o.errors)}")
    digests: dict = {}
    for o in outcomes:
        digests.setdefault(o.label, set()).add(o.sha256)
    for label, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"{label}: report differs between passes")
    counts = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed)}
    return counts, {label: min(seen) for label, seen in digests.items()}


def untraced_run(cli, inputs, args, problems):
    # Set-up samples are taken between passes, so that their median spans
    # the run rather than one moment of a shared machine.  Like the calls,
    # each is divided by the machine's slowdown while it ran.
    passes: list[Pass] = []
    setups: list = []
    with SpeedProbe() as probe:
        while len(passes) < MIN_PASSES or sum(p.wall for p in passes) < args.seconds:
            passes.append(run_pass(cli, inputs))
            if len(setups) < SETUP_SAMPLES:
                setups.append(time_setup(args))
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup(args))
    for o in (o for p in passes for o in p.outcomes):
        o.slowdown = probe.slowdown(o.start, o.start + o.wall)
    setup_samples = [(wall, probe.slowdown(start, start + wall)) for start, wall in setups]
    counts, digests = tally(passes, problems)
    metrics = {
        "wall_ref_s": (median_pass(passes, "wall", at_reference=True), "s"),
        "cpu_ref_s": (median_pass(passes, "cpu", at_reference=True), "s"),
        "setup_s": (statistics.median(wall / slowdown for wall, slowdown in setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "passed_share": ((counts["attempted"] - counts["failed"]) / counts["attempted"], "ratio"),
    }
    result = {**counts, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {
        "sha256": digests,
        "setup_samples": setup_samples,
        "passes": [[(o.label, o.wall, o.cpu, o.slowdown) for o in p.outcomes] for p in passes],
        "raw": {"wall_s": median_pass(passes, "wall"), "cpu_s": median_pass(passes, "cpu"),
                "setup_s": statistics.median(wall for wall, _ in setup_samples)},
        "probe_samples": len(probe.samples),
    }
    return result, record


def traced_run(cli, inputs, args, problems):
    start = time.perf_counter()
    untraced = run_pass(cli, inputs)
    traced, per_pass = [], []
    tracer = Tracer()
    with tracer:
        while not traced or time.perf_counter() - start < args.seconds:
            tracer.reset()
            p = run_pass(cli, inputs)
            traced.append(p)
            per_pass.append(layer_metrics(tracer, p.wall))
            missing = tracer.missing_calls(args.workload)
            if missing:
                problems.append(f"wrapped functions never called: {', '.join(missing)}")
            uncovered = per_pass[-1]["trace.uncovered_share"][0]
            if uncovered >= MAX_UNCOVERED_SHARE:
                problems.append(f"{uncovered:.1%} of traced time lies outside every layer span")
    counts, digests = tally([untraced] + traced, problems)
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced) - untraced.wall, "s")
    result = {**counts, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {
        "sha256": digests,
        "counters": tracer.exact_counters(),  # of the last pass; determinism.py compares runs
        "untraced_wall": untraced.wall,
        "traced_walls": [p.wall for p in traced],
        "trace": tracer.to_json(),
    }
    return result, record


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
