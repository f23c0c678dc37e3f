"""Check that two traced runs with the same seed agree exactly.

Runs ``run.py --trace 1`` twice per workload and compares the exact
counters (``*.calls`` and ``radical.table.mul_per_cell``) and the SHA-256
of every report.  Exits 1 on any difference.

    python3 bench/determinism.py --seed 7
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
OUT = RUN.parent.parent / ".perfbench"


def traced_record(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((OUT / f"{workload}-seed{seed}-trace1.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    same = True
    for workload in workloads.WORKLOADS:
        first, second = (traced_record(workload, args.seed) for _ in range(2))
        if not (first["result"]["correct"] and second["result"]["correct"]):
            print(f"{workload}: a run was not correct: {first['problems'] + second['problems']}")
            same = False
        for key in ("counters", "sha256"):
            ok = first[key] == second[key]
            same = same and ok
            print(f"{workload} {key}: {'identical' if ok else 'DIFFERENT'} ({len(first[key])} entries)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
