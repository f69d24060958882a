"""Check that every deterministic per-layer figure repeats exactly.

    python3 bench/check_counts.py

Runs `run.py --seed 0 --trace 1` twice per workload and compares every per-layer
metric that is not a time or a rate: call counts, DIP iterations, SAT
conflicts, decisions and propagations, fix actions, key bits, tape nodes,
`p_distinct`, `equivalence_sat_calls` and `decode_gap`. Exits 1 on any
difference or failed operation, 0 otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMED_UNITS = ("s", "1/s")


def traced_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload in ("grid", "attack", "train"):
        first, second = traced_run(workload), traced_run(workload)
        for run in (first, second):
            if run["failed"] or not run["correct"]:
                print(f"{workload}: {run['failed']} failed operations")
                ok = False
        compared = 0
        for name, m in first["metrics"].items():
            if m["unit"] in TIMED_UNITS:
                continue
            compared += 1
            other = second["metrics"][name]["value"]
            if m["value"] != other:
                print(f"{workload}: {name} differs: {m['value']} vs {other}")
                ok = False
        print(f"{workload}: {compared} deterministic figures compared")
    print("counts repeat exactly" if ok else "counts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
