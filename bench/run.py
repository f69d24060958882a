"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload grid|attack|train --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports `ipcamo` from `src/`
and nothing else of the repository. One process, one thread: the BLAS
thread variables are forced to 1 before numpy loads.

`--seconds S` sizes the fixed work, never stops it: a run does
max(1, round(S / ROUND_SECONDS)) rounds of the workload's seeded sample.

`--trace 0` sets up SETUPS times (reporting the median as `setup_s`), makes
PASSES passes over the timed operations and prints the end-to-end metrics;
`work_s` sums each operation's fastest time. `--trace 1` sets up once and
makes three single passes: untraced (the first pass in a process is the
slowest, as memory is first allocated), traced, and untraced again. It
prints the per-layer metrics of the traced pass; `trace.overhead_s` is its
work time minus that of the pass after it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
each workload's own figures and the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUPS = 3
PASSES = 2
ROUND_SECONDS = 15
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "work_s": "s"}


def _import_program(root: Path):
    """Import `ipcamo` from the checkout's `src/`, or return None."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import ipcamo
    except ImportError as exc:
        print(f"cannot import ipcamo from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(ipcamo.__file__).resolve().is_relative_to(src.resolve()):
        print(f"ipcamo was imported from {ipcamo.__file__}, not {src}", file=sys.stderr)
        return None
    return ipcamo


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("grid", "attack", "train"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=ROUND_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if _import_program(Path(__file__).resolve().parent.parent) is None:
        return 2
    import numpy as np

    import tracer as tracing
    import workloads

    setup, make_ops, summarize = workloads.WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    setup_times = []
    for _ in range(1 if args.trace else SETUPS):
        t0 = time.perf_counter()
        state = setup(args.seed, rounds)
        setup_times.append(time.perf_counter() - t0)

    if args.trace:
        runs = [workloads.measure(make_ops(state), 1)]
        tr = tracing.Tracer()
        tracing.install(tr)
        tr.active = True
        try:
            runs.append(workloads.measure(make_ops(state, tr), 1))
        finally:
            tr.active = False
            tr.uninstall()
        runs.append(workloads.measure(make_ops(state), 1))
        res = runs[1]
        metrics = tr.layer_metrics()
        metrics["trace.overhead_s"] = runs[1].work_s - runs[2].work_s
        metrics["camouflage.p_distinct"] = workloads.p_distinct(state)
        metrics["vae.decode_gap"] = workloads.decode_gap(state.params, state.pairs)
        metrics["autodiff.tape_nodes_per_step"] = workloads.tape_nodes_per_step(
            state.params, state.train_set)
        units = tracing.LAYER_METRICS
    else:
        runs = [workloads.measure(make_ops(state), PASSES)]
        res = runs[0]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work_s": res.work_s,
        }
        units = END_TO_END_UNITS
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)

    env = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "machine": platform.machine(),
           "setup_s_each": setup_times}
    print("env " + json.dumps(env))
    for name, (value, unit) in summarize(res).items():
        print(f"{args.workload}.{name:<28} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
