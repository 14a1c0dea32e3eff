"""Paired timing of two irsmimo trees in one process.

    python scripts/ab.py A B --workload W [--pairs N] [--seed S]

Run from the repository root. A and B are directories that hold an
`irsmimo` package, such as this checkout's `src`, or `DIR/src` after
`git archive REV src/irsmimo | tar -x -C DIR`. Both packages load in this
process under distinct module names; the package imports itself only
relatively, so each tree runs its own code.

Workload W's config is built as perfbench builds it: the preset, then the
workload's overrides from perfbench/workloads.py, at master_seed S, with
the trial count perfbench gives a run of BENCHMARK.json's `run_seconds`.
After one untimed warm-up sweep of each, each pair runs
`harness.sweep(cfg, workers=1)` as A, B, B, A in even pairs and B, A, A, B
in odd ones, and keeps each side's faster run: load from outside the
process slows a run, never speeds it up. A sweep's time is the CPU time
of this process (`time.process_time`): the sweep runs here at one BLAS
thread, so that is its work, without the time the process waits for a
core on a shared machine. Every pair's rows must be equal, with the
timing column zeroed; the exit code is 1 when they are not.

Prints one JSON line: the per-pair times, the median of the B/A time
ratios with its quartiles and their distance (IQR), and the number of
pairs in which B was faster.

Limits:
- It runs in process only. Pooled workers import `irsmimo` by its own
  name, so it cannot time the worker pool or the set-up perfbench gates.
- `_one_blas_thread` sets a process-wide BLAS thread count, which both
  trees share. This is harmless, since only one sweep runs at a time.
- It does not replace perfbench's gates. It narrows differences that
  are smaller than the spread between separate perfbench runs, but load
  that lasts over several sweeps slows the core itself and can still
  flip single pairs.
"""

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def load_harness(tree: str, name: str):
    """The harness module of the irsmimo package in directory `tree`,
    loaded as package `name`."""
    pkg = Path(tree).resolve() / "irsmimo"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"{tree}: no irsmimo package")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.harness")


def workload_cfg(harness, workload: str, seed: int):
    """The workload's config, built by `harness` as perfbench builds it."""
    preset = harness.config_text(
        harness.PRESETS[workloads.WORKLOADS[workload]["preset"]])
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    trials = workloads.trials_per_point(workload, seconds)
    return harness.parse_config(
        workloads.workload_config(workload, preset, seed, trials))


def timed_sweep(harness, cfg) -> tuple[float, str]:
    """CPU seconds of one in-process sweep, and its CSV without timings."""
    gc.collect()
    tic = time.process_time()
    records, _ = harness.sweep(cfg, workers=1)
    elapsed = time.process_time() - tic
    rows = harness.to_csv([dataclasses.replace(r, wall_ms=0.0)
                           for r in records])
    return elapsed, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    sides = []
    for tree, name in ((args.a, "irsmimo_a"), (args.b, "irsmimo_b")):
        harness = load_harness(tree, name)
        sides.append((harness, workload_cfg(harness, args.workload,
                                            args.seed)))
    warm = [timed_sweep(*side)[1] for side in sides]
    equal = warm[0] == warm[1]
    times = [[], []]
    for pair in range(args.pairs):
        first = pair % 2
        runs = [[], []]
        for i in (first, 1 - first, 1 - first, first):
            elapsed, rows = timed_sweep(*sides[i])
            runs[i].append(elapsed)
            equal = equal and rows == warm[0]
        for i in (0, 1):
            times[i].append(min(runs[i]))

    ratio = np.array(times[1]) / np.array(times[0])
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "trials": sides[0][1].trials * len(sides[0][1].sweep_values),
        "pairs": args.pairs, "rows_equal": equal,
        "a_s": [round(t, 4) for t in times[0]],
        "b_s": [round(t, 4) for t in times[1]],
        "ratio_median": round(float(med), 4),
        "ratio_q1": round(float(q1), 4), "ratio_q3": round(float(q3), 4),
        "ratio_iqr": round(float(q3 - q1), 4),
        "b_wins": int((ratio < 1.0).sum())}))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
