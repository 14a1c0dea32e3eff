"""Measure the baseline that reference.json records, and check its spread.

    python3 perfbench/baseline.py [--seeds 10] [--workload NAME ...]

For each workload, runs run.py with tracing off for seeds 0..N-1 at the
run length BENCHMARK.json sets, then once with tracing on (seed 0). Writes
into the `baseline` section of reference.json, per workload: the median,
quartiles and spread ((q3 - q1) / median, quartiles as
`statistics.quantiles(n=4)` gives them) of each end-to-end metric, the
timing-free CSV digest per seed, and the traced per-layer metrics. Prints
each spread beside a third of the metric's bound. About N x 25 s per
workload on a 2-core box.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, OUT, ROOT
from workloads import WORKLOADS


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    return json.loads(
        (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ref_path = HERE / "reference.json"

    for workload in args.workload:
        runs = [_run(workload, seed, bench["run_seconds"], 0)
                for seed in range(args.seeds)]
        traced = _run(workload, 0, bench["run_seconds"], 1)
        end_to_end = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name][0] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            end_to_end[name] = {
                "unit": runs[0]["metrics"][name][1], "median": med,
                "q1": q1, "q3": q3,
                "spread": abs(q3 - q1) / abs(med) if med else None}
            if name in bounds:
                print(f"{workload:9s} {name:16s} median {med:<12.5g} "
                      f"spread {end_to_end[name]['spread']:.4f} "
                      f"(a third of the bound: {bounds[name] / 3:.4f})")
        ref = json.loads(ref_path.read_text())
        ref["baseline"][workload] = {
            "seeds": list(range(args.seeds)),
            "seconds": bench["run_seconds"],
            "trials_per_point": runs[0]["trials_per_point"],
            "commit": runs[0]["commit"],
            "env": runs[0]["env"],
            "end_to_end": end_to_end,
            "digests": {str(r["seed"]): r["digest"] for r in runs},
            "per_layer_seed0": {k: v[0] for k, v in
                                traced["metrics"].items()},
        }
        ref_path.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
