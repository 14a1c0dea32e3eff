"""Peak memory of a benchmark workload's sweep, in the sweep's own process
and in its worker processes.

    python3 scripts/worker_rss.py --workload desk-rp --seed 0 [--seconds 20]
                                  [--root CHECKOUT]

perfbench reads `peak_rss_mb` from RUSAGE_SELF of the process that calls
harness.sweep. Once a sweep has more than one chunk, that process runs
none of them: its worker processes do. This script builds the workload's
config as perfbench/worker.py does (the preset, the workload's overrides
and the trial count that --seconds gives), runs one harness.sweep with
the default worker count, and prints one JSON line: `self_mb` from
RUSAGE_SELF and `children_mb` from RUSAGE_CHILDREN, which is the largest
reaped worker's peak, not a sum. A sweep of one chunk starts no worker,
and its `children_mb` then reads only the few MB the interpreter's own
start-up leaves there.

--root picks the checkout whose `src` and `perfbench/workloads.py` are
imported, so one copy of this script measures any revision. Run each
measurement in a fresh process: both peaks only ever rise.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from irsmimo import harness
    from workloads import WORKLOADS, trials_per_point, workload_config

    preset = harness.config_text(
        harness.PRESETS[WORKLOADS[args.workload]["preset"]])
    trials = trials_per_point(args.workload, args.seconds)
    cfg = harness.parse_config(workload_config(args.workload, preset,
                                               args.seed, trials))
    tic = time.monotonic()
    records, failures = harness.sweep(cfg)
    wall_s = time.monotonic() - tic
    mb = {who: resource.getrusage(kind).ru_maxrss / 1024.0
          for who, kind in (("self_mb", resource.RUSAGE_SELF),
                            ("children_mb", resource.RUSAGE_CHILDREN))}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trials": len(records), "failures": failures,
                      "wall_s": wall_s, **mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
