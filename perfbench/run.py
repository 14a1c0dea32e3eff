"""Benchmark of irsmimo Monte-Carlo sweeps, one workload per invocation.

    python3 perfbench/run.py --workload desk-mo --seed 0 --seconds 20 --trace 0

Run from the repository root. The workload seed becomes the sweep's
`master_seed`; `--seconds` sizes the run through the workload's nominal
rate (see workloads.py). Every package call runs in a fresh child process
(worker.py), so `ru_maxrss` is the workload's own high-water mark.

`--trace 0` times one `harness.sweep` call with `timings = true` and
prints the end-to-end metrics. Set-up, from spawning a child to the start
of its timed sweep, is measured in SETUP_RUNS children and reported as the
median. One untimed set-up child runs first: the first children after a
heavy process read up to 50% slower than the rest on a 2-core box.

`--trace 1` runs the same trials twice, each half as many as `--trace 0`:
an untraced sweep, then `harness.run_trial` per trial with wrappers on the
package's public functions (tracer.py). Spans are written to
perfbench/out/ and every per-layer metric is derived from that file.

Both modes check the outputs, print a table of metrics with unit and
better-direction, write the details to perfbench/out/, and end with one
JSON line `{"correct", "attempted", "failed", "metrics"}` holding the
metrics BENCHMARK.json declares. The exit code is 1 when a check fails.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, is_estimator, points, trials_per_point

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 9
# Every child must end before this many seconds from the start of the run.
DEADLINE_S = 170.0

# name -> (unit, better)
END_TO_END = {
    "trials_per_s": ("trials/s", "higher"),
    "trial_ms_p50": ("ms", "lower"),
    "trial_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "nmse_db_median": ("dB", "lower"),
    "se_median": ("bit/s/Hz", "higher"),
    "trials_failed_share": ("ratio", "lower"),
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Child:
    """Starts worker.py children against one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, mode: str, trials: int, *extra: str) -> dict:
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, self.workload,
             str(self.seed), str(trials), *extra],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - t_spawn))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker {mode} exited with {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
        out["setup_s"] = out["t_start"] - t_spawn
        return out


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, trials beyond) at the highest percentile with
    at least ten trials beyond it (nearest rank); None below 20 trials."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    raise AssertionError("unreachable for n >= 20")


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    trials = trials_per_point(workload, seconds)
    child = Child(workload, seed)
    child.run("setup", trials)
    setups = [child.run("setup", trials)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    res = child.run("sweep", trials)
    setups.append(res["setup_s"])

    rows = list(zip(res["wall_ms"], res["nmse"], res["se"]))
    good = [r for r in rows if math.isfinite(r[1]) and math.isfinite(r[2])]
    attempted, failed = len(rows), len(rows) - len(good)
    wall_ms = [r[0] for r in good]
    nmse = [r[1] for r in good]
    se = [r[2] for r in good]
    values = {
        "trials_per_s": attempted / res["wall_s"],
        "trial_ms_p50": statistics.median(wall_ms) if good else math.nan,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "se_median": statistics.median(se) if good else math.nan,
        "trials_failed_share": failed / attempted,
    }
    notes = {"setup_s": f"median of {SETUP_RUNS} processes after 1 untimed"}
    tail_ms = tail(wall_ms)
    if tail_ms is not None:
        values["trial_ms_tail"] = tail_ms[0]
        notes["trial_ms_tail"] = (f"p{tail_ms[1]:g}, {tail_ms[2]} of "
                                  f"{len(wall_ms)} trials beyond")
    med_nmse = statistics.median(nmse) if good else math.nan
    if is_estimator(workload):
        values["nmse_db_median"] = (10.0 * math.log10(med_nmse)
                                    if med_nmse > 0 else math.nan)

    checks = {
        "every row has finite NMSE and SE": failed == 0,
        "CSV round-trips through harness.parse_csv": res["roundtrip"],
        "NMSE >= 0 and SE > 0 on every row": all(
            x >= 0 for x in nmse) and all(x > 0 for x in se),
    }
    if is_estimator(workload):
        checks["median NMSE below 0 dB"] = med_nmse < 1.0
    return {
        "attempted": attempted, "failed": failed, "checks": checks,
        "metrics": {k: (v, END_TO_END[k][0]) for k, v in values.items()},
        "notes": notes, "digest": res["digest"], "env": res["env"],
        "trials_per_point": trials,
    }


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    trials = trials_per_point(workload, seconds / 2.0)
    child = Child(workload, seed)
    plain = child.run("sweep", trials)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    traced = child.run("traced", trials, str(spans_path))

    _, spans = tracer.load(spans_path)
    metrics = tracer.layer_metrics(spans)
    plain_tps = len(plain["wall_ms"]) / plain["wall_s"]
    traced_tps = traced["attempted"] / traced["wall_s"]
    metrics.update({
        "harness.sweep.wall_s": (plain["wall_s"], "s"),
        "harness.concurrency": (sum(plain["wall_ms"]) / 1e3
                                / plain["wall_s"], "ratio"),
        "trace.spans": (len(spans), "count"),
        "trace.trials_per_s": (traced_tps, "trials/s"),
        "trace.untraced_trials_per_s": (plain_tps, "trials/s"),
        "trace.overhead": (plain_tps / traced_tps, "ratio"),
    })
    problems = tracer.check_nesting(spans)
    checks = {
        "no trial failed, traced or untraced":
            plain["failures"] == 0 and traced["failures"] == 0,
        "every row has finite NMSE and SE": traced["nonfinite"] == 0 and all(
            math.isfinite(x) for x in plain["nmse"] + plain["se"]),
        "traced run_trial rows equal the sweep's rows":
            traced["digest"] == plain["digest"],
        "spans nest inside their trial's harness.run_trial span":
            not problems,
        "wrappers removed after the traced run": traced["restored"],
    }
    for problem in (problems + traced["errors"])[:5]:
        print("  problem:", problem)
    return {
        "attempted": traced["attempted"],
        "failed": traced["failures"] + traced["nonfinite"],
        "checks": checks, "metrics": metrics, "notes": {},
        "digest": plain["digest"], "env": plain["env"],
        "trials_per_point": trials, "spans_file": str(spans_path),
    }


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def reference_digest(workload: str, seed: int, trials: int) -> str | None:
    ref = json.loads((HERE / "reference.json").read_text())
    base = ref["baseline"].get(workload, {})
    if base.get("trials_per_point") != trials:
        return None
    return base.get("digests", {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds)
    result.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, commit=commit())
    ref = reference_digest(args.workload, args.seed,
                           result["trials_per_point"])
    digest_note = ("no reference for this seed and size" if ref is None
                   else "matches reference.json" if ref == result["digest"]
                   else "DIFFERS from reference.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"trials {result['attempted']} "
          f"({points(args.workload)} points x {result['trials_per_point']})")
    better = {m["name"]: m["better"] for m in declared}
    better.update({k: b for k, (_, b) in END_TO_END.items()})
    bounds = {m["name"]: m["bound"] for m in declared if "bound" in m}
    for name, (value, unit) in result["metrics"].items():
        note = " ".join(filter(None, [
            result["notes"].get(name),
            f"(gated, bound {bounds[name]:g})" if name in bounds else None]))
        print(f"  {name:36s} {value:<14.6g} {unit:10s} "
              f"{better.get(name, ''):6s} {note}")
    for name, ok in result["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"  csv digest (timings stripped) {result['digest']}: "
          f"{digest_note}")
    print(f"  env {json.dumps(result['env'])} commit {result['commit']}")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))

    missing = [m["name"] for m in declared
               if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"declared metrics not measured: {missing}")
    correct = all(result["checks"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]][0],
                                "unit": result["metrics"][m["name"]][1]}
                    for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
