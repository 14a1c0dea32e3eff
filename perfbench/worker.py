"""One workload in a fresh process; started by run.py, never imported by it.

    python3 perfbench/worker.py MODE WORKLOAD SEED TRIALS [SPANS_PATH]

MODE is `setup` (stop where the timed part would start), `sweep` (one
`harness.sweep` call, tracing off) or `traced` (`harness.run_trial` per
trial with the tracer installed, spans saved to SPANS_PATH). Every mode
first imports the package from the checkout's `src`, validates the
workload config and runs one warm-up `random_phase_baseline` trial on a
seed outside the timed set; that is the set-up run.py times.

Prints one JSON object. `t_start` is `time.monotonic()` at the start of
the timed part, comparable with the parent's clock (CLOCK_MONOTONIC).
"""

import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from tracer import Tracer, patched_originals  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402


def _import_harness():
    import irsmimo.harness as harness
    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"irsmimo imported from {harness.__file__}, "
                          f"not from {SRC}")
    return harness


def _digest(harness, records) -> str:
    """sha256 of the CSV without its timing column: the bytes a
    `timings = false` sweep writes."""
    text = harness.to_csv([replace(r, wall_ms=0.0) for r in records])
    return hashlib.sha256(text.encode()).hexdigest()


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _sweep(harness, cfg) -> dict:
    t_start = time.monotonic()
    records, failures = harness.sweep(cfg)
    wall_s = time.monotonic() - t_start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    text = harness.to_csv(records)
    return {
        "t_start": t_start,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "failures": failures,
        "roundtrip": harness.to_csv(harness.parse_csv(text)) == text,
        "digest": _digest(harness, records),
        "wall_ms": [r.wall_ms for r in records],
        "nmse": [r.nmse for r in records],
        "se": [r.se_bits_s_hz for r in records],
        "env": _environment(),
    }


def _traced(harness, cfg, workload: str, spans_path: str) -> dict:
    before = patched_originals()
    keys = [(p, s) for p in range(len(cfg.sweep_values))
            for s in range(cfg.trials)]
    tracer = Tracer()
    records, errors = [], []
    tracer.install()
    try:
        t_start = time.monotonic()
        for i, (point, seed) in enumerate(keys):
            tracer.trial = i
            try:
                records.append(harness.run_trial(cfg, point, seed))
            except Exception as exc:
                errors.append(f"point {point} seed {seed}: {exc!r}")
        wall_s = time.monotonic() - t_start
    finally:
        tracer.restore()
    restored = all(a == b and x is y for (a, x), (b, y)
                   in zip(before, patched_originals()))
    tracer.save(spans_path, [[workload, p, s] for p, s in keys])
    return {"t_start": t_start, "wall_s": wall_s, "failures": len(errors),
            "errors": errors,
            "attempted": len(keys), "digest": _digest(harness, records),
            "restored": restored,
            "nonfinite": sum(not (math.isfinite(r.nmse)
                                  and math.isfinite(r.se_bits_s_hz))
                             for r in records)}


def main(argv: list[str]) -> int:
    mode, workload, seed, trials = argv[:4]
    harness = _import_harness()
    preset = harness.config_text(harness.PRESETS[WORKLOADS[workload]["preset"]])
    cfg = harness.parse_config(workload_config(workload, preset, int(seed),
                                               int(trials)))
    harness.run_trial(replace(cfg, algorithm="random_phase_baseline"), 0,
                      cfg.trials)
    if mode == "setup":
        out = {"t_start": time.monotonic()}
    elif mode == "sweep":
        out = _sweep(harness, cfg)
    elif mode == "traced":
        out = _traced(harness, cfg, workload, argv[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
