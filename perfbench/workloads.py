"""The benchmark's workloads: one preset plus config-file overrides each.

Each workload makes one package module do most of the work and bypasses
at least one other, so a change to one layer shows on one workload and
must not show on another. `threads` is never overridden: the benchmark
measures the sweep dispatch a user gets by default.

`trials_per_s` is the nominal rate on a 2-core x86 box. It only sizes a
run, `trials = round(seconds * trials_per_s / points)`, so a run lasts
about `--seconds`; it is a constant, never measured, so the same
(seed, seconds) always gives the same inputs.
"""

WORKLOADS = {
    "desk-mo": {
        "preset": "desk-scale",
        "overrides": {"algorithm": "mo_est", "sweep_axis": "T",
                      "sweep_values": "100"},
        "trials_per_s": 4.0,
        "why": "mo_est with fixed-rank retract dominates; cs_est never runs",
    },
    "paper-cs": {
        "preset": "paper-scale",
        "overrides": {"algorithm": "cs_est", "sweep_axis": "T",
                      "sweep_values": "500"},
        "trials_per_s": 0.27,
        "why": "cs_est stage 3 with its dense 18000x2304 sensing matrix "
               "dominates time and peak RSS; mo_est never runs",
    },
    "paper-bf": {
        "preset": "paper-scale",
        "overrides": {"algorithm": "perfect_csi", "sweep_axis": "SNR",
                      "sweep_values": "0,10,20"},
        "trials_per_s": 10.0,
        "why": "alt_wmmse circle-manifold CG dominates; both estimators "
               "are bypassed",
    },
    "desk-rp": {
        "preset": "desk-scale",
        "overrides": {"algorithm": "random_phase_baseline",
                      "sweep_axis": "T", "sweep_values": "100"},
        "trials_per_s": 330.0,
        "why": "thousands of ~3 ms trials: channel synthesis and per-trial "
               "harness cost dominate",
    },
}


def is_estimator(name: str) -> bool:
    """True when the workload's CSV carries a real NMSE column."""
    return WORKLOADS[name]["overrides"]["algorithm"] in ("mo_est", "cs_est")


def points(name: str) -> int:
    """Number of sweep points of a workload."""
    return len(WORKLOADS[name]["overrides"]["sweep_values"].split(","))


def trials_per_point(name: str, seconds: float) -> int:
    """Trials per sweep point for a run of about `seconds` seconds."""
    wl = WORKLOADS[name]
    return max(1, round(seconds * wl["trials_per_s"] / points(name)))


def workload_config(name: str, preset_text: str, seed: int, trials: int) -> str:
    """Config-file text: the preset, then the workload's overrides, then
    the run's seed, size and timings (later keys win)."""
    lines = dict(WORKLOADS[name]["overrides"], master_seed=seed,
                 trials=trials, timings="true")
    return preset_text + "".join(f"{k} = {v}\n" for k, v in lines.items())
