"""The benchmark's own tests, at smoke size. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracer
from workloads import WORKLOADS, is_estimator

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, seconds: float, trace: int, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_benchmark_json_matches_the_code():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: wl["why"] for name, wl in WORKLOADS.items()}
    for m in BENCH["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics + BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    layer_names = set(tracer.layer_metrics([]))
    assert layer_names <= set(_declared("per_layer"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_smoke(workload):
    proc = _bench(workload, 1, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        _declared("end_to_end")
    table = {line.split()[0]: line.split()[2] for line in lines[1:]
             if line.startswith("  ") and line.split()[0] in run.END_TO_END}
    expected = set(run.END_TO_END)
    if not is_estimator(workload):
        expected.discard("nmse_db_median")
    if result["attempted"] < 20:
        expected.discard("trial_ms_tail")
    assert set(table) == expected
    for name, unit in table.items():
        assert unit == run.END_TO_END[name][0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke(workload):
    proc = _bench(workload, 2, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        _declared("per_layer")
    algorithm = WORKLOADS[workload]["overrides"]["algorithm"]
    assert (metrics["cs_est.calls"]["value"] > 0) == (algorithm == "cs_est")
    assert (metrics["mo_est.calls"]["value"] > 0) == (algorithm == "mo_est")
    assert metrics["harness.run_trial.calls"]["value"] == result["attempted"]


def test_wrappers_are_removed_after_tracing():
    sys.path.insert(0, str(ROOT / "src"))
    import irsmimo.harness as harness

    before = tracer.patched_originals()
    trace = tracer.Tracer()
    trace.install()
    try:
        during = tracer.patched_originals()
        cfg = replace(harness.DESK_PRESET, algorithm="perfect_csi", trials=1)
        harness.run_trial(cfg, 0, 0)
    finally:
        trace.restore()
    after = tracer.patched_originals()
    assert all(x is not y for (_, x), (_, y) in zip(before, during))
    assert all(a == b and x is y for (a, x), (b, y) in zip(before, after))
    names = {span[0] for span in trace.spans}
    assert {"harness.run_trial", "wmmse.alt_wmmse", "wmmse.cg_minimize",
            "manifold.circle_retract", "channel.make_pilots"} <= names
    assert tracer.check_nesting(trace.spans) == []


def test_check_nesting_reports_a_span_outside_its_parent():
    spans = [["harness.run_trial", 0.0, 1.0, -1, 0, None],
             ["cs_est", 0.5, 1.5, 0, 0, None],
             ["channel.make_pilots", 2.0, 3.0, -1, 1, None]]
    problems = tracer.check_nesting(spans)
    assert len(problems) == 2


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("desk-rp", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
