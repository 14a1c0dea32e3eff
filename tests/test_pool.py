"""Tests for sweeps run in worker processes (irsmimo.pool)."""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import irsmimo
from irsmimo import harness, pool
from irsmimo.cli import main
from irsmimo.harness import (ALGORITHMS, DESK_PRESET, PAPER_PRESET,
                             ExperimentConfig, sweep, to_csv)

SRC = Path(irsmimo.__file__).resolve().parents[1]


@pytest.fixture
def started(monkeypatch):
    """Every worker process a sweep starts, recorded in the parent."""
    real, procs = subprocess.Popen, []

    def record(*args, **kwargs):
        procs.append(real(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(pool.subprocess, "Popen", record)
    return procs


def _assert_reaped(procs):
    assert procs and all(p.returncode is not None for p in procs)
    assert all(p.stdin.closed and p.stdout.closed for p in procs)


def _desk_chunks(algorithm, monkeypatch):
    """Two desk points of 6 trials in chunks of at most 4: 3 and 3 each at
    one or two workers."""
    monkeypatch.setattr(harness, "_chunk_size", lambda cfg: 4)
    return dataclasses.replace(DESK_PRESET, algorithm=algorithm, trials=6,
                               sweep_values=(60.0, 100.0))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_workers_give_the_in_process_bytes(algorithm, started, monkeypatch):
    cfg = _desk_chunks(algorithm, monkeypatch)
    alone, failures = sweep(cfg, workers=1)
    assert failures == 0 and not started
    records, failures = sweep(cfg, workers=2)
    assert failures == 0 and len(started) == 2
    assert to_csv(records) == to_csv(alone)
    _assert_reaped(started)


def test_more_workers_than_cores_keep_chunk_order(started, monkeypatch):
    cfg = _desk_chunks("random_phase_baseline", monkeypatch)
    workers = harness._usable_cpus() + 2
    records, _ = sweep(cfg, workers=workers)
    assert len(started) == min(workers, len(harness._plan(2, 6, 4, workers)))
    assert to_csv(records) == to_csv(sweep(cfg, workers=1)[0])


def test_desk_mo_est_bytes_do_not_depend_on_the_workers(started):
    # 2 points of 5 trials: 2 chunks of 5 in process and at 2 workers, 6
    # chunks of 1, 2 and 2 trials at 3 workers.
    cfg = dataclasses.replace(DESK_PRESET, trials=5,
                              sweep_values=(60.0, 100.0))
    runs = {n: sweep(cfg, workers=n) for n in (1, 2, 3)}
    assert len(started) == 2 + 3
    assert all(failures == 0 for _, failures in runs.values())
    assert len({to_csv(records) for records, _ in runs.values()}) == 1


def test_paper_workers_give_the_in_process_bytes(started):
    # One more trial than the 24 of a full chunk: chunks of 12 and 13.
    cfg = dataclasses.replace(PAPER_PRESET, algorithm="perfect_csi",
                              sweep_axis="SNR", sweep_values=(10.0,),
                              trials=25)
    records, failures = sweep(cfg, workers=2)
    assert failures == 0 and len(started) == 2
    assert to_csv(records) == to_csv(sweep(cfg, workers=1)[0])


def test_in_process_chunk_gives_the_pooled_rows(two_blas_threads, started):
    # Paper mo_est rows at T = 300 round differently at 1 and 2 BLAS
    # threads. 4 trials run as chunks of 2 and 2 in worker processes; 3
    # trials are one chunk, run in this process, whose caller runs 2.
    cfg = dataclasses.replace(PAPER_PRESET, algorithm="mo_est", trials=4,
                              sweep_values=(300.0,))
    pooled, failures = sweep(cfg, workers=2)
    assert failures == 0 and len(started) == 2
    alone, failures = sweep(dataclasses.replace(cfg, trials=3))
    assert failures == 0 and len(started) == 2
    assert alone == pooled[:3]


def test_one_chunk_runs_in_process(started):
    cfg = ExperimentConfig(algorithm="perfect_csi", trials=2)
    assert sweep(cfg, workers=2)[1] == 0
    assert sweep(cfg)[1] == 0
    assert not started


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        sweep(ExperimentConfig(trials=1), workers=workers)


def test_dead_worker_raises_naming_its_chunk(started, monkeypatch):
    monkeypatch.setattr(pool, "worker_command",
                        lambda: [sys.executable, "-c", "raise SystemExit(3)"])
    cfg = _desk_chunks("perfect_csi", monkeypatch)
    with pytest.raises(RuntimeError, match=r"exit code 3 .* seeds [03]-"):
        sweep(cfg, workers=2)
    _assert_reaped(started)


def test_interrupted_sweep_reaps_its_workers(started, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(pool.select, "select", interrupt)
    with pytest.raises(KeyboardInterrupt):
        sweep(_desk_chunks("perfect_csi", monkeypatch), workers=2)
    _assert_reaped(started)


def _worker(import_dir, expected):
    return subprocess.run(
        [sys.executable, "-c", pool._BOOT, str(import_dir), str(expected)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=120)


def test_worker_refuses_another_package_copy(tmp_path):
    shutil.copytree(SRC / "irsmimo", tmp_path / "irsmimo",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _worker(tmp_path, pool._PACKAGE)
    assert proc.returncode == 1
    assert f"expected {pool._PACKAGE}" in proc.stderr
    # The parent's own package serves, and ends when its stdin does.
    proc = _worker(SRC, pool._PACKAGE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


UNGUARDED = """
import dataclasses
from irsmimo import harness
cfg = dataclasses.replace(harness.DESK_PRESET, algorithm="perfect_csi",
                          trials=114)
records, failures = harness.sweep(cfg, workers=2)
print(len(records), failures)
"""


@pytest.mark.parametrize("as_file", [False, True], ids=["-c", "script"])
def test_unguarded_script_runs_a_pooled_sweep(tmp_path, as_file):
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED, encoding="utf-8")
    args = [str(script)] if as_file else ["-c", UNGUARDED]
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "114 0\n"


def test_cli_workers_flag(tmp_path, capsys, started, monkeypatch):
    cfg = _desk_chunks("random_phase_baseline", monkeypatch)
    path = tmp_path / "rp.cfg"
    path.write_text(harness.config_text(cfg), encoding="utf-8")
    outs = [tmp_path / f"w{n}.csv" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--workers", str(n)]) == 0
    assert len(started) == 2
    assert outs[0].read_bytes() == outs[1].read_bytes()
    for bad in ("0", "-2", "two"):
        assert main(["sweep", "--config", str(path), "--out",
                     str(tmp_path / "bad.csv"), "--workers", bad]) == 1
        assert "--workers" in capsys.readouterr().err
