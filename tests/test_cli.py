"""Tests for the command-line front end (exit codes and outputs)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import irsmimo
from irsmimo import harness
from irsmimo.cli import main

FAST_TRIAL = """
algorithm = perfect_csi
sweep_axis = SNR
sweep_values = 10
t = 0
n_bs = 16
n_ue = 8
m_y = 4
m_z = 4
g_bs = 16
g_ue = 8
g_y = 4
g_z = 4
k_true = 2
on_grid = true
trials = 2
"""

SWEEP_CS = """
algorithm = cs_est
t = 20
t1 = 8
trials = 2
sweep_values = 20
n_bs = 16
n_ue = 8
m_y = 4
m_z = 4
g_bs = 16
g_ue = 8
g_y = 4
g_z = 4
k_true = 2
on_grid = true
"""

K_HAT_SWEEP = """
algorithm = perfect_csi
sweep_axis = K_hat
sweep_values = 2,3
trials = 2
t = 20
n_bs = 16
n_ue = 8
m_y = 4
m_z = 4
g_bs = 16
g_ue = 8
g_y = 4
g_z = 4
k_true = 2
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _break_paths(monkeypatch):
    """Fault injector: every path draw raises."""
    def broken(*args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(harness, "sample_paths", broken)


class TestSimulate:
    def test_prints_header_and_record(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "trial.cfg", FAST_TRIAL)
        assert main(["simulate", "--config", cfg_path, "--seed", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == harness.CSV_HEADER
        rec = harness.parse_csv("\n".join(out) + "\n")[0]
        assert rec.seed == 1 and rec.algorithm == "perfect_csi"

    def test_point_out_of_range(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "trial.cfg", FAST_TRIAL)
        assert main(["simulate", "--config", cfg_path, "--point", "5"]) == 1

    def test_failing_trial_exits_two(self, tmp_path, capsys, monkeypatch):
        cfg_path = _write(tmp_path, "bad.cfg", SWEEP_CS)
        _break_paths(monkeypatch)
        assert main(["simulate", "--config", cfg_path]) == 2
        assert "trial failed" in capsys.readouterr().err


class TestSweep:
    def test_writes_deterministic_csv_and_summary(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "sweep.cfg", SWEEP_CS)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(out2)]) == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        assert data.startswith(harness.CSV_HEADER.encode())
        assert b"\r" not in data
        records = harness.parse_csv(data.decode())
        assert len(records) == 2
        assert "median nmse" in capsys.readouterr().out

    def test_summary_line_per_sweep_point(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "k_hat.cfg", K_HAT_SWEEP)
        out = tmp_path / "k_hat.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == \
            ["perfect_csi K_hat=2", "perfect_csi K_hat=3"]
        assert all(line.endswith("(2 ok)") for line in lines)

    def test_trial_failures_exit_two_with_nan_rows(self, tmp_path, capsys,
                                                   monkeypatch):
        cfg_path = _write(tmp_path, "bad.cfg", SWEEP_CS)
        _break_paths(monkeypatch)
        out = tmp_path / "fail.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--workers", "1"]) == 2
        assert "nan" in out.read_text()
        assert "failed" in capsys.readouterr().err


class TestConfigErrors:
    def test_unparseable_config(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "broken.cfg", "algorithm = genie\n")
        assert main(["simulate", "--config", cfg_path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["simulate", "--config", missing]) == 1

    @pytest.mark.parametrize("command", [["simulate"],
                                         ["sweep", "--out", "x.csv"]])
    def test_unreadable_config(self, tmp_path, capsys, command):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"\xff\xfe")
        for path in (str(tmp_path), str(binary)):
            args = command[:1] + ["--config", path] + command[1:]
            assert main(args) == 1
            assert "config error" in capsys.readouterr().err

    def test_sweep_output_not_writable_fails_before_running(
            self, tmp_path, capsys, monkeypatch):
        cfg_path = _write(tmp_path, "trial.cfg", FAST_TRIAL)
        monkeypatch.setattr(harness, "sweep", None)  # must not be reached
        dangling = tmp_path / "dangling.csv"
        dangling.symlink_to(tmp_path / "missing" / "x.csv")
        # The last two fail even when the tests run as root: a 300-character
        # name (ENAMETOOLONG), and a link into a missing directory.
        for out in (tmp_path / "missing" / "x.csv", tmp_path,
                    tmp_path / ("x" * 300 + ".csv"), dangling):
            assert main(["sweep", "--config", cfg_path,
                         "--out", str(out)]) == 1
            assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_negative_seed(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "trial.cfg", FAST_TRIAL)
        assert main(["simulate", "--config", cfg_path, "--seed", "-1"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_usage_errors(self, capsys):
        assert main(["unknown-subcommand"]) == 1
        assert main(["sweep"]) == 1
        assert main(["preset", "--name", "galactic-scale"]) == 1


class TestPreset:
    @pytest.mark.parametrize("name", sorted(harness.PRESETS))
    def test_output_parses_back_to_preset(self, name, capsys):
        assert main(["preset", "--name", name]) == 0
        text = capsys.readouterr().out
        assert harness.parse_config(text) == harness.PRESETS[name]


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == 7

    def test_passes_without_scipy(self):
        # None in sys.modules makes every `import scipy` raise ImportError.
        code = ("import sys; sys.modules['scipy'] = None; "
                "from irsmimo.cli import main; sys.exit(main(['selftest']))")
        src = str(Path(irsmimo.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("[PASS]") == 7
