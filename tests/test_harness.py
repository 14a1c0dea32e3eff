"""Tests for the seeded Monte-Carlo harness and its serialization."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsmimo import channel, harness
from irsmimo.channel import pathloss, sample_paths, synth_channels
from irsmimo.harness import (ALGORITHMS, CSV_HEADER, ConfigError, DESK_PRESET,
                             ExperimentConfig, PAPER_PRESET, PRESETS,
                             TrialRecord, config_text, nmse, parse_config,
                             parse_csv, pnr_to_sigma2, run_trial, summarize,
                             sweep, to_csv)
from irsmimo.wmmse import DownlinkScenario, alt_wmmse

from conftest import cgauss

SMALL_KW = dict(n_bs=16, n_ue=8, m_y=4, m_z=4, g_bs=16, g_ue=8, g_y=4,
                g_z=4, k_true=2, on_grid=True)


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        geom = cfg.geometry()
        assert (geom.n_bs, geom.n_ue, geom.m) == (16, 8, 16)

    def test_text_roundtrip(self):
        cfg = ExperimentConfig(algorithm="cs_est", sweep_axis="PNR",
                               sweep_values=(0.0, 10.0), trials=3, t1=25,
                               k_hat=4, on_grid=True, timings=True)
        assert parse_config(config_text(cfg)) == cfg

    @pytest.mark.parametrize("bad", [
        dict(algorithm="genie"), dict(sweep_axis="D"), dict(trials=0)])
    def test_construction_rejects_bad_fields(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
        with pytest.raises(ConfigError):
            dataclasses.replace(DESK_PRESET, **bad)

    def test_geometry_takes_every_geometry_field(self):
        values = dict(n_bs=5, n_ue=6, m_y=2, m_z=3, g_bs=11, g_ue=12, g_y=7,
                      g_z=9, d_bi=123.0, d_iu=4.5)
        geom = ExperimentConfig(**values).geometry()
        assert dataclasses.astuple(geom) == tuple(values.values())
        assert dataclasses.astuple(geom.unitary()) == (
            5, 6, 2, 3, 5, 6, 2, 3, 123.0, 4.5)

    def test_t_axis_ignores_base_t(self):
        # A T sweep never reads the base t; each point's T is checked.
        cfg = ExperimentConfig(t=3000)
        assert cfg._points[0].key[0] == 100
        with pytest.raises(ConfigError):
            ExperimentConfig(sweep_axis="SNR", sweep_values=(0.0,), t=3000)

    def test_comments_blanks_and_optional_fields(self):
        cfg = parse_config(
            "# comment line\n"
            "\n"
            "algorithm = cs_est   # estimator arm\n"
            "t1 = none\n"
            "k_hat = 4\n"
            "sweep_values = 50, 100\n"
            "on_grid = yes\n")
        assert cfg.algorithm == "cs_est"
        assert cfg.t1 is None
        assert cfg.k_hat == 4
        assert cfg.sweep_values == (50.0, 100.0)
        assert cfg.on_grid is True

    @pytest.mark.parametrize("text", [
        "bogus_key = 3",
        "trials", "trials = many", "timings = sometimes",
        "algorithm = genie", "sweep_axis = D",
        "sweep_values = ", "trials = 0", "threads = 0", "threads = 1",
        "k_true = 0",
        "sweep_axis = SNR\nt = 3000", "d_bi = 0",
        "sweep_values = 20.7", "sweep_axis = K_hat\nsweep_values = 2.5",
        "sweep_axis = K_hat\nsweep_values = 0",
        "sweep_values = -5", "sweep_values = 2000",
        "k_hat = 0", "k_hat = 9", "sweep_axis = K_hat\nsweep_values = 9",
        "algorithm = cs_est\ng_ue = 8\nk_hat = 9",
        "algorithm = cs_est\nsweep_values = 20\nt1 = 30",
        "algorithm = cs_est\nt1 = 0", "n_s = 9", "n_s = 0",
        "algorithm = cs_est\npnr_db = nan",
        "sweep_axis = SNR\nsweep_values = nan",
        "sweep_axis = SNR\nsweep_values = inf",
        "algorithm = mo_est\neps_inner = 0", "algorithm = mo_est\nmu_g = -1",
        "algorithm = cs_est\np_tr = 0", "d_iu = nan",
        "algorithm = perfect_csi\nmaster_seed = -1",
        "algorithm = perfect_csi\nk_true = 9",
        "algorithm = perfect_csi\neps3 = -1",
        "p_tr = 1", "eps_inner = 0.001", "eps_outer = 0.001",
        "eps3 = 0.001",
        "sweep_values = 100,100", "sweep_axis = SNR\nsweep_values = 0,-0.0",
        "algorithm = cs_est\ng_bs = 8", "algorithm = cs_est\ng_y = 2",
        "sweep_axis = SNR\nsweep_values = 4000",
        "sweep_axis = SNR\nsweep_values = -4000",
        "algorithm = mo_est\nsweep_axis = PNR\nsweep_values = 4000",
        "algorithm = cs_est\npnr_db = -4000", "d_bi = 1e300",
        "algorithm = mo_est\nsweep_axis = PNR\nt = 0",
        # An estimator needs a training slot on the T axis too.
        "algorithm = mo_est\nsweep_values = 0",
        "algorithm = cs_est\nsweep_values = 0,20",
        # cs_est resolves at most min(n_bs, n_ue, t1) paths.
        "algorithm = cs_est\nsweep_axis = K_hat\nsweep_values = 9",
        "algorithm = cs_est\nsweep_axis = K_hat\nsweep_values = 16",
        "algorithm = cs_est\nsweep_axis = K_hat\nsweep_values = 17",
        "algorithm = cs_est\nsweep_axis = K_hat\nsweep_values = 26",
        "algorithm = cs_est\nt1 = 7\nk_hat = 8",
        "algorithm = cs_est\nt1 = 6\nk_hat = 7",
        "algorithm = cs_est\nn_bs = 8\nn_ue = 16\nk_hat = 9",
        "algorithm = cs_est\nsweep_values = 8,20",
        # On grid, an axis of n antennas on a g-point grid holds at most
        # g // ceil(g / n) paths one orthogonality period apart.
        "algorithm = perfect_csi\non_grid = true\ng_bs = 2",
        "algorithm = cs_est\non_grid = true\ng_ue = 9\nk_true = 8\nk_hat = 3",
    ])
    def test_bad_configs_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "t1 = 8\nk_hat = 8", "t1 = 6\nk_hat = 6",
        "n_bs = 8\nn_ue = 16\nk_hat = 8"])
    def test_cs_est_at_its_path_limit_runs(self, text):
        cfg = parse_config(f"algorithm = cs_est\n{text}\n")
        assert math.isfinite(run_trial(cfg, 0, 0).nmse)

    def test_presets(self):
        assert PRESETS == {"desk-scale": DESK_PRESET,
                           "paper-scale": PAPER_PRESET}
        geom = PAPER_PRESET.geometry()
        assert (geom.n_bs, geom.n_ue, geom.m) == (36, 16, 36)
        assert PAPER_PRESET.trials == 100


class TestMetrics:
    def test_pnr_definition_at_zero_db(self):
        assert pnr_to_sigma2(0.0, 150.0, 10.0) == pytest.approx(
            pathloss(150.0) * pathloss(10.0), rel=1e-15)

    def test_ten_db_divides_noise_by_ten(self):
        lo = pnr_to_sigma2(0.0, 150.0, 10.0)
        hi = pnr_to_sigma2(10.0, 150.0, 10.0)
        assert lo / hi == pytest.approx(10.0, rel=1e-12)

    def test_distances_checked(self):
        with pytest.raises(ValueError):
            pnr_to_sigma2(0.0, 0.0, 10.0)

    def test_nmse_reference_points(self):
        rng = np.random.default_rng(0)
        h = cgauss(rng, (6, 4))
        assert nmse(h, h) == 0.0
        assert nmse(h, np.zeros_like(h)) == pytest.approx(1.0)
        assert nmse(h, 2 * h) == pytest.approx(1.0)

    def test_nmse_input_checks(self):
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="shape"):
            nmse(h, np.ones((2, 3), dtype=complex))
        with pytest.raises(ValueError, match="zero"):
            nmse(np.zeros_like(h), h)


class TestCsv:
    RECORDS = [
        TrialRecord(0, "mo_est", 100, 0.0, 10.0, 3, 0.25, 12.5, 7, 0.0),
        TrialRecord(1, "cs_est", 60, -5.0, 7.5, 4, 1e-11, 3.25, 6, 1.5),
    ]

    def test_row_format(self):
        assert self.RECORDS[0].to_csv_row() == \
            "0,mo_est,100,0.0,10.0,3,0.25,12.5,7,0.0"

    def test_header_has_one_column_per_field(self):
        assert len(CSV_HEADER.split(",")) == \
            len(dataclasses.fields(TrialRecord))

    def test_header_and_lf_endings(self):
        text = to_csv(self.RECORDS)
        assert text.startswith(CSV_HEADER + "\n")
        assert "\r" not in text
        assert text.endswith("\n")
        assert len(text.split("\n")) == 4

    def test_roundtrip_exact(self):
        assert parse_csv(to_csv(self.RECORDS)) == self.RECORDS

    def test_record_has_slots_and_pickles(self):
        # A pooled sweep's parent holds every record it unpickles; slots
        # keep each one free of an instance dict.
        rec = self.RECORDS[1]
        assert not hasattr(rec, "__dict__")
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and back.to_csv_row() == rec.to_csv_row()
        assert dataclasses.replace(back, wall_ms=0.0).to_csv_row() == \
            "1,cs_est,60,-5.0,7.5,4,1e-11,3.25,6,0.0"
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.seed = 2

    def test_header_validated(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv("wrong,header\n1,2\n")

    @pytest.mark.parametrize("row", [
        "0,mo_est,100,0.0,10.0,3,0.25,12.5,7,0.0,extra",
        "0,mo_est,100,0.0,10.0,0.25,12.5",
    ])
    def test_row_field_count_validated(self, row):
        text = to_csv(self.RECORDS) + row + "\n"
        with pytest.raises(ValueError, match="line 4"):
            parse_csv(text)

    def test_summarize_groups_and_skips_failures(self):
        nan = float("nan")
        recs = [
            TrialRecord(0, "mo_est", 100, 0.0, 10.0, 3, 0.2, 10.0, 5, 0.0),
            TrialRecord(1, "mo_est", 100, 0.0, 10.0, 3, 0.4, 12.0, 5, 0.0),
            TrialRecord(2, "mo_est", 100, 0.0, 10.0, 3, nan, nan, 0, 0.0),
            TrialRecord(0, "mo_est", 150, 0.0, 10.0, 3, 0.1, 11.0, 5, 0.0),
        ]
        rows = summarize(recs)
        assert [row["t"] for row in rows] == [100, 150]
        first = rows[0]
        assert first["n"] == 2
        assert first["median_nmse"] == pytest.approx(0.3)
        assert first["mean_se"] == pytest.approx(11.0)
        assert rows[1]["median_nmse"] == pytest.approx(0.1)


def _assert_matches_direct_pipeline(algorithm, optimize_v, t, monkeypatch):
    """A CSI-free row equals the pipeline run on the children of
    SeedSequence(master_seed, spawn_key=(point, seed)).spawn(4), with the
    beamformer designed on the channel factors. The row never forms a
    cascaded channel, and with t > 0 the arm must still not simulate the
    uplink it would discard."""
    cfg = ExperimentConfig(algorithm=algorithm, sweep_axis="SNR",
                           sweep_values=(10.0,), t=t, **SMALL_KW)
    monkeypatch.setattr(channel, "cascaded", _raise)
    if t > 0:
        monkeypatch.setattr(harness, "simulate_uplink", _raise)
    rec = run_trial(cfg, 0, 5)
    ss = np.random.SeedSequence(cfg.master_seed, spawn_key=(0, 5))
    rng_chan, _, _, rng_bf = [np.random.default_rng(c)
                              for c in ss.spawn(4)]
    geom = cfg.geometry()
    ch = synth_channels(geom, sample_paths(geom, cfg.k_true, rng_chan,
                                           on_grid=True))
    sigma2_d = pnr_to_sigma2(10.0, cfg.d_bi, cfg.d_iu)
    scen = DownlinkScenario(geom, sigma2_d, cfg.n_s, t, cfg.t_tot)
    sol = alt_wmmse(scen, ch, rng_bf, optimize_v=optimize_v)
    assert rec.se_bits_s_hz == sol.se
    assert rec.nmse == 0.0
    assert rec.outer_iters == sol.iterations
    assert rec.t == t and rec.snr_db == 10.0


class TestRunTrial:
    def test_deterministic_records(self):
        cfg = ExperimentConfig(algorithm="cs_est", t=20, t1=8,
                               sweep_values=(20.0,), **SMALL_KW)
        assert run_trial(cfg, 0, 3) == run_trial(cfg, 0, 3)

    def test_perfect_csi_without_training_matches_direct_pipeline(
            self, monkeypatch):
        _assert_matches_direct_pipeline("perfect_csi", True, 0, monkeypatch)

    def test_random_phase_without_training_matches_direct_pipeline(
            self, monkeypatch):
        _assert_matches_direct_pipeline("random_phase_baseline", False, 0,
                                        monkeypatch)

    @pytest.mark.parametrize("algorithm, optimize_v", [
        ("perfect_csi", True), ("random_phase_baseline", False)])
    def test_csi_free_arm_with_training_skips_the_uplink(
            self, algorithm, optimize_v, monkeypatch):
        _assert_matches_direct_pipeline(algorithm, optimize_v, 30,
                                        monkeypatch)

    def test_estimator_arm_simulates_one_uplink_per_trial(self, monkeypatch):
        real, calls = harness.simulate_uplink, []

        def counted(*args):
            calls.append(_seed_of(args[-1]))
            return real(*args)

        monkeypatch.setattr(harness, "simulate_uplink", counted)
        cfg = ExperimentConfig(algorithm="cs_est", t=20, t1=8, trials=3,
                               sweep_values=(20.0,), **SMALL_KW)
        sweep(cfg, workers=1)
        assert calls == [0, 1, 2]

    @pytest.mark.parametrize("master_seed, point, seed", [
        (0, 0, 0), (0, 2, 5), (7, 1, 36), (2 ** 40 + 3, 4, 99)])
    def test_keyed_children_equal_spawned_children(self, master_seed, point,
                                                   seed):
        kids = np.random.SeedSequence(
            master_seed, spawn_key=(point, seed)).spawn(4)
        for k, kid in enumerate(kids):
            keyed = np.random.SeedSequence(master_seed,
                                           spawn_key=(point, seed, k))
            assert np.array_equal(
                np.random.default_rng(keyed).standard_normal(16),
                np.random.default_rng(kid).standard_normal(16))

    def test_sweep_axes_apply_to_columns(self):
        base = dict(algorithm="perfect_csi", t=0, **SMALL_KW)
        rec = run_trial(ExperimentConfig(sweep_axis="T",
                                         sweep_values=(30.0,), **base), 0, 0)
        assert rec.t == 30
        rec = run_trial(ExperimentConfig(sweep_axis="PNR",
                                         sweep_values=(-5.0,), t=0,
                                         **SMALL_KW,
                                         algorithm="perfect_csi"), 0, 0)
        assert rec.pnr_db == -5.0

    def test_walltime_column_gated_by_timings(self):
        cfg = ExperimentConfig(algorithm="perfect_csi", sweep_axis="SNR",
                               sweep_values=(10.0,), t=0, **SMALL_KW)
        assert run_trial(cfg, 0, 0).wall_ms == 0.0
        timed = dataclasses.replace(cfg, timings=True)
        assert run_trial(timed, 0, 0).wall_ms > 0.0

    @pytest.mark.parametrize("point", [-1, 2])
    def test_point_outside_sweep_values_rejected(self, point):
        cfg = ExperimentConfig(algorithm="perfect_csi", sweep_axis="SNR",
                               sweep_values=(0.0, 10.0), t=0, **SMALL_KW)
        with pytest.raises(ValueError, match="outside sweep_values"):
            run_trial(cfg, point, 0)

    def test_oracle_arm_dominates_with_slack(self):
        base = dict(t=60, t1=15, pnr_db=20.0, snr_db=10.0,
                    sweep_values=(60.0,), **SMALL_KW)
        arms = {alg: [run_trial(ExperimentConfig(algorithm=alg, **base),
                                0, s) for s in range(10)]
                for alg in ("perfect_csi", "mo_est", "cs_est",
                            "random_phase_baseline")}
        rp_wins = 0
        for s in range(10):
            oracle = arms["perfect_csi"][s].se_bits_s_hz
            for alg in ("mo_est", "cs_est"):
                assert oracle >= 0.995 * arms[alg][s].se_bits_s_hz
            rp_wins += arms["random_phase_baseline"][s].se_bits_s_hz <= oracle
            assert arms["mo_est"][s].nmse > 0
            assert arms["random_phase_baseline"][s].nmse == 0.0
        assert rp_wins >= 9


class TestBlasThreads:
    CFG = ExperimentConfig(algorithm="perfect_csi", trials=2)

    def test_chunk_runs_at_one_thread_and_restores_the_callers(
            self, two_blas_threads, monkeypatch):
        real, seen = harness.alt_wmmse, []

        def spy(*args, **kwargs):
            seen.append(two_blas_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "alt_wmmse", spy)
        harness._run_chunk(self.CFG, self.CFG._points[0], [0, 1])
        assert seen == [1] and two_blas_threads() == 2

    def test_raising_chunk_restores_the_callers_threads(
            self, two_blas_threads, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "alt_wmmse", boom)
        with pytest.raises(RuntimeError, match="boom"):
            harness._run_chunk(self.CFG, self.CFG._points[0], [0, 1])
        assert two_blas_threads() == 2


class TestSweep:
    def test_single_point_single_trial(self):
        cfg = ExperimentConfig(algorithm="perfect_csi", sweep_axis="SNR",
                               sweep_values=(10.0,), t=0, trials=1,
                               **SMALL_KW)
        records, failures = sweep(cfg)
        assert failures == 0
        assert len(records) == 1
        assert to_csv(records).count("\n") == 2

    def test_point_major_seed_minor_order(self):
        cfg = ExperimentConfig(algorithm="perfect_csi", sweep_axis="T",
                               sweep_values=(0.0, 5.0), t=0, trials=2,
                               **SMALL_KW)
        records, _ = sweep(cfg)
        assert [(r.t, r.seed) for r in records] == \
            [(0, 0), (0, 1), (5, 0), (5, 1)]

    def test_failed_trials_become_nan_rows(self, monkeypatch):
        cfg = ExperimentConfig(algorithm="mo_est", sweep_values=(20.0,),
                               trials=2, **SMALL_KW)
        monkeypatch.setattr(harness, "sample_paths", _raise)
        records, failures = sweep(cfg, workers=1)
        assert failures == 2
        assert all(math.isnan(r.nmse) and math.isnan(r.se_bits_s_hz)
                   for r in records)
        assert [r.seed for r in records] == [0, 1]
        reparsed = parse_csv(to_csv(records))
        assert all(math.isnan(r.nmse) for r in reparsed)
        assert [(r.t, r.k_hat) for r in reparsed] == [(20, 2), (20, 2)]

    def test_summarize_keeps_k_hat_points_apart(self):
        cfg = ExperimentConfig(algorithm="perfect_csi", sweep_axis="K_hat",
                               sweep_values=(2.0, 3.0), t=0, trials=2,
                               **SMALL_KW)
        records, _ = sweep(cfg)
        rows = summarize(records)
        assert [row["k_hat"] for row in rows] == [2, 3]
        assert [row["n"] for row in rows] == [2, 2]

    def test_sparse_estimator_error_floor_flattens_at_high_pnr(self):
        cfg = ExperimentConfig(algorithm="cs_est", sweep_axis="PNR",
                               sweep_values=(-10.0, 30.0, 50.0),
                               trials=12, t=100, k_true=2)
        records, failures = sweep(cfg)
        assert failures == 0
        rows = {row["pnr_db"]: row for row in summarize(records)}
        assert rows[30.0]["median_nmse"] < rows[-10.0]["median_nmse"]
        assert rows[50.0]["median_nmse"] > 0.5 * rows[30.0]["median_nmse"]


def _seed_of(rng: np.random.Generator) -> int:
    """The trial index a run_trial child generator was spawned for."""
    return rng.bit_generator.seed_seq.spawn_key[1]


def _raise(*args, **kwargs):
    raise RuntimeError("injected")


def _nan_gains(paths):
    # A nan channel makes the stacked SVD of alt_wmmse's start raise.
    return dataclasses.replace(paths, alpha=np.full_like(paths.alpha, np.nan))


def _break_paths(bad):
    """Fault injector: `bad` rewrites the paths that seed 2 draws."""
    def inject(monkeypatch):
        real = harness.sample_paths

        def flaky(geom, k, rng, on_grid=False):
            paths = real(geom, k, rng, on_grid=on_grid)
            return bad(paths) if _seed_of(rng) == 2 else paths

        monkeypatch.setattr(harness, "sample_paths", flaky)
    return inject


def _break_cs_est(monkeypatch):
    """Fault injector: cs_est raises on the pilots of seed 2, which
    simulate_uplink records by the block's id."""
    real_uplink, real_cs_est = harness.simulate_uplink, harness.cs_est
    seed_of_block = {}

    def tagged(ch, s, v, sigma2, rng):
        pilots = real_uplink(ch, s, v, sigma2, rng)
        seed_of_block[id(pilots)] = _seed_of(rng)
        return pilots

    def flaky(pilots, dicts, cfg):
        if seed_of_block[id(pilots)] == 2:
            raise RuntimeError("injected")
        return real_cs_est(pilots, dicts, cfg)

    monkeypatch.setattr(harness, "simulate_uplink", tagged)
    monkeypatch.setattr(harness, "cs_est", flaky)


class TestChunks:
    BASE = dict(t=20, t1=8, sweep_values=(20.0,), **SMALL_KW)

    def test_chunk_size_follows_array_size(self):
        sizes = {alg: harness._chunk_size(
                     dataclasses.replace(DESK_PRESET, algorithm=alg))
                 for alg in ALGORITHMS}
        assert sizes == {"mo_est": 23, "cs_est": 85, "perfect_csi": 113,
                         "random_phase_baseline": 113}
        # Paper scale: no arm stacks a cascaded channel; mo_est's stacked
        # training block bounds it most, at the config's largest T.
        paper = {alg: harness._chunk_size(
                     dataclasses.replace(PAPER_PRESET, algorithm=alg,
                                         sweep_values=(300.0,)))
                 for alg in ALGORITHMS}
        assert paper == {"mo_est": 3, "cs_est": 18, "perfect_csi": 24,
                         "random_phase_baseline": 24}
        assert harness._chunk_size(PAPER_PRESET) == 2
        assert harness._chunk_size(dataclasses.replace(
            DESK_PRESET, sweep_values=(100.0, 500.0))) == 6

    @given(points=st.integers(1, 6), trials=st.integers(1, 300),
           size=st.integers(1, 150), workers=st.integers(1, 8))
    @settings(deadline=None, max_examples=300)
    def test_plan(self, points, trials, size, workers):
        chunks = harness._plan(points, trials, size, workers)
        # Every (point, seed) once, in sweep order.
        assert [(p, s) for p, seeds in chunks for s in seeds] == \
            [(p, s) for p in range(points) for s in range(trials)]
        fewest = -(-trials // size)
        k = len(chunks) // points
        for p in range(points):
            sizes = [len(seeds) for q, seeds in chunks if q == p]
            assert len(sizes) == k
            assert 1 <= min(sizes) and max(sizes) <= min(size, min(sizes) + 1)
        # A one-chunk sweep stays one chunk; otherwise the fewest runs
        # per point that make the chunk count a multiple of the workers,
        # or the fewest runs if no count up to `trials` does.
        if points * fewest == 1:
            assert len(chunks) == 1
        else:
            fits = [j for j in range(fewest, trials + 1)
                    if points * j % workers == 0]
            assert k == (fits[0] if fits else fewest)
            if fits:
                assert len(chunks) % workers == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_chunked_sweep_equals_single_trials(self, algorithm,
                                                monkeypatch):
        # Chunks of 2, 2 and 3 trials.
        monkeypatch.setattr(harness, "_chunk_size", lambda cfg: 3)
        cfg = ExperimentConfig(algorithm=algorithm, trials=7, **self.BASE)
        assert [len(seeds) for _, seeds in harness._plan(1, 7, 3, 1)] == \
            [2, 2, 3]
        records, failures = sweep(cfg, workers=1)
        assert failures == 0
        assert to_csv(records) == to_csv([run_trial(cfg, 0, seed)
                                          for seed in range(cfg.trials)])

    # One chunk of the most trials _chunk_size allows. mo_est runs at
    # T = 100: a chunk's stacked (23, 16, 100) complex training products
    # then take 575 KiB, above the 256 KiB at which numpy elides
    # temporaries and computes `a * (b @ c)` in place as `(b @ c) * a`,
    # which rounds differently. At 20 dB about 38% of desk trials hit
    # alt_wmmse's round cap, so rows leave the stacked circle CG at
    # different rounds.
    @pytest.mark.parametrize("algorithm, desk_snr_db", [
        pytest.param(alg, None, id=alg)
        for alg in ("perfect_csi", "random_phase_baseline", "mo_est")] + [
        pytest.param("perfect_csi", 20.0, id="perfect_csi-desk-20dB")])
    def test_full_chunks_equal_single_trials(self, algorithm, desk_snr_db):
        t = 100 if algorithm == "mo_est" else 20
        cfg = ExperimentConfig(**dict(self.BASE, algorithm=algorithm,
                                      t=t, sweep_values=(t,)))
        if desk_snr_db is not None:
            cfg = dataclasses.replace(DESK_PRESET, algorithm=algorithm,
                                      sweep_axis="SNR",
                                      sweep_values=(desk_snr_db,))
        cfg = dataclasses.replace(cfg, trials=harness._chunk_size(cfg))
        assert cfg.trials == (23 if algorithm == "mo_est" else 113)
        records, _ = sweep(cfg)
        assert to_csv(records) == to_csv([run_trial(cfg, 0, seed)
                                          for seed in range(cfg.trials)])

    # A full paper chunk stacks (18, 36, 36) complex g factors, 373 KB, or
    # more, above the 256 KiB at which numpy elides temporaries (see
    # test_full_chunks_equal_single_trials).
    @pytest.mark.parametrize("algorithm, chunk", [("perfect_csi", 24),
                                                  ("cs_est", 18)])
    def test_paper_chunks_equal_single_trials(self, algorithm, chunk):
        # One full chunk.
        cfg = dataclasses.replace(PAPER_PRESET, algorithm=algorithm,
                                  sweep_values=(100.0,), t=100,
                                  trials=chunk)
        assert harness._chunk_size(cfg) == chunk
        records, failures = sweep(cfg)
        assert failures == 0
        assert to_csv(records) == to_csv([run_trial(cfg, 0, seed)
                                          for seed in range(cfg.trials)])

    @pytest.mark.parametrize("algorithm", ["perfect_csi",
                                           "random_phase_baseline"])
    def test_csi_free_chunks_form_no_cascaded_channel(self, algorithm,
                                                      monkeypatch):
        cfg = dataclasses.replace(PAPER_PRESET, algorithm=algorithm,
                                  sweep_axis="SNR", sweep_values=(10.0,),
                                  trials=3)
        clean, _ = sweep(cfg, workers=1)
        monkeypatch.setattr(channel, "cascaded", _raise)
        records, failures = sweep(cfg, workers=1)
        assert failures == 0
        assert to_csv(records) == to_csv(clean)

    def test_estimator_nmse_forms_one_dense_pair_per_trial(self,
                                                           monkeypatch):
        real, ndims = channel.cascaded, []

        def counted(ch):
            ndims.append(ch.g.ndim)
            return real(ch)

        monkeypatch.setattr(channel, "cascaded", counted)
        cfg = ExperimentConfig(algorithm="cs_est", trials=3, **self.BASE)
        assert sweep(cfg, workers=1)[1] == 0
        # The true channel and the estimate of each trial, never a stack.
        assert ndims == [2] * 6

    @pytest.fixture
    def calls(self, monkeypatch):
        """The geometries harness.build_dictionaries is called with."""
        real, calls = harness.build_dictionaries, []

        def counted(geom):
            calls.append(geom)
            return real(geom)

        monkeypatch.setattr(harness, "build_dictionaries", counted)
        return calls

    def test_point_built_once_for_all_chunks(self, calls):
        counts = []
        # 86 trials run in two chunks, 43 and 43, one more than the 85
        # that fit in one. The config built its one point, so the sweep
        # builds nothing.
        for trials in (1, 86):
            calls.clear()
            cfg = dataclasses.replace(DESK_PRESET, algorithm="cs_est",
                                      sweep_values=(20.0,), trials=trials)
            assert len(calls) == 1
            calls.clear()
            assert sweep(cfg, workers=1)[1] == 0
            counts.append(len(calls))
        assert harness._chunk_size(cfg) == 85
        assert counts[0] == counts[1] == 0

    @pytest.mark.parametrize("algorithm, builds", [
        ("mo_est", 1), ("cs_est", 1), ("perfect_csi", 0),
        ("random_phase_baseline", 0)])
    def test_points_share_one_dictionary_set(self, calls, algorithm, builds):
        cfg = dataclasses.replace(DESK_PRESET, algorithm=algorithm,
                                  sweep_values=(20.0, 60.0, 100.0))
        assert len(calls) == builds
        dicts = {id(p.dicts) for p in cfg._points}
        assert len(cfg._points) == 3 and len(dicts) == 1
        assert (cfg._points[0].dicts is None) == (builds == 0)
        if algorithm == "mo_est":
            assert cfg._points[0].dicts.unitary

    def test_timed_rows_share_their_chunk_time(self, monkeypatch):
        # Chunks of 2 and 3 trials.
        monkeypatch.setattr(harness, "_chunk_size", lambda cfg: 3)
        cfg = ExperimentConfig(algorithm="random_phase_baseline", trials=5,
                               timings=True, **self.BASE)
        walls = [r.wall_ms for r in sweep(cfg, workers=1)[0]]
        assert len(set(walls[:2])) == 1 and walls[0] > 0.0
        assert len(set(walls[2:])) == 1 and walls[2] > 0.0

    @pytest.mark.parametrize("algorithm, inject", [
        ("perfect_csi", _break_paths(_raise)),
        ("perfect_csi", _break_paths(_nan_gains)),
        ("cs_est", _break_cs_est)],
        ids=["per-trial step", "stacked step", "estimator"])
    def test_failure_mid_chunk_is_one_nan_row(self, algorithm, inject,
                                              monkeypatch):
        cfg = ExperimentConfig(algorithm=algorithm, trials=5, **self.BASE)
        assert harness._chunk_size(cfg) >= cfg.trials
        clean, _ = sweep(cfg, workers=1)
        inject(monkeypatch)
        records, failures = sweep(cfg, workers=1)
        assert failures == 1
        assert math.isnan(records[2].se_bits_s_hz)
        assert [r.seed for r in records] == list(range(5))
        assert to_csv(records[:2] + records[3:]) == \
            to_csv(clean[:2] + clean[3:])
        with pytest.raises((RuntimeError, np.linalg.LinAlgError)):
            run_trial(cfg, 0, 2)

    def test_rerun_rows_carry_their_own_wall_time(self, monkeypatch):
        cfg = ExperimentConfig(algorithm="perfect_csi", trials=5,
                               timings=True, **self.BASE)
        _break_paths(_raise)(monkeypatch)
        records, failures = sweep(cfg, workers=1)
        assert failures == 1
        assert math.isnan(records[2].nmse) and records[2].wall_ms == 0.0
        assert all(r.wall_ms > 0.0 for r in records[:2] + records[3:])
