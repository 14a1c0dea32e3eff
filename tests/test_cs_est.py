"""Tests for the three-stage greedy sparse channel estimator."""

import itertools
import tracemalloc

import numpy as np
import pytest

from irsmimo.channel import (PilotBlock, SystemGeometry, _grid,
                             build_dictionaries, make_pilots, sample_paths,
                             simulate_uplink, synth_channels)
from irsmimo.cs_est import (CsEstConfig, KronSensing, cs_est, omp_mmv,
                            permutation_l, resolve_t1, stage1_ue_aods,
                            stage2_bs_aoas, stage3_gains)
from irsmimo.harness import nmse
from irsmimo.numerics import mat

from conftest import cgauss


def _grid_index(u, g):
    return int(round((u + 1) * g / 2)) % g


def _residual(theta, obs, res):
    """The OMP residual, formed from the selected columns."""
    return obs.reshape(len(obs), -1) - theta[:, res.support] @ res.coeffs


def _on_grid_trial(geom, k, seed, t=60, hold=None):
    rng = np.random.default_rng(seed)
    paths = sample_paths(geom, k, rng, on_grid=True)
    ch = synth_channels(geom, paths)
    s, v = make_pilots(geom, t, rng, hold_v=hold if hold is not None else 0)
    pil = simulate_uplink(ch, s, v, 0.0, rng)
    return paths, ch, pil


class TestOmp:
    def test_orthonormal_single_atom(self):
        theta = np.eye(4, dtype=complex)
        obs = 5.0 * np.eye(4, dtype=complex)[:, 2]
        res = omp_mmv(theta, obs, 1)
        assert res.support == [2]
        assert res.coeffs[0, 0] == pytest.approx(5.0)
        assert np.linalg.norm(_residual(theta, obs, res)) < 1e-12

    def test_square_invertible_full_selection_zero_residual(self):
        rng = np.random.default_rng(0)
        theta = cgauss(rng, (5, 5))
        obs = cgauss(rng, (5, 2))
        res = omp_mmv(theta, obs, 5)
        assert sorted(res.support) == list(range(5))
        assert np.linalg.norm(_residual(theta, obs, res)) < 1e-10

    def test_matches_exhaustive_subset_search(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            theta = np.exp(2j * np.pi * rng.random((8, 16))) / np.sqrt(8)
            sup_true = sorted(rng.choice(16, 2, replace=False))
            x = np.zeros((16, 4), dtype=complex)
            x[sup_true] = cgauss(rng, (2, 4))
            obs = theta @ x
            res = omp_mmv(theta, obs, 2)
            best, best_err = None, np.inf
            for pair in itertools.combinations(range(16), 2):
                sel = theta[:, pair]
                c, *_ = np.linalg.lstsq(sel, obs, rcond=None)
                err = np.linalg.norm(obs - sel @ c)
                if err < best_err - 1e-12:
                    best_err, best = err, pair
            if sorted(res.support) == sorted(best) == sup_true:
                hits += 1
        assert hits >= 99

    def test_residual_trace_non_increasing_support_distinct(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            theta = cgauss(rng, (10, 24))
            obs = cgauss(rng, (10, 3))
            res = omp_mmv(theta, obs, 6)
            assert len(res.res_trace) == 7
            assert res.res_trace[0] == pytest.approx(np.linalg.norm(obs))
            for before, after in zip(res.res_trace, res.res_trace[1:]):
                assert after <= before + 1e-12
            assert len(set(res.support)) == 6

    def test_residual_trace_equals_formed_residual_norms(self):
        # res_trace comes from ||obs||^2 - Re sum(conj(C) * psi0[S]), which
        # holds at the least-squares optimum; here every residual keeps a
        # sizeable share of the observation, so the cancellation is mild.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            theta = cgauss(rng, (40, 60))
            obs = cgauss(rng, (40, 3))
            res = omp_mmv(theta, obs, 6)
            norms = [np.linalg.norm(obs)]
            for j in range(1, 7):
                sel = theta[:, res.support[:j]]
                c = np.linalg.solve(sel.conj().T @ sel, sel.conj().T @ obs)
                norms.append(np.linalg.norm(obs - sel @ c))
            np.testing.assert_allclose(res.res_trace, norms, rtol=1e-12,
                                       atol=0)

    def test_ties_break_to_lowest_index(self):
        theta = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        obs = np.array([1.0, 0.0], dtype=complex)
        res = omp_mmv(theta, obs, 1)
        assert res.support == [0]

    def test_collinear_atoms_rejected(self):
        a = np.array([1.0, 1j, -1.0], dtype=complex) / np.sqrt(3)
        theta = np.stack([a, a], axis=1)
        obs = 2.0 * a
        with pytest.raises(np.linalg.LinAlgError, match="collinear"):
            omp_mmv(theta, obs, 2)

    def test_vector_observation_promoted(self):
        rng = np.random.default_rng(1)
        theta = cgauss(rng, (6, 9))
        obs = cgauss(rng, (6,))
        res = omp_mmv(theta, obs, 2)
        assert res.coeffs.shape == (2, 1)
        assert _residual(theta, obs, res).shape == (6, 1)

    def test_argument_validation(self):
        theta = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="row counts"):
            omp_mmv(theta, np.zeros((4, 1), dtype=complex), 1)
        with pytest.raises(ValueError, match="outside"):
            omp_mmv(theta, np.zeros((3, 1), dtype=complex), 0)
        with pytest.raises(ValueError, match="outside"):
            omp_mmv(theta, np.zeros((3, 1), dtype=complex), 4)


GEOM_UE16 = SystemGeometry(16, 8, 4, 4, 16, 16, 4, 4)
DICTS_UE16 = build_dictionaries(GEOM_UE16)


class TestStage1:
    CFG = CsEstConfig(2, 2, t1=20)

    def test_on_grid_set_equality(self):
        paths, ch, pil = _on_grid_trial(GEOM_UE16, 2, seed=0, hold=20)
        a_bar, res = stage1_ue_aods(pil, DICTS_UE16, self.CFG)
        true_idx = sorted(_grid_index(u, GEOM_UE16.g_ue) for u in paths.u_ue)
        assert sorted(res.support) == true_idx
        np.testing.assert_allclose(a_bar, DICTS_UE16.a_ue[:, res.support])

    def test_on_grid_set_equality_rate(self):
        hits = 0
        for seed in range(100):
            paths, ch, pil = _on_grid_trial(GEOM_UE16, 2, seed, hold=20)
            _, res = stage1_ue_aods(pil, DICTS_UE16, self.CFG)
            true_idx = sorted(_grid_index(u, GEOM_UE16.g_ue)
                              for u in paths.u_ue)
            hits += sorted(res.support) == true_idx
        assert hits >= 90

    def test_single_path_single_atom(self):
        paths, ch, pil = _on_grid_trial(GEOM_UE16, 1, seed=3, hold=20)
        _, res = stage1_ue_aods(pil, DICTS_UE16, CsEstConfig(2, 1, t1=20))
        assert res.support == [_grid_index(paths.u_ue[0], GEOM_UE16.g_ue)]

    def test_invariant_to_slot_order_within_held_block(self):
        paths, ch, pil = _on_grid_trial(GEOM_UE16, 2, seed=0, hold=20)
        _, res = stage1_ue_aods(pil, DICTS_UE16, self.CFG)
        perm = np.random.default_rng(9).permutation(20)
        idx = np.concatenate([perm, np.arange(20, pil.t)])
        shuffled = PilotBlock(pil.s[:, idx], pil.v[:, idx], pil.r[:, idx],
                              pil.sigma2)
        _, res_p = stage1_ue_aods(shuffled, DICTS_UE16, self.CFG)
        assert sorted(res_p.support) == sorted(res.support)

    def test_varying_reflection_during_stage1_degrades_accuracy(self):
        held = violated = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            paths = sample_paths(GEOM_UE16, 2, rng, on_grid=True)
            ch = synth_channels(GEOM_UE16, paths)
            true_idx = sorted(_grid_index(u, GEOM_UE16.g_ue)
                              for u in paths.u_ue)
            s, v = make_pilots(GEOM_UE16, 60, rng, hold_v=20)
            pil = simulate_uplink(ch, s, v, 0.0, rng)
            _, res = stage1_ue_aods(pil, DICTS_UE16, self.CFG)
            held += sorted(res.support) == true_idx
            s2, v2 = make_pilots(GEOM_UE16, 60, rng, hold_v=0)
            pil2 = simulate_uplink(ch, s2, v2, 0.0, rng)
            _, res2 = stage1_ue_aods(pil2, DICTS_UE16, self.CFG)
            violated += sorted(res2.support) == true_idx
        assert held - violated >= 10


class TestStage2:
    def test_unitary_grid_exact_set(self):
        geom = SystemGeometry()
        dicts = build_dictionaries(geom)
        for seed in range(20):
            paths, ch, pil = _on_grid_trial(geom, 2, seed, hold=15)
            _, res = stage2_bs_aoas(pil, dicts, CsEstConfig(2, 2, t1=15))
            true_idx = sorted(_grid_index(u, geom.g_bs) for u in paths.u_bs)
            assert sorted(res.support) == true_idx

    def test_single_path_returns_matching_column(self):
        geom = SystemGeometry(16, 8, 4, 4, 32, 8, 4, 4)
        dicts = build_dictionaries(geom)
        paths, ch, pil = _on_grid_trial(geom, 1, seed=4, t=40, hold=10)
        a_bar, res = stage2_bs_aoas(pil, dicts, CsEstConfig(1, 1, t1=10))
        j = _grid_index(paths.u_bs[0], geom.g_bs)
        assert res.support == [j]
        np.testing.assert_allclose(a_bar[:, 0], dicts.a_bs[:, j])

    def test_doubling_slots_never_degrades_support(self):
        geom = SystemGeometry(16, 8, 4, 4, 32, 8, 4, 4)
        dicts = build_dictionaries(geom)
        cfg = CsEstConfig(2, 2, t1=15)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            paths = sample_paths(geom, 2, rng, on_grid=True)
            ch = synth_channels(geom, paths)
            s, v = make_pilots(geom, 120, rng, hold_v=15)
            short = simulate_uplink(ch, s[:, :60], v[:, :60], 0.0, rng)
            full = simulate_uplink(ch, s, v, 0.0, rng)
            true_idx = sorted(_grid_index(u, geom.g_bs) for u in paths.u_bs)
            _, res_short = stage2_bs_aoas(short, dicts, cfg)
            _, res_full = stage2_bs_aoas(full, dicts, cfg)
            if sorted(res_short.support) == true_idx:
                assert sorted(res_full.support) == true_idx


class TestPermutation:
    def test_row_rearrangement_identity(self):
        geom = SystemGeometry(16, 8, 4, 4, 16, 8, 16, 16)
        dicts = build_dictionaries(geom)
        m = geom.m
        g_i = dicts.a_i.shape[1]
        rng = np.random.default_rng(2)
        for j in rng.choice(g_i, 5, replace=False):
            a_j = dicts.a_i[:, int(j)]
            lhs = dicts.a_i.T * np.conj(np.sqrt(m) * a_j)[None, :]
            rhs = permutation_l(dicts, int(j)) @ dicts.a_i.T
            assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_permutation_matrix_structure(self):
        geom = SystemGeometry()
        dicts = build_dictionaries(geom)
        l_j = permutation_l(dicts, 5)
        np.testing.assert_array_equal(l_j.sum(axis=0), 1.0)
        np.testing.assert_array_equal(l_j.sum(axis=1), 1.0)
        assert set(np.unique(l_j)) == {0.0, 1.0}

    def test_zero_frequency_atom_gives_identity(self):
        geom = SystemGeometry()
        dicts = build_dictionaries(geom)
        g_y, g_z = dicts.a_y.shape[1], dicts.a_z.shape[1]
        j = (g_y // 2) * g_z + g_z // 2
        assert _grid(g_y)[g_y // 2] == 0.0
        assert _grid(g_z)[g_z // 2] == 0.0
        np.testing.assert_array_equal(permutation_l(dicts, j),
                                      np.eye(g_y * g_z))

    def test_odd_resolution_rejected(self):
        geom = SystemGeometry(16, 8, 4, 3, 16, 8, 4, 3)
        dicts = build_dictionaries(geom)
        with pytest.raises(ValueError, match="even"):
            permutation_l(dicts, 0)

    def test_atom_index_range_checked(self):
        geom = SystemGeometry()
        dicts = build_dictionaries(geom)
        with pytest.raises(ValueError, match="out of range"):
            permutation_l(dicts, 16)


GEOM_UNI = SystemGeometry()
DICTS_UNI = build_dictionaries(GEOM_UNI)


class TestStage3:
    CFG = CsEstConfig(2, 2, t1=15)

    def _exact_stage12(self, seed):
        paths, ch, pil = _on_grid_trial(GEOM_UNI, 2, seed, hold=15)
        ue_idx = [_grid_index(u, GEOM_UNI.g_ue) for u in paths.u_ue]
        bs_idx = [_grid_index(u, GEOM_UNI.g_bs) for u in paths.u_bs]
        return ch, pil, DICTS_UNI.a_ue[:, ue_idx], DICTS_UNI.a_bs[:, bs_idx]

    def test_exact_given_true_atoms(self):
        ch, pil, a_ue_bar, a_bs_bar = self._exact_stage12(seed=2)
        lam, est, _ = stage3_gains(pil, a_ue_bar, a_bs_bar, DICTS_UNI,
                                   self.CFG)
        assert nmse(ch.h_c, est.h_c) < 1e-10

    def test_factored_estimate_equals_kron_reassembly(self):
        # h_c_hat = kron(conj(a_ue_bar), a_bs_bar) @ lam_mat @ a_i.T, held
        # as factors with K = p_hat * q_hat.
        ch, pil, a_ue_bar, a_bs_bar = self._exact_stage12(seed=3)
        noisy = PilotBlock(pil.s, pil.v, pil.r + 1e-3 * np.abs(pil.r).max()
                           * cgauss(np.random.default_rng(3), pil.r.shape),
                           1e-6)
        lam, est, _ = stage3_gains(noisy, a_ue_bar, a_bs_bar, DICTS_UNI,
                                   self.CFG)
        assert est.g.shape == (GEOM_UNI.n_bs, 4) and est.w.shape[0] == 4
        ref = (np.kron(a_ue_bar.conj(), a_bs_bar)
               @ mat(lam, 4, DICTS_UNI.a_i.shape[1]) @ DICTS_UNI.a_i.T)
        assert nmse(ref, est.h_c) < 1e-28

    def test_gain_vector_has_exactly_phat_qhat_nonzeros(self):
        ch, pil, a_ue_bar, a_bs_bar = self._exact_stage12(seed=5)
        lam, _, _ = stage3_gains(pil, a_ue_bar, a_bs_bar, DICTS_UNI, self.CFG)
        assert int(np.sum(np.abs(lam) > 1e-10)) == 4

    def test_zero_observation_gives_zero_reconstruction(self):
        ch, pil, a_ue_bar, a_bs_bar = self._exact_stage12(seed=2)
        quiet = PilotBlock(pil.s, pil.v, np.zeros_like(pil.r), 0.0)
        lam, est, _ = stage3_gains(quiet, a_ue_bar, a_bs_bar, DICTS_UNI,
                                   self.CFG)
        np.testing.assert_array_equal(lam, 0)
        np.testing.assert_array_equal(est.h_c, 0)

    def test_operator_matches_formed_matrix(self):
        ch, pil, a_ue_bar, a_bs_bar = self._exact_stage12(seed=2)
        c_all = DICTS_UNI.a_i.T @ pil.v
        su = pil.s.T @ a_ue_bar.conj()
        n_bs, t = pil.r.shape
        # Reference: the dense stacked matrix, one row block per slot.
        theta = np.empty((n_bs * t, c_all.shape[0] * 4), dtype=complex)
        for ti in range(t):
            theta[ti * n_bs:(ti + 1) * n_bs] = np.kron(
                c_all[:, ti], np.kron(su[ti], a_bs_bar))
        op = KronSensing(c_all, su, a_bs_bar)
        assert op.shape == theta.shape
        res = cgauss(np.random.default_rng(7), (n_bs * t, 3))
        np.testing.assert_allclose(op.adjoint(res),
                                   theta.conj().T @ res, atol=1e-10)
        idx = [0, 5, 37, theta.shape[1] - 1]
        np.testing.assert_allclose(op.gram_columns(idx),
                                   theta.conj().T @ theta[:, idx],
                                   atol=1e-10)

    def test_paper_scale_memory_bounded(self):
        geom = SystemGeometry(36, 16, 6, 6, 64, 64, 16, 16)
        rng = np.random.default_rng(0)
        ch = synth_channels(geom, sample_paths(geom, 3, rng))
        s, v = make_pilots(geom, 500, rng, hold_v=125)
        pil = simulate_uplink(ch, s, v, 1e-3, rng)
        dicts = build_dictionaries(geom)
        tracemalloc.start()
        try:
            cs_est(pil, dicts, CsEstConfig(3, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The formed 18000 x 2304 sensing matrix alone is 633 MiB.
        assert peak < 64 * 2**20


class TestPipeline:
    def test_noiseless_on_grid_exact_recovery(self):
        for seed in range(10):
            paths, ch, pil = _on_grid_trial(GEOM_UNI, 2, seed, hold=15)
            res = cs_est(pil, DICTS_UNI, CsEstConfig(2, 2, t1=15))
            assert nmse(ch.h_c, res.estimate.h_c) < 1e-10
            assert sorted(res.support_ue) == sorted(
                _grid_index(u, GEOM_UNI.g_ue) for u in paths.u_ue)
            assert sorted(res.support_bs) == sorted(
                _grid_index(u, GEOM_UNI.g_bs) for u in paths.u_bs)

    def test_stage_metrics_recorded(self):
        paths, ch, pil = _on_grid_trial(GEOM_UNI, 2, seed=0, hold=15)
        res = cs_est(pil, DICTS_UNI, CsEstConfig(2, 2, t1=15))
        assert set(res.stage_ms) == {"stage1", "stage2", "stage3"}
        assert set(res.flops) == {"stage1", "stage2", "stage3", "total"}
        assert all(v >= 0 for v in res.stage_ms.values())
        assert res.flops["total"] == sum(
            res.flops[k] for k in ("stage1", "stage2", "stage3"))
        assert res.flops["stage3"] > 0

    @pytest.mark.parametrize("grids, t, cfg, k, flops", [
        ((16, 8, 4, 4, 64, 64, 16, 16), 60, CsEstConfig(2, 2, t1=15), 2,
         (224256, 600064, 3717632, 4541952)),
        ((16, 8, 4, 4, 128, 128, 32, 16), 60, CsEstConfig(2, 2, t1=15), 2,
         (448512, 1200128, 7404032, 9052672)),
        ((36, 16, 6, 6, 64, 64, 16, 16), 500, CsEstConfig(3, 3), 3,
         (3630592, 10807296, 76193472, 90631360)),
    ], ids=["desk", "desk-fine", "paper"])
    def test_flops_pinned(self, grids, t, cfg, k, flops):
        # The counts follow from the shapes alone: 8 flops per complex
        # multiply-add, for every product the stages form and, in OMP,
        # one adjoint, a Gram column per step and the correlation update.
        geom = SystemGeometry(*grids)
        rng = np.random.default_rng(0)
        ch = synth_channels(geom, sample_paths(geom, k, rng))
        s, v = make_pilots(geom, t, rng, hold_v=resolve_t1(cfg.t1, t))
        pil = simulate_uplink(ch, s, v, 1e-3, rng)
        res = cs_est(pil, build_dictionaries(geom), cfg)
        assert res.flops == dict(zip(("stage1", "stage2", "stage3", "total"),
                                     map(float, flops)))

    def test_off_grid_floor_drops_with_finer_reflection_grid(self):
        medians = []
        for g_y, g_z in ((8, 8), (16, 16)):
            geom = SystemGeometry(16, 8, 4, 4, 16, 8, g_y, g_z)
            dicts = build_dictionaries(geom)
            errs = []
            for seed in range(30):
                rng = np.random.default_rng(seed)
                paths = sample_paths(geom, 2, rng, on_grid=False)
                ch = synth_channels(geom, paths)
                s, v = make_pilots(geom, 60, rng, hold_v=15)
                pil = simulate_uplink(ch, s, v, 0.0, rng)
                res = cs_est(pil, dicts, CsEstConfig(2, 2, t1=15))
                errs.append(nmse(ch.h_c, res.estimate.h_c))
            medians.append(float(np.median(errs)))
        assert medians[1] < medians[0]

    def test_default_and_invalid_t1(self):
        paths, ch, pil = _on_grid_trial(GEOM_UNI, 2, seed=0, hold=15)
        with pytest.raises(ValueError, match="t1"):
            cs_est(pil, DICTS_UNI, CsEstConfig(2, 2, t1=100))
        res = cs_est(pil, DICTS_UNI, CsEstConfig(2, 2))
        assert res.estimate.h_c.shape == ch.h_c.shape

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CsEstConfig(0, 2)
        with pytest.raises(ValueError):
            CsEstConfig(2, 2, t1=0)
