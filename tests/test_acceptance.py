"""Acceptance suite: one test per release criterion.

Each test prints a [PASS]/[FAIL] line through record_criterion; the
conftest hook repeats all lines after the run. Statistical thresholds
derive from pre-registered oracle runs stored in fixtures/thresholds.json.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from irsmimo.channel import (PilotBlock, SystemGeometry,
                             angular_coefficients, build_dictionaries,
                             cascaded, effective_channel, make_pilots,
                             sample_paths, simulate_uplink, synth_channels)
from irsmimo.cs_est import CsEstConfig, cs_est, permutation_l
from irsmimo.harness import (ExperimentConfig, nmse, pnr_to_sigma2,
                             run_trial, sweep, to_csv)
from irsmimo.manifold import (CgOptions, FixedRankManifold, cg_minimize,
                              circle_project, project_tangent,
                              random_fixed_rank, retract, transport)
from irsmimo.mo_est import MoEstConfig, egrad_g, egrad_h, mo_est, objective_f
from irsmimo.numerics import (commutation_matrix, khatri_rao, kron,
                              random_unit_modulus, vec)
from irsmimo.wmmse import (DownlinkScenario, alt_wmmse, egrad_v,
                           g1_objective)

from conftest import cgauss, dense_channel, record_criterion

THRESHOLDS = json.loads(
    (Path(__file__).parent / "fixtures" / "thresholds.json").read_text())


@contextmanager
def criterion(num: int, name: str, limit_s: float):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = time.perf_counter() - start < limit_s
        assert ok, f"criterion {num} exceeded {limit_s}s runtime budget"
    finally:
        record_criterion(num, name, ok)


def test_criterion_1_gradient_suite():
    with criterion(1, "analytic gradients match finite differences", 30.0):
        geom = SystemGeometry(8, 4, 4, 2, 8, 4, 4, 2)
        dicts = build_dictionaries(geom)
        mu_g, mu_h = 0.3, 0.2
        eps = 1e-6
        for seed in range(10):
            rng = np.random.default_rng(seed)
            s = cgauss(rng, (4, 10))
            v = np.exp(2j * np.pi * rng.random((8, 10)))
            r = cgauss(rng, (8, 10))
            pil = PilotBlock(s, v, r, 0.0)
            g0 = cgauss(rng, (8, 8))
            h0 = cgauss(rng, (8, 4))
            assert np.abs(dicts.a_bs.conj().T @ g0 @ dicts.a_i).min() > 1e-3
            assert np.abs(dicts.a_i.conj().T @ h0 @ dicts.a_ue).min() > 1e-3
            f_mat = v * (h0 @ s)
            eg = egrad_g(g0, r, f_mat, mu_g, dicts)
            eh = egrad_h(h0, g0, pil, mu_h, dicts)
            for _ in range(20):
                d = cgauss(rng, g0.shape)
                d /= np.linalg.norm(d)
                fd = (objective_f(g0 + eps * d, h0, pil, dicts, mu_g, mu_h)
                      - objective_f(g0 - eps * d, h0, pil, dicts, mu_g,
                                    mu_h)) / (2 * eps)
                an = 2 * np.real(np.sum(eg.conj() * d))
                assert abs(an - fd) <= 1e-5 * abs(fd)
                d = cgauss(rng, h0.shape)
                d /= np.linalg.norm(d)
                fd = (objective_f(g0, h0 + eps * d, pil, dicts, mu_g, mu_h)
                      - objective_f(g0, h0 - eps * d, pil, dicts, mu_g,
                                    mu_h)) / (2 * eps)
                an = 2 * np.real(np.sum(eh.conj() * d))
                assert abs(an - fd) <= 1e-5 * abs(fd)

            ch = dense_channel(cgauss(rng, (geom.n_bs * geom.n_ue, geom.m)),
                               geom.n_bs, geom.n_ue)
            v_d = random_unit_modulus(geom.m, rng)
            f = cgauss(rng, (geom.n_bs, 2))
            f /= np.linalg.norm(f)
            a = cgauss(rng, (2, 2))
            omega = a.conj().T @ a + np.eye(2)
            scen = DownlinkScenario(geom, 0.7, 2)
            grad = egrad_v(v_d, ch, f, omega, scen)
            for _ in range(20):
                tan = circle_project(v_d, cgauss(rng, v_d.shape))
                tan /= np.linalg.norm(tan)
                fd = (g1_objective(v_d + eps * tan, ch, f, omega, scen)
                      - g1_objective(v_d - eps * tan, ch, f, omega,
                                     scen)) / (2 * eps)
                an = 2 * np.real(np.vdot(grad, tan))
                assert abs(an - fd) <= 1e-4 * max(abs(fd), 1e-12)


def test_criterion_2_manifold_contracts():
    with criterion(2, "manifold contracts and monotone descent", 30.0):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = random_fixed_rank(8, 6, 2, rng)
            j = cgauss(rng, (8, 6))
            t1 = project_tangent(x, j)
            # Gradient identity: <grad, xi>_x = Re<j, D(l r^H)[xi]>.
            xi = random_fixed_rank(8, 6, 2, rng)
            moved = xi.l @ x.r.conj().T + x.l @ xi.r.conj().T
            assert abs(FixedRankManifold.inner(x, t1, xi)
                       - np.sum(j.conj() * moved).real) <= 1e-10
            at0, bad = retract(x[None], t1[None], [0.0])
            assert bad is None
            assert np.abs(at0.dense[0] - x.dense).max() <= 1e-12
            stepped, bad = retract(x[None], t1[None], [0.7])
            assert bad is None
            svals = np.linalg.svd(stepped.dense[0], compute_uv=False)
            assert (svals > 1e-10 * svals[0]).sum() == 2
            y = random_fixed_rank(8, 6, 2, rng)
            assert transport(x, y, t1) is t1

            target = random_fixed_rank(8, 6, 2, rng).dense
            res = cg_minimize(
                FixedRankManifold,
                lambda p, rows: ([float(np.linalg.norm(e) ** 2)
                                  for e in p.dense - target],
                                 lambda keep=None: p.dense - target),
                x, CgOptions(epsilon=1e-10, max_iters=40))
            for before, after in zip(res.trace, res.trace[1:]):
                assert after <= before + 1e-12


def test_criterion_3_rank_and_sparsity():
    with criterion(3, "channel rank and on-grid sparsity counts", 30.0):
        geom = SystemGeometry()
        dicts = build_dictionaries(geom.unitary())
        k = 3
        for seed in range(100):
            rng = np.random.default_rng(seed)
            on_grid = seed % 2 == 0
            ch = synth_channels(geom, sample_paths(geom, k, rng,
                                                   on_grid=on_grid))
            for mat_, rank, exact in ((ch.g, k, True), (ch.h, k, True),
                                      (ch.h_c, k * k, False)):
                svals = np.linalg.svd(mat_, compute_uv=False)
                assert svals[rank] / svals[0] < 1e-10
                if exact:
                    assert svals[rank - 1] / svals[0] > 1e-10
            if on_grid:
                lam_g, lam_h = angular_coefficients(ch, dicts)
                scale_g = np.abs(lam_g).max()
                scale_h = np.abs(lam_h).max()
                assert (np.abs(lam_g) > 1e-9 * scale_g).sum() == k
                assert (np.abs(lam_h) > 1e-9 * scale_h).sum() == k


def test_criterion_4_identity_suite():
    with criterion(4, "product, reshaping, and permutation identities", 10.0):
        geom = SystemGeometry()
        dicts = build_dictionaries(geom)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = cgauss(rng, (3, 4))
            b = cgauss(rng, (4, 5))
            c = cgauss(rng, (5, 2))
            assert np.allclose(vec(a @ b @ c), kron(c.T, a) @ vec(b),
                               atol=1e-12)
            kr = khatri_rao(b, c.T)
            for col in range(4):
                assert np.allclose(kr[:, col], np.kron(b[:, col],
                                                       c.T[:, col]))
            kmat = commutation_matrix(3, 4)
            assert np.allclose(kmat @ vec(a), vec(a.T))

            ch = synth_channels(geom, sample_paths(geom, 2, rng))
            v = random_unit_modulus(geom.m, rng)
            h_e = effective_channel(ch, v)
            direct = ch.h.conj().T @ np.diag(v) @ ch.g.conj().T
            scale = np.abs(direct).max()
            assert np.abs(h_e - direct).max() <= 1e-10 * scale
            assert np.abs(cascaded(ch) - ch.h_c).max() == 0.0

        for j in np.random.default_rng(0).choice(16, 5, replace=False):
            a_j = dicts.a_i[:, int(j)]
            lhs = dicts.a_i.T * np.conj(np.sqrt(geom.m) * a_j)[None, :]
            rhs = permutation_l(dicts, int(j)) @ dicts.a_i.T
            assert np.linalg.norm(lhs - rhs) < 1e-9


def test_criterion_5_cs_est_exact_recovery():
    with criterion(5, "sparse estimator exact on-grid recovery", 120.0):
        geom = SystemGeometry(16, 8, 4, 4, 16, 8, 4, 4)
        dicts = build_dictionaries(geom)
        cfg = CsEstConfig(2, 2, t1=15)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            ch = synth_channels(geom, sample_paths(geom, 2, rng,
                                                   on_grid=True))
            s, v = make_pilots(geom, 60, rng, hold_v=15)
            pil = simulate_uplink(ch, s, v, 0.0, rng)
            res = cs_est(pil, dicts, cfg)
            hits += nmse(ch.h_c, res.estimate.h_c) < 1e-10
        assert hits >= 98


def test_criterion_6_mo_est_convergence_accuracy():
    with criterion(6, "manifold estimator descent and training-gain", 600.0):
        fix = THRESHOLDS["mo_est_accuracy"]
        geom = SystemGeometry()
        dicts = build_dictionaries(geom.unitary())
        sigma2 = pnr_to_sigma2(fix["pnr_db"], geom.d_bi, geom.d_iu)
        medians = {}
        for t in (50, 150):
            errs = []
            for seed in range(fix["seeds"]):
                rng = np.random.default_rng(seed)
                ch = synth_channels(geom, sample_paths(geom, 3, rng))
                s, v = make_pilots(geom, t, rng)
                pil = simulate_uplink(ch, s, v, sigma2, rng)
                res = mo_est(pil, dicts, MoEstConfig(3, 3))
                for before, after in zip(res.trace, res.trace[1:]):
                    assert after <= before + 1e-9
                errs.append(nmse(ch.h_c, khatri_rao(res.h_hat.dense.T,
                                                    res.g_hat.dense)))
            medians[t] = float(np.median(errs))
        assert medians[150] < medians[50]
        assert medians[150] < fix["max_median_nmse_t150"]


def test_criterion_7_alt_wmmse():
    with criterion(7, "beamformer descent, gain over random phase", 300.0):
        geom = SystemGeometry()
        sigma2_d = pnr_to_sigma2(10.0, geom.d_bi, geom.d_iu)
        scen = DownlinkScenario(geom, sigma2_d, 3)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            ch = synth_channels(geom, sample_paths(geom, 2, rng))
            base = alt_wmmse(scen, ch,
                             np.random.default_rng(10_000 + seed),
                             optimize_v=False)
            opt = alt_wmmse(scen, ch,
                            np.random.default_rng(10_000 + seed))
            for sol in (base, opt):
                for before, after in zip(sol.g_trace, sol.g_trace[1:]):
                    assert after <= before + 1e-9
            wins += opt.se > base.se
        assert wins >= 95

        geom1 = SystemGeometry(16, 8, 1, 1, 16, 8, 2, 2)
        scen = DownlinkScenario(geom1, sigma2_d, 1)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ch = synth_channels(geom1, sample_paths(geom1, 1, rng))
            sol = alt_wmmse(scen, ch, np.random.default_rng(500 + seed))
            h_e = effective_channel(ch, sol.v_d)
            top = np.linalg.svd(h_e, compute_uv=False)[0]
            closed = float(np.log2(1.0 + top ** 2 / sigma2_d))
            assert abs(sol.se - closed) <= 1e-8


def test_criterion_8_complexity_scaling():
    with criterion(8, "operation count doubles with resolution", 120.0):
        totals = []
        for grids in ((64, 64, 16, 16), (128, 128, 32, 16)):
            geom = SystemGeometry(16, 8, 4, 4, *grids)
            dicts = build_dictionaries(geom)
            rng = np.random.default_rng(0)
            ch = synth_channels(geom, sample_paths(geom, 2, rng,
                                                   on_grid=True))
            s, v = make_pilots(geom, 60, rng, hold_v=15)
            pil = simulate_uplink(ch, s, v, 0.0, rng)
            res = cs_est(pil, dicts, CsEstConfig(2, 2, t1=15))
            totals.append(res.flops["total"])
        assert 1.6 <= totals[1] / totals[0] <= 2.4


def test_criterion_9_k_hat_robustness():
    with criterion(9, "limited loss with overestimated path count", 600.0):
        fix = THRESHOLDS["k_hat_robustness"]
        for alg in ("mo_est", "cs_est"):
            cfg = ExperimentConfig(algorithm=alg, sweep_axis="K_hat",
                                   sweep_values=(3.0, 4.0),
                                   trials=fix["seeds"], t=fix["t"],
                                   pnr_db=fix["pnr_db"], snr_db=10.0,
                                   k_true=3)
            records, failures = sweep(cfg)
            assert failures == 0
            med = [float(np.median([r.se_bits_s_hz for r in records
                                    if r.k_hat == k]))
                   for k in (3, 4)]
            assert abs(med[1] - med[0]) / med[0] <= fix["max_rel_se_diff"]


def test_criterion_10_csv_determinism():
    with criterion(10, "identical CSV bytes in any trial order", 60.0):
        cfg = ExperimentConfig(algorithm="cs_est", t=20, t1=8, trials=3,
                               sweep_values=(20.0,), n_bs=16, n_ue=8,
                               m_y=4, m_z=4, g_bs=16, g_ue=8, g_y=4, g_z=4,
                               k_true=2, on_grid=True)
        records, _ = sweep(cfg)
        keys = [(0, seed) for seed in range(cfg.trials)]
        backwards = {key: run_trial(cfg, *key) for key in reversed(keys)}
        assert to_csv(records) == to_csv([backwards[key] for key in keys])
