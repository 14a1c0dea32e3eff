"""Tests for the alternating manifold-optimization channel estimator."""

import numpy as np
import pytest

from irsmimo.channel import (PilotBlock, SystemGeometry, build_dictionaries,
                             make_pilots, sample_paths, simulate_uplink,
                             synth_channels)
from irsmimo.harness import ExperimentConfig, nmse, pnr_to_sigma2, sweep
from irsmimo.manifold import (FixedRankManifold, FixedRankPoint,
                              project_tangent)
from irsmimo.mo_est import (MoEstConfig, _cost_grad_g, _cost_grad_h,
                            _g_stats, _h_stats, egrad_g, egrad_h, mo_est,
                            objective_f)
from irsmimo.numerics import khatri_rao, truncated_svd

from conftest import cgauss

SMALL = SystemGeometry(8, 4, 4, 2, 8, 4, 4, 2)
SMALL_DICTS = build_dictionaries(SMALL)
DESK = SystemGeometry()
DESK_DICTS = build_dictionaries(DESK.unitary())
PAPER = SystemGeometry(36, 16, 6, 6, 36, 16, 6, 6)
PAPER_DICTS = build_dictionaries(PAPER)


def _random_problem(rng, t=10):
    """Unit-scale pilot block plus dense iterates away from the l1 kink."""
    s = cgauss(rng, (SMALL.n_ue, t))
    v = np.exp(2j * np.pi * rng.random((SMALL.m, t)))
    r = cgauss(rng, (SMALL.n_bs, t))
    pil = PilotBlock(s, v, r, 0.0)
    g0 = cgauss(rng, (SMALL.n_bs, SMALL.m))
    h0 = cgauss(rng, (SMALL.m, SMALL.n_ue))
    assert np.abs(SMALL_DICTS.a_bs.conj().T @ g0 @ SMALL_DICTS.a_i).min() > 1e-3
    assert np.abs(SMALL_DICTS.a_i.conj().T @ h0 @ SMALL_DICTS.a_ue).min() > 1e-3
    return pil, g0, h0


def _physical_problem(seed, t, sigma2, k=2, geom=None):
    geom = geom or SystemGeometry()
    rng = np.random.default_rng(seed)
    ch = synth_channels(geom, sample_paths(geom, k, rng))
    s, v = make_pilots(geom, t, rng)
    pil = simulate_uplink(ch, s, v, sigma2, rng)
    return ch, pil


class TestObjective:
    def test_matches_slotwise_sum(self):
        rng = np.random.default_rng(0)
        pil, g0, h0 = _random_problem(rng)
        mu_g, mu_h = 0.7, 0.3
        val = objective_f(g0, h0, pil, SMALL_DICTS, mu_g, mu_h)
        ref = 0.0
        for ti in range(pil.t):
            resid = pil.r[:, ti] - g0 @ np.diag(pil.v[:, ti]) @ h0 @ pil.s[:, ti]
            ref += float(np.sum(np.abs(resid) ** 2))
        ref += mu_g * float(np.sum(np.abs(
            SMALL_DICTS.a_bs.conj().T @ g0 @ SMALL_DICTS.a_i)))
        ref += mu_h * float(np.sum(np.abs(
            SMALL_DICTS.a_i.conj().T @ h0 @ SMALL_DICTS.a_ue)))
        assert val == pytest.approx(ref, rel=1e-12)

    def test_zero_at_truth_without_regularization(self):
        ch, pil = _physical_problem(seed=1, t=12, sigma2=0.0, geom=SMALL)
        val = objective_f(ch.g, ch.h, pil, SMALL_DICTS, 0.0, 0.0)
        scale = float(np.sum(np.abs(pil.r) ** 2))
        assert val <= 1e-20 * max(scale, 1e-300)

    def test_zero_estimate_gives_observation_energy(self):
        rng = np.random.default_rng(2)
        pil, g0, h0 = _random_problem(rng)
        val = objective_f(np.zeros_like(g0), np.zeros_like(h0), pil,
                          SMALL_DICTS, 0.5, 0.5)
        assert val == pytest.approx(float(np.sum(np.abs(pil.r) ** 2)),
                                    rel=1e-12)

    def test_requires_unitary_dictionaries(self):
        geom = SystemGeometry(8, 4, 4, 2, 16, 8, 8, 2)
        dicts = build_dictionaries(geom)
        rng = np.random.default_rng(4)
        pil, g0, h0 = _random_problem(rng)
        with pytest.raises(ValueError, match="unitary"):
            objective_f(g0, h0, pil, dicts, 0.1, 0.1)


class TestEuclideanGradients:
    def test_zero_point_gradient_is_correlation(self):
        rng = np.random.default_rng(5)
        pil, g0, h0 = _random_problem(rng)
        f_mat = pil.v * (h0 @ pil.s)
        grad = egrad_g(np.zeros_like(g0), pil.r, f_mat, 0.0, SMALL_DICTS)
        np.testing.assert_allclose(grad, -pil.r @ f_mat.conj().T,
                                   rtol=0, atol=1e-14)

    def test_gradients_vanish_at_perfect_fit(self):
        ch, pil = _physical_problem(seed=6, t=12, sigma2=0.0, geom=SMALL)
        f_mat = pil.v * (ch.h @ pil.s)
        scale = np.linalg.norm(pil.r) * np.linalg.norm(f_mat)
        gg = egrad_g(ch.g, pil.r, f_mat, 0.0, SMALL_DICTS)
        gh = egrad_h(ch.h, ch.g, pil, 0.0, SMALL_DICTS)
        assert np.linalg.norm(gg) <= 1e-12 * scale
        assert np.linalg.norm(gh) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_match_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        pil, g0, h0 = _random_problem(rng)
        mu_g, mu_h = 0.3, 0.2
        f_mat = pil.v * (h0 @ pil.s)
        eg = egrad_g(g0, pil.r, f_mat, mu_g, SMALL_DICTS)
        eh = egrad_h(h0, g0, pil, mu_h, SMALL_DICTS)
        eps = 1e-6
        for _ in range(8):
            d = cgauss(rng, g0.shape)
            d /= np.linalg.norm(d)
            fd = (objective_f(g0 + eps * d, h0, pil, SMALL_DICTS, mu_g, mu_h)
                  - objective_f(g0 - eps * d, h0, pil, SMALL_DICTS, mu_g,
                                mu_h)) / (2 * eps)
            assert 2 * np.real(np.sum(eg.conj() * d)) == pytest.approx(
                fd, rel=1e-5)
            d = cgauss(rng, h0.shape)
            d /= np.linalg.norm(d)
            fd = (objective_f(g0, h0 + eps * d, pil, SMALL_DICTS, mu_g, mu_h)
                  - objective_f(g0, h0 - eps * d, pil, SMALL_DICTS, mu_g,
                                mu_h)) / (2 * eps)
            assert 2 * np.real(np.sum(eh.conj() * d)) == pytest.approx(
                fd, rel=1e-5)

    def test_riemannian_gradient_matches_tangent_derivative(self):
        rng = np.random.default_rng(7)
        pil, g0, h0 = _random_problem(rng)
        mu_g = 0.3
        f_mat = pil.v * (h0 @ pil.s)
        u, sig, w = truncated_svd(g0, 3)
        x = FixedRankPoint(u * np.sqrt(sig), w * np.sqrt(sig))
        grad = project_tangent(x, egrad_g(x.dense, pil.r, f_mat, mu_g,
                                          SMALL_DICTS))
        eps = 1e-6
        for _ in range(5):
            xi = FixedRankPoint(cgauss(rng, x.l.shape), cgauss(rng, x.r.shape))
            xi = xi * (1.0 / np.linalg.norm(xi.dense))

            def f(e):
                return objective_f((x + e * xi).dense, h0, pil, SMALL_DICTS,
                                   mu_g, 0.0)

            fd = (f(eps) - f(-eps)) / (2 * eps)
            assert 2 * FixedRankManifold.inner(x, grad, xi) == pytest.approx(
                fd, rel=1e-5)


class TestFactorForms:
    """The CG's subproblem costs and gradients, run on the factors and on
    Gram statistics, against the dense oracles objective_f, egrad_g and
    egrad_h."""

    @staticmethod
    def _factors(a, rank):
        u, sig, w = truncated_svd(a, rank)
        return FixedRankPoint(u * np.sqrt(sig), w * np.sqrt(sig))

    @pytest.mark.parametrize("geom, dicts, t", [(DESK, DESK_DICTS, 100),
                                                (PAPER, PAPER_DICTS, 300)])
    @pytest.mark.parametrize("pnr_db", [0.0, 30.0])
    @pytest.mark.parametrize("near", [True, False])
    def test_match_dense_oracles(self, geom, dicts, t, pnr_db, near):
        # Near the truth the residual is at noise level, 1e-3 of the
        # training power at 30 dB, so the Gram forms cancel most there.
        ch, pil = _physical_problem(
            seed=31, t=t, k=3, geom=geom,
            sigma2=pnr_to_sigma2(pnr_db, geom.d_bi, geom.d_iu))
        rng = np.random.default_rng(32)
        if near:
            g0, h0 = ch.g, ch.h
        else:
            g0 = np.abs(ch.g).max() * cgauss(rng, ch.g.shape)
            h0 = np.abs(ch.h).max() * cgauss(rng, ch.h.shape)
        g, h = self._factors(g0, 3), self._factors(h0, 3)
        rr = float(np.sum(np.abs(pil.r) ** 2))
        mu_g = 1e-3 * rr / np.abs(dicts.a_bs.conj().T @ g.dense
                                  @ dicts.a_i).sum()
        mu_h = 1e-3 * rr / np.abs(dicts.a_i.conj().T @ h.dense
                                  @ dicts.a_ue).sum()
        # Stacks of one, as mo_est runs a single trial.
        s, v, r = (a[None] for a in (pil.s, pil.v, pil.r))
        gx, hx = (FixedRankPoint(x.l[None], x.r[None]) for x in (g, h))
        g_data = _g_stats(hx, s, v, r)
        cost_g, grad_g = _cost_grad_g(gx, g_data, np.array([mu_g]), dicts)
        cost_h, grad_h = _cost_grad_h(hx, gx, _h_stats(gx, r, g_data[0]),
                                      s, v, np.array([mu_h]), dicts)
        # Dense scales of the cancelling terms: the cost's ||r||^2 and the
        # gradients at the zero point.
        f_mat = pil.v * (h.dense @ pil.s)
        scale_g = np.abs(egrad_g(np.zeros_like(g0), pil.r, f_mat, 0.0,
                                 dicts)).max()
        scale_h = np.abs(egrad_h(np.zeros_like(h0), g.dense, pil, 0.0,
                                 dicts)).max()
        assert abs(cost_g[0] - objective_f(g.dense, h.dense, pil, dicts,
                                           mu_g, 0.0)) <= 1e-12 * rr
        assert abs(cost_h[0] - objective_f(g.dense, h.dense, pil, dicts,
                                           0.0, mu_h)) <= 1e-12 * rr
        assert np.abs(grad_g()[0] - egrad_g(g.dense, pil.r, f_mat, mu_g,
                                            dicts)).max() <= 1e-12 * scale_g
        assert np.abs(grad_h()[0] - egrad_h(h.dense, g.dense, pil, mu_h,
                                            dicts)).max() <= 1e-12 * scale_h


class TestEstimator:
    def test_trace_monotone_and_result_contract(self):
        for seed in range(6):
            ch, pil = _physical_problem(seed=seed, t=30, sigma2=1e-12,
                                        geom=SMALL)
            res = mo_est(pil, SMALL_DICTS, MoEstConfig(2, 2))
            assert len(res.trace) == res.iterations + 1
            assert res.iterations >= 1
            for before, after in zip(res.trace, res.trace[1:]):
                assert after <= before + 1e-9
            assert (res.g_hat.l.shape, res.g_hat.r.shape) == \
                ((SMALL.n_bs, 2), (SMALL.m, 2))
            assert (res.h_hat.l.shape, res.h_hat.r.shape) == \
                ((SMALL.m, 2), (SMALL.n_ue, 2))

    def test_returned_objective_matches_trace_tail(self):
        ch, pil = _physical_problem(seed=11, t=30, sigma2=1e-12, geom=SMALL)
        res = mo_est(pil, SMALL_DICTS, MoEstConfig(2, 2))
        # mo_est weights both l1 terms by
        # w = 1e-2 sigma2' t (1 + (20 dof / (n_bs t))^2) in the problem
        # normalized by c, dof = p(n_bs + m - p) + q(m + n_ue - q); in
        # physical units that is c w on g and c^2 w on h.
        c = float(np.linalg.norm(pil.r)) / np.sqrt(pil.t)
        dof = 2 * (SMALL.n_bs + SMALL.m - 2) + 2 * (SMALL.m + SMALL.n_ue - 2)
        boost = 1 + (20 * dof / (SMALL.n_bs * pil.t)) ** 2
        w = 1e-2 * pil.sigma2 / c ** 2 * pil.t * boost
        phys = objective_f(res.g_hat.dense, res.h_hat.dense, pil, SMALL_DICTS,
                           c * w, c ** 2 * w)
        assert phys == pytest.approx(c ** 2 * res.trace[-1], rel=1e-9)

    def test_noiseless_recovery_beats_minus_30_db(self):
        geom = SystemGeometry()
        dicts = build_dictionaries(geom)
        errs = []
        for seed in range(20):
            ch, pil = _physical_problem(seed=seed, t=150, sigma2=0.0,
                                        geom=geom)
            res = mo_est(pil, dicts, MoEstConfig(2, 2))
            h_c_hat = khatri_rao(res.h_hat.dense.T, res.g_hat.dense)
            num = np.linalg.norm(ch.h_c - h_c_hat) ** 2
            errs.append(num / np.linalg.norm(ch.h_c) ** 2)
        assert np.median(errs) < 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_stops_before_cap_at_noise_level(self, seed):
        # At PNR 0 dB the objective keeps falling by more than any fixed
        # small amount, but the estimate settles within a few rounds.
        ch, pil = _physical_problem(seed=seed, t=100, k=3, geom=DESK,
                                    sigma2=pnr_to_sigma2(0.0, DESK.d_bi,
                                                         DESK.d_iu))
        res = mo_est(pil, DESK_DICTS, MoEstConfig(3, 3))
        assert res.iterations < MoEstConfig.max_outer

    @pytest.mark.parametrize("sigma2, reason", [
        (pnr_to_sigma2(0.0, DESK.d_bi, DESK.d_iu), "settled"),
        (0.0, "max_outer")])
    def test_stop_reason(self, sigma2, reason):
        # Noiseless, the settle tolerance is 0 and the round cap stops.
        _, pil = _physical_problem(seed=3, t=100, k=3, geom=DESK,
                                   sigma2=sigma2)
        res = mo_est(pil, DESK_DICTS, MoEstConfig(3, 3))
        assert res.reason == reason
        assert (res.iterations == MoEstConfig.max_outer) == \
            (reason == "max_outer")

    @pytest.mark.parametrize("sigma2", [0.0, 1e-3])
    def test_zero_block_returns_zero_estimate(self, sigma2):
        # Nothing to back-project: the start's factors are all zero, its
        # gradient is zero, and the first round settles there.
        _, pil = _physical_problem(seed=16, t=30, sigma2=0.0, geom=DESK)
        zero = PilotBlock(pil.s, pil.v, np.zeros_like(pil.r), sigma2)
        res = mo_est(zero, DESK_DICTS, MoEstConfig(3, 3))
        assert (res.iterations, res.reason, res.trace) == \
            (1, "settled", [0.0, 0.0])
        for x in (res.g_hat, res.h_hat):
            assert np.isfinite(x.l).all() and np.isfinite(x.r).all()
            assert not x.dense.any()

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_above_truth_leaves_noiseless_start(self, seed):
        # Noiseless, the start's columns lie in the 2-dimensional column
        # space of g, so its third factor column is rounding noise; the
        # factor geometry needs no full-rank start, and g moves to the
        # truth.
        ch, pil = _physical_problem(seed=seed, t=100, sigma2=0.0, geom=DESK)
        res = mo_est(pil, DESK_DICTS, MoEstConfig(3, 3))
        for x in (res.g_hat, res.h_hat):
            assert np.isfinite(x.l).all() and np.isfinite(x.r).all()
        assert np.isfinite(res.trace).all()
        assert nmse(ch.h_c, khatri_rao(res.h_hat.dense.T,
                                       res.g_hat.dense)) < 1e-3

    def test_short_training_beats_zero_estimate(self):
        # Paper claim 1 at short training: desk T = 20, PNR 0 dB. With a
        # random start and the unscaled weight the median NMSE was 4.6-4.9.
        records, failures = sweep(ExperimentConfig(
            algorithm="mo_est", sweep_values=(20.0,), trials=16))
        assert failures == 0
        assert np.median([r.nmse for r in records]) < 1

    @pytest.mark.parametrize("a", [2.0 ** -20, 2.0 ** 20, 2.0 ** 60])
    def test_stopping_is_scale_free(self, a):
        sigma2 = pnr_to_sigma2(10.0, DESK.d_bi, DESK.d_iu)
        ch, pil = _physical_problem(seed=21, t=100, k=3, geom=DESK,
                                    sigma2=sigma2)
        scaled = PilotBlock(pil.s, pil.v, a * pil.r, a ** 2 * pil.sigma2)
        runs = [mo_est(p, DESK_DICTS, MoEstConfig(3, 3))
                for p in (pil, scaled)]
        assert runs[0].iterations == runs[1].iterations
        h_c, h_c_scaled = (khatri_rao(r.h_hat.dense.T, r.g_hat.dense)
                           for r in runs)
        assert np.array_equal(h_c_scaled, a * h_c)

    def test_stack_equals_each_trial_alone(self):
        # Trials stop after different rounds; trial 2 is noiseless, so its
        # l1 weights are 0 and its settle tolerance is 0. Trial 3 is an
        # all-zero block: its gradient is zero at the start, so it leaves
        # each stacked CG before the first step while the others go on.
        sigma2 = pnr_to_sigma2(0.0, DESK.d_bi, DESK.d_iu)
        pilots = [_physical_problem(seed=40 + i, t=30, k=3, geom=DESK,
                                    sigma2=0.0 if i == 2 else sigma2)[1]
                  for i in range(5)]
        pilots.insert(3, PilotBlock(pilots[0].s, pilots[0].v,
                                    np.zeros_like(pilots[0].r), sigma2))
        cfg = MoEstConfig(3, 3)
        stacked = mo_est(pilots, DESK_DICTS, cfg)
        alone = [mo_est(p, DESK_DICTS, cfg) for p in pilots]
        for row, one in zip(stacked, alone):
            for a, b in ((row.g_hat, one.g_hat), (row.h_hat, one.h_hat)):
                assert np.array_equal(a.l, b.l) and np.array_equal(a.r, b.r)
            assert (row.trace, row.iterations, row.stalled) == \
                (one.trace, one.iterations, one.stalled)
        assert len({r.iterations for r in stacked}) > 1
        assert stacked[2].iterations == MoEstConfig.max_outer
        assert (stacked[3].iterations, stacked[3].reason) == (1, "settled")

    def test_pilot_blocks_of_one_shape(self):
        _, short = _physical_problem(seed=1, t=12, sigma2=0.0, geom=SMALL)
        _, long = _physical_problem(seed=2, t=14, sigma2=0.0, geom=SMALL)
        for blocks in ([short, long], []):
            with pytest.raises(ValueError, match="shape"):
                mo_est(blocks, SMALL_DICTS, MoEstConfig(2, 2))

    def test_auto_mu_runs_with_noise(self):
        ch, pil = _physical_problem(seed=13, t=30, sigma2=1e-11, geom=SMALL)
        res = mo_est(pil, SMALL_DICTS, MoEstConfig(2, 2))
        assert np.isfinite(res.trace).all()
        for before, after in zip(res.trace, res.trace[1:]):
            assert after <= before + 1e-9

    def test_rank_above_dimensions_rejected(self):
        ch, pil = _physical_problem(seed=14, t=12, sigma2=0.0, geom=SMALL)
        with pytest.raises(ValueError, match="rank"):
            mo_est(pil, SMALL_DICTS, MoEstConfig(2, 5))

    def test_unitary_dictionaries_required(self):
        geom = SystemGeometry(8, 4, 4, 2, 16, 8, 8, 2)
        dicts = build_dictionaries(geom)
        ch, pil = _physical_problem(seed=15, t=12, sigma2=0.0, geom=SMALL)
        with pytest.raises(ValueError, match="unitary"):
            mo_est(pil, dicts, MoEstConfig(2, 2))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MoEstConfig(p_hat=0)
