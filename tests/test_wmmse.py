"""Tests for the alternating weighted-MMSE downlink beamformer."""

import numpy as np
import pytest

from irsmimo.channel import (ChannelRealization, SystemGeometry, cascaded,
                             effective_channel, sample_paths, stack_channels,
                             synth_channels)
from irsmimo.harness import pnr_to_sigma2
from irsmimo.manifold import circle_project
from irsmimo.numerics import random_unit_modulus, sq_norms
from irsmimo import wmmse
from irsmimo.wmmse import (DownlinkScenario, alt_wmmse, egrad_v,
                           g1_objective, mse_matrix, spectral_efficiency,
                           update_f, update_w_omega, wmmse_objective)

from conftest import cgauss, dense_channel

SCALAR_GEOM = SystemGeometry(1, 1, 1, 1, 1, 1, 1, 1)
SCALAR = DownlinkScenario(SCALAR_GEOM, 1.0, 1)
ONE = np.ones((1, 1), dtype=complex)


def _random_case(rng, n_ue=4, n_bs=4, n_s=2):
    h_e = cgauss(rng, (n_ue, n_bs))
    f = cgauss(rng, (n_bs, n_s))
    f /= np.linalg.norm(f)
    return h_e, f


def _random_omega(rng, n_s):
    a = cgauss(rng, (n_s, n_s))
    return a.conj().T @ a + np.eye(n_s)


class TestScalarOracles:
    def test_receiver_and_weight(self):
        w, omega = update_w_omega(ONE, ONE, SCALAR)
        assert w[0, 0] == pytest.approx(0.5)
        assert omega[0, 0] == pytest.approx(2.0)

    def test_error_covariance(self):
        e = mse_matrix(ONE, ONE, 0.5 * ONE, SCALAR)
        assert e[0, 0] == pytest.approx(0.5)

    def test_beamformer_update(self):
        f, degenerate = update_f(ONE[None], 0.5 * ONE[None],
                                 2.0 * ONE[None], SCALAR)
        assert not degenerate[0]
        assert f[0, 0, 0] == pytest.approx(1.0)

    def test_rate_of_unit_channel(self):
        assert spectral_efficiency(ONE, ONE, SCALAR) == pytest.approx(1.0)

    def test_reduced_objective_at_zero_beamformer(self):
        omega = 2.0 * ONE
        val = g1_objective(np.ones(1, dtype=complex),
                           ChannelRealization(ONE, ONE), 0.0 * ONE, omega,
                           SCALAR)
        assert val == pytest.approx(np.trace(omega).real)


class TestUpdateWOmega:
    def test_omega_hermitian_inverse_of_error(self):
        rng = np.random.default_rng(0)
        scen = DownlinkScenario(SCALAR_GEOM, 0.3, 1)
        h_e, f = _random_case(rng)
        w, omega = update_w_omega(h_e, f, scen)
        e = mse_matrix(h_e, f, w, scen)
        np.testing.assert_allclose(omega, omega.conj().T, atol=1e-12)
        np.testing.assert_allclose(omega @ e, np.eye(2), atol=1e-10)
        assert np.linalg.eigvalsh(e).min() > 0

    def test_receiver_minimizes_error_trace(self):
        rng = np.random.default_rng(1)
        scen = DownlinkScenario(SCALAR_GEOM, 0.5, 1)
        h_e, f = _random_case(rng)
        w, _ = update_w_omega(h_e, f, scen)
        base = np.trace(mse_matrix(h_e, f, w, scen)).real
        for _ in range(20):
            pert = w + 1e-3 * cgauss(rng, w.shape)
            assert np.trace(mse_matrix(h_e, f, pert, scen)).real >= base - 1e-12


class TestUpdateF:
    def test_unit_norm_and_scale_corrected_descent(self):
        rng = np.random.default_rng(2)
        scen = DownlinkScenario(SCALAR_GEOM, 0.4, 1)
        for _ in range(20):
            h_e, f_old = _random_case(rng)
            w, omega = update_w_omega(h_e, f_old, scen)
            f_new, degenerate = update_f(h_e[None], w[None], omega[None],
                                         scen)
            f_new = f_new[0]
            assert not degenerate[0]
            assert np.linalg.norm(f_new) == pytest.approx(1.0)
            psi = float(np.trace(omega @ w.conj().T @ w).real)
            hw = h_e.conj().T @ w
            f_tilde = np.linalg.solve(
                hw @ omega @ hw.conj().T
                + scen.sigma2_d * psi * np.eye(h_e.shape[1]), hw @ omega)
            np.testing.assert_allclose(f_new,
                                       f_tilde / np.linalg.norm(f_tilde),
                                       atol=1e-10)
            before = np.trace(omega @ mse_matrix(h_e, f_old, w, scen)).real
            w_rescaled = w * np.linalg.norm(f_tilde)
            after = np.trace(
                omega @ mse_matrix(h_e, f_new, w_rescaled, scen)).real
            assert after <= before + 1e-9

    def test_zero_receiver_flagged_degenerate(self):
        scen = DownlinkScenario(SCALAR_GEOM, 1.0, 1)
        f, degenerate = update_f(np.eye(3, dtype=complex)[None],
                                 np.zeros((1, 3, 2), dtype=complex),
                                 np.eye(2, dtype=complex)[None], scen)
        assert degenerate.tolist() == [True]
        np.testing.assert_array_equal(f, 0)


GEOM_M4 = SystemGeometry(4, 4, 2, 2, 4, 4, 2, 2)


def _reduced_case(seed, n_s=2):
    rng = np.random.default_rng(seed)
    ch = dense_channel(cgauss(rng, (GEOM_M4.n_bs * GEOM_M4.n_ue, GEOM_M4.m)),
                       GEOM_M4.n_bs, GEOM_M4.n_ue)
    v = random_unit_modulus(GEOM_M4.m, rng)
    f = cgauss(rng, (GEOM_M4.n_bs, n_s))
    f /= np.linalg.norm(f)
    omega = _random_omega(rng, n_s)
    scen = DownlinkScenario(GEOM_M4, 0.7, n_s)
    return rng, scen, ch, v, f, omega


class TestReducedObjective:
    def test_equals_minimum_weighted_error(self):
        for seed in range(10):
            _, scen, ch, v, f, omega = _reduced_case(seed)
            val = g1_objective(v, ch, f, omega, scen)
            h_e = effective_channel(ch, v)
            w_star, _ = update_w_omega(h_e, f, scen)
            direct = np.trace(omega @ mse_matrix(h_e, f, w_star, scen)).real
            assert val == pytest.approx(direct, rel=1e-10)

    def test_gradient_matches_central_differences(self):
        for seed in range(5):
            rng, scen, ch, v, f, omega = _reduced_case(seed)
            grad = egrad_v(v, ch, f, omega, scen)
            eps = 1e-6
            for _ in range(6):
                tan = circle_project(v, cgauss(rng, v.shape))
                tan /= np.linalg.norm(tan)
                fd = (g1_objective(v + eps * tan, ch, f, omega, scen)
                      - g1_objective(v - eps * tan, ch, f, omega,
                                     scen)) / (2 * eps)
                assert 2 * np.real(np.vdot(grad, tan)) == pytest.approx(
                    fd, rel=1e-4, abs=1e-12)

    def test_objective_identity_at_mmse_point(self):
        for seed in range(5):
            _, scen, ch, v, f, omega_unused = _reduced_case(seed)
            h_e = effective_channel(ch, v)
            w, omega = update_w_omega(h_e, f, scen)
            e = mse_matrix(h_e, f, w, scen)
            sign, logdet = np.linalg.slogdet(e)
            val = wmmse_objective(h_e, f, w, omega, scen)
            assert val == pytest.approx(scen.n_s + sign.real * logdet,
                                        rel=1e-10)


def _g1_via_effective_channel(v, h_c, f, omega, scen):
    """Cost and gradient of g1 through the full (n_ue, n_bs) effective
    channel, with h_e[u, b] = conj(h_c[b + u*n_bs]) @ v and the gradient's
    sum over h_c rows written as loops."""
    geom = scen.geom
    h_e = np.empty((geom.n_ue, geom.n_bs), dtype=complex)
    for u in range(geom.n_ue):
        for b in range(geom.n_bs):
            h_e[u, b] = h_c[b + u * geom.n_bs].conj() @ v
    hf = h_e @ f
    omega_inv = np.linalg.inv(omega)
    t_inv = np.linalg.inv(omega_inv
                          + omega_inv @ hf.conj().T @ hf / scen.sigma2_d)
    inner = hf @ t_inv @ t_inv @ omega_inv @ f.conj().T
    grad = np.zeros(geom.m, dtype=complex)
    for u in range(geom.n_ue):
        for b in range(geom.n_bs):
            grad += h_c[b + u * geom.n_bs] * inner[u, b]
    return np.trace(t_inv).real, -grad / scen.sigma2_d


@pytest.mark.parametrize("n_s", [1, 3])
@pytest.mark.parametrize("geom", [SystemGeometry(16, 8, 4, 4),
                                  SystemGeometry(36, 16, 6, 6)],
                         ids=["desk", "paper"])
def test_reduced_form_matches_effective_channel(geom, n_s):
    # n_bs != n_ue, so a swap of the two inside the reduced form fails.
    # Even seeds draw a random (g, h) pair with K = m, odd seeds a random
    # h_c as factors with w = h_c, as a cs_est estimate carries w.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            ch = ChannelRealization(cgauss(rng, (geom.n_bs, geom.m)),
                                    cgauss(rng, (geom.m, geom.n_ue)))
        else:
            ch = dense_channel(cgauss(rng, (geom.n_bs * geom.n_ue, geom.m)),
                               geom.n_bs, geom.n_ue)
        h_c = cascaded(ch)
        v = random_unit_modulus(geom.m, rng)
        f = cgauss(rng, (geom.n_bs, n_s))
        f /= np.linalg.norm(f)
        omega = _random_omega(rng, n_s)
        scen = DownlinkScenario(geom, 0.7, n_s)
        cost, grad = _g1_via_effective_channel(v, h_c, f, omega, scen)
        assert g1_objective(v, ch, f, omega, scen) == pytest.approx(
            cost, rel=1e-12)
        got = egrad_v(v, ch, f, omega, scen)
        assert np.linalg.norm(got - grad) <= 1e-12 * np.linalg.norm(grad)


GEOM_DESK = SystemGeometry()
SIGMA2_D = pnr_to_sigma2(10.0, GEOM_DESK.d_bi, GEOM_DESK.d_iu)
DESK = DownlinkScenario(GEOM_DESK, SIGMA2_D)
PAPER = DownlinkScenario(SystemGeometry(36, 16, 6, 6), SIGMA2_D)


def _channel(seed, geom=GEOM_DESK):
    rng = np.random.default_rng(seed)
    return synth_channels(geom, sample_paths(geom, 2, rng))


class TestAltWmmse:
    def test_trace_monotone_and_contract(self):
        for seed in range(8):
            sol = alt_wmmse(DESK, _channel(seed),
                            np.random.default_rng(100 + seed))
            assert len(sol.g_trace) == sol.iterations + 1
            for before, after in zip(sol.g_trace, sol.g_trace[1:]):
                assert after <= before + 1e-9
            assert np.linalg.norm(sol.f) == pytest.approx(1.0)
            np.testing.assert_allclose(np.abs(sol.v_d), 1.0, atol=1e-12)
            assert np.isfinite(sol.se) and sol.se > 0

    def test_optimized_reflection_beats_random_phase(self):
        wins = 0
        for seed in range(10):
            ch = _channel(seed)
            base = alt_wmmse(DESK, ch, np.random.default_rng(10_000 + seed),
                             optimize_v=False)
            opt = alt_wmmse(DESK, ch, np.random.default_rng(10_000 + seed))
            wins += opt.se > base.se
        assert wins >= 9

    def test_reason_converged(self):
        ch = _channel(0)
        sol = alt_wmmse(DESK, ch, np.random.default_rng(100))
        assert sol.reason == "converged" and 1 < sol.iterations < 50
        assert sol.g_trace[-2] - sol.g_trace[-1] <= wmmse._EPS3
        # The random-phase arm stops after its one round.
        base = alt_wmmse(DESK, ch, np.random.default_rng(100),
                         optimize_v=False)
        assert (base.reason, base.iterations) == ("converged", 1)

    def test_reason_max_outer(self):
        # A desk channel at 20 dB with the desk preset's 3 paths.
        rng = np.random.default_rng(1)
        ch = synth_channels(GEOM_DESK, sample_paths(GEOM_DESK, 3, rng))
        scen = DownlinkScenario(GEOM_DESK, pnr_to_sigma2(
            20.0, GEOM_DESK.d_bi, GEOM_DESK.d_iu))
        sol = alt_wmmse(scen, ch, np.random.default_rng(101))
        assert (sol.reason, sol.iterations) == ("max_outer", 50)
        assert sol.g_trace[-2] - sol.g_trace[-1] > wmmse._EPS3

    def test_fixed_reflection_left_untouched(self):
        v0 = random_unit_modulus(GEOM_DESK.m, np.random.default_rng(42))
        sol = alt_wmmse(DESK, _channel(3), np.random.default_rng(42),
                        optimize_v=False)
        np.testing.assert_array_equal(sol.v_d, v0)

    def test_single_element_reflector_hits_closed_form(self):
        geom = SystemGeometry(16, 8, 1, 1, 16, 8, 2, 2)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ch = synth_channels(geom, sample_paths(geom, 1, rng))
            scen = DownlinkScenario(geom, SIGMA2_D, 1)
            sol = alt_wmmse(scen, ch, np.random.default_rng(500 + seed))
            h_e = effective_channel(ch, sol.v_d)
            top = np.linalg.svd(h_e, compute_uv=False)[0]
            closed = float(np.log2(1.0 + top ** 2 / SIGMA2_D))
            assert sol.se == pytest.approx(closed, abs=1e-8)

    def test_training_overhead_discounts_rate(self):
        ch = _channel(4)
        sol_full = alt_wmmse(DESK, ch, np.random.default_rng(9))
        from dataclasses import replace
        scen_half = replace(DESK, t_used=1000, t_tot=2000)
        h_e = effective_channel(ch, sol_full.v_d)
        assert spectral_efficiency(h_e, sol_full.f, scen_half) == \
            pytest.approx(0.5 * spectral_efficiency(h_e, sol_full.f, DESK))


def _update_f_one(h_e, w, omega, scen):
    """update_f's beamformer as one matrix's formula."""
    psi = np.trace(omega @ w.conj().T @ w).real
    hw = h_e.conj().T @ w
    f_tilde = np.linalg.solve(hw @ omega @ hw.conj().T
                              + scen.sigma2_d * psi * np.eye(h_e.shape[1]),
                              hw @ omega)
    return f_tilde / np.sqrt(sq_norms(f_tilde))


def test_stacked_closed_forms_equal_per_matrix_calls():
    rng = np.random.default_rng(30)
    trials = 6
    ch = stack_channels([_channel(seed) for seed in range(trials)])
    v = np.stack([random_unit_modulus(GEOM_DESK.m, rng)
                  for _ in range(trials)])
    h_e = effective_channel(ch, v)
    f = cgauss(rng, (trials, GEOM_DESK.n_bs, DESK.n_s))
    f /= np.linalg.norm(f, axis=(1, 2), keepdims=True)
    w, omega = update_w_omega(h_e, f, DESK)
    g = wmmse_objective(h_e, f, w, omega, DESK)
    se = spectral_efficiency(h_e, f, DESK)
    w_zero = w.copy()
    w_zero[2] = 0.0                 # a degenerate trial inside the stack
    f_new, degenerate = update_f(h_e, w_zero, omega, DESK)
    assert degenerate.tolist() == [False, False, True, False, False, False]
    for i in range(trials):
        w_i, omega_i = update_w_omega(h_e[i], f[i], DESK)
        assert np.array_equal(w_i, w[i])
        assert np.array_equal(omega_i, omega[i])
        assert wmmse_objective(h_e[i], f[i], w[i], omega[i], DESK) == g[i]
        assert spectral_efficiency(h_e[i], f[i], DESK) == se[i]
        f_i, degenerate_i = update_f(h_e[i:i + 1], w_zero[i:i + 1],
                                     omega[i:i + 1], DESK)
        assert np.array_equal(f_i[0], f_new[i])
        assert degenerate_i[0] == degenerate[i]
        if i != 2:
            assert np.array_equal(f_new[i], _update_f_one(h_e[i], w[i],
                                                          omega[i], DESK))


def _assert_stacked_equals_single_runs(scen, optimize_v, max_outer=50):
    ch = stack_channels([_channel(seed, scen.geom) for seed in range(4)])
    rngs = [np.random.default_rng(700 + i) for i in range(4)]
    stacked = alt_wmmse(scen, ch, rngs, max_outer, optimize_v)
    for i, sol in enumerate(stacked):
        one = alt_wmmse(scen, ch[i], np.random.default_rng(700 + i),
                        max_outer, optimize_v)
        assert np.array_equal(sol.f, one.f)
        assert np.array_equal(sol.v_d, one.v_d)
        assert (sol.g_trace, sol.se, sol.iterations, sol.reason,
                sol.stalled) == (one.g_trace, one.se, one.iterations,
                                 one.reason, one.stalled)
    if optimize_v:
        # The trials stop after different rounds or by different rules,
        # so the lock-step loop retires rows on their own.
        assert len({(sol.iterations, sol.reason) for sol in stacked}) > 1
    return stacked


@pytest.mark.parametrize("optimize_v", [True, False])
def test_stacked_alt_wmmse_equals_single_runs(optimize_v):
    _assert_stacked_equals_single_runs(DESK, optimize_v)


@pytest.mark.parametrize("optimize_v", [True, False])
def test_stacked_alt_wmmse_equals_single_runs_paper(optimize_v):
    _assert_stacked_equals_single_runs(PAPER, optimize_v)


@pytest.mark.parametrize("scen, max_outer, converged_at_cap", [
    (DESK, 8, False), (PAPER, 6, False), (DESK, 6, True),
], ids=["desk-8", "paper-6", "desk-6"])
def test_stacked_rows_stop_by_both_rules(scen, max_outer, converged_at_cap):
    # Some rows converge and the others reach the cap; at DESK with
    # max_outer = 6 one row converges in the cap round, and converged wins.
    stacked = _assert_stacked_equals_single_runs(scen, True, max_outer)
    assert {sol.reason for sol in stacked} == {"converged", "max_outer"}
    for sol in stacked:
        capped = sol.g_trace[-2] - sol.g_trace[-1] > wmmse._EPS3
        assert sol.reason == ("max_outer" if capped else "converged")
        assert sol.iterations <= max_outer
        if capped:
            assert sol.iterations == max_outer
    assert any(sol.reason == "converged" and sol.iterations == max_outer
               for sol in stacked) == converged_at_cap


@pytest.mark.parametrize("max_outer", [0, -1])
def test_max_outer_below_one_refused(max_outer):
    with pytest.raises(ValueError, match=f"max_outer={max_outer}"):
        alt_wmmse(DESK, _channel(0), np.random.default_rng(0), max_outer)


def test_fixed_reflection_takes_the_start_closed_form(monkeypatch):
    calls = []
    real = wmmse.update_w_omega
    monkeypatch.setattr(wmmse, "update_w_omega",
                        lambda *args: calls.append(1) or real(*args))
    ch = _channel(5)
    sol = alt_wmmse(DESK, ch, np.random.default_rng(8), optimize_v=False)
    assert len(calls) == 1
    v0 = random_unit_modulus(GEOM_DESK.m, np.random.default_rng(8))
    h_e = effective_channel(ch, v0)
    vh = np.linalg.svd(h_e, full_matrices=False)[2]
    f0 = vh[:DESK.n_s].conj().T / np.sqrt(DESK.n_s)
    w, omega = real(h_e, f0, DESK)
    g0 = wmmse_objective(h_e, f0, w, omega, DESK)
    assert sol.iterations == 1 and sol.g_trace == [g0, g0]
    f = update_f(h_e[None], w[None], omega[None], DESK)[0]
    assert np.array_equal(sol.f, f[0])


class TestScenarioValidation:
    def test_shape_and_parameter_checks(self):
        # The factors' agreement is checked by effective_channel, which
        # test_channel.py covers; alt_wmmse checks them against the
        # geometry.
        with pytest.raises(ValueError, match="geometry"):
            alt_wmmse(DESK, _channel(0, SystemGeometry(16, 4, 4, 4)),
                      np.random.default_rng(0))
        for sigma2_d in (0.0, float("nan")):
            with pytest.raises(ValueError, match="sigma2_d"):
                DownlinkScenario(GEOM_M4, sigma2_d, 1)
        with pytest.raises(ValueError, match="n_s"):
            DownlinkScenario(GEOM_M4, 1.0, 5)
        with pytest.raises(ValueError, match="t_used"):
            DownlinkScenario(GEOM_M4, 1.0, 1, t_used=2000, t_tot=2000)

    @pytest.mark.parametrize("gens", [1, 5])
    def test_one_generator_per_trial(self, gens):
        ch = stack_channels([_channel(seed) for seed in range(3)])
        rngs = [np.random.default_rng(k) for k in range(gens)]
        with pytest.raises(ValueError,
                           match=f"{gens} generators for 3 trials"):
            alt_wmmse(DESK, ch, rngs)
