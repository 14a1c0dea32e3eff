"""Channel synthesis, dictionary, and observation-model tests.

Oracles: closed-form steering entries, the path-loss law evaluated
independently, Monte-Carlo moments for the gain profile and noise power,
and direct per-slot recomputation of the training model. The per-atom,
per-path and per-slot loops that the array code replaced are kept here as
bit-exact references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss
from irsmimo.channel import (ChannelRealization, PathSet, SystemGeometry,
                             _gains, _grid, _snap,
                             angular_coefficients, build_dictionaries,
                             cascaded, effective_channel, make_pilots,
                             pathloss, sample_paths, simulate_uplink,
                             stack_paths, steering_irs, steering_ula,
                             synth_channels)
from irsmimo.numerics import kron, mat, random_unit_modulus

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _ula_loop(u, n):
    """Scalar ULA response, one frequency per call."""
    return np.exp(1j * np.pi * u * np.arange(n)) / np.sqrt(n)


def _synth_loop(geom, paths):
    """Sum-of-paths channels built one np.outer term per path."""
    def irs(u):
        return np.kron(_ula_loop(u[0], geom.m_y), _ula_loop(u[1], geom.m_z))

    g = np.zeros((geom.n_bs, geom.m), dtype=complex)
    for p in range(paths.p):
        g += paths.alpha[p] * np.outer(_ula_loop(paths.u_bs[p], geom.n_bs),
                                       irs(paths.u_irs_aod[p]).conj())
    g *= np.sqrt(geom.n_bs * geom.m / paths.p)
    h = np.zeros((geom.m, geom.n_ue), dtype=complex)
    for q in range(paths.q):
        a_tx = _ula_loop(paths.u_ue[q], geom.n_ue)
        h += paths.beta[q] * np.outer(irs(paths.u_irs_aoa[q]), a_tx.conj())
    h *= np.sqrt(geom.n_ue * geom.m / paths.q)
    return g, h


def _pilots_loop(geom, t, rng, hold_v):
    """Training pilots drawn one slot at a time."""
    s = np.column_stack([random_unit_modulus(geom.n_ue, rng)
                         for _ in range(t)])
    s *= np.sqrt(1.0 / geom.n_ue)
    v = np.column_stack([random_unit_modulus(geom.m, rng) for _ in range(t)])
    for j in range(1, min(hold_v, t)):
        v[:, j] = v[:, 0]
    return s, v


def _single_path_set(rng, geom):
    theta_r = rng.uniform(0, 2 * np.pi, 1)
    theta_t, phi_t = rng.uniform(0, 2 * np.pi, 1), rng.uniform(0, 2 * np.pi, 1)
    psi_r, phi_r = rng.uniform(0, 2 * np.pi, 1), rng.uniform(0, 2 * np.pi, 1)
    psi_t = rng.uniform(0, 2 * np.pi, 1)
    alpha = cgauss(rng, 1)
    beta = cgauss(rng, 1)
    return PathSet(alpha, beta, np.cos(theta_r),
                   np.column_stack([np.sin(theta_t) * np.sin(phi_t),
                                    np.cos(phi_t)]),
                   np.column_stack([np.sin(psi_r) * np.sin(phi_r),
                                    np.cos(phi_r)]),
                   np.cos(psi_t))


def test_geometry_validation():
    geom = SystemGeometry()
    assert geom.m == 16 and geom.g_i == 16
    uni = SystemGeometry(16, 8, 4, 4, 64, 64, 16, 16).unitary()
    assert (uni.g_bs, uni.g_ue, uni.g_y, uni.g_z) == (16, 8, 4, 4)
    with pytest.raises(ValueError):
        SystemGeometry(n_bs=0)
    with pytest.raises(ValueError):
        SystemGeometry(d_bi=-1.0)
    for kwargs in ({"d_bi": float("nan")}, {"d_iu": float("nan")}):
        with pytest.raises(ValueError):
            SystemGeometry(**kwargs)


def test_steering_ula_frozen():
    out = steering_ula(0.5, 4)
    np.testing.assert_allclose(out, np.array([1, 1j, -1, -1j]) / 2.0,
                               atol=1e-15)


@given(u=st.floats(min_value=-1.0, max_value=1.0), n=st.integers(1, 64))
@settings(deadline=None, max_examples=50)
def test_steering_ula_unit_norm(u, n):
    np.testing.assert_allclose(np.linalg.norm(steering_ula(u, n)), 1.0,
                               atol=1e-12)


@pytest.mark.parametrize("n, u", [
    (1, np.array([0.3])), (4, _grid(4)), (7, _grid(16)),
    (16, np.random.default_rng(1).uniform(-1.0, 1.0, 5))])
def test_steering_ula_array_matches_scalar_calls(n, u):
    ref = np.column_stack([_ula_loop(x, n) for x in u])
    assert np.array_equal(steering_ula(u, n), ref)
    assert np.array_equal(steering_ula(u[0], n), _ula_loop(u[0], n))


def test_steering_irs_is_kron():
    theta, phi = 1.1, 2.3
    out = steering_irs(theta, phi, 4, 2)
    ref = kron(steering_ula(np.sin(theta) * np.sin(phi), 4),
               steering_ula(np.cos(phi), 2))
    np.testing.assert_allclose(out, ref, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(out), 1.0, atol=1e-12)


def test_pathloss_law():
    np.testing.assert_allclose(pathloss(150.0), 10 ** -6.14 / 150.0 ** 2,
                               rtol=1e-12)
    np.testing.assert_allclose(pathloss(150.0), 3.22e-11, rtol=1e-2)
    np.testing.assert_allclose(pathloss(10.0), 10 ** -6.14 / 100.0,
                               rtol=1e-12)


def test_gain_profile_moments():
    # LoS-to-NLoS mean power ratio is 10^0.5; each entry is CN with the
    # stated variance split evenly across real and imaginary parts.
    rng = np.random.default_rng(0)
    los = np.empty(20000, complex)
    nlos = np.empty(20000, complex)
    for i in range(20000):
        g = _gains(2, 1.0, rng)
        los[i], nlos[i] = g[0], g[1]
    ratio = np.mean(np.abs(los) ** 2) / np.mean(np.abs(nlos) ** 2)
    np.testing.assert_allclose(ratio, 10 ** 0.5, rtol=0.05)
    np.testing.assert_allclose(np.var(los.real), 0.5, rtol=0.05)
    np.testing.assert_allclose(np.var(los.imag), 0.5, rtol=0.05)


def test_sample_paths_angle_range_and_distinct():
    geom = SystemGeometry()
    rng = np.random.default_rng(3)
    paths = sample_paths(geom, 3, rng)
    for u in (paths.u_bs, paths.u_irs_aod, paths.u_irs_aoa, paths.u_ue):
        assert np.all(np.abs(u) <= 1)
    diff = np.abs(np.subtract.outer(paths.u_bs, paths.u_bs))
    assert diff[~np.eye(3, dtype=bool)].min() >= 1e-6
    for k in (0, geom.n_ue + 1):
        with pytest.raises(ValueError):
            sample_paths(geom, k, rng)


def test_sample_paths_on_grid():
    geom = SystemGeometry(16, 8, 4, 4, 64, 64, 16, 16)
    rng = np.random.default_rng(4)
    for _ in range(20):
        paths = sample_paths(geom, 3, rng, on_grid=True)
        for u, g in ((paths.u_bs, geom.g_bs), (paths.u_ue, geom.g_ue)):
            assert np.all(np.isin(u, _grid(g)))
        assert np.all(np.isin(paths.u_irs_aod[:, 0], _grid(geom.g_y)))
        assert np.all(np.isin(paths.u_irs_aod[:, 1], _grid(geom.g_z)))
        for u, g, sep in ((paths.u_bs, geom.g_bs, 4),
                          (paths.u_ue, geom.g_ue, 8)):
            _, idx = _snap(u, g)
            for a in range(3):
                for b in range(a + 1, 3):
                    d = abs(int(idx[a]) - int(idx[b])) % g
                    assert min(d, g - d) >= sep


def test_sample_paths_separation_unreachable():
    # A 5-point BS grid with separation ceil(5/4) = 2 holds at most 2 paths.
    geom = SystemGeometry(4, 4, 2, 2, 5, 4, 2, 2)
    with pytest.raises(ValueError, match="could not draw separated"):
        sample_paths(geom, 3, np.random.default_rng(0), on_grid=True)


def test_sample_paths_unreachable_fails_before_drawing():
    # Raised up front by the grid-room rule, not after 2000 redraws.
    geom = SystemGeometry(4, 4, 2, 2, 5, 4, 2, 2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="could not draw separated"):
        sample_paths(geom, 3, rng, on_grid=True)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("k", [0, SystemGeometry().max_paths + 1])
def test_sample_paths_count_out_of_range_fails_before_drawing(k):
    geom = SystemGeometry()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        sample_paths(geom, k, rng)
    assert rng.bit_generator.state == state


def test_synth_single_path_matches_outer_product():
    geom = SystemGeometry(8, 4, 2, 2, 8, 4, 2, 2)
    rng = np.random.default_rng(5)
    paths = _single_path_set(rng, geom)
    ch = synth_channels(geom, paths)
    a_bs = steering_ula(paths.u_bs[0], geom.n_bs)
    a_aod = kron(steering_ula(paths.u_irs_aod[0, 0], geom.m_y),
                 steering_ula(paths.u_irs_aod[0, 1], geom.m_z))
    g_ref = np.sqrt(geom.n_bs * geom.m) * paths.alpha[0] \
        * np.outer(a_bs, a_aod.conj())
    np.testing.assert_allclose(ch.g, g_ref, atol=1e-14)


@pytest.mark.parametrize("on_grid", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_synth_matches_per_path_loop(k, on_grid):
    # Bit-exact: the paths must be added in path order for k >= 4 too.
    geom = SystemGeometry(16, 8, 4, 4, 16, 8, 4, 4)
    rng = np.random.default_rng(100 + k)
    for _ in range(5):
        paths = sample_paths(geom, k, rng, on_grid=on_grid)
        ch = synth_channels(geom, paths)
        g_ref, h_ref = _synth_loop(geom, paths)
        assert np.array_equal(ch.g, g_ref)
        assert np.array_equal(ch.h, h_ref)


def test_synth_frobenius_matches_term_oracle():
    # Independent recomputation with explicit exponential loops.
    geom = SystemGeometry()
    rng = np.random.default_rng(6)
    paths = sample_paths(geom, 3, rng)
    ch = synth_channels(geom, paths)
    g_ref, _ = _synth_loop(geom, paths)
    np.testing.assert_allclose(np.linalg.norm(ch.g), np.linalg.norm(g_ref),
                               rtol=1e-12)
    np.testing.assert_allclose(ch.g, g_ref, atol=1e-12 * np.abs(g_ref).max())


@given(seed=seeds)
@settings(deadline=None, max_examples=20)
def test_rank_equals_path_count(seed):
    geom = SystemGeometry()
    rng = np.random.default_rng(seed)
    paths = sample_paths(geom, 3, rng)
    ch = synth_channels(geom, paths)
    for a in (ch.g, ch.h):
        sig = np.linalg.svd(a, compute_uv=False)
        assert sig[3] / sig[0] < 1e-10
        assert sig[2] / sig[0] > 1e-8


def test_angular_sparsity_on_grid():
    geom = SystemGeometry()
    dicts = build_dictionaries(geom)
    rng = np.random.default_rng(7)
    for _ in range(10):
        ch = synth_channels(geom, sample_paths(geom, 3, rng, on_grid=True))
        lam_g, lam_h = angular_coefficients(ch, dicts)
        assert np.sum(np.abs(lam_g) > 1e-10) == 3
        assert np.sum(np.abs(lam_h) > 1e-10) == 3
        np.testing.assert_allclose(dicts.a_bs @ lam_g @ dicts.a_i.conj().T,
                                   ch.g, atol=1e-10 * np.abs(ch.g).max())
    single = synth_channels(geom, sample_paths(geom, 1, rng, on_grid=True))
    lam_g, _ = angular_coefficients(single, dicts)
    assert np.sum(np.abs(lam_g) > 1e-10) == 1


def test_angular_coefficients_need_unitary():
    geom = SystemGeometry(16, 8, 4, 4, 64, 64, 16, 16)
    ch = synth_channels(geom, sample_paths(geom, 2, np.random.default_rng(8)))
    with pytest.raises(ValueError):
        angular_coefficients(ch, build_dictionaries(geom))


def test_build_dictionaries():
    geom = SystemGeometry()
    dicts = build_dictionaries(geom)
    assert dicts.unitary
    for a in (dicts.a_bs, dicts.a_ue, dicts.a_i):
        np.testing.assert_allclose(a.conj().T @ a, np.eye(a.shape[1]),
                                   atol=1e-10)
    np.testing.assert_allclose(dicts.a_i, kron(dicts.a_y, dicts.a_z),
                               atol=1e-14)
    over = build_dictionaries(SystemGeometry(16, 8, 4, 4, 64, 64, 16, 16))
    assert not over.unitary
    assert over.a_i.shape == (16, 256)
    with pytest.raises(ValueError):
        build_dictionaries(SystemGeometry(16, 8, 4, 4, g_bs=8))


def test_dictionary_columns_frozen_two_antenna():
    dicts = build_dictionaries(SystemGeometry(2, 2, 1, 1, 2, 2, 1, 1))
    ref = np.column_stack([[1, -1], [1, 1]]) / np.sqrt(2)
    np.testing.assert_allclose(dicts.a_bs, ref, atol=1e-15)


def test_cascaded_structure():
    geom = SystemGeometry(4, 3, 2, 2, 4, 3, 2, 2)
    rng = np.random.default_rng(9)
    ch = synth_channels(geom, sample_paths(geom, 2, rng))
    h_c = cascaded(ch)
    assert h_c.shape == (12, 4)
    for m in range(4):
        np.testing.assert_allclose(h_c[:, m], np.kron(ch.h[m, :], ch.g[:, m]),
                                   atol=1e-14)
    scalar = ChannelRealization(np.array([[2.0 + 0j]]),
                                np.array([[3.0 + 0j]]))
    np.testing.assert_allclose(cascaded(scalar), [[6.0]], atol=1e-15)


def test_observation_consistency_both_forms():
    geom = SystemGeometry()
    rng = np.random.default_rng(10)
    ch = synth_channels(geom, sample_paths(geom, 3, rng))
    s, v = make_pilots(geom, 6, rng)
    pil = simulate_uplink(ch, s, v, 0.0, rng)
    scale = np.abs(pil.r).max()
    for t in range(6):
        direct = ch.g @ np.diag(v[:, t]) @ ch.h @ s[:, t]
        np.testing.assert_allclose(pil.r[:, t], direct, atol=1e-10 * scale)
        vec_form = kron(s[:, t][None, :], np.eye(geom.n_bs)) @ ch.h_c @ v[:, t]
        np.testing.assert_allclose(pil.r[:, t], vec_form, atol=1e-10 * scale)


@given(seed=seeds)
@settings(deadline=None, max_examples=25)
def test_effective_channel_identity(seed):
    geom = SystemGeometry(6, 4, 2, 2, 6, 4, 2, 2)
    rng = np.random.default_rng(seed)
    ch = synth_channels(geom, sample_paths(geom, 2, rng))
    v = random_unit_modulus(geom.m, rng)
    h_e = effective_channel(ch.h_c, v, geom)
    direct = ch.h.conj().T @ np.diag(v) @ ch.g.conj().T
    np.testing.assert_allclose(h_e, direct, atol=1e-10 * np.abs(direct).max())


def test_effective_channel_all_ones_and_errors():
    geom = SystemGeometry(6, 4, 2, 2, 6, 4, 2, 2)
    rng = np.random.default_rng(11)
    ch = synth_channels(geom, sample_paths(geom, 2, rng))
    h_e = effective_channel(ch.h_c, np.ones(geom.m, complex), geom)
    ref = ch.h.conj().T @ ch.g.conj().T
    np.testing.assert_allclose(h_e, ref, atol=1e-12 * np.abs(ref).max())
    with pytest.raises(ValueError):
        effective_channel(ch.h_c[:, :2], np.ones(geom.m, complex), geom)
    with pytest.raises(ValueError):
        effective_channel(ch.h_c, np.ones(3, complex), geom)


@pytest.mark.parametrize("geom", [SystemGeometry(),
                                  SystemGeometry(36, 16, 6, 6)],
                         ids=["desk", "paper"])
def test_stacked_synthesis_equals_per_trial_calls(geom):
    rng = np.random.default_rng(21)
    paths = [sample_paths(geom, 3, rng) for _ in range(5)]
    stacked = synth_channels(geom, stack_paths(paths))
    v = np.stack([random_unit_modulus(geom.m, rng) for _ in paths])
    h_e = effective_channel(stacked.h_c, v, geom)
    for i, one_paths in enumerate(paths):
        one = synth_channels(geom, one_paths)
        assert np.array_equal(stacked.g[i], one.g)
        assert np.array_equal(stacked.h[i], one.h)
        assert np.array_equal(stacked.h_c[i], one.h_c)
        assert np.array_equal(h_e[i], effective_channel(one.h_c, v[i], geom))
        # The matrix-vector form effective_channel had before it took
        # stacks.
        assert np.array_equal(
            h_e[i], mat(one.h_c.conj() @ v[i], geom.n_bs, geom.n_ue).T)


def test_make_pilots_power_and_hold():
    geom = SystemGeometry()
    s, v = make_pilots(geom, 12, np.random.default_rng(12), hold_v=5)
    np.testing.assert_allclose(np.sum(np.abs(s) ** 2, axis=0), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
    for j in range(5):
        assert np.array_equal(v[:, j], v[:, 0])
    assert not np.array_equal(v[:, 5], v[:, 0])


@pytest.mark.parametrize("hold_v", [0, 3, 20])
def test_make_pilots_matches_per_slot_loop(hold_v):
    geom = SystemGeometry()
    s, v = make_pilots(geom, 12, np.random.default_rng(16), hold_v=hold_v)
    s_ref, v_ref = _pilots_loop(geom, 12, np.random.default_rng(16), hold_v)
    assert np.array_equal(s, s_ref)
    assert np.array_equal(v, v_ref)


def test_make_pilots_hold_does_not_shift_rng():
    geom = SystemGeometry()
    s0, v0 = make_pilots(geom, 12, np.random.default_rng(13), hold_v=0)
    s1, v1 = make_pilots(geom, 12, np.random.default_rng(13), hold_v=5)
    assert np.array_equal(s0, s1)
    assert np.array_equal(v0[:, 5:], v1[:, 5:])


def test_simulate_uplink_noise_power_and_determinism():
    geom = SystemGeometry()
    rng = np.random.default_rng(14)
    ch = synth_channels(geom, sample_paths(geom, 3, rng))
    s, v = make_pilots(geom, 10000, rng)
    sigma2 = 1e-15
    pil = simulate_uplink(ch, s, v, sigma2, np.random.default_rng(15))
    clean = ch.g @ (v * (ch.h @ s))
    emp = np.mean(np.abs(pil.r - clean) ** 2)
    np.testing.assert_allclose(emp, sigma2, rtol=0.03)
    again = simulate_uplink(ch, s, v, sigma2, np.random.default_rng(15))
    assert np.array_equal(pil.r, again.r)
    with pytest.raises(ValueError):
        simulate_uplink(ch, s[:, :4], v, sigma2, rng)


@pytest.mark.parametrize("sigma2", [-1e-14, np.nan, np.inf])
def test_simulate_uplink_rejects_invalid_noise_power(sigma2):
    geom = SystemGeometry()
    rng = np.random.default_rng(16)
    ch = synth_channels(geom, sample_paths(geom, 2, rng))
    s, v = make_pilots(geom, 4, rng)
    with pytest.raises(ValueError, match="sigma2"):
        simulate_uplink(ch, s, v, sigma2, rng)
