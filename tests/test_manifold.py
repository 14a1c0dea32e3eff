"""Fixed-rank / complex-circle manifold and CG solver tests.

Oracles: explicit projector formulas, dense truncated SVD for the
retraction, the Eckart-Young optimum for CG convergence, and central
finite differences for the gradient convention.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss
from irsmimo.manifold import (CgOptions, CgResult, CircleManifold,
                              FixedRankManifold, FixedRankPoint, cg_minimize,
                              circle_project, circle_retract,
                              project_tangent, random_fixed_rank, retract,
                              transport)
from irsmimo.numerics import random_unit_modulus, truncated_svd

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _point_and_ambient(seed, n=8, m=6, r=2):
    rng = np.random.default_rng(seed)
    x = random_fixed_rank(n, m, r, rng)
    return x, cgauss(rng, (n, m)), rng


def test_fixed_rank_point_contracts():
    x = random_fixed_rank(8, 6, 3, np.random.default_rng(0))
    x.validate()
    assert x.r == 3 and x.shape == (8, 6)
    np.testing.assert_allclose(x.dense, (x.u * x.s) @ x.v.conj().T,
                               atol=1e-12)
    with pytest.raises(ValueError):
        FixedRankPoint(x.u, np.array([1.0, 2.0, 3.0]), x.v).validate()
    with pytest.raises(ValueError):
        FixedRankPoint(x.u, np.array([3.0, 2.0, -1.0]), x.v).validate()
    with pytest.raises(ValueError):
        FixedRankPoint(2.0 * x.u, x.s, x.v).validate()


def test_fixed_rank_point_validates_a_stack():
    rng = np.random.default_rng(24)
    x = FixedRankPoint.stack([random_fixed_rank(8, 6, 3, rng)
                              for _ in range(3)])
    x.validate()
    x.u[1] *= 2.0
    with pytest.raises(ValueError, match="u columns not orthonormal"):
        x.validate()


def test_circle_point_contract():
    # Circle ops take (B, m) stacks; a single point is a stack of one.
    rng = np.random.default_rng(1)
    v = np.stack([random_unit_modulus(5, rng) for _ in range(3)])
    assert CircleManifold.stacked(v) and not CircleManifold.stacked(v[0])
    w, bad = circle_retract(v, circle_project(v, cgauss(rng, (3, 5))),
                            [0.5, 0.25, 1.0])
    assert bad is None
    assert isinstance(w, np.ndarray) and w.dtype == complex
    assert w.shape == (3, 5)
    np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-12)


def test_project_matches_three_term_formula():
    x, j, _ = _point_and_ambient(2)
    t = project_tangent(x, j)
    p_u = x.u @ x.u.conj().T
    p_v = x.v @ x.v.conj().T
    eye_u = np.eye(8) - p_u
    eye_v = np.eye(6) - p_v
    ref = p_u @ j @ p_v + eye_u @ j @ p_v + p_u @ j @ eye_v
    np.testing.assert_allclose(t.embed(x), ref, atol=1e-10)
    np.testing.assert_allclose(np.abs(t.u_p.conj().T @ x.u).max(), 0,
                               atol=1e-10)
    np.testing.assert_allclose(np.abs(t.v_p.conj().T @ x.v).max(), 0,
                               atol=1e-10)
    with pytest.raises(ValueError):
        project_tangent(x, j[:, :3])


@given(seed=seeds)
@settings(deadline=None, max_examples=40)
def test_project_idempotent(seed):
    x, j, _ = _point_and_ambient(seed)
    t1 = project_tangent(x, j)
    t2 = project_tangent(x, t1.embed(x))
    np.testing.assert_allclose(t1.embed(x), t2.embed(x), atol=1e-12)


def test_project_fixes_own_point_and_kills_orthogonal_block():
    x, _, rng = _point_and_ambient(3)
    np.testing.assert_allclose(project_tangent(x, x.dense).embed(x), x.dense,
                               atol=1e-12)
    u_perp, _ = np.linalg.qr(cgauss(rng, (8, 8)) - x.u @ (x.u.conj().T
                                                          @ cgauss(rng, (8, 8))))
    # Build an ambient matrix with no component in col(u) or row(v).
    u_c = u_perp - x.u @ (x.u.conj().T @ u_perp)
    j = u_c @ cgauss(rng, (8, 6))
    j = j - j @ x.v @ x.v.conj().T
    t = project_tangent(x, j)
    np.testing.assert_allclose(t.embed(x), np.zeros((8, 6)), atol=1e-10)


@given(seed=seeds)
@settings(deadline=None, max_examples=40)
def test_projection_self_adjoint_and_inner_metric(seed):
    x, j1, rng = _point_and_ambient(seed)
    j2 = cgauss(rng, (8, 6))
    t1, t2 = project_tangent(x, j1), project_tangent(x, j2)
    lhs = np.sum(t1.embed(x).conj() * j2).real
    rhs = np.sum(j1.conj() * t2.embed(x)).real
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)
    embedded = np.sum(t1.embed(x).conj() * t2.embed(x)).real
    np.testing.assert_allclose(FixedRankManifold.inner(x, t1, t2), embedded,
                               rtol=1e-10, atol=1e-10)


def test_tangent_vector_arithmetic():
    x, j, rng = _point_and_ambient(4)
    t1 = project_tangent(x, j)
    t2 = project_tangent(x, cgauss(rng, (8, 6)))
    np.testing.assert_allclose((t1 + t2).embed(x), t1.embed(x) + t2.embed(x),
                               atol=1e-12)
    np.testing.assert_allclose((2.5 * t1).embed(x), 2.5 * t1.embed(x),
                               atol=1e-12)
    np.testing.assert_allclose((-t1).embed(x), -t1.embed(x), atol=1e-12)


def test_transport_contracts():
    x, j, rng = _point_and_ambient(5)
    d = project_tangent(x, j)
    y = random_fixed_rank(8, 6, 2, rng)
    td = transport(x, y, d)
    np.testing.assert_allclose(td.embed(y),
                               project_tangent(y, d.embed(x)).embed(y),
                               atol=1e-12)
    np.testing.assert_allclose(np.abs(td.u_p.conj().T @ y.u).max(), 0,
                               atol=1e-10)
    assert np.linalg.norm(td.embed(y)) <= np.linalg.norm(d.embed(x)) + 1e-12


def test_retract_zero_step_and_svd_oracle():
    x, j, _ = _point_and_ambient(6)
    d = project_tangent(x, j)
    at0, bad = retract(x[None], d[None], [0.0])
    assert bad is None
    np.testing.assert_allclose(at0.dense[0], x.dense, atol=1e-12)
    for step in (1e-3, 0.3, 1.0):
        y, bad = retract(x[None], d[None], [step])
        assert bad is None
        y = y[0]
        y.validate()
        assert y.r == x.r
        u, s, v = truncated_svd(x.dense + step * d.embed(x), x.r)
        np.testing.assert_allclose(y.dense, (u * s) @ v.conj().T, atol=1e-10)


def _retract_per_step_qr(x, d, step):
    """Reference retraction: QR-factors step * u_p and step * v_p on every
    call instead of scaling the factors cached on d."""
    if step == 0.0:
        return x
    r = x.r
    q_u, r_u = np.linalg.qr(step * d.u_p)
    q_v, r_v = np.linalg.qr(step * d.v_p)
    core = np.zeros((2 * r, 2 * r), dtype=complex)
    core[:r, :r] = np.diag(x.s) + step * d.m_core
    core[:r, r:] = r_v.conj().T
    core[r:, :r] = r_u
    w, sig, zh = np.linalg.svd(core)
    u_new = np.hstack([x.u, q_u]) @ w[:, :r]
    v_new = np.hstack([x.v, q_v]) @ zh[:r].conj().T
    return FixedRankPoint(u_new, sig[:r], v_new)


@pytest.mark.parametrize("n,m,r", [(8, 6, 2), (16, 36, 3), (36, 16, 4)])
def test_retract_cached_qr_matches_per_step_qr(n, m, r):
    rng = np.random.default_rng(n + m + r)
    x = random_fixed_rank(n, m, r, rng)[None]
    j = cgauss(rng, (1, n, m))
    reused = project_tangent(x, j)
    for k in range(58):
        step = 2.0 ** -k
        ref = _retract_per_step_qr(x[0], reused[0], step)
        # A fresh vector factors on this call; the reused one factored on
        # its first call, at another step.
        for d in (project_tangent(x, j), reused):
            y = retract(x, d, [step])[0][0]
            assert np.array_equal(y.u, ref.u)
            assert np.array_equal(y.s, ref.s)
            assert np.array_equal(y.v, ref.v)
    for d in (project_tangent(x, j), reused):
        np.testing.assert_allclose(retract(x, d, [0.3])[0].dense[0],
                                   _retract_per_step_qr(x[0], d[0],
                                                        0.3).dense,
                                   atol=1e-12)
    assert (reused + reused)._qr is None and (2.0 * reused)._qr is None


def test_retract_rank_collapse_flags_the_row():
    # Step exactly cancels the smallest singular direction, dropping the
    # rank to r-1 while sigma_1 stays healthy.
    x, _, _ = _point_and_ambient(7)
    d = project_tangent(x, -x.s[-1] * np.outer(x.u[:, -1], x.v[:, -1].conj()))
    assert retract(x[None], d[None], [1.0])[1] == [True]


def test_riemannian_grad_directional_derivative():
    # Conjugate-gradient convention: d/de f(x + e*t) = 2 Re<egrad, t>.
    x, a, rng = _point_and_ambient(8)

    def cost(pt):
        return float(np.linalg.norm(pt - a) ** 2)

    grad = project_tangent(x, x.dense - a)
    t = project_tangent(x, cgauss(rng, (8, 6)))
    eps = 1e-6
    fd = (cost(x.dense + eps * t.embed(x))
          - cost(x.dense - eps * t.embed(x))) / (2 * eps)
    an = 2.0 * FixedRankManifold.inner(x, grad, t)
    np.testing.assert_allclose(fd, an, rtol=1e-6)


def test_circle_project_cases():
    rng = np.random.default_rng(9)
    v = random_unit_modulus(12, rng)
    np.testing.assert_allclose(circle_project(v, v), 0, atol=1e-12)
    np.testing.assert_allclose(circle_project(v, 1j * v), 1j * v,
                               atol=1e-12)
    t = circle_project(v, cgauss(rng, 12))
    np.testing.assert_allclose(np.real(t * v.conj()), 0, atol=1e-12)
    np.testing.assert_allclose(circle_project(v, t), t, atol=1e-12)
    with pytest.raises(ValueError):
        circle_project(v, np.ones(5, complex))


def test_circle_retract_cases():
    rng = np.random.default_rng(10)
    v = np.stack([random_unit_modulus(16, rng) for _ in range(2)])
    t = circle_project(v, cgauss(rng, (2, 16)))
    w, bad = circle_retract(v, t, [0.7, 0.7])
    assert bad is None
    np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-12)
    err = {eps: np.linalg.norm(circle_retract(v, t, [eps, eps])[0]
                               - (v + eps * t), axis=-1)
           for eps in (1e-3, 1e-4)}
    assert np.all((30 < err[1e-3] / err[1e-4]) & (err[1e-3] / err[1e-4] < 300))
    # One entry of row 1 steps onto zero: row 1 is degenerate, and row 0
    # is what it is alone.
    d = t.copy()
    d[1, 3] = -v[1, 3]
    w, bad = circle_retract(v, d, [0.7, 1.0])
    assert bad == [False, True]
    assert np.array_equal(w[0], circle_retract(v[:1], d[:1], [0.7])[0][0])


def _sq_dist(b):
    """cost_grad of ||X - b||_F^2 on the fixed-rank manifold."""
    return lambda p, rows: ([float(np.linalg.norm(e) ** 2)
                             for e in p.dense - b],
                            lambda keep=None: p.dense - b)


def test_cg_converges_to_rank_r_target():
    rng = np.random.default_rng(11)
    target = random_fixed_rank(8, 6, 2, rng).dense
    res = cg_minimize(FixedRankManifold, _sq_dist(target),
                      random_fixed_rank(8, 6, 2, rng),
                      CgOptions(epsilon=1e-12, max_iters=300))
    assert res.trace[-1] < 1e-8
    assert not res.stalled


def test_cg_reaches_eckart_young_floor():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        b = cgauss(rng, (6, 5))
        sig = np.linalg.svd(b, compute_uv=False)
        floor = float(np.sum(sig[2:] ** 2))
        res = cg_minimize(FixedRankManifold, _sq_dist(b),
                          random_fixed_rank(6, 5, 2, rng),
                          CgOptions(epsilon=1e-14, max_iters=500))
        assert abs(res.trace[-1] - floor) < 1e-6


def test_cg_trace_monotone_many_seeds():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        b = cgauss(rng, (7, 5))
        x0 = random_fixed_rank(7, 5, 2, rng)

        cost_grad = _sq_dist(b)
        res = cg_minimize(FixedRankManifold, cost_grad, x0,
                          CgOptions(epsilon=1e-10, max_iters=100))
        assert res.trace[0] == cost_grad(x0[None], slice(None))[0][0]
        assert all(a >= b_ - 1e-12 for a, b_ in zip(res.trace, res.trace[1:]))
        assert len(res.trace) == res.iters + 1


def test_cg_on_circle_manifold():
    rng = np.random.default_rng(12)
    y = random_unit_modulus(10, rng)
    res = cg_minimize(CircleManifold,
                      lambda p, rows: ([float(np.linalg.norm(e) ** 2)
                                        for e in p - y],
                                       lambda keep=None: p - y),
                      random_unit_modulus(10, rng),
                      CgOptions(epsilon=1e-12, max_iters=200))
    assert res.trace[-1] < 1e-8
    np.testing.assert_allclose(np.abs(res.x), 1.0, atol=1e-12)


def test_single_point_cost_sees_a_one_row_stack():
    rng = np.random.default_rng(23)
    b = cgauss(rng, (7, 5))
    y = cgauss(rng, 10)
    cases = [(FixedRankManifold, random_fixed_rank(7, 5, 2, rng),
              lambda x: x.dense - b),
             (CircleManifold, random_unit_modulus(10, rng), lambda x: x - y)]
    for manifold, x0, resid in cases:
        seen = {"len": set(), "rows": [], "keep": []}

        def cost_grad(x, rows):
            assert manifold.stacked(x)
            seen["len"].add(len(x))
            seen["rows"].append(rows)
            e = resid(x)

            def egrad(keep=None):
                seen["keep"].append(keep)
                return 10.0 * e

            # The 10x curvature makes unit steps overshoot, so line
            # searches reject trial points.
            return [10.0 * float(np.linalg.norm(r) ** 2) for r in e], egrad

        res = cg_minimize(manifold, cost_grad, x0,
                          CgOptions(epsilon=1e-10, max_iters=30))
        assert isinstance(res, CgResult)
        assert len(seen["rows"]) > len(res.trace) > 2
        assert seen["len"] == {1}
        assert all(rows == slice(None) for rows in seen["rows"])
        assert seen["keep"] and all(keep is None for keep in seen["keep"])


def test_cg_epsilon_stops_early():
    rng = np.random.default_rng(13)
    b = cgauss(rng, (6, 4))
    res = cg_minimize(FixedRankManifold, _sq_dist(b),
                      random_fixed_rank(6, 4, 2, rng),
                      CgOptions(epsilon=1e12, max_iters=100))
    assert res.iters == 1


def test_cg_rejects_nonfinite_start():
    rng = np.random.default_rng(14)
    x0 = random_fixed_rank(4, 4, 1, rng)
    with pytest.raises(ValueError):
        cg_minimize(FixedRankManifold,
                    lambda p, rows: ([float("nan")],
                                     lambda keep=None: p.dense),
                    x0, CgOptions())


def test_cg_options_validation():
    for kwargs in ({"epsilon": 0.0}, {"epsilon": float("nan")},
                   {"max_iters": 0}, {"max_iters": -3}):
        with pytest.raises(ValueError):
            CgOptions(**kwargs)


# stop -> (full-rank target, opts, cost evaluations before the cost turns
# infinite, egrad calls minus len(trace)). CgResult.reason names the
# "decrease" stop "converged".
_STOPS = {
    "max_iters": (True, CgOptions(epsilon=1e-10, max_iters=60), None, -1),
    "decrease": (True, CgOptions(epsilon=1.0, max_iters=60), None, -1),
    "zero_grad": (False, CgOptions(epsilon=1e-300, max_iters=500), None, 0),
    "stalled": (True, CgOptions(epsilon=1e-10, max_iters=60), 12, 0),
}


def _check_evaluation_counts(stop):
    full_rank, opts, finite_evals, offset = _STOPS[stop]
    rng = np.random.default_rng(16)
    b = cgauss(rng, (7, 5)) if full_rank else random_fixed_rank(
        7, 5, 2, rng).dense
    calls = {"cost_grad": 0, "egrad": 0, "retract": 0}

    def cost_grad(p, rows):
        calls["cost_grad"] += 1

        def egrad(keep=None):
            calls["egrad"] += 1
            return 10.0 * (p.dense - b)

        if finite_evals is not None and calls["cost_grad"] > finite_evals:
            return [float("inf")] * len(p), egrad
        return [10.0 * float(np.linalg.norm(e) ** 2)
                for e in p.dense - b], egrad

    class CountingManifold(FixedRankManifold):
        @staticmethod
        def retract(x, d, steps):
            y, bad = retract(x, d, steps)
            calls["retract"] += bad is None  # a degenerate row costs nothing
            return y, bad

    # The 10x curvature makes unit steps overshoot, so line searches
    # reject trial points.
    res = cg_minimize(CountingManifold, cost_grad,
                      random_fixed_rank(7, 5, 2, rng), opts)
    last_decrease = res.trace[-2] - res.trace[-1]
    observed = {
        "max_iters": res.iters == opts.max_iters,
        "decrease": res.iters < opts.max_iters and not res.stalled
        and last_decrease <= opts.epsilon,
        "zero_grad": res.iters < opts.max_iters and not res.stalled
        and last_decrease > opts.epsilon,
        "stalled": res.stalled,
    }
    assert [k for k, hit in observed.items() if hit] == [stop]
    assert len(res.trace) > 2, stop
    assert calls["egrad"] == len(res.trace) + offset < calls["cost_grad"], stop
    assert calls["cost_grad"] == calls["retract"] + 1, stop
    return res


def test_cg_evaluates_each_point_once():
    for stop in sorted(_STOPS):
        _check_evaluation_counts(stop)


@pytest.mark.parametrize("stop, reason", [
    ("decrease", "converged"), ("max_iters", "max_iters"),
    ("stalled", "stalled"), ("zero_grad", "zero_grad")])
def test_cg_reports_why_it_stopped(stop, reason):
    assert _check_evaluation_counts(stop).reason == reason


@pytest.mark.parametrize("opts,iters", [
    (CgOptions(epsilon=1e12, max_iters=100), 1),  # decrease test
    (CgOptions(epsilon=1e-10, max_iters=3), 3),   # iteration cap
])
def test_cg_does_no_work_at_the_final_point(opts, iters):
    rng = np.random.default_rng(18)
    b = cgauss(rng, (7, 5))
    seen = []  # (operation, dense point it ran at)

    def cost_grad(p, rows):
        def egrad(keep=None):
            seen.append(("egrad", p.dense[0].copy()))
            return p.dense - b

        return [float(np.linalg.norm(p.dense[0] - b) ** 2)], egrad

    # A single point runs as a stack of one.
    class CountingManifold(FixedRankManifold):
        @staticmethod
        def project(x, j):
            seen.append(("project", x.dense[0].copy()))
            return project_tangent(x, j)

        @staticmethod
        def transport(x, x_new, t):
            seen.append(("transport", x_new.dense[0].copy()))
            return transport(x, x_new, t)

    res = cg_minimize(CountingManifold, cost_grad,
                      random_fixed_rank(7, 5, 2, rng), opts)
    assert res.iters == iters and len(res.trace) == iters + 1
    assert not res.stalled and res.trace[-2] - res.trace[-1] > 0
    assert [op for op, p in seen if np.array_equal(p, res.x.dense)] == []
    # Every earlier point, x0 included, had its gradient taken once.
    assert sum(op == "egrad" for op, _ in seen) == res.iters


def _fit_costs(targets):
    """cost_grad of ||X - B||_F^2 for the stack of targets, and one(i), the
    same cost restricted to targets[i] for problem i alone."""
    def stacked(x, rows):
        e = x.dense - targets[rows]
        sums = (np.abs(e) ** 2).sum(axis=(-2, -1)).tolist()
        return sums, lambda keep=None: e if keep is None else e[keep]

    def one(i):
        return lambda x, rows: stacked(x, [i])

    return one, stacked


def test_stack_equals_each_problem_alone():
    rng = np.random.default_rng(19)
    starts = [random_fixed_rank(7, 5, 2, rng) for _ in range(4)]
    x = starts[0]
    targets = [
        # The first steepest-descent step removes the smallest singular
        # value exactly: that retraction is degenerate and the step halves.
        x.dense - x.s[-1] * np.outer(x.u[:, -1], x.v[:, -1].conj()),
        # Starts next to its rank-2 target: stops early on epsilon.
        starts[1].dense + 1e-4 * cgauss(rng, (7, 5)),
        # Full-rank targets: run to the iteration cap.
        cgauss(rng, (7, 5)), cgauss(rng, (7, 5))]
    # The last problem starts at its target: its gradient vanishes at once.
    starts.append(random_fixed_rank(7, 5, 2, rng))
    targets = np.stack(targets + [starts[-1].dense])
    opts = CgOptions(epsilon=1e-6, max_iters=25)
    one, stacked = _fit_costs(targets)
    calls = {"bad_rounds": 0}

    class Counting(FixedRankManifold):
        @staticmethod
        def retract(x, d, step):
            y, bad = retract(x, d, step)
            calls["bad_rounds"] += bad is not None
            return y, bad

    res = cg_minimize(Counting, stacked, FixedRankPoint.stack(starts), opts)
    for i, (row, x0) in enumerate(zip(res, starts)):
        alone = cg_minimize(FixedRankManifold, one(i), x0, opts)
        for name in ("u", "s", "v"):
            assert np.array_equal(getattr(row.x, name),
                                  getattr(alone.x, name))
        assert (row.trace, row.stalled, row.iters, row.reason) == \
            (alone.trace, alone.stalled, alone.iters, alone.reason)
    assert calls["bad_rounds"] > 0
    assert [r.reason for r in res] == ["converged", "converged",
                                       "max_iters", "max_iters", "zero_grad"]
    assert res[4].iters == 0 < res[1].iters < res[0].iters < res[2].iters
    d = project_tangent(x, targets[0] - x.dense)
    assert retract(x[None], d[None], [1.0])[1] == [True]


def test_circle_stack_equals_each_problem_alone():
    rng = np.random.default_rng(22)
    m = 9
    starts = np.stack([random_unit_modulus(m, rng) for _ in range(5)])
    # Entry 2 of the first target is 0; its gradient there is radial, so a
    # step along it lands on zero.
    y0 = random_unit_modulus(m, rng)
    y0[2] = 0.0
    targets = np.stack([
        y0,
        # Starts next to its target: stops early on epsilon.
        starts[1] * np.exp(1e-7j * rng.standard_normal(m)),
        # Off-circle targets: one runs to the iteration cap, the other
        # stops on epsilon just before it.
        cgauss(rng, m), cgauss(rng, m),
        # Starts at its target: its gradient vanishes at once.
        starts[4]])
    # Weighted fit sum_k c_k |x_k - y_k|^2: unit steps overshoot.
    c = 2.0 ** (np.arange(m) % 3)
    opts = CgOptions(epsilon=1e-12, max_iters=8)

    def stacked(x, rows):
        e = x - targets[rows]
        ce = c * e
        return ([float(np.vdot(a, b).real) for a, b in zip(e, ce)],
                lambda keep=None: ce if keep is None else ce[keep])

    def one(i):
        return lambda x, rows: stacked(x, [i])

    calls = {"bad_rounds": 0}

    class Counting(CircleManifold):
        # Ambient gradients as search directions: a tangent step never
        # shrinks an entry, so only a radial one can land on zero.
        @staticmethod
        def project(x, egrad):
            return egrad

        @staticmethod
        def retract(x, d, steps):
            y, bad = circle_retract(x, d, steps)
            calls["bad_rounds"] += bad is not None
            return y, bad

    res = cg_minimize(Counting, stacked, starts, opts)
    assert calls["bad_rounds"] > 0
    for i, (row, x0) in enumerate(zip(res, starts)):
        alone = cg_minimize(Counting, one(i), x0, opts)
        assert np.array_equal(row.x, alone.x)
        assert (row.trace, row.stalled, row.iters, row.reason) == \
            (alone.trace, alone.stalled, alone.iters, alone.reason)
    assert [r.reason for r in res] == ["max_iters", "converged", "max_iters",
                                       "converged", "zero_grad"]
    assert res[4].iters == 0 < res[1].iters < res[3].iters < res[2].iters


def test_stack_rows_stall_while_another_loses_its_gradient():
    # In iteration 1 every cost of problem 3 is nan, which no decrease test
    # accepts; its direction is steepest descent, so it stalls with no
    # retry. In iteration 2 the
    # gradient of problem 0 vanishes and every cost of problem 1 is
    # infinite, so problem 0 leaves the stack before problem 1 fails both
    # line searches. Problem 2 runs to the iteration cap.
    rng = np.random.default_rng(21)
    starts = [random_fixed_rank(7, 5, 2, rng) for _ in range(4)]
    targets = np.stack([cgauss(rng, (7, 5)) for _ in range(4)])
    finite = {1: 2, 3: 1}                 # finite costs per problem
    opts = CgOptions(epsilon=1e-8, max_iters=20)

    def run(x0, problems):
        costs, grads = [0] * 4, [0] * 4

        def cost_grad(x, rows=slice(None)):
            e = x.dense - targets[problems][rows]
            at = np.arange(len(problems))[rows]
            sums = (np.abs(e) ** 2).sum(axis=(-2, -1)).tolist()
            for j, q in enumerate(problems[at]):
                costs[q] += 1
                if costs[q] > finite.get(q, costs[q]):
                    sums[j] = float("nan" if q == 3 else "inf")

            def egrad(keep=None):
                out = (e if keep is None else e[keep]).copy()
                sel = at if keep is None else at[keep]
                for j, q in enumerate(problems[sel]):
                    grads[q] += 1
                    if q == 0 and grads[q] >= 2:
                        out[j] = 0.0
                return out

            return sums, egrad

        return cg_minimize(FixedRankManifold, cost_grad, x0, opts)

    res = run(FixedRankPoint.stack(starts), np.arange(4))
    for i, (row, x0) in enumerate(zip(res, starts)):
        alone = run(FixedRankPoint.stack([x0]), np.array([i]))[0]
        for name in ("u", "s", "v"):
            assert np.array_equal(getattr(row.x, name),
                                  getattr(alone.x, name))
        assert (row.trace, row.stalled, row.iters, row.reason) == \
            (alone.trace, alone.stalled, alone.iters, alone.reason)
    assert [(r.iters, r.reason) for r in res] == [
        (1, "zero_grad"), (2, "stalled"), (20, "max_iters"), (1, "stalled")]
