"""Fixed-rank / complex-circle manifold and CG solver tests.

Oracles: the factor-space formulas of the two-factor geometry, dense
products for the retraction, np.linalg.pinv for the Gram pseudo-inverse,
the Eckart-Young optimum for CG convergence, and central finite
differences for the gradient convention.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss
from irsmimo.manifold import (CgOptions, CgResult, CircleManifold,
                              FixedRankManifold, FixedRankPoint, cg_minimize,
                              circle_project, circle_retract,
                              project_tangent, psd_pinv, random_fixed_rank,
                              retract, transport)
from irsmimo.numerics import random_unit_modulus

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _point_and_ambient(seed, n=8, m=6, r=2):
    rng = np.random.default_rng(seed)
    x = random_fixed_rank(n, m, r, rng)
    return x, cgauss(rng, (n, m)), rng


def _lift(x, t):
    """The ambient direction D(l r^H)[t] = t.l r^H + l t.r^H of t at x."""
    return t.l @ x.r.conj().T + x.l @ t.r.conj().T


def test_fixed_rank_point_contracts():
    rng = np.random.default_rng(0)
    x = random_fixed_rank(8, 6, 3, rng)
    assert x.shape == (8, 6) and x.l.shape == (8, 3) and x.r.shape == (6, 3)
    np.testing.assert_allclose(x.dense, x.l @ x.r.conj().T, atol=1e-12)
    assert np.linalg.matrix_rank(x.dense) == 3
    with pytest.raises(ValueError):
        project_tangent(x, cgauss(rng, (8, 3)))
    y = random_fixed_rank(8, 6, 3, rng)
    xs = FixedRankPoint.stack([x, y, x])
    assert len(xs) == 3 and FixedRankManifold.stacked(xs)
    assert not FixedRankManifold.stacked(x)
    assert np.array_equal(xs[1].dense, y.dense)
    xs[[0, 2]] = FixedRankPoint.stack([y, y])
    assert all(np.array_equal(xs.dense[k], y.dense) for k in range(3))


def test_circle_point_contract():
    # Circle ops take (B, m) stacks; a single point is a stack of one.
    rng = np.random.default_rng(1)
    v = np.stack([random_unit_modulus(5, rng) for _ in range(3)])
    assert CircleManifold.stacked(v) and not CircleManifold.stacked(v[0])
    w = circle_retract(v, circle_project(v, cgauss(rng, (3, 5))),
                       [0.5, 0.25, 1.0])
    assert isinstance(w, np.ndarray) and w.dtype == complex
    assert w.shape == (3, 5)
    np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-12)


def test_project_fixes_own_point_and_kills_orthogonal_block():
    x, _, rng = _point_and_ambient(3)
    own = project_tangent(x, x.dense)
    np.testing.assert_allclose(own.l, x.l, atol=1e-12)
    np.testing.assert_allclose(own.r, x.r, atol=1e-12)
    # An ambient matrix with no component in col(l) or row(r).
    q_l, _ = np.linalg.qr(x.l, mode="complete")
    q_r, _ = np.linalg.qr(x.r, mode="complete")
    j = q_l[:, 2:] @ cgauss(rng, (6, 4)) @ q_r[:, 2:].conj().T
    t = project_tangent(x, j)
    np.testing.assert_allclose(t.l, 0, atol=1e-12)
    np.testing.assert_allclose(t.r, 0, atol=1e-12)


@given(seed=seeds)
@settings(deadline=None, max_examples=40)
def test_projection_self_adjoint_and_inner_metric(seed):
    x, j1, rng = _point_and_ambient(seed)
    j2 = cgauss(rng, (8, 6))
    t1, t2 = project_tangent(x, j1), project_tangent(x, j2)
    lhs = np.sum(_lift(x, t1).conj() * j2).real
    rhs = np.sum(j1.conj() * _lift(x, t2)).real
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)
    # The metric makes project_tangent the Riemannian gradient:
    # <P(j1), t2>_x = Re<j1, D(l r^H)[t2]>.
    np.testing.assert_allclose(FixedRankManifold.inner(x, t1, t2), rhs,
                               rtol=1e-10, atol=1e-10)


def test_tangent_vector_arithmetic():
    x, j, rng = _point_and_ambient(4)
    t1 = project_tangent(x, j)
    t2 = project_tangent(x, cgauss(rng, (8, 6)))
    for t, l, r in ((t1 + t2, t1.l + t2.l, t1.r + t2.r),
                    (t1 - t2, t1.l - t2.l, t1.r - t2.r),
                    (2.5 * t1, 2.5 * t1.l, 2.5 * t1.r),
                    (-t1, -t1.l, -t1.r)):
        assert np.array_equal(t.l, l) and np.array_equal(t.r, r)
    # A stack scales each row by its own factor.
    scaled = FixedRankManifold.scale(FixedRankPoint.stack([t1, t2]),
                                     [2.0, -0.5])
    assert np.array_equal(scaled.l, np.stack([2.0 * t1.l, -0.5 * t2.l]))
    assert np.array_equal(scaled.r, np.stack([2.0 * t1.r, -0.5 * t2.r]))


def test_transport_contracts():
    # Every factor pair is a tangent vector at every point, so transport
    # leaves it as it is.
    x, j, rng = _point_and_ambient(5)
    d = project_tangent(x, j)
    y = random_fixed_rank(8, 6, 2, rng)
    assert transport(x, y, d) is d
    assert FixedRankManifold.transport(x, y, d) is d


def test_retract_zero_step_and_svd_oracle():
    x, j, _ = _point_and_ambient(6)
    d = project_tangent(x, j)
    at0 = retract(x[None], d[None], [0.0])
    assert np.array_equal(at0.dense[0], x.dense)
    for step in (1e-3, 0.3, 1.0):
        y = retract(x[None], d[None], [step])[0]
        assert y.shape == x.shape and y.l.shape == x.l.shape
        np.testing.assert_allclose(
            y.dense, (x.l + step * d.l) @ (x.r + step * d.r).conj().T,
            atol=1e-12)
        svals = np.linalg.svd(y.dense, compute_uv=False)
        assert (svals > 1e-10 * svals[0]).sum() == 2


def test_retract_never_flags_a_row():
    # A step that cancels a factor column drops the dense rank, and
    # the stepped pair is still a point of the factor space.
    x, _, _ = _point_and_ambient(7)
    d = FixedRankPoint(np.zeros_like(x.l), np.zeros_like(x.r))
    d.l[:, -1] = -x.l[:, -1]
    y = retract(x[None], d[None], [1.0])
    assert np.linalg.matrix_rank(y.dense[0]) == 1


def test_riemannian_grad_directional_derivative():
    # Conjugate-gradient convention:
    # d/de f((l + e xi.l)(r + e xi.r)^H) at 0 is 2 <grad, xi>_x.
    x, a, rng = _point_and_ambient(8)

    def cost(pt):
        return float(np.linalg.norm(pt.dense - a) ** 2)

    grad = project_tangent(x, x.dense - a)
    for _ in range(5):
        xi = FixedRankPoint(cgauss(rng, (8, 2)), cgauss(rng, (6, 2)))
        eps = 1e-6
        fd = (cost(x + eps * xi) - cost(x - eps * xi)) / (2 * eps)
        an = 2.0 * FixedRankManifold.inner(x, grad, xi)
        np.testing.assert_allclose(fd, an, rtol=1e-6)


def test_zero_point_has_zero_gradient_and_cg_stops():
    # All-zero factors: the Gram matrices are zero, their pseudo-inverse
    # is zero, and the gradient is zero, not nan.
    rng = np.random.default_rng(25)
    b = cgauss(rng, (7, 5))
    zero = FixedRankPoint(np.zeros((7, 2), complex), np.zeros((5, 2), complex))
    g = project_tangent(zero, -b)
    assert not g.l.any() and not g.r.any()
    res = cg_minimize(FixedRankManifold, _sq_dist(b), zero, CgOptions())
    assert (res.reason, res.iters) == ("zero_grad", 0)
    assert res.trace == [float(np.linalg.norm(b) ** 2)]


def test_psd_pinv_is_numpys_hermitian_pinv():
    # A well-conditioned Gram, one with an eigenvalue of 1e-20 (below the
    # 1e-15 relative cutoff, so it inverts to zero), an all-zero one, and
    # a well-conditioned one at 1e-18 scale, whose cutoff is its own.
    rng = np.random.default_rng(27)
    q, _ = np.linalg.qr(cgauss(rng, (3, 3)))
    grams = np.stack([(q * d) @ q.conj().T
                      for d in ([2.0, 1.0, 0.5], [1.0, 0.3, 1e-20], [0.0] * 3,
                                [2e-18, 1e-18, 5e-19])])
    pinv = psd_pinv(grams)
    for got, gram in zip(pinv, grams):
        want = np.linalg.pinv(gram, hermitian=True)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.linalg.matrix_rank(pinv[1]) == 2 and not pinv[2].any()
    assert np.linalg.matrix_rank(pinv[3], tol=1e15) == 3
    # Each matrix gets the same bits alone as in the stack.
    for k, gram in enumerate(grams):
        assert np.array_equal(psd_pinv(gram[None])[0], pinv[k])
        assert np.array_equal(psd_pinv(gram), pinv[k])


def test_psd_pinv_of_zero_rows_raises_no_warning():
    # pytest turns RuntimeWarning into an error; check it here too, so the
    # test holds under any warning filter.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not psd_pinv(np.zeros((4, 2, 3, 3), complex)).any()


def test_cg_is_invariant_to_the_factor_gauge():
    # (l M, r M^-H) is the same point as (l, r) for invertible M. Under
    # the preconditioned metric CG follows the same dense path from both.
    rng = np.random.default_rng(26)
    b = cgauss(rng, (7, 5))
    x0 = random_fixed_rank(7, 5, 2, rng)
    gauge = cgauss(rng, (2, 2)) + 2.0 * np.eye(2)
    x1 = FixedRankPoint(x0.l @ gauge,
                        x0.r @ np.linalg.inv(gauge).conj().T)
    opts = CgOptions(epsilon=1e-12, max_iters=40)
    res = [cg_minimize(FixedRankManifold, _sq_dist(b), x, opts)
           for x in (x0, x1)]
    np.testing.assert_allclose(res[1].x.dense, res[0].x.dense, atol=1e-8)
    assert res[0].iters == res[1].iters


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
    w = circle_retract(v, t, [0.7, 0.7])
    np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-12)
    err = {eps: np.linalg.norm(circle_retract(v, t, [eps, eps])
                               - (v + eps * t), axis=-1)
           for eps in (1e-3, 1e-4)}
    assert np.all((30 < err[1e-3] / err[1e-4]) & (err[1e-3] / err[1e-4] < 300))


@given(seed=seeds, log_mag=st.floats(-6.0, 6.0),
       steps=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=3))
@settings(deadline=None, max_examples=60)
def test_tangent_step_never_shrinks_an_entry(seed, log_mag, steps):
    # For t tangent at v, |v_k + s t_k|^2 = 1 + s^2 |t_k|^2 >= 1, so no
    # entry that circle_retract normalizes can vanish.
    rng = np.random.default_rng(seed)
    v = np.stack([random_unit_modulus(7, rng) for _ in range(3)])
    t = circle_project(v, 10.0 ** log_mag * cgauss(rng, (3, 7)))
    w = v + np.asarray(steps)[:, None] * t
    assert np.abs(w).min() >= 1.0 - 1e-12
    np.testing.assert_allclose(np.abs(circle_retract(v, t, steps)), 1.0,
                               atol=1e-12)


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
    "max_iters": (True, CgOptions(epsilon=1e-10, max_iters=20), None, -1),
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
            calls["retract"] += 1
            return retract(x, d, steps)

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
    targets = [
        # A rank-1 target: CG drives the rank-2 start toward a
        # rank-deficient pair of factors.
        cgauss(rng, (7, 1)) @ cgauss(rng, (1, 5)),
        # Starts next to its rank-2 target: stops early on epsilon.
        starts[1].dense + 1e-4 * cgauss(rng, (7, 5)),
        # Full-rank targets: run to the iteration cap.
        cgauss(rng, (7, 5)), cgauss(rng, (7, 5))]
    # The last problem starts at its target: its gradient vanishes at once.
    starts.append(random_fixed_rank(7, 5, 2, rng))
    targets = np.stack(targets + [starts[-1].dense])
    opts = CgOptions(epsilon=1e-6, max_iters=25)
    one, stacked = _fit_costs(targets)
    res = cg_minimize(FixedRankManifold, stacked,
                      FixedRankPoint.stack(starts), opts)
    for i, (row, x0) in enumerate(zip(res, starts)):
        alone = cg_minimize(FixedRankManifold, one(i), x0, opts)
        assert np.array_equal(row.x.l, alone.x.l)
        assert np.array_equal(row.x.r, alone.x.r)
        assert (row.trace, row.stalled, row.iters, row.reason) == \
            (alone.trace, alone.stalled, alone.iters, alone.reason)
    assert [r.reason for r in res] == ["converged", "converged",
                                       "max_iters", "max_iters", "zero_grad"]
    assert res[4].iters == 0 < res[1].iters < res[0].iters < res[2].iters


def test_circle_stack_equals_each_problem_alone():
    rng = np.random.default_rng(22)
    m = 9
    starts = np.stack([random_unit_modulus(m, rng) for _ in range(5)])
    # An off-circle first target, with entry 2 at 0: runs to the cap.
    y0 = random_unit_modulus(m, rng)
    y0[2] = 0.0
    targets = np.stack([
        y0,
        # Starts next to its target: stops early on epsilon.
        starts[1] * np.exp(1e-7j * rng.standard_normal(m)),
        # Off-circle targets: both stop on epsilon, at different rounds.
        cgauss(rng, m), cgauss(rng, m),
        # Starts at its target: its gradient vanishes at once.
        starts[4]])
    # Weighted fit sum_k c_k |x_k - y_k|^2: unit steps overshoot.
    c = 2.0 ** (np.arange(m) % 3)
    opts = CgOptions(epsilon=1e-6, max_iters=40)

    def stacked(x, rows):
        e = x - targets[rows]
        ce = c * e
        return ([float(np.vdot(a, b).real) for a, b in zip(e, ce)],
                lambda keep=None: ce if keep is None else ce[keep])

    def one(i):
        return lambda x, rows: stacked(x, [i])

    class Tangent(CircleManifold):
        # Every direction the solver steps along is tangent at its base
        # point, so circle_retract never meets a vanishing entry.
        @staticmethod
        def retract(x, d, steps):
            radial = np.abs((x.conj() * d).real)
            assert np.all(radial <= 1e-12 * (1.0 + np.abs(d)))
            return circle_retract(x, d, steps)

    res = cg_minimize(Tangent, stacked, starts, opts)
    for i, (row, x0) in enumerate(zip(res, starts)):
        alone = cg_minimize(Tangent, one(i), x0, opts)
        assert np.array_equal(row.x, alone.x)
        assert (row.trace, row.stalled, row.iters, row.reason) == \
            (alone.trace, alone.stalled, alone.iters, alone.reason)
    assert [(r.iters, r.reason) for r in res] == [
        (40, "max_iters"), (1, "converged"), (24, "converged"),
        (31, "converged"), (0, "zero_grad")]


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
    finite = {1: 3, 3: 1}                 # finite costs per problem
    opts = CgOptions(epsilon=1e-8, max_iters=15)

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
        assert np.array_equal(row.x.l, alone.x.l)
        assert np.array_equal(row.x.r, alone.x.r)
        assert (row.trace, row.stalled, row.iters, row.reason) == \
            (alone.trace, alone.stalled, alone.iters, alone.reason)
    assert [(r.iters, r.reason) for r in res] == [
        (1, "zero_grad"), (2, "stalled"), (15, "max_iters"), (1, "stalled")]
