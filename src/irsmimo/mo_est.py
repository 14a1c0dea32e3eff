"""Alternating manifold-optimization channel estimator.

Minimizes, over fixed-rank g_hat and h_hat,

    f = sum_t ||r_t - g diag(v_t) h s_t||^2
        + mu_g * ||vec(a_bs^H g a_i)||_1 + mu_h * ||vec(a_i^H h a_ue)||_1

by alternating Riemannian CG solves in g (h frozen) and h (g frozen).

The solver internally rescales the observations to unit average slot power
(r' = r / c, c = ||r||_F / sqrt(t)) and folds c back into the returned
g_hat. This keeps the inner CG threshold on the objective decrease
meaningful at physical path-loss scales, where raw objective values are
~1e-16. The reported trace is the objective of the normalized problem,
c^-2 times the physical objective.

The outer loop stops when the cascaded estimate h_c = khatri_rao(h^T, g)
of the normalized factors settles to the noise level: when its change over
one outer round is at most _SETTLE * sqrt(sigma2' / t) * ||h_c||_F, with
sigma2' = sigma2 / c^2 the normalized noise power per entry of r' and t the
number of training slots (the discrepancy principle: sqrt(sigma2' / t) is
the noise standard deviation left after averaging over the block). The test
is free of amplitude scale: scaling r by a and sigma2 by a^2 leaves it
unchanged. It is not free of the problem's size: c^2 sums the received
power over the n_bs antennas, so the tolerance tightens as the arrays and
the block grow. With sigma2 = 0 the tolerance is 0, and the loop runs to
max_outer unless the estimate stops changing.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channel import Dictionaries, PilotBlock
from .manifold import (CgOptions, CgResult, FixedRankManifold, FixedRankPoint,
                       cg_minimize, random_fixed_rank)
from .numerics import khatri_rao

# Angular coefficients below this magnitude contribute subgradient zero to
# the l1 phase matrix.
DELTA0 = 1e-9

_INNER_OPTS = CgOptions(epsilon=1e-3, max_iters=50)
# Outer rounds stop once one round changes the normalized cascaded estimate
# h_c by at most _SETTLE * sqrt(sigma2 / (c^2 * t)) * ||h_c||_F, with
# c = ||r||_F / sqrt(t).
_SETTLE = 0.9


@dataclass(frozen=True)
class MoEstConfig:
    """Assumed ranks of g and h.

    Both l1 weights are 1e-2 * sigma2 * t of the normalized problem
    (sigma2 the normalized noise power, t the number of training slots);
    mo_est sets them from the pilot block.
    """

    p_hat: int = 3
    q_hat: int = 3
    max_outer: ClassVar[int] = 30

    def __post_init__(self):
        if self.p_hat < 1 or self.q_hat < 1:
            raise ValueError("assumed ranks must be >= 1")


@dataclass
class MoEstResult:
    """Estimates, per-outer-iteration objective trace, and diagnostics."""

    g_hat: FixedRankPoint
    h_hat: FixedRankPoint
    trace: list[float]
    iterations: int
    stalled: bool = False


def _phase(z: np.ndarray) -> np.ndarray:
    """Entrywise z/|z| with entries below DELTA0 mapped to zero."""
    mag = np.abs(z)
    out = np.zeros_like(z)
    nz = mag >= DELTA0
    out[nz] = z[nz] / mag[nz]
    return out


def _check_dicts(dicts: Dictionaries) -> None:
    if not dicts.unitary:
        raise ValueError("estimator needs unitary (square) dictionaries")


def objective_f(g_hat: np.ndarray, h_hat: np.ndarray, pilots: PilotBlock,
                dicts: Dictionaries, mu_g: float, mu_h: float) -> float:
    """Regularized training-fit objective at dense (g_hat, h_hat): the
    h-subproblem's cost plus the g-subproblem's l1 term."""
    _check_dicts(dicts)
    return (_cost_grad_h(h_hat, g_hat, pilots, mu_h, dicts)[0]
            + mu_g * float(np.sum(np.abs(
                dicts.a_bs.conj().T @ g_hat @ dicts.a_i))))


def _fit_l1(x: np.ndarray, resid: np.ndarray, back, mu: float,
            a: np.ndarray, b: np.ndarray):
    """Subproblem cost ||resid||_F^2 + mu ||vec(a^H x b)||_1 and a callable
    for its conjugate Euclidean gradient back(resid) + (mu/2) a y b^H, with
    y the phase of a^H x b. The gradient reuses resid and a^H x b."""
    z = a.conj().T @ x @ b
    cost = float(np.sum(np.abs(resid) ** 2)) + mu * float(np.sum(np.abs(z)))

    def egrad() -> np.ndarray:
        grad = back(resid)
        if mu > 0:
            grad = grad + 0.5 * mu * (a @ _phase(z) @ b.conj().T)
        return grad

    return cost, egrad


def _cost_grad_g(x: np.ndarray, r_mat: np.ndarray, f_mat: np.ndarray,
                 mu_g: float, dicts: Dictionaries):
    return _fit_l1(x, x @ f_mat - r_mat, lambda e: e @ f_mat.conj().T,
                   mu_g, dicts.a_bs, dicts.a_i)


def _cost_grad_h(h_hat: np.ndarray, g_hat: np.ndarray, pilots: PilotBlock,
                 mu_h: float, dicts: Dictionaries):
    s, v = pilots.s, pilots.v
    return _fit_l1(h_hat, g_hat @ (v * (h_hat @ s)) - pilots.r,
                   lambda e: (v.conj() * (g_hat.conj().T @ e)) @ s.conj().T,
                   mu_h, dicts.a_i, dicts.a_ue)


def egrad_g(x: np.ndarray, r_mat: np.ndarray, f_mat: np.ndarray,
            mu_g: float, dicts: Dictionaries) -> np.ndarray:
    """Conjugate Euclidean gradient of the g-subproblem objective
    ||r_mat - x f_mat||_F^2 + mu_g ||vec(a_bs^H x a_i)||_1."""
    return _cost_grad_g(x, r_mat, f_mat, mu_g, dicts)[1]()


def egrad_h(h_hat: np.ndarray, g_hat: np.ndarray, pilots: PilotBlock,
            mu_h: float, dicts: Dictionaries) -> np.ndarray:
    """Conjugate Euclidean gradient of the h-subproblem objective
    sum_t ||r_t - g diag(v_t) h s_t||^2 + mu_h ||vec(a_i^H h a_ue)||_1."""
    return _cost_grad_h(h_hat, g_hat, pilots, mu_h, dicts)[1]()


def mo_est(pilots: PilotBlock, dicts: Dictionaries, cfg: MoEstConfig,
           rng: np.random.Generator) -> MoEstResult:
    """Alternating fixed-rank CG estimation of (g, h) from a pilot block.

    Starts from random rank-(p_hat, q_hat) points, solves the g-subproblem
    then the h-subproblem each outer round, and stops when the normalized
    cascaded estimate khatri_rao(h_hat^T, g_hat) moved by at most
    _SETTLE * sqrt(sigma2 / (c^2 * t)) times its norm in that round (the
    first round compares against the start point), or after max_outer
    rounds. With sigma2 = 0 the tolerance is 0.

    Both l1 weights are mu = 1e-2 * sigma2 / c^2 * t in the normalized
    problem.
    """
    _check_dicts(dicts)
    n_bs, t = pilots.r.shape
    m, n_ue = pilots.v.shape[0], pilots.s.shape[0]
    if cfg.p_hat > min(n_bs, m) or cfg.q_hat > min(m, n_ue):
        raise ValueError("assumed rank exceeds matrix dimensions")

    c = float(np.linalg.norm(pilots.r)) / np.sqrt(t)
    if c == 0.0:
        c = 1.0
    sigma2n = pilots.sigma2 / c ** 2
    norm_pilots = PilotBlock(pilots.s, pilots.v, pilots.r / c, sigma2n)
    mu = 1e-2 * sigma2n * t

    g_hat = random_fixed_rank(n_bs, m, cfg.p_hat, rng)
    h_hat = random_fixed_rank(m, n_ue, cfg.q_hat, rng)
    trace = [objective_f(g_hat.dense, h_hat.dense, norm_pilots, dicts,
                         mu, mu)]
    settle = _SETTLE * np.sqrt(sigma2n / t)
    h_c = khatri_rao(h_hat.dense.T, g_hat.dense)
    stalled = False
    iters = 0
    for iters in range(1, cfg.max_outer + 1):
        f_mat = pilots.v * (h_hat.dense @ pilots.s)
        res: CgResult = cg_minimize(
            FixedRankManifold,
            lambda x: _cost_grad_g(x.dense, norm_pilots.r, f_mat, mu, dicts),
            g_hat, _INNER_OPTS)
        g_hat = res.x
        stalled = stalled or res.stalled

        res = cg_minimize(
            FixedRankManifold,
            lambda h: _cost_grad_h(h.dense, g_hat.dense, norm_pilots, mu,
                                   dicts),
            h_hat, _INNER_OPTS)
        h_hat = res.x
        stalled = stalled or res.stalled

        trace.append(objective_f(g_hat.dense, h_hat.dense, norm_pilots, dicts,
                                 mu, mu))
        h_c_prev, h_c = h_c, khatri_rao(h_hat.dense.T, g_hat.dense)
        if np.linalg.norm(h_c - h_c_prev) <= settle * np.linalg.norm(h_c):
            break

    g_phys = FixedRankPoint(g_hat.u, c * g_hat.s, g_hat.v)
    return MoEstResult(g_phys, h_hat, trace, iters, stalled)
