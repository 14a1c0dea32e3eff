"""Alternating manifold-optimization channel estimator.

Minimizes, over fixed-rank g_hat and h_hat,

    f = sum_t ||r_t - g diag(v_t) h s_t||^2
        + mu_g * ||vec(a_bs^H g a_i)||_1 + mu_h * ||vec(a_i^H h a_ue)||_1

by alternating Riemannian CG solves in g (h frozen) and h (g frozen).

The solver internally rescales the observations to unit average slot power
(r' = r / c, c = ||r||_F / sqrt(t)) and folds c back into the returned
g_hat. This keeps stopping thresholds on the objective decrease meaningful
at physical path-loss scales, where raw objective values are ~1e-16. The
reported trace is the objective of the normalized problem, c^-2 times the
physical objective.
"""

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .channel import Dictionaries, PilotBlock
from .manifold import (CgOptions, CgResult, FixedRankManifold, FixedRankPoint,
                       cg_minimize, random_fixed_rank)

# Angular coefficients below this magnitude contribute subgradient zero to
# the l1 phase matrix.
DELTA0 = 1e-9

_MAX_INNER = 50
_EPS_INNER = _EPS_OUTER = 1e-3


@dataclass(frozen=True)
class MoEstConfig:
    """Estimator settings.

    mu_g / mu_h of None select the noise-matched default
    1e-2 * sigma2 * t (in normalized units) at run time.
    """

    p_hat: int = 3
    q_hat: int = 3
    mu_g: float | None = None
    mu_h: float | None = None
    max_outer: ClassVar[int] = 30

    def __post_init__(self):
        for name in ("mu_g", "mu_h"):
            val = getattr(self, name)
            if val is not None and val < 0:
                raise ValueError(f"{name} must be non-negative")
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


def _dense(x) -> np.ndarray:
    return x.dense if isinstance(x, FixedRankPoint) else np.asarray(x)


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


def objective_f(g_hat, h_hat, pilots: PilotBlock, dicts: Dictionaries,
                cfg: MoEstConfig) -> float:
    """Regularized training-fit objective at (g_hat, h_hat).

    Accepts dense arrays or FixedRankPoints. cfg must carry explicit mu
    values (the auto default is resolved only inside mo_est).
    """
    _check_dicts(dicts)
    if cfg.mu_g is None or cfg.mu_h is None:
        raise ValueError("objective_f needs explicit mu_g and mu_h")
    g = _dense(g_hat)
    h = _dense(h_hat)
    resid = pilots.r - g @ (pilots.v * (h @ pilots.s))
    val = float(np.sum(np.abs(resid) ** 2))
    val += cfg.mu_g * float(np.sum(np.abs(dicts.a_bs.conj().T @ g @ dicts.a_i)))
    val += cfg.mu_h * float(np.sum(np.abs(dicts.a_i.conj().T @ h @ dicts.a_ue)))
    return val


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
    then the h-subproblem each outer round, and stops when the outer
    objective decrease drops to _EPS_OUTER or below.
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
    mu_g = 1e-2 * sigma2n * t if cfg.mu_g is None else cfg.mu_g / c
    mu_h = 1e-2 * sigma2n * t if cfg.mu_h is None else cfg.mu_h / c ** 2
    norm_cfg = replace(cfg, mu_g=mu_g, mu_h=mu_h)

    g_hat = random_fixed_rank(n_bs, m, cfg.p_hat, rng)
    h_hat = random_fixed_rank(m, n_ue, cfg.q_hat, rng)
    inner_opts = CgOptions(epsilon=_EPS_INNER, max_iters=_MAX_INNER)

    trace = [objective_f(g_hat, h_hat, norm_pilots, dicts, norm_cfg)]
    stalled = False
    iters = 0
    for iters in range(1, cfg.max_outer + 1):
        f_mat = pilots.v * (h_hat.dense @ pilots.s)
        res: CgResult = cg_minimize(
            FixedRankManifold,
            lambda x: _cost_grad_g(x.dense, norm_pilots.r, f_mat, mu_g, dicts),
            g_hat, inner_opts)
        g_hat = res.x
        stalled = stalled or res.stalled

        res = cg_minimize(
            FixedRankManifold,
            lambda h: _cost_grad_h(h.dense, g_hat.dense, norm_pilots, mu_h,
                                   dicts),
            h_hat, inner_opts)
        h_hat = res.x
        stalled = stalled or res.stalled

        trace.append(objective_f(g_hat, h_hat, norm_pilots, dicts, norm_cfg))
        if trace[-2] - trace[-1] <= _EPS_OUTER:
            break

    g_phys = FixedRankPoint(g_hat.u, c * g_hat.s, g_hat.v)
    return MoEstResult(g_phys, h_hat, trace, iters, stalled)
