"""Downlink passive/active beamforming by alternating weighted-MMSE.

Maximizes the single-user spectral efficiency over the unit-norm baseband
beamformer f and the unit-modulus reflection vector v_d, through the
equivalent weighted-MSE objective

    g(w, omega, f, v) = tr(omega @ e(w, f, v)) - ln|omega|.

One outer iteration updates v_d by conjugate gradient on the reduced
objective g1 (receive filter eliminated in closed form), then w and omega,
then f, each block-optimal, so the recorded g trace never increases.
"""

from dataclasses import dataclass

import numpy as np

from .channel import SystemGeometry, effective_channel
from .manifold import CgOptions, CircleManifold, cg_minimize
from .numerics import random_unit_modulus


@dataclass(frozen=True)
class DownlinkScenario:
    """One sweep point's geometry, noise power, stream count, and slot
    accounting; the channel is per-trial data and is passed alongside.

    t_used slots of the t_tot-slot block were spent on training; the
    spectral-efficiency prefactor is (1 - t_used / t_tot).
    """

    geom: SystemGeometry
    sigma2_d: float
    n_s: int = 3
    t_used: int = 0
    t_tot: int = 2000

    def __post_init__(self):
        if self.sigma2_d <= 0:
            raise ValueError("sigma2_d must be positive")
        if not 1 <= self.n_s <= min(self.geom.n_bs, self.geom.n_ue):
            raise ValueError("n_s outside [1, min(n_bs, n_ue)]")
        if not 0 <= self.t_used < self.t_tot:
            raise ValueError(f"need 0 <= t_used={self.t_used} < "
                             f"t_tot={self.t_tot}")


@dataclass
class BeamformingSolution:
    """Converged beamformers plus the objective trace and resulting rate."""

    f: np.ndarray
    v_d: np.ndarray
    g_trace: list[float]
    se: float
    iterations: int
    stalled: bool = False


def spectral_efficiency(h_e: np.ndarray, f: np.ndarray,
                        scen: DownlinkScenario) -> float:
    """Training-discounted rate
    (1 - t_used/t_tot) * log2 |I + f^H h_e^H h_e f / sigma2_d|."""
    gram = f.conj().T @ h_e.conj().T @ h_e @ f
    sign, logdet = np.linalg.slogdet(np.eye(f.shape[1]) + gram / scen.sigma2_d)
    prefac = 1.0 - scen.t_used / scen.t_tot
    return float(prefac * sign.real * logdet / np.log(2.0))


def mse_matrix(h_e: np.ndarray, f: np.ndarray, w: np.ndarray,
               scen: DownlinkScenario) -> np.ndarray:
    """Symbol-estimation error covariance for transmit f and receive w."""
    hf = h_e @ f
    e = np.eye(f.shape[1], dtype=complex) - hf.conj().T @ w - w.conj().T @ hf
    e += scen.sigma2_d * (w.conj().T @ w)
    e += (w.conj().T @ hf) @ (hf.conj().T @ w)
    return e


def update_w_omega(h_e: np.ndarray, f: np.ndarray,
                   scen: DownlinkScenario) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form linear MMSE receiver and weight omega = e^{-1}."""
    hf = h_e @ f
    n_ue = h_e.shape[0]
    w = np.linalg.solve(hf @ hf.conj().T + scen.sigma2_d * np.eye(n_ue), hf)
    e = mse_matrix(h_e, f, w, scen)
    omega = np.linalg.inv(e)
    return w, 0.5 * (omega + omega.conj().T)


def update_f(h_e: np.ndarray, w: np.ndarray, omega: np.ndarray,
             scen: DownlinkScenario) -> tuple[np.ndarray, bool]:
    """Closed-form unit-Frobenius-norm beamformer for fixed (w, omega).

    The unnormalized solution minimizes the weighted MSE with the noise
    power absorbed into the transmit scale (sigma2_d * ||f||_F^2), which is
    what makes normalizing afterwards legitimate: tr(omega @ e) evaluated
    with the receive filter counter-scaled by ||f_tilde|| never exceeds its
    pre-update value. Plain tr(omega @ e) at fixed w can increase.

    Returns (f, degenerate); degenerate is True when the unnormalized
    solution vanishes (w = 0), in which case f is all zeros.
    """
    n_bs = h_e.shape[1]
    psi = float(np.trace(omega @ w.conj().T @ w).real)
    hw = h_e.conj().T @ w
    rhs = hw @ omega
    if psi <= 0.0 or not np.any(rhs):
        return np.zeros((n_bs, w.shape[1]), dtype=complex), True
    f_tilde = np.linalg.solve(hw @ omega @ hw.conj().T
                              + scen.sigma2_d * psi * np.eye(n_bs), rhs)
    norm = np.linalg.norm(f_tilde)
    if norm == 0.0:
        return np.zeros_like(f_tilde), True
    return f_tilde / norm, False


def _reduced_channel(h_c: np.ndarray, f: np.ndarray,
                     geom: SystemGeometry) -> np.ndarray:
    """(n_ue*n_s, m) matrix p with p @ v = h_e f, stacked by rows, for the
    effective channel h_e of every reflection vector v:
    p[u*n_s + s, :] = sum_b conj(h_c[b + u*n_bs, :]) f[b, s]."""
    h = h_c.conj().reshape(geom.n_ue, geom.n_bs, geom.m)
    return (f.T @ h).reshape(geom.n_ue * f.shape[1], geom.m)


def _g1_cost_grad(v_d, p: np.ndarray, omega_inv: np.ndarray,
                  sigma2_d: float):
    """(g1, egrad) at v_d for cg_minimize; see g1_objective and egrad_v.

    p is _reduced_channel(h_c, f), built once for a fixed f, so the cost
    needs only h_e f = p @ v_d and the gradient is
    -(1/sigma2_d) * p^H @ (h_e f t^{-2} omega^{-1}) stacked by rows.
    egrad() reuses h_e f and t^{-1} from the cost."""
    hf = (p @ v_d).reshape(-1, omega_inv.shape[0])
    t_inv = np.linalg.inv(omega_inv + (omega_inv @ hf.conj().T @ hf)
                          / sigma2_d)

    def egrad() -> np.ndarray:
        g = hf @ t_inv @ t_inv @ omega_inv
        return -(p.conj().T @ g.reshape(-1)) / sigma2_d

    return float(np.trace(t_inv).real), egrad


def g1_objective(v_d, h_c: np.ndarray, f: np.ndarray, omega: np.ndarray,
                 scen: DownlinkScenario) -> float:
    """Reduced weighted-MSE objective tr(t^{-1}) with the receive filter
    eliminated; t = omega^{-1} + omega^{-1} f^H h_e^H h_e f / sigma2_d."""
    return _g1_cost_grad(v_d, _reduced_channel(h_c, f, scen.geom),
                         np.linalg.inv(omega), scen.sigma2_d)[0]


def egrad_v(v_d, h_c: np.ndarray, f: np.ndarray, omega: np.ndarray,
            scen: DownlinkScenario) -> np.ndarray:
    """Conjugate gradient of g1 with respect to the reflection vector:
    -(1/sigma2_d) * h_c.T @ vec((h_e f t^{-2} omega^{-1} f^H).T), computed
    as -(1/sigma2_d) * p^H @ (h_e f t^{-2} omega^{-1}) stacked by rows with
    p = _reduced_channel(h_c, f)."""
    return _g1_cost_grad(v_d, _reduced_channel(h_c, f, scen.geom),
                         np.linalg.inv(omega), scen.sigma2_d)[1]()


def wmmse_objective(h_e: np.ndarray, f: np.ndarray, w: np.ndarray,
                    omega: np.ndarray, scen: DownlinkScenario) -> float:
    """Full objective tr(omega @ e) - ln|omega|."""
    e = mse_matrix(h_e, f, w, scen)
    sign, logdet = np.linalg.slogdet(omega)
    return float(np.trace(omega @ e).real - sign.real * logdet)


_INNER_OPTS = CgOptions(epsilon=1e-3, max_iters=100)
_EPS3 = 1e-3


def alt_wmmse(scen: DownlinkScenario, h_c: np.ndarray,
              rng: np.random.Generator, max_outer: int = 50,
              optimize_v: bool = True) -> BeamformingSolution:
    """Alternating minimization of the weighted-MSE objective on h_c.

    rng draws the starting reflection vector and nothing else, so the
    seed picks the start. Per outer iteration: conjugate-gradient descent of v_d on the circle
    manifold (skipped when optimize_v is False, leaving the initial random
    reflection in place), then the (w, omega) and f closed forms. The
    objective is recorded once per iteration right after the (w, omega)
    update, where it equals n_s + ln|e_mmse|; recording there (rather than
    after the f update, whose normalization re-scales the implicit
    receiver) is what makes the trace provably non-increasing. Stops when
    the decrease drops to _EPS3 or below.

    f is fixed during the CG, so each CG call first folds h_c and f into
    the (n_ue*n_s, m) matrix p = _reduced_channel(h_c, f); every trial
    point then costs one product p @ v instead of rebuilding h_e from
    h_c. effective_channel runs once per outer iteration, for the closed
    forms.
    """
    geom = scen.geom
    v = random_unit_modulus(geom.m, rng)
    h_e = effective_channel(h_c, v, geom)
    _, _, vh = np.linalg.svd(h_e, full_matrices=False)
    f = vh[:scen.n_s].conj().T / np.sqrt(scen.n_s)
    w, omega = update_w_omega(h_e, f, scen)

    g_trace = [wmmse_objective(h_e, f, w, omega, scen)]
    stalled = False
    iters = 0
    for iters in range(1, max_outer + 1):
        if optimize_v:
            omega_inv = np.linalg.inv(omega)
            p = _reduced_channel(h_c, f, geom)
            res = cg_minimize(
                CircleManifold,
                lambda x: _g1_cost_grad(x, p, omega_inv, scen.sigma2_d),
                v, _INNER_OPTS)
            v = res.x
            stalled = stalled or res.stalled
            h_e = effective_channel(h_c, v, geom)
        w, omega = update_w_omega(h_e, f, scen)
        g_trace.append(wmmse_objective(h_e, f, w, omega, scen))
        f_new, degenerate = update_f(h_e, w, omega, scen)
        if not degenerate:
            f = f_new
        if g_trace[-2] - g_trace[-1] <= _EPS3:
            break

    se = spectral_efficiency(h_e, f, scen)
    return BeamformingSolution(f, v, g_trace, se, iters, stalled)
