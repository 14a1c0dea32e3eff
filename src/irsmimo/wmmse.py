"""Downlink passive/active beamforming by alternating weighted-MMSE.

Maximizes the single-user spectral efficiency over the unit-norm baseband
beamformer f and the unit-modulus reflection vector v_d, through the
equivalent weighted-MSE objective

    g(w, omega, f, v) = tr(omega @ e(w, f, v)) - ln|omega|.

One outer iteration updates v_d by conjugate gradient on the reduced
objective g1 (receive filter eliminated in closed form), then w and omega,
then f, each block-optimal, so the recorded g trace never increases.

The closed forms, the objective and the rate also take stacks of matrices
along a leading trial axis, and alt_wmmse takes a stack of channels, so a
sweep can run many trials through one pass of numpy calls. Each trial of a
stack is bit-identical to the same trial run alone.
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


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def spectral_efficiency(h_e: np.ndarray, f: np.ndarray,
                        scen: DownlinkScenario) -> float | np.ndarray:
    """Training-discounted rate
    (1 - t_used/t_tot) * log2 |I + f^H h_e^H h_e f / sigma2_d|; one rate
    per trial for stacked h_e and f."""
    gram = _h(f) @ _h(h_e) @ h_e @ f
    sign, logdet = np.linalg.slogdet(np.eye(f.shape[-1])
                                     + gram / scen.sigma2_d)
    prefac = 1.0 - scen.t_used / scen.t_tot
    return prefac * sign.real * logdet / np.log(2.0)


def mse_matrix(h_e: np.ndarray, f: np.ndarray, w: np.ndarray,
               scen: DownlinkScenario) -> np.ndarray:
    """Symbol-estimation error covariance for transmit f and receive w."""
    hf = h_e @ f
    hf_h, w_h = _h(hf), _h(w)
    e = np.eye(f.shape[-1], dtype=complex) - hf_h @ w - w_h @ hf
    e += scen.sigma2_d * (w_h @ w)
    e += (w_h @ hf) @ (hf_h @ w)
    return e


def update_w_omega(h_e: np.ndarray, f: np.ndarray,
                   scen: DownlinkScenario) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form linear MMSE receiver and weight omega = e^{-1}."""
    hf = h_e @ f
    n_ue = h_e.shape[-2]
    w = np.linalg.solve(hf @ _h(hf) + scen.sigma2_d * np.eye(n_ue), hf)
    e = mse_matrix(h_e, f, w, scen)
    omega = np.linalg.inv(e)
    return w, 0.5 * (omega + _h(omega))


def update_f(h_e: np.ndarray, w: np.ndarray, omega: np.ndarray,
             scen: DownlinkScenario) -> tuple[np.ndarray, bool | np.ndarray]:
    """Closed-form unit-Frobenius-norm beamformer for fixed (w, omega).

    The unnormalized solution minimizes the weighted MSE with the noise
    power absorbed into the transmit scale (sigma2_d * ||f||_F^2), which is
    what makes normalizing afterwards legitimate: tr(omega @ e) evaluated
    with the receive filter counter-scaled by ||f_tilde|| never exceeds its
    pre-update value. Plain tr(omega @ e) at fixed w can increase.

    Returns (f, degenerate); degenerate is True when the unnormalized
    solution vanishes (w = 0), in which case f is all zeros. Stacked
    inputs give a stack of beamformers and one flag per trial. Each norm is
    taken per matrix, as np.linalg.norm of one matrix rounds differently
    from a norm over the axes of a stack.
    """
    stacked = h_e.ndim == 3
    if not stacked:
        h_e, w, omega = h_e[None], w[None], omega[None]
    n_bs = h_e.shape[-1]
    psi = (omega @ _h(w) @ w).trace(axis1=-2, axis2=-1).real
    hw = _h(h_e) @ w
    rhs = hw @ omega
    degenerate = (psi <= 0.0) | ~rhs.any(axis=(-2, -1))
    a = (hw @ omega @ _h(hw)
         + (scen.sigma2_d * psi)[:, None, None] * np.eye(n_bs))
    if degenerate.any():
        a[degenerate] = np.eye(n_bs)    # keeps the stacked solve regular
    f_tilde = np.linalg.solve(a, rhs)
    norm = np.array([np.linalg.norm(x) for x in f_tilde])
    degenerate |= norm == 0.0
    if degenerate.any():
        norm[degenerate] = 1.0
        f_tilde[degenerate] = 0.0
    f = f_tilde / norm[:, None, None]
    return (f, degenerate) if stacked else (f[0], bool(degenerate[0]))


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
                    omega: np.ndarray,
                    scen: DownlinkScenario) -> float | np.ndarray:
    """Full objective tr(omega @ e) - ln|omega|, per trial for stacks."""
    e = mse_matrix(h_e, f, w, scen)
    sign, logdet = np.linalg.slogdet(omega)
    return ((omega @ e).trace(axis1=-2, axis2=-1).real
            - sign.real * logdet)


_INNER_OPTS = CgOptions(epsilon=1e-3, max_iters=100)
_EPS3 = 1e-3


def alt_wmmse(scen: DownlinkScenario, h_c: np.ndarray,
              rng: np.random.Generator | list[np.random.Generator],
              max_outer: int = 50,
              optimize_v: bool = True
              ) -> BeamformingSolution | list[BeamformingSolution]:
    """Alternating minimization of the weighted-MSE objective on h_c.

    rng draws the starting reflection vector and nothing else, so the
    seed picks the start. Per outer iteration: conjugate-gradient descent
    of v_d on the circle manifold, then the (w, omega) and f closed forms.
    The objective is recorded once per iteration right after the (w,
    omega) update, where it equals n_s + ln|e_mmse|; recording there
    (rather than after the f update, whose normalization re-scales the
    implicit receiver) is what makes the trace provably non-increasing.
    Stops when the decrease drops to _EPS3 or below.

    With optimize_v False the initial random reflection stays in place, so
    (w, omega) and the objective of the first iteration are those of the
    start: the one iteration records the start objective again, updates f
    once and stops (its decrease is 0).

    f is fixed during the CG, so each CG call first folds h_c and f into
    the (n_ue*n_s, m) matrix p = _reduced_channel(h_c, f); every trial
    point then costs one product p @ v instead of rebuilding h_e from
    h_c. effective_channel runs once per outer iteration, for the closed
    forms.

    A stack of channels (trials, n_bs*n_ue, m) with one generator per
    trial returns one solution per trial. The trials iterate in lock-step:
    the start and the closed forms act on the stack of trials that have
    not stopped, the CG and the effective channel after it run per trial,
    and each trial stops on its own test, so its solution is
    bit-identical to the one it gets alone.
    """
    stacked = h_c.ndim == 3
    if not stacked:
        h_c, rng = h_c[None], [rng]
    geom = scen.geom
    trials = len(h_c)
    v = np.stack([random_unit_modulus(geom.m, r) for r in rng])
    h_e = effective_channel(h_c, v, geom)
    _, _, vh = np.linalg.svd(h_e, full_matrices=False)
    f = _h(vh[:, :scen.n_s]) / np.sqrt(scen.n_s)
    w, omega = update_w_omega(h_e, f, scen)
    g = wmmse_objective(h_e, f, w, omega, scen)

    g_trace = [[x] for x in g.tolist()]
    iters = np.zeros(trials, dtype=int)
    stalled = np.zeros(trials, dtype=bool)
    active = np.arange(trials)
    for it in range(1, max_outer + 1):
        # Fancy indexing copies, so a full stack is sliced instead.
        on = active if len(active) < trials else slice(None)
        if optimize_v:
            omega_inv = np.linalg.inv(omega[on])
            for b, o_inv in zip(active, omega_inv):
                p = _reduced_channel(h_c[b], f[b], geom)
                res = cg_minimize(
                    CircleManifold,
                    lambda x, p=p, o_inv=o_inv: _g1_cost_grad(
                        x, p, o_inv, scen.sigma2_d),
                    v[b], _INNER_OPTS)
                v[b] = res.x
                stalled[b] |= res.stalled
                h_e[b] = effective_channel(h_c[b], v[b], geom)
        if optimize_v or it > 1:
            w, omega[on] = update_w_omega(h_e[on], f[on], scen)
            g = wmmse_objective(h_e[on], f[on], w, omega[on], scen)
        f_new, degenerate = update_f(h_e[on], w, omega[on], scen)
        if degenerate.any():
            f_new[degenerate] = f[on][degenerate]
        f[on] = f_new
        iters[active] = it
        for b, x in zip(active, g.tolist()):
            g_trace[b].append(x)
        stop = [g_trace[b][-2] - g_trace[b][-1] <= _EPS3 for b in active]
        active = active[~np.array(stop, dtype=bool)]
        if not len(active):
            break

    se = spectral_efficiency(h_e, f, scen)
    sols = [BeamformingSolution(f[b], v[b], g_trace[b], float(se[b]),
                                int(iters[b]), bool(stalled[b]))
            for b in range(trials)]
    return sols if stacked else sols[0]
