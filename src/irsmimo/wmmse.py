"""Downlink passive/active beamforming by alternating weighted-MMSE.

Maximizes the single-user spectral efficiency over the unit-norm baseband
beamformer f and the unit-modulus reflection vector v_d, through the
equivalent weighted-MSE objective

    g(w, omega, f, v) = tr(omega @ e(w, f, v)) - ln|omega|.

One outer iteration updates v_d by conjugate gradient on the reduced
objective g1 (receive filter eliminated in closed form), then w and omega,
then f, each block-optimal, so the recorded g trace never increases.

The closed forms, the objective and the rate also take stacks of matrices
along a leading trial axis (update_f only stacks), and alt_wmmse takes a
stack of channels, so a sweep can run many trials through one pass of
numpy calls. Each trial of a stack is bit-identical to the same trial run
alone.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemGeometry, effective_channel
from .manifold import CgOptions, CircleManifold, cg_minimize, pick_rows
from .numerics import herm, khatri_rao, random_unit_modulus, sq_norms


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
        if not self.sigma2_d > 0:
            raise ValueError("sigma2_d must be positive")
        if not 1 <= self.n_s <= min(self.geom.n_bs, self.geom.n_ue):
            raise ValueError("n_s outside [1, min(n_bs, n_ue)]")
        if not 0 <= self.t_used < self.t_tot:
            raise ValueError(f"need 0 <= t_used={self.t_used} < "
                             f"t_tot={self.t_tot}")


@dataclass
class BeamformingSolution:
    """Converged beamformers plus the objective trace and resulting rate.

    reason is why the outer loop stopped: "converged" (the last decrease
    of g was at most _EPS3) or "max_outer" (the round cap).
    """

    f: np.ndarray
    v_d: np.ndarray
    g_trace: list[float]
    se: float
    iterations: int
    reason: str
    stalled: bool = False


def spectral_efficiency(h_e: np.ndarray, f: np.ndarray,
                        scen: DownlinkScenario) -> float | np.ndarray:
    """Training-discounted rate
    (1 - t_used/t_tot) * log2 |I + f^H h_e^H h_e f / sigma2_d|; one rate
    per trial for stacked h_e and f."""
    gram = herm(f) @ herm(h_e) @ h_e @ f
    sign, logdet = np.linalg.slogdet(np.eye(f.shape[-1])
                                     + gram / scen.sigma2_d)
    prefac = 1.0 - scen.t_used / scen.t_tot
    return prefac * sign.real * logdet / np.log(2.0)


def mse_matrix(h_e: np.ndarray, f: np.ndarray, w: np.ndarray,
               scen: DownlinkScenario) -> np.ndarray:
    """Symbol-estimation error covariance for transmit f and receive w."""
    hf = h_e @ f
    hf_h, w_h = herm(hf), herm(w)
    e = np.eye(f.shape[-1], dtype=complex) - hf_h @ w - w_h @ hf
    e += scen.sigma2_d * (w_h @ w)
    e += (w_h @ hf) @ (hf_h @ w)
    return e


def update_w_omega(h_e: np.ndarray, f: np.ndarray,
                   scen: DownlinkScenario) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form linear MMSE receiver and weight omega = e^{-1}."""
    hf = h_e @ f
    n_ue = h_e.shape[-2]
    w = np.linalg.solve(hf @ herm(hf) + scen.sigma2_d * np.eye(n_ue), hf)
    e = mse_matrix(h_e, f, w, scen)
    omega = np.linalg.inv(e)
    return w, 0.5 * (omega + herm(omega))


def update_f(h_e: np.ndarray, w: np.ndarray, omega: np.ndarray,
             scen: DownlinkScenario) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form unit-Frobenius-norm beamformer for fixed (w, omega).

    The unnormalized solution minimizes the weighted MSE with the noise
    power absorbed into the transmit scale (sigma2_d * ||f||_F^2), which is
    what makes normalizing afterwards legitimate: tr(omega @ e) evaluated
    with the receive filter counter-scaled by ||f_tilde|| never exceeds its
    pre-update value. Plain tr(omega @ e) at fixed w can increase.

    Takes stacks only, with a leading trial axis on h_e, w and omega, and
    returns (f, degenerate), one flag per trial: True when the unnormalized
    solution vanishes (w = 0), in which case f is all zeros.
    """
    n_bs = h_e.shape[-1]
    psi = (omega @ herm(w) @ w).trace(axis1=-2, axis2=-1).real
    hw = herm(h_e) @ w
    rhs = hw @ omega
    degenerate = (psi <= 0.0) | ~rhs.any(axis=(-2, -1))
    a = (hw @ omega @ herm(hw)
         + (scen.sigma2_d * psi)[:, None, None] * np.eye(n_bs))
    if degenerate.any():
        a[degenerate] = np.eye(n_bs)    # keeps the stacked solve regular
    f_tilde = np.linalg.solve(a, rhs)
    norm = np.sqrt(sq_norms(f_tilde))
    degenerate |= norm == 0.0
    if degenerate.any():
        norm[degenerate] = 1.0
        f_tilde[degenerate] = 0.0
    return f_tilde / norm[:, None, None], degenerate


def _reduced_channel(ch: ChannelRealization, f: np.ndarray) -> np.ndarray:
    """(n_ue*n_s, m) matrix p with p @ v = h_e f, stacked by rows, for the
    effective channel h_e of every reflection vector v; one per trial for
    a stacked ch and f. On the factors, row u*n_s + s of p is
    conj(h[:, u]) * (g^H f)[:, s], times conj(w) when ch carries w."""
    p = khatri_rao(herm(ch.h), (herm(ch.g) @ f).swapaxes(-1, -2))
    return p if ch.w is None else p @ ch.w.conj()


def _g1_cost_grad(v: np.ndarray, p: np.ndarray, omega_inv: np.ndarray,
                  sigma2_d: float, rows=slice(None)):
    """g1 of a stack v whose rows are rows `rows` of the stacks p and
    omega_inv, one float per row, and egrad(keep=None), the gradients of
    rows keep (all for None); see g1_objective and egrad_v.

    p is _reduced_channel(ch, f), built once for a fixed f, so the cost
    needs only h_e f = p @ v and the gradient is
    -(1/sigma2_d) * p^H @ (h_e f t^{-2} omega^{-1}) stacked by rows, taken
    as conj(y^H @ p) for that stacked row y so that herm(p) is never
    copied. egrad reuses h_e f and t^{-1} from the cost."""
    o_inv = omega_inv[rows]
    hf = (p[rows] @ v[..., None]).reshape(len(v), -1, o_inv.shape[-1])
    t_inv = np.linalg.inv(o_inv + (o_inv @ herm(hf) @ hf) / sigma2_d)

    def egrad(keep=None) -> np.ndarray:
        sel = slice(None) if keep is None else keep
        y = hf[sel] @ t_inv[sel] @ t_inv[sel] @ o_inv[sel]
        return -(y.reshape(len(y), 1, -1).conj()
                 @ p[pick_rows(rows, keep)])[:, 0].conj() / sigma2_d

    return t_inv.trace(axis1=-2, axis2=-1).real.tolist(), egrad


def _g1_one(v_d, ch: ChannelRealization, f: np.ndarray, omega: np.ndarray,
            scen: DownlinkScenario):
    """_g1_cost_grad of one trial, as a stack of one."""
    return _g1_cost_grad(v_d[None], _reduced_channel(ch, f)[None],
                         np.linalg.inv(omega[None]), scen.sigma2_d)


def g1_objective(v_d, ch: ChannelRealization, f: np.ndarray,
                 omega: np.ndarray, scen: DownlinkScenario) -> float:
    """Reduced weighted-MSE objective tr(t^{-1}) with the receive filter
    eliminated; t = omega^{-1} + omega^{-1} f^H h_e^H h_e f / sigma2_d."""
    return _g1_one(v_d, ch, f, omega, scen)[0][0]


def egrad_v(v_d, ch: ChannelRealization, f: np.ndarray, omega: np.ndarray,
            scen: DownlinkScenario) -> np.ndarray:
    """Conjugate gradient of g1 with respect to the reflection vector:
    -(1/sigma2_d) * h_c.T @ vec((h_e f t^{-2} omega^{-1} f^H).T), computed
    as -(1/sigma2_d) * p^H @ (h_e f t^{-2} omega^{-1}) stacked by rows with
    p = _reduced_channel(ch, f)."""
    return _g1_one(v_d, ch, f, omega, scen)[1]()[0]


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


def alt_wmmse(scen: DownlinkScenario, ch: ChannelRealization,
              rng: np.random.Generator | list[np.random.Generator],
              max_outer: int = 50,
              optimize_v: bool = True
              ) -> BeamformingSolution | list[BeamformingSolution]:
    """Alternating minimization of the weighted-MSE objective on channel ch.

    rng draws the starting reflection vector and nothing else, so the
    seed picks the start. Per outer iteration: conjugate-gradient descent
    of v_d on the circle manifold, then the (w, omega) and f closed forms.
    The objective is recorded once per iteration right after the (w,
    omega) update, where it equals n_s + ln|e_mmse|; recording there
    (rather than after the f update, whose normalization re-scales the
    implicit receiver) is what makes the trace provably non-increasing.
    Stops when the decrease drops to _EPS3 or below.

    With optimize_v False the random start stays in place and (w, omega)
    keep their start values: the one iteration records the start objective
    again, updates f once and stops (its decrease is 0).

    The channel enters only through its factors: f is fixed during the
    CG, so each round first folds each trial's channel and f into the
    (n_ue*n_s, m) matrix p = _reduced_channel(ch, f); every trial point
    then costs one product p @ v. effective_channel runs once per outer
    iteration on the whole stack, for the closed forms. The cascaded
    channel is never formed.

    A stacked ch with one generator per trial returns one solution per
    trial. The trials iterate in lock-step: the start, the CG (one
    cg_minimize call on the stack per round) and the closed forms act on
    the stack of trials that have not stopped, the effective channel after
    the CG on the whole stack, and each trial stops on its own test, so
    its solution is bit-identical to the one it gets alone.
    """
    stacked = ch.g.ndim == 3
    if not stacked:
        ch, rng = ch[None], [rng]
    geom = scen.geom
    if (ch.g.shape[-2], ch.h.shape[-1]) != (geom.n_bs, geom.n_ue):
        raise ValueError("channel inconsistent with geometry")
    trials = len(ch.g)
    v = np.stack([random_unit_modulus(geom.m, r) for r in rng])
    h_e = effective_channel(ch, v)
    _, _, vh = np.linalg.svd(h_e, full_matrices=False)
    f = herm(vh[:, :scen.n_s]) / np.sqrt(scen.n_s)
    w, omega = update_w_omega(h_e, f, scen)
    g = wmmse_objective(h_e, f, w, omega, scen)

    g_trace = [[x] for x in g.tolist()]
    iters = np.zeros(trials, dtype=int)
    stalled = np.zeros(trials, dtype=bool)
    converged = np.zeros(trials, dtype=bool)
    active = np.arange(trials)
    for it in range(1, max_outer + 1):
        # Fancy indexing copies, so a full stack is sliced instead.
        on = active if len(active) < trials else slice(None)
        if optimize_v:
            p = _reduced_channel(ch[on], f[on])
            omega_inv = np.linalg.inv(omega[on])

            def cost_grad(x, rows):
                return _g1_cost_grad(x, p, omega_inv, scen.sigma2_d, rows)

            # One trial runs the single-point form, whose CgResult the
            # tracer (perfbench/tracer.py) reads, until it reads lists
            # (ROADMAP.md, item 2).
            res = (cg_minimize(CircleManifold, cost_grad, v[on], _INNER_OPTS)
                   if stacked else
                   [cg_minimize(CircleManifold, cost_grad, v[0], _INNER_OPTS)])
            v[on] = [r.x for r in res]
            # The round's reduced channels go before the closed forms and
            # the next round's are built.
            p = None
            stalled[on] |= [r.stalled for r in res]
            # Stopped trials kept their v, so their rows come out unchanged.
            h_e = effective_channel(ch, v)
            w, omega[on] = update_w_omega(h_e[on], f[on], scen)
            g = wmmse_objective(h_e[on], f[on], w, omega[on], scen)
        f_new, degenerate = update_f(h_e[on], w, omega[on], scen)
        if degenerate.any():
            f_new[degenerate] = f[on][degenerate]
        f[on] = f_new
        iters[active] = it
        for b, x in zip(active, g.tolist()):
            g_trace[b].append(x)
        converged[active] = [g_trace[b][-2] - g_trace[b][-1] <= _EPS3
                             for b in active]
        active = active[~converged[active]]
        if not len(active):
            break

    se = spectral_efficiency(h_e, f, scen)
    sols = [BeamformingSolution(
        f[b], v[b], g_trace[b], float(se[b]), int(iters[b]),
        "converged" if converged[b] else "max_outer", bool(stalled[b]))
        for b in range(trials)]
    return sols if stacked else sols[0]
