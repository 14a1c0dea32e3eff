"""Three-stage greedy (OMP) estimator of the cascaded channel h_c.

Stage 1 recovers the UE departure atoms from the first t1 slots, during
which the reflection vector is held fixed so the slots share one effective
channel. Stage 2 recovers the BS arrival atoms from all slots. Stage 3
solves a single sparse LS problem for the cascaded gains on the IRS grid
and reassembles

    h_c_hat = kron(conj(a_ue_bar), a_bs_bar) @ lam_mat @ a_i.T

held as channel factors (see stage3_gains).

The stage-3 sensing matrix has Kronecker-structured row blocks, so it is
never formed: KronSensing applies its adjoint as a contraction of the
factors and builds only the columns OMP selects. Its size is therefore
not capped.

All dictionary/gain scale factors are absorbed by the least-squares refits,
so only atom identities matter in stages 1-2.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, Dictionaries, PilotBlock
from .numerics import mat, sq_norms

GRAM_COND_LIMIT = 1e12


@dataclass(frozen=True)
class CsEstConfig:
    """Protocol and sparsity settings.

    t1 of None resolves to ceil(t/4) at run time (see resolve_t1). Grid
    resolutions travel with the Dictionaries object.
    """

    p_hat: int = 3
    q_hat: int = 3
    t1: int | None = None

    def __post_init__(self):
        if self.p_hat < 1 or self.q_hat < 1:
            raise ValueError("assumed path counts must be >= 1")
        if self.t1 is not None and self.t1 < 1:
            raise ValueError("t1 must be >= 1")


@dataclass
class OmpResult:
    """Greedy selection output: support order, final LS coefficients, and
    the residual Frobenius-norm trace (observation norm first)."""

    support: list[int]
    coeffs: np.ndarray
    res_trace: list[float]
    residual: np.ndarray


@dataclass
class CsEstResult:
    """Reconstruction as channel factors, selected supports, and run
    metrics."""

    estimate: ChannelRealization
    support_ue: list[int]
    support_bs: list[int]
    support_gain: list[int]
    stage_ms: dict[str, float] = field(default_factory=dict)
    flops: dict[str, float] = field(default_factory=dict)


class KronSensing:
    """Stage-3 sensing matrix, never formed.

    Row block t (n_bs rows) is kron(c_all[:, t], kron(su[t], a_bs_bar)), so
    column gi*kk + q*p_hat + p, with kk = q_hat*p_hat, holds
    c_all[gi, t] * su[t, q] * a_bs_bar[:, p] in block t.

    Args:
        c_all: (g_i, t) IRS-grid responses a_i.T @ v.
        su: (t, q_hat) pilot responses s.T @ conj(a_ue_bar).
        a_bs_bar: (n_bs, p_hat) selected BS atoms.
    """

    def __init__(self, c_all: np.ndarray, su: np.ndarray,
                 a_bs_bar: np.ndarray):
        self.c_all, self.su, self.a_bs_bar = c_all, su, a_bs_bar
        n_bs, p_hat = a_bs_bar.shape
        g_i, t = c_all.shape
        self.shape = (n_bs * t, g_i * su.shape[1] * p_hat)

    def adjoint(self, res: np.ndarray) -> np.ndarray:
        """theta^H res for res of shape (rows, L), as (cols, L)."""
        n_bs, p_hat = self.a_bs_bar.shape
        g_i, t = self.c_all.shape
        kk = self.su.shape[1] * p_hat
        n_obs = res.shape[1]
        y = self.a_bs_bar.conj().T @ res.reshape(t, n_bs, n_obs)  # (t, p, L)
        z = self.su.conj()[:, :, None, None] * y[:, None]       # (t, q, p, L)
        psi = self.c_all.conj() @ z.reshape(t, kk * n_obs)
        return psi.reshape(g_i * kk, n_obs)

    def columns(self, idx: list[int]) -> np.ndarray:
        """The selected columns, multiplied in np.kron's order so they are
        bit-identical to the columns of the formed matrix."""
        p_hat = self.a_bs_bar.shape[1]
        gi, qp = np.divmod(idx, self.su.shape[1] * p_hat)
        q, p = np.divmod(qp, p_hat)
        b = self.su[:, None, q] * self.a_bs_bar[None, :, p]    # (t, n_bs, k)
        cols = self.c_all[gi].T[:, None, :] * b
        return cols.reshape(self.shape[0], len(idx))


class _DenseSensing:
    """A formed sensing matrix behind the operations omp_mmv uses."""

    def __init__(self, theta: np.ndarray):
        self.theta, self.shape = theta, theta.shape

    def adjoint(self, res: np.ndarray) -> np.ndarray:
        return self.theta.conj().T @ res

    def columns(self, idx: list[int]) -> np.ndarray:
        return self.theta[:, idx]


def omp_mmv(theta: np.ndarray | KronSensing, obs: np.ndarray,
            k: int) -> OmpResult:
    """Orthogonal matching pursuit with multiple measurement vectors.

    Each iteration correlates all atoms with the residual, picks the row
    of psi = theta^H res with the largest energy (ties to the lowest
    index), then refits all selected atoms against the original
    observation by least squares.

    theta is a dense array or an operator with `shape`, `adjoint(res)`
    (theta^H res) and `columns(idx)` (theta[:, idx]); OMP touches the
    sensing matrix only through these two operations.

    Raises:
        np.linalg.LinAlgError: selected atoms are numerically collinear
            (Gram condition number above GRAM_COND_LIMIT).
    """
    if isinstance(theta, np.ndarray):
        theta = _DenseSensing(theta)
    if obs.ndim == 1:
        obs = obs[:, None]
    if theta.shape[0] != obs.shape[0]:
        raise ValueError("theta and obs row counts differ")
    if not 1 <= k <= theta.shape[1]:
        raise ValueError(f"k={k} outside [1, {theta.shape[1]}]")

    support: list[int] = []
    res = obs
    res_trace = [float(np.sqrt(sq_norms(obs)))]
    coeffs = np.zeros((0, obs.shape[1]), dtype=complex)
    for _ in range(k):
        psi = theta.adjoint(res)
        metric = np.sum(np.abs(psi) ** 2, axis=1)
        metric[support] = -1.0
        support.append(int(np.argmax(metric)))
        sel = theta.columns(support)
        gram = sel.conj().T @ sel
        if np.linalg.cond(gram) > GRAM_COND_LIMIT:
            raise np.linalg.LinAlgError(
                f"selected atoms nearly collinear (support {support})")
        coeffs = np.linalg.solve(gram, sel.conj().T @ obs)
        res = obs - sel @ coeffs
        res_trace.append(float(np.sqrt(sq_norms(res))))
    return OmpResult(support, coeffs, res_trace, res)


def stage1_ue_aods(pilots: PilotBlock, dicts: Dictionaries,
                   cfg: CsEstConfig) -> tuple[np.ndarray, OmpResult]:
    """UE departure-atom selection from the fixed-reflection slots.

    The first t1 received blocks satisfy r_t^H = s_t^H a_ue gamma + noise
    for one common row-sparse gamma, so omp_mmv on (s^H a_ue, r^H) finds
    the q_hat active columns of a_ue.
    """
    t1 = resolve_t1(cfg.t1, pilots.t)
    theta = pilots.s[:, :t1].conj().T @ dicts.a_ue
    res = omp_mmv(theta, pilots.r[:, :t1].conj().T, cfg.q_hat)
    return dicts.a_ue[:, res.support], res


def stage2_bs_aoas(pilots: PilotBlock, dicts: Dictionaries,
                   cfg: CsEstConfig) -> tuple[np.ndarray, OmpResult]:
    """BS arrival-atom selection: r = a_bs gamma + noise over all slots."""
    res = omp_mmv(dicts.a_bs, pilots.r, cfg.p_hat)
    return dicts.a_bs[:, res.support], res


def permutation_l(dicts: Dictionaries, j: int) -> np.ndarray:
    """Permutation matrix of the row-rearrangement identity

        a_i.T * (row broadcast of conj(sqrt(m) * a_j)) == l_j @ a_i.T

    where a_j is column j of the IRS dictionary and * is entrywise. Works
    because the frequency grids are closed under subtraction modulo 2,
    which needs both per-axis resolutions to be even.
    """
    g_y, g_z = dicts.a_y.shape[1], dicts.a_z.shape[1]
    if g_y % 2 or g_z % 2:
        raise ValueError("permutation identity needs even grid resolutions")
    if not 0 <= j < g_y * g_z:
        raise ValueError(f"atom index {j} out of range")
    j_y, j_z = divmod(j, g_z)
    i_y, i_z = np.divmod(np.arange(g_y * g_z), g_z)
    sig_y = (i_y - j_y + g_y // 2) % g_y
    sig_z = (i_z - j_z + g_z // 2) % g_z
    l_j = np.zeros((g_y * g_z, g_y * g_z))
    l_j[np.arange(g_y * g_z), sig_y * g_z + sig_z] = 1.0
    return l_j


def stage3_gains(pilots: PilotBlock, a_ue_bar: np.ndarray,
                 a_bs_bar: np.ndarray, dicts: Dictionaries, cfg: CsEstConfig
                 ) -> tuple[np.ndarray, ChannelRealization, OmpResult]:
    """Sparse recovery of the cascaded gains on the IRS grid.

    Slot t contributes r_t = (kron(c_t.T, b_t)) lam with c_t = a_i.T v_t
    and b_t = kron(s_t.T conj(a_ue_bar), a_bs_bar); the slots stack into
    one tall system, held as a KronSensing operator and never formed,
    solved by omp_mmv with k = p_hat * q_hat.

    Returns (lam, estimate, omp_result). The estimate holds h_c_hat as
    factors with K = p_hat * q_hat: column i*p_hat + j pairs UE atom i with
    BS atom j, so kron(conj(a_ue_bar), a_bs_bar) is
    khatri_rao(repeat(conj(a_ue_bar), p_hat), tile(a_bs_bar, q_hat)), and
    w = lam_mat @ a_i.T.
    """
    g_i = dicts.a_i.shape[1]
    kk = a_ue_bar.shape[1] * a_bs_bar.shape[1]

    c_all = dicts.a_i.T @ pilots.v                             # (g_i, t)
    su = pilots.s.T @ a_ue_bar.conj()                          # (t, q_hat)
    theta = KronSensing(c_all, su, a_bs_bar)
    obs = pilots.r.reshape(-1, order="F")

    res = omp_mmv(theta, obs, kk)
    lam = np.zeros(theta.shape[1], dtype=complex)
    lam[res.support] = res.coeffs[:, 0]
    p_hat, q_hat = a_bs_bar.shape[1], a_ue_bar.shape[1]
    estimate = ChannelRealization(
        np.tile(a_bs_bar, q_hat), np.repeat(a_ue_bar.conj(), p_hat, axis=1).T,
        mat(lam, kk, g_i) @ dicts.a_i.T)
    return lam, estimate, res


def cs_est(pilots: PilotBlock, dicts: Dictionaries,
           cfg: CsEstConfig) -> CsEstResult:
    """Full three-stage pipeline with per-stage timings and flops; the
    flops come from the problem's shapes alone (see _flops)."""
    stage_ms: dict[str, float] = {}

    tic = time.perf_counter()
    a_ue_bar, omp_ue = stage1_ue_aods(pilots, dicts, cfg)
    stage_ms["stage1"] = 1e3 * (time.perf_counter() - tic)

    tic = time.perf_counter()
    a_bs_bar, omp_bs = stage2_bs_aoas(pilots, dicts, cfg)
    stage_ms["stage2"] = 1e3 * (time.perf_counter() - tic)

    tic = time.perf_counter()
    _, estimate, omp_gain = stage3_gains(pilots, a_ue_bar, a_bs_bar, dicts,
                                         cfg)
    stage_ms["stage3"] = 1e3 * (time.perf_counter() - tic)

    return CsEstResult(estimate, omp_ue.support, omp_bs.support,
                       omp_gain.support, stage_ms, _flops(pilots, dicts, cfg))


def _flops(pilots: PilotBlock, dicts: Dictionaries,
           cfg: CsEstConfig) -> dict[str, float]:
    """Each stage's flops from the problem's shapes, at 8 per complex
    multiply-add (8*m*k*n for an (m, k) x (k, n) product).

    OMP step j costs one adjoint, gather*j to build the j selected columns,
    and rows*j*(j + 2L) multiply-adds for their Gram matrix, their
    correlation with the L observation columns and the residual update.
    """
    def omp(rows, n_obs, k, adjoint, gather=0):
        return sum(adjoint + gather * j + rows * j * (j + 2 * n_obs)
                   for j in range(1, k + 1))

    n_bs, t = pilots.r.shape
    (n_ue, g_ue), g_bs = dicts.a_ue.shape, dicts.a_bs.shape[1]
    (m, g_i), kk = dicts.a_i.shape, cfg.p_hat * cfg.q_hat
    t1, p, q = resolve_t1(cfg.t1, t), cfg.p_hat, cfg.q_hat
    macs = {
        "stage1": t1 * n_ue * g_ue + omp(t1, n_bs, q, g_ue * t1 * n_bs),
        "stage2": omp(n_bs, t, p, g_bs * n_bs * t),
        "stage3": t * (g_i * m + n_ue * q) + kk * g_i * m
        + omp(n_bs * t, 1, kk, t * (p * n_bs + kk + g_i * kk), n_bs * t)}
    flops = {name: 8.0 * v for name, v in macs.items()}
    flops["total"] = sum(flops.values())
    return flops


def resolve_t1(t1: int | None, t: int) -> int:
    """Stage-1 slot count: t1, or ceil(t/4) when None.

    Raises:
        ValueError: the count lies outside [1, t].
    """
    t1 = int(np.ceil(t / 4)) if t1 is None else t1
    if not 1 <= t1 <= t:
        raise ValueError(f"t1={t1} outside [1, {t}]")
    return t1
