"""Three-stage greedy (OMP) estimator of the cascaded channel h_c.

Stage 1 recovers the UE departure atoms from the first t1 slots, during
which the reflection vector is held fixed so the slots share one effective
channel. Stage 2 recovers the BS arrival atoms from all slots. Stage 3
solves a single sparse LS problem for the cascaded gains on the IRS grid
and reassembles

    h_c_hat = kron(conj(a_ue_bar), a_bs_bar) @ lam_mat @ a_i.T

held as channel factors (see stage3_gains).

OMP runs in the Gram domain (Batch-OMP): it correlates the atoms with
the observation once, psi0 = theta^H obs, and then works on psi0 and
the Gram columns theta^H theta[:, j] of the atoms it selects, never on
a residual of the observation's size. The stage-3 sensing matrix has
Kronecker-structured row blocks, so it is never formed: KronSensing
applies its adjoint and forms Gram columns as contractions of the
factors, through the m IRS elements rather than the g_i grid points.
Its size is therefore not capped. Stage 2 runs on the observation's row
space, an (n_bs, min(t, n_bs)) matrix with the same r r^H as r.

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
    the residual Frobenius-norm trace (observation norm first), from the
    least-squares identity in omp_mmv."""

    support: list[int]
    coeffs: np.ndarray
    res_trace: list[float]


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

    Row block t (n_bs rows) is kron(c[:, t], kron(su[t], a_bs_bar)) with
    c = a_i.T @ v the (g_i, t) IRS-grid response, so column
    gi*kk + q*p_hat + p, with kk = q_hat*p_hat, holds
    c[gi, t] * su[t, q] * a_bs_bar[:, p] in block t. The grid response is
    not formed either: every product with conj(c) runs through the m IRS
    elements as a_i^H @ (conj(v) @ x) (Kronecker compressive sensing;
    Duarte and Baraniuk, 2012), so no array has g_i * t entries. The
    conjugated factors and the BS atoms' Gram matrix are formed once, here.

    Args:
        a_i: (m, g_i) IRS dictionary.
        v: (m, t) reflection vectors.
        su: (t, q_hat) pilot responses s.T @ conj(a_ue_bar).
        a_bs_bar: (n_bs, p_hat) selected BS atoms.
    """

    def __init__(self, a_i: np.ndarray, v: np.ndarray, su: np.ndarray,
                 a_bs_bar: np.ndarray):
        self.a_i, self.v, self.su = a_i, v, su
        self.a_i_h, self.v_conj = a_i.conj().T, v.conj()
        self.su_conj = su.conj()
        self.a_bs_h = a_bs_bar.conj().T
        self.bs_gram = self.a_bs_h @ a_bs_bar                  # (p, p)
        n_bs, p_hat = a_bs_bar.shape
        g_i, t = a_i.shape[1], v.shape[1]
        self.shape = (n_bs * t, g_i * su.shape[1] * p_hat)

    def adjoint(self, res: np.ndarray) -> np.ndarray:
        """theta^H res for res of shape (rows, L), as (cols, L)."""
        p_hat, n_bs = self.a_bs_h.shape
        t = self.v.shape[1]
        kk = self.su.shape[1] * p_hat
        n_obs = res.shape[1]
        y = self.a_bs_h @ res.reshape(t, n_bs, n_obs)             # (t, p, L)
        z = self.su_conj[:, :, None, None] * y[:, None]         # (t, q, p, L)
        psi = self.a_i_h @ (self.v_conj @ z.reshape(t, kk * n_obs))
        return psi.reshape(self.shape[1], n_obs)

    def gram_columns(self, idx: list[int]) -> np.ndarray:
        """theta^H theta[:, idx], as (cols, len(idx)).

        Entry (gi', q', p') of the column of atom (gi, q, p) is
        bs_gram[p', p] * sum_t conj(c[gi', t] su[t, q']) c[gi, t] su[t, q]:
        the atom's response row a_i[:, gi].T @ v, then one product through
        the IRS elements per atom.
        """
        p_hat = self.bs_gram.shape[0]
        g_i, t, q_hat = self.a_i.shape[1], self.v.shape[1], self.su.shape[1]
        gi, qp = np.divmod(idx, q_hat * p_hat)
        q, p = np.divmod(qp, p_hat)
        cols = (self.v.T @ self.a_i[:, gi]) * self.su[:, q]     # (t, k)
        w = self.su_conj[:, :, None] * cols[:, None]            # (t, q', k)
        m = self.a_i_h @ (self.v_conj @ w.reshape(t, q_hat * len(idx)))
        return (m.reshape(g_i, q_hat, 1, len(idx))
                * self.bs_gram[:, p]).reshape(self.shape[1], len(idx))


class _DenseSensing:
    """A formed sensing matrix behind the operations omp_mmv uses."""

    def __init__(self, theta: np.ndarray):
        self.theta, self.shape = theta, theta.shape
        self.theta_h = theta.conj().T

    def adjoint(self, res: np.ndarray) -> np.ndarray:
        return self.theta_h @ res

    def gram_columns(self, idx: list[int]) -> np.ndarray:
        return self.theta_h @ self.theta[:, idx]


def omp_mmv(theta: np.ndarray | KronSensing, obs: np.ndarray,
            k: int) -> OmpResult:
    """Orthogonal matching pursuit with multiple measurement vectors, in
    the Gram domain (Batch-OMP; Rubinstein, Zibulevsky and Elad, 2008).

    Each iteration picks the row of psi = theta^H res with the largest
    energy (ties to the lowest index), then refits all selected atoms
    against the original observation by least squares. The residual is
    never formed: with G = theta^H theta, psi0 = theta^H obs and the
    refit's coefficients C on support S,

        psi = psi0 - G[:, S] @ C,
        ||res||^2 = ||obs||^2 - Re sum(conj(C) * psi0[S])

    (the second holds at the least-squares optimum, and is clipped at 0).

    theta is a dense array or an operator with `shape`, `adjoint(res)`
    (theta^H res) and `gram_columns(idx)` (theta^H theta[:, idx]); OMP
    touches the sensing matrix only through these two operations, the
    adjoint once and one Gram column per step.

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
    obs_sq = float(sq_norms(obs))
    res_trace = [float(np.sqrt(obs_sq))]
    psi0 = psi = theta.adjoint(obs)
    gram_cols = np.empty((theta.shape[1], k), dtype=complex)
    coeffs = np.zeros((0, obs.shape[1]), dtype=complex)
    for j in range(k):
        metric = np.sum(np.abs(psi) ** 2, axis=1)
        metric[support] = -1.0
        support.append(int(np.argmax(metric)))
        gram_cols[:, j:j + 1] = theta.gram_columns(support[-1:])
        gram = gram_cols[support, :j + 1]
        if np.linalg.cond(gram) > GRAM_COND_LIMIT:
            raise np.linalg.LinAlgError(
                f"selected atoms nearly collinear (support {support})")
        corr = psi0[support]
        coeffs = np.linalg.solve(gram, corr)
        psi = psi0 - gram_cols[:, :j + 1] @ coeffs
        res_sq = obs_sq - float(np.sum(coeffs.conj() * corr).real)
        res_trace.append(float(np.sqrt(max(res_sq, 0.0))))
    return OmpResult(support, coeffs, res_trace)


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
    """BS arrival-atom selection: r = a_bs gamma + noise over all slots.

    OMP runs on the observation's row space: with r^H = Q R, the
    (n_bs, min(t, n_bs)) matrix R^H has the same r r^H as r (the l1-SVD
    reduction; Malioutov, Cetin and Willsky, 2005). OMP picks atoms by the
    row energies of a_bs^H (I - P_S) r, which the unitary Q^H on the right
    leaves unchanged, so the support and res_trace are those of r, while
    the returned coeffs are those of the compressed observation R^H. Only
    the support is used downstream.
    """
    r_row = np.linalg.qr(pilots.r.conj().T, mode="r").conj().T
    res = omp_mmv(dicts.a_bs, r_row, cfg.p_hat)
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
    one tall system, held as a KronSensing operator on a_i and v and never
    formed (nor is the grid response c), solved by omp_mmv with
    k = p_hat * q_hat.

    Returns (lam, estimate, omp_result). The estimate holds h_c_hat as
    factors with K = p_hat * q_hat: column i*p_hat + j pairs UE atom i with
    BS atom j, so kron(conj(a_ue_bar), a_bs_bar) is
    khatri_rao(repeat(conj(a_ue_bar), p_hat), tile(a_bs_bar, q_hat)), and
    w = lam_mat @ a_i.T.
    """
    g_i = dicts.a_i.shape[1]
    kk = a_ue_bar.shape[1] * a_bs_bar.shape[1]

    su = pilots.s.T @ a_ue_bar.conj()                          # (t, q_hat)
    theta = KronSensing(dicts.a_i, pilots.v, su, a_bs_bar)
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

    OMP costs one adjoint, then at step j one Gram column and cols*j*L
    multiply-adds for the update psi = psi0 - G[:, S] @ C of the cols
    atoms' correlations with the L observation columns. The gathers, the
    j x j solve and the residual-norm identity are not counted.

    Stage 2 counts the Householder R of the (t, n_bs) matrix r^H as
    k0**2 * k1 - k0**3 // 3 multiply-adds, k0 = min(t, n_bs) and
    k1 = max(t, n_bs) (n_bs**2 * (t - n_bs/3) for t >= n_bs, its third
    rounded down), then OMP on k0 observation columns.
    """
    def omp(cols, n_obs, k, adjoint, gram):
        return adjoint + sum(gram + cols * j * n_obs
                             for j in range(1, k + 1))

    n_bs, t = pilots.r.shape
    (n_ue, g_ue), g_bs = dicts.a_ue.shape, dicts.a_bs.shape[1]
    (m, g_i), kk = dicts.a_i.shape, cfg.p_hat * cfg.q_hat
    t1, p, q = resolve_t1(cfg.t1, t), cfg.p_hat, cfg.q_hat
    k0, k1 = min(t, n_bs), max(t, n_bs)
    macs = {
        "stage1": t1 * n_ue * g_ue
        + omp(g_ue, n_bs, q, g_ue * t1 * n_bs, g_ue * t1),
        "stage2": k0 * k0 * k1 - k0 ** 3 // 3
        + omp(g_bs, k0, p, g_bs * n_bs * k0, g_bs * n_bs),
        # su, the estimate's w and the BS atoms' Gram matrix. The adjoint
        # runs a_bs^H and su over the slots, then conj(v) and a_i^H over
        # the m IRS elements. A Gram column is the atom's response row
        # (m*t), t*(q + 1) elementwise products, a (m, t) @ (t, q) and a
        # (g_i, m) @ (m, q) product, and the outer product with a column
        # of the BS Gram matrix.
        "stage3": t * n_ue * q + kk * g_i * m + p * n_bs * p
        + omp(g_i * kk, 1, kk, t * (p * n_bs + kk) + m * t * kk
              + g_i * m * kk,
              m * t + t * (q + 1) + m * t * q + g_i * m * q + g_i * kk)}
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
