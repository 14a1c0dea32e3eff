"""Alternating manifold-optimization channel estimator.

Minimizes, over fixed-rank g_hat and h_hat,

    f = sum_t ||r_t - g diag(v_t) h s_t||^2
        + mu_g * ||vec(a_bs^H g a_i)||_1 + mu_h * ||vec(a_i^H h a_ue)||_1

by alternating Riemannian CG solves in g (h frozen) and h (g frozen),
from a spectral start read from the pilots (Candes, Li and Soltanolkotabi,
"Phase retrieval via Wirtinger flow", IEEE TIT 2015). Both l1 weights grow
with the number of unknowns per observation (Bickel, Ritov and Tsybakov,
Ann. Stat. 2009), so short training blocks are regularized harder.

Inside the CG both subproblems run on the factor pairs and on statistics
formed once per outer round, never on a dense g or h against the training
block (Mishra, Meyer, Bonnabel and Sepulchre, Comput. Stat. 2014). With
f = v . (h s) fixed, the g-subproblem's data term is
||r||^2 + Re<x, x F - 2 R> with R = r f^H and F = f f^H, so its CG sums
over no training slot. With g = l_g r_g^H fixed, the h-subproblem's
residual is l_g u - r with u = r_g^H (v . (l_h (r_h^H s))), so it reads
l_g^H l_g and l_g^H r. Both costs add ||r||^2 to terms of nearly its size
and opposite sign, so they hold to rounding relative to ||r||^2 (about
1e-16 t in the normalized problem), far below the CG's threshold of 1e-3
on the decrease. objective_f, egrad_g and egrad_h are the dense oracles,
from the residual; the trace is objective_f's.

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

from collections.abc import Iterable
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channel import Dictionaries, PilotBlock
from .manifold import (_ALL, CgOptions, FixedRankManifold, FixedRankPoint,
                       cg_minimize, pick_rows)
from .numerics import (herm, khatri_rao, matrix_sums, sq_norms, stack,
                       truncated_svd)

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
    """Assumed ranks of g and h. mo_est sets both l1 weights from the
    pilot block and these ranks (see mo_est)."""

    p_hat: int = 3
    q_hat: int = 3
    max_outer: ClassVar[int] = 30

    def __post_init__(self):
        if self.p_hat < 1 or self.q_hat < 1:
            raise ValueError("assumed ranks must be >= 1")


@dataclass
class MoEstResult:
    """Estimates, per-outer-iteration objective trace, and diagnostics.

    reason is why the outer loop stopped: "settled" (the estimate moved by
    at most the settle tolerance in the last round) or "max_outer" (the
    round cap).
    """

    g_hat: FixedRankPoint
    h_hat: FixedRankPoint
    trace: list[float]
    iterations: int
    reason: str
    stalled: bool = False


def _phase(z: np.ndarray) -> np.ndarray:
    """Entrywise z/|z| with entries below DELTA0 mapped to zero."""
    mag = np.abs(z)
    return np.divide(z, mag, out=np.zeros_like(z), where=mag >= DELTA0)


def _check_dicts(dicts: Dictionaries) -> None:
    if not dicts.unitary:
        raise ValueError("estimator needs unitary (square) dictionaries")


def _spectral_start(s: np.ndarray, v: np.ndarray, r: np.ndarray,
                    cfg: MoEstConfig) -> tuple[FixedRankPoint,
                                               FixedRankPoint]:
    """Rank-(p_hat, q_hat) start (g0, h0) read from one normalized block.

    Back-projects the block onto each IRS element k,
    G_k = (n_ue / t) sum_t conj(v_t[k]) r_t s_t^H, whose mean is
    g[:, k] h[k, :] under unit-power pilots, and splits G_k at its top
    singular pair (sigma, u, w) into column sqrt(sigma) u of g0 and row
    sqrt(sigma) w^H of h0. Both are then truncated to their assumed ranks
    and split as balanced factors u sqrt(s), v sqrt(s). Noiseless, with
    p_hat above the true rank, the start's extra factor columns are
    rounding noise; an all-zero block gives all-zero factors.

    Raises:
        ValueError: an assumed rank exceeds its matrix's dimensions.
    """
    n_ue, t = s.shape
    n_bs, m = r.shape[0], v.shape[0]
    # Column k * n_ue + j of the product holds column j of G_k.
    blocks = (r @ herm(khatri_rao(v, s)) * (n_ue / t)).reshape(
        n_bs, m, n_ue).swapaxes(0, 1)
    u, sig, wh = np.linalg.svd(blocks, full_matrices=False)
    root = np.sqrt(sig[:, :1])

    def balanced(a: np.ndarray, rank: int) -> FixedRankPoint:
        u, s, v = truncated_svd(a, rank)
        return FixedRankPoint(u * np.sqrt(s), v * np.sqrt(s))

    return (balanced((u[:, :, 0] * root).T, cfg.p_hat),
            balanced(wh[:, 0, :] * root, cfg.q_hat))


# The costs and gradients below take stacks, one problem per row of a
# leading axis, with one l1 weight per row. Every complex product keeps the
# operand order of the one-problem formula: numpy's complex multiply is not
# commutative bit for bit, and `a * (b @ c)` with a temporary of 256 KiB or
# more is computed in place as `(b @ c) * a`, so stacks use np.multiply.
# Inside the CG, g and h enter as factor pairs (l, r): no cost or gradient
# forms a dense l @ r^H product with the training block.

def _fit_l1(x: np.ndarray, fit: np.ndarray, grad, mu: np.ndarray,
            a: np.ndarray, b: np.ndarray):
    """Subproblem costs fit + mu ||vec(a^H x b)||_1, one float per row of
    the dense stack x, and egrad(keep=_ALL), the conjugate Euclidean
    gradients grad(keep) + (mu/2) a y b^H of rows keep (a slice or a
    list), with grad(keep) the data term's gradients and y the phase of
    a^H x b. The gradient reuses a^H x b. A row whose weight is zero gets
    exactly its data term's gradient: |y| <= 1 and a, b are finite, so
    the l1 term adds exactly zero."""
    z = a.conj().T @ x @ b
    cost = (fit + mu * matrix_sums(np.abs(z))).tolist()

    def egrad(keep=_ALL) -> np.ndarray:
        return grad(keep) + (0.5 * mu[keep])[:, None, None] * (
            a @ _phase(z[keep]) @ herm(b))

    return cost, egrad


def _g_stats(h: FixedRankPoint, s: np.ndarray, v: np.ndarray,
             r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The g-subproblem's data at fixed h, ||r||_F^2, r f^H and f f^H with
    f = v . (l_h (r_h^H s)), per row of the stacks: the only sums over the
    training block that the g-subproblem needs, formed once per outer
    round."""
    f = h.l @ (herm(h.r) @ s)
    f = np.multiply(v, f, out=f)
    return sq_norms(r), r @ herm(f), f @ herm(f)


def _h_stats(g: FixedRankPoint, r: np.ndarray,
             rr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The h-subproblem's data at fixed g, (rr, l_g^H l_g, l_g^H r) with
    rr = ||r||_F^2, per row of the stacks."""
    lh = herm(g.l)
    return rr, lh @ g.l, lh @ r


def _cost_grad_g(x: FixedRankPoint, stats, mu: np.ndarray,
                 dicts: Dictionaries, rows=_ALL):
    """g-subproblem ||r - x f||_F^2 + mu ||vec(a_bs^H x a_i)||_1 of a
    stack x whose rows are rows `rows` of the data stacks, from
    stats = _g_stats(...) = (||r||^2, R = r f^H, F = f f^H): the cost is
    ||r||^2 + Re<x, x F - 2 R> and the data term's gradient x F - R; see
    _fit_l1."""
    rr, rf, ff = (a[rows] for a in stats)
    dense = x.dense
    j = x.l @ (herm(x.r) @ ff)
    j -= rf
    fit = rr + matrix_sums(dense.conj() * (j - rf)).real
    return _fit_l1(dense, fit, lambda keep: j[keep], mu[rows], dicts.a_bs,
                   dicts.a_i)


def _h_back(ge: np.ndarray, s: np.ndarray, v: np.ndarray, at) -> np.ndarray:
    """(v^* . ge) s^H at rows `at` of the data stacks s and v, the
    h-subproblem's data-term gradient from ge = g^H e, e its residual;
    ge is overwritten."""
    return (np.multiply(v[at].conj(), ge, out=ge)
            @ s[at].conj().swapaxes(-1, -2))


def _cost_grad_h(h: FixedRankPoint, g: FixedRankPoint, stats, s: np.ndarray,
                 v: np.ndarray, mu: np.ndarray, dicts: Dictionaries,
                 rows=_ALL):
    """h-subproblem sum_t ||r_t - g diag(v_t) h s_t||^2
    + mu ||vec(a_i^H h a_ue)||_1 of a stack h whose rows are rows `rows`
    of the data stacks, run through the factors of g = l_g r_g^H, from
    stats = _h_stats(...) = (||r||^2, l_g^H l_g, l_g^H r). With
    u = r_g^H (v . (l_h (r_h^H s))), the residual is l_g u - r, so the
    cost is ||r||^2 + Re<u, l_g^H l_g u - 2 l_g^H r> and g^H of the
    residual is r_g (l_g^H l_g u - l_g^H r); see _fit_l1. Rows of the data
    are gathered only for the products that need them, so the gradient's
    closure holds no copy of the data."""
    rr, gram, lr = (a[rows] for a in stats)
    u = h.l @ (herm(h.r) @ s[rows])
    u = herm(g.r[rows]) @ np.multiply(v[rows], u, out=u)
    e = gram @ u
    e -= lr
    fit = rr + matrix_sums(u.conj() * (e - lr)).real

    def grad(keep):
        at = pick_rows(rows, keep)
        return _h_back(g.r[at] @ e[keep], s, v, at)

    return _fit_l1(h.dense, fit, grad, mu[rows], dicts.a_i, dicts.a_ue)


# The functions below are the dense oracles of the two subproblems: each
# takes dense g and h and sums over the training block.

def _fit_h(h: np.ndarray, g: np.ndarray, s: np.ndarray, v: np.ndarray,
           r: np.ndarray, mu: np.ndarray, dicts: Dictionaries):
    """h-subproblem sum_t ||r_t - g diag(v_t) h s_t||^2
    + mu ||vec(a_i^H h a_ue)||_1 of dense stacks, from the residual; see
    _fit_l1. Its egrad gives every row's gradient, whatever keep asks."""
    hs = h @ s
    resid = g @ np.multiply(v, hs, out=hs)
    del hs
    resid -= r
    return _fit_l1(h, sq_norms(resid),
                   lambda keep: _h_back(herm(g) @ resid, s, v, _ALL),
                   mu, dicts.a_i, dicts.a_ue)


def _objective(g: np.ndarray, h: np.ndarray, s: np.ndarray, v: np.ndarray,
               r: np.ndarray, mu_g: np.ndarray, mu_h: np.ndarray,
               dicts: Dictionaries) -> list[float]:
    """The h-subproblem's cost plus the g-subproblem's l1 term, per row of
    dense stacks."""
    cost_h = np.array(_fit_h(h, g, s, v, r, mu_h, dicts)[0])
    return (cost_h + mu_g * matrix_sums(np.abs(dicts.a_bs.conj().T @ g
                                        @ dicts.a_i))).tolist()


def _one(a) -> np.ndarray:
    return np.asarray(a)[None]


def objective_f(g_hat: np.ndarray, h_hat: np.ndarray, pilots: PilotBlock,
                dicts: Dictionaries, mu_g: float, mu_h: float) -> float:
    """Regularized training-fit objective at dense (g_hat, h_hat): the
    h-subproblem's cost plus the g-subproblem's l1 term."""
    _check_dicts(dicts)
    return _objective(_one(g_hat), _one(h_hat), _one(pilots.s),
                      _one(pilots.v), _one(pilots.r), _one(mu_g),
                      _one(mu_h), dicts)[0]


def egrad_g(x: np.ndarray, r_mat: np.ndarray, f_mat: np.ndarray,
            mu_g: float, dicts: Dictionaries) -> np.ndarray:
    """Conjugate Euclidean gradient of the g-subproblem objective
    ||r_mat - x f_mat||_F^2 + mu_g ||vec(a_bs^H x a_i)||_1, from the
    residual x f_mat - r_mat."""
    x, f_mat = _one(x), _one(f_mat)
    resid = x @ f_mat
    resid -= _one(r_mat)
    return _fit_l1(x, sq_norms(resid), lambda keep: resid @ herm(f_mat),
                   _one(mu_g), dicts.a_bs, dicts.a_i)[1]()[0]


def egrad_h(h_hat: np.ndarray, g_hat: np.ndarray, pilots: PilotBlock,
            mu_h: float, dicts: Dictionaries) -> np.ndarray:
    """Conjugate Euclidean gradient of the h-subproblem objective
    sum_t ||r_t - g diag(v_t) h s_t||^2 + mu_h ||vec(a_i^H h a_ue)||_1,
    from the residual."""
    return _fit_h(_one(h_hat), _one(g_hat), _one(pilots.s), _one(pilots.v),
                  _one(pilots.r), _one(mu_h), dicts)[1]()[0]


def mo_est(pilots: PilotBlock | Iterable[PilotBlock], dicts: Dictionaries,
           cfg: MoEstConfig) -> MoEstResult | list[MoEstResult]:
    """Alternating fixed-rank CG estimation of (g, h) from a pilot block.

    Starts from the spectral start of each normalized block (see
    _spectral_start), solves the g-subproblem then the h-subproblem each
    outer round, and stops when the normalized cascaded estimate
    khatri_rao(h_hat^T, g_hat) moved by at most
    _SETTLE * sqrt(sigma2 / (c^2 * t)) times its norm in that round (the
    first round compares against the start point), or after max_outer
    rounds. With sigma2 = 0 the tolerance is 0. Nothing is random.

    Both l1 weights are mu = 1e-2 * sigma2 / c^2 * t
    * (1 + (20 * dof / (n_bs * t))^2) in the normalized problem, with
    dof = p_hat (n_bs + m - p_hat) + q_hat (m + n_ue - q_hat) unknowns
    against n_bs * t observations.

    Each estimate is a factor pair (l, r) with dense l @ r^H. The result
    is finite for a rank-deficient start too: a noiseless block with p_hat
    above the true rank reaches an accurate dense estimate, and an
    all-zero block r = 0 starts at zero factors, where the gradient is
    zero, and returns the zero estimate after one settled round.

    A list (or any iterable) of pilot blocks of one shape returns one
    result per trial. The trials run in lock-step on stacks: each round
    solves the g-subproblems of every trial still running as one stacked
    CG, then their h-subproblems, and each trial keeps its own start,
    weights and settle test, so its result is bit-identical to the one it
    gets alone.

    Raises:
        ValueError: blocks of different shapes or none, an assumed rank
            above its matrix's dimensions, or non-unitary dictionaries.
    """
    one = isinstance(pilots, PilotBlock)
    if one:
        pilots = [pilots]
    _check_dicts(dicts)
    # The normalized training block and its start, one stack for all
    # trials; each block is dropped once read, so an iterator of blocks
    # never holds two copies of the training.
    c, sigma2n, s, v, r, g_hat, h_hat = [], [], [], [], [], [], []
    for block in pilots:
        # Per-trial scalars, each computed as for one trial: numpy's
        # scalar c ** 2 rounds differently from the array square.
        c.append(float(np.sqrt(sq_norms(block.r))) / np.sqrt(block.t))
        if c[-1] == 0.0:
            c[-1] = 1.0
        sigma2n.append(block.sigma2 / c[-1] ** 2)
        s.append(block.s)
        v.append(block.v)
        r.append(block.r / c[-1])
        g0, h0 = _spectral_start(s[-1], v[-1], r[-1], cfg)
        g_hat.append(g0)
        h_hat.append(h0)
    block = pilots = None
    if len({(x.shape, y.shape, z.shape) for x, y, z in zip(s, v, r)}) != 1:
        raise ValueError("need pilot blocks, all of one shape")
    s, v, r = np.stack(s), np.stack(v), np.stack(r)
    g_hat, h_hat = stack(g_hat), stack(h_hat)
    n_bs, t = r.shape[1:]
    m, n_ue = v.shape[1], s.shape[1]
    dof = (cfg.p_hat * (n_bs + m - cfg.p_hat)
           + cfg.q_hat * (m + n_ue - cfg.q_hat))
    boost = 1.0 + (20 * dof / (n_bs * t)) ** 2
    c = np.array(c)
    mu = np.array([1e-2 * x * t * boost for x in sigma2n])
    settle = np.array([_SETTLE * np.sqrt(x / t) for x in sigma2n])

    live = list(range(len(c)))            # trial of each row
    traces = [[x] for x in _objective(g_hat.dense, h_hat.dense, s, v, r, mu,
                                      mu, dicts)]
    stalled = [False] * len(live)
    out: list[MoEstResult | None] = [None] * len(live)

    def solve(cost_grad, x0: FixedRankPoint) -> FixedRankPoint:
        """The rows of x0 moved by cg_minimize on cost_grad, restacked."""
        res = ([cg_minimize(FixedRankManifold, cost_grad, x0[0], _INNER_OPTS)]
               if one else
               cg_minimize(FixedRankManifold, cost_grad, x0, _INNER_OPTS))
        for q, x in zip(live, res):
            stalled[q] = stalled[q] or x.stalled
        return stack([x.x for x in res])

    for it in range(1, cfg.max_outer + 1):
        g_prev, h_prev = g_hat, h_hat
        g_data = _g_stats(h_hat, s, v, r)
        g_hat = solve(lambda x, rows: _cost_grad_g(x, g_data, mu, dicts,
                                                   rows), g_hat)
        h_data = _h_stats(g_hat, r, g_data[0])
        del g_data
        h_hat = solve(lambda x, rows: _cost_grad_h(x, g_hat, h_data, s, v, mu,
                                                   dicts, rows), h_hat)
        del h_data
        g_dense, h_dense = g_hat.dense, h_hat.dense
        obj = _objective(g_dense, h_dense, s, v, r, mu, mu, dicts)

        keep = []
        g_dense_prev, h_dense_prev = g_prev.dense, h_prev.dense
        for k, q in enumerate(live):
            traces[q].append(obj[k])
            h_c = khatri_rao(h_dense[k].T, g_dense[k])
            moved = np.sqrt(sq_norms(
                h_c - khatri_rao(h_dense_prev[k].T, g_dense_prev[k])))
            settled = moved <= settle[k] * np.sqrt(sq_norms(h_c))
            if not settled and it < cfg.max_outer:
                keep.append(k)
                continue
            g_phys = FixedRankPoint(c[k] * g_hat.l[k], g_hat.r[k])
            out[q] = MoEstResult(g_phys, h_hat[k], traces[q], it,
                                 "settled" if settled else "max_outer",
                                 stalled[q])
        if not keep:
            break
        if len(keep) < len(live):
            live = [live[k] for k in keep]
            g_hat, h_hat = g_hat[keep], h_hat[keep]
            s, v, r, mu, settle, c = (a[keep] for a in
                                      (s, v, r, mu, settle, c))
    return out[0] if one else out
