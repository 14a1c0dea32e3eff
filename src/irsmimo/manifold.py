"""Riemannian conjugate-gradient minimization over two manifolds: complex
matrices of fixed rank r (factored as l @ r^H) and the complex circle
(vectors with unit-modulus entries).

Problem contract: `cg_minimize` takes one callback, cost_grad, which
returns the real costs of a stack of points and a callable egrad that
gives their gradients and can reuse the forward pass of the costs. The
solver evaluates cost_grad once per trial point and calls egrad only at
x0 and at each accepted point the search continues from.

Stacks: points, tangent vectors and the manifold ops take a leading row
axis, one row per problem, and `cg_minimize` runs a stack of B problems
in lock-step. Each row keeps its own step, decrease test, steepest-descent
retry and stop test; numpy computes stacked matmul, eigh and axis sums
bit-identically to one call per matrix, so every row ends where its
problem alone ends. Indexing a stack, `x[rows]`, selects rows and
`x[rows] = y` assigns them; a circle stack is a (B, m) array. A single
point runs as a stack of one.

Tangent vectors are plain data, as in Manopt and Pymanopt: a tangent
vector stores no base point, and every op that needs one takes it, as
transport(x, x_new, t) takes both ends.

Gradient convention: egrad returns the conjugate Wirtinger gradient
J = df/d(conj(X)), so the directional derivative of the real cost along a
direction D is 2 * Re<J, D>. The Riemannian gradient is the projection
of J and line-search slopes carry the factor 2.

The fixed-rank geometry is the quotient of full-rank factor pairs (l, r)
by GL(r) with the preconditioned metric of Mishra, Meyer, Bonnabel and
Sepulchre ("Fixed-rank matrix factorizations and Riemannian low-rank
optimization", Comput. Stat. 2014; Manopt's
fixedrankfactory_2factors_preconditioned). A tangent vector is a factor
pair of the same shapes, the retraction adds it, and the only matrices
the ops invert are r x r Gram matrices, by pseudo-inverse, so a
rank-deficient or zero factor stays finite (Burer and Monteiro, Math.
Program. 2003).
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import herm, matrix_sums


@dataclass
class FixedRankPoint:
    """Rank-r matrix l @ r^H in two-factor form, l (n, r) and r (m, r).

    A tangent vector at such a point is a pair of the same shapes, so the
    class also holds tangent vectors, with + - * and unary minus. A
    stack of B points or vectors has l (B, n, r) and r (B, m, r);
    indexing a stack selects rows, and a product with one factor per row
    scales each row.
    """

    l: np.ndarray
    r: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.l.shape[-2], self.r.shape[-2])

    @property
    def dense(self) -> np.ndarray:
        return self.l @ herm(self.r)

    @staticmethod
    def stack(points: list["FixedRankPoint"]) -> "FixedRankPoint":
        """The stack of points of one shape and rank, in order."""
        return FixedRankPoint(np.stack([x.l for x in points]),
                              np.stack([x.r for x in points]))

    def __len__(self) -> int:
        return len(self.l)

    def __getitem__(self, rows) -> "FixedRankPoint":
        return FixedRankPoint(self.l[rows], self.r[rows])

    def __setitem__(self, rows, other: "FixedRankPoint") -> None:
        self.l[rows], self.r[rows] = other.l, other.r

    def __add__(self, other: "FixedRankPoint") -> "FixedRankPoint":
        return FixedRankPoint(self.l + other.l, self.r + other.r)

    def __sub__(self, other: "FixedRankPoint") -> "FixedRankPoint":
        return FixedRankPoint(self.l - other.l, self.r - other.r)

    def __mul__(self, c) -> "FixedRankPoint":
        if not np.isscalar(c):
            c = np.asarray(c)[:, None, None]
        return FixedRankPoint(c * self.l, c * self.r)

    __rmul__ = __mul__

    def __neg__(self) -> "FixedRankPoint":
        return self * -1.0


# Armijo backtracking line-search constants.
_CONTRACTION = 0.5
_SUFFICIENT_DECREASE = 1e-4
_INITIAL_STEP = 1.0
_MAX_BACKTRACKS = 50
# A squared gradient norm at or below this ends a run ("zero_grad").
_ZERO_GRAD = 1e-24


@dataclass(frozen=True)
class CgOptions:
    """Conjugate-gradient termination settings."""

    epsilon: float = 1e-3
    max_iters: int = 200

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class CgResult:
    """Final iterate, objective trace (cost at x0 first), and diagnostics.

    reason says why the run stopped: "converged" (the last decrease was
    at most epsilon), "max_iters", "stalled" (both line searches failed)
    or "zero_grad" (the gradient vanished).
    """

    x: object
    trace: list[float]
    iters: int
    reason: str

    @property
    def stalled(self) -> bool:
        return self.reason == "stalled"


def _gram(a: np.ndarray) -> np.ndarray:
    return herm(a) @ a


def project_tangent(x: FixedRankPoint, j: np.ndarray) -> FixedRankPoint:
    """Riemannian gradient at x of a cost whose conjugate Euclidean
    gradient in l @ r^H is the ambient matrix j:
    (j r (r^H r)^+, j^H l (l^H l)^+). Stacks project row by row."""
    if j.shape[-2:] != x.shape:
        raise ValueError(f"ambient shape {j.shape} does not match {x.shape}")
    return FixedRankPoint(
        j @ x.r @ np.linalg.pinv(_gram(x.r), hermitian=True),
        herm(j) @ x.l @ np.linalg.pinv(_gram(x.l), hermitian=True))


def transport(x: FixedRankPoint, x_new: FixedRankPoint,
              t: FixedRankPoint) -> FixedRankPoint:
    """Vector transport of t from x to x_new: every factor pair is a
    tangent vector, so t itself."""
    return t


def retract(x: FixedRankPoint, d: FixedRankPoint, steps):
    """x + step * d, for a stack x with one step per row. Returns
    (x_new, None): no row leaves the factor space."""
    return x + d * steps, None


def circle_project(v: np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Tangent projection t = egrad - Re(egrad * conj(v)) * v."""
    if egrad.shape != v.shape:
        raise ValueError("shape mismatch")
    return egrad - (egrad * v.conj()).real * v


def circle_retract(v: np.ndarray, t: np.ndarray, steps):
    """Entrywise normalization of v + step * t back onto the circle, for a
    stack v with one positive step per row.

    Returns (v_new, bad): bad is None when every row stays on the circle,
    else a list with bad[i] True where an entry of row i vanishes; its
    row of v_new is meaningless.
    """
    w = v + np.asarray(steps)[:, None] * t
    mag = np.abs(w)
    bad = (mag < 1e-14).any(axis=-1)
    if not bad.any():
        return w / mag, None
    mag[bad] = 1.0
    return w / mag, bad.tolist()


class FixedRankManifold:
    """Manifold-ops adapter used by cg_minimize."""

    project = staticmethod(project_tangent)
    retract = staticmethod(retract)

    # A call, not a staticmethod binding: wrapping the module's transport,
    # as a profiler does, then sees the solver's calls.
    @staticmethod
    def transport(x: FixedRankPoint, x_new: FixedRankPoint,
                  t: FixedRankPoint) -> FixedRankPoint:
        return transport(x, x_new, t)

    @staticmethod
    def inner(x: FixedRankPoint, t1: FixedRankPoint, t2: FixedRankPoint):
        """Preconditioned metric Re tr(t1.l^H t2.l r^H r)
        + Re tr(t1.r^H t2.r l^H l), one float per row of a stack."""
        return (matrix_sums(t1.l.conj() * (t2.l @ _gram(x.r))).real
                + matrix_sums(t1.r.conj() * (t2.r @ _gram(x.l))).real
                ).tolist()

    @staticmethod
    def stacked(x: FixedRankPoint) -> bool:
        return x.l.ndim == 3

    @staticmethod
    def scale(t: FixedRankPoint, c: list[float]) -> FixedRankPoint:
        return t * c


class CircleManifold:
    """Manifold-ops adapter used by cg_minimize, on (B, m) stacks of
    circle points and tangent vectors."""

    project = staticmethod(circle_project)
    retract = staticmethod(circle_retract)

    @staticmethod
    def transport(x: np.ndarray, x_new: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
        return circle_project(x_new, t)

    @staticmethod
    def inner(x: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> list[float]:
        """Real inner product, one float per row."""
        # A stacked (1, m) @ (m, 1) product rounds as np.vdot of each row;
        # a row sum or einsum rounds differently.
        return (t1.conj()[:, None, :] @ t2[:, :, None])[:, 0, 0].real.tolist()

    @staticmethod
    def stacked(x: np.ndarray) -> bool:
        return x.ndim == 2

    @staticmethod
    def scale(t: np.ndarray, c: list[float]) -> np.ndarray:
        return np.asarray(c)[:, None] * t


_ALL = slice(None)


def _lockstep(ops, cost_grad, x, n: int, opts: CgOptions) -> list[CgResult]:
    """cg_minimize on a stack x of n problems; see cg_minimize for ops
    and cost_grad.

    Each iteration searches every live row along its direction: Armijo
    backtracking in rounds, each round retracting the rows still
    searching, each at its own step, evaluating the cost of those that
    stay on the manifold, and keeping the ones that meet the decrease
    test; the others halve their step. Rows that fail search again along
    steepest descent once. An accepted row's gradient is taken in the
    round that accepts it, so no round's cost cache outlives the round.
    The rows of problems that stopped leave the stacks; no row is copied
    while every row is live.
    """
    f, egrad = cost_grad(x, _ALL)
    f = [float(v) for v in f]
    if not all(map(math.isfinite, f)):
        raise ValueError("cost not finite at the starting point")
    g = ops.project(x, egrad())
    del egrad                             # and the start point's cost cache
    d = -g
    rows = list(range(n))                 # problem of each row of x
    traces = [[v] for v in f]
    step = [_INITIAL_STEP] * n
    out: list[CgResult | None] = [None] * n
    eps, last = opts.epsilon, opts.max_iters

    for it in range(1, last + 1):
        gg = ops.inner(x, g, g)
        # Each test below is the one-problem comparison, so a row holding a
        # nan takes the branch it takes alone.
        if any(map(_ZERO_GRAD.__ge__, gg)):
            live = []
            for k, q in enumerate(rows):
                if gg[k] <= _ZERO_GRAD:
                    out[q] = CgResult(x[k], traces[q], it - 1, "zero_grad")
                else:
                    live.append(k)
            if not live:
                break
            x, g, d = x[live], g[live], d[live]
            gg, f, step, rows = ([a[k] for k in live]
                                 for a in (gg, f, step, rows))
        b = len(rows)
        # half the slope along d: the directional derivative is twice the
        # Riemannian inner product (Wirtinger conjugate-gradient convention)
        half = ops.inner(x, g, d)
        if any(map((0.0).__le__, half)):
            flip = [k for k in range(b) if half[k] >= 0.0]
            d[flip] = (-g)[flip]
            for k in flip:
                half[k] = -gg[k]
        # The last iteration takes no gradient at its accepted points.
        stop_eps = eps if it < last else math.inf

        # f_new[k] is row k's accepted cost, steps[k] its step until then
        # and its next first step after; keep lists the accepted rows that
        # go on, grads their gradients, one stack per round, both in the
        # order of acceptance.
        f_new, steps, grads, keep = [None] * b, step[:], [], []
        cur = range(b)                    # rows still searching
        for retry in (False, True):
            for _ in range(_MAX_BACKTRACKS):
                if len(cur) == b:         # row k of y is row k's
                    y, bad = ops.retract(x, d, steps)
                    x_new, at, probs = y, cur, _ALL if len(rows) == n else rows
                else:
                    y, bad = ops.retract(x[cur], d[cur],
                                         [steps[k] for k in cur])
                    at, probs = cur, [rows[k] for k in cur]
                if bad is not None:
                    ok = [j for j, v in enumerate(bad) if not v]
                    at = [cur[j] for j in ok]
                    probs = [rows[k] for k in at]
                    if ok:
                        y = y[ok]
                if at:
                    costs, egrad = cost_grad(y, probs)
                    acc, want = [], []
                    for e, k in enumerate(at):
                        fe = costs[e]
                        if not fe <= f[k] + (_SUFFICIENT_DECREASE * steps[k]
                                             * (2.0 * half[k])):
                            continue
                        acc.append(e)
                        f_new[k] = fe
                        q = rows[k]
                        traces[q].append(fe)
                        if f[k] - fe > stop_eps:
                            want.append(e)
                            keep.append(k)
                            steps[k] = min(_INITIAL_STEP, 2.0 * steps[k])
                        else:
                            out[q] = CgResult(
                                y[e], traces[q], it,
                                "converged" if f[k] - fe <= eps
                                else "max_iters")
                    if want:
                        grads.append(egrad() if len(want) == len(at)
                                     else egrad(want))
                    del egrad
                    if acc:
                        if x_new is not y:
                            x_new[[at[e] for e in acc]] = y[acc]
                        if len(acc) == len(cur):
                            cur = ()
                            break
                        cur = [k for k in cur if f_new[k] is None]
                for k in cur:
                    steps[k] *= _CONTRACTION
            if retry or not cur:
                break
            # A failed search retries along steepest descent once.
            dg = d + g
            nz = ops.inner(x, dg, dg)
            cur = [k for k in cur if nz[k] > 0]
            if not cur:
                break
            d[cur] = (-g)[cur]
            for k in cur:
                half[k] = -gg[k]
                steps[k] = step[k]
        if None in f_new:
            for k, fe in enumerate(f_new):
                if fe is None:
                    out[rows[k]] = CgResult(x[k], traces[rows[k]], it,
                                            "stalled")
        if not keep:
            break

        # The rows of one round are accepted in ascending order.
        if len(grads) == 1:
            egrad_new = grads[0]
        else:
            at = np.argsort(np.argsort(keep))
            keep.sort()
            egrad_new = np.empty((len(keep),) + grads[0].shape[1:],
                                 grads[0].dtype)
            for part in grads:
                egrad_new[at[:len(part)]] = part
                at = at[len(part):]
        del grads
        if len(keep) < b:
            x, x_new, g, d = x[keep], x_new[keep], g[keep], d[keep]
            gg, f_new, steps, rows = ([a[k] for k in keep]
                                      for a in (gg, f_new, steps, rows))
        g_new = ops.project(x_new, egrad_new)
        eta = ops.inner(x_new, g_new, g_new - ops.transport(x, x_new, g))
        d = ops.scale(ops.transport(x, x_new, d),
                      [max(0.0, v / q) for v, q in zip(eta, gg)]) - g_new
        x, f, step, g = x_new, f_new, steps, g_new
    return out


def cg_minimize(manifold, cost_grad, x0, opts: CgOptions):
    """Riemannian conjugate gradient with Polak-Ribiere+ directions.

    Args:
        manifold: ops object on stacks of points and tangent vectors:
            project(x, egrad), retract(x, d, steps) -> (x_new, bad) with
            one step per row, transport(x, x_new, t) of t from x to
            x_new, inner(x, t1, t2) -> one float per row, scale(t,
            factors) with one factor per row, and stacked(x), true when x
            is a stack. Tangent vectors hold no base point; each op that
            needs one takes it.
        cost_grad: cost_grad(x, rows) takes a stack x whose row i belongs
            to problem rows[i] (rows is slice(None) when x holds every
            problem in order) and returns a list of one float cost per row
            and egrad(keep=None), the conjugate Euclidean gradients of rows
            keep of x (of every row for None). A single point x0 runs as
            the stack x0[None], so its cost_grad sees only rows =
            slice(None) and egrad(). A point that meets the decrease test
            or the iteration cap is returned without its gradient.
        x0: starting point on the manifold, or a stack of the starting
            points of n problems.
        opts: termination settings.

    Returns:
        CgResult, or a list of one per problem of a stack; trace[0] is the
        cost at x0, trace is non-increasing. Stops when the per-iteration
        decrease drops to opts.epsilon or below, the gradient vanishes, or
        max_iters is reached. A failed line search retries along steepest
        descent once, then stalls. The problems of a stack run in
        lock-step, each with its own steps and stop test, and each ends
        where it ends alone.
    """
    if manifold.stacked(x0):
        return _lockstep(manifold, cost_grad, x0, len(x0), opts)
    return _lockstep(manifold, cost_grad, x0[None], 1, opts)[0]


def pick_rows(rows, keep):
    """The entries `keep` of the row selection `rows` (all for None); a
    slice rows selects every row."""
    if keep is None:
        return rows
    return keep if isinstance(rows, slice) else [rows[k] for k in keep]


def random_fixed_rank(n: int, m: int, r: int, rng: np.random.Generator):
    """Random rank-r point: product of two standard complex Gaussian
    factors, scaled by 1 / sqrt(2 n)."""
    l = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rf = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    return FixedRankPoint(l, rf / np.sqrt(2.0 * n))
