"""Riemannian conjugate-gradient minimization over two manifolds: complex
matrices of fixed rank r (factored as u @ diag(s) @ v^H) and the complex
circle (vectors with unit-modulus entries).

Problem contract: `cg_minimize` takes one callback, cost_grad(x) ->
(f, egrad). f is the real cost at x; egrad is a zero-argument callable
returning the gradient at x, so it can reuse the forward pass of the cost.
The solver evaluates cost_grad once per trial point and calls egrad only
at x0 and at each accepted point the search continues from; a point that
meets the decrease test or the iteration cap is returned without its
gradient.

Gradient convention: egrad returns the conjugate Wirtinger gradient
J = df/d(conj(X)), so the directional derivative of the real cost along a
tangent t is 2 * Re<J, t>. The Riemannian gradient is the tangent
projection of J and line-search slopes carry the factor 2.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import truncated_svd


class DegenerateStep(Exception):
    """Retraction left the manifold (rank drop / zero entry); halve the step."""


@dataclass
class FixedRankPoint:
    """Rank-r matrix in factored form u @ diag(s) @ v^H.

    u (n, r) and v (m, r) have orthonormal columns; s holds r positive,
    non-increasing singular values.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    _dense: np.ndarray | None = field(default=None, repr=False)

    @property
    def r(self) -> int:
        return len(self.s)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = (self.u * self.s) @ self.v.conj().T
        return self._dense

    def validate(self, tol: float = 1e-10) -> None:
        r = self.r
        if not np.all(self.s > 0):
            raise ValueError("singular values must be positive")
        if np.any(np.diff(self.s) > tol):
            raise ValueError("singular values must be non-increasing")
        for q, name in ((self.u, "u"), (self.v, "v")):
            err = np.abs(q.conj().T @ q - np.eye(r)).max()
            if err > tol:
                raise ValueError(f"{name} columns not orthonormal ({err:.2e})")


@dataclass
class TangentVector:
    """Tangent vector at a FixedRankPoint in factored form.

    Embeds as u @ m_core @ v^H + u_p @ v^H + u @ v_p^H with u_p^H u = 0
    and v_p^H v = 0, so factored inner products need no cross terms.
    Arithmetic returns new vectors; the arrays are not mutated in place,
    which keeps the cached QR factors valid.
    """

    m_core: np.ndarray         # (r, r)
    u_p: np.ndarray            # (n, r)
    v_p: np.ndarray            # (m, r)
    anchor: FixedRankPoint
    _qr: tuple | None = field(default=None, repr=False)

    @property
    def qr(self) -> tuple:
        """(q_u, r_u, q_v, r_v): reduced QR factors of u_p and v_p,
        computed on first use and shared by every retraction along self."""
        if self._qr is None:
            self._qr = (*np.linalg.qr(self.u_p), *np.linalg.qr(self.v_p))
        return self._qr

    def embed(self) -> np.ndarray:
        x = self.anchor
        return (x.u @ self.m_core + self.u_p) @ x.v.conj().T + x.u @ self.v_p.conj().T

    def __add__(self, other: "TangentVector") -> "TangentVector":
        if other.anchor is not self.anchor:
            raise ValueError("cannot add tangent vectors at different points")
        return TangentVector(self.m_core + other.m_core, self.u_p + other.u_p,
                             self.v_p + other.v_p, self.anchor)

    def __mul__(self, c: float) -> "TangentVector":
        return TangentVector(c * self.m_core, c * self.u_p, c * self.v_p,
                             self.anchor)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        if other.anchor is not self.anchor:
            raise ValueError("cannot subtract tangent vectors at different "
                             "points")
        return TangentVector(self.m_core - other.m_core, self.u_p - other.u_p,
                             self.v_p - other.v_p, self.anchor)

    __rmul__ = __mul__

    def __neg__(self) -> "TangentVector":
        return self * -1.0


# Armijo backtracking line-search constants.
_CONTRACTION = 0.5
_SUFFICIENT_DECREASE = 1e-4
_INITIAL_STEP = 1.0
_MAX_BACKTRACKS = 50


@dataclass(frozen=True)
class CgOptions:
    """Conjugate-gradient termination settings."""

    epsilon: float = 1e-3
    max_iters: int = 200

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class CgResult:
    """Final iterate, objective trace (cost at x0 first), and diagnostics."""

    x: object
    trace: list[float]
    stalled: bool
    iters: int


def project_tangent(x: FixedRankPoint, j: np.ndarray) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space:
    m_core = u^H j v, u_p = (I - u u^H) j v, v_p = (I - v v^H) j^H u."""
    if j.shape != x.shape:
        raise ValueError(f"ambient shape {j.shape} does not match {x.shape}")
    jv = j @ x.v
    jhu = j.conj().T @ x.u
    m_core = x.u.conj().T @ jv
    u_p = jv - x.u @ m_core
    v_p = jhu - x.v @ m_core.conj().T
    return TangentVector(m_core, u_p, v_p, x)


def transport(d_prev: TangentVector, x_new: FixedRankPoint) -> TangentVector:
    """Vector transport by projection onto the tangent space at x_new."""
    if x_new is d_prev.anchor:
        return d_prev
    return project_tangent(x_new, d_prev.embed())


def retract(x: FixedRankPoint, d: TangentVector, step: float) -> FixedRankPoint:
    """Best rank-r approximation of x.dense + step * d.embed().

    Computed from the factors: QR of u_p and v_p extends the bases, an SVD
    of the 2r x 2r core supplies the new singular values. The QR factors
    are d's cached ones, scaled by step: Householder QR commutes exactly
    with scaling by a power of two, so for such steps (every step
    cg_minimize tries) the result is bit-identical to factoring
    step * u_p and step * v_p afresh.

    Raises:
        DegenerateStep: the stepped matrix has numerical rank below r
            (smallest singular value <= 1e-12 * largest).
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    if step == 0.0:
        return x
    r = x.r
    q_u, r_u, q_v, r_v = d.qr
    core = np.zeros((2 * r, 2 * r), dtype=complex)
    core[:r, :r] = np.diag(x.s) + step * d.m_core
    core[:r, r:] = (step * r_v).conj().T
    core[r:, :r] = step * r_u
    w, sig, zh = np.linalg.svd(core)
    if sig[r - 1] <= 1e-12 * sig[0]:
        raise DegenerateStep(f"rank drop: sigma_r={sig[r - 1]:.3e}")
    u_new = np.hstack([x.u, q_u]) @ w[:, :r]
    v_new = np.hstack([x.v, q_v]) @ zh[:r].conj().T
    return FixedRankPoint(u_new, sig[:r], v_new)


def circle_project(v: np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Tangent projection t = egrad - Re(egrad * conj(v)) * v."""
    if egrad.shape != v.shape:
        raise ValueError("shape mismatch")
    return egrad - (egrad * v.conj()).real * v


def circle_retract(v: np.ndarray, t: np.ndarray, step: float) -> np.ndarray:
    """Entrywise normalization of v + step * t back onto the circle.

    Raises:
        DegenerateStep: an entry of v + step * t vanishes.
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    if step == 0.0:
        return v
    w = v + step * t
    mag = np.abs(w)
    if (mag < 1e-14).any():
        raise DegenerateStep("entry collapsed to zero")
    return w / mag


class FixedRankManifold:
    """Manifold-ops adapter used by cg_minimize."""

    project = staticmethod(project_tangent)
    retract = staticmethod(retract)

    @staticmethod
    def transport(x_new: FixedRankPoint, t: TangentVector) -> TangentVector:
        return transport(t, x_new)

    @staticmethod
    def inner(x: FixedRankPoint, t1: TangentVector, t2: TangentVector) -> float:
        # u_p/v_p blocks are orthogonal to the u/v blocks, so the embedded
        # inner product splits over the factors.
        return float(np.sum(t1.m_core.conj() * t2.m_core).real
                     + np.sum(t1.u_p.conj() * t2.u_p).real
                     + np.sum(t1.v_p.conj() * t2.v_p).real)


class CircleManifold:
    """Manifold-ops adapter used by cg_minimize."""

    project = staticmethod(circle_project)
    retract = staticmethod(circle_retract)

    @staticmethod
    def transport(x_new: np.ndarray, t: np.ndarray) -> np.ndarray:
        return circle_project(x_new, t)

    @staticmethod
    def inner(x: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> float:
        return float(np.vdot(t1, t2).real)


def _line_search(manifold, cost_grad, x, f0, d, slope, step0):
    """Armijo backtracking; returns (x_new, f_new, egrad_new, step) or None."""
    step = step0
    for _ in range(_MAX_BACKTRACKS):
        try:
            x_new = manifold.retract(x, d, step)
        except DegenerateStep:
            step *= _CONTRACTION
            continue
        f_new, egrad = cost_grad(x_new)
        if f_new <= f0 + _SUFFICIENT_DECREASE * step * slope:
            return x_new, f_new, egrad, step
        step *= _CONTRACTION
    return None


def cg_minimize(manifold, cost_grad, x0, opts: CgOptions) -> CgResult:
    """Riemannian conjugate gradient with Polak-Ribiere+ directions.

    Args:
        manifold: ops object with project/retract/transport/inner.
        cost_grad: point -> (real objective value, egrad), where egrad()
            returns the conjugate Euclidean gradient (ambient array) at
            that point. Called once per trial point of the line search;
            egrad is called only at x0 and at each accepted point the
            search continues from; a point that meets the decrease test
            or the iteration cap is returned without its gradient.
        x0: starting point on the manifold.
        opts: termination settings.

    Returns:
        CgResult; trace[0] is the cost at x0, trace is non-increasing. Stops
        when the per-iteration decrease drops to opts.epsilon or below, the
        gradient vanishes, or max_iters is reached. A failed line search
        retries along steepest descent once, then sets stalled.
    """
    x = x0
    f, egrad = cost_grad(x)
    f = float(f)
    if not np.isfinite(f):
        raise ValueError("cost not finite at the starting point")
    g = manifold.project(x, egrad())
    d = -g
    trace = [f]
    step_init = _INITIAL_STEP
    stalled = False
    iters = 0

    for iters in range(1, opts.max_iters + 1):
        gnorm2 = manifold.inner(x, g, g)
        if gnorm2 <= 1e-24:
            iters -= 1
            break
        # True directional derivative is twice the Riemannian inner product
        # (Wirtinger conjugate-gradient convention).
        slope = 2.0 * manifold.inner(x, g, d)
        if slope >= 0.0:
            d = -g
            slope = -2.0 * gnorm2
        hit = _line_search(manifold, cost_grad, x, f, d, slope, step_init)
        if hit is None and manifold.inner(x, d + g, d + g) > 0:
            d = -g
            hit = _line_search(manifold, cost_grad, x, f, d, -2.0 * gnorm2,
                               step_init)
        if hit is None:
            stalled = True
            break
        x_new, f_new, egrad, step = hit
        trace.append(f_new)
        if f - f_new <= opts.epsilon or iters == opts.max_iters:
            x = x_new
            break
        g_new = manifold.project(x_new, egrad())
        g_old_t = manifold.transport(x_new, g)
        eta = max(0.0, manifold.inner(x_new, g_new, g_new - g_old_t)
                  / gnorm2)
        d = eta * manifold.transport(x_new, d) - g_new
        x, f, g = x_new, f_new, g_new
        step_init = min(_INITIAL_STEP, 2.0 * step)

    return CgResult(x, trace, stalled, iters)


def random_fixed_rank(n: int, m: int, r: int,
                      rng: np.random.Generator) -> FixedRankPoint:
    """Random rank-r point: product of two Gaussian factors, re-factored by
    a truncated SVD."""
    a = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    b = (rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m)))
    u, s, v = truncated_svd(a @ b / np.sqrt(2.0 * n), r)
    return FixedRankPoint(u, s, v)
