"""Sparse mm-wave channel synthesis, angular dictionaries, and the uplink
training observation model for an IRS-assisted BS--IRS--UE link.

The BS and UE carry half-wavelength ULAs; the IRS is an m_y-by-m_z planar
array. The BS-IRS channel g is n_bs x m with p paths, the IRS-UE channel h
is m x n_ue with q paths. Reflection vectors have unit-modulus entries.

A channel is held as factors (ChannelRealization), and the effective
channel h^H diag(v) g^H is computed on them; the (n_bs*n_ue, m) cascaded
channel is built only on request. Synthesis, the cascaded channel and the
effective channel also take stacks, arrays with a leading trial axis;
each trial of a stacked call is bit-identical to the unstacked call on
that trial alone.
"""

from dataclasses import dataclass, replace

import numpy as np

from .numerics import herm, khatri_rao, kron, random_unit_modulus


@dataclass(frozen=True)
class SystemGeometry:
    """Array/dictionary dimensions and link distances.

    g_bs/g_ue/g_y/g_z are angular-grid resolutions; they must be at least
    the matching array size whenever dictionaries are built.
    """

    n_bs: int = 16
    n_ue: int = 8
    m_y: int = 4
    m_z: int = 4
    g_bs: int = 16
    g_ue: int = 8
    g_y: int = 4
    g_z: int = 4
    d_bi: float = 150.0
    d_iu: float = 10.0

    @property
    def m(self) -> int:
        return self.m_y * self.m_z

    @property
    def g_i(self) -> int:
        return self.g_y * self.g_z

    @property
    def max_paths(self) -> int:
        return min(self.n_bs, self.n_ue, self.m)

    def __post_init__(self):
        for name in ("n_bs", "n_ue", "m_y", "m_z", "g_bs", "g_ue", "g_y", "g_z"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (self.d_bi > 0 and self.d_iu > 0):
            raise ValueError("distances must be positive")

    def unitary(self) -> "SystemGeometry":
        """Copy with grid resolutions equal to the array sizes."""
        return replace(self, g_bs=self.n_bs, g_ue=self.n_ue, g_y=self.m_y,
                       g_z=self.m_z)


@dataclass(frozen=True)
class PathSet:
    """Path gains and spatial frequencies for both hops.

    The frequencies are trig functions of angles uniform on [0, 2pi): BS
    AoA theta_r, IRS AoD (theta_t, phi_t) and AoA (psi_r, phi_r) as
    (azimuth, elevation), and UE AoD psi_t. Drawn with on_grid=True, they
    are snapped to the dictionary grid.
    """

    alpha: np.ndarray          # (p,) BS-IRS gains
    beta: np.ndarray           # (q,) IRS-UE gains
    u_bs: np.ndarray           # (p,) cos(theta_r)
    u_irs_aod: np.ndarray      # (p, 2) [sin(theta_t)sin(phi_t), cos(phi_t)]
    u_irs_aoa: np.ndarray      # (q, 2) [sin(psi_r)sin(phi_r), cos(phi_r)]
    u_ue: np.ndarray           # (q,) cos(psi_t)

    @property
    def p(self) -> int:
        return self.alpha.shape[-1]

    @property
    def q(self) -> int:
        return self.beta.shape[-1]


@dataclass
class ChannelRealization:
    """A channel as factors whose cascaded channel is khatri_rao(h.T, g) @ w,
    or a stack of them along a leading trial axis.

    g is (n_bs, K) and h is (K, n_ue). w is (K, m), or None for K = m, when
    g and h are the BS-IRS and IRS-UE channels themselves. The cascaded
    channel is never stored; each read of h_c builds it anew.
    """

    g: np.ndarray              # (n_bs, K) or (trials, n_bs, K)
    h: np.ndarray              # (K, n_ue) or (trials, K, n_ue)
    w: np.ndarray | None = None    # (K, m) or (trials, K, m)

    @property
    def h_c(self) -> np.ndarray:
        """Cascaded channel H.T (column-wise) Kronecker G, (n_bs*n_ue, m)."""
        return cascaded(self)

    def __getitem__(self, rows) -> "ChannelRealization":
        """Trials `rows` of a stack (None adds a trial axis)."""
        return ChannelRealization(*(None if a is None else a[rows]
                                    for a in (self.g, self.h, self.w)))


@dataclass(frozen=True)
class Dictionaries:
    """Angular-domain steering dictionaries with unit-norm columns."""

    a_bs: np.ndarray           # (n_bs, g_bs)
    a_ue: np.ndarray           # (n_ue, g_ue)
    a_y: np.ndarray            # (m_y, g_y)
    a_z: np.ndarray            # (m_z, g_z)
    a_i: np.ndarray            # (m_y*m_z, g_y*g_z) = kron(a_y, a_z)

    @property
    def unitary(self) -> bool:
        return (self.a_bs.shape[0] == self.a_bs.shape[1]
                and self.a_ue.shape[0] == self.a_ue.shape[1]
                and self.a_i.shape[0] == self.a_i.shape[1])


@dataclass(frozen=True)
class PilotBlock:
    """Uplink training block.

    Column t of s/v/r holds the pilot vector, reflection vector, and
    received vector of slot t. All reflection entries are unit modulus and
    every pilot has unit power, ||s_t||^2 = 1. The noise power sigma2 per
    entry of r lies in [0, inf).
    """

    s: np.ndarray              # (n_ue, t)
    v: np.ndarray              # (m, t)
    r: np.ndarray              # (n_bs, t)
    sigma2: float

    def __post_init__(self):
        if not 0.0 <= self.sigma2 < np.inf:
            raise ValueError("sigma2 must be in [0, inf)")

    @property
    def t(self) -> int:
        return self.s.shape[1]


def steering_ula(u: float | np.ndarray, n: int) -> np.ndarray:
    """Unit-norm ULA response for spatial frequency u: entries
    exp(j*pi*k*u)/sqrt(n), k = 0..n-1. An array of frequencies gives one
    column per frequency, shape (n, len(u)), and a stack of them (..., k)
    gives (..., n, k)."""
    phase = np.multiply.outer(np.arange(n), 1j * np.pi * np.asarray(u))
    a = np.exp(phase) / np.sqrt(n)
    return np.moveaxis(a, 0, -2) if a.ndim > 2 else a


def _irs_freqs(ang: np.ndarray) -> np.ndarray:
    """IRS frequency pairs (sin(az)sin(el), cos(el)) for ang = (az, el)."""
    return np.array([np.sin(ang[0]) * np.sin(ang[1]), np.cos(ang[1])])


def _steering_irs_uv(u: np.ndarray, m_y: int, m_z: int) -> np.ndarray:
    """IRS responses kron(f(u_y, m_y), f(u_z, m_z)), one column per
    frequency pair (u_y, u_z) in the rows of u (..., k, 2); shape
    (..., m_y*m_z, k)."""
    return khatri_rao(steering_ula(u[..., 0], m_y),
                      steering_ula(u[..., 1], m_z))


def steering_irs(theta: float, phi: float, m_y: int, m_z: int) -> np.ndarray:
    """Unit-norm planar-array response kron(f(sin(theta)sin(phi), m_y),
    f(cos(phi), m_z))."""
    return _steering_irs_uv(_irs_freqs(np.array([[theta], [phi]])).T,
                            m_y, m_z)[:, 0]


def pathloss(d: float) -> float:
    """Distance-dependent average path gain 10^(-6.14 - 2*log10(d))."""
    return 10.0 ** (-6.14 - 2.0 * np.log10(d))


def _grid(g: int) -> np.ndarray:
    """Uniform spatial-frequency grid over [-1, 1) with spacing 2/g."""
    return -1.0 + 2.0 * np.arange(g) / g


def _snap(u: np.ndarray,
          g: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Snap frequencies to the g-point grid; returns (values, indices),
    values = _grid(g)[indices]. An array g holds one grid per column of u."""
    idx = np.round((np.asarray(u) + 1.0) * g / 2.0).astype(int) % g
    return -1.0 + 2.0 * idx / g, idx


def _separated(u: np.ndarray, sizes: np.ndarray, grids: np.ndarray,
               on_grid: bool) -> bool:
    """Whether every two of the frequency rows u (k, axes) are apart on at
    least one axis: by 1e-6 off grid, and on grid by a circular distance of
    their snapped indices of one orthogonality period, ceil(grid / size)."""
    if on_grid:
        _, idx = _snap(u, grids)
        d = np.abs(idx[:, None] - idx[None, :]) % grids
        apart = np.minimum(d, grids - d) >= -(-grids // sizes)
    else:
        apart = np.abs(u[:, None] - u[None, :]) >= 1e-6
    # A row is never apart from itself, so k*(k-1) ordered pairs must be.
    return np.count_nonzero(apart.any(axis=2)) == len(u) * (len(u) - 1)


def _gains(k: int, tau: float, rng: np.random.Generator) -> np.ndarray:
    """Path 0 is LoS with variance tau, the rest NLoS with 10^-0.5 * tau."""
    var = np.full(k, 10.0 ** -0.5 * tau)
    var[0] = tau
    return np.sqrt(var / 2.0) * (rng.standard_normal(k)
                                 + 1j * rng.standard_normal(k))


_MAX_TRIES = 2000


def check_paths(geom: SystemGeometry, k: int, on_grid: bool) -> None:
    """Raise ValueError unless 1 <= k <= geom.max_paths and, on grid, the
    BS and UE grids each hold k paths one orthogonality period,
    ceil(grid / size), apart."""
    if not 1 <= k <= geom.max_paths:
        raise ValueError(f"k={k} outside [1, min(n_bs, n_ue, m)]")
    for size, grid in ((geom.n_bs, geom.g_bs), (geom.n_ue, geom.g_ue)):
        if on_grid and k > grid // -(-grid // size):
            raise ValueError("could not draw separated path frequencies: a "
                             f"{grid}-point grid for {size} antennas holds "
                             f"fewer than {k} paths")


def sample_paths(geom: SystemGeometry, k: int, rng: np.random.Generator,
                 on_grid: bool = False) -> PathSet:
    """Draw k paths per hop with angles uniform on [0, 2pi).

    Spatial frequencies of distinct paths are kept separated so the
    synthesized channels have exact rank k: off grid any two frequencies
    of the same kind must differ by at least 1e-6; on grid the draws are
    redrawn until the snapped indices of every frequency are at least one
    orthogonality period (grid size / array size) apart, which keeps the
    corresponding atoms resolvable. IRS frequency pairs only need the
    separation on one of the two axes.

    Raises:
        ValueError: k fails check_paths (outside [1, geom.max_paths], or
            more on-grid paths than the BS or UE grid holds), before any
            draw; or separation could not be met within 2000 redraws.
    """
    check_paths(geom, k, on_grid)

    def draw(freqs, sizes, grids) -> np.ndarray:
        """Frequency rows (k, axes) of one kind."""
        sizes, grids = np.array(sizes), np.array(grids)
        for _ in range(_MAX_TRIES):
            u = freqs(rng.uniform(0.0, 2.0 * np.pi, (len(sizes), k))).T
            if _separated(u, sizes, grids, on_grid):
                return _snap(u, grids)[0] if on_grid else u
        raise ValueError("could not draw separated path frequencies")

    irs = (_irs_freqs, (geom.m_y, geom.m_z), (geom.g_y, geom.g_z))
    u_bs = draw(np.cos, (geom.n_bs,), (geom.g_bs,))[:, 0]
    u_irs_aod = draw(*irs)
    u_irs_aoa = draw(*irs)
    u_ue = draw(np.cos, (geom.n_ue,), (geom.g_ue,))[:, 0]

    alpha = _gains(k, pathloss(geom.d_bi), rng)
    beta = _gains(k, pathloss(geom.d_iu), rng)
    return PathSet(alpha, beta, u_bs, u_irs_aod, u_irs_aoa, u_ue)


def _sum_of_paths(gains: np.ndarray, a_rx: np.ndarray,
                  a_tx: np.ndarray) -> np.ndarray:
    """sqrt(rows*cols/k) * sum_k gains[k] a_rx[:, k] a_tx[:, k]^H, adding
    the paths one at a time in path order (a matmul or a pairwise sum would
    reorder the additions and change the rounding). Stacked gains (..., k)
    and responses (..., rows, k), (..., cols, k) give (..., rows, cols);
    besides the result, only one path's term is held at a time."""
    rx, tx = a_rx.swapaxes(-1, -2), a_tx.swapaxes(-1, -2).conj()

    def term(i, buf=None):
        buf = np.multiply(rx[..., i, :, None], tx[..., i, None, :], out=buf)
        return np.multiply(gains[..., i, None, None], buf, out=buf)

    out, buf = term(0), None
    for i in range(1, gains.shape[-1]):
        buf = term(i, buf)
        out += buf
    out *= np.sqrt(rx.shape[-1] * tx.shape[-1] / gains.shape[-1])
    return out


def synth_channels(geom: SystemGeometry, paths: PathSet) -> ChannelRealization:
    """Sum-of-paths channels

        g = sqrt(n_bs*m/p) * sum_p alpha_p a_bs(theta_r) a_irs(aod)^H
        h = sqrt(n_ue*m/q) * sum_q beta_q a_irs(aoa) a_ue(psi_t)^H

    Paths stacked by numerics.stack give channels stacked the same way.
    """
    g = _sum_of_paths(paths.alpha, steering_ula(paths.u_bs, geom.n_bs),
                      _steering_irs_uv(paths.u_irs_aod, geom.m_y, geom.m_z))
    h = _sum_of_paths(paths.beta,
                      _steering_irs_uv(paths.u_irs_aoa, geom.m_y, geom.m_z),
                      steering_ula(paths.u_ue, geom.n_ue))
    return ChannelRealization(g, h)


def build_dictionaries(geom: SystemGeometry) -> Dictionaries:
    """Steering dictionaries on the uniform frequency grids; unitary (up to
    scaling exact) whenever the resolution equals the array size."""
    banks = []
    for res, size, name in ((geom.g_bs, geom.n_bs, "g_bs"),
                            (geom.g_ue, geom.n_ue, "g_ue"),
                            (geom.g_y, geom.m_y, "g_y"),
                            (geom.g_z, geom.m_z, "g_z")):
        if res < size:
            raise ValueError(f"{name}={res} below array size {size}")
        banks.append(steering_ula(_grid(res), size))
    return Dictionaries(*banks, kron(banks[2], banks[3]))


def angular_coefficients(ch: ChannelRealization,
                         dicts: Dictionaries) -> tuple[np.ndarray, np.ndarray]:
    """Angular coefficient matrices (a_bs^H g a_i, a_i^H h a_ue).

    Requires unitary dictionaries (resolution equal to array size) so the
    transform is exactly invertible.
    """
    if not dicts.unitary:
        raise ValueError("angular_coefficients needs unitary dictionaries")
    lambda_g = dicts.a_bs.conj().T @ ch.g @ dicts.a_i
    lambda_h = dicts.a_i.conj().T @ ch.h @ dicts.a_ue
    return lambda_g, lambda_h


def cascaded(ch: ChannelRealization) -> np.ndarray:
    """Cascaded channel khatri_rao(h.T, g) @ w of shape (n_bs*n_ue, m),
    with the stack axis of a stacked realization in front."""
    # A C-ordered h.T gives a C-ordered product, which khatri_rao then
    # reshapes without copying; every trial's h_c is C-ordered whatever
    # the stack size, so its products run the same BLAS kernels.
    h_c = khatri_rao(np.ascontiguousarray(ch.h.swapaxes(-1, -2)), ch.g)
    return h_c if ch.w is None else h_c @ ch.w


def effective_channel(ch: ChannelRealization, v: np.ndarray) -> np.ndarray:
    """End-to-end (n_ue, n_bs) channel h^H diag(v) g^H for reflection
    vector v; a stacked ch and v (..., m) give (..., n_ue, n_bs).

    Computed on the factors as herm(h) @ (c[:, None] * herm(g)), where
    c = v, or conj(w) @ v when ch carries w; the cascaded channel is never
    formed.
    """
    k = ch.g.shape[-1]
    m = k if ch.w is None else ch.w.shape[-1]
    if ch.h.shape[-2] != k or (ch.w is not None and ch.w.shape[-2] != k):
        raise ValueError("channel factors disagree on K")
    if v.shape[-1] != m:
        raise ValueError("reflection vector length mismatch")
    c = v if ch.w is None else (ch.w.conj() @ v[..., None])[..., 0]
    g_h = herm(ch.g)
    return herm(ch.h) @ np.multiply(c[..., :, None], g_h, out=g_h)


def make_pilots(geom: SystemGeometry, t: int, rng: np.random.Generator,
                hold_v: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random training pilots: unit-modulus entries scaled so ||s_t||^2=1,
    and unit-modulus reflection vectors. The first hold_v slots share the
    reflection vector of slot 0 (the fixed-reflection training protocol).
    """
    s = random_unit_modulus((t, geom.n_ue), rng).T * np.sqrt(1.0 / geom.n_ue)
    v = random_unit_modulus((t, geom.m), rng).T
    v[:, 1:hold_v] = v[:, :1]
    return s, v


def simulate_uplink(ch: ChannelRealization, s: np.ndarray, v: np.ndarray,
                    sigma2: float, rng: np.random.Generator) -> PilotBlock:
    """Received training block r_t = g diag(v_t) h s_t + z_t with
    z_t ~ CN(0, sigma2 I); sigma2=0 gives the exact noiseless model."""
    if s.shape[1] != v.shape[1]:
        raise ValueError("pilot and reflection slot counts differ")
    r = ch.g @ (v * (ch.h @ s))
    if sigma2 > 0:
        n_bs, t = r.shape
        r = r + np.sqrt(sigma2 / 2.0) * (rng.standard_normal((n_bs, t))
                                         + 1j * rng.standard_normal((n_bs, t)))
    return PilotBlock(s, v, r, sigma2)
