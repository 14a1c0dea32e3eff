"""Sparse mm-wave channel synthesis, angular dictionaries, and the uplink
training observation model for an IRS-assisted BS--IRS--UE link.

The BS and UE carry half-wavelength ULAs; the IRS is an m_y-by-m_z planar
array. The BS-IRS channel g is n_bs x m with p paths, the IRS-UE channel h
is m x n_ue with q paths. Reflection vectors have unit-modulus entries.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import khatri_rao, kron, mat, random_unit_modulus


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

    def __post_init__(self):
        for name in ("n_bs", "n_ue", "m_y", "m_z", "g_bs", "g_ue", "g_y", "g_z"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_bi <= 0 or self.d_iu <= 0:
            raise ValueError("distances must be positive")

    def unitary(self) -> "SystemGeometry":
        """Copy with grid resolutions equal to the array sizes."""
        return SystemGeometry(self.n_bs, self.n_ue, self.m_y, self.m_z,
                              self.n_bs, self.n_ue, self.m_y, self.m_z,
                              self.d_bi, self.d_iu)


@dataclass(frozen=True)
class PathSet:
    """Path gains, angles, and spatial frequencies for both hops.

    Angles are the raw draws in (0, 2pi]; the u_* arrays hold the spatial
    frequencies actually used for synthesis (snapped to the dictionary grid
    when drawn with on_grid=True, otherwise the exact trig values).
    """

    alpha: np.ndarray          # (p,) BS-IRS gains
    theta_r: np.ndarray        # (p,) BS AoA
    theta_t: np.ndarray        # (p,) IRS AoD azimuth
    phi_t: np.ndarray          # (p,) IRS AoD elevation
    beta: np.ndarray           # (q,) IRS-UE gains
    psi_r: np.ndarray          # (q,) IRS AoA azimuth
    phi_r: np.ndarray          # (q,) IRS AoA elevation
    psi_t: np.ndarray          # (q,) UE AoD
    u_bs: np.ndarray           # (p,) cos(theta_r)
    u_irs_aod: np.ndarray      # (p, 2) [sin(theta_t)sin(phi_t), cos(phi_t)]
    u_irs_aoa: np.ndarray      # (q, 2) [sin(psi_r)sin(phi_r), cos(phi_r)]
    u_ue: np.ndarray           # (q,) cos(psi_t)

    @property
    def p(self) -> int:
        return len(self.alpha)

    @property
    def q(self) -> int:
        return len(self.beta)


@dataclass
class ChannelRealization:
    """Dense channel pair plus the generating paths."""

    g: np.ndarray              # (n_bs, m)
    h: np.ndarray              # (m, n_ue)
    paths: PathSet
    _h_c: np.ndarray | None = field(default=None, repr=False)

    @property
    def h_c(self) -> np.ndarray:
        """Cascaded channel H.T (column-wise) Kronecker G, (n_bs*n_ue, m)."""
        if self._h_c is None:
            self._h_c = cascaded(self)
        return self._h_c


@dataclass(frozen=True)
class Dictionaries:
    """Angular-domain steering dictionaries with unit-norm columns."""

    a_bs: np.ndarray           # (n_bs, g_bs)
    a_ue: np.ndarray           # (n_ue, g_ue)
    a_y: np.ndarray            # (m_y, g_y)
    a_z: np.ndarray            # (m_z, g_z)
    a_i: np.ndarray            # (m_y*m_z, g_y*g_z) = kron(a_y, a_z)
    grid_bs: np.ndarray
    grid_ue: np.ndarray
    grid_y: np.ndarray
    grid_z: np.ndarray

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
    every pilot has unit power, ||s_t||^2 = 1.
    """

    s: np.ndarray              # (n_ue, t)
    v: np.ndarray              # (m, t)
    r: np.ndarray              # (n_bs, t)
    sigma2: float

    @property
    def t(self) -> int:
        return self.s.shape[1]


def steering_ula(u: float | np.ndarray, n: int) -> np.ndarray:
    """Unit-norm ULA response for spatial frequency u: entries
    exp(j*pi*k*u)/sqrt(n), k = 0..n-1. An array of frequencies gives one
    column per frequency, shape (n, len(u))."""
    phase = np.multiply.outer(np.arange(n), 1j * np.pi * np.asarray(u))
    return np.exp(phase) / np.sqrt(n)


def _irs_freqs(ang: np.ndarray) -> np.ndarray:
    """IRS frequency pairs (sin(az)sin(el), cos(el)) for ang = (az, el)."""
    return np.array([np.sin(ang[0]) * np.sin(ang[1]), np.cos(ang[1])])


def _steering_irs_uv(u: np.ndarray, m_y: int, m_z: int) -> np.ndarray:
    """IRS response kron(f(u_y, m_y), f(u_z, m_z)) for frequency pair
    u = (u_y, u_z), or one column per row of u (k, 2)."""
    a_y = steering_ula(u[..., 0], m_y)
    a_z = steering_ula(u[..., 1], m_z)
    return (a_y[:, None] * a_z[None, :]).reshape((m_y * m_z,) + a_y.shape[1:])


def steering_irs(theta: float, phi: float, m_y: int, m_z: int) -> np.ndarray:
    """Unit-norm planar-array response kron(f(sin(theta)sin(phi), m_y),
    f(cos(phi), m_z))."""
    return _steering_irs_uv(_irs_freqs(np.array([theta, phi])).T, m_y, m_z)


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


def sample_paths(geom: SystemGeometry, k: int, rng: np.random.Generator,
                 on_grid: bool = False) -> PathSet:
    """Draw k paths per hop with angles uniform on (0, 2pi].

    Spatial frequencies of distinct paths are kept separated so the
    synthesized channels have exact rank k: off grid any two frequencies
    of the same kind must differ by at least 1e-6; on grid the draws are
    redrawn until the snapped indices of every frequency are at least one
    orthogonality period (grid size / array size) apart, which keeps the
    corresponding atoms resolvable. IRS frequency pairs only need the
    separation on one of the two axes.

    Raises:
        ValueError: k violates the rank preconditions, or separation could
            not be met within 2000 redraws.
    """
    if not 1 <= k <= min(geom.n_bs, geom.n_ue, geom.m):
        raise ValueError(f"k={k} outside [1, min array dimension]")

    def draw(freqs, sizes, grids) -> tuple[np.ndarray, np.ndarray]:
        """Angles (axes, k) and frequency rows (k, axes) of one kind."""
        sizes, grids = np.array(sizes), np.array(grids)
        for _ in range(_MAX_TRIES):
            ang = rng.uniform(0.0, 2.0 * np.pi, (len(sizes), k))
            u = freqs(ang).T
            if _separated(u, sizes, grids, on_grid):
                return ang, _snap(u, grids)[0] if on_grid else u
        raise ValueError("could not draw separated path frequencies")

    irs = (_irs_freqs, (geom.m_y, geom.m_z), (geom.g_y, geom.g_z))
    (theta_r,), u_bs = draw(np.cos, (geom.n_bs,), (geom.g_bs,))
    (theta_t, phi_t), u_irs_aod = draw(*irs)
    (psi_r, phi_r), u_irs_aoa = draw(*irs)
    (psi_t,), u_ue = draw(np.cos, (geom.n_ue,), (geom.g_ue,))

    alpha = _gains(k, pathloss(geom.d_bi), rng)
    beta = _gains(k, pathloss(geom.d_iu), rng)
    return PathSet(alpha, theta_r, theta_t, phi_t, beta, psi_r, phi_r, psi_t,
                   u_bs[:, 0], u_irs_aod, u_irs_aoa, u_ue[:, 0])


def _sum_of_paths(gains: np.ndarray, a_rx: np.ndarray,
                  a_tx: np.ndarray) -> np.ndarray:
    """sqrt(rows*cols/k) * sum_k gains[k] a_rx[:, k] a_tx[:, k]^H, adding
    the paths in path order (a matmul or a pairwise sum would reorder the
    additions and change the rounding)."""
    terms = gains[:, None, None] * (a_rx.T[:, :, None]
                                    * a_tx.T.conj()[:, None, :])
    rows, cols = a_rx.shape[0], a_tx.shape[0]
    return np.add.accumulate(terms)[-1] * np.sqrt(rows * cols / len(gains))


def synth_channels(geom: SystemGeometry, paths: PathSet) -> ChannelRealization:
    """Sum-of-paths channels

        g = sqrt(n_bs*m/p) * sum_p alpha_p a_bs(theta_r) a_irs(aod)^H
        h = sqrt(n_ue*m/q) * sum_q beta_q a_irs(aoa) a_ue(psi_t)^H
    """
    g = _sum_of_paths(paths.alpha, steering_ula(paths.u_bs, geom.n_bs),
                      _steering_irs_uv(paths.u_irs_aod, geom.m_y, geom.m_z))
    h = _sum_of_paths(paths.beta,
                      _steering_irs_uv(paths.u_irs_aoa, geom.m_y, geom.m_z),
                      steering_ula(paths.u_ue, geom.n_ue))
    return ChannelRealization(g, h, paths)


def build_dictionaries(geom: SystemGeometry) -> Dictionaries:
    """Steering dictionaries on the uniform frequency grids; unitary (up to
    scaling exact) whenever the resolution equals the array size."""
    banks, grids = [], []
    for res, size, name in ((geom.g_bs, geom.n_bs, "g_bs"),
                            (geom.g_ue, geom.n_ue, "g_ue"),
                            (geom.g_y, geom.m_y, "g_y"),
                            (geom.g_z, geom.m_z, "g_z")):
        if res < size:
            raise ValueError(f"{name}={res} below array size {size}")
        grids.append(_grid(res))
        banks.append(steering_ula(grids[-1], size))
    return Dictionaries(*banks, kron(banks[2], banks[3]), *grids)


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
    """Cascaded channel khatri_rao(h.T, g) of shape (n_bs*n_ue, m)."""
    return khatri_rao(ch.h.T, ch.g)


def effective_channel(h_c: np.ndarray, v: np.ndarray,
                      geom: SystemGeometry) -> np.ndarray:
    """End-to-end (n_ue, n_bs) channel for reflection vector v.

    Equals h^H diag(v) g^H; computed from the cascaded channel as
    mat(conj(h_c) @ v, n_bs, n_ue).T.
    """
    if h_c.shape != (geom.n_bs * geom.n_ue, geom.m):
        raise ValueError(f"h_c shape {h_c.shape} inconsistent with geometry")
    if v.shape[0] != geom.m:
        raise ValueError("reflection vector length mismatch")
    return mat(h_c.conj() @ v, geom.n_bs, geom.n_ue).T


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
