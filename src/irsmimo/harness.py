"""Seeded Monte-Carlo harness: experiment configuration, per-trial
pipeline (channel, training, estimation, beamforming, metrics), sweep
execution, and CSV serialization.

Determinism contract: a (config, master_seed) pair yields byte-identical
CSV output, and each row is independent of the order in which trials
run. Every trial derives its generators from SeedSequence(master_seed,
spawn_key=(point, seed)) and splits them per pipeline phase, so
paired-seed comparisons across algorithms see identical channels, pilots,
and initial reflection vectors. Wall-clock columns are written as 0.0
unless timings=true.
"""

import itertools
import time
import typing
from dataclasses import dataclass, fields

import numpy as np

from .channel import (SystemGeometry, build_dictionaries, effective_channel,
                      make_pilots, pathloss, sample_paths, simulate_uplink,
                      synth_channels)
from .cs_est import CsEstConfig, cs_est, resolve_t1
from .mo_est import MoEstConfig, mo_est
from .numerics import khatri_rao
from .wmmse import DownlinkScenario, alt_wmmse, spectral_efficiency

CSV_HEADER = "seed,algorithm,T,pnr_db,snr_db,k_hat,nmse,se_bits_s_hz,outer_iters,wall_ms"
ALGORITHMS = ("mo_est", "cs_est", "perfect_csi", "random_phase_baseline")
SWEEP_AXES = ("T", "PNR", "SNR", "K_hat")
_ESTIMATORS = ("mo_est", "cs_est")


class ConfigError(ValueError):
    """Invalid configuration file or field value."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; every field is a config-file key."""

    n_bs: int = 16
    n_ue: int = 8
    m_y: int = 4
    m_z: int = 4
    g_bs: int = 64
    g_ue: int = 64
    g_y: int = 16
    g_z: int = 16
    d_bi: float = 150.0
    d_iu: float = 10.0
    algorithm: str = "mo_est"
    sweep_axis: str = "T"
    sweep_values: tuple[float, ...] = (100.0,)
    trials: int = 10
    t: int = 100
    t1: int | None = None
    pnr_db: float = 0.0
    snr_db: float = 10.0
    t_tot: int = 2000
    k_true: int = 3
    k_hat: int | None = None
    n_s: int = 3
    on_grid: bool = False
    master_seed: int = 0
    timings: bool = False
    mu_g: float | None = None
    mu_h: float | None = None

    def geometry(self) -> SystemGeometry:
        return SystemGeometry(self.n_bs, self.n_ue, self.m_y, self.m_z,
                              self.g_bs, self.g_ue, self.g_y, self.g_z,
                              self.d_bi, self.d_iu)

    def validate(self) -> None:
        for f in fields(self):
            val = getattr(self, f.name)
            if float in (f.type, *typing.get_args(f.type)) \
                    and val is not None and not np.all(np.isfinite(val)):
                raise ConfigError(f"{f.name} must be finite")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep_axis {self.sweep_axis!r}")
        if len(self.sweep_values) == 0:
            raise ConfigError("sweep_values must be non-empty")
        if len(set(self.sweep_values)) != len(self.sweep_values):
            raise ConfigError("sweep_values must be distinct")
        if self.sweep_axis in ("T", "K_hat") and not all(
                float(v).is_integer() for v in self.sweep_values):
            raise ConfigError(f"{self.sweep_axis} sweep values must be "
                              "integers")
        if self.sweep_axis == "T" and not all(
                0 <= v < self.t_tot for v in self.sweep_values):
            raise ConfigError("T sweep values must lie in [0, t_tot)")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 <= self.t < self.t_tot:
            raise ConfigError("need 0 <= t < t_tot")
        if self.algorithm in _ESTIMATORS and self.sweep_axis != "T" \
                and self.t < 1:
            raise ConfigError("estimators need t >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        try:
            geom = self.geometry()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        k_paths = min(self.n_bs, self.n_ue, geom.m)
        if not 1 <= self.k_true <= k_paths:
            raise ConfigError("k_true must lie in [1, min(n_bs, n_ue, m)]")
        if not 1 <= self.n_s <= min(self.n_bs, self.n_ue):
            raise ConfigError("n_s must lie in [1, min(n_bs, n_ue)]")
        k_max = {"mo_est": k_paths,
                 "cs_est": min(self.g_bs, self.g_ue)}.get(self.algorithm)
        for point in range(len(self.sweep_values)):
            t, _, _, k_hat = _point_params(self, point)
            if k_hat < 1:
                raise ConfigError("K_hat must be >= 1")
            if k_max is not None and k_hat > k_max:
                raise ConfigError(f"K_hat={k_hat} above {k_max}, the most "
                                  f"paths {self.algorithm} can resolve")
            try:
                _estimator_config(self, k_hat)
                if self.algorithm == "cs_est" and t > 0:
                    resolve_t1(self.t1, t)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class TrialRecord:
    """One CSV row, columns in field order; (t, pnr_db, snr_db, k_hat)
    name the sweep point. nmse and se_bits_s_hz are nan when the trial
    failed."""

    seed: int
    algorithm: str
    t: int
    pnr_db: float
    snr_db: float
    k_hat: int
    nmse: float
    se_bits_s_hz: float
    outer_iters: int
    wall_ms: float

    def to_csv_row(self) -> str:
        return ",".join(str(f.type(getattr(self, f.name)))
                        for f in fields(self))


_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _parse_value(name: str, kind, raw: str):
    """Parse one raw config value by the type its field declares."""
    raw = raw.strip()
    if kind is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ValueError(f"{name}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return tuple(_parse_value(name, args[0], v) for v in raw.split(","))
    if type(None) in args:
        if raw.lower() in ("none", ""):
            return None
        (kind,) = (a for a in args if a is not type(None))
        return _parse_value(name, kind, raw)
    return kind(raw)


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat `key = value` lines (# starts a comment) into a config.

    Raises:
        ConfigError: unknown key, malformed line or value, or failed
            validation of the resulting configuration.
    """
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in kinds:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        try:
            values[key] = _parse_value(key, kinds[key], raw)
        except ValueError as exc:
            raise ConfigError(f"line {ln}: {exc}") from exc
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def config_text(cfg: ExperimentConfig) -> str:
    """Render a config back to the flat key = value format."""
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if f.name == "sweep_values":
            val = ",".join(str(v) for v in val)
        elif isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def pnr_to_sigma2(pnr_db: float, d_bi: float, d_iu: float) -> float:
    """Noise power giving the requested pilot-to-noise ratio
    tau_bi * tau_iu / sigma2 for unit-power pilots (tau from the
    path-loss law)."""
    if d_bi <= 0 or d_iu <= 0:
        raise ValueError("distances must be positive")
    return pathloss(d_bi) * pathloss(d_iu) / 10.0 ** (pnr_db / 10.0)


def nmse(h_c_true: np.ndarray, h_c_hat: np.ndarray) -> float:
    """Per-trial squared-error ratio ||true - hat||_F^2 / ||true||_F^2."""
    if h_c_true.shape != h_c_hat.shape:
        raise ValueError("shape mismatch")
    denom = float(np.linalg.norm(h_c_true) ** 2)
    if denom == 0.0:
        raise ValueError("true channel is zero")
    return float(np.linalg.norm(h_c_true - h_c_hat) ** 2) / denom


def _point_params(cfg: ExperimentConfig, point: int):
    """(t, pnr_db, snr_db, k_hat) after applying the sweep value."""
    value = cfg.sweep_values[point]
    t, pnr_db, snr_db = cfg.t, cfg.pnr_db, cfg.snr_db
    k_hat = cfg.k_true if cfg.k_hat is None else cfg.k_hat
    if cfg.sweep_axis == "T":
        t = int(value)
    elif cfg.sweep_axis == "PNR":
        pnr_db = float(value)
    elif cfg.sweep_axis == "SNR":
        snr_db = float(value)
    elif cfg.sweep_axis == "K_hat":
        k_hat = int(value)
    return t, pnr_db, snr_db, k_hat


def _estimator_config(cfg: ExperimentConfig,
                      k_hat: int) -> MoEstConfig | CsEstConfig | None:
    """The configured estimator's settings for k_hat assumed paths per hop
    (None for the CSI-free arms)."""
    if cfg.algorithm == "mo_est":
        return MoEstConfig(k_hat, k_hat, cfg.mu_g, cfg.mu_h)
    if cfg.algorithm == "cs_est":
        return CsEstConfig(k_hat, k_hat, cfg.t1)
    return None


def run_trial(cfg: ExperimentConfig, point: int, seed: int) -> TrialRecord:
    """One seeded trial of the configured pipeline.

    point indexes cfg.sweep_values and seed is the trial index; together
    with master_seed they determine every random draw. Channel, pilots,
    estimator, and beamformer initialization use separate child generators
    so algorithms can be compared pairwise on identical realizations.

    The beamformers are designed from the estimated cascaded channel, but
    the reported rate applies them to the true one. outer_iters counts
    estimator outer iterations (total greedy selections for cs_est) or,
    for the CSI-free arms, beamformer iterations.
    """
    tic = time.perf_counter()
    t, pnr_db, snr_db, k_hat = _point_params(cfg, point)
    geom = cfg.geometry()
    ss = np.random.SeedSequence(cfg.master_seed, spawn_key=(point, seed))
    rng_chan, rng_pilot, rng_est, rng_bf = [
        np.random.default_rng(child) for child in ss.spawn(4)]

    ch = synth_channels(geom, sample_paths(geom, cfg.k_true, rng_chan,
                                           on_grid=cfg.on_grid))
    sigma2 = pnr_to_sigma2(pnr_db, cfg.d_bi, cfg.d_iu)
    sigma2_d = pnr_to_sigma2(snr_db, cfg.d_bi, cfg.d_iu)

    if t > 0:
        hold_v = resolve_t1(cfg.t1, t) if cfg.algorithm == "cs_est" else 0
        s, v = make_pilots(geom, t, rng_pilot, hold_v=hold_v)
        pilots = simulate_uplink(ch, s, v, sigma2, rng_pilot)
    elif cfg.algorithm in _ESTIMATORS:
        raise ValueError("estimators need at least one training slot")

    if cfg.algorithm == "mo_est":
        dicts = build_dictionaries(geom.unitary())
        res = mo_est(pilots, dicts, _estimator_config(cfg, k_hat), rng_est)
        h_c_hat = khatri_rao(res.h_hat.dense.T, res.g_hat.dense)
        iters = res.iterations
    elif cfg.algorithm == "cs_est":
        dicts = build_dictionaries(geom)
        res = cs_est(pilots, dicts, _estimator_config(cfg, k_hat))
        h_c_hat = res.h_c_hat
        iters = (len(res.support_ue) + len(res.support_bs)
                 + len(res.support_gain))
    else:
        h_c_hat = ch.h_c
        iters = -1

    scen = DownlinkScenario(geom, h_c_hat, sigma2_d, cfg.n_s, t, cfg.t_tot)
    sol = alt_wmmse(scen, rng_bf,
                    optimize_v=cfg.algorithm != "random_phase_baseline")
    if iters < 0:
        iters = sol.iterations

    h_e_true = effective_channel(ch.h_c, sol.v_d, geom)
    se = spectral_efficiency(h_e_true, sol.f, scen)
    err = 0.0 if cfg.algorithm not in _ESTIMATORS else nmse(ch.h_c, h_c_hat)
    wall = 1e3 * (time.perf_counter() - tic) if cfg.timings else 0.0
    return TrialRecord(seed, cfg.algorithm, t, pnr_db, snr_db, k_hat, err,
                       se, iters, wall)


def sweep(cfg: ExperimentConfig) -> tuple[list[TrialRecord], int]:
    """All (point, seed) trials in (point-major, seed-minor) order.

    Failed trials become nan rows. Returns (records, failure count).
    """
    cfg.validate()
    records, failures = [], 0
    for point, seed in itertools.product(range(len(cfg.sweep_values)),
                                         range(cfg.trials)):
        try:
            records.append(run_trial(cfg, point, seed))
        except Exception:
            failures += 1
            records.append(TrialRecord(seed, cfg.algorithm,
                                       *_point_params(cfg, point),
                                       float("nan"), float("nan"), 0, 0.0))
    return records, failures


def to_csv(records: list[TrialRecord]) -> str:
    """CSV text with the fixed header and LF line endings."""
    return "\n".join([CSV_HEADER] + [r.to_csv_row() for r in records]) + "\n"


def parse_csv(text: str) -> list[TrialRecord]:
    """Inverse of to_csv; validates the header and each row's field
    count."""
    lines = text.strip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    cols = fields(TrialRecord)
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        row = line.split(",")
        if len(row) != len(cols):
            raise ValueError(f"line {ln}: expected {len(cols)} fields, "
                             f"got {len(row)}")
        out.append(TrialRecord(*(f.type(x) for f, x in zip(cols, row))))
    return out


def summarize(records: list[TrialRecord]) -> list[dict]:
    """Median/mean NMSE and SE grouped by algorithm and sweep point
    (t, pnr_db, snr_db, k_hat), in first-appearance order; nan trials are
    excluded per group."""
    point = ("algorithm", "t", "pnr_db", "snr_db", "k_hat")
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault(tuple(getattr(rec, name) for name in point),
                          []).append(rec)
    out = []
    for key, recs in groups.items():
        err = np.array([r.nmse for r in recs])
        se = np.array([r.se_bits_s_hz for r in recs])
        ok = ~np.isnan(err) & ~np.isnan(se)
        out.append({
            **dict(zip(point, key)), "n": int(ok.sum()),
            "median_nmse": float(np.median(err[ok])) if ok.any() else float("nan"),
            "mean_nmse": float(np.mean(err[ok])) if ok.any() else float("nan"),
            "median_se": float(np.median(se[ok])) if ok.any() else float("nan"),
            "mean_se": float(np.mean(se[ok])) if ok.any() else float("nan"),
        })
    return out


DESK_PRESET = ExperimentConfig()

PAPER_PRESET = ExperimentConfig(
    n_bs=36, n_ue=16, m_y=6, m_z=6, trials=100, t=300,
    sweep_values=(100.0, 200.0, 300.0, 400.0, 500.0))

PRESETS = {"desk-scale": DESK_PRESET, "paper-scale": PAPER_PRESET}
