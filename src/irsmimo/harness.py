"""Seeded Monte-Carlo harness: experiment configuration, the trial
pipeline (channel, training, estimation, beamforming, metrics), sweep
execution, and CSV serialization.

Determinism contract: a (config, master_seed) pair yields byte-identical
CSV output, and each row is independent of the order in which trials
run and of which trials share a chunk. Every trial draws each pipeline
phase from its own generator, SeedSequence(master_seed, spawn_key=(point,
seed, phase)), so paired-seed comparisons across algorithms see identical
channels, pilots, and initial reflection vectors.

A config checks its fields and builds its points once, at construction,
or raises ConfigError. The points share one geometry and dictionaries;
_point builds a point's noise powers, scenario and estimator settings,
and owns the rules a point must meet. A sweep runs each point's trials
in chunks of consecutive seeds, equal to within one trial, that _plan
cuts to fit _CHUNK_BYTES and the worker count. Every arm designs and is
rated on channel factors (channel.ChannelRealization); no chunk stacks a
cascaded channel. Each trial draws its paths, pilots and estimate on its
own; channel synthesis, the beamformer's closed forms, the effective
channel after each circle CG and the rate run once per chunk on arrays
with a leading trial axis, which numpy computes bit-identically to one
call per trial. run_trial is a chunk of one. A chunk in which any step
raises runs again one trial at a time, and a trial that raises on its
own becomes a nan row. Wall-clock columns are written as 0.0 unless
timings=true; then each row holds its chunk's wall time divided by the
chunk's trial count (a rerun trial is a chunk of one, a nan row 0.0).

sweep runs its chunks in worker processes (pool.py), as many as the
CPUs this process may use and never more than the chunks, and puts their
records back in chunk order; a sweep of one chunk, or with workers=1,
runs them in this process. Every chunk runs at one BLAS thread wherever
it runs: products that sum over the training length round differently
at other thread counts. _run_chunk sets numpy's bundled OpenBLAS to one
thread and restores the caller's count on exit, so run_trial, a
one-chunk sweep and a pooled sweep give the same rows. On a numpy
without that OpenBLAS (see _openblas_threads) an in-process chunk runs at
the caller's thread count, and mo_est and cs_est rows may then depend
on it.
"""

import contextlib
import ctypes
import functools
import os
import time
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .channel import (ChannelRealization, Dictionaries, SystemGeometry,
                      build_dictionaries, check_paths, effective_channel,
                      make_pilots, pathloss, sample_paths, simulate_uplink,
                      stack_channels, stack_paths, synth_channels)
from .cs_est import CsEstConfig, cs_est, resolve_t1
from .mo_est import MoEstConfig, mo_est
# khatri_rao is no longer called here, but perfbench/tracer.py patches
# harness.khatri_rao by name.
from .numerics import khatri_rao, sq_norms  # noqa: F401
from .wmmse import DownlinkScenario, alt_wmmse, spectral_efficiency

CSV_HEADER = "seed,algorithm,T,pnr_db,snr_db,k_hat,nmse,se_bits_s_hz,outer_iters,wall_ms"
ALGORITHMS = ("mo_est", "cs_est", "perfect_csi", "random_phase_baseline")
SWEEP_AXES = ("T", "PNR", "SNR", "K_hat")
_ESTIMATORS = ("mo_est", "cs_est")
# A chunk pays a fixed lock-step cost, so chunks hold as many trials as
# keep their stacked arrays within about _CHUNK_BYTES (_chunk_size, _plan).
_CHUNK_BYTES = 2 * 1024 * 1024


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

    def geometry(self) -> SystemGeometry:
        return SystemGeometry(**{f.name: getattr(self, f.name)
                                 for f in fields(SystemGeometry)})

    def __post_init__(self):
        for f in fields(self):
            if float in (f.type, *typing.get_args(f.type)) \
                    and not np.all(np.isfinite(getattr(self, f.name))):
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
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        try:
            geom = self.geometry()
            check_paths(geom, self.k_true, self.on_grid)
            dicts = (build_dictionaries(geom.unitary())
                     if self.algorithm == "mo_est" else
                     build_dictionaries(geom)
                     if self.algorithm == "cs_est" else None)
            object.__setattr__(self, "_points", tuple(
                _point(self, i, geom, dicts)
                for i in range(len(self.sweep_values))))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True, slots=True)
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
        ConfigError: unknown key, malformed line or value, or invalid config.
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
    return ExperimentConfig(**values)


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
    path-loss law). Raises ValueError unless both distances and the
    noise power are positive, and the noise power finite."""
    if d_bi <= 0 or d_iu <= 0:
        raise ValueError("distances must be positive")
    with np.errstate(divide="ignore", over="ignore"):
        try:
            sigma2 = pathloss(d_bi) * pathloss(d_iu) / 10.0 ** (pnr_db / 10.0)
        except OverflowError:
            sigma2 = 0.0
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"{pnr_db} dB over {d_bi} m and {d_iu} m gives "
                         f"noise power {sigma2}")
    return sigma2


def nmse(h_c_true: np.ndarray, h_c_hat: np.ndarray) -> float:
    """Per-trial squared-error ratio ||true - hat||_F^2 / ||true||_F^2."""
    if h_c_true.shape != h_c_hat.shape:
        raise ValueError("shape mismatch")
    denom = float(sq_norms(h_c_true))
    if denom == 0.0:
        raise ValueError("true channel is zero")
    return float(sq_norms(h_c_true - h_c_hat)) / denom


@dataclass(frozen=True)
class _Point:
    """What all trials of sweep point `index` share: the row key (t, pnr_db,
    snr_db, k_hat), the training noise power, the estimator's settings,
    the config's dictionaries and hold_v, cs_est's t1 (else 0)."""

    index: int
    key: tuple[int, float, float, int]
    sigma2: float
    scen: DownlinkScenario
    est_cfg: MoEstConfig | CsEstConfig | None
    dicts: Dictionaries | None
    hold_v: int


def _point(cfg: ExperimentConfig, index: int, geom: SystemGeometry,
           dicts: Dictionaries | None) -> _Point:
    """Sweep point `index` of cfg, on cfg's shared geom and dicts. Raises
    ValueError for a point no trial could run: K_hat below 1 or above the
    most paths the estimator resolves, an estimator with t < 1 on any
    sweep axis, t1 outside [1, t], or a value a constructor refuses."""
    axes = dict(T=cfg.t, PNR=cfg.pnr_db, SNR=cfg.snr_db,
                K_hat=cfg.k_true if cfg.k_hat is None else cfg.k_hat)
    axes[cfg.sweep_axis] = cfg.sweep_values[index]
    t, k_hat = int(axes["T"]), int(axes["K_hat"])
    pnr_db, snr_db = float(axes["PNR"]), float(axes["SNR"])
    if k_hat < 1:
        raise ValueError("K_hat must be >= 1")
    if cfg.algorithm in _ESTIMATORS and t < 1:
        raise ValueError("estimators need t >= 1")
    sigma2 = pnr_to_sigma2(pnr_db, cfg.d_bi, cfg.d_iu)
    scen = DownlinkScenario(geom, pnr_to_sigma2(snr_db, cfg.d_bi, cfg.d_iu),
                            cfg.n_s, t, cfg.t_tot)
    est_cfg, hold_v, k_max = None, 0, None
    if cfg.algorithm == "mo_est":
        est_cfg = MoEstConfig(k_hat, k_hat)
        k_max = geom.max_paths
    elif cfg.algorithm == "cs_est":
        est_cfg = CsEstConfig(k_hat, k_hat, cfg.t1)
        # Stage 1 picks UE atoms from a rank-min(n_ue, t1) matrix and
        # stage 2 BS atoms from a rank-n_bs dictionary.
        hold_v = resolve_t1(cfg.t1, t)
        k_max = min(geom.n_bs, geom.n_ue, hold_v)
    if k_max is not None and k_hat > k_max:
        raise ValueError(f"K_hat={k_hat} above {k_max}, the most paths "
                         f"{cfg.algorithm} can resolve")
    return _Point(index, (t, pnr_db, snr_db, k_hat), sigma2, scen, est_cfg,
                  dicts, hold_v)


def _chunk_size(cfg: ExperimentConfig) -> int:
    """Most trials per chunk: as many as fit in _CHUNK_BYTES, at least one.

    A trial stacks, in complex entries: its channel factors g and h, twice
    for an estimator arm (the true channel and the estimate, which is no
    larger); the beamformer's reduced channel p, (n_ue*n_s, m), twice in a
    circle-CG round (p of the trials still running and the CG's gather of
    its live rows); and for mo_est the training block, (n_ue + m + n_bs)
    x T at the config's largest T. Not counted: the factors of the running
    trials, which the beamformer gathers once a trial stops."""
    geom = cfg._points[0].scen.geom
    factors = geom.m * (geom.n_bs + geom.n_ue)
    entries = (factors * (2 if cfg.algorithm in _ESTIMATORS else 1)
               + 2 * geom.n_ue * cfg.n_s * geom.m)
    if cfg.algorithm == "mo_est":
        entries += (geom.n_ue + geom.m + geom.n_bs) * max(
            p.scen.t_used for p in cfg._points)
    return max(1, _CHUNK_BYTES // (16 * entries))


def _plan(points: int, trials: int, size: int,
          workers: int) -> list[tuple[int, list[int]]]:
    """The chunks (point, seeds) of a sweep, in sweep order: each point's
    seeds in k consecutive runs, sizes equal to within one, k the fewest
    runs of at most `size` trials or, past one chunk, the least k <= trials
    above that which makes points*k a multiple of `workers`, if any."""
    k = -(-trials // size)
    if points * k > 1:
        k = next((j for j in range(k, trials + 1)
                  if points * j % workers == 0), k)
    return [(point, list(range(trials * i // k, trials * (i + 1) // k)))
            for point in range(points) for i in range(k)]


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, as
    ctypes functions, or None where no library beside numpy's package
    exports scipy_openblas_{get,set}_num_threads64_ (a numpy built on
    another BLAS)."""
    pkg = Path(np.__file__).parent
    for lib in sorted([*pkg.parent.glob("numpy.libs/*openblas*"),
                       *pkg.glob(".dylibs/*openblas*")]):
        try:
            dll = ctypes.CDLL(str(lib))
            get = dll.scipy_openblas_get_num_threads64_
            set_ = dll.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body at one OpenBLAS thread and restore the caller's count
    on exit, raised or not; without _openblas_threads, run it as is. The
    count is process-wide, so Python threads of one process that run
    chunks at once would race on it; the harness starts none."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@_one_blas_thread()
def _run_chunk(cfg: ExperimentConfig, point: _Point,
               seeds: list[int]) -> list[TrialRecord]:
    """The records of trials `seeds` of `point`, in seed order, computed
    at one BLAS thread (_one_blas_thread). The first exception of any
    step propagates, whether the step runs per trial or on the stack;
    sweep then reruns the chunk one trial at a time.

    Per trial, in seed order: the generators, the path draw, pilots and
    uplink (pilots alone for a CSI-free arm), and cs_est. Stacked over the
    chunk: channel synthesis, mo_est, the beamformer (alt_wmmse on a
    stack) and the rate on the true channel.
    """
    tic = time.perf_counter()
    scen, geom, t = point.scen, point.scen.geom, point.scen.t_used
    # Keys k = 0, 1, 3: paths, training, beamformer; k = 2 is unused. Each
    # equals SeedSequence(master_seed, spawn_key=(point, seed)).spawn(4)[k].
    rngs = [[np.random.default_rng(np.random.SeedSequence(
        cfg.master_seed, spawn_key=(point.index, seed, k)))
        for k in (0, 1, 3)] for seed in seeds]
    ch = synth_channels(geom, stack_paths(
        [sample_paths(geom, cfg.k_true, rng[0], on_grid=cfg.on_grid)
         for rng in rngs]))

    def training(i, rng_pilot):
        s, v = make_pilots(geom, t, rng_pilot, hold_v=point.hold_v)
        return simulate_uplink(ch[i], s, v, point.sigma2, rng_pilot)

    # Each arm designs on a channel in factor form: an estimator arm on its
    # estimates, stacked, with their iterations; a CSI-free arm on the true
    # channel, with no uplink simulated. The training buffers die before
    # the beamformer runs. mo_est runs the chunk on one stack, reading each
    # training block as it is made; a single trial goes through its
    # one-trial signature, as alt_wmmse's below.
    design, iters = ch, [None] * len(seeds)
    if cfg.algorithm == "mo_est":
        est = (mo_est((training(i, rng[1]) for i, rng in enumerate(rngs)),
                      point.dicts, point.est_cfg)
               if len(seeds) > 1 else
               [mo_est(training(0, rngs[0][1]), point.dicts, point.est_cfg)])
        design = stack_channels([ChannelRealization(x.g_hat.dense,
                                                    x.h_hat.dense)
                                 for x in est])
        iters = [x.iterations for x in est]
    elif cfg.algorithm == "cs_est":
        est = [cs_est(training(i, rng[1]), point.dicts, point.est_cfg)
               for i, rng in enumerate(rngs)]
        design = stack_channels([x.estimate for x in est])
        iters = [len(x.support_ue) + len(x.support_bs) + len(x.support_gain)
                 for x in est]
    elif t > 0:
        # Pilots only for perfbench's channel.make_pilots span test; ROADMAP
        # item 2 points it at channel.synth_channels, and this loop goes.
        for rng in rngs:
            make_pilots(geom, t, rng[1], hold_v=point.hold_v)
    rng_bf = [rng[2] for rng in rngs]
    optimize_v = cfg.algorithm != "random_phase_baseline"
    # A single trial goes through the one-trial signature, so the alt_wmmse
    # call of run_trial returns one BeamformingSolution, whose attributes
    # the benchmark's tracer (perfbench/tracer.py) reads.
    sols = (alt_wmmse(scen, design, rng_bf, optimize_v=optimize_v)
            if len(seeds) > 1 else
            [alt_wmmse(scen, design[0], rng_bf[0], optimize_v=optimize_v)])

    # Every arm is rated alike, on the true channel. A CSI-free arm designed
    # on it, so its rate is its sol.se and its nmse 0.0; an estimator arm's
    # nmse compares the dense cascaded channels one trial at a time.
    se = spectral_efficiency(
        effective_channel(ch, np.stack([s.v_d for s in sols])),
        np.stack([s.f for s in sols]), scen).tolist()
    err = ([0.0] * len(seeds) if design is ch else
           [nmse(ch[i].h_c, design[i].h_c) for i in range(len(seeds))])
    iters = [s.iterations if n is None else n for n, s in zip(iters, sols)]
    wall = (1e3 * (time.perf_counter() - tic) / len(seeds) if cfg.timings
            else 0.0)
    return [TrialRecord(seed, cfg.algorithm, *point.key, e, s, n, wall)
            for seed, e, s, n in zip(seeds, err, se, iters)]


def run_trial(cfg: ExperimentConfig, point: int, seed: int) -> TrialRecord:
    """One seeded trial of the configured pipeline: a chunk of one.

    point indexes cfg.sweep_values and seed is the trial index; together
    with master_seed they determine every random draw. Channel, pilots and
    beamformer initialization use separate child generators so algorithms
    can be compared pairwise on identical realizations; the estimators
    draw nothing.

    The beamformers are designed from the estimated cascaded channel, but
    the reported rate applies them to the true one. outer_iters counts
    estimator outer iterations (total greedy selections for cs_est) or,
    for the CSI-free arms, beamformer iterations. Raises whatever a step
    of the trial raises, and ValueError for a point outside sweep_values.
    """
    if not 0 <= point < len(cfg.sweep_values):
        raise ValueError(f"point {point} outside sweep_values")
    return _run_chunk(cfg, cfg._points[point], [seed])[0]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sweep_chunk(cfg: ExperimentConfig, point: int,
                 seeds: list[int]) -> tuple[list[TrialRecord], int]:
    """(records, failures) of trials `seeds` of sweep point `point`: one
    chunk, or, if the chunk raises, one chunk per trial, where a trial
    that still raises becomes a nan row. sweep calls it in process and
    each worker process (pool.serve) calls it too, so both give the same
    rows."""
    point = cfg._points[point]
    try:
        return _run_chunk(cfg, point, seeds), 0
    except Exception:
        records, failures = [], 0
        for seed in seeds:
            try:
                records += _run_chunk(cfg, point, [seed])
            except Exception:
                failures += 1
                records.append(TrialRecord(
                    seed, cfg.algorithm, *point.key, float("nan"),
                    float("nan"), 0, 0.0))
        return records, failures


def sweep(cfg: ExperimentConfig,
          workers: int | None = None) -> tuple[list[TrialRecord], int]:
    """All (point, seed) trials in (point-major, seed-minor) order, run in
    the chunks of consecutive seeds that _plan cuts.

    cfg's points serve all their chunks. A chunk that raises runs again
    one trial at a time, so its rows carry their own wall time and a trial
    that still raises becomes a nan row. Returns (records, failures).

    The chunks run in min(workers, chunks) worker processes (pool.py);
    workers=None takes the CPUs this process may use. When that count is
    1 they run here, in this process. Either way each chunk runs at one
    BLAS thread. Raises ValueError for workers < 1, and RuntimeError if a
    worker process dies.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = _usable_cpus() if workers is None else workers
    chunks = _plan(len(cfg._points), cfg.trials, _chunk_size(cfg), workers)
    workers = min(workers, len(chunks))
    if workers == 1:
        replies = [_sweep_chunk(cfg, *chunk) for chunk in chunks]
    else:
        # Only a sweep that starts workers loads the process machinery.
        from .pool import run_chunks
        replies = run_chunks(cfg, chunks, workers)
    return ([r for records, _ in replies for r in records],
            sum(failures for _, failures in replies))


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
