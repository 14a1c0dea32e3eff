"""Command-line front end.

Subcommands:
  simulate  run one seeded trial and print its CSV record
  sweep     run the configured Monte-Carlo sweep and write a CSV file
  selftest  run fast library invariant checks
  preset    print a ready-to-edit configuration (desk-scale | paper-scale)

Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from .harness import ConfigError, ExperimentConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(path: str | None) -> ExperimentConfig:
    try:
        text = "" if path is None else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return harness.parse_config(text)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if not 0 <= args.point < len(cfg.sweep_values):
        raise ConfigError(f"point {args.point} outside sweep_values")
    if args.seed < 0:
        raise ConfigError(f"seed {args.seed} must be >= 0")
    try:
        rec = harness.run_trial(cfg, args.point, args.seed)
    except Exception as exc:
        print(f"trial failed: {exc}", file=sys.stderr)
        return 2
    print(harness.CSV_HEADER)
    print(rec.to_csv_row())
    return 0


def _workers(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    out = Path(args.out)
    # Append mode creates the file without truncating it, so an unwritable
    # path fails here (OSError, exit 1) before any trial runs.
    with out.open("a", encoding="utf-8"):
        pass
    records, failures = harness.sweep(cfg, workers=args.workers)
    out.write_text(harness.to_csv(records), encoding="utf-8", newline="\n")
    for value, row in zip(cfg.sweep_values, harness.summarize(records)):
        print(f"{row['algorithm']} {cfg.sweep_axis}={value:g}: "
              f"median nmse {row['median_nmse']:.4g}, "
              f"median se {row['median_se']:.4g} ({row['n']} ok)")
    if failures:
        print(f"{failures} trial(s) failed", file=sys.stderr)
        return 2
    return 0


def _selftest_checks():
    from . import channel, manifold, numerics, wmmse
    from .cs_est import CsEstConfig, cs_est
    from .mo_est import egrad_g

    def check_numerics():
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        c = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        lhs = numerics.vec(a @ b @ c)
        rhs = numerics.kron(c.T, a) @ numerics.vec(b)
        assert np.allclose(lhs, rhs, atol=1e-12)
        k = numerics.commutation_matrix(3, 4)
        assert np.allclose(k @ numerics.vec(a), numerics.vec(a.T))

    def check_channel():
        rng = np.random.default_rng(1)
        geom = channel.SystemGeometry()
        ch = channel.synth_channels(geom, channel.sample_paths(geom, 3, rng))
        assert np.linalg.matrix_rank(ch.g, tol=1e-8) == 3
        assert np.linalg.matrix_rank(ch.h, tol=1e-8) == 3
        v = numerics.random_unit_modulus(geom.m, rng)
        h_e = channel.effective_channel(ch, v)
        direct = ch.h.conj().T @ np.diag(v) @ ch.g.conj().T
        assert np.abs(h_e - direct).max() < 1e-10

    def check_manifold():
        rng = np.random.default_rng(2)
        x = manifold.random_fixed_rank(8, 6, 2, rng)
        j = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        t1 = manifold.project_tangent(x, j)
        # Gradient identity: <grad, xi>_x = Re<j, D(l r^H)[xi]>.
        xi = manifold.random_fixed_rank(8, 6, 2, rng)
        moved = xi.l @ x.r.conj().T + x.l @ xi.r.conj().T
        assert abs(manifold.FixedRankManifold.inner(x, t1, xi)
                   - np.sum(j.conj() * moved).real) < 1e-12
        at0 = manifold.retract(x[None], t1[None], [0.0])
        assert np.abs(at0.dense[0] - x.dense).max() < 1e-12
        target = manifold.random_fixed_rank(8, 6, 2, rng).dense
        res = manifold.cg_minimize(
            manifold.FixedRankManifold,
            lambda p, rows: (numerics.sq_norms(p.dense - target).tolist(),
                             lambda keep=manifold._ALL: p.dense - target),
            x, manifold.CgOptions(epsilon=1e-12, max_iters=200))
        assert res.trace[-1] < 1e-8
        assert all(a >= b - 1e-12 for a, b in zip(res.trace, res.trace[1:]))

    def check_mo_gradient():
        rng = np.random.default_rng(3)
        geom = channel.SystemGeometry(8, 4, 2, 4, 8, 4, 2, 4)
        ch = channel.synth_channels(geom, channel.sample_paths(geom, 2, rng))
        s, v = channel.make_pilots(geom, 10, rng)
        pilots = channel.simulate_uplink(ch, s, v, 1e-3, rng)
        dicts = channel.build_dictionaries(geom)
        f_mat = pilots.v * (ch.h @ pilots.s)
        x = manifold.random_fixed_rank(8, 8, 2, rng)

        def cost(xd):
            return (float(numerics.sq_norms(pilots.r - xd @ f_mat))
                    + 0.1 * float(np.sum(np.abs(
                        dicts.a_bs.conj().T @ xd @ dicts.a_i))))

        grad = egrad_g(x.dense, pilots.r, f_mat, 0.1, dicts)
        delta = rng.standard_normal(x.dense.shape) \
            + 1j * rng.standard_normal(x.dense.shape)
        eps = 1e-6
        fd = (cost(x.dense + eps * delta) - cost(x.dense - eps * delta)) / (2 * eps)
        an = 2.0 * float(np.sum(grad.conj() * delta).real)
        assert abs(fd - an) / max(abs(fd), 1e-12) < 1e-4

    def check_cs():
        rng = np.random.default_rng(4)
        geom = channel.SystemGeometry(16, 8, 4, 4, 16, 8, 4, 4)
        ch = channel.synth_channels(
            geom, channel.sample_paths(geom, 2, rng, on_grid=True))
        s, v = channel.make_pilots(geom, 60, rng, hold_v=15)
        pilots = channel.simulate_uplink(ch, s, v, 0.0, rng)
        res = cs_est(pilots, channel.build_dictionaries(geom),
                     CsEstConfig(2, 2, 15))
        assert harness.nmse(ch.h_c, res.estimate.h_c) < 1e-10

    def check_wmmse():
        rng = np.random.default_rng(5)
        geom = channel.SystemGeometry()
        ch = channel.synth_channels(geom, channel.sample_paths(geom, 3, rng))
        sigma2_d = harness.pnr_to_sigma2(10.0, geom.d_bi, geom.d_iu)
        scen = wmmse.DownlinkScenario(geom, sigma2_d, 3, 0, 2000)
        sol = wmmse.alt_wmmse(scen, ch, rng)
        assert all(a >= b - 1e-9 for a, b in zip(sol.g_trace, sol.g_trace[1:]))
        assert abs(np.sqrt(numerics.sq_norms(sol.f)) - 1.0) < 1e-10

    def check_harness():
        cfg = ExperimentConfig(algorithm="cs_est", trials=2,
                               sweep_values=(20.0,), t=20, t1=8, on_grid=True)
        records, _ = harness.sweep(cfg)
        keys = [(0, seed) for seed in range(cfg.trials)]
        backwards = {key: harness.run_trial(cfg, *key)
                     for key in reversed(keys)}
        assert harness.to_csv(records) == harness.to_csv(
            [backwards[key] for key in keys])

    return [("numerics identities", check_numerics),
            ("channel synthesis", check_channel),
            ("manifold contracts", check_manifold),
            ("estimator gradient", check_mo_gradient),
            ("sparse recovery", check_cs),
            ("beamforming descent", check_wmmse),
            ("sweep determinism", check_harness)]


def _cmd_selftest(_args) -> int:
    failed = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:
            failed += 1
            print(f"[FAIL] {name}: {exc}")
        else:
            print(f"[PASS] {name}")
    return 2 if failed else 0


def _cmd_preset(args) -> int:
    print(harness.config_text(harness.PRESETS[args.name]), end="")
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="irsmimo",
                     description="IRS-assisted mm-wave MIMO simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a single trial")
    p_sim.add_argument("--config", default=None, help="config file path")
    p_sim.add_argument("--point", type=int, default=0,
                       help="sweep point index")
    p_sim.add_argument("--seed", type=int, default=0, help="trial index")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run the full Monte-Carlo sweep")
    p_sweep.add_argument("--config", required=True, help="config file path")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--workers", type=_workers, default=None,
                         help="worker processes, one BLAS thread each "
                              "(default: the usable CPUs; 1 runs the "
                              "sweep in this process)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_self = sub.add_parser("selftest", help="run library invariant checks")
    p_self.set_defaults(func=_cmd_selftest)

    p_preset = sub.add_parser("preset", help="print a configuration preset")
    p_preset.add_argument("--name", required=True,
                          choices=sorted(harness.PRESETS))
    p_preset.set_defaults(func=_cmd_preset)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
