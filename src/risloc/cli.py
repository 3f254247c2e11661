"""Command-line front end: single estimates and Monte Carlo sweeps.

Configuration is a YAML file mirroring the reference parameter table;
dB-valued fields carry a ``_db``/``_dbm`` suffix, SI fields a unit suffix
(``_m``, ``_hz``, ...). Grid axes are given in degrees (azimuth,
elevation) and meters (range).
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np
import yaml

from . import __version__
from .channel import (DEFAULT_UE_VELOCITY, Scenario, db_to_linear,
                      save_snapshot)
from .errors import ConfigError, GeometryError, RislocError
from .estimator import GridSpec, estimate
from .geometry import (DEFAULT_CELL_DIMS, DEFAULT_CELL_SPACING,
                       DEFAULT_TILE_OFFSETS, build_composite_ris)
from .harness import (VARIANTS, AoiSpec, ExperimentConfig, aoi_sweep,
                      draw_trial, line_sweep, line_table)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_INTERNAL = 4

#: Every key a config file may hold; a nested dict is a section. A key the
#: code does not read is rejected rather than silently ignored.
_CONFIG_KEYS = {
    "scenario": dict.fromkeys(
        ("f_hz", "p_tx_dbm", "g_bs_db", "g_ue_db", "nf_db", "t_k", "b_hz",
         "p_bs_m", "t_s_s", "l_samples", "reflection_phases_deg")),
    "layout": dict.fromkeys(("cell_size_m", "tile_offsets_m",
                             "cell_spacing_m")),
    "grid": dict.fromkeys(("az_deg", "el_deg", "r_m")),
    "experiment": {
        "runs": None, "seed_base": None, "variants": None,
        "truth_v_mps": None,
        "line": dict.fromkeys(("x_points_m", "y_m", "z_m")),
        "aoi": dict.fromkeys(("x_min_m", "x_max_m", "y_min_m", "y_max_m",
                              "step_m", "z_m")),
    },
}


def load_config(path):
    """Load and minimally validate a YAML config file."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(cfg, _CONFIG_KEYS, "")
    return cfg


def _check_keys(section, known, prefix):
    for key, value in section.items():
        name = f"{prefix}{key}"
        if key not in known:
            raise ConfigError(f"unknown config key: {name}")
        if known[key] is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {name} must be a "
                                  "mapping")
            _check_keys(value, known[key], f"{name}.")


def effective_config(cfg, args):
    """The YAML config with the CLI flags that change results merged in.

    A flag left at its default adds nothing, so a run without flags keeps
    the hash of its file; so does ``--truth-v`` restating the velocity in
    effect.
    """
    eff = {key: dict(value) if isinstance(value, dict) else value
           for key, value in cfg.items()}
    experiment = eff.setdefault("experiment", {})
    for key, value in (("seed_base", args.seed), ("runs", args.runs),
                       ("variants", args.variant)):
        if value is not None:
            experiment[key] = value
    truth_v = getattr(args, "truth_v", None)
    if truth_v is not None and not np.array_equal(
            truth_v, experiment.get("truth_v_mps", DEFAULT_UE_VELOCITY)):
        experiment["truth_v_mps"] = list(truth_v)
    for flag in ("noiseless", "no_antenna_pattern"):
        if getattr(args, flag, False):
            eff.setdefault("flags", {})[flag] = True
    return eff


def config_hash(cfg):
    """Canonical hash: invariant to key order and file whitespace."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _get(cfg, key, default):
    value = cfg.get(key, default)
    if value is None:
        raise ConfigError(f"missing config key: {key}")
    return value


def build_scenario(cfg, noiseless=False):
    sc = cfg.get("scenario", {})
    try:
        scenario = Scenario(
            f=float(_get(sc, "f_hz", 23.8e9)),
            tx_power=10.0 ** ((float(_get(sc, "p_tx_dbm", 20.0)) - 30) / 10),
            bs_gain=db_to_linear(float(_get(sc, "g_bs_db", 19.0))),
            ue_gain=db_to_linear(float(_get(sc, "g_ue_db", 3.2))),
            noise_figure=db_to_linear(float(_get(sc, "nf_db", 8.0))),
            temperature=float(_get(sc, "t_k", 293.0)),
            bandwidth=float(_get(sc, "b_hz", 1.0e6)),
            bs_position=np.asarray(_get(sc, "p_bs_m", [1.0, -3.0, 3.0]),
                                   dtype=float),
            sample_time=float(_get(sc, "t_s_s", 1.0e-4)),
            num_samples=int(_get(sc, "l_samples", 40)),
            reflection_set=tuple(
                np.exp(1j * 2 * np.pi * np.asarray(
                    _get(sc, "reflection_phases_deg", [-15.0, 165.0]),
                    dtype=float) / 360.0)),
            noise_power_override=0.0 if noiseless else None)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    return scenario


def build_layout(cfg):
    lc = cfg.get("layout", {})
    size = float(_get(lc, "cell_size_m", DEFAULT_CELL_DIMS[0]))
    return build_composite_ris(
        tile_offsets=lc.get("tile_offsets_m", DEFAULT_TILE_OFFSETS),
        spacing=float(_get(lc, "cell_spacing_m", DEFAULT_CELL_SPACING)),
        cell_dims=(size, size))


def _axis(cfg, key, default):
    ax = cfg.get(key, default)
    if len(ax) != 3:
        raise ConfigError(f"grid axis {key} must be [lo, hi, step]")
    return tuple(float(x) for x in ax)


def build_grid(cfg):
    gc = cfg.get("grid", {})
    try:
        return GridSpec(
            azimuth_deg=_axis(gc, "az_deg", (-70.0, 70.0, 1.0)),
            elevation_deg=_axis(gc, "el_deg", (-70.0, 70.0, 1.0)),
            range_m=_axis(gc, "r_m", (0.1, 3.9, 0.2)))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def build_experiment(cfg, args, noiseless=False):
    """The experiment of ``cfg`` with the flags of ``args`` applied; it
    reads :func:`effective_config`, so the manifest hashes what runs."""
    ec = effective_config(cfg, args)["experiment"]
    aoi_cfg = ec.get("aoi", {})
    aoi = AoiSpec(
        x_min=float(_get(aoi_cfg, "x_min_m", 0.1)),
        x_max=float(_get(aoi_cfg, "x_max_m", 3.1)),
        y_min=float(_get(aoi_cfg, "y_min_m", -1.5)),
        y_max=float(_get(aoi_cfg, "y_max_m", 1.5)),
        step=float(_get(aoi_cfg, "step_m", 0.1)),
        z=float(_get(aoi_cfg, "z_m", -0.5)))
    variants = tuple(ec.get("variants", ["gs-nf"]))
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r}; "
                              f"choose from {sorted(VARIANTS)}")
    try:
        return ExperimentConfig(
            scenario=build_scenario(cfg, noiseless=noiseless),
            layout=build_layout(cfg),
            grid=build_grid(cfg),
            aoi=aoi,
            truth_v=np.asarray(ec.get("truth_v_mps", DEFAULT_UE_VELOCITY),
                               dtype=float),
            runs=int(ec.get("runs", 25)),
            seed_base=int(ec.get("seed_base", 1)),
            variants=variants,
            threads=args.threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def atomic_write(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_manifest(out_dir, cfg, args, config, command, elapsed):
    lines = [
        f"config_hash {config_hash(effective_config(cfg, args))}",
        f"seed_base {config.seed_base}",
        f"command {command}",
        f"tool_version {__version__}",
        f"elapsed_s {elapsed:.3f}",
    ]
    atomic_write(os.path.join(out_dir, "manifest.txt"),
                 "\n".join(lines) + "\n")


def write_trace(trace, path):
    lines = ["# stage p_x_m p_y_m p_z_m v_x_mps v_y_mps v_z_mps "
             "cost iterations"]
    for rec in trace.records:
        fields = [rec.stage] + [f"{x:.12g}" for x in rec.p] \
            + [f"{x:.12g}" for x in rec.v] \
            + [f"{rec.cost:.12g}", str(rec.iterations)]
        lines.append(" ".join(fields))
    atomic_write(path, "\n".join(lines) + "\n")


def cmd_single(args):
    cfg = load_config(args.config)
    config = build_experiment(cfg, args, noiseless=args.noiseless)
    if len(config.variants) != 1:
        raise ConfigError(
            f"single runs one variant; experiment.variants lists "
            f"{len(config.variants)} (choose one with --variant)")
    truth_p = np.asarray(args.truth_p, dtype=float)
    if truth_p[0] <= 0:
        raise GeometryError("truth position must be in the front "
                            "half-space (x > 0)")
    variant, = config.variants
    use_pattern = VARIANTS[variant].use_pattern \
        and not args.no_antenna_pattern

    start = time.time()
    os.makedirs(args.out, exist_ok=True)
    model, snaps = draw_trial(config, truth_p, 0, 0, (use_pattern,))
    snap = snaps[use_pattern]
    save_snapshot(snap, config.scenario,
                  os.path.join(args.out, "snapshot.txt"))
    # One snapshot: the coarse search streams its table instead of
    # caching the 1.6 GB one a sweep shares.
    trace = estimate(snap.y, model, config.estimator_config(variant))
    write_trace(trace, os.path.join(args.out, "trace.txt"))
    write_manifest(args.out, cfg, args, config, "single",
                   time.time() - start)
    if trace.failures:
        for stage, exc in trace.failures:
            print(f"stage {stage} failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    p_fin, v_fin = trace.final
    print(f"p_hat {p_fin[0]:.6g} {p_fin[1]:.6g} {p_fin[2]:.6g} "
          f"v_hat {v_fin[0]:.6g} {v_fin[1]:.6g} {v_fin[2]:.6g}")
    return EXIT_OK


def cmd_sweep_aoi(args):
    cfg = load_config(args.config)
    config = build_experiment(cfg, args, noiseless=args.noiseless)
    start = time.time()
    os.makedirs(args.out, exist_ok=True)
    results = aoi_sweep(config)
    lines = ["# x_m y_m variant rmspe_m rmsve_mps mean_snr_db runs skipped"]
    for cell in results:
        for variant in config.variants:
            lines.append(
                f"{cell.truth_p[0]:.9g} {cell.truth_p[1]:.9g} {variant} "
                f"{cell.rmspe[variant]:.9g} {cell.rmsve[variant]:.9g} "
                f"{cell.mean_snr_db:.9g} {cell.run_count} "
                f"{cell.skipped[variant]}")
    atomic_write(os.path.join(args.out, "aoi_results.txt"),
                 "\n".join(lines) + "\n")
    write_manifest(args.out, cfg, args, config, "sweep-aoi",
                   time.time() - start)
    return EXIT_OK


def cmd_sweep_line(args):
    cfg = load_config(args.config)
    config = build_experiment(cfg, args, noiseless=args.noiseless)
    lc = cfg.get("experiment", {}).get("line", {})
    x_points = [float(x) for x in
                _get(lc, "x_points_m", [0.62, 1.1, 1.55, 1.94, 2.4])]
    y_fixed = float(_get(lc, "y_m", 0.0))
    z_fixed = float(_get(lc, "z_m", -0.5))
    start = time.time()
    os.makedirs(args.out, exist_ok=True)
    results = line_sweep(config, y_fixed, z_fixed, x_points)
    rows = line_table(results, config.truth_v)
    lines = ["# d_r_m variant stage label rmspe_m rmsve_mps runs skipped"]
    for row in rows:
        lines.append(
            f"{row['d_r']:.9g} {row['variant']} {row['stage']} "
            f"{row['label']} {row['rmspe_m']:.9g} {row['rmsve_mps']:.9g} "
            f"{row['runs']} {row['skipped']}")
    atomic_write(os.path.join(args.out, "line_results.txt"),
                 "\n".join(lines) + "\n")
    write_manifest(args.out, cfg, args, config, "sweep-line",
                   time.time() - start)
    return EXIT_OK


class _Once(argparse.Action):
    """A choice that may be given once, stored as a one-item list like a
    sweep's repeatable ``--variant``."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, [values])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="risloc",
        description="RIS-aided near-field position/velocity estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--noiseless", action="store_true")

    def sweep(p):
        common(p)
        p.add_argument("--runs", type=int, default=None)
        p.add_argument("--variant", action="append", default=None,
                       choices=sorted(VARIANTS))
        p.add_argument("--threads", type=int, default=1)

    p_single = sub.add_parser("single", help="one snapshot + estimate")
    common(p_single)
    p_single.add_argument("--variant", action=_Once, default=None,
                          choices=sorted(VARIANTS))
    # Sweeps take pattern-free data per variant (noap) instead.
    p_single.add_argument("--no-antenna-pattern", action="store_true")
    p_single.add_argument("--truth-p", type=float, nargs=3, required=True,
                          metavar=("X", "Y", "Z"))
    p_single.add_argument("--truth-v", type=float, nargs=3, default=None,
                          metavar=("VX", "VY", "VZ"))
    # build_experiment reads runs and threads, which a single trial has
    # no use for.
    p_single.set_defaults(func=cmd_single, runs=None, threads=1)

    p_aoi = sub.add_parser("sweep-aoi", help="Monte Carlo AOI sweep")
    sweep(p_aoi)
    p_aoi.set_defaults(func=cmd_sweep_aoi)

    p_line = sub.add_parser("sweep-line", help="distance line sweep")
    sweep(p_line)
    p_line.set_defaults(func=cmd_sweep_line)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except RislocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
