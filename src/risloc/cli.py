"""Command-line front end: single estimates and Monte Carlo sweeps.

Configuration is a YAML file mirroring the reference parameter table;
dB-valued fields carry a ``_db``/``_dbm`` suffix, SI fields a unit suffix
(``_m``, ``_hz``, ...). Grid axes are given in degrees (azimuth,
elevation) and meters (range).
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np
import yaml

from . import __version__
from .channel import (DEFAULT_UE_VELOCITY, Scenario, db_to_linear,
                      save_snapshot)
from .errors import ConfigError, GeometryError, RislocError
from .estimator import GridSpec, estimate
from .geometry import build_composite_ris
from .harness import (VARIANTS, AoiSpec, ExperimentConfig, aoi_sweep,
                      draw_trial, line_sweep, line_table)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_INTERNAL = 4


def _number(value):
    """A finite number as a float; a YAML boolean, which float() reads as
    0 or 1, is rejected, and so are .inf and .nan."""
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _integer(value):
    """An integral number as an int; 4.7 is rejected, not truncated."""
    if not _number(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _list(value, item=_number, count=None):
    """A YAML list as a tuple of ``item(x)``, ``count`` long if given."""
    if not isinstance(value, list) or count not in (None, len(value)):
        raise ValueError(f"expected a list of {count or 'any number of'} "
                         f"values, got {value!r}")
    return tuple(item(x) for x in value)


#: A 3-vector, or a grid axis [lo, hi, step].
_triple = partial(_list, count=3)


def _positions(value):
    """A non-empty list of positive x values, in front of the RIS."""
    xs = _list(value)
    if not (xs and all(x > 0 for x in xs)):
        raise ValueError("expected one or more positive values, "
                         f"got {value!r}")
    return xs


#: Every key a config file may hold, as ``{section: {yaml_key: (keyword,
#: converter)}}``; a nested dict is a section. A section's keys become
#: keyword arguments of the object it builds, so a key the file leaves
#: out takes that object's default. A key the code does not read is
#: rejected rather than silently ignored.
_CONFIG = {
    "scenario": {
        "f_hz": ("f", _number),
        "p_tx_dbm": ("tx_power", lambda v: 10.0 ** ((_number(v) - 30) / 10)),
        "g_bs_db": ("bs_gain", lambda v: db_to_linear(_number(v))),
        "g_ue_db": ("ue_gain", lambda v: db_to_linear(_number(v))),
        "nf_db": ("noise_figure", lambda v: db_to_linear(_number(v))),
        "t_k": ("temperature", _number),
        "b_hz": ("bandwidth", _number),
        "p_bs_m": ("bs_position", _triple),
        "t_s_s": ("sample_time", _number),
        "l_samples": ("num_samples", _integer),
        "reflection_phases_deg": ("reflection_set", lambda v: tuple(
            np.exp(1j * 2 * np.pi * np.asarray(_list(v)) / 360.0))),
    },
    "layout": {
        "cell_size_m": ("cell_dims", lambda v: (_number(v),) * 2),
        "tile_offsets_m": ("tile_offsets",
                           lambda v: np.array(_list(v, _list))),
        "cell_spacing_m": ("spacing", _number),
    },
    "grid": {"az_deg": ("azimuth_deg", _triple),
             "el_deg": ("elevation_deg", _triple),
             "r_m": ("range_m", _triple)},
    "experiment": {
        "runs": ("runs", _integer),
        "seed_base": ("seed_base", _integer),
        "variants": ("variants", lambda v: _list(v, str)),
        "truth_v_mps": ("truth_v", lambda v: np.array(_triple(v))),
        "line": {"x_points_m": ("x_points", _positions),
                 "y_m": ("y_fixed", _number), "z_m": ("z_fixed", _number)},
        "aoi": {"x_min_m": ("x_min", _number), "x_max_m": ("x_max", _number),
                "y_min_m": ("y_min", _number), "y_max_m": ("y_max", _number),
                "step_m": ("step", _number), "z_m": ("z", _number)},
    },
}

def load_config(path):
    """Load a YAML config file and reject keys the code does not read."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(cfg, _CONFIG, "")
    return cfg


def _check_keys(section, known, prefix):
    for key, value in section.items():
        name = f"{prefix}{key}"
        if key not in known:
            raise ConfigError(f"unknown config key: {name}")
        if isinstance(known[key], dict):
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
    for key, value in (("seed_base", args.seed), ("variants", args.variant),
                       ("runs", getattr(args, "runs", None))):
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


def _build(make, cfg, name, **kwargs):
    """``make(**kwargs)`` with the keys that section ``name`` (dotted) of
    ``cfg`` sets, each converted by its entry in :data:`_CONFIG`, added
    to ``kwargs``; a value the object rejects is a config error too."""
    section, table = cfg, _CONFIG
    for part in name.split("."):
        section, table = section.get(part, {}), table[part]
    for key, value in section.items():
        if isinstance(table[key], dict):
            continue
        keyword, convert = table[key]
        if value is None:
            raise ConfigError(f"missing config key: {name}.{key}")
        try:
            kwargs[keyword] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid {name}.{key}: {exc}") from exc
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def build_scenario(cfg):
    scenario = _build(Scenario, cfg, "scenario")
    noiseless = cfg.get("flags", {}).get("noiseless")
    return scenario.noiseless() if noiseless else scenario


def build_grid(cfg):
    return _build(GridSpec, cfg, "grid")


def build_line(cfg):
    """The keyword arguments of ``line_sweep`` that the config sets; the
    rest keep ``line_sweep``'s defaults."""
    return _build(dict, cfg, "experiment.line")


def build_experiment(cfg, args):
    """The experiment of ``cfg`` with the flags of ``args`` applied. Apart
    from the thread count it reads only :func:`effective_config`, so the
    manifest hashes what runs. Every command checks the line section."""
    eff = effective_config(cfg, args)
    build_line(eff)
    threads = getattr(args, "threads", None)
    return _build(ExperimentConfig, eff, "experiment",
                  scenario=build_scenario(eff),
                  layout=_build(build_composite_ris, eff, "layout"),
                  grid=build_grid(eff),
                  aoi=_build(AoiSpec, eff, "experiment.aoi"),
                  **({} if threads is None else {"threads": threads}))


def atomic_write(path, lines):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def write_manifest(out_dir, cfg, args, config, elapsed):
    lines = [
        f"config_hash {config_hash(effective_config(cfg, args))}",
        f"seed_base {config.seed_base}",
        f"command {args.command}",
        f"tool_version {__version__}",
        f"elapsed_s {elapsed:.3f}",
    ]
    atomic_write(os.path.join(out_dir, "manifest.txt"), lines)


def write_trace(trace, path):
    lines = ["# stage p_x_m p_y_m p_z_m v_x_mps v_y_mps v_z_mps "
             "cost iterations"]
    for rec in trace.records:
        fields = [rec.stage] + [f"{x:.12g}" for x in rec.p] \
            + [f"{x:.12g}" for x in rec.v] \
            + [f"{rec.cost:.12g}", str(rec.iterations)]
        lines.append(" ".join(fields))
    atomic_write(path, lines)


def check_single(args, config):
    """Reject a trial ``single`` cannot run: more than one variant, a
    non-finite truth position, or a truth trajectory p + l*T*v (l < L)
    that leaves x > 0; the motion is linear, so its two ends decide."""
    if len(config.variants) != 1:
        raise ConfigError(
            f"single runs one variant; experiment.variants lists "
            f"{len(config.variants)} (choose one with --variant)")
    truth_p = np.asarray(args.truth_p, dtype=float)
    if not np.all(np.isfinite(truth_p)):
        raise ConfigError(f"--truth-p must be finite, got {args.truth_p}")
    scenario = config.scenario
    x_end = truth_p[0] + (scenario.num_samples - 1) \
        * scenario.sample_time * config.truth_v[0]
    if min(truth_p[0], x_end) <= 0:
        raise GeometryError("truth trajectory must stay in the front "
                            "half-space (x > 0)")


def cmd_single(args, cfg, config):
    truth_p = np.asarray(args.truth_p, dtype=float)
    variant, = config.variants
    use_pattern = VARIANTS[variant].use_pattern \
        and not args.no_antenna_pattern
    model, snaps = draw_trial(config, truth_p, 0, 0, (use_pattern,))
    snap = snaps[use_pattern]
    save_snapshot(snap, config.scenario,
                  os.path.join(args.out, "snapshot.txt"))
    # One snapshot: the coarse search streams its table instead of
    # caching the 1.6 GB one a sweep shares.
    trace = estimate(snap.y, model, config.estimator_config(variant))
    write_trace(trace, os.path.join(args.out, "trace.txt"))
    if trace.failures:
        for stage, exc in trace.failures:
            print(f"stage {stage} failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    p_fin, v_fin = trace.final
    print(f"p_hat {p_fin[0]:.6g} {p_fin[1]:.6g} {p_fin[2]:.6g} "
          f"v_hat {v_fin[0]:.6g} {v_fin[1]:.6g} {v_fin[2]:.6g}")
    return EXIT_OK


def cmd_sweep_aoi(args, cfg, config):
    lines = ["# x_m y_m variant rmspe_m rmsve_mps mean_snr_db runs skipped "
             "in_coverage"]
    for cell in aoi_sweep(config):
        for variant in config.variants:
            lines.append(
                f"{cell.truth_p[0]:.9g} {cell.truth_p[1]:.9g} {variant} "
                f"{cell.rmspe[variant]:.9g} {cell.rmsve[variant]:.9g} "
                f"{cell.mean_snr_db:.9g} {cell.run_count} "
                f"{cell.skipped[variant]} {int(cell.in_coverage)}")
    atomic_write(os.path.join(args.out, "aoi_results.txt"), lines)
    return EXIT_OK


def cmd_sweep_line(args, cfg, config):
    results = line_sweep(config, **build_line(cfg))
    lines = ["# d_r_m variant stage label rmspe_m rmsve_mps runs skipped"]
    for row in line_table(results, config.truth_v):
        lines.append(
            f"{row['d_r']:.9g} {row['variant']} {row['stage']} "
            f"{row['label']} {row['rmspe_m']:.9g} {row['rmsve_mps']:.9g} "
            f"{row['runs']} {row['skipped']}")
    atomic_write(os.path.join(args.out, "line_results.txt"), lines)
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
        p.add_argument("--threads", type=int, default=None)

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
    p_single.set_defaults(func=cmd_single)

    p_aoi = sub.add_parser("sweep-aoi", help="Monte Carlo AOI sweep")
    sweep(p_aoi)
    p_aoi.set_defaults(func=cmd_sweep_aoi)

    p_line = sub.add_parser("sweep-line", help="distance line sweep")
    sweep(p_line)
    p_line.set_defaults(func=cmd_sweep_line)
    return parser


def main(argv=None):
    """Run one command: build and check the whole run, then make the
    output directory; the manifest is written last, if nothing raised."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        config = build_experiment(cfg, args)
        if args.command == "single":
            check_single(args, config)
        start = time.perf_counter()
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {args.out}: "
                              f"{exc.strerror or exc}") from exc
        code = args.func(args, cfg, config)
        write_manifest(args.out, cfg, args, config,
                       time.perf_counter() - start)
        return code
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
