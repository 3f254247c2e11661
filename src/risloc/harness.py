"""Monte Carlo experiment driver: per-point trials, AOI sweeps and the
distance line sweep with algorithm-variant ablations.

Snapshots for all trials of one evaluation point are generated up front
and scored against the cached coarse grid in a single batch, which is the
dominant cost; the refinement stages then run per trial.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import channel, estimator
from .channel import (DEFAULT_UE_VELOCITY, default_scenario, draw_codebook,
                      generate_snapshot)
from .errors import EmptyInput
from .estimator import (CF_MAX_ITER, EstimatorConfig, build_steering_model,
                        default_coarse_grid, estimate, nf_grid_search_batch)
from .geometry import build_composite_ris

_M64 = (1 << 64) - 1


def splitmix64(state):
    """One splitmix64 step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def mix_seed(*parts):
    """Deterministically mix integers into one 64-bit seed."""
    state = 0x243F6A8885A308D3
    out = 0
    for part in parts:
        # Diffuse each part before folding it in; small sequential
        # indices would otherwise only perturb the low state bits and
        # collide across (point, run) combinations.
        _, h = splitmix64(int(part) & _M64)
        state, out = splitmix64(state ^ h)
    return out


def trial_seeds(seed_base, point_index, run_index):
    """(codebook_seed, noise_seed) for one trial.

    The derivation does not involve the algorithm variant, so all variants
    of one trial see the same codebook and noise realization; variant
    comparisons are paired.
    """
    return (mix_seed(seed_base, point_index, run_index, 1),
            mix_seed(seed_base, point_index, run_index, 2))


@dataclass(frozen=True)
class Variant:
    """One algorithm variant of the estimation pipeline."""

    gs_variant: str     # "nf" | "ff" | "nf-fine" (estimator naming)
    use_pattern: bool   # antenna pattern in the generative model


VARIANTS = {
    "gs-ff": Variant(gs_variant="ff", use_pattern=True),
    "gs-nf": Variant(gs_variant="nf", use_pattern=True),
    "gs-nf-fine": Variant(gs_variant="nf-fine", use_pattern=True),
    "noap": Variant(gs_variant="nf-fine", use_pattern=False),
}

#: Headline label of a (variant, stage) pair in the line-sweep table.
_STAGE_LABELS = {
    ("gs-ff", "GS"): "GS-FF",
    ("gs-nf", "GS"): "GS-NF",
    ("gs-nf-fine", "GS-fine"): "GS-NF-fine",
    ("gs-nf", "CF"): "CF",
    ("gs-nf", "6D"): "6D",
    ("noap", "6D"): "6D-noAP",
}


def stage_label(variant, stage):
    return _STAGE_LABELS.get((variant, stage), f"{stage} ({variant})")


@dataclass(frozen=True)
class AoiSpec:
    """Rectangular evaluation region at fixed height."""

    x_min: float = 0.1
    x_max: float = 3.1
    y_min: float = -1.5
    y_max: float = 1.5
    step: float = 0.1
    z: float = -0.5

    def grid_points(self):
        """Row-major (x outer, y inner) list of evaluation positions."""
        xs = np.arange(self.x_min, self.x_max + 0.5 * self.step, self.step)
        ys = np.arange(self.y_min, self.y_max + 0.5 * self.step, self.step)
        return [np.array([x, y, self.z]) for x in xs for y in ys]


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: channel.Scenario = field(default_factory=default_scenario)
    layout: object = field(default_factory=build_composite_ris)
    grid: estimator.GridSpec = field(default_factory=default_coarse_grid)
    aoi: AoiSpec = field(default_factory=AoiSpec)
    truth_v: np.ndarray = field(
        default_factory=lambda: DEFAULT_UE_VELOCITY.copy())
    runs: int = 25
    seed_base: int = 1
    variants: tuple = ("gs-nf",)
    max_refine_iter: int = CF_MAX_ITER
    threads: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        for name in self.variants:
            if name not in VARIANTS:
                raise ValueError(f"unknown variant {name!r}")

    def estimator_config(self, variant):
        return EstimatorConfig(gs_variant=VARIANTS[variant].gs_variant,
                               grid=self.grid,
                               max_refine_iter=self.max_refine_iter)


@dataclass
class TrialResult:
    """Errors of one trial; stage_errors maps stage -> (perr, verr)."""

    position_error: float
    velocity_error: float
    mean_snr_db: float
    stage_errors: dict
    trace: estimator.EstimateTrace
    skipped: bool


@dataclass
class CellResult:
    truth_p: np.ndarray
    rmspe: dict              # variant -> m
    rmsve: dict              # variant -> m/s
    mean_snr_db: float
    run_count: int
    skipped: dict            # variant -> trials left out of the RMS


@dataclass
class PointResult:
    """Full per-trial traces of one evaluation point (line sweep)."""

    truth_p: np.ndarray
    d_r: float
    traces: dict             # variant -> list of EstimateTrace
    mean_snr_db: float
    skipped: dict            # variant -> trials left out of the RMS


def rms(errors):
    """Root mean square of a non-empty sequence of values."""
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise EmptyInput("rms of an empty sequence")
    return float(np.sqrt(np.mean(arr ** 2)))


def _trace_errors(trace, truth_p, truth_v):
    return {rec.stage: (float(np.linalg.norm(rec.p - truth_p)),
                        float(np.linalg.norm(rec.v - truth_v)))
            for rec in trace.records}


def _trial_skipped(trace):
    """A trial any of whose stages failed is left out of the RMS."""
    return bool(trace.failures)


def _skipped(traces):
    """Skipped trials per variant."""
    return {v: sum(map(_trial_skipped, tlist)) for v, tlist in traces.items()}


def _point_traces(config, truth_p, point_index, variants=None):
    """Run all trials and variants at one point with a shared coarse GS.

    Returns (traces, mean_snr_db, skipped) where traces maps
    variant -> list of EstimateTrace over runs and skipped maps variant ->
    skipped trials.
    """
    variants = list(variants if variants is not None else config.variants)
    scenario = config.scenario
    layout = config.layout
    need_on = any(VARIANTS[v].use_pattern for v in variants)
    need_off = any(not VARIANTS[v].use_pattern for v in variants)

    models, snaps_on, snaps_off = [], [], []
    for run in range(config.runs):
        cb_seed, noise_seed = trial_seeds(config.seed_base, point_index, run)
        codebook = draw_codebook(layout.num_cells, scenario.num_samples,
                                 scenario.reflection_set, cb_seed)
        models.append(build_steering_model(layout, codebook, scenario))
        snaps_on.append(generate_snapshot(
            truth_p, config.truth_v, layout, codebook, scenario,
            noise_seed, use_pattern=True) if need_on else None)
        snaps_off.append(generate_snapshot(
            truth_p, config.truth_v, layout, codebook, scenario,
            noise_seed, use_pattern=False) if need_off else None)

    # Which snapshots need a coarse NF result, per run.
    nf_on = any(VARIANTS[v].use_pattern and VARIANTS[v].gs_variant != "ff"
                for v in variants)
    nf_off = need_off
    entries = []
    for run in range(config.runs):
        ys = []
        if nf_on:
            ys.append(snaps_on[run].y)
        if nf_off:
            ys.append(snaps_off[run].y)
        entries.append((models[run], ys))
    coarse = nf_grid_search_batch(entries, config.grid) \
        if any(ys for _, ys in entries) else [[] for _ in entries]

    trials = []
    for run in range(config.runs):
        run_coarse = list(coarse[run])
        coarse_on = run_coarse.pop(0) if nf_on else None
        coarse_off = run_coarse.pop(0) if nf_off else None
        for v in variants:
            spec = VARIANTS[v]
            init = None
            if spec.gs_variant != "ff":
                init = coarse_on if spec.use_pattern else coarse_off
            trials.append((run, v, init))

    # A fine search builds one table per coarse cell; run the fine trials
    # last, grouped by cell, so that each table is built once.
    def cell_order(trial):
        _, v, init = trial
        if VARIANTS[v].gs_variant != "nf-fine":
            return (0,)
        coord = init[0]
        return (1, coord.azimuth, coord.elevation, coord.range_m)

    traces = {v: [None] * config.runs for v in variants}
    for run, v, init in sorted(trials, key=cell_order):
        snap = snaps_on[run] if VARIANTS[v].use_pattern else snaps_off[run]
        traces[v][run] = estimate(snap.y, models[run],
                                  config.estimator_config(v),
                                  coarse_result=init)

    ref_snaps = snaps_on if need_on else snaps_off
    finite = [s.snr_per_sample[np.isfinite(s.snr_per_sample)]
              for s in ref_snaps]
    snr_values = np.concatenate([f for f in finite if f.size]) \
        if any(f.size for f in finite) else np.array([np.inf])
    mean_snr = float(np.mean(snr_values))
    return traces, mean_snr, _skipped(traces)


def run_trial(config, truth_p, variant, run_index, point_index=0):
    """Run one Monte Carlo trial of one variant at one point.

    The trial draws the same seeds as run ``run_index`` of point
    ``point_index`` in :func:`_point_traces`, but runs its own coarse grid
    search instead of sharing the batched one.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    scenario = config.scenario
    layout = config.layout
    spec = VARIANTS[variant]
    cb_seed, noise_seed = trial_seeds(config.seed_base, point_index,
                                      run_index)
    codebook = draw_codebook(layout.num_cells, scenario.num_samples,
                             scenario.reflection_set, cb_seed)
    model = build_steering_model(layout, codebook, scenario)
    snap = generate_snapshot(truth_p, config.truth_v, layout, codebook,
                             scenario, noise_seed,
                             use_pattern=spec.use_pattern)
    trace = estimate(snap.y, model, config.estimator_config(variant))
    p_fin, v_fin = trace.final
    finite = snap.snr_per_sample[np.isfinite(snap.snr_per_sample)]
    return TrialResult(
        position_error=float(np.linalg.norm(p_fin - np.asarray(truth_p))),
        velocity_error=float(np.linalg.norm(v_fin - config.truth_v)),
        mean_snr_db=float(np.mean(finite)) if finite.size else np.inf,
        stage_errors=_trace_errors(trace, np.asarray(truth_p),
                                   config.truth_v),
        trace=trace,
        skipped=_trial_skipped(trace))


def _cell_from_traces(truth_p, traces, mean_snr, truth_v):
    rmspe, rmsve = {}, {}
    for variant, tlist in traces.items():
        kept = [t for t in tlist if not _trial_skipped(t)]
        if not kept:
            rmspe[variant] = rmsve[variant] = float("nan")
            continue
        perr = [np.linalg.norm(t.final[0] - truth_p) for t in kept]
        verr = [np.linalg.norm(t.final[1] - truth_v) for t in kept]
        rmspe[variant] = rms(perr)
        rmsve[variant] = rms(verr)
    return CellResult(truth_p=truth_p, rmspe=rmspe, rmsve=rmsve,
                      mean_snr_db=mean_snr,
                      run_count=len(next(iter(traces.values()))),
                      skipped=_skipped(traces))


def _map_points(config, fn, points):
    if config.threads <= 1:
        return [fn(i, p) for i, p in enumerate(points)]
    # Workers share the cached grid table: the first search builds it
    # under the cache lock while the others wait for it.
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        return list(pool.map(lambda ip: fn(*ip), enumerate(points)))


def aoi_sweep(config):
    """Evaluate every AOI grid point; returns row-major CellResult list."""
    points = config.aoi.grid_points()

    def one_point(index, truth_p):
        traces, mean_snr, _ = _point_traces(config, truth_p, index)
        return _cell_from_traces(truth_p, traces, mean_snr, config.truth_v)

    return _map_points(config, one_point, points)


def line_sweep(config, y_fixed, z_fixed, x_points):
    """Stage-wise errors along a line parallel to the x-axis.

    Returns a list of PointResult ordered as ``x_points``; use
    :func:`line_table` for the flat per-stage RMS table.
    """
    x_points = list(x_points)
    if any(x <= 0 for x in x_points):
        raise ValueError("x_points must be positive (front of the RIS)")
    points = [np.array([x, y_fixed, z_fixed]) for x in x_points]

    def one_point(index, truth_p):
        traces, mean_snr, skipped = _point_traces(config, truth_p, index)
        return PointResult(truth_p=truth_p,
                           d_r=float(np.linalg.norm(truth_p)),
                           traces=traces, mean_snr_db=mean_snr,
                           skipped=skipped)

    return _map_points(config, one_point, points)


def line_table(results, truth_v):
    """Flatten line-sweep results to per-(point, variant, stage) RMS rows.

    Each row is a dict with keys d_r, variant, stage, label, rmspe_m,
    rmsve_mps, runs, skipped.
    """
    rows = []
    for res in results:
        for variant, tlist in res.traces.items():
            kept = [t for t in tlist if not _trial_skipped(t)]
            if not kept:
                continue
            stages = [rec.stage for rec in kept[0].records]
            for stage in stages:
                perr = [np.linalg.norm(t.stage_named(stage).p - res.truth_p)
                        for t in kept]
                verr = [np.linalg.norm(t.stage_named(stage).v - truth_v)
                        for t in kept]
                rows.append({"d_r": res.d_r, "variant": variant,
                             "stage": stage,
                             "label": stage_label(variant, stage),
                             "rmspe_m": rms(perr), "rmsve_mps": rms(verr),
                             "runs": len(kept),
                             "skipped": len(tlist) - len(kept)})
    return rows
