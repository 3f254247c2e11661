"""Monte Carlo experiment driver: per-point trials, AOI sweeps and the
distance line sweep with algorithm-variant ablations.

Every trial, in the sweeps and in ``risloc single`` alike, is drawn by
:func:`draw_trial`: the codebook and noise seeds of (point, run) give the
steering model and one snapshot per antenna-pattern setting. A sweep
splits its points into contiguous groups of whole points, draws every
trial of a group first and scores all their snapshots against the cached
coarse grid in a single batch: each pass reads the whole table, so
sharing it among the points of a group is what makes the coarse search,
the dominant cost, cheap per trial. The refinement stages then run per
trial.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import channel, estimator
from .channel import (DEFAULT_UE_VELOCITY, default_scenario, draw_codebook,
                      generate_snapshot)
from .errors import EmptyInput
from .estimator import (EstimatorConfig, build_steering_model,
                        default_coarse_grid, estimate, nf_grid_search_batch)
from .geometry import build_composite_ris

_M64 = (1 << 64) - 1

#: Most models (runs) scored in one coarse pass. A cached pass reads the
#: whole coarse table whatever it scores, so its cost per model falls
#: from 0.37 s alone to 0.13 s at 8 models and 0.11 s from 24 to 48,
#: then rises again (2 snapshots per model, one BLAS thread; CHANGES.md).
_GROUP_MODELS = 32


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

    def __post_init__(self):
        if not (self.step > 0 and self.x_min <= self.x_max
                and self.y_min <= self.y_max):
            raise ValueError("the AOI is empty or its step is not positive")
        if not self.x_min > 0:
            raise ValueError("x_min must be positive (front of the RIS)")

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
    threads: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not self.variants or not set(self.variants) <= VARIANTS.keys():
            raise ValueError(f"variants {list(self.variants)} must be one "
                             f"or more of {sorted(VARIANTS)}")
        if len(set(self.variants)) < len(self.variants):
            raise ValueError(f"variants {list(self.variants)} name a "
                             f"variant more than once")

    def estimator_config(self, variant):
        return EstimatorConfig(gs_variant=VARIANTS[variant].gs_variant,
                               grid=self.grid)


@dataclass
class CellResult:
    truth_p: np.ndarray
    rmspe: dict              # variant -> m
    rmsve: dict              # variant -> m/s
    mean_snr_db: float
    run_count: int
    skipped: dict            # variant -> trials left out of the RMS
    in_coverage: bool        # truth direction inside the grid's axes


@dataclass
class PointResult:
    """Full per-trial traces of one evaluation point (line sweep)."""

    truth_p: np.ndarray
    d_r: float
    traces: dict             # variant -> list of EstimateTrace
    mean_snr_db: float


def rms(errors):
    """Root mean square of a non-empty sequence of values."""
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise EmptyInput("rms of an empty sequence")
    return float(np.sqrt(np.mean(arr ** 2)))


def draw_trial(config, truth_p, point_index, run, patterns):
    """The seeded draw of run ``run`` at point ``point_index``.

    Returns the steering model and a dict mapping each antenna-pattern
    flag in ``patterns`` to its snapshot; all snapshots share the trial's
    codebook and noise seed.
    """
    scenario, layout = config.scenario, config.layout
    cb_seed, noise_seed = trial_seeds(config.seed_base, point_index, run)
    codebook = draw_codebook(layout.num_cells, scenario.num_samples,
                             scenario.reflection_set, cb_seed)
    snaps = {pattern: generate_snapshot(truth_p, config.truth_v, layout,
                                        codebook, scenario, noise_seed,
                                        use_pattern=pattern)
             for pattern in patterns}
    return build_steering_model(layout, codebook, scenario), snaps


def _group_traces(config, truth_ps, first_index):
    """Run all trials and variants at consecutive points with one shared
    coarse pass.

    ``truth_ps`` are the points ``first_index``, ``first_index + 1``, ...
    of the sweep. Every trial of every point is drawn first, then the
    coarse searches of all of them are scored in one batch. Returns, per
    point, (traces, mean_snr_db) where traces maps variant -> list of
    EstimateTrace over runs.
    """
    specs = {v: VARIANTS[v] for v in config.variants}
    # Pattern-on first: the coarse batch lists each run's snapshots in
    # this order, and the mean SNR is read from the first pattern.
    patterns = sorted({s.use_pattern for s in specs.values()}, reverse=True)
    nf_patterns = sorted({s.use_pattern for s in specs.values()
                          if s.gs_variant != "ff"}, reverse=True)
    draws = [draw_trial(config, truth_p, first_index + i, run, patterns)
             for i, truth_p in enumerate(truth_ps)
             for run in range(config.runs)]
    coarse = nf_grid_search_batch(
        [(model, [snaps[pat].y for pat in nf_patterns])
         for model, snaps in draws], config.grid) \
        if nf_patterns else [[]] * len(draws)

    # Trial k is run k % runs of point k // runs.
    trials = []
    for k, draw_coarse in enumerate(coarse):
        run_coarse = dict(zip(nf_patterns, draw_coarse))
        for v, spec in specs.items():
            init = None if spec.gs_variant == "ff" \
                else run_coarse[spec.use_pattern]
            trials.append((k, v, init))

    # A fine search builds one table per coarse cell; run the fine trials
    # last, grouped by cell across all points, so that each table is
    # built once.
    def cell_order(trial):
        _, v, init = trial
        if specs[v].gs_variant != "nf-fine":
            return (0,)
        coord = init[0]
        return (1, coord.azimuth, coord.elevation, coord.range_m)

    traces = [{v: [None] * config.runs for v in specs} for _ in truth_ps]
    for k, v, init in sorted(trials, key=cell_order):
        model, snaps = draws[k]
        point, run = divmod(k, config.runs)
        traces[point][v][run] = estimate(snaps[specs[v].use_pattern].y,
                                         model, config.estimator_config(v),
                                         coarse_result=init)

    out = []
    for point, point_traces in enumerate(traces):
        snr = np.concatenate([
            snaps[patterns[0]].snr_per_sample for _, snaps in
            draws[point * config.runs:(point + 1) * config.runs]])
        snr = snr[np.isfinite(snr)]
        out.append((point_traces, float(np.mean(snr)) if snr.size
                    else np.inf))
    return out


def _stage_rms(tlist, stage, truth_p, truth_v):
    """(rmspe, rmsve, runs) at ``stage`` over the trials of ``tlist`` that
    no stage failed in; NaN errors if there are none."""
    kept = [t.stage_named(stage) for t in tlist if not t.failures]
    if not kept:
        return float("nan"), float("nan"), 0
    return (rms([np.linalg.norm(rec.p - truth_p) for rec in kept]),
            rms([np.linalg.norm(rec.v - truth_v) for rec in kept]),
            len(kept))


def _cell_from_traces(truth_p, traces, mean_snr, truth_v, in_coverage):
    """Cell of final-stage (6D) errors per variant."""
    rmspe, rmsve, skipped = {}, {}, {}
    for variant, tlist in traces.items():
        rmspe[variant], rmsve[variant], runs = _stage_rms(
            tlist, "6D", truth_p, truth_v)
        skipped[variant] = len(tlist) - runs
    return CellResult(truth_p=truth_p, rmspe=rmspe, rmsve=rmsve,
                      mean_snr_db=mean_snr,
                      run_count=len(next(iter(traces.values()))),
                      skipped=skipped, in_coverage=in_coverage)


def _sweep_traces(config, points):
    """(traces, mean_snr_db) of every point, in order.

    The points are split into contiguous groups of whole points, each
    scored in one coarse pass of at most _GROUP_MODELS models (a point
    with more runs than that forms a group of its own), and into at least
    ``config.threads`` groups so that every pool thread has one. Each
    pool task is one group.
    """
    n = len(points)
    per_group = max(1, _GROUP_MODELS // config.runs)
    count = min(n, max(config.threads, -(-n // per_group)))
    groups = [range(n * g // count, n * (g + 1) // count)
              for g in range(count)]

    def run(group):
        return _group_traces(config, points[group.start:group.stop],
                             group.start)

    if config.threads <= 1:
        results = list(map(run, groups))
    else:
        # Workers share the coarse and far-field tables: the first search
        # builds each under its slot's lock while the others wait for it.
        # Each worker keeps its own fine table.
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run, groups))
    return [res for group in results for res in group]


def aoi_sweep(config):
    """Evaluate every AOI grid point; returns row-major CellResult list."""
    points = config.aoi.grid_points()
    return [_cell_from_traces(truth_p, traces, mean_snr, config.truth_v,
                              config.grid.covers(truth_p))
            for truth_p, (traces, mean_snr)
            in zip(points, _sweep_traces(config, points))]


def line_sweep(config, y_fixed=0.0, z_fixed=-0.5,
               x_points=(0.62, 1.1, 1.55, 1.94, 2.4)):
    """Stage-wise errors along a line parallel to the x-axis; the
    defaults are the reference line's points.

    Returns a list of PointResult ordered as ``x_points``; use
    :func:`line_table` for the flat per-stage RMS table.
    """
    x_points = list(x_points)
    if any(x <= 0 for x in x_points):
        raise ValueError("x_points must be positive (front of the RIS)")
    points = [np.array([x, y_fixed, z_fixed]) for x in x_points]
    return [PointResult(truth_p=truth_p, d_r=float(np.linalg.norm(truth_p)),
                        traces=traces, mean_snr_db=mean_snr)
            for truth_p, (traces, mean_snr)
            in zip(points, _sweep_traces(config, points))]


def line_table(results, truth_v):
    """Flatten line-sweep results to per-(point, variant, stage) RMS rows.

    Each row is a dict with keys d_r, variant, stage, label, rmspe_m,
    rmsve_mps, runs, skipped.
    """
    rows = []
    for res in results:
        for variant, tlist in res.traces.items():
            for stage in [rec.stage for rec in tlist[0].records]:
                rmspe, rmsve, runs = _stage_rms(tlist, stage, res.truth_p,
                                                truth_v)
                if runs:
                    rows.append({"d_r": res.d_r, "variant": variant,
                                 "stage": stage,
                                 "label": stage_label(variant, stage),
                                 "rmspe_m": rmspe, "rmsve_mps": rmsve,
                                 "runs": runs,
                                 "skipped": len(tlist) - runs})
    return rows
