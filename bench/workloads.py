"""The three workloads and the metrics they report.

Each workload runs in a fresh process: an untimed set-up (imports, layout
and a fixed accuracy panel whose first grid search builds the coarse
steering table), a timed phase of whole rounds until ``seconds`` have
passed, then the correctness checks on every operation. See README.md
for what each workload stresses and why.
"""

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from risloc import channel, estimator, geometry, harness
from risloc.geometry import SphericalCoord
from risloc.harness import AoiSpec, ExperimentConfig

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"

#: Seed of the accuracy panel. The panel does not follow --seed: the RMS
#: error over the few trials a run can afford spreads by tens of percent
#: between noise draws, so a fixed panel is what lets rmspe_mm and
#: rmsve_mps carry a bound; any change to the estimator's output moves it.
PANEL_SEED = 9001

LINE_X = (0.8, 1.2, 1.6, 2.0)
LINE_Y, LINE_Z = 0.0, -0.5
#: (ranges, variants) of the sweeps in one line round. The far-field GS
#: runs only from 1.6 m: below that its CF stage raises SingularSystemError
#: on some noise draws (0.8 m and 1.0 m), and an operation that fails on
#: some seeds only cannot be counted steadily.
LINE_LEGS = (((0.8, 1.2), ("gs-nf", "gs-nf-fine", "noap")),
             ((1.6, 2.0), ("gs-ff", "gs-nf", "gs-nf-fine", "noap")))

#: 16 points over the 3 m x 3 m area at z = -0.5 m. The area's x = 0.1 m
#: edge is left out: there the truth lies outside the coarse grid's
#: +/-70 deg coverage and the estimator cannot reach it.
AOI_LATTICE = AoiSpec(x_min=0.7, x_max=3.1, y_min=-1.2, y_max=1.2,
                      step=0.8, z=-0.5)
AOI_PANEL = AoiSpec(x_min=1.1, x_max=2.7, y_min=-0.8, y_max=0.8,
                    step=1.6, z=-0.5)
COVERAGE_MARGIN_DEG = 10.0

SINGLE_POSITIONS = ((2.0, 0.0, -0.5), (1.2, 0.6, -0.5),
                    (0.9, -0.7, -0.5), (2.6, 1.0, -0.5))
SINGLE_PANEL = (1.5, 0.3, -0.5)

NF_FAMILY = ("gs-nf", "gs-nf-fine", "noap")
#: A final position error above this counts as an outlier (escape).
OUTLIER_M = 1.0
STAGES = {"gs-ff": ("GS", "CF", "6D"), "gs-nf": ("GS", "CF", "6D"),
          "gs-nf-fine": ("GS", "GS-fine", "CF", "6D"),
          "noap": ("GS", "GS-fine", "CF", "6D")}
LAYERS = ("geometry", "channel", "estimator", "harness", "cli")


class Trial:
    """One checked trial-variant estimate."""

    def __init__(self, variant, truth_p, truth_v, stages, failures, panel):
        self.variant = variant
        self.truth_p = np.asarray(truth_p, dtype=float)
        self.truth_v = np.asarray(truth_v, dtype=float)
        self.stages = stages          # [(stage, p, v, cost)]
        self.failures = failures      # [reason]
        self.panel = panel
        self.cost_over_truth = None

    def errors(self, stage=-1):
        _, p, v, _ = self.stages[stage]
        return (float(np.linalg.norm(p - self.truth_p)),
                float(np.linalg.norm(v - self.truth_v)))


class Run:
    """State shared by the phases of one benchmark process."""

    def __init__(self, args, t0):
        self.args = args
        self.t0 = t0
        self.tracer = spans.Tracer() \
            if args.trace and args.workload != "single" else None
        if self.tracer:
            self.tracer.install()
        self.scenario = channel.default_scenario()
        self.layout = geometry.build_composite_ris()
        self.trials = []
        self.setup_s = None
        self.timed_start = self.timed_wall = None
        self.ops_timed = 0
        self.structural = []     # problems that make the whole run wrong

    def in_round(self, fn):
        if self.tracer:
            return self.tracer.call("bench.round", fn)
        return fn()


# ---------------------------------------------------------------------------
# line and aoi: harness sweeps in process


def _variant_names():
    return {(v.gs_variant, v.use_pattern): name
            for name, v in harness.VARIANTS.items()}


def _sweep(run, config, sweep, points, panel):
    """One round: run ``sweep`` with every estimate captured, then keep
    the captured traces for the checks."""
    captured = []
    inner = harness.estimate

    def capture(y, model, est_config, coarse_result=None):
        trace = inner(y, model, est_config, coarse_result=coarse_result)
        captured.append((y, est_config.gs_variant, trace))
        return trace

    harness.estimate = capture
    try:
        run.in_round(sweep)
    finally:
        harness.estimate = inner
    return (config, points, captured, panel)


def _check_rounds(run, rounds):
    """Match captured estimates to regenerated inputs and check them."""
    names = _variant_names()
    sc, lay = run.scenario, run.layout
    for config, points, captured, panel in rounds:
        patterns = {harness.VARIANTS[v].use_pattern for v in config.variants}
        inputs = {}
        for i, truth_p in enumerate(points):
            for r in range(config.runs):
                cb_seed, noise_seed = harness.trial_seeds(config.seed_base,
                                                          i, r)
                cb = channel.draw_codebook(lay.num_cells, sc.num_samples,
                                           sc.reflection_set, cb_seed)
                for pattern in patterns:
                    snap = channel.generate_snapshot(
                        truth_p, config.truth_v, lay, cb, sc, noise_seed,
                        use_pattern=pattern)
                    inputs[snap.y.tobytes()] = (truth_p, cb, pattern, snap.y)
        expected = len(points) * config.runs * len(config.variants)
        if len(captured) != expected:
            run.structural.append(f"{len(captured)} estimates captured, "
                                  f"{expected} expected")
        for y, gs_variant, trace in captured:
            key = np.asarray(y).tobytes()
            if key not in inputs:
                run.structural.append("an estimate saw an unknown snapshot")
                continue
            truth_p, cb, pattern, y_in = inputs[key]
            variant = names[(gs_variant, pattern)]
            stages = [(rec.stage, rec.p, rec.v, rec.cost)
                      for rec in trace.records]
            trial = Trial(variant, truth_p, config.truth_v, stages,
                          [f"{s}: {e}" for s, e in trace.failures], panel)
            problem = checks.Problem(y_in, lay.cell_centers, cb.gamma,
                                     sc.bs_position, sc.wavelength,
                                     sc.sample_time, truth_p, config.truth_v)
            _check_trial(trial, problem, checks.COST_RTOL)
            run.trials.append(trial)


def _check_trial(trial, problem, rtol):
    try:
        trial.cost_over_truth = checks.check_stages(
            problem, trial.stages, trial.variant in NF_FAMILY, rtol)
    except checks.CheckError as exc:
        trial.failures.append(str(exc))


def _assert_in_coverage(points, grid):
    az_lim = min(-grid.azimuth_deg[0], grid.azimuth_deg[1])
    el_lim = min(-grid.elevation_deg[0], grid.elevation_deg[1])
    for p in points:
        s = geometry.cartesian_to_spherical(p)
        if (abs(np.degrees(s.azimuth)) > az_lim - COVERAGE_MARGIN_DEG
                or abs(np.degrees(s.elevation))
                > el_lim - COVERAGE_MARGIN_DEG):
            raise ValueError(f"benchmark point {p} outside grid coverage")


def _timed_rounds(run, make_round, ops_per_round):
    """Whole rounds until ``seconds`` have passed; seconds per op of each.

    ``make_round(seed_base)`` runs one round and returns its sweeps."""
    sweeps, run.op_walls = [], []
    run.timed_start = time.perf_counter()
    while not run.op_walls or time.perf_counter() - run.timed_start < run.args.seconds:
        start = time.perf_counter()
        sweeps += make_round(run.args.seed * 1000 + len(run.op_walls))
        run.op_walls.append((time.perf_counter() - start) / ops_per_round)
    run.timed_wall = time.perf_counter() - run.timed_start
    run.ops_timed = len(run.op_walls) * ops_per_round
    if run.tracer:
        run.tracer.uninstall()
    return sweeps


def run_line(run):
    _assert_in_coverage([np.array([x, LINE_Y, LINE_Z]) for x in LINE_X],
                        estimator.default_coarse_grid())

    def leg(seed_base, xs, variants, panel):
        config = ExperimentConfig(layout=run.layout, runs=1,
                                  seed_base=seed_base, variants=variants,
                                  threads=1)
        return _sweep(run, config,
                      lambda: harness.line_sweep(config, LINE_Y, LINE_Z, xs),
                      [np.array([x, LINE_Y, LINE_Z]) for x in xs], panel)

    def one_round(seed_base):
        return [leg(2 * seed_base + j, xs, variants, False)
                for j, (xs, variants) in enumerate(LINE_LEGS)]

    panel = [leg(PANEL_SEED, LINE_X, ("gs-nf",), True)]
    run.setup_s = time.perf_counter() - run.t0
    timed = _timed_rounds(run, one_round, sum(len(xs) * len(variants)
                                              for xs, variants in LINE_LEGS))
    _check_rounds(run, panel + timed)
    return 1


def run_aoi(run):
    threads = run.args.aoi_threads
    grid = estimator.default_coarse_grid()
    _assert_in_coverage(AOI_LATTICE.grid_points(), grid)
    _assert_in_coverage(AOI_PANEL.grid_points(), grid)

    def one_round(seed_base, aoi, panel):
        config = ExperimentConfig(layout=run.layout, runs=1, aoi=aoi,
                                  seed_base=seed_base, variants=("gs-nf",),
                                  threads=threads)
        return [_sweep(run, config, lambda: harness.aoi_sweep(config),
                       aoi.grid_points(), panel)]

    panel = one_round(PANEL_SEED, AOI_PANEL, True)
    run.setup_s = time.perf_counter() - run.t0
    timed = _timed_rounds(run, lambda s: one_round(s, AOI_LATTICE, False),
                          len(AOI_LATTICE.grid_points()))
    _check_rounds(run, panel + timed)
    return threads


# ---------------------------------------------------------------------------
# single: cold CLI processes


class CliCall:
    def __init__(self, tag, pos, cli_seed, traced):
        self.tag, self.pos, self.cli_seed = tag, pos, cli_seed
        self.out = OUT / f"single-{tag}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        cfg = self.out / "config.yaml"
        cfg.write_text("{}\n")
        argv = ["single", "--config", str(cfg), "--out", str(self.out),
                "--seed", str(cli_seed), "--truth-p", *map(repr, pos)]
        self.spans_path = self.out / "spans.json" if traced else None
        if traced:
            self.cmd = [sys.executable, str(BENCH / "traced_cli.py"),
                        str(self.spans_path), *argv]
        else:
            self.cmd = [sys.executable, "-m", "risloc.cli", *argv]

    def run(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.out / "stdout.txt", "w") as so, \
                open(self.out / "stderr.txt", "w") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(self.cmd, stdout=so, stderr=se, env=env,
                                    cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.maxrss_kib = usage.ru_maxrss
        return self


def _check_call(run, call, panel):
    sc, lay = run.scenario, run.layout
    truth_v = channel.DEFAULT_UE_VELOCITY
    trial = Trial("gs-nf", call.pos, truth_v, [], [], panel)
    run.trials.append(trial)
    if call.code != 0:
        err = (call.out / "stderr.txt").read_text().strip()
        trial.failures.append(f"exit code {call.code}: {err}")
        return
    try:
        trial.stages = checks.read_trace(call.out / "trace.txt")
        y = checks.read_snapshot_y(call.out / "snapshot.txt")
        last = trial.stages[-1]
        checks.check_printed_estimate(
            (call.out / "stdout.txt").read_text(),
            list(last[1]) + list(last[2]))
    except (OSError, ValueError, IndexError, checks.CheckError) as exc:
        trial.failures.append(str(exc))
        return
    cb_seed, _ = harness.trial_seeds(call.cli_seed, 0, 0)
    cb = channel.draw_codebook(lay.num_cells, sc.num_samples,
                               sc.reflection_set, cb_seed)
    problem = checks.Problem(y, lay.cell_centers, cb.gamma, sc.bs_position,
                             sc.wavelength, sc.sample_time, call.pos, truth_v)
    _check_trial(trial, problem, checks.FILE_COST_RTOL)


def run_single(run):
    _assert_in_coverage(SINGLE_POSITIONS + (SINGLE_PANEL,),
                        estimator.default_coarse_grid())
    panel = CliCall("panel", SINGLE_PANEL, PANEL_SEED, False).run()
    run.setup_s = time.perf_counter() - run.t0
    calls = []
    run.timed_start = time.perf_counter()
    while not calls or time.perf_counter() - run.timed_start < run.args.seconds:
        i = len(calls)
        calls.append(CliCall(i, SINGLE_POSITIONS[i % len(SINGLE_POSITIONS)],
                             run.args.seed * 1000 + i,
                             bool(run.args.trace)).run())
    run.timed_wall = time.perf_counter() - run.timed_start
    run.ops_timed = len(calls)
    run.op_walls = [c.wall for c in calls]
    _check_call(run, panel, True)
    for call in calls:
        _check_call(run, call, False)
    run.calls = [panel] + calls
    return 1


# ---------------------------------------------------------------------------
# metrics


def _rms(values):
    return float(np.sqrt(np.mean(np.square(values)))) if values else 0.0


def end_to_end(run):
    if run.args.workload == "single":
        peak_kib = max(c.maxrss_kib for c in run.calls)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    panel = [t for t in run.trials if t.panel and t.stages]
    if not panel:
        run.structural.append("no accuracy panel estimate to score")
    return {"setup_s": run.setup_s,
            "trials_per_s": run.ops_timed / run.timed_wall,
            "single_s": statistics.median(run.op_walls),
            "peak_rss_mb": peak_kib * 1024 / 1e6,
            "rmspe_mm": 1e3 * _rms([t.errors()[0] for t in panel]),
            "rmsve_mps": _rms([t.errors()[1] for t in panel])}


def _table_mb(candidates, cells):
    """Bytes of a steering table as the estimator stores it."""
    single = candidates * cells > estimator._SINGLE_PRECISION_THRESHOLD
    return candidates * cells * (8 if single else 16) / 1e6


def _load_child_spans(run):
    """Spans of every traced CLI child, ids made unique, plus metadata."""
    merged, metas, offset = [], [], 0
    for call in run.calls[1:]:
        try:
            with open(call.spans_path) as fh:
                spans_json = json.load(fh)
        except (OSError, ValueError):
            run.structural.append(f"no spans from CLI call {call.tag}")
            continue
        data = spans_json["spans"]
        for s in data:
            merged.append((s["id"] + offset, s["name"], s["start"], s["end"],
                           None if s["parent"] is None
                           else s["parent"] + offset,
                           (call.tag, s["thread"]), s.get("facts")))
        offset += 1 + max((s["id"] for s in data), default=0)
        metas.append(spans_json["meta"])
    return merged, metas


def per_layer(run, threads):
    """Per-layer metrics of a traced run (0 where a path is not run)."""
    tracer = run.tracer
    if run.args.workload == "single":
        all_spans, metas = _load_child_spans(run)
        timed = all_spans
        per_span_s = statistics.median(m["per_span_s"] for m in metas) \
            if metas else 0.0
    else:
        all_spans = list(tracer.spans)
        timed = [s for s in all_spans if s[2] >= run.timed_start]
        per_span_s = tracer.per_span_cost()
        metas = []
    ops = max(run.ops_timed, 1)
    by_name = defaultdict(list)
    for s in timed:
        by_name[s[1]].append(s)

    def durs(name, pool=by_name):
        return [s[3] - s[2] for s in pool[name]]

    def mean(xs):
        return float(np.mean(xs)) if xs else 0.0

    cells = run.layout.num_cells
    grid = estimator.default_coarse_grid()
    n_coarse = grid.num_candidates
    m = {}
    everywhere = defaultdict(list)
    for s in all_spans:
        everywhere[s[1]].append(s)
    m["geometry.layout_s"] = mean(durs("geometry.build_composite_ris",
                                       everywhere))
    m["channel.snapshot_s"] = mean(durs("channel.generate_snapshot"))
    m["channel.snapshots"] = len(by_name["channel.generate_snapshot"]) / ops

    if run.args.workload == "single":
        warm = by_name["estimator.nf_grid_search_batch_warm"]
        warm_snaps = len(warm)
        warm_s = sum(s[3] - s[2] for s in warm)
        builds = [c - w for c, w in zip(durs("estimator.nf_grid_search_batch"),
                                        durs("estimator.nf_grid_search_batch_warm"))]
    else:
        warm = by_name["estimator.nf_grid_search_batch"]
        warm_snaps = sum(s[6]["snapshots"] for s in warm if s[6])
        warm_s = sum(s[3] - s[2] for s in warm)
        cold = min(everywhere["estimator.nf_grid_search_batch"],
                   key=lambda s: s[2])
        builds = [(cold[3] - cold[2])
                  - warm_s / max(warm_snaps, 1) * cold[6]["snapshots"]]
    per_snap = warm_s / warm_snaps if warm_snaps else 0.0
    m["estimator.table_build_s"] = mean(builds)
    m["estimator.table_mb"] = _table_mb(n_coarse, cells)
    m["estimator.gs_nf_s_per_snapshot"] = per_snap
    m["estimator.gs_nf_gflops"] = (8.0 * n_coarse * cells
                                   * run.scenario.num_samples / per_snap / 1e9
                                   if per_snap else 0.0)
    m["estimator.gs_ff_s_per_call"] = mean(durs("estimator.ff_grid_search"))
    fine = by_name["estimator.nf_fine_grid_search"]
    m["estimator.gs_fine_s_per_call"] = mean(durs(
        "estimator.nf_fine_grid_search"))
    m["estimator.gs_fine_mb"] = mean([
        _table_mb(estimator.fine_grid_spec(
            SphericalCoord(*s[6]["coarse"])).num_candidates, cells)
        for s in fine if s[6]])
    cf = by_name["estimator.refine_loop"]
    m["estimator.cf_s_per_trial"] = mean(durs("estimator.refine_loop"))
    m["estimator.cf_iterations_mean"] = mean(
        [s[6]["iterations"] for s in cf if s[6]])
    m["estimator.cf_cap_hits"] = sum(
        1 for s in cf if s[6] and s[6]["iterations"] == s[6]["max_iter"])
    gd = by_name["estimator.gradient_descent_6d"]
    m["estimator.gd6d_s_per_trial"] = mean(durs(
        "estimator.gradient_descent_6d"))
    m["estimator.gd6d_iterations_mean"] = mean(
        [s[6]["iterations"] for s in gd if s[6]])
    for kernel in ("steering_vector", "cost_and_grad"):
        m[f"estimator.{kernel}_calls"] = \
            len(by_name[f"estimator.{kernel}"]) / ops
        m[f"estimator.{kernel}_us"] = 1e6 * mean(
            durs(f"estimator.{kernel}"))

    timed_trials = [t for t in run.trials if not t.panel and not t.failures]
    m["estimator.final_cost_over_truth"] = mean(
        [t.cost_over_truth for t in timed_trials
         if t.variant in NF_FAMILY and t.cost_over_truth is not None])
    for variant, stages in STAGES.items():
        mine = [t for t in timed_trials if t.variant == variant]
        for i, stage in enumerate(stages):
            errs = [t.errors(i) for t in mine if len(t.stages) > i]
            m[f"rmspe_mm.{variant}.{stage}"] = 1e3 * _rms(
                [e[0] for e in errs])
            m[f"rmsve_mps.{variant}.{stage}"] = _rms([e[1] for e in errs])
    m["harness.outliers.gs-ff"] = sum(
        1 for t in timed_trials
        if t.variant == "gs-ff" and t.errors()[0] > OUTLIER_M)

    points = durs("harness.point_traces")
    sweeps = durs("harness.line_sweep") + durs("harness.aoi_sweep")
    m["harness.point_s"] = mean(points)
    m["harness.worker_busy_base_s"] = threads * sum(sweeps)
    m["harness.worker_busy_share"] = (sum(points)
                                      / m["harness.worker_busy_base_s"]
                                      if sweeps else 0.0)

    m["cli.import_s"] = mean([x["import_s"] for x in metas])
    io = ("channel.save_snapshot", "cli.write_trace", "cli.write_manifest")
    m["cli.io_s"] = sum(sum(durs(n)) for n in io) / ops \
        if run.args.workload == "single" else 0.0

    selfs = spans.self_times(timed)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s[0]] for s in timed
                                   if s[1].startswith(layer + ".")) / ops
    m["trace.overhead_share"] = per_span_s * len(timed) / (
        sum(c.wall for c in run.calls[1:])
        if run.args.workload == "single" else run.timed_wall)
    m["trace.op_s"] = (statistics.median(c.wall for c in run.calls[1:])
                       if run.args.workload == "single"
                       else run.timed_wall / ops)

    OUT.mkdir(exist_ok=True)
    spans.dump(all_spans, OUT / f"trace-{run.args.workload}-"
               f"seed{run.args.seed}.json",
               {"workload": run.args.workload, "seed": run.args.seed,
                "timed_start": run.timed_start, "per_span_s": per_span_s})
    return m


WORKLOADS = {"line": run_line, "aoi": run_aoi, "single": run_single}
