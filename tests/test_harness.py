import threading
from types import SimpleNamespace

import numpy as np
import pytest

from risloc import estimator, harness
from risloc.errors import EmptyInput, SingularSystemError, ZeroModelError
from risloc.estimator import EstimateTrace, GridSpec, estimate
from risloc.geometry import SphericalCoord
from risloc.harness import (AoiSpec, ExperimentConfig, PointResult, VARIANTS,
                            _GROUP_MODELS, _cell_from_traces, _group_traces,
                            _skipped, aoi_sweep, draw_trial, line_sweep,
                            line_table, mix_seed, rms, splitmix64,
                            stage_label, trial_seeds)


def small_grid():
    return GridSpec(azimuth_deg=(-10, 10, 1), elevation_deg=(-30, 0, 1),
                    range_m=(0.1, 3.9, 0.2))


@pytest.fixture(scope="module")
def fast_config(layout, scenario):
    return ExperimentConfig(scenario=scenario, layout=layout,
                            grid=small_grid(), runs=2, seed_base=5,
                            variants=("gs-nf",))


class TestRms:
    def test_constant_sequence(self):
        assert rms([3.0, 3.0, 3.0]) == pytest.approx(3.0, rel=1e-14)

    def test_single_value(self):
        assert rms([-2.5]) == pytest.approx(2.5, rel=1e-14)

    def test_pythagorean(self):
        assert rms([3.0, 4.0]) == pytest.approx(np.sqrt(12.5), rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            rms([])

    def test_large_sample_matches_two_pass_reference(self):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=1e3, scale=1.0, size=1_000_000)
        ref = np.sqrt(np.sum((x.astype(np.float64)) ** 2) / x.size)
        assert rms(x) == pytest.approx(ref, rel=1e-12)


class TestSeeds:
    def test_splitmix_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)
        _, out = splitmix64(0)
        assert 0 <= out < 2 ** 64

    def test_mix_order_sensitive(self):
        assert mix_seed(1, 2) != mix_seed(2, 1)

    def test_trial_seeds_distinct_across_axes(self):
        seen = set()
        for base in range(3):
            for point in range(4):
                for run in range(5):
                    seen.update(trial_seeds(base, point, run))
        assert len(seen) == 2 * 3 * 4 * 5

    def test_codebook_and_noise_seeds_differ(self):
        cb, nz = trial_seeds(1, 0, 0)
        assert cb != nz

    def test_repeatable(self):
        assert trial_seeds(7, 2, 9) == trial_seeds(7, 2, 9)


class TestVariants:
    def test_catalog(self):
        assert set(VARIANTS) == {"gs-ff", "gs-nf", "gs-nf-fine", "noap"}
        assert VARIANTS["noap"].use_pattern is False
        assert VARIANTS["gs-ff"].gs_variant == "ff"

    def test_stage_labels(self):
        assert stage_label("gs-nf", "GS") == "GS-NF"
        assert stage_label("gs-ff", "GS") == "GS-FF"
        assert stage_label("gs-nf-fine", "GS-fine") == "GS-NF-fine"
        assert stage_label("noap", "6D") == "6D-noAP"
        assert "CF" in stage_label("gs-nf-fine", "CF")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(variants=("nope",))

    @pytest.mark.parametrize("field", ["runs", "threads"])
    def test_zero_runs_or_threads_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: 0})


class TestAoiSpec:
    def test_grid_point_count(self):
        spec = AoiSpec(x_min=0.5, x_max=0.7, y_min=-0.1, y_max=0.1,
                       step=0.1, z=-0.5)
        pts = spec.grid_points()
        assert len(pts) == 3 * 3
        # Row-major: x varies slowest.
        assert pts[0][0] == pytest.approx(0.5)
        assert pts[1][0] == pytest.approx(0.5)
        assert pts[1][1] == pytest.approx(0.0)
        assert all(p[2] == -0.5 for p in pts)

    def test_default_region_dimensions(self):
        pts = AoiSpec().grid_points()
        assert len(pts) == 31 * 31


class TestRunTrial:
    """One trial as drawn by draw_trial and run by _group_traces."""

    def test_noiseless_trial_recovers_truth(self, layout, scenario):
        cfg = ExperimentConfig(scenario=scenario.noiseless(), layout=layout,
                               grid=small_grid(), runs=1, seed_base=3)
        truth_p = np.array([2.0, 0.0, -0.5])
        traces, mean_snr = _group_traces(cfg, [truth_p], 0)[0]
        trace = traces["gs-nf"][0]
        p_fin, v_fin = trace.final
        # Noiseless but with the antenna pattern in the generative model,
        # so the floor is the simplified-model mismatch (a few mm).
        assert np.linalg.norm(p_fin - truth_p) < 0.02
        assert np.linalg.norm(v_fin - cfg.truth_v) < 0.2
        assert not trace.failures
        assert mean_snr == np.inf

    def test_deterministic_across_calls(self, fast_config):
        truth_p = np.array([1.8, 0.1, -0.5])
        model_a, snaps_a = draw_trial(fast_config, truth_p, 0, 1, (True,))
        model_b, snaps_b = draw_trial(fast_config, truth_p, 0, 1, (True,))
        assert np.array_equal(model_a.w, model_b.w)
        assert np.array_equal(snaps_a[True].y, snaps_b[True].y)
        a, _ = _group_traces(fast_config, [truth_p], 0)[0]
        b, _ = _group_traces(fast_config, [truth_p], 0)[0]
        assert np.array_equal(a["gs-nf"][1].final[0], b["gs-nf"][1].final[0])
        assert np.array_equal(a["gs-nf"][1].final[1], b["gs-nf"][1].final[1])

    def test_runs_differ_across_run_index(self, fast_config):
        truth_p = np.array([1.8, 0.1, -0.5])
        model_0, snaps_0 = draw_trial(fast_config, truth_p, 0, 0, (True,))
        model_1, snaps_1 = draw_trial(fast_config, truth_p, 0, 1, (True,))
        assert not np.array_equal(model_0.w, model_1.w)
        assert not np.array_equal(snaps_0[True].y, snaps_1[True].y)
        traces, _ = _group_traces(fast_config, [truth_p], 0)[0]
        p_0, p_1 = (t.final[0] for t in traces["gs-nf"])
        assert np.linalg.norm(p_0 - truth_p) != np.linalg.norm(p_1 - truth_p)

    def test_stage_errors_cover_trace(self, fast_config):
        truth_p = np.array([1.8, 0.1, -0.5])
        traces, mean_snr = _group_traces(fast_config, [truth_p], 0)[0]
        point = PointResult(truth_p=truth_p, d_r=np.linalg.norm(truth_p),
                            traces=traces, mean_snr_db=mean_snr)
        rows = {r["stage"]: r for r in line_table([point],
                                                  fast_config.truth_v)}
        for trace in traces["gs-nf"]:
            assert list(rows) == [rec.stage for rec in trace.records]
        final = [np.linalg.norm(t.final[0] - truth_p)
                 for t in traces["gs-nf"]]
        assert rows["6D"]["rmspe_m"] == pytest.approx(rms(final), rel=1e-14)

    def test_point_traces_match_streamed_estimate(self, layout, scenario):
        # The batched, injected coarse search of a sweep and the streamed,
        # uninjected one of `risloc single` give the same trace.
        cfg = ExperimentConfig(scenario=scenario, layout=layout,
                               grid=small_grid(), runs=2, seed_base=5,
                               variants=tuple(VARIANTS))
        truth_p = np.array([1.8, 0.1, -0.5])
        traces, _ = _group_traces(cfg, [truth_p], 0)[0]
        for run in range(cfg.runs):
            model, snaps = draw_trial(cfg, truth_p, 0, run, (True, False))
            for variant, spec in VARIANTS.items():
                alone = estimate(snaps[spec.use_pattern].y, model,
                                 cfg.estimator_config(variant))
                batched = traces[variant][run]
                assert len(alone.records) == len(batched.records)
                for a, b in zip(alone.records, batched.records):
                    assert (a.stage, a.cost, a.iterations) == \
                        (b.stage, b.cost, b.iterations)
                    assert np.array_equal(a.p, b.p)
                    assert np.array_equal(a.v, b.v)


class TestFineTables:
    def test_one_fine_table_per_coarse_cell(self, layout, scenario,
                                            monkeypatch):
        builds = []
        build = estimator._table_chunks

        def counting_build(points, ranges, model, dtype):
            # Rescoring rebuilds candidates in double precision, at most
            # _BLOCK_ROWS at a time; a table build covers a whole grid.
            if len(points) > estimator._BLOCK_ROWS:
                builds.append(len(points))
            else:
                assert dtype == np.float64
            return build(points, ranges, model, dtype)

        monkeypatch.setattr(estimator, "_table_chunks", counting_build)
        monkeypatch.setattr(estimator, "_COARSE_TABLES",
                            estimator._TableCache(estimator._CACHE_BYTES_LIMIT))
        monkeypatch.setattr(estimator, "_FINE_TABLES",
                            estimator._TableCache(0))
        cfg = ExperimentConfig(scenario=scenario, layout=layout,
                               grid=small_grid(), runs=3, seed_base=5,
                               variants=("gs-nf-fine", "noap", "gs-nf"))
        traces, _ = _group_traces(cfg, [np.array([1.8, 0.1, -0.5])], 0)[0]
        fine = [t for v in ("gs-nf-fine", "noap") for t in traces[v]]
        cells = {tuple(t.stage_named("GS").p) for t in fine}
        # One coarse table, then one fine table per distinct coarse cell.
        assert builds[0] == small_grid().num_candidates
        assert len(builds) == 1 + len(cells)
        assert len(cells) < len(fine)


class TestSweeps:
    def test_aoi_sweep_counts_and_order(self, layout, scenario):
        cfg = ExperimentConfig(
            scenario=scenario.noiseless(), layout=layout, grid=small_grid(),
            aoi=AoiSpec(x_min=1.6, x_max=2.0, y_min=-0.2, y_max=0.2,
                        step=0.2, z=-0.5),
            runs=1, seed_base=2, variants=("gs-nf",))
        cells = aoi_sweep(cfg)
        assert len(cells) == 3 * 3
        expect = cfg.aoi.grid_points()
        for cell, p in zip(cells, expect):
            assert np.allclose(cell.truth_p, p)
            assert cell.run_count == 1
            assert cell.skipped == {"gs-nf": 0}
            assert cell.rmspe["gs-nf"] < 0.02
            assert cell.rmsve["gs-nf"] < 0.5

    def test_line_sweep_ordering_and_dr(self, layout, scenario):
        cfg = ExperimentConfig(scenario=scenario.noiseless(), layout=layout,
                               grid=small_grid(), runs=1, seed_base=2,
                               variants=("gs-nf",))
        xs = [0.8, 1.4, 2.0]
        pts = line_sweep(cfg, y_fixed=0.0, z_fixed=-0.5, x_points=xs)
        assert [p.truth_p[0] for p in pts] == xs
        for p, x in zip(pts, xs):
            assert p.d_r == pytest.approx(np.hypot(x, 0.5), rel=1e-12)
        with pytest.raises(ValueError):
            line_sweep(cfg, 0.0, -0.5, [-1.0])

    def test_line_table_rows_and_labels(self, layout, scenario):
        cfg = ExperimentConfig(scenario=scenario.noiseless(), layout=layout,
                               grid=small_grid(), runs=1, seed_base=2,
                               variants=("gs-nf", "gs-ff"))
        pts = line_sweep(cfg, 0.0, -0.5, [1.0, 2.0])
        rows = line_table(pts, cfg.truth_v)
        # gs-nf contributes GS/CF/6D, gs-ff GS/CF/6D, per point.
        assert len(rows) == 2 * 2 * 3
        labels = {r["label"] for r in rows}
        assert {"GS-NF", "GS-FF", "CF", "6D"} <= labels
        for r in rows:
            assert r["runs"] == 1
            assert r["skipped"] == 0
            assert np.isfinite(r["rmspe_m"])

    def test_threaded_sweep_matches_sequential(self, layout, scenario):
        base = dict(scenario=scenario, layout=layout, grid=small_grid(),
                    aoi=AoiSpec(x_min=1.6, x_max=1.8, y_min=0.0, y_max=0.0,
                                step=0.2, z=-0.5),
                    runs=2, seed_base=9, variants=("gs-nf",))
        seq = aoi_sweep(ExperimentConfig(threads=1, **base))
        par = aoi_sweep(ExperimentConfig(threads=2, **base))
        for a, b in zip(seq, par):
            assert a.rmspe["gs-nf"] == b.rmspe["gs-nf"]
            assert a.rmsve["gs-nf"] == b.rmsve["gs-nf"]


def assert_same_traces(a, b):
    """Bit-equal stage records and equal failures, variant by variant."""
    assert list(a) == list(b)
    for variant in a:
        for ta, tb in zip(a[variant], b[variant], strict=True):
            assert [(s, repr(e)) for s, e in ta.failures] == \
                [(s, repr(e)) for s, e in tb.failures]
            assert len(ta.records) == len(tb.records)
            for ra, rb in zip(ta.records, tb.records):
                assert (ra.stage, ra.cost, ra.iterations) == \
                    (rb.stage, rb.cost, rb.iterations)
                assert np.array_equal(ra.p, rb.p)
                assert np.array_equal(ra.v, rb.v)


class TestGroupedSweeps:
    """A sweep scores the coarse searches of several points in one pass;
    every output must equal the same points run one at a time."""

    @pytest.mark.parametrize("runs", [1, 2])
    def test_line_sweep_matches_points_run_alone(self, layout, scenario,
                                                 runs):
        xs = [1.2, 1.6, 2.0]
        base = dict(scenario=scenario, layout=layout, grid=small_grid(),
                    runs=runs, seed_base=13, variants=tuple(VARIANTS))
        cfg = ExperimentConfig(**base)
        alone = [_group_traces(cfg, [np.array([x, 0.0, -0.5])], i)[0]
                 for i, x in enumerate(xs)]
        for i, (x, (_, mean_snr)) in enumerate(zip(xs, alone)):
            snr = [draw_trial(cfg, np.array([x, 0.0, -0.5]), i, run,
                              (True,))[1][True].snr_per_sample
                   for run in range(runs)]
            assert mean_snr == np.mean(np.concatenate(snr))
        for threads in (1, 2, 3):
            got = line_sweep(ExperimentConfig(threads=threads, **base),
                             0.0, -0.5, xs)
            assert len(got) == len(xs)
            for res, (traces, mean_snr) in zip(got, alone):
                assert_same_traces(res.traces, traces)
                assert res.mean_snr_db == mean_snr
                for row in line_table([res], cfg.truth_v):
                    assert row["skipped"] == \
                        _skipped(traces)[row["variant"]]

    @pytest.mark.parametrize("runs", [1, 2])
    def test_aoi_sweep_matches_points_run_alone(self, layout, scenario,
                                                runs, monkeypatch):
        # y = 0.4 m lies at 14 and 12.5 deg azimuth, outside the small
        # grid's +/-10 deg: those points run like any other and are
        # flagged.
        aoi = AoiSpec(x_min=1.6, x_max=1.8, y_min=0.0, y_max=0.4, step=0.2,
                      z=-0.5)
        base = dict(scenario=scenario, layout=layout, grid=small_grid(),
                    aoi=aoi, runs=runs, seed_base=17, variants=("gs-nf",))
        cfg = ExperimentConfig(**base)
        points = aoi.grid_points()
        alone = [_group_traces(cfg, [p], i)[0] for i, p in enumerate(points)]
        expect = [_cell_from_traces(p, traces, mean_snr, cfg.truth_v,
                                    cfg.grid.covers(p))
                  for p, (traces, mean_snr) in zip(points, alone)]
        assert [c.in_coverage for c in expect] == [True, True, False,
                                                   True, True, False]
        # Every trace of the sweep, keyed by its snapshot.
        by_snapshot = {draw_trial(cfg, p, i, run, (True,))[1][True]
                       .y.tobytes(): traces["gs-nf"][run]
                       for i, (p, (traces, _)) in enumerate(zip(points, alone))
                       for run in range(runs)}
        for threads in (1, 2, 3):
            seen, lock = {}, threading.Lock()

            def capture(y, *args, **kwargs):
                trace = estimate(y, *args, **kwargs)
                with lock:
                    seen[y.tobytes()] = trace
                return trace

            monkeypatch.setattr(harness, "estimate", capture)
            cells = aoi_sweep(ExperimentConfig(threads=threads, **base))
            assert seen.keys() == by_snapshot.keys()
            for key, trace in seen.items():
                assert_same_traces({"gs-nf": [trace]},
                                   {"gs-nf": [by_snapshot[key]]})
            assert len(cells) == len(expect)
            for cell, ref in zip(cells, expect):
                assert np.array_equal(cell.truth_p, ref.truth_p)
                assert (cell.rmspe, cell.rmsve, cell.mean_snr_db,
                        cell.run_count, cell.skipped, cell.in_coverage) == \
                    (ref.rmspe, ref.rmsve, ref.mean_snr_db, ref.run_count,
                     ref.skipped, ref.in_coverage)

    @pytest.mark.parametrize("runs,num_points,threads", [
        (1, 80, 1), (1, 80, 3), (1, 5, 2), (7, 12, 2), (10, 25, 1),
        (5, 3, 4), (_GROUP_MODELS + 1, 3, 1)])
    def test_groups_hold_whole_points_under_the_cap(self, runs, num_points,
                                                    threads, monkeypatch):
        owner, calls, lock = {}, [], threading.Lock()

        def fake_draw(config, truth_p, point_index, run, patterns):
            model = object()
            owner[id(model)] = (point_index, run)
            snap = SimpleNamespace(y=np.zeros(1), snr_per_sample=np.ones(1))
            return model, {pattern: snap for pattern in patterns}

        def fake_batch(entries, grid):
            with lock:
                calls.append([owner[id(model)] for model, _ in entries])
            return [[(SphericalCoord(0.0, 0.0, 1.0), 0.0)] * len(ys)
                    for _, ys in entries]

        monkeypatch.setattr(harness, "draw_trial", fake_draw)
        monkeypatch.setattr(harness, "nf_grid_search_batch", fake_batch)
        monkeypatch.setattr(harness, "estimate",
                            lambda *args, **kwargs: EstimateTrace())
        xs = [1.0 + 0.01 * i for i in range(num_points)]
        cfg = ExperimentConfig(runs=runs, threads=threads,
                               variants=("gs-nf",))
        got = line_sweep(cfg, 0.0, -0.5, xs)

        assert [res.truth_p[0] for res in got] == xs
        assert sorted(t for call in calls for t in call) == \
            [(i, run) for i in range(num_points) for run in range(runs)]
        for call in calls:
            points = sorted({i for i, _ in call})
            # Whole, consecutive points.
            assert points == list(range(points[0], points[-1] + 1))
            assert len(call) == len(points) * runs
            if runs <= _GROUP_MODELS:
                assert len(call) <= _GROUP_MODELS
            else:
                assert len(points) == 1
        # As few passes as the cap allows, but one per pool thread.
        fewest = -(-num_points // max(1, _GROUP_MODELS // runs))
        assert len(calls) == min(num_points, max(threads, fewest))


class TestCoverage:
    def test_default_grid_coverage(self):
        grid = estimator.default_coarse_grid()
        # -78.7 deg elevation, outside the +/-70 deg axis.
        assert not grid.covers(np.array([0.1, 0.0, -0.5]))
        assert grid.covers(np.array([2.0, 0.0, -0.5]))
        # +/-77 deg azimuth at the default AOI's x = 0.35 m column.
        assert not grid.covers(np.array([0.35, 1.5, -0.5]))
        assert not grid.covers(np.array([0.35, -1.5, -0.5]))


class TestFailureAccounting:
    """A trial with any failed stage is skipped everywhere RMS is taken."""

    @staticmethod
    def _trace(p_err, failure=None):
        trace = EstimateTrace()
        for stage in ("GS", "CF", "6D"):
            trace.record(stage, np.array([2.0 + p_err, 0.0, -0.5]),
                         np.zeros(3), 1.0)
        if failure is not None:
            trace.failures.append(("6D", failure))
        return trace

    @pytest.mark.parametrize("failure", [ZeroModelError("zero"),
                                         SingularSystemError("singular")])
    def test_failed_trials_left_out_of_rms(self, failure):
        truth_p = np.array([2.0, 0.0, -0.5])
        traces = {"gs-nf": [self._trace(0.003), self._trace(0.004),
                            self._trace(5.0, failure)]}
        cell = _cell_from_traces(truth_p, traces, 10.0, np.zeros(3),
                                 True)
        assert cell.rmspe["gs-nf"] == pytest.approx(rms([0.003, 0.004]),
                                                    rel=1e-9)
        assert cell.skipped == {"gs-nf": 1}
        point = PointResult(truth_p=truth_p, d_r=2.06, traces=traces,
                            mean_snr_db=10.0)
        rows = line_table([point], np.zeros(3))
        assert [r["skipped"] for r in rows] == [1, 1, 1]
        assert all(r["runs"] == 2 for r in rows)
        assert all(r["rmspe_m"] < 0.01 for r in rows)

    def test_skips_counted_per_variant(self):
        truth_p = np.array([2.0, 0.0, -0.5])
        traces = {"gs-nf": [self._trace(0.003),
                            self._trace(5.0, ZeroModelError("zero"))],
                  "noap": [self._trace(0.002), self._trace(0.001)]}
        cell = _cell_from_traces(truth_p, traces, 10.0, np.zeros(3),
                                 True)
        assert cell.skipped == {"gs-nf": 1, "noap": 0}
