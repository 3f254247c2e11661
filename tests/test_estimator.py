import dataclasses
import itertools

import numpy as np
import pytest

from risloc import estimator
from risloc.channel import (DEFAULT_UE_VELOCITY, default_scenario,
                            draw_codebook, generate_snapshot)
from risloc.errors import OriginError, SingularSystemError, ZeroModelError
from risloc.estimator import (EstimatorConfig, GridSpec, _solve_displacement,
                              build_steering_model, cost_and_grad,
                              default_coarse_grid, estimate, ff_grid_search,
                              fine_grid_spec, lm_refine_6d, ml_alpha,
                              nf_fine_grid_search, nf_grid_search,
                              nf_grid_search_batch, projection_cost,
                              refine_loop, steering_vector)
from risloc.geometry import SphericalCoord, spherical_to_cartesian

from conftest import brute_force_costs, grid_coord, toy_layout

def toy_model(num_cells=5, num_samples=4, seed=0):
    layout = toy_layout(num_cells=num_cells, seed=seed)
    scenario = default_scenario(num_samples=num_samples)
    codebook = draw_codebook(num_cells, num_samples,
                             scenario.reflection_set, seed=seed + 1)
    return build_steering_model(layout, codebook, scenario), layout, scenario


def small_grid():
    return GridSpec(azimuth_deg=(-10, 10, 1), elevation_deg=(-30, 0, 1),
                    range_m=(0.1, 3.9, 0.2))


class TestSteeringVector:
    def test_single_cell_at_reference_is_w(self):
        model, _, _ = toy_model(num_cells=1)
        model = dataclasses.replace(model, cell_centers=np.zeros((1, 3)))
        h = steering_vector(model, np.array([1.3, 0.2, 0.1]), np.zeros(3))
        assert np.allclose(h, model.w[0], rtol=1e-12)

    def test_static_ue_time_invariant_response(self):
        model, _, _ = toy_model(num_cells=6, num_samples=8)
        p = np.array([1.5, 0.3, -0.4])
        h = steering_vector(model, p, np.zeros(3))
        # a is ell-independent for v = 0, so h_ell / sum_m w_{m,ell} a_m
        # must match an explicit static computation.
        q = model.cell_centers
        d = np.linalg.norm(p - q, axis=1)
        a = np.exp(-2j * np.pi / model.wavelength
                   * (d - np.linalg.norm(p)))
        assert np.allclose(h, model.w.T @ a, rtol=1e-12)

    def test_origin_rejected(self, model):
        with pytest.raises(OriginError):
            steering_vector(model, np.zeros(3), np.zeros(3))

    def test_model_consistency_with_full_model(self, layout, scenario):
        # Noiseless full generative model (patterns off) against
        # alpha * h: magnitude-weighted rms phase mismatch stays small
        # (raw per-sample phase is unbounded at deep fades).
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=7)
        model = build_steering_model(layout, cb, scenario)
        p = np.array([2.0, 0.0, -0.5])
        snap = generate_snapshot(p, DEFAULT_UE_VELOCITY, layout, cb,
                                 scenario.noiseless(), 0, use_pattern=False)
        h = steering_vector(model, p, DEFAULT_UE_VELOCITY)
        alpha = ml_alpha(snap.y, h)
        dphi = np.angle(snap.y / (alpha * h))
        weights = np.abs(h) ** 2
        rms_phase = np.sqrt(np.sum(weights * dphi ** 2) / np.sum(weights))
        assert rms_phase < 0.05


class TestMlAlpha:
    def test_identity(self, model):
        h = steering_vector(model, np.array([2.0, 0.1, -0.5]), np.zeros(3))
        assert ml_alpha(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_scaling(self, model):
        h = steering_vector(model, np.array([2.0, 0.1, -0.5]), np.zeros(3))
        assert ml_alpha((2 + 3j) * h, h) == pytest.approx(2 + 3j, abs=1e-10)

    def test_orthogonal_gives_zero(self):
        h = np.array([1.0, 1j, -1.0, -1j])
        y = np.array([1.0, -1j, -1.0, 1j])  # <h, y> = 0
        assert abs(np.vdot(h, y)) < 1e-15
        assert abs(ml_alpha(y, h)) < 1e-12

    def test_residual_orthogonality(self, model):
        rng = np.random.default_rng(8)
        h = steering_vector(model, np.array([1.4, -0.3, -0.5]), np.zeros(3))
        y = rng.standard_normal(len(h)) + 1j * rng.standard_normal(len(h))
        alpha = ml_alpha(y, h)
        resid = np.vdot(h, y - alpha * h)
        assert abs(resid) < 1e-10 * np.linalg.norm(y) * np.linalg.norm(h)

    def test_zero_model_rejected(self):
        with pytest.raises(ZeroModelError):
            ml_alpha(np.ones(4), np.zeros(4))


class TestProjectionCost:
    def test_collinear_gives_zero(self, model):
        h = steering_vector(model, np.array([2.0, 0.1, -0.5]), np.zeros(3))
        cost = projection_cost((0.3 - 1.7j) * h, h)
        assert cost <= 1e-10 * np.vdot(h, h).real

    def test_orthogonal_gives_full_energy(self):
        h = np.array([1.0, 1j, -1.0, -1j])
        y = np.array([1.0, -1j, -1.0, 1j])
        assert projection_cost(y, h) == pytest.approx(
            np.vdot(y, y).real, rel=1e-12)

    def test_matches_explicit_projector(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            h = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            proj = np.eye(40) - np.outer(h, h.conj()) / np.vdot(h, h).real
            brute = np.linalg.norm(proj @ y) ** 2
            assert projection_cost(y, h) == pytest.approx(brute, rel=1e-10)

    def test_global_phase_invariance(self, model):
        rng = np.random.default_rng(2)
        h = steering_vector(model, np.array([1.0, 0.5, -0.5]), np.zeros(3))
        y = rng.standard_normal(len(h)) + 1j * rng.standard_normal(len(h))
        base = projection_cost(y, h)
        for phi in (0.3, 1.1, -2.7):
            assert projection_cost(np.exp(1j * phi) * y, h) == \
                pytest.approx(base, rel=1e-12)

    def test_model_scale_invariance(self, model):
        rng = np.random.default_rng(3)
        h = steering_vector(model, np.array([1.0, 0.5, -0.5]), np.zeros(3))
        y = rng.standard_normal(len(h)) + 1j * rng.standard_normal(len(h))
        base = projection_cost(y, h)
        for c in (2.0, -0.4 + 1.9j, 1e-4j):
            assert projection_cost(y, c * h) == pytest.approx(base,
                                                              rel=1e-12)


class TestNfGridSearch:
    def test_on_grid_self_consistency(self, layout, scenario, model):
        grid = small_grid()
        coord = SphericalCoord(np.deg2rad(2.0), np.deg2rad(-14.0), 1.9)
        p = spherical_to_cartesian(coord)
        y = steering_vector(model, p, np.zeros(3))
        got, cost = nf_grid_search(y, model, grid)
        assert got.azimuth == pytest.approx(coord.azimuth, abs=1e-12)
        assert got.elevation == pytest.approx(coord.elevation, abs=1e-12)
        assert got.range_m == pytest.approx(coord.range_m, abs=1e-12)
        assert cost <= 1e-8 * np.vdot(y, y).real

    def test_default_grid_cardinality(self):
        assert default_coarse_grid().num_candidates == 141 * 141 * 20

    def test_off_grid_range_within_one_step(self, model):
        p = np.array([2.0, 0.0, -0.5])
        y = steering_vector(model, p, np.zeros(3))
        got, _ = nf_grid_search(y, model, small_grid())
        assert abs(got.range_m - np.linalg.norm(p)) <= 0.2

    def test_matches_brute_force_on_toy_model(self):
        model, _, _ = toy_model(num_cells=5, num_samples=4, seed=3)
        grid = GridSpec(azimuth_deg=(-45, 45, 10), elevation_deg=(-45, 45, 10),
                        range_m=(0.5, 3.0, 0.25))
        rng = np.random.default_rng(7)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        az, el, rr = grid.axis_values()
        best = None
        for a, e, r in itertools.product(az, el, rr):
            c = SphericalCoord(np.deg2rad(a), np.deg2rad(e), r)
            cost = projection_cost(
                y, steering_vector(model, spherical_to_cartesian(c),
                                   np.zeros(3)))
            if best is None or cost < best[1]:
                best = (c, cost)
        got, cost = nf_grid_search(y, model, grid)
        assert got == best[0]
        assert cost == pytest.approx(best[1], rel=1e-12)

    def test_argmin_invariant_to_snapshot_scaling(self, model):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        grid = small_grid()
        a, _ = nf_grid_search(y, model, grid)
        b, _ = nf_grid_search((0.3 - 2.2j) * y, model, grid)
        assert a == b

    def test_batch_matches_single(self, layout, scenario):
        grid = small_grid()
        entries = []
        snaps = []
        for seed in range(3):
            cb = draw_codebook(layout.num_cells, scenario.num_samples,
                               scenario.reflection_set, seed=seed)
            m = build_steering_model(layout, cb, scenario)
            snap = generate_snapshot(np.array([1.8, 0.1, -0.5]),
                                     DEFAULT_UE_VELOCITY, layout, cb,
                                     scenario, noise_seed=seed)
            entries.append((m, [snap.y]))
            snaps.append(snap)
        batch = nf_grid_search_batch(entries, grid)
        for (m, ys), row in zip(entries, batch):
            single = nf_grid_search(ys[0], m, grid)
            assert row[0] == single

    def test_streamed_matches_cached(self, layout, scenario):
        entries = []
        for seed in range(2):
            cb = draw_codebook(layout.num_cells, scenario.num_samples,
                               scenario.reflection_set, seed=40 + seed)
            m = build_steering_model(layout, cb, scenario)
            entries.append((m, [generate_snapshot(
                p, DEFAULT_UE_VELOCITY, layout, cb, scenario,
                noise_seed=seed, use_pattern=pattern).y
                for p in (np.array([1.8, 0.1, -0.5]),
                          np.array([0.9, -0.1, -0.4]))
                for pattern in (True, False)]))
        cached = nf_grid_search_batch(entries, small_grid())
        streamed = nf_grid_search_batch(entries, small_grid(), cache=False)
        assert streamed == cached

    def test_ragged_batch_rejected(self, model):
        y = steering_vector(model, np.array([1.5, 0.2, -0.5]), np.zeros(3))
        with pytest.raises(ValueError, match="as many snapshots"):
            nf_grid_search_batch([(model, [y, y]), (model, [y])],
                                 small_grid())

    def test_model_without_codebook_split_rejected(self, model):
        with pytest.raises(TypeError, match="bs_phase"):
            type(model)(cell_centers=model.cell_centers, w=model.w,
                        wavelength=model.wavelength,
                        sample_time=model.sample_time,
                        num_samples=model.num_samples)


class TestBoundRescore:
    """The grid searches' bound pass and double-precision rescoring."""

    @staticmethod
    def bounds_and_scores(model, ys, points, ranges):
        from risloc.estimator import _BoundPass, _table_chunks
        (re, im, rowsum), = _table_chunks(points, ranges, model, np.float64)
        bounds = _BoundPass([(model, ys)], np.float64).bounds(re, im, rowsum)
        h = re @ model.signs + 1j * (im @ model.signs) \
            + rowsum[:, None] * model.offset
        scores = np.abs(h.conj() @ np.transpose(ys)).T ** 2 \
            / np.sum(np.abs(h) ** 2, axis=1)
        return bounds[0], scores

    @pytest.mark.parametrize("phases_deg", [(-15.0, 165.0), (0.0, 90.0)])
    def test_bound_equals_score_when_basis_spans_samples(self, phases_deg):
        # Four samples, K = 8 >= L: Q spans the sample space, so
        # ||Q^T h|| = ||h||. (0, 90) deg gives the codebook an offset of j.
        scenario = default_scenario(num_samples=4, reflection_set=tuple(
            np.exp(1j * np.deg2rad(phases_deg))))
        layout = toy_layout(num_cells=5, seed=3)
        cb = draw_codebook(5, 4, scenario.reflection_set, seed=4)
        model = build_steering_model(layout, cb, scenario)
        rng = np.random.default_rng(8)
        ys = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        points = rng.uniform([0.3, -1.0, -1.0], [2.0, 1.0, 1.0], (50, 3))
        bounds, scores = self.bounds_and_scores(
            model, ys, points, np.linalg.norm(points, axis=1))
        assert np.allclose(bounds, scores, rtol=1e-10, atol=0)

    def test_bound_never_below_score(self, layout, scenario, model):
        rng = np.random.default_rng(9)
        y_signal = steering_vector(model, np.array([1.5, 0.2, -0.5]),
                                   np.zeros(3))
        ys = [y_signal + 0.1 * (rng.standard_normal(40)
                                + 1j * rng.standard_normal(40)),
              rng.standard_normal(40) + 1j * rng.standard_normal(40)]
        points = rng.uniform([0.3, -1.0, -1.0], [2.0, 1.0, 1.0], (400, 3))
        bounds, scores = self.bounds_and_scores(
            model, ys, points, np.linalg.norm(points, axis=1))
        assert np.all(bounds >= scores * (1 - 1e-12))
        assert np.mean(bounds > scores * 1.01) > 0.5   # K < L: not tight

    @staticmethod
    def filtered_after_every_block(bound_pass, table):
        """(rows, unit, bound, floors) kept by raising the floors with
        every block's best-bounded row and filtering all kept rows again
        after each block."""
        from risloc.estimator import _scores
        bp = bound_pass
        idx, unit, bnd = np.empty(0, int), np.empty(0, int), np.empty(0)
        start = 0
        for re, im, rowsum in table.chunks:
            bound = bp.bounds(re, im, rowsum)
            j = bound.shape[1]
            top = np.argmax(bound, axis=2)
            h = (re[top].astype(float) + 1j * im[top]) @ bp.sp
            bp.floor = np.maximum(bp.floor, _scores(h, bp.ys) - bp.slack)
            reach = bp.floor - bp.slack
            ts, js, rows = np.nonzero(bound >= reach[:, :, None])
            idx = np.concatenate([idx, start + rows])
            unit = np.concatenate([unit, ts * j + js])
            bnd = np.concatenate([bnd, bound[ts, js, rows]])
            keep = bnd >= reach.flat[unit]
            idx, unit, bnd = idx[keep], unit[keep], bnd[keep]
            start += len(re)
        return idx, unit, bnd, bp.floor

    def test_survivors_match_filtering_after_every_block(self, layout,
                                                         scenario, model):
        from risloc import estimator
        grid = GridSpec(azimuth_deg=(-30, 30, 1), elevation_deg=(-30, 30, 1),
                        range_m=(0.1, 3.9, 0.2))
        table = estimator._nf_table(grid, model,
                                    estimator._TableCache(np.inf))
        assert table.dtype == np.float32 and len(table.chunks) == 37
        rng = np.random.default_rng(21)
        entries = []
        for seed, p in ((7, [1.5, 0.2, -0.5]), (8, [0.9, -0.3, 0.1])):
            cb = draw_codebook(layout.num_cells, scenario.num_samples,
                               scenario.reflection_set, seed=seed)
            m = build_steering_model(layout, cb, scenario)
            y = generate_snapshot(np.array(p), DEFAULT_UE_VELOCITY, layout,
                                  cb, scenario, noise_seed=seed).y
            noise = np.sqrt(np.mean(np.abs(y) ** 2) / 2) * (
                rng.standard_normal(40) + 1j * rng.standard_normal(40))
            entries.append((m, [y, noise]))
        bound_pass = estimator._BoundPass(entries, table.dtype)
        start = 0
        for re, im, rowsum in table.chunks:
            bound_pass.add_chunk(re, im, rowsum, start)
            start += len(re)
        got = bound_pass.survivors()
        *want, floors = self.filtered_after_every_block(
            estimator._BoundPass(entries, table.dtype), table)
        assert np.array_equal(bound_pass.floor, floors)
        for a, b in zip(got, want):                   # rows, unit, bound
            assert np.array_equal(a, b)
        # The noise snapshots keep rows from many blocks.
        noise_rows = got[0][got[1] % 2 == 1]
        assert len(np.unique(noise_rows // estimator._BLOCK_ROWS)) > 10
        winners = bound_pass.winners(table)
        for (m, ys), idxs in zip(entries, winners):
            assert idxs == list(np.argmin(brute_force_costs(ys, m, grid),
                                          axis=1))

    @pytest.mark.slow
    def test_default_grid_matches_double_brute_force(self, monkeypatch):
        # A line trial at 2 m and a pure-noise snapshot, where thousands
        # of candidates survive the bound pass and are rescored in blocks.
        from risloc import estimator
        from risloc.harness import ExperimentConfig, draw_trial
        model, snaps = draw_trial(ExperimentConfig(seed_base=1),
                                  np.array([np.sqrt(3.75), 0.0, -0.5]),
                                  4, 3, (True,))
        rng = np.random.default_rng(0)
        noise = np.sqrt(np.mean(np.abs(snaps[True].y) ** 2) / 2) * (
            rng.standard_normal(40) + 1j * rng.standard_normal(40))
        ys = [snaps[True].y, noise]
        grid = default_coarse_grid()
        costs = brute_force_costs(ys, model, grid)
        expect = [(grid_coord(grid, i), c[i])
                  for c, i in zip(costs, np.argmin(costs, axis=1))]
        blocks = []
        build = estimator._table_chunks

        def counting_build(points, ranges, model, dtype):
            if len(points) <= estimator._BLOCK_ROWS:
                blocks.append(len(points))
            return build(points, ranges, model, dtype)

        monkeypatch.setattr(estimator, "_table_chunks", counting_build)
        for cache in (False, True):
            got = nf_grid_search_batch([(model, ys)], grid, cache=cache)[0]
            for (coord, cost), (want, want_cost) in zip(got, expect):
                assert coord == want
                assert cost == pytest.approx(want_cost, rel=1e-9)
        # The noise snapshot rescored more than one block on each pass.
        assert sum(blocks) > 2 * 2 * estimator._BLOCK_ROWS

    @pytest.mark.slow
    @pytest.mark.parametrize("d_r, variant, run", [
        (1.2, "gs-nf-fine", 16), (1.4, "noap", 14), (2.0, "gs-nf-fine", 0),
        (1.4, "gs-nf-fine", 4)])
    def test_fine_near_ties_of_acceptance_sweep(self, d_r, variant, run):
        # Fine trials of the acceptance line sweep (seed_base 1) where a
        # single-precision fine search missed the grid optimum by a
        # relative cost of 6e-6 to 4.5e-5.
        from risloc.harness import VARIANTS, ExperimentConfig, draw_trial
        point = (0.8, 1.0, 1.2, 1.4, 2.0).index(d_r)
        pattern = VARIANTS[variant].use_pattern
        model, snaps = draw_trial(
            ExperimentConfig(seed_base=1),
            np.array([np.sqrt(d_r ** 2 - 0.25), 0.0, -0.5]), point, run,
            (pattern,))
        y = snaps[pattern].y
        coarse, _ = nf_grid_search_batch([(model, [y])],
                                         default_coarse_grid())[0][0]
        spec = fine_grid_spec(coarse)
        costs = brute_force_costs([y], model, spec)[0]
        got, cost = nf_fine_grid_search(y, model, coarse)
        assert got == grid_coord(spec, np.argmin(costs))
        assert cost == pytest.approx(costs.min(), rel=1e-9)


class TestTableBlocks:
    """Every table comes in blocks of _BLOCK_ROWS rows."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("far_field", [False, True])
    def test_chunks_equal_one_block(self, model, monkeypatch, far_field,
                                    dtype):
        from risloc import estimator
        rng = np.random.default_rng(3)
        points = rng.uniform([0.3, -1.0, -1.0], [2.0, 1.0, 1.0], (5000, 3))
        ranges = np.linalg.norm(points, axis=1)
        if far_field:
            points, ranges = points / ranges[:, None], None
        monkeypatch.setattr(estimator, "_SINGLE_PRECISION_THRESHOLD",
                            0 if dtype == np.float32 else np.inf)

        def planes(cache):
            table = estimator._table(
                model, len(points), lambda: (None, points, ranges), cache,
                ("blocks",))
            assert table.dtype == dtype
            chunks = list(table.chunks)
            return len(chunks), [np.concatenate(c) for c in zip(*chunks)]

        streamed = planes(None)
        cached = planes(estimator._TableCache(np.inf))
        monkeypatch.setattr(estimator, "_BLOCK_ROWS", len(points))
        reference = planes(None)
        # 5000 rows: two full blocks and a short one, streamed or cached.
        assert (streamed[0], cached[0]) == (3, 3)
        for _, got in (streamed, cached):
            for a, b in zip(got, reference[1]):       # re, im, row sums
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_streamed_search_holds_one_block(self, model):
        import tracemalloc
        from risloc import estimator
        grid = GridSpec(azimuth_deg=(-30, 30, 1), elevation_deg=(-30, 30, 1),
                        range_m=(0.1, 3.9, 0.2))
        cells = model.cell_centers.shape[0]
        assert grid.num_candidates >= 4 * 16384
        assert grid.num_candidates * cells \
            > estimator._SINGLE_PRECISION_THRESHOLD      # float32 table
        y = steering_vector(model, np.array([1.5, 0.2, -0.5]), np.zeros(3))
        tracemalloc.start()
        try:
            nf_grid_search(y, model, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One float32 plane of 16,384 rows (16384 * 508 * 4 bytes); the
        # streamed search holds a 2,048-row block pair, a quarter of that.
        assert peak < 33_292_288


class TestGridSpec:
    def test_angle_axis_ends_at_90_deg(self):
        # An axis may pass its stop by up to half a step: 92 deg here.
        az, el, _ = GridSpec(azimuth_deg=(82, 90, 5),
                             elevation_deg=(-90, -82, 5)).axis_values()
        assert list(az) == [82, 87, 90]
        assert list(el) == [-90, -85, -80]


class TestFineGridSearch:
    def test_on_fine_grid_truth_returned_unchanged(self, model):
        coarse = SphericalCoord(np.deg2rad(1.0), np.deg2rad(-14.0), 2.1)
        p = spherical_to_cartesian(coarse)
        y = steering_vector(model, p, np.zeros(3))
        got, cost = nf_fine_grid_search(y, model, coarse)
        assert got.azimuth == pytest.approx(coarse.azimuth, abs=1e-12)
        assert got.elevation == pytest.approx(coarse.elevation, abs=1e-9)
        assert got.range_m == pytest.approx(coarse.range_m, abs=1e-9)

    def test_fine_grid_cardinality(self):
        spec = fine_grid_spec(SphericalCoord(0.1, -0.2, 2.1))
        assert spec.num_candidates == 21 * 21 * 81

    @pytest.mark.parametrize("az_deg, el_deg", [
        (89.5, 0.0), (-89.5, 0.0), (0.0, 89.5), (0.0, -89.5)])
    def test_fine_grid_clipped_at_90_deg(self, az_deg, el_deg):
        spec = fine_grid_spec(SphericalCoord(np.deg2rad(az_deg),
                                             np.deg2rad(el_deg), 2.1))
        for axis in spec.axis_values()[:2]:
            assert -90.0 <= axis.min() and axis.max() <= 90.0
        # The clipped angle axis keeps 16 of its 21 values.
        assert spec.num_candidates == 16 * 21 * 81

    def test_never_worse_than_center(self, model):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        coarse = SphericalCoord(np.deg2rad(3.0), np.deg2rad(-12.0), 1.7)
        center_cost = projection_cost(
            y, steering_vector(model, spherical_to_cartesian(coarse),
                               np.zeros(3)))
        _, cost = nf_fine_grid_search(y, model, coarse)
        assert cost <= center_cost * (1 + 1e-12)


    def test_shared_fine_slot_under_threads(self):
        # Threads searching around different cells replace each other's
        # fine table; every result must still equal the serial one.
        import sys
        from concurrent.futures import ThreadPoolExecutor
        model, _, _ = toy_model(num_cells=5, num_samples=4, seed=2)
        rng = np.random.default_rng(6)
        jobs = [(rng.standard_normal(4) + 1j * rng.standard_normal(4),
                 SphericalCoord(np.deg2rad(rng.uniform(-20, 20)),
                                np.deg2rad(rng.uniform(-20, 20)),
                                rng.uniform(0.5, 2.5))) for _ in range(12)]
        serial = [nf_fine_grid_search(y, model, c) for y, c in jobs]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(nf_fine_grid_search, y, model, c)
                           for y, c in jobs + jobs]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert got == serial + serial


class TestFfGridSearch:
    def test_ff_phase_zero_at_reference_cell(self, monkeypatch):
        # A cell at the array reference has zero far-field phase for any
        # direction, so its table entry is the folded BS phase alone.
        from risloc import estimator
        from risloc.geometry import RisLayout
        scenario = default_scenario(num_samples=4)
        layout = RisLayout(cell_centers=np.zeros((1, 3)))
        cb = draw_codebook(1, 4, scenario.reflection_set, seed=1)
        model = build_steering_model(layout, cb, scenario)
        d_bs = np.linalg.norm(scenario.bs_position)
        expect = np.exp(-2j * np.pi * d_bs / scenario.wavelength)
        dirs = np.array([spherical_to_cartesian(
            SphericalCoord(np.deg2rad(a), np.deg2rad(e), 1.0))
            for a in (-30, 0, 30) for e in (-30, 0, 30)])
        monkeypatch.setattr(estimator, "_BLOCK_ROWS", 4)   # 3 blocks
        for re, im, _ in estimator._table_chunks(dirs, None, model,
                                                 np.float64):
            assert np.allclose(re + 1j * im, expect, rtol=0, atol=1e-12)

    def test_far_point_direction_recovered(self, layout, scenario, model):
        p = spherical_to_cartesian(SphericalCoord(0.0, np.deg2rad(-8.0),
                                                  3.5))
        y = steering_vector(model, p, np.zeros(3))
        grid = GridSpec(azimuth_deg=(-20, 20, 1), elevation_deg=(-30, 10, 1),
                        range_m=(0.1, 3.9, 0.2))
        got, _ = ff_grid_search(y, model, grid)
        assert abs(np.rad2deg(got.azimuth)) <= 2.0
        assert abs(np.rad2deg(got.elevation) + 8.0) <= 2.0

    def test_range_line_matches_per_range_loop(self, layout, scenario,
                                               model):
        grid = GridSpec(azimuth_deg=(-20, 20, 1), elevation_deg=(-30, 10, 1),
                        range_m=(0.1, 3.9, 0.2))
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=7)
        for seed, p in enumerate([(0.7, 0.0, -0.4), (1.3, 0.2, -0.5),
                                  (2.4, -0.3, -0.6)]):
            y = generate_snapshot(np.array(p), DEFAULT_UE_VELOCITY, layout,
                                  cb, scenario, noise_seed=seed).y
            got = ff_grid_search(y, model, grid)
            # Reference: the range line as one steering_vector per range.
            best = None
            for r in grid.axis_values()[2]:
                coord = SphericalCoord(got[0].azimuth, got[0].elevation,
                                       float(r))
                cost = projection_cost(y, steering_vector(
                    model, spherical_to_cartesian(coord), np.zeros(3)))
                if best is None or cost < best[1]:
                    best = (coord, cost)
            assert got == best

    def test_short_range_worse_than_nf(self, model):
        p = spherical_to_cartesian(SphericalCoord(0.0, np.deg2rad(-10.0),
                                                  0.5))
        y = steering_vector(model, p, np.zeros(3))
        grid = GridSpec(azimuth_deg=(-20, 20, 1), elevation_deg=(-30, 10, 1),
                        range_m=(0.1, 3.9, 0.2))
        ff, _ = ff_grid_search(y, model, grid)
        nf, _ = nf_grid_search(y, model, grid)
        ff_err = abs(ff.range_m - 0.5)
        nf_err = abs(nf.range_m - 0.5)
        assert nf_err <= 0.2
        assert ff_err > nf_err


class TestCfRefine:
    """Single CF rounds: ``refine_loop`` with CF_MAX_ITER patched to 1."""

    @pytest.fixture(autouse=True)
    def one_round(self, monkeypatch):
        monkeypatch.setattr(estimator, "CF_MAX_ITER", 1)

    def test_fixed_point_at_truth(self, model):
        p = np.array([2.0, 0.0, -0.5])
        y = steering_vector(model, p, DEFAULT_UE_VELOCITY)
        p1, v1, iters, _ = refine_loop(y, model, p, DEFAULT_UE_VELOCITY)
        assert iters == 1
        # Zero residual at the truth: the linearized steps must vanish.
        assert np.linalg.norm(p1 - p) < 1e-9
        assert np.linalg.norm(v1 - DEFAULT_UE_VELOCITY) < 1e-9

    def test_descent_from_position_offset(self, model):
        p = np.array([2.0, 0.0, -0.5])
        y = steering_vector(model, p, DEFAULT_UE_VELOCITY)
        start = p + np.array([0.0, 5e-3, 0.0])
        c0 = projection_cost(y, steering_vector(model, start,
                                                DEFAULT_UE_VELOCITY))
        p1, v1, iters, _ = refine_loop(y, model, start, DEFAULT_UE_VELOCITY)
        assert iters == 1
        c1 = projection_cost(y, steering_vector(model, p1, v1))
        assert c1 < c0

    def test_velocity_recovery_from_zero(self, model):
        p = np.array([2.0, 0.0, -0.5])
        y = steering_vector(model, p, DEFAULT_UE_VELOCITY)
        start_p = p + np.array([2e-3, -1e-3, 1e-3])
        err0 = np.linalg.norm(DEFAULT_UE_VELOCITY)
        p1, v1, _, _ = refine_loop(y, model, start_p, np.zeros(3))
        assert np.linalg.norm(v1 - DEFAULT_UE_VELOCITY) < err0

    def test_ill_conditioned_system_named(self):
        # Full rank for lstsq, but past the condition limit: the error
        # must name the condition test and the ratio, not the rank.
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        jac = q @ np.diag([1.0, 1e-3, 1e-12]) * (1 + 0.5j)
        assert np.linalg.matrix_rank(
            np.vstack([jac.real, jac.imag])) == 3
        with pytest.raises(SingularSystemError,
                           match="ill-conditioned.*1e-12") as exc:
            _solve_displacement(jac, rng.standard_normal(8) + 0j)
        assert "rank" not in str(exc.value)

    def test_rank_deficient_system_named(self):
        jac = np.zeros((8, 3), dtype=complex)
        jac[:, :2] = np.random.default_rng(4).standard_normal((8, 2))
        with pytest.raises(SingularSystemError, match="rank 2 of 3"):
            _solve_displacement(jac, np.ones(8, dtype=complex))


class TestRefineLoop:
    def test_converged_input_returns_after_one_iteration(self, model):
        p = np.array([2.0, 0.0, -0.5])
        y = steering_vector(model, p, DEFAULT_UE_VELOCITY)
        _, _, iters, _ = refine_loop(y, model, p, DEFAULT_UE_VELOCITY)
        assert iters == 1

    def test_monotone_cost_on_noisy_trials(self, monkeypatch):
        # The cost after each of the first five rounds, each read from a
        # run capped at that many rounds, must never rise, and must be the
        # cost that refine_loop returns.
        model, layout, scenario = toy_model(num_cells=19, num_samples=40,
                                            seed=6)
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = np.array([rng.uniform(0.8, 2.5), rng.uniform(-0.5, 0.5),
                          -0.5])
            y = steering_vector(model, p, np.zeros(3))
            y = y + 0.3 * (rng.standard_normal(40)
                           + 1j * rng.standard_normal(40))
            start = p + rng.normal(scale=5e-3, size=3)
            costs = [projection_cost(y, steering_vector(model, start,
                                                        np.zeros(3)))]
            for rounds in range(1, 6):
                monkeypatch.setattr(estimator, "CF_MAX_ITER", rounds)
                cur_p, cur_v, _, cost = refine_loop(y, model, start,
                                                    np.zeros(3))
                costs.append(projection_cost(
                    y, steering_vector(model, cur_p, cur_v)))
                assert cost == costs[-1]
            assert all(b <= a * (1 + 1e-12)
                       for a, b in zip(costs, costs[1:]))

    def test_no_point_evaluated_twice(self, layout, scenario, monkeypatch):
        # Every accepted step's model evaluation carries into the next
        # step, so no round starts by evaluating its point again. The
        # wrapper sits on _cell_terms, the kernel under both
        # _model_and_jacobian and steering_vector.
        p = np.array([np.sqrt(2.0 ** 2 - 0.25), 0.0, -0.5])
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=11)
        m = build_steering_model(layout, cb, scenario)
        snap = generate_snapshot(p, DEFAULT_UE_VELOCITY, layout, cb,
                                 scenario, noise_seed=12)
        seen = []
        cell_terms = estimator._cell_terms

        def counting(model, p, v):
            seen.append(np.concatenate([p, v]).tobytes())
            return cell_terms(model, p, v)

        monkeypatch.setattr(estimator, "_cell_terms", counting)
        refine_loop(snap.y, m, p + np.array([6e-3, -5e-3, 4e-3]),
                    np.zeros(3))
        assert len(seen) > 1
        repeats = len(seen) - len(set(seen))
        assert repeats == 0


class TestGradientDescent:
    """The 6D stage: analytic gradient and the Levenberg-Marquardt solver."""

    def test_analytic_gradient_matches_finite_differences(self, model):
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(50):
            p = np.array([rng.uniform(0.8, 3.0), rng.uniform(-1.0, 1.0),
                          rng.uniform(-1.0, 0.0)])
            v = rng.normal(scale=0.5, size=3)
            y = steering_vector(model, p + rng.normal(scale=1e-3, size=3),
                                v) \
                + 0.1 * (rng.standard_normal(40)
                         + 1j * rng.standard_normal(40))
            _, g = cost_and_grad(y, model, p, v)
            g_fd = np.zeros(6)
            theta = np.concatenate([p, v])
            for j in range(6):
                hj = 1e-7 * max(abs(theta[j]), 1.0)
                tp, tm = theta.copy(), theta.copy()
                tp[j] += hj
                tm[j] -= hj
                cp = projection_cost(y, steering_vector(model, tp[:3],
                                                        tp[3:]))
                cm = projection_cost(y, steering_vector(model, tm[:3],
                                                        tm[3:]))
                g_fd[j] = (cp - cm) / (2 * hj)
            denom = max(np.linalg.norm(g_fd), 1e-30)
            worst = max(worst, np.linalg.norm(g - g_fd) / denom)
        assert worst < 1e-4

    def test_start_at_minimum_stays(self, model):
        p = np.array([2.0, 0.0, -0.5])
        y = steering_vector(model, p, DEFAULT_UE_VELOCITY)
        p1, v1, iters, cost = lm_refine_6d(y, model, p, DEFAULT_UE_VELOCITY)
        assert iters == 0
        assert np.array_equal(p1, p)
        assert np.array_equal(v1, DEFAULT_UE_VELOCITY)

    def test_tightens_linearized_refinement_output(self, model):
        p = np.array([2.0, 0.0, -0.5])
        y = steering_vector(model, p, DEFAULT_UE_VELOCITY)
        start_p = p + 1e-2 * np.array([1.0, -1.0, 0.5]) / np.sqrt(2.25)
        start_v = DEFAULT_UE_VELOCITY + 0.1 * np.array([0.6, 0.0, -0.8])
        pc, vc, _, _ = refine_loop(y, model, start_p, start_v)
        c_cf = projection_cost(y, steering_vector(model, pc, vc))
        p1, v1, _, cost = lm_refine_6d(y, model, pc, vc)
        assert cost <= c_cf * (1 + 1e-12)
        assert np.linalg.norm(p1 - p) < 1e-7
        assert np.linalg.norm(v1 - DEFAULT_UE_VELOCITY) < 1e-5

    def test_final_cost_never_exceeds_start(self, model):
        rng = np.random.default_rng(31)
        p = np.array([1.5, -0.4, -0.5])
        y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        c0 = projection_cost(y, steering_vector(model, p, np.zeros(3)))
        _, _, _, cost = lm_refine_6d(y, model, p, np.zeros(3))
        assert cost <= c0


class TestEstimatePipeline:
    def test_noiseless_on_grid_end_to_end(self, model):
        coord = SphericalCoord(np.deg2rad(1.0), np.deg2rad(-15.0), 1.9)
        p = spherical_to_cartesian(coord)
        y = steering_vector(model, p, DEFAULT_UE_VELOCITY)
        cfg = EstimatorConfig(gs_variant="nf", grid=small_grid())
        trace = estimate(y, model, cfg)
        p_fin, v_fin = trace.final
        assert np.linalg.norm(p_fin - p) < 1e-5
        assert np.linalg.norm(v_fin - DEFAULT_UE_VELOCITY) < 1e-4

    def test_stage_costs_non_increasing(self, layout, scenario):
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=23)
        m = build_steering_model(layout, cb, scenario)
        snap = generate_snapshot(np.array([1.5, 0.3, -0.5]),
                                 DEFAULT_UE_VELOCITY, layout, cb, scenario,
                                 noise_seed=3)
        cfg = EstimatorConfig(gs_variant="nf-fine", grid=small_grid())
        trace = estimate(snap.y, m, cfg)
        costs = [rec.cost for rec in trace.records]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(costs, costs[1:]))
        assert [rec.stage for rec in trace.records] == \
            ["GS", "GS-fine", "CF", "6D"]

    def test_final_cost_not_above_truth(self, layout, scenario):
        # The ML property: an estimator that reaches the optimum of the
        # projection cost can do no worse than the cost at the true (p, v).
        for seed, p in enumerate([(1.5, 0.1, -0.5), (0.9, -0.1, -0.4),
                                  (2.2, 0.2, -0.6), (1.2, 0.0, -0.5)]):
            p = np.array(p)
            cb = draw_codebook(layout.num_cells, scenario.num_samples,
                               scenario.reflection_set, seed=100 + seed)
            m = build_steering_model(layout, cb, scenario)
            snap = generate_snapshot(p, DEFAULT_UE_VELOCITY, layout, cb,
                                     scenario, noise_seed=200 + seed)
            trace = estimate(snap.y, m, EstimatorConfig(grid=small_grid()))
            truth_cost = projection_cost(
                snap.y, steering_vector(m, p, DEFAULT_UE_VELOCITY))
            assert not trace.failures
            assert trace.records[-1].cost <= truth_cost

    @pytest.mark.parametrize("failing", ["CF", "6D"])
    def test_failed_stage_keeps_its_input(self, model, monkeypatch, failing):
        # A failing stage records the estimate it was given with 0
        # iterations, is listed on the trace, and the pipeline goes on.
        p = spherical_to_cartesian(SphericalCoord(np.deg2rad(1.0),
                                                  np.deg2rad(-15.0), 1.9))
        y = steering_vector(model, p, DEFAULT_UE_VELOCITY)
        exc = SingularSystemError("rank 2 of 3")
        solvers = {"CF": "refine_loop", "6D": "lm_refine_6d"}
        other, = set(solvers.values()) - {solvers[failing]}
        run_other = getattr(estimator, other)
        calls = []

        def fail(*args):
            raise exc

        def counted(*args):
            calls.append(other)
            return run_other(*args)

        monkeypatch.setattr(estimator, solvers[failing], fail)
        monkeypatch.setattr(estimator, other, counted)
        trace = estimate(y, model, EstimatorConfig(grid=small_grid()))
        assert [rec.stage for rec in trace.records] == ["GS", "CF", "6D"]
        assert trace.failures == [(failing, exc)]
        assert calls == [other]
        i = [rec.stage for rec in trace.records].index(failing)
        before, rec = trace.records[i - 1], trace.records[i]
        assert rec.iterations == 0
        assert np.array_equal(rec.p, before.p)
        assert np.array_equal(rec.v, before.v)
        assert rec.cost == before.cost
        if failing == "CF":
            # 6D still runs, from the GS estimate.
            assert trace.records[2].iterations > 0
            assert trace.records[2].cost < before.cost

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(gs_variant="bogus")
