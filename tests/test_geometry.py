import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from risloc.errors import DegenerateLayout, OriginError, OverlapError
from risloc.geometry import (DEFAULT_CELL_SPACING, RisLayout, SphericalCoord,
                             aperture, build_composite_ris, build_hex_tile,
                             cartesian_to_spherical, fraunhofer_distance,
                             _row_distances, spherical_to_cartesian)

WAVELENGTH = 299792458.0 / 23.8e9


class TestHexTile:
    def test_zero_rings_single_center_point(self):
        pts = build_hex_tile(0, 8.7e-3)
        assert pts.shape == (1, 3)
        assert np.allclose(pts[0], 0.0)

    def test_six_rings_has_127_points(self):
        assert build_hex_tile(6, 8.7e-3).shape[0] == 127

    @pytest.mark.parametrize("rings", range(11))
    def test_centered_hexagonal_count(self, rings):
        expect = 3 * rings ** 2 + 3 * rings + 1
        assert build_hex_tile(rings, 1.0).shape[0] == expect

    def test_first_ring_at_unit_distance(self):
        pts = build_hex_tile(1, 1.0)
        dists = np.linalg.norm(pts, axis=1)
        assert pts.shape[0] == 7
        assert np.sum(np.isclose(dists, 1.0)) == 6
        assert np.sum(np.isclose(dists, 0.0)) == 1

    def test_points_in_yz_plane(self):
        assert np.all(build_hex_tile(4, 0.01)[:, 0] == 0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_hex_tile(-1, 1.0)
        with pytest.raises(ValueError):
            build_hex_tile(2, 0.0)


class TestCompositeRis:
    def test_default_layout_has_508_cells(self, layout):
        assert layout.num_cells == 508

    def test_centroid_at_origin(self, layout):
        assert np.linalg.norm(layout.cell_centers.mean(axis=0)) < 1e-9

    def test_cells_in_yz_plane(self, layout):
        assert np.all(layout.cell_centers[:, 0] == 0.0)

    def test_min_spacing_respected(self, layout):
        assert pdist(layout.cell_centers).min() >= DEFAULT_CELL_SPACING - 1e-9

    def test_overlapping_tiles_rejected(self):
        with pytest.raises(OverlapError):
            build_composite_ris(tile_offsets=[(0, 0)] * 4)

    def test_wrong_tile_count_rejected(self):
        with pytest.raises(ValueError):
            build_composite_ris(tile_offsets=[(0.08, 0.08)])


class TestAperture:
    def test_two_cells(self):
        lay = RisLayout(cell_centers=np.array([[0.0, 0.0, 0.0],
                                               [0.0, 0.1, 0.0]]))
        assert aperture(lay) == pytest.approx(0.1)

    def test_hex_ring_opposite_points(self):
        lay = RisLayout(cell_centers=build_hex_tile(1, 1.0))
        assert aperture(lay) == pytest.approx(2.0)

    def test_default_layout_near_expected(self, layout):
        # D = sqrt(d_F * lambda / 2) with d_F = 16.3 m
        assert aperture(layout) == pytest.approx(0.32, rel=0.05)

    def test_matches_pdist(self, layout):
        # The overlap check's minimum and the aperture, row by row, equal
        # scipy's all-pairs distances bit for bit.
        rng = np.random.default_rng(3)
        for cells in (layout.cell_centers, rng.standard_normal((40, 3)),
                      1e-3 * rng.standard_normal((7, 3))):
            dist = pdist(cells)
            assert aperture(RisLayout(cell_centers=cells)) == dist.max()
            assert min(d.min() for d in _row_distances(cells)) == dist.min()
        assert aperture(layout) == 0.3203388682403268

    def test_single_cell_degenerate(self):
        lay = RisLayout(cell_centers=np.zeros((1, 3)))
        with pytest.raises(DegenerateLayout):
            aperture(lay)

    def test_rotation_invariance_about_x(self, layout):
        ang = 0.7
        rot = np.array([[1, 0, 0],
                        [0, np.cos(ang), -np.sin(ang)],
                        [0, np.sin(ang), np.cos(ang)]])
        rotated = RisLayout(cell_centers=layout.cell_centers @ rot.T)
        assert aperture(rotated) == pytest.approx(aperture(layout),
                                                  rel=1e-12)


class TestFraunhofer:
    def test_direct_formula(self):
        lay = RisLayout(cell_centers=np.array([[0, 0, -0.5], [0, 0, 0.5]]))
        assert fraunhofer_distance(lay, 0.5) == pytest.approx(4.0)

    def test_default_layout_within_5pct_of_16p3(self, layout):
        assert fraunhofer_distance(layout, WAVELENGTH) == \
            pytest.approx(16.3, rel=0.05)
        assert fraunhofer_distance(layout, WAVELENGTH) == 16.29316754880301

    def test_formula_evaluation(self):
        lay = RisLayout(cell_centers=np.array([[0, 0, -0.16], [0, 0, 0.16]]))
        assert fraunhofer_distance(lay, 12.596e-3) == \
            pytest.approx(2 * 0.32 ** 2 / 12.596e-3, rel=1e-9)

    def test_homogeneity(self, layout):
        doubled = RisLayout(cell_centers=2.0 * layout.cell_centers)
        assert fraunhofer_distance(doubled, WAVELENGTH) == \
            pytest.approx(4.0 * fraunhofer_distance(layout, WAVELENGTH),
                          rel=1e-12)


class TestSpherical:
    def test_boresight_is_plus_x(self):
        p = spherical_to_cartesian(SphericalCoord(0.0, 0.0, 2.0))
        assert np.allclose(p, [2.0, 0.0, 0.0])

    def test_azimuth_90_is_plus_y(self):
        p = spherical_to_cartesian(SphericalCoord(np.pi / 2, 0.0, 1.0))
        assert np.allclose(p, [0.0, 1.0, 0.0], atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(az=st.floats(-np.pi, np.pi),
           el=st.floats(-np.pi / 2, np.pi / 2),
           r=st.floats(1e-3, 1e3))
    def test_round_trip(self, az, el, r):
        s = SphericalCoord(az, el, r)
        p = spherical_to_cartesian(s)
        back = cartesian_to_spherical(p)
        assert back.range_m == pytest.approx(np.linalg.norm(p), rel=1e-12)
        p2 = spherical_to_cartesian(back)
        assert np.linalg.norm(p2 - p) < 1e-9 * max(1.0, r)

    def test_origin_rejected(self):
        with pytest.raises(OriginError):
            cartesian_to_spherical(np.zeros(3))

    def test_invalid_coordinate_ranges(self):
        with pytest.raises(ValueError):
            SphericalCoord(0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            SphericalCoord(4.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SphericalCoord(0.0, 2.0, 1.0)
