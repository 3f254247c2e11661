"""Composite hexagonal RIS layout and coordinate transforms.

The RIS lives in the yz-plane with its center at the origin. The default
array is built from four hexagonal tiles of 127 unit cells each (508 cells
total), arranged symmetrically so that the array centroid is the origin, the
reference point of every range and steering phase.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLayout, OriginError, OverlapError

#: Nearest-neighbor unit cell spacing of the prototype tile, meters.
DEFAULT_CELL_SPACING = 8.7e-3

#: Effective unit cell size (d_y, d_z), meters.
DEFAULT_CELL_DIMS = (6.6e-3, 6.6e-3)

#: Rings per hexagonal tile; 6 rings -> 127 cells per tile.
DEFAULT_TILE_RINGS = 6

#: (y, z) tile center offsets for the 2x2 composite arrangement, meters.
#: Chosen so the composite aperture gives a Fraunhofer distance of ~16.3 m
#: at 23.8 GHz while keeping clearance between tiles.
DEFAULT_TILE_OFFSETS = (
    (0.0772, 0.0772),
    (0.0772, -0.0772),
    (-0.0772, 0.0772),
    (-0.0772, -0.0772),
)


@dataclass(frozen=True)
class RisLayout:
    """Positions and dimensions of the RIS unit cells.

    Attributes
    ----------
    cell_centers : ndarray, shape (M, 3)
        Unit cell center positions in meters; all in the yz-plane (x = 0).
    cell_dims : tuple of float
        Effective cell dimensions (d_y, d_z) in meters, both positive.
    """

    cell_centers: np.ndarray
    cell_dims: tuple = DEFAULT_CELL_DIMS

    def __post_init__(self):
        if not all(d > 0 for d in self.cell_dims):
            raise ValueError(
                f"cell dimensions must be positive, got {self.cell_dims}")

    @property
    def num_cells(self):
        return self.cell_centers.shape[0]


@dataclass(frozen=True)
class SphericalCoord:
    """Azimuth/elevation/range triple.

    Azimuth is measured in the xy-plane from +x toward +y, elevation from
    the xy-plane toward +z, both in radians; range is in meters.
    """

    azimuth: float
    elevation: float
    range_m: float

    def __post_init__(self):
        if not self.range_m > 0:
            raise ValueError(f"range must be positive, got {self.range_m}")
        if abs(self.azimuth) > np.pi:
            raise ValueError(f"|azimuth| must be <= pi, got {self.azimuth}")
        if abs(self.elevation) > np.pi / 2:
            raise ValueError(
                f"|elevation| must be <= pi/2, got {self.elevation}")


def build_hex_tile(rings, spacing):
    """Build a centered hexagonal lattice in the yz-plane.

    Parameters
    ----------
    rings : int
        Number of rings around the center cell; the tile has
        3*rings**2 + 3*rings + 1 cells.
    spacing : float
        Nearest-neighbor distance in meters.

    Returns
    -------
    ndarray, shape (N, 3)
        Cell centers with x = 0, centered on the local origin.
    """
    if rings < 0:
        raise ValueError(f"rings must be >= 0, got {rings}")
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    pts = []
    for i in range(-rings, rings + 1):
        for j in range(-rings, rings + 1):
            if max(abs(i), abs(j), abs(i + j)) <= rings:
                y = spacing * (i + 0.5 * j)
                z = spacing * (np.sqrt(3.0) / 2.0 * j)
                pts.append((0.0, y, z))
    return np.asarray(pts, dtype=float)


def _row_distances(points):
    """Distances from each row of ``points`` to the later rows, one row at
    a time so memory stays O(M)."""
    for i in range(len(points) - 1):
        yield np.linalg.norm(points[i + 1:] - points[i], axis=1)


def build_composite_ris(tile_offsets=DEFAULT_TILE_OFFSETS,
                        spacing=DEFAULT_CELL_SPACING,
                        cell_dims=DEFAULT_CELL_DIMS):
    """Assemble four hexagonal tiles into one composite RIS layout.

    Parameters
    ----------
    tile_offsets : sequence of 4 (y, z) pairs
        Tile center offsets in the yz-plane, meters.
    spacing : float
        Nearest-neighbor cell spacing within a tile, meters.
    cell_dims : tuple of float
        Effective cell dimensions (d_y, d_z), meters.

    Returns
    -------
    RisLayout

    Raises
    ------
    OverlapError
        If any two cells end up closer than ``spacing * (1 - 1e-6)``.
    """
    offsets = np.asarray(tile_offsets, dtype=float)
    if offsets.shape != (4, 2):
        raise ValueError(
            f"exactly 4 (y, z) tile offsets required, got shape {offsets.shape}")
    tile = build_hex_tile(DEFAULT_TILE_RINGS, spacing)
    cells = np.vstack([tile + np.array([0.0, oy, oz])
                       for oy, oz in offsets])
    # Recenter so the array centroid is exactly the origin.
    cells = cells - cells.mean(axis=0)
    dmin = min(d.min() for d in _row_distances(cells))
    if dmin < spacing * (1.0 - 1e-6):
        raise OverlapError(
            f"minimum cell distance {dmin:.6g} m below spacing {spacing:.6g} m")
    return RisLayout(cell_centers=cells, cell_dims=tuple(cell_dims))


def aperture(layout):
    """Maximum pairwise distance between cell centers, meters."""
    if layout.num_cells < 2:
        raise DegenerateLayout("aperture requires at least 2 cells")
    return float(max(d.max() for d in _row_distances(layout.cell_centers)))


def fraunhofer_distance(layout, wavelength):
    """Fraunhofer distance 2*D^2/lambda of the layout, meters."""
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    d_ap = aperture(layout)
    return 2.0 * d_ap ** 2 / wavelength


def spherical_to_cartesian(s):
    """Convert a SphericalCoord to a Cartesian 3-vector in meters."""
    ce = np.cos(s.elevation)
    return s.range_m * np.array([ce * np.cos(s.azimuth),
                                 ce * np.sin(s.azimuth),
                                 np.sin(s.elevation)])


def cartesian_to_spherical(p):
    """Convert a Cartesian 3-vector to SphericalCoord.

    Raises
    ------
    OriginError
        If ``p`` is the zero vector.
    """
    p = np.asarray(p, dtype=float)
    r = float(np.linalg.norm(p))
    if r == 0.0:
        raise OriginError("spherical coordinates undefined at the origin")
    elevation = float(np.arcsin(np.clip(p[2] / r, -1.0, 1.0)))
    azimuth = float(np.arctan2(p[1], p[0]))
    return SphericalCoord(azimuth=azimuth, elevation=elevation, range_m=r)
