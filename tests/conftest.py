import numpy as np
import pytest

from risloc.channel import default_scenario, draw_codebook
from risloc.estimator import build_steering_model
from risloc.geometry import build_composite_ris


@pytest.fixture(scope="session")
def layout():
    return build_composite_ris()


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def model(layout, scenario):
    codebook = draw_codebook(layout.num_cells, scenario.num_samples,
                             scenario.reflection_set, seed=7)
    return build_steering_model(layout, codebook, scenario)


def toy_layout(num_cells=5, seed=0, spacing=0.05):
    """Small random layout in the yz-plane for brute-force comparisons."""
    from risloc.geometry import RisLayout
    rng = np.random.default_rng(seed)
    cells = np.zeros((num_cells, 3))
    cells[:, 1:] = rng.uniform(-0.15, 0.15, size=(num_cells, 2))
    return RisLayout(cell_centers=cells)


def brute_force_costs(ys, model, grid, rows=4096):
    """Projection cost of every candidate of ``grid`` (row-major azimuth,
    elevation, range) for each snapshot in ``ys``, in double precision and
    straight from the steering model's ``w``, as steering_vector at v = 0
    computes it, vectorized over candidates. Returns an array of shape
    (len(ys), candidates)."""
    az, el, r = grid.axis_values()
    aa, ee, rr = (x.ravel() for x in np.meshgrid(
        np.deg2rad(az), np.deg2rad(el), r, indexing="ij"))
    pos = rr[:, None] * np.column_stack(
        [np.cos(ee) * np.cos(aa), np.cos(ee) * np.sin(aa), np.sin(ee)])
    ys = np.asarray(ys)
    k0 = 2.0 * np.pi / model.wavelength
    q = model.cell_centers
    costs = np.empty((len(ys), len(pos)))
    for lo in range(0, len(pos), rows):
        r_blk = rr[lo:lo + rows, None]
        dist = np.sqrt(r_blk ** 2 - 2.0 * pos[lo:lo + rows] @ q.T
                       + np.sum(q ** 2, axis=1))
        phase = k0 * (dist - r_blk)
        cos, sin = np.cos(phase), np.sin(phase)
        # h = exp(-j phase) @ w in real arithmetic.
        h = cos @ model.w.real + sin @ model.w.imag \
            + 1j * (cos @ model.w.imag - sin @ model.w.real)
        costs[:, lo:lo + rows] = np.sum(np.abs(ys) ** 2, axis=1)[:, None] \
            - (np.abs(h.conj() @ ys.T) ** 2
               / np.sum(np.abs(h) ** 2, axis=1)[:, None]).T
    return costs


def grid_coord(grid, index):
    """The SphericalCoord of candidate ``index`` of ``grid``."""
    from risloc.geometry import SphericalCoord
    az, el, r = grid.axis_values()
    ia, rest = divmod(int(index), len(el) * len(r))
    ie, ir = divmod(rest, len(r))
    return SphericalCoord(float(np.deg2rad(az[ia])),
                          float(np.deg2rad(el[ie])), float(r[ir]))
