"""Near-field ML position and velocity estimation.

The estimator works on the simplified signal model y = alpha * h(p, v) + n,
where h_ell = w_ell^T a_ell(p, v) combines the known codebook/BS phases
(w) with the hypothesized RIS-UE phase response (a). The complex gain
alpha is eliminated by projecting the snapshot onto the orthogonal
complement of h, leaving the projection residual as the cost surface.

The pipeline has three steps: a 3D near-field grid search over azimuth,
elevation and range (optionally refined on a finer grid), a few rounds of
alternating linearized least-squares refinement of position and velocity
as a warm start, and a final joint 6D variable-projection
Levenberg-Marquardt solve.

All grid searches (coarse and fine near-field, far-field directions and
the far-field range line) share one table builder and one scorer. The
builder yields the table exp(j phi_nm) b_m in chunks of real re/im
planes, with the hypothesized RIS-UE phase phi and the known BS phase b
folded in. The reflection set has exactly two values, so the codebook is
an offset plus a +/-1 sign matrix up to a common factor, which the
projection cost ignores: the scorer is a handful of real GEMMs.
Sweeps cache the coarse tables per (grid, layout, BS position) and score
many snapshots per pass; one-shot searches stream the chunks and keep
nothing. Fine tables are kept one at a time.
"""

import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from hashlib import sha1

import numpy as np

from .errors import OriginError, SingularSystemError, ZeroModelError
from .geometry import SphericalCoord, spherical_to_cartesian

# Grids larger than this (candidates x cells) are scored in single
# precision; small toy grids stay in double so brute-force comparisons
# are exact.
_SINGLE_PRECISION_THRESHOLD = 4_000_000

_CHUNK_ROWS = 16384

_CACHE_BYTES_LIMIT = 2_400_000_000

#: CF rounds before the 6D solve; README "Why CF runs only 3 rounds".
CF_MAX_ITER = 3

#: CF stops once a round lowers the cost by less than this share of it.
_CF_COST_TOL = 1e-6

#: Smallest/largest singular value below which CF rejects its system.
_CF_MIN_SV_RATIO = 1e-10

#: 6D LM: step cap; stop once the predicted decrease is below LM_COST_TOL
#: of the cost (near the cost's own rounding); initial damping, and the
#: damping above which the solver gives up.
LM_MAX_ITER = 100
LM_COST_TOL = 1e-12
_LM_LAMBDA_INIT = 1e-3
_LM_LAMBDA_MAX = 1e12


@dataclass(frozen=True)
class SteeringModel:
    """Precomputed quantities of the simplified signal model.

    ``w[m, ell] = gamma[m, ell] * exp(-j 2 pi ||p_BS - q_m|| / lambda)``
    absorbs everything known; the steering vector adds the hypothesized
    RIS-UE phases on top. The grid searches use the same model split in
    two: the BS phase ``bs_phase`` (radians, reduced mod 2 pi), which their
    tables fold in, and the two-value codebook written as
    ``gamma = delta * (offset + signs)`` with ``signs`` = +/-1 and the
    common factor delta dropped.
    """

    cell_centers: np.ndarray   # (M, 3) m
    w: np.ndarray              # (M, L) complex, unit modulus
    wavelength: float
    sample_time: float
    num_samples: int
    bs_phase: np.ndarray       # (M,) rad
    signs: np.ndarray          # (M, L) +/-1
    offset: complex            # mu / delta of the reflection set


def build_steering_model(layout, codebook, scenario):
    """Assemble the steering model from layout, codebook and scenario.

    The codebook must draw from the scenario's two-value reflection set
    {g0, g1}; its entries are split as (g0 + g1)/2 + s (g0 - g1)/2.
    """
    q = layout.cell_centers
    d_bs = np.linalg.norm(scenario.bs_position[None, :] - q, axis=1)
    phase = np.exp(-2j * np.pi * d_bs / scenario.wavelength)
    g0, g1 = scenario.reflection_set
    gamma = codebook.gamma
    if not np.all((gamma == g0) | (gamma == g1)):
        raise ValueError("codebook entries must come from the scenario's "
                         "reflection set")
    return SteeringModel(
        cell_centers=q, w=gamma * phase[:, None],
        wavelength=scenario.wavelength, sample_time=scenario.sample_time,
        num_samples=scenario.num_samples,
        bs_phase=-np.mod(2.0 * np.pi / scenario.wavelength * d_bs,
                         2.0 * np.pi),
        signs=np.where(gamma == g0, 1.0, -1.0),
        offset=complex((g0 + g1) / (g0 - g1)))


@dataclass(frozen=True)
class GridSpec:
    """Inclusive (start, stop, step) axes of the 3D search grid.

    Azimuth and elevation are in degrees, range in meters.
    """

    azimuth_deg: tuple = (-70.0, 70.0, 1.0)
    elevation_deg: tuple = (-70.0, 70.0, 1.0)
    range_m: tuple = (0.1, 3.9, 0.2)

    def __post_init__(self):
        for name, ax in (("azimuth", self.azimuth_deg),
                         ("elevation", self.elevation_deg),
                         ("range", self.range_m)):
            lo, hi, step = ax
            if not step > 0:
                raise ValueError(f"{name} step must be positive")
            if hi < lo:
                raise ValueError(f"{name} axis is empty")
        if self.range_m[0] <= 0:
            raise ValueError("range axis must be strictly positive")

    def axis_values(self):
        """The three axis arrays (azimuth deg, elevation deg, range m)."""
        return tuple(np.arange(lo, hi + 0.5 * step, step)
                     for lo, hi, step in (self.azimuth_deg,
                                          self.elevation_deg,
                                          self.range_m))

    @property
    def num_candidates(self):
        az, el, r = self.axis_values()
        return len(az) * len(el) * len(r)


def default_coarse_grid():
    """The reference coarse search grid (141 x 141 x 20 candidates)."""
    return GridSpec()


@dataclass
class StageRecord:
    stage: str
    p: np.ndarray
    v: np.ndarray
    cost: float
    iterations: int


@dataclass
class EstimateTrace:
    """Per-stage estimates of one pipeline run."""

    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def final(self):
        rec = self.records[-1]
        return rec.p, rec.v

    def record(self, stage, p, v, cost, iterations=0):
        self.records.append(StageRecord(stage=stage,
                                        p=np.asarray(p, dtype=float),
                                        v=np.asarray(v, dtype=float),
                                        cost=float(cost),
                                        iterations=int(iterations)))

    def stage_named(self, stage):
        for rec in self.records:
            if rec.stage == stage:
                return rec
        raise KeyError(stage)


# ---------------------------------------------------------------------------
# Core model evaluation


def steering_vector(model, p, v):
    """Model response h(p, v) of length L.

    The common range ||p|| is subtracted inside every per-cell exponent so
    the entries stay numerically tame in the near field.
    """
    wa, _, _, _ = _cell_terms(model, p, v)
    return wa.sum(axis=1)


def _cell_terms(model, p, v):
    """(wa, pos, dist, ell_t): wa[ell, m] = w[m, ell] a[ell, m] sums over
    m to h; pos[ell] is the UE position and dist[ell, m] its distance to
    cell m at sample ell."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    r = float(np.linalg.norm(p))
    if r == 0.0:
        raise OriginError("steering vector undefined at the array center")
    ell_t = np.arange(model.num_samples) * model.sample_time
    pos = p[None, :] + ell_t[:, None] * v[None, :]
    diff = pos[:, None, :] - model.cell_centers[None, :, :]   # (L, M, 3)
    dist = np.linalg.norm(diff, axis=2)                       # (L, M)
    a = np.exp(-2j * np.pi / model.wavelength * (dist - r))
    return model.w.T * a, pos, dist, ell_t


def _model_and_jacobian(model, p, v):
    """Model response h and its Jacobian dh/d(p, v), an (L, 6) matrix.

    dh/dp = -j k sum_m w a (u_m - p/||p||) and dh/dv = -j k ell T sum_m
    w a u_m, with u_m the unit vector from cell m to the UE.
    """
    wa, pos, dist, ell_t = _cell_terms(model, p, v)
    h = wa.sum(axis=1)
    k0 = 2.0 * np.pi / model.wavelength
    # s_ell = sum_m wa u_m with u_m = (pos_ell - q_m) / dist, as one GEMM.
    c = wa / dist
    s_vec = c.sum(axis=1)[:, None] * pos - c @ model.cell_centers
    uhat = np.asarray(p, dtype=float) / np.linalg.norm(p)
    jac = np.empty((len(h), 6), dtype=complex)
    jac[:, :3] = -1j * k0 * (s_vec - h[:, None] * uhat[None, :])
    jac[:, 3:] = -1j * k0 * ell_t[:, None] * s_vec
    return h, jac


def ml_alpha(y, h):
    """Conditional ML estimate of the complex gain: h^H y / ||h||^2."""
    nh2 = np.vdot(h, h).real
    if nh2 == 0.0:
        raise ZeroModelError("model vector has zero norm")
    return np.vdot(h, y) / nh2


def projection_cost(y, h):
    """Energy of y orthogonal to h: ||y||^2 - |h^H y|^2 / ||h||^2."""
    nh2 = np.vdot(h, h).real
    if nh2 == 0.0:
        raise ZeroModelError("model vector has zero norm")
    cost = np.vdot(y, y).real - abs(np.vdot(h, y)) ** 2 / nh2
    return max(float(cost), 0.0)


# ---------------------------------------------------------------------------
# Grid search
#
# Every search scores its candidates against one kind of steering table,
# T[n, m] = exp(j phi_nm) b_m: phi_nm is the hypothesized RIS-UE phase of
# cell m for candidate n, b_m the known BS phase. With the codebook split
# as gamma = delta (offset + s), s = +/-1, candidate n responds with
# h = delta (offset rowsum(T)[n] + (T @ S)[n]); the projection cost ignores
# the common scale delta, so real GEMMs of the table's re/im planes with
# the real sign matrix S score it.


#: Candidate coordinates (az rad, el rad, r m) and positions (m) plus the
#: steering table as chunks of ``dtype`` from :func:`_table_chunks`: a list
#: when cached, a generator when streamed.
_Table = namedtuple("_Table", "coords positions chunks dtype")


class _TableCache:
    """Built tables, least recently used first, bounded in bytes.

    A miss evicts before it builds, so the bound also holds while the new
    table is built; a bound of 0 keeps only the latest table.
    """

    def __init__(self, limit):
        self.limit = limit
        self._tables = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, nbytes, build):
        with self._lock:
            if key in self._tables:
                self._tables.move_to_end(key)
                return self._tables[key][1]
            held = sum(size for size, _ in self._tables.values())
            while self._tables and held + nbytes > self.limit:
                held -= self._tables.popitem(last=False)[1][0]
            table = build()
            self._tables[key] = (nbytes, table)
            return table


#: Coarse near-field and far-field tables, shared by sweep workers.
_COARSE_TABLES = _TableCache(_CACHE_BYTES_LIMIT)
#: Fine tables, one at a time: each serves the trials of one coarse cell.
_FINE_TABLES = _TableCache(0)


def _table_chunks(points, ranges, model, dtype):
    """Yield the steering table _CHUNK_ROWS rows at a time as (re, im,
    row sums).

    With ``ranges`` (near field), row n holds exp(-j k (||p_n - q_m|| -
    r_n)) b_m for the candidate p_n at range r_n; ``d - r`` is evaluated as
    ``(||q||^2 - 2 p.q) / (d + r)`` to avoid cancellation, which also lets
    the distances come out of one GEMM. With ``ranges`` None (far field),
    p_n is a unit direction and row n holds exp(j k p_n.q_m) b_m.
    """
    k0 = 2.0 * np.pi / model.wavelength
    q = model.cell_centers.astype(dtype)
    nq2 = (q ** 2).sum(axis=1)
    bs_phase = model.bs_phase.astype(dtype)
    ones = np.ones(len(q), dtype=dtype)
    for lo in range(0, len(points), _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, len(points))
        pq = points[lo:hi].astype(dtype) @ q.T
        if ranges is None:
            phase = k0 * pq
        else:
            delta = nq2[None, :] - 2.0 * pq                  # d^2 - r^2
            r_blk = ranges[lo:hi, None].astype(dtype)
            dist = np.sqrt(np.maximum(r_blk ** 2 + delta, 0.0))
            phase = -k0 * delta / (dist + r_blk)
        phase += bs_phase
        re, im = np.cos(phase), np.sin(phase)
        yield re, im, re @ ones + 1j * (im @ ones)


def _table(model, num_rows, candidates, cache=None, key=None):
    """The table of the candidates that ``candidates()`` returns as
    (coords, positions, ranges): streamed if ``cache`` is None, else built
    once per ``key`` and kept in ``cache``."""
    dtype = np.float32 if num_rows * model.cell_centers.shape[0] \
        > _SINGLE_PRECISION_THRESHOLD else np.float64

    def build(stream):
        coords, positions, ranges = candidates()
        chunks = _table_chunks(positions, ranges, model, dtype)
        return _Table(coords, positions, chunks if stream else list(chunks),
                      dtype)

    if cache is None:
        return build(stream=True)
    digest = sha1(np.ascontiguousarray(model.cell_centers).tobytes())
    digest.update(np.ascontiguousarray(model.bs_phase).tobytes())
    nbytes = 2 * num_rows * model.cell_centers.shape[0] \
        * np.dtype(dtype).itemsize
    return cache.get(key + (round(model.wavelength, 15), digest.hexdigest()),
                     nbytes, lambda: build(stream=False))


def _coords_to_positions(coords):
    ce = np.cos(coords[:, 1])
    return coords[:, 2:3] * np.column_stack(
        [ce * np.cos(coords[:, 0]), ce * np.sin(coords[:, 0]),
         np.sin(coords[:, 1])])


def _nf_table(grid, model, cache):
    """Candidates in row-major (az, el, r) order."""
    def candidates():
        az_deg, el_deg, r_m = grid.axis_values()
        aa, ee, rr = np.meshgrid(np.deg2rad(az_deg), np.deg2rad(el_deg),
                                 r_m, indexing="ij")
        coords = np.column_stack([aa.ravel(), ee.ravel(), rr.ravel()])
        return coords, _coords_to_positions(coords), coords[:, 2]

    return _table(model, grid.num_candidates, candidates, cache,
                  ("nf", grid))


def _direction_table(grid, model):
    """Far-field table on the (azimuth, elevation) grid, range free."""
    az_deg, el_deg, _ = grid.axis_values()

    def candidates():
        aa, ee = np.meshgrid(np.deg2rad(az_deg), np.deg2rad(el_deg),
                             indexing="ij")
        coords = np.column_stack([aa.ravel(), ee.ravel(), np.ones(aa.size)])
        return coords, _coords_to_positions(coords), None

    return _table(model, len(az_deg) * len(el_deg), candidates,
                  _COARSE_TABLES,
                  ("ff", grid.azimuth_deg, grid.elevation_deg))


def _check_entries(entries):
    """All models must share the first one's cell geometry and BS phase,
    which the table folds in."""
    ref = entries[0][0]
    for model, _ in entries:
        for name in ("cell_centers", "bs_phase"):
            mine, theirs = getattr(model, name), getattr(ref, name)
            if mine is not theirs and not np.array_equal(mine, theirs):
                raise ValueError("batched models must share cell geometry "
                                 "and BS position")


def _best_candidates(table, entries):
    """Score (model, snapshots) entries against a table.

    Returns the winning global candidate index per snapshot, grouped per
    entry; ties break to the lowest index. Per chunk, two real GEMMs with
    the models' stacked sign matrices give every response, and two more
    with each model's snapshots, stacked as [Re y, Im y], give h^H y.
    """
    dtype = table.dtype
    num_samples = entries[0][0].num_samples
    signs = np.concatenate([m.signs for m, _ in entries], axis=1).astype(dtype)
    offsets = np.array([m.offset for m, _ in entries],
                       dtype=np.result_type(dtype, np.complex64))
    y_stacks = [np.concatenate([np.real(ys).T, np.imag(ys).T],
                               axis=1).astype(dtype) for _, ys in entries]
    best_val = [np.full(len(ys), -np.inf) for _, ys in entries]
    best_idx = [np.zeros(len(ys), dtype=int) for _, ys in entries]
    start = 0
    for re, im, rowsum in table.chunks:
        n = len(re)
        shift = rowsum[:, None] * offsets[None, :]
        hr = (re @ signs).reshape(n, len(entries), num_samples)
        hi = (im @ signs).reshape(n, len(entries), num_samples)
        hr += shift.real[:, :, None]
        hi += shift.imag[:, :, None]
        den = np.einsum("ntl,ntl->nt", hr, hr) \
            + np.einsum("ntl,ntl->nt", hi, hi)
        np.maximum(den, np.finfo(dtype).tiny, out=den)
        for t, y_stack in enumerate(y_stacks):
            k = y_stack.shape[1] // 2
            a = hr[:, t, :] @ y_stack
            b = hi[:, t, :] @ y_stack
            val = ((a[:, :k] + b[:, k:]) ** 2
                   + (a[:, k:] - b[:, :k]) ** 2) / den[:, t:t + 1]
            i = np.argmax(val, axis=0)
            top = val[i, np.arange(k)]
            better = top > best_val[t]
            best_val[t][better] = top[better]
            best_idx[t][better] = start + i[better]
        start += n
    return [idx.tolist() for idx in best_idx]


def _search(table, entries):
    """Per entry, ``(SphericalCoord, cost)`` of each snapshot's winner, with
    the cost recomputed exactly in double precision."""
    out = []
    for (model, ys), idxs in zip(entries, _best_candidates(table, entries)):
        row = []
        for y, i in zip(ys, idxs):
            az, el, r = table.coords[i]
            coord = SphericalCoord(azimuth=float(az), elevation=float(el),
                                   range_m=float(r))
            h = steering_vector(model, table.positions[i], np.zeros(3))
            row.append((coord, projection_cost(y, h)))
        out.append(row)
    return out


def nf_grid_search_batch(entries, grid, cache=True):
    """Near-field grid search for many snapshots sharing one geometry.

    ``entries`` is a list of ``(model, [y, ...])`` pairs; all models must
    have identical cell positions, BS position and wavelength. Returns, per
    entry, a list of ``(SphericalCoord, cost)`` results (v assumed zero).
    With ``cache`` the table is built once and kept for later searches on
    the same grid; without, each chunk is built, scored and dropped.
    """
    _check_entries(entries)
    table = _nf_table(grid, entries[0][0],
                      _COARSE_TABLES if cache else None)
    return _search(table, entries)


def nf_grid_search(y, model, grid):
    """Exhaustive near-field search, streamed; returns (SphericalCoord,
    cost)."""
    return nf_grid_search_batch([(model, [y])], grid, cache=False)[0][0]


#: Fine grid around a coarse cell: half-width and step of both angle axes
#: (deg) and of the range axis (m).
_FINE_ANGLE_HALFWIDTH_DEG = 1.0
_FINE_ANGLE_STEP_DEG = 0.1
_FINE_RANGE_HALFWIDTH_M = 0.2
_FINE_RANGE_STEP_M = 0.005


def fine_grid_spec(coarse):
    """Refined grid centered on a coarse estimate.

    Elevation is clipped to +/-90 deg and the range axis to positive
    values, so the fine grid near the search-space edge simply shrinks.
    """
    az0 = np.rad2deg(coarse.azimuth)
    el0 = np.rad2deg(coarse.elevation)
    half, step = _FINE_ANGLE_HALFWIDTH_DEG, _FINE_ANGLE_STEP_DEG
    r_lo = coarse.range_m - _FINE_RANGE_HALFWIDTH_M
    if r_lo <= 0:
        r_lo = _FINE_RANGE_STEP_M
    return GridSpec(
        azimuth_deg=(az0 - half, az0 + half, step),
        elevation_deg=(max(-90.0, el0 - half), min(90.0, el0 + half), step),
        range_m=(r_lo, coarse.range_m + _FINE_RANGE_HALFWIDTH_M,
                 _FINE_RANGE_STEP_M))


def nf_fine_grid_search(y, model, coarse):
    """Fine near-field search centered on the coarse estimate.

    The table is kept until a search around another cell replaces it, so
    callers should run the searches of one coarse cell together.
    """
    entries = [(model, [y])]
    _check_entries(entries)
    return _search(_nf_table(fine_grid_spec(coarse), model, _FINE_TABLES),
                   entries)[0][0]


def ff_grid_search(y, model, grid):
    """Far-field two-stage search: 2D (az, el) grid, then a range line
    search with the near-field model.

    The far-field steering phase is range independent, and the projection
    cost ignores any common scale, so no nominal range enters stage one.
    The range line is scored as one near-field table.
    """
    entries = [(model, [y])]
    _check_entries(entries)
    dirs = _direction_table(grid, model)
    az, el, _ = dirs.coords[_best_candidates(dirs, entries)[0][0]]
    r_axis = grid.axis_values()[2]

    def range_line():
        coords = np.column_stack([np.full_like(r_axis, az),
                                  np.full_like(r_axis, el), r_axis])
        return coords, np.array([spherical_to_cartesian(
            SphericalCoord(*map(float, c))) for c in coords]), r_axis

    return _search(_table(model, len(r_axis), range_line), entries)[0][0]


# ---------------------------------------------------------------------------
# Closed-form style refinement (alternating linearized least squares)


def _solve_displacement(jac, resid):
    """Real-valued least squares for a complex linear system.

    Raises SingularSystemError when the system is rank deficient or its
    condition exceeds tolerance.
    """
    a = np.vstack([jac.real, jac.imag])
    b = np.concatenate([resid.real, resid.imag])
    sol, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    if rank < jac.shape[1]:
        raise SingularSystemError(
            f"displacement system rank {rank} of {jac.shape[1]}")
    if sv[-1] <= _CF_MIN_SV_RATIO * sv[0]:
        raise SingularSystemError(
            f"displacement system ill-conditioned: smallest/largest "
            f"singular value {sv[-1] / sv[0]:.3g} <= {_CF_MIN_SV_RATIO:g}")
    return sol


def cf_refine(y, model, p, v):
    """One alternating position/velocity refinement round.

    The per-cell phase response is linearized in the displacement around
    the current estimate (first-order exponent expansion followed by the
    small-angle approximation), giving a linear least-squares problem for
    the position offset and then for the velocity offset. Sub-updates
    that would increase the projection cost are rejected.

    Returns ``(p, v, converged)``.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)

    h0, jac = _model_and_jacobian(model, p, v)
    cost0 = projection_cost(y, h0)

    alpha = ml_alpha(y, h0)
    delta_p = _solve_displacement(alpha * jac[:, :3], y - alpha * h0)
    cand = p + delta_p
    h1, cost_mid = h0, cost0
    if np.linalg.norm(cand) > 0:
        h_c, jac_c = _model_and_jacobian(model, cand, v)
        cost_p = projection_cost(y, h_c)
        if cost_p < cost0:
            p, h1, jac, cost_mid = cand, h_c, jac_c, cost_p

    alpha = ml_alpha(y, h1)
    delta_v = _solve_displacement(alpha * jac[:, 3:], y - alpha * h1)
    cand_v = v + delta_v
    cost_v = projection_cost(y, steering_vector(model, p, cand_v))
    if cost_v < cost_mid:
        v, cost_end = cand_v, cost_v
    else:
        cost_end = cost_mid

    converged = (cost0 - cost_end) < _CF_COST_TOL * max(
        cost0, np.finfo(float).tiny)
    return p, v, converged


def refine_loop(y, model, p, v, max_iter=CF_MAX_ITER):
    """Iterate cf_refine until convergence or the iteration cap.

    Returns ``(p, v, iterations)``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    iterations = 0
    for _ in range(max_iter):
        p, v, converged = cf_refine(y, model, p, v)
        iterations += 1
        if converged:
            break
    return p, v, iterations


# ---------------------------------------------------------------------------
# 6D refinement: variable-projection Levenberg-Marquardt


def cost_and_grad(y, model, p, v):
    """Projection cost and its analytic gradient w.r.t. (p, v)."""
    h, dh = _model_and_jacobian(model, p, v)
    c = np.vdot(h, y)
    den = np.vdot(h, h).real
    if den == 0.0:
        raise ZeroModelError("model vector has zero norm")
    cost = np.vdot(y, y).real - abs(c) ** 2 / den
    dc = dh.conj().T @ y
    dden = 2.0 * np.real(dh.conj().T @ h)
    grad = -(2.0 * np.real(np.conj(c) * dc) * den
             - abs(c) ** 2 * dden) / den ** 2
    return max(float(cost), 0.0), grad


def lm_refine_6d(y, model, p, v):
    """Minimize the projection cost over (p, v) by Levenberg-Marquardt on
    the variable-projection residual r = y - alpha_hat h = P_h^perp y.

    Steps use Kaufman's Jacobian -P_h^perp (dh/dtheta) alpha_hat, split
    into real and imaginary parts, with Marquardt's diagonal damping (which
    also balances the position and velocity scales). A step is kept only
    if the cost falls; the damping follows Nielsen's gain-ratio rule, so
    curved valleys do not stall the solver in rejected/tiny-step pairs.

    Returns ``(p, v, cost, iterations)``; the cost never exceeds the
    starting cost.
    """
    theta = np.concatenate([np.asarray(p, float), np.asarray(v, float)])
    h, dh = _model_and_jacobian(model, theta[:3], theta[3:])
    cost = projection_cost(y, h)
    lam, grow = _LM_LAMBDA_INIT, 2.0
    iterations = 0
    while iterations < LM_MAX_ITER and lam <= _LM_LAMBDA_MAX:
        nh2 = np.vdot(h, h).real
        alpha = np.vdot(h, y) / nh2
        jac = -alpha * (dh - np.outer(h, h.conj() @ dh) / nh2)
        resid = y - alpha * h
        a = np.vstack([jac.real, jac.imag])
        b = np.concatenate([resid.real, resid.imag])
        normal = a.T @ a
        grad = a.T @ b
        damp = np.diag(np.diag(normal))
        while lam <= _LM_LAMBDA_MAX:
            try:
                step = np.linalg.solve(normal + lam * damp, -grad)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"6D normal system singular: {exc}") from exc
            predicted = step @ (normal + 2.0 * lam * damp) @ step
            if predicted <= LM_COST_TOL * cost:
                return theta[:3], theta[3:], cost, iterations
            cand = theta + step
            if np.linalg.norm(cand[:3]) > 0:
                h_c, dh_c = _model_and_jacobian(model, cand[:3], cand[3:])
                cost_c = projection_cost(y, h_c)
                if cost_c < cost:
                    gain = (cost - cost_c) / predicted
                    lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                    grow = 2.0
                    theta, h, dh, cost = cand, h_c, dh_c, cost_c
                    iterations += 1
                    break
            lam *= grow
            grow *= 2.0
    return theta[:3], theta[3:], cost, iterations


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass(frozen=True)
class EstimatorConfig:
    """Grid-search variant and coarse grid of one pipeline run."""

    gs_variant: str = "nf"        # "nf" | "ff" | "nf-fine"
    grid: GridSpec = field(default_factory=default_coarse_grid)

    def __post_init__(self):
        if self.gs_variant not in ("nf", "ff", "nf-fine"):
            raise ValueError(f"unknown GS variant {self.gs_variant!r}")


def estimate(y, model, config, coarse_result=None):
    """Run GS (plus GS-fine for "nf-fine"), CF and 6D, and record every
    estimate.

    ``coarse_result`` optionally injects a precomputed coarse grid-search
    result (as returned by the batch API) so sweeps can share that work;
    the recorded trace is identical to an uninjected run. Without it the
    coarse near-field search streams its table and keeps nothing, which
    suits one-shot calls; a caller that estimates repeatedly on one grid
    should score its snapshots with :func:`nf_grid_search_batch` and
    inject the results.

    A stage that fails records its input estimate and the pipeline
    continues; failures are listed on the returned trace.
    """
    trace = EstimateTrace()
    v_zero = np.zeros(3)

    if coarse_result is None:
        if config.gs_variant == "ff":
            coarse_result = ff_grid_search(y, model, config.grid)
        else:
            coarse_result = nf_grid_search(y, model, config.grid)
    coord, cost = coarse_result
    p_hat = spherical_to_cartesian(coord)
    trace.record("GS", p_hat, v_zero, cost)

    if config.gs_variant == "nf-fine":
        f_coord, f_cost = nf_fine_grid_search(y, model, coord)
        if f_cost <= cost:
            coord, cost = f_coord, f_cost
            p_hat = spherical_to_cartesian(coord)
        trace.record("GS-fine", p_hat, v_zero, cost)

    p_cur, v_cur, cost_cur = p_hat, v_zero, cost

    try:
        p_ref, v_ref, iters = refine_loop(y, model, p_cur, v_cur,
                                          CF_MAX_ITER)
        cost_ref = projection_cost(y, steering_vector(model, p_ref, v_ref))
        if cost_ref <= cost_cur:
            p_cur, v_cur, cost_cur = p_ref, v_ref, cost_ref
        trace.record("CF", p_cur, v_cur, cost_cur, iters)
    except (SingularSystemError, ZeroModelError) as exc:
        trace.failures.append(("CF", exc))
        trace.record("CF", p_cur, v_cur, cost_cur)

    try:
        p_lm, v_lm, cost_lm, iters = lm_refine_6d(y, model, p_cur, v_cur)
        if cost_lm <= cost_cur:
            p_cur, v_cur, cost_cur = p_lm, v_lm, cost_lm
        trace.record("6D", p_cur, v_cur, cost_cur, iters)
    except (SingularSystemError, ZeroModelError) as exc:
        trace.failures.append(("6D", exc))
        trace.record("6D", p_cur, v_cur, cost_cur)

    return trace
