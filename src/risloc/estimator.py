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
builder yields every table exp(j phi_nm) b_m in the same cache-sized
blocks of real re/im planes, with the hypothesized RIS-UE phase phi and
the known BS phase b folded in. The reflection set has exactly two
values, so the codebook is an offset plus a +/-1 sign matrix up to a
common factor, which the projection cost ignores. The scorer bounds
every candidate's score from above with a few real GEMMs against a
K-direction basis that spans the snapshots, then rescores in double
precision only the candidates whose bound reaches the best score, so
every winner is the grid's exact optimum. Sweeps cache the coarse tables
per (grid, layout, BS position) and score many snapshots per pass;
one-shot searches stream the table, score each block while it is in
cache, and keep nothing. Fine tables are kept one at a time.
"""

import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from hashlib import sha1

import numpy as np

from .errors import OriginError, SingularSystemError, ZeroModelError
from .geometry import (SphericalCoord, cartesian_to_spherical,
                       spherical_to_cartesian)

# Sets only the dtype of the tables the grid searches' bound pass reads:
# tables larger than this (candidates x cells) are built in single
# precision. Every winner is still picked in double precision (see
# _best_candidates).
_SINGLE_PRECISION_THRESHOLD = 4_000_000

#: Real directions per model in the basis of the bound pass: the real and
#: imaginary parts of the model's snapshots, then the leading
#: eigenvectors of the Gram matrix of its responses.
_BOUND_DIRECTIONS = 8

#: Slack of the bound pass, in unit roundoffs u of the table dtype, times
#: ||y||^2. A table entry exp(j phi) comes from a phase argument of up to
#: ~150 rad, so it is off by up to ~150 u; bounds and the floor's scores
#: are quadratic in the entries (2x), and a row's entry errors can add up
#: to a few times their share of ||h||: some 1000 u in all. 2048 u
#: (1.2e-4 in float32, 2.3e-13 in float64) covers this with margin.
_BOUND_SLACK_ROUNDOFFS = 2048

#: Rows per block of every table: the builder's working set stays in cache.
_BLOCK_ROWS = 2048

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

    Azimuth and elevation are in degrees within [-90, 90], range in meters.
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
            if name != "range" and not (-90 <= lo and hi <= 90):
                raise ValueError(f"{name} axis must lie within [-90, 90] deg")
        if self.range_m[0] <= 0:
            raise ValueError("range axis must be strictly positive")

    def axis_values(self):
        """The three axis arrays (azimuth deg, elevation deg, range m); an
        angle axis whose last step would pass 90 deg ends there."""
        az, el, r = (np.arange(lo, hi + 0.5 * step, step)
                     for lo, hi, step in (self.azimuth_deg,
                                          self.elevation_deg, self.range_m))
        return np.minimum(az, 90.0), np.minimum(el, 90.0), r

    @property
    def num_candidates(self):
        az, el, r = self.axis_values()
        return len(az) * len(el) * len(r)

    def covers(self, p):
        """Whether the direction of position ``p`` lies within the
        azimuth and elevation axes, ends included."""
        s = cartesian_to_spherical(p)
        az, el, _ = self.axis_values()
        return bool(az[0] <= np.rad2deg(s.azimuth) <= az[-1]
                    and el[0] <= np.rad2deg(s.elevation) <= el[-1])


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
#: steering table as blocks of ``dtype`` from :func:`_table_chunks`: a list
#: when cached, a generator when streamed. ``far_field`` tables hold unit
#: directions without ranges.
_Table = namedtuple("_Table", "coords positions chunks dtype far_field")


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
    """Yield the steering table _BLOCK_ROWS rows at a time as (re, im, row
    sums).

    With ``ranges`` (near field), row n holds exp(-j k (||p_n - q_m|| -
    r_n)) b_m for the candidate p_n at range r_n; ``d - r`` is evaluated as
    ``(||q||^2 - 2 p.q) / (d + r)`` to avoid cancellation, which also lets
    the distances come out of one GEMM. With ``ranges`` None (far field),
    p_n is a unit direction and row n holds exp(j k p_n.q_m) b_m.
    """
    k0 = 2.0 * np.pi / model.wavelength
    q = model.cell_centers.astype(dtype)
    nq2 = (q ** 2).sum(axis=1)
    # -2 is a power of two, so -2 (p.q) is exact inside the GEMM.
    q_gemm = q if ranges is None else -2.0 * q
    bs_phase = model.bs_phase.astype(dtype)
    for lo in range(0, len(points), _BLOCK_ROWS):
        blk = slice(lo, lo + _BLOCK_ROWS)
        pts = points[blk].astype(dtype)
        # Both planes in one allocation, which numpy backs with huge pages
        # from 4 MiB up: a cached table then takes far fewer page faults.
        # They are filled in place (phase in im, distance in re): the GEMM,
        # 10 elementwise passes near field (4 far field) and two row sums,
        # each row reduced on its own so that it depends on neither the
        # block nor BLAS threads.
        re, im = np.empty((2, len(pts), len(q)), dtype=dtype)
        np.matmul(pts, q_gemm.T, out=im)
        if ranges is None:
            im *= k0
        else:
            im += nq2                                       # d^2 - r^2
            r_blk = ranges[blk, None].astype(dtype)
            np.add(r_blk ** 2, im, out=re)
            np.maximum(re, 0.0, out=re)
            np.sqrt(re, out=re)
            re += r_blk
            im *= -k0
            im /= re
        im += bs_phase
        np.cos(im, out=re)
        np.sin(im, out=im)
        rowsum = np.empty(len(re), dtype=np.result_type(dtype, 1j))
        np.einsum("ij->i", re, out=rowsum.real)
        np.einsum("ij->i", im, out=rowsum.imag)
        yield re, im, rowsum
        # Drop the planes before the next block is built.
        del re, im, rowsum


def _table(model, num_rows, candidates, cache=None, key=None):
    """The table of the candidates that ``candidates()`` returns as
    (coords, positions, ranges): streamed if ``cache`` is None, else built
    once per ``key`` and kept in ``cache``."""
    dtype = np.float32 if num_rows * model.cell_centers.shape[0] \
        > _SINGLE_PRECISION_THRESHOLD else np.float64

    def build(stream):
        coords, positions, ranges = candidates()
        blocks = _table_chunks(positions, ranges, model, dtype)
        return _Table(coords, positions, blocks if stream else list(blocks),
                      dtype, ranges is None)

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
    which the table folds in, and hold as many snapshots."""
    ref, ref_ys = entries[0]
    for model, ys in entries:
        if len(ys) != len(ref_ys):
            raise ValueError("batched entries must hold as many snapshots")
        for name in ("cell_centers", "bs_phase"):
            mine, theirs = getattr(model, name), getattr(ref, name)
            if mine is not theirs and not np.array_equal(mine, theirs):
                raise ValueError("batched models must share cell geometry "
                                 "and BS position")


def _bound_basis(model, ys, k):
    """Real orthonormal (L, k) basis of the bound pass: the real and
    imaginary parts of the snapshots ``ys`` first, then the leading
    eigenvectors of Re(S'^T conj(S')), S' = signs + offset, along which
    the responses S'^T t of table rows t of unit entries carry the most
    energy."""
    ys = np.transpose(ys)
    sp = model.signs + model.offset
    _, vecs = np.linalg.eigh((sp.T @ sp.conj()).real)
    q, _ = np.linalg.qr(np.column_stack([ys.real, ys.imag, vecs[:, ::-1]]))
    return q[:, :k]


def _scores(h, y):
    """|h^H y|^2 / ||h||^2 of each row of ``h`` against ``y``, the
    trailing axis being the sample axis."""
    num = np.abs(np.sum(h.conj() * y, axis=-1)) ** 2
    den = np.sum(h.real ** 2 + h.imag ** 2, axis=-1)
    return num / np.maximum(den, np.finfo(float).tiny)


class _BoundPass:
    """Both passes of :func:`_best_candidates` for a batch of T (model,
    snapshots) entries of J snapshots each.

    Pass 1 (:meth:`add_chunk`, per table block) keeps a floor under each
    snapshot's best score, from exact scores of best-bounded rows, and the
    candidates whose bound reaches it; floors only rise, so one filter
    against the final floors (:meth:`survivors`) keeps what filtering after
    every block would. Pass 2 (:meth:`winners`) rescores those in double
    precision.
    """

    def __init__(self, entries, dtype):
        self.models = [model for model, _ in entries]
        self.ys = np.array([ys for _, ys in entries], dtype=complex)
        num_models, j, num_samples = self.ys.shape
        k = min(num_samples, max(_BOUND_DIRECTIONS, 2 * j))
        self.sp = np.stack([m.signs + m.offset for m in self.models])
        qs = [_bound_basis(m, ys, k) for m, ys in entries]
        # z = Q^T h = Q^T S^T t + rowsum(t) s, s = offset Q^T 1, for a
        # table row t. Re(s) folds into the GEMM, Im(s) mixes the planes:
        # zr = re P - Im(rowsum) Im(s), zi = im P + Re(rowsum) Im(s) with
        # P = S Q + 1 Re(s)^T, stacked over the models as columns of p.
        s_vec = np.concatenate([m.offset * q.sum(axis=0)
                                for m, q in zip(self.models, qs)])
        self.p = (np.concatenate([m.signs @ q
                                  for m, q in zip(self.models, qs)], axis=1)
                  + s_vec.real).astype(dtype)               # (M, T K)
        self.shift = s_vec.imag.astype(dtype)
        c = np.stack([q.T @ y.T for q, y in zip(qs, self.ys)])  # (T, K, J)
        self.c = np.concatenate([c.real, c.imag], axis=2).transpose(
            0, 2, 1).astype(dtype)                          # (T, 2J, K)
        roundoff = np.finfo(dtype).eps / 2
        self.slack = _BOUND_SLACK_ROUNDOFFS * roundoff \
            * np.sum(np.abs(self.ys) ** 2, axis=2)
        self.floor = np.full((num_models, j), -np.inf)
        self.kept = []   # (rows, t * J + snapshot, bound) per block

    def bounds(self, re, im, rowsum):
        """(T, J, n) bounds |z^H c|^2 / ||z||^2 of a block's n rows."""
        (t, j2, k), n = self.c.shape, len(re)
        j = j2 // 2
        # The GEMM outputs stay (n, T K): BLAS reads each model's (K, n)
        # block through a strided view, where copying them to (T K, n)
        # would move as many bytes as the GEMMs write.
        zr = re @ self.p
        zi = im @ self.p
        zr -= np.multiply.outer(rowsum.imag, self.shift)
        zi += np.multiply.outer(rowsum.real, self.shift)
        zr, zi = zr.reshape(n, t, k), zi.reshape(n, t, k)
        a = self.c @ zr.transpose(1, 2, 0)                # (T, 2J, n)
        b = self.c @ zi.transpose(1, 2, 0)
        den = np.einsum("ntk,ntk->tn", zr, zr) \
            + np.einsum("ntk,ntk->tn", zi, zi)
        np.maximum(den, np.finfo(den.dtype).tiny, out=den)
        return ((a[:, :j] + b[:, j:]) ** 2
                + (b[:, :j] - a[:, j:]) ** 2) / den[:, None, :]

    def add_chunk(self, re, im, rowsum, start):
        """Bound the rows of a block that starts at row ``start``, raise
        the floors and keep the rows that can still win."""
        bound = self.bounds(re, im, rowsum)
        j = bound.shape[1]
        top = np.argmax(bound, axis=2)                    # (T, J)
        # A row scores at most its bound plus the slack, so only an entry
        # with a top bound above its floor can raise a floor.
        ts = np.flatnonzero((bound.max(axis=2) > self.floor).any(axis=1))
        h = (re[top[ts]].astype(float) + 1j * im[top[ts]]) @ self.sp[ts]
        self.floor[ts] = np.maximum(self.floor[ts],
                                    _scores(h, self.ys[ts]) - self.slack[ts])
        reach = self.floor - self.slack
        ts, js, rows = np.nonzero(bound >= reach[:, :, None])
        self.kept.append((start + rows, ts * j + js, bound[ts, js, rows]))

    def survivors(self):
        """(rows, t * J + snapshot, bound) of the kept candidates whose
        bound reaches the final floor, in table order."""
        idx, unit, bound = (np.concatenate(a) for a in zip(*self.kept))
        keep = bound >= (self.floor - self.slack).flat[unit]
        return idx[keep], unit[keep], bound[keep]

    def winners(self, table):
        """Per entry, the winning index of each snapshot: the best
        double-precision score among its surviving candidates, visited by
        falling bound in blocks of _BLOCK_ROWS until no remaining bound
        reaches the best score; lowest index on ties."""
        idx, unit, bound = self.survivors()
        j = self.ys.shape[1]
        return [[self._rescore(table, t, snap, idx[unit == t * j + snap],
                               bound[unit == t * j + snap])
                 for snap in range(j)] for t in range(len(self.ys))]

    def _rescore(self, table, t, snap, idx, bound):
        model, y = self.models[t], self.ys[t, snap]
        order = np.argsort(-bound, kind="stable")
        best, best_i = -np.inf, None
        for lo in range(0, len(order), _BLOCK_ROWS):
            block = order[lo:lo + _BLOCK_ROWS]
            if bound[block[0]] + self.slack[t, snap] < best:
                break
            rows = idx[block]
            ranges = None if table.far_field else table.coords[rows, 2]
            (re, im, rowsum), = _table_chunks(
                table.positions[rows], ranges, model, np.float64)
            h = re @ model.signs + 1j * (im @ model.signs) \
                + rowsum[:, None] * model.offset
            del re, im              # before the next block is built
            score = _scores(h, y)
            top = score.max()
            i = int(rows[score == top].min())
            if top > best or (top == best and i < best_i):
                best, best_i = top, i
        return best_i


def _best_candidates(table, entries):
    """Score (model, snapshots) entries against a table.

    Returns the winning global candidate index per snapshot, grouped per
    entry: the double-precision argmax of |h^H y|^2 / ||h||^2, lowest
    index on ties.

    Pass 1 bounds every candidate in the table's dtype. Per model, a real
    orthonormal basis Q (L x K) spans the snapshots, so h^H y = z^H c with
    z = Q^T h and c = Q^T y, and |z^H c|^2 / ||z||^2 bounds the score from
    above because ||z|| <= ||h||. With h = S'^T t for a table row t, two
    real GEMMs of each block's planes with the stacked S Q of all models,
    plus the offset times the row sums, give every z. Pass 2 rescores the
    candidates whose bound reaches the best score (see
    :class:`_BoundPass`).
    """
    bound_pass = _BoundPass(entries, table.dtype)
    start = 0
    for re, im, rowsum in table.chunks:
        bound_pass.add_chunk(re, im, rowsum, start)
        start += len(re)
        # Free a streamed block before the next one is built.
        del re, im, rowsum
    return bound_pass.winners(table)


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

    ``entries`` is a list of ``(model, [y, ...])`` pairs, each with as
    many snapshots; all models must have identical cell positions, BS
    position and wavelength. Returns, per entry, a list of
    ``(SphericalCoord, cost)`` results (v assumed zero). With ``cache``
    the table is built once and kept for later searches on the same grid;
    without, each block is built, scored and dropped.

    One call reads the whole table once, however many entries it scores,
    and its working set grows with their number; sweeps pass up to
    ``harness._GROUP_MODELS`` models per call.
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

    Angles are clipped to +/-90 deg and the range axis to positive
    values, so the fine grid near the search-space edge simply shrinks.
    """
    az0 = np.rad2deg(coarse.azimuth)
    el0 = np.rad2deg(coarse.elevation)
    half, step = _FINE_ANGLE_HALFWIDTH_DEG, _FINE_ANGLE_STEP_DEG
    r_lo = coarse.range_m - _FINE_RANGE_HALFWIDTH_M
    if r_lo <= 0:
        r_lo = _FINE_RANGE_STEP_M
    return GridSpec(
        azimuth_deg=(max(-90.0, az0 - half), min(90.0, az0 + half), step),
        elevation_deg=(max(-90.0, el0 - half), min(90.0, el0 + half), step),
        range_m=(r_lo, coarse.range_m + _FINE_RANGE_HALFWIDTH_M,
                 _FINE_RANGE_STEP_M))


def nf_fine_grid_search(y, model, coarse):
    """Fine near-field search centered on the coarse estimate.

    The table is kept until a search around another cell replaces it, so
    callers should run the searches of one coarse cell together.
    """
    return _search(_nf_table(fine_grid_spec(coarse), model, _FINE_TABLES),
                   [(model, [y])])[0][0]


def ff_grid_search(y, model, grid):
    """Far-field two-stage search: 2D (az, el) grid, then a range line
    search with the near-field model.

    The far-field steering phase is range independent, and the projection
    cost ignores any common scale, so no nominal range enters stage one.
    The range line is scored as one near-field table.
    """
    entries = [(model, [y])]
    dirs = _direction_table(grid, model)
    az, el, _ = dirs.coords[_best_candidates(dirs, entries)[0][0]]
    r_axis = grid.axis_values()[2]

    def range_line():
        coords = np.column_stack([np.full_like(r_axis, az),
                                  np.full_like(r_axis, el), r_axis])
        return coords, _coords_to_positions(coords), r_axis

    return _search(_table(model, len(r_axis), range_line), entries)[0][0]


# ---------------------------------------------------------------------------
# Refinement
#
# CF and 6D share one core: _evaluate gives (h, dh, cost) at a point, and
# each solver carries the evaluation of the point it accepted into its next
# step. Both solve complex least-squares systems as stacked real ones.


def _evaluate(y, model, theta):
    """``(h, dh, cost)`` at theta = (p, v): the model response, its (L, 6)
    Jacobian and the projection cost."""
    h, dh = _model_and_jacobian(model, theta[:3], theta[3:])
    return h, dh, projection_cost(y, h)


def _stacked(jac, resid):
    """The complex system jac x = resid as a real one, (a, b), its real
    parts stacked over its imaginary parts."""
    return (np.vstack([jac.real, jac.imag]),
            np.concatenate([resid.real, resid.imag]))


def _vp_system(y, h, dh):
    """Kaufman's variable-projection system ``(a, b)`` at h: the Jacobian
    -P_h^perp dh alpha_hat of the residual r = y - alpha_hat h = P_h^perp y,
    and r, both stacked real. The cost ||r||^2 has the exact gradient
    2 a^T b, since r is orthogonal to the term Kaufman drops."""
    nh2 = np.vdot(h, h).real
    alpha = np.vdot(h, y) / nh2
    return _stacked(-alpha * (dh - np.outer(h, h.conj() @ dh) / nh2),
                    y - alpha * h)


def cost_and_grad(y, model, p, v):
    """Projection cost and its analytic gradient w.r.t. (p, v)."""
    h, dh, cost = _evaluate(y, model, np.concatenate([p, v]))
    a, b = _vp_system(y, h, dh)
    return cost, 2.0 * (a.T @ b)


def _solve_displacement(jac, resid):
    """Real-valued least squares for a complex linear system.

    Raises SingularSystemError when the system is rank deficient or its
    condition exceeds tolerance.
    """
    sol, _, rank, sv = np.linalg.lstsq(*_stacked(jac, resid), rcond=None)
    if rank < jac.shape[1]:
        raise SingularSystemError(
            f"displacement system rank {rank} of {jac.shape[1]}")
    if sv[-1] <= _CF_MIN_SV_RATIO * sv[0]:
        raise SingularSystemError(
            f"displacement system ill-conditioned: smallest/largest "
            f"singular value {sv[-1] / sv[0]:.3g} <= {_CF_MIN_SV_RATIO:g}")
    return sol


def refine_loop(y, model, p, v):
    """CF: alternating linearized least squares, at most CF_MAX_ITER
    rounds, each over the position block and then the velocity block.

    A block's per-cell phase response is linearized in its displacement
    around the current estimate (first-order exponent expansion followed by
    the small-angle approximation), giving a linear least-squares problem
    for that block's offset. An update that would not lower the projection
    cost is rejected. Stops after a round that lowers the cost by less
    than _CF_COST_TOL of it.

    Returns ``(p, v, iterations, cost)``.
    """
    theta = np.concatenate([np.asarray(p, float), np.asarray(v, float)])
    h, dh, cost = _evaluate(y, model, theta)
    for iterations in range(1, CF_MAX_ITER + 1):
        round_cost = cost
        for block in (slice(0, 3), slice(3, 6)):
            alpha = ml_alpha(y, h)
            cand = theta.copy()
            cand[block] += _solve_displacement(alpha * dh[:, block],
                                               y - alpha * h)
            if np.linalg.norm(cand[:3]) > 0:
                h_c, dh_c, cost_c = _evaluate(y, model, cand)
                if cost_c < cost:
                    theta, h, dh, cost = cand, h_c, dh_c, cost_c
        if round_cost - cost < _CF_COST_TOL * max(round_cost,
                                                  np.finfo(float).tiny):
            break
    return theta[:3], theta[3:], iterations, cost


def lm_refine_6d(y, model, p, v):
    """Minimize the projection cost over (p, v) by Levenberg-Marquardt on
    the variable-projection residual r = y - alpha_hat h = P_h^perp y.

    Steps solve the normal equations of :func:`_vp_system` with Marquardt's
    diagonal damping (which also balances the position and velocity
    scales). A step is kept only if the cost falls; the damping follows
    Nielsen's gain-ratio rule, so curved valleys do not stall the solver in
    rejected/tiny-step pairs.

    Returns ``(p, v, iterations, cost)``; the cost never exceeds the
    starting cost.
    """
    theta = np.concatenate([np.asarray(p, float), np.asarray(v, float)])
    h, dh, cost = _evaluate(y, model, theta)
    lam, grow = _LM_LAMBDA_INIT, 2.0
    iterations = 0
    while iterations < LM_MAX_ITER and lam <= _LM_LAMBDA_MAX:
        a, b = _vp_system(y, h, dh)
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
                return theta[:3], theta[3:], iterations, cost
            cand = theta + step
            if np.linalg.norm(cand[:3]) > 0:
                h_c, dh_c, cost_c = _evaluate(y, model, cand)
                if cost_c < cost:
                    gain = (cost - cost_c) / predicted
                    lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                    grow = 2.0
                    theta, h, dh, cost = cand, h_c, dh_c, cost_c
                    iterations += 1
                    break
            lam *= grow
            grow *= 2.0
    return theta[:3], theta[3:], iterations, cost


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
    for stage, solver in (("CF", refine_loop), ("6D", lm_refine_6d)):
        iterations = 0
        try:
            p_s, v_s, iterations, cost_s = solver(y, model, p_cur, v_cur)
            if cost_s <= cost_cur:
                p_cur, v_cur, cost_cur = p_s, v_s, cost_s
        except (SingularSystemError, ZeroModelError) as exc:
            trace.failures.append((stage, exc))
        trace.record(stage, p_cur, v_cur, cost_cur, iterations)

    return trace
