"""Ground-truth received-signal generation for the RIS downlink.

Implements the full propagation model: per-cell spherical spreading, the
combined antenna pattern of BS, RIS unit cell (rx/tx) and UE, the known
time-varying 1-bit reflection codebook, and additive circular complex
Gaussian receiver noise.
"""

import hashlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import GeometryError

BOLTZMANN = 1.380649e-23  # J/K
SPEED_OF_LIGHT = 299792458.0  # m/s

#: 1-bit reflection coefficient set: phases -15 deg and 165 deg.
DEFAULT_REFLECTION_SET = (
    np.exp(-1j * 2.0 * np.pi * 15.0 / 360.0),
    np.exp(1j * 2.0 * np.pi * 165.0 / 360.0),
)


def db_to_linear(x_db):
    """Convert a dB value to linear scale."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class Scenario:
    """Physical constants and geometry of the simulation setup.

    All gain/noise fields are linear; the CLI converts the dB values of a
    config file. The defaults are the reference parameters.
    """

    f: float = 23.8e9                 # center frequency, Hz
    tx_power: float = 0.1             # BS transmit power, W (20 dBm)
    bs_gain: float = db_to_linear(19.0)
    ue_gain: float = db_to_linear(3.2)
    noise_figure: float = db_to_linear(8.0)
    temperature: float = 293.0        # K
    bandwidth: float = 1.0e6          # Hz
    bs_position: np.ndarray = field(
        default_factory=lambda: np.array([1.0, -3.0, 3.0]))
    sample_time: float = 1.0e-4       # s
    num_samples: int = 40
    reflection_set: tuple = DEFAULT_REFLECTION_SET
    noise_power_override: float | None = None  # set to 0.0 for noiseless runs

    def __post_init__(self):
        object.__setattr__(self, "bs_position",
                           np.asarray(self.bs_position, dtype=float))
        p_bs = self.bs_position
        if not (p_bs.shape == (3,) and np.all(np.isfinite(p_bs))
                and p_bs[0] > 0):
            raise ValueError("the BS position must be a finite 3-vector "
                             "in front of the array (x > 0)")
        if not self.f > 0:
            raise ValueError("center frequency must be positive")
        if not self.tx_power > 0:
            raise ValueError("transmit power must be positive")
        if self.bs_gain < 1 or self.ue_gain < 1:
            raise ValueError("linear antenna gains must be >= 1")
        if not (self.temperature > 0 and self.bandwidth > 0):
            raise ValueError("temperature and bandwidth must be positive")
        if self.noise_figure < 1:
            raise ValueError("linear noise figure must be >= 1")
        if not (self.num_samples >= 1 and self.sample_time > 0):
            raise ValueError("num_samples and sample_time must be positive")
        refl = np.asarray(self.reflection_set)
        if refl.shape != (2,) or refl[0] == refl[1]:
            raise ValueError("the reflection set must hold exactly two "
                             "distinct values (1-bit cells)")
        if not np.allclose(np.abs(refl), 1.0, atol=1e-12):
            raise ValueError("reflection coefficients must be unit modulus")

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.f

    def noiseless(self):
        """Copy of the scenario with the noise power forced to zero."""
        return replace(self, noise_power_override=0.0)


def default_scenario(**overrides):
    """Scenario with the reference simulation parameters."""
    return replace(Scenario(), **overrides) if overrides else Scenario()


#: Reference UE velocity [1, -1, 2]/sqrt(6) m/s.
DEFAULT_UE_VELOCITY = np.array([1.0, -1.0, 2.0]) / np.sqrt(6.0)


@dataclass(frozen=True)
class Codebook:
    """Known M x L schedule of per-cell reflection coefficients."""

    gamma: np.ndarray


def draw_codebook(num_cells, num_samples, reflection_set, seed):
    """Draw a random codebook, each entry i.i.d. uniform over the set."""
    rng = np.random.default_rng(seed)
    refl = np.asarray(reflection_set, dtype=complex)
    idx = rng.integers(0, len(refl), size=(num_cells, num_samples))
    return Codebook(gamma=refl[idx])


@dataclass(frozen=True)
class Snapshot:
    """One received-signal sequence plus the generating ground truth."""

    y: np.ndarray                 # (L,) complex received samples
    truth_p: np.ndarray           # (3,) m
    truth_v: np.ndarray           # (3,) m/s
    snr_per_sample: np.ndarray    # (L,) dB
    seed: int


def noise_power(scenario):
    """Receiver noise power k_B * T * B * n_f in watts."""
    if scenario.noise_power_override is not None:
        return scenario.noise_power_override
    s = scenario
    return BOLTZMANN * s.temperature * s.bandwidth * s.noise_figure


def _pattern_cosines(positions, layout, scenario):
    """Four per-cell pattern cosines for UE positions.

    Parameters
    ----------
    positions : ndarray, shape (L, 3)
        UE positions, one per time index.

    Returns
    -------
    tuple of ndarray
        ``(cos_bs, cos_r, cos_t, cos_ue)`` with shapes (M,), (M,), (L, M),
        (L, M). The BS-side factors do not depend on the UE position.
    """
    q = layout.cell_centers
    p_bs = scenario.bs_position
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    if np.any(pos[:, 0] <= 0):
        raise GeometryError("UE must be on the front side (x > 0)")

    nq = np.linalg.norm(q, axis=1)
    d_bs = np.linalg.norm(p_bs[None, :] - q, axis=1)
    r_bs = np.linalg.norm(p_bs)
    cos_bs = (r_bs ** 2 + d_bs ** 2 - nq ** 2) / (2.0 * r_bs * d_bs)
    cos_r = p_bs[0] / d_bs

    d_ue = np.linalg.norm(pos[:, None, :] - q[None, :, :], axis=2)
    r_ue = np.linalg.norm(pos, axis=1)
    cos_t = pos[:, 0:1] / d_ue
    cos_ue = (r_ue[:, None] ** 2 + d_ue ** 2 - nq[None, :] ** 2) \
        / (2.0 * r_ue[:, None] * d_ue)

    slack = 1e-9
    for name, c in (("BS", cos_bs), ("UE", cos_ue)):
        if np.any(np.abs(c) > 1.0 + slack):
            raise GeometryError(f"{name} pattern cosine outside [-1, 1]")
    return (np.clip(cos_bs, -1.0, 1.0), cos_r,
            cos_t, np.clip(cos_ue, -1.0, 1.0))


def _combined_pattern_all(positions, layout, scenario):
    """Combined pattern for every cell at each position; shape (L, M)."""
    cos_bs, cos_r, cos_t, cos_ue = _pattern_cosines(
        positions, layout, scenario)
    f_bs = cos_bs ** (scenario.bs_gain / 2.0 - 1.0)
    f_ue = cos_ue ** (scenario.ue_gain / 2.0 - 1.0)
    return (f_bs * cos_r)[None, :] * cos_t * f_ue


def _channel_coefficients(p, v, layout, codebook, scenario,
                          use_pattern=True):
    """Channel coefficient h'_ell for all time indices; shape (L,)."""
    q = layout.cell_centers
    p_bs = scenario.bs_position
    lam = scenario.wavelength
    d_y, d_z = layout.cell_dims
    ell = np.arange(scenario.num_samples)
    pos = (np.asarray(p, dtype=float)[None, :]
           + np.outer(ell * scenario.sample_time, np.asarray(v, dtype=float)))
    if np.any(pos[:, 0] <= 0):
        raise GeometryError("UE trajectory must stay on the front side")

    d_bs = np.linalg.norm(p_bs[None, :] - q, axis=1)          # (M,)
    d_ue = np.linalg.norm(pos[:, None, :] - q[None, :, :], axis=2)  # (L, M)
    if use_pattern:
        amp = np.sqrt(_combined_pattern_all(pos, layout, scenario))
    else:
        amp = 1.0
    phase = np.exp(-2j * np.pi * (d_bs[None, :] + d_ue) / lam)
    terms = codebook.gamma.T * amp * phase / (d_bs[None, :] * d_ue)
    prefactor = (np.sqrt(scenario.bs_gain * scenario.ue_gain)
                 * d_y * d_z / (4.0 * np.pi))
    return prefactor * terms.sum(axis=1)


def generate_snapshot(p, v, layout, codebook, scenario, noise_seed,
                      use_pattern=True):
    """Generate one received snapshot y = h' * sqrt(P_BS) + n.

    Noise samples are i.i.d. circular complex Gaussian with total variance
    equal to the noise power (half per quadrature), drawn deterministically
    from ``noise_seed``.
    """
    h = _channel_coefficients(p, v, layout, codebook, scenario, use_pattern)
    p_n = noise_power(scenario)
    signal = h * np.sqrt(scenario.tx_power)
    rng = np.random.default_rng(noise_seed)
    noise = np.sqrt(p_n / 2.0) * (rng.standard_normal(len(h))
                                  + 1j * rng.standard_normal(len(h)))
    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(
            np.abs(h) ** 2 * scenario.tx_power
            / p_n if p_n > 0 else np.full(len(h), np.inf))
    return Snapshot(y=signal + noise,
                    truth_p=np.asarray(p, dtype=float),
                    truth_v=np.asarray(v, dtype=float),
                    snr_per_sample=snr_db, seed=int(noise_seed))


def scenario_hash(scenario):
    """Short deterministic fingerprint of the scenario parameters: every
    field in declaration order, each number to 12 significant digits. A
    field left at None is skipped, so adding an optional field keeps the
    fingerprints of scenarios that do not set it."""
    def text(x):
        if np.iscomplexobj(x):
            return f"{x.real:.12g}{x.imag:+.12g}j"
        return f"{x:.12g}"

    values = (getattr(scenario, f.name) for f in fields(scenario))
    parts = [" ".join(map(text, np.ravel(value)))
             for value in values if value is not None]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def save_snapshot(snapshot, scenario, path):
    """Write a snapshot as structured text (header + one row per sample)."""
    with open(path, "w") as fh:
        fh.write(f"# scenario {scenario_hash(scenario)}\n")
        fh.write(f"# seed {snapshot.seed}\n")
        fh.write("# truth_p_m "
                 + " ".join(f"{x:.12g}" for x in snapshot.truth_p) + "\n")
        fh.write("# truth_v_mps "
                 + " ".join(f"{x:.12g}" for x in snapshot.truth_v) + "\n")
        fh.write("# ell re_y im_y snr_db\n")
        for i, (yv, snr) in enumerate(zip(snapshot.y,
                                          snapshot.snr_per_sample)):
            fh.write(f"{i} {yv.real:.12g} {yv.imag:.12g} {snr:.12g}\n")
