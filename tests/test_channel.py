import numpy as np
import pytest

from risloc.channel import (DEFAULT_UE_VELOCITY, Scenario,
                            _channel_coefficients, _combined_pattern_all,
                            db_to_linear, default_scenario, draw_codebook,
                            generate_snapshot, noise_power, save_snapshot,
                            scenario_hash)
from risloc.errors import GeometryError
from risloc.geometry import RisLayout

from conftest import toy_layout


def single_cell_layout():
    return RisLayout(cell_centers=np.zeros((1, 3)))


def unit_codebook(num_cells, num_samples):
    from risloc.channel import Codebook
    return Codebook(gamma=np.ones((num_cells, num_samples), dtype=complex))


class TestNoisePower:
    def test_reference_value(self, scenario):
        # k_B * 293 K * 1 MHz * 8 dB, about -105.9 dBm
        assert noise_power(scenario) == pytest.approx(2.5524e-14, rel=1e-4)
        dbm = 10 * np.log10(noise_power(scenario) / 1e-3)
        assert dbm == pytest.approx(-105.93, abs=0.05)

    def test_thermal_floor(self):
        s = default_scenario(noise_figure=1.0, temperature=290.0,
                             bandwidth=1.0)
        assert noise_power(s) == pytest.approx(4.0039e-21, rel=1e-3)

    def test_linearity_in_bandwidth(self, scenario):
        doubled = default_scenario(bandwidth=2 * scenario.bandwidth)
        assert noise_power(doubled) == pytest.approx(2 * noise_power(scenario),
                                                     rel=1e-14)

    def test_override(self, scenario):
        assert noise_power(scenario.noiseless()) == 0.0


class TestCombinedPattern:
    def test_boresight_alignment_gives_unity(self):
        lay = single_cell_layout()
        s = default_scenario(bs_position=np.array([2.0, 0.0, 0.0]))
        assert _combined_pattern_all(np.array([[1.0, 0.0, 0.0]]), lay,
                                     s)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_exponent_degeneracy_at_gain_2(self, layout):
        # Linear gains of 2 zero both pattern exponents.
        s = default_scenario(bs_gain=2.0, ue_gain=2.0)
        p = np.array([1.7, 0.4, -0.6])
        for m in (0, 91, 344):
            q = layout.cell_centers[m]
            expect = (s.bs_position[0] / np.linalg.norm(s.bs_position - q)
                      * p[0] / np.linalg.norm(p - q))
            assert _combined_pattern_all(p[None], layout, s)[0, m] == \
                pytest.approx(expect, rel=1e-12)

    def test_redundant_angle_path(self, layout, scenario):
        # Same value via explicit angles: acos, then cos, then power.
        rng = np.random.default_rng(5)
        p = np.array([2.2, -0.7, -0.4])
        p_bs = scenario.bs_position
        for m in rng.integers(0, layout.num_cells, size=8):
            q = layout.cell_centers[m]
            a_bs = np.arccos(
                np.dot(p_bs, p_bs - q)
                / (np.linalg.norm(p_bs) * np.linalg.norm(p_bs - q)))
            a_r = np.arccos(p_bs[0] / np.linalg.norm(p_bs - q))
            a_t = np.arccos(p[0] / np.linalg.norm(p - q))
            a_ue = np.arccos(
                np.dot(p, p - q)
                / (np.linalg.norm(p) * np.linalg.norm(p - q)))
            expect = (np.cos(a_bs) ** (scenario.bs_gain / 2 - 1)
                      * np.cos(a_r) * np.cos(a_t)
                      * np.cos(a_ue) ** (scenario.ue_gain / 2 - 1))
            assert _combined_pattern_all(p[None], layout, scenario)[0, m] \
                == pytest.approx(expect, rel=1e-12)

    def test_in_unit_interval_over_aoi(self, layout, scenario):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = np.array([rng.uniform(0.1, 3.1), rng.uniform(-1.5, 1.5),
                          -0.5])
            for m in rng.integers(0, layout.num_cells, size=5):
                val = _combined_pattern_all(p[None], layout, scenario)[0, m]
                assert 0.0 <= val <= 1.0

    def test_back_side_rejected(self, layout, scenario):
        with pytest.raises(GeometryError):
            _combined_pattern_all(np.array([[-1.0, 0.0, 0.0]]), layout,
                                  scenario)


class TestChannelCoefficient:
    def test_single_cell_closed_form(self):
        lay = single_cell_layout()
        s = default_scenario(bs_gain=2.0, ue_gain=2.0,
                             bs_position=np.array([1.0, 0.0, 0.0]))
        cb = unit_codebook(1, s.num_samples)
        h = _channel_coefficients(np.array([1.0, 0.0, 0.0]), np.zeros(3),
                                  lay, cb, s, use_pattern=False)[0]
        d_y, d_z = lay.cell_dims
        expect = (np.sqrt(s.bs_gain * s.ue_gain) * d_y * d_z / (4 * np.pi)
                  * np.exp(-4j * np.pi / s.wavelength))
        assert h == pytest.approx(expect, rel=1e-12)

    def test_common_codebook_phase_factors_out(self, layout, scenario):
        p = np.array([2.0, 0.3, -0.5])
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=3)
        phi0 = 0.8
        from risloc.channel import Codebook
        cb2 = Codebook(gamma=cb.gamma * np.exp(1j * phi0))
        h1 = _channel_coefficients(p, DEFAULT_UE_VELOCITY, layout, cb,
                                   scenario)[5]
        h2 = _channel_coefficients(p, DEFAULT_UE_VELOCITY, layout, cb2,
                                   scenario)[5]
        assert h2 == pytest.approx(h1 * np.exp(1j * phi0), rel=1e-12)

    def test_magnitude_reciprocity_without_pattern(self):
        lay = toy_layout(num_cells=9, seed=2)
        p = np.array([1.5, 0.4, -0.3])
        p_bs = np.array([2.5, -1.0, 0.8])
        s1 = default_scenario(bs_gain=4.0, ue_gain=4.0, bs_position=p_bs)
        s2 = default_scenario(bs_gain=4.0, ue_gain=4.0, bs_position=p)
        cb = unit_codebook(9, s1.num_samples)
        h1 = _channel_coefficients(p, np.zeros(3), lay, cb, s1,
                                   use_pattern=False)[0]
        h2 = _channel_coefficients(p_bs, np.zeros(3), lay, cb, s2,
                                   use_pattern=False)[0]
        assert abs(h1) == pytest.approx(abs(h2), rel=1e-12)

    def test_far_range_decay(self, layout, scenario):
        cb = unit_codebook(layout.num_cells, scenario.num_samples)
        direction = np.array([0.9, 0.3, -0.2])
        direction /= np.linalg.norm(direction)
        vals = []
        for r in (200.0, 400.0):
            h = _channel_coefficients(r * direction, np.zeros(3), layout,
                                      cb, scenario, use_pattern=False)[0]
            vals.append(abs(h) * r)
        assert vals[0] == pytest.approx(vals[1], rel=1e-2)

    def test_snr_matches_incoherent_sum_oracle(self, layout, scenario):
        # E|h'|^2 for a zero-mean codebook is the incoherent per-cell sum.
        p = np.array([2.0, 0.0, -0.5])
        q = layout.cell_centers
        d_bs = np.linalg.norm(scenario.bs_position - q, axis=1)
        d_ue = np.linalg.norm(p - q, axis=1)
        f_c = _combined_pattern_all(p[None], layout, scenario)[0]
        d_y, d_z = layout.cell_dims
        pref = (np.sqrt(scenario.bs_gain * scenario.ue_gain) * d_y * d_z
                / (4 * np.pi))
        expect_h2 = pref ** 2 * np.sum(f_c / (d_bs ** 2 * d_ue ** 2))
        expect_snr = 10 * np.log10(expect_h2 * scenario.tx_power
                                   / noise_power(scenario))

        rng = np.random.default_rng(0)
        h2 = []
        for _ in range(250):
            cb = draw_codebook(layout.num_cells, 1,
                               scenario.reflection_set, int(rng.integers(2 ** 62)))
            one = default_scenario(num_samples=1)
            h2.append(abs(_channel_coefficients(p, np.zeros(3), layout,
                                                cb, one)[0]) ** 2)
        sim_snr = 10 * np.log10(np.mean(h2) * scenario.tx_power
                                / noise_power(scenario))
        assert sim_snr == pytest.approx(expect_snr, abs=6.0)
        assert 20.0 <= sim_snr <= 46.0


class TestGenerateSnapshot:
    def test_noiseless_limit(self, layout, scenario):
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=4)
        s0 = scenario.noiseless()
        p = np.array([2.0, 0.0, -0.5])
        snap = generate_snapshot(p, DEFAULT_UE_VELOCITY, layout, cb, s0, 9)
        h = _channel_coefficients(p, DEFAULT_UE_VELOCITY, layout, cb, s0)
        assert np.array_equal(snap.y, h * np.sqrt(s0.tx_power))

    def test_same_seed_bit_identical(self, layout, scenario):
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=4)
        p = np.array([1.5, 0.2, -0.5])
        a = generate_snapshot(p, DEFAULT_UE_VELOCITY, layout, cb, scenario, 13)
        b = generate_snapshot(p, DEFAULT_UE_VELOCITY, layout, cb, scenario, 13)
        assert np.array_equal(a.y, b.y)

    def test_noise_variance_within_2pct(self):
        lay = single_cell_layout()
        s = default_scenario()
        cb = unit_codebook(1, s.num_samples)
        p = np.array([2.0, 0.0, -0.5])
        signal = _channel_coefficients(p, np.zeros(3), lay, cb, s) \
            * np.sqrt(s.tx_power)
        draws = []
        for seed in range(2500):
            snap = generate_snapshot(p, np.zeros(3), lay, cb, s, seed)
            draws.append(snap.y - signal)
        noise = np.concatenate(draws)
        assert len(noise) == 100_000
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(
            noise_power(s), rel=0.02)

    def test_distinct_seeds_uncorrelated(self):
        lay = single_cell_layout()
        s = default_scenario(num_samples=2000)
        cb = unit_codebook(1, s.num_samples)
        p = np.array([2.0, 0.0, -0.5])
        a = generate_snapshot(p, np.zeros(3), lay, cb, s, 1)
        b = generate_snapshot(p, np.zeros(3), lay, cb, s, 2)
        na, nb = a.y - np.mean(a.y), b.y - np.mean(b.y)
        corr = np.abs(np.vdot(na, nb)) / (np.linalg.norm(na)
                                          * np.linalg.norm(nb))
        assert corr < 3.0 / np.sqrt(s.num_samples)

    def test_snr_definition(self, layout, scenario):
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=4)
        p = np.array([2.0, 0.0, -0.5])
        snap = generate_snapshot(p, np.zeros(3), layout, cb, scenario, 3)
        h = _channel_coefficients(p, np.zeros(3), layout, cb, scenario)
        expect = 10 * np.log10(np.abs(h) ** 2 * scenario.tx_power
                               / noise_power(scenario))
        assert np.allclose(snap.snr_per_sample, expect)
        assert np.all(np.isfinite(snap.snr_per_sample))


class TestCodebook:
    def test_entries_from_reflection_set(self, layout, scenario):
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=11)
        refl = np.asarray(scenario.reflection_set)
        flat = cb.gamma.ravel()
        assert np.all(np.isclose(flat[:, None], refl[None, :]).any(axis=1))
        assert cb.gamma.shape == (508, 40)

    def test_unit_modulus(self, layout, scenario):
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=11)
        assert np.allclose(np.abs(cb.gamma), 1.0)


class TestSnapshotIo:
    def test_round_trip(self, layout, scenario, tmp_path):
        cb = draw_codebook(layout.num_cells, scenario.num_samples,
                           scenario.reflection_set, seed=4)
        p = np.array([1.2, -0.4, -0.5])
        snap = generate_snapshot(p, DEFAULT_UE_VELOCITY, layout, cb,
                                 scenario, 21)
        path = tmp_path / "snapshot.txt"
        save_snapshot(snap, scenario, path)
        header = {}
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                key, *values = line[1:].split()
                header[key] = values
        ell, re_y, im_y, snr = np.loadtxt(path, unpack=True)
        assert np.array_equal(ell, np.arange(scenario.num_samples))
        assert np.allclose(re_y + 1j * im_y, snap.y, rtol=1e-11)
        assert np.allclose(np.array(header["truth_p_m"], float), snap.truth_p)
        assert np.allclose(np.array(header["truth_v_mps"], float),
                           snap.truth_v)
        assert np.allclose(snr, snap.snr_per_sample, rtol=1e-11)
        assert int(header["seed"][0]) == 21

    def test_scenario_hash_tells_noiseless_apart(self, scenario):
        # The default scenario keeps its fingerprint; a noiseless copy, or
        # any other set noise power, gets its own.
        assert scenario_hash(scenario) == "a0ed756bec425db0"
        hashes = {scenario_hash(s) for s in (
            scenario, scenario.noiseless(),
            default_scenario(noise_power_override=1e-12))}
        assert len(hashes) == 3


class TestScenarioValidation:
    def test_non_unit_reflection_rejected(self):
        with pytest.raises(ValueError):
            Scenario(reflection_set=(0.5, 1.0))

    @pytest.mark.parametrize("refl", [(1.0,), (1.0, 1j, -1.0), (1j, 1j)])
    def test_reflection_set_not_two_distinct_values_rejected(self, refl):
        with pytest.raises(ValueError, match="two distinct values"):
            Scenario(reflection_set=refl)

    def test_db_to_linear(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(19.0) == pytest.approx(79.433, rel=1e-4)
