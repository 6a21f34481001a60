"""Tests for the adaptive beamformer: paths, FDAF, SINR map, length sweep."""

import numpy as np
import pytest
from helpers import FS, block_lms_reference, default_scene, white_noise_buffer

from audiozoom.blockthresh import residual_variance
from audiozoom.dsp import AudioBuffer, StftParams, fft_convolve, stft
from audiozoom.gjbf import (
    GjbfConfig,
    blocking_path,
    fdaf_gjbf,
    fixed_path,
    mean_sinr_db,
    select_filter_length,
    sinr_map,
)
from audiozoom.metrics import osinr_db
from audiozoom.simulate import MixtureSpec, SourceSpec, synthesize_mixture, two_mic_array


class TestPaths:
    def test_fixed_path_is_channel_mean(self):
        rng = np.random.default_rng(0)
        a = AudioBuffer(rng.standard_normal(1000), FS)
        b = AudioBuffer(rng.standard_normal(1000), FS)
        out = fixed_path(a, b)
        assert np.abs(out.samples[0] - 0.5 * (a.samples[0] + b.samples[0])).max() <= 1e-15

    def test_fixed_path_identical_channels(self):
        rng = np.random.default_rng(1)
        a = AudioBuffer(rng.standard_normal(1000), FS)
        assert np.array_equal(fixed_path(a, a).samples, a.samples)

    def test_fixed_path_opposite_channels_cancel(self):
        rng = np.random.default_rng(2)
        a = AudioBuffer(rng.standard_normal(1000), FS)
        b = AudioBuffer(-a.samples[0], FS)
        assert np.all(fixed_path(a, b).samples == 0)

    def test_blocking_path_identical_channels_exactly_zero(self):
        rng = np.random.default_rng(3)
        a = AudioBuffer(rng.standard_normal(1000), FS)
        assert np.all(blocking_path(a, a).samples == 0)

    def test_blocking_path_impulse(self):
        a = AudioBuffer(np.concatenate([[1.0], np.zeros(99)]), FS)
        b = AudioBuffer(np.zeros(100), FS)
        out = blocking_path(a, b)
        assert out.samples[0, 0] == 1.0
        assert np.all(out.samples[0, 1:] == 0)

    def test_blocking_path_tracks_interferer(self):
        scene = default_scene(seed=5, duration_s=1.0)
        block = blocking_path(scene.mixture.channel(0), scene.mixture.channel(1))
        interf_block = blocking_path(
            scene.interference_image.channel(0), scene.interference_image.channel(1)
        )
        # Broadside target cancels, so the block output is the interferer difference.
        num = float(block.samples[0] @ interf_block.samples[0])
        den = np.linalg.norm(block.samples[0]) * np.linalg.norm(interf_block.samples[0])
        assert num / den > 0.9

    def test_length_mismatch_rejected(self):
        a = AudioBuffer(np.zeros(10), FS)
        b = AudioBuffer(np.zeros(11), FS)
        with pytest.raises(ValueError, match="length"):
            fixed_path(a, b)


class TestFdaf:
    def test_identical_channels_pass_through_exactly(self):
        rng = np.random.default_rng(4)
        x = AudioBuffer(rng.standard_normal(4000), FS)
        config = GjbfConfig(filter_length=64, step_size=0.1)
        z, y_b, state = fdaf_gjbf(x, x, config)
        assert np.all(y_b.samples == 0)
        assert np.all(state.taps == 0)
        assert np.array_equal(z.samples, x.samples)

    @pytest.mark.parametrize("leak", [0.0, 0.05])
    @pytest.mark.parametrize("B", [3, 4, 8, 13, 16])
    def test_matches_time_domain_block_lms(self, B, leak):
        # Oracle-first: fixed step, filter length 8, block sizes on both sides of it.
        rng = np.random.default_rng(5)
        L, blocks = 8, 10
        n = 2 * L + 1 + L * blocks
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        config = GjbfConfig(
            filter_length=L,
            step_size=0.02,
            block_size=B,
            leak=leak,
            normalized=False,
            alignment_delay=L // 2,
        )
        _, _, state = fdaf_gjbf(AudioBuffer(x1, FS), AudioBuffer(x2, FS), config)

        fixed = 0.5 * (x1 + x2)
        ref = x1 - x2
        total = x1.size + config.delay
        pad = -(-total // B) * B
        u = np.zeros(pad)
        u[: ref.size] = ref
        d = np.zeros(pad)
        d[config.delay : config.delay + fixed.size] = fixed
        trajectory = block_lms_reference(u, d, L, B, 0.02, pad // B, leak)
        scale = max(np.abs(trajectory[-1]).max(), 1e-300)
        assert np.abs(state.taps - trajectory[-1]).max() <= 1e-6 * scale

    def test_stationary_interferer_suppressed(self):
        noise = white_noise_buffer(4 * FS, seed=6)
        spec = MixtureSpec(
            target=SourceSpec(90.0, AudioBuffer(np.zeros(4 * FS), FS), "target"),
            interferers=(SourceSpec(60.0, noise, "interference"),),
        )
        # Target silent: build the scene by hand to dodge the empty-target guard.
        geometry = two_mic_array(0.10)
        from audiozoom.simulate import fractional_delay

        taus = geometry.delays(60.0)
        ch1 = fractional_delay(noise, float(taus[0]))
        ch2 = fractional_delay(noise, float(taus[1]))
        config = GjbfConfig(filter_length=250, step_size=0.2)
        z, _, _ = fdaf_gjbf(ch1, ch2, config)
        y_f = fixed_path(ch1, ch2)
        tail = slice(3 * FS, 4 * FS)
        suppression = 10 * np.log10(
            np.mean(z.samples[0, tail] ** 2) / np.mean(y_f.samples[0, tail] ** 2)
        )
        assert suppression <= -10.0

        # Oracle: the unconstrained Wiener filter from cross/auto spectra
        # confirms at least that much cancellation is available.
        u = (ch1.samples[0] - ch2.samples[0])[tail]
        d = y_f.samples[0, tail]
        nfft = 8192
        s_uu = np.zeros(nfft // 2 + 1)
        s_du = np.zeros(nfft // 2 + 1, dtype=complex)
        s_dd = np.zeros(nfft // 2 + 1)
        for start in range(0, u.size - nfft, nfft // 2):
            uw = np.fft.rfft(u[start : start + nfft])
            dw = np.fft.rfft(d[start : start + nfft])
            s_uu += np.abs(uw) ** 2
            s_dd += np.abs(dw) ** 2
            s_du += dw * np.conj(uw)
        residual = s_dd - np.abs(s_du) ** 2 / np.maximum(s_uu, 1e-12)
        wiener_db = 10 * np.log10(residual.sum() / s_dd.sum())
        assert wiener_db <= -10.0

    def test_mixture_sinr_improves_over_fixed_path(self):
        scene = default_scene(seed=7, duration_s=2.0)
        ch1, ch2 = scene.mixture.channel(0), scene.mixture.channel(1)
        config = GjbfConfig(filter_length=250)
        z, _, state = fdaf_gjbf(ch1, ch2, config)

        # Frozen-tap decomposition against ground-truth images.
        def frozen(image):
            fixed = 0.5 * (image.samples[0] + image.samples[1])
            ref = image.samples[0] - image.samples[1]
            est = fft_convolve(ref, state.taps)[config.delay : config.delay + fixed.size]
            est = np.pad(est, (0, fixed.size - est.size))
            return fixed - est

        t_out = frozen(scene.target_image)
        r_out = frozen(scene.interference_plus_noise)
        sinr_z = 10 * np.log10(np.sum(t_out**2) / np.sum(r_out**2))

        t_fix = 0.5 * scene.target_image.samples.sum(axis=0)
        r_fix = 0.5 * scene.interference_plus_noise.samples.sum(axis=0)
        sinr_fixed = 10 * np.log10(np.sum(t_fix**2) / np.sum(r_fix**2))
        assert sinr_z > sinr_fixed

    def test_energy_descent_on_stationary_interferer(self):
        noise = white_noise_buffer(2 * FS, seed=8)
        from audiozoom.simulate import fractional_delay

        geometry = two_mic_array(0.10)
        taus = geometry.delays(50.0)
        ch1 = fractional_delay(noise, float(taus[0]))
        ch2 = fractional_delay(noise, float(taus[1]))
        z, _, _ = fdaf_gjbf(ch1, ch2, GjbfConfig(filter_length=128, step_size=0.2))
        half = z.length // 2
        first = np.mean(z.samples[0, :half] ** 2)
        second = np.mean(z.samples[0, half:] ** 2)
        assert second <= first

    def test_divergence_detected(self):
        rng = np.random.default_rng(9)
        x1 = AudioBuffer(1e3 * rng.standard_normal(4000), FS)
        x2 = AudioBuffer(1e3 * rng.standard_normal(4000), FS)
        config = GjbfConfig(filter_length=32, step_size=1.9, normalized=False)
        with pytest.raises(RuntimeError, match="step size too large"):
            fdaf_gjbf(x1, x2, config)

    def test_short_signal_rejected(self):
        x = AudioBuffer(np.zeros(100), FS)
        with pytest.raises(ValueError, match="longer than"):
            fdaf_gjbf(x, x, GjbfConfig(filter_length=64))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="step_size"):
            GjbfConfig(step_size=2.5)
        with pytest.raises(ValueError, match="filter_length"):
            GjbfConfig(filter_length=0)
        with pytest.raises(ValueError, match="leak"):
            GjbfConfig(leak=1.5)


class TestSinrMap:
    def test_equal_power_gives_zero(self):
        z = np.full((5, 4), 2.0 + 0j)
        sigma2 = np.full((5, 4), 4.0)
        assert np.all(sinr_map(z, sigma2) == 0.0)

    def test_double_power_gives_one(self):
        z = np.full((5, 4), np.sqrt(2.0) + 0j)
        sigma2 = np.ones((5, 4))
        assert np.allclose(sinr_map(z, sigma2), 1.0)

    def test_zero_variance_hits_sentinel(self):
        z = np.ones((3, 3), dtype=complex)
        sigma2 = np.zeros((3, 3))
        assert np.all(sinr_map(z, sigma2) == 1e6)

    def test_negative_excess_floored_at_zero(self):
        z = np.ones((2, 2), dtype=complex)
        sigma2 = np.full((2, 2), 5.0)
        assert np.all(sinr_map(z, sigma2) == 0.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sinr_map(np.ones((2, 2), dtype=complex), -np.ones((2, 2)))


class TestSelectFilterLength:
    def _scene(self):
        return default_scene(seed=10, duration_s=1.0)

    def test_curve_has_one_entry_per_candidate(self):
        scene = self._scene()
        best, curve = select_filter_length(
            scene.mixture.channel(0),
            scene.mixture.channel(1),
            [32, 64, 128],
            GjbfConfig(filter_length=32),
        )
        assert len(curve) == 3
        assert [length for length, _ in curve] == [32, 64, 128]
        assert best in (32, 64, 128)

    def test_best_attains_curve_maximum(self):
        scene = self._scene()
        best, curve = select_filter_length(
            scene.mixture.channel(0),
            scene.mixture.channel(1),
            [32, 64, 128, 256],
            GjbfConfig(filter_length=32),
        )
        values = dict(curve)
        assert values[best] == max(values.values())

    def test_permutation_invariant_argmax(self):
        scene = self._scene()
        ch1, ch2 = scene.mixture.channel(0), scene.mixture.channel(1)
        config = GjbfConfig(filter_length=32)
        best_a, curve_a = select_filter_length(ch1, ch2, [32, 96, 160], config)
        best_b, curve_b = select_filter_length(ch1, ch2, [160, 32, 96], config)
        assert best_a == best_b
        assert dict(curve_a) == dict(curve_b)

    def test_ties_break_to_smaller_length(self):
        # Identical channels: every candidate sees a perfectly clean output
        # and scores the capped value, so the tie rule decides.
        rng = np.random.default_rng(11)
        x = AudioBuffer(rng.standard_normal(FS), FS)
        best, curve = select_filter_length(x, x, [64, 96, 48], GjbfConfig(filter_length=48))
        values = [v for _, v in curve]
        assert len(set(values)) == 1
        assert best == 48

    def test_too_few_candidates_rejected(self):
        rng = np.random.default_rng(12)
        x = AudioBuffer(rng.standard_normal(FS), FS)
        with pytest.raises(ValueError, match="two candidate"):
            select_filter_length(x, x, [64], GjbfConfig())

    def test_mean_sinr_db_matches_manual_aggregation(self):
        scene = self._scene()
        params = StftParams()
        z, _, _ = fdaf_gjbf(
            scene.mixture.channel(0), scene.mixture.channel(1), GjbfConfig(filter_length=64)
        )
        y1 = stft(scene.mixture.channel(0), params)
        y2 = stft(scene.mixture.channel(1), params)
        z_spec = stft(z, params)
        sigma2 = residual_variance(y1, y2, z_spec)
        got = mean_sinr_db(z_spec, sigma2)

        power = np.abs(z_spec.coefficients) ** 2
        floor = 1e-12 * power.mean()
        valid = sigma2 >= max(floor, 1e-300)
        ratio = np.clip((power[valid] - sigma2[valid]) / sigma2[valid], 0.0, 1e6)
        want = np.mean(10 * np.log10(1.0 + ratio))
        assert got == pytest.approx(want, rel=1e-12)
