"""Tests for the adaptive beamformer: paths, FDAF, SINR score, length sweep."""

import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import (
    FS,
    adapt_reference,
    block_lms_reference,
    default_scene,
    echoic_scene_10s,
    fdaf_gjbf_loop_reference,
    fdaf_gjbf_reference,
    gradient_kernels_reference,
    overlap_save_frames_reference,
    white_noise_buffer,
)

from audiozoom import gjbf
from audiozoom.blockthresh import residual_variance
from audiozoom.dsp import AudioBuffer, Spectrogram, StftParams, stft
from audiozoom.gjbf import (
    DIVERGENCE_LIMIT,
    GjbfConfig,
    apply_gjbf,
    fdaf_gjbf,
    mean_sinr_db,
    select_filter_length,
)
from audiozoom.metrics import osinr_db
from audiozoom.pipeline import DEFAULT_SWEEP_LENGTHS
from audiozoom.simulate import (
    MixtureSpec,
    SourceSpec,
    echo_taps_for_t60,
    synthesize_mixture,
    two_mic_array,
)


class TestPaths:
    """The filter's fixed path is the channel mean and its blocking path the difference."""

    def test_fixed_path_is_channel_mean(self):
        rng = np.random.default_rng(0)
        x1, x2 = rng.standard_normal(1000), rng.standard_normal(1000)
        z, y_b, _ = fdaf_gjbf(AudioBuffer(x1, FS), AudioBuffer(x2, FS), GjbfConfig(filter_length=64))
        fixed = 0.5 * (x1 + x2)
        assert np.abs(z.samples[0] + y_b.samples[0] - fixed).max() <= 1e-12 * np.abs(fixed).max()

    def test_fixed_path_opposite_channels_cancel(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000)
        z, y_b, _ = fdaf_gjbf(AudioBuffer(x, FS), AudioBuffer(-x, FS), GjbfConfig(filter_length=64))
        # The fixed path is exactly zero, so the filter has nothing to adapt to.
        assert np.all(z.samples == 0) and np.all(y_b.samples == 0)

    def test_blocking_path_tracks_interferer(self):
        scene = default_scene(seed=5, duration_s=1.0)
        block = scene.mixture.samples[0] - scene.mixture.samples[1]
        interf_block = scene.interference_image.samples[0] - scene.interference_image.samples[1]
        # Broadside target cancels, so the block output is the interferer difference.
        num = float(block @ interf_block)
        den = np.linalg.norm(block) * np.linalg.norm(interf_block)
        assert num / den > 0.9

    def test_length_mismatch_rejected(self):
        a = AudioBuffer(np.zeros(10), FS)
        b = AudioBuffer(np.zeros(11), FS)
        with pytest.raises(ValueError, match="length"):
            fdaf_gjbf(a, b, GjbfConfig(filter_length=2))


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
        y_f = 0.5 * (ch1.samples[0] + ch2.samples[0])
        tail = slice(3 * FS, 4 * FS)
        suppression = 10 * np.log10(np.mean(z.samples[0, tail] ** 2) / np.mean(y_f[tail] ** 2))
        assert suppression <= -10.0

        # Oracle: the unconstrained Wiener filter from cross/auto spectra
        # confirms at least that much cancellation is available.
        u = (ch1.samples[0] - ch2.samples[0])[tail]
        d = y_f[tail]
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

        # Decomposition against ground-truth images by replaying the run.
        def frozen(image):
            return apply_gjbf(image.channel(0), image.channel(1), state).samples[0]

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

    @pytest.mark.parametrize("a", [1e155, 1e200])
    def test_overflowing_input_is_value_error(self, a):
        mixture = default_scene(seed=1).mixture
        ch1, ch2 = (AudioBuffer(a * mixture.samples[m], FS) for m in range(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="input level overflows"):
                fdaf_gjbf(ch1, ch2)
        assert not caught

    # The two overflow answers at the edge of the float range. Unnormalised at
    # 1e153 the taps reach about 8e302 after block 0: finite, so the step is
    # reported; from 1e155 the block gradient itself is infinite.
    @pytest.mark.parametrize(
        "normalized, a, error",
        [
            (True, 1e152, None),
            (True, 1e153, ValueError),
            (False, 1e152, RuntimeError),
            (False, 1e153, RuntimeError),
            (False, 1e155, ValueError),
        ],
    )
    def test_overflow_contract_at_the_float_range_edge(self, normalized, a, error):
        config = GjbfConfig(normalized=True) if normalized else GjbfConfig(normalized=False, step_size=0.002)
        mixture = default_scene(seed=1).mixture
        ch1, ch2 = (AudioBuffer(a * mixture.samples[m], FS) for m in range(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if error is None:
                z, _, state = fdaf_gjbf(ch1, ch2, config)
                assert np.all(np.isfinite(z.samples)) and np.all(np.isfinite(state.trajectory))
            else:
                match = "input level overflows" if error is ValueError else "step size too large"
                with pytest.raises(error, match=match):
                    fdaf_gjbf(ch1, ch2, config)
        assert not caught

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

    def test_alignment_delay_is_half_the_length(self):
        assert [GjbfConfig(filter_length=L).delay for L in (1, 8, 125, 250)] == [0, 4, 62, 125]
        with pytest.raises(TypeError, match="alignment_delay"):
            GjbfConfig(alignment_delay=4)


ORACLE_CONFIGS = {
    "default": GjbfConfig(),
    "L100": GjbfConfig(filter_length=100),
    "L64-B32": GjbfConfig(filter_length=64, block_size=32),
    "L50-B80": GjbfConfig(filter_length=50, block_size=80),
    "leak": GjbfConfig(leak=0.01),
    "fixed-step": GjbfConfig(normalized=False, step_size=0.002),
}


def _oracle_scene(seed, duration_s=3.0):
    echo = echo_taps_for_t60(0.3) if seed % 2 else ()
    mixture = default_scene(seed, duration_s=duration_s, echo_taps=echo).mixture
    return mixture.channel(0), mixture.channel(1)


class TestFdafMatchesReference:
    """fdaf_gjbf against the per-block FFT oracle: the same algorithm, rounded
    differently, so arrays agree within 1e-12 of their peak (2.2e-15 measured)."""

    # The id predates the direct-form loop; the cases now compare within 1e-12 of the peak.
    @pytest.mark.parametrize("name", ORACLE_CONFIGS)
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_outputs_and_taps_bit_identical(self, seed, name):
        config = ORACLE_CONFIGS[name]
        ch1, ch2 = _oracle_scene(seed)
        z, y_b, state = fdaf_gjbf(ch1, ch2, config)
        z_want, y_b_want, taps_want = fdaf_gjbf_reference(ch1.samples[0], ch2.samples[0], config)
        for got, want in ((z.samples[0], z_want), (y_b.samples[0], y_b_want), (state.taps, taps_want)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_sweep_matches_reference(self):
        # Each candidate scores 10*log10(||fixed path||^2 / ||z||^2). The oracle's z
        # agrees within 1e-12 of its peak, so the dB scores agree within 1e-9.
        ch1, ch2 = _oracle_scene(seed=3, duration_s=2.0)
        lengths = (32, 64, 100, 150, 250, 400)
        best, curve, _, _ = select_filter_length(ch1, ch2, lengths)
        fixed = 0.5 * (ch1.samples[0] + ch2.samples[0])
        want = []
        for length in lengths:
            z, _, _ = fdaf_gjbf_reference(
                ch1.samples[0], ch2.samples[0], GjbfConfig(filter_length=length)
            )
            want.append((length, 10.0 * np.log10(np.sum(fixed**2) / np.sum(z**2))))
        assert [length for length, _ in curve] == list(lengths)
        assert np.abs(np.array(curve) - np.array(want))[:, 1].max() <= 1e-9
        assert best == min(want, key=lambda item: (-item[1], item[0]))[0]

    @pytest.mark.parametrize("n_samples", [1000, 2500])
    def test_reference_transformed_once_per_run(self, monkeypatch, n_samples):
        # The normalised gradient kernels of all blocks take one batched rfft
        # and one batched irfft; the blocks themselves transform nothing, and
        # the unnormalised filter transforms nothing at all.
        calls = {"rfft": [], "irfft": []}
        for name in calls:
            real = getattr(np.fft, name)

            def counting(a, *args, _real=real, _log=calls[name], **kwargs):
                _log.append(np.ndim(a))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        x1, x2 = (white_noise_buffer(n_samples, seed) for seed in (21, 22))
        config = GjbfConfig(filter_length=64)
        fdaf_gjbf(x1, x2, config)
        assert calls == {"rfft": [2], "irfft": [2]}
        calls["rfft"].clear()
        calls["irfft"].clear()
        fdaf_gjbf(x1, x2, GjbfConfig(filter_length=64, step_size=0.002, normalized=False))
        assert calls == {"rfft": [], "irfft": []}


def _assert_same_bytes(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


LOOP_ORACLE_CONFIGS = {
    f"{'norm' if normalized else 'fixed'}-leak{leak}-B{block}": GjbfConfig(
        filter_length=64,
        block_size=block,
        leak=leak,
        normalized=normalized,
        step_size=0.05 if normalized else 0.002,
    )
    for normalized in (True, False)
    for leak in (0.0, 0.01)
    for block in (None, 48)
}
LOOP_ORACLE_CONFIGS["L1"] = GjbfConfig(filter_length=1)
LOOP_ORACLE_CONFIGS["L1-fixed"] = GjbfConfig(filter_length=1, normalized=False, step_size=0.002)


class TestBlockLoopByteEqual:
    """The block loop against its earlier form kept in helpers (taps first-to-last,
    np.convolve, max|taps| every block): every output byte-equal, not just close."""

    @staticmethod
    def _assert_run_matches_oracle(ch1, ch2, config):
        z, y_b, state = fdaf_gjbf(ch1, ch2, config)
        z_want, y_b_want, trajectory_want = fdaf_gjbf_loop_reference(ch1, ch2, config)
        _assert_same_bytes(z.samples[0], z_want)
        _assert_same_bytes(y_b.samples[0], y_b_want)
        _assert_same_bytes(state.trajectory, trajectory_want)
        assert state.trajectory.flags.c_contiguous

    @pytest.mark.parametrize("name", LOOP_ORACLE_CONFIGS)
    def test_stages_byte_equal(self, name):
        config = LOOP_ORACLE_CONFIGS[name]
        ch1, ch2 = _oracle_scene(seed=3)
        desired, frames, reference = gjbf._overlap_save_frames(ch1, ch2, config)
        desired_want, frames_want, reference_want = overlap_save_frames_reference(ch1, ch2, config)
        for got, want in ((desired, desired_want), (frames, frames_want), (reference, reference_want)):
            _assert_same_bytes(got, want)
        kernels = gjbf._gradient_kernels(frames, reference, config)
        _assert_same_bytes(kernels, gradient_kernels_reference(frames, reference, config))
        estimate, trajectory = gjbf._adapt(desired, frames, kernels, config)
        estimate_want, trajectory_want = adapt_reference(desired, frames, kernels, config)
        _assert_same_bytes(estimate, estimate_want)
        _assert_same_bytes(trajectory, trajectory_want)
        assert trajectory.flags.c_contiguous

    @pytest.mark.parametrize("name", LOOP_ORACLE_CONFIGS)
    def test_run_byte_equal(self, name):
        self._assert_run_matches_oracle(*_oracle_scene(seed=3), LOOP_ORACLE_CONFIGS[name])

    @pytest.mark.parametrize("length", DEFAULT_SWEEP_LENGTHS)
    def test_sweep_lengths_byte_equal_on_10s_echoic_scene(self, length):
        mixture = echoic_scene_10s().mixture
        config = GjbfConfig(filter_length=length)
        self._assert_run_matches_oracle(mixture.channel(0), mixture.channel(1), config)

    def test_select_filter_length_byte_equal(self):
        mixture = echoic_scene_10s().mixture
        ch1, ch2 = mixture.channel(0), mixture.channel(1)
        best, curve, z, state = select_filter_length(ch1, ch2, DEFAULT_SWEEP_LENGTHS)
        fixed = 0.5 * (ch1.samples[0] + ch2.samples[0])
        fixed_power = float(np.dot(fixed, fixed))
        runs = {L: fdaf_gjbf_loop_reference(ch1, ch2, GjbfConfig(filter_length=L)) for L in DEFAULT_SWEEP_LENGTHS}
        want = [(L, gjbf._power_score_db(fixed_power, runs[L][0])) for L in DEFAULT_SWEEP_LENGTHS]
        assert curve == want
        assert best == min(want, key=lambda item: (-item[1], item[0]))[0]
        assert state.config.filter_length == best
        _assert_same_bytes(z.samples[0], runs[best][0])
        _assert_same_bytes(state.trajectory, runs[best][2])

    # tracemalloc peak of one run over one input channel's bytes on a 10 s
    # scene; it reads 6.06 (L = 50) and 6.02 (L = 250). Keeping each block's
    # output in a list, or flipping a last-first trajectory at the end, would
    # read about 7.
    @pytest.mark.parametrize("length", [50, 250])
    def test_peak_memory_in_channel_sizes(self, length):
        mixture = echoic_scene_10s().mixture
        ch1, ch2 = mixture.channel(0), mixture.channel(1)
        config = GjbfConfig(filter_length=length)
        fdaf_gjbf(ch1, ch2, config)  # first-call caches are not the run's memory
        tracemalloc.start()
        try:
            fdaf_gjbf(ch1, ch2, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.25 * ch1.samples.nbytes


class TestDivergenceBoundary:
    """_adapt's divergence test at its edges. Block 0 of these crafted inputs
    sets the taps to 0.5 * kernel[1:] (a zero frame, error 1, step 0.5) and
    block 1 leaves them as they are (error 0)."""

    @staticmethod
    def _adapt(taps):
        taps = np.asarray(taps, dtype=np.float64)
        config = GjbfConfig(filter_length=taps.size, block_size=1, step_size=0.5, normalized=False)
        frames = np.zeros((2, taps.size + 1))
        kernels = np.zeros((2, taps.size + 1))
        kernels[0, 1:] = 2.0 * taps[::-1]
        return gjbf._adapt(np.array([1.0, 0.0]), frames, kernels, config)

    @pytest.mark.parametrize("length", [2, 4, 64])
    def test_every_tap_just_inside_runs_on(self, length):
        # ||taps||^2 is past DIVERGENCE_LIMIT^2, so the exact max|taps| test decides.
        taps = np.full(length, 0.9 * DIVERGENCE_LIMIT)
        assert np.dot(taps, taps) > DIVERGENCE_LIMIT**2
        estimate, trajectory = self._adapt(taps)
        assert np.all(estimate == 0)
        assert np.array_equal(trajectory, np.vstack([np.zeros(length), taps, taps]))

    def test_one_tap_at_the_limit_runs_on(self):
        taps = [0.0, DIVERGENCE_LIMIT, 0.0]
        _, trajectory = self._adapt(taps)
        assert np.array_equal(trajectory[-1], taps)

    @pytest.mark.parametrize("others", [0.0, 1.0])
    def test_one_tap_just_past_the_limit_raises(self, others):
        taps = np.full(3, others)
        taps[1] = np.nextafter(DIVERGENCE_LIMIT, np.inf)
        with pytest.raises(RuntimeError, match="step size too large"):
            self._adapt(taps)

    def test_nan_tap_is_value_error(self):
        with pytest.raises(ValueError, match="input level overflows"):
            self._adapt([0.0, np.nan, 0.0])

    @pytest.mark.parametrize("over", ["warn", "raise", "call"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_jump_to_1e300_is_runtime_error_without_warning(self, over, length):
        # ||taps||^2 overflows; the loop masks that, and max|taps| is finite.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over=over, call=gjbf._input_overflow):
                with pytest.raises(RuntimeError, match="step size too large"):
                    self._adapt(np.full(length, 1e300))
        assert not caught


class TestRecordedRun:
    """The state holds the taps every block ran with, and apply_gjbf replays them."""

    def test_trajectory_starts_at_zero_and_ends_at_taps(self):
        x1, x2 = (white_noise_buffer(3000, seed) for seed in (23, 24))
        config = GjbfConfig(filter_length=64, block_size=48)
        _, _, state = fdaf_gjbf(x1, x2, config)
        n_blocks = -(-(3000 + config.delay) // config.block)
        assert state.trajectory.shape == (n_blocks + 1, 64)
        assert np.all(state.trajectory[0] == 0)
        assert np.array_equal(state.taps, state.trajectory[-1])

    def test_trajectory_matches_block_lms_per_block(self):
        # Criterion 3's unnormalised set-up, checked block by block.
        rng = np.random.default_rng(103)
        L, blocks = 8, 10
        config = GjbfConfig(filter_length=L, step_size=0.02, normalized=False)
        n = 2 * L + 1 + L * blocks
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        _, _, state = fdaf_gjbf(AudioBuffer(x1, FS), AudioBuffer(x2, FS), config)

        pad = -(-(n + config.delay) // L) * L
        u = np.zeros(pad)
        u[:n] = x1 - x2
        d = np.zeros(pad)
        d[config.delay : config.delay + n] = 0.5 * (x1 + x2)
        want = block_lms_reference(u, d, L, L, 0.02, pad // L)
        assert state.trajectory[1:].shape == want.shape
        for got_row, want_row in zip(state.trajectory[1:], want):
            assert np.abs(got_row - want_row).max() <= 1e-6 * np.abs(want_row).max()

    def test_state_carries_its_config(self):
        x1, x2 = (white_noise_buffer(3000, seed) for seed in (27, 28))
        config = GjbfConfig(filter_length=64, block_size=48, leak=0.01)
        z, _, state = fdaf_gjbf(x1, x2, config)
        assert state.config is config
        replay = apply_gjbf(x1, x2, state).samples
        assert np.abs(replay - z.samples).max() <= 1e-12 * np.abs(z.samples).max()

    def test_mismatched_state_rejected(self):
        x1, x2 = (white_noise_buffer(3000, seed) for seed in (25, 26))
        _, _, state = fdaf_gjbf(x1, x2, GjbfConfig(filter_length=64))
        short = [AudioBuffer(x.samples[0, :2000], FS) for x in (x1, x2)]
        with pytest.raises(ValueError, match="does not match"):
            apply_gjbf(*short, state)


class TestSelectFilterLength:
    def _scene(self):
        return default_scene(seed=10, duration_s=1.0)

    def test_curve_has_one_entry_per_candidate(self):
        scene = self._scene()
        best, curve, _, _ = select_filter_length(
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
        best, curve, _, _ = select_filter_length(
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
        best_a, curve_a, z_a, _ = select_filter_length(ch1, ch2, [32, 96, 160], config)
        best_b, curve_b, z_b, _ = select_filter_length(ch1, ch2, [160, 32, 96], config)
        assert best_a == best_b
        assert dict(curve_a) == dict(curve_b)
        assert np.array_equal(z_a.samples, z_b.samples)

    def test_ties_break_to_smaller_length(self):
        # Identical channels: every candidate sees a perfectly clean output
        # and scores the capped value, so the tie rule decides.
        rng = np.random.default_rng(11)
        x = AudioBuffer(rng.standard_normal(FS), FS)
        best, curve, _, _ = select_filter_length(x, x, [64, 96, 48], GjbfConfig(filter_length=48))
        values = [v for _, v in curve]
        assert len(set(values)) == 1
        assert best == 48

    def test_silent_input_ties_to_smallest_length(self):
        # Silent channels: every output is silent, so every power ratio is 0 dB.
        x = AudioBuffer(np.zeros(FS), FS)
        best, curve, z, state = select_filter_length(x, x, [96, 48, 64])
        assert curve == [(96, 0.0), (48, 0.0), (64, 0.0)]
        assert best == 48 and state.config.filter_length == 48
        assert not np.any(z.samples)

    def test_returns_the_winning_run(self):
        scene = self._scene()
        ch1, ch2 = scene.mixture.channel(0), scene.mixture.channel(1)
        config = GjbfConfig(filter_length=32, leak=0.01)
        best, _, z, state = select_filter_length(ch1, ch2, [32, 64, 128], config)
        z_want, _, state_want = fdaf_gjbf(ch1, ch2, GjbfConfig(filter_length=best, leak=0.01))
        assert np.array_equal(z.samples, z_want.samples)
        assert np.array_equal(state.trajectory, state_want.trajectory)

    def test_explicit_block_size_reaches_every_candidate(self, monkeypatch):
        scene = self._scene()
        ch1, ch2 = scene.mixture.channel(0), scene.mixture.channel(1)
        states = []
        real = gjbf.fdaf_gjbf

        def recorded(*args):
            result = real(*args)
            states.append(result[2])
            return result

        monkeypatch.setattr(gjbf, "fdaf_gjbf", recorded)
        best, _, _, state = select_filter_length(ch1, ch2, [32, 64, 128], GjbfConfig(block_size=48))
        assert [s.config.filter_length for s in states] == [32, 64, 128]
        assert [s.config.block for s in states] == [48, 48, 48]
        assert state.config == GjbfConfig(filter_length=best, block_size=48)

    def test_too_few_candidates_rejected(self):
        rng = np.random.default_rng(12)
        x = AudioBuffer(rng.standard_normal(FS), FS)
        with pytest.raises(ValueError, match="two candidate"):
            select_filter_length(x, x, [64], GjbfConfig())

    def test_duplicate_candidates_run_once(self, monkeypatch):
        scene = self._scene()
        ch1, ch2 = scene.mixture.channel(0), scene.mixture.channel(1)
        with pytest.raises(ValueError, match="two candidate"):
            select_filter_length(ch1, ch2, [64, 64])
        once = select_filter_length(ch1, ch2, [96, 32])
        runs = []
        real = gjbf.fdaf_gjbf

        def counted(*args):
            runs.append(args[2].filter_length)
            return real(*args)

        monkeypatch.setattr(gjbf, "fdaf_gjbf", counted)
        best, curve, z, _ = select_filter_length(ch1, ch2, [96, 32, 96, 32])
        assert runs == [96, 32]
        assert (best, curve) == once[:2]
        assert np.array_equal(z.samples, once[2].samples)

    def test_overflowing_output_fails_without_warnings(self):
        # At 1e153 some lengths' FDAF runs finish; their output power overflows.
        mixture = default_scene(seed=1).mixture
        ch1, ch2 = (AudioBuffer(1e153 * mixture.samples[m], FS) for m in range(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="input level overflows the output power"):
                select_filter_length(ch1, ch2, [50, 250])
        assert not caught

    def test_overflowing_power_is_value_error(self):
        z = Spectrogram(np.full((5, 4), 1e200 + 0j), StftParams(8, 4), FS)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="input level overflows"):
                mean_sinr_db(z, np.ones((5, 4)))
        assert not caught

    def test_negative_variance_rejected(self):
        z = Spectrogram(np.ones((5, 4), dtype=complex), StftParams(8, 4), FS)
        with pytest.raises(ValueError, match="nonnegative"):
            mean_sinr_db(z, -np.ones((5, 4)))
        with pytest.raises(ValueError, match="dimensions"):
            mean_sinr_db(z, np.ones((5, 3)))

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

    def test_pool_size_does_not_change_result(self, monkeypatch):
        # 9000 and 8500 are longer than half of the 1 s scene, so they fail.
        scene = self._scene()
        ch1, ch2 = scene.mixture.channel(0), scene.mixture.channel(1)
        real_pool = gjbf.ThreadPoolExecutor
        results = {}
        for cpus in (1, 2, 8):
            workers = []
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            monkeypatch.setattr(
                gjbf,
                "ThreadPoolExecutor",
                lambda max_workers: workers.append(max_workers) or real_pool(max_workers),
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                best, curve, z, state = select_filter_length(ch1, ch2, (9000, 50, 8500, 100))
                results[cpus] = (best, curve, z.samples.tobytes(), state.trajectory.tobytes())
            assert workers == [1]
            assert [str(w.message) for w in caught] == [
                f"filter length {length} skipped: "
                "signals must be longer than twice the filter length"
                for length in (9000, 8500)
            ]
        assert results[1] == results[2] == results[8]
        assert [length for length, _ in results[1][1]] == [50, 100]

    def test_candidates_run_one_at_a_time(self, monkeypatch):
        scene = self._scene()
        ch1, ch2 = scene.mixture.channel(0), scene.mixture.channel(1)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # more CPUs must not widen the sweep
        spans = []
        real = gjbf.fdaf_gjbf

        def timed(*args):
            start = time.perf_counter()
            try:
                return real(*args)
            finally:
                spans.append((start, time.perf_counter(), args[2].filter_length))

        monkeypatch.setattr(gjbf, "fdaf_gjbf", timed)
        select_filter_length(ch1, ch2, [32, 64, 96, 128])
        assert [length for _, _, length in spans] == [32, 64, 96, 128]
        for (_, end, _), (start, _, _) in zip(spans, spans[1:]):
            assert end <= start
