"""Tests for the evaluation metrics and decompositions."""

import tracemalloc

import numpy as np
import pytest
from helpers import FS, align_delay_and_scale_reference, default_scene

from audiozoom.dsp import AudioBuffer, StftParams, stft
from audiozoom.gjbf import GjbfConfig, fdaf_gjbf
from audiozoom.metrics import (
    EvalReport,
    align_delay_and_scale,
    decompose_linear,
    mse_db,
    osinr_db,
    project_onto_reference,
    shadow_gain_decompose,
    signal_power,
)
from audiozoom.mpdr import apply_mpdr, design_mpdr
from audiozoom.pipeline import frozen_stage, run_zoom, PipelineConfig
from audiozoom.simulate import echo_taps_for_t60


class TestOsinr:
    def test_equal_power_is_zero_db(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        y = rng.permutation(x)
        assert osinr_db(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_scaling_shifts_twenty_db(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000)
        y = rng.standard_normal(1000)
        base = osinr_db(x, y)
        assert osinr_db(x, 0.1 * y) == pytest.approx(base + 20.0, abs=1e-9)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(500)
        y = rng.standard_normal(500)
        assert abs(osinr_db(x, y) + osinr_db(y, x)) <= 1e-9

    def test_zero_residual_capped(self):
        assert osinr_db(np.ones(10), np.zeros(10)) == 200.0

    def test_works_on_buffers_and_spectrograms(self):
        buf = AudioBuffer(np.ones(100), FS)
        assert signal_power(buf) == pytest.approx(100.0)
        spec = stft(AudioBuffer(np.random.default_rng(3).standard_normal(2048), FS))
        assert signal_power(spec) > 0


class TestMseDb:
    def test_identical_signals_hit_cap(self):
        rng = np.random.default_rng(4)
        x = AudioBuffer(rng.standard_normal(4000), FS)
        assert mse_db(x, x) == -200.0

    def test_zero_estimate_is_zero_db(self):
        rng = np.random.default_rng(5)
        ref = AudioBuffer(rng.standard_normal(4000), FS)
        est = AudioBuffer(np.zeros(4000), FS)
        assert mse_db(est, ref) == pytest.approx(0.0, abs=1e-12)

    def test_delay_and_scale_recovered(self):
        rng = np.random.default_rng(6)
        ref = rng.standard_normal(8000)
        est = np.zeros(8000)
        est[7:] = 0.5 * ref[:-7]
        got = mse_db(AudioBuffer(est, FS), AudioBuffer(ref, FS))
        assert got <= -100.0

    def test_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(7)
        ref = AudioBuffer(rng.standard_normal(4000), FS)
        est = rng.standard_normal(4000)
        a = mse_db(AudioBuffer(est, FS), ref)
        b = mse_db(AudioBuffer(3.7 * est, FS), ref)
        assert a == pytest.approx(b, abs=1e-9)

    def test_silent_reference_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            mse_db(AudioBuffer(np.ones(10), FS), AudioBuffer(np.zeros(10), FS))

    def test_alignment_helper_finds_shift_and_gain(self):
        rng = np.random.default_rng(8)
        ref = rng.standard_normal(2000)
        est = np.zeros(2000)
        est[5:] = 2.0 * ref[:-5]
        aligned, shift, gain = align_delay_and_scale(est, ref, max_shift=64)
        assert shift == 5
        assert gain == pytest.approx(0.5, rel=1e-6)
        assert np.abs(aligned[:-5] - ref[:-5]).max() <= 1e-9

    def test_negative_max_shift_rejected(self):
        rng = np.random.default_rng(31)
        est, ref = (AudioBuffer(rng.standard_normal(1000), FS) for _ in range(2))
        for score in (mse_db, project_onto_reference):
            with pytest.raises(ValueError, match="max_shift must be nonnegative"):
                score(est, ref, max_shift=-1)
        with pytest.raises(ValueError, match="max_shift must be nonnegative"):
            align_delay_and_scale(est.samples[0], ref.samples[0], max_shift=-5)


class TestDecomposeLinear:
    def test_identity_stage(self):
        rng = np.random.default_rng(9)
        t = AudioBuffer(rng.standard_normal((2, 1000)), FS)
        r = AudioBuffer(rng.standard_normal((2, 1000)), FS)
        t_out, r_out = decompose_linear(lambda b: b, t, r)
        assert t_out is t and r_out is r

    def test_mpdr_weights_superpose_exactly(self):
        scene = default_scene(seed=10, duration_s=1.0)
        params = StftParams()
        y1 = stft(scene.mixture.channel(0), params)
        y2 = stft(scene.mixture.channel(1), params)
        weights = design_mpdr(y1, y2)

        def stage(buf):
            return apply_mpdr(
                stft(buf.channel(0), params), stft(buf.channel(1), params), weights
            )

        mix_out = stage(scene.mixture)
        t_out, r_out = decompose_linear(
            stage, scene.target_image, scene.interference_plus_noise, mixture_output=mix_out,
            rtol=1e-9,
        )
        total = t_out.coefficients + r_out.coefficients
        assert np.abs(total - mix_out.coefficients).max() <= 1e-9 * np.abs(
            mix_out.coefficients
        ).max()

    def test_frozen_gjbf_superposes(self):
        scene = default_scene(seed=11, duration_s=1.0)
        config = PipelineConfig(beamformer="gjbf", gjbf=GjbfConfig(filter_length=128), bt_enabled=False)
        result = run_zoom(scene.mixture, config)
        stage = frozen_stage(result)
        mix_out = stage(scene.mixture)
        t_out, r_out = decompose_linear(
            stage, scene.target_image, scene.interference_plus_noise, mixture_output=mix_out
        )
        gap = np.abs(t_out.samples + r_out.samples - mix_out.samples).max()
        assert gap <= 1e-6 * np.abs(mix_out.samples).max()

    def test_nonlinear_stage_rejected(self):
        rng = np.random.default_rng(12)
        t = AudioBuffer(rng.standard_normal((2, 100)), FS)
        r = AudioBuffer(rng.standard_normal((2, 100)), FS)

        def clipping_stage(buf):
            return AudioBuffer(np.tanh(3.0 * buf.samples), FS)

        with pytest.raises(RuntimeError, match="not frozen/linear"):
            decompose_linear(clipping_stage, t, r, mixture_output=clipping_stage(
                AudioBuffer(t.samples + r.samples, FS)
            ))


class TestShadowGains:
    def _pair(self, seed=13):
        rng = np.random.default_rng(seed)
        shape = (257, 10)
        params = StftParams()
        mk = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        from audiozoom.dsp import Spectrogram

        return Spectrogram(mk(), params, FS), Spectrogram(mk(), params, FS)

    def test_unity_gains_no_change(self):
        t, r = self._pair()
        gains = np.ones(t.coefficients.shape)
        t2, r2 = shadow_gain_decompose(gains, t, r)
        assert np.array_equal(t2.coefficients, t.coefficients)
        assert np.array_equal(r2.coefficients, r.coefficients)

    def test_zero_gains_zero_components(self):
        t, r = self._pair(seed=14)
        gains = np.zeros(t.coefficients.shape)
        t2, r2 = shadow_gain_decompose(gains, t, r)
        assert np.all(t2.coefficients == 0) and np.all(r2.coefficients == 0)

    def test_components_reconstruct_gained_mixture(self):
        t, r = self._pair(seed=15)
        rng = np.random.default_rng(16)
        gains = rng.uniform(0, 1, t.coefficients.shape)
        t2, r2 = shadow_gain_decompose(gains, t, r)
        mix = gains * (t.coefficients + r.coefficients)
        assert np.abs(t2.coefficients + r2.coefficients - mix).max() <= 1e-12 * max(
            1.0, np.abs(mix).max()
        )

    def test_out_of_range_gains_rejected(self):
        t, r = self._pair(seed=17)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            shadow_gain_decompose(np.full(t.coefficients.shape, 1.5), t, r)


class TestEvalReport:
    def test_gain_field_consistency(self):
        report = EvalReport(input_sinr_db=1.0, osinr_db=7.5, mse_db=-20.0)
        assert report.sinr_gain_db == pytest.approx(report.osinr_db - report.input_sinr_db, abs=1e-9)

    def test_csv_round_trip_fields(self):
        report = EvalReport(0.0, 10.0, -15.0, osinr_beamformer_db=5.0, mse_beamformer_db=-9.0)
        header = EvalReport.csv_header().split(",")
        row = report.to_csv_row().split(",")
        assert len(header) == len(row) == 6
        assert header == [
            "input_sinr_db", "osinr_db", "sinr_gain_db", "mse_db", "osinr_beamformer_db", "mse_beamformer_db"
        ]
        assert [float(value) for value in row] == [0.0, 10.0, 10.0, -15.0, 5.0, -9.0]

    def test_text_format_mentions_every_field(self):
        report = EvalReport(input_sinr_db=0.0, osinr_db=10.0, mse_db=-15.0)
        text = report.format_text()
        for name in ("input_sinr_db", "osinr_db", "sinr_gain_db", "mse_db"):
            assert name in text


class TestProjection:
    def test_mixture_channel_projects_to_input_sinr(self):
        scene = default_scene(seed=18, duration_s=2.0)
        est = scene.mixture.channel(0)
        reference = AudioBuffer(scene.target_image.samples.mean(axis=0), FS)
        fitted, residual = project_onto_reference(est, reference)
        got = osinr_db(fitted, residual)
        assert got == pytest.approx(0.0, abs=0.5)


class TestAlignmentMatchesReference:
    @staticmethod
    def _assert_same(estimate, reference, max_shift):
        a_got, s_got, g_got = align_delay_and_scale(estimate, reference, max_shift)
        a_want, s_want, g_want = align_delay_and_scale_reference(estimate, reference, max_shift)
        assert s_got == s_want
        assert g_got == g_want
        assert np.array_equal(a_got, a_want)
        return s_got

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_scored_outputs(self, seed):
        echo = echo_taps_for_t60(0.15) if seed % 2 else ()
        scene = default_scene(seed, echo_taps=echo)
        reference = scene.target_image.samples.mean(axis=0)
        for beamformer in ("mpdr", "gjbf"):
            result = run_zoom(scene.mixture, PipelineConfig(beamformer=beamformer))
            for estimate in (result.output.samples[0], result.beamformed.samples[0]):
                self._assert_same(estimate, reference, 512)
                self._assert_same(reference, estimate, 512)  # project_onto_reference's order

    @pytest.mark.parametrize("max_shift", [64, 512])
    def test_synthetic_delays(self, max_shift):
        rng = np.random.default_rng(max_shift)
        ref = rng.standard_normal(4000)
        for delay in (0, 1, -1, max_shift, -max_shift, max_shift + 1, -(max_shift + 1)):
            est = np.zeros_like(ref)
            if delay >= 0:
                est[delay:] = 0.7 * ref[: ref.size - delay]
            else:
                est[:delay] = 0.7 * ref[-delay:]
            est += 1e-3 * rng.standard_normal(ref.size)
            shift = self._assert_same(est, ref, max_shift)
            if abs(delay) <= max_shift:
                assert shift == delay

    @pytest.mark.parametrize("delay", [700, -700])
    def test_delay_beyond_search_does_not_alias(self, delay):
        # A circular correlation shorter than n + max_shift would fold lag 700 onto -300.
        rng = np.random.default_rng(abs(delay))
        ref = rng.standard_normal(1000)
        est = 0.01 * rng.standard_normal(1000)
        if delay > 0:
            est[delay:] += ref[:-delay]
        else:
            est[:delay] += ref[-delay:]
        assert abs(self._assert_same(est, ref, 512)) != 300

    @pytest.mark.parametrize("n", [10, 300])
    def test_signal_shorter_than_search(self, n):
        rng = np.random.default_rng(n)
        ref = rng.standard_normal(n)
        est = np.roll(ref, 3) + 0.1 * rng.standard_normal(n)
        assert self._assert_same(est, ref, 512) == 3

    def test_estimate_longer_than_reference(self):
        rng = np.random.default_rng(31)
        ref = rng.standard_normal(2000)
        est = np.concatenate([np.zeros(7), ref, rng.standard_normal(500)])
        assert self._assert_same(est, ref, 64) == 7

    def test_search_beyond_the_signal_is_clamped(self):
        # Lags of n or more cannot overlap, so a larger max_shift may not cost
        # a longer transform: same answer, and a peak that does not grow.
        rng = np.random.default_rng(41)
        n = 400
        ref = rng.standard_normal(n)
        est = np.roll(ref, 9) + 0.1 * rng.standard_normal(n)
        results, peaks = [], []
        for max_shift in (n - 1, 10 * n, 1000 * n):
            tracemalloc.start()
            results.append(align_delay_and_scale(est, ref, max_shift))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        for aligned, shift, gain in results[1:]:
            assert shift == results[0][1] == 9
            assert gain == results[0][2]
            assert np.array_equal(aligned, results[0][0])
        assert max(peaks) <= 1.5 * peaks[0]
        for max_shift in (0, 1000):  # an empty pair still has no lag to pick
            with pytest.raises(ValueError):
                align_delay_and_scale(np.zeros(0), np.zeros(0), max_shift)

    @pytest.mark.parametrize("a", [1e-170, 1e-150, 1e152])
    def test_peak_lag_does_not_depend_on_level(self, a):
        # Unscaled, the correlation's products underflow to 0 at 1e-170 and
        # overflow at 1e152, where the gain's sums are still in range.
        rng = np.random.default_rng(43)
        ref = rng.standard_normal(4000)
        est = np.roll(ref, 5) + 0.1 * rng.standard_normal(ref.size)
        assert align_delay_and_scale(a * est, a * ref)[1] == align_delay_and_scale(est, ref)[1] == 5
