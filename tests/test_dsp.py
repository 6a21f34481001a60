"""Tests for STFT analysis/synthesis and FFT convolution."""

import numpy as np
import pytest

from audiozoom.dsp import (
    AudioBuffer,
    Spectrogram,
    StftParams,
    check_cola,
    fft_convolve,
    istft,
    make_window,
    stft,
)


def _interior(a, b, margin):
    return a[margin:-margin], b[margin:-margin]


class TestParams:
    def test_defaults(self):
        params = StftParams()
        assert params.frame_length == 512
        assert params.hop_length == 256
        assert params.window == "sqrt_hann"
        assert params.bin_count == 257

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            StftParams(frame_length=500)

    def test_rejects_non_dividing_hop(self):
        with pytest.raises(ValueError, match="divide"):
            StftParams(frame_length=512, hop_length=300)

    def test_rejects_unknown_window(self):
        with pytest.raises(ValueError, match="window"):
            StftParams(window="hamming")


class TestStft:
    def test_zero_signal_gives_zero_spectrogram(self):
        spec = stft(AudioBuffer(np.zeros(4096), 16000))
        assert spec.coefficients.shape[0] == 257
        assert np.all(spec.coefficients == 0)

    def test_bin_centered_sinusoid_isolates_in_one_bin(self):
        # Phase wrapped per frame keeps the sinusoid exactly periodic.
        k, frame = 2, 512
        n = np.arange(16000)
        x = np.sin(2 * np.pi * k * (n % frame) / frame)
        spec = stft(AudioBuffer(x, 16000), StftParams(frame, 256, "rect"))
        mag = np.abs(spec.coefficients[:, 2:-2])  # skip partially filled edge frames
        peak = mag[k].min()
        leakage = np.delete(mag, k, axis=0).max()
        assert 20 * np.log10(leakage / peak) <= -300.0

    def test_parseval_against_direct_windowed_energy(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(8192)
        frame, hop = 512, 256
        params = StftParams(frame, hop, "hann")
        spec = stft(AudioBuffer(x, 16000), params)

        # Oracle: windowed per-frame energy computed directly in the time domain.
        window = make_window("hann", frame)
        padded = np.zeros((spec.frame_count - 1) * hop + frame)
        padded[: x.size] = x
        oracle = 0.0
        for v in range(spec.frame_count):
            seg = padded[v * hop : v * hop + frame] * window
            oracle += np.sum(seg**2)

        weights = np.full(spec.bin_count, 2.0)
        weights[0] = weights[-1] = 1.0  # DC and Nyquist appear once in the one-sided grid
        spectral = np.sum(weights[:, None] * np.abs(spec.coefficients) ** 2) / frame
        assert abs(spectral - oracle) <= 1e-9 * oracle

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            stft(AudioBuffer(np.zeros(100), 16000), StftParams(512, 256))

    def test_frame_indexing_covers_tail(self):
        x = np.ones(512 + 100)
        spec = stft(AudioBuffer(x, 16000), StftParams(512, 256, "rect"))
        # Frames at 0 and 256 exist; the one at 256 sees 356 ones + padding.
        assert spec.frame_count == 2
        assert spec.coefficients[0, 1].real == pytest.approx(356.0)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4096)
        y = rng.standard_normal(4096)
        params = StftParams()
        fs = 16000
        lhs = stft(AudioBuffer(2.0 * x - 0.5 * y, fs), params).coefficients
        rhs = (
            2.0 * stft(AudioBuffer(x, fs), params).coefficients
            - 0.5 * stft(AudioBuffer(y, fs), params).coefficients
        )
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_multichannel_rejected(self):
        with pytest.raises(ValueError, match="single-channel"):
            stft(AudioBuffer(np.zeros((2, 4096)), 16000))


class TestIstft:
    @pytest.mark.parametrize(
        "window,hop",
        [("sqrt_hann", 256), ("sqrt_hann", 128), ("hann", 256), ("hann", 128), ("rect", 256)],
    )
    def test_round_trip_interior(self, window, hop):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(16000)
        params = StftParams(512, hop, window)
        back = istft(stft(AudioBuffer(x, 16000), params), length=x.size)
        got, want = _interior(back.samples[0], x, 512)
        assert np.abs(got - want).max() <= 1e-9

    def test_speechlike_one_second_roundtrip(self):
        rng = np.random.default_rng(21)
        x = np.cumsum(rng.standard_normal(16000)) / 100.0
        params = StftParams(512, 256, "sqrt_hann")
        back = istft(stft(AudioBuffer(x, 16000), params), length=x.size)
        got, want = _interior(back.samples[0], x, 512)
        assert np.abs(got - want).max() <= 1e-10

    def test_zero_spectrogram_gives_zero_signal(self):
        params = StftParams()
        spec = Spectrogram(np.zeros((257, 8), dtype=complex), params, 16000)
        assert np.all(istft(spec).samples == 0)

    def test_linearity_of_synthesis(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8000)
        spec = stft(AudioBuffer(x, 16000))
        full = istft(spec).samples[0]
        half = istft(spec.with_coefficients(0.5 * spec.coefficients)).samples[0]
        assert np.abs(half - 0.5 * full).max() <= 1e-12

    def test_non_cola_pair_rejected(self):
        params = StftParams(512, 512, "hann")
        assert not check_cola(params)
        spec = Spectrogram(np.zeros((257, 4), dtype=complex), params, 16000)
        with pytest.raises(ValueError, match="COLA"):
            istft(spec)

    def test_rect_full_hop_is_cola(self):
        assert check_cola(StftParams(512, 512, "rect"))


class TestFftConvolve:
    def test_identity_kernel(self):
        x = np.arange(10.0)
        assert np.allclose(fft_convolve(x, [1.0]), x, atol=1e-12)

    def test_hand_computed(self):
        assert np.allclose(fft_convolve([1, 2], [3, 4]), [3.0, 10.0, 8.0], atol=1e-12)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(4096)
        h = rng.standard_normal(250)
        got = fft_convolve(x, h)
        want = np.convolve(x, h)  # direct O(N*L) oracle
        assert got.size == x.size + h.size - 1
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_empty_kernel_rejected(self):
        with pytest.raises(ValueError, match="empty kernel"):
            fft_convolve(np.ones(4), np.zeros(0))


class TestAudioBuffer:
    def test_mono_promotion(self):
        buf = AudioBuffer(np.zeros(10), 8000)
        assert buf.channel_count == 1
        assert buf.length == 10

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            AudioBuffer(np.zeros(10), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.zeros((2, 10))
        samples[0, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            AudioBuffer(samples, 8000)

    def test_channel_view(self):
        buf = AudioBuffer(np.arange(20.0).reshape(2, 10), 8000)
        assert buf.channel(1).samples[0, 0] == 10.0
