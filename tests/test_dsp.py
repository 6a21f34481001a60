"""Tests for STFT analysis/synthesis and FFT convolution."""

import tracemalloc

import numpy as np
import pytest
from helpers import istft_reference, usable_cpus

from audiozoom import dsp
from audiozoom.dsp import (
    AudioBuffer,
    Spectrogram,
    StftParams,
    check_cola,
    fast_fft_length,
    fft_convolve,
    istft,
    make_window,
    stft,
)


def _interior(a, b, margin):
    return a[margin:-margin], b[margin:-margin]


def _size_for_frames(frame, hop, frames, tail):
    # Samples that make exactly `frames` frames; with a tail the last frame
    # misses half a hop and is zero-padded. Frames given as (chunks, offset)
    # count chunks of a one-span stft or istft pass (8 bytes of scratch per
    # sample of a frame).
    if isinstance(frames, tuple):
        chunks, offset = frames
        frames = chunks * dsp._chunk_frames(1, 8 * frame) + offset
    size = (frames - 1) * hop + frame - (hop // 2 if tail else 0)
    assert 1 + -(-(size - frame) // hop) == frames
    return size


# Sizes whose frame counts sit on both sides of the 64-frame span unit and of
# one and two chunks of the params' frame length, as (frames, whether the last
# frame is zero-padded).
CHUNK_EDGE_SIZES = [
    pytest.param((frames, tail), id=f"{name}" + ("+tail" if tail else ""))
    for frames, name in [
        *[(n, f"{n}frames") for n in (63, 64, 65, 129)],
        ((1, -1), "1chunk-1"),
        ((1, 0), "1chunk"),
        ((1, 1), "1chunk+1"),
        ((2, 1), "2chunks+1"),
    ]
    for tail in (False, True)
]


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


ISTFT_CONFIGS = [
    (512, 256, "sqrt_hann"),
    (512, 128, "hann"),
    (256, 256, "rect"),
    (64, 16, "sqrt_hann"),
    (512, 512, "rect"),
]


class TestIstftMatchesReference:
    @pytest.mark.parametrize("frame, hop, window", ISTFT_CONFIGS)
    @pytest.mark.parametrize("size", ["frame", "frame+1", "3frame+7", "16000", *CHUNK_EDGE_SIZES])
    def test_bit_identical(self, frame, hop, window, size):
        if isinstance(size, tuple):
            n = _size_for_frames(frame, hop, *size)
        else:
            n = {"frame": frame, "frame+1": frame + 1, "3frame+7": 3 * frame + 7, "16000": 16000}[size]
        x = np.random.default_rng(n + frame + hop).standard_normal(n)
        spec = stft(AudioBuffer(x, 16000), StftParams(frame, hop, window))
        assert np.array_equal(istft(spec).samples, istft_reference(spec).samples)

    def test_peak_memory_in_output_sizes(self):
        # tracemalloc peak over the output's bytes, 10 s at the default STFT
        # (624 frames), at 1, 2 and 3 spans. The whole-grid irfft frame stack and
        # envelope read 4.13. The chunk buffers read 1.42-1.43: the output,
        # CHUNK_BYTES of scratch, and no 64 KiB ufunc buffer per span.
        x = np.random.default_rng(4).standard_normal(160000)
        spec = stft(AudioBuffer(x, 16000))
        istft(spec, length=x.size)  # first-call caches are not the call's memory
        for count in (1, 2, 3):
            with usable_cpus(count):
                tracemalloc.start()
                try:
                    out = istft(spec, length=x.size)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= 1.5 * out.samples.nbytes, count

    def test_ufunc_buffer_size_is_restored(self):
        # istft shrinks NumPy's ufunc buffers inside its chunk bodies only.
        spec = stft(AudioBuffer(np.random.default_rng(6).standard_normal(8000), 16000))
        before = np.getbufsize()
        istft(spec)
        assert np.getbufsize() == before

    @pytest.mark.parametrize("frame, hop, window", ISTFT_CONFIGS)
    @pytest.mark.parametrize("delta", [-5, 100])
    def test_length_crop_and_pad(self, frame, hop, window, delta):
        x = np.random.default_rng(frame + hop).standard_normal(3 * frame + 7)
        spec = stft(AudioBuffer(x, 16000), StftParams(frame, hop, window))
        got = istft(spec, length=x.size + delta).samples
        assert got.shape == (1, x.size + delta)
        assert np.array_equal(got, istft_reference(spec, length=x.size + delta).samples)

    def test_negative_length_rejected(self):
        # Slicing would take it as a crop from the end: out[:-5].
        spec = stft(AudioBuffer(np.random.default_rng(5).standard_normal(4000), 16000))
        with pytest.raises(ValueError, match="length must be nonnegative"):
            istft(spec, length=-5)
        assert istft(spec, length=0).length == 0


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


class TestStftMatchesGather:
    @pytest.mark.parametrize(
        "params", [StftParams(), StftParams(256, 64, "hann"), StftParams(64, 64, "rect")]
    )
    @pytest.mark.parametrize("size", [512, 4001, 16000, *CHUNK_EDGE_SIZES])
    def test_bit_identical(self, params, size):
        # Oracle: index-array gather of every frame from the zero-padded signal.
        frame, hop = params.frame_length, params.hop_length
        if isinstance(size, tuple):
            size = _size_for_frames(frame, hop, *size)
        x = np.random.default_rng(size).standard_normal(size)
        starts = hop * np.arange(1 + -(-(size - frame) // hop))
        padded = np.zeros(starts[-1] + frame)
        padded[:size] = x
        frames = padded[starts[:, None] + np.arange(frame)]
        frames *= make_window(params.window, frame)
        want = np.fft.rfft(frames, axis=1).T
        got = stft(AudioBuffer(x, 16000), params).coefficients
        assert got.flags.f_contiguous
        assert np.array_equal(got, want)

    def test_peak_memory_in_output_sizes(self):
        # tracemalloc peak over the output's bytes, 10 s at the default STFT
        # (624 frames), at 1, 2 and 3 spans. The zero-padded copy and the
        # windowed frame stack read 2.50; the chunk buffers read 1.21.
        signal = AudioBuffer(np.random.default_rng(3).standard_normal(160000), 16000)
        stft(signal)
        for count in (1, 2, 3):
            with usable_cpus(count):
                tracemalloc.start()
                try:
                    spec = stft(signal)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= 1.3 * spec.coefficients.nbytes, count


class TestFastFftLength:
    def test_minimal_five_smooth_length(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        want = []
        m = 1
        for n in range(1, 10_001):
            while not smooth(m) or m < n:
                m += 1
            want.append(m)
        assert [fast_fft_length(n) for n in range(1, 10_001)] == want

    def test_two_second_echo_scene_size(self):
        assert fast_fft_length(32000 + 1295 - 1) == 33750

    def test_matches_direct_convolution_on_random_lengths(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            x = rng.standard_normal(int(rng.integers(1, 3000)))
            h = rng.standard_normal(int(rng.choice([1, rng.integers(1, 400)])))
            want = np.convolve(x, h)
            got = fft_convolve(x, h)
            assert got.size == want.size
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_tap_kernel(self):
        x = np.random.default_rng(22).standard_normal(1001)
        got = fft_convolve(x, [-2.5])
        assert np.abs(got - (-2.5 * x)).max() <= 1e-12 * np.abs(2.5 * x).max()


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

    @pytest.mark.parametrize("index, row", [(0, 0), (1, 1), (-1, 1), (-2, 0)])
    def test_channel_shares_the_parents_samples(self, index, row):
        buf = AudioBuffer(np.arange(20.0).reshape(2, 10), 8000)
        mono = buf.channel(index)
        assert isinstance(mono, AudioBuffer) and mono.sample_rate == 8000
        assert mono.samples.shape == (1, 10) and mono.samples.dtype == np.float64
        assert np.shares_memory(mono.samples, buf.samples)
        assert np.array_equal(mono.samples[0], buf.samples[row])
        assert mono.channel_count == 1 and mono.length == 10

    @pytest.mark.parametrize("index", [2, -3])
    def test_channel_out_of_range(self, index):
        with pytest.raises(IndexError):
            AudioBuffer(np.zeros((2, 10)), 8000).channel(index)


SAMPLE_RATE_HOLDERS = {
    "AudioBuffer": lambda rate: AudioBuffer(np.zeros(10), rate),
    "Spectrogram": lambda rate: Spectrogram(np.zeros((257, 3), dtype=complex), StftParams(), rate),
}


class TestSampleRate:
    @pytest.mark.parametrize("rate", [16000.5, 0, -5, np.inf, np.nan])
    @pytest.mark.parametrize("holder", SAMPLE_RATE_HOLDERS)
    def test_rate_that_is_not_a_positive_integer_rejected(self, holder, rate):
        with pytest.raises(ValueError, match="sample_rate must be a positive integer"):
            SAMPLE_RATE_HOLDERS[holder](rate)

    @pytest.mark.parametrize("rate, want", [(16000.0, 16000), (np.int64(8000), 8000)])
    @pytest.mark.parametrize("holder", SAMPLE_RATE_HOLDERS)
    def test_integral_rate_accepted_as_int(self, holder, rate, want):
        got = SAMPLE_RATE_HOLDERS[holder](rate).sample_rate
        assert got == want and type(got) is int
