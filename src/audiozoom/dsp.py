"""STFT analysis/synthesis and FFT convolution primitives shared by the toolkit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WINDOW_KINDS = ("hann", "sqrt_hann", "rect")


def make_window(kind: str, length: int) -> np.ndarray:
    """Periodic analysis window of the given length."""
    if kind == "rect":
        return np.ones(length)
    phase = 2.0 * np.pi * np.arange(length) / length
    hann = 0.5 - 0.5 * np.cos(phase)
    if kind == "hann":
        return hann
    if kind == "sqrt_hann":
        return np.sqrt(hann)
    raise ValueError(f"unknown window kind {kind!r}; expected one of {WINDOW_KINDS}")


@dataclass
class AudioBuffer:
    """Multi-channel waveform; samples shaped (channels, length), amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if samples.ndim != 2:
            raise ValueError("samples must be a 1-D or (channels, length) array")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be a positive integer")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite; found NaN or infinite values")
        self.samples = samples
        self.sample_rate = int(self.sample_rate)

    @property
    def channel_count(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.samples.shape[1] / self.sample_rate

    def channel(self, index: int) -> "AudioBuffer":
        """Single channel as a new mono buffer."""
        return AudioBuffer(self.samples[index], self.sample_rate)


@dataclass(frozen=True)
class StftParams:
    """Analysis grid: frame/hop in samples plus window kind.

    frame_length must be a power of two and hop_length must divide it; the
    istft contract additionally requires the window/hop pair to overlap-add
    to a strictly positive envelope (true for hann and sqrt_hann at 50% or
    75% overlap, and for rect at any hop).
    """

    frame_length: int = 512
    hop_length: int = 256
    window: str = "sqrt_hann"

    def __post_init__(self):
        frame, hop = self.frame_length, self.hop_length
        if frame <= 0 or frame & (frame - 1):
            raise ValueError("frame_length must be a positive power of two")
        if hop <= 0 or hop > frame or frame % hop:
            raise ValueError("hop_length must be positive and divide frame_length")
        if self.window not in WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.window!r}")

    @property
    def bin_count(self) -> int:
        return self.frame_length // 2 + 1


@dataclass
class Spectrogram:
    """One-sided complex STFT grid, coefficients shaped (bins, frames)."""

    coefficients: np.ndarray
    params: StftParams
    sample_rate: int

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.ndim != 2:
            raise ValueError("coefficients must be a 2-D (bins, frames) array")
        if coeffs.shape[0] != self.params.bin_count:
            raise ValueError(
                f"expected {self.params.bin_count} bins for frame_length "
                f"{self.params.frame_length}, got {coeffs.shape[0]}"
            )
        self.coefficients = coeffs
        self.sample_rate = int(self.sample_rate)

    @property
    def bin_count(self) -> int:
        return self.coefficients.shape[0]

    @property
    def frame_count(self) -> int:
        return self.coefficients.shape[1]

    def bin_frequencies(self) -> np.ndarray:
        """Center frequency of each bin in Hz."""
        return np.arange(self.bin_count) * self.sample_rate / self.params.frame_length

    def with_coefficients(self, coefficients: np.ndarray) -> "Spectrogram":
        """Same grid, new coefficients."""
        return Spectrogram(coefficients, self.params, self.sample_rate)


def _frame_starts(n_samples: int, frame: int, hop: int) -> np.ndarray:
    # Last frame is zero-padded so every input sample is analyzed.
    n_frames = 1 + -(-(n_samples - frame) // hop)
    return hop * np.arange(n_frames)


def stft(signal: AudioBuffer, params: StftParams = StftParams()) -> Spectrogram:
    """Windowed one-sided STFT of a mono buffer.

    Frame v covers samples [v*hop, v*hop + frame_length); the tail is
    zero-padded so the final partial frame is still analyzed.
    """
    if signal.channel_count != 1:
        raise ValueError("stft expects a single-channel buffer")
    x = signal.samples[0]
    frame, hop = params.frame_length, params.hop_length
    if x.size < frame:
        raise ValueError("insufficient samples: signal shorter than one frame")
    starts = _frame_starts(x.size, frame, hop)
    padded = np.zeros(starts[-1] + frame)
    padded[: x.size] = x
    frames = padded[starts[:, None] + np.arange(frame)]
    frames *= make_window(params.window, frame)
    return Spectrogram(np.fft.rfft(frames, axis=1).T, params, signal.sample_rate)


def _synthesis_envelope(window: np.ndarray, hop: int, n_frames: int) -> np.ndarray:
    frame = window.size
    env = np.zeros((n_frames - 1) * hop + frame)
    wsq = window * window
    for v in range(n_frames):
        env[v * hop : v * hop + frame] += wsq
    return env


def check_cola(params: StftParams) -> bool:
    """True when the window/hop pair supports exact overlap-add resynthesis."""
    window = make_window(params.window, params.frame_length)
    frame, hop = params.frame_length, params.hop_length
    # Interior envelope of a long run of frames; zeros anywhere break reconstruction.
    reps = 3 * frame // hop
    env = _synthesis_envelope(window, hop, reps)
    interior = env[frame : 2 * frame]
    return bool(interior.min() > 1e-10 * interior.max())


def istft(spec: Spectrogram, length: int | None = None) -> AudioBuffer:
    """Weighted overlap-add synthesis; inverse of stft on interior samples.

    Args:
        spec: one-sided STFT grid.
        length: optional crop of the output to this many samples.
    """
    params = spec.params
    if not check_cola(params):
        raise ValueError("window does not satisfy COLA")
    frame, hop = params.frame_length, params.hop_length
    window = make_window(params.window, frame)
    n_frames = spec.frame_count
    if n_frames == 0:
        out = np.zeros(0 if length is None else length)
        return AudioBuffer(out, spec.sample_rate)
    frames = np.fft.irfft(spec.coefficients.T, n=frame, axis=1)
    frames *= window
    out = np.zeros((n_frames - 1) * hop + frame)
    for v in range(n_frames):
        out[v * hop : v * hop + frame] += frames[v]
    env = _synthesis_envelope(window, hop, n_frames)
    live = env > 1e-12 * env.max()
    out[live] /= env[live]
    if length is not None:
        if length <= out.size:
            out = out[:length]
        else:
            out = np.concatenate([out, np.zeros(length - out.size)])
    return AudioBuffer(out, spec.sample_rate)


def fft_convolve(signal: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Full linear convolution via FFT, length len(signal) + len(kernel) - 1."""
    x = np.asarray(signal, dtype=np.float64)
    h = np.asarray(kernel, dtype=np.float64)
    if h.size == 0:
        raise ValueError("empty kernel")
    if x.size == 0:
        return np.zeros(0)
    n = x.size + h.size - 1
    nfft = 1 << (n - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(h, nfft), nfft)
    return out[:n]
