"""STFT analysis/synthesis and FFT convolution primitives shared by the toolkit."""

from __future__ import annotations

import contextlib
import copy
import functools
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

WINDOW_KINDS = ("hann", "sqrt_hann", "rect")
# Bytes of scratch that the spans of one pass over a spectrogram share (128
# default STFT frames): the STFT, the iSTFT and the per-cell passes stream
# through reused chunk buffers that stay in cache, and no grid-sized
# temporary is faulted in.
CHUNK_BYTES = 512 * 1024
# A whole-grid pass splits into one span of frames per usable CPU while every
# span keeps at least SPAN_MIN_FRAMES frames; shorter spans would cost more
# in thread start-up than they save.
SPAN_MIN_FRAMES = 192


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _spans(frames: int, size: int | None = None) -> list:
    """Contiguous (start, stop) spans of range(size), range(frames) by default.

    The spans number one per usable CPU, fewer when a span of a frames-long
    grid would hold under SPAN_MIN_FRAMES frames, and range(size) is cut at
    size * k // count. One span is the whole range.
    """
    size = frames if size is None else size
    count = max(1, min(_usable_cpus(), frames // SPAN_MIN_FRAMES, size))
    cuts = [size * k // count for k in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _run_spans(work, spans: list) -> None:
    """Run work(start, stop) for every span: the first on this thread, the rest
    on threads joined before returning.

    Each span runs under this thread's NumPy error state (np.errstate does not
    reach other threads). After every thread is joined, the first exception in
    span order is raised again.
    """
    if len(spans) == 1:
        work(*spans[0])
        return
    state, call = np.geterr(), np.geterrcall()
    errors = [None] * len(spans)

    def run(index):
        try:
            with np.errstate(call=call, **state):
                work(*spans[index])
        except BaseException as exc:  # noqa: BLE001 - raised again on the calling thread
            errors[index] = exc

    threads = []
    try:
        for index in range(1, len(spans)):
            thread = threading.Thread(target=run, args=(index,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _chunk_frames(spans: int, frame_bytes: int) -> int:
    """Frames per chunk of a pass whose scratch takes frame_bytes per frame in
    each of its spans: ceil(CHUNK_BYTES / (spans * frame_bytes)), so the spans
    together hold about CHUNK_BYTES whatever the CPU count. A pass without
    scratch takes each span in one chunk.
    """
    return -(-CHUNK_BYTES // (spans * frame_bytes)) if frame_bytes else sys.maxsize


def _each_chunk(frames: int, body, *scratch, lead: int = 0) -> None:
    """Run body(span, start, stop, *buffers) on every chunk of range(frames).

    Each of the _spans walks its chunks in order: first the `lead` frames before
    it (none before 0), then its own. Chunks hold _chunk_frames frames, from
    the scratch's bytes per frame (each factory called once for one frame); a
    body's result must not depend on the chunking. Each scratch factory makes a
    span's buffer, frames first, for its largest chunk, once per span and on
    this thread (the C allocator keeps what a span thread allocates resident in
    that thread's arena); the body gets each buffer's first stop - start frames.
    A body makes no ufunc call with a broadcast or strided multi-dimensional
    operand outside _small_ufunc_buffers: NumPy iterates such a call through
    buffers of up to 64 KiB, per span and per call.
    """
    spans = _spans(frames)
    step = _chunk_frames(len(spans), sum(make(1).nbytes for make in scratch))
    starts = {first: max(first - lead, 0) for first, _ in spans}
    buffers = {
        first: [make(min(step, last - starts[first])) for make in scratch] for first, last in spans
    }

    def walk(first, last):
        cuts = [*range(starts[first], first, step), *range(first, last, step), last]
        for start, stop in zip(cuts, cuts[1:]):
            body((first, last), start, stop, *[b[: stop - start] for b in buffers[first]])

    _run_spans(walk, spans)


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


def _sample_rate(rate) -> int:
    # The rate as an int; rejects a rate that is not finite, integral and positive.
    if not (np.isfinite(rate) and rate > 0 and float(rate).is_integer()):
        raise ValueError("sample_rate must be a positive integer")
    return int(rate)


@dataclass
class AudioBuffer:
    """Multi-channel waveform; samples shaped (channels, length), amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if samples.ndim != 2:
            raise ValueError("samples must be a 1-D or (channels, length) array")
        rate = _sample_rate(self.sample_rate)
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite; found NaN or infinite values")
        self.samples = samples
        self.sample_rate = rate

    @property
    def channel_count(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]

    def channel(self, index: int) -> "AudioBuffer":
        """Single channel as a mono buffer that shares this buffer's samples.

        The samples were checked when this buffer was made, so the view is not
        scanned again.
        """
        mono = copy.copy(self)
        mono.samples = self.samples[index, None]
        return mono


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
        self.sample_rate = _sample_rate(self.sample_rate)

    @property
    def bin_count(self) -> int:
        return self.coefficients.shape[0]

    @property
    def frame_count(self) -> int:
        return self.coefficients.shape[1]

    def with_coefficients(self, coefficients: np.ndarray) -> "Spectrogram":
        """Same grid, new coefficients."""
        return Spectrogram(coefficients, self.params, self.sample_rate)


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
    # Last frame is zero-padded so every input sample is analyzed; it is the
    # only frame that runs past the signal.
    n_frames = 1 + -(-(x.size - frame) // hop)
    inside = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]
    window = make_window(params.window, frame)
    # Each chunk's rfft writes its rows of the (frames, bins) result, returned transposed.
    coeffs = np.empty((n_frames, params.bin_count), dtype=np.complex128)

    def transform(span, start, stop, block):
        whole = inside[start:stop]
        np.einsum("ij,j->ij", whole, window, out=block[: len(whole)])
        if len(whole) < len(block):
            rest = x[(n_frames - 1) * hop :]
            block[-1] = 0.0
            np.multiply(rest, window[: rest.size], out=block[-1, : rest.size])
        np.fft.rfft(block, axis=1, out=coeffs[start:stop])

    _each_chunk(n_frames, transform, lambda n: np.empty((n, frame)))
    return Spectrogram(coeffs.T, params, signal.sample_rate)


@contextlib.contextmanager
def _small_ufunc_buffers():
    # NumPy iterates a ufunc call with a broadcast or a strided multi-dimensional
    # operand through buffers of up to 64 KiB, per call and per thread; under
    # this context they hold 256 values (2 KiB). The results are the same: the
    # buffers only batch the loop.
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(256)
        yield


def _overlap_add(frames: np.ndarray, out: np.ndarray, first: int = 0) -> None:
    # Adds (n, frame) rows placed hop apart, the first at row `first` of out
    # (shaped (rows, hop); first may be negative), as frame // hop strided adds
    # of hop-wide slices. Parts outside out are dropped, and each output sample
    # collects its frames in frame order.
    n_frames, frame = frames.shape
    rows, hop = out.shape
    pieces = frames.reshape(n_frames, frame // hop, hop)
    for r in reversed(range(frame // hop)):
        lo, hi = max(first + r, 0), min(first + r + n_frames, rows)
        if lo < hi:
            out[lo:hi] += pieces[lo - first - r : hi - first - r, r]


def _synthesis_envelope(window: np.ndarray, hop: int, n_frames: int) -> np.ndarray:
    wsq = window * window
    env = np.zeros((n_frames + wsq.size // hop - 1, hop))
    _overlap_add(np.broadcast_to(wsq, (n_frames, wsq.size)), env)
    return env.reshape(-1)


@functools.cache
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
        length: optional output length, >= 0; the output is cropped or zero-padded to it.
    """
    params = spec.params
    if length is not None and length < 0:
        raise ValueError("length must be nonnegative")
    if not check_cola(params):
        raise ValueError("window does not satisfy COLA")
    frame, hop = params.frame_length, params.hop_length
    window = make_window(params.window, frame)
    n_frames = spec.frame_count
    if n_frames == 0:
        out = np.zeros(0 if length is None else length)
        return AudioBuffer(out, spec.sample_rate)
    parts = frame // hop
    out = np.zeros((n_frames + parts - 1, hop))
    coeffs = spec.coefficients.T

    def synthesize(span, start, stop, block):
        # A span owns output rows first..last-1 (the last span, the rest too).
        # The parts - 1 frames before first reach them as well, so it transforms
        # those itself: every row sums its frames in frame order, as in one span.
        first, last = span
        np.fft.irfft(coeffs[start:stop], n=frame, axis=1, out=block)
        with _small_ufunc_buffers():  # a broadcast window row, then strided slices
            block *= window
            _overlap_add(block, out[first : last if last < n_frames else None], start - first)

    _each_chunk(n_frames, synthesize, lambda n: np.empty((n, frame)), lead=parts - 1)
    # Between its first and last parts-1 rows the envelope repeats one row, so
    # the envelope of min(n_frames, parts) frames holds each distinct row once:
    # the head rows, the interior row and the tail rows.
    head = min(n_frames, parts)
    env = _synthesis_envelope(window, hop, head).reshape(-1, hop)
    live = env > 1e-12 * env.max()
    with _small_ufunc_buffers():  # the interior row and its mask are broadcast
        for rows, env_rows in (
            (slice(0, head - 1), slice(0, head - 1)),
            (slice(head - 1, n_frames), head - 1),
            (slice(n_frames, None), slice(head, None)),
        ):
            np.divide(out[rows], env[env_rows], out=out[rows], where=live[env_rows])
    out = out.reshape(-1)
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
    nfft = fast_fft_length(n)
    out = np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(h, nfft), nfft)
    return out[:n]


def fast_fft_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, a length NumPy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:
            # The least power of two that lifts 3**b * 5**c to at least n.
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best
