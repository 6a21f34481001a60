"""Griffiths-Jim beamformer for a broadside target.

The fixed path is the channel mean, the blocking path their difference (a
broadside target cancels exactly), and an adaptive filter estimates the
interference left in the fixed path from the blocking-path reference.
Output z = fixed - adapted estimate. The filter is constrained block LMS on
overlap-save frames (Shynk, IEEE SP Magazine 1992), computed in the time
domain per block: each block makes one correlation for its output and one
for its gradient. The frequency-domain step normalisation is
folded into per-block gradient kernels, all made before the loop in one
batched rfft and irfft.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blockthresh import SNR_CAP, variance_floor
from .dsp import AudioBuffer, Spectrogram

POWER_SMOOTHING = 0.9  # per-block forgetting factor of the normalizing power estimate
DIVERGENCE_LIMIT = 1e6  # largest tap magnitude before the run counts as diverged


@dataclass(frozen=True)
class GjbfConfig:
    """Adaptive-path configuration.

    block_size defaults to filter_length. The fixed path is delayed by
    filter_length // 2 (the delay property) so that the causal filter can
    model the interference path; the output is advanced back.
    normalized=True divides the step per frequency bin by the smoothed
    reference power; normalized=False freezes it (plain block LMS), which is
    the mode matched by the time-domain reference implementation.
    """

    filter_length: int = 250
    step_size: float = 0.05
    block_size: int | None = None
    leak: float = 0.0
    normalized: bool = True

    def __post_init__(self):
        if self.filter_length < 1:
            raise ValueError("filter_length must be >= 1")
        if not 0.0 < self.step_size < 2.0:
            raise ValueError("step_size must be in (0, 2)")
        if self.block_size is not None and self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not 0.0 <= self.leak <= 1.0:
            raise ValueError("leak must be in [0, 1]")

    @property
    def block(self) -> int:
        return self.filter_length if self.block_size is None else self.block_size

    @property
    def delay(self) -> int:
        return self.filter_length // 2


@dataclass
class AdaptiveFilterState:
    """A run's taps, (n_blocks + 1, L): row k is what block k filtered with, then
    the final taps; and the GjbfConfig the run used, which apply_gjbf replays."""

    trajectory: np.ndarray
    config: GjbfConfig

    @property
    def taps(self) -> np.ndarray:
        return self.trajectory[-1]


def _paired_mono(ch1: AudioBuffer, ch2: AudioBuffer) -> tuple:
    if ch1.channel_count != 1 or ch2.channel_count != 1:
        raise ValueError("expected single-channel buffers")
    if ch1.sample_rate != ch2.sample_rate:
        raise ValueError("sample rates must match")
    if ch1.length != ch2.length:
        raise ValueError("channel lengths must match")
    return ch1.samples[0], ch2.samples[0]


_OVERFLOW = "input level overflows the adaptive filter; scale the input down"


def _input_overflow(kind: str, flag: int) -> None:
    raise ValueError(_OVERFLOW)


def _overlap_save_frames(ch1: AudioBuffer, ch2: AudioBuffer, config: GjbfConfig) -> tuple:
    """(desired, frames, reference): the fixed path delayed and padded to whole
    blocks, each block's reference frame (rows of a strided view), the
    unpadded reference (a view of the same padded array)."""
    x1, x2 = _paired_mono(ch1, ch2)
    L, B, delay = config.filter_length, config.block, config.delay
    padded = -(-(x1.size + delay) // B) * B
    # L leading zeros: block k's overlap-save frame is ref_pad[k*B : k*B + L + B].
    ref_pad = np.zeros(L + padded)
    reference = np.subtract(x1, x2, out=ref_pad[L : L + x1.size])
    desired = np.zeros(padded)
    fixed = np.add(x1, x2, out=desired[delay : delay + x1.size])
    fixed *= 0.5
    return desired, sliding_window_view(ref_pad, L + B)[::B], reference


def _smooth_rows(power: np.ndarray) -> None:
    """power[k] += POWER_SMOOTHING * power[k - 1] for k = 1, 2, ..., in place.

    scipy.signal.lfilter gives the same bits faster, but it would bring SciPy
    back into the package, whose import costs ~1 s and ~54 MB RSS. The row
    views live only in this frame, so none outlives the caller's array.
    """
    scaled = np.empty(power.shape[1:])
    for previous, row in zip(power, power[1:]):
        np.multiply(previous, POWER_SMOOTHING, out=scaled)
        np.add(row, scaled, out=row)


def _gradient_kernels(frames: np.ndarray, reference: np.ndarray, config: GjbfConfig) -> np.ndarray:
    """Block k's gradient is its error correlated with row k (see _adapt).

    Unnormalised, the row is the reference frame itself. Normalised, it is
    irfft(S_k / d_k): the frame's spectrum S_k divided per bin by the
    smoothed block power d_k, all blocks in one batched rfft and irfft.
    """
    if not config.normalized:
        return frames
    nfft = frames.shape[1]
    spectra = np.fft.rfft(frames)
    power = np.abs(spectra)
    power *= power
    power[1:] *= 1.0 - POWER_SMOOTHING
    _smooth_rows(power)
    # Scale-invariant floor: keeps near-silent blocks (or bins) from blowing
    # up the normalized step while vanishing identically for a zero reference.
    power += 1e-4 * nfft * float(np.mean(reference**2))
    # Absolute: guards a zero reference and keeps very quiet input from overflowing the step.
    power += 1e-300
    spectra /= power
    del power
    return np.fft.irfft(spectra, nfft)


def _adapt(desired: np.ndarray, frames: np.ndarray, kernels: np.ndarray, config: GjbfConfig) -> tuple:
    """The block LMS loop: (estimate, trajectory) from each block's frame and gradient kernel.

    Overlap-save without transforms: block k's frame f and kernel h give
    output n = sum_j taps[j] f[L+n-j] and gradient lag j = sum_n e[n] h[L+n-j],
    and L+n-j stays in [1, L+B-1], so no index wraps around the frame and
    sample 0 is never read. The taps are kept last-first, so both are plain
    correlations, and each block writes its output, error and taps in place.
    """
    B, step, keep = config.block, config.step_size, 1.0 - config.leak
    trajectory = np.zeros((len(frames) + 1, config.filter_length))
    estimate = np.empty(desired.size)
    rtaps = np.zeros(config.filter_length)  # taps[::-1]
    error = np.empty(B)
    bound = DIVERGENCE_LIMIT**2
    blocks = zip(
        frames[:, 1:],
        kernels[:, 1:],
        desired.reshape(-1, B),
        estimate.reshape(-1, B),
        trajectory[1:, ::-1],  # reversed rows: rtaps lands in them first-to-last
    )
    # An overflow leaves the taps non-finite in the same block, which the exact test reports.
    with np.errstate(over="ignore"):
        for frame, kernel, wanted, block_out, row in blocks:
            block_out[:] = np.correlate(frame, rtaps, "valid")
            np.subtract(wanted, block_out, out=error)
            if config.leak:
                rtaps *= keep
            rtaps += step * np.correlate(kernel, error, "valid")
            # max|taps|^2 <= ||taps||^2: the exact test runs only when this one fails.
            if not rtaps.dot(rtaps) <= bound:
                peak = np.abs(rtaps).max()
                if not peak <= DIVERGENCE_LIMIT:  # also true for NaN taps
                    if not np.isfinite(peak):
                        raise ValueError(_OVERFLOW)
                    raise RuntimeError("step size too large")
            row[:] = rtaps
    return estimate, trajectory


# Only an out-of-range input level can overflow the filter; in-range runs are unaffected.
@np.errstate(over="call", call=_input_overflow)
def fdaf_gjbf(ch1: AudioBuffer, ch2: AudioBuffer, config: GjbfConfig = GjbfConfig()) -> tuple:
    """Run the adaptive beamformer over a two-channel recording.

    Returns (z, y_b, state): the enhanced output and the adapted
    interference estimate, both re-aligned to the input timebase, plus the
    taps every block ran with and the run's config. Raises ValueError when the input level
    overflows the filter's arithmetic and RuntimeError when the taps diverge.
    """
    desired, frames, reference = _overlap_save_frames(ch1, ch2, config)
    if reference.size <= 2 * config.filter_length:
        raise ValueError("signals must be longer than twice the filter length")
    # The kernels, as large as the reference spectra, are freed once the loop ends.
    estimate, trajectory = _adapt(desired, frames, _gradient_kernels(frames, reference, config), config)
    crop, rate = slice(config.delay, config.delay + ch1.length), ch1.sample_rate
    z = AudioBuffer((desired - estimate)[crop], rate)
    return z, AudioBuffer(estimate[crop], rate), AdaptiveFilterState(trajectory, config)


def apply_gjbf(ch1: AudioBuffer, ch2: AudioBuffer, state: AdaptiveFilterState) -> AudioBuffer:
    """Replay a run of fdaf_gjbf, with the config it ran with, on another
    channel pair of the same length: block k is filtered with the taps block
    k ran with, all blocks in one overlap-save pass. The map is exactly
    linear, and on the run's own input it gives the run's z to rounding.
    """
    config = state.config
    desired, frames, _ = _overlap_save_frames(ch1, ch2, config)
    L = config.filter_length
    if state.trajectory.shape != (len(frames) + 1, L):
        raise ValueError("filter state does not match the input length")
    nfft = L + config.block
    estimate = np.fft.irfft(np.fft.rfft(frames) * np.fft.rfft(state.trajectory[:-1], nfft), nfft)[:, L:]
    z = desired - estimate.ravel()
    return AudioBuffer(z[config.delay : config.delay + ch1.length], ch1.sample_rate)


def mean_sinr_db(z: Spectrogram, sigma2: np.ndarray) -> float:
    """Scalar SINR score: mean over valid cells of 10*log10(1 + SINR).

    A cell's SINR is (|Z|^2 - sigma^2) / sigma^2, clipped to [0, SNR_CAP].
    Cells whose variance sits at or below VARIANCE_FLOOR_FACTOR of the mean
    output power are not valid; with none valid the score is that of SNR_CAP.
    """
    with np.errstate(over="ignore"):  # variance_floor rejects an overflowed power
        power = np.abs(z.coefficients) ** 2
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if power.shape != sigma2.shape:
        raise ValueError("dimensions must match")
    if np.any(sigma2 < 0):
        raise ValueError("variance map must be nonnegative")
    valid = sigma2 > variance_floor(power)
    if not valid.any():
        return float(10.0 * np.log10(1.0 + SNR_CAP))
    ratio = np.clip((power[valid] - sigma2[valid]) / sigma2[valid], 0.0, SNR_CAP)
    return float(np.mean(10.0 * np.log10(1.0 + ratio)))


def _power_score_db(fixed_power: float, z: np.ndarray) -> float:
    """10*log10(fixed_power / ||z||^2): how far a run brought the output power
    below the fixed path's. Equal powers, silent input included, score 0;
    a zero power on one side only scores +-inf."""
    with np.errstate(over="ignore"):  # an overflowed power is rejected below
        power = float(np.dot(z, z))
    if not (np.isfinite(power) and np.isfinite(fixed_power)):
        raise ValueError("input level overflows the output power; scale the input down")
    if power == fixed_power:
        return 0.0
    with np.errstate(divide="ignore"):
        return float(10.0 * (np.log10(fixed_power) - np.log10(power)))


def sweep_lengths(candidates, shown=None) -> tuple:
    """The distinct candidate filter lengths of a sweep, in input order.

    Each must be an integer >= 1 (NumPy integers too, floats never), and at
    least two must differ; otherwise ValueError, quoting shown (by default
    the candidates).
    """
    candidates = tuple(candidates)
    shown = candidates if shown is None else shown
    if not candidates or not all(isinstance(c, (int, np.integer)) and c >= 1 for c in candidates):
        raise ValueError(f"expected comma-separated positive integers, got {shown!r}")
    lengths = tuple(dict.fromkeys(int(c) for c in candidates))
    if len(lengths) < 2:
        raise ValueError(f"need at least two candidate lengths that differ, got {shown!r}")
    return lengths


def select_filter_length(
    ch1: AudioBuffer,
    ch2: AudioBuffer,
    candidates,
    config: GjbfConfig = GjbfConfig(),
) -> tuple:
    """Sweep candidate filter lengths and keep the one with the least output power.

    The candidates must pass sweep_lengths, checked before any runs. Each
    distinct candidate runs in turn with config at its own length: the
    alignment follows the length, and so does the block unless
    config.block_size sets it. Each scores its output power against
    the fixed path's, in dB (higher is better), the quantity the adaptive
    path minimises. Returns (best_length, curve, z, state): curve
    lists (length, score_db) per candidate in input order, ties go to the
    smaller length, and z and state are the winning run's output and
    AdaptiveFilterState, as fdaf_gjbf returns them for that length.
    """
    candidates = sweep_lengths(candidates)

    x1, x2 = _paired_mono(ch1, ch2)
    with np.errstate(over="ignore"):  # each candidate rejects an overflowed power
        fixed = 0.5 * (x1 + x2)
        fixed_power = float(np.dot(fixed, fixed))
    del fixed

    winner = None  # ((-score, length), z, state) of the best run so far; the others are dropped

    def run(length: int) -> float:
        nonlocal winner
        trial = replace(config, filter_length=length)
        z, state = fdaf_gjbf(ch1, ch2, trial)[::2]
        score = _power_score_db(fixed_power, z.samples[0])
        if winner is None or (-score, length) < winner[0]:
            winner = (-score, length), z, state
        return score

    curve = []
    failures = []
    # One worker, in input order, so winner needs no lock; kept only for perfbench's tracer patch.
    with ThreadPoolExecutor(max_workers=1) as pool:
        futures = [pool.submit(run, length) for length in candidates]
        for length, future in zip(candidates, futures):
            try:
                curve.append((length, future.result()))
            except Exception as exc:  # noqa: BLE001 - per-candidate isolation
                failures.append((length, exc))
    if not curve:
        raise RuntimeError(f"all candidate lengths failed: {failures[0][1]}") from failures[0][1]
    for length, exc in failures:
        warnings.warn(f"filter length {length} skipped: {exc}", stacklevel=2)
    (_, best), z, state = winner
    return best, curve, z, state
