"""Griffiths-Jim beamformer for a broadside target.

Fixed path sums the channels, the blocking path differences them (a
broadside target cancels exactly), and a frequency-domain adaptive filter
(overlap-save block LMS) estimates the interference left in the fixed path
from the blocking-path reference. Output z = fixed - adapted estimate.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blockthresh import SNR_CAP, residual_variance, variance_floor
from .dsp import AudioBuffer, Spectrogram, StftParams, stft

POWER_SMOOTHING = 0.9  # per-block forgetting factor of the normalizing power estimate
DIVERGENCE_LIMIT = 1e6  # largest tap magnitude before the run counts as diverged


@dataclass(frozen=True)
class GjbfConfig:
    """Adaptive-path configuration.

    block_size defaults to filter_length. The fixed path is delayed by
    filter_length // 2 (the delay property) so that the causal filter can
    model the interference path; the output is advanced back.
    normalized=False freezes the step size (plain block LMS), which is the
    mode matched by the time-domain reference implementation.
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
    """Taps of a run, (n_blocks + 1, L): row k is what block k filtered with, then the final taps."""

    trajectory: np.ndarray

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


def fixed_path(ch1: AudioBuffer, ch2: AudioBuffer) -> AudioBuffer:
    """Target-preserving path: per-sample channel mean."""
    x1, x2 = _paired_mono(ch1, ch2)
    return AudioBuffer(0.5 * (x1 + x2), ch1.sample_rate)


def blocking_path(ch1: AudioBuffer, ch2: AudioBuffer) -> AudioBuffer:
    """Target-rejecting path: channel difference (zero for equal-delay arrivals)."""
    x1, x2 = _paired_mono(ch1, ch2)
    return AudioBuffer(x1 - x2, ch1.sample_rate)


def _input_overflow(kind: str, flag: int) -> None:
    raise ValueError("input level overflows the adaptive filter; scale the input down")


def _overlap_save_frames(ch1: AudioBuffer, ch2: AudioBuffer, config: GjbfConfig) -> tuple:
    """(desired, spectra, reference): the fixed path delayed and padded to whole
    blocks, the rfft of each block's reference frame, the unpadded reference."""
    x1, x2 = _paired_mono(ch1, ch2)
    L, B, delay = config.filter_length, config.block, config.delay
    padded = -(-(x1.size + delay) // B) * B
    reference = x1 - x2
    # L leading zeros: block k's overlap-save frame is ref_pad[k*B : k*B + L + B].
    ref_pad = np.pad(reference, (L, padded - x1.size))
    desired = np.pad(0.5 * (x1 + x2), (delay, padded - delay - x1.size))
    return desired, np.fft.rfft(sliding_window_view(ref_pad, L + B)[::B]), reference


# Only an out-of-range input level can overflow the filter; in-range runs are unaffected.
@np.errstate(over="call", call=_input_overflow)
def fdaf_gjbf(ch1: AudioBuffer, ch2: AudioBuffer, config: GjbfConfig = GjbfConfig()) -> tuple:
    """Run the adaptive beamformer over a two-channel recording.

    Returns (z, y_b, state): the enhanced output and the adapted
    interference estimate, both re-aligned to the input timebase, plus the
    taps every block ran with. Raises ValueError when the input level
    overflows the filter's arithmetic and RuntimeError when the taps diverge.
    """
    desired, spectra, reference = _overlap_save_frames(ch1, ch2, config)
    L = config.filter_length
    if reference.size <= 2 * L:
        raise ValueError("signals must be longer than twice the filter length")
    B = config.block
    nfft = L + B

    # Scale-invariant floor: keeps near-silent blocks (or bins) from blowing
    # up the normalized step while vanishing identically for a zero reference.
    power_floor = 1e-4 * nfft * float(np.mean(reference**2))
    # The reference spectra and their smoothed power do not depend on the
    # taps, so they are computed for every block before the adaptive loop.
    if config.normalized:
        denom = np.abs(spectra) ** 2
        denom[1:] *= 1.0 - POWER_SMOOTHING
        for k in range(1, len(denom)):
            denom[k] += POWER_SMOOTHING * denom[k - 1]
        denom += power_floor
        denom += 1e-300

    taps = np.zeros(L)
    trajectory = np.zeros((len(spectra) + 1, L))
    err_frame = np.zeros(nfft)
    estimate = np.zeros(desired.size)
    for k, spectrum in enumerate(spectra):
        block = slice(k * B, (k + 1) * B)
        # Overlap-save: only the last B output samples of the circular product are valid.
        block_out = np.fft.irfft(spectrum * np.fft.rfft(taps, nfft), nfft)[L:]
        estimate[block] = block_out
        np.subtract(desired[block], block_out, out=err_frame[L:])

        grad = np.conj(spectrum) * np.fft.rfft(err_frame)
        if config.normalized:
            grad /= denom[k]
        if config.leak:
            taps *= 1.0 - config.leak
        # Keeping the first L lags drops the circular-correlation wraparound.
        taps += config.step_size * np.fft.irfft(grad, nfft)[:L]
        if not np.abs(taps).max() <= DIVERGENCE_LIMIT:  # also true for NaN taps
            raise RuntimeError("step size too large")
        trajectory[k + 1] = taps

    z = desired - estimate
    crop, rate = slice(config.delay, config.delay + ch1.length), ch1.sample_rate
    return AudioBuffer(z[crop], rate), AudioBuffer(estimate[crop], rate), AdaptiveFilterState(trajectory)


def apply_gjbf(
    ch1: AudioBuffer, ch2: AudioBuffer, state: AdaptiveFilterState, config: GjbfConfig = GjbfConfig()
) -> AudioBuffer:
    """Replay a run of fdaf_gjbf, with the config it ran with, on another
    channel pair of the same length: block k is filtered with the taps block
    k ran with, all blocks in one overlap-save pass. The map is exactly
    linear, and on the run's own input it gives the run's z.
    """
    desired, spectra, _ = _overlap_save_frames(ch1, ch2, config)
    L = config.filter_length
    if state.trajectory.shape != (len(spectra) + 1, L):
        raise ValueError("filter state does not match the input length and config")
    nfft = L + config.block
    estimate = np.fft.irfft(spectra * np.fft.rfft(state.trajectory[:-1], nfft), nfft)[:, L:]
    z = desired - estimate.ravel()
    return AudioBuffer(z[config.delay : config.delay + ch1.length], ch1.sample_rate)


def mean_sinr_db(z: Spectrogram, sigma2: np.ndarray) -> float:
    """Scalar SINR score: mean over valid cells of 10*log10(1 + SINR).

    A cell's SINR is (|Z|^2 - sigma^2) / sigma^2, clipped to [0, SNR_CAP].
    Cells whose variance sits below VARIANCE_FLOOR_FACTOR of the mean output
    power are not valid; with none valid the score is that of SNR_CAP.
    """
    with np.errstate(over="ignore"):  # variance_floor rejects an overflowed power
        power = np.abs(z.coefficients) ** 2
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if power.shape != sigma2.shape:
        raise ValueError("dimensions must match")
    if np.any(sigma2 < 0):
        raise ValueError("variance map must be nonnegative")
    valid = sigma2 >= variance_floor(power)
    if not valid.any():
        return float(10.0 * np.log10(1.0 + SNR_CAP))
    ratio = np.clip((power[valid] - sigma2[valid]) / sigma2[valid], 0.0, SNR_CAP)
    return float(np.mean(10.0 * np.log10(1.0 + ratio)))


def select_filter_length(
    ch1: AudioBuffer,
    ch2: AudioBuffer,
    candidates,
    config: GjbfConfig = GjbfConfig(),
    stft_params: StftParams = StftParams(),
) -> tuple:
    """Sweep candidate filter lengths and keep the one with the best output SINR.

    Each candidate is run with block size and alignment derived from its own
    length; the score is mean_sinr_db of the output against the residual
    variance estimated from that output. Returns (best_length, curve) where
    curve lists (length, sinr_db) per candidate in input order; ties go to
    the smaller length.
    """
    candidates = [int(c) for c in candidates]
    if len(candidates) < 2:
        raise ValueError("need at least two candidate lengths")

    y1 = stft(ch1, stft_params)
    y2 = stft(ch2, stft_params)

    def run(length: int) -> float:
        trial = replace(config, filter_length=length, block_size=None)
        z, _, _ = fdaf_gjbf(ch1, ch2, trial)
        z_spec = stft(z, stft_params)
        sigma2 = residual_variance(y1, y2, z_spec)
        return mean_sinr_db(z_spec, sigma2)

    curve = []
    failures = []
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1, len(candidates))) as pool:
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
    best = min(curve, key=lambda item: (-item[1], item[0]))[0]
    return best, curve
