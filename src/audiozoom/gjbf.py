"""Griffiths-Jim beamformer for a broadside target.

Fixed path sums the channels, the blocking path differences them (a
broadside target cancels exactly), and a frequency-domain adaptive filter
(overlap-save block LMS) estimates the interference left in the fixed path
from the blocking-path reference. Output z = fixed - adapted estimate.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .blockthresh import SNR_CAP, residual_variance, variance_floor
from .dsp import AudioBuffer, Spectrogram, StftParams, stft

POWER_SMOOTHING = 0.9  # per-block forgetting factor of the normalizing power estimate
DIVERGENCE_LIMIT = 1e6  # largest tap magnitude before the run counts as diverged


@dataclass(frozen=True)
class GjbfConfig:
    """Adaptive-path configuration.

    block_size defaults to filter_length and alignment_delay to
    filter_length // 2 (fixed path is delayed by that much so the causal
    filter can model the interference path; the output is advanced back).
    normalized=False freezes the step size (plain block LMS), which is the
    mode matched by the time-domain reference implementation.
    """

    filter_length: int = 250
    step_size: float = 0.05
    block_size: int | None = None
    leak: float = 0.0
    alignment_delay: int | None = None
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
        if self.alignment_delay is not None and self.alignment_delay < 0:
            raise ValueError("alignment_delay must be nonnegative")

    @property
    def block(self) -> int:
        return self.filter_length if self.block_size is None else self.block_size

    @property
    def delay(self) -> int:
        return self.filter_length // 2 if self.alignment_delay is None else self.alignment_delay


@dataclass
class AdaptiveFilterState:
    """Adaptive filter snapshot: the final time-domain taps."""

    taps: np.ndarray


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


def fdaf_gjbf(ch1: AudioBuffer, ch2: AudioBuffer, config: GjbfConfig = GjbfConfig()) -> tuple:
    """Run the adaptive beamformer over a two-channel recording.

    Returns (z, y_b, state): the enhanced output and the adapted
    interference estimate, both re-aligned to the input timebase, plus the
    final filter state.
    """
    x1, x2 = _paired_mono(ch1, ch2)
    n_samples = x1.size
    L = config.filter_length
    if n_samples <= 2 * L:
        raise ValueError("signals must be longer than twice the filter length")
    B = config.block
    delay = config.delay
    nfft = L + B

    fixed = 0.5 * (x1 + x2)
    reference = x1 - x2

    total = n_samples + delay
    n_blocks = -(-total // B)
    padded = n_blocks * B
    # L leading zeros: block k's overlap-save frame is ref_pad[k*B : k*B + L + B].
    ref_pad = np.pad(reference, (L, padded - n_samples))
    desired = np.pad(fixed, (delay, padded - delay - n_samples))

    taps = np.zeros(L)
    power = np.zeros(nfft // 2 + 1)
    err_frame = np.zeros(nfft)
    estimate = np.zeros(padded)
    gamma = POWER_SMOOTHING
    # Scale-invariant floor: keeps near-silent blocks (or bins) from blowing
    # up the normalized step while vanishing identically for a zero reference.
    power_floor = 1e-4 * nfft * float(np.mean(reference**2))

    for k in range(n_blocks):
        spectrum = np.fft.rfft(ref_pad[k * B : k * B + nfft])
        # Overlap-save: only the last B output samples of the circular product are valid.
        block_out = np.fft.irfft(spectrum * np.fft.rfft(taps, nfft), nfft)[L:]
        estimate[k * B : (k + 1) * B] = block_out
        err_frame[L:] = desired[k * B : (k + 1) * B] - block_out

        grad = np.conj(spectrum) * np.fft.rfft(err_frame)
        if config.normalized:
            block_power = np.abs(spectrum) ** 2
            power = block_power if k == 0 else gamma * power + (1.0 - gamma) * block_power
            grad = grad / (power + power_floor + 1e-300)
        # Keeping the first L lags drops the circular-correlation wraparound.
        taps = (1.0 - config.leak) * taps + config.step_size * np.fft.irfft(grad, nfft)[:L]
        if not np.all(np.isfinite(taps)) or np.abs(taps).max() > DIVERGENCE_LIMIT:
            raise RuntimeError("step size too large")

    z = desired - estimate
    rate = ch1.sample_rate
    return (
        AudioBuffer(z[delay : delay + n_samples], rate),
        AudioBuffer(estimate[delay : delay + n_samples], rate),
        AdaptiveFilterState(taps),
    )


def _checked_power(z: Spectrogram | np.ndarray, sigma2: np.ndarray) -> tuple:
    coeffs = z.coefficients if isinstance(z, Spectrogram) else np.asarray(z)
    power = np.abs(coeffs) ** 2 if np.iscomplexobj(coeffs) else coeffs.astype(np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if power.shape != sigma2.shape:
        raise ValueError("dimensions must match")
    if np.any(sigma2 < 0):
        raise ValueError("variance map must be nonnegative")
    return power, sigma2, variance_floor(power)


def sinr_map(z: Spectrogram | np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Per-cell SINR estimate (|Z|^2 - sigma^2) / sigma^2, floored at 0.

    Cells whose variance sits below VARIANCE_FLOOR_FACTOR of the mean output
    power get the SNR_CAP sentinel; everything is clipped to [0, SNR_CAP].
    """
    power, sigma2, floor = _checked_power(z, sigma2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.clip((power - sigma2) / sigma2, 0.0, SNR_CAP)
    return np.where(sigma2 < floor, SNR_CAP, ratio)


def mean_sinr_db(z: Spectrogram, sigma2: np.ndarray) -> float:
    """Scalar SINR score: mean over valid cells of 10*log10(1 + SINR)."""
    power, sigma2, floor = _checked_power(z, sigma2)
    valid = sigma2 >= floor
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
        trial = replace(config, filter_length=length, block_size=None, alignment_delay=None)
        z, _, _ = fdaf_gjbf(ch1, ch2, trial)
        z_spec = stft(z, stft_params)
        sigma2 = residual_variance(y1, y2, z_spec)
        return mean_sinr_db(z_spec, sigma2)

    curve = []
    failures = []
    with ThreadPoolExecutor(max_workers=min(4, len(candidates))) as pool:
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
