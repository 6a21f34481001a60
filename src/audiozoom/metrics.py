"""Objective evaluation against ground-truth images: output SINR and MSE.

Linear stages are decomposed by re-running them (frozen) on each image;
the nonlinear post-filter in shadow-gain fashion, by reapplying the gains
computed on the mixture to a component.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .dsp import AudioBuffer, Spectrogram, fast_fft_length

DB_CAP = 200.0
MAX_SHIFT = 512  # default alignment search range, in samples, each way


def _values(x) -> np.ndarray:
    if isinstance(x, AudioBuffer):
        return x.samples
    if isinstance(x, Spectrogram):
        return x.coefficients
    return np.asarray(x)


def signal_power(x) -> float:
    """Total squared magnitude over all samples/coefficients."""
    values = _values(x)
    return float(np.sum(np.abs(values) ** 2))


def osinr_db(target, residual) -> float:
    """10*log10 of target power over residual power, clipped to +/-DB_CAP dB."""
    p_target = signal_power(target)
    p_residual = signal_power(residual)
    if p_residual == 0.0 and p_target == 0.0:
        return 0.0
    if p_residual == 0.0:
        return DB_CAP
    if p_target == 0.0:
        return -DB_CAP
    return float(np.clip(10.0 * np.log10(p_target / p_residual), -DB_CAP, DB_CAP))


def align_delay_and_scale(estimate: np.ndarray, reference: np.ndarray, max_shift: int = MAX_SHIFT):
    """Best integer delay (cross-correlation peak) and least-squares gain.

    Returns (aligned_estimate, shift, gain) with aligned_estimate[n] =
    gain * estimate[n + shift], zero-padded outside the overlap; the gain is
    fit over the overlap region only.
    """
    if max_shift < 0:
        raise ValueError("max_shift must be nonnegative")
    estimate = np.asarray(estimate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    n = min(estimate.size, reference.size)
    estimate, reference = estimate[:n], reference[:n]
    max_shift = min(max_shift, n - 1)  # the pair overlaps only at |lag| < n
    # corr[k] = sum ref[i] * est[i+k]; a circular correlation of length
    # size >= n + max_shift does not wrap at |k| <= max_shift, and a negative
    # lag k reads corr[size + k]. Only its peak lag counts, so both enter at an
    # exact power-of-two scale near 1, where no product over- or underflows.
    size = fast_fft_length(n + max_shift)
    ref, est = (np.ldexp(x, -np.frexp(np.abs(x).max(initial=0.0))[1]) for x in (reference, estimate))
    corr = np.fft.irfft(np.conj(np.fft.rfft(ref, size)) * np.fft.rfft(est, size), size)
    lags = np.arange(-max_shift, max_shift + 1)
    shift = int(lags[np.argmax(np.abs(corr[lags]))])
    lo, hi = _overlap(n, shift)
    aligned = np.zeros(n)
    aligned[lo:hi] = estimate[lo + shift : hi + shift]
    seg = aligned[lo:hi]
    denom = float(seg @ seg)
    gain = float(reference[lo:hi] @ seg) / denom if denom > 0 else 0.0
    return gain * aligned, shift, gain


def _overlap(n: int, shift: int) -> tuple:
    return max(0, -shift), min(n, n - shift)


def mse_db(estimate: AudioBuffer, reference: AudioBuffer, max_shift: int = MAX_SHIFT) -> float:
    """Normalized error power in dB after global delay-and-scale alignment.

    Scored over the overlap region of the aligned pair, so a pure delay
    within the search range costs nothing.
    """
    est = _values(estimate).ravel()
    ref = _values(reference).ravel()
    ref_power = float(ref @ ref)
    if ref_power == 0.0:
        raise ValueError("reference signal is silent")
    aligned, shift, _ = align_delay_and_scale(est, ref, max_shift)
    lo, hi = _overlap(aligned.size, shift)
    ref_seg = ref[lo:hi]
    seg_power = float(ref_seg @ ref_seg)
    if seg_power == 0.0:
        raise ValueError("reference signal is silent over the aligned range")
    err = float(np.sum((aligned[lo:hi] - ref_seg) ** 2))
    if err == 0.0:
        return -DB_CAP
    return float(np.clip(10.0 * np.log10(err / seg_power), -DB_CAP, DB_CAP))


def stage_scores(output, target, reference, max_shift: int = MAX_SHIFT) -> tuple:
    """(OSINR, MSE) of a stage's output in dB: target is the target's share of
    output, the residual is output minus that share, and the MSE is mse_db's."""
    residual = _values(output).ravel() - _values(target).ravel()
    return osinr_db(target, residual), mse_db(output, reference, max_shift)


SUPERPOSITION_RTOL = 1e-6  # relative gap allowed where two parts must sum to a whole


def decompose_linear(
    stage, target_image, residual_image, mixture_output, rtol: float = SUPERPOSITION_RTOL
):
    """Run a frozen linear stage on each ground-truth image.

    Superposition is verified: stage(target) + stage(residual) must match
    the stage's mixture output within rtol (relative), otherwise the stage
    is not the frozen linear map it claims to be.
    """
    target_out = stage(target_image)
    residual_out = stage(residual_image)
    total = _values(target_out) + _values(residual_out)
    mix = _values(mixture_output)
    scale = float(np.linalg.norm(mix))
    gap = float(np.linalg.norm(total - mix))
    if gap > rtol * scale:
        raise RuntimeError(
            f"stage is not frozen/linear: superposition residual {gap:.3e} vs norm {scale:.3e}"
        )
    return target_out, residual_out


def shadow_gain_decompose(gains: np.ndarray, target_spec: Spectrogram, residual_spec: Spectrogram):
    """Apply the mixture-derived gain map to each component spectrogram."""
    gains = np.asarray(gains, dtype=np.float64)
    if np.any(gains < 0) or np.any(gains > 1.0 + 1e-12):
        raise ValueError("gains must lie in [0, 1]")
    if gains.shape != target_spec.coefficients.shape or gains.shape != residual_spec.coefficients.shape:
        raise ValueError("gain map dimensions must match the spectrograms")
    return (
        target_spec.with_coefficients(gains * target_spec.coefficients),
        residual_spec.with_coefficients(gains * residual_spec.coefficients),
    )


@dataclass
class EvalReport:
    """Objective scores for one enhanced signal against its scene images."""

    input_sinr_db: float
    osinr_db: float
    sinr_gain_db: float = field(init=False)  # osinr_db - input_sinr_db
    mse_db: float
    osinr_beamformer_db: float = float("nan")
    mse_beamformer_db: float = float("nan")

    def __post_init__(self):
        self.sinr_gain_db = self.osinr_db - self.input_sinr_db

    @staticmethod
    def csv_header() -> str:
        return ",".join(f.name for f in fields(EvalReport))

    def to_csv_row(self) -> str:
        return ",".join(f"{getattr(self, f.name):.6f}" for f in fields(EvalReport))

    def format_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name):.3f} dB" for f in fields(EvalReport)]
        return "\n".join(lines)

