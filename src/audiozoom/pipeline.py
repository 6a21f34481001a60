"""End-to-end composition: beamform the two channels, then block-threshold.

Also builds the frozen-stage and shadow-gain decompositions used to score a
run against ground-truth images.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .blockthresh import BlockGrid, BlockThresholdParams, block_threshold_gains, residual_variance
from .dsp import AudioBuffer, Spectrogram, StftParams, fft_convolve, istft, stft
from .gjbf import GjbfConfig, fdaf_gjbf, select_filter_length
from .metrics import (
    build_report,
    decompose_linear,
    mse_db,
    osinr_db,
    shadow_gain_decompose,
)
from .mpdr import MpdrWeights, apply_mpdr, design_mpdr

BEAMFORMERS = ("mpdr", "gjbf")
DEFAULT_SWEEP_LENGTHS = (50, 100, 150, 200, 250, 300)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to reproduce one zoom run."""

    beamformer: str = "mpdr"
    stft: StftParams = field(default_factory=StftParams)
    mpdr_alpha: float | None = None  # None = per-bin scaled loading
    gjbf: GjbfConfig = field(default_factory=GjbfConfig)
    gjbf_auto_lengths: tuple | None = None  # when set, sweep and pick before running
    bt: BlockThresholdParams = field(default_factory=BlockThresholdParams)
    bt_enabled: bool = True

    def __post_init__(self):
        if self.beamformer not in BEAMFORMERS:
            raise ValueError(f"beamformer must be one of {BEAMFORMERS}")


@dataclass
class ZoomResult:
    """Outputs and intermediates of one pipeline run (output is not level-normalized)."""

    output: AudioBuffer
    beamformed: AudioBuffer
    beamformed_spec: Spectrogram
    postfilter_spec: Spectrogram | None
    sigma2: np.ndarray
    block_grid: BlockGrid | None
    mpdr_weights: MpdrWeights | None
    gjbf_taps: np.ndarray | None
    gjbf_config_used: GjbfConfig | None
    sweep_curve: list | None
    config: PipelineConfig


def _split_channels(mixture: AudioBuffer) -> tuple:
    if mixture.channel_count != 2:
        raise ValueError("two channels required")
    return mixture.channel(0), mixture.channel(1)


def run_zoom(mixture: AudioBuffer, config: PipelineConfig = PipelineConfig()) -> ZoomResult:
    """Run the selected beamformer and (optionally) the post-filter."""
    ch1, ch2 = _split_channels(mixture)
    y1 = stft(ch1, config.stft)
    y2 = stft(ch2, config.stft)

    weights = None
    taps = None
    gjbf_used = None
    curve = None
    if config.beamformer == "mpdr":
        weights = design_mpdr(y1, y2, alpha=config.mpdr_alpha)
        z_spec = apply_mpdr(y1, y2, weights)
        beamformed = istft(z_spec, length=mixture.length)
    else:
        gjbf_used = config.gjbf
        if config.gjbf_auto_lengths:
            best, curve = select_filter_length(
                ch1, ch2, config.gjbf_auto_lengths, gjbf_used, config.stft
            )
            gjbf_used = replace(
                gjbf_used, filter_length=best, block_size=None, alignment_delay=None
            )
        beamformed, _, state = fdaf_gjbf(ch1, ch2, gjbf_used)
        taps = state.taps
        z_spec = stft(beamformed, config.stft)

    sigma2 = residual_variance(y1, y2, z_spec)

    block_grid = None
    postfilter_spec = None
    output = beamformed
    if config.bt_enabled:
        block_grid = block_threshold_gains(z_spec, sigma2, config.bt)
        postfilter_spec = z_spec.with_coefficients(z_spec.coefficients * block_grid.gains)
        output = istft(postfilter_spec, length=mixture.length)

    return ZoomResult(
        output=output,
        beamformed=beamformed,
        beamformed_spec=z_spec,
        postfilter_spec=postfilter_spec,
        sigma2=sigma2,
        block_grid=block_grid,
        mpdr_weights=weights,
        gjbf_taps=taps,
        gjbf_config_used=gjbf_used,
        sweep_curve=curve,
        config=config,
    )


def frozen_stage(result: ZoomResult):
    """Linear map equivalent to the run's beamformer with its parameters frozen.

    Maps a 2-channel AudioBuffer to the mono beamformed AudioBuffer; exactly
    linear, so it can decompose ground-truth images.
    """
    config = result.config
    if config.beamformer == "mpdr":
        weights = result.mpdr_weights

        def stage(buffer: AudioBuffer) -> AudioBuffer:
            a, b = _split_channels(buffer)
            spec = apply_mpdr(stft(a, config.stft), stft(b, config.stft), weights)
            return istft(spec, length=buffer.length)

        return stage

    taps = result.gjbf_taps
    delay = result.gjbf_config_used.delay

    def stage(buffer: AudioBuffer) -> AudioBuffer:
        a, b = _split_channels(buffer)
        fixed = 0.5 * (a.samples[0] + b.samples[0])
        reference = a.samples[0] - b.samples[0]
        conv = fft_convolve(reference, taps)
        estimate = conv[delay : delay + buffer.length]
        if estimate.size < buffer.length:
            estimate = np.concatenate([estimate, np.zeros(buffer.length - estimate.size)])
        return AudioBuffer(fixed - estimate, buffer.sample_rate)

    return stage


def _mono_reference(image: AudioBuffer) -> AudioBuffer:
    return AudioBuffer(image.samples.mean(axis=0), image.sample_rate)


def evaluate_scene(
    mixture: AudioBuffer,
    target_image: AudioBuffer,
    residual_image: AudioBuffer,
    config: PipelineConfig = PipelineConfig(),
    max_shift: int = 512,
) -> tuple:
    """Score the pipeline on a simulated scene with known images.

    Returns (EvalReport, ZoomResult). The beamformer is decomposed by
    re-filtering the images with frozen parameters; the post-filter by
    applying the mixture-derived gains to each component spectrogram.
    """
    result = run_zoom(mixture, config)
    stage = frozen_stage(result)
    mixture_out = stage(mixture)
    target_out, residual_out = decompose_linear(
        stage, target_image, residual_image, mixture_output=mixture_out
    )

    reference = _mono_reference(target_image)
    input_sinr = osinr_db(target_image, residual_image)
    osinr_beamformer = osinr_db(target_out, residual_out)
    mse_beamformer = mse_db(result.beamformed, reference, max_shift)

    if config.bt_enabled:
        target_spec = stft(target_out, config.stft)
        residual_spec = stft(residual_out, config.stft)
        target_final, residual_final = shadow_gain_decompose(
            result.block_grid.gains, target_spec, residual_spec
        )
        final_osinr = osinr_db(target_final, residual_final)
        final_mse = mse_db(result.output, reference, max_shift)
    else:
        final_osinr = osinr_beamformer
        final_mse = mse_beamformer

    report = build_report(
        input_sinr,
        final_osinr,
        final_mse,
        osinr_beamformer_db=osinr_beamformer,
        mse_beamformer_db=mse_beamformer,
    )
    return report, result


def normalize_peak(buffer: AudioBuffer, peak_dbfs: float = -1.0) -> tuple:
    """Scale a buffer so its peak sits at peak_dbfs; returns (buffer, gain)."""
    peak = float(np.max(np.abs(buffer.samples)))
    if peak == 0.0:
        return buffer, 1.0
    gain = 10.0 ** (peak_dbfs / 20.0) / peak
    return AudioBuffer(buffer.samples * gain, buffer.sample_rate), gain
