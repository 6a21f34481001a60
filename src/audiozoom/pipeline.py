"""End-to-end composition: beamform the two channels, then block-threshold.

Also builds the frozen-stage and shadow-gain decompositions used to score a
run against ground-truth images.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .blockthresh import BlockGrid, BlockThresholdParams, block_threshold_gains, residual_variance
from .dsp import AudioBuffer, Spectrogram, StftParams, istft, stft
from .gjbf import AdaptiveFilterState, GjbfConfig, apply_gjbf, fdaf_gjbf, select_filter_length
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
    """Outputs and intermediates of one pipeline run (output is not level-normalized).

    beamformed is the beamformer's waveform. GJBF, and MPDR without the
    post-filter, make it on the way; MPDR with the post-filter inverts
    beamformed_spec on the first read and keeps it, so a run whose
    waveform nobody reads makes no iSTFT for it.
    """

    output: AudioBuffer
    beamformed_spec: Spectrogram
    sigma2: np.ndarray
    block_grid: BlockGrid | None
    mpdr_weights: MpdrWeights | None
    gjbf_state: AdaptiveFilterState | None
    gjbf_config_used: GjbfConfig | None
    sweep_curve: list | None
    config: PipelineConfig
    _beamformed: AudioBuffer | None = field(default=None, repr=False)

    @property
    def beamformed(self) -> AudioBuffer:
        if self._beamformed is None:
            self._beamformed = istft(self.beamformed_spec, length=self.output.length)
        return self._beamformed


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
    state = None
    gjbf_used = None
    curve = None
    beamformed = None
    if config.beamformer == "mpdr":
        weights = design_mpdr(y1, y2, alpha=config.mpdr_alpha)
        z_spec = apply_mpdr(y1, y2, weights)
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
        z_spec = stft(beamformed, config.stft)

    sigma2 = residual_variance(y1, y2, z_spec)
    del ch1, ch2, y1, y2  # the channel spectra are not alive in the post-filter

    block_grid = None
    if config.bt_enabled:
        block_grid = block_threshold_gains(z_spec, sigma2, config.bt)
        postfiltered = z_spec.with_coefficients(z_spec.coefficients * block_grid.gains)
        output = istft(postfiltered, length=mixture.length)
    else:
        if beamformed is None:
            beamformed = istft(z_spec, length=mixture.length)
        output = beamformed

    return ZoomResult(
        output=output,
        beamformed_spec=z_spec,
        sigma2=sigma2,
        block_grid=block_grid,
        mpdr_weights=weights,
        gjbf_state=state,
        gjbf_config_used=gjbf_used,
        sweep_curve=curve,
        config=config,
        _beamformed=beamformed,
    )


def frozen_stage(result: ZoomResult):
    """The run's beamformer as a fixed linear map, for scoring images.

    Maps a 2-channel AudioBuffer of the mixture's length to the mono
    beamformed AudioBuffer: MPDR with the run's weights, GJBF replaying the
    taps each block ran with (apply_gjbf). On the mixture it reproduces
    result.beamformed.
    """
    config = result.config

    def stage(buffer: AudioBuffer) -> AudioBuffer:
        a, b = _split_channels(buffer)
        if config.beamformer == "gjbf":
            return apply_gjbf(a, b, result.gjbf_state, result.gjbf_config_used)
        spec = apply_mpdr(stft(a, config.stft), stft(b, config.stft), result.mpdr_weights)
        return istft(spec, length=buffer.length)

    return stage


def evaluate_scene(
    mixture: AudioBuffer,
    target_image: AudioBuffer,
    residual_image: AudioBuffer,
    config: PipelineConfig = PipelineConfig(),
    max_shift: int = 512,
) -> tuple:
    """Score the pipeline on a simulated scene with known images.

    Returns (EvalReport, ZoomResult). The beamformer is decomposed by running
    frozen_stage on each image, whose two outputs must sum to the run's own
    result.beamformed; the post-filter by applying the mixture-derived gains
    to each component spectrogram.
    """
    result = run_zoom(mixture, config)
    target_out, residual_out = decompose_linear(
        frozen_stage(result), target_image, residual_image, mixture_output=result.beamformed
    )

    reference = AudioBuffer(target_image.samples.mean(axis=0), target_image.sample_rate)
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
