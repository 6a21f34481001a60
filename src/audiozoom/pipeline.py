"""End-to-end composition: beamform the two channels, then block-threshold.

Also splits a run into its target and residual shares, by running its
frozen stages on ground-truth images, to score it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockthresh import BlockGrid, BlockThresholdParams, block_threshold_gains, residual_variance
from .dsp import AudioBuffer, Spectrogram, StftParams, istft, stft
from .gjbf import AdaptiveFilterState, GjbfConfig, apply_gjbf, fdaf_gjbf, select_filter_length
from .metrics import EvalReport, decompose_linear, mse_db, osinr_db
from .mpdr import MpdrWeights, apply_mpdr, design_mpdr

BEAMFORMERS = ("mpdr", "gjbf")
DEFAULT_SWEEP_LENGTHS = (50, 100, 150, 200, 250, 300)
OUTPUT_PEAK_DBFS = -1.0  # the level normalize_peak sets a buffer's peak to


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
    sweep_curve: list | None
    config: PipelineConfig
    _beamformed: AudioBuffer | None = field(default=None, repr=False)

    @property
    def beamformed(self) -> AudioBuffer:
        if self._beamformed is None:
            self._beamformed = istft(self.beamformed_spec, length=self.output.length)
        return self._beamformed

    @property
    def gjbf_config_used(self) -> GjbfConfig | None:
        """The GjbfConfig the GJBF run used (the sweep's pick included); None for MPDR."""
        return None if self.gjbf_state is None else self.gjbf_state.config


def _split_channels(mixture: AudioBuffer) -> tuple:
    if mixture.channel_count != 2:
        raise ValueError("two channels required")
    return mixture.channel(0), mixture.channel(1)


def run_zoom(mixture: AudioBuffer, config: PipelineConfig = PipelineConfig()) -> ZoomResult:
    """Run the selected beamformer and (optionally) the post-filter."""
    ch1, ch2 = _split_channels(mixture)

    weights = None
    state = None
    curve = None
    beamformed = None
    if config.beamformer == "mpdr":
        y1 = stft(ch1, config.stft)
        y2 = stft(ch2, config.stft)
        weights = design_mpdr(y1, y2, alpha=config.mpdr_alpha)
        z_spec = apply_mpdr(y1, y2, weights)
    else:
        if config.gjbf_auto_lengths:
            _, curve, beamformed, state = select_filter_length(
                ch1, ch2, config.gjbf_auto_lengths, config.gjbf
            )
        else:
            beamformed, _, state = fdaf_gjbf(ch1, ch2, config.gjbf)
        z_spec = stft(beamformed, config.stft)
        # Only residual_variance reads the channel spectra: not alive in the sweep or filter.
        y1 = stft(ch1, config.stft)
        y2 = stft(ch2, config.stft)

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
        sweep_curve=curve,
        config=config,
        _beamformed=beamformed,
    )


def _mpdr_stage(result: ZoomResult):
    """The run's MPDR weights as a fixed linear map from a 2-channel
    AudioBuffer to its share of the spectrogram the post-filter multiplies."""
    params = result.config.stft

    def stage(buffer: AudioBuffer) -> Spectrogram:
        a, b = _split_channels(buffer)
        return apply_mpdr(stft(a, params), stft(b, params), result.mpdr_weights)

    return stage


def frozen_stage(result: ZoomResult):
    """The run's beamformer as a fixed linear map, for scoring images.

    Maps a 2-channel AudioBuffer of the mixture's length to the mono
    beamformed AudioBuffer: MPDR with the run's weights, GJBF replaying the
    taps each block ran with (apply_gjbf). On the mixture it reproduces
    result.beamformed.
    """
    if result.config.beamformer == "mpdr":
        spectrum = _mpdr_stage(result)
        return lambda buffer: istft(spectrum(buffer), length=buffer.length)

    def stage(buffer: AudioBuffer) -> AudioBuffer:
        a, b = _split_channels(buffer)
        return apply_gjbf(a, b, result.gjbf_state)

    return stage


def evaluate_scene(
    mixture: AudioBuffer,
    target_image: AudioBuffer,
    residual_image: AudioBuffer,
    config: PipelineConfig = PipelineConfig(),
) -> tuple:
    """Score the pipeline on a simulated scene with known images.

    Returns (EvalReport, ZoomResult). The beamformer is decomposed by running
    its frozen stage on each image; the two shares must sum to what the run
    itself beamformed. The post-filter's target is the inverse of its gains
    times the target's share of the spectrogram they multiplied, and its
    residual is the run's output minus that target, so the two sum to
    result.output.
    """
    result = run_zoom(mixture, config)
    length = mixture.length
    if config.beamformer == "mpdr":
        # MPDR beamforms spectrograms: split the one the post-filter multiplied, then invert each share.
        target_spec, residual_spec = decompose_linear(
            _mpdr_stage(result), target_image, residual_image, mixture_output=result.beamformed_spec
        )
        target_out = istft(target_spec, length=length)
        residual_out = istft(residual_spec, length=length)
    else:
        target_out, residual_out = decompose_linear(
            frozen_stage(result), target_image, residual_image, mixture_output=result.beamformed
        )
        # GJBF's post-filter multiplied the spectrogram of its waveform.
        target_spec = stft(target_out, config.stft) if config.bt_enabled else None

    reference = AudioBuffer(target_image.samples.mean(axis=0), target_image.sample_rate)
    input_sinr = osinr_db(target_image, residual_image)
    osinr_beamformer = osinr_db(target_out, residual_out)
    mse_beamformer = mse_db(result.beamformed, reference)

    if config.bt_enabled:
        gained = target_spec.coefficients * result.block_grid.gains
        target_final = istft(target_spec.with_coefficients(gained), length=length)
        residual_final = AudioBuffer(result.output.samples - target_final.samples, mixture.sample_rate)
        final_osinr = osinr_db(target_final, residual_final)
        final_mse = mse_db(result.output, reference)
    else:
        final_osinr = osinr_beamformer
        final_mse = mse_beamformer

    report = EvalReport(
        input_sinr_db=input_sinr,
        osinr_db=final_osinr,
        mse_db=final_mse,
        osinr_beamformer_db=osinr_beamformer,
        mse_beamformer_db=mse_beamformer,
    )
    return report, result


def normalize_peak(buffer: AudioBuffer) -> tuple:
    """Scale a buffer so its peak sits at OUTPUT_PEAK_DBFS; returns (buffer, gain)."""
    x = buffer.samples
    peak = float(max(x.max(), -x.min()))  # max |x| without an |x| temporary
    if peak == 0.0:
        return buffer, 1.0
    gain = 10.0 ** (OUTPUT_PEAK_DBFS / 20.0) / peak
    return AudioBuffer(buffer.samples * gain, buffer.sample_rate), gain
