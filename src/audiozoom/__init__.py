"""Two-microphone audio zooming: beamforming plus block-threshold post-filtering."""

from .blockthresh import (
    BlockGrid,
    BlockThresholdParams,
    Tiling,
    attenuation_factor,
    block_threshold_gains,
    enumerate_partitions,
    residual_variance,
)
from .dsp import AudioBuffer, Spectrogram, StftParams, fft_convolve, istft, stft
from .gjbf import (
    AdaptiveFilterState,
    GjbfConfig,
    apply_gjbf,
    fdaf_gjbf,
    mean_sinr_db,
    select_filter_length,
)
from .metrics import (
    EvalReport,
    decompose_linear,
    mse_db,
    osinr_db,
    shadow_gain_decompose,
    signal_power,
)
from .mpdr import (
    MpdrWeights,
    apply_mpdr,
    design_mpdr,
    estimate_covariance,
    mpdr_weights,
)
from .pipeline import PipelineConfig, ZoomResult, evaluate_scene, normalize_peak, run_zoom
from .simulate import (
    ArrayGeometry,
    MixtureResult,
    MixtureSpec,
    SourceSpec,
    echo_taps_for_t60,
    fractional_delay,
    parse_scenario,
    speech_like,
    synthesize_mixture,
    two_mic_array,
)
from .wav import read_wav, write_wav

__version__ = "0.1.0"
