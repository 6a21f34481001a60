"""Per-bin minimum-power distortionless beamformer with diagonal loading."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Spectrogram
from .simulate import ArrayGeometry, steering_vector

LOADING_FACTOR = 1e-2


@dataclass
class BinCovariance:
    """Sample covariance of the two channels at one frequency bin."""

    matrix: np.ndarray
    frequency_bin: int
    frame_count: int

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        if matrix.shape != (2, 2):
            raise ValueError("covariance must be a 2x2 matrix")
        self.matrix = matrix

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max(np.abs(self.matrix).max(), 1.0)
        return bool(np.abs(self.matrix - self.matrix.conj().T).max() <= tol * scale)


@dataclass
class MpdrWeights:
    """Distortionless per-bin weights plus the steering and loading used."""

    weights: np.ndarray  # (bins, 2) complex
    steering: np.ndarray  # (bins, 2) complex
    loading: np.ndarray  # (bins,) real

    def distortionless_error(self) -> np.ndarray:
        """Per-bin deviation |w^H d - 1|; ~0 for a valid design."""
        response = np.einsum("fm,fm->f", self.weights.conj(), self.steering)
        return np.abs(response - 1.0)


def _channel_stack(spec_ch1: Spectrogram, spec_ch2: Spectrogram) -> np.ndarray:
    if spec_ch1.coefficients.shape != spec_ch2.coefficients.shape:
        raise ValueError("channel spectrograms must share dimensions")
    return np.stack([spec_ch1.coefficients, spec_ch2.coefficients])


def estimate_covariance(spec_ch1: Spectrogram, spec_ch2: Spectrogram) -> list:
    """Per-bin 2x2 sample covariance averaged over all frames.

    Raises ValueError when the estimate is not finite, which happens when the
    input level is so large that the products overflow.
    """
    stacked = _channel_stack(spec_ch1, spec_ch2)
    frames = stacked.shape[2]
    if frames == 0:
        raise ValueError("no frames")
    with np.errstate(over="ignore", invalid="ignore"):
        matrices = np.einsum("afk,bfk->fab", stacked, stacked.conj()) / frames
    if not np.all(np.isfinite(matrices)):
        raise ValueError("input level overflows the covariance estimate; scale the input down")
    return [BinCovariance(matrices[f], f, frames) for f in range(matrices.shape[0])]


def _loaded_inverse_apply(matrix: np.ndarray, alpha: float, vector: np.ndarray) -> np.ndarray:
    # Closed-form 2x2 solve via the adjugate; exact and cheap for M = 2. The
    # entries are first scaled by the power of two nearest the largest, which
    # is exact and keeps det within range for any normal-range covariance.
    entries = (matrix[0, 0] + alpha, matrix[0, 1], matrix[1, 0], matrix[1, 1] + alpha)
    peak = max(abs(x) for x in entries)
    if 0.0 < peak < np.finfo(np.float64).tiny:
        raise np.linalg.LinAlgError("covariance below the normal float range; increase loading")
    unit = np.ldexp(1.0, -int(np.frexp(peak)[1]))
    a, b, c, d = (x * unit for x in entries)
    det = a * d - b * c
    scale = max(abs(a), abs(b), abs(c), abs(d), 1e-300)
    if abs(det) <= 1e-15 * scale * scale:
        raise np.linalg.LinAlgError("degenerate covariance; increase loading")
    solved = np.array([d * vector[0] - b * vector[1], -c * vector[0] + a * vector[1]]) / det
    return solved * unit


def mpdr_weights(cov: BinCovariance, steering: np.ndarray, alpha: float) -> np.ndarray:
    """Power-minimizing weights with unit response toward the steering vector.

    w = (R + alpha*I)^-1 d / (d^H (R + alpha*I)^-1 d); alpha >= 0 is the
    diagonal loading.
    """
    if alpha < 0:
        raise ValueError("loading must be nonnegative")
    d = np.asarray(steering, dtype=np.complex128)
    if d.shape != (2,):
        raise ValueError("steering must be a length-2 vector")
    num = _loaded_inverse_apply(cov.matrix, alpha, d)
    den = d.conj() @ num
    if den == 0:
        raise np.linalg.LinAlgError("degenerate covariance; increase loading")
    return num / den


def scaled_loading(cov: BinCovariance) -> float:
    """Loading proportional to the mean channel power: LOADING_FACTOR * trace(R)/2."""
    return float(LOADING_FACTOR * np.real(np.trace(cov.matrix)) / 2.0)


def steering_for_bins(
    geometry: ArrayGeometry, azimuth_deg: float, bin_frequencies: np.ndarray
) -> np.ndarray:
    """Steering vectors for every bin frequency, shaped (bins, 2)."""
    return np.stack([steering_vector(geometry, azimuth_deg, f) for f in bin_frequencies])


def design_mpdr(
    spec_ch1: Spectrogram,
    spec_ch2: Spectrogram,
    steering: np.ndarray | None = None,
    alpha: float | None = None,
) -> MpdrWeights:
    """Design per-bin weights from the observed channels.

    Args:
        steering: (bins, 2) per-bin steering; defaults to broadside [1, 1].
        alpha: fixed loading for every bin; when None each bin uses
            LOADING_FACTOR * trace(R)/2.
    """
    covariances = estimate_covariance(spec_ch1, spec_ch2)
    bins = len(covariances)
    if steering is None:
        steering = np.ones((bins, 2), dtype=np.complex128)
    steering = np.asarray(steering, dtype=np.complex128)
    if steering.shape != (bins, 2):
        raise ValueError(f"steering must have shape ({bins}, 2)")
    weights = np.empty((bins, 2), dtype=np.complex128)
    loading = np.empty(bins)
    for f, cov in enumerate(covariances):
        loading[f] = scaled_loading(cov) if alpha is None else alpha
        weights[f] = mpdr_weights(cov, steering[f], loading[f])
    return MpdrWeights(weights=weights, steering=steering, loading=loading)


def apply_mpdr(spec_ch1: Spectrogram, spec_ch2: Spectrogram, weights: MpdrWeights) -> Spectrogram:
    """Beamform the two channels: Z(f, v) = w(f)^H [Y1(f, v), Y2(f, v)]."""
    stacked = _channel_stack(spec_ch1, spec_ch2)
    if weights.weights.shape[0] != stacked.shape[1]:
        raise ValueError("weights do not match the spectrogram bin count")
    out = np.einsum("fm,mfk->fk", weights.weights.conj(), stacked)
    return spec_ch1.with_coefficients(out)
