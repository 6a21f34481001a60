"""Per-bin minimum-power distortionless beamformer with diagonal loading."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Spectrogram, _each_chunk, _run_spans, _spans

LOADING_FACTOR = 1e-2


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


def _channels(spec_ch1: Spectrogram, spec_ch2: Spectrogram) -> tuple:
    if spec_ch1.coefficients.shape != spec_ch2.coefficients.shape:
        raise ValueError("channel spectrograms must share dimensions")
    return spec_ch1.coefficients, spec_ch2.coefficients


def estimate_covariance(spec_ch1: Spectrogram, spec_ch2: Spectrogram) -> np.ndarray:
    """Per-bin 2x2 sample covariance averaged over all frames, shaped (bins, 2, 2).

    R[1, 0] = conj(R[0, 1]), so every matrix is Hermitian by construction.
    Raises ValueError when the estimate is not finite, which happens when the
    input level is so large that the products overflow.
    """
    y1, y2 = _channels(spec_ch1, spec_ch2)
    bins, frames = y1.shape
    if frames == 0:
        raise ValueError("no frames")
    r11, r12, r22 = np.empty((3, bins), dtype=np.complex128)
    spans = _spans(frames, size=bins)
    # Each span's conjugates go to a buffer of its own, made on this thread (see dsp._each_chunk).
    conjs = {first: np.empty_like(y2[first:last]) for first, last in spans}

    def products(first, last):
        # Each bin sums its frames in the same order whatever the span of bins.
        a, b, c = y1[first:last], y2[first:last], conjs[first]
        r11[first:last] = np.einsum("fk,fk->f", a, np.conjugate(a, out=c))
        np.conjugate(b, out=c)
        r12[first:last] = np.einsum("fk,fk->f", a, c)
        r22[first:last] = np.einsum("fk,fk->f", b, c)

    with np.errstate(over="ignore", invalid="ignore"):
        _run_spans(products, spans)
        cov = np.stack([r11, r12, r12.conj(), r22], axis=-1).reshape(-1, 2, 2) / frames
    if not np.all(np.isfinite(cov)):
        raise ValueError("input level overflows the covariance estimate; scale the input down")
    return cov


def mpdr_weights(cov: np.ndarray, steering: np.ndarray, alpha) -> np.ndarray:
    """Power-minimizing weights with unit response toward the steering vector.

    w = (R + alpha*I)^-1 d / (d^H (R + alpha*I)^-1 d) for a (..., 2, 2) stack
    of covariances, (..., 2) steering and a scalar or (...,) loading alpha >= 0.
    """
    cov = np.asarray(cov, dtype=np.complex128)
    d = np.asarray(steering, dtype=np.complex128)
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha < 0):
        raise ValueError("loading must be nonnegative")
    if cov.shape[-2:] != (2, 2) or d.shape != cov.shape[:-1]:
        raise ValueError("need (..., 2, 2) covariances and (..., 2) steering vectors")
    # Closed-form 2x2 solve w = adj(R)d / (d^H adj(R) d), in which det(R)
    # cancels. Each matrix is scaled exactly by a power of two that brings its
    # largest entry into [0.5, 1): every product stays in range, and the
    # degeneracy test against |d|^2 is relative.
    entries = (cov + alpha[..., None, None] * np.eye(2)).reshape(*cov.shape[:-2], 4)
    peak = np.abs(entries).max(axis=-1)
    if np.any((0.0 < peak) & (peak < np.finfo(np.float64).tiny)):
        raise np.linalg.LinAlgError("covariance below the normal float range; increase loading")
    entries *= np.ldexp(1.0, -np.frexp(peak)[1])[..., None]
    a, b, c, e = np.moveaxis(entries, -1, 0)
    d1, d2 = d[..., 0], d[..., 1]
    num = np.stack([e * d1 - b * d2, -c * d1 + a * d2], axis=-1)
    den = np.einsum("...m,...m->...", d.conj(), num)
    if np.any(np.abs(den) <= 1e-15 * np.sum(np.abs(d) ** 2, axis=-1)):
        raise np.linalg.LinAlgError("degenerate covariance; increase loading")
    return num / den[..., None]


def scaled_loading(cov: np.ndarray) -> np.ndarray:
    """Loading proportional to the mean channel power: LOADING_FACTOR * trace(R)/2 per matrix."""
    return LOADING_FACTOR * np.real(np.trace(cov, axis1=-2, axis2=-1)) / 2.0


def design_mpdr(
    spec_ch1: Spectrogram, spec_ch2: Spectrogram, *, alpha: float | None = None
) -> MpdrWeights:
    """Design per-bin weights, steered to broadside [1, 1], from the observed channels.

    Args:
        alpha: fixed loading for every bin; when None each bin uses
            LOADING_FACTOR * trace(R)/2.
    """
    cov = estimate_covariance(spec_ch1, spec_ch2)
    bins = cov.shape[0]
    steering = np.ones((bins, 2), dtype=np.complex128)
    loading = scaled_loading(cov) if alpha is None else np.full(bins, float(alpha))
    return MpdrWeights(mpdr_weights(cov, steering, loading), steering, loading)


def apply_mpdr(spec_ch1: Spectrogram, spec_ch2: Spectrogram, weights: MpdrWeights) -> Spectrogram:
    """Beamform the two channels: Z(f, v) = w(f)^H [Y1(f, v), Y2(f, v)]."""
    y1, y2 = _channels(spec_ch1, spec_ch2)
    if weights.weights.shape[0] != y1.shape[0]:
        raise ValueError("weights do not match the spectrogram bin count")
    w = weights.weights.conj()
    # Column chunks of the (F-ordered) result; the second channel's terms go
    # through scratch, whose transpose is F-ordered too.
    bins, frames = y1.shape
    out = np.empty((bins, frames), dtype=np.complex128, order="F")

    def beamform(span, start, stop, second):
        chunk = out[:, start:stop]
        np.einsum("f,fk->fk", w[:, 0], y1[:, start:stop], out=chunk)
        chunk += np.einsum("f,fk->fk", w[:, 1], y2[:, start:stop], out=second.T)

    _each_chunk(frames, beamform, lambda n: np.empty((n, bins), dtype=np.complex128))
    return spec_ch1.with_coefficients(out)
