"""Adaptive block-thresholding post-filter.

The time-frequency plane is split into macro-blocks; each macro-block picks
the dyadic sub-block tiling whose estimated block SNRs best separate signal
from residual interference, then attenuates every sub-block with the gain
that minimizes the expected squared error for its SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Spectrogram, _each_chunk, _run_spans, _spans

SNR_CAP = 1e6
VARIANCE_FLOOR_FACTOR = 1e-12


@dataclass(frozen=True)
class BlockThresholdParams:
    """Macro-block geometry and the block-SNR decision threshold.

    levels is the log2 of the sub-block cell count: each sub-block holds
    2**levels TF cells regardless of its aspect ratio.
    """

    macro_frames: int = 8
    macro_bins: int = 16
    levels: int = 4
    snr_threshold: float = 1.0

    def __post_init__(self):
        if self.macro_frames < 1 or self.macro_bins < 1:
            raise ValueError("macro-block dimensions must be positive")
        if self.levels < 0:
            raise ValueError("levels must be nonnegative")
        if self.macro_frames * self.macro_bins < 2**self.levels:
            raise ValueError("macro-block smaller than one sub-block")
        if self.snr_threshold < 0:
            raise ValueError("snr_threshold must be nonnegative")


@dataclass(frozen=True)
class Tiling:
    """One way of cutting a macro-block into equal dyadic sub-blocks.

    The nominal shape for subdivision index v is 2**(levels-v) frames by
    2**v bins; when that orientation does not divide the macro-block the
    transposed placement is used, so time_label/freq_label keep the nominal
    shape while sub_frames/sub_bins give the realized extents.
    """

    v: int
    sub_frames: int
    sub_bins: int
    time_label: int
    freq_label: int

    @property
    def shape_label(self) -> tuple:
        return (self.time_label, self.freq_label)

    @property
    def cells(self) -> int:
        return self.sub_frames * self.sub_bins


def enumerate_partitions(macro_frames: int, macro_bins: int, levels: int) -> list:
    """All feasible sub-block tilings of a macro-frames x macro-bins block.

    One tiling per feasible v in {0..levels}; v is kept when its sub-block
    shape divides the macro-block in either orientation.
    """
    if macro_frames * macro_bins < 2**levels:
        raise ValueError("macro-block incompatible with subdivision depth")
    tilings = []
    for v in range(levels + 1):
        t_extent = 2 ** (levels - v)
        f_extent = 2**v
        if macro_frames % t_extent == 0 and macro_bins % f_extent == 0:
            tilings.append(Tiling(v, t_extent, f_extent, t_extent, f_extent))
        elif macro_frames % f_extent == 0 and macro_bins % t_extent == 0:
            tilings.append(Tiling(v, f_extent, t_extent, t_extent, f_extent))
    if not tilings:
        raise ValueError("macro-block incompatible with subdivision depth")
    return tilings


def residual_variance(y1: Spectrogram, y2: Spectrogram, z: Spectrogram) -> np.ndarray:
    """Residual interference variance per TF cell from the beamformed output.

    sigma^2 = (|Y1 - Z|^2 + |Y2 - Z|^2) / 2, treating the beamformed output
    as the best available stand-in for the clean target. Raises ValueError
    when a cell's variance overflows.
    """
    shapes = {y1.coefficients.shape, y2.coefficients.shape, z.coefficients.shape}
    if len(shapes) != 1:
        raise ValueError("spectrogram dimensions must match")
    bins, frames = z.coefficients.shape
    # Column chunks of the (F-ordered) spectrograms through two scratch buffers,
    # whose transposes are F-ordered too, so no whole-grid temporary is faulted
    # in. |.|^2 squares in place (x **= 2 is x*x, the same bits as np.abs(d) ** 2).
    sigma2 = np.empty((bins, frames), order="F")

    def variance(span, start, stop, diff, square):
        out = sigma2[:, start:stop]
        d, s = diff.T, square.T
        np.subtract(y1.coefficients[:, start:stop], z.coefficients[:, start:stop], out=d)
        np.abs(d, out=out)
        out **= 2
        np.subtract(y2.coefficients[:, start:stop], z.coefficients[:, start:stop], out=d)
        np.abs(d, out=s)
        s **= 2
        out += s
        out *= 0.5

    scratch = (lambda n: np.empty((n, bins), dtype=np.complex128), lambda n: np.empty((n, bins)))
    with np.errstate(over="ignore"):
        _each_chunk(frames, variance, *scratch)
    # Every cell is >= 0 or NaN, so the largest is finite only when all are.
    if not np.isfinite(sigma2.max(initial=0.0)):
        raise ValueError("input level overflows the residual variance; scale the input down")
    return sigma2


def variance_floor(power: np.ndarray) -> float:
    """Variance below which a cell counts as interference-free.

    VARIANCE_FLOOR_FACTOR of the mean power, so 0 for silent input. Raises
    ValueError when the mean power overflows.
    """
    with np.errstate(over="ignore"):
        mean = float(power.mean()) if power.size else 0.0
    if not np.isfinite(mean):
        raise ValueError("input level overflows the post-filter's mean power; scale the input down")
    return VARIANCE_FLOOR_FACTOR * mean


def _tile(stack: np.ndarray, tiling: Tiling) -> np.ndarray:
    # (n_b, MB, n_t, MF) -> (n_b, MB/sub_bins, sub_bins, n_t, MF/sub_frames, sub_frames) view.
    n_b, mb, n_t, mf = stack.shape
    return stack.reshape(
        n_b, mb // tiling.sub_bins, tiling.sub_bins, n_t, mf // tiling.sub_frames, tiling.sub_frames
    )


def attenuation_factor(snr):
    """Oracle gain 1 - 1/(snr + 1), in [0, 1] for snr >= 0."""
    snr = np.asarray(snr, dtype=np.float64)
    if np.any(snr < 0):
        raise ValueError("block SNR must be nonnegative")
    gain = 1.0 - 1.0 / (snr + 1.0)
    return float(gain) if gain.ndim == 0 else gain


def _block_means(stack: np.ndarray, tilings: list) -> list:
    # Sub-block means of a (n_b, MB, n_t, MF) stack for each tiling, shaped (n_b, kb, n_t, kt).
    # Every extent is a power of two, so one pyramid of pairwise bin sums serves
    # all tilings (each level is dropped once built upon), the frames are halved
    # per tiling, and the division by the cell count is exact: equal cells give
    # equal means at every shape.
    means = [None] * len(tilings)
    level, sub_bins = stack, 1
    for index in sorted(range(len(tilings)), key=lambda i: tilings[i].sub_bins):
        tiling = tilings[index]
        while sub_bins < tiling.sub_bins:
            level = level[:, 0::2] + level[:, 1::2]
            sub_bins *= 2
        block = level
        for _ in range(tiling.sub_frames.bit_length() - 1):
            block = block[..., 0::2] + block[..., 1::2]
        means[index] = block / tiling.cells
    return means


def _best_tilings(power, sigma2, tilings, snr_threshold, floor, gains) -> np.ndarray:
    """Best tiling of every macro-block in a (n_b, MB, n_t, MF) stack, all blocks at once.

    Each block takes the tiling with the most above-threshold sub-blocks, then
    the largest mean SNR among them, then the first in the given order. A
    sub-block whose mean variance is at or below the floor (a silent one too)
    gets the SNR_CAP sentinel (clean signal). The chosen sub-block gains are
    written into gains, a view of the same shape, once per cell. Returns each
    block's index into tilings, (n_b, n_t).
    """
    shape = (power.shape[0], power.shape[2])
    counts, means, snrs = [], [], []
    for mean_power, mean_var in zip(_block_means(power, tilings), _block_means(sigma2, tilings)):
        with np.errstate(divide="ignore", invalid="ignore"):
            snr = np.clip(mean_power / mean_var - 1.0, 0.0, SNR_CAP)
        snr[mean_var <= floor] = SNR_CAP
        snrs.append(snr)
        # Each block's sub-blocks in one contiguous row: every tiling of a region
        # sums as many in the same order, so equal SNRs tie exactly.
        row = np.ascontiguousarray(snr.transpose(0, 2, 1, 3)).reshape(shape + (-1,))
        above = row > snr_threshold
        count = above.sum(axis=2)
        total = np.where(above, row, 0.0).sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            means.append(np.where(count > 0, total / count, -np.inf))
        counts.append(count)
    counts, means = np.array(counts), np.array(means)
    best = np.argmax(np.where(counts == counts.max(0), means, -np.inf), axis=0)
    for index, (tiling, snr) in enumerate(zip(tilings, snrs)):
        ib, it = np.nonzero(best == index)
        _tile(gains, tiling)[ib, :, :, it] = attenuation_factor(snr[ib, :, it])[:, :, None, :, None]
    return best


# One record per macro-block: where it sits, its size, its depth and its chosen v.
CHOICE_DTYPE = np.dtype(
    [(name, np.int64) for name in ("bin_start", "frame_start", "bins", "frames", "levels", "v")]
)


@dataclass
class BlockGrid:
    """Full-grid attenuation map plus the per-macro-block choices behind it."""

    params: BlockThresholdParams
    gains: np.ndarray  # (bins, frames) in [0, 1]
    choices: np.ndarray  # CHOICE_DTYPE records, macro-blocks row by row


def _twos(n: int) -> int:
    # Exponent of the largest power of two that divides n > 0.
    return (n & -n).bit_length() - 1


def _feasible_levels(frames: int, bins: int, levels: int) -> int:
    # A depth-h tiling splits 2**h into a power of two dividing frames times one
    # dividing bins, so the largest feasible depth is a direct sum of exponents.
    return min(levels, _twos(frames) + _twos(bins))


def _distinct(tilings: list) -> list:
    # The first tiling of each realised sub-block shape. A later one with the
    # same extents scores the same and loses every tie, so it can never win.
    kept = {}
    for tiling in tilings:
        kept.setdefault((tiling.sub_frames, tiling.sub_bins), tiling)
    return list(kept.values())


def _bands(size: int, macro: int) -> list:
    # One grid axis as its run of whole macro-blocks plus the partial block
    # after it: (cell slice, macro-block slice, macro-block extent) per band.
    whole, rest = divmod(size, macro)
    bands = []
    if whole:
        bands.append((slice(0, whole * macro), slice(0, whole), macro))
    if rest:
        bands.append((slice(whole * macro, size), slice(whole, whole + 1), rest))
    return bands


def block_threshold_gains(
    z: Spectrogram,
    sigma2: np.ndarray,
    params: BlockThresholdParams = BlockThresholdParams(),
) -> BlockGrid:
    """Attenuation map for the whole spectrogram.

    Interior macro-blocks are params.macro_frames x params.macro_bins;
    partial blocks at the borders fall back to the largest subdivision depth
    they can host (down to per-cell gains). The grid splits into at most four
    regions of equal-shaped macro-blocks (interior, right strip, bottom strip,
    corner), and each region picks every block's tiling in one batched pass
    per span of its macro-block columns.
    """
    coeffs = z.coefficients
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if coeffs.shape != sigma2.shape:
        raise ValueError("variance map dimensions must match the spectrogram")
    bins, frames = coeffs.shape
    mb, mf = params.macro_bins, params.macro_frames
    power = np.empty_like(coeffs, dtype=np.float64)

    def square(span, start, stop):
        cells = power[:, start:stop]
        np.abs(coeffs[:, start:stop], out=cells)
        cells **= 2

    with np.errstate(over="ignore"):  # variance_floor rejects an overflowed power
        _each_chunk(frames, square)
    floor = variance_floor(power)
    gains = np.empty_like(power)
    choices = np.empty((-(-bins // mb), -(-frames // mf)), dtype=CHOICE_DTYPE)
    choices["bin_start"] = np.arange(0, bins, mb)[:, None]
    choices["frame_start"] = np.arange(0, frames, mf)
    choices["bins"] = np.minimum(mb, bins - choices["bin_start"])
    choices["frames"] = np.minimum(mf, frames - choices["frame_start"])
    for cells_b, blocks_b, nb in _bands(bins, mb):
        for cells_t, blocks_t, nt in _bands(frames, mf):
            h = _feasible_levels(nt, nb, params.levels)
            tilings = _distinct(enumerate_partitions(nt, nb, h))
            shape = (blocks_b.stop - blocks_b.start, nb, blocks_t.stop - blocks_t.start, nt)
            stacks = [a[cells_b, cells_t].reshape(shape) for a in (power, sigma2, gains)]
            index = np.empty((shape[0], shape[2]), dtype=np.intp)

            def choose(first, last):
                # A span of macro-block columns writes its own columns of index and gains.
                p, s, g = (a[:, :, first:last] for a in stacks)
                index[:, first:last] = _best_tilings(p, s, tilings, params.snr_threshold, floor, g)

            _run_spans(choose, _spans(shape[2] * nt, size=shape[2]))
            choices["v"][blocks_b, blocks_t] = np.array([t.v for t in tilings])[index]
            choices["levels"][blocks_b, blocks_t] = h
    return BlockGrid(params=params, gains=gains, choices=choices.ravel())
