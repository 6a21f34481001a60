"""Adaptive block-thresholding post-filter.

The time-frequency plane is split into macro-blocks; each macro-block picks
the dyadic sub-block tiling whose estimated block SNRs best separate signal
from residual interference, then attenuates every sub-block with the gain
that minimizes the expected squared error for its SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Spectrogram

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
    as the best available stand-in for the clean target.
    """
    shapes = {y1.coefficients.shape, y2.coefficients.shape, z.coefficients.shape}
    if len(shapes) != 1:
        raise ValueError("spectrogram dimensions must match")
    d1 = np.abs(y1.coefficients - z.coefficients) ** 2
    d2 = np.abs(y2.coefficients - z.coefficients) ** 2
    return 0.5 * (d1 + d2)


def variance_floor(power: np.ndarray) -> float:
    """Variance below which a cell counts as interference-free.

    VARIANCE_FLOOR_FACTOR of the mean power, and never below 1e-300.
    """
    mean = float(power.mean()) if power.size else 0.0
    return max(VARIANCE_FLOOR_FACTOR * mean, 1e-300)


def _block_means(values: np.ndarray, tiling: Tiling) -> np.ndarray:
    bins, frames = values.shape
    grid = values.reshape(
        bins // tiling.sub_bins, tiling.sub_bins, frames // tiling.sub_frames, tiling.sub_frames
    )
    return grid.mean(axis=(1, 3))


def block_snr(
    z_region: np.ndarray, sigma2_region: np.ndarray, tiling: Tiling, variance_floor: float = 0.0
) -> np.ndarray:
    """Estimated a-priori SNR per sub-block: mean|Z|^2 / mean(sigma^2) - 1, floored at 0.

    Sub-blocks whose mean variance sits below the floor get the SNR_CAP
    sentinel (treated as clean signal).
    """
    z_region = np.asarray(z_region)
    power = np.abs(z_region) ** 2 if np.iscomplexobj(z_region) else z_region.astype(np.float64)
    if power.shape != np.shape(sigma2_region):
        raise ValueError("region dimensions must match")
    mean_power = _block_means(power, tiling)
    mean_var = _block_means(np.asarray(sigma2_region, dtype=np.float64), tiling)
    floor = max(variance_floor, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.clip(mean_power / mean_var - 1.0, 0.0, SNR_CAP)
    return np.where(mean_var < floor, SNR_CAP, snr)


def attenuation_factor(snr):
    """Oracle gain 1 - 1/(snr + 1), clipped into [0, 1]."""
    snr = np.asarray(snr, dtype=np.float64)
    if np.any(snr < 0):
        raise ValueError("block SNR must be nonnegative")
    gain = 1.0 - 1.0 / (snr + 1.0)
    gain = np.clip(gain, 0.0, 1.0)
    return float(gain) if gain.ndim == 0 else gain


def choose_partition(
    z_region: np.ndarray,
    sigma2_region: np.ndarray,
    tilings,
    snr_threshold: float = 1.0,
    variance_floor: float = 0.0,
):
    """Pick the tiling that isolates the most above-threshold sub-blocks.

    Ties go to the larger mean SNR among above-threshold blocks, then to the
    smaller v. Returns (tiling, per-sub-block SNR grid, per-sub-block gains).
    """
    if not tilings:
        raise ValueError("no candidate tilings")
    best = None
    for tiling in sorted(tilings, key=lambda t: t.v):
        snr = block_snr(z_region, sigma2_region, tiling, variance_floor)
        above = snr > snr_threshold
        count = int(above.sum())
        mean_above = float(snr[above].mean()) if count else float("-inf")
        if best is None or (count, mean_above) > (best[0], best[1]):
            best = (count, mean_above, tiling, snr)
    tiling, snr = best[2], best[3]
    return tiling, snr, attenuation_factor(snr)


def _expand(grid: np.ndarray, tiling: Tiling) -> np.ndarray:
    return np.repeat(np.repeat(grid, tiling.sub_bins, axis=0), tiling.sub_frames, axis=1)


@dataclass(frozen=True)
class MacroBlockChoice:
    """Where a macro-block sits and which subdivision it selected."""

    bin_start: int
    frame_start: int
    bins: int
    frames: int
    levels: int
    v: int


@dataclass
class BlockGrid:
    """Full-grid attenuation map plus the per-macro-block choices behind it."""

    params: BlockThresholdParams
    gains: np.ndarray  # (bins, frames) in [0, 1]
    choices: list


def _feasible_levels(frames: int, bins: int, levels: int) -> int:
    for h in range(levels, -1, -1):
        if frames * bins < 2**h:
            continue
        try:
            enumerate_partitions(frames, bins, h)
            return h
        except ValueError:
            continue
    return 0  # 1x1 sub-blocks always tile


def block_threshold_gains(
    z: Spectrogram | np.ndarray,
    sigma2: np.ndarray,
    params: BlockThresholdParams = BlockThresholdParams(),
) -> BlockGrid:
    """Attenuation map for the whole spectrogram.

    Interior macro-blocks are params.macro_frames x params.macro_bins;
    partial blocks at the borders fall back to the largest subdivision depth
    they can host (down to per-cell gains).
    """
    coeffs = z.coefficients if isinstance(z, Spectrogram) else np.asarray(z)
    power = np.abs(coeffs) ** 2
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if power.shape != sigma2.shape:
        raise ValueError("variance map dimensions must match the spectrogram")
    bins, frames = power.shape
    floor = variance_floor(power)
    gains = np.ones_like(power)
    choices = []
    for b0 in range(0, bins, params.macro_bins):
        b1 = min(b0 + params.macro_bins, bins)
        for t0 in range(0, frames, params.macro_frames):
            t1 = min(t0 + params.macro_frames, frames)
            h = _feasible_levels(t1 - t0, b1 - b0, params.levels)
            tilings = enumerate_partitions(t1 - t0, b1 - b0, h)
            tiling, _, block_gain = choose_partition(
                power[b0:b1, t0:t1], sigma2[b0:b1, t0:t1], tilings, params.snr_threshold, floor
            )
            gains[b0:b1, t0:t1] = _expand(block_gain, tiling)
            choices.append(MacroBlockChoice(b0, t0, b1 - b0, t1 - t0, h, tiling.v))
    return BlockGrid(params=params, gains=gains, choices=choices)


def apply_block_threshold(
    z: Spectrogram,
    sigma2: np.ndarray,
    params: BlockThresholdParams = BlockThresholdParams(),
) -> Spectrogram:
    """Attenuate the spectrogram with per-sub-block gains; never amplifies."""
    grid = block_threshold_gains(z, sigma2, params)
    return z.with_coefficients(z.coefficients * grid.gains)
