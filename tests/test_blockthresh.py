"""Tests for residual variance, tiling enumeration, and block thresholding."""

import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import FS, block_threshold_reference, default_scene, usable_cpus

from audiozoom import blockthresh
from audiozoom.blockthresh import (
    SNR_CAP,
    BlockThresholdParams,
    _feasible_levels,
    attenuation_factor,
    block_threshold_gains,
    enumerate_partitions,
    residual_variance,
)
from audiozoom.dsp import AudioBuffer, Spectrogram, StftParams, _chunk_frames, stft
from audiozoom.mpdr import apply_mpdr, design_mpdr
from audiozoom.pipeline import PipelineConfig, run_zoom
from audiozoom.simulate import echo_taps_for_t60


def _spec(coeffs, frame=64):
    params = StftParams(frame, frame // 2, "sqrt_hann")
    return Spectrogram(coeffs, params, FS)


def _grid(z):
    # z as a Spectrogram: an STFT grid of 2^k / 2 + 1 bins (or of one bin).
    frame = 2 * (z.shape[0] - 1) or 1
    return Spectrogram(z, StftParams(frame, frame), FS)


class TestResidualVariance:
    def _three(self, seed=0, bins=33, frames=12):
        rng = np.random.default_rng(seed)
        mk = lambda: rng.standard_normal((bins, frames)) + 1j * rng.standard_normal((bins, frames))
        return _spec(mk()), _spec(mk()), _spec(mk())

    def test_perfect_beamforming_gives_zero(self):
        y1, _, _ = self._three()
        out = residual_variance(y1, y1, y1)
        assert np.all(out == 0)

    def test_symmetric_residual(self):
        y1, _, _ = self._three(seed=1)
        rng = np.random.default_rng(2)
        e = rng.standard_normal(y1.coefficients.shape) + 1j * rng.standard_normal(
            y1.coefficients.shape
        )
        z = y1
        up = _spec(z.coefficients + e)
        down = _spec(z.coefficients - e)
        out = residual_variance(up, down, z)
        assert np.allclose(out, np.abs(e) ** 2)

    def test_matches_formula_exactly(self):
        y1, y2, z = self._three(seed=4)
        d1 = np.abs(y1.coefficients - z.coefficients) ** 2
        d2 = np.abs(y2.coefficients - z.coefficients) ** 2
        assert np.array_equal(residual_variance(y1, y2, z), 0.5 * (d1 + d2))

    def _f_ordered(self, seed, frames, bins=257):
        # Three (bins, frames) grids laid out as stft returns them, frames outermost.
        rng = np.random.default_rng(seed)
        shape = (frames, bins)
        mk = lambda: (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).T
        return _spec(mk(), 2 * (bins - 1)), _spec(mk(), 2 * (bins - 1)), _spec(mk(), 2 * (bins - 1))

    # Frames per one-span chunk: a complex and a real scratch column of 257
    # bins per frame. 3749 frames is 60 s at the default STFT.
    CHUNK = _chunk_frames(1, 24 * 257)

    @pytest.mark.parametrize(
        "frames", sorted({1, 63, 64, 65, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 3749})
    )
    def test_matches_formula_across_chunk_edges(self, frames):
        y1, y2, z = self._f_ordered(frames, frames)
        d1 = np.abs(y1.coefficients - z.coefficients) ** 2
        d2 = np.abs(y2.coefficients - z.coefficients) ** 2
        assert np.array_equal(residual_variance(y1, y2, z), 0.5 * (d1 + d2))

    def _assert_overflow_raises(self, frame):
        # Three chunks; one frame made loud enough that its cells overflow.
        y1, y2, z = self._f_ordered(6, 2 * self.CHUNK + 5)
        loud = y1.coefficients.copy()
        loud[:, frame] *= 1e200
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="input level overflows the residual variance"):
                residual_variance(y1.with_coefficients(loud), y2, z)
        assert not caught

    def test_overflow_in_last_chunk_is_value_error(self):
        self._assert_overflow_raises(-1)

    def test_overflow_in_first_chunk_is_value_error(self):
        self._assert_overflow_raises(0)

    def test_nan_cell_is_value_error(self):
        y1, y2, z = self._f_ordered(8, 20)
        bad = y1.coefficients.copy()
        bad[3, 7] = np.nan
        with pytest.raises(ValueError, match="input level overflows the residual variance"):
            residual_variance(y1.with_coefficients(bad), y2, z)

    def test_peak_memory_in_output_sizes(self):
        # tracemalloc peak over the output's bytes on a 10 s grid (624 frames at
        # the default STFT), at 1, 2 and 3 spans. Whole-grid temporaries read
        # 4.13; the chunk buffers read 1.43-1.44 (CHUNK_BYTES of scratch).
        y1, y2, z = self._f_ordered(7, 624)
        for count in (1, 2, 3):
            with usable_cpus(count):
                tracemalloc.start()
                try:
                    sigma2 = residual_variance(y1, y2, z)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= 1.5 * sigma2.nbytes, count

    @pytest.mark.parametrize("a", [1e154, 1e200])
    def test_overflow_is_value_error(self, a):
        y1, y2, z = self._three(seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="input level overflows the residual variance"):
                residual_variance(_spec(a * y1.coefficients), _spec(a * y2.coefficients), z)
        assert not caught

    def test_broadside_target_scene_variance_well_below_output(self):
        scene = default_scene(seed=3, duration_s=1.0)
        # Target-only: reuse only the target image as the observation.
        params = StftParams()
        y1 = stft(scene.target_image.channel(0), params)
        y2 = stft(scene.target_image.channel(1), params)
        weights = design_mpdr(y1, y2)
        z = apply_mpdr(y1, y2, weights)
        sigma2 = residual_variance(y1, y2, z)
        mean_out = np.mean(np.abs(z.coefficients) ** 2)
        assert sigma2.max() <= 1e-4 * mean_out

    def test_dimension_mismatch_rejected(self):
        y1, y2, _ = self._three(seed=4)
        small = _spec(np.zeros((33, 5), dtype=complex))
        with pytest.raises(ValueError, match="dimensions"):
            residual_variance(y1, y2, small)


class TestEnumeratePartitions:
    def test_square_macro_three_levels(self):
        tilings = enumerate_partitions(4, 4, 2)
        labels = [t.shape_label for t in tilings]
        assert labels == [(4, 1), (2, 2), (1, 4)]
        for t in tilings:
            assert t.cells == 4

    def test_default_macro_five_tilings(self):
        tilings = enumerate_partitions(8, 16, 4)
        assert len(tilings) == 5
        assert [t.shape_label for t in tilings] == [
            (16, 1),
            (8, 2),
            (4, 4),
            (2, 8),
            (1, 16),
        ]
        for t in tilings:
            assert t.cells == 16
            assert 8 % t.sub_frames == 0
            assert 16 % t.sub_bins == 0

    def test_all_tilings_cover_each_cell_once(self):
        for tiling in enumerate_partitions(8, 16, 4):
            coverage = np.zeros((16, 8), dtype=int)
            for b0 in range(0, 16, tiling.sub_bins):
                for t0 in range(0, 8, tiling.sub_frames):
                    coverage[b0 : b0 + tiling.sub_bins, t0 : t0 + tiling.sub_frames] += 1
            assert np.all(coverage == 1)

    def test_areas_sum_to_macro_area(self):
        for tiling in enumerate_partitions(8, 16, 4):
            count = (16 // tiling.sub_bins) * (8 // tiling.sub_frames)
            assert count * tiling.cells == 8 * 16

    def test_infeasible_macro_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            enumerate_partitions(3, 3, 4)

    def test_odd_sizes_keep_feasible_subset(self):
        tilings = enumerate_partitions(3, 16, 4)
        assert [t.v for t in tilings] in ([0, 4], [0], [4])
        for t in tilings:
            assert 3 % t.sub_frames == 0 and 16 % t.sub_bins == 0


def _one_block(z, sigma2, frames, bins, levels):
    # One macro-block covering the whole region: (gains, its choice record, its tiling).
    # No STFT grid has 4 or 16 bins, so the region is the top of a grid one
    # silent bin taller; that bin is a macro-block row of its own.
    params = BlockThresholdParams(frames, bins, levels)
    pad = ((0, 1), (0, 0))
    grid = block_threshold_gains(_grid(np.pad(z, pad)), np.pad(sigma2, pad), params)
    choice, _ = grid.choices
    (tiling,) = [t for t in enumerate_partitions(frames, bins, choice["levels"]) if t.v == choice["v"]]
    return grid.gains[:bins], choice, tiling


def _sub_block_snr(z, sigma2, tiling):
    # Sub-block SNRs of one (bins, frames) region, shaped (bins/sub_bins, frames/sub_frames).
    bins, frames = sigma2.shape
    shape = (bins // tiling.sub_bins, tiling.sub_bins, frames // tiling.sub_frames, tiling.sub_frames)
    mean_power = (np.abs(z) ** 2).reshape(shape).mean(axis=(1, 3))
    mean_var = sigma2.reshape(shape).mean(axis=(1, 3))
    return np.maximum(mean_power / mean_var - 1.0, 0.0)


class TestBlockSnr:
    # Sub-block SNRs seen through the gains of one-macro-block grids.

    def test_noise_only_block_is_zero(self):
        z = np.full((4, 4), 1.0 + 0j)
        sigma2 = np.ones((4, 4))
        gains, _, _ = _one_block(z, sigma2, 4, 4, 2)
        assert np.all(gains == 0.0)

    def test_three_to_one_ratio_gives_two(self):
        z = np.full((4, 4), np.sqrt(3.0) + 0j)
        sigma2 = np.ones((4, 4))
        gains, choice, _ = _one_block(z, sigma2, 4, 4, 2)
        assert choice["v"] == 0
        assert np.allclose(gains, 2.0 / 3.0)

    def test_matches_scalar_loop_oracle(self):
        # A macro-block the size of one sub-block has exactly that tiling, so
        # its gain is the attenuation of that sub-block's SNR.
        rng = np.random.default_rng(5)
        z = rng.standard_normal((17, 8)) + 1j * rng.standard_normal((17, 8))
        sigma2 = rng.uniform(0.1, 2.0, (17, 8))
        for tiling in enumerate_partitions(8, 16, 4):  # over the first 16 of the 17 bins
            params = BlockThresholdParams(tiling.sub_frames, tiling.sub_bins, 4)
            got = block_threshold_gains(_grid(z), sigma2, params).gains
            rows = 16 // tiling.sub_bins
            cols = 8 // tiling.sub_frames
            for r in range(rows):
                for c in range(cols):
                    zs = ss = 0.0
                    for i in range(tiling.sub_bins):
                        for j in range(tiling.sub_frames):
                            zs += abs(z[r * tiling.sub_bins + i, c * tiling.sub_frames + j]) ** 2
                            ss += sigma2[r * tiling.sub_bins + i, c * tiling.sub_frames + j]
                    want = attenuation_factor(max(zs / ss - 1.0, 0.0))
                    cell = got[r * tiling.sub_bins, c * tiling.sub_frames]
                    assert cell == pytest.approx(want, rel=1e-12)

    def test_floored_variance_hits_sentinel(self):
        z = np.ones((4, 4), dtype=complex)
        sigma2 = np.zeros((4, 4))
        gains, _, _ = _one_block(z, sigma2, 4, 4, 2)
        assert np.all(gains == attenuation_factor(SNR_CAP))


class TestAttenuationFactor:
    def test_zero_snr_full_suppression(self):
        assert attenuation_factor(0.0) == 0.0

    def test_unit_snr_half_gain(self):
        assert attenuation_factor(1.0) == 0.5

    def test_high_snr_passes_through(self):
        assert attenuation_factor(1e6) >= 0.999999

    def test_monotone_into_unit_interval(self):
        snrs = np.linspace(0.0, 50.0, 200)
        gains = attenuation_factor(snrs)
        assert np.all(np.diff(gains) >= 0)
        assert gains.min() >= 0.0 and gains.max() < 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            attenuation_factor(-0.5)


class TestChoosePartition:
    # The tiling a one-macro-block grid picks, read from its choice record.

    def test_all_noise_ties_to_v0_full_suppression(self):
        rng = np.random.default_rng(6)
        z = (rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))) * 1e-3
        sigma2 = np.full((16, 8), 10.0)
        gains, choice, _ = _one_block(z, sigma2, 8, 16, 4)
        assert choice["v"] == 0
        assert np.all(gains == 0.0)

    def test_uniform_high_snr_ties_to_smallest_v(self):
        z = np.full((16, 8), 10.0 + 0j)
        sigma2 = np.ones((16, 8))
        gains, choice, _ = _one_block(z, sigma2, 8, 16, 4)
        assert choice["v"] == 0
        assert np.allclose(gains, attenuation_factor(99.0))

    def test_tonal_ridge_prefers_bin_thin_time_long_blocks(self):
        # One bin of sustained energy across all frames; v=0 blocks (thin in
        # frequency, long in time) isolate it, while any coarser-in-frequency
        # tiling dilutes the ridge below the decision threshold.
        bins, frames, levels = 16, 16, 4
        sigma2 = np.ones((bins, frames))
        z = np.zeros((bins, frames), dtype=complex)
        z[5, :] = 1.9  # ridge power 3.61: above threshold only when undiluted
        scores = {}
        for tiling in enumerate_partitions(frames, bins, levels):
            scores[tiling.v] = int((_sub_block_snr(z, sigma2, tiling) > 1.0).sum())
        _, choice, chosen = _one_block(z, sigma2, frames, bins, levels)
        assert choice["v"] == 0
        assert scores[0] == max(scores.values())
        assert all(scores[0] >= s for v, s in scores.items() if v != 0)
        assert chosen.sub_bins == 1 and chosen.sub_frames == 16

    def test_returns_gains_for_chosen_tiling(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        sigma2 = rng.uniform(0.5, 1.5, (16, 8))
        gains, _, tiling = _one_block(z, sigma2, 8, 16, 4)
        snr = _sub_block_snr(z, sigma2, tiling)
        want = np.repeat(np.repeat(1.0 - 1.0 / (snr + 1.0), tiling.sub_bins, 0), tiling.sub_frames, 1)
        assert gains.shape == z.shape
        assert np.allclose(gains, want)


class TestApplyBlockThreshold:
    def _random_spec(self, seed, bins=65, frames=24, frame=128):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((bins, frames)) + 1j * rng.standard_normal((bins, frames))
        params = StftParams(frame, frame // 2, "sqrt_hann")
        return Spectrogram(coeffs, params, FS), rng

    def test_floored_variance_passes_signal_through(self):
        spec, _ = self._random_spec(8)
        sigma2 = np.zeros(spec.coefficients.shape)
        out = spec.coefficients * block_threshold_gains(spec, sigma2).gains
        rel = np.abs(out - spec.coefficients) / np.abs(spec.coefficients)
        assert rel.max() <= 1e-6

    def test_power_is_squared_magnitude_exactly(self, monkeypatch):
        spec, _ = self._random_spec(11)
        seen = []
        monkeypatch.setattr(blockthresh, "variance_floor", lambda p: seen.append(p) or 1e-300)
        block_threshold_gains(spec, np.ones(spec.coefficients.shape))
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.abs(spec.coefficients) ** 2)

    def test_overflowing_power_is_value_error(self):
        spec, _ = self._random_spec(10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="input level overflows the post-filter"):
                block_threshold_gains(
                    spec.with_coefficients(1e200 * spec.coefficients), np.ones(spec.coefficients.shape)
                )
        assert not caught

    def test_matched_noise_mostly_suppressed(self):
        rng = np.random.default_rng(9)
        bins, frames = 65, 32
        sigma2 = np.full((bins, frames), 2.0)
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((bins, frames)) + 1j * rng.standard_normal((bins, frames))
        )
        spec = Spectrogram(noise, StftParams(128, 64, "sqrt_hann"), FS)
        out = spec.coefficients * block_threshold_gains(spec, sigma2).gains
        energy_in = np.sum(np.abs(spec.coefficients) ** 2)
        energy_out = np.sum(np.abs(out) ** 2)
        assert energy_out <= 0.05 * energy_in

    def test_contraction_on_random_inputs(self):
        for seed in range(20):
            spec, rng = self._random_spec(100 + seed)
            sigma2 = rng.uniform(0.0, 3.0, spec.coefficients.shape)
            out = spec.coefficients * block_threshold_gains(spec, sigma2).gains
            assert np.all(np.abs(out) <= np.abs(spec.coefficients) + 1e-15)

    def test_idempotent_direction(self):
        spec, rng = self._random_spec(10)
        sigma2 = rng.uniform(0.1, 2.0, spec.coefficients.shape)
        once = spec.coefficients * block_threshold_gains(spec, sigma2).gains
        twice = once * block_threshold_gains(spec.with_coefficients(once), sigma2).gains
        assert np.all(np.abs(twice) <= np.abs(once) + 1e-15)

    def test_gains_and_choices_cover_grid(self):
        spec, rng = self._random_spec(11)
        sigma2 = rng.uniform(0.1, 2.0, spec.coefficients.shape)
        grid = block_threshold_gains(spec, sigma2)
        assert grid.gains.shape == spec.coefficients.shape
        assert np.all((grid.gains >= 0) & (grid.gains <= 1))
        covered = np.zeros(spec.coefficients.shape, dtype=int)
        for b0, t0, nb, nt in grid.choices[["bin_start", "frame_start", "bins", "frames"]].tolist():
            covered[b0 : b0 + nb, t0 : t0 + nt] += 1
        assert np.all(covered == 1)

    def test_edge_blocks_fall_back_to_feasible_levels(self):
        # 65 bins x 24 frames leaves a 1-bin-wide border column of blocks.
        spec, rng = self._random_spec(12)
        sigma2 = rng.uniform(0.1, 2.0, spec.coefficients.shape)
        grid = block_threshold_gains(spec, sigma2)
        edge = grid.choices[grid.choices["bins"] == 1]
        assert edge.size and np.all(edge["levels"] <= grid.params.levels)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="smaller than one sub-block"):
            BlockThresholdParams(macro_frames=2, macro_bins=2, levels=4)

    def test_end_to_end_sinr_improves_on_mpdr_residual(self):
        scene = default_scene(seed=13, duration_s=1.5)
        params = StftParams()
        y1 = stft(scene.mixture.channel(0), params)
        y2 = stft(scene.mixture.channel(1), params)
        weights = design_mpdr(y1, y2)
        z = apply_mpdr(y1, y2, weights)
        sigma2 = residual_variance(y1, y2, z)
        grid = block_threshold_gains(z, sigma2)

        t_spec = apply_mpdr(
            stft(scene.target_image.channel(0), params),
            stft(scene.target_image.channel(1), params),
            weights,
        )
        r_spec = apply_mpdr(
            stft(scene.interference_plus_noise.channel(0), params),
            stft(scene.interference_plus_noise.channel(1), params),
            weights,
        )
        before = 10 * np.log10(
            np.sum(np.abs(t_spec.coefficients) ** 2) / np.sum(np.abs(r_spec.coefficients) ** 2)
        )
        after = 10 * np.log10(
            np.sum(np.abs(grid.gains * t_spec.coefficients) ** 2)
            / np.sum(np.abs(grid.gains * r_spec.coefficients) ** 2)
        )
        assert after > before


ORACLE_PARAMS = [
    BlockThresholdParams(8, 16, 4, 1.0),
    BlockThresholdParams(4, 4, 2, 1.0),
    BlockThresholdParams(8, 8, 3, 0.5),
    BlockThresholdParams(16, 8, 4, 2.0),
]
# (bins, frames). With 16-bin x 8-frame macro-blocks, 257x101 has all four
# regions, 65x24 the interior and bottom strip, 33x7 the right strip and
# corner, 5x3 and 1x1 only a corner; 257x1001 has all four at scale, with a
# one-frame right strip at the default 8-frame macro-block.
ORACLE_GRIDS = [(65, 24), (33, 7), (5, 3), (1, 1), (257, 101), (257, 1001)]


def _params_id(params):
    return "x".join(str(value) for value in vars(params).values())


def _assert_same_grid(got, want):
    assert got.choices.dtype == want.choices.dtype
    assert np.array_equal(got.choices, want.choices)
    assert np.abs(got.gains - want.gains).max() <= 1e-15


def _assert_matches_reference(z, sigma2, params):
    _assert_same_grid(
        block_threshold_gains(_grid(z), sigma2, params), block_threshold_reference(z, sigma2, params)
    )


class TestBatchedMatchesReference:
    @pytest.mark.parametrize("beamformer", ["mpdr", "gjbf"])
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_default_scenes(self, seed, beamformer):
        echo = echo_taps_for_t60(0.3) if seed % 2 else ()
        scene = default_scene(seed=seed, echo_taps=echo)
        result = run_zoom(scene.mixture, PipelineConfig(beamformer=beamformer))
        want = block_threshold_reference(result.beamformed_spec, result.sigma2)
        _assert_same_grid(result.block_grid, want)

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=_params_id)
    @pytest.mark.parametrize("bins, frames", ORACLE_GRIDS)
    def test_random_grids(self, bins, frames, params):
        rng = np.random.default_rng(bins * 1000 + frames)
        z = rng.standard_normal((bins, frames)) + 1j * rng.standard_normal((bins, frames))
        sigma2 = rng.uniform(0.0, 3.0, (bins, frames))
        _assert_matches_reference(z, sigma2, params)

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=_params_id)
    @pytest.mark.parametrize("power, variance", [(0.3, 0.1), (0.7, 0.3)])
    def test_constant_grid_ties_to_first_tiling(self, power, variance, params):
        # Every tiling of a constant grid has the same sub-block SNRs: an exact
        # tie, which every macro-block breaks to v=0 at a non-dyadic level too,
        # and so does the oracle, whose means also come from pairwise halving.
        z = np.full((257, 101), np.sqrt(power), dtype=complex)
        sigma2 = np.full(z.shape, variance)
        grid = block_threshold_gains(_grid(z), sigma2, params)
        assert np.all(grid.choices["v"] == 0)
        _assert_same_grid(grid, block_threshold_reference(z, sigma2, params))

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=_params_id)
    def test_zero_variance_half(self, params):
        # The lower half of the bins has no residual: the SNR_CAP sentinel path.
        rng = np.random.default_rng(77)
        z = rng.standard_normal((65, 24)) + 1j * rng.standard_normal((65, 24))
        sigma2 = rng.uniform(0.1, 2.0, (65, 24))
        sigma2[:33] = 0.0
        _assert_matches_reference(z, sigma2, params)

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=_params_id)
    def test_silent_grid_passes_through(self, params):
        # Silent input has a zero floor, and every sub-block sits at it.
        z = np.zeros((65, 24), dtype=complex)
        sigma2 = np.zeros(z.shape)
        grid = block_threshold_gains(_grid(z), sigma2, params)
        assert np.all(grid.gains == attenuation_factor(SNR_CAP))
        _assert_same_grid(grid, block_threshold_reference(z, sigma2, params))


def test_batched_core_calls_do_not_grow_with_macro_blocks(monkeypatch):
    # 257 x 101 and 257 x 3749 (60 s at the default STFT) share their region
    # shapes, so a batched pass calls the core equally often on both.
    calls = []
    core = blockthresh._best_tilings

    def counting(*args):
        calls.append(1)
        return core(*args)

    monkeypatch.setattr(blockthresh, "_best_tilings", counting)
    counts = []
    for frames in (101, 3749):
        rng = np.random.default_rng(frames)
        power = rng.uniform(0.0, 2.0, (257, frames))
        sigma2 = rng.uniform(0.1, 2.0, (257, frames))
        calls.clear()
        with usable_cpus(1):  # one span, so one core call per region
            grid = block_threshold_gains(_grid(power), sigma2)
        assert len(grid.choices) == 17 * -(-frames // 8)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4


def test_each_region_scores_distinct_tilings(monkeypatch):
    # At the default 8x16 macro-block v=0's 16x1 shape is placed as 1x16,
    # v=4's tiling: each region scores each realised shape once.
    extents = []
    core = blockthresh._best_tilings

    def capturing(power, sigma2, tilings, *rest):
        extents.append([(t.sub_frames, t.sub_bins) for t in tilings])
        return core(power, sigma2, tilings, *rest)

    monkeypatch.setattr(blockthresh, "_best_tilings", capturing)
    rng = np.random.default_rng(3)
    for params in ORACLE_PARAMS:
        power = rng.uniform(0.0, 2.0, (257, 101))
        with usable_cpus(1):
            block_threshold_gains(_grid(power), rng.uniform(0.1, 2.0, power.shape), params)
    assert extents
    assert all(len(set(region)) == len(region) for region in extents)
    assert [(1, 16), (8, 2), (4, 4), (2, 8)] in extents  # the default interior, v=0..3


def test_feasible_levels_is_deepest_enumerable_depth():
    for frames in range(1, 20):
        for bins in range(1, 34):
            for levels in range(6):
                deepest = 0
                for h in range(levels, -1, -1):
                    try:
                        enumerate_partitions(frames, bins, h)
                    except ValueError:
                        continue
                    deepest = h
                    break
                assert _feasible_levels(frames, bins, levels) == deepest
