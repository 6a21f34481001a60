"""Tests for covariance estimation and the distortionless beamformer."""

import dataclasses
import warnings

import numpy as np
import pytest
from helpers import apply_mpdr_reference, default_scene, mpdr_weights_reference

from audiozoom import mpdr
from audiozoom.dsp import AudioBuffer, StftParams, Spectrogram, _chunk_frames, stft
from audiozoom.mpdr import (
    LOADING_FACTOR,
    apply_mpdr,
    design_mpdr,
    estimate_covariance,
    mpdr_weights,
    scaled_loading,
)
from audiozoom.metrics import EvalReport
from audiozoom.pipeline import PipelineConfig, evaluate_scene, run_zoom
from audiozoom.simulate import MixtureSpec, SourceSpec, synthesize_mixture, two_mic_array

FS = 16000


def _random_psd(rng, scale=1.0):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return scale * (a @ a.conj().T) + 1e-6 * np.eye(2)


def _random_unit_steering(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, 2))


def _constrained(rng, d):
    # Random weight projected onto the w^H d = 1 plane.
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = np.conj((1.0 - w.conj() @ d) / (d.conj() @ d))
    return w + c * d


class TestEstimateCovariance:
    def _specs(self, x1, x2):
        params = StftParams(256, 128, "rect")
        return (
            stft(AudioBuffer(x1, FS), params),
            stft(AudioBuffer(x2, FS), params),
        )

    def test_identical_white_channels_converge_to_ones_matrix(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(128 * 10000 + 256)
        s1, s2 = self._specs(x, x)
        covs = estimate_covariance(s1, s2)
        # Off-diagonal equals diagonal for identical channels; check mid bins.
        for cov in covs[20:100:17]:
            ratio = abs(cov[0, 1]) / abs(cov[0, 0])
            assert 0.99 <= ratio <= 1.01

    def test_zero_input_gives_zero_matrix(self):
        s1, s2 = self._specs(np.zeros(1024), np.zeros(1024))
        for cov in estimate_covariance(s1, s2):
            assert np.all(cov == 0)

    def test_single_frame_is_rank_one_outer_product(self):
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal(256)
        x2 = rng.standard_normal(256)
        s1, s2 = self._specs(x1, x2)
        covs = estimate_covariance(s1, s2)
        f = 10
        y = np.array([s1.coefficients[f, 0], s2.coefficients[f, 0]])
        assert np.allclose(covs[f], np.outer(y, y.conj()))
        assert abs(np.linalg.eigvalsh(covs[f])[0]) <= 1e-9 * abs(
            np.linalg.eigvalsh(covs[f])[1]
        )

    def test_hermitian_psd_on_random_input(self):
        rng = np.random.default_rng(2)
        s1, s2 = self._specs(rng.standard_normal(4096), rng.standard_normal(4096))
        for cov in estimate_covariance(s1, s2):
            assert np.array_equal(cov, cov.conj().swapaxes(-1, -2))
            eigs = np.linalg.eigvalsh(cov)
            assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-300)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        params = StftParams(256, 128, "rect")
        s1 = stft(AudioBuffer(rng.standard_normal(1024), FS), params)
        s2 = stft(AudioBuffer(rng.standard_normal(2048), FS), params)
        with pytest.raises(ValueError, match="dimensions"):
            estimate_covariance(s1, s2)


class TestMpdrWeights:
    def test_isotropic_covariance_gives_matched_filter(self):
        rng = np.random.default_rng(4)
        cov = np.eye(2)
        for _ in range(10):
            d = _random_unit_steering(rng)
            w = mpdr_weights(cov, d, alpha=0.0)
            assert np.allclose(w, d / 2.0, atol=1e-12)

    def test_huge_loading_converges_to_steering(self):
        rng = np.random.default_rng(5)
        cov = _random_psd(rng)
        d = _random_unit_steering(rng)
        w = mpdr_weights(cov, d, alpha=1e12 * np.real(np.trace(cov)))
        assert np.allclose(w, d / np.vdot(d, d).real, atol=1e-9)

    def test_interferer_null_with_small_loading(self):
        # One strong interferer at 60 degrees; weights should null it at
        # bins where the two directions are phase-separated.
        geom = two_mic_array(0.10)
        params = StftParams(512, 256)
        freqs = np.arange(params.bin_count) * FS / params.frame_length
        d_target = np.exp(-2j * np.pi * freqs[:, None] * geom.delays(90.0))
        d_interf = np.exp(-2j * np.pi * freqs[:, None] * geom.delays(60.0))
        phase_sep = np.abs(np.angle(d_interf[:, 1] * np.conj(d_target[:, 1])))
        for f in np.nonzero(phase_sep >= 0.5)[0][::16]:
            r = 10.0 * np.outer(d_interf[f], d_interf[f].conj())
            cov = r + 1e-4 * np.trace(r).real / 2 * np.eye(2)
            w = mpdr_weights(cov, d_target[f], alpha=0.0)
            gain_target = abs(np.vdot(w, d_target[f])) ** 2
            gain_interf = abs(np.vdot(w, d_interf[f])) ** 2
            assert 10 * np.log10(gain_target / gain_interf) >= 20.0
            # Oracle: an independent solve plus random constrained probes
            # must not beat the closed form.
            w_ref = np.linalg.solve(cov, d_target[f])
            w_ref = w_ref / (d_target[f].conj() @ w_ref)
            assert np.allclose(w, w_ref, atol=1e-9)

    def test_output_power_optimality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            cov = _random_psd(rng)
            d = _random_unit_steering(rng)
            w = mpdr_weights(cov, d, alpha=0.0)
            base = np.real(w.conj() @ cov @ w)
            for _ in range(200):
                probe = _constrained(rng, d)
                assert np.vdot(probe, d) == pytest.approx(1.0, abs=1e-9)
                assert np.real(probe.conj() @ cov @ probe) >= base - 1e-9 * base

    def test_loading_monotonically_approaches_steering(self):
        rng = np.random.default_rng(7)
        cov = _random_psd(rng)
        d = _random_unit_steering(rng)
        goal = d / np.vdot(d, d).real
        alpha = scaled_loading(cov)
        dist = [np.linalg.norm(mpdr_weights(cov, d, alpha * 2.0**k) - goal) for k in range(11)]
        assert all(a >= b - 1e-12 for a, b in zip(dist, dist[1:]))

    def test_each_matrix_scaled_on_its_own(self):
        # Bins can differ in power by hundreds of orders of magnitude; a stack
        # spanning the float range must solve as its unscaled copy does.
        rng = np.random.default_rng(17)
        exponents = np.arange(-1000, 1021)
        covs = np.array([_random_psd(rng) for _ in exponents])
        covs /= np.abs(covs).max(axis=(1, 2), keepdims=True)
        steering = np.array([_random_unit_steering(rng) for _ in exponents])
        want = mpdr_weights(covs, steering, 0.0)
        got = mpdr_weights(covs * np.ldexp(1.0, exponents)[:, None, None], steering, 0.0)
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-14 * np.abs(want).max(axis=1))

    def test_singular_matrix_rejected(self):
        cov = np.zeros((2, 2))
        with pytest.raises(np.linalg.LinAlgError, match="loading"):
            mpdr_weights(cov, np.ones(2), alpha=0.0)

    def test_singular_matrix_off_the_steering_gives_the_limit(self):
        # Rank one, with d outside its range: the unloaded solve is the limit of
        # the loaded one, the weight that nulls R with unit response.
        v = np.array([1.0, -0.5j])
        cov, d = np.outer(v, v.conj()), np.ones(2, dtype=complex)
        w = mpdr_weights(cov, d, 0.0)
        assert w.conj() @ d == pytest.approx(1.0, abs=1e-15)
        assert abs(w.conj() @ cov @ w) <= 1e-15
        assert np.abs(mpdr_weights(cov, d, 1e-8) - w).max() <= 1e-7

    def test_negative_loading_rejected(self):
        cov = np.eye(2)
        with pytest.raises(ValueError, match="nonnegative"):
            mpdr_weights(cov, np.ones(2), alpha=-1.0)


class TestApplyMpdr:
    def _specs(self, seed=8):
        rng = np.random.default_rng(seed)
        params = StftParams(256, 128)
        s1 = stft(AudioBuffer(rng.standard_normal(4096), FS), params)
        s2 = stft(AudioBuffer(rng.standard_normal(4096), FS), params)
        return s1, s2

    def test_selector_weights_pass_channel_one(self):
        s1, s2 = self._specs()
        w = design_mpdr(s1, s2)
        w.weights[:] = [1.0, 0.0]
        out = apply_mpdr(s1, s2, w)
        assert np.allclose(out.coefficients, s1.coefficients)

    def test_mean_weights_on_identical_channels(self):
        s1, _ = self._specs()
        w = design_mpdr(s1, s1)
        w.weights[:] = [0.5, 0.5]
        out = apply_mpdr(s1, s1, w)
        assert np.allclose(out.coefficients, s1.coefficients)

    def test_broadside_target_passes_undistorted(self):
        spec = MixtureSpec(
            target=SourceSpec(90.0, AudioBuffer(np.random.default_rng(9).standard_normal(FS), FS))
        )
        scene = synthesize_mixture(spec, two_mic_array(0.10))
        params = StftParams()
        y1 = stft(scene.mixture.channel(0), params)
        y2 = stft(scene.mixture.channel(1), params)
        covs = estimate_covariance(y1, y2)
        alpha = 1e-3 * np.real(np.trace(covs[50]))
        weights = design_mpdr(y1, y2, alpha=alpha)
        out = apply_mpdr(y1, y2, weights)
        target = stft(scene.target_image.channel(0), params)
        err = np.abs(out.coefficients - target.coefficients) ** 2
        snr = 10 * np.log10(np.sum(np.abs(target.coefficients) ** 2) / max(err.sum(), 1e-300))
        assert snr >= 40.0

    def test_distortionless_constraint_every_bin(self):
        s1, s2 = self._specs(seed=10)
        weights = design_mpdr(s1, s2)
        assert weights.distortionless_error().max() <= 1e-9

    def test_design_steers_to_broadside_only(self):
        s1, s2 = self._specs(seed=11)
        weights = design_mpdr(s1, s2)
        assert np.array_equal(weights.steering, np.ones((s1.bin_count, 2), dtype=complex))
        with pytest.raises(TypeError, match="steering"):
            design_mpdr(s1, s2, steering=weights.steering)
        with pytest.raises(TypeError):
            design_mpdr(s1, s2, weights.steering)  # alpha is keyword-only


# Frames per one-span apply_mpdr chunk: one complex scratch column of 257 bins per frame.
CHUNK = _chunk_frames(1, 16 * 257)


class TestApplyMatchesReference:
    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize(
        "frames", sorted({1, 63, 64, 65, 129, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1})
    )
    def test_bit_identical_across_chunk_edges(self, frames, order):
        parts = np.random.default_rng(frames).standard_normal((2, 2, 257, frames))
        specs = [
            Spectrogram(np.asarray(re + 1j * im, order=order), StftParams(), FS) for re, im in parts
        ]
        weights = design_mpdr(*specs)
        got = apply_mpdr(*specs, weights).coefficients
        assert got.flags.f_contiguous
        assert np.array_equal(got, apply_mpdr_reference(*specs, weights))


class TestAmplitudeRange:
    """MPDR through run_zoom on default_scene(seed).mixture scaled by a."""

    @staticmethod
    def _scaled(a):
        mixture = default_scene(seed=1).mixture
        return AudioBuffer(a * mixture.samples, mixture.sample_rate), mixture

    @pytest.mark.parametrize("a", [1e-152, 1e-150, 1e-148, 1e-100, 1e100, 1e150, 1e151])
    def test_output_scales_with_input(self, a):
        for seed in (1, 2, 5):
            scene = default_scene(seed=seed)
            images = (scene.mixture, scene.target_image, scene.interference_plus_noise)
            scaled = [AudioBuffer(a * image.samples, image.sample_rate) for image in images]
            for bt_enabled in (True, False):
                config = PipelineConfig(bt_enabled=bt_enabled)
                want = a * run_zoom(scene.mixture, config).output.samples
                got = run_zoom(scaled[0], config).output.samples
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            # The scorer sees the same scene at level a: every field is a ratio.
            want_report, want_result = evaluate_scene(*images)
            got_report, got_result = evaluate_scene(*scaled)
            want = a * want_result.output.samples
            assert np.abs(got_result.output.samples - want).max() <= 1e-12 * np.abs(want).max()
            for field in dataclasses.fields(EvalReport):
                got_db, want_db = getattr(got_report, field.name), getattr(want_report, field.name)
                assert got_db == pytest.approx(want_db, abs=1e-9)

    def test_overflowing_covariance_is_value_error(self):
        scaled, _ = self._scaled(1e200)
        with pytest.raises(ValueError, match="input level overflows"):
            run_zoom(scaled)

    def test_post_filter_overflow_is_value_error(self):
        # The covariance is still finite at 1e152, the post-filter's mean power is not.
        scaled, _ = self._scaled(1e152)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="input level overflows the post-filter"):
                run_zoom(scaled)
        assert not caught

    def test_underflowing_power_is_degenerate(self):
        for a in (0.0, 1e-200):  # silent, and a covariance that underflows to 0
            scaled, _ = self._scaled(a)
            with pytest.raises(np.linalg.LinAlgError, match="degenerate"):
                run_zoom(scaled)

    def test_subnormal_covariance_is_linalg_error(self):
        # At 1e-153 the loaded covariances are nonzero but below the normal range.
        scaled, _ = self._scaled(1e-153)
        with pytest.raises(np.linalg.LinAlgError, match="below the normal float range"):
            run_zoom(scaled)


class TestBatchedMatchesReference:
    """The one-call solve over all bins against the scalar per-bin oracle."""

    @staticmethod
    def _oracle_design(s1, s2, alpha):
        # Stacked-channel covariance, then one scalar solve per bin.
        stacked = np.stack([s1.coefficients, s2.coefficients])
        covs = np.einsum("afk,bfk->fab", stacked, stacked.conj()) / stacked.shape[2]
        loading = np.array(
            [LOADING_FACTOR * np.real(np.trace(m)) / 2.0 if alpha is None else alpha for m in covs]
        )
        weights = np.array([mpdr_weights_reference(m, np.ones(2), a) for m, a in zip(covs, loading)])
        return weights, loading

    @staticmethod
    def _outcome(solve):
        try:
            return solve(), None
        except (ValueError, np.linalg.LinAlgError) as exc:
            return None, (type(exc), str(exc))

    @pytest.mark.parametrize("alpha", [None, 1e-3])
    @pytest.mark.parametrize(
        "params", [StftParams(), StftParams(256, 128, "hann")], ids=["default", "256-128-hann"]
    )
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_design_matches_oracle(self, seed, params, alpha):
        mixture = default_scene(seed).mixture
        s1 = stft(mixture.channel(0), params)
        s2 = stft(mixture.channel(1), params)
        got = design_mpdr(s1, s2, alpha=alpha)
        weights, loading = self._oracle_design(s1, s2, alpha)
        assert np.array_equal(got.loading, loading)
        err = np.abs(got.weights - weights).max(axis=1)
        assert np.all(err <= 1e-14 * np.abs(weights).max(axis=1))

    @pytest.mark.parametrize(
        "bad", [None, "zero", "singular", "subnormal", "zero_steering", "negative_loading"]
    )
    def test_stack_errors_match_oracle(self, bad):
        rng = np.random.default_rng(11)
        covs = np.array([_random_psd(rng) for _ in range(9)])
        steering = np.array([_random_unit_steering(rng) for _ in range(9)])
        alpha = np.zeros(9)
        if bad == "zero":
            covs[4] = 0.0
        elif bad == "singular":
            covs[4] = np.outer(steering[4], steering[4].conj())
        elif bad == "subnormal":
            covs[4] = 1e-310 * np.eye(2)
        elif bad == "zero_steering":
            steering[4] = 0.0
        elif bad == "negative_loading":
            alpha[4] = -1.0
        got, got_error = self._outcome(lambda: mpdr_weights(covs, steering, alpha))
        want, want_error = self._outcome(
            lambda: np.array([mpdr_weights_reference(*args) for args in zip(covs, steering, alpha)])
        )
        assert got_error == want_error
        assert (got_error is None) == (bad is None)
        if bad is None:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize(
        "params", [StftParams(256, 128), StftParams(2048, 1024)], ids=["129-bins", "1025-bins"]
    )
    def test_design_solves_all_bins_in_one_call(self, monkeypatch, params):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return mpdr_weights(*args, **kwargs)

        monkeypatch.setattr(mpdr, "mpdr_weights", counting)
        mixture = default_scene(seed=1).mixture
        weights = design_mpdr(stft(mixture.channel(0), params), stft(mixture.channel(1), params))
        assert weights.weights.shape == (params.bin_count, 2)
        assert calls == [(params.bin_count, 2, 2)]
