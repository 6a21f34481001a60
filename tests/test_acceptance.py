"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime bound. Run with `pytest tests/test_acceptance.py -v`
for the per-criterion pass/fail lines (-s additionally shows the metric
printouts)."""

import time

import numpy as np
import pytest
from helpers import FS, block_lms_reference, default_scene

from audiozoom.blockthresh import (
    attenuation_factor,
    block_threshold_gains,
    enumerate_partitions,
    residual_variance,
)
from audiozoom.dsp import AudioBuffer, Spectrogram, StftParams, istft, stft
from audiozoom.gjbf import GjbfConfig, fdaf_gjbf, select_filter_length
from audiozoom.mpdr import apply_mpdr, design_mpdr, mpdr_weights
from audiozoom.pipeline import PipelineConfig, evaluate_scene, run_zoom
from audiozoom.simulate import MixtureSpec, SourceSpec, speech_like, synthesize_mixture, two_mic_array


def _report(number: int, message: str) -> None:
    print(f"CRITERION {number:2d} PASS: {message}")


def test_criterion_01_stft_perfect_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    x = rng.standard_normal(FS)  # 1 s
    params = StftParams(512, 256, "sqrt_hann")
    back = istft(stft(AudioBuffer(x, FS), params), length=x.size)
    err = np.abs(back.samples[0][512:-512] - x[512:-512]).max()
    elapsed = time.perf_counter() - start
    assert err <= 1e-9
    assert elapsed < 1.0
    _report(1, f"round-trip interior error {err:.2e} <= 1e-9 in {elapsed:.3f}s")


def test_criterion_02_mpdr_distortionless_and_optimal():
    start = time.perf_counter()
    scene = default_scene(seed=102, duration_s=2.0)
    params = StftParams()
    y1 = stft(scene.mixture.channel(0), params)
    y2 = stft(scene.mixture.channel(1), params)
    weights = design_mpdr(y1, y2)
    worst = weights.distortionless_error().max()
    assert worst <= 1e-9

    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(50):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        cov = a @ a.conj().T + 1e-3 * np.eye(2)
        d = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        w = mpdr_weights(cov, d, alpha=0.0)
        base = np.real(w.conj() @ cov @ w)
        probes = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
        corr = np.conj((1.0 - probes.conj() @ d) / (d.conj() @ d))
        probes = probes + corr[:, None] * d
        powers = np.real(np.einsum("na,ab,nb->n", probes.conj(), cov, probes))
        violations += int(np.sum(powers < base - 1e-9 * base))
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0
    _report(
        2,
        f"max |w^H d - 1| = {worst:.2e} <= 1e-9; 0/50000 constrained probes beat "
        f"the solution ({elapsed:.2f}s)",
    )


def test_criterion_03_fdaf_matches_block_lms_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    L, blocks = 8, 10
    config = GjbfConfig(filter_length=L, step_size=0.02, normalized=False)
    n = 2 * L + 1 + L * blocks
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    _, _, state = fdaf_gjbf(AudioBuffer(x1, FS), AudioBuffer(x2, FS), config)

    total = n + config.delay
    pad = -(-total // L) * L
    u = np.zeros(pad)
    u[:n] = x1 - x2
    d = np.zeros(pad)
    d[config.delay : config.delay + n] = 0.5 * (x1 + x2)
    trajectory = block_lms_reference(u, d, L, L, 0.02, pad // L)
    gap = np.abs(state.taps - trajectory[-1]).max()
    scale = np.abs(trajectory[-1]).max()
    elapsed = time.perf_counter() - start
    assert gap <= 1e-6 * scale
    assert elapsed < 1.0
    _report(3, f"tap trajectory gap {gap / scale:.2e} relative <= 1e-6 ({elapsed:.3f}s)")


def test_criterion_04_blocking_invariant_sample_exact():
    rng = np.random.default_rng(104)
    x = AudioBuffer(rng.standard_normal(FS), FS)
    z, y_b, state = fdaf_gjbf(x, x, GjbfConfig(filter_length=64))
    # The blocking path x - x is exactly zero inside the filter, so nothing adapts,
    # and z is the fixed path 0.5 * (x + x) == x.
    assert np.all(y_b.samples == 0.0)
    assert np.all(state.trajectory == 0.0)
    assert np.array_equal(z.samples, x.samples)
    _report(4, "identical channels: blocking path exactly zero, z == fixed path sample-exact")


def test_criterion_05_system_ordering_and_gain_margin():
    start = time.perf_counter()
    mpdr_osinr = []
    gjbf_osinr = []
    mpdr_gain = []
    gjbf_gain = []
    for seed in range(10):
        scene = default_scene(seed=seed, duration_s=2.0)
        rep_m, _ = evaluate_scene(
            scene.mixture,
            scene.target_image,
            scene.interference_plus_noise,
            PipelineConfig(beamformer="mpdr"),
        )
        rep_g, _ = evaluate_scene(
            scene.mixture,
            scene.target_image,
            scene.interference_plus_noise,
            PipelineConfig(beamformer="gjbf", gjbf=GjbfConfig(filter_length=250)),
        )
        mpdr_osinr.append(rep_m.osinr_db)
        gjbf_osinr.append(rep_g.osinr_db)
        mpdr_gain.append(rep_m.sinr_gain_db)
        gjbf_gain.append(rep_g.sinr_gain_db)
    elapsed = time.perf_counter() - start
    mean_m, mean_g = np.mean(mpdr_osinr), np.mean(gjbf_osinr)
    assert mean_m >= mean_g
    assert np.mean(mpdr_gain) >= 6.0
    assert np.mean(gjbf_gain) >= 6.0
    assert elapsed < 120.0
    _report(
        5,
        f"mean OSINR: MPDR+BT {mean_m:.2f} dB >= GJBF+BT {mean_g:.2f} dB; "
        f"gains {np.mean(mpdr_gain):.2f}/{np.mean(gjbf_gain):.2f} dB >= 6 dB "
        f"over 10 speech pairs ({elapsed:.1f}s)",
    )


def test_criterion_06_attenuation_rule_and_contraction():
    assert attenuation_factor(0.0) == 0.0
    assert attenuation_factor(1.0) == 0.5
    for seed in range(100):
        rng = np.random.default_rng(600 + seed)
        bins, frames = 65, 24
        coeffs = rng.standard_normal((bins, frames)) + 1j * rng.standard_normal((bins, frames))
        coeffs *= 10.0 ** rng.uniform(-3, 3)
        sigma2 = rng.uniform(0.0, 3.0, (bins, frames)) * 10.0 ** rng.uniform(-3, 3)
        spec = Spectrogram(coeffs, StftParams(128, 64), FS)
        out = spec.coefficients * block_threshold_gains(spec, sigma2).gains
        assert np.all(np.abs(out) <= np.abs(spec.coefficients))
    _report(6, "a(0)=0, a(1)=0.5 exact; |S| <= |Z| elementwise on 100 random spectrograms")


def test_criterion_07_partition_enumeration():
    tilings = enumerate_partitions(8, 16, 4)
    assert len(tilings) == 5
    labels = {t.shape_label for t in tilings}
    assert labels == {(16, 1), (8, 2), (4, 4), (2, 8), (1, 16)}
    for tiling in tilings:
        coverage = np.zeros((16, 8), dtype=int)
        for b0 in range(0, 16, tiling.sub_bins):
            for t0 in range(0, 8, tiling.sub_frames):
                coverage[b0 : b0 + tiling.sub_bins, t0 : t0 + tiling.sub_frames] += 1
        assert np.all(coverage == 1)
    _report(7, "P=8 x Q=16, H=4 gives exactly 5 exact tilings with the expected shapes")


def test_criterion_08_matched_noise_suppression():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(800 + trial)
        bins, frames = 65, 32
        sigma2 = rng.uniform(0.5, 2.0) * np.ones((bins, frames))
        if trial % 2:
            sigma2 *= np.linspace(0.5, 1.5, bins)[:, None]  # mildly colored noise floor
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((bins, frames)) + 1j * rng.standard_normal((bins, frames))
        )
        spec = Spectrogram(noise, StftParams(128, 64), FS)
        out = spec.coefficients * block_threshold_gains(spec, sigma2).gains
        ratio = float(
            np.sum(np.abs(out) ** 2) / np.sum(np.abs(spec.coefficients) ** 2)
        )
        worst = max(worst, ratio)
        assert ratio <= 0.05
    _report(8, f"pure-noise residual energy <= 5% of input on 10 seeded trials (worst {worst:.3%})")


def test_criterion_09_sweep_argmax_and_determinism():
    scene = default_scene(seed=109, duration_s=1.0)
    ch1, ch2 = scene.mixture.channel(0), scene.mixture.channel(1)
    candidates = [32, 64, 128, 192]
    best_a, curve_a, z_a, _ = select_filter_length(ch1, ch2, candidates, GjbfConfig(filter_length=32))
    best_b, curve_b, z_b, _ = select_filter_length(ch1, ch2, candidates, GjbfConfig(filter_length=32))
    values = dict(curve_a)
    assert len(curve_a) == len(candidates)
    assert values[best_a] == max(values.values())
    assert best_a == best_b
    assert curve_a == curve_b  # bit-identical under a fixed scene seed
    assert np.array_equal(z_a.samples, z_b.samples)
    _report(
        9,
        f"chosen length {best_a} attains the curve maximum; repeated sweep is bit-identical",
    )


def test_criterion_10_residual_variance_on_clean_broadside_scene():
    target = speech_like(2.0, FS, seed=110)
    scene = synthesize_mixture(
        MixtureSpec(target=SourceSpec(90.0, target)), two_mic_array(0.10)
    )
    result = run_zoom(scene.mixture, PipelineConfig(beamformer="mpdr", bt_enabled=False))
    sigma2 = result.sigma2
    mean_power = float(np.mean(np.abs(result.beamformed_spec.coefficients) ** 2))
    headroom_db = 10 * np.log10(max(sigma2.max(), 1e-300) / mean_power)
    assert sigma2.max() <= 1e-4 * mean_power
    _report(
        10,
        f"target-only broadside scene: peak residual variance {headroom_db:.1f} dB "
        "below mean output power (<= -40 dB)",
    )
