"""The benchmark's three seeded zoom workloads.

Every scene is made of ``speech_like`` talkers at 16 kHz: the target at 90
degrees (broadside), one interferer, and white sensor noise 30 dB below the
mixture. A workload makes its inputs from the seed in ``setup``; the
program only ever sees those generated inputs. ``op(i)`` is one timed
operation, ``check`` validates its output, and ``score`` computes the
quality figures outside the timed region.

A single scene's mse_db moves by about 1 dB from one seed to the next, so
each workload cycles through a pool of scenes and reports the mean over the
pool: that keeps the quality figure of a run steady across seeds.

Functions of the package are looked up through their modules at call time
(``pipeline.run_zoom``, not a name bound at import), so the tracer's
wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from audiozoom import dsp, metrics, pipeline, simulate, wav

FS = 16000
TARGET_AZIMUTH = 90.0
SENSOR_NOISE_SNR_DB = 30.0
ECHO_T60_S = 0.15
SWEEP_LENGTHS = pipeline.DEFAULT_SWEEP_LENGTHS


@dataclass
class Scene:
    mixture: dsp.AudioBuffer
    target_image: dsp.AudioBuffer
    residual_image: dsp.AudioBuffer  # interference plus sensor noise

    @property
    def reference(self) -> dsp.AudioBuffer:
        """Mono target image: the reference the scorer compares outputs with."""
        return dsp.AudioBuffer(self.target_image.samples.mean(axis=0), self.target_image.sample_rate)


@dataclass
class OpOutput:
    """What checking and scoring need from one operation. The heavy
    intermediates of its ZoomResult are not kept, so that the outputs held
    for scoring do not inflate the run's memory."""

    scene_index: int
    scene: Scene  # the scene the operation processed
    input_length: int
    output: dsp.AudioBuffer  # what the operation hands back to its caller
    zoomed: dsp.AudioBuffer  # run_zoom's output, before any normalisation
    config: pipeline.PipelineConfig
    gjbf_used: object  # GjbfConfig the run used, None for MPDR
    report: metrics.EvalReport | None = None


def _op_output(k, scene, input_length, output, result, report=None) -> OpOutput:
    return OpOutput(
        k, scene, input_length, output, result.output, result.config, result.gjbf_config_used, report
    )


def _talker(rng, duration_s) -> dsp.AudioBuffer:
    """A speech_like talker that is not all silence. A short one can be (its
    syllable and burst gates can both stay shut), and synthesize_mixture
    rightly rejects a silent target."""
    while True:
        talker = simulate.speech_like(duration_s, FS, seed=int(rng.integers(2**31)))
        if np.any(talker.samples):
            return talker


def _mixture_spec(rng, duration_s, azimuth, sir_db, echo) -> simulate.MixtureSpec:
    target, interferer = _talker(rng, duration_s), _talker(rng, duration_s)
    return simulate.MixtureSpec(
        target=simulate.SourceSpec(TARGET_AZIMUTH, target),
        interferers=(simulate.SourceSpec(azimuth, interferer, "interference"),),
        sir_db=sir_db,
        sensor_noise_snr_db=SENSOR_NOISE_SNR_DB,
        echo_taps=simulate.echo_taps_for_t60(ECHO_T60_S) if echo else (),
    )


def _scene(mix: simulate.MixtureResult) -> Scene:
    return Scene(mix.mixture, mix.target_image, mix.interference_plus_noise)


def _clip(scene: Scene, seconds: float) -> dsp.AudioBuffer:
    return dsp.AudioBuffer(scene.mixture.samples[:, : int(seconds * FS)], FS)


def _finite_mono(out: OpOutput) -> str | None:
    samples = out.output.samples
    if out.output.channel_count != 1:
        return f"output has {out.output.channel_count} channels"
    if out.output.length != out.input_length:
        return f"output length {out.output.length} != input length {out.input_length}"
    if not np.all(np.isfinite(samples)):
        return "output has non-finite samples"
    return None


class Workload:
    """Base: a pool of scenes that operations cycle through."""

    name = ""
    scene_seconds = 0.0
    n_scenes = 1

    def __init__(self, seed: int, workdir: str, scale: float = 1.0):
        self.workdir = workdir
        self.scale = scale
        self.audio_s = self.scene_seconds * scale  # input audio per operation
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpOutput:
        raise NotImplementedError

    def check(self, out: OpOutput) -> str | None:
        return _finite_mono(out)

    def score(self, out: OpOutput) -> dict:
        """mse_db of the output against the mono target image; when the
        operation scored itself, also its frozen-stage scores."""
        scores = {
            "mse_db": metrics.mse_db(out.output, out.scene.reference),
            "filter_length": out.gjbf_used.filter_length if out.gjbf_used else None,
        }
        if out.report is not None:
            scores.update(osinr_db=out.report.osinr_db, sinr_gain_db=out.report.sinr_gain_db)
        return scores

    @staticmethod
    def frozen_stage_scores(out: OpOutput) -> dict:
        """Frozen-stage osinr_db and sinr_gain_db (informational) from
        evaluate_scene on the operation's scene and configuration. The
        re-run must reproduce the operation's output exactly."""
        config = out.config
        if config.gjbf_auto_lengths:
            # Same run without the sweep: the chosen length gives the same output.
            config = replace(config, gjbf_auto_lengths=None, gjbf=out.gjbf_used)
        scene = out.scene
        report, rerun = pipeline.evaluate_scene(
            scene.mixture, scene.target_image, scene.residual_image, config
        )
        if not np.array_equal(rerun.output.samples, out.zoomed.samples):
            raise RuntimeError("scoring re-run does not reproduce the operation's output")
        return {"osinr_db": report.osinr_db, "sinr_gain_db": report.sinr_gain_db}


class LongMpdr(Workload):
    """What ``audiozoom zoom`` does on a 60 s two-channel WAV: read, MPDR with
    the post-filter, peak-normalise, write; over a pool of two WAVs written
    in set-up. The post-filter dominates and the time-frequency grid is the
    largest of all workloads; GJBF never runs."""

    name = "long_mpdr"
    scene_seconds = 60.0
    n_scenes = 2

    def setup(self) -> None:
        self.paths, self.scenes = [], []
        for k in range(self.n_scenes):
            spec = _mixture_spec(self.rng, self.audio_s, 60.0, 0.0, echo=False)
            noise_seed = int(self.rng.integers(2**31))
            mix = simulate.synthesize_mixture(spec, simulate.two_mic_array(), seed=noise_seed)
            path = os.path.join(self.workdir, f"long_mixture_{k}.wav")
            wav.write_wav(path, mix.mixture)
            # Scored against what the operation reads: the mixture as stored in the WAV.
            self.paths.append(path)
            self.scenes.append(Scene(wav.read_wav(path), mix.target_image, mix.interference_plus_noise))
        self.output_path = os.path.join(self.workdir, "long_zoomed.wav")
        self.config = pipeline.PipelineConfig(beamformer="mpdr")

    def warm_up(self) -> None:
        path = os.path.join(self.workdir, "warm_up.wav")
        wav.write_wav(path, _clip(self.scenes[0], 2.0 * self.scale))
        self._zoom(path)

    def _zoom(self, path: str) -> tuple:
        mixture = wav.read_wav(path)
        result = pipeline.run_zoom(mixture, self.config)
        normalized, _ = pipeline.normalize_peak(result.output)
        wav.write_wav(self.output_path, normalized)
        return mixture, result, normalized

    def op(self, index: int) -> OpOutput:
        k = index % self.n_scenes
        mixture, result, normalized = self._zoom(self.paths[k])
        return _op_output(k, self.scenes[k], mixture.length, normalized, result)

    def check(self, out: OpOutput) -> str | None:
        error = _finite_mono(out)
        if error is None and np.max(np.abs(out.output.samples)) > 1.0:
            return "normalised output peaks above 1"
        return error


class GjbfAuto(Workload):
    """GJBF with the filter-length sweep (seven FDAF runs per operation, on the
    sweep's thread pool) and the post-filter, on 10 s scenes at 0 dB SIR with
    an echo tail. MPDR never runs; the post-filter is a minor share."""

    name = "gjbf_auto"
    scene_seconds = 10.0
    n_scenes = 6

    def setup(self) -> None:
        self.scenes = []
        for _ in range(self.n_scenes):
            spec = _mixture_spec(self.rng, self.audio_s, 60.0, 0.0, echo=True)
            noise_seed = int(self.rng.integers(2**31))
            mix = simulate.synthesize_mixture(spec, simulate.two_mic_array(), seed=noise_seed)
            self.scenes.append(_scene(mix))
        self.config = pipeline.PipelineConfig(beamformer="gjbf", gjbf_auto_lengths=SWEEP_LENGTHS)

    def warm_up(self) -> None:
        pipeline.run_zoom(_clip(self.scenes[0], 1.0), self.config)

    def op(self, index: int) -> OpOutput:
        k = index % self.n_scenes
        scene = self.scenes[k]
        result = pipeline.run_zoom(scene.mixture, self.config)
        return _op_output(k, scene, scene.mixture.length, result.output, result)

    def check(self, out: OpOutput) -> str | None:
        error = _finite_mono(out)
        if error is None and out.gjbf_used.filter_length not in SWEEP_LENGTHS:
            return f"sweep chose {out.gjbf_used.filter_length}, not a candidate"
        return error


class ShortScored(Workload):
    """Simulate a 2 s scene with echo and noise, then score it with
    evaluate_scene; operations alternate MPDR and fixed-length GJBF. Fixed
    per-call costs, the simulator and the scorer dominate here.

    The interferer azimuth and the SIR are drawn per scene from a fixed
    stratified grid (8 azimuth strata in 20..80 degrees times 6 SIR strata in
    -6..6 dB, each scene jittered within its cell), once per beamformer.
    Stratifying keeps the pool's mean quality steady across seeds.
    """

    name = "short_scored"
    scene_seconds = 2.0
    n_scenes = 96
    _AZIMUTH_CELLS = 8  # of 7.5 degrees from 20
    _SIR_CELLS = 6  # of 2 dB from -6

    def setup(self) -> None:
        self.geometry = simulate.two_mic_array()
        configs = (
            pipeline.PipelineConfig(beamformer="mpdr"),
            pipeline.PipelineConfig(beamformer="gjbf"),
        )
        self.entries = []
        for k in range(self.n_scenes):
            cell = k // 2
            azimuth = 20.0 + 7.5 * (cell % self._AZIMUTH_CELLS + self.rng.uniform())
            sir_db = -6.0 + 2.0 * (cell // self._AZIMUTH_CELLS + self.rng.uniform())
            spec = _mixture_spec(self.rng, self.audio_s, azimuth, sir_db, echo=True)
            self.entries.append((spec, int(self.rng.integers(2**31)), configs[k % 2]))

    def warm_up(self) -> None:
        # One whole operation per beamformer. A clip of a talker can be all
        # silence, which synthesize_mixture rightly rejects.
        for k in range(2):
            self.op(k)

    def op(self, index: int) -> OpOutput:
        k = index % self.n_scenes
        spec, noise_seed, config = self.entries[k]
        mix = simulate.synthesize_mixture(spec, self.geometry, seed=noise_seed)
        report, result = pipeline.evaluate_scene(
            mix.mixture, mix.target_image, mix.interference_plus_noise, config
        )
        return _op_output(k, _scene(mix), mix.mixture.length, result.output, result, report)

    def check(self, out: OpOutput) -> str | None:
        error = _finite_mono(out)
        if error is not None:
            return error
        report = out.report
        if not all(math.isfinite(v) for v in (report.osinr_db, report.sinr_gain_db, report.mse_db)):
            return "report has non-finite scores"
        if metrics.mse_db(out.output, out.scene.reference) != report.mse_db:
            return "report mse_db differs from the mse_db of the output"
        return None


WORKLOADS = {w.name: w for w in (LongMpdr, GjbfAuto, ShortScored)}
