"""End-to-end pipeline and command-line tests."""

import os
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import FS, block_threshold_reference, default_scene, run_zoom_reference, usable_cpus
from scipy.io import wavfile

from audiozoom import gjbf, pipeline
from audiozoom.cli import _SETTINGS, _write_matrix_csv, main
from audiozoom.dsp import AudioBuffer, istft, stft
from audiozoom.gjbf import GjbfConfig, apply_gjbf, fdaf_gjbf
from audiozoom.metrics import EvalReport, decompose_linear
from audiozoom.mpdr import apply_mpdr
from audiozoom.pipeline import (
    DEFAULT_SWEEP_LENGTHS,
    PipelineConfig,
    evaluate_scene,
    frozen_stage,
    normalize_peak,
    run_zoom,
)
from audiozoom.simulate import echo_taps_for_t60, speech_like
from audiozoom.wav import read_wav, write_wav


class TestRunZoom:
    def test_mono_input_rejected(self):
        mono = AudioBuffer(np.zeros(FS), FS)
        with pytest.raises(ValueError, match="two channels"):
            run_zoom(mono, PipelineConfig())

    def test_bt_never_increases_energy(self):
        scene = default_scene(seed=20, duration_s=1.0)
        on = run_zoom(scene.mixture, PipelineConfig(bt_enabled=True))
        off = run_zoom(scene.mixture, PipelineConfig(bt_enabled=False))
        assert np.sum(on.output.samples**2) <= np.sum(off.output.samples**2)

    def test_deterministic(self):
        scene = default_scene(seed=21, duration_s=1.0)
        a = run_zoom(scene.mixture, PipelineConfig())
        b = run_zoom(scene.mixture, PipelineConfig())
        assert np.array_equal(a.output.samples, b.output.samples)

    def test_auto_length_runs_sweep(self):
        scene = default_scene(seed=22, duration_s=1.0)
        config = PipelineConfig(
            beamformer="gjbf",
            gjbf=GjbfConfig(filter_length=32),
            gjbf_auto_lengths=(32, 64, 128),
            bt_enabled=False,
        )
        result = run_zoom(scene.mixture, config)
        assert result.sweep_curve is not None and len(result.sweep_curve) == 3
        best = min(result.sweep_curve, key=lambda lv: (-lv[1], lv[0]))[0]
        assert result.gjbf_config_used.filter_length == best

    @pytest.mark.parametrize("lengths", [(32, 64), (50, 100, 150, 200, 250, 300)])
    def test_auto_length_runs_each_candidate_once(self, monkeypatch, lengths):
        # The sweep hands its winning run to run_zoom, which filters no more.
        scene = default_scene(seed=24, duration_s=1.0)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2].filter_length)
            return fdaf_gjbf(*args, **kwargs)

        monkeypatch.setattr(gjbf, "fdaf_gjbf", counted)
        monkeypatch.setattr(pipeline, "fdaf_gjbf", counted)
        auto = run_zoom(scene.mixture, PipelineConfig(beamformer="gjbf", gjbf_auto_lengths=lengths))
        assert sorted(calls) == sorted(lengths)
        fixed = run_zoom(scene.mixture, PipelineConfig(beamformer="gjbf", gjbf=auto.gjbf_config_used))
        assert len(calls) == len(lengths) + 1
        assert np.array_equal(auto.output.samples, fixed.output.samples)
        assert np.array_equal(auto.beamformed.samples, fixed.beamformed.samples)
        assert np.array_equal(auto.gjbf_state.trajectory, fixed.gjbf_state.trajectory)

    def test_report_gain_identity(self):
        scene = default_scene(seed=23, duration_s=1.0)
        report, _ = evaluate_scene(
            scene.mixture, scene.target_image, scene.interference_plus_noise, PipelineConfig()
        )
        assert report.sinr_gain_db == pytest.approx(
            report.osinr_db - report.input_sinr_db, abs=1e-9
        )

    def test_normalize_peak(self):
        buf = AudioBuffer(0.1 * np.sin(np.linspace(0, 20, 1000)), FS)
        normalized, gain = normalize_peak(buf)
        assert np.max(np.abs(normalized.samples)) == pytest.approx(10 ** (-1 / 20), rel=1e-12)
        assert gain > 1.0

    @pytest.mark.parametrize("peak_sign", [-1.0, 1.0, 0.0])
    def test_normalize_peak_matches_the_abs_form(self, peak_sign):
        # Oracle: the peak as np.max(np.abs(x)), as normalize_peak took it before.
        x = np.random.default_rng(9).uniform(-0.3, 0.3, (2, 1000))
        x[1, 517] = 0.7 * peak_sign
        if peak_sign == 0.0:
            x[:] = 0.0
        peak = float(np.max(np.abs(x)))
        want_gain = 1.0 if peak == 0.0 else 10.0 ** (pipeline.OUTPUT_PEAK_DBFS / 20.0) / peak
        normalized, gain = normalize_peak(AudioBuffer(x, FS))
        assert gain == want_gain
        assert normalized.samples.tobytes() == (x * want_gain if peak else x).tobytes()


FROZEN_GJBF_CONFIGS = {
    "default": GjbfConfig(),
    "L64-B32": GjbfConfig(filter_length=64, block_size=32),
    "L50-B80": GjbfConfig(filter_length=50, block_size=80),
    "leak": GjbfConfig(leak=0.01),
    "fixed-step": GjbfConfig(normalized=False, step_size=0.002),
}


class TestFrozenStage:
    """The scorer's stage is the beamformer that ran: on the mixture it gives result.beamformed."""

    @staticmethod
    def _mixture(seed):
        echo = echo_taps_for_t60(0.3) if seed % 2 else ()
        return default_scene(seed, duration_s=2.0, echo_taps=echo).mixture

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_mpdr_reproduces_beamformed_exactly(self, seed):
        mixture = self._mixture(seed)
        result = run_zoom(mixture, PipelineConfig(beamformer="mpdr", bt_enabled=False))
        assert np.array_equal(frozen_stage(result)(mixture).samples, result.beamformed.samples)

    @pytest.mark.parametrize("name", FROZEN_GJBF_CONFIGS)
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_gjbf_reproduces_beamformed(self, seed, name):
        mixture = self._mixture(seed)
        config = PipelineConfig(beamformer="gjbf", gjbf=FROZEN_GJBF_CONFIGS[name], bt_enabled=False)
        result = run_zoom(mixture, config)
        got = frozen_stage(result)(mixture).samples
        want = result.beamformed.samples
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("beamformer", ["mpdr", "gjbf"])
    def test_evaluate_scene_runs_stage_on_the_two_images_only(self, monkeypatch, beamformer):
        scene = default_scene(seed=24, duration_s=1.0)
        inputs = []

        def counting_decompose_linear(stage, *args, **kwargs):
            return decompose_linear(lambda buffer: inputs.append(buffer) or stage(buffer), *args, **kwargs)

        monkeypatch.setattr(pipeline, "decompose_linear", counting_decompose_linear)
        residual = scene.interference_plus_noise
        evaluate_scene(scene.mixture, scene.target_image, residual, PipelineConfig(beamformer=beamformer))
        assert len(inputs) == 2
        assert inputs[0] is scene.target_image
        assert inputs[1] is residual


class TestPostFilterScore:
    """The post-filter stage is scored on waveforms that sum to result.output."""

    @staticmethod
    def _scene(seed):
        echo = echo_taps_for_t60(0.3) if seed % 2 else ()
        return default_scene(seed, duration_s=2.0, echo_taps=echo)

    @pytest.mark.parametrize("beamformer", ["mpdr", "gjbf"])
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_osinr_is_the_time_domain_figure(self, seed, beamformer):
        scene = self._scene(seed)
        report, result = evaluate_scene(
            scene.mixture, scene.target_image, scene.interference_plus_noise,
            PipelineConfig(beamformer=beamformer),
        )
        # The target's share of the spectrogram the post-filter multiplied, built from the run.
        params = result.config.stft
        t1, t2 = (scene.target_image.channel(m) for m in range(2))
        if beamformer == "mpdr":
            share = apply_mpdr(stft(t1, params), stft(t2, params), result.mpdr_weights)
        else:
            share = stft(apply_gjbf(t1, t2, result.gjbf_state), params)
        gained = share.with_coefficients(share.coefficients * result.block_grid.gains)
        target = istft(gained, length=scene.mixture.length).samples[0]
        residual = result.output.samples[0] - target
        want = 10.0 * np.log10(np.sum(target**2) / np.sum(residual**2))
        assert report.osinr_db == pytest.approx(want, abs=1e-9)
        assert report.sinr_gain_db == pytest.approx(want - report.input_sinr_db, abs=1e-9)

    # No more transforms than the scorer that gained both parts' spectrograms
    # made (MPDR 8 stft + 4 istft, GJBF 5 + 1): inverting the gained target
    # share costs one istft, and the residual's stft is no longer made.
    @pytest.mark.parametrize("beamformer, budget", [("mpdr", (6, 5)), ("gjbf", (4, 2))])
    def test_transform_budget(self, monkeypatch, beamformer, budget):
        scene = self._scene(3)
        calls = {"stft": 0, "istft": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(pipeline, "stft", counted("stft", stft))
        monkeypatch.setattr(pipeline, "istft", counted("istft", istft))
        evaluate_scene(
            scene.mixture, scene.target_image, scene.interference_plus_noise,
            PipelineConfig(beamformer=beamformer),
        )
        assert (calls["stft"], calls["istft"]) == budget


def _counting_istft(monkeypatch) -> list:
    calls = []

    def counting(spec, length=None):
        calls.append(spec)
        return istft(spec, length)

    monkeypatch.setattr(pipeline, "istft", counting)
    return calls


class TestBeamformedWaveform:
    """MPDR with the post-filter inverts its beamformed spectrogram only when it is read."""

    def test_mpdr_post_filter_inverts_on_first_read_only(self, monkeypatch):
        mixture = default_scene(seed=25, duration_s=1.0).mixture
        calls = _counting_istft(monkeypatch)
        result = run_zoom(mixture, PipelineConfig(beamformer="mpdr"))
        assert len(calls) == 1
        first = result.beamformed
        assert len(calls) == 2 and calls[1] is result.beamformed_spec
        assert first.length == mixture.length
        assert result.beamformed is first
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "beamformer, bt_enabled, inversions", [("mpdr", False, 1), ("gjbf", True, 1), ("gjbf", False, 0)]
    )
    def test_waveform_made_on_the_way_is_kept(self, monkeypatch, beamformer, bt_enabled, inversions):
        mixture = default_scene(seed=26, duration_s=1.0).mixture
        calls = _counting_istft(monkeypatch)
        result = run_zoom(mixture, PipelineConfig(beamformer=beamformer, bt_enabled=bt_enabled))
        waveform = result.beamformed
        assert len(calls) == inversions
        if not bt_enabled:
            assert waveform is result.output

    @pytest.mark.parametrize("bt_enabled", [True, False])
    @pytest.mark.parametrize("beamformer", ["mpdr", "gjbf"])
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_arrays_match_eager_form(self, seed, beamformer, bt_enabled):
        mixture = TestFrozenStage._mixture(seed)
        config = PipelineConfig(beamformer=beamformer, bt_enabled=bt_enabled)
        result = run_zoom(mixture, config)
        got = {
            "output": result.output.samples,
            "beamformed": result.beamformed.samples,
            "beamformed_spec": result.beamformed_spec.coefficients,
            "sigma2": result.sigma2,
        }
        if bt_enabled:
            got.update(gains=result.block_grid.gains, choices=result.block_grid.choices)
        if beamformer == "mpdr":
            got["weights"] = result.mpdr_weights.weights
        else:
            got["trajectory"] = result.gjbf_state.trajectory
        want = run_zoom_reference(mixture, config)
        assert got.keys() == want.keys()
        for name, array in want.items():
            assert got[name].dtype == array.dtype and np.array_equal(got[name], array), name

    # tracemalloc peak of one run over one beamformed spectrogram's bytes. With
    # the MPDR waveform inverted eagerly and the channel spectra kept to the end
    # it read 7.6 (mpdr) and 8.6 (gjbf); then 5.1 and 6.6, and with the STFT,
    # the iSTFT and the MPDR apply working through one chunk buffer each it
    # reads 3.7 and 5.2. With the channel spectra built before the length sweep
    # gjbf-auto read about 12; with the candidates on a pool of up to four
    # threads it read 10.3, and run one at a time it reads 7.3. With chunks
    # sized by CHUNK_BYTES, mpdr and gjbf read 3.74-3.75 and 5.23-5.24 at 1, 2
    # and 3 spans.
    @pytest.mark.parametrize(
        "beamformer, bound", [("mpdr", 4.0), ("gjbf", 5.5), ("gjbf-auto", 8.0)]
    )
    def test_peak_memory_in_spectrogram_sizes(self, beamformer, bound):
        mixture = default_scene(seed=5, duration_s=10.0).mixture
        if beamformer == "gjbf-auto":
            config = PipelineConfig(beamformer="gjbf", gjbf_auto_lengths=DEFAULT_SWEEP_LENGTHS)
        else:
            config = PipelineConfig(beamformer=beamformer)
        run_zoom(mixture, config)  # first-call caches are not the run's memory
        for count in (1, 2, 3):
            with usable_cpus(count):
                tracemalloc.start()
                try:
                    result = run_zoom(mixture, config)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= bound * result.beamformed_spec.coefficients.nbytes, count


# The zoom flags that run the filter-length sweep.
_SWEEP = ["--beamformer", "gjbf", "--gjbf-length", "auto"]


def _write_scene_inputs(tmp_path, seed=30, duration=1.0):
    target = speech_like(duration, FS, seed=seed)
    interferer = speech_like(duration, FS, seed=seed + 1000)
    write_wav(tmp_path / "target.wav", target)
    write_wav(tmp_path / "interf.wav", interferer)
    scenario = tmp_path / "scene.txt"
    scenario.write_text(
        "target=target.wav,90\n"
        "interferer=interf.wav,60\n"
        "sir_db=0\n"
        "seed=3\n"
    )
    return scenario


class TestCliSimulate:
    def test_writes_files_with_realized_sir(self, tmp_path, capsys):
        scenario = _write_scene_inputs(tmp_path)
        out_prefix = str(tmp_path / "out" / "run_")
        assert main(["simulate", str(scenario), out_prefix]) == 0
        printed = capsys.readouterr().out
        assert os.path.exists(out_prefix + "mixture.wav")
        assert os.path.exists(out_prefix + "target_img.wav")
        assert os.path.exists(out_prefix + "interf_img.wav")
        realized = [l for l in printed.splitlines() if l.startswith("realized_sir_db=")]
        assert abs(float(realized[0].split("=")[1])) <= 0.01

    def test_no_interferer_gives_silent_image(self, tmp_path):
        target = speech_like(0.5, FS, seed=31)
        write_wav(tmp_path / "target.wav", target)
        scenario = tmp_path / "solo.txt"
        scenario.write_text("target=target.wav,90\n")
        prefix = str(tmp_path / "solo_")
        assert main(["simulate", str(scenario), prefix]) == 0
        image = read_wav(prefix + "interf_img.wav")
        assert np.all(image.samples == 0)

    def test_same_seed_bit_identical(self, tmp_path):
        scenario = _write_scene_inputs(tmp_path)
        a_prefix = str(tmp_path / "a_")
        b_prefix = str(tmp_path / "b_")
        assert main(["simulate", str(scenario), a_prefix]) == 0
        assert main(["simulate", str(scenario), b_prefix]) == 0
        a = Path(a_prefix + "mixture.wav").read_bytes()
        b = Path(b_prefix + "mixture.wav").read_bytes()
        assert a == b

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("target=missing\n")
        assert main(["simulate", str(bad), str(tmp_path / "x_")]) == 2
        assert "bad.txt:1" in capsys.readouterr().err

    def test_missing_wav_exit_code(self, tmp_path):
        scenario = tmp_path / "scene.txt"
        scenario.write_text("target=nowhere.wav,90\n")
        assert main(["simulate", str(scenario), str(tmp_path / "x_")]) == 2

    @pytest.mark.parametrize(
        "line, key",
        [
            ("sound_speed=inf", "sound_speed"),
            ("sound_speed=nan", "sound_speed"),
            ("echo_t60_ms=nan", "echo_t60_ms"),
            ("echo_t60_ms=inf", "echo_t60_ms"),
            ("sensor_noise_snr_db=nan", "sensor_noise_snr_db"),
            ("sensor_noise_snr_db=-inf", "sensor_noise_snr_db"),
            ("sensor_noise_snr_db=inf", "sensor_noise_snr_db"),
        ],
    )
    def test_non_finite_scenario_value_exit_code(self, tmp_path, capsys, line, key):
        scenario = _write_scene_inputs(tmp_path, duration=0.25)
        scenario.write_text(scenario.read_text() + line + "\n")
        prefix = str(tmp_path / "x_")
        assert main(["simulate", str(scenario), prefix]) == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(prefix + "mixture.wav")


class TestCliZoom:
    def _identical_channel_wav(self, tmp_path, seed=32):
        x = speech_like(1.0, FS, seed=seed)
        stereo = AudioBuffer(np.vstack([x.samples[0], x.samples[0]]), FS)
        path = tmp_path / "ident.wav"
        write_wav(path, stereo)
        return path

    def test_identical_channels_gjbf_passthrough(self, tmp_path, capsys):
        path = self._identical_channel_wav(tmp_path)
        out = tmp_path / "out.wav"
        code = main(
            ["zoom", str(path), str(out), "--beamformer", "gjbf", "--gjbf-length", "128",
             "--bt-enabled", "false"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        gain = float(
            [l for l in printed.splitlines() if l.startswith("normalization_gain=")][0].split("=")[1]
        )
        got = read_wav(out).samples[0] / gain
        want = read_wav(path).samples[0]
        assert np.abs(got - want).max() <= 1e-6

    def test_effective_config_echoed(self, tmp_path, capsys):
        path = self._identical_channel_wav(tmp_path, seed=33)
        out = tmp_path / "out.wav"
        assert main(["zoom", str(path), str(out), "--bt-threshold", "2.0"]) == 0
        printed = capsys.readouterr().out
        assert "config bt_threshold=2.0" in printed
        assert "config beamformer=mpdr" in printed

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        path = self._identical_channel_wav(tmp_path, seed=34)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beamformer=gjbf\ngjbf_length=64\nbt_enabled=false\n# comment\n")
        out = tmp_path / "out.wav"
        assert main(["zoom", str(path), str(out), "--config", str(cfg), "--gjbf-length", "96"]) == 0
        printed = capsys.readouterr().out
        assert "config beamformer=gjbf" in printed
        assert "config gjbf_length=96" in printed

    def test_bt_reduces_energy(self, tmp_path, capsys):
        scenario = _write_scene_inputs(tmp_path, seed=35)
        prefix = str(tmp_path / "scene_")
        main(["simulate", str(scenario), prefix])
        capsys.readouterr()
        out_on = tmp_path / "on.wav"
        out_off = tmp_path / "off.wav"
        assert main(["zoom", prefix + "mixture.wav", str(out_on), "--bt-enabled", "true"]) == 0
        on_text = capsys.readouterr().out
        assert main(["zoom", prefix + "mixture.wav", str(out_off), "--bt-enabled", "false"]) == 0
        off_text = capsys.readouterr().out

        def raw_energy(path, text):
            gain = float(
                [l for l in text.splitlines() if l.startswith("normalization_gain=")][0].split("=")[1]
            )
            samples = read_wav(path).samples[0] / gain
            return float(np.sum(samples**2))

        assert raw_energy(out_on, on_text) <= raw_energy(out_off, off_text)

    def test_dump_files(self, tmp_path, capsys):
        path = self._identical_channel_wav(tmp_path, seed=36)
        out = tmp_path / "out.wav"
        dump = str(tmp_path / "dump" / "d_")
        assert main(["zoom", str(path), str(out), "--dump", dump]) == 0
        for name in ("beamformed_mag.csv", "output_mag.csv", "bt_gains.csv", "bt_blocks.csv"):
            assert os.path.exists(dump + name)
        assert not os.path.exists(dump + "sweep.csv")  # written only when the length sweep ran
        with open(dump + "bt_gains.csv") as handle:
            header = handle.readline()
        assert header.startswith("bin,frame_0,")

    def test_dump_matches_reference_post_filter(self, tmp_path, capsys):
        path = tmp_path / "mix.wav"
        write_wav(path, default_scene(seed=2).mixture, sample_format="float64")
        dump = str(tmp_path / "d_")
        assert main(["zoom", str(path), str(tmp_path / "out.wav"), "--dump", dump]) == 0
        result = run_zoom(read_wav(path))
        want = block_threshold_reference(result.beamformed_spec, result.sigma2)
        _write_matrix_csv(tmp_path / "want_gains.csv", want.gains)
        blocks = ["bin_start,frame_start,bins,frames,levels,v\n"] + [
            ",".join(str(value) for value in record) + "\n" for record in want.choices.tolist()
        ]
        assert Path(dump + "bt_blocks.csv").read_bytes() == "".join(blocks).encode()
        want_gains = (tmp_path / "want_gains.csv").read_bytes()
        assert Path(dump + "bt_gains.csv").read_bytes() == want_gains

    def test_output_mag_dump_is_post_filtered_magnitude(self, tmp_path, capsys):
        path = tmp_path / "mix.wav"
        write_wav(path, default_scene(seed=2).mixture, sample_format="float64")
        dump = str(tmp_path / "d_")
        assert main(["zoom", str(path), str(tmp_path / "out.wav"), "--dump", dump]) == 0
        result = run_zoom(read_wav(path))
        gains = block_threshold_reference(result.beamformed_spec, result.sigma2).gains
        _write_matrix_csv(tmp_path / "want.csv", np.abs(result.beamformed_spec.coefficients * gains))
        assert Path(dump + "output_mag.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("beamformer", ["mpdr", "gjbf"])
    def test_dumps_and_output_match_eager_form(self, tmp_path, capsys, beamformer):
        path = tmp_path / "mix.wav"
        write_wav(path, default_scene(seed=2).mixture, sample_format="float64")
        dump, out = str(tmp_path / "d_"), tmp_path / "out.wav"
        assert main(["zoom", str(path), str(out), "--beamformer", beamformer, "--dump", dump]) == 0
        want = run_zoom_reference(read_wav(path), PipelineConfig(beamformer=beamformer))
        spec, gains = want["beamformed_spec"], want["gains"]
        matrices = {
            "beamformed_mag.csv": np.abs(spec),
            "output_mag.csv": np.abs(spec * gains),
            "bt_gains.csv": gains,
        }
        for name, matrix in matrices.items():
            _write_matrix_csv(tmp_path / name, matrix)
            assert Path(dump + name).read_bytes() == (tmp_path / name).read_bytes(), name
        blocks = ["bin_start,frame_start,bins,frames,levels,v\n"] + [
            ",".join(str(value) for value in record) + "\n" for record in want["choices"].tolist()
        ]
        assert Path(dump + "bt_blocks.csv").read_bytes() == "".join(blocks).encode()
        normalized, _ = normalize_peak(AudioBuffer(want["output"], FS))
        write_wav(tmp_path / "want.wav", normalized)
        assert out.read_bytes() == (tmp_path / "want.wav").read_bytes()

    def test_mono_input_exit_code(self, tmp_path):
        x = speech_like(0.5, FS, seed=37)
        path = tmp_path / "mono.wav"
        write_wav(path, x)
        assert main(["zoom", str(path), str(tmp_path / "o.wav")]) == 2

    @pytest.mark.parametrize("beamformer", ["mpdr", "gjbf"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_data_error(self, tmp_path, capsys, bad, beamformer):
        samples = default_scene(seed=1).mixture.samples.astype(np.float32)
        samples[0, 1000] = bad
        path = tmp_path / "bad.wav"
        wavfile.write(path, FS, samples.T)
        out = tmp_path / "o.wav"
        assert main(["zoom", str(path), str(out), "--beamformer", beamformer]) == 2
        assert "samples must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["zoom"])  # missing positionals
        assert err.value.code == 1


class TestCliEval:
    def _scene_files(self, tmp_path, capsys, seed=38, duration=2.0):
        scenario = _write_scene_inputs(tmp_path, seed=seed, duration=duration)
        prefix = str(tmp_path / "s_")
        main(["simulate", str(scenario), prefix])
        capsys.readouterr()
        return prefix

    def test_target_image_scores_cap(self, tmp_path, capsys):
        prefix = self._scene_files(tmp_path, capsys)
        target = read_wav(prefix + "target_img.wav")
        mono = AudioBuffer(target.samples.mean(axis=0), target.sample_rate)
        est_path = tmp_path / "perfect.wav"
        write_wav(est_path, mono, sample_format="float64")
        code = main(
            ["eval", str(est_path), prefix + "target_img.wav", prefix + "interf_img.wav"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        mse_line = [l for l in printed.splitlines() if l.startswith("mse_db")][0]
        assert float(mse_line.split("=")[1].split()[0]) <= -200.0

    def test_mixture_channel_scores_near_zero(self, tmp_path, capsys):
        prefix = self._scene_files(tmp_path, capsys, seed=39)
        mix = read_wav(prefix + "mixture.wav")
        est_path = tmp_path / "mix_ch1.wav"
        write_wav(est_path, mix.channel(0), sample_format="float64")
        assert main(
            ["eval", str(est_path), prefix + "target_img.wav", prefix + "interf_img.wav"]
        ) == 0
        printed = capsys.readouterr().out
        osinr_line = [l for l in printed.splitlines() if l.startswith("osinr_db")][0]
        assert abs(float(osinr_line.split("=")[1].split()[0])) <= 0.5

    def test_report_csv_contains_all_fields(self, tmp_path, capsys):
        prefix = self._scene_files(tmp_path, capsys, seed=40, duration=1.0)
        out = tmp_path / "z.wav"
        main(["zoom", prefix + "mixture.wav", str(out)])
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(
            ["eval", str(out), prefix + "target_img.wav", prefix + "interf_img.wav",
             "--report", str(report)]
        ) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == (
            "input_sinr_db,osinr_db,sinr_gain_db,mse_db,osinr_beamformer_db,mse_beamformer_db"
        )
        assert len(lines[1].split(",")) == 6

    def _eval_report(self, tmp_path, capsys, report):
        prefix = self._scene_files(tmp_path, capsys, seed=44, duration=0.5)
        mix = read_wav(prefix + "mixture.wav")
        est_path = tmp_path / "mix_ch1.wav"
        write_wav(est_path, mix.channel(0))
        return main(
            ["eval", str(est_path), prefix + "target_img.wav", prefix + "interf_img.wav",
             "--report", str(report)]
        )

    def test_report_appends_under_its_own_header(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert self._eval_report(tmp_path, capsys, report) == 0
        assert self._eval_report(tmp_path, capsys, report) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == EvalReport.csv_header()
        assert len(lines) == 3 and lines[1] == lines[2]

    def test_report_into_empty_file_writes_header(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_text("")
        assert self._eval_report(tmp_path, capsys, report) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == EvalReport.csv_header() and len(lines) == 2

    def test_report_refuses_foreign_csv(self, tmp_path, capsys):
        report = tmp_path / "foreign.csv"
        report.write_text("a,b\n1,2\n")
        assert self._eval_report(tmp_path, capsys, report) == 2
        assert "is not an eval report" in capsys.readouterr().err
        assert report.read_text() == "a,b\n1,2\n"

    def test_zoom_then_eval_shows_positive_gain(self, tmp_path, capsys):
        prefix = self._scene_files(tmp_path, capsys, seed=41)
        out = tmp_path / "z.wav"
        main(["zoom", prefix + "mixture.wav", str(out)])
        capsys.readouterr()
        main(["eval", str(out), prefix + "target_img.wav", prefix + "interf_img.wav"])
        printed = capsys.readouterr().out
        gain_line = [l for l in printed.splitlines() if l.startswith("sinr_gain_db")][0]
        assert float(gain_line.split("=")[1].split()[0]) > 0.0

    def test_length_mismatch_exit_code(self, tmp_path, capsys):
        prefix = self._scene_files(tmp_path, capsys, seed=42, duration=1.0)
        est = AudioBuffer(np.zeros(FS // 2), FS)
        est_path = tmp_path / "short.wav"
        write_wav(est_path, est)
        assert main(
            ["eval", str(est_path), prefix + "target_img.wav", prefix + "interf_img.wav"]
        ) == 2


    def test_negative_max_shift_is_usage_error(self, tmp_path, capsys):
        prefix = self._scene_files(tmp_path, capsys, seed=43, duration=1.0)
        mix = read_wav(prefix + "mixture.wav")
        est_path = tmp_path / "mix_ch1.wav"
        write_wav(est_path, mix.channel(0))
        with pytest.raises(SystemExit) as err:
            main(["eval", str(est_path), prefix + "target_img.wav", prefix + "interf_img.wav",
                  "--max-shift", "-5"])
        assert err.value.code == 1
        assert "--max-shift: expected a nonnegative integer, got '-5'" in capsys.readouterr().err


# WAV files cut short inside their header: after four bytes of the RIFF size,
# and two bytes into the fmt chunk.
_CUT_WAVS = {
    "riff_size": b"RIFF\x00",
    "fmt_chunk": b"RIFF" + struct.pack("<I", 28) + b"WAVEfmt " + struct.pack("<I", 16) + b"\x01\x00",
}


class TestCliTruncatedWav:
    """A WAV cut short inside its header is a data error: exit 2, an
    `audiozoom:` line naming the file, no traceback and nothing written."""

    @pytest.fixture(params=sorted(_CUT_WAVS))
    def cut_wav(self, request, tmp_path):
        path = tmp_path / "cut.wav"
        path.write_bytes(_CUT_WAVS[request.param])
        return path

    @staticmethod
    def _assert_data_error(capsys, path):
        err = capsys.readouterr().err
        assert err.startswith(f"audiozoom: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_zoom(self, tmp_path, capsys, cut_wav):
        out = tmp_path / "o.wav"
        assert main(["zoom", str(cut_wav), str(out), "--dump", str(tmp_path / "d_")]) == 2
        self._assert_data_error(capsys, cut_wav)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cut.wav"]

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_eval(self, tmp_path, capsys, cut_wav, position):
        paths = [tmp_path / "est.wav", tmp_path / "target.wav", tmp_path / "interf.wav"]
        write_wav(paths[0], AudioBuffer(np.zeros(800), FS))
        write_wav(paths[1], AudioBuffer(np.zeros((2, 800)), FS))
        write_wav(paths[2], AudioBuffer(np.zeros((2, 800)), FS))
        paths[position] = cut_wav
        report = tmp_path / "report.csv"
        assert main(["eval", *map(str, paths), "--report", str(report)]) == 2
        self._assert_data_error(capsys, cut_wav)
        assert not report.exists()

    def test_sweep(self, tmp_path, capsys, cut_wav):
        argv = ["zoom", str(cut_wav), str(tmp_path / "o.wav"), *_SWEEP, "--dump", str(tmp_path / "d_")]
        assert main(argv) == 2
        self._assert_data_error(capsys, cut_wav)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cut.wav"]

    @pytest.mark.parametrize("role", ["target", "interferer"])
    def test_simulate_scenario_wav(self, tmp_path, capsys, cut_wav, role):
        write_wav(tmp_path / "ok.wav", speech_like(0.25, FS, seed=46))
        target, interferer = ("cut.wav", "ok.wav") if role == "target" else ("ok.wav", "cut.wav")
        scenario = tmp_path / "scene.txt"
        scenario.write_text(f"target={target},90\ninterferer={interferer},60\n")
        prefix = str(tmp_path / "out" / "x_")
        assert main(["simulate", str(scenario), prefix]) == 2
        self._assert_data_error(capsys, cut_wav)
        assert not os.path.exists(os.path.dirname(prefix))


class TestCliSweep:
    """zoom --gjbf-length auto runs the length sweep, and --dump writes its curve."""

    @staticmethod
    def _mixture(tmp_path, capsys, seed):
        scenario = _write_scene_inputs(tmp_path, seed=seed)
        prefix = str(tmp_path / "s_")
        main(["simulate", str(scenario), prefix])
        capsys.readouterr()
        return prefix + "mixture.wav"

    @staticmethod
    def _sweep(tmp_path, capsys, mixture, dump, *flags):
        # (stdout, lines of the dumped sweep.csv) of one zoom run that sweeps.
        argv = ["zoom", mixture, str(tmp_path / (dump + "o.wav")), *_SWEEP,
                "--dump", str(tmp_path / dump), *flags]
        assert main(argv) == 0
        return capsys.readouterr().out, (tmp_path / (dump + "sweep.csv")).read_text().splitlines()

    def test_sweep_writes_curve_and_choice(self, tmp_path, capsys):
        mixture = self._mixture(tmp_path, capsys, seed=43)
        printed, lines = self._sweep(tmp_path, capsys, mixture, "d_", "--gjbf-sweep", "32,64,128")
        config = PipelineConfig(beamformer="gjbf", gjbf_auto_lengths=(32, 64, 128))
        curve = run_zoom(read_wav(mixture), config).sweep_curve
        assert lines == ["length,power_reduction_db"] + [f"{n},{score:.6f}" for n, score in curve]
        chosen = int(
            [l for l in printed.splitlines() if l.startswith("chosen_length=")][0].split("=")[1]
        )
        values = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert values[chosen] == max(values.values())

    def test_sweep_deterministic(self, tmp_path, capsys):
        mixture = self._mixture(tmp_path, capsys, seed=44)
        _, a = self._sweep(tmp_path, capsys, mixture, "a_", "--gjbf-sweep", "32,64")
        _, b = self._sweep(tmp_path, capsys, mixture, "b_", "--gjbf-sweep", "32,64")
        assert a == b
        assert (tmp_path / "a_o.wav").read_bytes() == (tmp_path / "b_o.wav").read_bytes()

    def test_default_candidates_are_the_default_sweep(self, tmp_path, capsys):
        mixture = self._mixture(tmp_path, capsys, seed=47)
        _, lines = self._sweep(tmp_path, capsys, mixture, "d_")
        assert tuple(int(row.split(",")[0]) for row in lines[1:]) == DEFAULT_SWEEP_LENGTHS


# One non-default value per pipeline setting, and the run it configures:
# "auto" is zoom --gjbf-length auto, the length sweep.
_CHANGED_SETTINGS = [
    ("beamformer", "gjbf", "mpdr"),
    ("stft_frame", "1024", "mpdr"),
    ("stft_hop", "128", "mpdr"),
    ("stft_window", "hann", "mpdr"),
    ("mpdr_alpha", "0.5", "mpdr"),
    ("gjbf_length", "100", "gjbf"),
    ("gjbf_mu", "0.1", "gjbf"),
    ("gjbf_block", "64", "auto"),
    ("gjbf_leak", "0.01", "gjbf"),
    ("gjbf_sweep", "32,64", "auto"),
    ("bt_enabled", "false", "mpdr"),
    ("bt_macro", "4x8", "mpdr"),
    ("bt_h", "2", "mpdr"),
    ("bt_threshold", "2.0", "mpdr"),
]
_RUN_FLAGS = {"mpdr": ["--beamformer", "mpdr"], "gjbf": ["--beamformer", "gjbf"], "auto": _SWEEP}


class TestCliSettings:
    @pytest.fixture
    def wav(self, tmp_path):
        x = speech_like(1.0, FS, seed=45)
        path = tmp_path / "in.wav"
        write_wav(path, AudioBuffer(np.vstack([x.samples[0], 0.5 * x.samples[0]]), FS))
        return str(path)

    @pytest.mark.parametrize(
        "command",
        [
            ["zoom", "--beamformer", "gjbf", "--gjbf-length", "auto", "--gjbf-sweep", ","],
            ["zoom", "--beamformer", "gjbf", "--gjbf-length", "auto", "--gjbf-sweep", "a,b"],
            ["zoom", "--gjbf-length", "abc"],
            ["zoom", *_SWEEP, "--gjbf-sweep", "1.5,64"],
            ["zoom", *_SWEEP, "--out", "c.csv"],
            ["zoom", *_SWEEP, "--gjbf-sweep", "100"],
            ["zoom", *_SWEEP, "--gjbf-sweep", "100,100"],
            ["zoom", *_SWEEP, "--gjbf-sweep", "-5,100"],
            ["zoom", "--beamformer", "gjbf", "--gjbf-length", "auto", "--gjbf-sweep", "100,-5"],
            ["zoom", "--beamformer", "foo"],
            ["zoom", "--stft-window", "foo"],
            ["zoom", "--seed", "7"],
            ["zoom", *_SWEEP, "--gjbf-sweep", "32,64", "--seed", "7"],
            ["zoom", "--gjbf-length", "0"],
            ["zoom", "--gjbf-block", "0"],
            ["zoom", "--gjbf-mu", "5"],
            ["zoom", "--bt-H", "-1"],
            ["zoom", *_SWEEP, "--lengths", "32,64"],
            ["zoom", "--gjbf-sweep", "100"],
            ["sweep"],  # no such subcommand: zoom --gjbf-length auto sweeps
        ],
    )
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, wav, command):
        name, *flags = command
        outputs = [str(tmp_path / "o.wav")] if name == "zoom" else []
        with pytest.raises(SystemExit) as err:
            main([name, wav, *outputs, *flags])
        assert err.value.code == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("run", ["sweep", "zoom"])
    def test_nonpositive_length_names_the_form(self, tmp_path, capsys, wav, run):
        flags = _SWEEP if run == "sweep" else []
        with pytest.raises(SystemExit) as err:
            main(["zoom", wav, str(tmp_path / "o.wav"), *flags, "--gjbf-sweep", "0,100"])
        assert err.value.code == 1
        assert "error: argument --gjbf-sweep: expected comma-separated positive integers, got '0,100'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("run", ["zoom", "sweep"])
    def test_too_long_length_is_one_warning_line(self, tmp_path, capsys, wav, run):
        # 1000000 is longer than half of the 1 s input, so the sweep skips it and runs on.
        # "sweep" adds --dump: the curve lists only the lengths that ran.
        flags = ["--dump", str(tmp_path / "d_")] if run == "sweep" else []
        argv = ["zoom", wav, str(tmp_path / "o.wav"), *_SWEEP, "--gjbf-sweep", "100,1000000,50"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, *flags]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "audiozoom: warning: filter length 1000000 skipped: "
            "signals must be longer than twice the filter length"
        ]
        if run == "sweep":
            rows = (tmp_path / "d_sweep.csv").read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == ["100", "50"]

    @pytest.mark.parametrize(
        "command, line",
        [
            (["zoom", "--beamformer", "gjbf", "--gjbf-length", "auto"], "gjbf_sweep=,"),
            (["zoom"], "gjbf_sweep=a,b"),
            (["zoom"], "gjbf_length=abc"),
            (["zoom", *_SWEEP], "gjbf_length=abc"),
            (["zoom"], "beamformer=foo"),
            (["zoom"], "seed=7"),
            (["zoom", *_SWEEP], "seed=7"),
            (["zoom", "--beamformer", "gjbf", "--gjbf-length", "auto"], "gjbf_sweep=0,100"),
        ],
    )
    def test_bad_config_line_is_data_error(self, tmp_path, capsys, wav, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"bt_h=4\n{line}\n")
        name, *flags = command
        assert main([name, wav, str(tmp_path / "o.wav"), *flags, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("audiozoom: ")
        assert "bad.cfg:2: " in err and line.split("=")[0] in err

    @pytest.mark.parametrize(
        "flags",
        [[], ["--beamformer", "gjbf", "--gjbf-length", "auto", "--gjbf-sweep", "32,64",
              "--gjbf-block", "16", "--mpdr-alpha", "0.5", "--bt-macro", "4x8", "--bt-H", "3"]],
    )
    def test_echoed_config_reads_back(self, tmp_path, capsys, wav, flags):
        first = tmp_path / "first.wav"
        assert main(["zoom", wav, str(first), *flags]) == 0
        echo = [l for l in capsys.readouterr().out.splitlines() if l.startswith("config ")]
        if not flags:
            assert "config mpdr_alpha=None" in echo and "config gjbf_block=None" in echo
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("".join(l[len("config "):] + "\n" for l in echo))
        second = tmp_path / "second.wav"
        assert main(["zoom", wav, str(second), "--config", str(cfg)]) == 0
        again = [l for l in capsys.readouterr().out.splitlines() if l.startswith("config ")]
        assert again == echo
        assert first.read_bytes() == second.read_bytes()

    def test_every_setting_has_a_changed_value(self):
        assert sorted(key for key, _, _ in _CHANGED_SETTINGS) == sorted(key for key, *_ in _SETTINGS)

    @pytest.mark.parametrize("key, value, run", _CHANGED_SETTINGS)
    def test_every_setting_changes_the_run(self, tmp_path, capsys, key, value, run):
        # No silent setting: each flag changes the output of the run it configures
        # (gjbf_sweep: the swept curve, which can pick the same length).
        path = tmp_path / "in.wav"
        write_wav(path, default_scene(seed=3, duration_s=1.0).mixture)
        flag = {name: flag for name, flag, *_ in _SETTINGS}[key]
        written = []
        for name, flags in (("base_", []), ("set_", [flag, value])):
            dump = str(tmp_path / name)
            assert main(["zoom", str(path), dump + "o.wav", *_RUN_FLAGS[run], *flags, "--dump", dump]) == 0
            written.append(Path(dump + ("sweep.csv" if key == "gjbf_sweep" else "o.wav")).read_bytes())
        capsys.readouterr()
        assert written[0] != written[1]

    @pytest.mark.parametrize("line", ["gjbf_length=0", "gjbf_block=0", "gjbf_mu=5", "bt_h=-1"])
    def test_out_of_range_config_value_is_data_error(self, tmp_path, capsys, wav, line):
        # The same values as flags are usage errors (test_bad_flag_is_usage_error).
        cfg = tmp_path / "range.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o.wav"
        assert main(["zoom", wav, str(out), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"audiozoom: {cfg}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_mpdr_overflow_is_data_error(self, tmp_path, capsys):
        huge = tmp_path / "huge.wav"
        mixture = default_scene(seed=1).mixture
        write_wav(huge, AudioBuffer(1e200 * mixture.samples, FS), sample_format="float64")
        assert main(["zoom", str(huge), str(tmp_path / "o.wav")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("audiozoom: ") and "input level overflows" in err
        assert not (tmp_path / "o.wav").exists()

    @staticmethod
    def _huge_gjbf_wav(tmp_path):
        x = speech_like(1.0, FS, seed=46).samples[0]
        huge = tmp_path / "huge.wav"
        stereo = AudioBuffer(1e200 * np.vstack([x, np.roll(x, 3)]), FS)
        write_wav(huge, stereo, sample_format="float64")
        return huge

    @pytest.mark.parametrize("run", ["zoom", "sweep"])
    def test_gjbf_divergence_is_data_error(self, tmp_path, capsys, run):
        # In the sweep every candidate fails, so run_zoom raises RuntimeError, not ValueError.
        huge = self._huge_gjbf_wav(tmp_path)
        out = tmp_path / "o.wav"
        flags = _SWEEP if run == "sweep" else ["--beamformer", "gjbf"]
        assert main(["zoom", str(huge), str(out), *flags]) == 2
        err = capsys.readouterr().err
        lead = "audiozoom: all candidate lengths failed: " if run == "sweep" else "audiozoom: "
        assert err.startswith(lead + "input level overflows")
        assert not out.exists()

    def test_length_sweep_overflow_is_data_error_without_warnings(self, tmp_path, capsys):
        # At 1e153 some candidates' FDAF runs finish; their output power overflows.
        huge = tmp_path / "huge.wav"
        mixture = default_scene(seed=1).mixture
        write_wav(huge, AudioBuffer(1e153 * mixture.samples, FS), sample_format="float64")
        out = tmp_path / "o.wav"
        argv = ["zoom", str(huge), str(out), "--beamformer", "gjbf", "--gjbf-length", "auto"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("audiozoom: all candidate lengths failed: ")
        assert "input level overflows the output power" in err
        assert not out.exists()

    def test_post_filter_overflow_is_data_error(self, tmp_path, capsys):
        # At 1e152 the MPDR covariance is still finite; the post-filter's mean power is not.
        huge = tmp_path / "huge.wav"
        mixture = default_scene(seed=1).mixture
        write_wav(huge, AudioBuffer(1e152 * mixture.samples, FS), sample_format="float64")
        assert main(["zoom", str(huge), str(tmp_path / "o.wav")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("audiozoom: ") and "input level overflows the post-filter" in err
        assert not (tmp_path / "o.wav").exists()
