"""End-to-end pipeline and command-line tests."""

import os
from pathlib import Path

import numpy as np
import pytest
from helpers import FS, default_scene
from scipy.io import wavfile

from audiozoom.cli import main
from audiozoom.dsp import AudioBuffer
from audiozoom.gjbf import GjbfConfig
from audiozoom.pipeline import PipelineConfig, evaluate_scene, normalize_peak, run_zoom
from audiozoom.simulate import speech_like
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
        with open(dump + "bt_gains.csv") as handle:
            header = handle.readline()
        assert header.startswith("bin,frame_0,")

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


class TestCliSweep:
    def test_sweep_writes_curve_and_choice(self, tmp_path, capsys):
        scenario = _write_scene_inputs(tmp_path, seed=43)
        prefix = str(tmp_path / "s_")
        main(["simulate", str(scenario), prefix])
        capsys.readouterr()
        out_csv = tmp_path / "curve.csv"
        code = main(
            ["sweep", prefix + "mixture.wav", "--lengths", "32,64,128", "--out", str(out_csv)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "length,mean_sinr_db"
        assert len(lines) == 4
        chosen = int(
            [l for l in printed.splitlines() if l.startswith("chosen_length=")][0].split("=")[1]
        )
        values = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert values[chosen] == max(values.values())

    def test_sweep_deterministic(self, tmp_path, capsys):
        scenario = _write_scene_inputs(tmp_path, seed=44)
        prefix = str(tmp_path / "s_")
        main(["simulate", str(scenario), prefix])
        a_csv = tmp_path / "a.csv"
        b_csv = tmp_path / "b.csv"
        main(["sweep", prefix + "mixture.wav", "--lengths", "32,64", "--out", str(a_csv)])
        main(["sweep", prefix + "mixture.wav", "--lengths", "32,64", "--out", str(b_csv)])
        capsys.readouterr()
        assert a_csv.read_text() == b_csv.read_text()


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
            ["sweep", "--lengths", "a,b"],
            ["sweep", "--lengths", ","],
            ["zoom", "--beamformer", "foo"],
            ["zoom", "--stft-window", "foo"],
            ["zoom", "--seed", "7"],
            ["sweep", "--lengths", "32,64", "--seed", "7"],
        ],
    )
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, wav, command):
        name, *flags = command
        outputs = [str(tmp_path / "o.wav")] if name == "zoom" else []
        with pytest.raises(SystemExit) as err:
            main([name, wav, *outputs, *flags])
        assert err.value.code == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line",
        [
            (["zoom", "--beamformer", "gjbf", "--gjbf-length", "auto"], "gjbf_sweep=,"),
            (["zoom"], "gjbf_sweep=a,b"),
            (["zoom"], "gjbf_length=abc"),
            (["sweep", "--lengths", "32,64"], "gjbf_length=abc"),
            (["zoom"], "beamformer=foo"),
            (["zoom"], "seed=7"),
            (["sweep", "--lengths", "32,64"], "seed=7"),
        ],
    )
    def test_bad_config_line_is_data_error(self, tmp_path, capsys, wav, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"bt_h=4\n{line}\n")
        name, *flags = command
        outputs = [str(tmp_path / "o.wav")] if name == "zoom" else []
        assert main([name, wav, *outputs, *flags, "--config", str(cfg)]) == 2
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["zoom", "sweep"])
    def test_gjbf_divergence_is_data_error(self, tmp_path, capsys, command):
        x = speech_like(1.0, FS, seed=46).samples[0]
        huge = tmp_path / "huge.wav"
        stereo = AudioBuffer(1e200 * np.vstack([x, np.roll(x, 3)]), FS)
        write_wav(huge, stereo, sample_format="float64")
        tail = {
            "zoom": [str(tmp_path / "o.wav"), "--beamformer", "gjbf"],
            "sweep": ["--lengths", "32,64", "--out", str(tmp_path / "c.csv")],
        }
        assert main([command, str(huge), *tail[command]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("audiozoom: ") and "step size too large" in err
