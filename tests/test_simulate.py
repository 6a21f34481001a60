"""Tests for geometry, fractional delay, and mixture synthesis."""

import inspect
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from helpers import source_image_reference, speech_like_reference, white_noise_buffer

from audiozoom import simulate
from audiozoom.cli import main
from audiozoom.dsp import AudioBuffer
from audiozoom.simulate import (
    ArrayGeometry,
    MixtureSpec,
    SourceSpec,
    echo_taps_for_t60,
    fractional_delay,
    parse_scenario,
    speech_like,
    synthesize_mixture,
    two_mic_array,
)
from audiozoom.wav import read_wav, write_wav

FS = 16000


def _phase_pattern(geom, azimuth, freq):
    # Unit-modulus steering exp(-j*2*pi*f*tau_m) across the pair, from its delays.
    return np.exp(-2j * np.pi * freq * geom.delays(azimuth))


class TestSteeringVector:
    def test_broadside_has_zero_delays(self):
        geom = two_mic_array(0.10)
        assert np.abs(geom.delays(90.0)).max() <= 1e-18
        for freq in (100.0, 1000.0, 7000.0):
            assert np.abs(_phase_pattern(geom, 90.0, freq) - 1.0).max() <= 1e-12

    def test_endfire_half_wavelength(self):
        # tau = d/c = 0.1/343 s; at f = 1715 Hz the inter-mic phase is pi.
        geom = two_mic_array(0.10)
        assert geom.delays(0.0)[1] == pytest.approx(-0.10 / 343.0)
        v = _phase_pattern(geom, 0.0, 1715.0)
        assert v[0] == pytest.approx(1.0)
        assert v[1].real == pytest.approx(-1.0, abs=1e-9)
        assert abs(v[1].imag) <= 1e-9

    def test_zero_frequency(self):
        # At 0 Hz every direction has the broadside steering [1, 1] that
        # design_mpdr uses in every bin.
        geom = two_mic_array(0.10)
        for az in (0.0, 37.0, 90.0, 180.0):
            assert np.array_equal(_phase_pattern(geom, az, 0.0), [1.0, 1.0])

    def test_unit_modulus_everywhere(self):
        # Real delays no longer than the spacing's travel time: a pure phase.
        geom = two_mic_array(0.08)
        rng = np.random.default_rng(2)
        for az, freq in zip(rng.uniform(0, 180, 50), rng.uniform(0, 8000, 50)):
            tau = geom.delays(az)
            assert tau.dtype == np.float64 and np.abs(tau).max() <= 0.08 / 343.0
            assert np.abs(np.abs(_phase_pattern(geom, az, freq)) - 1.0).max() <= 1e-12

    def test_geometry_validation(self):
        for spacing in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonzero"):
                ArrayGeometry(spacing)
        for speed in (0.0, -343.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sound_speed must be finite and positive"):
                ArrayGeometry(0.10, sound_speed=speed)
        with pytest.raises(TypeError):
            ArrayGeometry(mic_positions=((0.0, 0.0, 0.0), (0.10, 0.0, 0.0)))

    @pytest.mark.parametrize("spacing", [0.02, 0.10, 0.2137, -0.05])
    def test_delays_match_the_three_dimensional_model(self, spacing):
        # The pair as points in space: -(offset . direction) / c, bit for bit and sign bit too.
        geom = two_mic_array(spacing, 340.0)
        offsets = np.array([[0.0, 0.0, 0.0], [spacing, 0.0, 0.0]])
        for azimuth in np.linspace(0.0, 180.0, 2003):
            theta = np.deg2rad(azimuth)
            want = -(offsets @ np.array([np.cos(theta), np.sin(theta), 0.0])) / 340.0
            got = geom.delays(azimuth)
            assert got.tobytes() == want.tobytes(), azimuth


class TestFractionalDelay:
    def test_zero_delay_is_identity(self):
        rng = np.random.default_rng(0)
        x = AudioBuffer(rng.standard_normal(2000), FS)
        out = fractional_delay(x, 0.0)
        assert np.abs(out.samples - x.samples).max() <= 1e-4
        # Integer path is exact.
        assert np.array_equal(out.samples, x.samples)

    def test_integer_delay_is_exact_shift(self):
        rng = np.random.default_rng(1)
        x = AudioBuffer(rng.standard_normal(2000), FS)
        out = fractional_delay(x, 3.0 / FS)
        assert np.abs(out.samples[0, 3:] - x.samples[0, :-3]).max() <= 1e-6
        assert np.all(out.samples[0, :3] == 0)

    def test_half_sample_phase_against_analytic_ramp(self):
        # Oracle: a delayed sinusoid is an analytic phase shift of 2*pi*f*delay.
        for freq in (500.0, 1500.0, 3000.0, 5000.0):
            n = np.arange(4000)
            x = AudioBuffer(np.sin(2 * np.pi * freq * n / FS), FS)
            delay = 0.5 / FS
            out = fractional_delay(x, delay).samples[0]
            expected = np.sin(2 * np.pi * freq * (n / FS - delay))
            mid = slice(100, 3900)
            # Fit measured vs expected phase via complex demodulation.
            probe = np.exp(-2j * np.pi * freq * n[mid] / FS)
            measured = np.angle(np.sum(out[mid] * probe))
            want = np.angle(np.sum(expected[mid] * probe))
            assert abs(measured - want) <= 1e-3

    def test_excessive_delay_rejected(self):
        x = AudioBuffer(np.zeros(100), FS)
        with pytest.raises(ValueError, match="delay exceeds"):
            fractional_delay(x, 101.0 / FS)

    def test_negative_delay_advances(self):
        x = AudioBuffer(np.arange(100.0), FS)
        out = fractional_delay(x, -2.0 / FS)
        assert np.allclose(out.samples[0, :-2], x.samples[0, 2:])


def _tone(freq, seconds=0.5, seed=None):
    n = np.arange(int(seconds * FS))
    return AudioBuffer(np.sin(2 * np.pi * freq * n / FS), FS)


def _noise(seconds=0.5, seed=0):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.standard_normal(int(seconds * FS)), FS)


def _mean_power(buffer):
    return float(np.mean(buffer.samples**2))


class TestSynthesizeMixture:
    def test_broadside_target_alone_gives_identical_channels(self):
        spec = MixtureSpec(target=SourceSpec(90.0, _noise(seed=3)))
        result = synthesize_mixture(spec, two_mic_array(0.10))
        assert np.array_equal(result.mixture.samples[0], result.mixture.samples[1])
        assert np.abs(result.mixture.samples[0] - _noise(seed=3).samples[0]).max() <= 1e-4

    def test_realized_sir_matches_request(self):
        spec = MixtureSpec(
            target=SourceSpec(90.0, _noise(seed=4)),
            interferers=(SourceSpec(60.0, _noise(seed=5), "interference"),),
            sir_db=0.0,
        )
        result = synthesize_mixture(spec, two_mic_array(0.10))
        ratio = 10 * np.log10(_mean_power(result.target_image) / _mean_power(result.interference_image))
        assert abs(ratio - 0.0) <= 0.01

    def test_two_interferers_share_common_scale(self):
        spec = MixtureSpec(
            target=SourceSpec(90.0, _noise(seed=6)),
            interferers=(
                SourceSpec(60.0, _noise(seed=7), "interference"),
                SourceSpec(120.0, _tone(700.0), "interference"),
            ),
            sir_db=5.0,
        )
        result = synthesize_mixture(spec, two_mic_array(0.10))
        ratio = 10 * np.log10(_mean_power(result.target_image) / _mean_power(result.interference_image))
        assert abs(ratio - 5.0) <= 0.01

    def test_mixture_is_exact_sum_of_images(self):
        spec = MixtureSpec(
            target=SourceSpec(90.0, _noise(seed=8)),
            interferers=(SourceSpec(45.0, _noise(seed=9), "interference"),),
            sir_db=-3.0,
            sensor_noise_snr_db=20.0,
        )
        result = synthesize_mixture(spec, two_mic_array(0.10), seed=42)
        total = (
            result.target_image.samples
            + result.interference_image.samples
            + result.noise_image.samples
        )
        assert np.array_equal(result.mixture.samples, total)

    def test_noise_level_tracks_request(self):
        spec = MixtureSpec(
            target=SourceSpec(90.0, _noise(seed=10)),
            sensor_noise_snr_db=10.0,
        )
        result = synthesize_mixture(spec, two_mic_array(0.10), seed=1)
        snr = 10 * np.log10(
            _mean_power(result.target_image) / _mean_power(result.noise_image)
        )
        assert abs(snr - 10.0) <= 0.3  # statistical, seeded

    def test_same_seed_reproduces_noise(self):
        spec = MixtureSpec(target=SourceSpec(90.0, _noise(seed=11)), sensor_noise_snr_db=5.0)
        a = synthesize_mixture(spec, two_mic_array(0.10), seed=7)
        b = synthesize_mixture(spec, two_mic_array(0.10), seed=7)
        assert np.array_equal(a.mixture.samples, b.mixture.samples)

    def test_broadside_coherence_peaks_at_zero_lag(self):
        spec = MixtureSpec(target=SourceSpec(90.0, _noise(seed=12)))
        result = synthesize_mixture(spec, two_mic_array(0.10))
        a, b = result.target_image.samples
        corr = np.correlate(a[200:-200], b, mode="valid")
        assert np.argmax(corr) == 200

    def test_sample_rate_mismatch_rejected(self):
        sig = _noise(seed=13)
        other = AudioBuffer(sig.samples[0], 8000)
        spec = MixtureSpec(
            target=SourceSpec(90.0, sig),
            interferers=(SourceSpec(60.0, other, "interference"),),
        )
        with pytest.raises(ValueError, match="sample rate"):
            synthesize_mixture(spec, two_mic_array(0.10))

    def test_silent_target_rejected(self):
        spec = MixtureSpec(target=SourceSpec(90.0, AudioBuffer(np.zeros(4000), FS)))
        with pytest.raises(ValueError, match="empty target"):
            synthesize_mixture(spec, two_mic_array(0.10))

    def test_echo_taps_decay_with_t60(self):
        taps = echo_taps_for_t60(0.1)
        delays = [d for d, _ in taps]
        gains = [abs(g) for _, g in taps]
        assert delays == sorted(delays)
        assert all(a > b for a, b in zip(gains, gains[1:]))
        # 60 dB down at the decay time by construction.
        assert gains[0] == pytest.approx(10 ** (-3 * delays[0] / 0.1))

    @pytest.mark.parametrize("t60_s", [0.0, -0.1, np.inf, np.nan])
    def test_echo_t60_must_be_finite_and_positive(self, t60_s):
        with pytest.raises(ValueError, match="t60_s must be finite and positive"):
            echo_taps_for_t60(t60_s)

    @pytest.mark.parametrize("snr_db", [np.inf, -np.inf, np.nan])
    def test_sensor_noise_snr_must_be_finite_or_none(self, snr_db):
        with pytest.raises(ValueError, match="sensor_noise_snr_db must be finite or None"):
            MixtureSpec(target=SourceSpec(90.0, _noise(seed=16)), sensor_noise_snr_db=snr_db)

    def test_echo_changes_image_but_keeps_sir(self):
        spec = MixtureSpec(
            target=SourceSpec(90.0, _noise(seed=14)),
            interferers=(SourceSpec(60.0, _noise(seed=15), "interference"),),
            sir_db=0.0,
            echo_taps=echo_taps_for_t60(0.1),
        )
        result = synthesize_mixture(spec, two_mic_array(0.10))
        ratio = 10 * np.log10(_mean_power(result.target_image) / _mean_power(result.interference_image))
        assert abs(ratio) <= 0.01
        # Echoed broadside target is no longer a pure copy of the dry signal.
        assert np.abs(result.target_image.samples[0] - _noise(seed=14).samples[0]).max() > 1e-3


def _scenario_settings(kwargs) -> dict:
    # Every setting a parsed scenario carries, by name, except its source signals.
    spec, geometry = kwargs["spec"], kwargs["geometry"]
    settings = {f"spec.{f.name}": getattr(spec, f.name) for f in fields(spec)}
    settings["spec.target"] = (spec.target.azimuth_deg, spec.target.role)
    settings["spec.interferers"] = [(s.azimuth_deg, s.role) for s in spec.interferers]
    settings.update((f"geometry.{f.name}", getattr(geometry, f.name)) for f in fields(geometry))
    settings["seed"] = kwargs.get("seed", inspect.signature(synthesize_mixture).parameters["seed"].default)
    return settings


class TestScenarioParsing:
    @pytest.fixture
    def scene_dir(self, tmp_path):
        for k, name in enumerate(("target.wav", "interf.wav", "other.wav")):
            write_wav(tmp_path / name, _noise(0.25, seed=20 + k))
        return tmp_path

    def test_full_scenario(self, scene_dir):
        path = scene_dir / "scene.txt"
        path.write_text(
            "# demo scene\n"
            "target=target.wav,90\n"
            "interferer=interf.wav,60\n"
            "interferer=other.wav,120\n"
            "sir_db=0\n"
            "sensor_noise_snr_db=30\n"
            "seed=5\n"
            "echo_t60_ms=100\n"
            "spacing_m=0.1\n"
        )
        kwargs = parse_scenario(path)
        spec = kwargs["spec"]
        assert spec.target.azimuth_deg == 90.0
        assert np.array_equal(spec.target.signal.samples, read_wav(scene_dir / "target.wav").samples)
        assert [s.azimuth_deg for s in spec.interferers] == [60.0, 120.0]
        assert spec.sir_db == 0.0
        assert spec.sensor_noise_snr_db == 30.0
        assert spec.echo_taps == echo_taps_for_t60(0.1)
        assert kwargs["geometry"] == ArrayGeometry(0.1)
        assert kwargs["seed"] == 5

    def test_target_only_builds_the_defaults(self, scene_dir):
        # MixtureSpec(target), two_mic_array() and synthesize_mixture's own default seed.
        path = scene_dir / "scene.txt"
        path.write_text("target=target.wav,90\n")
        kwargs = parse_scenario(path)
        assert sorted(kwargs) == ["geometry", "spec"]
        target = SourceSpec(90.0, read_wav(scene_dir / "target.wav"))
        want = {"spec": MixtureSpec(target), "geometry": two_mic_array()}
        assert _scenario_settings(kwargs) == _scenario_settings(want)
        got, expected = synthesize_mixture(**kwargs), synthesize_mixture(MixtureSpec(target), two_mic_array())
        assert np.array_equal(got.mixture.samples, expected.mixture.samples)

    @pytest.mark.parametrize(
        "line, name, value",
        [
            ("sir_db=6", "spec.sir_db", 6.0),
            ("sensor_noise_snr_db=30", "spec.sensor_noise_snr_db", 30.0),
            ("echo_t60_ms=100", "spec.echo_taps", echo_taps_for_t60(0.1)),
            ("spacing_m=0.08", "geometry.spacing_m", 0.08),
            ("sound_speed=340", "geometry.sound_speed", 340.0),
            ("seed=5", "seed", 5),
            ("interferer=interf.wav,60", "spec.interferers", [(60.0, "interference")]),
        ],
    )
    def test_each_key_sets_the_one_field_it_names(self, scene_dir, line, name, value):
        path = scene_dir / "scene.txt"
        path.write_text("target=target.wav,90\n")
        want = _scenario_settings(parse_scenario(path))
        want[name] = value
        path.write_text(f"target=target.wav,90\n{line}\n")
        assert _scenario_settings(parse_scenario(path)) == want

    @pytest.mark.parametrize(
        "line, message",
        [
            ("interferer=stereo.wav,60", "stereo.wav: source signals must be single-channel"),
            ("interferer=mono.wav,200", "mono.wav: azimuth must be in [0, 180] degrees"),
        ],
    )
    def test_bad_source_names_its_line_and_wav(self, tmp_path, line, message):
        write_wav(tmp_path / "stereo.wav", AudioBuffer(np.zeros((2, 800)), FS))
        write_wav(tmp_path / "mono.wav", AudioBuffer(np.ones(800), FS))
        path = tmp_path / "scene.txt"
        path.write_text(f"target=mono.wav,90\n{line}\n")
        with pytest.raises(ValueError) as err:
            parse_scenario(path)
        assert str(err.value) == f"{path}:2: {tmp_path / message}"

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("target=t.wav,90\nnot a line\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2"):
            parse_scenario(path)

    @pytest.mark.parametrize("key", ["target", "interferer"])
    def test_source_without_azimuth_names_the_form(self, tmp_path, capsys, key):
        path = tmp_path / "scene.txt"
        path.write_text(f"{key}=t.wav\n")
        want = f"{path}:1: expected path,azimuth, got 't.wav'"
        with pytest.raises(ValueError) as err:
            parse_scenario(path)
        assert str(err.value) == want
        assert main(["simulate", str(path), str(tmp_path / "x_")]) == 2
        assert capsys.readouterr().err == f"audiozoom: {want}\n"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("target=t.wav,90\nvolume=11\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_scenario(path)

    def test_missing_target_rejected(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("sir_db=0\n")
        with pytest.raises(ValueError, match="no target"):
            parse_scenario(path)


class TestSpeechLike:
    def test_deterministic_and_normalized(self):
        a = speech_like(1.0, FS, seed=3)
        b = speech_like(1.0, FS, seed=3)
        assert np.array_equal(a.samples, b.samples)
        assert a.length == FS
        assert np.max(np.abs(a.samples)) == pytest.approx(0.7)

    def test_seeds_differ(self):
        a = speech_like(0.5, FS, seed=1)
        b = speech_like(0.5, FS, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_wideband_content(self):
        x = speech_like(1.0, FS, seed=4).samples[0]
        spec = np.abs(np.fft.rfft(x)) ** 2
        freqs = np.fft.rfftfreq(x.size, 1 / FS)
        low = spec[(freqs > 80) & (freqs < 1000)].sum()
        high = spec[(freqs > 1000) & (freqs < 6000)].sum()
        assert low > 0 and high > 0
        assert high / low > 1e-3  # not a pure low-frequency tone

    # The Clenshaw sum differs from the direct sum by rounding only. Measured
    # largest deviations over the peak: 6.3e-13 at 2 s and 2.3e-12 at 10 s
    # (seeds 0-4), 1.1e-11 at 60 s (seeds 0-2). The direct sum has error of
    # its own: at 60 s, |k * phase| reaches about 1.2e6 rad, where one ulp
    # is 2.3e-10.
    @pytest.mark.parametrize(
        "duration_s, seeds, tol", [(2.0, range(5), 1e-11), (10.0, range(5), 1e-11), (60.0, range(3), 1e-10)]
    )
    def test_matches_direct_sum(self, duration_s, seeds, tol):
        for seed in seeds:
            got = speech_like(duration_s, FS, seed=seed).samples
            want = speech_like_reference(duration_s, FS, seed=seed).samples
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("rate", [1000, 8000, 44100])
    def test_matches_direct_sum_at_other_rates(self, rate):
        # 1000 Hz keeps only the harmonics below 450 Hz, the 0.45 * rate stop.
        got = speech_like(1.0, rate, seed=6).samples
        want = speech_like_reference(1.0, rate, seed=6).samples
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_piece_size_does_not_change_bits(self, monkeypatch):
        want = speech_like(1.3, FS, seed=8).samples
        for piece in (1, 1000, 10**6):
            monkeypatch.setattr(simulate, "SYNTH_PIECE", piece)
            assert np.array_equal(speech_like(1.3, FS, seed=8).samples, want)

    def test_no_whole_signal_buffer_beyond_the_direct_sum(self):
        # Peak Python-heap use, in output sizes: 10.0 for the direct sum and
        # the Clenshaw sum alike at 60 s.
        tracemalloc.start()
        try:
            out = speech_like(60.0, FS, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.5 * out.samples.nbytes

    @pytest.mark.parametrize("duration_s", [np.inf, -np.inf, np.nan])
    def test_non_finite_duration_rejected(self, duration_s):
        with pytest.raises(ValueError, match="duration_s must be finite"):
            speech_like(duration_s, FS)

    @pytest.mark.parametrize("duration_s", [0.0, -1.0, 0.4 / FS])
    def test_duration_under_half_a_sample_rejected(self, duration_s):
        with pytest.raises(ValueError, match="duration_s must be positive"):
            speech_like(duration_s, FS)

    @pytest.mark.parametrize("rate", [0, -16000, np.inf, np.nan])
    def test_non_positive_sample_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="sample_rate must be a positive integer"):
            speech_like(1.0, rate)

    def test_fractional_sample_rate_rejected(self):
        with pytest.raises(ValueError, match="sample_rate must be a positive integer"):
            speech_like(1.0, 8000.5)

    def test_integral_float_sample_rate_accepted(self):
        x = speech_like(0.5, 8000.0, seed=2)
        assert x.sample_rate == 8000 and x.length == 4000
        assert np.array_equal(x.samples, speech_like(0.5, 8000, seed=2).samples)


class TestSourceImageMatchesReference:
    ECHOES = {"none": (), "t60_150ms": echo_taps_for_t60(0.15), "t60_400ms": echo_taps_for_t60(0.4)}

    @staticmethod
    def _whole_sample_mics(geometry, azimuth, echo_taps):
        paths = ((0.0, 1.0),) + tuple(echo_taps)
        whole = []
        for tau in geometry.delays(azimuth):
            totals = [(float(tau) + delay) * FS for delay, _ in paths]
            whole.append(all(abs(t - round(t)) < 1e-9 for t in totals))
        return whole

    @pytest.mark.parametrize("spacing", [0.10, 0.02])
    @pytest.mark.parametrize("echo", ["none", "t60_150ms", "t60_400ms"])
    @pytest.mark.parametrize("azimuth", [0.0, 37.0, 60.0, 90.0, 143.0, 180.0])
    def test_matches_per_path_oracle(self, azimuth, echo, spacing):
        source = SourceSpec(azimuth, white_noise_buffer(3000, seed=int(azimuth)))
        geometry = two_mic_array(spacing)
        taps = self.ECHOES[echo]
        want = source_image_reference(source, geometry, taps, 3000)
        got = simulate._source_image(source, geometry, taps, 3000)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        whole = self._whole_sample_mics(geometry, azimuth, taps)
        assert whole[0]  # the reference mic has zero delay
        for mic, exact in enumerate(whole):
            if exact:
                assert np.array_equal(got[mic], want[mic])

    def test_mixed_whole_and_fractional_paths(self):
        # Broadside: whole-sample direct path, one fractional and one whole echo.
        source = SourceSpec(90.0, white_noise_buffer(3000, seed=5))
        taps = ((0.0131, 0.5), (0.02, -0.3))
        want = source_image_reference(source, two_mic_array(), taps, 3000)
        got = simulate._source_image(source, two_mic_array(), taps, 3000)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "azimuth, taps, length",
        [
            (0.0, (), 4),
            (37.0, (), 3),
            (60.0, echo_taps_for_t60(0.15), 1000),
            (90.0, ((0.0625, 1.0),), 1000),
        ],
    )
    def test_source_shorter_than_a_path_raises_like_oracle(self, azimuth, taps, length):
        source = SourceSpec(azimuth, white_noise_buffer(length, seed=1))
        with pytest.raises(ValueError, match="delay exceeds signal length"):
            source_image_reference(source, two_mic_array(), taps, length)
        with pytest.raises(ValueError, match="delay exceeds signal length"):
            simulate._source_image(source, two_mic_array(), taps, length)

    @pytest.mark.parametrize("azimuth, taps, length", [(0.0, (), 5), (90.0, ((0.0625, 1.0),), 1001)])
    def test_source_just_longer_than_its_paths(self, azimuth, taps, length):
        source = SourceSpec(azimuth, white_noise_buffer(length, seed=1))
        want = source_image_reference(source, two_mic_array(), taps, length)
        got = simulate._source_image(source, two_mic_array(), taps, length)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_convolution_per_fractional_mic(self, monkeypatch):
        calls = []
        real = simulate.fft_convolve
        monkeypatch.setattr(simulate, "fft_convolve", lambda x, h: calls.append(h) or real(x, h))
        noise, taps = white_noise_buffer(3000, 2), echo_taps_for_t60(0.15)
        simulate._source_image(SourceSpec(90.0, noise), two_mic_array(), taps, 3000)
        assert calls == []  # every path of a broadside source is whole-sample
        simulate._source_image(SourceSpec(60.0, noise), two_mic_array(), taps, 3000)
        assert len(calls) == 1  # only mic 2 has fractional paths
