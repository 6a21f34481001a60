"""Tests for geometry, fractional delay, and mixture synthesis."""

import numpy as np
import pytest
from helpers import source_image_reference, white_noise_buffer

from audiozoom import simulate
from audiozoom.dsp import AudioBuffer
from audiozoom.simulate import (
    ArrayGeometry,
    MixtureSpec,
    SourceSpec,
    echo_taps_for_t60,
    fractional_delay,
    parse_scenario,
    speech_like,
    steering_vector,
    synthesize_mixture,
    two_mic_array,
)

FS = 16000


class TestSteeringVector:
    def test_broadside_has_zero_delays(self):
        geom = two_mic_array(0.10)
        for freq in (100.0, 1000.0, 7000.0):
            v = steering_vector(geom, 90.0, freq)
            assert np.abs(v - 1.0).max() <= 1e-12

    def test_endfire_half_wavelength(self):
        # tau = d/c = 0.1/343 s; at f = 1715 Hz the inter-mic phase is pi.
        geom = two_mic_array(0.10)
        v = steering_vector(geom, 0.0, 1715.0)
        assert v[0] == pytest.approx(1.0)
        assert v[1].real == pytest.approx(-1.0, abs=1e-9)
        assert abs(v[1].imag) <= 1e-9

    def test_zero_frequency(self):
        geom = two_mic_array(0.10)
        for az in (0.0, 37.0, 90.0, 180.0):
            assert np.allclose(steering_vector(geom, az, 0.0), [1.0, 1.0])

    def test_unit_modulus_everywhere(self):
        geom = two_mic_array(0.08)
        rng = np.random.default_rng(2)
        for az, freq in zip(rng.uniform(0, 180, 50), rng.uniform(0, 8000, 50)):
            v = steering_vector(geom, az, freq)
            assert np.abs(np.abs(v) - 1.0).max() <= 1e-12

    def test_geometry_validation(self):
        for spacing in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonzero"):
                ArrayGeometry(spacing)
        with pytest.raises(ValueError, match="sound_speed"):
            ArrayGeometry(0.10, sound_speed=0.0)
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


class TestScenarioParsing:
    def test_full_scenario(self, tmp_path):
        path = tmp_path / "scene.txt"
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
        scenario = parse_scenario(path)
        assert scenario.target_azimuth == 90.0
        assert scenario.target_path.endswith("target.wav")
        assert len(scenario.interferers) == 2
        assert scenario.sir_db == 0.0
        assert scenario.sensor_noise_snr_db == 30.0
        assert scenario.seed == 5
        assert scenario.echo_t60_ms == 100.0

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("target=t.wav,90\nnot a line\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2"):
            parse_scenario(path)

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
