"""Two-microphone far-field mixture synthesis for controlled evaluation.

Sources are co-planar with the microphone pair (elevation 0); azimuth 90
degrees is broadside (equal delay at both microphones), 0 degrees is endfire
along the array axis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dsp import AudioBuffer, _sample_rate, fft_convolve
from .wav import read_wav


@dataclass(frozen=True)
class ArrayGeometry:
    """Two microphones on the x axis: mic 1 (top, the reference) at the origin,
    mic 2 at x = spacing_m meters."""

    spacing_m: float = 0.10
    sound_speed: float = 343.0

    def __post_init__(self):
        if not np.isfinite(self.spacing_m) or self.spacing_m == 0:
            raise ValueError("spacing_m must be finite and nonzero")
        if not (np.isfinite(self.sound_speed) and self.sound_speed > 0):
            raise ValueError("sound_speed must be finite and positive")

    def delays(self, azimuth_deg: float) -> np.ndarray:
        """Far-field arrival delay (s) at each mic relative to mic 1.

        A mic closer to the source gets a negative delay (earlier arrival).
        """
        offset = self.spacing_m * np.cos(np.deg2rad(azimuth_deg))
        return np.array([-0.0, -offset / self.sound_speed])


two_mic_array = ArrayGeometry  # two_mic_array() is the standard pair, at the defaults above


DELAY_TAPS = 31  # length of the windowed-sinc interpolator (odd)


def _delay_kernel(delay: float) -> tuple:
    """(first, kernel) such that y[n] = sum_k kernel[k] * x[n - first - k].

    A delay within a nanosample of an integer snaps to it and gets the
    one-tap kernel [1.0], an exact shift; this keeps equal-delay arrivals
    bit-identical across channels. Any other delay gets a windowed-sinc
    interpolator (symmetric, hence exact group delay in its passband).
    """
    nearest = round(delay)
    if abs(delay - nearest) < 1e-9:
        return nearest, np.ones(1)
    shift = int(np.floor(delay))
    half = (DELAY_TAPS - 1) // 2
    t = np.arange(DELAY_TAPS) - half - (delay - shift)
    support = (DELAY_TAPS + 1) / 2.0
    window = 0.42 + 0.5 * np.cos(np.pi * t / support) + 0.08 * np.cos(2.0 * np.pi * t / support)
    kernel = np.sinc(t) * window
    return shift - half, kernel / kernel.sum()


def _add_shifted(out: np.ndarray, x: np.ndarray, shift: int) -> None:
    # out[n] += x[n - shift] wherever both indices are in range.
    lo, hi = max(0, shift), min(out.shape[-1], x.shape[-1] + shift)
    if hi > lo:
        out[..., lo:hi] += x[..., lo - shift : hi - shift]


def _add_delayed(out: np.ndarray, x: np.ndarray, paths) -> None:
    # out += gain * x delayed by delay samples, summed over the (delay, gain)
    # paths. Whole-sample paths are exact shift-adds in path order; all
    # fractional paths share one FIR and one convolution.
    fractional = []
    for delay, gain in paths:
        if abs(delay) >= out.size:
            raise ValueError("delay exceeds signal length")
        first, kernel = _delay_kernel(delay)
        if kernel.size == 1:
            _add_shifted(out, gain * x, first)
        else:
            fractional.append((first, gain * kernel))
    if fractional:
        lead = min(first for first, _ in fractional)
        fir = np.zeros(max(first + k.size for first, k in fractional) - lead)
        for first, k in fractional:
            _add_shifted(fir, k, first - lead)
        _add_shifted(out, fft_convolve(x, fir), lead)


def fractional_delay(signal: AudioBuffer, delay_s: float) -> AudioBuffer:
    """Delay a buffer by a possibly non-integer number of samples.

    Uses a windowed-sinc interpolator (symmetric, hence exact group delay in
    its passband); integer delays reduce to an exact shift. Samples shifted
    in from outside the buffer are zero.
    """
    out = np.zeros_like(signal.samples)
    for row, x in zip(out, signal.samples):
        _add_delayed(row, x, [(delay_s * signal.sample_rate, 1.0)])
    return AudioBuffer(out, signal.sample_rate)


@dataclass(frozen=True)
class SourceSpec:
    """A far-field point source: mono signal arriving from azimuth_deg."""

    azimuth_deg: float
    signal: AudioBuffer
    role: str = "target"

    def __post_init__(self):
        if not 0.0 <= self.azimuth_deg <= 180.0:
            raise ValueError("azimuth must be in [0, 180] degrees")
        if self.signal.channel_count != 1:
            raise ValueError("source signals must be single-channel")
        if self.role not in ("target", "interference"):
            raise ValueError("role must be 'target' or 'interference'")


@dataclass(frozen=True)
class MixtureSpec:
    """Target plus interferers with a prescribed signal-to-interference ratio.

    echo_taps, when set, is a list of (delay_s, gain) pairs added to the
    direct path of every source image.
    """

    target: SourceSpec
    interferers: tuple = ()
    sir_db: float = 0.0
    sensor_noise_snr_db: float | None = None
    echo_taps: tuple = ()

    def __post_init__(self):
        if self.target.role != "target":
            raise ValueError("target source must have role 'target'")
        if any(s.role != "interference" for s in self.interferers):
            raise ValueError("interferer sources must have role 'interference'")
        if not np.isfinite(self.sir_db):
            raise ValueError("sir_db must be finite")
        if self.sensor_noise_snr_db is not None and not np.isfinite(self.sensor_noise_snr_db):
            raise ValueError("sensor_noise_snr_db must be finite or None")
        object.__setattr__(self, "interferers", tuple(self.interferers))
        object.__setattr__(self, "echo_taps", tuple(self.echo_taps))


@dataclass
class MixtureResult:
    """Synthesized mixture plus the per-channel ground-truth images."""

    mixture: AudioBuffer
    target_image: AudioBuffer
    interference_image: AudioBuffer
    noise_image: AudioBuffer

    @property
    def interference_plus_noise(self) -> AudioBuffer:
        return AudioBuffer(
            self.interference_image.samples + self.noise_image.samples,
            self.mixture.sample_rate,
        )


# Fixed first-reflection pattern; gains are set from the decay time.
_ECHO_DELAYS_S = (0.013, 0.021, 0.034, 0.047, 0.061, 0.079)


def echo_taps_for_t60(t60_s: float) -> tuple:
    """Exponentially decaying echo taps approximating a 60 dB decay time."""
    if not (np.isfinite(t60_s) and t60_s > 0):
        raise ValueError("t60_s must be finite and positive")
    taps = []
    for k, delay in enumerate(_ECHO_DELAYS_S):
        gain = 10.0 ** (-3.0 * delay / t60_s)
        taps.append((delay, gain if k % 2 == 0 else -gain))
    return tuple(taps)


def _mean_power(samples: np.ndarray) -> float:
    return float(np.mean(samples**2))


def _source_image(source: SourceSpec, geometry: ArrayGeometry, echo_taps, length: int) -> np.ndarray:
    # Per mic: the direct path first, then the echoes, each at the mic's delay.
    mono = source.signal.samples[0, :length]
    rate = source.signal.sample_rate
    paths = ((0.0, 1.0),) + tuple(echo_taps)
    image = np.zeros((2, length))
    for img, tau in zip(image, geometry.delays(source.azimuth_deg)):
        _add_delayed(img, mono, [((float(tau) + delay) * rate, gain) for delay, gain in paths])
    return image


def synthesize_mixture(
    spec: MixtureSpec, geometry: ArrayGeometry, seed: int = 0
) -> MixtureResult:
    """Render a mixture at the array along with per-source ground truth.

    All sources are cropped to the shortest signal, delayed per-mic by their
    far-field arrival times, the interferer sum is scaled so the realized
    SIR matches spec.sir_db, and optional white sensor noise is added at
    spec.sensor_noise_snr_db relative to the mixture. The returned mixture
    equals target + interference + noise images sample-exactly.
    """
    rate = spec.target.signal.sample_rate
    sources = (spec.target,) + spec.interferers
    if any(s.signal.sample_rate != rate for s in sources):
        raise ValueError("all source signals must share the sample rate")
    length = min(s.signal.length for s in sources)
    if length == 0:
        raise ValueError("empty target signal")

    target_img = _source_image(spec.target, geometry, spec.echo_taps, length)
    if _mean_power(target_img) == 0.0:
        raise ValueError("empty target signal")

    interf_img = np.zeros_like(target_img)
    for source in spec.interferers:
        interf_img += _source_image(source, geometry, spec.echo_taps, length)
    interf_power = _mean_power(interf_img)
    if interf_power > 0.0:
        wanted = _mean_power(target_img) * 10.0 ** (-spec.sir_db / 10.0)
        interf_img *= np.sqrt(wanted / interf_power)

    clean = target_img + interf_img
    noise_img = np.zeros_like(target_img)
    if spec.sensor_noise_snr_db is not None:
        noise_power = _mean_power(clean) * 10.0 ** (-spec.sensor_noise_snr_db / 10.0)
        rng = np.random.default_rng(seed)
        noise_img = np.sqrt(noise_power) * rng.standard_normal(clean.shape)

    return MixtureResult(
        mixture=AudioBuffer(clean + noise_img, rate),
        target_image=AudioBuffer(target_img, rate),
        interference_image=AudioBuffer(interf_img, rate),
        noise_image=AudioBuffer(noise_img, rate),
    )


def key_value_lines(path):
    """Yield (where, key, value) for each key=value line; where is 'path:line'.

    '#' starts a comment; blank lines are skipped.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            yield f"{path}:{lineno}", key, value


def _echo_taps(t60_ms: str) -> tuple:
    return echo_taps_for_t60(float(t60_ms) / 1000.0)


def _checked(parse, accepts, wanted: str):
    """parse, then reject a value that accepts(value) refuses."""
    def parse_checked(text: str):
        value = parse(text)
        if not accepts(value):
            raise ValueError(f"expected {wanted}, got {text!r}")
        return value
    return parse_checked


_finite = _checked(float, np.isfinite, "a finite number")
_nonzero = _checked(_finite, lambda v: v != 0, "a finite nonzero number")
_positive = _checked(_finite, lambda v: v > 0, "a finite positive number")

# Scenario key -> (what it sets, the field or argument it sets, parser). A key
# left out of a scenario takes the default of the MixtureSpec or ArrayGeometry
# field, or of synthesize_mixture's argument, that it sets. The parsers reject
# what MixtureSpec and ArrayGeometry would, and a negative seed.
_SCENARIO_KEYS = {
    "sir_db": ("spec", "sir_db", _finite),
    "sensor_noise_snr_db": ("spec", "sensor_noise_snr_db", _finite),
    "echo_t60_ms": ("spec", "echo_taps", _echo_taps),
    "spacing_m": ("geometry", "spacing_m", _nonzero),
    "sound_speed": ("geometry", "sound_speed", _positive),
    "seed": ("call", "seed", _checked(int, lambda v: v >= 0, "a nonnegative integer")),
}


def _source(where: str, path, azimuth: float, role: str) -> SourceSpec:
    signal = read_wav(path)
    try:
        return SourceSpec(azimuth, signal, role)
    except ValueError as exc:  # a WAV of more than one channel, or an azimuth out of range
        raise ValueError(f"{where}: {path}: {exc}") from exc


def parse_scenario(path) -> dict:
    """Read a scenario file of key=value lines ('#' starts a comment) into
    synthesize_mixture's keyword arguments: spec, geometry and, when the
    file sets it, seed.

    Keys: target=path,azimuth; interferer=path,azimuth (repeatable); and the
    keys of _SCENARIO_KEYS. Relative WAV paths are resolved against the
    scenario file's directory. The WAVs are read once every line has parsed.
    """
    base = os.path.dirname(os.path.abspath(path))
    target, interferers = None, []  # (where, WAV path, azimuth)
    values = {"spec": {}, "geometry": {}, "call": {}}
    for where, key, value in key_value_lines(path):
        try:
            if key in ("target", "interferer"):
                wav_path, comma, azimuth = (p.strip() for p in value.partition(","))
                if not comma:
                    raise ValueError(f"expected path,azimuth, got {value!r}")
                entry = (where, os.path.join(base, wav_path), float(azimuth))
                if key == "interferer":
                    interferers.append(entry)
                elif target is None:
                    target = entry
                else:
                    raise ValueError("duplicate target line")
            elif key in _SCENARIO_KEYS:
                group, name, parse = _SCENARIO_KEYS[key]
                try:
                    values[group][name] = parse(value)
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from exc
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    if target is None:
        raise ValueError(f"{path}: scenario has no target line")
    spec = MixtureSpec(
        _source(*target, "target"),
        tuple(_source(*entry, "interference") for entry in interferers),
        **values["spec"],
    )
    return {"spec": spec, "geometry": ArrayGeometry(**values["geometry"]), **values["call"]}


def _control_curve(rng: np.random.Generator, n: int, rate_hz: float, sample_rate: int) -> np.ndarray:
    points = max(2, int(np.ceil(n * rate_hz / sample_rate)) + 1)
    ctrl = rng.standard_normal(points)
    grid = np.linspace(0.0, points - 1.0, n)
    return np.interp(grid, np.arange(points), ctrl)


HARMONICS = 14  # the most harmonics a talker gets; each stops below 0.45 * sample_rate
SYNTH_PIECE = 16384  # samples per piece of the harmonic sum: four 128 KB buffers stay in L2


def _harmonic_sum(phase: np.ndarray, amplitudes) -> np.ndarray:
    """sum_k amplitudes[k-1] * sin(k * phase), by Clenshaw's recurrence.

    b_k = a_k + 2cos(phase) b_{k+1} - b_{k+2}, and the sum is b_1 sin(phase)
    (Clenshaw, Math. Tables Aids Comput. 9, 1955): one sin and one cos per
    sample for the whole series. The work goes piece by piece through
    buffers of SYNTH_PIECE samples; every step is per sample, so the piece
    size does not change a bit of the result.
    """
    out = np.empty_like(phase)
    piece = min(SYNTH_PIECE, phase.size)
    two_cos, b_next, b_next2, spare = np.empty((4, piece))
    for start in range(0, phase.size, piece):
        stop = min(start + piece, phase.size)
        m = stop - start
        c, b1, b2, t = two_cos[:m], b_next[:m], b_next2[:m], spare[:m]
        np.cos(phase[start:stop], out=c)
        c *= 2.0
        b1.fill(0.0)
        b2.fill(0.0)
        for a_k in reversed(amplitudes):
            np.multiply(c, b1, out=t)
            t -= b2
            t += a_k
            b1, b2, t = t, b1, b2
        dest = out[start:stop]
        np.sin(phase[start:stop], out=dest)
        dest *= b1
    return out


def speech_like(duration_s: float, sample_rate: int = 16000, seed: int = 0) -> AudioBuffer:
    """Synthetic speech-like test signal: pitched harmonics shaped by two
    formant resonances, syllabic amplitude rhythm, and noise bursts.

    Deterministic for a given seed; intended as desk-scale stand-in material
    when no recorded speech is at hand.
    """
    sample_rate = _sample_rate(sample_rate)
    if not np.isfinite(duration_s):
        raise ValueError("duration_s must be finite")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    if n <= 0:
        raise ValueError("duration_s must be positive and at least half a sample")

    # Pitch contour: slow random curve mapped into 95..230 Hz.
    drift = _control_curve(rng, n, 2.0, sample_rate)
    span = drift.max() - drift.min()
    unit = (drift - drift.min()) / span if span > 0 else np.zeros(n)
    f0 = 95.0 + 135.0 * unit
    phase = 2.0 * np.pi * np.cumsum(f0) / sample_rate

    f1 = rng.uniform(420.0, 750.0)
    f2 = rng.uniform(1100.0, 2200.0)

    def resonance(freq):
        return 1.0 / (1.0 + ((freq - f1) / 110.0) ** 2) + 0.7 / (1.0 + ((freq - f2) / 260.0) ** 2)

    f0_mid = float(np.median(f0))
    amplitudes = []
    for k in range(1, HARMONICS + 1):
        if k * f0_mid >= 0.45 * sample_rate:
            break
        amplitudes.append(resonance(k * f0_mid) / k**0.5)
    voiced = _harmonic_sum(phase, amplitudes)

    # Syllable rhythm around 4 Hz plus an independent gate for noise bursts.
    syllables = np.clip(_control_curve(rng, n, 4.0, sample_rate), 0.0, None)
    syllables = syllables**0.8
    burst_gate = np.clip(_control_curve(rng, n, 3.0, sample_rate), 0.0, None)
    fricative = np.diff(rng.standard_normal(n + 1))  # first difference tilts noise to high band

    x = voiced * syllables + 0.25 * fricative * burst_gate
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 0.7 / peak
    return AudioBuffer(x, sample_rate)
