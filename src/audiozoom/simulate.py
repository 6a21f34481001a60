"""Two-microphone far-field mixture synthesis for controlled evaluation.

Sources are co-planar with the microphone pair (elevation 0); azimuth 90
degrees is broadside (equal delay at both microphones), 0 degrees is endfire
along the array axis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .dsp import AudioBuffer, fft_convolve


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions in meters; delays are relative to the reference mic."""

    mic_positions: tuple
    reference_index: int = 0
    sound_speed: float = 343.0

    def __post_init__(self):
        positions = tuple(tuple(float(c) for c in p) for p in self.mic_positions)
        if len(positions) < 2:
            raise ValueError("at least two microphones required")
        if any(len(p) != 3 for p in positions):
            raise ValueError("microphone positions must be 3-D coordinates")
        if len(set(positions)) != len(positions):
            raise ValueError("microphone positions must be distinct")
        if not 0 <= self.reference_index < len(positions):
            raise ValueError("reference_index out of range")
        if self.sound_speed <= 0:
            raise ValueError("sound_speed must be positive")
        object.__setattr__(self, "mic_positions", positions)

    @property
    def mic_count(self) -> int:
        return len(self.mic_positions)

    def delays(self, azimuth_deg: float) -> np.ndarray:
        """Far-field arrival delay (s) at each mic relative to the reference.

        A mic closer to the source gets a negative delay (earlier arrival).
        """
        theta = np.deg2rad(azimuth_deg)
        direction = np.array([np.cos(theta), np.sin(theta), 0.0])
        positions = np.asarray(self.mic_positions)
        offsets = positions - positions[self.reference_index]
        return -(offsets @ direction) / self.sound_speed


def two_mic_array(spacing_m: float = 0.10, sound_speed: float = 343.0) -> ArrayGeometry:
    """Standard pair on the x axis: mic 1 (top, reference) at origin, mic 2 at +spacing."""
    return ArrayGeometry(((0.0, 0.0, 0.0), (spacing_m, 0.0, 0.0)), 0, sound_speed)


def steering_vector(geometry: ArrayGeometry, azimuth_deg: float, frequency: float) -> np.ndarray:
    """Unit-modulus phase pattern exp(-j*2*pi*f*tau_m) across the array."""
    if frequency < 0:
        raise ValueError("frequency must be nonnegative")
    return np.exp(-2j * np.pi * frequency * geometry.delays(azimuth_deg))


def fractional_delay(signal: AudioBuffer, delay_s: float, taps: int = 31) -> AudioBuffer:
    """Delay a buffer by a possibly non-integer number of samples.

    Uses a windowed-sinc interpolator (symmetric, hence exact group delay in
    its passband); integer delays reduce to an exact shift. Samples shifted
    in from outside the buffer are zero.
    """
    if taps < 3 or taps % 2 == 0:
        raise ValueError("taps must be an odd integer >= 3")
    total = delay_s * signal.sample_rate
    if abs(total) >= signal.length:
        raise ValueError("delay exceeds signal length")
    # Snap to the exact-shift path when within a nanosample of an integer;
    # keeps equal-delay arrivals bit-identical across channels.
    nearest = round(total)
    if abs(total - nearest) < 1e-9:
        total = float(nearest)
    shift = int(np.floor(total))
    frac = total - shift
    out = np.zeros_like(signal.samples)
    if frac == 0.0:
        src_lo, src_hi = max(0, -shift), min(signal.length, signal.length - shift)
        out[:, src_lo + shift : src_hi + shift] = signal.samples[:, src_lo:src_hi]
        return AudioBuffer(out, signal.sample_rate)
    half = (taps - 1) // 2
    t = np.arange(taps) - half - frac
    support = (taps + 1) / 2.0
    window = 0.42 + 0.5 * np.cos(np.pi * t / support) + 0.08 * np.cos(2.0 * np.pi * t / support)
    kernel = np.sinc(t) * window
    kernel /= kernel.sum()
    start = half - shift  # y[n] = conv[n + start]
    for ch in range(signal.channel_count):
        conv = fft_convolve(signal.samples[ch], kernel)
        lo = max(0, -start)
        hi = min(signal.length, conv.size - start)
        if hi > lo:
            out[ch, lo:hi] = conv[lo + start : hi + start]
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
    if t60_s <= 0:
        raise ValueError("t60 must be positive")
    taps = []
    for k, delay in enumerate(_ECHO_DELAYS_S):
        gain = 10.0 ** (-3.0 * delay / t60_s)
        taps.append((delay, gain if k % 2 == 0 else -gain))
    return tuple(taps)


def _mean_power(samples: np.ndarray) -> float:
    return float(np.mean(samples**2))


def _source_image(source: SourceSpec, geometry: ArrayGeometry, echo_taps, length: int) -> np.ndarray:
    mono = AudioBuffer(source.signal.samples[:, :length], source.signal.sample_rate)
    channels = []
    for tau in geometry.delays(source.azimuth_deg):
        img = fractional_delay(mono, float(tau)).samples[0]
        for delay, gain in echo_taps:
            img = img + gain * fractional_delay(mono, float(tau) + delay).samples[0]
        channels.append(img)
    return np.stack(channels)


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


@dataclass
class Scenario:
    """Parsed key=value scenario file."""

    target_path: str
    target_azimuth: float
    interferers: list = field(default_factory=list)  # (path, azimuth) pairs
    sir_db: float = 0.0
    sensor_noise_snr_db: float | None = None
    seed: int = 0
    echo_t60_ms: float | None = None
    spacing_m: float = 0.10
    sound_speed: float = 343.0


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


def parse_scenario(path) -> Scenario:
    """Parse a scenario file of key=value lines ('#' starts a comment).

    Keys: target=path,azimuth; interferer=path,azimuth (repeatable);
    sir_db; sensor_noise_snr_db; seed; echo_t60_ms; spacing_m; sound_speed.
    Relative WAV paths are resolved against the scenario file's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    target = None
    scenario = Scenario(target_path="", target_azimuth=90.0)
    for where, key, value in key_value_lines(path):
        try:
            if key in ("target", "interferer"):
                wav_path, azimuth = (p.strip() for p in value.split(",", 1))
                if not os.path.isabs(wav_path):
                    wav_path = os.path.join(base, wav_path)
                entry = (wav_path, float(azimuth))
                if key == "target":
                    if target is not None:
                        raise ValueError("duplicate target line")
                    target = entry
                else:
                    scenario.interferers.append(entry)
            elif key == "sir_db":
                scenario.sir_db = float(value)
            elif key == "sensor_noise_snr_db":
                scenario.sensor_noise_snr_db = float(value)
            elif key == "seed":
                scenario.seed = int(value)
            elif key == "echo_t60_ms":
                scenario.echo_t60_ms = float(value)
            elif key == "spacing_m":
                scenario.spacing_m = float(value)
            elif key == "sound_speed":
                scenario.sound_speed = float(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    if target is None:
        raise ValueError(f"{path}: scenario has no target line")
    scenario.target_path, scenario.target_azimuth = target
    return scenario


def _control_curve(rng: np.random.Generator, n: int, rate_hz: float, sample_rate: int) -> np.ndarray:
    points = max(2, int(np.ceil(n * rate_hz / sample_rate)) + 1)
    ctrl = rng.standard_normal(points)
    grid = np.linspace(0.0, points - 1.0, n)
    return np.interp(grid, np.arange(points), ctrl)


def speech_like(duration_s: float, sample_rate: int = 16000, seed: int = 0) -> AudioBuffer:
    """Synthetic speech-like test signal: pitched harmonics shaped by two
    formant resonances, syllabic amplitude rhythm, and noise bursts.

    Deterministic for a given seed; intended as desk-scale stand-in material
    when no recorded speech is at hand.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    if n <= 0:
        raise ValueError("duration must be positive")

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
    voiced = np.zeros(n)
    for k in range(1, 15):
        if k * f0_mid >= 0.45 * sample_rate:
            break
        voiced += (resonance(k * f0_mid) / k**0.5) * np.sin(k * phase)

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
