"""Shared test utilities: reference implementations and scene builders."""

import contextlib
import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile

from audiozoom import dsp, gjbf, pipeline
from audiozoom.blockthresh import (
    CHOICE_DTYPE,
    SNR_CAP,
    BlockGrid,
    BlockThresholdParams,
    _feasible_levels,
    attenuation_factor,
    block_threshold_gains,
    enumerate_partitions,
    variance_floor,
)
from audiozoom.dsp import AudioBuffer, check_cola, istft, make_window, stft
from audiozoom.gjbf import DIVERGENCE_LIMIT, POWER_SMOOTHING, fdaf_gjbf
from audiozoom.metrics import EvalReport, decompose_linear, mse_db, osinr_db
from audiozoom.mpdr import apply_mpdr, design_mpdr
from audiozoom.simulate import (
    HARMONICS,
    MixtureSpec,
    SourceSpec,
    _control_curve,
    echo_taps_for_t60,
    speech_like,
    synthesize_mixture,
    two_mic_array,
)

FS = 16000


def block_lms_reference(
    reference, desired, filter_length, block_size, step_size, n_blocks, leak=0.0
):
    """Plain time-domain block LMS; returns the tap vector after every block.

    Update per block: w = (1 - leak) * w + mu * sum_n e[n] * u[n - i], a
    leaky step along the gradient of the block error power. Serves as the
    independent oracle for the frequency-domain implementation with a fixed
    (unnormalized) step.
    """
    u = np.asarray(reference, dtype=np.float64)
    d = np.asarray(desired, dtype=np.float64)
    w = np.zeros(filter_length)
    history = np.zeros(filter_length)
    trajectory = []
    for k in range(n_blocks):
        blk = u[k * block_size : (k + 1) * block_size]
        ctx = np.concatenate([history, blk])
        out = np.empty(block_size)
        for n in range(block_size):
            # ctx[filter_length + n] is the newest sample for output n.
            out[n] = w @ ctx[n + 1 : n + 1 + filter_length][::-1]
        err = d[k * block_size : (k + 1) * block_size] - out
        grad = np.empty(filter_length)
        for i in range(filter_length):
            grad[i] = err @ ctx[filter_length - i : filter_length - i + block_size]
        w = (1.0 - leak) * w + step_size * grad
        history = ctx[block_size:]
        trajectory.append(w.copy())
    return np.asarray(trajectory)


def fdaf_gjbf_reference(x1, x2, config):
    """Per-block loop form of gjbf.fdaf_gjbf; returns (z, y_b, taps) arrays.

    Every block transforms its own reference frame and updates the
    normalizing power inside the adaptive loop. Serves as the oracle for the
    implementation that computes the tap-independent work before the loop.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    n_samples = x1.size
    L, B, delay = config.filter_length, config.block, config.delay
    nfft = L + B
    fixed = 0.5 * (x1 + x2)
    reference = x1 - x2
    n_blocks = -(-(n_samples + delay) // B)
    padded = n_blocks * B
    ref_pad = np.pad(reference, (L, padded - n_samples))
    desired = np.pad(fixed, (delay, padded - delay - n_samples))

    taps = np.zeros(L)
    power = np.zeros(nfft // 2 + 1)
    err_frame = np.zeros(nfft)
    estimate = np.zeros(padded)
    gamma = POWER_SMOOTHING
    power_floor = 1e-4 * nfft * float(np.mean(reference**2))
    for k in range(n_blocks):
        spectrum = np.fft.rfft(ref_pad[k * B : k * B + nfft])
        block_out = np.fft.irfft(spectrum * np.fft.rfft(taps, nfft), nfft)[L:]
        estimate[k * B : (k + 1) * B] = block_out
        err_frame[L:] = desired[k * B : (k + 1) * B] - block_out
        grad = np.conj(spectrum) * np.fft.rfft(err_frame)
        if config.normalized:
            block_power = np.abs(spectrum) ** 2
            power = block_power if k == 0 else gamma * power + (1.0 - gamma) * block_power
            grad = grad / (power + power_floor + 1e-300)
        taps = (1.0 - config.leak) * taps + config.step_size * np.fft.irfft(grad, nfft)[:L]
        if not np.all(np.isfinite(taps)) or np.abs(taps).max() > DIVERGENCE_LIMIT:
            raise RuntimeError("step size too large")
    z = desired - estimate
    return z[delay : delay + n_samples], estimate[delay : delay + n_samples], taps


def overlap_save_frames_reference(ch1, ch2, config):
    """gjbf._overlap_save_frames as the package had it while its block loop
    kept the taps first-to-last: np.pad of the paths' temporaries."""
    x1, x2 = ch1.samples[0], ch2.samples[0]
    L, B, delay = config.filter_length, config.block, config.delay
    padded = -(-(x1.size + delay) // B) * B
    ref_pad = np.pad(x1 - x2, (L, padded - x1.size))
    desired = np.pad(0.5 * (x1 + x2), (delay, padded - delay - x1.size))
    return desired, sliding_window_view(ref_pad, L + B)[::B], ref_pad[L : L + x1.size]


def gradient_kernels_reference(frames, reference, config):
    """gjbf._gradient_kernels as the package had it then: the power recursion
    indexed row by row."""
    if not config.normalized:
        return frames
    nfft = frames.shape[1]
    spectra = np.fft.rfft(frames)
    power = np.abs(spectra) ** 2
    power[1:] *= 1.0 - POWER_SMOOTHING
    for k in range(1, len(power)):
        power[k] += POWER_SMOOTHING * power[k - 1]
    power += 1e-4 * nfft * float(np.mean(reference**2))
    power += 1e-300
    spectra /= power
    del power
    return np.fft.irfft(spectra, nfft)


def adapt_reference(desired, frames, kernels, config):
    """gjbf._adapt as the package had it then: taps first-to-last, output by
    np.convolve, gradient by a reversed np.correlate, and max|taps| tested
    every block. Overflow is reported only under fdaf_gjbf's errstate."""
    B = config.block
    taps = np.zeros(config.filter_length)
    trajectory = np.zeros((len(frames) + 1, taps.size))
    estimate = np.empty(desired.size)
    for k, (frame, kernel) in enumerate(zip(frames[:, 1:], kernels[:, 1:])):
        block = slice(k * B, (k + 1) * B)
        block_out = np.convolve(frame, taps, "valid")
        estimate[block] = block_out
        error = desired[block] - block_out
        if config.leak:
            taps *= 1.0 - config.leak
        taps += config.step_size * np.correlate(kernel, error, "valid")[::-1]
        peak = np.abs(taps).max()
        if not peak <= DIVERGENCE_LIMIT:
            if not np.isfinite(peak):
                raise ValueError(gjbf._OVERFLOW)
            raise RuntimeError("step size too large")
        trajectory[k + 1] = taps
    return estimate, trajectory


def fdaf_gjbf_loop_reference(ch1, ch2, config):
    """The three reference stages run as fdaf_gjbf runs its own; returns
    (z, y_b, trajectory) as arrays. Serves as the byte-equality oracle for
    the block loop."""
    with np.errstate(over="call", call=gjbf._input_overflow):
        desired, frames, reference = overlap_save_frames_reference(ch1, ch2, config)
        kernels = gradient_kernels_reference(frames, reference, config)
        estimate, trajectory = adapt_reference(desired, frames, kernels, config)
    crop = slice(config.delay, config.delay + ch1.length)
    return (desired - estimate)[crop], estimate[crop], trajectory


def default_scene(
    seed,
    duration_s=2.0,
    sir_db=0.0,
    target_azimuth=90.0,
    interferer_azimuth=60.0,
    sensor_noise_snr_db=None,
    echo_taps=(),
    spacing_m=0.10,
):
    """Simulated two-mic scene: speech-like target vs speech-like interferer."""
    target = speech_like(duration_s, FS, seed=seed)
    interferer = speech_like(duration_s, FS, seed=seed + 1000)
    spec = MixtureSpec(
        target=SourceSpec(target_azimuth, target),
        interferers=(SourceSpec(interferer_azimuth, interferer, "interference"),),
        sir_db=sir_db,
        sensor_noise_snr_db=sensor_noise_snr_db,
        echo_taps=echo_taps,
    )
    return synthesize_mixture(spec, two_mic_array(spacing_m), seed=seed)


@functools.cache
def echoic_scene_10s():
    """default_scene(1) at 10 s with echo (T60 0.3 s), built once per session:
    long enough that the whole-grid passes split into spans."""
    return default_scene(seed=1, duration_s=10.0, echo_taps=echo_taps_for_t60(0.3))


@contextlib.contextmanager
def usable_cpus(count):
    """Make the package see `count` usable CPUs, so a long enough whole-grid
    pass splits into that many spans."""
    saved = dsp._usable_cpus
    dsp._usable_cpus = lambda: count
    try:
        yield
    finally:
        dsp._usable_cpus = saved


def read_wav_reference(path):
    """scipy.io.wavfile form of wav.read_wav, as the package read WAV files
    before it had its own codec. Serves as the oracle for the reader."""
    int_scale = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}
    rate, data = wavfile.read(path)
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[:, None]
    if data.dtype in int_scale:
        samples = data / int_scale[data.dtype]
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV sample format {data.dtype} in {path}")
    return AudioBuffer(samples.T, int(rate))


def white_noise_buffer(length, seed, rate=FS):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.standard_normal(length), rate)


def speech_like_reference(duration_s, sample_rate=16000, seed=0):
    """Direct-sum form of simulate.speech_like: one np.sin pass per harmonic.

    Draws the same random numbers in the same order, so it differs from the
    library's Clenshaw sum only by rounding. Serves as its oracle.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
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
    for k in range(1, HARMONICS + 1):
        if k * f0_mid >= 0.45 * sample_rate:
            break
        voiced += (resonance(k * f0_mid) / k**0.5) * np.sin(k * phase)
    syllables = np.clip(_control_curve(rng, n, 4.0, sample_rate), 0.0, None) ** 0.8
    burst_gate = np.clip(_control_curve(rng, n, 3.0, sample_rate), 0.0, None)
    fricative = np.diff(rng.standard_normal(n + 1))
    x = voiced * syllables + 0.25 * fricative * burst_gate
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 0.7 / peak
    return AudioBuffer(x, sample_rate)


def block_threshold_reference(z, sigma2, params=BlockThresholdParams()):
    """Per-macro-block loop form of blockthresh.block_threshold_gains.

    Scans the grid macro-block by macro-block, scores every tiling of each
    block separately and keeps the best by (above-threshold count, mean SNR
    above threshold), exact ties to the smaller v. Serves as the oracle for the
    batched implementation.
    """
    coeffs = getattr(z, "coefficients", z)
    power = np.abs(np.asarray(coeffs)) ** 2
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    bins, frames = power.shape
    floor = variance_floor(power)

    def block_means(values, tiling):
        # Exact pairwise halving, bins then frames, as the library sums: equal
        # cells give equal means at every sub-block shape, so ties stay exact.
        b, f = values.shape
        sb, st = tiling.sub_bins, tiling.sub_frames
        sums = values.reshape(b // sb, sb, f // st, st)
        while sums.shape[1] > 1:
            sums = sums[:, 0::2] + sums[:, 1::2]
        while sums.shape[3] > 1:
            sums = sums[..., 0::2] + sums[..., 1::2]
        return sums[:, 0, :, 0] / tiling.cells

    gains = np.ones_like(power)
    choices = []
    for b0 in range(0, bins, params.macro_bins):
        b1 = min(b0 + params.macro_bins, bins)
        for t0 in range(0, frames, params.macro_frames):
            t1 = min(t0 + params.macro_frames, frames)
            h = _feasible_levels(t1 - t0, b1 - b0, params.levels)
            best = None
            for tiling in enumerate_partitions(t1 - t0, b1 - b0, h):
                mean_power = block_means(power[b0:b1, t0:t1], tiling)
                mean_var = block_means(sigma2[b0:b1, t0:t1], tiling)
                with np.errstate(divide="ignore", invalid="ignore"):
                    snr = np.clip(mean_power / mean_var - 1.0, 0.0, SNR_CAP)
                snr = np.where(mean_var <= floor, SNR_CAP, snr)
                above = snr > params.snr_threshold
                count = int(above.sum())
                mean_above = float(snr[above].mean()) if count else float("-inf")
                if best is None or (count, mean_above) > (best[0], best[1]):
                    best = (count, mean_above, tiling, snr)
            tiling, snr = best[2], best[3]
            block_gain = attenuation_factor(snr)
            gains[b0:b1, t0:t1] = np.repeat(
                np.repeat(block_gain, tiling.sub_bins, axis=0), tiling.sub_frames, axis=1
            )
            choices.append((b0, t0, b1 - b0, t1 - t0, h, tiling.v))
    return BlockGrid(params=params, gains=gains, choices=np.array(choices, dtype=CHOICE_DTYPE))


def run_zoom_reference(mixture, config):
    """Eager form of pipeline.run_zoom, without the length sweep.

    Inverts the beamformed spectrogram whether or not anyone reads it, keeps
    both channel spectra to the end and takes the residual variance's |.|^2
    as np.abs(.) ** 2; the gains come from block_threshold_gains itself.
    Returns the result's arrays by attribute name ("gains" and "choices" from
    the block grid, "weights" or "trajectory" from the beamformer); serves as
    the oracle for the lazy, in-place form.
    """
    ch1, ch2 = mixture.channel(0), mixture.channel(1)
    y1, y2 = stft(ch1, config.stft), stft(ch2, config.stft)
    if config.beamformer == "mpdr":
        weights = design_mpdr(y1, y2, alpha=config.mpdr_alpha)
        z_spec = apply_mpdr(y1, y2, weights)
        beamformed = istft(z_spec, length=mixture.length)
        arrays = {"weights": weights.weights}
    else:
        beamformed, _, state = fdaf_gjbf(ch1, ch2, config.gjbf)
        z_spec = stft(beamformed, config.stft)
        arrays = {"trajectory": state.trajectory}
    z = z_spec.coefficients
    sigma2 = (np.abs(y1.coefficients - z) ** 2 + np.abs(y2.coefficients - z) ** 2) * 0.5
    arrays.update(
        output=beamformed.samples, beamformed=beamformed.samples, beamformed_spec=z, sigma2=sigma2
    )
    if config.bt_enabled:
        grid = block_threshold_gains(z_spec, sigma2, config.bt)
        output = istft(z_spec.with_coefficients(z * grid.gains), length=mixture.length)
        arrays.update(output=output.samples, gains=grid.gains, choices=grid.choices)
    return arrays


def evaluate_scene_reference(mixture, target_image, residual_image, config):
    """pipeline.evaluate_scene as it was before metrics.stage_scores.

    Each stage's residual is its own waveform: MPDR inverts the residual
    image's share of the beamformed spectrogram, GJBF replays the run on the
    residual image, and only the post-filter's residual is its output minus
    its target. Returns (EvalReport, ZoomResult); serves as the oracle for
    the one scoring rule.
    """
    result = pipeline.run_zoom(mixture, config)
    length = mixture.length
    if config.beamformer == "mpdr":
        target_spec, residual_spec = decompose_linear(
            pipeline.frozen_stage(result), target_image, residual_image,
            mixture_output=result.beamformed_spec,
        )
        target_out = istft(target_spec, length=length)
        residual_out = istft(residual_spec, length=length)
    else:
        target_out, residual_out = decompose_linear(
            pipeline.frozen_stage(result), target_image, residual_image,
            mixture_output=result.beamformed,
        )
        target_spec = stft(target_out, config.stft) if config.bt_enabled else None

    reference = AudioBuffer(target_image.samples.mean(axis=0), target_image.sample_rate)
    input_sinr = osinr_db(target_image, residual_image)
    osinr_beamformer = osinr_db(target_out, residual_out)
    mse_beamformer = mse_db(result.beamformed, reference)

    if config.bt_enabled:
        gained = target_spec.coefficients * result.block_grid.gains
        target_final = istft(target_spec.with_coefficients(gained), length=length)
        residual_final = AudioBuffer(result.output.samples - target_final.samples, mixture.sample_rate)
        final_osinr = osinr_db(target_final, residual_final)
        final_mse = mse_db(result.output, reference)
    else:
        final_osinr = osinr_beamformer
        final_mse = mse_beamformer

    report = EvalReport(
        input_sinr_db=input_sinr,
        osinr_db=final_osinr,
        mse_db=final_mse,
        osinr_beamformer_db=osinr_beamformer,
        mse_beamformer_db=mse_beamformer,
    )
    return report, result


def istft_reference(spec, length=None):
    """Frame-by-frame weighted overlap-add; the oracle for dsp.istft."""
    params = spec.params
    if not check_cola(params):
        raise ValueError("window does not satisfy COLA")
    frame, hop = params.frame_length, params.hop_length
    window = make_window(params.window, frame)
    n_frames = spec.frame_count
    if n_frames == 0:
        return AudioBuffer(np.zeros(0 if length is None else length), spec.sample_rate)
    frames = np.fft.irfft(spec.coefficients.T, n=frame, axis=1)
    frames *= window
    out = np.zeros((n_frames - 1) * hop + frame)
    env = np.zeros_like(out)
    for v in range(n_frames):
        out[v * hop : v * hop + frame] += frames[v]
        env[v * hop : v * hop + frame] += window * window
    live = env > 1e-12 * env.max()
    out[live] /= env[live]
    if length is not None:
        if length <= out.size:
            out = out[:length]
        else:
            out = np.concatenate([out, np.zeros(length - out.size)])
    return AudioBuffer(out, spec.sample_rate)


def apply_mpdr_reference(spec_ch1, spec_ch2, weights):
    """Whole-grid form of mpdr.apply_mpdr: one einsum per channel over every
    frame at once, the second added into the first. Returns the coefficients;
    serves as the oracle for the chunked form."""
    w = weights.weights.conj()
    out = np.einsum("f,fk->fk", w[:, 0], spec_ch1.coefficients)
    out += np.einsum("f,fk->fk", w[:, 1], spec_ch2.coefficients)
    return out


def mpdr_weights_reference(matrix, steering, alpha):
    """Scalar per-bin form of mpdr.mpdr_weights for one 2x2 covariance.

    Scales the loaded entries by the power of two nearest the largest,
    solves (R + alpha*I) w = d through the adjugate, undoes the scale and
    normalises by d^H w. Serves as the oracle for the batched solve.
    """
    if alpha < 0:
        raise ValueError("loading must be nonnegative")
    matrix = np.asarray(matrix, dtype=np.complex128)
    d = np.asarray(steering, dtype=np.complex128)
    entries = (matrix[0, 0] + alpha, matrix[0, 1], matrix[1, 0], matrix[1, 1] + alpha)
    peak = max(abs(x) for x in entries)
    if 0.0 < peak < np.finfo(np.float64).tiny:
        raise np.linalg.LinAlgError("covariance below the normal float range; increase loading")
    unit = np.ldexp(1.0, -int(np.frexp(peak)[1]))
    a, b, c, e = (x * unit for x in entries)
    det = a * e - b * c
    scale = max(abs(a), abs(b), abs(c), abs(e), 1e-300)
    if abs(det) <= 1e-15 * scale * scale:
        raise np.linalg.LinAlgError("degenerate covariance; increase loading")
    num = np.array([e * d[0] - b * d[1], -c * d[0] + a * d[1]]) / det * unit
    den = d.conj() @ num
    if den == 0:
        raise np.linalg.LinAlgError("degenerate covariance; increase loading")
    return num / den


def _pow2_fft_convolve(x, h):
    # Full linear convolution through a power-of-two FFT.
    n = x.size + h.size - 1
    nfft = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(h, nfft), nfft)[:n]


def _fractional_delay_1d(x, total, taps=31):
    # One path: snap within a nanosample to an exact shift, else a
    # windowed-sinc interpolator through a full-length FFT convolution.
    if abs(total) >= x.size:
        raise ValueError("delay exceeds signal length")
    nearest = round(total)
    if abs(total - nearest) < 1e-9:
        total = float(nearest)
    shift = int(np.floor(total))
    frac = total - shift
    out = np.zeros_like(x)
    if frac == 0.0:
        src_lo, src_hi = max(0, -shift), min(x.size, x.size - shift)
        out[src_lo + shift : src_hi + shift] = x[src_lo:src_hi]
        return out
    half = (taps - 1) // 2
    t = np.arange(taps) - half - frac
    support = (taps + 1) / 2.0
    window = 0.42 + 0.5 * np.cos(np.pi * t / support) + 0.08 * np.cos(2.0 * np.pi * t / support)
    kernel = np.sinc(t) * window
    kernel /= kernel.sum()
    start = half - shift
    conv = _pow2_fft_convolve(x, kernel)
    lo, hi = max(0, -start), min(x.size, conv.size - start)
    if hi > lo:
        out[lo:hi] = conv[lo + start : hi + start]
    return out


def source_image_reference(source, geometry, echo_taps, length):
    """Per-path form of simulate._source_image.

    Delays the cropped source once per propagation path, each fractional
    path with its own FFT convolution, and sums the paths per mic in path
    order. Serves as the oracle for the one-convolution-per-mic simulator.
    """
    mono = source.signal.samples[0, :length]
    rate = source.signal.sample_rate
    channels = []
    for tau in geometry.delays(source.azimuth_deg):
        img = _fractional_delay_1d(mono, float(tau) * rate)
        for delay, gain in echo_taps:
            img = img + gain * _fractional_delay_1d(mono, (float(tau) + delay) * rate)
        channels.append(img)
    return np.stack(channels)


def align_delay_and_scale_reference(estimate, reference, max_shift=512):
    """Full-correlation form of metrics.align_delay_and_scale.

    Computes the whole linear cross-correlation, reads the lags in
    [-max_shift, max_shift] that overlap, and fits the least-squares gain
    over the overlap. Serves as the oracle for the bounded-lag correlation.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    n = min(estimate.size, reference.size)
    estimate, reference = estimate[:n], reference[:n]
    corr = _pow2_fft_convolve(reference, estimate[::-1])
    lags = np.arange(-max_shift, max_shift + 1)
    idx = (n - 1) - lags  # corr[n-1-k] = sum ref[i] * est[i+k]
    keep = (idx >= 0) & (idx < corr.size)
    lags, idx = lags[keep], idx[keep]
    shift = int(lags[np.argmax(np.abs(corr[idx]))])
    lo, hi = max(0, -shift), min(n, n - shift)
    aligned = np.zeros(n)
    aligned[lo:hi] = estimate[lo + shift : hi + shift]
    seg = aligned[lo:hi]
    denom = float(seg @ seg)
    gain = float(reference[lo:hi] @ seg) / denom if denom > 0 else 0.0
    return gain * aligned, shift, gain
