"""Shared test utilities: reference implementations and scene builders."""

import numpy as np

from audiozoom.dsp import AudioBuffer
from audiozoom.simulate import MixtureSpec, SourceSpec, speech_like, synthesize_mixture, two_mic_array

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


def white_noise_buffer(length, seed, rate=FS):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.standard_normal(length), rate)
