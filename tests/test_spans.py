"""Whole-grid passes split into spans, one per usable CPU, with byte-equal results.

Every test here runs on one 10 s echoic scene, long enough that the STFT,
the MPDR design and apply, the residual variance, the post-filter and the
iSTFT all split. The CPU count is patched, so the span counts are the same
on any host.
"""

import dataclasses
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import default_scene, echoic_scene_10s, usable_cpus

from audiozoom import dsp
from audiozoom.blockthresh import residual_variance
from audiozoom.dsp import AudioBuffer, StftParams, istft, stft
from audiozoom.mpdr import apply_mpdr, design_mpdr
from audiozoom.pipeline import PipelineConfig, evaluate_scene, run_zoom

SPAN_COUNTS = (1, 2, 3)
HOPS = (256, 128)
CONFIGS = {
    "mpdr": PipelineConfig(),
    "gjbf": PipelineConfig(beamformer="gjbf"),
    "gjbf-auto": PipelineConfig(beamformer="gjbf", gjbf_auto_lengths=(100, 200)),
}


@pytest.fixture(scope="module")
def scene():
    return echoic_scene_10s()


def _arrays(result) -> dict:
    arrays = {
        "output": result.output.samples,
        "beamformed_spec": result.beamformed_spec.coefficients,
        "sigma2": result.sigma2,
        "gains": result.block_grid.gains,
        "choices": result.block_grid.choices,
    }
    if result.mpdr_weights is not None:
        arrays.update(weights=result.mpdr_weights.weights, loading=result.mpdr_weights.loading)
    return arrays


def _assert_same_bytes(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name, array in want.items():
        assert got[name].dtype == array.dtype and got[name].shape == array.shape, name
        assert got[name].tobytes() == array.tobytes(), name


class TestSpanCuts:
    def test_one_span_per_cpu_cut_evenly(self):
        for frames in (626, 3749):  # 10 s and 60 s at the default STFT
            for count in SPAN_COUNTS:
                with usable_cpus(count):
                    spans = dsp._spans(frames)
                assert len(spans) == count
                assert spans[0][0] == 0 and spans[-1][1] == frames
                assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
                assert all(start == frames * k // count for k, (start, _) in enumerate(spans))
                assert all(stop - start >= dsp.SPAN_MIN_FRAMES for start, stop in spans)
        with usable_cpus(2):
            assert dsp._spans(3749) == [(0, 1874), (1874, 3749)]

    def test_short_grid_keeps_one_span(self):
        # 2 s at the default STFT is 125 frames, under two spans' worth of frames.
        with usable_cpus(8):
            assert dsp._spans(125) == [(0, 125)]
            assert len(dsp._spans(2 * dsp.SPAN_MIN_FRAMES)) == 2

    def test_bin_spans_take_their_count_from_the_frames(self):
        with usable_cpus(3):
            assert dsp._spans(626, size=257) == [(0, 85), (85, 171), (171, 257)]
            assert dsp._spans(125, size=257) == [(0, 257)]


class TestRunSpans:
    def test_first_error_in_span_order_after_every_span_ends(self):
        finished = []

        def work(first, last):
            if first == 2:
                time.sleep(0.05)  # ends well after span 1 has failed
            finished.append(first)
            if first >= 1:
                raise ValueError(f"span {first}")

        with pytest.raises(ValueError, match="span 1"):
            dsp._run_spans(work, [(0, 1), (1, 2), (2, 3)])
        assert sorted(finished) == [0, 1, 2]

    def test_spans_run_under_the_callers_error_state(self):
        seen = []

        def handler(kind, flag):
            pass

        def work(first, last):
            seen.append((first, np.geterr(), np.geterrcall(), threading.get_ident()))

        with np.errstate(over="ignore", divide="raise", invalid="call", call=handler):
            want = np.geterr()
            dsp._run_spans(work, [(0, 1), (1, 2), (2, 3)])
        caller = threading.get_ident()
        assert sorted((first, ident == caller) for first, *_, ident in seen) == [
            (0, True),
            (1, False),
            (2, False),
        ]
        assert all(state == want and call is handler for _, state, call, _ in seen)

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        dsp._run_spans(lambda first, last: time.sleep(0.01), [(0, 1), (1, 2), (2, 3)])
        assert threading.active_count() == before

    def test_caller_span_error_is_raised_after_the_other_spans_end(self):
        before = threading.active_count()
        started = threading.Barrier(3, timeout=5)
        finished = []

        def work(first, last):
            started.wait()  # every span is running before span 0 fails
            if first == 0:
                raise ValueError("span 0")
            time.sleep(0.05)
            finished.append(first)

        with pytest.raises(ValueError, match="span 0"):
            dsp._run_spans(work, [(0, 1), (1, 2), (2, 3)])
        assert sorted(finished) == [1, 2]
        assert threading.active_count() == before

    def test_base_exception_in_a_worker_span_reaches_the_caller(self):
        class Stop(BaseException):
            pass

        def work(first, last):
            if first == 1:
                raise Stop("span 1")

        with pytest.raises(Stop, match="span 1"):
            dsp._run_spans(work, [(0, 1), (1, 2), (2, 3)])

    def test_spans_run_after_the_main_thread_has_returned(self):
        # concurrent.futures takes no new work once the main thread has
        # returned; a script's worker thread may still be zooming then.
        code = (
            "import threading\n"
            "from audiozoom import dsp\n"
            "def late():\n"
            "    threading.main_thread().join()\n"
            "    seen = []\n"
            "    dsp._run_spans(lambda first, last: seen.append(first), [(0, 1), (1, 2)])\n"
            "    print(sorted(seen))\n"
            "threading.Thread(target=late).start()\n"
        )
        src = str(Path(dsp.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (out.returncode, out.stdout, out.stderr) == (0, "[0, 1]\n", "")


class TestEachChunk:
    FRAMES = 626

    @pytest.mark.parametrize("lead", [0, 3, 63])
    @pytest.mark.parametrize("count", SPAN_COUNTS)
    def test_chunks_cover_each_span_once_in_order(self, count, lead):
        # 10 KiB of scratch per frame: 52, 26 and 18 frames per chunk at 1, 2
        # and 3 spans, so a 63-frame lead takes more than one chunk.
        calls, made = [], {"a": [], "b": []}
        widths = {"a": 512, "b": 768}

        def body(span, start, stop, *buffers):
            calls.append((span, start, stop, buffers))

        def factory(name):
            def make(n):
                made[name].append((np.empty((n, widths[name])), threading.get_ident()))
                return made[name][-1][0]

            return make

        with usable_cpus(count):
            spans = dsp._spans(self.FRAMES)
            dsp._each_chunk(self.FRAMES, body, factory("a"), factory("b"), lead=lead)
        assert len(spans) == count
        frame_bytes = 8 * sum(widths.values())
        # The byte budget: every span's chunks take ceil(CHUNK_BYTES / (spans *
        # bytes per frame)) frames, so the spans' scratch together holds at most
        # one frame per span over CHUNK_BYTES.
        step = -(-dsp.CHUNK_BYTES // (count * frame_bytes))
        caller = threading.get_ident()
        for name in made:
            # One call for one frame gives the bytes per frame, then one buffer per span.
            assert [ident for _, ident in made[name]] == [caller] * (count + 1)
            assert len(made[name][0][0]) == 1
        scratch = sum(buffer.nbytes for name in made for buffer, _ in made[name][1:])
        assert scratch < dsp.CHUNK_BYTES + count * frame_bytes
        for (first, last), a, b in zip(spans, made["a"][1:], made["b"][1:]):
            mine = [call for call in calls if call[0] == (first, last)]
            frames = [v for _, start, stop, _ in mine for v in range(start, stop)]
            assert frames == list(range(max(first - lead, 0), last))
            assert first in [start for _, start, _, _ in mine]
            assert len(a[0]) == min(step, last - max(first - lead, 0))
            for _, start, stop, (got_a, got_b) in mine:
                assert 0 < stop - start <= step
                assert got_a.base is a[0] and got_b.base is b[0]
                assert len(got_a) == len(got_b) == stop - start

    @pytest.mark.parametrize("count", SPAN_COUNTS)
    def test_scratch_free_body_gets_one_chunk_per_span(self, count):
        calls = []
        with usable_cpus(count):
            spans = dsp._spans(self.FRAMES)
            dsp._each_chunk(self.FRAMES, lambda span, start, stop: calls.append((start, stop)))
        assert sorted(calls) == spans

    def test_empty_grid_calls_no_body(self):
        def body(*args):
            raise AssertionError("body called")

        with usable_cpus(3):
            dsp._each_chunk(0, body, lambda n: np.empty(n), lead=5)

    @pytest.mark.parametrize("count", SPAN_COUNTS[1:])
    def test_leads_longer_than_a_chunk_give_the_same_bytes(self, count):
        # Frame 256 at hop 1: each istft span past the first transforms the 255
        # frames before it, two chunks of 128 frames at 2 spans and three of 86
        # at 3 spans (2 KiB of scratch per frame).
        params = StftParams(256, 1)
        signal = AudioBuffer(np.random.default_rng(64).standard_normal(900), 16000)
        with usable_cpus(1):
            want = stft(signal, params)
            want_out = istft(want, length=900).samples
        with usable_cpus(count):
            assert len(dsp._spans(want.frame_count)) == count
            got = stft(signal, params)
            got_out = istft(got, length=900).samples
        lead = params.frame_length // params.hop_length - 1
        assert dsp._chunk_frames(count, 8 * params.frame_length) < lead
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got_out.tobytes() == want_out.tobytes()


@pytest.fixture(scope="module")
def runs(scene):
    """Arrays of every configuration, by (hop, span count, configuration name)."""
    out = {}
    for hop in HOPS:
        stft_params = StftParams(512, hop)
        for count in SPAN_COUNTS:
            with usable_cpus(count):
                for name, config in CONFIGS.items():
                    result = run_zoom(scene.mixture, dataclasses.replace(config, stft=stft_params))
                    out[hop, count, name] = _arrays(result)
                report, result = evaluate_scene(
                    scene.mixture,
                    scene.target_image,
                    scene.interference_plus_noise,
                    PipelineConfig(stft=stft_params),
                )
                out[hop, count, "evaluate_scene"] = {
                    **_arrays(result),
                    **{f.name: np.float64(getattr(report, f.name)) for f in dataclasses.fields(report)},
                }
                out[hop, count, "spans"] = len(dsp._spans(result.beamformed_spec.frame_count))
    return out


@pytest.mark.parametrize("hop", HOPS)
@pytest.mark.parametrize("name", [*CONFIGS, "evaluate_scene"])
def test_every_span_count_gives_the_same_bytes(runs, hop, name):
    assert [runs[hop, count, "spans"] for count in SPAN_COUNTS] == list(SPAN_COUNTS)
    for count in SPAN_COUNTS[1:]:
        _assert_same_bytes(runs[hop, count, name], runs[hop, 1, name])


def test_concurrent_zooms_match_serial_ones(scene, runs):
    # Two zooms of three spans each: more threads than this host has CPUs,
    # switching as often as the interpreter allows.
    results = [None, None]

    def zoom(index):
        results[index] = _arrays(run_zoom(scene.mixture))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with usable_cpus(3):
            threads = [threading.Thread(target=zoom, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for arrays in results:
        _assert_same_bytes(arrays, runs[256, 1, "mpdr"])


def test_short_grid_starts_no_thread(monkeypatch):
    # A 2 s scene, as the benchmark's short_scored runs, stays on the caller's thread.
    scene = default_scene(seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)
    with usable_cpus(8):
        for beamformer in ("mpdr", "gjbf"):
            config = PipelineConfig(beamformer=beamformer)
            run_zoom(scene.mixture, config)
            evaluate_scene(scene.mixture, scene.target_image, scene.interference_plus_noise, config)


class TestErrorsAtSplitLength:
    """The overflow errors of a split run match the 2 s rows of
    tests/test_mpdr.py::TestAmplitudeRange, warnings as errors and no warning.

    At 10 s the covariance sums five times the frames, so it already
    overflows at 1e152: the post-filter row sits at 3e151 here. In the
    amplitude rows only sums overflow, on the caller's thread; the residual
    variance case overflows a cell in the second span, on a worker thread.
    """

    @staticmethod
    def _error(fn, *args):
        with pytest.raises(Exception) as info:  # warnings are errors here too
            fn(*args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(info.type):
                fn(*args)
        assert not caught
        return info.type, str(info.value)

    @pytest.mark.parametrize(
        "a_short, a_long, match",
        [(1e152, 3e151, "post-filter's mean power"), (1e153, 1e153, "covariance")],
    )
    def test_amplitude_rows(self, scene, a_short, a_long, match):
        short = default_scene(seed=1).mixture
        want = self._error(run_zoom, AudioBuffer(a_short * short.samples, short.sample_rate))
        assert want[0] is ValueError and match in want[1]
        with usable_cpus(2):
            got = self._error(run_zoom, AudioBuffer(a_long * scene.mixture.samples, 16000))
        assert got == want

    def test_residual_variance_overflow(self, scene):
        def loud_last_frame(mixture):
            y1, y2 = stft(mixture.channel(0)), stft(mixture.channel(1))
            z = apply_mpdr(y1, y2, design_mpdr(y1, y2))
            loud = y1.coefficients.copy()
            loud[:, -1] *= 1e200
            return y1.with_coefficients(loud), y2, z

        want = self._error(residual_variance, *loud_last_frame(default_scene(seed=1).mixture))
        assert want[0] is ValueError and "residual variance" in want[1]
        with usable_cpus(2):
            got = self._error(residual_variance, *loud_last_frame(scene.mixture))
        assert got == want
