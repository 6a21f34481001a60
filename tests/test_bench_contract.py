"""The benchmark still fits the package: traced names resolve, spans nest,
counts hold, and the workloads build and run their scenes.

perfbench/spans.py and perfbench/workloads.py are loaded by path and only
read. The tracer wraps package functions by name and counts work from their
results, and the workloads call the simulator and the pipeline directly, so
a renamed function, a changed signature or a changed result shape would
otherwise show only in the benchmark's own runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
from helpers import default_scene, echoic_scene_10s, usable_cpus

from audiozoom import dsp, pipeline
from audiozoom.pipeline import PipelineConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SWEEP_LENGTHS = (32, 64)


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_resolve():
    spans = _load_perfbench("spans")
    for module_name, functions in spans.TRACED.items():
        module = importlib.import_module(f"audiozoom.{module_name}")
        for func_name in functions:
            assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
    assert callable(getattr(importlib.import_module("audiozoom.gjbf"), "ThreadPoolExecutor", None))


@pytest.fixture(scope="module")
def traced_ops():
    """(spans module, tracer, mpdr result, gjbf-auto result) of three traced operations."""
    spans = _load_perfbench("spans")
    scene = default_scene(seed=1, duration_s=0.5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Looked up after install, as the benchmark does, so the wrappers run.
        mpdr = tracer.run_op(pipeline.run_zoom, scene.mixture, PipelineConfig(beamformer="mpdr"))
        gjbf = tracer.run_op(
            pipeline.run_zoom,
            scene.mixture,
            PipelineConfig(beamformer="gjbf", gjbf_auto_lengths=SWEEP_LENGTHS),
        )
        tracer.run_op(
            pipeline.evaluate_scene,
            scene.mixture,
            scene.target_image,
            scene.interference_plus_noise,
            PipelineConfig(),
        )
    finally:
        tracer.remove()
    return spans, tracer, mpdr, gjbf


def test_traced_ops_nest_and_count_macro_blocks(traced_ops):
    spans, tracer, mpdr, gjbf = traced_ops
    assert spans.unresolved_parents(tracer.spans) == []
    assert len(tracer.op_ids) == 3
    names = {span.name for span in tracer.spans}
    assert {"gjbf.select_filter_length", "gjbf.fdaf_gjbf", "pipeline.evaluate_scene"} <= names

    bins, frames = mpdr.beamformed_spec.coefficients.shape
    want = -(-bins // 16) * -(-frames // 8)
    counts = [s.count for s in tracer.spans if s.name == "blockthresh.block_threshold_gains"]
    assert counts == [want] * 3  # one post-filter per operation, all on the same grid
    assert gjbf.beamformed_spec.coefficients.shape == (bins, frames)
    metrics = spans.layer_metrics(tracer.spans, tracer.op_ids)
    assert metrics["blockthresh.block_threshold_gains.macro_blocks"] == want


def test_traced_sweep_spans(traced_ops):
    # Mirrors the benchmark self-test's sweep check: one fdaf_gjbf span per
    # candidate under the sweep, each off the sweep's thread; and none overlap.
    _, tracer, _, _ = traced_ops
    (sweep,) = [s for s in tracer.spans if s.name == "gjbf.select_filter_length"]
    runs = sorted((s for s in tracer.spans if s.name == "gjbf.fdaf_gjbf"), key=lambda s: s.start)
    assert len(runs) == len(SWEEP_LENGTHS)
    assert all(s.parent_id == sweep.span_id and s.thread != sweep.thread for s in runs)
    assert all(a.end <= b.start for a, b in zip(runs, runs[1:]))


def test_traced_mpdr_zoom_counts_transforms():
    # The benchmark's self-test pins dsp.stft.calls == 2 and no GJBF on
    # long_mpdr; an MPDR zoom inverts only its output spectrogram.
    spans = _load_perfbench("spans")
    scene = default_scene(seed=1, duration_s=0.5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_op(pipeline.run_zoom, scene.mixture, PipelineConfig(beamformer="mpdr"))
    finally:
        tracer.remove()
    names = [span.name for span in tracer.spans]
    assert names.count("dsp.stft") == 2
    assert names.count("dsp.istft") == 1
    assert names.count("gjbf.fdaf_gjbf") == 0


def test_traced_split_mpdr_zoom_keeps_its_spans_on_the_op_thread():
    # At 10 s the whole-grid passes split into spans on threads of their own.
    # Those threads call only private code and NumPy, so the counts the
    # benchmark pins stay exact, and every recorded span is on the op's thread.
    spans = _load_perfbench("spans")
    mixture = echoic_scene_10s().mixture
    tracer = spans.Tracer()
    tracer.install()
    try:
        with usable_cpus(2):
            result = tracer.run_op(pipeline.run_zoom, mixture, PipelineConfig(beamformer="mpdr"))
            assert len(dsp._spans(result.beamformed_spec.frame_count)) == 2
    finally:
        tracer.remove()
    assert spans.unresolved_parents(tracer.spans) == []
    names = [span.name for span in tracer.spans]
    assert names.count("dsp.stft") == 2
    assert names.count("dsp.istft") == 1
    (op,) = [span for span in tracer.spans if span.name == spans.OP_SPAN]
    assert {span.thread for span in tracer.spans} == {op.thread}


@pytest.mark.parametrize("name", ["short_scored", "gjbf_auto"])
def test_workload_sets_up_and_runs_one_op(tmp_path, name):
    # At a tenth of the benchmark's scene length: 0.2 s scenes for
    # short_scored, 1 s for gjbf_auto (long enough for every sweep length).
    workloads = _load_perfbench("workloads")
    workload = workloads.WORKLOADS[name](seed=1, workdir=str(tmp_path), scale=0.1)
    workload.setup()
    out = workload.op(0)
    assert workload.check(out) is None
