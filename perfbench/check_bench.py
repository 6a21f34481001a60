"""Self-test of the benchmark at tiny sizes.

Run it explicitly; it is not part of the package's test suite:

    python3 -m pytest -q perfbench/check_bench.py

The share-ordering test pins the profile of the code this benchmark was
written against (post-filter first on long_mpdr, GJBF first on gjbf_auto).
An optimisation of those layers is expected to change it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("long_mpdr", "gjbf_auto", "short_scored")
SEED = 7
TINY = ["--seed", str(SEED), "--seconds", "0.5", "--scale", "0.1"]
MODULES = ("blockthresh", "dsp", "gjbf", "metrics", "mpdr", "pipeline", "simulate", "wav")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (stdout lines, full result record) of one tiny run."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--trace", str(trace), *TINY],
                capture_output=True,
                text=True,
                timeout=300,
                cwd=ROOT,
            )
            assert proc.returncode == 0, proc.stderr
            path = os.path.join(OUT, f"result_{workload}_seed{SEED}_trace{trace}.json")
            with open(path, encoding="utf-8") as handle:
                results[workload, trace] = (proc.stdout.strip().splitlines(), json.load(handle))
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_by_name_and_unit(runs, workload, trace):
    lines, _ = runs[workload, trace]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = _spec()["end_to_end" if trace == 0 else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in last["metrics"].items()
    }
    for name, metric in last["metrics"].items():
        assert isinstance(metric["value"], float)
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {metric['unit']}") for line in lines)
        if trace == 0:
            assert metric["value"] > 0.0, name


def test_named_metrics_are_declared():
    per_layer = {m["name"] for m in _spec()["per_layer"]}
    for module in MODULES:
        assert f"{module}.share" in per_layer
    for name in (
        "blockthresh.block_threshold_gains.macro_blocks",
        "blockthresh.block_threshold_gains.s_per_macro_block",
        "gjbf.fdaf_gjbf.blocks",
        "gjbf.select_filter_length.parallelism",
        "mpdr.design_mpdr.bins",
        "dsp.stft.frames",
        "trace_overhead_frac",
    ):
        assert name in per_layer
    assert {m["name"] for m in _spec()["end_to_end"]} == {
        "setup_s",
        "audio_s_per_ref",
        "rtf_ref_p50",
        "peak_rss_mb",
        "neg_mse_db",
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wall_clock_and_quality_fields_printed(runs, workload):
    lines, record = runs[workload, 0]
    for name, unit in (
        ("setup_wall_s", "s"),
        ("audio_s_per_s", "s/s"),
        ("rtf_p50", "s/s"),
        ("rtf_p90", "s/s"),
        ("rtf_ref_p90", "ref/s"),
        ("rtf_samples", "count"),
        ("error_rate", "ratio"),
        ("mse_db", "dB"),
        ("osinr_db", "dB"),
        ("sinr_gain_db", "dB"),
    ):
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
    assert record["error_rate"] == 0.0
    assert record["attempted"] == record["rtf_samples"] + record["scoring_reruns"]
    assert record["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["mse_db"] == -json.loads(lines[-1])["metrics"]["neg_mse_db"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_parents_resolve(runs, workload):
    path = os.path.join(OUT, f"spans_{workload}_seed{SEED}.jsonl")
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    by_id = {s["span_id"]: s for s in spans}
    assert spans and len(by_id) == len(spans)
    for span in spans:
        if span["parent_id"] is None:
            assert span["name"] == "perfbench.op"
        else:
            parent = by_id[span["parent_id"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["op_id"] == span["op_id"]
    if workload == "gjbf_auto":
        sweeps = [s for s in spans if s["name"] == "gjbf.select_filter_length"]
        for sweep in sweeps:
            fdaf = [s for s in spans if s["name"] == "gjbf.fdaf_gjbf" and s["parent_id"] == sweep["span_id"]]
            assert len(fdaf) == 6
            assert all(s["thread"] != sweep["thread"] for s in fdaf)


@pytest.mark.parametrize("workload, first", [("long_mpdr", "blockthresh"), ("gjbf_auto", "gjbf")])
def test_share_ordering(runs, workload, first):
    layers = runs[workload, 1][1]["layers"]
    shares = {m: layers[f"{m}.share"] for m in MODULES}
    assert max(shares, key=shares.get) == first, shares


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_quality(runs, workload):
    untraced, traced = runs[workload, 0][1], runs[workload, 1][1]
    assert untraced["mse_db"] == traced["mse_db"]
    assert untraced["error_rate"] == 0.0


def test_exact_counts_repeat(runs):
    layers = runs["long_mpdr", 1][1]["layers"]
    assert layers["dsp.stft.calls"] == 2.0
    assert layers["mpdr.design_mpdr.bins"] == 257.0
    assert layers["gjbf.fdaf_gjbf.calls"] == 0.0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short_scored", *TINY],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_failing_scene_is_counted_and_reported(monkeypatch, capsys):
    """An operation whose output fails its check every time (here: all of
    scene 0's) is counted as failed, and the run still ends with a result."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import run
    import workloads

    for var in run.THREAD_VARS:  # run() pins them; restore them afterwards
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    original = workloads.LongMpdr.check

    def check(self, out):
        return "injected failure" if out.scene_index == 0 else original(self, out)

    monkeypatch.setattr(workloads.LongMpdr, "check", check)
    assert run.main(["--workload", "long_mpdr", "--trace", "0", *TINY]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] is False
    assert 0 < last["failed"] < last["attempted"]
    assert set(last["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert "osinr_db = n/a dB" in lines
