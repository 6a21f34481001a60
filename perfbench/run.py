"""Closed-loop benchmark of the audiozoom pipeline, one client, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload long_mpdr --seed 1 --seconds 25 --trace 0

Workloads: long_mpdr, gjbf_auto, short_scored (see workloads.py and
perfbench/README.md). With ``--trace 0`` the last line of standard output is
one JSON object holding the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run. Full results, including environment
and quality fields, go to ``.perfbench_out/`` at the repository root.

The package is imported from ``src/`` next to this directory; nothing is
installed or built. Exit status is 0 when the run completed, even if an
operation failed (``correct`` is then false), and 2 when the benchmark
cannot run at all.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import spans  # imports no NumPy, so the thread pinning below still comes first

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Pinned before NumPy loads: BLAS threads would compete with the sweep's pool
# on a small machine and make timings depend on what else runs there.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Fresh processes whose set-up time is measured; the median is reported.
# The host's speed drifts over windows of seconds, so the probes are split
# between before and after the timed loop, about half a minute apart.
SETUP_RUNS_BEFORE, SETUP_RUNS_AFTER = 2, 3
# setup_s is scaled to a host on which hostref.interpreter_reference takes
# this long; this 2-vCPU virtual machine took 1.8-2.6 ms (see README.md).
SETUP_REF_S = 0.002
PROBE_TIMEOUT_S = 150

E2E_METRICS = {
    "setup_s": "s",
    "audio_s_per_ref": "s/ref",
    "rtf_ref_p50": "ref/s",
    "peak_rss_mb": "MB",
    "neg_mse_db": "dB",
}
# A 90th percentile needs ten samples beyond it; fewer operations print n/a.
P90_MIN_SAMPLES = 100
# Printed by name and unit after the metrics, not gated (see README.md).
INFO_FIELDS = {
    "setup_wall_s": "s",
    "audio_s_per_s": "s/s",
    "rtf_p50": "s/s",
    "rtf_p90": "s/s",
    "rtf_ref_p90": "ref/s",
    "rtf_samples": "count",
    "ref_s_median": "s",
    "attempted": "count",
    "failed": "count",
    "error_rate": "ratio",
    "mse_db": "dB",
    "osinr_db": "dB",
    "sinr_gain_db": "dB",
}

# The per-layer figures registered in BENCHMARK.json. The result file holds
# every figure of every traced function (see spans.layer_metrics).
_FUNCTION_STATS = {
    "blockthresh.block_threshold_gains": ("calls", "self_s", "macro_blocks", "s_per_macro_block"),
    "blockthresh.residual_variance": ("self_s",),
    "gjbf.fdaf_gjbf": ("calls", "self_s", "blocks", "s_per_block"),
    "gjbf.select_filter_length": ("wall_s", "parallelism"),
    "gjbf.mean_sinr_db": ("self_s",),
    "mpdr.design_mpdr": ("self_s", "bins", "s_per_bin"),
    "mpdr.apply_mpdr": ("self_s",),
    "dsp.stft": ("calls", "self_s", "frames", "s_per_frame"),
    "dsp.istft": ("calls", "self_s"),
    "dsp.fft_convolve": ("calls", "self_s"),
    "metrics.mse_db": ("self_s",),
    "metrics.decompose_linear": ("self_s",),
    "metrics.shadow_gain_decompose": ("self_s",),
    "metrics.osinr_db": ("self_s",),
    "simulate.synthesize_mixture": ("self_s",),
    "simulate.fractional_delay": ("calls",),
    "pipeline.run_zoom": ("self_s",),
    "pipeline.evaluate_scene": ("self_s",),
    "wav.read_wav": ("self_s",),
    "wav.write_wav": ("self_s",),
}
_STAT_UNITS = {"calls": "count", "wall_s": "s", "self_s": "s", "parallelism": "ratio"}


def _stat_unit(stat: str) -> str:
    if stat.startswith("s_per_"):
        return "s"
    return _STAT_UNITS.get(stat, "count")


PER_LAYER_METRICS = {
    **{f"{fn}.{stat}": _stat_unit(stat) for fn, stats in _FUNCTION_STATS.items() for stat in stats},
    **{f"{module}.share": "ratio" for module in spans.MODULES},
    "trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a failed set-up probe)."""


def pin_threads(nproc: int) -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS} | {"nproc": nproc}


def import_package():
    """Import audiozoom from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "audiozoom", "__init__.py")):
        raise BenchError(f"no audiozoom sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import audiozoom

    if not os.path.realpath(audiozoom.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"audiozoom was imported from {audiozoom.__file__}, not {SRC}")
    return audiozoom


@dataclass
class OpRecord:
    index: int
    wall_s: float
    ref_s: float  # mean of the reference times measured just before and after
    error: str | None

    @property
    def refs(self) -> float:
        """The operation's cost in reference units."""
        return self.wall_s / self.ref_s


def _attempt(fn, *args) -> tuple:
    """(fn(*args), None), or (None, error text) when it raises."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - a failed operation is data, not a crash
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def run_ops(workload, host, seconds: float, scores: dict, start: int = 0, tracer=None) -> list:
    """Closed loop: each operation starts when the previous one has returned.

    It runs whole passes over the scene pool, so every scene weighs the same
    in the figures and per-operation work counts repeat exactly, and stops
    at the end of the pass nearest to `seconds` (after one pass at least).
    The first output of each scene is scored into `scores`, outside the
    operation's wall time. The host reference is timed between
    operations, also outside their wall time.
    """
    op = workload.op if tracer is None else functools.partial(tracer.run_op, workload.op)
    records = []
    pass_start = time.perf_counter()
    deadline = pass_start + seconds
    index = start
    ref_before = host.measure()
    while True:
        t0 = time.perf_counter()
        out, error = _attempt(op, index)
        wall = time.perf_counter() - t0
        ref_after = host.measure()
        if error is None:
            verdict, error = _attempt(workload.check, out)
            error = error or verdict
        records.append(OpRecord(index, wall, (ref_before + ref_after) / 2, error))
        ref_before = ref_after
        if error is None:
            _score_first(workload, out, scores)
        else:
            print(f"op {index} failed: {error}", file=sys.stderr)
        index += 1
        if (index - start) % workload.n_scenes == 0:
            now = time.perf_counter()
            if now + (now - pass_start) / 2 >= deadline:
                return records
            pass_start = now


def _score_first(workload, out, scores: dict) -> None:
    """Score the first output of each scene; keep scene 0's output for the
    frozen-stage re-run, which is costly and informational, so done once."""
    if out.scene_index not in scores:
        scores[out.scene_index] = workload.score(out)
        if out.scene_index == 0 and out.report is None:
            scores[0]["output"] = out


def throughput(workload, records, unit: str = "wall_s") -> float:
    """Input audio seconds per second of operation wall time (unit "wall_s")
    or per reference unit (unit "refs"), over the successful operations."""
    ok = [getattr(r, unit) for r in records if r.error is None]
    return len(ok) * workload.audio_s / sum(ok) if ok else 0.0


def probe_setup(args, runs: int) -> list:
    """Set-up of `runs` fresh processes: (seconds from spawn to ready for the
    first operation, interpreter reference seconds around it) for each."""
    import hostref

    samples = []
    for _ in range(runs):
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--scale", repr(args.scale),
            "--setup-probe", os.path.join(OUT_DIR, "work", f"probe{os.getpid()}"),
        ]  # fmt: skip
        ref_before = hostref.interpreter_reference()
        t0 = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.startswith("ready "):
            raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        wall = float(proc.stdout.split()[1]) - t0
        samples.append((wall, (ref_before + hostref.interpreter_reference()) / 2))
    return samples


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
    }


def _quantile(values, q: int) -> float:
    """q-th percentile of sorted values; 0.0 when there are none."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _main_workdir() -> str:
    """Where the benchmark process keeps its generated input files."""
    return os.path.join(OUT_DIR, "work", f"main{os.getpid()}")


def run(args) -> tuple:
    """Run one benchmark; returns (summary for the last line, full result record)."""
    started = time.perf_counter()
    threads = pin_threads(os.cpu_count() or 1)
    import_package()
    import hostref
    from workloads import WORKLOADS

    workdir = _main_workdir()
    os.makedirs(workdir, exist_ok=True)
    setup_samples = probe_setup(args, SETUP_RUNS_BEFORE) if args.trace == 0 else []

    workload = WORKLOADS[args.workload](args.seed, workdir, args.scale)
    workload.setup()
    workload.warm_up()
    own_setup = time.perf_counter() - started

    host = hostref.HostReference()
    by_scene: dict = {}
    tracer = None
    if args.trace == 0:
        records = run_ops(workload, host, args.seconds, by_scene)
        traced = []
    else:
        records = run_ops(workload, host, args.seconds / 2, by_scene)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_ops(workload, host, args.seconds / 2, by_scene, len(records), tracer)
        finally:
            tracer.remove()

    # Read before scoring: the frozen-stage re-run below holds a whole
    # ZoomResult and the scorer's own arrays, which are not the operations'.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace == 0:
        setup_samples += probe_setup(args, SETUP_RUNS_AFTER)

    # Only scenes with a successful output are scored. The frozen-stage
    # re-run of scene 0 is one more, untimed, attempted operation.
    scores = [by_scene[k] for k in sorted(by_scene)]
    reruns = rerun_failed = 0
    if by_scene.get(0, {}).get("output") is not None:
        reruns = 1
        frozen_scores, error = _attempt(workload.frozen_stage_scores, by_scene[0].pop("output"))
        if error is None:
            by_scene[0].update(frozen_scores)
        else:
            rerun_failed = 1
            print(f"scoring re-run of scene 0 failed: {error}", file=sys.stderr)
    frozen = [s for s in scores if "osinr_db" in s]

    all_records = records + traced
    failed = sum(r.error is not None for r in all_records) + rerun_failed
    attempted = len(all_records) + reruns
    ok = [r for r in records if r.error is None]
    rtfs = sorted(r.wall_s / workload.audio_s for r in ok)
    rtf_refs = sorted(r.refs / workload.audio_s for r in ok)
    mse_db = statistics.fmean(s["mse_db"] for s in scores) if scores else None
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "audio_s_per_op": workload.audio_s,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "rtf_samples": len(rtfs),
        # Wall-clock figures: what a user of this host saw during the run.
        "audio_s_per_s": throughput(workload, records),
        "rtf_p50": _quantile(rtfs, 50),
        "rtf_p90": _quantile(rtfs, 90) if len(rtfs) >= P90_MIN_SAMPLES else None,
        "rtf_ref_p90": _quantile(rtf_refs, 90) if len(rtfs) >= P90_MIN_SAMPLES else None,
        "ref_s_median": statistics.median(r.ref_s for r in all_records),
        "op_walls_s": [r.wall_s for r in all_records],
        "op_ref_s": [r.ref_s for r in all_records],
        "mse_db": mse_db,
        "osinr_db": statistics.fmean(s["osinr_db"] for s in frozen) if frozen else None,
        "sinr_gain_db": statistics.fmean(s["sinr_gain_db"] for s in frozen) if frozen else None,
        "frozen_stage_scenes": len(frozen),
        "scoring_reruns": reruns,
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_after_scoring_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "chosen_filter_lengths": [s["filter_length"] for s in scores],
        "per_scene_scores": scores,
        "process_setup_s": own_setup,
        "setup_wall_s": statistics.median(w for w, _ in setup_samples) if setup_samples else None,
        "setup_probes_s": setup_samples,  # (wall, interpreter reference) per probe
        "environment": environment(threads),
    }
    correct = failed == 0

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(w * SETUP_REF_S / ref for w, ref in setup_samples),
            "audio_s_per_ref": throughput(workload, records, "refs"),
            "rtf_ref_p50": _quantile(rtf_refs, 50),
            "peak_rss_mb": peak_rss_mb,
            "neg_mse_db": -mse_db if scores else 0.0,
        }
        units = E2E_METRICS
    else:
        ok_ids = [op_id for op_id, r in zip(tracer.op_ids, traced) if r.error is None]
        layers = spans.layer_metrics(tracer.spans, ok_ids) if ok_ids else {}
        untraced_rate = throughput(workload, records, "refs")
        traced_rate = throughput(workload, traced, "refs")
        layers["trace_overhead_frac"] = untraced_rate / traced_rate - 1.0 if traced_rate else 0.0
        unresolved = spans.unresolved_parents(tracer.spans)
        correct = correct and bool(ok_ids) and not unresolved
        info["traced_ops"] = len(ok_ids)
        info["unresolved_parents"] = len(unresolved)
        info["layers"] = layers
        values = {name: layers.get(name, 0.0) for name in PER_LAYER_METRICS}
        units = PER_LAYER_METRICS
        _write_spans(args, tracer.spans)

    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    info["summary"] = summary
    return summary, info


def _write_spans(args, recorded) -> None:
    path = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for s in recorded:
            handle.write(json.dumps(s.__dict__) + "\n")


def setup_probe(args) -> int:
    """Child process of probe_setup: import, make inputs, warm up, report readiness."""
    pin_threads(os.cpu_count() or 1)
    import_package()
    from workloads import WORKLOADS

    os.makedirs(args.setup_probe, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.setup_probe, args.scale)
        workload.setup()
        workload.warm_up()
        print(f"ready {time.perf_counter()!r}", flush=True)
    finally:
        shutil.rmtree(args.setup_probe, ignore_errors=True)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("long_mpdr", "gjbf_auto", "short_scored"))
    parser.add_argument("--seed", type=int, default=1, help="workload seed, >= 0 (default 1)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hook: shrink every scene.
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        summary, info = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if not args.setup_probe:
            shutil.rmtree(_main_workdir(), ignore_errors=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(info, handle, indent=1)
    for name, metric in summary["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for key, unit in INFO_FIELDS.items():
        value = "n/a" if info[key] is None else repr(info[key])
        print(f"{key} = {value} {unit}")
    print(f"chosen_filter_lengths = {info['chosen_filter_lengths']}")
    print(f"environment = {json.dumps(info['environment'])}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
