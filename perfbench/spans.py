"""Span tracing around the public functions of audiozoom, from outside the package.

A Tracer wraps each traced function at every name the package binds it to
(for example ``audiozoom.pipeline.block_threshold_gains`` as well as
``audiozoom.blockthresh.block_threshold_gains``), so calls the package
makes internally are recorded too. Each span keeps its name, start, end,
parent id, thread and the id of the benchmark operation it belongs to.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

MODULES = ("blockthresh", "dsp", "gjbf", "metrics", "mpdr", "pipeline", "simulate", "wav")

# Work counts derived from a call's inputs and outputs: (args, kwargs, result) -> int.


def _stft_frames(args, kwargs, result):
    return result.frame_count


def _fdaf_blocks(args, kwargs, result):
    from audiozoom.gjbf import GjbfConfig

    config = args[2] if len(args) > 2 else kwargs.get("config", GjbfConfig())
    return -(-(args[0].length + config.delay) // config.block)


def _macro_blocks(args, kwargs, result):
    return len(result.choices)


def _mpdr_bins(args, kwargs, result):
    return result.weights.shape[0]


# module -> {function name: (work unit, counter) or None}
TRACED = {
    "blockthresh": {
        "block_threshold_gains": ("macro_block", _macro_blocks),
        "residual_variance": None,
    },
    "dsp": {"stft": ("frame", _stft_frames), "istft": None, "fft_convolve": None},
    "gjbf": {
        "fdaf_gjbf": ("block", _fdaf_blocks),
        "select_filter_length": None,
        "mean_sinr_db": None,
    },
    "metrics": {
        "mse_db": None,
        "decompose_linear": None,
        "shadow_gain_decompose": None,
        "osinr_db": None,
    },
    "mpdr": {"design_mpdr": ("bin", _mpdr_bins), "apply_mpdr": None},
    "pipeline": {"run_zoom": None, "evaluate_scene": None, "normalize_peak": None},
    "simulate": {"synthesize_mixture": None, "fractional_delay": None},
    "wav": {"read_wav": None, "write_wav": None},
}

OP_SPAN = "perfbench.op"


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str  # "<module>.<function>", or OP_SPAN for the root of one operation
    start: float
    end: float
    thread: int
    op_id: int
    count: int | None = None  # exact work count, where the function has one

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; install() patches, remove() restores."""

    def __init__(self):
        self.spans: list = []
        self.op_ids: list = []  # root span id of each operation, in order
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    # --- span stack, per thread -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(span id, op id) of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _call(self, name: str, fn, args, kwargs, counter=None) -> tuple:
        """Run fn inside a new span; returns (result, span id)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent_id, op_id = stack[-1] if stack else (None, span_id)
        stack.append((span_id, op_id))
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result, span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            count = counter(args, kwargs, result) if counter and result is not None else None
            self.spans.append(
                Span(span_id, parent_id, name, start, end, threading.get_ident(), op_id, count)
            )

    def run_op(self, fn, *args):
        """Run one benchmark operation as a root span; its id goes to op_ids."""
        try:
            return self._call(OP_SPAN, fn, args, {})[0]
        finally:
            self.op_ids.append(self.spans[-1].span_id)

    def run_under(self, parent, fn, *args, **kwargs):
        """Run fn on this thread with `parent` as the open span (for pool workers)."""
        stack = self._stack()
        saved = list(stack)
        stack[:] = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    # --- patching ---------------------------------------------------------------
    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack():  # outside any operation: the benchmark's own checks
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, counter)[0]

        return traced

    def install(self) -> None:
        """Wrap every traced function at each name the package binds it to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("audiozoom")
        namespaces = [package] + [importlib.import_module(f"audiozoom.{m}") for m in MODULES]
        for module_name, functions in TRACED.items():
            home = importlib.import_module(f"audiozoom.{module_name}")
            for func_name, work in functions.items():
                original = getattr(home, func_name)
                counter = work[1] if work else None
                wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)
        # The filter-length sweep runs fdaf_gjbf on pool threads, which start
        # with an empty span stack: hand each task the submitting span.
        gjbf = importlib.import_module("audiozoom.gjbf")
        self._patches.append((gjbf, "ThreadPoolExecutor", gjbf.ThreadPoolExecutor))
        gjbf.ThreadPoolExecutor = _parented_executor(self)

    def remove(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()


def _parented_executor(tracer: Tracer):
    class ParentedExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_under, tracer.current(), fn, *args, **kwargs)

    return ParentedExecutor


def self_times(spans) -> dict:
    """span id -> its duration minus the part of it that child spans cover.

    Children on pool threads can overlap each other, so their intervals are
    merged before they are subtracted.
    """
    children: dict = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result


def unresolved_parents(spans) -> list:
    """Spans whose parent id names no recorded span (should be empty)."""
    ids = {span.span_id for span in spans}
    return [s for s in spans if s.parent_id is not None and s.parent_id not in ids]


def layer_metrics(spans, op_ids) -> dict:
    """Per-layer figures, each a mean per operation over the operations in op_ids.

    For every traced function: calls, self_s and wall_s, plus its exact work
    count and self time per unit of work where it has one. For every module:
    its share, self time over the operations' wall time (pool threads can push
    a share above what one thread could spend). For the filter-length sweep:
    parallelism, the summed time of its fdaf_gjbf children over its wall time.
    """
    op_ids = set(op_ids)
    spans = [s for s in spans if s.op_id in op_ids]
    n_ops = len(op_ids)
    selfs = self_times(spans)
    by_name: dict = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.module in module_self:
            module_self[span.module] += selfs[span.span_id]

    out = {}
    for module, functions in TRACED.items():
        for func, work in functions.items():
            name = f"{module}.{func}"
            group = by_name.get(name, [])
            self_s = sum(selfs[s.span_id] for s in group)
            out[f"{name}.calls"] = len(group) / n_ops
            out[f"{name}.self_s"] = self_s / n_ops
            out[f"{name}.wall_s"] = sum(s.duration for s in group) / n_ops
            if work:
                unit = work[0]
                units = sum(s.count for s in group if s.count is not None)
                out[f"{name}.{unit}s"] = units / n_ops
                out[f"{name}.s_per_{unit}"] = self_s / units if units else 0.0

    op_wall = sum(s.duration for s in by_name.get(OP_SPAN, []))
    for module in MODULES:
        out[f"{module}.share"] = module_self[module] / op_wall

    sweeps = {s.span_id for s in by_name.get("gjbf.select_filter_length", [])}
    sweep_wall = out["gjbf.select_filter_length.wall_s"] * n_ops
    child_time = sum(s.duration for s in by_name.get("gjbf.fdaf_gjbf", []) if s.parent_id in sweeps)
    out["gjbf.select_filter_length.parallelism"] = child_time / sweep_wall if sweep_wall else 0.0
    return out
