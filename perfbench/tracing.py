"""In-memory span tracing around the package's public functions.

The tracer replaces a function at the module attribute its callers
resolve at call time (``mlp.backprop_step`` inside ``mlp.train``,
``systems.stack_context`` inside the systems' context transform, ...),
records one span per call and restores the originals afterwards. It
changes no file of the package. A function that no longer exists is
reported as missing, and every metric that needs it is left out.

Span layer self time: a span's duration minus the time covered by its
outermost descendants that belong to another layer (the layer is the
part of the span name before the dot).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    count: float  # work done by the call (frames, audio seconds, iterations)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _batch_rows(args, kwargs, result):
    return float(np.atleast_2d(args[1]).shape[0])


def _seq_frames(args, kwargs, result):
    return float(args[0].num_frames)


def _audio_seconds(args, kwargs, result):
    clip = args[0]
    return len(clip.samples) / clip.sample_rate


def _history_len(args, kwargs, result):
    return float(len(result[1]))


# (module, attribute, span name, work counter). Several attributes may
# share a span name when callers import the function under their own
# module (``systems`` imports the feature functions by name).
WRAPS = [
    ("data", "generate_synthetic_corpus", "data.synth", None),
    ("systems", "prepare_corpus", "systems.prepare", None),
    ("features", "mfcc_sequence", "features.mfcc", _audio_seconds),
    ("systems", "mfcc_sequence", "features.mfcc", _audio_seconds),
    ("systems", "stack_context", "features.stack_context", _seq_frames),
    ("systems", "temporal_dct_reduce", "features.temporal_dct", None),
    ("systems", "append_deltas", "features.deltas", None),
    ("rbm", "pretrain_stack", "rbm.pretrain", None),
    ("rbm", "cd1_step", "rbm.cd1_step", None),
    ("rbm", "reconstruction_error", "rbm.recon_error", None),
    ("mlp", "train", "mlp.train", _history_len),
    ("mlp", "backprop_step", "mlp.backprop_step", None),
    ("mlp", "forward", "mlp.forward", _batch_rows),
    ("hierarchy", "second_stage_inputs", "hierarchy.second_stage_inputs", None),
    ("hierarchy", "sparse_stack", "hierarchy.sparse_stack", None),
    ("gmm", "kmeans_pp_init", "gmm.kmeans_init", None),
    ("gmm", "em_train", "gmm.em_train", _history_len),
    ("gmm", "adapt_concept", "gmm.adapt", None),
    ("gmm", "classify_frames", "gmm.classify_frames", _batch_rows),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
]


class Tracer:
    """Wraps the functions in WRAPS while installed; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name, counter in WRAPS:
            module = importlib.import_module(f"hdnn_audio.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(span_name)
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, span_name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(span_name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, 0.0)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span.count = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature costs the count, not the run
            return result

        return traced

    def layer_self_times(self) -> list[float]:
        """Per span: duration minus its outermost other-layer descendants."""
        self_times = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent < 0 or self.spans[span.parent].layer == span.layer:
                continue
            # span starts another layer: take it out of its parent and of
            # every enclosing ancestor of the parent's layer
            index = span.parent
            layer = self.spans[index].layer
            while index >= 0 and self.spans[index].layer == layer:
                self_times[index] -= span.duration
                index = self.spans[index].parent
        return self_times


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the recorded spans, and the names of those
    whose function is missing. An idle layer reads 0."""
    spans = tracer.spans
    self_times = tracer.layer_self_times()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def busy_s(*names):
        return sum(self_times[i] for name in names for i in by_name[name])

    def calls(name):
        return float(len(by_name[name]))

    def work(name, indices=None):
        return sum(spans[i].count for i in (by_name[name] if indices is None else indices))

    def ms(name, q):
        return percentile([spans[i].duration * 1e3 for i in by_name[name]], q)

    def inside(i, name):
        parent = spans[i].parent
        while parent >= 0:
            if spans[parent].name == name:
                return True
            parent = spans[parent].parent
        return False

    infer_fwd = [i for i in by_name["mlp.forward"] if not inside(i, "mlp.train")]
    em_iter_ms = [spans[i].duration * 1e3 / spans[i].count
                  for i in by_name["gmm.em_train"] if spans[i].count]
    definitions = {
        "mlp.sgd_steps": (("mlp.backprop_step",), lambda: calls("mlp.backprop_step")),
        "mlp.sgd_step_ms_p50": (("mlp.backprop_step",), lambda: ms("mlp.backprop_step", 50)),
        "mlp.sgd_step_ms_p99": (("mlp.backprop_step",), lambda: ms("mlp.backprop_step", 99)),
        "mlp.train_s": (("mlp.train",), lambda: busy_s("mlp.train")),
        "mlp.epochs": (("mlp.train",), lambda: work("mlp.train")),
        "mlp.forward_frames_per_s": (
            ("mlp.forward", "mlp.train"),
            lambda: _rate(work("mlp.forward", infer_fwd),
                          sum(spans[i].duration for i in infer_fwd))),
        "rbm.pretrain_s": (("rbm.pretrain",), lambda: busy_s("rbm.pretrain")),
        "rbm.cd1_steps": (("rbm.cd1_step",), lambda: calls("rbm.cd1_step")),
        "rbm.cd1_step_ms_p50": (("rbm.cd1_step",), lambda: ms("rbm.cd1_step", 50)),
        "rbm.recon_error_s": (("rbm.recon_error",), lambda: busy_s("rbm.recon_error")),
        "rbm.recon_error_share": (
            ("rbm.recon_error", "rbm.pretrain"),
            lambda: _rate(busy_s("rbm.recon_error"), busy_s("rbm.pretrain"))),
        "gmm.kmeans_init_s": (("gmm.kmeans_init",), lambda: busy_s("gmm.kmeans_init")),
        "gmm.em_iterations": (("gmm.em_train",), lambda: work("gmm.em_train")),
        "gmm.em_iter_ms_p50": (("gmm.em_train",), lambda: percentile(em_iter_ms, 50)),
        "gmm.em_s": (("gmm.em_train",), lambda: busy_s("gmm.em_train")),
        "gmm.adapt_s": (("gmm.adapt",), lambda: busy_s("gmm.adapt")),
        "gmm.score_frames_per_s": (
            ("gmm.classify_frames",),
            lambda: _rate(work("gmm.classify_frames"), busy_s("gmm.classify_frames"))),
        "gmm.score_ms_p50": (("gmm.classify_frames",), lambda: ms("gmm.classify_frames", 50)),
        "features.mfcc_s": (("features.mfcc",), lambda: busy_s("features.mfcc")),
        "features.mfcc_audio_s_per_s": (
            ("features.mfcc",),
            lambda: _rate(work("features.mfcc"), busy_s("features.mfcc"))),
        "features.context_s": (
            ("features.stack_context", "features.temporal_dct"),
            lambda: busy_s("features.stack_context", "features.temporal_dct")),
        "features.context_frames_per_s": (
            ("features.stack_context", "features.temporal_dct"),
            lambda: _rate(work("features.stack_context"),
                          busy_s("features.stack_context", "features.temporal_dct"))),
        "features.deltas_s": (("features.deltas",), lambda: busy_s("features.deltas")),
        "hierarchy.stage2_inputs_s": (
            ("hierarchy.second_stage_inputs",),
            lambda: busy_s("hierarchy.second_stage_inputs")),
        "hierarchy.sparse_stack_ms_p50": (
            ("hierarchy.sparse_stack",), lambda: ms("hierarchy.sparse_stack", 50)),
        "data.synth_s": (("data.synth",), lambda: busy_s("data.synth")),
        "systems.prepare_s": (("systems.prepare",), lambda: busy_s("systems.prepare")),
        "evaluation.evaluate_s": (
            ("evaluation.evaluate",), lambda: busy_s("evaluation.evaluate")),
    }
    values, missing = {}, []
    for name, (needs, compute) in definitions.items():
        if tracer.missing.intersection(needs):
            missing.append(name)
        else:
            values[name] = float(compute())
    return values, missing
