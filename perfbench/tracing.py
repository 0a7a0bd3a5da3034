"""Spans around the program's layer functions, installed from outside.

A `Tracer` replaces a function in the module where its caller looks it
up with a wrapper that records a span (name, start, end, parent span,
phase) and optional counts. Spans stay in memory until the run ends;
self time is a span's duration minus the durations of its direct
children, which nest inside it because every command runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _lstm_forward_counts(args, kwargs, result):
    params, X = args[0], args[1]
    T, B, D = X.shape
    hs = params.hidden_size
    # input and recurrent matmuls: 2 * T * B * 4hs * (D + hs)
    return {"nn.lstm.timesteps": T * B, "nn.lstm.flop": 8.0 * T * B * hs * (D + hs)}


def _lstm_backward_counts(args, kwargs, result):
    params, cache = args[0], args[1]
    T, B, D = cache.X.shape
    hs = params.hidden_size
    # dX, dW, dU and the recurrent dh: twice the forward matmul work
    return {"nn.lstm.flop": 16.0 * T * B * hs * (D + hs)}


def _len_of_result(key):
    return lambda args, kwargs, result: {key: len(result)}


def _pairs(args, kwargs, result):
    k = len(result.sensors)
    return {"analysis.correlation.pairs": k * (k - 1) // 2}


#: (module, attribute, span name, counter). The module is the one whose
#: code calls the function, so patching its attribute reaches the call.
PATCHES = (
    ("hivewatch.cli", "main", "cli.command", None),
    ("hivewatch.cli", "_write_manifest", "cli.manifest", None),
    ("hivewatch.cli", "ingest", "data.ingest", _len_of_result("data.ingest_rows")),
    ("hivewatch.cli", "make_windows", "data.make_windows", _len_of_result("data.windows")),
    ("hivewatch.detector", "make_windows", "data.make_windows", _len_of_result("data.windows")),
    ("hivewatch.detector", "missing_spans", "data.missing_spans", None),
    ("hivewatch.data", "write_trace", "data.write_trace", None),
    ("hivewatch.analysis.synthetic", "generate", "analysis.synthetic.generate", None),
    ("hivewatch.cli", "pearson_matrix", "analysis.correlation.pearson", _pairs),
    ("hivewatch.cli", "rba_detect", "rba.detect", _len_of_result("rba.events")),
    ("hivewatch.cli", "score_trace", "detector.score_trace", None),
    ("hivewatch.detector", "window_errors", "detector.window_errors",
     _len_of_result("detector.windows_scored")),
    ("hivewatch.cli", "detect", "detector.detect", _len_of_result("detector.events")),
    ("hivewatch.cli", "write_events", "detector.write_events", None),
    ("hivewatch.cli", "load_model", "nn.checkpoint.load", None),
    ("hivewatch.cli", "save_model", "nn.checkpoint.save", None),
    ("hivewatch.cli", "train", "nn.training", None),
    ("hivewatch.nn.training", "_mean_loss", "nn.training.val", None),
    ("hivewatch.nn.training", "loss_and_gradients", "nn.model.loss_and_gradients", None),
    ("hivewatch.nn.training", "adam_step", "nn.adam.step", lambda a, k, r: {"nn.adam.steps": 1}),
    ("hivewatch.nn.model", "lstm_forward", "nn.lstm.forward", _lstm_forward_counts),
    ("hivewatch.nn.model", "lstm_backward", "nn.lstm.backward", _lstm_backward_counts),
)


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, phase]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)  # (phase, key)
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.phase])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[(self.phase, key)] += value
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def totals(self, phase: str) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name within one phase."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                inclusive[name] += end - start
                own[name] += end - start - child_time[idx]
        return inclusive, own

    def count(self, phase: str, key: str) -> float:
        return self.counts.get((phase, key), 0.0)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")
