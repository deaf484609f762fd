"""Span tracing for the traced (per-layer) run.

The tracer wraps hdexplain's public functions and methods in every module
namespace where callers look them up, so calls between the package's own
modules are recorded too. Each span holds its name, parent, start, end and a
row count; spans stay in memory and are written out when the run ends. Layers
are the package's modules: ``data``, ``nnet``, ``stein``, ``explain``,
``evalharness`` and ``cli``. The untraced run installs none of this.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("data", "nnet", "stein", "explain", "evalharness", "cli")

FUNCTIONS = {
    "data": ("load_idx", "load_csv"),
    "nnet": ("train", "load_model"),
    "stein": ("make_stein_points", "stein_kernel", "stein_kernel_profile", "stein_gram",
              "ksd_vstat", "median_heuristic_gamma", "load_cache"),
    "explain": ("build_cache", "explain", "self_influence_ranking",
                "baseline_tracin_last", "baseline_rep_similarity"),
    "evalharness": ("hit_rate_experiment", "ksd_shift_experiment", "label_flip_debug_experiment"),
    "cli": ("main",),
}

# MLPClassifier methods whose first argument is a batch of rows; the rows
# entering the outermost of these calls are what ``nnet.rows_per_query`` counts.
SCORING_METHODS = ("predict_proba", "predict_log_proba", "input_gradient",
                   "representation", "rep_gradient")

NAME, PARENT, START, END, ROWS = range(5)


def _rows(batch) -> int:
    arr = np.asarray(batch)
    return 1 if arr.ndim == 1 else int(arr.shape[0])


class Tracer:
    """Records spans; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._fresh_models = weakref.WeakSet()

    @contextmanager
    def span(self, name: str):
        rec = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def _in_scoring(self) -> bool:
        return any(self.spans[i][NAME].startswith("nnet.MLPClassifier.") for i in self._stack)

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_scoring(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(model, batch, *args, **kwargs):
            outermost = not tracer._in_scoring()
            with tracer.span(name) as rec:
                if outermost:
                    rec[ROWS] = _rows(batch)
                return fn(model, batch, *args, **kwargs)

        return traced

    def _wrap_fingerprint(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(model):
            # the first call on a model returned by load_model is the uncached one
            fresh = model in tracer._fresh_models
            tracer._fresh_models.discard(model)
            with tracer.span("nnet.fingerprint" if fresh else "nnet.fingerprint.cached"):
                return fn(model)

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("hdexplain")
        modules = [package] + [importlib.import_module(f"hdexplain.{layer}") for layer in LAYERS]
        for layer, names in FUNCTIONS.items():
            home = importlib.import_module(f"hdexplain.{layer}")
            for name in names:
                original = getattr(home, name)
                after = self._fresh_models.add if name == "load_model" else None
                wrapper = self._wrap(f"{layer}.{name}", original, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
        nnet = importlib.import_module("hdexplain.nnet")
        stein = importlib.import_module("hdexplain.stein")
        cls = nnet.MLPClassifier
        for name in SCORING_METHODS:
            self._set(cls, name, self._wrap_scoring(f"nnet.MLPClassifier.{name}", cls.__dict__[name]))
        self._set(cls, "fingerprint", self._wrap_fingerprint(cls.__dict__["fingerprint"]))
        cache_cls = stein.ScoreCache
        self._set(cache_cls, "serialize", self._wrap("stein.serialize", cache_cls.__dict__["serialize"]))
        deserialize = cache_cls.__dict__["deserialize"].__func__
        self._set(cache_cls, "deserialize", classmethod(self._wrap("stein.deserialize", deserialize)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "parent", "start", "end", "rows"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _median(values):
    values = list(values)
    if not values:
        raise ValueError("no spans to take a per-layer figure from")
    return statistics.median(values)


class SpanIndex:
    """Parent/child lookups over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for i, rec in enumerate(spans):
            self.children[rec[PARENT]].append(i)

    def named(self, name):
        return [i for i, rec in enumerate(self.spans) if rec[NAME] == name]

    def duration(self, i) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def descendants(self, i):
        stack = list(self.children[i])
        while stack:
            j = stack.pop()
            yield j
            stack.extend(self.children[j])

    def under(self, op_name, name):
        """Spans named ``name`` inside spans named ``op_name``."""
        return [j for i in self.named(op_name) for j in self.descendants(i) if self.spans[j][NAME] == name]

    def self_time(self, i) -> float:
        return self.duration(i) - sum(self.duration(j) for j in self.children[i])


QUERY_OPS = {
    "hd-explain": "op.explain",
    "hd-explain-star": "op.explain_star",
    "tracin-last": "op.tracin",
    "rep-sim": "op.repsim",
}
HARNESS_QUERIES = ("explain.explain", "explain.baseline_tracin_last", "explain.baseline_rep_similarity")


def per_layer_metrics(spans, pair_evals, peak_alloc_bytes) -> dict:
    """Per-layer figures from one traced run: medians over the run's operations."""
    idx = SpanIndex(spans)
    ms, s = 1000.0, 1.0
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def dur_median(ids, scale):
        return _median(idx.duration(i) * scale for i in ids)

    cli_loads = idx.under("op.cli_explain", "data.load_idx") + idx.under("op.cli_explain", "data.load_csv")
    put("data.load_ms", dur_median(cli_loads, ms), "ms")
    for method, op in QUERY_OPS.items():
        rows = [sum(spans[j][ROWS] for j in idx.descendants(i)) for i in idx.named(op)]
        put(f"nnet.rows_per_query.{method}", _median(rows), "count")
    scoring = [
        sum(idx.duration(j) for j in idx.descendants(i) if spans[j][ROWS] > 0)
        for i in idx.named("op.explain")
    ]
    put("nnet.score_ms", _median(scoring) * ms, "ms")
    put("nnet.fingerprint_ms", dur_median(idx.under("op.cli_explain", "nnet.fingerprint"), ms), "ms")
    put("nnet.load_model_ms", dur_median(idx.under("op.cli_explain", "nnet.load_model"), ms), "ms")
    put("nnet.train_s", dur_median(idx.under("op.evaluate", "nnet.train"), s), "s")
    put("stein.profile_ms", dur_median(idx.under("op.explain", "stein.stein_kernel_profile"), ms), "ms")
    put("stein.pair_evals_per_query", _median(pair_evals), "count")
    put("stein.peak_alloc_mb_per_query", _median(peak_alloc_bytes) / 1e6, "MB")
    grams = idx.under("op.ksd", "stein.stein_gram")
    put("stein.gram_s", dur_median(grams, s), "s")
    put("stein.profile_calls_per_gram",
        _median(sum(spans[j][NAME] == "stein.stein_kernel_profile" for j in idx.descendants(i)) for i in grams),
        "count")
    influence = idx.under("op.debug", "explain.self_influence_ranking")
    put("stein.kernel_calls_per_self_influence",
        _median(sum(spans[j][NAME] == "stein.stein_kernel" for j in idx.descendants(i)) for i in influence),
        "count")
    put("stein.serialize_ms", dur_median(idx.under("op.cache_cmd", "stein.serialize"), ms), "ms")
    put("stein.deserialize_ms", dur_median(idx.under("op.cli_explain", "stein.deserialize"), ms), "ms")
    put("stein.gamma_ms", dur_median(idx.under("op.cli_explain", "stein.median_heuristic_gamma"), ms), "ms")
    put("stein.make_points_ms", dur_median(idx.under("op.cache_cmd", "stein.make_stein_points"), ms), "ms")
    put("explain.self_ms", _median(idx.self_time(i) for i in idx.under("op.explain", "explain.explain")) * ms, "ms")
    put("explain.build_cache_s", dur_median(idx.under("op.cache_cmd", "explain.build_cache"), s), "s")
    put("explain.self_influence_s", dur_median(influence, s), "s")
    harness_self, harness_queries = [], []
    for op in idx.named("op.evaluate"):
        own, queries = 0.0, 0
        for h in (j for j in idx.descendants(op) if spans[j][NAME] == "evalharness.hit_rate_experiment"):
            calls = [j for j in idx.children[h] if spans[j][NAME] in HARNESS_QUERIES]
            own += idx.duration(h) - sum(idx.duration(j) for j in calls)
            queries += len(calls)
        harness_self.append(own)
        harness_queries.append(queries)
    put("evalharness.self_s", _median(harness_self), "s")
    put("evalharness.queries", _median(harness_queries), "count")
    put("cli.self_ms", _median(idx.self_time(i) for i in idx.under("op.cli_explain", "cli.main")) * ms, "ms")
    return out
