"""The benchmark's workloads: set-up, closed-loop rounds of operations, and
the checks of every operation's output.

Each workload is one closed loop with one client: the next call starts when
the previous one returns. A run repeats whole rounds of the same operations
until ``--seconds`` have passed and at least ``MIN_EXPLAIN_SAMPLES`` raw
queries were timed, so the mix of operations is the same in every run. Every
workload runs every kind of operation on its own inputs; the workloads differ
in their data and in how many queries and CLI calls a round holds. Each round
ends by repeating the workload's set-up into a scratch directory, so set-up
time is sampled across the whole run like every other operation.

The benchmark calls only hdexplain's public functions and the CLI's
``main()``; checks run outside the timed region and compare against
``reference.py``.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import shutil
import statistics
import struct
import sys
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import hdexplain as hx
from hdexplain import cli
from hdexplain import stein as hx_stein

import reference as ref
from tracing import Tracer, per_layer_metrics

TOP_K = 5
MIN_EXPLAIN_SAMPLES = 100
METHODS = ["hd-explain", "hd-explain-star", "tracin-last", "rep-sim"]
HIT_KS = (1, 3, 5)
EVAL_SAMPLE_SIZE = 20
EVAL_TRIALS = 2
SHIFTS = [0.0, 0.25, 0.5]
FLIP_FRACTION = 0.05
MOONS_N = 500
MOONS_DEBUG_N = 1000
IMAGE_N = 2000
IMAGE_PROTOCOL_N = 100
IMAGE_DIMS = [784, 128, 64, 10]
QUERY_POOL = 32
CLI_INDEX_POOL = 8
VARIANTS = ("raw", "last-layer")


@dataclass
class Inputs:
    """What set-up hands to the measured loop (one workload, one seed)."""

    seed: int
    dataset: object  # hx.Dataset ranked by the library queries
    model: object
    caches: dict  # variant -> ScoreCache
    configs: dict  # variant -> ExplainerConfig (median-heuristic RBF)
    queries: np.ndarray  # pool of test points, cycled through by the rounds
    cli_indices: list  # dataset rows explained through the CLI
    files: dict  # paths of the model binaries, configs, cache and report
    ksd_dataset: object  # shifted under ``model`` by ksd_shift_experiment
    debug_dataset: object
    debug_train: object  # hx.TrainConfig


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _moons(n: int, rng: np.random.Generator, noise_std: float = 0.1):
    """Two interleaved half circles (upper arc class 0, offset lower arc class 1)."""
    n0 = n // 2
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n - n0)
    points = np.vstack([np.column_stack([np.cos(t0), np.sin(t0)]),
                        np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n - n0, dtype=np.int64)])
    return points + rng.normal(0.0, noise_std, size=points.shape), labels


def _write_idx(images_path, labels_path, pixels: np.ndarray, labels: np.ndarray) -> None:
    """Big-endian IDX pair: u8 rank-3 images and u8 rank-1 labels."""
    n, h, w = pixels.shape
    with open(images_path, "wb") as fh:
        fh.write(b"\x00\x00\x08\x03" + struct.pack(">III", n, h, w) + pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(b"\x00\x00\x08\x01" + struct.pack(">I", n) + labels.astype(np.uint8).tobytes())


def _write_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    """Headered CSV whose float text round-trips exactly (``repr``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{i}" for i in range(features.shape[1])] + ["label"]) + "\n")
        for row, label in zip(features, labels):
            fh.write(",".join([repr(float(v)) for v in row] + [str(int(label))]) + "\n")


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _finish_setup(seed, workdir: Path, dataset, model, source, protocol_source, protocol_model,
                  queries, ksd_dataset, debug_dataset, debug_train) -> Inputs:
    """Caches, kernels, model binaries and CLI configs shared by all workloads."""
    caches = {v: hx.build_cache(model, dataset, v) for v in VARIANTS}
    configs = {
        v: hx.ExplainerConfig(kernel=hx.RBFKernel(hx.median_heuristic_gamma(caches[v].z)),
                              variant=v, top_k=TOP_K)
        for v in VARIANTS
    }
    files = {"model": str(workdir / "model.bin"), "stale_model": str(workdir / "stale_model.bin"),
             "cache": str(workdir / "cache.bin"), "report": str(workdir / "report.csv")}
    hx.save_model(model, files["model"])
    biases = [b.copy() for b in model.biases]
    biases[0][0] += 1e-3
    hx.save_model(hx.MLPClassifier(model.layer_dims, model.weights, biases), files["stale_model"])
    files["cli_config"] = _write_json(workdir / "cli.json", {
        "dataset": {"source": source}, "explainer": {"top_k": TOP_K}, "seed": seed})
    files["eval_config"] = _write_json(workdir / "evaluate.json", {
        "dataset": {"source": protocol_source},
        "model": protocol_model,
        "explainer": {"top_k": TOP_K},
        "experiment": {"augmentation": "noise", "trials": EVAL_TRIALS,
                       "sample_size": EVAL_SAMPLE_SIZE, "methods": METHODS},
        "seed": seed,
    })
    cli_indices = sorted(_rng(seed, 4).choice(dataset.n, size=CLI_INDEX_POOL, replace=False).tolist())
    return Inputs(seed, dataset, model, caches, configs, queries, cli_indices, files,
                  ksd_dataset, debug_dataset, debug_train)


def setup_moons(seed: int, workdir: Path) -> Inputs:
    """Two moons, n=500, a trained [2, 32, 32, 2] model; debugging on n=1000."""
    x, y = _moons(MOONS_N, _rng(seed, 0))
    csv_path = workdir / "moons.csv"
    _write_csv(csv_path, x, y)
    dataset = hx.Dataset(x, y, num_classes=2)
    model = hx.train(dataset, hx.TrainConfig(seed=seed))
    queries = _moons(QUERY_POOL, _rng(seed, 1))[0]
    dx, dy = _moons(MOONS_DEBUG_N, _rng(seed, 2))
    debug = hx.Dataset(dx, dy, num_classes=2)
    return _finish_setup(seed, workdir, dataset, model, f"csv:{csv_path}", f"csv:{csv_path}", {},
                         queries, dataset, debug, hx.TrainConfig(seed=seed))


def setup_image(seed: int, workdir: Path) -> Inputs:
    """Uniform 28x28 images (u8 / 255), 10 random labels, a random-weight
    [784, 128, 64, 10] model with N(0, 0.05) weights and zero biases. The
    first ``IMAGE_PROTOCOL_N`` rows are the set the protocols (evaluate,
    KSD, debugging) run on."""
    rng = _rng(seed, 0)
    pixels = rng.integers(0, 256, size=(IMAGE_N, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=IMAGE_N)
    labels[:10] = rng.permutation(10)  # every class occurs in the protocol rows
    _write_idx(workdir / "images.idx", workdir / "labels.idx", pixels, labels)
    p = IMAGE_PROTOCOL_N
    _write_idx(workdir / "p_images.idx", workdir / "p_labels.idx", pixels[:p], labels[:p])
    features = pixels.reshape(IMAGE_N, -1).astype(np.float64) / 255.0
    dataset = hx.Dataset(features, labels, num_classes=10, image_shape=(28, 28, 1))
    protocol = hx.Dataset(features[:p], labels[:p], num_classes=10, image_shape=(28, 28, 1))
    wrng = _rng(seed, 3)
    weights = [wrng.normal(0.0, 0.05, size=(a, b)) for a, b in zip(IMAGE_DIMS[:-1], IMAGE_DIMS[1:])]
    model = hx.MLPClassifier(IMAGE_DIMS, weights, [np.zeros(b) for b in IMAGE_DIMS[1:]])
    queries = _rng(seed, 1).integers(0, 256, size=(QUERY_POOL, 784)).astype(np.float64) / 255.0
    return _finish_setup(
        seed, workdir, dataset, model,
        f"idx:{workdir / 'images.idx'},{workdir / 'labels.idx'}",
        f"idx:{workdir / 'p_images.idx'},{workdir / 'p_labels.idx'}", {"epochs": 10},
        queries, protocol, protocol, hx.TrainConfig(epochs=10, seed=seed))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], Inputs]
    queries_per_round: int  # test points per round, each run through all four rankers
    cli_explains_per_round: int


WORKLOADS = {
    "moons-eval": Workload("moons-eval", setup_moons, 40, 4),
    "image-query": Workload("image-query", setup_image, 30, 2),
    "image-cli": Workload("image-cli", setup_image, 10, 3),
}


class Reference:
    """Reference values for one workload's inputs, memoized per input."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.w, self.b = inputs.model.weights, inputs.model.biases
        ds = inputs.dataset
        self.z, self.s, self.gamma = {}, {}, {}
        for v in VARIANTS:
            self.z[v], self.s[v] = ref.scored_points(self.w, self.b, ds.features, ds.labels, v)
            self.gamma[v] = ref.median_gamma(self.z[v])
        self.reps, self.resid = ref.last_layer_features(self.w, self.b, ds.features, ds.labels)
        with open(inputs.files["model"], "rb") as fh:
            self.fingerprint = ref.fnv1a_64(fh.read())
        self._memo = {}

    def setup_error(self, inputs: Inputs):
        """Checks of a set-up's caches and kernels against the reference."""
        for v in VARIANTS:
            cache = inputs.caches[v]
            if cache.model_fingerprint != self.fingerprint:
                return f"{v} cache fingerprint {cache.model_fingerprint:016x} != {self.fingerprint:016x}"
            if not (ref.close(cache.z, self.z[v]) and ref.close(cache.scores, self.s[v])):
                return f"{v} cache z/s differ from the reference"
            gamma = inputs.configs[v].kernel.gamma
            if abs(gamma - self.gamma[v]) > 1e-9 * self.gamma[v]:
                return f"{v} median-heuristic gamma {gamma!r} != reference {self.gamma[v]!r}"
        return None

    def query(self, method: str, key, x):
        """(predicted label, probabilities, scores over the dataset) for one test point."""
        if (method, key) not in self._memo:
            pred, proba = ref.predict(self.w, self.b, x[None, :])
            if method in VARIANTS:
                z, s = ref.scored_points(self.w, self.b, x[None, :], pred, method)
                values = ref.stein_rbf_profile(self.z[method], self.s[method], z[0], s[0],
                                               self.gamma[method])
            elif method == "tracin-last":
                rep_t, resid_t = ref.last_layer_features(self.w, self.b, x[None, :], pred)
                values = ref.tracin_scores(self.reps, self.resid, rep_t[0], resid_t[0])
            else:
                values = ref.cosine_scores(self.reps, ref.forward(self.w, self.b, x[None, :])[0][-1][0])
            self._memo[(method, key)] = (int(pred[0]), proba[0], values)
        return self._memo[(method, key)]

    def ksd(self):
        """(shift, V-statistic, mean |Gram entry|) per shift, from the reference Gram."""
        if "ksd" not in self._memo:
            data = self.inputs.ksd_dataset
            rows = []
            for shift in SHIFTS:
                z, s = ref.scored_points(self.w, self.b, data.features + shift, data.labels, "raw")
                gram = ref.stein_rbf_gram(z, s, self.gamma["raw"])
                rows.append((shift, float(gram.mean()), float(np.abs(gram).mean())))
            self._memo["ksd"] = rows
        return self._memo["ksd"]


def run_cli(argv):
    """In-process ``hdexplain`` call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Runs rounds of operations, times them and checks their outputs."""

    def __init__(self, workload: Workload, inputs: Inputs, reference: Reference, resetup_dir: Path,
                 tracer=None):
        self.w = workload
        self.resetup_dir = resetup_dir
        self.inp = inputs
        self.ref = reference
        self.tracer = tracer
        self.times = defaultdict(list)  # operation kind -> seconds per call
        self.pair_evals = []
        self.cache_bytes = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []

    def op(self, kind, fn, check):
        """Time ``fn()``; then ``check(result)`` returns None or what is wrong."""
        scope = self.tracer.span(f"op.{kind}") if self.tracer else nullcontext()
        try:
            with scope:
                start = perf_counter()
                result = fn()
                elapsed = perf_counter() - start
        except Exception as exc:  # an operation that raises counts as failed; the run goes on
            self.attempted += 1
            self._fail(kind, f"raised {exc!r}")
            return
        self.record(kind, elapsed, check, result)

    def record(self, kind, elapsed, check, result):
        """Count one operation; keep its time only if its output checks out."""
        self.attempted += 1
        try:
            problem = check(result)
        except Exception as exc:  # output the check cannot even read is wrong output
            problem = f"unreadable output: {exc!r}"
        if problem:
            self.wrong += 1
            self._fail(kind, problem)
            return
        self.times[kind].append(elapsed)

    def _fail(self, kind, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {problem}")

    # -- checks ---------------------------------------------------------

    def _check_ranked(self, method, key, x, predicted, proba, ranked):
        pred, ref_proba, values = self.ref.query(method, key, x)
        if predicted != pred:
            return f"predicted label {predicted} != reference {pred}"
        if not ref.close(proba, ref_proba):
            return "predicted probabilities differ from the reference"
        idx = [int(r[0]) for r in ranked]
        problem = ref.ranking_error(idx, [r[1] for r in ranked], values, TOP_K)
        if problem:
            return problem
        labels = self.inp.dataset.labels
        if any(int(r[2]) != int(labels[i]) for i, r in zip(idx, ranked)):
            return "train labels in the ranking do not match the dataset"
        return None

    def check_explain(self, result, variant, p, evals_before):
        if variant == "raw":
            evals = hx_stein.kernel_eval_count() - evals_before
            self.pair_evals.append(evals)
            if evals != self.inp.dataset.n:
                return f"{evals} Stein pair evaluations for one query over n={self.inp.dataset.n}"
        return self._check_ranked(variant, p, self.inp.queries[p], result.predicted_label,
                                  result.predicted_proba, result.ranked)

    def check_baseline(self, ranking, method, p):
        n = self.inp.dataset.n
        idx = np.array([r[0] for r in ranking])
        if idx.shape != (n,) or not np.array_equal(np.sort(idx), np.arange(n)):
            return "baseline ranking is not a permutation of the training set"
        _, _, values = self.ref.query(method, p, self.inp.queries[p])
        return ref.ranking_error(idx[:TOP_K], [r[1] for r in ranking[:TOP_K]], values, TOP_K)

    def check_cache_cmd(self, result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        doc = json.loads(out)
        n, dim = self.ref.z["raw"].shape
        if (doc["n"], doc["D"], doc["model_fingerprint"]) != (n, dim, f"{self.ref.fingerprint:016x}"):
            return f"summary {doc} does not match n={n}, D={dim}"
        path = self.inp.files["cache"]
        with open(path, "rb") as fh:
            data = fh.read()
        self.cache_bytes.append(len(data))
        parsed = ref.read_cache_file(data)
        if (parsed["version"], parsed["variant"], parsed["fingerprint"]) != (1, "raw", self.ref.fingerprint):
            return f"cache header {parsed['version']}, {parsed['variant']}, {parsed['fingerprint']:016x}"
        if not (ref.close(parsed["z"], self.ref.z["raw"]) and ref.close(parsed["scores"], self.ref.s["raw"])):
            return "cache file z/s differ from the reference"
        if not np.array_equal(parsed["labels"], self.inp.dataset.labels):
            return "cache file labels differ from the dataset"
        loaded = hx.load_cache(path)
        if not (np.array_equal(loaded.z, parsed["z"]) and np.array_equal(loaded.scores, parsed["scores"])
                and np.array_equal(loaded.labels, parsed["labels"])):
            return "load_cache does not round-trip the file's arrays"
        return None

    def check_cli_explain(self, result, index):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        doc = json.loads(out)
        ranked = [(t["train_index"], t["kernel_value"], t["train_label"]) for t in doc["topk"]]
        return self._check_ranked("raw", ("cli", index), self.inp.dataset.features[index],
                                  doc["predicted_label"], doc["predicted_proba"], ranked)

    @staticmethod
    def check_stale(result):
        code, _, err = result
        if code != 3 or "stale cache" not in err:
            return f"a cache used with a different model gave exit {code}: {err.strip()}"
        return None

    @staticmethod
    def check_evaluate(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        rows = json.loads(out)["rows"]
        keys = sorted((r["method"], r["k"]) for r in rows)
        if keys != sorted((m, k) for m in METHODS for k in HIT_KS):
            return f"report rows {keys} are not one per method and k"
        for row in rows:
            if row["trials"] != EVAL_SAMPLE_SIZE * EVAL_TRIALS:
                return f"{row['method']}: trials {row['trials']} != {EVAL_SAMPLE_SIZE * EVAL_TRIALS}"
            if not (0.0 <= row["hit_rate"] <= 1.0 and 0.0 < row["coverage"] <= 1.0):
                return f"{row['method']}@{row['k']}: hit rate or coverage out of range"
        for method in METHODS:
            hits = [r["hit_rate"] for r in sorted(rows, key=lambda r: r["k"]) if r["method"] == method]
            if any(a > b for a, b in zip(hits, hits[1:])):
                return f"{method}: hit@k {hits} decreases in k"
        return None

    def check_ksd(self, results):
        expected = self.ref.ksd()
        if [float(s) for s, _ in results] != [s for s, _, _ in expected]:
            return f"shifts {[s for s, _ in results]} != {SHIFTS}"
        for (shift, value), (_, want, scale) in zip(results, expected):
            if abs(value - want) > 1e-9 * scale:
                return f"KSD at shift {shift}: {value!r} != reference {want!r}"
        return None

    def check_debug(self, result):
        report, captured = result
        original = self.inp.debug_dataset
        n = original.n
        flipped = report.flipped_indices
        if len(flipped) != math.ceil(FLIP_FRACTION * n) or sorted(set(flipped)) != flipped:
            return f"{len(flipped)} flipped indices for n={n}"
        corrupted = captured["dataset"]
        if not np.array_equal(corrupted.features, original.features):
            return "the retrained dataset's features differ from the input"
        if np.flatnonzero(corrupted.labels != original.labels).tolist() != flipped:
            return "the changed labels are not the reported flipped indices"
        model = captured["model"]
        _, s = ref.scored_points(model.weights, model.biases, corrupted.features, corrupted.labels,
                                 "last-layer")
        z = captured["cache"].z
        if not ref.close(captured["cache"].scores, s):
            return "the corrupted cache's scores differ from the reference"
        diag = ref.rbf_self_influence(s, ref.median_gamma(z))
        problem = ref.ranking_error(report.ranking, None, diag, n)
        if problem:
            return f"self-influence ranking: {problem}"
        hits = set(flipped)
        for m, precision, recall in report.points:
            found = len(hits & set(report.ranking[:m]))
            if (precision, recall) != (found / m, found / len(hits)):
                return f"precision/recall at {m} do not follow from the ranking"
        return None

    # -- operations -----------------------------------------------------

    def debug_op(self):
        """label_flip_debug_experiment, keeping the model, dataset and cache it
        builds (read by the check, not by the timing)."""
        harness = sys.modules["hdexplain.evalharness"]
        inner = harness.build_cache
        captured = {}

        def keep(model, dataset, variant="raw"):
            cache = inner(model, dataset, variant)
            captured.update(model=model, dataset=dataset, cache=cache)
            return cache

        harness.build_cache = keep
        try:
            report = hx.label_flip_debug_experiment(self.inp.debug_dataset, FLIP_FRACTION,
                                                    self.inp.debug_train, None, self.inp.seed)
        finally:
            harness.build_cache = inner
        return report, captured

    def round(self, r: int) -> None:
        inp, files = self.inp, self.inp.files
        q = self.w.queries_per_round
        for j in range(q):
            p = (r * q + j) % len(inp.queries)
            x = inp.queries[p]
            before = hx_stein.kernel_eval_count()
            self.op("explain", lambda: hx.explain(inp.model, inp.caches["raw"], x, inp.configs["raw"]),
                    lambda res: self.check_explain(res, "raw", p, before))
            self.op("explain_star",
                    lambda: hx.explain(inp.model, inp.caches["last-layer"], x, inp.configs["last-layer"]),
                    lambda res: self.check_explain(res, "last-layer", p, None))
            self.op("tracin", lambda: hx.baseline_tracin_last(inp.model, inp.dataset, x),
                    lambda res: self.check_baseline(res, "tracin-last", p))
            self.op("repsim", lambda: hx.baseline_rep_similarity(inp.model, inp.dataset, x),
                    lambda res: self.check_baseline(res, "rep-sim", p))
        self.op("cache_cmd", lambda: run_cli([
            "cache", "--config", files["cli_config"], "--model", files["model"], "--variant", "raw",
            "--out", files["cache"], "--format", "structured"]), self.check_cache_cmd)
        c = self.w.cli_explains_per_round
        for j in range(c):
            index = inp.cli_indices[(r * c + j) % len(inp.cli_indices)]
            self.op("cli_explain", lambda: run_cli([
                "explain", "--config", files["cli_config"], "--model", files["model"],
                "--cache", files["cache"], "--index", str(index), "--format", "structured"]),
                lambda res: self.check_cli_explain(res, index))
        self.op("stale", lambda: run_cli([
            "explain", "--config", files["cli_config"], "--model", files["stale_model"],
            "--cache", files["cache"], "--index", str(inp.cli_indices[0])]), self.check_stale)
        self.op("evaluate", lambda: run_cli([
            "evaluate", "--config", files["eval_config"], "--out", files["report"],
            "--format", "structured"]), self.check_evaluate)
        self.op("ksd", lambda: hx.ksd_shift_experiment(inp.model, inp.ksd_dataset, SHIFTS,
                                                       inp.configs["raw"].kernel), self.check_ksd)
        self.op("debug", self.debug_op, self.check_debug)
        self.op("setup", lambda: self.w.setup(inp.seed, self.resetup_dir), self.ref.setup_error)

    def peak_alloc_per_query(self, samples: int = 5) -> list:
        """tracemalloc peak of single raw queries, measured after the timed loop."""
        peaks = []
        tracemalloc.start()
        try:
            for x in self.inp.queries[:samples]:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                hx.explain(self.inp.model, self.inp.caches["raw"], x, self.inp.configs["raw"])
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return peaks


def _median_ms(values):
    return statistics.median(values) * 1000.0


def end_to_end_metrics(runner: Runner) -> dict:
    t = runner.times
    figures = {
        "setup_s": (statistics.median(t["setup"]), "s"),
        "explain_ms": (_median_ms(t["explain"]), "ms"),
        "explain_ms_p90": (float(np.percentile(t["explain"], 90)) * 1000.0, "ms"),
        "explain_star_ms": (_median_ms(t["explain_star"]), "ms"),
        "tracin_ms": (_median_ms(t["tracin"]), "ms"),
        "repsim_ms": (_median_ms(t["repsim"]), "ms"),
        "cli_explain_ms": (_median_ms(t["cli_explain"]), "ms"),
        "cache_cmd_s": (statistics.median(t["cache_cmd"]), "s"),
        "cache_file_mb": (statistics.median(runner.cache_bytes) / 1e6, "MB"),
        "evaluate_s": (statistics.median(t["evaluate"]), "s"),
        "ksd_s": (statistics.median(t["ksd"]), "s"),
        "debug_s": (statistics.median(t["debug"]), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in figures.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        start = perf_counter()
        inputs = workload.setup(seed, workdir)
        first_setup = perf_counter() - start
        reference = Reference(inputs)
        tracer = Tracer() if trace else None
        (workdir / "resetup").mkdir()
        runner = Runner(workload, inputs, reference, workdir / "resetup", tracer)
        runner.record("setup", first_setup, reference.setup_error, inputs)

        if tracer:
            tracer.install()
        min_rounds = math.ceil(MIN_EXPLAIN_SAMPLES / workload.queries_per_round)
        rounds = 0
        start = perf_counter()
        while rounds < min_rounds or perf_counter() - start < seconds:
            runner.round(rounds)
            rounds += 1
        measured = perf_counter() - start
        peaks = runner.peak_alloc_per_query() if tracer else None
        if tracer:
            tracer.uninstall()

        for problem in runner.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        e2e = end_to_end_metrics(runner)
        summary = {"correct": runner.wrong == 0, "attempted": runner.attempted, "failed": runner.failed}
        print(f"{name} seed={seed}: {rounds} rounds in {measured:.1f} s, "
              f"{len(runner.times['explain'])} raw queries", file=sys.stderr)
        if not tracer:
            return {**summary, "metrics": e2e}
        layers = per_layer_metrics(tracer.spans, runner.pair_evals, peaks)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.json",
                     {"workload": name, "seed": seed, "rounds": rounds, "end_to_end": e2e,
                      "per_layer": layers})
        return {**summary, "metrics": layers}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
