"""Explain individual predictions by ranking training points with the Stein
kernel, plus diagonal self-influence ranking for data debugging and two
lightweight baseline rankers.

A query costs one score computation for the test point and one Stein-kernel
evaluation per cached training point. Test points are completed with the
model's predicted label; cached training points keep their ground-truth
labels.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import StaleCacheError
from .nnet import MLPClassifier, _residual
from .stein import (
    BaseKernel,
    ScoreCache,
    _stein_diagonal,
    _stein_rows,
    make_stein_points,
    stein_kernel_profile,
)

__all__ = [
    "ExplainerConfig",
    "Explanation",
    "build_cache",
    "explain",
    "explanation_to_json",
    "self_influence_ranking",
    "baseline_tracin_last",
    "baseline_rep_similarity",
]


@dataclass
class ExplainerConfig:
    """Which variant and kernel to rank with, and how many points to return."""

    kernel: BaseKernel
    variant: str = "raw"
    top_k: int = 3

    def __post_init__(self):
        if self.variant not in ("raw", "last-layer"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")


@dataclass
class Explanation:
    """Ranked training support for one test prediction.

    ``ranked`` holds ``(train_index, kernel_value, train_label)`` tuples in
    non-increasing kernel-value order, ties broken by ascending index.
    ``elapsed`` is the query wall time in seconds.
    """

    test_features: np.ndarray
    predicted_label: int
    predicted_proba: np.ndarray
    ranked: list[tuple[int, float, int]]
    elapsed: float = 0.0


def build_cache(model: MLPClassifier, dataset: Dataset, variant: str = "raw") -> ScoreCache:
    """Score every training example with its ground-truth label."""
    if dataset.d != model.input_dim:
        raise ValueError(f"dataset has d={dataset.d}, model expects {model.input_dim}")
    if dataset.num_classes != model.num_classes:
        raise ValueError(f"dataset has {dataset.num_classes} classes, model has {model.num_classes}")
    z, scores = make_stein_points(model, dataset.features, dataset.labels, variant)
    return ScoreCache(
        model_fingerprint=model.fingerprint(),
        variant=variant,
        z=z,
        scores=scores,
        labels=dataset.labels,
    )


def _check_cache(model: MLPClassifier, cache: ScoreCache) -> None:
    if cache.model_fingerprint != model.fingerprint():
        raise StaleCacheError(
            f"stale cache: built for model {cache.model_fingerprint:016x}, "
            f"got {model.fingerprint():016x}"
        )


def explain(model: MLPClassifier, cache: ScoreCache, x_test, config: ExplainerConfig) -> Explanation:
    """Rank the cached training points by Stein-kernel value against a test point.

    The test point is completed with the predicted class (argmax of the
    probabilities, ties to the lowest index).
    """
    x_test = np.asarray(x_test, dtype=np.float64)
    if x_test.ndim != 1 or x_test.shape[0] != model.input_dim:
        raise ValueError(f"test point must be a length-{model.input_dim} vector")
    if not np.all(np.isfinite(x_test)):
        raise ValueError("test point contains non-finite values")
    if config.variant != cache.variant:
        raise ValueError(f"config variant {config.variant!r} does not match cache variant {cache.variant!r}")
    if config.top_k > cache.n:
        raise ValueError(f"top_k={config.top_k} exceeds cache size n={cache.n}")
    _check_cache(model, cache)

    start = time.perf_counter()
    predicted, proba, z, score = _stein_rows(model, x_test, None, config.variant)
    values = stein_kernel_profile(config.kernel, cache.z, cache.scores, z[0], score[0],
                                  row_stats=cache.row_stats)
    if not np.isfinite(values).all():
        raise ArithmeticError("Stein kernel values against this test point are not finite "
                              "(its features are too large in magnitude)")
    ranked = _ranked_list(values, cache.labels, k=config.top_k)
    elapsed = time.perf_counter() - start
    return Explanation(
        test_features=x_test,
        predicted_label=int(predicted[0]),
        predicted_proba=proba[0],
        ranked=ranked,
        elapsed=elapsed,
    )


def explanation_to_json(explanation: Explanation) -> str:
    """Single-document JSON form of an explanation."""
    doc = {
        "predicted_label": explanation.predicted_label,
        "predicted_proba": [float(p) for p in explanation.predicted_proba],
        "topk": [
            {"train_index": i, "kernel_value": v, "train_label": lab}
            for i, v, lab in explanation.ranked
        ],
        "elapsed_ms": explanation.elapsed * 1000.0,
    }
    return json.dumps(doc, indent=2)


def self_influence_ranking(cache: ScoreCache, kernel: BaseKernel) -> list[tuple[int, float]]:
    """Training points ranked by their diagonal Stein-kernel value, descending.

    High self-kernel values flag candidates for label errors: a large score
    norm (confidently contradicted label) dominates the diagonal. For a radial
    kernel the diagonal is an increasing function of ``||s||`` alone.
    """
    return _ranked_list(_stein_diagonal(kernel, cache.scores, cache.row_stats))


def _ranked_list(values: np.ndarray, *columns: np.ndarray, k: int | None = None) -> list[tuple]:
    """The first ``k`` (all by default) ``(index, value, *column entries)``
    tuples by value descending, ties by ascending index."""
    order = np.lexsort((np.arange(values.shape[0]), -values))[:k]
    return list(zip(order.tolist(), values[order].tolist(), *(c[order].tolist() for c in columns)))


def _tracin_scores(resid, reps, resid_t, rep_t) -> np.ndarray:
    """Last-layer gradient inner products: (resid_i . resid_t)(h_i . h_t).

    ``resid`` rows are ``e_y - p`` residuals; the score is the Frobenius inner
    product of the two cross-entropy weight gradients.
    """
    return (resid @ resid_t) * (reps @ rep_t)


def baseline_tracin_last(model: MLPClassifier, dataset: Dataset, x_test) -> list[tuple[int, float, int]]:
    """Rank training points by final-layer loss-gradient inner product.

    Uses the single available checkpoint; the test point is paired with its
    predicted label. Returns the full ranking as
    ``(train_index, score, train_label)`` tuples, descending, ties by index.
    """
    _, proba, _, reps, _ = model.score(dataset.features, dataset.labels, "last-layer")
    label_t, proba_t, _, rep_t, _ = model.score(np.atleast_2d(x_test), None, "last-layer")
    scores = _tracin_scores(_residual(proba, dataset.labels), reps,
                            _residual(proba_t, label_t)[0], rep_t[0])
    return _ranked_list(scores, dataset.labels)


def baseline_rep_similarity(model: MLPClassifier, dataset: Dataset, x_test) -> list[tuple[int, float, int]]:
    """Rank training points by cosine similarity of final hidden representations.

    Zero-norm representations score 0.
    """
    reps = model.representation(dataset.features)
    rep_t = model.representation(np.asarray(x_test, dtype=np.float64))
    norms = np.linalg.norm(reps, axis=1)
    norm_t = float(np.linalg.norm(rep_t))
    scores = np.zeros(dataset.n)
    if norm_t > 0:
        nonzero = norms > 0
        scores[nonzero] = (reps[nonzero] @ rep_t) / (norms[nonzero] * norm_t)
    return _ranked_list(scores, dataset.labels)
