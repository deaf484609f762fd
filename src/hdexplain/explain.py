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
import weakref
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ModelFormatError, StaleCacheError
from .nnet import MLPClassifier
from .stein import (
    BaseKernel,
    RBFKernel,
    ScoreCache,
    _check_kernel,
    _check_variant,
    _count,
    _finite_row_stats,
    _row_stats,
    _stein_block,
    _stein_diagonal,
    make_stein_points,
    median_heuristic_gamma,
    stein_kernel_profile,
)

__all__ = [
    "METHOD_VARIANTS",
    "ExplainerConfig",
    "Explanation",
    "build_cache",
    "explain",
    "explanation_to_json",
    "self_influence_ranking",
    "baseline_tracin_last",
    "baseline_rep_similarity",
]

# the cache variant each retrieval method ranks with; None needs no cache
METHOD_VARIANTS = {"hd-explain": "raw", "hd-explain-star": "last-layer",
                   "tracin-last": None, "rep-sim": None}


@dataclass
class ExplainerConfig:
    """Which variant and kernel to rank with, and how many points to return.

    ``kernel`` may be None only in the hit-rate protocol, where the
    baselines compute no Stein value and the Stein methods then rank with a
    median-heuristic RBF over the training points the protocol scores.
    ``variant`` is ``raw`` or ``last-layer`` (else ``UnsupportedVariantError``)
    and must match the cache in :func:`explain`; the protocol does not read
    it, since its ``method`` names the variant (:data:`METHOD_VARIANTS`).
    ``top_k`` is an integer of at least 1. A ``kernel`` that is neither None
    nor a ``LinearKernel`` or ``RadialKernel`` raises ``ValueError``.
    """

    kernel: BaseKernel | None
    variant: str = "raw"
    top_k: int = 3

    def __post_init__(self):
        _check_kernel(self.kernel, optional=True)
        _check_variant(self.variant)
        self.top_k = _count("top_k", self.top_k)


@dataclass
class Explanation:
    """Ranked training support for one test prediction.

    ``ranked`` holds ``(train_index, kernel_value, train_label)`` tuples in
    non-increasing kernel-value order, ties broken by ascending index.
    ``elapsed`` is the query wall time in seconds.
    """

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
    # the fingerprint's model image is made and freed before the cache's arrays exist
    fingerprint = model.fingerprint()
    z, scores = make_stein_points(model, dataset.features, dataset.labels, variant)
    return ScoreCache(model_fingerprint=fingerprint, variant=variant, z=z, scores=scores,
                      labels=dataset.labels)


def _check_cache(model: MLPClassifier, cache: ScoreCache) -> None:
    """``StaleCacheError`` unless the cache was built for ``model``, and
    ``ModelFormatError`` unless its rows and labels fit the model."""
    if cache.model_fingerprint != model.fingerprint():
        raise StaleCacheError(
            f"stale cache: built for model {cache.model_fingerprint:016x}, "
            f"got {model.fingerprint():016x}"
        )
    classes = model.num_classes
    dim = (model.input_dim if cache.variant == "raw" else model.layer_dims[-2]) + classes
    if cache.dim != dim:
        raise ModelFormatError(f"cache rows have D={cache.dim}, the model's {cache.variant} "
                               f"points have D={dim}")
    if cache.labels.max() >= classes:  # ScoreCache holds no negative label
        raise ModelFormatError(f"cache labels lie in [{cache.labels.min()}, {cache.labels.max()}], "
                               f"outside the model's classes [0, {classes})")


def _test_point(model: MLPClassifier, x_test) -> np.ndarray:
    """The test point as a finite length-d vector, else ``ValueError``."""
    x_test = np.asarray(x_test, dtype=np.float64)
    if x_test.ndim != 1 or x_test.shape[0] != model.input_dim:
        raise ValueError(f"test point must be a length-{model.input_dim} vector")
    if not np.isfinite(x_test).all():
        raise ValueError("test point contains non-finite values")
    return x_test


def _finite(values: np.ndarray, what: str = "scores against the test point are not finite "
            "(its features or the model's weights are too large in magnitude)") -> np.ndarray:
    if not np.isfinite(values).all():
        raise ArithmeticError(what)
    return values


def explain(model: MLPClassifier, cache: ScoreCache, x_test, config: ExplainerConfig) -> Explanation:
    """Rank the cached training points by Stein-kernel value against a test point.

    The test point is completed with the predicted class (argmax of the
    probabilities, ties to the lowest index).
    """
    x_test = _test_point(model, x_test)
    if config.kernel is None:
        raise ValueError("explain needs a kernel")
    if config.variant != cache.variant:
        raise ValueError(f"config variant {config.variant!r} does not match cache variant {cache.variant!r}")
    if config.top_k > cache.n:
        raise ValueError(f"top_k={config.top_k} exceeds cache size n={cache.n}")
    _check_cache(model, cache)

    start = time.perf_counter()
    with np.errstate(all="ignore"):  # overflow surfaces as the ArithmeticError below
        predicted, proba, z, s = model.score(x_test, None, cache.variant)
        values = stein_kernel_profile(config.kernel, cache.z, cache.scores, z, s, row_stats=cache.row_stats)
    ranked = _ranked_list(_finite(values), cache.labels, k=config.top_k)
    elapsed = time.perf_counter() - start
    return Explanation(predicted_label=int(predicted), predicted_proba=proba, ranked=ranked,
                       elapsed=elapsed)


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
    kernel the diagonal is an increasing function of ``||s||`` alone. A
    non-finite value raises ``ArithmeticError``, without numpy warnings.
    """
    with np.errstate(all="ignore"):
        values = _stein_diagonal(kernel, cache.scores, cache.row_stats)
    return _ranked_list(_finite(values, "self-influence values are not finite "
                                        "(the cached scores are too large in magnitude)"))


def _top(values: np.ndarray, k: int | None = None) -> np.ndarray:
    """Indices of the ``k`` (all by default) largest values along the last
    axis of a 1-D or 2-D array, in descending order, ties by ascending index.

    For ``k < n`` only the candidates are sorted: the values at least as large
    as the k-th largest (more than ``k`` only where values tie with it), taken
    in ascending index order and stably sorted by value."""
    neg = -values
    if k is None or k >= neg.shape[-1]:
        return np.argsort(neg, axis=-1, kind="stable")[..., :k]
    kth = np.partition(neg, k - 1, axis=-1)[..., k - 1]
    if neg.ndim == 1:  # explain's one row: fewer numpy calls than the block form below
        index = np.flatnonzero(neg <= kth)
        return index[np.argsort(neg[index], kind="stable")[:k]]
    rows, index = np.nonzero(neg <= kth[:, None])  # row-major: ascending index within each row
    order = np.lexsort((neg[rows, index], rows))  # stable: by row, then value, then index
    counts = np.bincount(rows, minlength=neg.shape[0])
    return index[order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]]


def _ranked_list(values: np.ndarray, *columns: np.ndarray, k: int | None = None) -> list[tuple]:
    """The first ``k`` (all by default) ``(index, value, *column entries)``
    tuples by value descending, ties by ascending index."""
    order = _top(values, k)
    return list(zip(order.tolist(), values[order].tolist(), *(c[order].tolist() for c in columns)))


# Block scorers: (m, d) test rows -> (m, n) scores over the training rows.
# explain and the baselines are their m = 1 case (explain through
# stein_kernel_profile, the one-row wrapper of _stein_block); the hit-rate
# protocol calls them on blocks through _block_ranker. Non-finite scores raise
# ArithmeticError (numpy's warnings about the overflow that causes them are
# silenced).

def _stein_scores(model: MLPClassifier, variant: str, train: tuple, kernel: BaseKernel, x) -> np.ndarray:
    """Stein values of each test row, completed with its predicted label,
    against the training rows ``train = (z, s, row_stats)``: m * n pairs."""
    with np.errstate(all="ignore"):
        _, _, z, s = model.score(x, None, variant)
        values = _stein_block(kernel, *train, z, s, _row_stats(z, s))
    return _finite(values)


class _LastLayer:
    """The baselines' training-side features for one (model, dataset), from
    one forward pass: the final hidden representations ``reps``, their
    ``norms`` and the residuals ``resid`` (``e_y - p`` at the ground-truth
    labels)."""

    def __init__(self, model: MLPClassifier, dataset: Dataset):
        x, y = dataset.features, dataset.labels
        self._source = (weakref.ref(x), weakref.ref(y))
        _, self.reps, self.resid = model.representation_and_residual(x, y)
        self.norms = np.linalg.norm(self.reps, axis=1)

    def built_from(self, dataset: Dataset) -> bool:
        return self._source[0]() is dataset.features and self._source[1]() is dataset.labels


# model -> _LastLayer; weakly keyed, so an entry dies with its model
_LAST_LAYER = weakref.WeakKeyDictionary()


def _read_only(arr: np.ndarray) -> bool:
    """Whether no array in ``arr``'s view chain is writeable."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return True


def _training_features(model: MLPClassifier, dataset: Dataset) -> _LastLayer:
    """The baselines' training-side features, memoized per model while the
    dataset's features and labels are the same read-only arrays."""
    if not (_read_only(dataset.features) and _read_only(dataset.labels)):
        return _LastLayer(model, dataset)
    memo = _LAST_LAYER.get(model)
    if memo is not None and memo.built_from(dataset):
        return memo
    # drop the stale entry first, so the new pass can reuse its memory
    _LAST_LAYER.pop(model, None)
    memo = _LAST_LAYER[model] = _LastLayer(model, dataset)
    return memo


def _tracin_scores(resid, reps, resid_t, rep_t) -> np.ndarray:
    """Last-layer gradient inner products: (resid_i . resid_t)(h_i . h_t).

    ``resid`` rows are ``e_y - p`` residuals; the score is the Frobenius inner
    product of the two cross-entropy weight gradients. The test side is one
    row or an (m, .) block.
    """
    return (resid_t @ resid.T) * (rep_t @ reps.T)


def _tracin_block(model: MLPClassifier, train: _LastLayer, x) -> np.ndarray:
    """TracIn-last scores, each test row paired with its predicted label."""
    with np.errstate(all="ignore"):
        _, reps, resid = model.representation_and_residual(x)
        scores = _tracin_scores(train.resid, train.reps, resid, reps)
    return _finite(scores)


def _rep_sim_block(model: MLPClassifier, train: _LastLayer, x) -> np.ndarray:
    """Cosine similarity of final hidden representations; a zero norm scores 0."""
    with np.errstate(all="ignore"):
        reps = model.representation_and_residual(x)[1]
        # row by row dot products, so each norm equals np.linalg.norm(row)
        norms = np.sqrt(reps[:, None, :] @ reps[:, :, None])[:, 0]
        denom = train.norms * norms
        scores = np.divide(reps @ train.reps.T, denom, out=np.zeros(denom.shape),
                           where=(train.norms > 0) & (norms > 0))
    return _finite(scores)


def baseline_tracin_last(model: MLPClassifier, dataset: Dataset, x_test) -> list[tuple[int, float, int]]:
    """Rank training points by final-layer loss-gradient inner product.

    Uses the single available checkpoint; the test point is paired with its
    predicted label. Returns the full ranking as
    ``(train_index, score, train_label)`` tuples, descending, ties by index.
    """
    x_test = _test_point(model, x_test)
    scores = _tracin_block(model, _training_features(model, dataset), x_test[None, :])
    return _ranked_list(scores[0], dataset.labels)


def baseline_rep_similarity(model: MLPClassifier, dataset: Dataset, x_test) -> list[tuple[int, float, int]]:
    """Rank training points by cosine similarity of final hidden representations.

    Zero-norm representations score 0.
    """
    x_test = _test_point(model, x_test)
    scores = _rep_sim_block(model, _training_features(model, dataset), x_test[None, :])
    return _ranked_list(scores[0], dataset.labels)


def _block_ranker(method: str, model: MLPClassifier, dataset: Dataset,
                  kernel: BaseKernel | None, k: int):
    """The hit-rate protocol's ranker for ``method``: (m, d) test rows -> the
    (m, k) indices of each row's top-k training points, ties by ascending
    index. The Stein methods rank against the training points of the method's
    variant (:data:`METHOD_VARIANTS`), scored here with no model fingerprint,
    with ``kernel``, or a median-heuristic RBF over those points when None."""
    if method not in METHOD_VARIANTS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(METHOD_VARIANTS)}")
    variant = METHOD_VARIANTS[method]
    if variant is None:
        block = _tracin_block if method == "tracin-last" else _rep_sim_block
        train = _training_features(model, dataset)
        return lambda x: _top(block(model, train, x), k)
    z, s = make_stein_points(model, dataset.features, dataset.labels, variant)
    train = (z, s, _finite_row_stats(z, s))
    if kernel is None:
        kernel = RBFKernel(median_heuristic_gamma(z))
    return lambda x: _top(_stein_scores(model, variant, train, kernel, x), k)
