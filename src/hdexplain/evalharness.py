"""Quantitative evaluation: augmentation-based hit rate, coverage, timing,
label-flip debugging, and the KSD distribution-shift experiment.

The hit-rate protocol perturbs a training point with a label-preserving
augmentation and asks each method to retrieve the source point among its
top-k explanations. One generator seeded with ``seed`` draws a run's source
points and then each trial's noise in trial order, so the results do not
depend on how the trials are split into blocks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import UnsupportedAugmentationError
from .explain import (
    METHOD_VARIANTS,
    ExplainerConfig,
    _block_ranker,
    build_cache,
    self_influence_ranking,
)
from .nnet import MLPClassifier, TrainConfig, train
from .stein import (
    BaseKernel,
    RBFKernel,
    _check_kernel,
    _count,
    make_stein_points,
    median_heuristic_gamma,
    stein_gram,
)

__all__ = [
    "METHOD_VARIANTS",
    "HIT_KS",
    "MetricsReport",
    "DebugReport",
    "coverage",
    "hit_rate_experiment",
    "label_flip_debug_experiment",
    "ksd_shift_experiment",
]

HIT_KS = (1, 3, 5)
# (m, n) scores per block of trial points: it bounds the block's score matrix
# and its two matrix products (the Stein core bounds its own elementwise scratch)
_BLOCK_VALUES = 1 << 18


@dataclass
class MetricsReport:
    """Hit rate, coverage, and timing for one retrieval method.

    ``hit_rate`` and ``coverage`` map each evaluated k to a fraction;
    coverage at k is ``|union of top-k sets| / (n_test * k)``. Timing covers
    scoring and top-k selection only (scoring the training points and
    augmentation excluded). Queries run in blocks, so ``mean_ms`` is the total
    block time divided by the number of queries, and ``ci95_ms`` is the normal
    approximation over the blocks' per-query times (block time divided by
    block size), 0 for a single block.
    """

    method: str
    hit_rate: dict[int, float]
    coverage: dict[int, float]
    mean_ms: float
    ci95_ms: float
    trials: int
    seed: int

    def csv_rows(self) -> list[dict]:
        return [
            {
                "method": self.method,
                "k": k,
                "hit_rate": self.hit_rate[k],
                "coverage": self.coverage[k],
                "mean_ms": self.mean_ms,
                "ci95_ms": self.ci95_ms,
                "trials": self.trials,
                "seed": self.seed,
            }
            for k in sorted(self.hit_rate)
        ]


@dataclass
class DebugReport:
    """Label-flip retrieval quality: precision/recall at selected depths."""

    method: str
    flipped_indices: list[int]
    ranking: list[int]
    seed: int

    @property
    def flip_count(self) -> int:
        return len(self.flipped_indices)

    @property
    def points(self) -> list[tuple[int, float, float]]:
        """``(m, precision@m, recall@m)`` at ``m = ceil(f / 2)``, ``f`` and ``min(2 f, n)``."""
        f = self.flip_count
        depths = [math.ceil(f / 2), f, min(2 * f, len(self.ranking))]
        return [(m, self.precision_at(m), self.recall_at(m)) for m in depths]

    def precision_at(self, m: int) -> float:
        return len(set(self.ranking[:m]) & set(self.flipped_indices)) / m

    def recall_at(self, m: int) -> float:
        return len(set(self.ranking[:m]) & set(self.flipped_indices)) / len(self.flipped_indices)


def coverage(top) -> float:
    """Fraction of unique explanation points: ``|union| / (n_test * k)``.

    ``top`` is an (m, k) integer array with m, k >= 1 whose rows each hold
    k distinct indices (a top-k array), so the union is its unique values.
    Any other input is a ``ValueError``.
    """
    top = np.asarray(top)
    if top.ndim != 2 or top.size == 0 or not np.issubdtype(top.dtype, np.integer):
        raise ValueError("coverage needs an (m, k) integer index array with m, k >= 1")
    rows = np.sort(top, axis=1)
    if (rows[:, 1:] == rows[:, :-1]).any():
        raise ValueError("each row of a coverage index array must hold distinct indices")
    return np.unique(top).size / top.size


def _check_augmentation(dataset: Dataset, augmentation: str) -> None:
    """``UnsupportedAugmentationError`` unless ``augmentation`` names one the
    protocol can apply to ``dataset``."""
    if augmentation not in ("noise", "hflip", "identity"):
        raise UnsupportedAugmentationError(
            f"unknown augmentation {augmentation!r}; expected noise, hflip, or identity"
        )
    if augmentation == "hflip" and dataset.image_shape is None:
        raise UnsupportedAugmentationError("horizontal flip needs a dataset with image_shape")


def _trial_points(dataset: Dataset, augmentation: str, sources, rng) -> np.ndarray:
    """One block's trial points, a row per source index (``augmentation`` has
    passed :func:`_check_augmentation`); ``noise`` draws ``(b, d)`` normals from ``rng``."""
    points = dataset.features[sources]
    if augmentation == "noise":
        points += rng.standard_normal(points.shape) * (0.01 * dataset.feature_std)
    elif augmentation == "hflip":
        points = points.reshape(-1, *dataset.image_shape)[:, :, ::-1].reshape(len(sources), -1)
    return points


def hit_rate_experiment(model: MLPClassifier, dataset: Dataset, augmentation: str,
                        trials_per_point: int, sample_size: int, config: ExplainerConfig,
                        seed: int, method: str = "hd-explain") -> MetricsReport:
    """Augmented self-retrieval over a sample of training points.

    Samples ``sample_size`` source indices without replacement, generates
    ``trials_per_point`` augmented test points for each (both integers of at
    least 1, ``sample_size`` at most n), and counts a hit at
    k when the source index appears in the method's top-k. Coverage is
    measured per k over all produced top-k sets. The Stein methods rank
    against their variant's (:data:`METHOD_VARIANTS`) training points, scored
    here before the timed loop: ``method`` names the variant, not
    ``config.variant``. ``config`` supplies the kernel (None: a median-heuristic
    RBF over those points) and top_k. The trial points are made and scored in
    blocks of at most about ``_BLOCK_VALUES`` scores; trial t's ``noise`` is
    row t of one normal draw by the generator of the sources.
    """
    sample_size = _count("sample_size", sample_size)
    trials_per_point = _count("trials_per_point", trials_per_point)
    if sample_size > dataset.n:
        raise ValueError(f"sample_size={sample_size} exceeds dataset size n={dataset.n}")
    if config.top_k > dataset.n:
        raise ValueError(f"top_k={config.top_k} exceeds dataset size n={dataset.n}")
    _check_augmentation(dataset, augmentation)
    ks = sorted(set(HIT_KS) | {config.top_k})
    query_k = min(max(ks), dataset.n)
    ks = [k for k in ks if k <= query_k]
    rank = _block_ranker(method, model, dataset, config.kernel, query_k)

    rng = np.random.default_rng(seed)
    sources = np.repeat(rng.choice(dataset.n, size=sample_size, replace=False), trials_per_point)
    total = sources.size
    block = max(1, _BLOCK_VALUES // dataset.n)
    top = np.empty((total, query_k), dtype=np.int64)
    block_ms, sizes = [], []
    for start in range(0, total, block):
        points = _trial_points(dataset, augmentation, sources[start:start + block], rng)
        t0 = time.perf_counter()
        top[start:start + len(points)] = rank(points)
        block_ms.append((time.perf_counter() - t0) * 1000.0)
        sizes.append(len(points))

    found = top == sources[:, None]
    per_query_ms = np.divide(block_ms, sizes)
    blocks = len(sizes)
    ci95 = 1.96 * per_query_ms.std(ddof=1) / math.sqrt(blocks) if blocks > 1 else 0.0
    return MetricsReport(method=method,
                         hit_rate={k: int(found[:, :k].any(axis=1).sum()) / total for k in ks},
                         coverage={k: coverage(top[:, :k]) for k in ks},
                         mean_ms=sum(block_ms) / total, ci95_ms=float(ci95), trials=total, seed=seed)


def label_flip_debug_experiment(dataset: Dataset, flip_fraction: float,
                                train_config: TrainConfig, kernel: BaseKernel | None,
                                seed: int) -> DebugReport:
    """Flip a fraction of labels, retrain with ``train_config``, and rank by self-influence.

    Uses the last-layer variant. ``kernel=None`` ranks with ``RBFKernel(1.0)``:
    a radial kernel's diagonal is ``phi(0) ||s||^2 - 2 D phi'(0)``, so every
    RBF bandwidth ranks by ``||s||`` and no bandwidth is fitted. Reports
    precision/recall at ``m = ceil(flips / 2)``, ``flips``, and ``2 * flips``
    (capped at n). A bad ``kernel`` fails before training.
    """
    _check_kernel(kernel, optional=True)
    if not 0.0 < flip_fraction < 0.5:
        raise ValueError("flip_fraction must lie in (0, 0.5)")
    flips = math.ceil(flip_fraction * dataset.n)  # at least 1, as flip_fraction > 0 and n >= 1
    rng = np.random.default_rng(seed)
    flip_idx = rng.choice(dataset.n, size=flips, replace=False)
    labels = dataset.labels.copy()
    # shift each flipped label by a nonzero offset so it always changes class
    offsets = rng.integers(1, dataset.num_classes, size=flips)
    labels[flip_idx] = (labels[flip_idx] + offsets) % dataset.num_classes
    corrupted = Dataset(dataset.features, labels, dataset.num_classes, image_shape=dataset.image_shape)

    model = train(corrupted, train_config)
    cache = build_cache(model, corrupted, variant="last-layer")
    if kernel is None:
        kernel = RBFKernel(1.0)
    ranking = [i for i, _ in self_influence_ranking(cache, kernel)]
    return DebugReport(method="hd-explain-star", flipped_indices=sorted(int(i) for i in flip_idx),
                       ranking=ranking, seed=seed)


def ksd_shift_experiment(model: MLPClassifier, dataset: Dataset, shifts,
                         kernel: BaseKernel | None = None) -> list[tuple[np.ndarray, float]]:
    """KSD V-statistic of the training set under rigid feature shifts.

    Each shift may be a scalar (applied to every feature) or a length-d
    displacement vector. A zero shift is always evaluated first.
    ``kernel=None`` selects a median-heuristic RBF over the zero shift's
    scored points. A bad kernel or a non-finite shift raises ``ValueError``
    before any point is scored; a non-finite value raises ``ArithmeticError``.
    """
    _check_kernel(kernel, optional=True)
    deltas = []
    for shift in shifts:
        arr = np.asarray(shift, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(dataset.d, float(arr))
        if arr.shape != (dataset.d,):
            raise ValueError(f"shift must be scalar or length-{dataset.d}, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"shift {shift!r} is not finite")
        deltas.append((shift, arr))
    if not deltas or np.any(deltas[0][1] != 0.0):
        deltas.insert(0, (0.0, np.zeros(dataset.d)))

    results = []
    for shift, delta in deltas:
        z, scores = make_stein_points(model, dataset.features + delta, dataset.labels, "raw")
        if kernel is None:
            kernel = RBFKernel(median_heuristic_gamma(z))
        with np.errstate(all="ignore"):  # overflow surfaces as the ArithmeticError below
            value = float(stein_gram(kernel, z, scores).mean())
        if not math.isfinite(value):
            raise ArithmeticError(f"the KSD at shift {shift!r} is not finite "
                                  "(the shifted points' Stein values overflow)")
        results.append((shift, value))
    return results
