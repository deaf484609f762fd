"""Example-based prediction explanations for neural classifiers.

The library ranks training points by a Stein-operator-augmented kernel
evaluated between scored data points, where the score of a point couples the
classifier's input gradient with its log-probabilities. The same kernel
yields a kernelized Stein discrepancy estimate for distribution-shift checks
and a diagonal self-influence ranking for surfacing label errors.

Typical use::

    from hdexplain import (gen_two_moons, TrainConfig, train, build_cache,
                           ExplainerConfig, RBFKernel, median_heuristic_gamma,
                           explain)

    data = gen_two_moons(500, noise_std=0.1, seed=7)
    model = train(data, TrainConfig(seed=7))
    cache = build_cache(model, data, variant="raw")
    kernel = RBFKernel(median_heuristic_gamma(cache.z))
    result = explain(model, cache, data.features[0],
                     ExplainerConfig(kernel=kernel, top_k=3))
"""

from .data import (
    Dataset,
    gen_rectangles,
    gen_two_moons,
    load_csv,
    load_idx,
    save_csv,
    standardize,
)
from .errors import (
    DataLoadError,
    ModelFormatError,
    StaleCacheError,
    TrainingError,
    UnsupportedAugmentationError,
    UnsupportedVariantError,
)
from .evalharness import (
    DebugReport,
    MetricsReport,
    coverage,
    hit_rate_experiment,
    ksd_shift_experiment,
    label_flip_debug_experiment,
)
from .explain import (
    Explanation,
    ExplainerConfig,
    baseline_rep_similarity,
    baseline_tracin_last,
    build_cache,
    explain,
    explanation_to_json,
    self_influence_ranking,
)
from .nnet import MLPClassifier, TrainConfig, load_model, save_model, train
from .stein import (
    IMQKernel,
    KSDEstimate,
    LinearKernel,
    RBFKernel,
    ScoreCache,
    kernel_by_name,
    ksd_ustat,
    ksd_vstat,
    load_cache,
    local_scale_gamma,
    make_stein_points,
    median_heuristic_gamma,
    save_cache,
    stein_gram,
    stein_kernel,
    stein_kernel_profile,
)

__version__ = "0.1.0"
