import gc
import json
import weakref

import importlib

import numpy as np
import pytest

import oracle
from hdexplain.data import Dataset, gen_two_moons
from hdexplain.errors import StaleCacheError
from hdexplain.explain import (
    ExplainerConfig,
    baseline_rep_similarity,
    baseline_tracin_last,
    build_cache,
    explain,
    explanation_to_json,
    self_influence_ranking,
    _top,
    _tracin_scores,
)
from hdexplain.evalharness import ksd_shift_experiment
from hdexplain.nnet import MLPClassifier, TrainConfig, train
from hdexplain import nnet, stein
from hdexplain.stein import (
    IMQKernel,
    LinearKernel,
    RBFKernel,
    ScoreCache,
    local_scale_gamma,
    make_stein_points,
)

explain_module = importlib.import_module("hdexplain.explain")  # the package re-exports the function


@pytest.fixture(scope="module")
def moons():
    return gen_two_moons(500, 0.1, seed=7)


@pytest.fixture(scope="module")
def trained(moons):
    return train(moons, TrainConfig(seed=7))


@pytest.fixture(scope="module")
def cache(trained, moons):
    return build_cache(trained, moons, "raw")


@pytest.fixture(scope="module")
def retrieval_config(cache):
    # bandwidth at the nearest-neighbor scale so the kernel can resolve
    # individual training points in 2-D (the global median is ~50x coarser)
    return ExplainerConfig(kernel=RBFKernel(local_scale_gamma(cache.z)), top_k=1)


class TestBuildCache:
    def test_record_count_and_dimension(self, cache, moons):
        assert cache.n == moons.n
        assert cache.dim == moons.d + moons.num_classes

    def test_rebuild_bit_identical(self, trained, moons, cache):
        again = build_cache(trained, moons, "raw")
        assert np.array_equal(again.z, cache.z)
        assert np.array_equal(again.scores, cache.scores)
        assert again.model_fingerprint == cache.model_fingerprint

    def test_uses_ground_truth_labels(self, cache, moons):
        onehot = cache.z[:, -2:]
        assert np.array_equal(onehot.argmax(axis=1), moons.labels)

    def test_dimension_mismatch_rejected(self, trained):
        bad = Dataset(np.zeros((4, 3)), np.array([0, 1, 0, 1]), 2)
        with pytest.raises(ValueError):
            build_cache(trained, bad, "raw")

    def test_stale_cache_rejected_at_query_time(self, trained, moons, cache, retrieval_config):
        weights = [w.copy() for w in trained.weights]
        weights[0][0, 0] += 1e-6
        mutated = MLPClassifier(trained.layer_dims, weights, [b.copy() for b in trained.biases])
        with pytest.raises(StaleCacheError, match="stale cache"):
            explain(mutated, cache, moons.features[0], retrieval_config)


class TestExplain:
    def test_self_retrieval(self, trained, moons, cache, retrieval_config):
        rng = np.random.default_rng(0)
        sampled = rng.choice(moons.n, size=100, replace=False)
        hits = 0
        for i in sampled:
            result = explain(trained, cache, moons.features[int(i)], retrieval_config)
            hits += result.ranked[0][0] == int(i)
        assert hits >= 95

    def test_single_record_cache(self, trained, moons, retrieval_config):
        one = Dataset(moons.features[:1], moons.labels[:1], 2)
        cache1 = build_cache(trained, one, "raw")
        result = explain(trained, cache1, np.array([5.0, 5.0]), retrieval_config)
        assert [i for i, _, _ in result.ranked] == [0]

    def test_exact_ties_break_to_lower_index(self, trained, retrieval_config):
        # duplicate training points produce exactly equal kernel values
        features = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        labels = np.array([0, 0, 0])
        cache3 = build_cache(trained, Dataset(features, labels, 2), "raw")
        config = ExplainerConfig(kernel=retrieval_config.kernel, top_k=3)
        result = explain(trained, cache3, np.array([0.4, 0.6]), config)
        values = [v for _, v, _ in result.ranked]
        assert values[0] == values[1] == values[2]
        assert [i for i, _, _ in result.ranked] == [0, 1, 2]

    def test_deterministic(self, trained, moons, cache, retrieval_config):
        a = explain(trained, cache, moons.features[3], retrieval_config)
        b = explain(trained, cache, moons.features[3], retrieval_config)
        assert a.ranked == b.ranked
        assert a.predicted_label == b.predicted_label

    def test_ranking_invariant_under_record_permutation(self, trained, moons, cache):
        # a wide kernel keeps all pair values distinct, so the ranking is
        # determined by the values alone and must survive record reordering
        from hdexplain.stein import median_heuristic_gamma

        perm = np.random.default_rng(1).permutation(moons.n)
        shuffled = Dataset(moons.features[perm], moons.labels[perm], 2)
        cache_p = build_cache(trained, shuffled, "raw")
        config = ExplainerConfig(kernel=RBFKernel(median_heuristic_gamma(cache.z)), top_k=5)
        x_test = np.array([0.2, 0.4])
        base = explain(trained, cache, x_test, config)
        moved = explain(trained, cache_p, x_test, config)
        base_values = [v for _, v, _ in base.ranked]
        assert len(set(base_values)) == len(base_values), "tie-free premise violated"
        # map permuted indices back to original dataset positions
        assert [perm[i] for i, _, _ in moved.ranked] == [i for i, _, _ in base.ranked]
        assert np.allclose([v for _, v, _ in moved.ranked], base_values, atol=1e-10)

    def test_reported_values_match_fresh_recomputation(self, trained, moons, cache, retrieval_config):
        config = ExplainerConfig(kernel=retrieval_config.kernel, top_k=5)
        x_test = moons.features[10] + 0.01
        result = explain(trained, cache, x_test, config)
        (z,), (s,) = make_stein_points(trained, x_test[None, :], [result.predicted_label], "raw")
        for index, value, _ in result.ranked:
            fresh = oracle.stein_kernel(config.kernel, cache.z[index], cache.scores[index], z, s)
            assert abs(fresh - value) <= 1e-10

    def test_query_cost_is_exactly_n_kernel_evaluations(self, trained, moons, cache, retrieval_config):
        stein.reset_kernel_eval_count()
        explain(trained, cache, moons.features[0], retrieval_config)
        assert stein.kernel_eval_count() == cache.n

    def test_scores_through_the_one_row_profile(self, trained, moons, cache, retrieval_config,
                                                monkeypatch):
        calls = []
        real = explain_module.stein_kernel_profile
        monkeypatch.setattr(explain_module, "stein_kernel_profile",
                            lambda *a, **kw: calls.append(a[3].shape) or real(*a, **kw))
        explain(trained, cache, moons.features[0], retrieval_config)
        assert calls == [(cache.z.shape[1],)]

    def test_variant_mismatch_rejected(self, trained, moons, cache):
        config = ExplainerConfig(kernel=LinearKernel(), variant="last-layer", top_k=1)
        with pytest.raises(ValueError, match="variant"):
            explain(trained, cache, moons.features[0], config)

    def test_top_k_larger_than_cache_rejected(self, trained, moons, cache, retrieval_config):
        config = ExplainerConfig(kernel=retrieval_config.kernel, top_k=cache.n + 1)
        with pytest.raises(ValueError, match="top_k"):
            explain(trained, cache, moons.features[0], config)

    def test_non_finite_input_rejected(self, trained, moons, cache, retrieval_config):
        with pytest.raises(ValueError, match="finite"):
            explain(trained, cache, np.array([np.nan, 0.0]), retrieval_config)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_profile_raises(self, trained, cache, retrieval_config):
        # finite features whose squared norm overflows make every kernel value
        # NaN; the error is raised without numpy's overflow warnings
        with pytest.raises(ArithmeticError, match="not finite"):
            explain(trained, cache, np.array([1e155, 1e155]), retrieval_config)

    def test_ranked_entries_are_python_scalars(self, trained, moons, cache, retrieval_config):
        config = ExplainerConfig(kernel=retrieval_config.kernel, top_k=4)
        rankings = [explain(trained, cache, moons.features[0], config).ranked,
                    self_influence_ranking(cache, retrieval_config.kernel)[:4],
                    baseline_tracin_last(trained, moons, moons.features[0])[:4],
                    baseline_rep_similarity(trained, moons, moons.features[0])[:4]]
        for ranked in rankings:
            for entry in ranked:
                assert [type(v) for v in entry] == [int, float, int][:len(entry)]

    def test_json_document(self, trained, moons, cache, retrieval_config):
        config = ExplainerConfig(kernel=retrieval_config.kernel, top_k=3)
        result = explain(trained, cache, moons.features[0], config)
        doc = json.loads(explanation_to_json(result))
        assert set(doc) == {"predicted_label", "predicted_proba", "topk", "elapsed_ms"}
        assert len(doc["topk"]) == 3
        assert doc["topk"][0]["train_index"] == result.ranked[0][0]


class TestSelfInfluence:
    def test_permutation_of_all_indices(self, cache):
        ranking = self_influence_ranking(cache, IMQKernel(1.0, -0.5))
        indices = [i for i, _ in ranking]
        assert sorted(indices) == list(range(cache.n))
        values = [v for _, v in ranking]
        assert values == sorted(values, reverse=True)

    def test_diagonal_nonnegative_up_to_numerics(self, cache):
        for kernel in (LinearKernel(), RBFKernel(0.5), IMQKernel(1.0, -0.5)):
            ranking = self_influence_ranking(cache, kernel)
            values = np.array([v for _, v in ranking])
            assert values.min() >= -1e-6 * np.abs(values).max()

    def test_label_flips_surface_at_the_top(self):
        # single-seed version of the debugging experiment: flipped points get
        # confidently contradicted labels, which inflates their self-kernel
        from hdexplain.evalharness import label_flip_debug_experiment

        ds = gen_two_moons(1000, 0.1, seed=3)
        report = label_flip_debug_experiment(ds, 0.05, TrainConfig(seed=3), None, seed=3)
        assert report.precision_at(50) >= 3 * 0.05


class TestTop:
    """``_top`` orders as a full stable sort of the negated values does:
    descending, ties by ascending index, whatever the path it takes."""

    N = 40

    @pytest.mark.parametrize("k", [1, 5, N - 1, N, None])
    @pytest.mark.parametrize("values", ["three-levels", "all-equal", "signed-zeros", "distinct"])
    @pytest.mark.parametrize("shape", [(N,), (9, N)], ids=["row", "block"])
    def test_equals_the_stable_argsort(self, k, values, shape):
        rng = np.random.default_rng(len(shape) * 100 + (k or 0))
        v = {
            "three-levels": lambda: rng.integers(-1, 2, shape).astype(np.float64),
            "all-equal": lambda: np.full(shape, 0.25),
            "signed-zeros": lambda: rng.choice([0.0, -0.0, 0.5], shape),
            "distinct": lambda: rng.normal(size=shape),
        }[values]()
        if len(shape) == 2:
            v[1] = 0.0  # one all-equal row in every block
            v[2, :] = -0.0
            v[2, ::3] = 0.0
        got = _top(v, k)
        want = np.argsort(-v, axis=-1, kind="stable")[..., :k]
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


class TestForwardPasses:
    """Each scored batch costs one forward pass through the network."""

    @pytest.fixture()
    def forward_calls(self, monkeypatch):
        calls = []

        def counting(weights, biases, x):
            calls.append(x.shape[0])
            return real(weights, biases, x)

        real = nnet._forward
        monkeypatch.setattr(nnet, "_forward", counting)
        return calls

    @pytest.mark.parametrize("variant", ["raw", "last-layer"])
    def test_explain_one_per_query(self, trained, moons, forward_calls, variant):
        cache = build_cache(trained, moons, variant)
        assert forward_calls == [moons.n]
        config = ExplainerConfig(kernel=RBFKernel(1.0), variant=variant, top_k=2)
        forward_calls.clear()
        for i in range(3):
            explain(trained, cache, moons.features[i], config)
        assert forward_calls == [1, 1, 1]

    @pytest.fixture()
    def fresh_pair(self, trained, moons):
        # the baselines' training-side features are memoized per (model,
        # dataset), so the module fixtures may already be warm
        model = MLPClassifier(trained.layer_dims, trained.weights, trained.biases)
        return model, Dataset(moons.features.copy(), moons.labels.copy(), moons.num_classes)

    def test_tracin_one_over_the_training_set_one_over_the_test_point(self, fresh_pair,
                                                                        forward_calls):
        model, data = fresh_pair
        baseline_tracin_last(model, data, data.features[0])
        assert forward_calls == [data.n, 1]
        forward_calls.clear()
        baseline_tracin_last(model, data, data.features[1])
        assert forward_calls == [1]
        forward_calls.clear()
        baseline_rep_similarity(model, data, data.features[2])
        assert forward_calls == [1]

    def test_model_with_other_weights_recomputes(self, fresh_pair, forward_calls):
        model, data = fresh_pair
        before = baseline_tracin_last(model, data, data.features[0])
        weights = [w.copy() for w in model.weights]
        weights[-1][0, 0] += 1e-3
        other = MLPClassifier(model.layer_dims, weights, model.biases)
        forward_calls.clear()
        after = baseline_tracin_last(other, data, data.features[0])
        assert forward_calls == [data.n, 1]
        assert after != before

    def test_writeable_dataset_is_scored_every_call(self, fresh_pair, moons, forward_calls):
        model, data = fresh_pair
        data.features.setflags(write=True)
        # a read-only view of a writeable array can still change under it
        base = moons.features.copy()
        view = Dataset(base[:100], moons.labels[:100], moons.num_classes)
        for dataset in (data, view):
            for _ in range(2):
                forward_calls.clear()
                baseline_rep_similarity(model, dataset, dataset.features[0])
                assert forward_calls == [dataset.n, 1]
        base[0] += 1.0
        assert baseline_rep_similarity(model, view, base[0]) == baseline_rep_similarity(
            model, Dataset(base[:100].copy(), moons.labels[:100], moons.num_classes), base[0])

    def test_memo_does_not_keep_the_model_alive(self, trained, moons):
        model = MLPClassifier(trained.layer_dims, trained.weights, trained.biases)
        baseline_tracin_last(model, moons, moons.features[0])
        baseline_rep_similarity(model, moons, moons.features[0])
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_ksd_shift_one_per_shift(self, trained, moons, forward_calls):
        ksd_shift_experiment(trained, moons, [0.5, 1.0], RBFKernel(1.0))
        assert forward_calls == [moons.n] * 3

    @pytest.mark.parametrize("config", [
        TrainConfig(seed=1, epochs=3, batch_size=64),
        TrainConfig(seed=2, epochs=2, batch_size=50),
        TrainConfig(seed=3, epochs=2, batch_size=1000),
        TrainConfig(seed=4, epochs=3, batch_size=64, validation_fraction=0.2),
    ], ids=["batch-does-not-divide-n", "batch-divides-n", "batch-larger-than-n", "validation-split"])
    def test_train_one_per_batch_and_one_per_accuracy(self, moons, monkeypatch, config):
        # every training pass, batched or whole-split, goes through _forward_into
        calls = []

        def counting(weights, biases, x, outs):
            calls.append(x.shape[0])
            return real(weights, biases, x, outs)

        real = nnet._forward_into
        monkeypatch.setattr(nnet, "_forward_into", counting)
        model = train(moons, config)
        n_val = round(config.validation_fraction * moons.n)
        n_train = moons.n - n_val
        batches = -(-n_train // config.batch_size)
        accuracy_passes = [n_train] + ([n_val] if n_val else [])
        assert len(calls) == config.epochs * batches + len(accuracy_passes)
        assert sum(calls[:config.epochs * batches]) == config.epochs * n_train
        assert calls[config.epochs * batches:] == accuracy_passes
        assert len(model.train_loss_history) == config.epochs


class TestBaselineInputs:
    """The baselines validate the test point as ``explain`` does."""

    @pytest.mark.parametrize("baseline", [baseline_tracin_last, baseline_rep_similarity])
    def test_non_finite_input_rejected(self, trained, moons, baseline):
        with pytest.raises(ValueError, match="finite"):
            baseline(trained, moons, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("baseline", [baseline_tracin_last, baseline_rep_similarity])
    def test_batch_input_rejected(self, trained, moons, baseline):
        with pytest.raises(ValueError, match="length-2 vector"):
            baseline(trained, moons, moons.features[:2])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_scores_raise(self, moons):
        # both logits overflow to +inf, so the probabilities and every score are NaN
        model = MLPClassifier([2, 2, 2], [np.eye(2), np.full((2, 2), 1e308)],
                              [np.zeros(2), np.zeros(2)])
        with pytest.raises(ArithmeticError, match="not finite"):
            baseline_tracin_last(model, moons, np.array([5.0, 5.0]))

    def test_memo_hit_equals_cold_call(self, trained, moons):
        fresh = Dataset(moons.features.copy(), moons.labels.copy(), moons.num_classes)
        for baseline in (baseline_tracin_last, baseline_rep_similarity):
            for i in (0, 1, 2):
                warm = baseline(trained, moons, moons.features[i])
                assert baseline(trained, fresh, moons.features[i]) == warm


class TestTracinBaseline:
    def test_exact_onehot_prediction_zeroes_all_scores(self, moons):
        # a final layer with a huge bias gap drives softmax to an exact onehot
        dims = [2, 4, 2]
        weights = [np.zeros((2, 4)), np.zeros((4, 2))]
        biases = [np.zeros(4), np.array([0.0, -1000.0])]
        saturated = MLPClassifier(dims, weights, biases)
        p = saturated.predict_proba(np.zeros(2))
        assert p.tolist() == [1.0, 0.0]
        ranked = baseline_tracin_last(saturated, moons, np.zeros(2))
        assert all(v == 0.0 for _, v, _ in ranked)

    def test_matches_finite_difference_gradient_inner_product(self, trained, moons):
        rng = np.random.default_rng(11)
        w_last = trained.weights[-1]
        step = 1e-5

        def last_layer_loss(model, wm, x, y):
            h = model.representation(x)
            logits = h @ wm + model.biases[-1]
            shifted = logits - logits.max()
            return -(shifted[y] - np.log(np.exp(shifted).sum()))

        for _ in range(5):
            i = int(rng.integers(0, moons.n))
            x_t = moons.features[int(rng.integers(0, moons.n))] + rng.normal(0, 0.05, 2)
            y_t = int(np.argmax(trained.predict_proba(x_t)))

            def fd_grad(x, y):
                grad = np.zeros_like(w_last)
                for r in range(w_last.shape[0]):
                    for c in range(w_last.shape[1]):
                        up, down = w_last.copy(), w_last.copy()
                        up[r, c] += step
                        down[r, c] -= step
                        grad[r, c] = (last_layer_loss(trained, up, x, y)
                                      - last_layer_loss(trained, down, x, y)) / (2 * step)
                return grad

            want = float(np.sum(fd_grad(moons.features[i], int(moons.labels[i])) * fd_grad(x_t, y_t)))
            ranked = baseline_tracin_last(trained, moons, x_t)
            got = dict((idx, v) for idx, v, _ in ranked)[i]
            assert abs(got - want) <= 1e-4 * max(abs(want), 1e-6)

    def test_ranking_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(4)
        resid = rng.normal(0, 1, size=(30, 3))
        reps = rng.normal(0, 1, size=(30, 8))
        resid_t = rng.normal(0, 1, size=3)
        rep_t = rng.normal(0, 1, size=8)
        base = _tracin_scores(resid, reps, resid_t, rep_t)
        scaled = _tracin_scores(resid, reps * 2.5, resid_t, rep_t * 2.5)
        assert np.allclose(scaled, base * 2.5**2)
        assert int(np.argmax(scaled)) == int(np.argmax(base))


class TestRepSimilarityBaseline:
    def test_self_similarity_is_one_and_maximal(self, trained, moons):
        ranked = baseline_rep_similarity(trained, moons, moons.features[42])
        top_index, top_value, _ = ranked[0]
        assert abs(top_value - 1.0) <= 1e-12
        scores = dict((i, v) for i, v, _ in ranked)
        assert scores[42] >= top_value - 1e-12

    def test_orthogonal_representations_score_zero(self, moons):
        # identity-like single hidden layer passes features through tanh
        dims = [2, 2, 2]
        weights = [np.eye(2) * 0.1, np.zeros((2, 2))]
        biases = [np.zeros(2), np.zeros(2)]
        model = MLPClassifier(dims, weights, biases)
        ds = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0, 1]), 2)
        ranked = baseline_rep_similarity(model, ds, np.array([0.0, 1.0]))
        assert all(abs(v) <= 1e-12 for _, v, _ in ranked)

    def test_scores_bounded_by_cosine_range(self, trained, moons):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(0, 1, 2)
            ranked = baseline_rep_similarity(trained, moons, x)
            values = np.array([v for _, v, _ in ranked])
            assert np.all(values <= 1.0 + 1e-12) and np.all(values >= -1.0 - 1e-12)

    def test_zero_norm_test_representation(self, moons):
        model = MLPClassifier([2, 2, 2], [np.zeros((2, 2)), np.zeros((2, 2))],
                              [np.zeros(2), np.zeros(2)])
        ranked = baseline_rep_similarity(model, moons, np.array([1.0, 1.0]))
        assert all(v == 0.0 for _, v, _ in ranked)
