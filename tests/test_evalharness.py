import importlib
import warnings

import numpy as np
import pytest

from hdexplain.data import Dataset, gen_two_moons
from hdexplain import evalharness
from hdexplain.errors import UnsupportedAugmentationError
from hdexplain.evalharness import (
    METHOD_VARIANTS,
    DebugReport,
    coverage,
    hit_rate_experiment,
    ksd_shift_experiment,
    label_flip_debug_experiment,
)
from hdexplain.explain import (
    ExplainerConfig,
    baseline_rep_similarity,
    baseline_tracin_last,
    build_cache,
    explain,
)
from hdexplain.nnet import TrainConfig, train
from hdexplain.stein import (
    RBFKernel,
    ksd_vstat,
    local_scale_gamma,
    make_stein_points,
    median_heuristic_gamma,
)

explain_module = importlib.import_module("hdexplain.explain")  # the package re-exports the function


@pytest.fixture(scope="module")
def moons():
    return gen_two_moons(300, 0.1, seed=2)


@pytest.fixture(scope="module")
def trained(moons):
    return train(moons, TrainConfig(seed=2))


@pytest.fixture(scope="module")
def cache(trained, moons):
    return build_cache(trained, moons, "raw")


@pytest.fixture(scope="module")
def retrieval_config(cache):
    return ExplainerConfig(kernel=RBFKernel(local_scale_gamma(cache.z)), top_k=3)


def trial_points(dataset, augmentation, sources, seed=0):
    """The protocol's trial points for ``sources``, noise from a generator seeded with ``seed``."""
    return evalharness._trial_points(dataset, augmentation, np.asarray(sources),
                                     np.random.default_rng(seed))


def augment_hflip(dataset, index):
    """One training image as the protocol's ``hflip`` trial makes it."""
    return trial_points(dataset, "hflip", [index])[0]


class TestAugmentNoise:
    def test_constant_columns_unchanged(self):
        features = np.column_stack([np.full(10, 2.0), np.linspace(0, 1, 10)])
        ds = Dataset(features, np.arange(10) % 2, 2)
        out = trial_points(ds, "noise", [3, 3, 7])
        assert np.all(out[:, 0] == 2.0)
        assert np.all(out[:, 1] != ds.features[[3, 3, 7], 1])

    def test_deterministic_per_seed(self, moons):
        # the noise comes only from the generator passed in
        a = trial_points(moons, "noise", [5, 0], seed=9)
        b = trial_points(moons, "noise", [5, 0], seed=9)
        assert np.array_equal(a, b)
        c = trial_points(moons, "noise", [5, 0], seed=10)
        assert not np.array_equal(a, c)

    def test_noise_scale_is_one_percent_of_feature_std(self, moons):
        # across many draws the empirical std must match 0.01 * sigma_j
        draws = trial_points(moons, "noise", np.zeros(4000, dtype=np.int64)) - moons.features[0]
        ratio = draws.std(axis=0) / (0.01 * moons.feature_std)
        assert np.all(np.abs(ratio - 1.0) < 0.1)


class TestAugmentHflip:
    def _image_dataset(self):
        rng = np.random.default_rng(0)
        features = rng.uniform(0, 1, size=(6, 12))
        return Dataset(features, np.arange(6) % 2, 2, image_shape=(2, 3, 2))

    def test_involution(self):
        ds = self._image_dataset()
        flipped = trial_points(ds, "hflip", np.arange(6))
        ds2 = Dataset(flipped, ds.labels, 2, image_shape=(2, 3, 2))
        assert not np.array_equal(flipped, ds.features)
        assert np.array_equal(trial_points(ds2, "hflip", np.arange(6)), ds.features)

    def test_symmetric_image_unchanged(self):
        image = np.array([[1.0, 2.0, 1.0], [3.0, 4.0, 3.0]]).reshape(-1)
        ds = Dataset(np.stack([image, image]), np.array([0, 1]), 2, image_shape=(2, 3, 1))
        assert np.array_equal(augment_hflip(ds, 0), image)

    def test_minimal_two_pixel_image(self):
        ds = Dataset(np.array([[5.0, 7.0], [0.0, 1.0]]), np.array([0, 1]), 2, image_shape=(1, 2, 1))
        assert trial_points(ds, "hflip", [0, 1]).tolist() == [[7.0, 5.0], [1.0, 0.0]]

    def test_requires_image_shape(self, moons):
        with pytest.raises(UnsupportedAugmentationError):
            evalharness._check_augmentation(moons, "hflip")


def union_coverage(top):
    """Coverage written the plain way: the size of the union of the rows as
    sets over the number of entries."""
    return len(set().union(*(set(row) for row in top.tolist()))) / top.size


class TestCoverage:
    def test_repeated_sets(self):
        assert coverage(np.array([[1, 2, 3], [1, 2, 3]])) == 0.5

    def test_disjoint_sets(self):
        assert coverage(np.array([[0, 1], [2, 3], [4, 5]])) == 1.0

    def test_single_set(self):
        assert coverage(np.array([[7, 8, 9]])) == 1.0

    def test_ragged_sets_rejected(self):
        with pytest.raises(ValueError):
            coverage([[1, 2], [1, 2, 3]])

    def test_empty_rejected(self):
        for top in ([], np.empty((3, 0), dtype=np.int64), np.empty((0, 0), dtype=np.int64)):
            with pytest.raises(ValueError, match="index array"):
                coverage(top)

    def test_bounds_for_random_distinct_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n_test = int(rng.integers(1, 20))
            k = int(rng.integers(1, 6))
            top = np.stack([rng.choice(100, size=k, replace=False) for _ in range(n_test)])
            value = coverage(top)
            assert 1.0 / n_test <= value <= 1.0

    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_index_array_equals_the_set_form(self, k):
        # rows of k distinct indices, as top-k selection makes them, some rows repeated
        rng = np.random.default_rng(k)
        for _ in range(20):
            m = int(rng.integers(1, 40))
            top = np.stack([rng.choice(30, size=k, replace=False) for _ in range(m)])
            repeats = rng.integers(0, m, size=int(rng.integers(0, m + 1)))
            top = np.concatenate([top, top[repeats]])
            assert coverage(top) == union_coverage(top)

    def test_empty_index_array_rejected(self):
        with pytest.raises(ValueError):
            coverage(np.empty((0, 3), dtype=np.int64))

    def test_index_array_with_a_repeated_index_in_a_row_rejected(self):
        # as sets these rows would be ragged (sizes 3 and 2)
        with pytest.raises(ValueError, match="distinct"):
            coverage(np.array([[1, 2, 3], [4, 5, 4]]))

    @pytest.mark.parametrize("top", [[[0.5, 1.5]], np.array([[0.0, 1.0]]), np.array([[True, False]]),
                                     np.array([1, 2, 3]), np.array([[["a"]]])],
                             ids=["float-list", "float-array", "bool", "1-d", "3-d"])
    def test_non_integer_or_non_matrix_input_rejected(self, top):
        with pytest.raises(ValueError, match="index array"):
            coverage(top)


class TestHitRateExperiment:
    def test_identity_augmentation_matches_direct_self_retrieval(self, trained, moons, cache, retrieval_config):
        report = hit_rate_experiment(trained, moons, "identity", 1, 60,
                                     retrieval_config, seed=0, method="hd-explain")
        rng = np.random.default_rng(0)
        sampled = rng.choice(moons.n, size=60, replace=False)
        config1 = ExplainerConfig(kernel=retrieval_config.kernel, top_k=1)
        direct = np.mean([
            explain(trained, cache, moons.features[int(i)], config1).ranked[0][0] == int(i)
            for i in sampled
        ])
        assert report.hit_rate[1] == pytest.approx(direct)

    def test_hit_rate_monotone_in_k(self, trained, moons, retrieval_config):
        report = hit_rate_experiment(trained, moons, "noise", 3, 40,
                                     retrieval_config, seed=1, method="hd-explain")
        assert report.hit_rate[1] <= report.hit_rate[3] <= report.hit_rate[5]

    def test_degenerate_coverage_single_test_point(self, trained, moons, retrieval_config):
        report = hit_rate_experiment(trained, moons, "identity", 1, 1,
                                     retrieval_config, seed=3, method="hd-explain")
        for k, value in report.coverage.items():
            assert value == 1.0

    def test_every_query_same_set_coverage(self, trained, retrieval_config):
        # with n == k every top-k is the full index set, so coverage is 1/n_test
        tiny = gen_two_moons(5, 0.05, seed=4)
        model = train(tiny, TrainConfig(seed=4, epochs=5))
        config = ExplainerConfig(kernel=retrieval_config.kernel, top_k=5)
        report = hit_rate_experiment(model, tiny, "noise", 4, 3,
                                     config, seed=5, method="hd-explain")
        n_test = 3 * 4
        assert report.coverage[5] == pytest.approx(5 / (n_test * 5))

    def test_deterministic_given_seed(self, trained, moons, retrieval_config):
        a = hit_rate_experiment(trained, moons, "noise", 2, 20,
                                retrieval_config, seed=6, method="hd-explain")
        b = hit_rate_experiment(trained, moons, "noise", 2, 20,
                                retrieval_config, seed=6, method="hd-explain")
        assert a.hit_rate == b.hit_rate
        assert a.coverage == b.coverage

    @pytest.mark.parametrize("method", ["hd-explain", "hd-explain-star"])
    def test_config_variant_is_not_read(self, trained, moons, retrieval_config, method):
        # the method names the variant of the cache the protocol ranks against
        raw, last = (hit_rate_experiment(trained, moons, "noise", 2, 20,
                                         ExplainerConfig(kernel=None, variant=variant, top_k=3),
                                         seed=6, method=method)
                     for variant in ("raw", "last-layer"))
        assert (raw.hit_rate, raw.coverage, raw.trials) == (last.hit_rate, last.coverage, last.trials)

    def test_default_trials_match_protocol(self):
        from hdexplain.cli import ExperimentConfig

        assert ExperimentConfig().trials == 30

    def test_baseline_methods_run(self, trained, moons, retrieval_config):
        for method in ("tracin-last", "rep-sim"):
            report = hit_rate_experiment(trained, moons, "noise", 1, 10,
                                         retrieval_config, seed=7, method=method)
            assert report.method == method
            assert set(report.hit_rate) == {1, 3, 5}

    def test_method_cache_variant_checked(self, trained, moons, retrieval_config):
        with pytest.raises(ValueError, match="unknown method"):
            hit_rate_experiment(trained, moons, "noise", 1, 5,
                                retrieval_config, seed=8, method="bogus")

    @pytest.mark.parametrize("augmentation, message", [
        ("rotate", "unknown augmentation 'rotate'"),
        ("hflip", "horizontal flip needs a dataset with image_shape"),
    ])
    def test_bad_augmentation_rejected_before_the_ranker(self, trained, moons, retrieval_config,
                                                         monkeypatch, augmentation, message):
        monkeypatch.setattr(evalharness, "_block_ranker", lambda *a: pytest.fail("ranker built"))
        with pytest.raises(UnsupportedAugmentationError, match=message):
            hit_rate_experiment(trained, moons, augmentation, 1, 5, retrieval_config, seed=0)

    def test_sample_size_bounds(self, trained, moons, retrieval_config):
        with pytest.raises(ValueError):
            hit_rate_experiment(trained, moons, "noise", 1, moons.n + 1,
                                retrieval_config, seed=0)

    @pytest.mark.parametrize("method", ["hd-explain", "tracin-last"])
    def test_top_k_beyond_dataset_size_rejected(self, retrieval_config, method):
        tiny = gen_two_moons(6, 0.05, seed=4)
        model = train(tiny, TrainConfig(seed=4, epochs=5))
        config = ExplainerConfig(kernel=retrieval_config.kernel, top_k=10)
        with pytest.raises(ValueError, match="top_k=10 exceeds dataset size n=6"):
            hit_rate_experiment(model, tiny, "noise", 1, 6, config, seed=5, method=method)
        config.top_k = 6
        report = hit_rate_experiment(model, tiny, "noise", 1, 6, config, seed=5,
                                     method=method)
        assert sorted(report.hit_rate) == [1, 3, 5, 6]

    def test_csv_rows_shape(self, trained, moons, retrieval_config):
        report = hit_rate_experiment(trained, moons, "noise", 1, 5,
                                     retrieval_config, seed=9, method="hd-explain")
        rows = report.csv_rows()
        assert len(rows) == 3
        assert [row["k"] for row in rows] == [1, 3, 5]
        assert all(row["method"] == "hd-explain" for row in rows)


class TestBlockProtocol:
    """The block-scored protocol ranks every trial as the single-query path does."""

    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize("method", list(METHOD_VARIANTS))
    def test_each_trial_equals_the_single_query_top_k(self, trained, moons, monkeypatch,
                                                      method, block_rows):
        if block_rows is not None:  # several blocks and a short last one
            monkeypatch.setattr(evalharness, "_BLOCK_VALUES", block_rows * moons.n)
        variant = METHOD_VARIANTS[method]
        cache = build_cache(trained, moons, variant) if variant else None
        kernel = RBFKernel(local_scale_gamma(cache.z)) if cache else None
        config = ExplainerConfig(kernel=kernel, variant=variant or "raw", top_k=5)
        seed, trials, sample_size = 11, 3, 20
        tops = []
        real_top = explain_module._top
        with monkeypatch.context() as patch:  # record each block's top-k
            patch.setattr(explain_module, "_top", lambda v, k: tops.append(real_top(v, k)) or tops[-1])
            report = hit_rate_experiment(trained, moons, "noise", trials, sample_size,
                                         config, seed, method=method)

        # one stream per run: the sources, then one standard normal row per trial
        rng = np.random.default_rng(seed)
        sources = np.repeat(rng.choice(moons.n, size=sample_size, replace=False), trials)
        normals = rng.standard_normal((len(sources), moons.d))
        single = []
        for t, source in enumerate(sources):
            x = moons.features[source] + normals[t] * (0.01 * moons.feature_std)
            if cache is not None:
                ranked = explain(trained, cache, x, config).ranked
            elif method == "tracin-last":
                ranked = baseline_tracin_last(trained, moons, x)[:5]
            else:
                ranked = baseline_rep_similarity(trained, moons, x)[:5]
            single.append([i for i, _, _ in ranked])
        assert np.vstack(tops).tolist() == single
        assert len(tops) == (1 if block_rows is None else -(-len(sources) // block_rows))
        for k in (1, 3, 5):
            hits = sum(int(s) in top[:k] for s, top in zip(sources, single))
            assert report.hit_rate[k] == hits / len(sources)
            assert report.coverage[k] == union_coverage(np.array([top[:k] for top in single]))

    @pytest.fixture(scope="class")
    def images(self):
        """Image-shaped blobs, (4, 3, 2) per point, and a model trained on them."""
        rng = np.random.default_rng(12)
        labels = np.arange(60) % 3
        features = rng.normal(0, 2.0, size=(3, 24))[labels] + rng.normal(size=(60, 24))
        data = Dataset(features, labels, 3, image_shape=(4, 3, 2))
        return data, train(data, TrainConfig(seed=12, epochs=5, batch_size=20))

    @pytest.mark.parametrize("augmentation", ["noise", "hflip", "identity"])
    def test_block_size_does_not_change_the_results(self, images, monkeypatch, augmentation):
        data, model = images
        config = ExplainerConfig(kernel=RBFKernel(0.05), top_k=5)
        runs = []
        for block_values in (None, 7 * data.n):  # one block, then five of 7 rows and one of 1
            tops = []
            real_top = explain_module._top
            with monkeypatch.context() as patch:
                if block_values is not None:
                    patch.setattr(evalharness, "_BLOCK_VALUES", block_values)
                patch.setattr(explain_module, "_top", lambda v, k: tops.append(real_top(v, k)) or tops[-1])
                report = hit_rate_experiment(model, data, augmentation, 4, 9, config, seed=13)
            runs.append((len(tops), np.vstack(tops), report))
        (blocks, top, report), (more_blocks, blocked_top, blocked) = runs
        assert (blocks, more_blocks) == (1, 6)
        assert len(blocked_top) == len(top) == 36
        assert np.array_equal(blocked_top, top)
        assert blocked.hit_rate == report.hit_rate
        assert blocked.coverage == report.coverage

    def test_hflip_block_equals_augment_hflip_row_by_row(self, images):
        data, _ = images
        sources = np.array([5, 0, 59, 5, 17])
        block = trial_points(data, "hflip", sources)
        assert block.shape == (len(sources), data.d)
        for row, source in zip(block, sources):
            assert np.array_equal(row, augment_hflip(data, int(source)))
            assert np.array_equal(row, data.features[source].reshape(4, 3, 2)[:, ::-1, :].reshape(-1))

    def test_timing_is_per_query(self, trained, moons, retrieval_config, monkeypatch):
        monkeypatch.setattr(evalharness, "_BLOCK_VALUES", 4 * moons.n)
        report = hit_rate_experiment(trained, moons, "noise", 2, 5,
                                     retrieval_config, seed=3, method="hd-explain")
        assert report.mean_ms > 0.0 and report.ci95_ms >= 0.0
        single = hit_rate_experiment(trained, moons, "noise", 1, 1,
                                     retrieval_config, seed=3, method="hd-explain")
        assert single.ci95_ms == 0.0

    def test_baselines_need_no_kernel(self, trained, moons):
        config = ExplainerConfig(kernel=None, top_k=3)
        report = hit_rate_experiment(trained, moons, "noise", 1, 5, config, seed=4,
                                     method="rep-sim")
        assert report.trials == 5
        # the Stein methods fit a median-heuristic RBF to the cache they build
        for method in ("hd-explain", "hd-explain-star"):
            cache = build_cache(trained, moons, METHOD_VARIANTS[method])
            explicit = ExplainerConfig(kernel=RBFKernel(median_heuristic_gamma(cache.z)), top_k=3)
            want = hit_rate_experiment(trained, moons, "noise", 2, 20, explicit, seed=4, method=method)
            got = hit_rate_experiment(trained, moons, "noise", 2, 20, config, seed=4, method=method)
            assert (got.hit_rate, got.coverage) == (want.hit_rate, want.coverage)


class TestLabelFlipDebug:
    def test_random_ranking_precision_near_flip_fraction(self):
        # sanity for the metric itself: a random permutation hits the flipped
        # set at rate flip_fraction in expectation
        rng = np.random.default_rng(0)
        n, flips, m = 1000, 50, 200
        rates = []
        for _ in range(300):
            flipped = set(rng.choice(n, flips, replace=False).tolist())
            ranking = rng.permutation(n)[:m]
            rates.append(len(set(ranking.tolist()) & flipped) / m)
        assert abs(np.mean(rates) - 0.05) < 0.005

    def test_recall_at_full_depth_is_one(self):
        ds = gen_two_moons(200, 0.1, seed=1)
        report = label_flip_debug_experiment(ds, 0.05, TrainConfig(seed=1, epochs=30), None, seed=1)
        assert report.recall_at(ds.n) == 1.0

    def test_depths_and_counts(self):
        ds = gen_two_moons(200, 0.1, seed=5)
        report = label_flip_debug_experiment(ds, 0.05, TrainConfig(seed=5, epochs=30), None, seed=5)
        assert report.flip_count == 10
        assert [m for m, _, _ in report.points] == [5, 10, 20]

    def test_points_follow_the_ranking_and_the_flips(self):
        # 3 flips over 5 points: the deepest depth, 2 * 3, is capped at n = 5
        report = DebugReport("hd-explain-star", flipped_indices=[1, 3, 4], ranking=[4, 0, 1, 2, 3], seed=0)
        assert report.points == [(2, 1 / 2, 1 / 3), (3, 2 / 3, 2 / 3), (5, 3 / 5, 3 / 3)]

    def test_architecture_comes_from_the_train_config(self, moons, monkeypatch):
        models = []
        inner = evalharness.build_cache
        monkeypatch.setattr(evalharness, "build_cache", lambda model, *a, **k: models.append(model)
                            or inner(model, *a, **k))
        config = TrainConfig(seed=0, epochs=1, hidden_dims=[5])
        label_flip_debug_experiment(moons, 0.1, config, None, seed=0)
        assert models[0].layer_dims == [2, 5, 2]
        with pytest.raises(TypeError):
            label_flip_debug_experiment(moons, 0.1, config, None, 0, hidden_dims=[5])

    def test_flipped_labels_actually_change(self, moons):
        report = label_flip_debug_experiment(moons, 0.1, TrainConfig(seed=2, epochs=5), None, seed=2)
        assert len(report.flipped_indices) == int(np.ceil(0.1 * moons.n))
        assert len(set(report.flipped_indices)) == len(report.flipped_indices)

    def test_flip_fraction_bounds(self, moons):
        for bad in (0.0, 0.5, 0.9):
            with pytest.raises(ValueError):
                label_flip_debug_experiment(moons, bad, TrainConfig(seed=0, epochs=1), None, seed=0)

    def test_reproducible_from_seed(self):
        ds = gen_two_moons(200, 0.1, seed=8)
        a = label_flip_debug_experiment(ds, 0.05, TrainConfig(seed=8, epochs=20), None, seed=8)
        b = label_flip_debug_experiment(ds, 0.05, TrainConfig(seed=8, epochs=20), None, seed=8)
        assert a.flipped_indices == b.flipped_indices
        assert a.ranking == b.ranking
        assert a.points == b.points


class TestKSDShift:
    def test_zero_shift_first_and_matches_unshifted(self, trained, moons, cache):
        kernel = RBFKernel(0.3)
        results = ksd_shift_experiment(trained, moons, [0.25, 0.5], kernel)
        assert len(results) == 3
        assert float(np.asarray(results[0][0])) == 0.0
        z, scores = make_stein_points(trained, moons.features, moons.labels, "raw")
        assert results[0][1] == pytest.approx(ksd_vstat(kernel, z, scores).value, abs=1e-12)

    def test_no_kernel_is_the_median_heuristic_over_the_unshifted_points(self, trained, moons):
        z, _ = make_stein_points(trained, moons.features, moons.labels, "raw")
        want = ksd_shift_experiment(trained, moons, [0.25, 0.5], RBFKernel(median_heuristic_gamma(z)))
        assert ksd_shift_experiment(trained, moons, [0.25, 0.5]) == want

    def test_all_values_finite(self, trained, moons):
        kernel = RBFKernel(0.3)
        results = ksd_shift_experiment(trained, moons, [0.0, 0.25, 0.5, 1.0], kernel)
        assert all(np.isfinite(v) for _, v in results)

    def test_shift_raises_discrepancy(self, trained, moons):
        kernel = RBFKernel(0.3)
        results = ksd_shift_experiment(trained, moons, [0.0, 0.5], kernel)
        assert results[1][1] > results[0][1]

    def test_vector_shift_accepted(self, trained, moons):
        kernel = RBFKernel(0.3)
        results = ksd_shift_experiment(trained, moons, [np.array([0.5, -0.25])], kernel)
        assert len(results) == 2

    def test_bad_shift_shape(self, trained, moons):
        with pytest.raises(ValueError):
            ksd_shift_experiment(trained, moons, [np.zeros(3)], RBFKernel(0.3))

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf, [0.5, np.nan]],
                             ids=["nan", "inf", "-inf", "vector-with-nan"])
    def test_non_finite_shift_fails_before_any_pass_without_warnings(self, trained, moons, monkeypatch,
                                                                      shift):
        scored = []
        monkeypatch.setattr(type(trained), "score", lambda *a, **kw: scored.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                ksd_shift_experiment(trained, moons, [0.25, shift], RBFKernel(0.5))
        assert str(info.value) == f"shift {shift!r} is not finite"
        assert scored == []

    def test_overflowing_shift_raises_without_warnings(self, trained, moons):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="not finite"):
                ksd_shift_experiment(trained, moons, [1e300], RBFKernel(0.5))

    def test_reproducible(self, trained, moons):
        kernel = RBFKernel(0.3)
        a = ksd_shift_experiment(trained, moons, [0.0, 0.5], kernel)
        b = ksd_shift_experiment(trained, moons, [0.0, 0.5], kernel)
        assert [v for _, v in a] == [v for _, v in b]
