import builtins
import errno
import os
import struct
import tracemalloc

import numpy as np
import pytest

from hdexplain.data import Dataset, gen_two_moons
from hdexplain.errors import ModelFormatError, TrainingError, UnsupportedVariantError
from hdexplain.explain import build_cache
from hdexplain.nnet import (
    MLPClassifier,
    TrainConfig,
    _softmax_and_log_softmax,
    fnv1a_64,
    load_model,
    save_model,
    train,
)
from hdexplain.stein import make_stein_points


def fnv1a_64_loop(data) -> int:
    """64-bit FNV-1a, one byte at a time: the definition ``fnv1a_64`` must match."""
    h = 0xCBF29CE484222325
    for byte in bytes(data):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def zero_model(dims):
    weights = [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(b) for b in dims[1:]]
    return MLPClassifier(dims, weights, biases)


def random_model(dims, seed):
    rng = np.random.default_rng(seed)
    weights = [rng.normal(0, 0.8, size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(0, 0.3, size=b) for b in dims[1:]]
    return MLPClassifier(dims, weights, biases)


def fd_input_gradient(model, x, y, step=1e-5):
    grad = np.zeros_like(x)
    for j in range(len(x)):
        up = x.copy()
        up[j] += step
        down = x.copy()
        down[j] -= step
        grad[j] = (model.predict_log_proba(up)[y] - model.predict_log_proba(down)[y]) / (2 * step)
    return grad


def rel_err(got, want):
    scale = max(np.linalg.norm(want), 1e-12)
    return np.linalg.norm(got - want) / scale


def reference_train(dataset, config):
    """The trainer as it was written before the flat in-place rewrite: a list
    of per-layer arrays, fresh arrays at every step. Each epoch's loss is the
    mean of its batch losses, each taken at the weights before the batch's
    step. ``train`` must equal it bit for bit."""

    def softmax(logits):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def log_softmax(logits):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def forward(weights, biases, x):
        acts = [x]
        for w, b in zip(weights[:-1], biases[:-1]):
            acts.append(np.tanh(acts[-1] @ w + b))
        return acts, acts[-1] @ weights[-1] + biases[-1]

    def residual(proba, y):
        resid = -proba
        resid[np.arange(proba.shape[0]), y] += 1.0
        return resid

    def init_parameters(dims, rng):
        weights = []
        biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return weights, biases

    def mean_cross_entropy(logits, y):
        logp = log_softmax(logits)
        return float(-logp[np.arange(len(y)), y].mean())

    hidden_dims = config.hidden_dims
    if hidden_dims is None:
        hidden_dims = (128, 64) if dataset.image_shape is not None else (32, 32)
    dims = [dataset.d, *[int(v) for v in hidden_dims], dataset.num_classes]

    rng = np.random.default_rng(config.seed)
    weights, biases = init_parameters(dims, rng)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    order = rng.permutation(dataset.n)
    n_val = int(round(config.validation_fraction * dataset.n))
    val_idx = order[dataset.n - n_val:]
    train_idx = order[:dataset.n - n_val]
    x_train = dataset.features[train_idx]
    y_train = dataset.labels[train_idx]
    n_train = len(train_idx)

    history = []
    for epoch in range(config.epochs):
        lr = config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * epoch / config.epochs))
        perm = rng.permutation(n_train)
        batch_losses = []
        for start in range(0, n_train, config.batch_size):
            batch = perm[start:start + config.batch_size]
            xb = x_train[batch]
            yb = y_train[batch]

            acts, logits = forward(weights, biases, xb)
            batch_losses.append(mean_cross_entropy(logits, yb))  # at the weights before the step
            delta = -residual(softmax(logits), yb) / len(yb)
            grads_w = [None] * len(weights)
            grads_b = [None] * len(weights)
            for i in range(len(weights) - 1, -1, -1):
                grads_w[i] = acts[i].T @ delta
                grads_b[i] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i].T) * (1.0 - acts[i] ** 2)

            for i in range(len(weights)):
                gw = grads_w[i]
                if config.l2_weight_decay > 0:
                    gw = gw + config.l2_weight_decay * weights[i]
                vel_w[i] = config.momentum * vel_w[i] - lr * gw
                vel_b[i] = config.momentum * vel_b[i] - lr * grads_b[i]
                weights[i] = weights[i] + vel_w[i]
                biases[i] = biases[i] + vel_b[i]

        history.append(sum(batch_losses) / len(batch_losses))

    preds = softmax(forward(weights, biases, x_train)[1]).argmax(axis=1)
    train_accuracy = float((preds == y_train).mean())
    validation_accuracy = None
    if n_val > 0:
        val_preds = softmax(forward(weights, biases, dataset.features[val_idx])[1]).argmax(axis=1)
        validation_accuracy = float((val_preds == dataset.labels[val_idx]).mean())
    return weights, biases, history, train_accuracy, validation_accuracy


def blobs(n, num_classes, d, seed, image_shape=None):
    """Gaussian clusters, one per class, with every class present."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    centers = rng.normal(0, 2.0, size=(num_classes, d))
    return Dataset(centers[labels] + rng.normal(size=(n, d)), labels, num_classes, image_shape=image_shape)


@pytest.fixture(scope="module")
def moons():
    return gen_two_moons(500, 0.1, seed=7)


@pytest.fixture(scope="module")
def trained(moons):
    return train(moons, TrainConfig(seed=7))


class TestTrain:
    def test_two_moons_accuracy(self, trained):
        assert trained.train_accuracy >= 0.95

    def test_decision_surface_separates_the_arcs(self, trained):
        # independent check: dense noiseless arc points must classify to
        # their generating moon
        clean = gen_two_moons(400, 0.0, seed=0)
        preds = trained.predict_proba(clean.features).argmax(axis=1)
        assert (preds == clean.labels).mean() >= 0.95

    def test_single_class_rejected(self, moons):
        from hdexplain.data import Dataset

        ds = Dataset(moons.features[:50], np.zeros(50, dtype=int), 2)
        with pytest.raises(TrainingError):
            train(ds, TrainConfig(seed=0, epochs=1))

    def test_deterministic(self, moons):
        a = train(moons, TrainConfig(seed=3, epochs=5))
        b = train(moons, TrainConfig(seed=3, epochs=5))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_loss_history_mostly_decreasing(self, moons):
        # one batch per epoch and no momentum: each entry is the loss over the
        # whole split at the weights before a plain gradient step
        model = train(moons, TrainConfig(seed=7, batch_size=moons.n, momentum=0.0))
        hist = np.asarray(model.train_loss_history)
        increases = int((np.diff(hist) > 0).sum())
        assert increases <= max(1, len(hist) // 10)

    def test_loss_history_over_5_epochs_mostly_decreasing(self, trained):
        # mini-batches: each entry is a mean of the epoch's batch losses under
        # a fresh shuffle, so near the plateau it carries the shuffle's noise
        hist = np.asarray(trained.train_loss_history).reshape(-1, 5).mean(axis=1)
        increases = int((np.diff(hist) > 0).sum())
        assert increases <= max(1, len(hist) // 10)

    def test_validation_split(self, moons):
        model = train(moons, TrainConfig(seed=1, epochs=10, validation_fraction=0.2))
        assert model.validation_accuracy is not None
        assert 0.0 <= model.validation_accuracy <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=1.0)

    def test_architecture_lives_in_the_config(self, moons):
        # an empty list is a model with no hidden layer, not the default
        assert train(moons, TrainConfig(seed=0, epochs=1, hidden_dims=[])).layer_dims == [2, 2]
        assert train(moons, TrainConfig(seed=0, epochs=1)).layer_dims == [2, 32, 32, 2]
        with pytest.raises(TypeError):
            train(moons, TrainConfig(seed=0, epochs=1), hidden_dims=[4])

    def test_divergence_names_the_epoch(self, moons):
        with np.errstate(over="warn", invalid="warn"), pytest.warns(RuntimeWarning):
            with pytest.raises(TrainingError, match="epoch 1"):
                train(moons, TrainConfig(seed=0, epochs=3, learning_rate=1e308))

    @pytest.mark.parametrize("scale, config, match", [
        # one batch: its loss is taken before the only step, so the final
        # accuracy pass is the first to see the divergence
        (1.0, TrainConfig(seed=0, epochs=1, batch_size=500, learning_rate=1e308),
         "epoch 1: loss is not finite"),
        # a linear model whose first step overflows the parameters: the next
        # epoch's loss would name epoch 2, the check at the end of epoch 1 does not
        (10.0, TrainConfig(seed=0, epochs=3, batch_size=500, learning_rate=1e308, hidden_dims=()),
         "epoch 1: loss or parameters"),
        # huge features keep the batch loss and every parameter finite, but
        # the last step's weights overflow the accuracy pass
        (1e200, TrainConfig(seed=0, epochs=1, batch_size=500, hidden_dims=()), "epoch 1: loss is not finite"),
    ], ids=["one-batch", "parameters-overflow", "accuracy-pass-overflows"])
    def test_divergence_returns_no_model(self, moons, monkeypatch, scale, config, match):
        data = Dataset(moons.features * scale, moons.labels, 2)
        returned = []
        monkeypatch.setattr(MLPClassifier, "__init__", lambda self, *args: returned.append(self))
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match=match):
            train(data, config)
        assert returned == []


class TestTrainMatchesReference:
    """``train`` updates one flat parameter vector in place; the models it
    returns are bit-identical to the per-layer reference loop."""

    @pytest.mark.parametrize("data, config", [
        (gen_two_moons(240, 0.1, seed=3), TrainConfig(seed=1, epochs=6, batch_size=60)),
        (gen_two_moons(240, 0.1, seed=3), TrainConfig(seed=2, epochs=6, batch_size=50)),
        (gen_two_moons(240, 0.1, seed=3), TrainConfig(seed=3, epochs=6, batch_size=500)),
        (gen_two_moons(240, 0.1, seed=3),
         TrainConfig(seed=4, epochs=6, batch_size=32, validation_fraction=0.25)),
        (gen_two_moons(240, 0.1, seed=3), TrainConfig(seed=5, epochs=6, l2_weight_decay=0.0)),
        (blobs(150, 3, 4, seed=6), TrainConfig(seed=6, epochs=5, batch_size=40)),
        (blobs(200, 10, 6, seed=7), TrainConfig(seed=7, epochs=5, batch_size=64, hidden_dims=(16, 8, 12))),
        (gen_two_moons(240, 0.1, seed=3), TrainConfig(seed=8, epochs=1)),
        (blobs(150, 3, 5, seed=9), TrainConfig(seed=9, epochs=5, batch_size=32, hidden_dims=())),
        (blobs(90, 10, 64, seed=10, image_shape=(8, 8, 1)),
         TrainConfig(seed=10, epochs=3, batch_size=40, validation_fraction=0.2)),
    ], ids=["batch-divides-n", "batch-does-not-divide-n", "batch-larger-than-n", "validation-split",
            "no-weight-decay", "three-classes", "ten-classes", "one-epoch", "no-hidden-layer",
            "image-default-128-64"])
    def test_bit_identical_to_the_reference(self, data, config):
        model = train(data, config)
        weights, biases, history, train_accuracy, validation_accuracy = reference_train(data, config)
        assert len(model.weights) == len(weights)
        for got, want in zip(model.weights + model.biases, weights + biases):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert model.train_loss_history == history
        assert model.train_accuracy == train_accuracy
        assert model.validation_accuracy == validation_accuracy

    def test_no_writeable_array_behind_the_model(self, moons):
        model = train(moons, TrainConfig(seed=2, epochs=2))
        for array in model.weights + model.biases:
            while isinstance(array, np.ndarray):
                assert not array.flags.writeable
                array = array.base

    def test_memory_is_the_training_set_and_batch_buffers(self):
        import tracemalloc

        data = blobs(4000, 2, 200, seed=11)
        # a first call imports modules lazily; only the second is measured
        train(blobs(20, 2, 3, seed=0), TrainConfig(seed=0, epochs=1))
        tracemalloc.start()
        try:
            train(data, TrainConfig(seed=0, epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the training split is one copy of the features; a second copy
        # (say, a shuffled one per epoch) would double this
        assert peak < 1.5 * data.features.nbytes


class TestPredictProba:
    def test_zero_model_uniform(self):
        model = zero_model([2, 4, 3])
        p = model.predict_proba(np.array([0.7, -1.2]))
        assert np.allclose(p, 1.0 / 3.0)

    def test_normalization_hundred_thousand_inputs(self):
        model = random_model([3, 8, 4], seed=0)
        x = np.random.default_rng(1).normal(0, 2, size=(100_000, 3))
        p = model.predict_proba(x)
        assert np.all(p > 0) and np.all(p < 1)
        assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9)

    def test_trained_deep_interior_point(self, trained):
        # class-0 arc end (-1, 0) is far from the other moon
        p = trained.predict_proba(np.array([-1.0, 0.0]))
        assert int(np.argmax(p)) == 0

    def test_extreme_logits_stable(self):
        model = random_model([2, 4, 2], seed=2)
        p = model.predict_proba(np.array([1e3, -1e3]))
        assert np.all(np.isfinite(p))

    def test_dimension_mismatch(self, trained):
        with pytest.raises(ValueError):
            trained.predict_proba(np.zeros(5))


class TestInputGradient:
    def test_zero_model_zero_gradient(self):
        model = zero_model([2, 4, 2])
        g = model.input_gradient(np.array([0.3, -0.7]), 1)
        assert np.allclose(g, 0.0)

    def test_matches_finite_differences_random_models(self):
        rng = np.random.default_rng(0)
        for probe in range(60):
            dims = [int(rng.integers(2, 5)), int(rng.integers(3, 9)), int(rng.integers(2, 5))]
            model = random_model(dims, seed=probe)
            x = rng.normal(0, 1.5, size=dims[0])
            y = int(rng.integers(0, dims[-1]))
            got = model.input_gradient(x, y)
            want = fd_input_gradient(model, x, y)
            assert rel_err(got, want) <= 1e-4

    def test_matches_finite_differences_trained_model(self, trained, moons):
        rng = np.random.default_rng(5)
        for _ in range(40):
            x = moons.features[int(rng.integers(0, moons.n))] + rng.normal(0, 0.05, 2)
            y = int(rng.integers(0, 2))
            got = trained.input_gradient(x, y)
            want = fd_input_gradient(trained, x, y)
            assert rel_err(got, want) <= 1e-4

    def test_probability_weighted_gradients_cancel(self, trained):
        # sum_y p_y * grad log p_y = grad sum_y p_y = 0
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(0, 1, size=2)
            p = trained.predict_proba(x)
            total = sum(p[y] * trained.input_gradient(x, y) for y in range(2))
            assert np.linalg.norm(total) <= 1e-8

    def test_out_of_range_class(self, trained):
        with pytest.raises(ValueError):
            trained.input_gradient(np.zeros(2), 2)


class TestRepresentation:
    def test_decomposition_matches_logits(self, trained):
        x = np.array([0.4, 0.2])
        h = trained.representation(x)
        external = h @ trained.weights[-1] + trained.biases[-1]
        assert np.allclose(external, trained.logits(x), atol=1e-12)

    def test_zero_model_zero_representation(self):
        model = zero_model([2, 4, 2])
        assert np.allclose(model.representation(np.array([1.0, -1.0])), 0.0)

    def test_width_matches_last_hidden_layer(self, trained):
        assert trained.representation(np.zeros(2)).shape == (trained.layer_dims[-2],)

    def test_no_hidden_layer_rejected(self):
        model = zero_model([2, 2])
        with pytest.raises(UnsupportedVariantError):
            model.representation(np.zeros(2))


class TestRepGradient:
    def test_zero_final_layer(self):
        model = zero_model([2, 4, 2])
        g = model.rep_gradient(np.array([0.5, -0.5, 0.1, 0.2]), 0)
        assert np.allclose(g, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for probe in range(60):
            dims = [2, int(rng.integers(3, 8)), int(rng.integers(2, 5))]
            model = random_model(dims, seed=100 + probe)
            h = rng.normal(0, 1, size=dims[1])
            y = int(rng.integers(0, dims[-1]))
            got = model.rep_gradient(h, y)

            def log_p(hv, y=y, model=model):
                logits = hv @ model.weights[-1] + model.biases[-1]
                return logits[y] - np.log(np.exp(logits - logits.max()).sum()) - logits.max()

            step = 1e-5
            want = np.zeros_like(h)
            for j in range(len(h)):
                up, down = h.copy(), h.copy()
                up[j] += step
                down[j] -= step
                want[j] = (log_p(up) - log_p(down)) / (2 * step)
            assert rel_err(got, want) <= 1e-4

    def test_probability_weighted_gradients_cancel(self, trained):
        h = trained.representation(np.array([0.1, 0.9]))
        logits = h @ trained.weights[-1] + trained.biases[-1]
        p = np.exp(logits - logits.max())
        p /= p.sum()
        total = sum(p[y] * trained.rep_gradient(h, y) for y in range(2))
        assert np.linalg.norm(total) <= 1e-8


class TestScore:
    """``score`` is the one pass behind the five scoring methods: bit-identical to each."""

    @pytest.mark.parametrize("rows", [slice(3, 4), slice(0, 40), 7], ids=["one-row-batch", "batch", "row"])
    @pytest.mark.parametrize("given", [True, False], ids=["given", "predicted"])
    def test_equals_the_scoring_methods(self, trained, moons, rows, given):
        x = moons.features[rows]
        proba = trained.predict_proba(x)
        predicted = proba.argmax(axis=-1)
        y = moons.labels[rows] if given else None
        want_labels = moons.labels[rows] if given else predicted
        h = trained.representation(x)
        for variant, front, grad in (
            ("raw", x, trained.input_gradient(x, want_labels)),
            ("last-layer", h, trained.rep_gradient(h, want_labels)),
        ):
            labels, p, z, s = trained.score(x, y, variant)
            width = front.shape[-1]
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(p, proba)
            assert np.array_equal(s[..., width:], trained.predict_log_proba(x))
            assert np.array_equal(z[..., :width], front)
            assert np.array_equal(z[..., width:], np.eye(trained.num_classes)[want_labels])
            assert np.array_equal(s[..., :width], grad)
            assert z.shape == s.shape == (*front.shape[:-1], width + trained.num_classes)
        labels, reps, resid = trained.representation_and_residual(x, y)
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(reps, h)
        assert np.array_equal(resid, np.eye(trained.num_classes)[want_labels] - proba)

    @pytest.mark.parametrize("rows", [slice(3, 4), slice(0, 40), 7], ids=["one-row-batch", "batch", "row"])
    @pytest.mark.parametrize("given", [True, False], ids=["given", "predicted"])
    @pytest.mark.parametrize("variant", ["raw", "last-layer"])
    def test_points_equal_make_stein_points_and_the_column_methods(self, trained, moons, rows, given,
                                                                  variant):
        x = moons.features[rows]
        y = moons.labels[rows] if given else None
        labels, _, z, s = trained.score(x, y, variant)
        want_z, want_s = make_stein_points(trained, x, y, variant)
        # a row gives row results from score and one-row arrays from make_stein_points
        assert want_z.shape == want_s.shape == (len(np.atleast_2d(x)), z.shape[-1])
        assert z.tobytes() == want_z.tobytes() and s.tobytes() == want_s.tobytes()
        front = x if variant == "raw" else trained.representation(x)
        grad = trained.input_gradient(x, labels) if variant == "raw" else trained.rep_gradient(front, labels)
        width = front.shape[-1]
        for got, want in ((z[..., :width], front), (z[..., width:], np.eye(trained.num_classes)[labels]),
                          (s[..., :width], grad), (s[..., width:], trained.predict_log_proba(x))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_classes", [2, 3, 10, 17])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 1e3, 1e300])
    def test_probabilities_are_the_softmax_of_the_logits(self, num_classes, scale):
        # with identity weights the logits are the inputs themselves
        model = MLPClassifier([num_classes, num_classes], [np.eye(num_classes)], [np.zeros(num_classes)])
        x = scale * np.random.default_rng(num_classes).normal(size=(50, num_classes))
        logits = model.logits(x)
        _, proba, _, s = model.score(x)
        log_proba = s[:, num_classes:]
        want_p, want_logp = _softmax_and_log_softmax(logits)
        for got, want in ((proba, want_p), (log_proba, want_logp),
                          (model.predict_proba(x), want_p), (model.predict_log_proba(x), want_logp)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(2,), (10,), (1, 2), (1, 10), (500, 2), (64, 3), (2000, 10)])
    def test_softmax_helpers_equal_the_row_max_form(self, shape):
        def shifted(logits):
            return logits - logits.max(axis=-1, keepdims=True)

        def softmax(logits):
            exp = np.exp(shifted(logits))
            return exp / exp.sum(axis=-1, keepdims=True)

        def log_softmax(logits):
            return shifted(logits) - np.log(np.exp(shifted(logits)).sum(axis=-1, keepdims=True))

        logits = 30.0 * np.random.default_rng(shape[-1]).normal(size=shape)
        logits.flat[1] = logits.flat[0]  # a tie for the maximum in the first row
        want_p, want_logp = softmax(logits), log_softmax(logits)
        got_p, got_logp = _softmax_and_log_softmax(logits)
        # with identity weights the model's logits are its inputs
        identity = MLPClassifier([shape[-1]] * 2, [np.eye(shape[-1])], [np.zeros(shape[-1])])
        assert identity.logits(logits).tobytes() == logits.tobytes()
        for got, want in ((identity.predict_proba(logits), want_p),
                          (identity.predict_log_proba(logits), want_logp),
                          (got_p, want_p), (got_logp, want_logp)):
            assert got.shape == shape and got.tobytes() == want.tobytes()

    def test_predicted_ties_go_to_lowest_index(self):
        labels = zero_model([2, 3, 4]).score(np.zeros((2, 2)))[0]
        assert labels.tolist() == [0, 0]

    def test_label_errors(self, trained):
        shape = r"labels must be a vector with one entry per row, shape \(3,\), got \(2,\)"
        with pytest.raises(ValueError, match=shape):
            trained.score(np.zeros((3, 2)), [0, 1])
        with pytest.raises(ValueError, match=shape):
            trained.input_gradient(np.zeros((3, 2)), [0, 1])
        with pytest.raises(ValueError, match=shape):
            trained.rep_gradient(np.zeros((3, trained.layer_dims[-2])), [0, 1])
        for call in (lambda: trained.score(np.zeros(2), 2),
                     lambda: trained.input_gradient(np.zeros(2), -1),
                     lambda: trained.rep_gradient(np.zeros(trained.layer_dims[-2]), 2)):
            with pytest.raises(ValueError, match=r"labels must be whole numbers in \[0, 2\)"):
                call()

    def test_variant_errors(self, trained):
        with pytest.raises(UnsupportedVariantError,
                           match="unknown variant 'middle'; expected 'raw' or 'last-layer'"):
            trained.score(np.zeros(2), 0, "middle")
        flat = zero_model([2, 2])
        for call in (lambda: flat.score(np.zeros(2), 0, "last-layer"),
                     lambda: flat.representation(np.zeros(2)),
                     lambda: flat.representation_and_residual(np.zeros(2))):
            with pytest.raises(UnsupportedVariantError,
                               match="model has no hidden layer to read a representation from"):
                call()
        z, s = flat.score(np.zeros(2), 0, "raw")[2:]
        assert z.shape == s.shape == (4,)


class TestSerialization:
    def test_round_trip_bit_exact(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        back = load_model(path)
        assert back.layer_dims == trained.layer_dims
        for wa, wb in zip(back.weights, trained.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(back.biases, trained.biases):
            assert np.array_equal(ba, bb)

    def test_image_is_the_one_copy(self):
        rng = np.random.default_rng(0)
        dims = [784, 128, 64, 10]
        model = MLPClassifier(dims, [rng.normal(0, 0.1, (a, b)) for a, b in zip(dims, dims[1:])],
                              [rng.normal(0, 0.1, b) for b in dims[1:]])
        params = sum(w.nbytes + b.nbytes for w, b in zip(model.weights, model.biases))
        tracemalloc.start()
        try:
            image = model.serialize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a copy of each layer joined into the image once made this 2.0
        assert peak <= 1.1 * params, peak / params
        header = b"HDXM" + struct.pack("<6I", 1, 4, *dims)
        layers = b"".join(w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
                          for w, b in zip(model.weights, model.biases))
        assert image == header + layers

    def test_magic_bytes(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        assert path.read_bytes()[:4] == b"HDXM"

    def test_corrupted_magic(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        data = bytearray(path.read_bytes())
        data[0] = 0x00
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_truncated(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_header_shorter_than_12_bytes(self):
        with pytest.raises(ModelFormatError, match="model binary truncated before header"):
            MLPClassifier.deserialize(b"HDXM" + struct.pack("<I", 1))

    def test_unsupported_version(self):
        data = bytearray(zero_model([2, 3, 2]).serialize())
        data[4:8] = struct.pack("<I", 2)
        with pytest.raises(ModelFormatError, match="unsupported model version 2"):
            MLPClassifier.deserialize(bytes(data))

    def test_truncated_layer_dims(self):
        # three dims declared, two present
        with pytest.raises(ModelFormatError, match="model binary truncated in layer_dims"):
            MLPClassifier.deserialize(b"HDXM" + struct.pack("<II2I", 1, 3, 2, 3))

    @pytest.mark.parametrize("extra", [1, 8])
    def test_trailing_bytes(self, trained, tmp_path, extra):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        path.write_bytes(path.read_bytes() + bytes(extra))
        with pytest.raises(ModelFormatError, match="model binary has trailing bytes"):
            load_model(path)

    @pytest.mark.parametrize("dims, values, message", [
        ([2, 3, 2], [float("nan")] + [0.0] * 16, "model parameters must be finite"),
        ([2], [], "layer_dims needs at least input and output sizes"),
        ([2, 0, 2], [0.0, 0.0], "layer dimensions must be an integer of at least 1, got 0"),
    ])
    def test_invalid_contents_are_a_format_error(self, tmp_path, dims, values, message):
        path = tmp_path / "model.bin"
        path.write_bytes(b"HDXM" + struct.pack(f"<II{len(dims)}I{len(values)}d", 1, len(dims),
                                               *dims, *values))
        with pytest.raises(ModelFormatError, match=f"invalid model contents: {message}"):
            load_model(path)

    def test_failed_write_keeps_the_old_model(self, trained, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        save_model(zero_model([2, 3, 2]), path)
        old = path.read_bytes()
        real_open = builtins.open

        class HalfWritten:
            """A file whose write stores half the data, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", lambda *args, **kwargs: HalfWritten(real_open(*args, **kwargs)))
            with pytest.raises(OSError, match="No space left"):
                save_model(trained, path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["model.bin"]

    def test_fingerprint_stable_across_save_load(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        assert load_model(path).fingerprint() == trained.fingerprint()

    def test_fingerprint_changes_with_any_parameter(self, trained):
        weights = [w.copy() for w in trained.weights]
        biases = [b.copy() for b in trained.biases]
        weights[1][0, 0] += 1e-9
        other = MLPClassifier(trained.layer_dims, weights, biases)
        assert other.fingerprint() != trained.fingerprint()

    def test_byte_layout(self):
        import struct

        dims = [2, 3, 2]
        weights = [np.arange(6, dtype=float).reshape(2, 3), np.arange(6, 12, dtype=float).reshape(3, 2)]
        biases = [np.array([0.5, 1.5, 2.5]), np.array([-1.0, -2.0])]
        data = MLPClassifier(dims, weights, biases).serialize()
        assert data[:4] == b"HDXM"
        version, n_dims = struct.unpack("<II", data[4:12])
        assert version == 1 and n_dims == 3
        assert struct.unpack("<3I", data[12:24]) == (2, 3, 2)
        # layer 0: 6 row-major weight doubles then 3 bias doubles
        assert struct.unpack("<6d", data[24:72]) == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        assert struct.unpack("<3d", data[72:96]) == (0.5, 1.5, 2.5)
        assert struct.unpack("<6d", data[96:144]) == (6.0, 7.0, 8.0, 9.0, 10.0, 11.0)
        assert struct.unpack("<2d", data[144:160]) == (-1.0, -2.0)
        assert len(data) == 160


class TestFNV:
    def test_known_vectors(self):
        # published FNV-1a 64-bit test vectors
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    # numpy warns on uint64 scalar overflow; none of that may reach the user
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("length", [*range(131), 2**16 - 1, 2**16, 2**16 + 1])
    def test_equals_the_byte_loop(self, length):
        data = np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8).tobytes()
        assert fnv1a_64(data) == fnv1a_64_loop(data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data", [
        np.random.default_rng(7).integers(0, 256, (1 << 20) + 5, dtype=np.uint8).tobytes(),
        bytes(3 * 2**16 + 17),
        b"\xff" * (3 * 2**16 + 17),
    ], ids=["random-1MB", "all-0x00", "all-0xFF"])
    def test_long_inputs_equal_the_byte_loop(self, data):
        assert fnv1a_64(data) == fnv1a_64_loop(data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_bytes_like_inputs(self, wrap):
        data = np.random.default_rng(3).integers(0, 256, 2**16 + 9, dtype=np.uint8).tobytes()
        assert fnv1a_64(wrap(data)) == fnv1a_64_loop(data)
        assert fnv1a_64(wrap(b"foobar")) == 0x85944171F73967E8

    def test_fingerprints_are_fnv_of_the_model_file(self, trained, moons, tmp_path):
        # existing caches and the benchmark's checks rely on this equality
        path = tmp_path / "model.bin"
        save_model(trained, path)
        want = fnv1a_64(path.read_bytes())
        assert want == fnv1a_64_loop(path.read_bytes())
        assert load_model(path).fingerprint() == want
        assert build_cache(load_model(path), moons, "raw").model_fingerprint == want
