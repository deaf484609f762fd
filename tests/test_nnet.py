import numpy as np
import pytest

from hdexplain.data import gen_two_moons
from hdexplain.errors import ModelFormatError, TrainingError, UnsupportedVariantError
from hdexplain.explain import build_cache
from hdexplain.nnet import (
    MLPClassifier,
    TrainConfig,
    fnv1a_64,
    load_model,
    save_model,
    train,
)


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

    def test_loss_history_mostly_decreasing(self, trained):
        hist = np.asarray(trained.train_loss_history)
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

    def test_divergence_names_the_epoch(self, moons):
        with np.errstate(over="warn", invalid="warn"), pytest.warns(RuntimeWarning):
            with pytest.raises(TrainingError, match="epoch 1"):
                train(moons, TrainConfig(seed=0, epochs=3, learning_rate=1e308))


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
            labels, p, logp, got_front, got_grad = trained.score(x, y, variant)
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(p, proba)
            assert np.array_equal(logp, trained.predict_log_proba(x))
            assert np.array_equal(got_front, front)
            assert np.array_equal(got_grad, grad)
            assert got_grad.shape == front.shape
        labels, reps, resid = trained.representation_and_residual(x, y)
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(reps, h)
        assert np.array_equal(resid, np.eye(trained.num_classes)[want_labels] - proba)

    def test_predicted_ties_go_to_lowest_index(self):
        labels = zero_model([2, 3, 4]).score(np.zeros((2, 2)))[0]
        assert labels.tolist() == [0, 0]

    def test_label_errors(self, trained):
        with pytest.raises(ValueError, match="labels must match the number of input rows"):
            trained.score(np.zeros((3, 2)), [0, 1])
        with pytest.raises(ValueError, match="labels must match the number of input rows"):
            trained.input_gradient(np.zeros((3, 2)), [0, 1])
        with pytest.raises(ValueError, match="labels must match the number of representation rows"):
            trained.rep_gradient(np.zeros((3, trained.layer_dims[-2])), [0, 1])
        for call in (lambda: trained.score(np.zeros(2), 2),
                     lambda: trained.input_gradient(np.zeros(2), -1),
                     lambda: trained.rep_gradient(np.zeros(trained.layer_dims[-2]), 2)):
            with pytest.raises(ValueError, match=r"class index out of range \[0, 2\)"):
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
        assert flat.score(np.zeros(2), 0, "raw")[4].shape == (2,)


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
