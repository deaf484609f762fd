import builtins
import errno
import inspect
import mmap
import os
import struct
import threading
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import oracle
from hdexplain.data import Dataset, gen_rectangles, gen_two_moons
from hdexplain.errors import ModelFormatError, UnsupportedVariantError
from hdexplain.evalharness import hit_rate_experiment
from hdexplain.explain import ExplainerConfig, _top, build_cache, explain, self_influence_ranking
from hdexplain import nnet, stein
from hdexplain.nnet import MLPClassifier, TrainConfig, save_model, train
from hdexplain.stein import (
    IMQKernel,
    LinearKernel,
    RBFKernel,
    ScoreCache,
    kernel_by_name,
    kernel_eval_count,
    ksd_ustat,
    ksd_vstat,
    _median_sqrt,
    _row_stats,
    _sq_dists,
    _stein_block,
    load_cache,
    local_scale_gamma,
    make_stein_points,
    median_heuristic_gamma,
    reset_kernel_eval_count,
    save_cache,
    stein_gram,
    stein_kernel,
    stein_kernel_profile,
)

ALL_KERNELS = [
    ("linear", LinearKernel()),
    ("rbf", RBFKernel(0.7)),
    ("imq", IMQKernel(1.3, -0.4)),
]


def random_pairs(count, dim, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.normal(0, 2, size=dim), rng.normal(0, 2, size=dim)


def fd_gradient(fn, za, zb, wrt, step=1e-6):
    grad = np.zeros_like(za)
    for j in range(len(za)):
        up_a, up_b = za.copy(), zb.copy()
        dn_a, dn_b = za.copy(), zb.copy()
        if wrt == "a":
            up_a[j] += step
            dn_a[j] -= step
        else:
            up_b[j] += step
            dn_b[j] -= step
        grad[j] = (fn(up_a, up_b) - fn(dn_a, dn_b)) / (2 * step)
    return grad


def fd_trace_hessian(fn, za, zb, step=1e-4):
    total = 0.0
    for j in range(len(za)):
        pp_a, pp_b = za.copy(), zb.copy()
        pm_a, pm_b = za.copy(), zb.copy()
        mp_a, mp_b = za.copy(), zb.copy()
        mm_a, mm_b = za.copy(), zb.copy()
        pp_a[j] += step
        pp_b[j] += step
        pm_a[j] += step
        pm_b[j] -= step
        mp_a[j] -= step
        mp_b[j] += step
        mm_a[j] -= step
        mm_b[j] -= step
        total += (fn(pp_a, pp_b) - fn(pm_a, pm_b) - fn(mp_a, mp_b) + fn(mm_a, mm_b)) / (4 * step**2)
    return total


def rel_err(got, want):
    scale = max(float(np.linalg.norm(np.atleast_1d(want))), 1e-9)
    return float(np.linalg.norm(np.atleast_1d(got - want))) / scale


class TestKernelValues:
    def test_rbf_coincident(self):
        k = RBFKernel(2.0)
        z = np.array([0.3, -1.0])
        assert oracle.kernel_value(k, z, z) == 1.0

    def test_rbf_direct_formula(self):
        k = RBFKernel(0.5)
        got = oracle.kernel_value(k, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert abs(got - np.exp(-0.5)) < 1e-15

    def test_imq_coincident_unit_c(self):
        k = IMQKernel(1.0, -0.5)
        z = np.array([2.0, 3.0])
        assert oracle.kernel_value(k, z, z) == 1.0

    def test_linear_is_dot_product(self):
        k = LinearKernel()
        assert oracle.kernel_value(k, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_dimension_mismatch(self):
        # kernel values are taken only inside the Stein core, which rejects the pair
        for _, kernel in ALL_KERNELS:
            with pytest.raises(ValueError):
                stein_kernel(kernel, np.zeros(2), np.zeros(2), np.zeros(3), np.zeros(3))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RBFKernel(0.0)
        with pytest.raises(ValueError):
            IMQKernel(0.0, -0.5)
        with pytest.raises(ValueError):
            IMQKernel(1.0, -1.0)
        with pytest.raises(ValueError):
            IMQKernel(1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_are_named(self, bad):
        with pytest.raises(ValueError, match="gamma"):
            RBFKernel(bad)
        with pytest.raises(ValueError, match="gamma"):
            kernel_by_name("rbf", gamma=bad)
        with pytest.raises(ValueError, match="c must"):
            IMQKernel(c=bad)
        with pytest.raises(ValueError, match="beta"):
            IMQKernel(1.0, bad)

    def test_kernel_by_name(self):
        assert isinstance(kernel_by_name("linear"), LinearKernel)
        assert kernel_by_name("rbf", gamma=0.2).gamma == 0.2
        imq = kernel_by_name("imq", c=2.0, beta=-0.3)
        assert imq.c == 2.0 and imq.beta == -0.3
        with pytest.raises(ValueError):
            kernel_by_name("rbf")
        with pytest.raises(ValueError):
            kernel_by_name("cubic")


class TestKernelGradients:
    def test_rbf_imq_gradients_vanish_at_coincidence(self):
        z = np.array([0.5, -0.2, 1.0])
        for _, kernel in ALL_KERNELS[1:]:
            assert np.allclose(oracle.grad_a(kernel, z, z), 0.0)
            assert np.allclose(oracle.grad_b(kernel, z, z), 0.0)

    def test_linear_gradient_definition(self):
        k = LinearKernel()
        assert oracle.grad_a(k, np.array([1.0, 2.0]), np.array([3.0, 4.0])).tolist() == [3.0, 4.0]
        assert oracle.grad_b(k, np.array([1.0, 2.0]), np.array([3.0, 4.0])).tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_gradients_match_finite_differences(self, name, kernel):
        for i, (za, zb) in enumerate(random_pairs(70, 4, seed=hash(name) % 2**32)):
            got_a = oracle.grad_a(kernel, za, zb)
            got_b = oracle.grad_b(kernel, za, zb)
            want_a = fd_gradient(partial(oracle.kernel_value, kernel), za, zb, "a")
            want_b = fd_gradient(partial(oracle.kernel_value, kernel), za, zb, "b")
            assert rel_err(got_a, want_a) <= 1e-6, (name, i)
            assert rel_err(got_b, want_b) <= 1e-6, (name, i)


class TestTraceHessian:
    def test_linear_equals_dimension(self):
        k = LinearKernel()
        assert oracle.trace_hessian(k, np.zeros(5), np.ones(5)) == 5.0

    def test_rbf_at_coincidence(self):
        k = RBFKernel(1.0)
        z = np.zeros(3)
        assert abs(oracle.trace_hessian(k, z, z) - 6.0) < 1e-15

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_matches_nested_finite_differences(self, name, kernel):
        for i, (za, zb) in enumerate(random_pairs(70, 3, seed=(hash(name) + 1) % 2**32)):
            got = oracle.trace_hessian(kernel, za, zb)
            want = fd_trace_hessian(partial(oracle.kernel_value, kernel), za, zb)
            assert rel_err(got, want) <= 1e-4, (name, i)


@pytest.fixture(scope="module")
def moons():
    return gen_two_moons(200, 0.1, seed=5)


@pytest.fixture(scope="module")
def trained(moons):
    return train(moons, TrainConfig(seed=5, epochs=60))


def zero_model():
    dims = [2, 3, 2]
    return MLPClassifier(dims, [np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros(3), np.zeros(2)])


def label_entry_points():
    """Every way a label vector enters the library: name -> (classes, call on labels)."""
    model, x, h = zero_model(), np.zeros((2, 2)), np.zeros((2, 3))
    return {
        "Dataset": (2, lambda y: Dataset(x, y, 2).labels),
        "score": (2, lambda y: model.score(x, y)),
        "input_gradient": (2, lambda y: model.input_gradient(x, y)),
        "rep_gradient": (2, lambda y: model.rep_gradient(h, y)),
        "representation_and_residual": (2, lambda y: model.representation_and_residual(x, y)),
        "ScoreCache": (2**32, lambda y: ScoreCache(0, "raw", x, x, y).labels),
    }


class TestInputContracts:
    @pytest.mark.parametrize("entry", list(label_entry_points()))
    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, np.nan], [0.0, 1e30]],
                             ids=["fractional", "nan", "huge"])
    def test_bad_labels_fail_with_one_message_and_no_warning(self, entry, labels):
        classes, call = label_entry_points()[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                call(labels)
        assert str(info.value) == f"labels must be whole numbers in [0, {classes})"

    @pytest.mark.parametrize("entry", list(label_entry_points()))
    def test_whole_float_labels_equal_integer_labels(self, entry):
        _, call = label_entry_points()[entry]
        got, want = ((v if isinstance(v, tuple) else (v,)) for v in (call([1.0, 0.0]), call([1, 0])))
        assert [(a.dtype, a.tobytes()) for a in got] == [(b.dtype, b.tobytes()) for b in want]

    @pytest.mark.parametrize("entry", ["ExplainerConfig", "ScoreCache", "score"])
    def test_unknown_variant_fails_with_one_error(self, entry):
        call = {
            "ExplainerConfig": lambda: ExplainerConfig(kernel=LinearKernel(), variant="middle"),
            "ScoreCache": lambda: ScoreCache(0, "middle", np.zeros((1, 2)), np.zeros((1, 2)), [0]),
            "score": lambda: zero_model().score(np.zeros(2), variant="middle"),
        }[entry]
        with pytest.raises(UnsupportedVariantError) as info:
            call()
        assert str(info.value) == "unknown variant 'middle'; expected 'raw' or 'last-layer'"


@pytest.fixture(scope="module")
def small_fit():
    data = gen_two_moons(20, 0.1, seed=0)
    model = train(data, TrainConfig(seed=0, epochs=2), hidden_dims=[3])
    return data, model, build_cache(model, data)


def numeric_entry_points(data, model, cache):
    """Every count and scale the library takes: entry -> (parameter, rule, a
    valid value, call on a value). The rule is a count's minimum, or
    "positive" or "non-negative" for a scale; each call returns what the value
    changes, for the numpy-scalar comparison."""
    x, config = np.zeros((2, 2)), ExplainerConfig(kernel=RBFKernel(1.0), top_k=1)
    fit = lambda hidden=3, **kw: train(data, TrainConfig(**{"seed": 0, "epochs": 2, **kw}),
                                       hidden_dims=[hidden]).serialize()
    hits = lambda trials, size: hit_rate_experiment(model, data, "noise", trials, size, config,
                                                    0).csv_rows()[0]["hit_rate"]
    r = np.array([0.0, 2.0])
    return {
        "Dataset.num_classes": ("num_classes", 2, 3, lambda v: Dataset(x, [0, 1], v).num_classes),
        "Dataset.image_shape": ("image_shape entries", 1, 2, lambda v: Dataset(
            np.zeros((2, 4)), [0, 1], 2, image_shape=(2, v, 1)).image_shape),
        "gen_two_moons.n": ("n", 2, 10, lambda v: gen_two_moons(v, 0.1, seed=0).features),
        "gen_rectangles.n": ("n", 3, 9, lambda v: gen_rectangles(v, seed=0).features),
        "TrainConfig.epochs": ("epochs", 1, 2, lambda v: fit(epochs=v)),
        "TrainConfig.batch_size": ("batch_size", 1, 8, lambda v: fit(batch_size=v)),
        "train.hidden_dims": ("hidden_dims entries", 1, 3, lambda v: fit(hidden=v)),
        "MLPClassifier.layer_dims": ("layer dimensions", 1, 1, lambda v: MLPClassifier(
            [2, v, 2], [np.ones((2, 1)), np.ones((1, 2))], [np.zeros(1), np.zeros(2)]).serialize()),
        "ExplainerConfig.top_k": ("top_k", 1, 2, lambda v: explain(
            model, cache, data.features[0], ExplainerConfig(kernel=RBFKernel(1.0), top_k=v)).ranked),
        "hit_rate.trials_per_point": ("trials_per_point", 1, 2, lambda v: hits(v, 3)),
        "hit_rate.sample_size": ("sample_size", 1, 3, lambda v: hits(2, v)),
        "TrainConfig.learning_rate": ("learning_rate", "positive", 0.05, lambda v: fit(learning_rate=v)),
        "TrainConfig.l2_weight_decay": ("l2_weight_decay", "non-negative", 0.01,
                                        lambda v: fit(l2_weight_decay=v)),
        "Dataset.feature_std": ("feature_std entries", "non-negative", 0.5,
                                lambda v: Dataset(x, [0, 1], 2, feature_std=[1.0, v]).feature_std),
        "gen_two_moons.noise_std": ("noise_std", "non-negative", 0.2,
                                    lambda v: gen_two_moons(10, v, seed=0).features),
        "RBFKernel.gamma": ("gamma", "positive", 0.5, lambda v: RBFKernel(v).radial(r)),
        "IMQKernel.c": ("c", "positive", 1.5, lambda v: IMQKernel(c=v).radial(r)),
    }


RULES = {entry: rule for entry, (_, rule, _, _) in numeric_entry_points(None, None, None).items()}
COUNTS = [entry for entry, rule in RULES.items() if isinstance(rule, int)]
SCALES = [entry for entry, rule in RULES.items() if isinstance(rule, str)]


class TestNumericContracts:
    """Each count and scale is checked by one function, before any forward pass."""

    @pytest.fixture()
    def forward_calls(self, monkeypatch):
        calls = []
        real = nnet._forward_into
        monkeypatch.setattr(nnet, "_forward_into", lambda *a: calls.append(a[2].shape) or real(*a))
        return calls

    def rejects(self, call, value, message, forward_calls):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                call(value)
        assert str(info.value) == message
        assert forward_calls == []

    @pytest.mark.parametrize("entry", COUNTS)
    @pytest.mark.parametrize("bad", ["fraction", "bool", "below"])
    def test_bad_count_fails_with_one_message_before_any_work(self, small_fit, forward_calls, entry,
                                                               bad):
        name, minimum, _, call = numeric_entry_points(*small_fit)[entry]
        value = {"fraction": 2.5, "bool": True, "below": minimum - 1}[bad]
        self.rejects(call, value, f"{name} must be an integer of at least {minimum}, got {value!r}",
                     forward_calls)

    @pytest.mark.parametrize("entry", SCALES)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_scale_fails_with_one_message_before_any_work(self, small_fit, forward_calls, entry,
                                                               value):
        name, rule, _, call = numeric_entry_points(*small_fit)[entry]
        self.rejects(call, value, f"{name} must be {rule} and finite, got {value!r}", forward_calls)

    @pytest.mark.parametrize("entry", COUNTS + SCALES)
    def test_numpy_scalars_give_byte_equal_results(self, small_fit, entry):
        _, _, value, call = numeric_entry_points(*small_fit)[entry]
        wrapped = (np.int64 if entry in COUNTS else np.float64)(value)
        got, want = call(wrapped), call(value)
        assert type(got) is type(want)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        elif isinstance(want, tuple) and isinstance(want[0], np.ndarray):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        else:
            assert repr(got) == repr(want)

    def test_each_message_comes_from_its_one_check(self):
        """A hand-written count or scale check would bring a second copy of its message."""
        package = Path(stein.__file__).parent
        for message, check in [("must be an integer of at least", stein._count),
                               ("must be positive and finite", stein._positive_finite),
                               ("must be non-negative and finite", stein._non_negative_finite)]:
            counts = {path.name: path.read_text(encoding="utf-8").count(message)
                      for path in package.rglob("*.py")}
            assert {name: count for name, count in counts.items() if count} == {"stein.py": 1}, message
            assert message in inspect.getsource(check)


class TestSteinPoints:
    def test_zero_model_point(self):
        z, scores = make_stein_points(zero_model(), np.array([[0.0, 0.0]]), [1], "raw")
        assert z.tolist() == [[0.0, 0.0, 0.0, 1.0]]
        assert np.allclose(scores[0, :2], 0.0)
        assert np.allclose(scores[0, 2:], -np.log(2.0))

    def test_raw_dimension_is_d_plus_l(self, trained):
        z, scores = make_stein_points(trained, np.array([[0.1, 0.2]]), [0], "raw")
        assert z.shape == scores.shape == (1, 2 + 2)

    def test_last_layer_dimension(self, trained):
        z, scores = make_stein_points(trained, np.array([[0.1, 0.2]]), [0], "last-layer")
        assert z.shape == scores.shape == (1, trained.layer_dims[-2] + 2)

    def test_score_log_prob_block_normalized(self, trained, moons):
        z, scores = make_stein_points(trained, moons.features, moons.labels, "raw")
        logp = scores[:, -2:]
        assert np.all(logp <= 0.0)
        lse = np.log(np.exp(logp).sum(axis=1))
        assert np.all(np.abs(lse) <= 1e-9)

    def test_one_hot_block(self, trained, moons):
        z, _ = make_stein_points(trained, moons.features, moons.labels, "raw")
        onehot = z[:, -2:]
        assert np.all(onehot.sum(axis=1) == 1.0)
        assert np.all((onehot == 0.0) | (onehot == 1.0))
        assert np.array_equal(onehot.argmax(axis=1), moons.labels)

    def test_unknown_variant(self, trained):
        with pytest.raises(UnsupportedVariantError):
            make_stein_points(trained, np.zeros((1, 2)), [0], "middle")

    def test_last_layer_requires_hidden(self):
        flat = MLPClassifier([2, 2], [np.zeros((2, 2))], [np.zeros(2)])
        with pytest.raises(UnsupportedVariantError):
            make_stein_points(flat, np.zeros((1, 2)), [0], "last-layer")


class TestSteinKernel:
    def test_analytic_gaussian_probe_is_zero(self):
        # D=1 linear kernel with the standard normal score s(z) = -z:
        # trace 1, k*s_a*s_b = 4, grad_a k . s_b = -4, grad_b k . s_a = -1
        pa = (np.array([1.0]), np.array([-1.0]))
        pb = (np.array([2.0]), np.array([-2.0]))
        assert stein_kernel(LinearKernel(), *pa, *pb) == 0.0

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_symmetry(self, name, kernel):
        rng = np.random.default_rng(17)
        for _ in range(50):
            pa = (rng.normal(0, 1, 4), rng.normal(0, 2, 4))
            pb = (rng.normal(0, 1, 4), rng.normal(0, 2, 4))
            assert abs(stein_kernel(kernel, *pa, *pb) - stein_kernel(kernel, *pb, *pa)) <= 1e-10

    @pytest.mark.parametrize("name", ["linear", "rbf", "imq"])
    def test_gram_is_symmetric_psd_on_trained_points(self, name, trained, moons):
        z, scores = make_stein_points(trained, moons.features[:50], moons.labels[:50], "raw")
        if name == "rbf":
            kernel = RBFKernel(median_heuristic_gamma(z))
        elif name == "imq":
            kernel = IMQKernel(1.0, -0.5)
        else:
            kernel = LinearKernel()
        gram = stein_gram(kernel, z, scores)
        assert np.abs(gram - gram.T).max() <= 1e-10
        eigenvalues = np.linalg.eigvalsh((gram + gram.T) / 2)
        assert eigenvalues.min() >= -1e-6 * eigenvalues.max()

    def test_profile_matches_scalar_path(self, trained, moons):
        z, scores = make_stein_points(trained, moons.features[:40], moons.labels[:40], "raw")
        rng = np.random.default_rng(3)
        for kernel_name, kernel in ALL_KERNELS:
            j = int(rng.integers(0, 40))
            profile = stein_kernel_profile(kernel, z, scores, z[j], scores[j])
            for i in range(40):
                direct = oracle.stein_kernel(kernel, z[i], scores[i], z[j], scores[j])
                assert abs(profile[i] - direct) <= 1e-10, kernel_name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_one_pair_case_matches_oracle(self, name, kernel):
        rng = np.random.default_rng(19)
        for i in range(50):
            pair = tuple(rng.normal(0, spread, 4) for spread in (1.5, 2, 1.5, 2))
            direct = oracle.stein_kernel(kernel, *pair)
            scale = oracle.term_scale(kernel, *pair)
            assert abs(stein_kernel(kernel, *pair) - direct) <= 1e-12 * scale, (name, i)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="z and score must be length-D vectors"):
            stein_kernel(LinearKernel(), np.zeros(3), np.zeros(3), np.zeros(4), np.zeros(4))

    def test_score_must_match_its_point(self):
        with pytest.raises(ValueError):
            stein_kernel(LinearKernel(), np.zeros(3), np.zeros(4), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            stein_kernel(LinearKernel(), np.zeros((1, 3)), np.zeros((1, 3)), np.zeros(3), np.zeros(3))


@pytest.fixture(scope="module", params=["random", "trained"])
def scored_rows(request, trained, moons):
    """(z, s) rows: Gaussian vectors, or raw scored points of a trained model."""
    if request.param == "random":
        rng = np.random.default_rng(11)
        return rng.normal(0, 1.5, size=(40, 5)), rng.normal(0, 2, size=(40, 5))
    return make_stein_points(trained, moons.features[:40], moons.labels[:40], "raw")


class TestFusedCore:
    """The GEMM-shaped closed form against the scalar four-term oracle."""

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_profile_matches_scalar_stein_kernel(self, name, kernel, scored_rows):
        z, scores = scored_rows
        for j in (0, 7, 23):
            profile = stein_kernel_profile(kernel, z, scores, z[j], scores[j])
            for i in range(len(z)):
                pair = (z[i], scores[i], z[j], scores[j])
                direct = oracle.stein_kernel(kernel, *pair)
                assert abs(profile[i] - direct) <= 1e-12 * oracle.term_scale(kernel, *pair), (name, i, j)
            # the self-point: r2 = 0 exactly, not a rounded expansion
            direct = oracle.stein_kernel(kernel, z[j], scores[j], z[j], scores[j])
            assert abs(profile[j] - direct) <= 1e-12 * abs(direct), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_near_pair_with_large_norm(self, name, kernel):
        # ||z||^2 ~ 1e6 and ||z - q||^2 ~ 1e-6: the expansion alone keeps no digits
        rng = np.random.default_rng(12)
        z = 1e3 / np.sqrt(3) + rng.normal(0, 1, size=(6, 3))
        scores = rng.normal(0, 1, size=(6, 3))
        q, t = z[2] + 1e-3 * rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        profile = stein_kernel_profile(kernel, z, scores, q, t)
        for i in range(6):
            pair = (z[i], scores[i], q, t)
            scale = oracle.term_scale(kernel, *pair)
            assert abs(profile[i] - oracle.stein_kernel(kernel, *pair)) <= 1e-12 * scale

    def test_far_pair_underflows_to_zero(self):
        kernel = RBFKernel(0.7)
        z = np.array([[0.0, 0.0, 0.0], [40.0, -40.0, 40.0], [0.5, 0.1, -0.2]])
        scores = np.array([[1.0, -2.0, 0.5], [3.0, 1.0, -1.0], [0.2, 0.2, 0.2]])
        profile = stein_kernel_profile(kernel, z, scores, z[0], scores[0])
        far = oracle.stein_kernel(kernel, z[1], scores[1], z[0], scores[0])
        assert far == 0.0 and profile[1] == 0.0
        assert np.all(np.isfinite(profile))

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_gram_symmetric_psd_rows_are_profiles(self, name, kernel, scored_rows):
        z, scores = scored_rows
        gram = stein_gram(kernel, z, scores)
        scale = np.abs(gram).max()
        assert np.abs(gram - gram.T).max() <= 1e-12 * scale, name
        assert np.linalg.eigvalsh((gram + gram.T) / 2).min() >= -1e-9 * scale, name
        for i in range(len(z)):
            profile = stein_kernel_profile(kernel, z, scores, z[i], scores[i])
            assert np.abs(gram[i] - profile).max() <= 1e-12 * scale, (name, i)

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_self_influence_is_the_scalar_diagonal(self, name, kernel, scored_rows):
        z, scores = scored_rows
        cache = ScoreCache(0, "raw", z, scores, np.zeros(len(z), dtype=np.int64))
        ranking = self_influence_ranking(cache, kernel)
        for i, value in ranking:
            direct = oracle.stein_kernel(kernel, cache.z[i], cache.scores[i], cache.z[i], cache.scores[i])
            assert abs(value - direct) <= 1e-12 * abs(direct), (name, i)

    def test_radial_self_influence_ranks_by_score_norm(self, scored_rows):
        z, scores = scored_rows
        cache = ScoreCache(0, "raw", z, scores, np.zeros(len(z), dtype=np.int64))
        by_norm = np.lexsort((np.arange(len(z)), -np.einsum("ij,ij->i", scores, scores))).tolist()
        for _, kernel in ALL_KERNELS[1:]:
            assert [i for i, _ in self_influence_ranking(cache, kernel)] == by_norm

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS[1:])
    def test_radial_derivatives_match_finite_differences_of_eval(self, name, kernel):
        step = 1e-4

        def phi(r2):
            # the kernel at two points whose squared distance is r2
            return oracle.kernel_value(kernel, np.zeros(2), np.array([np.sqrt(r2), 0.0]))

        for r2 in (0.05, 0.3, 1.0, 2.5, 7.0):
            _, k1, k2 = kernel.radial(r2)
            d1 = (phi(r2 + step) - phi(r2 - step)) / (2 * step)
            d2 = (phi(r2 + step) - 2 * phi(r2) + phi(r2 - step)) / step**2
            assert abs(k1 - d1) <= 1e-7 * max(abs(k1), 1e-3), (name, r2)
            assert abs(k2 - d2) <= 1e-4 * max(abs(k2), 1e-3), (name, r2)

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_pair_evaluation_counts(self, name, kernel, scored_rows):
        z, scores = scored_rows
        n = len(z)
        reset_kernel_eval_count()
        stein_kernel_profile(kernel, z, scores, z[0], scores[0])
        assert kernel_eval_count() == n
        stein_gram(kernel, z, scores)
        assert kernel_eval_count() == n + n * n


class TestChunkedCore:
    """The elementwise stage runs in chunks of ``stein._CHUNK_VALUES`` values:
    where the chunks fall must not change a value."""

    THREE_ROWS = 3 * 23  # of the 23-row sets below, leaving a partial last chunk

    @pytest.fixture
    def rows(self):
        rng = np.random.default_rng(21)
        return rng.normal(0, 1.5, size=(23, 5)), rng.normal(0, 2, size=(23, 5))

    # three rows per chunk, or pieces of 7 values of one row
    @pytest.mark.parametrize("chunk", [THREE_ROWS, 7])
    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_chunked_values_equal_one_chunk(self, monkeypatch, rows, name, kernel, chunk):
        z, s = rows
        q, t = z[5:16] + 0.1, s[5:16]
        block_args = (kernel, z, s, _row_stats(z, s), q, t, _row_stats(q, t))
        assert 23 * 23 <= stein._CHUNK_VALUES
        one_args = (kernel, z, s, _row_stats(z, s), q[:1], t[:1], _row_stats(q[:1], t[:1]))
        gram, block = stein_gram(kernel, z, s), _stein_block(*block_args)
        one = _stein_block(*one_args)
        monkeypatch.setattr(stein, "_CHUNK_VALUES", chunk)
        assert stein_gram(kernel, z, s).tobytes() == gram.tobytes(), name
        assert _stein_block(*block_args).tobytes() == block.tobytes(), name
        assert _stein_block(*one_args).tobytes() == one.tobytes(), name

    # five rows per tile (a partial last tile of three), or one row per tile
    @pytest.mark.parametrize("tile", [5 * 5, 3])
    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_tiled_query_equals_whole_products(self, monkeypatch, rows, name, kernel, tile):
        # one query's products run over tiles of stein._TILE_VALUES values of
        # rows; the tiles split the sums BLAS forms, so agreement is to rounding
        z, s = rows
        q, t = z[7] + 0.1, s[7]
        assert 23 * 5 <= stein._TILE_VALUES
        whole = stein_kernel_profile(kernel, z, s, q, t)
        monkeypatch.setattr(stein, "_TILE_VALUES", tile)
        tiled = stein_kernel_profile(kernel, z, s, q, t)
        for j in range(len(z)):
            scale = oracle.term_scale(kernel, z[j], s[j], q, t)
            assert abs(tiled[j] - whole[j]) <= 1e-12 * scale, (name, j)
        assert _top(tiled, 5).tolist() == _top(whole, 5).tolist(), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_chunked_gram_rows_are_profiles(self, monkeypatch, rows, name, kernel):
        z, s = rows
        monkeypatch.setattr(stein, "_CHUNK_VALUES", self.THREE_ROWS)
        gram = stein_gram(kernel, z, s)
        scale = np.abs(gram).max()
        for i in range(len(z)):
            profile = stein_kernel_profile(kernel, z, s, z[i], s[i])
            assert np.abs(gram[i] - profile).max() <= 1e-12 * scale, (name, i)

    def test_near_pair_is_recomputed_in_a_later_chunk(self, monkeypatch):
        # ||z||^2 ~ 1e6 and ||z_17 - z_10||^2 ~ 3e-6: the pair sits in the
        # fourth and sixth three-row chunks, and the expansion keeps no digits
        rng = np.random.default_rng(22)
        z, s = rng.normal(0, 600, size=(23, 3)), rng.normal(0, 1, size=(23, 3))
        z[17] = z[10] + 1e-3 * rng.normal(0, 1, 3)
        direct = float(np.sum((z[17] - z[10]) ** 2))
        expansion = z[17] @ z[17] + z[10] @ z[10] - 2.0 * z[17] @ z[10]
        assert abs(expansion - direct) > 1e-6 * direct
        chunks = []

        def recorded(*args):
            chunks.append(_sq_dists(*args))
            return chunks[-1]

        monkeypatch.setattr(stein, "_CHUNK_VALUES", self.THREE_ROWS)
        monkeypatch.setattr(stein, "_sq_dists", recorded)
        kernel = RBFKernel(0.7)
        gram = stein_gram(kernel, z, s)
        assert len(chunks) == 8
        r2 = np.vstack(chunks)
        for i, j in ((17, 10), (10, 17)):
            assert abs(r2[i, j] - direct) <= 1e-12 * direct, (i, j)
            pair = (z[j], s[j], z[i], s[i])
            scale = oracle.term_scale(kernel, *pair)
            assert abs(gram[i, j] - oracle.stein_kernel(kernel, *pair)) <= 1e-12 * scale


class TestCoreMemory:
    """Beyond the result and the two products, the Stein core allocates only
    scratch bounded by the chunk."""

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_gram_scratch_is_bounded(self, name, kernel):
        n = 500
        rng = np.random.default_rng(23)
        z, s = rng.normal(0, 1, size=(n, 4)), rng.normal(0, 1, size=(n, 4))
        stein_gram(kernel, z, s)
        tracemalloc.start()
        try:
            stein_gram(kernel, z, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = n * n * 8
        # radial: [Q; T] @ Z^T and [Q; T] @ S^T, (2n, n) each; linear: (n, n) each
        products = 2 * result * (1 if name == "linear" else 2)
        assert peak - result - products < 2**20, (name, peak)


def full_search_sq_dists(kernel, rows, queries, zz, qq, zq, l2):
    """``_sq_dists`` without the skip: the near-pair search always runs."""
    scale = zz + qq
    r2 = np.maximum(scale - 2.0 * zq, 0.0)
    k0, k1, _ = kernel.radial(0.0)
    j, i = np.nonzero(r2 + k0 / abs(k1) < stein._NEAR * scale)
    for jj, ii in zip(j, i):
        diff = rows[ii] - queries[jj]
        r2[jj, ii] = diff @ diff
    return r2


def whole_gram(kernel, z, s):
    """The Stein Gram as one block of all n rows against themselves."""
    stats = _row_stats(z, s)
    return _stein_block(kernel, z, s, stats, z, s, stats)


def full_gram_ksd(kernel, z, s):
    """``(V value, U value, std_error)`` reduced from the whole n x n Gram,
    as the estimators did before they reduced row blocks. The off-diagonal
    squares are summed over the off-diagonal values themselves: the old
    ``all squares - diagonal squares`` lost digits where the diagonal
    dominates (2.4e-6 relative on three far-apart points)."""
    gram = whole_gram(kernel, z, s)
    n = gram.shape[0]
    vstat = float(gram.mean())
    ustat = float((gram.sum() - np.trace(gram)) / (n * (n - 1))) if n > 1 else None
    if n < 3:
        return vstat, ustat, 0.0
    diag = np.diagonal(gram)
    row_means = (gram.sum(axis=1) - diag) / (n - 1)
    mean = row_means.mean()
    dev_off = gram[~np.eye(n, dtype=bool)] - mean
    pairs = n * (n - 1) // 2
    zeta2 = max((dev_off @ dev_off) / 2.0, 0.0) / (pairs - 1)
    zeta1 = max(row_means.var(ddof=1) - zeta2 / (n - 1), 0.0)
    return vstat, ustat, float(np.sqrt(2.0 / (n * (n - 1)) * (2.0 * (n - 2) * zeta1 + zeta2)))


class TestGramBlocks:
    """The Gram and the KSD estimators walk row blocks of at most
    ``stein._TILE_VALUES`` values."""

    @pytest.mark.parametrize("n,tile", [
        (1, None), (2, None), (3, None),
        (60, None),     # one block
        (23, 4 * 23),   # blocks of four rows, the last of three
        (23, 3 * 23),   # blocks of three rows, the last of two
        (23, 7),        # one row per block
    ])
    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_estimators_equal_the_full_gram(self, monkeypatch, name, kernel, n, tile):
        rng = np.random.default_rng(n)
        z, s = rng.normal(0.3, 1.5, size=(n, 5)), rng.normal(0.5, 2, size=(n, 5))
        if tile is None:
            assert n * n <= stein._TILE_VALUES
        else:
            monkeypatch.setattr(stein, "_TILE_VALUES", tile)
        vstat, ustat, std_error = full_gram_ksd(kernel, z, s)
        got = ksd_vstat(kernel, z, s)
        assert abs(got.value - vstat) <= 1e-12 * abs(vstat), name
        assert abs(got.std_error - std_error) <= 1e-12 * std_error, name
        if n > 1:
            got = ksd_ustat(kernel, z, s)
            assert abs(got.value - ustat) <= 1e-12 * abs(ustat), name
            assert abs(got.std_error - std_error) <= 1e-12 * std_error, name
        gram, whole = stein_gram(kernel, z, s), whole_gram(kernel, z, s)
        assert np.abs(gram - whole).max() <= 1e-12 * np.abs(whole).max(), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_block_bound_sets_the_block_rows(self, monkeypatch, name, kernel):
        rng = np.random.default_rng(24)
        z, s = rng.normal(0, 1.5, size=(23, 5)), rng.normal(0, 2, size=(23, 5))
        heights = []

        def recorded(*args, out=None):
            heights.append(len(args[4]))
            return block(*args, out=out)

        block = stein._stein_block
        monkeypatch.setattr(stein, "_TILE_VALUES", 4 * 23)
        monkeypatch.setattr(stein, "_stein_block", recorded)
        reset_kernel_eval_count()
        stein_gram(kernel, z, s)
        assert heights == [4, 4, 4, 4, 4, 3] and kernel_eval_count() == 23 * 23
        heights.clear()
        ksd_vstat(kernel, z, s)
        assert heights == [4, 4, 4, 4, 4, 3]

    def test_near_pair_is_recomputed_in_a_later_block(self, monkeypatch):
        # ||z||^2 ~ 1e6 and ||z_17 - z_10||^2 ~ 3e-6: the pair sits in the
        # fourth and sixth three-row blocks, and the expansion keeps no digits
        rng = np.random.default_rng(22)
        z, s = rng.normal(0, 600, size=(23, 3)), rng.normal(0, 1, size=(23, 3))
        z[17] = z[10] + 1e-3 * rng.normal(0, 1, 3)
        direct = float(np.sum((z[17] - z[10]) ** 2))
        expansion = z[17] @ z[17] + z[10] @ z[10] - 2.0 * z[17] @ z[10]
        assert abs(expansion - direct) > 1e-6 * direct
        monkeypatch.setattr(stein, "_TILE_VALUES", 3 * 23)
        kernel = RBFKernel(0.7)
        gram = stein_gram(kernel, z, s)
        for i, j in ((17, 10), (10, 17)):
            pair = (z[j], s[j], z[i], s[i])
            scale = oracle.term_scale(kernel, *pair)
            assert abs(gram[i, j] - oracle.stein_kernel(kernel, *pair)) <= 1e-12 * scale
        vstat, _, std_error = full_gram_ksd(kernel, z, s)
        got = ksd_vstat(kernel, z, s)
        assert abs(got.value - vstat) <= 1e-12 * abs(vstat)
        assert abs(got.std_error - std_error) <= 1e-12 * std_error

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS[1:])
    def test_skipped_search_gives_the_same_bytes(self, monkeypatch, name, kernel):
        # a kernel wide against the norms: no pair can be near, so the search is skipped
        rng = np.random.default_rng(25)
        z, s = rng.normal(0, 0.5, size=(40, 4)), rng.normal(0, 2, size=(40, 4))
        k0, k1, _ = kernel.radial(0.0)
        assert k0 / abs(k1) >= stein._NEAR * 2 * np.einsum("ij,ij->i", z, z).max()
        skipped = (stein_gram(kernel, z, s), stein_kernel_profile(kernel, z, s, z[3], s[3]))
        monkeypatch.setattr(stein, "_sq_dists", partial(full_search_sq_dists, kernel))
        searched = (stein_gram(kernel, z, s), stein_kernel_profile(kernel, z, s, z[3], s[3]))
        for a, b in zip(skipped, searched):
            assert a.tobytes() == b.tobytes(), name

    def test_skip_test_needs_every_norm(self):
        # the test holds for these norms, but not once one is larger or NaN
        kernel = RBFKernel(0.5)  # l2 = 2
        assert stein._near_scale(kernel, np.array([3.0, 10.0]), np.array([[9.0]])) is None
        for zz in ([3.0, 12.0], [3.0, np.nan]):
            assert stein._near_scale(kernel, np.array(zz), np.array([[9.0]])) == 2.0
        assert stein._near_scale(kernel, np.array([3.0, 10.0]), np.array([[9.0], [np.nan]])) == 2.0

    def test_ksd_memory_is_bounded_by_the_block(self):
        n = 2000
        rng = np.random.default_rng(26)
        z, s = rng.normal(0, 1, size=(n, 4)), rng.normal(0, 1, size=(n, 4))
        ksd_ustat(RBFKernel(0.5), z[:50], s[:50])
        tracemalloc.start()
        try:
            ksd_ustat(RBFKernel(0.5), z, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 10, peak

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_gram_memory_is_the_result_and_one_block(self, name, kernel):
        # the whole-Gram products alone were four times the result
        n = 2000
        rng = np.random.default_rng(27)
        z, s = rng.normal(0, 1, size=(n, 4)), rng.normal(0, 1, size=(n, 4))
        stein_gram(kernel, z[:50], s[:50])
        tracemalloc.start()
        try:
            stein_gram(kernel, z, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        height = stein._TILE_VALUES // n
        # one block's products: radial (2h, n) twice, linear (h, n) twice
        products = 2 * height * n * 8 * (1 if name == "linear" else 2)
        assert peak - n * n * 8 - products < 2**20, (name, peak)


def gaussian_points(rng, n, shift=0.0):
    """(z, s) rows of N(shift, I_2) samples under the standard normal score -x."""
    x = rng.normal(0, 1, size=(n, 2)) + shift
    return x, -x


class TestKSDEstimators:
    def test_single_point_vstat(self):
        z, s = np.array([0.5, 1.0]), np.array([-0.5, -1.0])
        kernel = RBFKernel(0.5)
        estimate = ksd_vstat(kernel, z[None, :], s[None, :])
        assert estimate.value == oracle.stein_kernel(kernel, z, s, z, s)

    def test_ustat_needs_two_points(self):
        with pytest.raises(ValueError):
            ksd_ustat(RBFKernel(0.5), np.zeros((1, 2)), np.zeros((1, 2)))

    def test_ustat_checks_the_count_before_any_stein_work(self):
        reset_kernel_eval_count()
        with pytest.raises(ValueError):
            ksd_ustat(RBFKernel(0.5), np.zeros((1, 2)), np.zeros((1, 2)))
        assert kernel_eval_count() == 0

    @pytest.mark.parametrize("estimator", [ksd_vstat, ksd_ustat])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e300])
    def test_non_finite_stein_values_raise_without_warnings(self, estimator, bad):
        z, s = gaussian_points(np.random.default_rng(3), 10)
        s[4, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="not finite"):
                estimator(RBFKernel(0.5), z, s)

    def test_empty_input(self):
        for estimator in (ksd_vstat, ksd_ustat, stein_gram):
            with pytest.raises(ValueError):
                estimator(RBFKernel(0.5), np.zeros((0, 2)), np.zeros((0, 2)))

    def test_mismatched_shapes(self):
        for estimator in (ksd_vstat, ksd_ustat, stein_gram):
            with pytest.raises(ValueError):
                estimator(RBFKernel(0.5), np.zeros((4, 2)), np.zeros((4, 3)))
            with pytest.raises(ValueError):
                estimator(RBFKernel(0.5), np.zeros((4, 2)), np.zeros((3, 2)))

    def test_vector_input_rejected(self):
        with pytest.raises(ValueError):
            ksd_vstat(RBFKernel(0.5), np.zeros(2), np.zeros(2))

    def test_profile_checks_rows_and_query(self):
        kernel = RBFKernel(0.5)
        for rows, row_scores, q in ((np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(2)),
                                    (np.zeros((4, 2)), np.zeros((4, 3)), np.zeros(2)),
                                    (np.zeros((4, 2)), np.zeros((4, 2)), np.zeros(3))):
            with pytest.raises(ValueError):
                stein_kernel_profile(kernel, rows, row_scores, q, q)

    def test_stein_identity_null(self):
        # samples from the scored distribution: U-statistic consistent with 0
        for kernel in (RBFKernel(0.5), IMQKernel(1.0, -0.5)):
            estimate = ksd_ustat(kernel, *gaussian_points(np.random.default_rng(0), 1000))
            assert abs(estimate.value) <= 3 * estimate.std_error, type(kernel).__name__

    def test_shifted_distribution_detected(self):
        kernel = RBFKernel(0.5)
        null = ksd_ustat(kernel, *gaussian_points(np.random.default_rng(0), 1000))
        shifted = ksd_ustat(kernel, *gaussian_points(np.random.default_rng(1), 1000, shift=1.5))
        assert shifted.value > 3 * null.std_error

    def test_std_error_matches_the_spread_under_a_shift(self):
        # off the null the U-statistic is non-degenerate: its spread is the
        # 4 zeta1 / n term, which the pair variance alone misses
        kernel = RBFKernel(0.5)
        estimates = [ksd_ustat(kernel, *gaussian_points(np.random.default_rng(seed), 300, shift=1.5))
                     for seed in range(30)]
        empirical = np.std([e.value for e in estimates], ddof=1)
        ratio = np.median([e.std_error for e in estimates]) / empirical
        assert 1 / 1.5 <= ratio <= 1.5, ratio

    @pytest.mark.parametrize("n", [3, 4, 9, 60])
    def test_std_error_is_the_order_two_variance(self, n):
        # the pair-by-pair form of 2 / (n (n - 1)) [2 (n - 2) zeta1 + zeta2]
        z, s = gaussian_points(np.random.default_rng(n), n, shift=0.7)
        kernel = RBFKernel(0.5)
        gram = stein_gram(kernel, z, s)
        zeta2 = gram[np.triu_indices(n, k=1)].var(ddof=1)
        row_means = np.array([np.delete(gram[i], i).mean() for i in range(n)])
        zeta1 = max(row_means.var(ddof=1) - zeta2 / (n - 1), 0.0)
        expected = np.sqrt(2 / (n * (n - 1)) * (2 * (n - 2) * zeta1 + zeta2))
        for estimator in (ksd_vstat, ksd_ustat):
            assert estimator(kernel, z, s).std_error == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("chunk", [7, 3 * 60])  # one row, or three rows, per chunk
    def test_std_error_does_not_depend_on_the_chunk(self, monkeypatch, chunk):
        z, s = gaussian_points(np.random.default_rng(60), 60, shift=0.7)
        kernel = RBFKernel(0.5)
        assert 60 * 60 <= stein._CHUNK_VALUES
        whole = ksd_ustat(kernel, z, s).std_error
        monkeypatch.setattr(stein, "_CHUNK_VALUES", chunk)
        assert ksd_ustat(kernel, z, s).std_error == pytest.approx(whole, rel=1e-12)

    def test_std_error_is_zero_below_three_points(self):
        z, s = gaussian_points(np.random.default_rng(2), 2)
        assert ksd_ustat(RBFKernel(0.5), z, s).std_error == 0.0
        assert ksd_vstat(RBFKernel(0.5), z, s).std_error == 0.0

    def test_vstat_ustat_identity(self):
        # n^2 V = n(n-1) U + sum of diagonal terms, exactly
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            points = [(rng.normal(0, 1, 3), rng.normal(0, 1, 3)) for _ in range(n)]
            z, s = (np.array(rows) for rows in zip(*points))
            kernel = IMQKernel(1.0, -0.5)
            v = ksd_vstat(kernel, z, s).value
            u = ksd_ustat(kernel, z, s).value
            diag = sum(oracle.stein_kernel(kernel, zi, si, zi, si) for zi, si in points)
            rhs = (n - 1) / n * u + diag / n**2
            assert abs(v - rhs) <= 1e-10 * max(1.0, abs(v))


class TestBandwidthRules:
    def test_two_points_at_distance_two(self):
        z = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert median_heuristic_gamma(z) == 1.0 / 8.0

    def test_identical_points_fallback(self):
        z = np.zeros((5, 2))
        assert median_heuristic_gamma(z) == 1.0

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 1, size=(40, 3))
        base = median_heuristic_gamma(z)
        for c in (0.5, 2.0, 10.0):
            assert abs(median_heuristic_gamma(c * z) - base / c**2) <= 1e-12 * base / c**2 + 1e-15

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            median_heuristic_gamma(np.zeros((1, 2)))

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 1, size=(1500, 2))
        assert median_heuristic_gamma(z) == median_heuristic_gamma(z)

    def test_local_scale_resolves_neighbors(self):
        rng = np.random.default_rng(6)
        z = rng.normal(0, 1, size=(200, 2))
        assert local_scale_gamma(z) > median_heuristic_gamma(z)

    def test_local_scale_identical_points_fallback(self):
        assert local_scale_gamma(np.zeros((4, 2))) == 1.0


def reference_sq_dists(z, max_points=1000, seed=0):
    """The subsample and the distance matrix written the plain way."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.shape[0] > max_points:
        z = z[np.random.default_rng(seed).choice(z.shape[0], size=max_points, replace=False)]
    norms = np.einsum("ij,ij->i", z, z)
    return np.clip(norms[:, None] + norms[None, :] - 2.0 * (z @ z.T), 0.0, None)


def reference_gamma(m):
    return 1.0 if m == 0.0 else 1.0 / (2.0 * m * m)


def reference_median_gamma(z, max_points=1000, seed=0):
    sq = reference_sq_dists(z, max_points, seed)
    return reference_gamma(float(np.median(np.sqrt(sq[np.triu_indices(sq.shape[0], k=1)]))))


def reference_local_gamma(z, max_points=1000, seed=0):
    sq = reference_sq_dists(z, max_points, seed)
    np.fill_diagonal(sq, np.inf)
    return reference_gamma(float(np.median(np.sqrt(sq.min(axis=1)))))


def same_float(a, b):
    """Equal bit for bit, NaN included."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def bandwidth_inputs(kind, n, rng):
    if kind == "gaussian":
        return rng.normal(0.0, 1.0, size=(n, 3))
    if kind == "grid":  # few distinct distances: heavy ties at the median, duplicate rows
        return rng.integers(0, 3, size=(n, 2)).astype(np.float64)
    if kind == "duplicates":
        base = rng.normal(0.0, 1.0, size=(max(n // 3, 1), 4))
        return base[rng.integers(0, base.shape[0], size=n)]
    if kind == "identical":  # integers, so that the distances are exactly 0
        return np.tile(rng.integers(-5, 6, size=(1, 3)).astype(np.float64), (n, 1))
    z = rng.normal(0.0, 1.0, size=(n, 3))
    z[n // 2, 1] = np.nan  # kind == "nan-row"
    return z


class TestBandwidthSelection:
    """Both rules against the plain ``np.median(np.sqrt(...))``, bit for bit,
    on odd and even pair counts n (n - 1) / 2 from 1 to 499,500."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 91, 92, 101, 102, 999, 1000, 1500])
    @pytest.mark.parametrize("kind", ["gaussian", "grid", "duplicates", "identical", "nan-row"])
    def test_equals_plain_median(self, kind, n):
        z = bandwidth_inputs(kind, n, np.random.default_rng(n))
        for rule, reference in ((median_heuristic_gamma, reference_median_gamma),
                                (local_scale_gamma, reference_local_gamma)):
            got, want = rule(z), reference(z)
            assert same_float(got, want), (rule.__name__, got, want)
        if kind == "identical":
            assert median_heuristic_gamma(z) == 1.0
        if kind == "nan-row" and n <= 1000:  # a larger subsample can leave the row out
            assert np.isnan(median_heuristic_gamma(z)) and np.isnan(local_scale_gamma(z))

    @pytest.mark.parametrize("max_points", [2, 3, 150])
    def test_subsample_equals_plain_median(self, monkeypatch, max_points):
        z = np.random.default_rng(8).normal(0.0, 2.0, size=(400, 5))
        monkeypatch.setattr(stein, "_GAMMA_MAX_POINTS", max_points)
        for seed in (0, 3):
            monkeypatch.setattr(stein, "_GAMMA_SEED", seed)
            assert same_float(median_heuristic_gamma(z), reference_median_gamma(z, max_points, seed))
            assert same_float(local_scale_gamma(z), reference_local_gamma(z, max_points, seed))

    def test_random_inputs_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n, d = int(rng.integers(2, 160)), int(rng.integers(1, 4))
            z = rng.integers(-2, 3, size=(n, d)) * float(rng.uniform(0.1, 3.0))
            assert same_float(median_heuristic_gamma(z), reference_median_gamma(z))
            assert same_float(local_scale_gamma(z), reference_local_gamma(z))

    @pytest.mark.parametrize("m", [1, 2, 3, 64, 4096, 4097, 30000, 30001])
    @pytest.mark.parametrize("case", ["sample-low", "sample-high", "all-equal", "infinite", "nan"])
    def test_median_sqrt_on_adversarial_vectors(self, m, case):
        rng = np.random.default_rng(m)
        v = rng.uniform(1.0, 2.0, size=m)
        step = int(m ** (1 / 3))
        if case == "sample-low":  # every step-th value ties at the bottom
            v[::step] = 0.0
        elif case == "sample-high":  # every step-th value ties at the top
            v[::step] = 5.0
        elif case == "all-equal":
            v[:] = 0.25
        elif case == "infinite":
            v[: m // 2 + 1] = np.inf
        else:
            v[m // 3] = np.nan
        before = v.copy()
        assert same_float(_median_sqrt(v), np.median(np.sqrt(v)))
        assert np.array_equal(v, before, equal_nan=True), "_median_sqrt changed its argument"

    @pytest.mark.parametrize("m", [1000, 50_000])
    def test_finite_values_need_no_full_median(self, monkeypatch, m):
        v = np.random.default_rng(12).exponential(size=m)
        want = np.median(np.sqrt(v))

        def full_median(*args, **kwargs):
            raise AssertionError("a finite input took the full median")

        monkeypatch.setattr(np, "median", full_median)
        assert same_float(_median_sqrt(v), want)


class TestScoreCache:
    def test_round_trip(self, trained, moons, tmp_path):
        z, scores = make_stein_points(trained, moons.features, moons.labels, "raw")
        cache = ScoreCache(trained.fingerprint(), "raw", z, scores, moons.labels)
        path = tmp_path / "cache.bin"
        save_cache(cache, path)
        back = load_cache(path)
        assert back.model_fingerprint == cache.model_fingerprint
        assert back.variant == "raw"
        assert np.array_equal(back.z, cache.z)
        assert np.array_equal(back.scores, cache.scores)
        assert np.array_equal(back.labels, cache.labels)

    def test_byte_layout(self, tmp_path):
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        scores = np.array([[-1.0, 0.5], [0.25, -0.125]])
        labels = np.array([0, 1])
        cache = ScoreCache(0xDEADBEEF, "last-layer", z, scores, labels)
        data = cache.serialize()
        assert data[:4] == b"HDXC"
        version, variant, fingerprint, n, dim = struct.unpack("<IBQQQ", data[4:33])
        assert version == 1 and variant == 1 and fingerprint == 0xDEADBEEF
        assert n == 2 and dim == 2
        record0 = struct.unpack("<4dI", data[33:33 + 36])
        assert record0 == (1.0, 2.0, -1.0, 0.5, 0)

    def test_corrupted_magic(self, tmp_path):
        cache = ScoreCache(1, "raw", np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1, dtype=int))
        data = bytearray(cache.serialize())
        data[1] = 0x00
        with pytest.raises(ModelFormatError, match="magic"):
            ScoreCache.deserialize(bytes(data))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["z", "scores"])
    def test_non_finite_rejected(self, field, bad):
        arrays = {"z": np.ones((3, 2)), "scores": np.ones((3, 2))}
        arrays[field][1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            ScoreCache(1, "raw", arrays["z"], arrays["scores"], np.zeros(3, dtype=int))

    def test_non_finite_file_is_a_format_error(self):
        cache = ScoreCache(1, "raw", np.ones((2, 2)), np.ones((2, 2)), np.zeros(2, dtype=int))
        data = bytearray(cache.serialize())
        data[33:41] = struct.pack("<d", np.nan)  # z[0, 0]
        with pytest.raises(ModelFormatError, match="finite"):
            ScoreCache.deserialize(bytes(data))

    def test_row_stats_are_derived_read_only(self):
        z = np.array([[1.0, 2.0], [3.0, -4.0]])
        scores = np.array([[0.5, 0.5], [2.0, 1.0]])
        cache = ScoreCache(1, "raw", z, scores, np.zeros(2, dtype=int))
        norms, dots = cache.row_stats
        assert norms.tolist() == [5.0, 25.0] and dots.tolist() == [1.5, 2.0]
        assert not norms.flags.writeable and not dots.flags.writeable
        assert len(cache.serialize()) == 33 + 2 * (4 * 8 + 4)

    def test_truncated(self):
        cache = ScoreCache(1, "raw", np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ModelFormatError):
            ScoreCache.deserialize(cache.serialize()[:-8])

    def test_unsupported_version(self):
        _, data = small_cache_bytes()
        data[4:8] = struct.pack("<I", 2)
        with pytest.raises(ModelFormatError, match="unsupported cache version 2"):
            ScoreCache.deserialize(data)

    def test_unknown_variant_code(self):
        _, data = small_cache_bytes()
        data[8] = 5
        with pytest.raises(ModelFormatError, match="unknown cache variant code 5"):
            ScoreCache.deserialize(data)

    @pytest.mark.parametrize("bad", [-1, 2**33])
    def test_label_the_file_cannot_hold_rejected(self, bad):
        # the file stores labels as u4: -1 would read back as 2**32 - 1 and 2**33 as 0
        with pytest.raises(ValueError, match=r"labels must be whole numbers in \[0, 4294967296\)"):
            ScoreCache(0, "raw", np.zeros((2, 2)), np.zeros((2, 2)), [0, bad])

    def test_largest_stored_label_round_trips(self):
        cache = ScoreCache(0, "raw", np.zeros((2, 2)), np.zeros((2, 2)), [0, 2**32 - 1])
        assert ScoreCache.deserialize(cache.serialize()).labels.tolist() == [0, 2**32 - 1]

    @pytest.mark.parametrize("variant", ["raw", "last-layer"])
    @pytest.mark.parametrize("n, dim", [(1, 1), (1, 6), (5, 3), (64, 40), (300, 794)])
    def test_serialize_equals_the_joined_image(self, variant, n, dim):
        rng = np.random.default_rng(n * dim)
        labels = rng.integers(0, 10, n)
        cache = ScoreCache(0xFEEDBEEFCAFE1234, variant, rng.normal(size=(n, dim)),
                           rng.normal(size=(n, dim)), labels)
        data = cache.serialize()
        assert type(data) is bytearray
        assert data == joined_cache_image(cache)


def joined_cache_image(cache):
    """The v1 file image as a header joined to a filled record array: the
    bytes ``ScoreCache.serialize`` must keep."""
    n, dim = cache.z.shape
    header = b"HDXC" + struct.pack("<IBQQQ", 1, {"raw": 0, "last-layer": 1}[cache.variant],
                                   cache.model_fingerprint, n, dim)
    record = np.dtype([("z", "<f8", (dim,)), ("score", "<f8", (dim,)), ("label", "<u4")])
    body = np.empty(n, dtype=record)
    body["z"] = cache.z
    body["score"] = cache.scores
    body["label"] = cache.labels.astype(np.uint32)
    return b"".join((header, body))


def small_cache_bytes():
    rng = np.random.default_rng(3)
    cache = ScoreCache(7, "raw", rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), np.arange(5) % 2)
    return cache, cache.serialize()


def broken_cache_file(tmp_path, case):
    """A path that ``load_cache`` must reject, and the message it must give."""
    _, data = small_cache_bytes()
    path = tmp_path / "cache.bin"
    if case == "empty":
        path.write_bytes(b"")
        return path, "truncated before header"
    if case == "header-only":
        path.write_bytes(data[:20])
        return path, "truncated before header"
    if case == "truncated":
        path.write_bytes(data[:-8])
        return path, "expected"
    if case == "huge-dim":  # too large for a numpy record dtype
        path.write_bytes(data[:25] + struct.pack("<Q", 2**40) + data[33:])
        return path, "expected"
    if case == "no-records-huge-dim":  # n = 0 matches a header-only file
        path.write_bytes(data[:17] + struct.pack("<QQ", 0, 2**40))
        return path, "no records"
    if case == "non-finite":
        path.write_bytes(data[:33] + struct.pack("<d", np.nan) + data[41:])  # z[0, 0]
        return path, "finite"
    if case == "directory":
        path.mkdir()
        return path, "cannot read cache file"
    return tmp_path / "missing.bin", "cannot read cache file"  # case == "missing"


CACHE_FILE_FAULTS = ["empty", "header-only", "truncated", "huge-dim", "no-records-huge-dim",
                     "non-finite", "directory", "missing"]


class TestLoadCache:
    @pytest.mark.parametrize("case", CACHE_FILE_FAULTS)
    def test_bad_files_are_format_errors(self, tmp_path, case):
        path, message = broken_cache_file(tmp_path, case)
        with pytest.raises(ModelFormatError, match=message):
            load_cache(path)

    def test_equals_deserialized_bytes(self, tmp_path):
        cache, data = small_cache_bytes()
        path = tmp_path / "cache.bin"
        path.write_bytes(data)
        back, parsed = load_cache(path), ScoreCache.deserialize(data)
        assert back.model_fingerprint == 7 and back.variant == "raw"
        for got, want in ((back.z, cache.z), (back.scores, cache.scores), (back.labels, cache.labels),
                          (back.z, parsed.z), (back.scores, parsed.scores)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("records", [5, 2000])  # 2000 records overfill a pipe buffer
    def test_reads_a_pipe(self, tmp_path, records):
        rng = np.random.default_rng(records)
        cache = ScoreCache(7, "raw", rng.normal(size=(records, 3)), rng.normal(size=(records, 3)),
                           np.arange(records) % 2)
        fifo = tmp_path / "cache.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(cache.serialize(),))
        writer.start()
        try:
            back = load_cache(fifo)
        finally:
            writer.join()
        assert back.z.tobytes() == cache.z.tobytes()
        assert back.scores.tobytes() == cache.scores.tobytes()
        assert np.array_equal(back.labels, cache.labels)

    def test_arrays_are_owned_contiguous_read_only(self, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(small_cache_bytes()[1])
        back = load_cache(path)
        for arr in (back.z, back.scores, back.labels, *back.row_stats):
            assert arr.flags.owndata and arr.flags.c_contiguous and not arr.flags.writeable

    @pytest.mark.parametrize("how", ["rewrite", "replace"])
    def test_file_changes_after_load_leave_arrays_unchanged(self, tmp_path, how):
        cache, data = small_cache_bytes()
        path = tmp_path / "cache.bin"
        path.write_bytes(data)
        back = load_cache(path)
        other = ScoreCache(8, "raw", -cache.z, -cache.scores, 1 - cache.labels).serialize()
        if how == "rewrite":
            with open(path, "r+b") as fh:
                fh.write(other)
        else:
            replacement = tmp_path / "other.bin"
            replacement.write_bytes(other)
            os.replace(replacement, path)
        assert np.array_equal(back.z, cache.z) and np.array_equal(back.scores, cache.scores)
        assert np.array_equal(back.labels, cache.labels)
        assert np.array_equal(load_cache(path).z, -cache.z)

    def test_save_over_a_mapped_file_leaves_the_mapping_whole(self, tmp_path):
        cache, data = small_cache_bytes()
        path = tmp_path / "cache.bin"
        path.write_bytes(data)
        smaller = ScoreCache(8, "raw", cache.z[:2], cache.scores[:2], cache.labels[:2])
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as old:
            save_cache(smaller, path)
            assert old[:] == data  # a truncation in place would shrink the mapped file
        assert path.read_bytes() == smaller.serialize()
        assert os.listdir(tmp_path) == ["cache.bin"]

    def test_failed_save_leaves_no_temporary(self, tmp_path, monkeypatch):
        cache, data = small_cache_bytes()
        path = tmp_path / "cache.bin"
        path.write_bytes(data)

        def fail(*args):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_cache(ScoreCache(8, "raw", cache.z, cache.scores, cache.labels), path)
        assert path.read_bytes() == data and os.listdir(tmp_path) == ["cache.bin"]


class TestWriteAtomic:
    """``save_cache``, ``save_model`` and the CLI's outputs share one writer."""

    def test_preallocates_the_final_size(self, tmp_path, monkeypatch):
        cache, data = small_cache_bytes()
        calls = []
        monkeypatch.setattr(os, "posix_fallocate",
                            lambda fd, offset, length: calls.append((offset, length)), raising=False)
        save_cache(cache, tmp_path / "cache.bin")
        assert calls == [(0, len(data))]
        assert (tmp_path / "cache.bin").read_bytes() == data

    def test_refused_preallocation_writes_the_same_bytes(self, tmp_path, trained, monkeypatch):
        cache, data = small_cache_bytes()
        calls = []

        def refuse(fd, offset, length):
            calls.append(length)
            raise OSError(errno.EOPNOTSUPP, "Operation not supported")

        monkeypatch.setattr(os, "posix_fallocate", refuse, raising=False)
        save_cache(cache, tmp_path / "cache.bin")
        save_model(trained, tmp_path / "model.bin")
        assert calls == [len(data), len(trained.serialize())]
        assert (tmp_path / "cache.bin").read_bytes() == data
        assert (tmp_path / "model.bin").read_bytes() == trained.serialize()
        assert sorted(os.listdir(tmp_path)) == ["cache.bin", "model.bin"]

    def test_concurrent_writers_each_use_their_own_temporary(self, tmp_path, monkeypatch):
        first, first_data = small_cache_bytes()
        second = ScoreCache(8, "raw", -first.z, -first.scores, 1 - first.labels)
        path = tmp_path / "cache.bin"
        opened, resume, errors = threading.Event(), threading.Event(), []
        real_open = builtins.open

        def pausing_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            if threading.current_thread() is writer:  # writer A stops with its temporary open
                opened.set()
                resume.wait(10)
            return fh

        def write_first():
            try:
                save_cache(first, path)
            except BaseException as exc:
                errors.append(exc)

        writer = threading.Thread(target=write_first)
        monkeypatch.setattr(builtins, "open", pausing_open)
        writer.start()
        try:
            assert opened.wait(10)
            save_cache(second, path)  # writer B runs to completion meanwhile
        finally:
            resume.set()
            writer.join(10)
            monkeypatch.undo()
        assert not writer.is_alive() and errors == []
        assert path.read_bytes() == first_data  # A renamed last, over B's whole file
        assert os.listdir(tmp_path) == ["cache.bin"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_file_mode_follows_the_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            save_cache(small_cache_bytes()[0], tmp_path / "cache.bin")
        finally:
            os.umask(old)
        assert (tmp_path / "cache.bin").stat().st_mode & 0o777 == 0o666 & ~umask

    def test_peak_memory_is_one_file_image(self, tmp_path):
        rng = np.random.default_rng(5)
        cache = ScoreCache(1, "raw", rng.normal(size=(2000, 160)), rng.normal(size=(2000, 160)),
                           np.arange(2000) % 10)
        path = tmp_path / "cache.bin"
        tracemalloc.start()
        try:
            save_cache(cache, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 5_000_000
        assert peak <= 1.05 * size

    def test_one_rename_in_the_package(self):
        """A second copy of the writer would bring a second ``os.replace``."""
        package = Path(stein.__file__).parent
        counts = {path.name: path.read_text(encoding="utf-8").count("os.replace")
                  for path in package.rglob("*.py")}
        assert {name: count for name, count in counts.items() if count} == {"stein.py": 1}
        assert "os.replace(" in inspect.getsource(stein._write_atomic)
