"""End-to-end acceptance suite.

Each test covers one numbered criterion (A1..A10), checks it at its stated
tolerance, and prints a single PASS/FAIL line with the measured values. Run
with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import time

import numpy as np
import pytest

import oracle
from hdexplain.data import gen_two_moons
from hdexplain.errors import StaleCacheError
from hdexplain.evalharness import (
    hit_rate_experiment,
    ksd_shift_experiment,
    label_flip_debug_experiment,
)
from hdexplain.explain import ExplainerConfig, build_cache, explain
from hdexplain.nnet import MLPClassifier, TrainConfig, load_model, save_model, train
from hdexplain import stein
from hdexplain.stein import (
    IMQKernel,
    LinearKernel,
    RBFKernel,
    ScoreCache,
    ksd_ustat,
    load_cache,
    make_stein_points,
    median_heuristic_gamma,
    save_cache,
    stein_gram,
)


def report(criterion, ok, detail):
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def fd_kernel_gradient(kernel, za, zb, wrt, step=1e-6):
    """Central differences of the kernel function: phi(||a - b||^2), or a . b."""
    grad = np.zeros_like(za)
    for j in range(len(za)):
        up_a, up_b, dn_a, dn_b = za.copy(), zb.copy(), za.copy(), zb.copy()
        if wrt == "a":
            up_a[j] += step
            dn_a[j] -= step
        else:
            up_b[j] += step
            dn_b[j] -= step
        grad[j] = (oracle.kernel_value(kernel, up_a, up_b)
                   - oracle.kernel_value(kernel, dn_a, dn_b)) / (2 * step)
    return grad


def fd_trace_hessian(kernel, za, zb, step=1e-4):
    total = 0.0
    for j in range(len(za)):
        terms = []
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            aa, bb = za.copy(), zb.copy()
            aa[j] += sa * step
            bb[j] += sb * step
            terms.append(oracle.kernel_value(kernel, aa, bb))
        total += (terms[0] - terms[1] - terms[2] + terms[3]) / (4 * step**2)
    return total


def rel_err(got, want):
    scale = max(float(np.linalg.norm(np.atleast_1d(want))), 1e-9)
    return float(np.linalg.norm(np.atleast_1d(got) - np.atleast_1d(want))) / scale


@pytest.fixture(scope="module")
def moons():
    return gen_two_moons(500, 0.1, seed=0)


@pytest.fixture(scope="module")
def trained(moons):
    return train(moons, TrainConfig(seed=0))


@pytest.fixture(scope="module")
def raw_cache(trained, moons):
    return build_cache(trained, moons, "raw")


@pytest.fixture(scope="module")
def hit_rate_runs():
    """Noise-injection protocol (30 trials per training point, all 500 points)
    for hd-explain and tracin-last over 5 seeds; rep-sim on seed 0. The
    elapsed wall time of the seed-0 hd-explain run rides along under the
    "protocol_seconds" key."""
    runs = {}
    protocol_seconds = None
    for seed in range(5):
        data = gen_two_moons(500, 0.1, seed)
        model = train(data, TrainConfig(seed=seed))
        cache = build_cache(model, data, "raw")
        kernel = RBFKernel(median_heuristic_gamma(cache.z))
        config = ExplainerConfig(kernel=kernel, variant="raw", top_k=3)
        per_method = {}
        start = time.perf_counter()
        per_method["hd-explain"] = hit_rate_experiment(
            model, data, "noise", 30, data.n, config, seed, method="hd-explain")
        if seed == 0:
            protocol_seconds = time.perf_counter() - start
        per_method["tracin-last"] = hit_rate_experiment(
            model, data, "noise", 30, data.n, config, seed, method="tracin-last")
        if seed == 0:
            per_method["rep-sim"] = hit_rate_experiment(
                model, data, "noise", 30, data.n, config, seed, method="rep-sim")
        runs[seed] = per_method
    runs["protocol_seconds"] = protocol_seconds
    return runs


def test_a1_derivative_suite(trained, moons):
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    def draw_kernel(name):
        if name == "linear":
            return LinearKernel()
        if name == "rbf":
            return RBFKernel(float(rng.uniform(0.1, 2.0)))
        return IMQKernel(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-0.9, -0.1)))

    # the scores come from their own stream, so the kernel and pair draws are unchanged
    score_rng = np.random.default_rng(43)
    max_grad_err = 0.0
    max_trace_err = 0.0
    max_stein_err = 0.0
    for name in ("linear", "rbf", "imq"):
        for _ in range(200):
            kernel = draw_kernel(name)
            za = rng.normal(0, 2, size=4)
            zb = rng.normal(0, 2, size=4)
            fd_a = fd_kernel_gradient(kernel, za, zb, "a")
            fd_b = fd_kernel_gradient(kernel, za, zb, "b")
            fd_trace = fd_trace_hessian(kernel, za, zb)
            max_grad_err = max(max_grad_err, rel_err(oracle.grad_a(kernel, za, zb), fd_a),
                               rel_err(oracle.grad_b(kernel, za, zb), fd_b))
            max_trace_err = max(max_trace_err, rel_err(oracle.trace_hessian(kernel, za, zb), fd_trace))
            # the library's Stein value against one built from finite differences alone
            sa, sb = score_rng.normal(0, 2, size=(2, 4))
            fd_stein = fd_trace + oracle.kernel_value(kernel, za, zb) * (sa @ sb) + fd_a @ sb + fd_b @ sa
            max_stein_err = max(max_stein_err, abs(stein.stein_kernel(kernel, za, sa, zb, sb) - fd_stein)
                                / oracle.term_scale(kernel, za, sa, zb, sb))

    max_model_err = 0.0
    step = 1e-5
    for probe in range(100):
        if probe % 2 == 0:
            model, d = trained, 2
            x = moons.features[int(rng.integers(0, moons.n))] + rng.normal(0, 0.05, 2)
        else:
            d = int(rng.integers(2, 5))
            dims = [d, int(rng.integers(3, 8)), int(rng.integers(2, 4))]
            wts = [rng.normal(0, 0.7, size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
            bss = [rng.normal(0, 0.2, size=b) for b in dims[1:]]
            model = MLPClassifier(dims, wts, bss)
            x = rng.normal(0, 1, size=d)
        y = int(rng.integers(0, model.num_classes))
        fd = np.zeros(d)
        for j in range(d):
            up, dn = x.copy(), x.copy()
            up[j] += step
            dn[j] -= step
            fd[j] = (model.predict_log_proba(up)[y] - model.predict_log_proba(dn)[y]) / (2 * step)
        max_model_err = max(max_model_err, rel_err(model.input_gradient(x, y), fd))

        h = model.representation(x)
        fd_h = np.zeros_like(h)
        for j in range(len(h)):
            up, dn = h.copy(), h.copy()
            up[j] += step
            dn[j] -= step

            def lp(hv, y=y, model=model):
                logits = hv @ model.weights[-1] + model.biases[-1]
                m = logits.max()
                return logits[y] - m - np.log(np.exp(logits - m).sum())

            fd_h[j] = (lp(up) - lp(dn)) / (2 * step)
        max_model_err = max(max_model_err, rel_err(model.rep_gradient(h, y), fd_h))

    elapsed = time.perf_counter() - start
    ok = (max_grad_err <= 1e-6 and max_trace_err <= 1e-4 and max_stein_err <= 1e-4
          and max_model_err <= 1e-4 and elapsed < 30)
    assert report("A1 derivative suite", ok,
                  f"grad {max_grad_err:.2e}<=1e-6, trace {max_trace_err:.2e}<=1e-4, "
                  f"stein {max_stein_err:.2e}<=1e-4, "
                  f"model {max_model_err:.2e}<=1e-4, {elapsed:.1f}s<30s")


def test_a2_stein_identity_oracle():
    start = time.perf_counter()
    kernel = RBFKernel(0.5)

    def points(rng, shift=0.0):
        x = rng.normal(0, 1, size=(1000, 2)) + shift
        return x, -x

    null_ok = 0
    shift_ok = 0
    for seed in range(20):
        null = ksd_ustat(kernel, *points(np.random.default_rng(seed)))
        if abs(null.value) <= 3 * null.std_error:
            null_ok += 1
        shifted = ksd_ustat(kernel, *points(np.random.default_rng(1000 + seed), shift=1.5))
        if shifted.value > 3 * null.std_error:
            shift_ok += 1
    elapsed = time.perf_counter() - start
    ok = null_ok >= 19 and shift_ok >= 19 and elapsed < 30
    assert report("A2 Stein identity oracle", ok,
                  f"null within band {null_ok}/20, shift above band {shift_ok}/20, {elapsed:.1f}s<30s")


def test_a3_psd_property(trained, moons):
    z, scores = make_stein_points(trained, moons.features[:50], moons.labels[:50], "raw")
    kernels = [("linear", LinearKernel()),
               ("rbf", RBFKernel(median_heuristic_gamma(z))),
               ("imq", IMQKernel(1.0, -0.5))]
    worst_sym = 0.0
    worst_ratio = np.inf
    for _, kernel in kernels:
        gram = stein_gram(kernel, z, scores)
        worst_sym = max(worst_sym, float(np.abs(gram - gram.T).max()))
        eigenvalues = np.linalg.eigvalsh((gram + gram.T) / 2)
        worst_ratio = min(worst_ratio, float(eigenvalues.min() / max(eigenvalues.max(), 1e-300)))
    ok = worst_sym <= 1e-10 and worst_ratio >= -1e-6
    assert report("A3 PSD property", ok,
                  f"symmetry {worst_sym:.2e}<=1e-10, min/max eigenvalue {worst_ratio:.2e}>=-1e-6")


def test_a4_estimator_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 40))
        dim = int(rng.integers(1, 6))
        points = [(rng.normal(0, 1, dim), rng.normal(0, 1, dim)) for _ in range(n)]
        z, s = (np.array(rows) for rows in zip(*points))
        kernel = [LinearKernel(), RBFKernel(0.5), IMQKernel(1.0, -0.5)][trial % 3]
        v = stein.ksd_vstat(kernel, z, s).value
        u = stein.ksd_ustat(kernel, z, s).value
        diag = sum(oracle.stein_kernel(kernel, zi, si, zi, si) for zi, si in points)
        rhs = (n - 1) / n * u + diag / n**2
        worst = max(worst, abs(v - rhs) / max(1.0, abs(v)))
    ok = worst <= 1e-10
    assert report("A4 estimator identity", ok, f"max relative defect {worst:.2e}<=1e-10")


def test_a5_desk_scale_hit_rate(hit_rate_runs):
    hd = hit_rate_runs[0]["hd-explain"]
    tracin = hit_rate_runs[0]["tracin-last"]
    rep = hit_rate_runs[0]["rep-sim"]
    elapsed = hit_rate_runs["protocol_seconds"]
    print(f"A5 companion (no floor): tracin-last hit@1={tracin.hit_rate[1]:.3f}, "
          f"rep-sim hit@1={rep.hit_rate[1]:.3f}")
    ok = hd.hit_rate[1] >= 0.80 and elapsed < 300
    assert report("A5 desk-scale hit rate", ok,
                  f"hd-explain hit@1={hd.hit_rate[1]:.3f}>=0.80, "
                  f"RBF median-heuristic, 30 trials x 500 points, {elapsed:.1f}s<300s")


def test_a6_coverage_ordering(hit_rate_runs):
    wins = 0
    details = []
    for seed in range(5):
        methods = hit_rate_runs[seed]
        hd_cov = methods["hd-explain"].coverage[3]
        tracin_cov = methods["tracin-last"].coverage[3]
        wins += hd_cov > tracin_cov
        details.append(f"seed{seed} {hd_cov:.4f} vs {tracin_cov:.4f}")
    ok = wins >= 4
    assert report("A6 coverage ordering", ok, f"hd>tracin at k=3 in {wins}/5 seeds; " + ", ".join(details))


def test_a7_ksd_shift():
    start = time.perf_counter()
    increasing = 0
    for seed in range(20):
        data = gen_two_moons(500, 0.1, seed)
        model = train(data, TrainConfig(seed=seed))
        cache = build_cache(model, data, "raw")
        kernel = RBFKernel(median_heuristic_gamma(cache.z))
        values = [v for _, v in ksd_shift_experiment(model, data, [0.0, 0.25, 0.5], kernel)]
        if values[0] < values[1] < values[2]:
            increasing += 1
    elapsed = time.perf_counter() - start
    ok = increasing >= 19 and elapsed < 120
    assert report("A7 KSD shift", ok, f"strictly increasing in {increasing}/20 seeds, {elapsed:.1f}s<120s")


def test_a8_debugging():
    start = time.perf_counter()
    precisions = []
    for seed in range(10):
        data = gen_two_moons(1000, 0.1, seed)
        run = label_flip_debug_experiment(data, 0.05, TrainConfig(seed=seed), None, seed=seed)
        precisions.append(run.precision_at(50))
    mean_precision = float(np.mean(precisions))
    elapsed = time.perf_counter() - start
    ok = mean_precision >= 0.15 and elapsed < 600
    assert report("A8 debugging", ok,
                  f"mean precision@50={mean_precision:.3f}>=0.15 over 10 seeds "
                  f"(3x the 0.05 random baseline), {elapsed:.1f}s<600s")


def test_a9_query_cost():
    data = gen_two_moons(10000, 0.1, seed=11)
    model = train(data, TrainConfig(seed=11, epochs=10))
    cache = build_cache(model, data, "raw")
    config = ExplainerConfig(kernel=LinearKernel(), variant="raw", top_k=3)

    stein.reset_kernel_eval_count()
    explain(model, cache, data.features[0], config)
    evals = stein.kernel_eval_count()

    times = []
    for i in range(50):
        result = explain(model, cache, data.features[i], config)
        times.append(result.elapsed * 1000.0)
    mean_ms = float(np.mean(times))
    ok = evals == cache.n and mean_ms < 50.0
    assert report("A9 query cost", ok,
                  f"{evals} kernel evals == n={cache.n}, mean query {mean_ms:.2f}ms<50ms")


def test_a10_persistence(trained, moons, raw_cache, tmp_path):
    model_path = tmp_path / "model.bin"
    save_model(trained, model_path)
    model_back = load_model(model_path)
    model_ok = (model_back.serialize() == trained.serialize())

    cache_path = tmp_path / "cache.bin"
    save_cache(raw_cache, cache_path)
    cache_back = load_cache(cache_path)
    cache_ok = (cache_back.serialize() == raw_cache.serialize())

    weights = [w.copy() for w in trained.weights]
    weights[-1][0, 0] = np.nextafter(weights[-1][0, 0], np.inf)
    mutated = MLPClassifier(trained.layer_dims, weights, [b.copy() for b in trained.biases])
    stale_fired = False
    try:
        explain(mutated, cache_back, moons.features[0],
                ExplainerConfig(kernel=LinearKernel(), top_k=1))
    except StaleCacheError:
        stale_fired = True

    ok = model_ok and cache_ok and stale_fired
    assert report("A10 persistence", ok,
                  f"model round trip {model_ok}, cache round trip {cache_ok}, "
                  f"stale detection fired {stale_fired}")
