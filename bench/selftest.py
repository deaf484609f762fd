"""Self-test of the benchmark's reference code on a tiny fixture.

Each reference formula is compared with a computation that shares none of its
algebra (finite differences, scalar loops, hand-worked values), so a broken
reference fails here instead of silently passing or failing the program's
outputs. ``run.py`` runs this before every workload; it also runs alone:

    python3 bench/selftest.py
"""

from __future__ import annotations

import struct
import sys

import numpy as np

import reference as ref


def _expect(ok, what: str) -> None:
    # an explicit raise, so the self-test also runs under ``python -O``
    if not ok:
        raise AssertionError(f"reference self-test failed: {what}")


def _tiny_model(rng, dims=(3, 4, 5, 3)):
    weights = [rng.normal(0.0, 0.7, size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(0.0, 0.3, size=b) for b in dims[1:]]
    return weights, biases


def _fd_grad(f, x, step=1e-6):
    grad = np.zeros_like(x)
    for j in range(x.size):
        up, dn = x.copy(), x.copy()
        up[j] += step
        dn[j] -= step
        grad[j] = (f(up) - f(dn)) / (2.0 * step)
    return grad


def check_scores(rng):
    weights, biases = _tiny_model(rng)
    x = rng.normal(size=(4, 3))
    y = np.array([0, 2, 1, 2])
    Z, S = ref.scored_points(weights, biases, x, y, "raw")
    for i in range(4):
        def logp_y(v, i=i):
            return ref.forward(weights, biases, v[None, :])[1][0, y[i]]
        _expect(np.allclose(S[i, :3], _fd_grad(logp_y, x[i]), atol=1e-7), "raw input gradient")
        _expect(np.allclose(Z[i, 3:], np.eye(3)[y[i]]) and np.allclose(Z[i, :3], x[i]), "raw z")
    Zl, Sl = ref.scored_points(weights, biases, x, y, "last-layer")
    h = np.tanh(np.tanh(x @ weights[0] + biases[0]) @ weights[1] + biases[1])
    for i in range(4):
        def logp_h(v, i=i):
            logits = v @ weights[2] + biases[2]
            return logits[y[i]] - np.log(np.exp(logits).sum())
        _expect(np.allclose(Sl[i, :5], _fd_grad(logp_h, h[i]), atol=1e-7), "last-layer gradient")
        _expect(np.allclose(Zl[i, :5], h[i]), "last-layer z")
        _expect(np.isclose(np.exp(Sl[i, 5:]).sum(), 1.0), "log-probabilities")


def check_stein(rng):
    gamma = 0.37
    Z = rng.normal(size=(5, 3))
    S = rng.normal(size=(5, 3))

    def k(a, b):
        return np.exp(-gamma * ((a - b) ** 2).sum())

    def brute(a, sa, b, sb, step=1e-4):
        grad_a = _fd_grad(lambda v: k(v, b), a)
        grad_b = _fd_grad(lambda v: k(a, v), b)
        trace = 0.0
        for j in range(a.size):
            e = np.zeros(a.size)
            e[j] = step
            trace += (k(a + e, b + e) - k(a + e, b - e) - k(a - e, b + e) + k(a - e, b - e)) / (4 * step**2)
        return trace + k(a, b) * (sa @ sb) + grad_a @ sb + grad_b @ sa

    profile = ref.stein_rbf_profile(Z, S, Z[1], S[1], gamma)
    expected = np.array([brute(Z[i], S[i], Z[1], S[1]) for i in range(5)])
    _expect(np.allclose(profile, expected, rtol=1e-5, atol=1e-6), "Stein profile vs finite differences")
    gram = ref.stein_rbf_gram(Z, S, gamma)
    rows = np.array([ref.stein_rbf_profile(Z, S, Z[i], S[i], gamma) for i in range(5)])
    _expect(np.allclose(gram, rows.T, rtol=1e-12, atol=1e-12), "Gram vs profiles")
    _expect(np.allclose(gram, gram.T, rtol=1e-12, atol=1e-12), "Gram symmetry")
    _expect(np.allclose(np.diag(gram), ref.rbf_self_influence(S, gamma), rtol=1e-12), "self-influence")


def check_small_formulas():
    pts = np.array([[0.0], [1.0], [3.0]])  # distances 1, 2, 3: median 2
    _expect(ref.median_gamma(pts) == 1.0 / 8.0, "median heuristic")
    _expect(ref.median_gamma(np.zeros((3, 2))) == 1.0, "median heuristic fallback")
    reps = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    resid = np.array([[0.5, -0.5], [-0.25, 0.25], [1.0, -1.0]])
    scores = ref.tracin_scores(reps, resid, np.array([2.0, 1.0]), np.array([1.0, -1.0]))
    _expect(np.allclose(scores, [2.0, -1.0, 0.0]), "TracIn")
    _expect(np.allclose(ref.cosine_scores(reps, np.array([3.0, 4.0])), [0.6, 0.8, 0.0]), "cosine")
    _expect(ref.fnv1a_64(b"") == 0xCBF29CE484222325 and ref.fnv1a_64(b"a") == 0xAF63DC4C8601EC8C, "FNV-1a")


def check_ranking():
    values = np.array([0.5, 2.0, 1.0, 2.0, -3.0])
    _expect(ref.ranking_error([1, 3, 2], values[[1, 3, 2]], values, 3) is None, "exact top-3")
    _expect(ref.ranking_error([3, 1, 2], None, values, 3) is None, "tie swap allowed")
    _expect(ref.ranking_error([1, 2, 3], None, values, 3) is not None, "wrong order")
    _expect(ref.ranking_error([1, 3, 0], None, values, 3) is not None, "wrong member")
    _expect(ref.ranking_error([1, 3, 2], [2.0, 2.0, 1.1], values, 3) is not None, "wrong value")
    _expect(ref.ranking_error([1, 1, 2], None, values, 3) is not None, "duplicate index")


def check_cache_reader():
    z = np.arange(6.0).reshape(2, 3)
    s = -z
    record = np.dtype([("z", "<f8", (3,)), ("score", "<f8", (3,)), ("label", "<u4")])
    body = np.zeros(2, dtype=record)
    body["z"], body["score"], body["label"] = z, s, [1, 0]
    data = b"HDXC" + struct.pack("<IBQQQ", 1, 0, 0x1234, 2, 3) + body.tobytes()
    doc = ref.read_cache_file(data)
    _expect(doc["variant"] == "raw" and doc["fingerprint"] == 0x1234 and doc["version"] == 1, "header")
    _expect(np.array_equal(doc["z"], z) and np.array_equal(doc["scores"], s), "arrays")
    _expect(doc["labels"].tolist() == [1, 0], "labels")


def run() -> None:
    rng = np.random.default_rng(1234)
    check_scores(rng)
    check_stein(rng)
    check_small_formulas()
    check_ranking()
    check_cache_reader()


if __name__ == "__main__":
    run()
    print("reference self-test passed")
    sys.exit(0)
