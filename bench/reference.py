"""Reference computations for the benchmark's output checks.

Everything here is written from the definitions with numpy alone and imports
nothing from hdexplain, so a check compares the program against a second,
separately written computation rather than against a stored copy of earlier
output.

Definitions used (``z = [x || onehot(y)]``, ``s = [d log p_y / dx || log p]``
for the raw variant; the last-layer variant replaces ``x`` by the final hidden
activations ``h``):

* RBF kernel ``k(a, b) = exp(-gamma ||a - b||^2)``;
* Stein kernel ``k_p(a, b) = tr(d_a d_b k) + k s_a.s_b + d_a k.s_b + d_b k.s_a``;
* median heuristic ``gamma = 1 / (2 m^2)``, ``m`` the median pairwise distance
  over at most 1000 rows (``default_rng(0).choice`` subsample);
* KSD V-statistic: the mean of the Stein Gram matrix;
* RBF self-influence: ``k_p(a, a) = 2 gamma D + ||s_a||^2``;
* TracIn (last layer): ``(r_i . r_t)(h_i . h_t)`` with ``r = softmax - onehot``;
* representer similarity: cosine of final hidden activations (0 for a zero norm).
"""

from __future__ import annotations

import struct

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a_64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) % (1 << 64)
    return h


def forward(weights, biases, x):
    """Hidden activations ``[x, h_1, ..., h_L]`` and class log-probabilities."""
    acts = [np.atleast_2d(np.asarray(x, dtype=np.float64))]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.tanh(acts[-1] @ w + b))
    logits = acts[-1] @ weights[-1] + biases[-1]
    top = logits.max(axis=1, keepdims=True)
    logp = logits - top - np.log(np.exp(logits - top).sum(axis=1, keepdims=True))
    return acts, logp


def scored_points(weights, biases, x, y, variant):
    """``(Z, S)`` of shape (n, D) for inputs ``x`` completed with labels ``y``."""
    acts, logp = forward(weights, biases, x)
    n, classes = logp.shape
    y = np.asarray(y, dtype=np.int64).reshape(n)
    onehot = np.zeros((n, classes))
    onehot[np.arange(n), y] = 1.0
    # d log p_y / d logits = onehot(y) - p
    grad = onehot - np.exp(logp)
    if variant == "last-layer":
        front = acts[-1]
        grad = grad @ weights[-1].T
    else:
        front = acts[0]
        for i in range(len(weights) - 1, 0, -1):
            grad = (grad @ weights[i].T) * (1.0 - acts[i] ** 2)
        grad = grad @ weights[0].T
    return np.hstack([front, onehot]), np.hstack([grad, logp])


def predict(weights, biases, x):
    """Predicted labels (argmax, lowest index on ties) and probabilities."""
    _, logp = forward(weights, biases, x)
    return logp.argmax(axis=1), np.exp(logp)


def stein_rbf_profile(Z, S, z, s, gamma):
    """Stein kernel of every row ``(Z_i, S_i)`` against one point ``(z, s)``."""
    diff = Z - z
    r2 = (diff * diff).sum(axis=1)
    k = np.exp(-gamma * r2)
    dim = Z.shape[1]
    trace = 2.0 * gamma * dim - 4.0 * gamma**2 * r2
    # d_a k = -2 gamma (a - b) k with a the row; d_b k = -d_a k
    grad_a_dot_s = -2.0 * gamma * (diff @ s)
    grad_b_dot_row = 2.0 * gamma * (diff * S).sum(axis=1)
    return k * (trace + S @ s + grad_a_dot_s + grad_b_dot_row)


def stein_rbf_gram(Z, S, gamma):
    """Full Stein Gram matrix from inner products (no per-row loop)."""
    sq = (Z * Z).sum(axis=1)
    zs = (Z * S).sum(axis=1)
    ZZ = Z @ Z.T
    ZS = Z @ S.T  # ZS[i, j] = Z_i . S_j
    r2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * ZZ, 0.0)
    k = np.exp(-gamma * r2)
    dim = Z.shape[1]
    # (Z_i - Z_j).S_j = ZS_ij - zs_j ;  (Z_i - Z_j).S_i = zs_i - ZS_ji
    cross = -2.0 * gamma * (ZS - zs[None, :]) + 2.0 * gamma * (zs[:, None] - ZS.T)
    return k * (2.0 * gamma * dim - 4.0 * gamma**2 * r2 + S @ S.T + cross)


def rbf_self_influence(S, gamma):
    return 2.0 * gamma * S.shape[1] + (S * S).sum(axis=1)


def median_gamma(Z, max_points=1000, seed=0):
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[0] > max_points:
        Z = Z[np.random.default_rng(seed).choice(Z.shape[0], size=max_points, replace=False)]
    dists = [np.sqrt(((Z[i + 1:] - Z[i]) ** 2).sum(axis=1)) for i in range(Z.shape[0] - 1)]
    m = float(np.median(np.concatenate(dists)))
    return 1.0 if m == 0.0 else 1.0 / (2.0 * m * m)


def last_layer_features(weights, biases, x, y):
    """Final hidden activations and softmax-minus-onehot residuals."""
    acts, logp = forward(weights, biases, x)
    resid = np.exp(logp)
    resid[np.arange(resid.shape[0]), np.asarray(y, dtype=np.int64)] -= 1.0
    return acts[-1], resid


def tracin_scores(reps, resid, rep_t, resid_t):
    return (resid @ resid_t) * (reps @ rep_t)


def cosine_scores(reps, rep_t):
    norms = np.sqrt((reps * reps).sum(axis=1))
    norm_t = float(np.sqrt(rep_t @ rep_t))
    scores = np.zeros(reps.shape[0])
    ok = norms > 0
    if norm_t > 0:
        scores[ok] = (reps[ok] @ rep_t) / (norms[ok] * norm_t)
    return scores


def ranking_error(indices, values, ref, k, rtol=1e-9):
    """Why ``(indices, values)`` is not the top-k of ``ref``, or None.

    The expected order is by value descending, ties by ascending index. Two
    entries whose reference values agree within ``rtol`` (relative to the
    largest top-k magnitude) may appear in either order, since a last-digit
    difference between two correct computations can swap them.
    """
    ref = np.asarray(ref, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape != (k,):
        return f"expected {k} indices, got {indices.shape}"
    if len(set(indices.tolist())) != k or indices.min() < 0 or indices.max() >= ref.shape[0]:
        return f"indices are not {k} distinct rows: {indices.tolist()}"
    order = np.lexsort((np.arange(ref.shape[0]), -ref))[:k]
    tol = rtol * max(float(np.abs(ref[order]).max()), np.finfo(float).tiny)
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
        bad = np.abs(values - ref[indices]) > tol
        if bad.any():
            i = int(np.argmax(bad))
            return f"value {values[i]!r} at row {indices[i]} differs from reference {ref[indices[i]]!r}"
    if np.any(np.abs(ref[indices] - ref[order]) > tol):
        return f"ranking {indices.tolist()} differs from reference {order.tolist()}"
    return None


def close(a, b, rtol=1e-9):
    """Arrays agree within ``rtol`` of the reference's largest magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    scale = max(float(np.abs(b).max()) if b.size else 0.0, np.finfo(float).tiny)
    return bool(np.all(np.abs(a - b) <= rtol * scale))


CACHE_HEADER = "<IBQQQ"


def read_cache_file(data: bytes):
    """Parse an ``HDXC`` version-1 cache: header then ``(z, score, label)`` records."""
    head = 4 + struct.calcsize(CACHE_HEADER)
    if data[:4] != b"HDXC":
        raise ValueError(f"bad magic {data[:4]!r}")
    version, variant, fingerprint, n, dim = struct.unpack(CACHE_HEADER, data[4:head])
    record = np.dtype([("z", "<f8", (dim,)), ("score", "<f8", (dim,)), ("label", "<u4")])
    if len(data) != head + n * record.itemsize:
        raise ValueError(f"{len(data)} bytes, expected {head + n * record.itemsize}")
    body = np.frombuffer(data, dtype=record, count=n, offset=head)
    return {
        "version": version,
        "variant": {0: "raw", 1: "last-layer"}.get(variant),
        "fingerprint": fingerprint,
        "z": body["z"],
        "scores": body["score"],
        "labels": body["label"].astype(np.int64),
    }

