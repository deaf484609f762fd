"""Base kernels and their radial profiles, model scored points, the
Stein-operator-augmented kernel, and kernelized Stein discrepancy estimators.

Scored points are matching ``(n, D)`` arrays: rows ``Z`` and their scores
``S``. The Stein kernel of two scored points ``(z_a, s_a)`` and ``(z_b, s_b)`` is

    trace(grad_a grad_b k)  +  k * (s_a . s_b)
    +  grad_a k . s_b       +  grad_b k . s_a

which is symmetric and positive semi-definite for the kernels below. For a
classifier, ``z = [x || onehot(y)]`` and the score concatenates the gradient
of the class-y log-probability with the full log-probability vector; see
:func:`make_stein_points`. Training points carry their ground-truth label,
test points the model's prediction.

Every kernel here is radial, ``k = phi(r2)`` with ``r2 = ||z_a - z_b||^2``, or
the dot product, so a Stein value is a closed form in inner products (Liu, Lee
& Jordan, ICML 2016; Gorham & Mackey, ICML 2017 for IMQ):

    radial:  -2 D phi' - 4 r2 phi'' + phi (s_a . s_b)
             + 2 phi' [(z_a - z_b) . s_b - (z_a - z_b) . s_a]
    linear:  D + (z_a . z_b)(s_a . s_b) + z_b . s_b + z_a . s_a

Against a block of queries these are two matrix products over the cached rows
plus per-row ``||z||^2`` and ``z . s``. At r2 = 0 a radial kernel gives
``-2 D phi'(0) + phi(0) ||s||^2``: self-influence ranking with RBF or IMQ is
exactly a ranking by score norm.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import numbers
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ModelFormatError, UnsupportedVariantError

__all__ = [
    "BaseKernel",
    "LinearKernel",
    "RadialKernel",
    "RBFKernel",
    "IMQKernel",
    "kernel_by_name",
    "ScoreCache",
    "make_stein_points",
    "stein_kernel",
    "stein_kernel_profile",
    "stein_gram",
    "KSDEstimate",
    "ksd_vstat",
    "ksd_ustat",
    "median_heuristic_gamma",
    "local_scale_gamma",
    "save_cache",
    "load_cache",
    "reset_kernel_eval_count",
    "kernel_eval_count",
]

# Instrumentation: number of Stein-kernel pair evaluations since the last
# reset. A profile over n cached points counts n.
_EVAL_COUNT = 0


def reset_kernel_eval_count() -> None:
    global _EVAL_COUNT
    _EVAL_COUNT = 0


def kernel_eval_count() -> int:
    return _EVAL_COUNT


def _count_evals(n: int) -> None:
    global _EVAL_COUNT
    _EVAL_COUNT += n


class BaseKernel:
    """A base kernel, which holds only its parameters. The Stein core
    (:func:`_stein_values`) evaluates it in closed form, so it must be a
    :class:`LinearKernel` or a :class:`RadialKernel`, else ``ValueError``
    before any Stein value; :func:`kernel_by_name` builds one from its name.
    """


class LinearKernel(BaseKernel):
    """k(a, b) = a . b; the trace of the mixed Hessian is the dimension."""


class RadialKernel(BaseKernel):
    """k(a, b) = phi(||a - b||^2); subclasses define ``radial``. By the chain
    rule grad_a k = 2 phi' (a - b) = -grad_b k and the trace of the mixed
    Hessian is -2 D phi' - 4 r2 phi''."""

    def radial(self, r2):
        """``(phi, phi', phi'')`` at squared distance(s) ``r2``."""
        raise NotImplementedError


class RBFKernel(RadialKernel):
    """k(a, b) = exp(-gamma * ||a - b||^2)."""

    def __init__(self, gamma: float):
        self.gamma = _positive_finite("gamma", gamma)

    def radial(self, r2):
        k = np.exp(-self.gamma * r2)
        k1 = -self.gamma * k
        return k, k1, -self.gamma * k1


class IMQKernel(RadialKernel):
    """Inverse multi-quadric kernel k(a, b) = (c^2 + ||a - b||^2)^beta, -1 < beta < 0."""

    def __init__(self, c: float = 1.0, beta: float = -0.5):
        self.c = _positive_finite("c", c)
        self.beta = _finite_real("beta", beta, "must lie in (-1, 0)", -1.0, 0.0)

    def radial(self, r2):
        base = self.c**2 + r2
        k = base**self.beta
        k1 = self.beta * k / base
        return k, k1, (self.beta - 1.0) * k1 / base


def kernel_by_name(name: str, gamma: float | None = None, c: float = 1.0,
                   beta: float = -0.5) -> BaseKernel:
    """Build a kernel from its exact registry name: ``linear``, ``rbf``, or ``imq`` (not ``RBF``).

    ``rbf`` requires ``gamma``; callers usually supply the median heuristic.
    """
    if name == "linear":
        return LinearKernel()
    if name == "rbf":
        if gamma is None:
            raise ValueError("rbf kernel needs a gamma (use median_heuristic_gamma)")
        return RBFKernel(gamma)
    if name == "imq":
        return IMQKernel(c=c, beta=beta)
    raise ValueError(f"unknown kernel {name!r}; expected linear, rbf, or imq")


def _check_kernel(kernel, *, optional: bool = False) -> None:
    """``ValueError`` unless ``kernel`` is a :class:`LinearKernel` or a
    :class:`RadialKernel`, the two forms the Stein core evaluates (or None,
    when ``optional``)."""
    if not (isinstance(kernel, (LinearKernel, RadialKernel)) or optional and kernel is None):
        raise ValueError(f"kernel must be a LinearKernel or a RadialKernel (see kernel_by_name), "
                         f"got {kernel!r}")


# the scored-point variants, in the order of their cache file codes
_VARIANTS = ("raw", "last-layer")


def _check_variant(variant) -> None:
    if variant not in _VARIANTS:
        raise UnsupportedVariantError(f"unknown variant {variant!r}; expected 'raw' or 'last-layer'")


def _count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int, else ``ValueError``: an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


def _finite_real(name: str, value, rule: str, low: float, high: float = math.inf, *,
                 closed: bool = False) -> float:
    """``value`` as a float, else ``ValueError`` ("``name`` ``rule``, got
    ``value``"): a finite real, not a bool or a string, above ``low`` (or at
    it, when ``closed``) and below ``high``."""
    real = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    if not (math.isfinite(real) and (low <= real if closed else low < real) and real < high):
        raise ValueError(f"{name} {rule}, got {value!r}")
    return real


def _positive_finite(name: str, value) -> float:
    """``value`` as a float, else ``ValueError``: a finite positive real."""
    return _finite_real(name, value, "must be positive and finite", 0.0)


def _non_negative_finite(name: str, value) -> float:
    """``value`` as a float, else ``ValueError``: a finite non-negative real."""
    return _finite_real(name, value, "must be non-negative and finite", 0.0, closed=True)


def _class_labels(labels, n: int, classes: int) -> np.ndarray:
    """``labels`` as a contiguous ``(n,)`` int64 array, else ``ValueError``:
    each must be a whole number in ``[0, classes)``. They are checked as
    float64 before the cast, which would truncate 0.5 and wrap 1e30 silently."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must be a vector with one entry per row, shape ({n},), got {labels.shape}")
    values = labels.astype(np.float64)
    if not ((values == np.floor(values)) & (values >= 0) & (values < classes)).all():  # NaN fails
        raise ValueError(f"labels must be whole numbers in [0, {classes})")
    return np.ascontiguousarray(labels, dtype=np.int64)


def make_stein_points(model, x, y, variant: str = "raw"):
    """Batch score construction: returns (Z, S) arrays of shape (n, D), the
    points of one :meth:`MLPClassifier.score` pass (a ``(d,)`` row gives
    ``(1, D)`` arrays); ``y=None`` completes each row with its predicted class.

    raw:        z = [x || onehot(y)],  s = [dlogp_y/dx      || log p(.|x)]
    last-layer: z = [h || onehot(y)],  s = [dlogp_y/dh      || log p(.|x)]
    with h the final hidden representation.
    """
    return model.score(np.atleast_2d(np.asarray(x, np.float64)), y, variant)[2:]


def stein_kernel(kernel: BaseKernel, za, sa, zb, sb) -> float:
    """Stein kernel value of the scored points ``(za, sa)`` and ``(zb, sb)``,
    all length-D vectors: the one-pair case of :func:`stein_kernel_profile`."""
    rows, row_scores = (np.asarray(v, dtype=np.float64)[None] for v in (za, sa))
    return float(stein_kernel_profile(kernel, rows, row_scores, zb, sb)[0])


# see _sq_dists: the tolerated expansion error is eps / _NEAR (ten ulps)
_NEAR = 0.1
# Values per chunk of the elementwise stage of _stein_block (see _chunks; a
# chunk may hold up to n - 1 more) and per batch of near-pair differences in
# _sq_dists. On every block the library makes (at most 2^18 values, or one
# row) each temporary is then under 126 KiB of float64, below glibc's 128 KiB
# mmap threshold, so its scratch is reused from the heap (not mapped and
# page-faulted afresh, as an (m, n) temporary is) and stays in L2.
_CHUNK_VALUES = 1 << 13
# Values of cache rows per tile of a one-query block's products in _stein_block
# (256 KiB of float64), and values per row block of a Gram (_gram_blocks).
# Kept apart from _CHUNK_VALUES: the tiles and blocks split the products, the
# chunks only the elementwise stage.
_TILE_VALUES = 1 << 15


def _scored_rows(z, scores):
    """``z`` and ``scores`` as float64 (n, D) matrices of one shape with n >= 1."""
    z = np.asarray(z, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if z.ndim != 2 or z.shape != scores.shape or z.shape[0] < 1:
        raise ValueError(f"z and scores must be matching (n, D) matrices with n >= 1, "
                         f"got {z.shape} and {scores.shape}")
    return z, scores


def _row_stats(z: np.ndarray, scores: np.ndarray):
    """Per-row ``(||z||^2, z . s)`` of matching (n, D) matrices."""
    return np.einsum("ij,ij->i", z, z), np.einsum("ij,ij->i", z, scores)


def _stein_values(kernel: BaseKernel, dim: int, r2, zq, st, zt, sq, zs, qt, out):
    """Stein values of rows (z, s) against queries (q, t), from ``r2`` and the
    inner products named by their factors (``zq = z.q``, ...), written into
    ``out``; the arguments broadcast to its shape. The closed forms

        linear:  dim + zq st + qt + zs
        radial:  k st - 2 dim k1 - 4 r2 k2 + 2 k1 ((zt - qt) - (zs - sq))

    are evaluated operation by operation, in this order, into ``out`` and two
    scratch arrays: the values are those of the expressions, without a
    temporary per operation or a copy into ``out``.
    """
    if isinstance(kernel, LinearKernel):
        np.multiply(zq, st, out=out)
        for term in (dim, qt, zs):
            np.add(out, term, out=out)
        return out
    k, k1, k2 = kernel.radial(r2)
    t, u = np.empty_like(out), np.empty_like(out)
    np.multiply(k, st, out=out)
    np.subtract(out, np.multiply(2.0 * dim, k1, out=t), out=out)
    np.subtract(out, np.multiply(np.multiply(4.0, r2, out=t), k2, out=t), out=out)
    np.subtract(np.subtract(zt, qt, out=t), np.subtract(zs, sq, out=u), out=t)
    return np.add(out, np.multiply(np.multiply(2.0, k1, out=u), t, out=t), out=out)


def _near_scale(kernel: RadialKernel, zz, qq):
    """``l2 = phi(0) / |phi'(0)|`` (1 / gamma for RBF), the scale of the
    near-pair test in :func:`_sq_dists`, or None when no pair of rows with
    norms ``zz`` and queries with norms ``qq`` can pass it: r2 >= 0 and
    rounding is monotone, so none can when ``l2 >= _NEAR (max ||z||^2 +
    max ||q||^2)``. A NaN in the norms fails that test, so the search runs.
    """
    k0, k1, _ = kernel.radial(0.0)
    l2 = k0 / abs(k1)
    return None if l2 >= _NEAR * (zz.max() + qq.max()) else l2


def _sq_dists(rows, queries, zz, qq, zq, l2) -> np.ndarray:
    """Squared distances ``||z||^2 + ||q||^2 - 2 z.q`` of query rows against
    rows, shaped as ``zq``, clipped at 0.

    Its rounding error, about eps (||z||^2 + ||q||^2), moves the kernel by that
    over ``l2 + r2`` (``l2`` from :func:`_near_scale`). Where that exceeds
    eps / _NEAR -- near pairs under a kernel narrow against the points' norms
    -- r2 is recomputed as ``||z - q||^2``. With ``l2`` None no pair can be
    near, and the search is skipped.
    """
    scale = zz + qq
    r2 = np.multiply(2.0, zq)
    np.maximum(np.subtract(scale, r2, out=r2), 0.0, out=r2)
    if l2 is None:
        return r2
    j, i = np.nonzero(r2 + l2 < _NEAR * scale)
    step = max(1, _CHUNK_VALUES // rows.shape[1])
    for c in range(0, i.size, step):
        diff = rows[i[c:c + step]] - queries[j[c:c + step]]
        r2[j[c:c + step], i[c:c + step]] = np.einsum("ij,ij->i", diff, diff)
    return r2


def _chunks(m: int, n: int):
    """``(r, c)`` slices that partition an (m, n) block for the elementwise
    stage: ``ceil(m n / _CHUNK_VALUES)`` runs of whole rows, or, when a row
    holds more than ``_CHUNK_VALUES`` values, each row in ``ceil(n /
    _CHUNK_VALUES)`` pieces. Runs and pieces are split evenly (their sizes
    differ by at most one), so no block ends in a sliver of a chunk; a chunk
    holds fewer than ``_CHUNK_VALUES + n`` values."""
    runs, pieces = min(m, -(-m * n // _CHUNK_VALUES)), -(-n // _CHUNK_VALUES)
    for a in range(runs):
        r = slice(a * m // runs, (a + 1) * m // runs)
        for b in range(pieces):
            yield r, slice(b * n // pieces, (b + 1) * n // pieces)


def _stein_block(kernel: BaseKernel, rows, row_scores, row_stats, queries, query_scores,
                 query_stats, out=None) -> np.ndarray:
    """(m, n) Stein values of query rows (Q, T) against rows (Z, S), counting
    n * m pair evaluations, written into ``out`` when given (an (m, n)
    float64 array). The stats are each side's ``(||z||^2, z.s)``; the
    products are ``[Q; T] @ Z^T`` and ``[Q; T] @ S^T`` (linear: Q Z^T, T S^T).

    The elementwise stage runs over the chunks of :func:`_chunks` (runs of
    whole rows, or pieces of one row when a row holds more than
    ``_CHUNK_VALUES`` values) written into the result, so its scratch is
    bounded by the chunk. The chunks only partition elementwise operations:
    the values do not depend on the chunk size.

    Radial products with one query (m == 1) are computed over tiles of at most
    ``_TILE_VALUES`` values of rows: with a 2-row left operand OpenBLAS takes
    its packed GEMM path, which is slower per row over the whole cache than
    over tiles of a few hundred KiB (README). A one-query value may then
    differ in its last bits from the same pair in a block of several queries,
    whose products stay whole (tiling gains less as the block grows and
    loses from about eight queries); the linear kernel's 1-row products
    already run as GEMV.
    """
    _check_kernel(kernel)
    (m, dim), n = queries.shape, rows.shape[0]
    _count_evals(n * m)
    (zz, zs), (qq, qt) = row_stats, (v[:, None] for v in query_stats)
    linear = isinstance(kernel, LinearKernel)
    if linear:
        zq, st = queries @ rows.T, query_scores @ row_scores.T
    else:
        left = np.concatenate([queries, query_scores])
        if m == 1:
            with_z, with_s = np.empty((2, n)), np.empty((2, n))
            step = max(1, _TILE_VALUES // dim)
            for b in range(0, n, step):
                c = slice(b, b + step)
                np.matmul(left, rows[c].T, out=with_z[:, c])
                np.matmul(left, row_scores[c].T, out=with_s[:, c])
        else:
            with_z, with_s = left @ rows.T, left @ row_scores.T
        zq, zt, sq, st = with_z[:m], with_z[m:], with_s[:m], with_s[m:]
        l2 = _near_scale(kernel, zz, qq)
    if out is None:
        out = np.empty((m, n))
    for r, c in _chunks(m, n):
        if linear:
            _stein_values(kernel, dim, None, zq[r, c], st[r, c], None, None, zs[c], qt[r], out[r, c])
        else:
            r2 = _sq_dists(rows[c], queries[r], zz[c], qq[r], zq[r, c], l2)
            _stein_values(kernel, dim, r2, zq[r, c], st[r, c], zt[r, c], sq[r, c], zs[c], qt[r],
                          out[r, c])
    return out


def _stein_diagonal(kernel: BaseKernel, scores, row_stats) -> np.ndarray:
    """Self Stein values k_p(p_i, p_i), the r2 = 0 case; counts n evaluations."""
    _check_kernel(kernel)
    zz, zs = row_stats
    _count_evals(scores.shape[0])
    ss = np.einsum("ij,ij->i", scores, scores)
    return _stein_values(kernel, scores.shape[1], 0.0, zz, ss, zs, zs, zs, zs, np.empty(len(zz)))


def stein_kernel_profile(kernel: BaseKernel, rows, row_scores, z, score, *,
                         row_stats=None) -> np.ndarray:
    """Stein kernel of every cached row against one scored point.

    ``rows``/``row_scores`` are (n, D); ``z``/``score`` are (D,). Returns a
    length-n vector, counting n pair evaluations. ``row_stats`` are the rows'
    ``(||z||^2, z.s)`` when already known (``ScoreCache.row_stats``).
    """
    rows, row_scores = _scored_rows(rows, row_scores)
    z = np.asarray(z, dtype=np.float64)
    score = np.asarray(score, dtype=np.float64)
    if z.shape != (rows.shape[1],) or score.shape != z.shape:
        raise ValueError("z and score must be length-D vectors")
    if row_stats is None:
        row_stats = _row_stats(rows, row_scores)
    query, query_score = z[None, :], score[None, :]
    return _stein_block(kernel, rows, row_scores, row_stats, query, query_score,
                        _row_stats(query, query_score))[0]


def _gram_blocks(kernel: BaseKernel, rows, row_scores, gram=None):
    """Walk the Stein Gram of the scored rows (n, D) in row blocks: yields
    ``(a, block)``, ``block`` the (h, n) values of rows ``a:a + h`` against
    all n rows, one :func:`_stein_block` call each. The height is
    ``max(1, _TILE_VALUES // n)``, so a block holds at most ``_TILE_VALUES``
    values (or one row) and its two (2h, n) products at most four times that
    (1 MiB), where a whole Gram's products are (2n, n) each. Each block is written into its rows of ``gram`` when given, else
    into one scratch block that the next block overwrites.
    """
    n = rows.shape[0]
    stats = _row_stats(rows, row_scores)
    height = max(1, _TILE_VALUES // n)
    scratch = np.empty((min(height, n), n)) if gram is None else None
    for a in range(0, n, height):
        r = slice(a, min(a + height, n))
        out = scratch[:r.stop - a] if gram is None else gram[r]
        yield a, _stein_block(kernel, rows, row_scores, stats, rows[r], row_scores[r],
                              (stats[0][r], stats[1][r]), out=out)


def stein_gram(kernel: BaseKernel, rows, row_scores) -> np.ndarray:
    """Full (n, n) Stein-kernel Gram matrix of the scored rows (n, D),
    counting n^2 pair evaluations. It is filled in row blocks of at most
    ``_TILE_VALUES`` values, so beyond the result it holds one block's
    products and scratch."""
    rows, row_scores = _scored_rows(rows, row_scores)
    gram = np.empty((rows.shape[0], rows.shape[0]))
    for _ in _gram_blocks(kernel, rows, row_scores, gram):
        pass
    return gram


class KSDEstimate(NamedTuple):
    """A discrepancy estimate with the standard error of the U-statistic.

    ``std_error`` is the square root of the order-2 U-statistic variance
    ``2 / (n (n - 1)) [2 (n - 2) zeta1 + zeta2]`` (Hoeffding 1948; Serfling
    1980, 5.2), estimated from sums over the Gram's row blocks (no n x n
    array is made): ``zeta2`` is the variance of the off-diagonal pair values
    and ``zeta1`` the variance of the Gram row means over j != i, less
    ``zeta2 / (n - 1)`` and clipped at 0. Under the null ``zeta1`` vanishes;
    under a shift its term dominates. 0 for n < 3.
    """

    value: float
    std_error: float


def _ksd_sums(kernel: BaseKernel, rows, row_scores):
    """``(V value, U value, std_error)`` of the scored rows (n, D), reduced
    from the Gram's row blocks: per block the diagonal, the row sums, and the
    sum and sum of squares of the off-diagonal values about a shift ``c``,
    the first block's off-diagonal mean. Summing about ``c`` keeps the
    squares stable when the mean is large against the spread (shifted data;
    Chan, Golub & LeVeque, 1983). The U value is NaN for n < 2; a non-finite
    Stein value gives non-finite results, without numpy warnings.
    """
    n = rows.shape[0]
    diag, row_sums = np.empty(n), np.empty(n)
    shift = dev_sum = dev_squares = 0.0
    with np.errstate(all="ignore"):
        for a, block in _gram_blocks(kernel, rows, row_scores):
            h = block.shape[0]
            r, on_diag = slice(a, a + h), (np.arange(h), np.arange(a, a + h))
            diag[r] = block[on_diag]
            row_sums[r] = block.sum(axis=1)
            if a == 0 and n > 1:
                shift = (row_sums[r].sum() - diag[r].sum()) / (h * (n - 1))
            # the block is scratch: its diagonal set to c adds nothing below
            block[on_diag] = shift
            dev = np.subtract(block, shift, out=block).ravel()
            dev_sum += dev.sum()
            dev_squares += dev @ dev
        total, off = float(row_sums.sum()), n * (n - 1)
        ustat = (total - float(diag.sum())) / off if n > 1 else math.nan
        std_error = 0.0
        if n > 2:
            # off-diagonal squares about their own mean, each pair counted twice
            zeta2 = max((dev_squares - dev_sum * dev_sum / off) / 2.0, 0.0) / (off // 2 - 1)
            row_means = (row_sums - diag) / (n - 1)
            zeta1 = max(row_means.var(ddof=1) - zeta2 / (n - 1), 0.0)
            std_error = math.sqrt(2.0 / off * (2.0 * (n - 2) * zeta1 + zeta2))
    return total / n**2, ustat, float(std_error)


def _finite_estimate(value: float, std_error: float) -> KSDEstimate:
    if not (math.isfinite(value) and math.isfinite(std_error)):
        raise ArithmeticError("the KSD of these scored points is not finite "
                              "(their Stein values overflow or are not finite)")
    return KSDEstimate(value, std_error)


def ksd_vstat(kernel: BaseKernel, z, scores) -> KSDEstimate:
    """V-statistic estimate: the mean of the full Stein Gram matrix of the
    scored rows (n, D). It is reduced from the Gram's row blocks (no n x n
    array is made); a non-finite value or ``std_error`` raises
    ``ArithmeticError``."""
    z, scores = _scored_rows(z, scores)
    vstat, _, std_error = _ksd_sums(kernel, z, scores)
    return _finite_estimate(vstat, std_error)


def ksd_ustat(kernel: BaseKernel, z, scores) -> KSDEstimate:
    """U-statistic estimate: the mean over off-diagonal pairs of the scored
    rows (n, D), n >= 2. It is reduced from the Gram's row blocks (no n x n
    array is made); a non-finite value or ``std_error`` raises
    ``ArithmeticError``."""
    z, scores = _scored_rows(z, scores)
    if z.shape[0] < 2:
        raise ValueError("U-statistic needs at least 2 points")
    _, ustat, std_error = _ksd_sums(kernel, z, scores)
    return _finite_estimate(ustat, std_error)


# the bandwidth rules' uniform subsample: at most this many rows, drawn with this seed
_GAMMA_MAX_POINTS, _GAMMA_SEED = 1000, 0


def _subsample_sq_dists(z_vectors, rule: str) -> np.ndarray:
    """Squared pairwise distances of at most ``_GAMMA_MAX_POINTS`` rows
    (uniform seeded subsample), clipped at 0."""
    z = np.asarray(z_vectors, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.shape[0] < 2:
        raise ValueError(f"{rule} needs at least 2 points")
    if z.shape[0] > _GAMMA_MAX_POINTS:
        z = z[np.random.default_rng(_GAMMA_SEED).choice(z.shape[0], _GAMMA_MAX_POINTS, replace=False)]
    sq_norms = np.einsum("ij,ij->i", z, z)
    gram = z @ z.T
    gram *= 2.0
    sq_dists = np.add.outer(sq_norms, sq_norms)
    sq_dists -= gram  # (|z_i|^2 + |z_j|^2) - 2 z_i.z_j
    return np.clip(sq_dists, 0.0, None, out=sq_dists)


def _median_sqrt(v: np.ndarray) -> float:
    """``np.median(np.sqrt(v))`` of a vector of non-negative values, bit for bit.

    sqrt is monotone, so the middle roots are the roots of the middle values;
    for an even count np.median returns the mean of the two. One partition at
    the lower middle rank selects it exactly; every value to its right is at
    least as large, so the upper middle value is their minimum. ``v`` is left
    unchanged. A non-finite value takes the full median.
    """
    # a NaN or inf anywhere makes the sum non-finite
    if not np.isfinite(v.sum()):
        return float(np.median(np.sqrt(v)))
    lo = (v.size - 1) // 2
    part = np.partition(v, lo)
    low = np.sqrt(part[lo])
    return float(low if v.size % 2 else (low + np.sqrt(part[lo + 1:].min())) / 2.0)


def _gamma_for_scale(m: float) -> float:
    """gamma = 1 / (2 m^2), or 1 when the scale ``m`` is 0 (all points coincide)."""
    return 1.0 if m == 0.0 else 1.0 / (2.0 * m * m)


def median_heuristic_gamma(z_vectors) -> float:
    """RBF bandwidth rule gamma = 1 / (2 m^2) with m the median pairwise distance.

    At most 1000 rows are kept (uniform seeded subsample). Falls
    back to gamma = 1 when all points coincide. The median is selected
    exactly; it equals ``np.median`` of the distances bit for bit.
    """
    sq_dists = _subsample_sq_dists(z_vectors, "median heuristic")
    r = np.arange(sq_dists.shape[0])
    return _gamma_for_scale(_median_sqrt(sq_dists[r[:, None] < r]))


def local_scale_gamma(z_vectors) -> float:
    """RBF bandwidth from the nearest-neighbor scale: gamma = 1 / (2 m^2) with
    m the median nearest-neighbor distance.

    The global median heuristic tracks the diameter of the point cloud; in
    low-dimensional data that is orders of magnitude coarser than the spacing
    between individual points, and a kernel that wide cannot distinguish a
    point from its neighbors. Use this rule when retrieval should resolve
    individual training points. Falls back to gamma = 1 when points coincide.
    """
    sq_dists = _subsample_sq_dists(z_vectors, "local scale")
    np.fill_diagonal(sq_dists, np.inf)
    return _gamma_for_scale(_median_sqrt(sq_dists.min(axis=1)))


CACHE_MAGIC = b"HDXC"
CACHE_VERSION = 1
_VARIANT_CODES = {v: i for i, v in enumerate(_VARIANTS)}
_VARIANT_NAMES = dict(enumerate(_VARIANTS))
_CACHE_HEADER = "<IBQQQ"  # after the magic: version, variant, fingerprint, n, D
_CACHE_HEADER_SIZE = 4 + struct.calcsize(_CACHE_HEADER)


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("z", "<f8", (dim,)), ("score", "<f8", (dim,)), ("label", "<u4")])


@dataclass
class ScoreCache:
    """Precomputed scored points for a training set, keyed to one model.

    ``z`` and ``scores`` are (n, D); ``labels`` holds the ground-truth class
    of each record, whole numbers in ``[0, 2**32)`` (the file's u4 range),
    else ``ValueError``. ``variant`` is ``raw`` or ``last-layer``, else
    ``UnsupportedVariantError``. The fingerprint ties the cache to the exact
    model whose scores it holds; consumers must reject mismatches.
    ``row_stats``, the per-row ``(||z||^2, z.s)``, is derived here and not
    written to the file. Like a ``Dataset``, it keeps C-contiguous float64
    ``z`` and ``scores`` and int64 ``labels`` uncopied and read-only in place.
    """

    model_fingerprint: int
    variant: str
    z: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    row_stats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_variant(self.variant)
        self.z, self.scores = map(np.ascontiguousarray, _scored_rows(self.z, self.scores))
        # the file stores labels as u4: a wider label would wrap when saved
        self.labels = _class_labels(self.labels, self.z.shape[0], 2**32)
        self.row_stats = _row_stats(self.z, self.scores)
        # a NaN or inf anywhere in z or s makes ||z||^2 or z.s non-finite (as do
        # values too large to square, which the Stein core cannot use either)
        if not all(np.isfinite(v).all() for v in self.row_stats):
            raise ValueError("cache z and scores must be finite")
        for arr in (self.z, self.scores, self.labels, *self.row_stats):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def dim(self) -> int:
        return self.z.shape[1]

    def serialize(self) -> bytearray:
        """The v1 file image, built in one buffer: the header, then one
        ``(z, score, label)`` record per row filled in place."""
        n, dim = self.z.shape
        record = _record_dtype(dim)
        out = bytearray(_CACHE_HEADER_SIZE + n * record.itemsize)
        out[:4] = CACHE_MAGIC
        struct.pack_into(_CACHE_HEADER, out, 4, CACHE_VERSION, _VARIANT_CODES[self.variant],
                         self.model_fingerprint, n, dim)
        body = np.frombuffer(out, dtype=record, count=n, offset=_CACHE_HEADER_SIZE)
        body["z"] = self.z
        body["score"] = self.scores
        body["label"] = self.labels
        return out

    @classmethod
    def deserialize(cls, data) -> "ScoreCache":
        """Parse a v1 binary from ``data`` (bytes or any buffer, such as an
        mmap); the arrays are copied out of it and hold no reference to it."""
        header_size = _CACHE_HEADER_SIZE
        if len(data) < header_size:
            raise ModelFormatError("cache binary truncated before header")
        if data[:4] != CACHE_MAGIC:
            raise ModelFormatError(f"bad cache magic {data[:4]!r}, expected {CACHE_MAGIC!r}")
        version, variant_code, fingerprint, n, dim = struct.unpack(_CACHE_HEADER, data[4:header_size])
        if version != CACHE_VERSION:
            raise ModelFormatError(f"unsupported cache version {version}")
        if variant_code not in _VARIANT_NAMES:
            raise ModelFormatError(f"unknown cache variant code {variant_code}")
        # check the count and size first: numpy cannot build a record dtype for
        # every dim a header holds
        if n == 0:
            raise ModelFormatError("cache binary holds no records")
        expected = header_size + n * (16 * dim + 4)
        if len(data) != expected:
            raise ModelFormatError(f"cache binary has {len(data)} bytes, expected {expected}")
        body = np.frombuffer(data, dtype=_record_dtype(dim), count=n, offset=header_size)
        z, scores, labels = body["z"].copy(), body["score"].copy(), body["label"].astype(np.int64)
        # release the buffer before validating: a traceback holding ``body``
        # would keep an mmap from closing
        del body
        try:
            return cls(model_fingerprint=fingerprint, variant=_VARIANT_NAMES[variant_code],
                       z=z, scores=scores, labels=labels)
        except ValueError as exc:
            raise ModelFormatError(f"invalid cache contents: {exc}") from exc


def _write_atomic(path, data) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same
    directory and a rename: a reader, such as a process that has the old
    file mapped, sees the old file or the new one, never a partial one.

    Each call creates its own temporary (exclusively, mode 0o666 less the
    umask), so concurrent writers of one path cannot write into each other's
    file; the last rename wins. The temporary is removed on any failure. Its
    final size is reserved before writing, because on ext4 renaming a file
    whose blocks are not yet allocated over an existing one starts writeback
    inside the rename (``auto_da_alloc``); where the filesystem refuses, the
    write goes ahead without it. Nothing is fsynced.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    # O_BINARY: Windows would otherwise translate newlines
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb") as fh:
            if hasattr(os, "posix_fallocate"):
                with contextlib.suppress(OSError):  # also EINVAL for empty data
                    os.posix_fallocate(fd, 0, len(data))
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_cache(cache: ScoreCache, path) -> None:
    """Write a cache file atomically (see ``_write_atomic``), so a reader
    that has the old file mapped never sees it shrink."""
    _write_atomic(path, cache.serialize())


def load_cache(path) -> ScoreCache:
    """Read a cache file: it is mapped read-only and its arrays copied out once."""
    try:
        with open(path, "rb") as fh:
            # an empty file cannot be mapped; pipes and FIFOs report size 0 too
            if os.fstat(fh.fileno()).st_size == 0:
                return ScoreCache.deserialize(fh.read())
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
                return ScoreCache.deserialize(data)
    except OSError as exc:
        raise ModelFormatError(f"cannot read cache file {path}: {exc}") from exc
