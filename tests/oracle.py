"""Scalar reference for the Stein kernel, one pair of length-D vectors at a time.

The library computes Stein values only through the closed form of its fused
core (``stein._stein_values`` over pairwise inner products). This module
builds the same quantity the direct way, term by term,

    trace(grad_a grad_b k) + k (s_a . s_b) + grad_a k . s_b + grad_b k . s_a,

with each term derived from a kernel's ``radial(r2) -> (phi, phi', phi'')``
(or the dot product, for the linear kernel) by the chain rule:
grad_a k = 2 phi' (a - b) = -grad_b k and trace = -2 D phi' - 4 r2 phi''.
The tests compare the core against it.
"""

import numpy as np

from hdexplain.stein import LinearKernel


def _pair(za, zb):
    za = np.asarray(za, dtype=np.float64)
    zb = np.asarray(zb, dtype=np.float64)
    if za.ndim != 1 or zb.ndim != 1 or za.shape != zb.shape:
        raise ValueError(f"arguments must be equal-length vectors, got {za.shape} and {zb.shape}")
    return za, zb


def _radial(kernel, za, zb):
    """``(a - b, r2, phi, phi', phi'')`` of a radial kernel at the pair."""
    za, zb = _pair(za, zb)
    diff = za - zb
    r2 = float(diff @ diff)
    return (diff, r2, *kernel.radial(r2))


def kernel_value(kernel, za, zb) -> float:
    """k(a, b): ``a . b``, or ``phi(||a - b||^2)``."""
    if isinstance(kernel, LinearKernel):
        za, zb = _pair(za, zb)
        return float(za @ zb)
    return float(_radial(kernel, za, zb)[2])


def grad_a(kernel, za, zb) -> np.ndarray:
    if isinstance(kernel, LinearKernel):
        return _pair(za, zb)[1].copy()
    diff, _, _, k1, _ = _radial(kernel, za, zb)
    return 2.0 * k1 * diff


def grad_b(kernel, za, zb) -> np.ndarray:
    if isinstance(kernel, LinearKernel):
        return _pair(za, zb)[0].copy()
    return -grad_a(kernel, za, zb)


def trace_hessian(kernel, za, zb) -> float:
    """Sum over coordinates of the mixed second derivative d2k/da_i db_i."""
    if isinstance(kernel, LinearKernel):
        return float(_pair(za, zb)[0].shape[0])
    diff, r2, _, k1, k2 = _radial(kernel, za, zb)
    return float(-2.0 * diff.shape[0] * k1 - 4.0 * r2 * k2)


def _terms(kernel, za, sa, zb, sb):
    za, sa = _pair(za, sa)
    zb, sb = _pair(zb, sb)
    if za.shape != zb.shape:
        raise ValueError(f"dimension mismatch: {za.shape[0]} vs {zb.shape[0]}")
    return (trace_hessian(kernel, za, zb),
            kernel_value(kernel, za, zb) * float(sa @ sb),
            float(grad_a(kernel, za, zb) @ sb),
            float(grad_b(kernel, za, zb) @ sa))


def stein_kernel(kernel, za, sa, zb, sb) -> float:
    """Stein kernel value of the scored points ``(za, sa)`` and ``(zb, sb)``."""
    trace, product, cross_a, cross_b = _terms(kernel, za, sa, zb, sb)
    return float(trace + product + cross_a + cross_b)


def term_scale(kernel, za, sa, zb, sb) -> float:
    """Sum of the magnitudes of the four Stein terms: the scale that rounding
    in either path is relative to, also where the terms cancel."""
    return float(sum(abs(term) for term in _terms(kernel, za, sa, zb, sb)))
