"""Small numeric kernel: softmax, its Jacobian, layer norm, finite differences.

Everything here is a pure function over numpy arrays in float64, as is the
rest of the package: models, training and probes all run in f64.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Raised when an input array has the wrong rank or incompatible shape."""


def check_finite(x: np.ndarray, name: str = "array") -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"{name} contains NaN/Inf")


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax of a 1-D vector (max-subtraction is mandatory)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ShapeError(f"softmax expects a 1-D vector, got shape {z.shape}")
    check_finite(z, "softmax input")
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis of an n-D array."""
    z = np.asarray(z)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_jacobian(z: np.ndarray) -> np.ndarray:
    """J[i, j] = p_i (delta_ij - p_j) with p = softmax(z).

    Symmetric, rows sum to zero (probability mass is conserved).
    """
    p = softmax(z)
    return np.diag(p) - np.outer(p, p)


def layer_norm(
    h: np.ndarray,
    gain: np.ndarray | float = 1.0,
    bias: np.ndarray | float = 0.0,
    eps: float = 1e-5,
) -> np.ndarray:
    """Normalize over the last axis using population (biased) variance."""
    h = np.asarray(h)
    mean = h.mean(axis=-1, keepdims=True)
    var = h.var(axis=-1, keepdims=True)
    return gain * (h - mean) / np.sqrt(var + eps) + bias


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xw = x.copy()
    xf = xw.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        fp = float(f(xw))
        xf[i] = orig - eps
        fm = float(f(xw))
        xf[i] = orig
        g = (fp - fm) / (2.0 * eps)
        if not np.isfinite(g):
            raise FloatingPointError(f"finite_diff_grad: non-finite difference at index {i}")
        flat[i] = g
    return grad
