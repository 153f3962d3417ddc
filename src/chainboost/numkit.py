"""Small numeric kernel: a vector norm, softmax, its Jacobian, layer norm.

Everything here is a pure function over numpy arrays in float64, as is the
rest of the package: models, training and probes all run in f64.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Raised when an input array has the wrong rank or incompatible shape."""


def check_finite(x: np.ndarray, name: str = "array") -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"{name} contains NaN/Inf")


def vector_norm(v: np.ndarray) -> float:
    """The 2-norm of a 1-D float64 vector as math.sqrt(v.dot(v)): what
    np.linalg.norm(v) computes for one, with the same bits, minus its
    argument handling."""
    return math.sqrt(v.dot(v))


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax of a 1-D vector (max-subtraction is mandatory)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ShapeError(f"softmax expects a 1-D vector, got shape {z.shape}")
    check_finite(z, "softmax input")
    return softmax_rows(z)


def softmax_rows(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise stable softmax over the last axis of an n-D array, shifted,
    exponentiated and normalised in the one array it allocates, or in out
    when given (out may be z itself, a float64 array its caller no longer
    reads); z is otherwise only read. The max and the sum call the ufunc
    reductions that z.max and e.sum would run, so their bits are the same,
    except that many short rows (at least 24 rows per column, 2 to 16
    columns, at most 2**18 entries) take _folded_max's, for the same bits
    again. The row max is its own array, so out=z gives the bits of the
    call without out."""
    z = np.asarray(z, dtype=np.float64)
    cols = z.shape[-1]
    # the fold's rule, in the order that rejects a decode step's few rows first
    if 24 * cols * cols <= z.size <= 2**18 and 1 < cols <= 16:
        e = np.subtract(z, _folded_max(z), out=out)
    else:
        e = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _folded_max(z: np.ndarray) -> np.ndarray:
    """The (..., 1) row max of z as np.maximum folded over its columns.

    np.maximum.reduce over a short last axis pays about 0.07 us per row; the
    fold pays about 1 us per column, and little per row while the array
    stays in cache. Measured crossovers (numpy 2.4, one core), in rows per
    column: 12 at 2 columns, 16-24 at 4-8, 21-26 at 10-24, 32-48 at 32-48;
    at 64 columns the fold never won, and at 65,536 rows of 16 it lost 9%:
    hence softmax_rows' rule.

    Max does not depend on order, so against np.maximum.reduce only the
    sign of a zero max can differ, which flips only the sign of a zero in
    z - max, and exp(-0) = exp(+0) = 1. Both give a row that holds a NaN a
    NaN max, but not always of the same sign, so a fold that meets a NaN
    (m . m is NaN) returns the reduce's max instead."""
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j : j + 1], out=m)
    flat = m.ravel()
    if math.isnan(flat.dot(flat)):
        return np.maximum.reduce(z, axis=-1, keepdims=True)
    return m


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
