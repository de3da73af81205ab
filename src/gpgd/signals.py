"""Flat signal vectors, seeded Gaussian noise, and PSNR.

Signals are 1-D float64 vectors; images are flattened row-major and are
expected in [0, 1] after explicit clamping only (raw solver iterates may
leave that range). A 2-D array is a stack of signals, one per row:
operators, projectors and the solver take one through `as_rows`, and psnr
scores one against one reference in a single call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignalError",
    "NoiseSpec",
    "as_rows",
    "row_norms",
    "add_noise",
    "psnr",
]


class SignalError(ValueError):
    """Malformed signal content or mismatched signal dimensions."""


def as_rows(x) -> np.ndarray:
    """Coerce an array-like to float64 signals on the last axis:
    one signal (n,) or a stack of signals (b, n), one per row; more axes
    are an error."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1 or arr.ndim == 2:
        return arr
    if arr.ndim == 0:
        return arr.reshape(1)
    raise SignalError(f"expected a signal or a 2-D stack of signals, got shape "
                      f"{arr.shape}")


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of X (of X itself when 1-D); equals
    np.linalg.norm(row) bit for bit, which a plain einsum does not."""
    return np.sqrt(np.vecdot(X, X))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise: standard deviation sigma, explicit seed.

    sigma is a standard deviation (e ~ N(0, sigma^2 I)); some sources call
    the same parameter a "variance" informally.
    """

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise SignalError(f"sigma must be >= 0, got {self.sigma}")


def add_noise(y, spec: NoiseSpec) -> np.ndarray:
    """Return y + e with e ~ N(0, sigma^2 I) from a PCG64 generator, in
    y's shape: one signal or a stack, one per row, whose noise is one
    row-major draw."""
    vec = as_rows(y)
    if spec.sigma == 0.0:
        return vec.copy()
    rng = np.random.default_rng(spec.seed)
    return vec + spec.sigma * rng.standard_normal(vec.shape)


def psnr(x, ref):
    """PSNR in dB against a [0,1]-peak reference: 10*log10(1 / MSE).

    x is one signal (gives a float) or a 2-D array holding a stack of
    signals, one per row (gives an array whose entry i equals
    psnr(x[i], ref) bit for bit). The value is math.inf where a signal
    matches the reference exactly (MSE = 0).
    """
    rv = np.asarray(ref, dtype=np.float64).reshape(-1)
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim != 2:
        xs = xs.reshape(-1)
    if xs.shape[-1] != rv.size:
        raise SignalError(f"length mismatch: {xs.shape[-1]} vs {rv.size}")
    d = xs - rv
    mse = np.mean(d * d, axis=-1)
    db = [math.inf if m == 0.0 else 10.0 * math.log10(1.0 / m)
          for m in np.atleast_1d(mse).tolist()]
    return np.asarray(db) if xs.ndim == 2 else db[0]

