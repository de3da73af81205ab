"""Flat signal vectors, seeded Gaussian noise, PSNR, and signal file formats.

Signals are 1-D float64 vectors; images carry an optional (height, width)
shape and are expected in [0, 1] after explicit clamping only (raw solver
iterates may leave that range). psnr also scores a 2-D stack of signals,
one per row, against one reference in a single call.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Signal",
    "SignalError",
    "NoiseSpec",
    "as_vector",
    "add_noise",
    "psnr",
    "signal_to_csv",
    "signal_from_csv",
    "signal_to_raw",
    "signal_from_raw",
]

# Little-endian 64-bit float payload with an 8-byte length header.
_RAW_HEADER = struct.Struct("<Q")


class SignalError(ValueError):
    """Malformed signal content or mismatched signal dimensions."""


def as_vector(x) -> np.ndarray:
    """Coerce a Signal or array-like to a 1-D float64 vector."""
    if isinstance(x, Signal):
        return x.data
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1:
        vec = vec.reshape(-1)
    return vec


@dataclass(frozen=True)
class Signal:
    """A flat real vector, optionally tagged with a 2-D image shape."""

    data: np.ndarray
    shape2d: tuple[int, int] | None = None

    def __post_init__(self):
        vec = np.asarray(self.data, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "data", vec)
        if vec.size < 1:
            raise SignalError("signal must have length >= 1")
        if not np.all(np.isfinite(vec)):
            raise SignalError("signal entries must be finite")
        if self.shape2d is not None:
            h, w = self.shape2d
            if h * w != vec.size:
                raise SignalError(
                    f"shape {self.shape2d} incompatible with length {vec.size}"
                )

    def __len__(self) -> int:
        return self.data.size

    @property
    def n(self) -> int:
        return self.data.size

    def as_image(self) -> np.ndarray:
        if self.shape2d is None:
            raise SignalError("signal has no 2-D shape")
        return self.data.reshape(self.shape2d)


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
    """Return y + e with e ~ N(0, sigma^2 I) from a PCG64 generator."""
    vec = as_vector(y)
    if spec.sigma == 0.0:
        return vec.copy()
    rng = np.random.default_rng(spec.seed)
    return vec + spec.sigma * rng.standard_normal(vec.size)


def psnr(x, ref):
    """PSNR in dB against a [0,1]-peak reference: 10*log10(1 / MSE).

    x is one signal (gives a float) or a 2-D array holding a stack of
    signals, one per row (gives an array whose entry i equals
    psnr(x[i], ref) bit for bit). The value is math.inf where a signal
    matches the reference exactly (MSE = 0).
    """
    rv = as_vector(ref)
    xs = x.data if isinstance(x, Signal) else np.asarray(x, dtype=np.float64)
    if xs.ndim != 2:
        xs = xs.reshape(-1)
    if xs.shape[-1] != rv.size:
        raise SignalError(f"length mismatch: {xs.shape[-1]} vs {rv.size}")
    d = xs - rv
    mse = np.mean(d * d, axis=-1)
    db = [math.inf if m == 0.0 else 10.0 * math.log10(1.0 / m)
          for m in np.atleast_1d(mse).tolist()]
    return np.asarray(db) if xs.ndim == 2 else db[0]


def signal_to_csv(sig: Signal, path) -> None:
    """Write one value per CSV cell, row-major; one row per image row."""
    if sig.shape2d is not None:
        rows = sig.as_image()
    else:
        rows = sig.data.reshape(1, -1)
    with open(path, "w", encoding="ascii") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def signal_from_csv(path) -> Signal:
    rows: list[list[float]] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise SignalError(f"{path}: bad CSV cell: {exc}") from None
    if not rows:
        raise SignalError(f"{path}: empty signal file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SignalError(f"{path}: ragged CSV rows")
    data = np.asarray(rows, dtype=np.float64)
    shape = (len(rows), width) if len(rows) > 1 else None
    return Signal(data.reshape(-1), shape)


def signal_to_raw(sig: Signal, path) -> None:
    """Raw binary: u64 little-endian length header, then float64 LE data."""
    payload = np.ascontiguousarray(sig.data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(sig.n))
        fh.write(payload)


def signal_from_raw(path) -> Signal:
    blob = Path(path).read_bytes()
    if len(blob) < _RAW_HEADER.size:
        raise SignalError(f"{path}: truncated header ({len(blob)} bytes)")
    (count,) = _RAW_HEADER.unpack_from(blob)
    expected = _RAW_HEADER.size + 8 * count
    if len(blob) != expected:
        raise SignalError(
            f"{path}: expected {expected} bytes for {count} values, got {len(blob)}"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=_RAW_HEADER.size).astype(np.float64)
    return Signal(data)
