"""Dataset ingestion (IDX image files, CSV) and synthetic generators.

All datasets are collections of equal-length signals with entries in
[0, 1]. Synthetic generators are deterministic per seed and exist to give
desk-scale stand-ins for real image datasets.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "DatasetError",
    "load_idx",
    "synth_dataset",
    "save_dataset_csv",
    "load_dataset_csv",
]

_IDX_IMAGE_MAGIC = 0x00000803
_MAX_BARS = 3  # a bars item has 1 to _MAX_BARS bars
_MAX_BLOBS = 2  # a gaussians item has 1 to _MAX_BLOBS blobs


class DatasetError(ValueError):
    pass


@dataclass
class Dataset:
    items: np.ndarray  # (count, n) float64 in [0, 1]
    shape2d: tuple[int, int] | None
    source: str

    def __post_init__(self):
        self.items = np.atleast_2d(np.asarray(self.items, dtype=np.float64))
        if self.items.shape[0] < 1:
            raise DatasetError("dataset must contain at least one item")
        # NaN fails both comparisons, so a NaN entry is refused too
        if not (self.items.min() >= 0.0 and self.items.max() <= 1.0):
            raise DatasetError("dataset entries must be finite and lie in [0, 1]")
        if self.shape2d is not None:
            h, w = self.shape2d
            if h * w != self.items.shape[1]:
                raise DatasetError(
                    f"shape {self.shape2d} incompatible with width {self.items.shape[1]}"
                )

    def __len__(self) -> int:
        return self.items.shape[0]

    @property
    def n(self) -> int:
        return self.items.shape[1]


def load_idx(path) -> Dataset:
    """Read an IDX image file (big-endian, magic 0x00000803, ubyte pixels).

    Pixels are scaled by 1/255 into [0, 1].
    """
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise DatasetError(f"{path}: truncated IDX header ({len(raw)} bytes)")
    magic, count, rows, cols = struct.unpack_from(">IIII", raw)
    if magic != _IDX_IMAGE_MAGIC:
        raise DatasetError(
            f"{path}: bad IDX magic: expected 0x{_IDX_IMAGE_MAGIC:08x} (images), "
            f"got 0x{magic:08x}"
        )
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise DatasetError(
            f"{path}: payload mismatch: expected {expected} bytes for "
            f"{count}x{rows}x{cols}, got {len(raw)}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).astype(np.float64)
    items = pixels.reshape(count, rows * cols) / 255.0
    return Dataset(items, (rows, cols), source=f"idx:{path}")


def synth_dataset(name: str, n: int, count: int, seed: int, **params) -> Dataset:
    """Deterministic synthetic datasets: bars, gaussians, sparse-combos."""
    if count < 1:
        raise DatasetError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    if name == "bars":
        items, shape = _bars(n, count, rng, **params)
    elif name == "gaussians":
        items, shape = _gaussians(n, count, rng, **params)
    elif name == "sparse-combos":
        items, shape = _sparse_combos(n, count, rng, **params)
    else:
        raise DatasetError(f"unknown synthetic dataset {name!r}")
    return Dataset(items, shape, source=f"synthetic:{name}:{n}:{count}:{seed}")


def _square_side(n: int) -> int:
    side = math.isqrt(n)
    if side * side != n:
        raise DatasetError(f"image generators need a square length, got n={n}")
    return side


def _bars(n, count, rng):
    side = _square_side(n)
    items = np.zeros((count, side, side))
    for i in range(count):
        nbars = int(rng.integers(1, _MAX_BARS + 1))
        for _ in range(nbars):
            idx = int(rng.integers(side))
            if rng.random() < 0.5:
                items[i, idx, :] = 1.0
            else:
                items[i, :, idx] = 1.0
    return items.reshape(count, n), (side, side)


def _gaussians(n, count, rng):
    side = _square_side(n)
    grid = np.arange(side, dtype=np.float64)
    items = np.zeros((count, side, side))
    for i in range(count):
        nblobs = int(rng.integers(1, _MAX_BLOBS + 1))
        for _ in range(nblobs):
            ci, cj = rng.uniform(0, side, size=2)
            width = rng.uniform(0.8, side / 3.0)
            amp = rng.uniform(0.5, 1.0)
            blob = np.exp(
                -((grid[:, None] - ci) ** 2 + (grid[None, :] - cj) ** 2)
                / (2.0 * width**2)
            )
            items[i] += amp * blob
    # clipped in place: a clipped copy would leave a count x n hole in the heap
    return np.clip(items, 0.0, 1.0, out=items).reshape(count, n), (side, side)


def _sparse_combos(n, count, rng, k: int | None = None):
    if k is None:
        k = max(1, n // 16)
    if not 1 <= k <= n:
        raise DatasetError(f"need 1 <= k <= {n}, got k={k}")
    items = np.zeros((count, n))
    for i in range(count):
        support = rng.choice(n, size=k, replace=False)
        vals = rng.uniform(0.0, 1.0, size=k)
        peak = vals.max()
        if peak > 0:
            vals /= peak
        items[i, support] = vals
    return items, None


def save_dataset_csv(ds: Dataset, path) -> None:
    """One item per row; a leading comment row records the image shape."""
    with open(path, "w", encoding="ascii") as fh:
        shape = "" if ds.shape2d is None else f"{ds.shape2d[0]}x{ds.shape2d[1]}"
        fh.write(f"# shape={shape} source={ds.source}\n")
        for row in ds.items:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_dataset_csv(path) -> Dataset:
    shape = None
    source = f"csv:{path}"
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if tok.startswith("shape=") and tok != "shape=":
                        h, w = tok[len("shape=") :].split("x")
                        shape = (int(h), int(w))
                continue
            rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return Dataset(np.asarray(rows), shape, source)
