"""Linear measurement operators with exact adjoints.

Every operator maps length-n signals to length-m signals along the last
axis: apply takes one signal (n,) or a stack (b, n), one signal per row,
and adjoint likewise takes (m,) or (b, m). Each operator satisfies the
adjoint identity <A u, v> = <u, A^T v> exactly up to floating point. The
pixel-mask and blur operators do the same arithmetic on every row of a
stack as on one signal, so a stack's rows equal the one-signal results bit
for bit. All operators materialize to a dense (m, n) matrix for oracle
checks; none of them use FFTs (desk-scale sizes only).
"""

from __future__ import annotations

import numpy as np

from .signals import as_rows

__all__ = [
    "DimensionMismatch",
    "OperatorError",
    "LinearOperator",
    "DenseOperator",
    "PixelMask",
    "Blur",
    "Composition",
    "materialize",
    "gaussian_blur_kernel",
    "make_inpainting_operator",
    "make_subsample_operator",
    "make_superres_operator",
]


class OperatorError(ValueError):
    """Invalid operator construction."""


class DimensionMismatch(ValueError):
    """Operator applied to a signal of the wrong length."""

    def __init__(self, op_name: str, expected: int, got: int):
        super().__init__(f"{op_name}: expected length {expected}, got {got}")
        self.expected = expected
        self.got = got


class LinearOperator:
    """Base class: subclasses set (m, n) and implement _apply/_adjoint on
    signals along the last axis of a 1-D or 2-D array."""

    m: int
    n: int

    def apply(self, x) -> np.ndarray:
        arr = as_rows(x)
        if arr.shape[-1] != self.n:
            raise DimensionMismatch(type(self).__name__, self.n, arr.shape[-1])
        return self._apply(arr)

    def adjoint(self, y) -> np.ndarray:
        arr = as_rows(y)
        if arr.shape[-1] != self.m:
            raise DimensionMismatch(type(self).__name__ + ".adjoint", self.m,
                                    arr.shape[-1])
        return self._adjoint(arr)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Materialize as an (m, n) matrix: row j of _apply(I) is A e_j."""
        return np.ascontiguousarray(self._apply(np.eye(self.n)).T)


def materialize(op) -> np.ndarray:
    """Dense matrix of an operator; ndarrays pass through."""
    if isinstance(op, LinearOperator):
        return op.to_dense()
    return np.asarray(op, dtype=np.float64)


class DenseOperator(LinearOperator):
    """Explicit m-by-n matrix M: signals go through as x @ M.T and y @ M,
    which for one signal equal M @ x and M.T @ y bit for bit."""

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise OperatorError("dense operator needs a 2-D matrix")
        self.matrix = mat
        self._matrix_t = mat.T  # made once, not per call
        self.m, self.n = mat.shape

    def _apply(self, x):
        return x @ self._matrix_t

    def _adjoint(self, y):
        return y @ self.matrix

    def to_dense(self):
        return self.matrix.copy()


class PixelMask(LinearOperator):
    """Selects a fixed set of coordinates; adjoint zero-fills the rest."""

    def __init__(self, kept, n: int):
        kept = np.asarray(sorted(int(i) for i in kept), dtype=np.intp)
        if kept.size == 0:
            raise OperatorError("mask must keep at least one index")
        if kept[0] < 0 or kept[-1] >= n:
            raise OperatorError(f"kept indices out of range for n={n}")
        if np.unique(kept).size != kept.size:
            raise OperatorError("kept indices must be distinct")
        self.kept = kept
        self.m = kept.size
        self.n = n

    def _apply(self, x):
        return x[..., self.kept]

    def _adjoint(self, y):
        out = np.zeros(y.shape[:-1] + (self.n,))
        out[..., self.kept] = y
        return out


class Blur(LinearOperator):
    """2-D correlation with a kernel under symmetric (mirror) padding.

    Gaussian kernels are flip-symmetric, so correlation and convolution
    coincide for them. A stack of signals is blurred as one (b, h, w)
    stack of images. The adjoint scatter-adds each padded contribution
    back to its mirror-source pixel (one bincount over the stack, with
    row r's indices offset by r * n), which is the exact transpose of the
    padded correlation.
    """

    def __init__(self, kernel, shape: tuple[int, int]):
        ker = np.asarray(kernel, dtype=np.float64)
        if ker.ndim != 2 or ker.shape[0] != ker.shape[1]:
            raise OperatorError("kernel must be square")
        if ker.shape[0] % 2 == 0:
            raise OperatorError(f"kernel size must be odd, got {ker.shape[0]}")
        h, w = shape
        pad = ker.shape[0] // 2
        if pad > min(h, w):
            raise OperatorError(f"kernel {ker.shape[0]} too large for image {shape}")
        self.kernel = ker
        self.shape2d = (h, w)
        self.pad = pad
        self.m = self.n = h * w
        # Flat source index of every padded pixel under mirror padding.
        self._pad_index = np.pad(
            np.arange(h * w).reshape(h, w), pad, mode="symmetric"
        )

    def _apply(self, x):
        h, w = self.shape2d
        k = self.kernel.shape[0]
        padded = x[..., self._pad_index]
        out = np.zeros(x.shape[:-1] + (h, w))
        for a in range(k):
            for b in range(k):
                out += self.kernel[a, b] * padded[..., a : a + h, b : b + w]
        return out.reshape(x.shape)

    def _adjoint(self, y):
        h, w = self.shape2d
        k = self.kernel.shape[0]
        rows = y.reshape(-1, h, w)
        acc = np.zeros((rows.shape[0], h + 2 * self.pad, w + 2 * self.pad))
        for a in range(k):
            for b in range(k):
                acc[:, a : a + h, b : b + w] += self.kernel[a, b] * rows
        index = self._pad_index + self.n * np.arange(rows.shape[0])[:, None, None]
        flat = np.bincount(index.ravel(), weights=acc.ravel(),
                           minlength=rows.shape[0] * self.n)
        return flat.reshape(y.shape)


class Composition(LinearOperator):
    """Operator product in matrix order: Composition([S, F]) is S @ F."""

    def __init__(self, ops):
        ops = list(ops)
        if not ops:
            raise OperatorError("composition of zero operators")
        for outer, inner in zip(ops, ops[1:]):
            if outer.n != inner.m:
                raise OperatorError(
                    f"composition dims do not chain: {outer.n} != {inner.m}"
                )
        self.ops = ops
        self.m = ops[0].m
        self.n = ops[-1].n

    def _apply(self, x):
        for op in reversed(self.ops):
            x = op.apply(x)
        return x

    def _adjoint(self, y):
        for op in self.ops:
            y = op.adjoint(y)
        return y


def gaussian_blur_kernel(size: int, sigma_k: float) -> np.ndarray:
    """Normalized size-by-size Gaussian kernel (sum exactly 1)."""
    if size < 1 or size % 2 == 0:
        raise OperatorError(f"kernel size must be odd and >= 1, got {size}")
    if sigma_k <= 0:
        raise OperatorError(f"sigma_k must be > 0, got {sigma_k}")
    half = size // 2
    grid = np.arange(-half, half + 1, dtype=np.float64)
    gauss = np.exp(-(grid[:, None] ** 2 + grid[None, :] ** 2) / (2.0 * sigma_k**2))
    return gauss / gauss.sum()


def make_inpainting_operator(n: int, ratio: float, seed: int) -> PixelMask:
    """Random pixel-deletion mask: `ratio` is the deleted proportion.

    Keeps exactly round(n * (1 - ratio)) indices, chosen uniformly without
    replacement from the seeded generator (half-up rounding).
    """
    if not 0.0 <= ratio < 1.0:
        raise OperatorError(f"ratio must be in [0, 1), got {ratio}")
    keep = int(np.floor(n * (1.0 - ratio) + 0.5))
    if keep < 1:
        raise OperatorError(f"ratio {ratio} deletes every pixel of n={n}")
    rng = np.random.default_rng(seed)
    kept = rng.choice(n, size=keep, replace=False)
    return PixelMask(kept, n)


def make_subsample_operator(shape: tuple[int, int], factor: int) -> PixelMask:
    """Keep the top-left pixel of each factor-by-factor block."""
    h, w = shape
    if factor < 1:
        raise OperatorError(f"factor must be >= 1, got {factor}")
    if h % factor or w % factor:
        raise OperatorError(f"shape {shape} not divisible by factor {factor}")
    rows = np.arange(0, h, factor)
    cols = np.arange(0, w, factor)
    kept = (rows[:, None] * w + cols[None, :]).reshape(-1)
    return PixelMask(kept, h * w)


def make_superres_operator(shape: tuple[int, int], factor: int, kernel) -> Composition:
    """Low-pass blur followed by subsampling: A = S F."""
    return Composition([make_subsample_operator(shape, factor), Blur(kernel, shape)])
