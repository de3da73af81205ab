"""Linear measurement operators with exact adjoints.

Every operator maps length-n signals to length-m signals along the last
axis: apply takes one signal (n,) or a stack (b, n), one signal per row,
and adjoint likewise takes (m,) or (b, m). Each operator satisfies the
adjoint identity <A u, v> = <u, A^T v> exactly up to floating point. The
pixel-mask and blur operators do the same arithmetic on every row of a
stack as on one signal, so a stack's rows equal the one-signal results bit
for bit. Super-resolution's subsample is split in two: the blur computes
only the image rows that the subsample keeps, and a pixel mask keeps
every factor-th column of them. All operators materialize to a dense
(m, n) matrix for oracle checks; none of them use FFTs (desk-scale sizes
only).
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
        if np.any(kept[1:] == kept[:-1]):  # sorted: repeats are neighbours
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
    """2-D correlation with a kernel under symmetric (mirror) padding,
    keeping every row_step-th output row.

    Gaussian kernels are flip-symmetric, so correlation and convolution
    coincide for them. For a k-by-k kernel K the blur of an h-by-w image X
    factors exactly as F X = sum_a S_a X C_a^T, where S_a is the
    mirror-padded row shift by a and C_a = sum_b K[a, b] T_b folds the
    mirror-padded column shifts T_b into one w-by-w matrix; this holds for
    any kernel, separable or not. `_shifts` stacks the C_a^T into one
    (k w, w) matrix G, built once. The operator computes only output rows
    0, row_step, 2 row_step, ..., so its image is (h / row_step)-by-w and
    row_step = 1 is the full blur: Blur(K, shape, row_step=f) is S_row F
    for the subsample S_row that keeps every f-th row. Apply gathers the k
    mirror-shifted row windows of each kept row into an (h / row_step, k w)
    block and multiplies it by G; the adjoint multiplies by G^T, adds the k
    row-shifted slabs into every row_step-th row of a row-padded
    accumulator and folds its border rows back onto their mirror sources,
    the transpose by construction. Both use a stacked matmul with one GEMM
    of h / row_step rows per image, so a stack's rows equal the one-signal
    results bit for bit, and each kept row has the bits of the full blur's
    row.
    """

    def __init__(self, kernel, shape: tuple[int, int], row_step: int = 1):
        ker = np.asarray(kernel, dtype=np.float64)
        if ker.ndim != 2 or ker.shape[0] != ker.shape[1]:
            raise OperatorError("kernel must be square")
        if ker.shape[0] % 2 == 0:
            raise OperatorError(f"kernel size must be odd, got {ker.shape[0]}")
        h, w = shape
        pad = ker.shape[0] // 2
        if pad > min(h, w):
            raise OperatorError(f"kernel {ker.shape[0]} too large for image {shape}")
        if row_step < 1 or h % row_step:
            raise OperatorError(
                f"row_step must be >= 1 and divide the height {h}, got {row_step}"
            )
        self.kernel = ker
        self.shape2d = (h, w)
        self.pad = pad
        self.row_step = row_step
        self.m = h // row_step * w
        self.n = h * w
        k = ker.shape[0]
        # Mirror source of every padded row and column.
        src_row = np.pad(np.arange(h), pad, mode="symmetric")
        src_col = np.pad(np.arange(w), pad, mode="symmetric")
        # _windows[i * k + a]: source row of kept output row i's a-th
        # kernel row.
        kept = np.arange(0, h, row_step)
        self._windows = src_row[kept[:, None] + np.arange(k)].ravel()
        # Padded rows 0..pad-1 and h+pad.. fold back onto these rows.
        self._top = src_row[:pad]
        self._bottom = src_row[h + pad :]
        # _shifts[a * w + c, j] = C_a^T[c, j] = sum of K[a, b] over the b
        # whose mirrored column src_col[j + b] is c.
        a, b, j = np.meshgrid(np.arange(k), np.arange(k), np.arange(w),
                              indexing="ij")
        shifts = np.zeros((k, w, w))
        np.add.at(shifts, (a, src_col[j + b], j), ker[a, b])
        self._shifts = shifts.reshape(k * w, w)
        # A contiguous copy: the adjoint's matmul runs slower on a .T view.
        self._shifts_t = np.ascontiguousarray(self._shifts.T)

    def _apply(self, x):
        h, w = self.shape2d
        rows = h // self.row_step
        # One contiguous (b, rows k, w) gather of the kept rows' windows,
        # viewed as (b, rows, k w), then one GEMM per image.
        block = x.reshape(-1, h, w).take(self._windows, axis=1)
        out = np.matmul(block.reshape(-1, rows, self._shifts.shape[0]), self._shifts)
        return out.reshape(x.shape[:-1] + (self.m,))

    def _adjoint(self, y):
        h, w = self.shape2d
        k, pad, step = self.kernel.shape[0], self.pad, self.row_step
        rows = np.matmul(y.reshape(-1, h // step, w), self._shifts_t)
        rows = rows.reshape(-1, h // step, k, w)
        acc = np.zeros((rows.shape[0], h + 2 * pad, w))
        for a in range(k):
            acc[:, a : a + h : step] += rows[:, :, a]
        out = acc[:, pad : pad + h]
        out[:, self._top] += acc[:, :pad]
        out[:, self._bottom] += acc[:, h + pad :]
        return np.ascontiguousarray(out).reshape(y.shape[:-1] + (self.n,))


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


def make_superres_operator(shape: tuple[int, int], factor: int, kernel) -> Composition:
    """Low-pass blur followed by subsampling: A = S F, where S keeps the
    top-left pixel of each factor-by-factor block, in row-major order.

    S factors as S_col S_row: the blur computes only the rows that S_row
    keeps (Blur's row_step), and a pixel mask on that (h / factor)-by-w
    grid keeps every factor-th column. The result equals the full blur
    followed by the full subsample bit for bit.
    """
    h, w = shape
    if factor < 1:
        raise OperatorError(f"factor must be >= 1, got {factor}")
    if h % factor or w % factor:
        raise OperatorError(f"shape {shape} not divisible by factor {factor}")
    cols = np.arange(0, w, factor)
    kept = (np.arange(h // factor)[:, None] * w + cols[None, :]).reshape(-1)
    return Composition([PixelMask(kept, h // factor * w),
                        Blur(kernel, shape, row_step=factor)])
