import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpgd
from gpgd.signals import SignalError

from gpgd.operators import (
    Blur,
    Composition,
    DenseOperator,
    DimensionMismatch,
    OperatorError,
    PixelMask,
    gaussian_blur_kernel,
    materialize,
    make_inpainting_operator,
    make_superres_operator,
)


def _mirror_conv_oracle(x_img, kernel):
    """Direct 2-D correlation with mirror padding, written independently
    (explicit loops, index reflection by hand)."""
    h, w = x_img.shape
    k = kernel.shape[0]
    p = k // 2

    def src(i, size):
        # edge-inclusive mirror: ... 1 0 | 0 1 2 ... n-1 | n-1 n-2 ...
        if i < 0:
            return -i - 1
        if i >= size:
            return 2 * size - i - 1
        return i

    out = np.zeros_like(x_img)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a in range(k):
                for b in range(k):
                    ii = src(i + a - p, h)
                    jj = src(j + b - p, w)
                    acc += kernel[a, b] * x_img[ii, jj]
            out[i, j] = acc
    return out


def all_operator_kinds():
    rng = np.random.default_rng(42)
    kernel = gaussian_blur_kernel(3, 0.8)
    ops = [
        DenseOperator(rng.standard_normal((5, 8))),
        PixelMask([0, 2, 5], n=7),
        Blur(kernel, (6, 6)),
        make_superres_operator((8, 8), 2, kernel),
        make_inpainting_operator(30, 0.4, seed=7),
        Composition([PixelMask([1, 3], n=4), DenseOperator(rng.standard_normal((4, 6)))]),
        Blur(rng.standard_normal((5, 5)), (2, 7)),
        Blur(kernel, (8, 6), row_step=2),
    ]
    return ops


ALL_KINDS = range(len(all_operator_kinds()))


def test_apply_dense_identity():
    op = DenseOperator(np.eye(3))
    assert np.array_equal(op.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_apply_pixel_mask_selects():
    op = PixelMask([0, 2], n=3)
    assert np.array_equal(op.apply([5.0, 6.0, 7.0]), [5.0, 7.0])


def test_blur_impulse_reproduces_kernel():
    kernel = gaussian_blur_kernel(3, 0.8)
    op = Blur(kernel, (7, 7))
    x = np.zeros((7, 7))
    x[3, 3] = 1.0
    out = op.apply(x.reshape(-1)).reshape(7, 7)
    oracle = _mirror_conv_oracle(x, kernel)
    assert np.max(np.abs(out - oracle)) <= 1e-15
    # gaussian kernels are flip-symmetric, so the impulse response is the
    # kernel itself, centered
    assert np.allclose(out[2:5, 2:5], kernel, atol=1e-15)


def test_blur_matches_loop_oracle_random():
    kernel = gaussian_blur_kernel(5, 1.3)
    op = Blur(kernel, (8, 8))
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal((8, 8))
        out = op.apply(x.reshape(-1)).reshape(8, 8)
        assert np.max(np.abs(out - _mirror_conv_oracle(x, kernel))) <= 1e-13


def test_adjoint_dense_identity():
    op = DenseOperator(np.eye(3))
    assert np.array_equal(op.adjoint([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_adjoint_pixel_mask_zero_fills():
    op = PixelMask([0, 2], n=3)
    assert np.array_equal(op.adjoint([5.0, 7.0]), [5.0, 0.0, 7.0])


@pytest.mark.parametrize("kept", [[0, 2, 2], [5, 0, 3, 0], [4, 4]])
def test_pixel_mask_rejects_repeated_indices(kept):
    # kept indices are sorted first, so a repeat sits next to its twin
    # wherever it was given
    with pytest.raises(OperatorError, match="distinct"):
        PixelMask(kept, n=6)


def test_pixel_mask_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use (about 1 MB of resident
    # memory); building a mask must not pull it into a solve's process.
    # Only what building adds is checked, so a numpy that imports numpy.ma
    # itself does not fail this test.
    code = (
        "import sys\n"
        "from gpgd.operators import PixelMask, make_inpainting_operator\n"
        "before = 'numpy.ma' in sys.modules\n"
        "PixelMask([3, 0, 2], n=5)\n"
        "make_inpainting_operator(64, 0.6, 0)\n"
        "assert before or 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = str(Path(gpgd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_blur_subsample_adjoint_is_dense_transpose():
    kernel = gaussian_blur_kernel(3, 1.0)
    op = make_superres_operator((4, 4), 2, kernel)
    dense = op.to_dense()
    rng = np.random.default_rng(0)
    y = rng.standard_normal(op.m)
    assert np.max(np.abs(op.adjoint(y) - dense.T @ y)) <= 1e-12


def test_gaussian_kernel_size_one():
    assert np.array_equal(gaussian_blur_kernel(1, 2.0), [[1.0]])


def test_gaussian_kernel_flat_limit():
    k = gaussian_blur_kernel(3, 1e6)
    assert np.max(np.abs(k - 1.0 / 9.0)) <= 1e-6


def test_gaussian_kernel_center_value():
    # oracle: evaluate exp(-(i^2+j^2)/(2 sigma^2)) on the grid, normalize
    grid = np.arange(-2, 3, dtype=float)
    raw = np.exp(-(grid[:, None] ** 2 + grid[None, :] ** 2) / 2.0)
    expected_center = raw[2, 2] / raw.sum()
    k = gaussian_blur_kernel(5, 1.0)
    assert k[2, 2] == pytest.approx(expected_center, abs=1e-15)


def test_gaussian_kernel_normalized_and_symmetric():
    for size, sig in [(3, 0.5), (5, 1.0), (7, 2.3)]:
        k = gaussian_blur_kernel(size, sig)
        assert abs(k.sum() - 1.0) <= 1e-12
        assert np.array_equal(k, k[::-1, :])
        assert np.array_equal(k, k[:, ::-1])
        assert np.all(k > 0)


def test_gaussian_kernel_rejects_even_size():
    with pytest.raises(OperatorError):
        gaussian_blur_kernel(4, 1.0)
    with pytest.raises(OperatorError):
        gaussian_blur_kernel(3, 0.0)


def test_inpainting_keeps_expected_counts():
    assert make_inpainting_operator(10, 0.0, seed=0).m == 10
    assert make_inpainting_operator(10, 0.4, seed=0).m == 6


def test_inpainting_deterministic():
    a = make_inpainting_operator(50, 0.3, seed=11)
    b = make_inpainting_operator(50, 0.3, seed=11)
    assert np.array_equal(a.kept, b.kept)


def test_inpainting_rejects_bad_ratio():
    with pytest.raises(OperatorError):
        make_inpainting_operator(10, 1.0, seed=0)
    with pytest.raises(OperatorError):
        make_inpainting_operator(10, -0.1, seed=0)


def test_superres_factor_one_identity():
    op = make_superres_operator((4, 4), 1, [[1.0]])
    rng = np.random.default_rng(5)
    x = rng.standard_normal(16)
    assert np.allclose(op.apply(x), x, atol=1e-15)


def test_superres_constant_image():
    kernel = gaussian_blur_kernel(3, 1.0)
    op = make_superres_operator((4, 4), 2, kernel)
    out = op.apply(np.full(16, 0.37))
    assert np.allclose(out, 0.37, atol=1e-12)
    assert out.size == 4


def test_superres_impulse_matches_dense_materialization():
    kernel = gaussian_blur_kernel(3, 1.0)
    op = make_superres_operator((8, 8), 2, kernel)
    dense = op.to_dense()
    x = np.zeros(64)
    x[27] = 1.0
    assert np.max(np.abs(op.apply(x) - dense @ x)) <= 1e-12
    assert np.array_equal(op.apply(x), dense[:, 27])


def test_superres_rejects_nondivisible_shape():
    with pytest.raises(OperatorError):
        make_superres_operator((5, 4), 2, [[1.0]])


def test_subsample_takes_top_left():
    # a 1x1 identity kernel leaves pure subsampling
    op = make_superres_operator((4, 4), 2, [[1.0]])
    x = np.arange(16.0)
    assert np.array_equal(op.apply(x), [0.0, 2.0, 8.0, 10.0])


@pytest.mark.parametrize("op_index", ALL_KINDS)
def test_adjoint_identity_all_kinds(op_index):
    op = all_operator_kinds()[op_index]
    rng = np.random.default_rng(100 + op_index)
    for _ in range(100):
        u = rng.standard_normal(op.n)
        v = rng.standard_normal(op.m)
        lhs = float(np.dot(op.apply(u), v))
        rhs = float(np.dot(u, op.adjoint(v)))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@pytest.mark.parametrize("op_index", ALL_KINDS)
def test_linearity_all_kinds(op_index):
    op = all_operator_kinds()[op_index]
    rng = np.random.default_rng(200 + op_index)
    for _ in range(20):
        x = rng.standard_normal(op.n)
        y = rng.standard_normal(op.n)
        a, b = rng.standard_normal(2)
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("op_index", ALL_KINDS)
def test_dense_materialization_equality(op_index):
    op = all_operator_kinds()[op_index]
    dense = op.to_dense()
    rng = np.random.default_rng(300 + op_index)
    for _ in range(20):
        x = rng.standard_normal(op.n)
        assert np.max(np.abs(op.apply(x) - dense @ x)) <= 1e-12
        y = rng.standard_normal(op.m)
        assert np.max(np.abs(op.adjoint(y) - dense.T @ y)) <= 1e-12


def test_dimension_mismatch_reports_both_dims():
    op = DenseOperator(np.zeros((3, 5)))
    with pytest.raises(DimensionMismatch) as exc:
        op.apply(np.zeros(4))
    assert exc.value.expected == 5
    assert exc.value.got == 4
    with pytest.raises(DimensionMismatch):
        op.adjoint(np.zeros(5))


def test_composition_dims_must_chain():
    with pytest.raises(OperatorError):
        Composition([DenseOperator(np.zeros((2, 3))), DenseOperator(np.zeros((2, 3)))])


def _np_pad_blur_oracle(x_img, kernel):
    """Correlation by explicit loops over an np.pad(mode="symmetric") image."""
    h, w = x_img.shape
    k = kernel.shape[0]
    padded = np.pad(x_img, k // 2, mode="symmetric")
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            out[i, j] = np.sum(kernel * padded[i : i + k, j : j + k])
    return out


def test_blur_nonsymmetric_kernel_with_pad_equal_to_height():
    # pad == min(h, w) == 2: every padded row is a mirror of an image row,
    # and a non-symmetric kernel tells correlation from convolution
    rng = np.random.default_rng(17)
    kernel = rng.standard_normal((5, 5))
    h, w = 2, 7
    op = Blur(kernel, (h, w))
    oracle = np.stack(
        [_np_pad_blur_oracle(e.reshape(h, w), kernel).reshape(-1) for e in np.eye(h * w)],
        axis=1,
    )
    X = rng.standard_normal((6, h * w))
    Y = rng.standard_normal((6, h * w))
    assert np.max(np.abs(op.apply(X) - X @ oracle.T)) <= 1e-13
    assert np.max(np.abs(op.adjoint(Y) - Y @ oracle)) <= 1e-13
    assert np.array_equal(op.apply(X), np.stack([op.apply(x) for x in X]))
    assert np.array_equal(op.adjoint(Y), np.stack([op.adjoint(y) for y in Y]))


def test_blur_kernel_too_large_rejected():
    with pytest.raises(OperatorError):
        Blur(gaussian_blur_kernel(7, 1.0), (2, 2))


@pytest.mark.parametrize("row_step", [0, -2, 3, 5])
def test_blur_row_step_must_divide_height(row_step):
    # below 1, or not a divisor of the height 8
    with pytest.raises(OperatorError, match="row_step"):
        Blur(gaussian_blur_kernel(3, 1.0), (8, 6), row_step=row_step)


@pytest.mark.parametrize("shape, row_step", [((8, 6), 1), ((8, 6), 2), ((8, 6), 4),
                                             ((12, 9), 3), ((28, 28), 7)])
def test_blur_keeps_every_row_step_th_row(shape, row_step):
    h, w = shape
    kernel = gaussian_blur_kernel(3, 0.9)
    op = Blur(kernel, shape, row_step=row_step)
    assert (op.m, op.n) == (h // row_step * w, h * w)
    full = Blur(kernel, shape)
    X = np.random.default_rng(h * w + row_step).standard_normal((3, h * w))
    kept = full.apply(X).reshape(3, h, w)[:, ::row_step].reshape(3, -1)
    assert np.array_equal(op.apply(X), kept)


def _blur_then_subsample(shape, factor, kernel):
    """The pre-factorization super-resolution operator: the full blur, then
    a mask that keeps the top-left pixel of each factor-by-factor block."""
    h, w = shape
    kept = (np.arange(0, h, factor)[:, None] * w + np.arange(0, w, factor)).reshape(-1)
    return Composition([PixelMask(kept, h * w), Blur(kernel, shape)])


@pytest.mark.parametrize("shape, factor", [((28, 28), 2), ((12, 9), 3), ((8, 8), 1)])
@pytest.mark.parametrize("kernel_name", ["gauss3", "gauss5", "random5"])
def test_superres_rows_blur_equals_full_blur_then_subsample(shape, factor,
                                                            kernel_name):
    rng = np.random.default_rng(1000 + shape[0] * factor)
    kernel = {"gauss3": gaussian_blur_kernel(3, 0.8),
              "gauss5": gaussian_blur_kernel(5, 1.2),
              "random5": rng.standard_normal((5, 5))}[kernel_name]
    op = make_superres_operator(shape, factor, kernel)
    oracle = _blur_then_subsample(shape, factor, kernel)
    assert (op.m, op.n) == (oracle.m, oracle.n)
    for rows in ((), (1,), (2,), (20,)):
        for _ in range(5):
            x = rng.standard_normal(rows + (op.n,))
            y = rng.standard_normal(rows + (op.m,))
            assert np.array_equal(op.apply(x), oracle.apply(x))
            assert np.array_equal(op.adjoint(y), oracle.adjoint(y))
    assert np.array_equal(materialize(op), materialize(oracle))


# --- stacks of signals, one per row -------------------------------------------


def stackable_kinds():
    """Operators that do the same arithmetic on each row of a stack as on
    one signal: pixel masks, blurs and compositions of them."""
    kernel = gaussian_blur_kernel(5, 1.1)
    return [
        PixelMask([0, 2, 5], n=7),
        make_inpainting_operator(64, 0.6, seed=3),
        Blur(kernel, (6, 7)),
        Blur(gaussian_blur_kernel(3, 0.8), (4, 4)),
        make_superres_operator((8, 8), 2, kernel),
        Composition([make_inpainting_operator(36, 0.5, seed=4), Blur(kernel, (6, 6))]),
        Blur(np.random.default_rng(8).standard_normal((5, 5)), (2, 7)),
        Blur(kernel, (8, 6), row_step=2),
    ]


@pytest.mark.parametrize("op_index", range(len(stackable_kinds())))
def test_stack_rows_equal_one_signal_results(op_index):
    op = stackable_kinds()[op_index]
    rng = np.random.default_rng(400 + op_index)
    for b in (1, 2, 5):
        X = rng.standard_normal((b, op.n))
        Y = rng.standard_normal((b, op.m))
        AX, ATY = op.apply(X), op.adjoint(Y)
        assert AX.shape == (b, op.m) and ATY.shape == (b, op.n)
        assert np.array_equal(AX, np.stack([op.apply(x) for x in X]))
        assert np.array_equal(ATY, np.stack([op.adjoint(y) for y in Y]))


@pytest.mark.parametrize("op_index", ALL_KINDS)
def test_adjoint_identity_on_a_stack(op_index):
    op = all_operator_kinds()[op_index]
    rng = np.random.default_rng(500 + op_index)
    U = rng.standard_normal((7, op.n))
    V = rng.standard_normal((7, op.m))
    lhs = np.vecdot(op.apply(U), V)
    rhs = np.vecdot(U, op.adjoint(V))
    assert np.all(np.abs(lhs - rhs) <= 1e-10 * (1.0 + np.abs(lhs)))


@pytest.mark.parametrize("shape", [(5, 8), (16, 32), (32, 32), (3, 1), (40, 17)])
def test_dense_operator_one_vector_is_matvec(shape):
    # the x @ M.T / y @ M forms equal 0.4.0's M @ x / M.T @ y bit for bit
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    mat = rng.standard_normal(shape)
    op = DenseOperator(mat)
    for _ in range(20):
        x = rng.standard_normal(shape[1])
        y = rng.standard_normal(shape[0])
        assert np.array_equal(op.apply(x), mat @ x)
        assert np.array_equal(op.adjoint(y), mat.T @ y)


def _columnwise_dense(op):
    """0.4.0's materialization: apply the operator to each basis vector."""
    cols = np.empty((op.m, op.n))
    e = np.zeros(op.n)
    for j in range(op.n):
        e[j] = 1.0
        cols[:, j] = op.apply(e)
        e[j] = 0.0
    return cols


@pytest.mark.parametrize("op_index", ALL_KINDS)
def test_materialize_equals_columnwise_construction(op_index):
    op = all_operator_kinds()[op_index]
    dense = materialize(op)
    assert dense.shape == (op.m, op.n) and dense.flags.c_contiguous
    assert np.array_equal(dense, _columnwise_dense(op))


def test_stack_width_mismatch_and_bad_rank():
    op = PixelMask([0, 2], n=3)
    with pytest.raises(DimensionMismatch) as exc:
        op.apply(np.zeros((4, 2)))
    assert exc.value.expected == 3 and exc.value.got == 2
    with pytest.raises(DimensionMismatch):
        op.adjoint(np.zeros((4, 3)))
    with pytest.raises(SignalError):
        op.apply(np.zeros((2, 2, 3)))
