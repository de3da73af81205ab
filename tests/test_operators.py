import numpy as np
import pytest

from gpgd.operators import (
    Blur,
    Composition,
    DenseOperator,
    DimensionMismatch,
    OperatorError,
    PixelMask,
    gaussian_blur_kernel,
    make_inpainting_operator,
    make_subsample_operator,
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
    ]
    return ops


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
    op = make_subsample_operator((4, 4), 2)
    x = np.arange(16.0)
    assert np.array_equal(op.apply(x), [0.0, 2.0, 8.0, 10.0])


@pytest.mark.parametrize("op_index", range(6))
def test_adjoint_identity_all_kinds(op_index):
    op = all_operator_kinds()[op_index]
    rng = np.random.default_rng(100 + op_index)
    for _ in range(100):
        u = rng.standard_normal(op.n)
        v = rng.standard_normal(op.m)
        lhs = float(np.dot(op.apply(u), v))
        rhs = float(np.dot(u, op.adjoint(v)))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@pytest.mark.parametrize("op_index", range(6))
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


@pytest.mark.parametrize("op_index", range(6))
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


def test_blur_kernel_too_large_rejected():
    with pytest.raises(OperatorError):
        Blur(gaussian_blur_kernel(7, 1.0), (2, 2))
