import math

import numpy as np
import pytest

from gpgd.signals import (
    NoiseSpec,
    SignalError,
    add_noise,
    psnr,
)


def test_psnr_exact_match_is_inf_sentinel():
    x = np.array([0.2, 0.7, 1.0])
    assert psnr(x, x) == math.inf


def test_psnr_closed_form_mse_001():
    ref = np.zeros(100)
    x = np.full(100, 0.1)  # MSE = 0.01
    assert psnr(x, ref) == pytest.approx(20.0, abs=1e-12)


def test_psnr_constant_offset():
    rng = np.random.default_rng(0)
    ref = rng.uniform(0, 0.9, 50)
    assert psnr(ref + 0.1, ref) == pytest.approx(20.0, abs=1e-12)


def test_psnr_length_mismatch():
    with pytest.raises(SignalError):
        psnr(np.zeros(3), np.zeros(4))


def test_psnr_stack_rows_equal_scalar_psnr():
    rng = np.random.default_rng(3)
    ref = rng.uniform(0, 1, 50)
    stack = ref + rng.standard_normal((6, 50)) * np.logspace(-6, 0, 6)[:, None]
    stack[2] = ref  # zero error
    got = psnr(stack, ref)
    assert got.shape == (6,)
    assert got.tolist() == [psnr(row, ref) for row in stack]
    assert got[2] == math.inf
    with pytest.raises(SignalError):
        psnr(np.zeros((3, 4)), np.zeros(5))


def test_add_noise_sigma_zero_unchanged():
    y = np.array([1.0, 2.0, 3.0])
    out = add_noise(y, NoiseSpec(0.0, seed=5))
    assert np.array_equal(out, y)


def test_add_noise_deterministic_per_seed():
    y = np.zeros(64)
    a = add_noise(y, NoiseSpec(0.05, seed=9))
    b = add_noise(y, NoiseSpec(0.05, seed=9))
    assert np.array_equal(a, b)
    c = add_noise(y, NoiseSpec(0.05, seed=10))
    assert not np.array_equal(a, c)


def test_add_noise_keeps_a_stack_of_rows():
    # a (b, m) stack stays a stack, and its noise is one row-major draw, so
    # row r is the same as the flat vector's slice r
    Y = np.arange(12.0).reshape(3, 4)
    for sigma in (0.0, 0.05):
        out = add_noise(Y, NoiseSpec(sigma, seed=9))
        assert out.shape == (3, 4)
        flat = add_noise(Y.reshape(-1), NoiseSpec(sigma, seed=9))
        assert np.array_equal(out, flat.reshape(3, 4))


def test_add_noise_empirical_std():
    # Monte-Carlo on the implementation's own generator: 1e6 scalar draws.
    draws = add_noise(np.zeros(10**6), NoiseSpec(0.02, seed=3))
    assert 0.0199 <= draws.std() <= 0.0201


def test_noise_spec_rejects_negative_sigma():
    with pytest.raises(SignalError):
        NoiseSpec(-0.1, 0)

