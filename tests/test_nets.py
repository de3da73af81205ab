import math
import tracemalloc
import warnings

import numpy as np
import pytest

import gpgd.nets as nets_module
from gpgd.nets import (
    PROBE_POINTS,
    Activation,
    CheckpointError,
    DenseLayer,
    DenseNet,
    NonFiniteLoss,
    TrainConfig,
    TrainingDiverged,
    adam_state_for,
    adam_step,
    autoencoder_dims,
    forward,
    forward_batch,
    history_to_csv,
    load_checkpoint,
    loss_and_grad,
    make_net,
    save_checkpoint,
    sor_value,
    _leaky_relu,
    _leaky_relu_derivative,
    train,
)
from gpgd.theory import PSI_GUARD, psi_rows
from unbiasedness import stochastic_gradient_unbiasedness_check


def identity_net(n):
    return DenseNet([DenseLayer(np.eye(n), np.zeros(n), Activation("identity"))])


# --- forward ---------------------------------------------------------------


@pytest.mark.parametrize("dims", [(64, 48, 24, 48, 64), (784, 392, 196, 392, 784)])
def test_forward_stack_rows_match_one_row_forward(dims):
    # a stack goes through one batched matmul per layer, which may round
    # differently from a one-row matmul, but only in the last bits
    net = make_net(dims, seed=3)
    rng = np.random.default_rng(4)
    Z = rng.uniform(0.0, 1.0, (20, dims[0]))
    out = forward(net, Z)
    assert out.shape == Z.shape
    for z, row in zip(Z, out):
        one = forward(net, z)
        assert one.shape == (dims[0],)
        assert np.max(np.abs(row - one)) <= 1e-12 * np.max(np.abs(one))
    assert np.array_equal(forward(net, Z[:1])[0], forward(net, Z[0]))


def test_forward_stack_width_mismatch():
    with pytest.raises(ValueError):
        forward(identity_net(3), np.zeros((2, 4)))


def test_forward_identity_layer():
    net = identity_net(3)
    x = np.array([0.3, -0.2, 0.9])
    assert np.array_equal(forward(net, x), x)


def test_forward_leaky_relu():
    net = DenseNet([DenseLayer(np.eye(2), np.zeros(2), Activation("leaky_relu", 0.01))])
    assert np.allclose(forward(net, [-1.0, 2.0]), [-0.01, 2.0])


def test_forward_two_layer_matches_manual_oracle():
    rng = np.random.default_rng(0)
    W1 = rng.standard_normal((4, 6))
    b1 = rng.standard_normal(4)
    W2 = rng.standard_normal((6, 4))
    b2 = rng.standard_normal(6)
    net = DenseNet(
        [
            DenseLayer(W1, b1, Activation("leaky_relu", 0.01)),
            DenseLayer(W2, b2, Activation("identity")),
        ]
    )
    x = rng.standard_normal(6)
    z1 = W1 @ x + b1
    a1 = np.where(z1 >= 0, z1, 0.01 * z1)
    expected = W2 @ a1 + b2
    assert np.allclose(forward(net, x), expected, atol=1e-14)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        forward(identity_net(3), np.zeros(4))


def test_net_requires_matching_in_out():
    with pytest.raises(ValueError):
        DenseNet([DenseLayer(np.zeros((3, 5)), np.zeros(3), Activation("identity"))])


def test_make_net_draws_he_weights_layer_by_layer():
    # the weights go straight into the parameter vector with the bits of a
    # fresh (fan_out, fan_in) draw per layer, scaled by sqrt(2 / fan_in)
    dims = (6, 4, 3, 6)
    net = make_net(dims, seed=47)
    rng = np.random.default_rng(47)
    for fan_in, fan_out, layer in zip(dims, dims[1:], net.layers):
        expected = rng.standard_normal((fan_out, fan_in)) * math.sqrt(2.0 / fan_in)
        assert np.array_equal(layer.weight, expected)
        assert np.array_equal(layer.bias, np.zeros(fan_out))
    assert [l.activation.kind for l in net.layers] == ["leaky_relu"] * 2 + ["identity"]
    assert net.latent_index == 1


def test_forward_output_does_not_view_the_arena():
    # forward (and so NetProjector) returns fresh arrays, which the next
    # training step cannot overwrite
    net = make_net((5, 4, 5), seed=48)
    X = np.random.default_rng(48).uniform(0, 1, (6, 5))
    loss_and_grad(net, X, X, TrainConfig(lam=0.4))
    out = forward(net, X)
    assert not np.shares_memory(out, net._arena)


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.3, 1.0])
def test_leaky_relu_max_form_matches_select_form(slope):
    # inside 0 <= slope <= 1 the where-free forms are bit-identical to the
    # select forms "z if z >= 0 else slope z" and "1 if z >= 0 else slope"
    z = np.random.default_rng(30).standard_normal((64, 48))
    z[0, :3] = [0.0, -0.0, 1e-300]
    out = _leaky_relu(z, slope, np.empty_like(z))
    assert np.array_equal(out, np.where(z >= 0, z, slope * z))
    d = _leaky_relu_derivative(z, slope, np.empty_like(z))
    assert np.array_equal(d, np.where(z >= 0, 1.0, slope))
    # the backward pass writes the derivative over z itself
    assert np.array_equal(_leaky_relu_derivative(z, slope, z), d)


@pytest.mark.parametrize("slope", [-0.01, 1.5, float("nan")])
def test_leaky_relu_slope_outside_unit_interval_rejected(slope):
    with pytest.raises(ValueError):
        Activation("leaky_relu", slope)


# --- flat parameter buffer ----------------------------------------------------


def test_layer_views_alias_params_vector():
    net = make_net((5, 3, 5), seed=31)
    first, last = net.layers
    assert np.shares_memory(first.weight, net.params)
    first.weight[0, 0] = 5.0
    assert net.params[0] == 5.0
    net.params[-1] = 7.0
    assert last.bias[-1] == 7.0
    vec = np.arange(net.n_params(), dtype=float)
    net.params[:] = vec
    assert np.array_equal(first.weight, vec[:15].reshape(3, 5))
    assert np.array_equal(last.bias, vec[-5:])


def test_net_copies_the_layers_it_is_given():
    layer = DenseLayer(np.eye(3), np.zeros(3), Activation("identity"))
    net = DenseNet([layer])
    net.params[0] = 2.0
    assert layer.weight[0, 0] == 1.0


def test_copy_gets_its_own_buffer():
    net = make_net((4, 3, 4), seed=32)
    twin = net.copy()
    assert not np.shares_memory(twin.params, net.params)
    assert np.array_equal(twin.params, net.params)
    twin.params += 1.0
    twin.layers[0].weight[0, 0] = 9.0
    assert not np.any(net.params == twin.params)


def test_layer_views_of_a_gradient():
    net = make_net((4, 3, 4), seed=34)
    grad = np.arange(net.n_params(), dtype=float)
    (g_w0, g_b0), (g_w1, g_b1) = net.layer_views(grad)
    assert g_w0.shape == (3, 4) and g_b0.shape == (3,)
    assert g_w1.shape == (4, 3) and g_b1.shape == (4,)
    assert g_b1[-1] == grad[-1] and np.shares_memory(g_w1, grad)
    with pytest.raises(ValueError):
        net.layer_views(grad[:-1])


# --- loss and gradient ------------------------------------------------------


def test_data_term_zero_on_fixed_points():
    net = identity_net(4)
    cfg = TrainConfig(lam=0.0, batch_size=2)
    batch = np.random.default_rng(1).uniform(0, 1, (2, 4))
    loss, grads = loss_and_grad(net, batch, np.zeros((2, 4)), cfg)
    assert loss == 0.0
    assert np.all(grads == 0.0)


def test_single_layer_least_squares_gradient():
    # analytic oracle: loss = ||Wx + b - x||^2 / n for one sample, so
    # dW = 2 r x^T / n and db = 2 r / n with r = Wx + b - x
    rng = np.random.default_rng(2)
    W = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    net = DenseNet([DenseLayer(W.copy(), b.copy(), Activation("identity"))])
    x = rng.uniform(0, 1, 5)
    cfg = TrainConfig(lam=0.0, batch_size=1)
    _, grads = loss_and_grad(net, x.reshape(1, -1), np.zeros((1, 5)), cfg)
    r = W @ x + b - x
    g_w, g_b = net.layer_views(grads)[0]
    assert np.allclose(g_w, 2.0 * np.outer(r, x) / 5.0, atol=1e-14)
    assert np.allclose(g_b, 2.0 * r / 5.0, atol=1e-14)


@pytest.mark.parametrize("mode", ["AE", "PnP"])
@pytest.mark.parametrize("lam", [0.0, 0.4])
def test_gradient_matches_finite_differences(mode, lam):
    rng = np.random.default_rng(3)
    net = make_net((6, 4, 6), seed=7)
    cfg = TrainConfig(lam=lam, mode=mode, batch_size=3, xi=0.1)
    X = rng.uniform(0, 1, (3, 6))
    Z = rng.uniform(0, 1, (3, 6))
    _, grads = loss_and_grad(net, X, Z, cfg, noise_seed=11)
    bp = grads.copy()  # the gradient buffer is reused by the next call
    theta = net.params.copy()
    h = 1e-5
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        net.params[:] = up
        lp, _ = loss_and_grad(net, X, Z, cfg, noise_seed=11)
        dn = theta.copy()
        dn[i] -= h
        net.params[:] = dn
        lm, _ = loss_and_grad(net, X, Z, cfg, noise_seed=11)
        fd[i] = (lp - lm) / (2.0 * h)
    net.params[:] = theta
    assert np.max(np.abs(bp - fd) / (1.0 + np.abs(fd))) <= 1e-4


def test_loss_batches_must_pair():
    net = identity_net(3)
    with pytest.raises(ValueError):
        loss_and_grad(net, np.zeros((2, 3)), np.zeros((3, 3)), TrainConfig())


def test_non_finite_loss_names_term():
    net = DenseNet(
        [DenseLayer(np.full((3, 3), 1e200), np.zeros(3), Activation("identity"))]
    )
    with pytest.raises(NonFiniteLoss) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            loss_and_grad(net, np.ones((1, 3)), np.ones((1, 3)), TrainConfig())
    assert exc.value.term == "data"


@pytest.mark.parametrize("mode", ["AE", "PnP"])
def test_stacked_pass_matches_separate_passes(mode):
    # one pass over [inputs; Z] == data-only pass + z-only penalty pass
    from gpgd.nets import _backprop, _workspace

    rng = np.random.default_rng(35)
    net = make_net((6, 5, 3, 5, 6), seed=36)
    X = rng.uniform(0, 1, (7, 6))
    Z = rng.uniform(0, 1, (7, 6))
    cfg = TrainConfig(lam=0.4, mode=mode, batch_size=7, xi=0.1)
    loss, grad = loss_and_grad(net, X, Z, cfg, noise_seed=5)
    stacked = grad.copy()
    data, data_grad = loss_and_grad(net, X, Z, TrainConfig(lam=0.0, mode=mode, xi=0.1),
                                    noise_seed=5)
    data_grad = data_grad.copy()
    work = _workspace(net, 0, 7)
    work.acts[0][...] = Z
    _, psi_sum, sor_grad = _backprop(work, np.empty((0, 6)), 0.4 / 7)
    separate = data_grad + sor_grad
    assert np.max(np.abs(stacked - separate)) <= 1e-12 * np.max(np.abs(separate))
    assert loss == pytest.approx(data + 0.4 * psi_sum / 7, rel=1e-12)


def _reference_loss_and_grad(net, X, Z, cfg, noise_seed):
    """loss_and_grad in its op order, with a fresh array for every
    activation, pre-activation and gradient instead of the workspace, where
    a layer's gradient overwrites its output."""
    s = X.shape[0]
    if cfg.mode == "PnP":
        inputs = np.random.default_rng(noise_seed).standard_normal(X.shape)
        inputs *= cfg.xi
        inputs += X
    else:
        inputs = X.copy()
    acts = [np.vstack([inputs, Z]) if cfg.lam != 0.0 else inputs]
    pres = []
    for layer in net.layers:
        z = np.matmul(acts[-1], layer.weight.T)
        z += layer.bias
        pres.append(z)
        if layer.activation.kind == "identity":
            acts.append(z)
        else:
            acts.append(_leaky_relu(z, layer.activation.slope, np.empty_like(z)))
    out = acts[-1]
    g = np.empty_like(out)
    resid = out[:s] - X
    data = float(np.vdot(resid, resid)) / resid.size
    resid *= 2.0
    resid /= resid.size
    g[:s] = resid
    psi_sum = 0.0
    if cfg.lam != 0.0:
        dpsi = np.empty_like(Z)
        psi_vals, _ = psi_rows(out[s:], Z, dpsi=dpsi)
        psi_sum = float(psi_vals.sum())
        dpsi *= cfg.lam / s
        g[s:] = dpsi
    grads = []
    for layer, a, z in reversed(list(zip(net.layers, acts, pres))):
        if layer.activation.kind != "identity":
            g = g * _leaky_relu_derivative(z, layer.activation.slope, np.empty_like(z))
        grads.append(np.concatenate([np.matmul(g.T, a).ravel(), np.add.reduce(g, axis=0)]))
        g = np.matmul(g, layer.weight)
    return data + cfg.lam * (psi_sum / s), np.concatenate(grads[::-1])


def _net_with_identity_hidden_layer():
    # an identity hidden layer's pre-activation buffer is its output buffer
    rng = np.random.default_rng(47)
    acts = [Activation("leaky_relu", 0.01), Activation("identity"),
            Activation("leaky_relu", 0.01), Activation("identity")]
    dims = (12, 8, 4, 8, 12)
    return DenseNet([DenseLayer(rng.standard_normal((o, i)) / math.sqrt(i),
                                rng.standard_normal(o) * 0.1, act)
                     for i, o, act in zip(dims, dims[1:], acts)])


@pytest.mark.parametrize("mode", ["AE", "PnP"])
@pytest.mark.parametrize("lam", [0.0, 0.4])
@pytest.mark.parametrize("kind", ["make_net", "identity-hidden"])
def test_loss_and_grad_matches_reference_with_separate_buffers(kind, mode, lam):
    # the workspace writes each gradient over a spent activation; a full
    # batch, a short batch in the same arena, then the full batch again
    # give the bits of a pass that keeps every buffer apart
    net = make_net((12, 8, 4, 8, 12), seed=46) if kind == "make_net" \
        else _net_with_identity_hidden_layer()
    rng = np.random.default_rng(48)
    cfg = TrainConfig(lam=lam, mode=mode, xi=0.1, batch_size=8)
    for rows in (8, 5, 8):
        X = rng.uniform(0, 1, (rows, 12))
        Z = rng.uniform(0, 1, (rows, 12))
        loss, grad = loss_and_grad(net, X, Z, cfg, noise_seed=rows)
        ref_loss, ref_grad = _reference_loss_and_grad(net, X, Z, cfg, rows)
        assert loss == ref_loss and np.array_equal(grad, ref_grad), rows


def test_step_floats_of_the_784_wide_prior():
    # 64 data + 64 z rows of the 784-392-196-392-784 prior: the gradient,
    # the inputs and outputs of every layer, the three hidden
    # pre-activations and the z rows' residual, and no buffer more
    net = make_net(autoencoder_dims(784), seed=0)
    assert net.dims == [784, 392, 196, 392, 784]
    assert nets_module._step_floats(net, 64, 64) == 1_271_844
    assert nets_module._step_floats(net, 64, 0) == 995_876


def test_training_step_allocates_no_large_array():
    # activations here are 128 rows x 256 x 8 B = 256 KiB; after the first
    # step every buffer is reused, leaving only small numpy temporaries
    net = make_net((256, 64, 256), seed=37)
    rng = np.random.default_rng(38)
    X = rng.uniform(0, 1, (64, 256))
    Z = rng.uniform(0, 1, (64, 256))
    state = adam_state_for(net)
    for mode in ("AE", "PnP"):
        cfg = TrainConfig(lam=0.4, batch_size=64, mode=mode)
        _, grad = loss_and_grad(net, X, Z, cfg, noise_seed=1)
        adam_step(net, grad, state, cfg.tau)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, grad = loss_and_grad(net, X, Z, cfg, noise_seed=2)
            adam_step(net, grad, state, cfg.tau)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024, (mode, peak)


# --- orthogonality penalty ---------------------------------------------------


def test_sor_zero_for_affine_orthogonal_projection():
    # net computing an exact orthogonal projection onto a 2-D subspace
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    net = DenseNet([DenseLayer(q @ q.T, np.zeros(6), Activation("identity"))])
    z = rng.uniform(0, 1, (64, 6))
    res = sor_value(net, z)
    assert res.value <= 1e-9


def test_sor_identity_net_all_degenerate():
    net = identity_net(5)
    z = np.random.default_rng(5).uniform(0, 1, (32, 5))
    res = sor_value(net, z)
    assert res.value == 0.0
    assert res.degenerate == 32


def test_sor_matches_external_psi_average():
    net = make_net((6, 4, 6), seed=8)
    z = np.random.default_rng(6).uniform(0, 1, (256, 6))
    res = sor_value(net, z)

    def psi_scalar(p, zi):
        # |<p, z-p>| / (||p|| ||z-p||), zero when either norm is degenerate
        r = zi - p
        a, b = np.linalg.norm(p), np.linalg.norm(r)
        if a <= PSI_GUARD or b <= PSI_GUARD:
            return 0.0
        return min(abs(float(np.dot(p, r))) / (a * b), 1.0)

    external = sum(psi_scalar(forward(net, zi), zi) for zi in z) / len(z)
    assert res.value == pytest.approx(external, abs=1e-12)


def test_sor_inside_loss_matches_external_average():
    net = make_net((6, 4, 6), seed=9)
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 1, (8, 6))
    Z = rng.uniform(0, 1, (8, 6))
    cfg = TrainConfig(lam=0.4, batch_size=8)
    loss, _ = loss_and_grad(net, X, Z, cfg)
    out, _ = forward_batch(net, X)
    data = float(np.mean((out - X) ** 2))
    assert loss - data == pytest.approx(0.4 * sor_value(net, Z).value, abs=1e-12)


def _psi_reference(P, Z, guard):
    """Per-row loop over the textbook formula (the pre-flat-buffer kernel)."""
    vals = np.zeros(P.shape[0])
    grads = np.zeros_like(P)
    degenerate = 0
    for i, (p, z) in enumerate(zip(P, Z)):
        r = z - p
        u, a, b = p @ r, np.linalg.norm(p), np.linalg.norm(r)
        if a <= guard or b <= guard:
            degenerate += 1
            continue
        vals[i] = abs(u) / (a * b)
        grads[i] = (np.sign(u) / (a * b)) * (z - 2.0 * p) + abs(u) * (
            -p / (a**3 * b) + r / (a * b**3)
        )
    return vals, grads, degenerate


def test_psi_kernel_matches_reference_with_degenerate_rows():
    from gpgd.theory import psi_rows

    rng = np.random.default_rng(39)
    Z = rng.uniform(0, 1, (9, 5))
    P = rng.uniform(0, 1, (9, 5))
    P[2] = 0.0  # ||p|| = 0
    P[5] = Z[5]  # ||z - p|| = 0
    P[7] = Z[7] * (1.0 - 1e-12)  # ||z - p|| below the guard
    ref_vals, ref_grads, ref_degenerate = _psi_reference(P, Z, 1e-9)
    dpsi = np.full_like(P, np.nan)
    vals, degenerate = psi_rows(P, Z, dpsi=dpsi)
    assert np.count_nonzero(degenerate) == ref_degenerate == 3
    assert np.allclose(vals, ref_vals, rtol=1e-12, atol=0.0)
    assert np.allclose(dpsi, ref_grads, rtol=1e-10, atol=1e-12)
    assert np.all(vals[[2, 5, 7]] == 0.0) and np.all(dpsi[[2, 5, 7]] == 0.0)
    value_only, mask = psi_rows(P, Z)
    assert np.array_equal(value_only, vals) and np.array_equal(mask, degenerate)


def test_psi_kernel_row_bits_do_not_depend_on_degenerate_neighbours():
    # a stack with no degenerate row skips the 0/1 row weighting; its rows
    # must carry the bits they get inside a stack that has degenerate rows
    from gpgd.theory import psi_rows

    rng = np.random.default_rng(46)
    Z = rng.uniform(0, 1, (8, 5))
    P = rng.uniform(0, 1, (8, 5))
    clean_vals, clean_mask = psi_rows(P, Z, dpsi=(clean_dpsi := np.empty_like(P)))
    assert not clean_mask.any()
    mixed_P = np.vstack([P[:4], np.zeros((1, 5)), P[4:], Z[:1]])
    mixed_Z = np.vstack([Z[:4], Z[4:5], Z[4:], Z[:1]])
    mixed_vals, mixed_mask = psi_rows(mixed_P, mixed_Z,
                                      dpsi=(mixed_dpsi := np.empty_like(mixed_P)))
    rows = [0, 1, 2, 3, 5, 6, 7, 8]
    assert mixed_mask.tolist() == [False] * 4 + [True] + [False] * 4 + [True]
    assert np.array_equal(mixed_vals[rows].view(np.int64), clean_vals.view(np.int64))
    assert np.array_equal(mixed_dpsi[rows].view(np.int64), clean_dpsi.view(np.int64))
    assert np.all(mixed_vals[[4, 9]] == 0.0) and np.all(mixed_dpsi[[4, 9]] == 0.0)


def test_psi_kernel_propagates_non_finite_rows():
    # a NaN output is not a degenerate sample: it must reach the loss check
    from gpgd.theory import psi_rows

    Z = np.random.default_rng(45).uniform(0, 1, (3, 4))
    P = Z * 0.5
    P[1, 2] = np.nan
    vals, degenerate = psi_rows(P, Z)
    assert np.count_nonzero(degenerate) == 0
    assert np.isnan(vals[1]) and np.all(np.isfinite(vals[[0, 2]]))


# --- Adam ---------------------------------------------------------------------


def test_adam_zero_gradient_no_move():
    net = make_net((4, 3, 4), seed=10)
    before = net.params.copy()
    state = adam_state_for(net)
    zero = np.zeros(net.n_params())
    adam_step(net, zero, state, tau=0.1)
    assert np.array_equal(net.params, before)
    assert state.step == 1


def test_adam_first_step_closed_form():
    net = identity_net(2)
    before = net.params.copy()
    g = np.array([[1.0, -2.0], [3.0, 0.25]]), np.array([0.5, -2.0])
    g_flat = np.concatenate([g[0].ravel(), g[1]])
    state = adam_state_for(net)
    adam_step(net, g_flat, state, tau=0.01)
    delta = net.params - before
    expected = -0.01 * g_flat / (np.abs(g_flat) + 1e-8)
    assert np.allclose(delta, expected, atol=1e-15)


def test_adam_constant_gradient_step_magnitude_approaches_tau():
    net = identity_net(1)
    state = adam_state_for(net)
    g = np.array([3.0, 0.0])  # weight, bias
    tau = 0.05
    prev = net.params[0]
    for _ in range(200):
        prev = net.params[0]
        adam_step(net, g, state, tau)
    step = abs(net.params[0] - prev)
    assert step == pytest.approx(tau, rel=1e-6)


def _adam_reference(params, g, m, v, step, tau, beta1, beta2, eps):
    """The whole-vector Adam update of gpgd 0.12.0, op for op."""
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    tmp = np.empty_like(m)
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=tmp)
    v *= beta2
    tmp = np.multiply(g, g, out=tmp)
    tmp *= 1.0 - beta2
    v += tmp
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    np.divide(m, tmp, out=tmp)
    tmp *= tau / c1
    params -= tmp


def test_adam_blocks_match_whole_vector_update_bit_for_bit():
    from gpgd.nets import _ADAM_BLOCK

    net = make_net((256, 128, 256), seed=47)
    size = net.n_params()
    assert size > 2 * _ADAM_BLOCK and size % _ADAM_BLOCK  # a partial last block
    state = adam_state_for(net)
    assert state.scratch.size <= _ADAM_BLOCK
    params, m, v = net.params.copy(), np.zeros(size), np.zeros(size)
    rng = np.random.default_rng(48)
    adam = (0.8, 0.99, 1e-6)
    for step in range(1, 5):
        g = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 2, size)
        adam_step(net, g, state, 3e-3, *adam)
        _adam_reference(params, g, m, v, step, 3e-3, *adam)
        assert state.step == step
        for got, want in ((net.params, params), (state.m, m), (state.v, v)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_adam_rejects_gradient_of_wrong_shape():
    net = make_net((4, 3, 4), seed=40)
    with pytest.raises(ValueError):
        adam_step(net, np.zeros(net.n_params() - 1), adam_state_for(net), tau=0.1)


# --- training -----------------------------------------------------------------


def test_train_zero_epochs_unchanged():
    net = make_net((4, 3, 4), seed=11)
    before = net.params.copy()
    data = np.random.default_rng(8).uniform(0, 1, (6, 4))
    net, history = train(net, data, TrainConfig(epochs=0, batch_size=2))
    assert np.array_equal(net.params, before)
    assert history == []


def test_train_deterministic_per_seed():
    data = np.random.default_rng(9).uniform(0, 1, (10, 4))
    cfg = TrainConfig(lam=0.2, epochs=3, batch_size=4, seed=123)
    n1, _ = train(make_net((4, 3, 4), seed=12), data, cfg)
    n2, _ = train(make_net((4, 3, 4), seed=12), data, cfg)
    assert np.array_equal(n1.params, n2.params)


def test_train_replay_oracle():
    # step-by-step replay with the documented seed-stream layout: probe,
    # shuffle, z, noise spawned in that order from SeedSequence(cfg.seed);
    # at 5 items each epoch ends on a 1-row batch, whose z row train draws
    # into a workspace of its own
    cfg = TrainConfig(lam=0.3, tau=0.01, epochs=2, batch_size=2, seed=77)
    for count in (4, 5):
        data = np.random.default_rng(10).uniform(0, 1, (count, 3))
        trained, _ = train(make_net((3, 3), seed=13), data, cfg)

        replica = make_net((3, 3), seed=13)
        probe_ss, shuffle_ss, z_ss, noise_ss = np.random.SeedSequence(77).spawn(4)
        shuffle_rng = np.random.default_rng(shuffle_ss)
        z_rng = np.random.default_rng(z_ss)
        state = adam_state_for(replica)
        for _ in range(2):
            perm = shuffle_rng.permutation(count)
            for start in range(0, count, 2):
                idx = perm[start : start + 2]
                zb = z_rng.uniform(size=(idx.size, 3))
                _, grads = loss_and_grad(replica, data[idx], zb, cfg, 0)
                adam_step(replica, grads, state, cfg.tau, *cfg.adam)
        assert np.array_equal(trained.params, replica.params), count


@pytest.mark.parametrize("mode", ["AE", "PnP"])
def test_train_lambda_zero_matches_replay_that_draws_z(mode):
    # at lam = 0 train skips the z draw; a replay that still draws a z
    # batch every step and passes it in gives the same bits
    data = np.random.default_rng(18).uniform(0, 1, (6, 4))
    cfg = TrainConfig(lam=0.0, tau=0.01, epochs=3, batch_size=4, seed=78,
                      mode=mode, xi=0.1)
    trained, _ = train(make_net((4, 3, 4), seed=16), data, cfg)

    replica = make_net((4, 3, 4), seed=16)
    _, shuffle_ss, z_ss, noise_ss = np.random.SeedSequence(78).spawn(4)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    z_rng = np.random.default_rng(z_ss)
    noise_rng = np.random.default_rng(noise_ss)
    state = adam_state_for(replica)
    for _ in range(3):
        perm = shuffle_rng.permutation(6)
        for start in (0, 4):
            idx = perm[start : start + 4]
            zb = z_rng.uniform(size=(idx.size, 4))
            noise_seed = int(noise_rng.integers(2**63)) if mode == "PnP" else 0
            _, grads = loss_and_grad(replica, data[idx], zb, cfg, noise_seed)
            adam_step(replica, grads, state, cfg.tau, *cfg.adam)
    assert np.array_equal(trained.params, replica.params)


@pytest.mark.parametrize("lam", [0.0, 0.4])
def test_train_history_pass_runs_in_the_arena(monkeypatch, lam):
    # each epoch's history pass (forward_batch over the items, sor_value
    # over the probes) runs in the net's arena, and after the first epoch
    # neither the steps nor the history pass allocate a large array: the
    # history buffers alone are 2 x 512 rows x 256 x 8 B = 2 MiB
    net = make_net((256, 64, 256), seed=21)
    data = np.random.default_rng(21).uniform(0, 1, (40, 256))
    cfg = TrainConfig(lam=lam, epochs=4, batch_size=16, seed=5)
    seen = {"forward_batch": 0, "sor_value": 0}
    growth = []

    def spying(name):
        real = getattr(nets_module, name)

        def spy(target, *args, scratch=None):
            assert target is net
            assert np.shares_memory(scratch, net._arena), name
            seen[name] += 1
            result = real(target, *args, scratch=scratch)
            if name == "sor_value":  # the last call of an epoch
                current, peak = tracemalloc.get_traced_memory()
                growth.append(peak - start[0])
                tracemalloc.reset_peak()
                start[0] = current
            return result

        return spy

    for name in seen:
        monkeypatch.setattr(nets_module, name, spying(name))
    tracemalloc.start()
    try:
        start = [tracemalloc.get_traced_memory()[0]]
        trained, history = train(net, data, cfg)
    finally:
        tracemalloc.stop()
    # sor_value's probe forward goes through forward_batch as well
    assert seen == {"forward_batch": 2 * cfg.epochs, "sor_value": cfg.epochs}
    assert len(history) == cfg.epochs
    assert growth[0] > 2 * 1024 * 1024  # the arena, made before epoch 0
    assert max(growth[1:]) < 128 * 1024, growth
    assert trained._arena is None


@pytest.mark.parametrize("epochs, tau", [(0, 0.01), (2, 1e300)], ids=["no-epoch", "diverged"])
def test_train_frees_step_buffers_on_every_exit(epochs, tau):
    # the arena and the buffers that view it, left by an earlier step, are
    # freed when training runs no epoch, and a diverged step's are freed
    # before TrainingDiverged leaves
    net = make_net((4, 3, 4), seed=23)
    data = np.random.default_rng(23).uniform(0, 1, (10, 4))
    cfg = TrainConfig(lam=0.4, epochs=epochs, batch_size=4, seed=6, tau=tau)
    loss_and_grad(net, data[:4], data[4:8], cfg)
    assert net._arena is not None and net._workspaces
    if epochs:
        with pytest.raises(TrainingDiverged):
            train(net, data, cfg)
    else:
        train(net, data, cfg)
    assert net._arena is None and net._workspaces == {}


def test_diverging_train_raises_training_diverged_when_warnings_are_errors():
    # the step that overflows raises TrainingDiverged, not a RuntimeWarning
    net = make_net((4, 3, 4), seed=23)
    data = np.random.default_rng(23).uniform(0, 1, (10, 4))
    cfg = TrainConfig(lam=0.4, epochs=2, batch_size=4, seed=6, tau=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match="epoch 0, step 1") as exc:
            train(net, data, cfg)
    assert (exc.value.epoch, exc.value.step) == (0, 1)


@pytest.mark.parametrize("mode", ["AE", "PnP"])
@pytest.mark.parametrize("lam", [0.0, 0.4])
def test_workspaces_sharing_the_arena_match_fresh_nets(mode, lam):
    # workspaces of every row count start at the same arena offset; a pass
    # over 7, 3, then 7 rows (and 9, which replaces the arena) gives the
    # bits of the same call on a fresh copy of the net
    rng = np.random.default_rng(43)
    net = make_net((6, 5, 3, 5, 6), seed=44)
    cfg = TrainConfig(lam=lam, mode=mode, xi=0.1)
    shared = net.copy()
    for rows in (7, 3, 7, 9):
        X = rng.uniform(0, 1, (rows, 6))
        Z = rng.uniform(0, 1, (rows, 6))
        loss, grad = loss_and_grad(shared, X, Z, cfg, noise_seed=rows)
        fresh_loss, fresh_grad = loss_and_grad(net.copy(), X, Z, cfg, noise_seed=rows)
        assert loss == fresh_loss and np.array_equal(grad, fresh_grad), rows
        if rows == 3:
            small, large = (shared._workspaces[r, r if lam else 0] for r in (3, 7))
            assert np.shares_memory(small.acts[0], large.acts[0])
            assert np.shares_memory(grad, shared._arena)
    assert len(shared._workspaces) == 1  # the 7- and 3-row ones viewed the old arena


def test_loss_without_z_batch_only_at_lambda_zero():
    net = make_net((3, 2, 3), seed=19)
    X = np.random.default_rng(19).uniform(0, 1, (2, 3))
    loss, grad = loss_and_grad(net, X, None, TrainConfig(lam=0.0))
    grad = grad.copy()
    loss_z, grad_z = loss_and_grad(net, X, np.ones((2, 3)), TrainConfig(lam=0.0))
    assert loss == loss_z and np.array_equal(grad, grad_z)
    with pytest.raises(ValueError):
        loss_and_grad(net, X, None, TrainConfig(lam=0.1))


def test_train_rejects_out_of_range_data():
    net = make_net((3, 3), seed=14)
    with pytest.raises(ValueError):
        train(net, np.array([[0.5, 1.5, 0.0]]), TrainConfig(epochs=1))


def test_train_history_records():
    data = np.random.default_rng(11).uniform(0, 1, (8, 4))
    _, history = train(make_net((4, 2, 4), seed=15), data,
                       TrainConfig(epochs=3, batch_size=4))
    assert [h.epoch for h in history] == [0, 1, 2]
    assert all(np.isfinite(h.data_loss) and np.isfinite(h.probe_mean_psi)
               for h in history)


def test_train_lambda_reduces_probe_psi():
    # regularized training ends with lower probe-set orthogonality defect
    data = np.random.default_rng(12).uniform(0, 1, (40, 9))
    base_cfg = dict(tau=2e-3, epochs=60, batch_size=8, seed=5)
    _, h0 = train(make_net((9, 6, 3, 6, 9), seed=16), data,
                  TrainConfig(lam=0.0, **base_cfg))
    _, h1 = train(make_net((9, 6, 3, 6, 9), seed=16), data,
                  TrainConfig(lam=0.4, **base_cfg))
    assert h1[-1].probe_mean_psi < h0[-1].probe_mean_psi


def test_train_rejects_nan_data_before_any_step():
    net = make_net((3, 3), seed=41)
    before = net.params.copy()
    data = np.array([[0.5, np.nan, 0.0], [0.1, 0.2, 0.3]])
    with pytest.raises(ValueError, match="finite"):
        train(net, data, TrainConfig(epochs=1))
    assert np.array_equal(net.params, before)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epochs": -3},
        {"adam": (1.5, 0.999, 1e-8)},
        {"adam": (-0.1, 0.999, 1e-8)},
        {"adam": (0.9, 1.0, 1e-8)},
        {"adam": (0.9, 0.999, 0.0)},
        {"adam": (0.9, 0.999)},
        {"lam": float("nan")},
        {"tau": float("nan")},
        {"mode": "PnP", "xi": float("nan")},
    ],
)
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


def test_history_records_degenerate_probe_count(tmp_path):
    # the identity net reproduces its data exactly: the gradient is zero,
    # the net never moves, and every probe point is degenerate
    data = np.random.default_rng(42).uniform(0, 1, (4, 3))
    _, history = train(identity_net(3), data, TrainConfig(epochs=2, batch_size=2))
    assert [h.probe_degenerate for h in history] == [PROBE_POINTS, PROBE_POINTS]
    path = tmp_path / "history.csv"
    history_to_csv(history, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "epoch,data_loss,probe_mean_psi,probe_degenerate"
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [str(PROBE_POINTS)] * 2


# --- unbiasedness -------------------------------------------------------------


def test_unbiasedness_full_batch_lambda_zero_exact():
    data = np.random.default_rng(13).uniform(0, 1, (6, 4))
    net = make_net((4, 3, 4), seed=17)
    cfg = TrainConfig(lam=0.0, batch_size=6)
    report = stochastic_gradient_unbiasedness_check(net, data, cfg, trials=20)
    assert report.frac_within_4se == 1.0
    assert report.max_abs_z == 0.0


def test_unbiasedness_single_trial_no_assertion():
    data = np.random.default_rng(14).uniform(0, 1, (6, 4))
    net = make_net((4, 3, 4), seed=18)
    cfg = TrainConfig(lam=0.4, batch_size=3)
    report = stochastic_gradient_unbiasedness_check(net, data, cfg, trials=1,
                                                    mc_points=2000)
    assert report.trials == 1
    assert report.frac_within_4se == 1.0  # no assertion content at one trial


def test_unbiasedness_rejects_pnp():
    data = np.random.default_rng(15).uniform(0, 1, (6, 4))
    net = make_net((4, 3, 4), seed=19)
    with pytest.raises(ValueError):
        stochastic_gradient_unbiasedness_check(
            net, data, TrainConfig(mode="PnP", xi=0.1, batch_size=3), trials=2
        )


def test_unbiasedness_error_shrinks_at_root_trials_rate():
    # SOR-gradient averaging error should follow ~ 1/sqrt(trials): the
    # log-log slope over two decades sits near -0.5
    data = np.random.default_rng(16).uniform(0, 1, (8, 6))
    net = make_net((6, 4, 6), seed=20)
    cfg = TrainConfig(lam=0.4, batch_size=8)  # full batch: only SOR noise

    from gpgd.nets import _backprop, _workspace

    # data rows only, then z rows only, through the training pass
    work = _workspace(net, 8, 0)
    work.acts[0][...] = data
    data_grad = _backprop(work, data, 0.0)[2].copy()
    # high-precision reference (1e6 points, chunked) so its own Monte-Carlo
    # error does not flatten the measured slope at large trial counts
    rng = np.random.default_rng(21)
    sor_ref = np.zeros(net.n_params())
    n_chunks, per_chunk = 10, 100_000
    work = _workspace(net, 0, per_chunk)
    for _ in range(n_chunks):
        work.acts[0][...] = rng.uniform(size=(per_chunk, 6))
        sor_ref += _backprop(work, np.empty((0, 6)),
                             1.0 / (per_chunk * n_chunks))[2]
    ref = data_grad + 0.4 * sor_ref

    errors = []
    for trials in (100, 10_000):
        acc = np.zeros(net.n_params())
        for _ in range(trials):
            zb = rng.uniform(size=(8, 6))
            _, grads = loss_and_grad(net, data, zb, cfg)
            acc += grads
        errors.append(np.linalg.norm(acc / trials - ref))
    slope = (np.log10(errors[1]) - np.log10(errors[0])) / 2.0
    assert -0.65 <= slope <= -0.35


# --- checkpoints ---------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net = make_net((6, 4, 2, 4, 6), seed=22)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert back.dims == net.dims
    assert back.latent_index == net.latent_index
    assert np.array_equal(back.params, net.params)
    for a, b in zip(back.layers, net.layers):
        assert a.activation == b.activation


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    net = make_net((6, 4, 2, 4, 6), seed=43)
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(net, first)
    save_checkpoint(load_checkpoint(first), second)
    raw = first.read_bytes()
    assert second.read_bytes() == raw
    assert raw.partition(b"\n")[2] == net.params.astype("<f8").tobytes()


def test_checkpoint_truncated(tmp_path):
    net = make_net((4, 3, 4), seed=23)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert exc.value.offset > 0


def test_checkpoint_architecture_mismatch(tmp_path):
    net = make_net((4, 3, 4), seed=24)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    header, _, blob = raw.partition(b"\n")
    tampered = header.replace(b"[4,3,4]", b"[4,4,4]")
    path.write_bytes(tampered + b"\n" + blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_missing_header(tmp_path):
    path = tmp_path / "net.ckpt"
    path.write_bytes(b"\x00\x01\x02\x03")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "old, new",
    [
        (b'"kind":"leaky_relu"', b'"kindx":"leaky_relu"'),  # missing key
        (b'"slope":0.01', b'"slope":1.5'),  # slope outside [0, 1]
        (b'"latent_index":0', b'"latent_index":7'),  # no such layer
    ],
)
def test_checkpoint_bad_layer_specification(tmp_path, old, new):
    path = tmp_path / "net.ckpt"
    save_checkpoint(make_net((4, 3, 4), seed=44), path)
    header, _, blob = path.read_bytes().partition(b"\n")
    assert old in header
    path.write_bytes(header.replace(old, new, 1) + b"\n" + blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
