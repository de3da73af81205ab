"""Dense projective-prior networks with hand-written forward/backward.

Networks map R^n to R^n (input and output widths agree) and are trained as
autoencoders or denoisers by Adam on an MSE data term, optionally
regularized by the stochastic orthogonality penalty: the mean over fresh
uniform samples z of |<P(z), z - P(z)>| / (||P(z)|| ||z - P(z)||). The
penalty gradient is differentiated fully through the quotient.

All parameters of a network live in one flat float64 vector (`DenseNet.
params`, checkpoint order); gradients and Adam moments use the same layout,
so an Adam step is a few elementwise operations, run block by block. A
training step runs one
forward and one backward pass over the data rows stacked on the z rows. Its
buffers, the gradient and one workspace per row count, are views of one
flat scratch block per network, the arena, which training also lends to
each epoch's history pass. A buffer is held only while it is read: the
backward pass writes each layer's gradient over that layer's output, and
train draws each step's z batch straight into the workspace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .signals import as_rows
from .theory import psi_rows

__all__ = [
    "Activation",
    "DenseLayer",
    "DenseNet",
    "NetProjector",
    "TrainConfig",
    "AdamState",
    "EpochRecord",
    "SorResult",
    "NonFiniteLoss",
    "TrainingDiverged",
    "CheckpointError",
    "make_net",
    "autoencoder_dims",
    "forward",
    "forward_batch",
    "loss_and_grad",
    "sor_value",
    "adam_state_for",
    "adam_step",
    "train",
    "history_to_csv",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_train_key",
]

PROBE_POINTS = 512
_HIDDEN_SLOPE = 0.01  # leaky-ReLU slope of make_net's hidden layers


class NonFiniteLoss(RuntimeError):
    """Loss evaluation produced a non-finite value."""

    def __init__(self, term: str, data: float, sor: float):
        super().__init__(f"non-finite loss ({term} term): data={data!r} sor={sor!r}")
        self.term = term


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, step: int, cause: NonFiniteLoss):
        super().__init__(f"training diverged at epoch {epoch}, step {step}: {cause}")
        self.epoch = epoch
        self.step = step


class CheckpointError(ValueError):
    """Malformed checkpoint file; offset is the byte position of the issue."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Activation:
    """Identity, or leaky ReLU max(z, slope * z) with 0 <= slope <= 1 (the
    range where the max form equals "z if z >= 0 else slope * z")."""

    kind: str  # "leaky_relu" | "identity"
    slope: float = 0.0

    def __post_init__(self):
        if self.kind not in ("leaky_relu", "identity"):
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "leaky_relu" and not 0.0 <= self.slope <= 1.0:
            raise ValueError(f"leaky_relu slope must lie in [0, 1], got {self.slope}")


# The leaky-ReLU formulas: out receives max(z, slope * z) (out must not be
# z), or the derivative, 1 where z >= 0 and slope elsewhere (out may be z).
def _leaky_relu(z, slope, out):
    out = np.multiply(z, slope, out=out)
    return np.maximum(z, out, out=out)


def _leaky_relu_derivative(z, slope, out):
    np.greater_equal(z, 0.0, out=out)
    return np.maximum(out, slope, out=out)


@dataclass(frozen=True)
class DenseLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: Activation

    def __post_init__(self):
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("layer shapes inconsistent")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")


def _param_count(dims) -> int:
    return sum(fan_out * fan_in + fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def _split(vec: np.ndarray, dims) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of a flat vector laid out in checkpoint order:
    per layer, the weight row-major, then the bias."""
    views = []
    pos = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        weight = vec[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in)
        pos += fan_out * fan_in
        views.append((weight, vec[pos : pos + fan_out]))
        pos += fan_out
    return views


class DenseNet:
    """Chain of dense layers with equal input and output width.

    The parameters live in one contiguous float64 vector, `params`, in
    checkpoint order; each layer's weight and bias are views into it, so
    writes through either show in the other. The constructor copies the
    values of the layers it is given and never aliases them.
    """

    def __init__(self, layers, latent_index: int | None = None):
        layers = list(layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("layer dimensions do not chain")
        if layers[-1].weight.shape[0] != layers[0].weight.shape[1]:
            raise ValueError("projector nets need output width == input width")
        if latent_index is not None and not 0 <= latent_index < len(layers):
            raise ValueError(f"latent_index {latent_index} out of range")
        dims = [layers[0].weight.shape[1]] + [l.weight.shape[0] for l in layers]
        self.params = np.empty(_param_count(dims))
        self.layers = []
        for (weight, bias), layer in zip(_split(self.params, dims), layers):
            weight[...] = layer.weight
            bias[...] = layer.bias
            self.layers.append(DenseLayer(weight, bias, layer.activation))
        self.latent_index = latent_index
        # Training scratch, made on first use: the arena, a flat block that
        # holds the gradient at its start and, after it, the buffers of one
        # _Workspace per stacked row count, every row count at the same
        # offset.
        self._arena: np.ndarray | None = None
        self._workspaces: dict[int, _Workspace] = {}

    @property
    def n(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].weight.shape[1]] + [
            l.weight.shape[0] for l in self.layers
        ]

    def n_params(self) -> int:
        return self.params.size

    def layer_views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views of a flat vector in the parameter
        layout, such as a gradient from loss_and_grad."""
        if vec.shape != self.params.shape:
            raise ValueError(f"vector shape {vec.shape}, expected {self.params.shape}")
        return _split(vec, self.dims)

    def copy(self) -> "DenseNet":
        return DenseNet(self.layers, self.latent_index)


class NetProjector:
    """Use a trained network as the projection inside the solver; like
    forward, it takes one vector or a stack of vectors, one per row."""

    def __init__(self, net: DenseNet):
        self.net = net

    def __call__(self, z) -> np.ndarray:
        return forward(self.net, z)


def autoencoder_dims(n: int) -> tuple[int, ...]:
    """Default bottleneck shape n -> n/2 -> n/4 -> n/2 -> n."""
    return (n, max(n // 2, 2), max(n // 4, 1), max(n // 2, 2), n)


def make_net(dims, seed: int) -> DenseNet:
    """He-initialized dense net; leaky-ReLU hidden layers, identity output.

    latent_index is the layer producing the narrowest width.
    """
    dims = list(dims)
    if len(dims) < 2:
        raise ValueError("need at least one layer")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        act = (
            Activation("identity")
            if i == len(dims) - 2
            else Activation("leaky_relu", _HIDDEN_SLOPE)
        )
        # a read-only zero view: the weights are drawn into the net's own
        # parameter vector below, so no full-size temporary is made
        layers.append(DenseLayer(np.broadcast_to(0.0, (fan_out, fan_in)),
                                 np.zeros(fan_out), act))
    net = DenseNet(layers, int(np.argmin(dims[1:])))
    rng = np.random.default_rng(seed)
    for fan_in, (weight, _) in zip(dims, net.layer_views(net.params)):
        rng.standard_normal(out=weight)
        weight *= math.sqrt(2.0 / fan_in)
    return net


def forward(net: DenseNet, x) -> np.ndarray:
    """Network output for one input (n,) or a stack (b, n), one per row.

    A stack goes through as one batched matmul per layer, so its rows may
    differ from one-row outputs in the last bits."""
    arr = as_rows(x)
    if arr.shape[-1] != net.n:
        raise ValueError(f"input length {arr.shape[-1]}, net expects {net.n}")
    out = forward_batch(net, arr.reshape(-1, net.n))[0]
    return out.reshape(arr.shape)


def forward_batch(net: DenseNet, X: np.ndarray, scratch: np.ndarray | None = None):
    """Evaluate a (batch, n) input, keeping only the running activation.

    Returns (output, None): no per-layer caches are kept, because the
    training pass keeps its own in the network's workspaces. The two
    buffers of batch * max(dims[1:]) floats that the pass needs are fresh,
    or the start of a flat float64 `scratch` block, which the output then
    views.
    """
    a = np.asarray(X, dtype=np.float64)
    rows = a.shape[0]
    size = rows * max(net.dims[1:])
    # Two flat buffers take turns: `spare` is free, `other` may hold a.
    # A layer's pre-activation goes to `spare`; a leaky ReLU then writes
    # its output over `other`, whose input is dead once the matmul is done.
    if scratch is None:
        spare, other = np.empty(size), np.empty(size)
    else:
        spare, other = _take(scratch, 0, (size,), (size,))
    for layer in net.layers:
        shape = (rows, layer.weight.shape[0])
        z = spare[: shape[0] * shape[1]].reshape(shape)
        np.matmul(a, layer.weight.T, out=z)
        z += layer.bias
        if layer.activation.kind == "identity":
            a = z
            spare, other = other, spare
        else:
            a = _leaky_relu(z, layer.activation.slope, other[: z.size].reshape(shape))
    return a, None


class _LayerPass(NamedTuple):
    """The arrays of one layer that a training pass touches."""

    weight: np.ndarray
    weight_t: np.ndarray
    bias: np.ndarray
    slope: float | None  # leaky-ReLU slope; None for the identity
    a_in: np.ndarray
    pre: np.ndarray  # pre-activation
    a_out: np.ndarray  # the output, then the gradient at the pre-activation
    a_out_t: np.ndarray
    g_w: np.ndarray  # weight and bias gradients
    g_b: np.ndarray
    below: bool  # whether a layer below takes a gradient (into a_in)


def _take(block: np.ndarray, start: int, *shapes) -> list[np.ndarray]:
    """Consecutive C-ordered views of the given shapes into the flat block,
    from offset start on."""
    views = []
    for shape in shapes:
        size = math.prod(shape)
        if start + size > block.size:
            raise ValueError(f"scratch of {block.size} floats is too small")
        views.append(block[start : start + size].reshape(shape))
        start += size
    return views


def _workspace_widths(net: DenseNet) -> list[int]:
    """Column counts of a _Workspace's stacked-row buffers in arena order:
    the input and every layer's output, then the leaky-ReLU layers'
    pre-activations."""
    dims = net.dims
    hidden = [d for d, layer in zip(dims[1:], net.layers)
              if layer.activation.kind != "identity"]
    return dims + hidden


def _step_floats(net: DenseNet, data_rows: int, z_rows: int) -> int:
    """Arena floats of a training step over `data_rows` data rows stacked
    on `z_rows` z rows: the gradient, then a _Workspace."""
    return (net.params.size + (data_rows + z_rows) * sum(_workspace_widths(net))
            + z_rows * net.n)


def _history_floats(net: DenseNet, count: int) -> int:
    """Arena floats of train's history pass over `count` items and the
    PROBE_POINTS probes: forward_batch's two buffers, then the probes'
    z - net(z) in sor_value."""
    return (2 * max(count, PROBE_POINTS) * max(net.dims[1:])
            + PROBE_POINTS * net.n)


class _Workspace:
    """Buffers of one forward/backward pass over `data_rows` data rows
    stacked on `z_rows` z rows, in the network's arena after the gradient.

    `acts` holds each layer's input (acts[0] is the net input) and the net
    output; `resid` is scratch for the z rows' z - net(z). `table` holds one
    _LayerPass per layer, with its pre-activation buffer (an identity
    layer's is its output buffer) and its views into the network's flat
    gradient buffer, kept as `grad`; with it a step looks up no attributes.

    No buffer holds an upstream gradient: the backward pass writes each
    layer's gradient over that layer's output, which the layer above has
    read for its weight gradient by then, and the gradient at the net
    output over the output itself. Workspaces of every row count start at
    the same offset: a step writes each buffer before it reads it, so none
    carries anything from one step to the next.
    """

    def __init__(self, net: DenseNet, data_rows: int, z_rows: int):
        dims = net.dims
        rows = data_rows + z_rows
        arena = _arena(net, _step_floats(net, data_rows, z_rows))
        self.grad = arena[: net.params.size]
        grad_views = _split(self.grad, dims)
        views = iter(_take(arena, self.grad.size,
                           *((rows, w) for w in _workspace_widths(net)),
                           (z_rows, net.n)))
        self.acts = [next(views) for _ in dims]
        pres = [
            self.acts[l + 1] if layer.activation.kind == "identity" else next(views)
            for l, layer in enumerate(net.layers)
        ]
        self.resid = next(views)
        self.table = [
            _LayerPass(
                layer.weight, layer.weight.T, layer.bias,
                None if layer.activation.kind == "identity" else layer.activation.slope,
                self.acts[l], pres[l], self.acts[l + 1], self.acts[l + 1].T,
                g_w, g_b, l > 0)
            for l, (layer, (g_w, g_b)) in enumerate(zip(net.layers, grad_views))
        ]


def _workspace(net: DenseNet, data_rows: int, z_rows: int) -> _Workspace:
    key = (data_rows, z_rows)
    work = net._workspaces.get(key)
    if work is None:
        work = net._workspaces[key] = _Workspace(net, data_rows, z_rows)
    return work


def _free_arena(net: DenseNet) -> None:
    """Drop the net's arena and the workspaces that view it; the next
    loss_and_grad rebuilds them."""
    net._arena = None
    net._workspaces.clear()


def _arena(net: DenseNet, floats: int) -> np.ndarray:
    """The net's arena, first replaced by a block of `floats` floats if it
    is smaller; the views of a replaced block are dropped."""
    if net._arena is None or net._arena.size < floats:
        _free_arena(net)
        net._arena = np.empty(floats)
    return net._arena


def _forward(work: _Workspace) -> np.ndarray:
    """Forward pass over work.acts[0], keeping every layer's buffers."""
    for _, weight_t, bias, slope, a, z, out, *_ in work.table:
        np.matmul(a, weight_t, out=z)
        z += bias
        if slope is not None:
            _leaky_relu(z, slope, out)
    return out


def _backprop(work: _Workspace, targets: np.ndarray, z_scale: float):
    """One forward and one backward pass over the stacked rows in
    work.acts[0]: the first len(targets) are data rows, the rest z rows.

    Data rows get the gradient of mean((out - targets)^2), z rows
    z_scale * dpsi; the parameter gradient sums both. Returns (data MSE,
    sum of psi over the z rows, gradient), the gradient being the network's
    buffer, overwritten by the next call.
    """
    s = targets.shape[0]
    out = _forward(work)
    # the gradient at the output is written over the output: the data rows
    # subtract in place, and psi_rows reads its P before it writes dpsi
    data = psi_sum = 0.0
    if s:
        resid = np.subtract(out[:s], targets, out=out[:s])
        data = float(np.vdot(resid, resid)) / resid.size
        resid *= 2.0
        resid /= resid.size
    if out.shape[0] > s:
        psi_vals, _ = psi_rows(out[s:], work.acts[0][s:], dpsi=out[s:],
                               R=work.resid)
        psi_sum = float(psi_vals.sum())
        out[s:] *= z_scale
    for weight, _, _, slope, a, z, d, d_t, g_w, g_b, below in reversed(work.table):
        if slope is not None:
            d *= _leaky_relu_derivative(z, slope, z)
        np.matmul(d_t, a, out=g_w)
        np.add.reduce(d, axis=0, out=g_b)
        if below:  # a is read for the last time above
            np.matmul(d, weight, out=a)
    return data, psi_sum, work.grad


@dataclass
class TrainConfig:
    """Training recipe: lam is the orthogonality-penalty weight, tau the
    Adam learning rate, xi the input-noise deviation for denoiser (PnP)
    training, adam the (beta1, beta2, eps) of Adam."""

    lam: float = 0.0
    tau: float = 1e-3
    batch_size: int = 64
    epochs: int = 100
    mode: str = "AE"  # "AE" | "PnP"
    xi: float = 0.1
    adam: tuple[float, float, float] = (0.9, 0.999, 1e-8)
    seed: int = 0

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.mode not in ("AE", "PnP"):
            raise ValueError(f"mode must be AE or PnP, got {self.mode!r}")
        if self.mode == "PnP" and not self.xi > 0:
            raise ValueError("PnP mode requires xi > 0")
        if len(self.adam) != 3:
            raise ValueError(f"adam must be (beta1, beta2, eps), got {self.adam!r}")
        beta1, beta2, eps = self.adam
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0 and eps > 0.0):
            raise ValueError(
                f"adam needs 0 <= beta1, beta2 < 1 and eps > 0, got {self.adam!r}"
            )


class SorResult(NamedTuple):
    value: float
    degenerate: int


def sor_value(net: DenseNet, z_batch, scratch: np.ndarray | None = None) -> SorResult:
    """Empirical orthogonality penalty (1/s) sum psi(z_i); degenerate
    samples contribute zero and are counted. Value only: no gradient.

    A flat float64 `scratch` block, if given, holds forward_batch's two
    buffers and then psi_rows' z - net(z): s * (2 max(dims[1:]) + n)
    floats."""
    Z = np.atleast_2d(np.asarray(z_batch, dtype=np.float64))
    out, _ = forward_batch(net, Z, scratch=scratch)
    R = None
    if scratch is not None:
        (R,) = _take(scratch, 2 * Z.shape[0] * max(net.dims[1:]), Z.shape)
    psi_vals, degenerate = psi_rows(out, Z, R=R)
    return SorResult(float(psi_vals.sum() / Z.shape[0]),
                     int(np.count_nonzero(degenerate)))


def loss_and_grad(net: DenseNet, batch, z_batch, cfg: TrainConfig,
                  noise_seed: int = 0):
    """Regularized loss and its full parameter gradient.

    loss = mean((net(input) - x)^2) + lam * (1/s) sum psi(z_i), where the
    input is x itself (AE) or x + N(0, xi^2 I) noise drawn from noise_seed
    (PnP). The mean runs over both batch and vector elements. The penalty
    weight lam multiplies the gradient as well, keeping the stochastic
    gradient an unbiased estimate of the regularized loss gradient.

    With lam > 0 the inputs and the z batch go through one forward and one
    backward pass as stacked rows. At lam = 0 no term reads z, and
    z_batch may be None. The gradient is a flat vector in the parameter
    layout (see DenseNet.layer_views); it is the network's own buffer,
    overwritten by the next call on the same network and, inside train,
    by each epoch's history pass.
    """
    X = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if X.shape[1] != net.n:
        raise ValueError(f"batch width {X.shape[1]}, net expects {net.n}")
    if z_batch is not None:
        Z = np.atleast_2d(np.asarray(z_batch, dtype=np.float64))
        if X.shape[0] != Z.shape[0]:
            raise ValueError(
                f"data batch ({X.shape[0]}) and z batch ({Z.shape[0]}) sizes differ"
            )
        if Z.shape[1] != net.n:
            raise ValueError(f"z batch width {Z.shape[1]}, net expects {net.n}")
    elif cfg.lam != 0.0:
        raise ValueError("a z batch is required when lam != 0")
    s = X.shape[0]
    work = _workspace(net, s, s if cfg.lam != 0.0 else 0)
    inputs = work.acts[0]
    if cfg.mode == "PnP":
        np.random.default_rng(noise_seed).standard_normal(out=inputs[:s])
        inputs[:s] *= cfg.xi
        inputs[:s] += X
    else:
        inputs[:s] = X
    if cfg.lam != 0.0:
        inputs[s:] = Z  # no copy when Z views these rows, as in train
    data, psi_sum, grad = _backprop(work, X, cfg.lam / s)
    sor = psi_sum / s
    loss = data + cfg.lam * sor
    if not math.isfinite(loss):
        term = "data" if not math.isfinite(data) else "sor"
        raise NonFiniteLoss(term, data, sor)
    return loss, grad


# Elements per block of adam_step: the block's slices of the parameters,
# gradient, moments and scratch (256 KiB each) stay in L2 across its 13
# passes, where whole vectors of a large net would stream from memory.
_ADAM_BLOCK = 1 << 15


@dataclass
class AdamState:
    """Flat first and second moments in the parameter layout, and the
    number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def __post_init__(self):
        # work buffer of adam_step, one block long
        self.scratch = np.empty(min(self.m.size, _ADAM_BLOCK))


def adam_state_for(net: DenseNet) -> AdamState:
    return AdamState(m=np.zeros_like(net.params), v=np.zeros_like(net.params))


def adam_step(net: DenseNet, grads, state: AdamState, tau: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """Standard bias-corrected Adam update of the flat parameter vector
    from a flat gradient, in place.

    The update runs block by block over _ADAM_BLOCK elements. Every op is
    elementwise, so the bits do not depend on the block size."""
    g = np.asarray(grads, dtype=np.float64)
    params = net.params
    if g.shape != params.shape:
        raise ValueError(f"gradient shape {g.shape}, expected {params.shape}")
    state.step += 1
    c1 = 1.0 - beta1**state.step
    c2 = 1.0 - beta2**state.step
    for start in range(0, params.size, _ADAM_BLOCK):
        end = start + _ADAM_BLOCK
        gb, m, v = g[start:end], state.m[start:end], state.v[start:end]
        tmp = state.scratch[: gb.size]
        m *= beta1
        m += np.multiply(gb, 1.0 - beta1, out=tmp)
        v *= beta2
        np.multiply(gb, gb, out=tmp)
        tmp *= 1.0 - beta2
        v += tmp
        # params -= (tau / c1) m / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m, tmp, out=tmp)
        tmp *= tau / c1
        params[start:end] -= tmp
    return net, state


@dataclass
class EpochRecord:
    epoch: int
    data_loss: float
    probe_mean_psi: float
    probe_degenerate: int


def train(net: DenseNet, dataset, cfg: TrainConfig):
    """Mini-batch Adam training with a fresh uniform z-batch per step.

    Seed-stream layout (reproducibility contract): SeedSequence(cfg.seed)
    spawns, in order, the probe stream (512 fixed uniform points evaluated
    per epoch), the shuffle stream (one permutation per epoch), the z
    stream (one uniform batch per step, drawn only when lam != 0; no other
    stream reads it, so skipping it at lam = 0 moves no bit), and the PnP
    noise stream (one seed per step). history holds one record per epoch:
    full-dataset reconstruction MSE, the probe-set mean orthogonality
    defect and the number of degenerate probe points.
    """
    items = np.atleast_2d(np.asarray(dataset, dtype=np.float64))
    if items.shape[0] < 1:
        raise ValueError("dataset must be non-empty")
    if not np.all((items >= 0.0) & (items <= 1.0)):
        raise ValueError("dataset entries must be finite and lie in [0, 1]")
    n = net.n
    if items.shape[1] != n:
        raise ValueError(f"dataset width {items.shape[1]}, net expects {n}")
    probe_ss, shuffle_ss, z_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(4)
    probe = np.random.default_rng(probe_ss).uniform(size=(PROBE_POINTS, n))
    shuffle_rng = np.random.default_rng(shuffle_ss)
    z_rng = np.random.default_rng(z_ss)
    noise_rng = np.random.default_rng(noise_ss)
    state = adam_state_for(net)
    history: list[EpochRecord] = []
    count = items.shape[0]
    batch = min(cfg.batch_size, count)
    stacked = cfg.lam != 0.0  # z rows under the data rows
    pnp = cfg.mode == "PnP"
    try:
        # One arena for the whole run, sized for the largest step and for
        # the history pass, which reuses it once the epoch's steps are done.
        arena = _arena(net, max(_step_floats(net, batch, batch if stacked else 0),
                                _history_floats(net, count)))
        for epoch in range(cfg.epochs):
            perm = shuffle_rng.permutation(count)
            # A diverging step overflows before its loss turns non-finite;
            # the loss check then raises TrainingDiverged.
            with np.errstate(over="ignore", invalid="ignore"):
                for step, start in enumerate(range(0, count, cfg.batch_size)):
                    idx = perm[start : start + cfg.batch_size]
                    xb = items[idx]
                    zb = None
                    if stacked:
                        # drawn straight into the step's z rows, which
                        # loss_and_grad then leaves as they are;
                        # random(out=...) gives the bits of uniform(size=...),
                        # which computes 0 + 1 * random()
                        zb = z_rng.random(
                            out=_workspace(net, idx.size, idx.size).acts[0][idx.size:])
                    noise_seed = int(noise_rng.integers(2**63)) if pnp else 0
                    try:
                        _, grads = loss_and_grad(net, xb, zb, cfg, noise_seed)
                    except NonFiniteLoss as exc:
                        raise TrainingDiverged(epoch, step, exc) from exc
                    adam_step(net, grads, state, cfg.tau, *cfg.adam)
            resid, _ = forward_batch(net, items, scratch=arena)
            resid -= items
            data_loss = float(np.vdot(resid, resid)) / resid.size
            probe_psi, probe_degenerate = sor_value(net, probe, scratch=arena)
            history.append(EpochRecord(epoch, data_loss, probe_psi, probe_degenerate))
    finally:
        # Also at epochs = 0 and on a diverged step: the net, usually a
        # projector next, keeps no scratch of its training.
        _free_arena(net)
    return net, history


def history_to_csv(history, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,data_loss,probe_mean_psi,probe_degenerate\n")
        for rec in history:
            fh.write(
                f"{rec.epoch},{repr(rec.data_loss)},{repr(rec.probe_mean_psi)},"
                f"{rec.probe_degenerate}\n"
            )


_CHECKPOINT_VERSION = 1


def save_checkpoint(net: DenseNet, path, train_key: str | None = None) -> None:
    """JSON header line, then the parameter vector as little-endian float64
    (per layer: weight row-major, then bias). A train_key, naming what
    trained the parameters, goes into the header."""
    header = {
        "format_version": _CHECKPOINT_VERSION,
        "dims": net.dims,
        "activations": [
            {"kind": l.activation.kind, "slope": l.activation.slope}
            for l in net.layers
        ],
        "latent_index": net.latent_index,
    }
    if train_key is not None:
        header["train_key"] = train_key
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("ascii"))
        fh.write(b"\n")
        fh.write(net.params.astype("<f8", copy=False).data)


def _read_header(line: bytes) -> dict:
    """Parse and version-check a checkpoint's header line, terminator included."""
    if not line.endswith(b"\n"):
        raise CheckpointError("missing header terminator", offset=len(line))
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"bad header JSON: {exc.msg}", offset=exc.pos) from None
    if header.get("format_version") != _CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported format_version {header.get('format_version')!r}", offset=0
        )
    return header


def checkpoint_train_key(path) -> str | None:
    """The train_key in a checkpoint's header (None when it has none), read
    without loading the parameters."""
    with open(path, "rb") as fh:
        return _read_header(fh.readline()).get("train_key")


def load_checkpoint(path, train_key: str | None = None) -> DenseNet:
    """Read a checkpoint written by save_checkpoint. When train_key is given,
    the header must carry that key."""
    raw = Path(path).read_bytes()
    line_end = raw.find(b"\n") + 1 or len(raw)
    header = _read_header(raw[:line_end])
    if train_key is not None and header.get("train_key") != train_key:
        raise CheckpointError(
            f"train_key {header.get('train_key')!r} does not match {train_key!r}",
            offset=0,
        )
    try:
        dims = [int(d) for d in header["dims"]]
        act_specs = header["activations"]
        latent_index = header["latent_index"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad header fields: {exc}", offset=0) from None
    if len(dims) < 2 or len(act_specs) != len(dims) - 1:
        raise CheckpointError("header dims/activations inconsistent", offset=0)
    expected = _param_count(dims)
    blob = raw[line_end:]
    if len(blob) != 8 * expected:
        raise CheckpointError(
            f"parameter blob mismatch for dims {dims}: expected {8 * expected} "
            f"bytes, got {len(blob)}",
            offset=line_end + min(len(blob), 8 * expected),
        )
    params = np.frombuffer(blob, dtype="<f8")
    try:
        layers = [
            DenseLayer(w, b, Activation(spec["kind"], float(spec.get("slope", 0.0))))
            for (w, b), spec in zip(_split(params, dims), act_specs)
        ]
        return DenseNet(layers, latent_index)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad layer specification: {exc!r}", offset=0) from None
