"""Monte-Carlo check that a training step's stochastic gradient is an
unbiased estimate of the regularized loss gradient (criterion 6 and the
unbiasedness tests in test_nets.py). It reaches into the network's
private training pass (`_workspace`, `_backprop`) to build the reference.
"""

from dataclasses import dataclass, field

import numpy as np

from gpgd.nets import DenseNet, TrainConfig, _backprop, _workspace, loss_and_grad


@dataclass
class UnbiasednessReport:
    trials: int
    n_params: int
    frac_within_4se: float
    max_abs_z: float
    zscores: np.ndarray = field(repr=False)


def stochastic_gradient_unbiasedness_check(net: DenseNet, dataset,
                                           cfg: TrainConfig, trials: int,
                                           mc_points: int = 100_000,
                                           seed: int = 0) -> UnbiasednessReport:
    """Check E[stochastic gradient] against a high-precision reference.

    Reference = full-batch data gradient + lam * Monte-Carlo penalty
    gradient over mc_points uniform draws. Each trial draws batch_size
    dataset items without replacement plus batch_size fresh z points.
    z-scores use the combined standard error of the trial mean and the
    Monte-Carlo reference (both are noisy estimates of the same vector).
    Supports AE mode only: the denoiser data term carries its own noise
    expectation, which this check does not model.
    """
    if cfg.mode != "AE":
        raise ValueError("unbiasedness check supports AE mode only")
    items = np.atleast_2d(np.asarray(dataset, dtype=np.float64))
    count = items.shape[0]
    if cfg.batch_size > count:
        raise ValueError("batch_size exceeds dataset size")
    n = net.n
    n_params = net.n_params()
    rng = np.random.default_rng(seed)

    # Full-batch data gradient (exact part of the reference).
    work = _workspace(net, count, 0)
    work.acts[0][...] = items
    data_flat = _backprop(work, items, 0.0)[2].copy()

    # Monte-Carlo penalty gradient, chunked to estimate its own error: each
    # chunk is all z rows, scaled to the chunk mean.
    if cfg.lam != 0.0:
        n_chunks = 200
        per_chunk = max(mc_points // n_chunks, 1)
        work = _workspace(net, 0, per_chunk)
        no_data = np.empty((0, n))
        chunk_arr = np.empty((n_chunks, n_params))
        for c in range(n_chunks):
            work.acts[0][...] = rng.uniform(size=(per_chunk, n))
            chunk_arr[c] = _backprop(work, no_data, 1.0 / per_chunk)[2]
        sor_ref = cfg.lam * chunk_arr.mean(axis=0)
        se_ref_sq = cfg.lam**2 * chunk_arr.var(axis=0, ddof=1) / n_chunks
    else:
        sor_ref = np.zeros(n_params)
        se_ref_sq = np.zeros(n_params)
    reference = data_flat + sor_ref

    full_batch = cfg.batch_size == count
    # Welford accumulation: exact zero variance when every trial matches
    # (the shortcut sum-of-squares formula leaves cancellation residue)
    mean_g = np.zeros(n_params)
    m2 = np.zeros(n_params)
    for trial in range(trials):
        if full_batch:
            idx = np.arange(count)  # no sampling: trials match the reference
        else:
            idx = rng.choice(count, size=cfg.batch_size, replace=False)
        zb = rng.uniform(size=(cfg.batch_size, n))
        _, flat = loss_and_grad(net, items[idx], zb, cfg, 0)
        delta = flat - mean_g
        mean_g += delta / (trial + 1)
        m2 += delta * (flat - mean_g)
    var_g = m2 / max(trials - 1, 1)
    se_sq = var_g / trials + se_ref_sq
    diff = mean_g - reference
    z = np.zeros(n_params)
    nonzero = se_sq > 0
    z[nonzero] = diff[nonzero] / np.sqrt(se_sq[nonzero])
    z[~nonzero] = np.where(diff[~nonzero] == 0.0, 0.0, np.inf)
    frac = float(np.mean(np.abs(z) <= 4.0)) if trials > 1 else 1.0
    return UnbiasednessReport(
        trials=trials,
        n_params=n_params,
        frac_within_4se=frac,
        max_abs_z=float(np.max(np.abs(z))),
        zscores=z,
    )
