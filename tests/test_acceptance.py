"""Acceptance suite: one test per criterion, each printing a summary line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import math

import numpy as np
import pytest

from gpgd.datasets import synth_dataset
from gpgd.experiments import (
    ExperimentConfig,
    VerifyConfig,
    run_experiment,
    verify_theorems,
)
from gpgd.models import (
    ExactProjector,
    KSparse,
    PerturbedProjector,
    hard_threshold,
    random_lines,
)
from gpgd.nets import (
    TrainConfig,
    loss_and_grad,
    make_net,
    train,
)
from gpgd.operators import (
    Blur,
    Composition,
    DenseOperator,
    PixelMask,
    gaussian_blur_kernel,
    make_inpainting_operator,
    make_superres_operator,
)
from gpgd.solver import GpgdConfig, default_step_size, gpgd_run
from gpgd.theory import (
    orthogonality_report,
    restricted_lipschitz_sampled,
    ric_exact_ksparse,
    ric_sampled,
    theorem1_bound,
    theorem3_bound,
)
from unbiasedness import stochastic_gradient_unbiasedness_check

BETA_SPARSE = 1.618  # stated constant for the sparse projection
GOLDEN = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
N_SEEDS = 100


@pytest.fixture(scope="module")
def gaussian_instances():
    """The 100 sparse-recovery instances shared by criteria 1 and 2:
    Gaussian 16x32 operator, default step size, exact RIC for k=2."""
    instances = []
    for seed in range(N_SEEDS):
        rng = np.random.default_rng(seed)
        A = DenseOperator(rng.standard_normal((16, 32)))
        gamma = default_step_size(A)
        delta = ric_exact_ksparse(A, gamma, 2).value
        instances.append((A, gamma, delta, rng))
    return instances


def _sparse_truth(rng, n=32, k=2):
    x = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x[support] = rng.standard_normal(k)
    return x


def test_criterion_01_theorem1_bound_domination(gaussian_instances):
    qualifying = 0
    excluded = 0
    violations = 0
    for A, gamma, delta, rng in gaussian_instances:
        if delta * BETA_SPARSE >= 1.0:
            excluded += 1
            continue
        qualifying += 1
        x_true = _sparse_truth(rng)
        y = A.apply(x_true)
        cfg = GpgdConfig(gamma=gamma, max_iters=150)
        _, trace = gpgd_run(
            A, y, ExactProjector(KSparse(2, 32)), cfg, ground_truth=x_true
        )
        err = trace.err[0]  # the one row of a one-vector run
        bound = theorem1_bound(delta, BETA_SPARSE, gamma, err[0], 0.0, 150)
        if np.any(err > bound.bounds + 1e-9):
            violations += 1
    print(
        f"\ncriterion 1: qualifying={qualifying} excluded={excluded} "
        f"violations={violations} (delta*beta >= 1 on excluded seeds: the "
        f"flat Gaussian 16x32 ensemble rarely meets the contraction "
        f"hypothesis; the domination inequality itself is exercised "
        f"non-vacuously in criterion 10's conditioned suite)"
    )
    assert violations == 0
    print("[PASS] criterion 1: theorem-1 bound domination (noiseless)")


def test_criterion_02_noisy_stability(gaussian_instances):
    qualifying = 0
    excluded = 0
    violations = 0
    for A, gamma, delta, rng in gaussian_instances:
        rate = delta * BETA_SPARSE
        if rate >= 1.0:
            excluded += 1
            continue
        qualifying += 1
        x_true = _sparse_truth(rng)
        e = 0.02 * rng.standard_normal(16)
        y = A.apply(x_true) + e
        atn = float(np.linalg.norm(A.adjoint(e)))
        cfg = GpgdConfig(gamma=gamma, max_iters=150)
        _, trace = gpgd_run(
            A, y, ExactProjector(KSparse(2, 32)), cfg, ground_truth=x_true
        )
        err = trace.err[0]  # the one row of a one-vector run
        cap = rate**150 * err[0] + gamma / (1.0 - rate) * atn + 1e-9
        if err[-1] > cap:
            violations += 1
    print(
        f"\ncriterion 2: qualifying={qualifying} excluded={excluded} "
        f"violations={violations}"
    )
    assert violations == 0
    print("[PASS] criterion 2: noisy stability bound")


def test_criterion_03_restricted_lipschitz_bounds():
    worst = {}
    for k in (1, 2, 3):
        est = restricted_lipschitz_sampled(
            lambda z, k=k: hard_threshold(z, k),
            KSparse(k, 16),
            100_000,
            seed=k,
        )
        worst[f"hard-threshold k={k}"] = est.value
        assert est.value <= GOLDEN + 1e-9
    lines = random_lines(5, 8, seed=40)
    est = restricted_lipschitz_sampled(ExactProjector(lines), lines, 100_000, seed=4)
    worst["union-of-lines"] = est.value
    assert est.value <= 2.0 + 1e-9
    print(f"\ncriterion 3: sampled Lipschitz estimates {worst}")
    print("[PASS] criterion 3: restricted Lipschitz constants bounded")


def test_criterion_04_lprime_vs_orthogonality_bound():
    lines = random_lines(5, 8, seed=41)
    results = []
    for t in (0.05, 0.1, 0.2):
        proj = PerturbedProjector(lines, t=t)
        rep = orthogonality_report(lines, proj, 10_000, seed=43)
        bound = theorem3_bound(min(1.1 * rep.max_psi, 0.999999), 1.1 * rep.max_phi)
        assert bound is not None
        assert rep.lprime_hat <= bound
        results.append((t, rep.lprime_hat, bound))
    print(f"\ncriterion 4: (t, lprime_hat, bound) = {results}")
    print("[PASS] criterion 4: deviation-ratio bound with inflated sups")


def test_criterion_05_gradient_correctness():
    h = 1e-5
    worst = 0.0
    draws = 0
    for mode in ("AE", "PnP"):
        for lam in (0.0, 0.4):
            for rep in range(5):
                draws += 1
                seed = 100 * rep + draws
                rng = np.random.default_rng(seed)
                net = make_net((6, 4, 6), seed=seed)
                cfg = TrainConfig(lam=lam, mode=mode, batch_size=3, xi=0.1)
                X = rng.uniform(0, 1, (3, 6))
                Z = rng.uniform(0, 1, (3, 6))
                _, grads = loss_and_grad(net, X, Z, cfg, noise_seed=seed)
                bp = grads.copy()  # the buffer is reused by the next call
                theta = net.params.copy()
                fd = np.zeros_like(theta)
                for i in range(theta.size):
                    up = theta.copy()
                    up[i] += h
                    net.params[:] = up
                    lp, _ = loss_and_grad(net, X, Z, cfg, noise_seed=seed)
                    dn = theta.copy()
                    dn[i] -= h
                    net.params[:] = dn
                    lm, _ = loss_and_grad(net, X, Z, cfg, noise_seed=seed)
                    fd[i] = (lp - lm) / (2.0 * h)
                net.params[:] = theta
                worst = max(worst, float(np.max(np.abs(bp - fd) / (1.0 + np.abs(fd)))))
    print(f"\ncriterion 5: {draws} draws, max relative gradient error {worst:.3e}")
    assert worst <= 1e-4
    print("[PASS] criterion 5: backprop matches central finite differences")


def test_criterion_06_stochastic_gradient_unbiasedness():
    rng = np.random.default_rng(50)
    dataset = rng.uniform(0, 1, (32, 6))
    net = make_net((6, 4, 6), seed=51)
    assert net.n_params() <= 1000
    cfg = TrainConfig(lam=0.4, batch_size=8)
    report = stochastic_gradient_unbiasedness_check(
        net, dataset, cfg, trials=10_000, mc_points=100_000, seed=52
    )
    print(
        f"\ncriterion 6: {report.frac_within_4se:.4f} of {report.n_params} "
        f"components within 4 SE (max |z| = {report.max_abs_z:.2f})"
    )
    assert report.frac_within_4se >= 0.99
    print("[PASS] criterion 6: stochastic gradient unbiased")


def test_criterion_07_sor_reduces_probe_psi():
    ds = synth_dataset("bars", 64, 140, seed=7)
    items = ds.items[20:]
    psis = {}
    for seed in (0, 1, 2):
        for lam in (0.0, 0.1, 0.4):
            net = make_net((64, 32, 16, 32, 64), seed=seed)
            cfg = TrainConfig(lam=lam, tau=2e-3, batch_size=64, epochs=150, seed=seed)
            _, history = train(net, items, cfg)
            psis[(seed, lam)] = history[-1].probe_mean_psi
    for seed in (0, 1, 2):
        line = {lam: psis[(seed, lam)] for lam in (0.0, 0.1, 0.4)}
        print(f"\ncriterion 7 seed {seed}: probe psi {line}")
        assert line[0.0] > line[0.1] > line[0.4], "psi not strictly decreasing"
        assert line[0.4] < 0.5 * line[0.0]
        assert line[0.4] < 0.3
    mean0 = np.mean([psis[(s, 0.0)] for s in (0, 1, 2)])
    mean4 = np.mean([psis[(s, 0.4)] for s in (0, 1, 2)])
    assert mean4 < 0.5 * mean0
    print("[PASS] criterion 7: orthogonality penalty reduces probe psi")


def test_criterion_08_convergence_speed_direction(tmp_path):
    cfg = ExperimentConfig(
        problem="inpainting",
        ratio=0.6,
        sigma=0.02,
        lambdas=(0.0, 0.4),
        seeds=(0, 1, 2),
        dataset_name="gaussians",
        dataset_n=64,
        dataset_count=520,
        dataset_seed=7,
        test_count=20,
        net_dims=(64, 48, 24, 48, 64),
        train_epochs=1200,
        train_batch=64,
        train_tau=1e-3,
        train_seed=0,
        conv_threshold=0.01,
        out_dir=str(tmp_path / "c8"),
    )
    result = run_experiment(cfg)
    by = {(r.lam, r.seed, r.item): r for r in result.rows}
    wins = 0
    total = 0
    psnr0, psnr4, conv0, conv4 = [], [], [], []
    for seed in cfg.seeds:
        for item in range(cfg.test_count):
            r0 = by[(0.0, seed, item)]
            r4 = by[(0.4, seed, item)]
            c0 = math.inf if r0.conv_iter is None else r0.conv_iter
            c4 = math.inf if r4.conv_iter is None else r4.conv_iter
            total += 1
            wins += c4 <= c0
            psnr0.append(r0.psnr_best)
            psnr4.append(r4.psnr_best)
            conv0.append(c0)
            conv4.append(c4)
    frac = wins / total
    degradation = float(np.mean(psnr0) - np.mean(psnr4))
    print(
        f"\ncriterion 8: lambda=0.4 converges no later in {wins}/{total} cells "
        f"({frac:.2f}); median conv {np.median(conv0):.0f} -> "
        f"{np.median(conv4):.0f}; mean PSNR {np.mean(psnr0):.2f} -> "
        f"{np.mean(psnr4):.2f} dB (degradation {degradation:+.2f})"
    )
    assert frac >= 0.70
    assert degradation <= 1.5
    assert np.median(conv4) <= np.median(conv0)
    print("[PASS] criterion 8: regularized prior converges no slower")


def test_criterion_09_oracle_equivalences():
    # hard thresholding vs brute-force support enumeration
    rng = np.random.default_rng(60)
    for _ in range(500):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n))
        z = rng.standard_normal(n)
        ours = np.linalg.norm(z - hard_threshold(z, k))
        best = min(
            np.linalg.norm(z - _support_restrict(z, s))
            for s in itertools.combinations(range(n), k)
        )
        assert ours <= best + 1e-12

    # sampled RIC never exceeds the exact RIC
    for seed in range(50):
        inst_rng = np.random.default_rng(600 + seed)
        A = DenseOperator(inst_rng.standard_normal((6, 12)))
        gamma = default_step_size(A)
        exact = ric_exact_ksparse(A, gamma, 2).value
        sampled = ric_sampled(A, gamma, KSparse(2, 12), 500, seed=seed).value
        assert sampled <= exact + 1e-12

    # every operator kind equals its dense materialization (n <= 256)
    kernel = gaussian_blur_kernel(5, 1.0)
    ops = [
        DenseOperator(np.random.default_rng(61).standard_normal((40, 64))),
        PixelMask(np.arange(0, 256, 3), n=256),
        Blur(kernel, (16, 16)),
        make_superres_operator((16, 16), 2, kernel),
        make_inpainting_operator(256, 0.6, seed=62),
        Composition(
            [PixelMask([0, 5, 9], n=16), DenseOperator(np.eye(16))]
        ),
    ]
    worst = 0.0
    probe_rng = np.random.default_rng(63)
    for op in ops:
        dense = op.to_dense()
        for _ in range(10):
            x = probe_rng.standard_normal(op.n)
            worst = max(worst, float(np.max(np.abs(op.apply(x) - dense @ x))))
    print(f"\ncriterion 9: max dense-materialization deviation {worst:.2e}")
    assert worst <= 1e-12
    print("[PASS] criterion 9: oracle equivalences")


def _support_restrict(z, support):
    x = np.zeros_like(z)
    x[list(support)] = z[list(support)]
    return x


def test_criterion_10_end_to_end_reproducibility(tmp_path):
    vcfg = VerifyConfig(nseeds=10, nsamples=5000, seed=0)
    report_a = verify_theorems(vcfg, out_dir=str(tmp_path / "va"))
    report_b = verify_theorems(vcfg, out_dir=str(tmp_path / "vb"))
    assert report_a.all_passed and report_b.all_passed
    bytes_a = (tmp_path / "va" / "theorem_report.csv").read_bytes()
    bytes_b = (tmp_path / "vb" / "theorem_report.csv").read_bytes()
    assert bytes_a == bytes_b

    def cfg_for(label):
        return ExperimentConfig(
            problem="inpainting",
            ratio=0.5,
            sigma=0.02,
            lambdas=(0.0, 0.4),
            seeds=(0,),
            dataset_name="gaussians",
            dataset_n=16,
            dataset_count=60,
            dataset_seed=3,
            test_count=5,
            net_dims=(16, 10, 6, 10, 16),
            train_epochs=40,
            train_batch=16,
            train_tau=2e-3,
            train_seed=0,
            out_dir=str(tmp_path / label),
        )

    run_experiment(cfg_for("ea"))
    run_experiment(cfg_for("eb"))
    for name in ("results.csv", "summary.csv"):
        assert (tmp_path / "ea" / name).read_bytes() == (
            tmp_path / "eb" / name
        ).read_bytes()
    conditioned = next(
        e for e in report_a.entries if e.name == "theorem1-domination-conditioned"
    )
    print(
        f"\ncriterion 10: verify-theorems and experiment CSVs byte-identical "
        f"across reruns; conditioned domination entry: {conditioned.details}"
    )
    print("[PASS] criterion 10: end-to-end reproducibility")
