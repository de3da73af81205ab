import json
import math
from pathlib import Path

import numpy as np
import pytest

from gpgd import cli
from gpgd.experiments import (
    ConfigError,
    ExperimentConfig,
    VerifyConfig,
    aggregate_report,
    config_from_text,
    config_hash,
    config_to_text,
    load_config_dataset,
    run_experiment,
    train_priors,
    verify_theorems,
)
from gpgd.models import ExactProjector, KSparse
from gpgd.nets import NetProjector, load_checkpoint
from gpgd.operators import DenseOperator, make_inpainting_operator
from gpgd.signals import NoiseSpec, add_noise
from gpgd.solver import (
    GpgdConfig,
    best_iterate,
    convergence_iteration,
    default_step_size,
    gpgd_run,
)


def small_config(tmp_path, **over) -> ExperimentConfig:
    base = dict(
        problem="inpainting",
        ratio=0.5,
        sigma=0.02,
        lambdas=(0.0, 0.4),
        seeds=(0,),
        dataset_name="gaussians",
        dataset_n=16,
        dataset_count=40,
        dataset_seed=3,
        test_count=4,
        net_dims=(16, 10, 6, 10, 16),
        train_epochs=30,
        train_batch=16,
        train_tau=2e-3,
        train_seed=0,
        out_dir=str(tmp_path / "run"),
    )
    base.update(over)
    return ExperimentConfig(**base)


# --- config -------------------------------------------------------------------


def test_config_text_roundtrip(tmp_path):
    cfg = small_config(tmp_path)
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_roundtrip_with_gamma_set(tmp_path):
    cfg = small_config(tmp_path, gpgd_gamma=0.5, gpgd_max_iters=77)
    back = config_from_text(config_to_text(cfg))
    assert back == cfg
    assert back.gpgd_gamma == 0.5


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        config_from_text("problem = inpainting\nwombat = 3\n")


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        config_from_text("ratio = all-of-them\n")


def test_config_nested_gpgd_block():
    cfg = config_from_text(
        "problem = sparse\ngpgd = {\"gamma\": 0.25, \"max_iters\": 99}\n"
    )
    assert cfg.gpgd_gamma == 0.25
    assert cfg.gpgd_max_iters == 99
    with pytest.raises(ConfigError):
        config_from_text('gpgd = {"step": 1}\n')


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(problem="teleport")
    with pytest.raises(ConfigError):
        ExperimentConfig(ratio=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=())
    for bad in (
        {"lambdas": ()},
        {"lambdas": (0.0, -0.1)},
        {"lambdas": (float("nan"),)},
        {"conv_threshold": 0.0},
        {"gpgd_gamma": -1.0},
        {"gpgd_max_iters": 0},
        {"kernel_size": 4},
        {"kernel_size": -1},
        {"test_count": 0},
        {"train_epochs": -1},
        {"net_dims": (16, 8, 12)},
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)


def test_profile_configs_parse_and_roundtrip():
    from gpgd.experiments import profile_config

    for name in ("desk", "mnist"):
        cfg = profile_config(name)
        assert config_from_text(config_to_text(cfg)) == cfg
    with pytest.raises(ConfigError):
        profile_config("imax")


def test_config_hash_changes_with_content(tmp_path):
    a = config_hash(small_config(tmp_path))
    b = config_hash(small_config(tmp_path, ratio=0.6))
    assert a != b and len(a) == 12


# --- fixed-point / sentinel semantics ------------------------------------------


def test_identity_operator_fixed_point_item():
    # an item already in the model set with identity measurements: exact
    # PSNR sentinel at iterate 0 and convergence iteration 0
    x_true = np.zeros(8)
    x_true[2] = 1.0
    A = DenseOperator(np.eye(8))
    proj = ExactProjector(KSparse(1, 8))
    cfg = GpgdConfig(gamma=1.0, max_iters=10, x0=x_true)
    _, trace = gpgd_run(A, x_true, proj, cfg, ground_truth=x_true)
    idx, x_star = best_iterate(trace)
    assert idx == 0
    assert trace.psnr_db[0] == math.inf
    assert convergence_iteration(trace, x_star, 0.01) == 0


# --- run_experiment -------------------------------------------------------------


def test_run_experiment_rows_and_files(tmp_path):
    cfg = small_config(tmp_path)
    result = run_experiment(cfg)
    assert len(result.rows) == len(cfg.lambdas) * len(cfg.seeds) * cfg.test_count
    out = Path(cfg.out_dir)
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()
    timings = json.loads((out / "timing.json").read_text())
    assert sorted(timings) == sorted(f"lam{lam:g}_seed{seed}" for lam in cfg.lambdas
                                     for seed in cfg.seeds)
    assert len(list((out / "traces").iterdir())) == len(result.rows)
    assert (out / "checkpoints" / "prior_lam0.ckpt").exists()
    assert (out / "checkpoints" / "prior_lam0.4.ckpt").exists()
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == "lambda,seed,item,psnr_best,best_index,conv_iter,config_hash"
    for row in result.rows:
        assert row.cfg_hash == result.cfg_hash


def test_run_experiment_matches_manual_run(tmp_path):
    # plumbing equivalence: one cell recomputed by hand from the same seeds,
    # as a row of the same batch of test items that the sweep solves
    cfg = small_config(tmp_path)
    result = run_experiment(cfg)
    ds = load_config_dataset(cfg)
    net = load_checkpoint(Path(cfg.out_dir) / "checkpoints" / "prior_lam0.4.ckpt")
    seed, item = 0, 2
    from gpgd.experiments import _derive_seed

    A = make_inpainting_operator(ds.n, cfg.ratio, _derive_seed(seed, 1))
    x_true = ds.items[: cfg.test_count]
    y = np.stack([add_noise(A.apply(x), NoiseSpec(cfg.sigma, _derive_seed(seed, 2, i)))
                  for i, x in enumerate(x_true)])
    run_cfg = GpgdConfig(gamma=default_step_size(A), max_iters=cfg.gpgd_max_iters)
    _, batch = gpgd_run(A, y, NetProjector(net), run_cfg, ground_truth=x_true)
    trace = batch.row(item)
    idx, x_star = best_iterate(trace)
    conv = convergence_iteration(trace, x_star, cfg.conv_threshold)
    row = next(r for r in result.rows if r.lam == 0.4 and r.seed == 0 and r.item == 2)
    assert row.psnr_best == float(trace.psnr_db[idx])
    assert row.best_index == idx
    assert row.conv_iter == conv


def test_run_experiment_bitwise_reproducible(tmp_path):
    cfg_a = small_config(tmp_path, out_dir=str(tmp_path / "a"))
    cfg_b = small_config(tmp_path, out_dir=str(tmp_path / "b"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    for name in ("results.csv", "summary.csv"):
        assert (Path(cfg_a.out_dir) / name).read_bytes() == (
            Path(cfg_b.out_dir) / name
        ).read_bytes()


def test_run_experiment_sparse_problem(tmp_path):
    cfg = small_config(
        tmp_path,
        problem="sparse",
        dataset_name="sparse-combos",
        dataset_n=16,
        sparse_k=2,
        sparse_m=12,
        lambdas=(0.0,),
        train_epochs=0,
        net_dims=(),
    )
    result = run_experiment(cfg, write_traces=False)
    assert len(result.rows) == cfg.test_count
    assert all(np.isfinite(r.psnr_best) or r.psnr_best == math.inf for r in result.rows)


def test_prior_from_another_config_is_refused(tmp_path):
    # a checkpoint trained by one config is not silently reused by another
    # that writes to the same out_dir
    run_experiment(small_config(tmp_path, net_dims=(16, 8, 16), train_epochs=2),
                   write_traces=False)
    other = small_config(tmp_path, net_dims=(16, 4, 2, 4, 16), train_epochs=50)
    with pytest.raises(ConfigError, match="prior_lam0.ckpt"):
        run_experiment(other, write_traces=False)
    # the same config reuses its own checkpoints
    again = small_config(tmp_path, net_dims=(16, 8, 16), train_epochs=2)
    assert len(run_experiment(again, write_traces=False).rows) == 8


def test_stale_prior_is_refused_before_any_training(tmp_path):
    # every existing checkpoint is checked before the first lambda trains
    first = small_config(tmp_path, lambdas=(0.4,), train_epochs=2)
    list(train_priors(first, load_config_dataset(first)))
    ckpt_dir = Path(first.out_dir) / "checkpoints"
    second = small_config(tmp_path, lambdas=(0.2, 0.4), train_epochs=3)
    with pytest.raises(ConfigError, match="prior_lam0.4.ckpt"):
        next(train_priors(second, load_config_dataset(second)))
    assert not (ckpt_dir / "prior_lam0.2.ckpt").exists()
    assert not (ckpt_dir / "history_lam0.2.csv").exists()


def test_lambdas_sharing_a_checkpoint_name_are_refused(tmp_path):
    cfg = small_config(tmp_path, lambdas=(0.1, 0.1000001), train_epochs=2)
    with pytest.raises(ConfigError, match="share"):
        next(train_priors(cfg, load_config_dataset(cfg)))
    assert not any((Path(cfg.out_dir) / "checkpoints").iterdir())


def test_net_width_differing_from_dataset_is_refused_before_training(tmp_path):
    cfg = small_config(tmp_path, net_dims=(32, 16, 32))
    ds = load_config_dataset(cfg)
    with pytest.raises(ConfigError, match="width"):
        next(train_priors(cfg, ds))
    with pytest.raises(ConfigError, match="width"):
        run_experiment(cfg)
    assert not (Path(cfg.out_dir) / "checkpoints").exists()


def test_run_experiment_rows_keep_seed_item_lambda_order(tmp_path):
    cfg = small_config(tmp_path, seeds=(0, 1), train_epochs=2)
    result = run_experiment(cfg, write_traces=False)
    assert [(r.seed, r.item, r.lam) for r in result.rows] == [
        (seed, item, lam) for seed in cfg.seeds for item in range(cfg.test_count)
        for lam in cfg.lambdas
    ]
    assert not (Path(cfg.out_dir) / "traces").exists()


def test_run_experiment_needs_enough_items(tmp_path):
    cfg = small_config(tmp_path, dataset_count=4, test_count=4)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


# --- verify_theorems -------------------------------------------------------------


def test_verify_theorems_report(tmp_path):
    vcfg = VerifyConfig(nseeds=3, nsamples=500, seed=0)
    report = verify_theorems(vcfg, out_dir=str(tmp_path / "v"))
    assert report.all_passed
    names = {e.name for e in report.entries}
    assert "theorem1-domination-conditioned" in names
    assert "theorem2-triangle-chain" in names
    assert (tmp_path / "v" / "theorem_report.csv").exists()


def test_verify_theorems_builds_each_instance_once(monkeypatch):
    # the domination and stability suites share one instance per seed, so
    # the exact RIC runs once per (ensemble, seed)
    from gpgd import theory

    calls = []
    original = theory.ric_exact_ksparse

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(theory, "ric_exact_ksparse", counted)
    verify_theorems(VerifyConfig(nseeds=2, nsamples=50, seed=0))
    assert len(calls) == 2 * 2


def test_verify_theorems_conditioned_instances_qualify(tmp_path):
    vcfg = VerifyConfig(nseeds=3, nsamples=200, seed=1)
    report = verify_theorems(vcfg)
    entry = next(e for e in report.entries if e.name == "theorem1-domination-conditioned")
    assert "qualifying=3" in entry.details


# --- aggregation -----------------------------------------------------------------


def test_aggregate_single_run_matches_summary(tmp_path):
    cfg = small_config(tmp_path)
    result = run_experiment(cfg)
    text, summary = aggregate_report(tmp_path)
    assert len(summary) == 2
    own = {rec["lambda"]: rec for rec in result.summary}
    for rec in summary:
        assert rec["mean_psnr"] == pytest.approx(own[rec["lambda"]]["mean_psnr"])
        assert rec["cells"] == own[rec["lambda"]]["cells"]


def test_aggregate_two_identical_runs_zero_std(tmp_path):
    run_experiment(small_config(tmp_path, out_dir=str(tmp_path / "r1")))
    run_experiment(small_config(tmp_path, out_dir=str(tmp_path / "r2")))
    _, summary = aggregate_report(tmp_path)
    for rec in summary:
        single = run_experiment(
            small_config(tmp_path, out_dir=str(tmp_path / "r3"))
        ).summary
        match = next(s for s in single if s["lambda"] == rec["lambda"])
        assert rec["mean_psnr"] == pytest.approx(match["mean_psnr"])


def test_aggregate_schema_mismatch(tmp_path):
    d1 = tmp_path / "x"
    d2 = tmp_path / "y"
    d1.mkdir()
    d2.mkdir()
    (d1 / "results.csv").write_text("lambda,seed\n0.0,1\n")
    (d2 / "results.csv").write_text("lambda,flavor\n0.0,mint\n")
    with pytest.raises(ConfigError) as exc:
        aggregate_report(tmp_path)
    assert "lambda,seed" in str(exc.value)
    assert "lambda,flavor" in str(exc.value)


def test_aggregate_empty_dir(tmp_path):
    with pytest.raises(ConfigError):
        aggregate_report(tmp_path)


# --- CLI --------------------------------------------------------------------------


def test_cli_gen_data(tmp_path):
    out = tmp_path / "data.csv"
    rc = cli.main(
        ["gen-data", "--name", "bars", "--n", "16", "--count", "5", "--seed", "1",
         "--out", str(out)]
    )
    assert rc == 0
    assert out.exists()


def test_cli_bad_config_exits_2(tmp_path):
    bad = tmp_path / "cfg.txt"
    bad.write_text("problem = fly-fishing\n")
    rc = cli.main(["solve", "--config", str(bad)])
    assert rc == 2


def test_cli_verify_theorems_passes(tmp_path):
    rc = cli.main(
        ["verify-theorems", "--seeds", "2", "--samples", "200",
         "--out", str(tmp_path / "v")]
    )
    assert rc == 0


def test_cli_solve_and_report(tmp_path, capsys):
    cfg = small_config(tmp_path, lambdas=(0.0,), test_count=2, dataset_count=20,
                       train_epochs=10)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(config_to_text(cfg))
    rc = cli.main(["solve", "--config", str(cfg_path)])
    assert rc == 0
    rc = cli.main(["report", str(cfg.out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean_psnr" in out or "lambda" in out


def test_load_config_dataset_idx_and_csv(tmp_path):
    import struct

    from gpgd.datasets import save_dataset_csv, synth_dataset

    idx_path = tmp_path / "imgs.idx"
    imgs = (np.arange(8, dtype=np.uint8) * 30).reshape(2, 2, 2)
    with open(idx_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
        fh.write(imgs.tobytes())
    cfg = small_config(tmp_path, dataset_name=f"idx:{idx_path}", dataset_n=4)
    ds = load_config_dataset(cfg)
    assert len(ds) == 2 and ds.n == 4

    csv_path = tmp_path / "ds.csv"
    save_dataset_csv(synth_dataset("gaussians", 16, 6, seed=1), csv_path)
    cfg = small_config(tmp_path, dataset_name=f"csv:{csv_path}")
    ds = load_config_dataset(cfg)
    assert len(ds) == 6 and ds.shape2d == (4, 4)


def test_cli_estimate(tmp_path):
    rc = cli.main(
        ["estimate", "--samples", "300", "--seed", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "reports" / "estimates.csv").exists()


def test_cli_verify_theorems_failure_exits_1(monkeypatch, tmp_path):
    from gpgd.experiments import VerificationEntry, VerificationReport

    def fake_verify(vcfg, out_dir=None):
        return VerificationReport([VerificationEntry("synthetic-failure", False, "x")])

    monkeypatch.setattr(cli, "verify_theorems", fake_verify)
    rc = cli.main(["verify-theorems", "--out", str(tmp_path)])
    assert rc == 1
