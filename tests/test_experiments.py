import hashlib
import json
import math
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gpgd import cli, experiments
from gpgd.experiments import (
    ConfigError,
    ExperimentConfig,
    VerifyConfig,
    aggregate_report,
    config_from_text,
    config_hash,
    config_to_text,
    estimate_constants,
    load_config_dataset,
    run_experiment,
    train_priors,
    verify_theorems,
)
from gpgd.models import (
    ExactProjector,
    KSparse,
    PerturbedProjector,
    project,
    random_lines,
    sample_member,
)
from gpgd.nets import NetProjector, TrainConfig, load_checkpoint
from gpgd.operators import DenseOperator, make_inpainting_operator
from gpgd.signals import NoiseSpec, add_noise, row_norms
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
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_text("problem = inpainting\nwombat = 3\n")


def test_config_nested_gpgd_block():
    # gpgd_gamma and gpgd_max_iters have one spelling: a nested gpgd block
    # is an unknown key like any other
    for text in ('problem = sparse\ngpgd = {"gamma": 0.25, "max_iters": 99}\n',
                 'gpgd = {"step": 1}\n'):
        with pytest.raises(ConfigError, match="unknown key 'gpgd'"):
            config_from_text(text)


BAD_VALUES = [
    "ratio = all-of-them",
    "lambdas = 0.4",  # not a list
    'lambdas = {"a": 1}',
    "lambdas = [true]",
    'lambdas = ["0.4"]',
    "lambdas = [[0.4]]",
    "seeds = [0.7, 1.9]",
    "seeds = [false]",
    "net_dims = [16, 8.0, 16]",
    "gpgd_gamma = [1]",  # null or a number only
    "gpgd_gamma = true",
    'gpgd_gamma = "0.5"',
]


def test_config_rejects_bad_value():
    for line in BAD_VALUES:
        with pytest.raises(ConfigError, match=f"line 2: bad value for {line.split()[0]}"):
            config_from_text("problem = sparse\n" + line + "\n")


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
    cfg = GpgdConfig(gamma=1.0, max_iters=10)
    _, trace = gpgd_run(A, x_true, proj, cfg, ground_truth=x_true)
    idx, x_star = best_iterate(trace)
    assert idx.tolist() == [0]
    assert trace.psnr_db[0, 0] == math.inf
    assert convergence_iteration(trace, x_star, 0.01) == [0]


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


def test_run_experiment_holds_one_prior_at_a_time(tmp_path, monkeypatch):
    # each prior the sweep gets is dead before the next one is trained or
    # loaded, and so when the next one is yielded: first a run that trains
    # every prior, then one that loads them
    cfg = small_config(tmp_path, lambdas=(0.0, 0.2, 0.4), train_epochs=2)
    refs = []

    def assert_none_alive(what):
        assert all(ref() is None for ref in refs), (what, len(refs))

    def checked(real):
        def call(*args, **kwargs):
            assert_none_alive(real.__name__)
            return real(*args, **kwargs)
        return call

    def spying(real):
        def priors(*args):
            for lam, net in real(*args):
                assert_none_alive(f"yield {lam}")
                refs.append(weakref.ref(net))
                yield lam, net
                del net
        return priors

    monkeypatch.setattr(experiments, "train_priors", spying(experiments.train_priors))
    for name in ("make_net", "load_checkpoint"):
        monkeypatch.setattr(experiments, name, checked(getattr(experiments, name)))
    trained = run_experiment(cfg)
    loaded = run_experiment(cfg)
    assert len(refs) == 2 * len(cfg.lambdas)
    assert loaded.rows == trained.rows


def test_run_experiment_matches_manual_run(tmp_path):
    # plumbing equivalence: every cell of the sweep recomputed by hand from
    # the same seeds, each item as a row of the batch of test items that the
    # sweep solves, and its best index and convergence iteration read off
    # that row's iterate stack
    cfg = small_config(tmp_path)
    result = run_experiment(cfg)
    ds = load_config_dataset(cfg)
    from gpgd.experiments import _derive_seed

    seed = 0
    A = make_inpainting_operator(ds.n, cfg.ratio, _derive_seed(seed, 1))
    x_true = ds.items[: cfg.test_count]
    y = np.stack([add_noise(A.apply(x), NoiseSpec(cfg.sigma, _derive_seed(seed, 2, i)))
                  for i, x in enumerate(x_true)])
    run_cfg = GpgdConfig(gamma=default_step_size(A), max_iters=cfg.gpgd_max_iters)
    checked = 0
    for lam in cfg.lambdas:
        net = load_checkpoint(Path(cfg.out_dir) / "checkpoints" / f"prior_lam{lam:g}.ckpt")
        _, batch = gpgd_run(A, y, NetProjector(net), run_cfg, ground_truth=x_true)
        for item, stack in enumerate(batch.iterates):
            idx = int(np.argmax(batch.psnr_db[item]))
            x_star = stack[idx]
            dist = [np.linalg.norm(xi - x_star) / np.linalg.norm(x_star) for xi in stack]
            conv = next((i for i, d in enumerate(dist) if d <= cfg.conv_threshold), None)
            row = next(r for r in result.rows
                       if r.lam == lam and r.seed == seed and r.item == item)
            assert row.psnr_best == float(batch.psnr_db[item, idx])
            assert row.best_index == idx
            assert row.conv_iter == conv
            checked += 1
    assert checked == len(result.rows) == len(cfg.lambdas) * cfg.test_count


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
    result = run_experiment(cfg)
    assert len(result.rows) == cfg.test_count
    assert all(np.isfinite(r.psnr_best) or r.psnr_best == math.inf for r in result.rows)


def test_prior_from_another_config_is_refused(tmp_path):
    # a checkpoint trained by one config is not silently reused by another
    # that writes to the same out_dir
    run_experiment(small_config(tmp_path, net_dims=(16, 8, 16), train_epochs=2))
    other = small_config(tmp_path, net_dims=(16, 4, 2, 4, 16), train_epochs=50)
    with pytest.raises(ConfigError, match="prior_lam0.ckpt"):
        run_experiment(other)
    # the same config reuses its own checkpoints
    again = small_config(tmp_path, net_dims=(16, 8, 16), train_epochs=2)
    assert len(run_experiment(again).rows) == 8


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


def test_train_key_reads_the_items_buffer_without_a_copy():
    # 320 x 784 items are 1.9 MiB; hashing them in place traces almost none
    items = np.random.default_rng(50).uniform(0, 1, (320, 784))
    tcfg = TrainConfig()
    experiments._train_key(items, (784, 64, 784), tcfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        experiments._train_key(items, (784, 64, 784), tcfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_train_key_hashes_a_strided_big_endian_input_like_its_bytes():
    items = np.random.default_rng(51).uniform(0, 1, (6, 10))
    strided = items.astype(">f8")[:, ::2]
    assert not strided.flags.c_contiguous
    tcfg = TrainConfig(lam=0.4, epochs=3)
    h = hashlib.sha256(np.ascontiguousarray(strided, dtype="<f8").tobytes())
    h.update(("dims=[5, 3, 5]\n" + "".join(
        f"{f.name}={getattr(tcfg, f.name)!r}\n" for f in fields(tcfg))).encode())
    assert experiments._train_key(strided, (5, 3, 5), tcfg) == h.hexdigest()
    assert experiments._train_key(items[:, ::2].copy(), (5, 3, 5), tcfg) == h.hexdigest()


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


UNBUILDABLE_OPERATORS = pytest.mark.parametrize("over, match", [
    (dict(problem="superres", factor=3, dataset_name="bars"), "not divisible"),
    (dict(problem="deblur", dataset_name="sparse-combos"), "image-shaped"),
], ids=["superres-indivisible", "deblur-unshaped"])


@UNBUILDABLE_OPERATORS
def test_operator_that_cannot_be_built_is_refused_before_training(tmp_path, over,
                                                                  match):
    cfg = small_config(tmp_path, **over)
    with pytest.raises(ValueError, match=match):
        run_experiment(cfg)
    assert not (Path(cfg.out_dir) / "checkpoints").exists()


@UNBUILDABLE_OPERATORS
def test_cli_train_refuses_an_operator_that_cannot_be_built(tmp_path, capsys, over,
                                                            match):
    # gpgd train checks every seed's operator as gpgd solve does, so it
    # trains and writes nothing
    cfg = small_config(tmp_path, seeds=(0, 1), **over)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(config_to_text(cfg))
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert match in capsys.readouterr().err
    assert not (Path(cfg.out_dir) / "checkpoints").exists()


def test_run_experiment_rows_keep_seed_item_lambda_order(tmp_path):
    cfg = small_config(tmp_path, seeds=(0, 1), train_epochs=2)
    result = run_experiment(cfg)
    assert [(r.seed, r.item, r.lam) for r in result.rows] == [
        (seed, item, lam) for seed in cfg.seeds for item in range(cfg.test_count)
        for lam in cfg.lambdas
    ]


def test_run_experiment_needs_enough_items(tmp_path):
    cfg = small_config(tmp_path, dataset_count=4, test_count=4)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


# --- verify_theorems -------------------------------------------------------------


def test_verify_theorems_report(tmp_path):
    vcfg = VerifyConfig(nseeds=3, nsamples=500, seed=0)
    report = verify_theorems(vcfg, out_dir=str(tmp_path / "v"))
    assert report.all_passed
    # the benchmark's verify check counts these entries, in this order
    names = [
        "theorem1-domination-gaussian",
        "theorem1-domination-conditioned",
        "theorem1-noisy-stability-conditioned",
        "theorem2-triangle-chain",
        "theorem3-lprime-bound-t0.05",
        "theorem3-lprime-bound-t0.1",
        "theorem3-lprime-bound-t0.2",
        "orthogonality-exact-projector",
    ]
    assert [e.name for e in report.entries] == names
    rows = (tmp_path / "v" / "theorem_report.csv").read_text().splitlines()[1:]
    assert [row.split(",", 2)[:2] for row in rows] == [[name, "1"] for name in names]


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


def _triangle_reference(vcfg, norm):
    """The per-sample loop behind the theorem2-triangle-chain entry, with
    its vector norm replaced by norm; returns (passed, details). Samples
    are drawn as the entry draws them: per block of SAMPLE_BLOCK, a radial
    z block, then an x block of line members."""
    seed = experiments._derive_seed
    lines = random_lines(vcfg.lines, vcfg.lines_dim, seed(vcfg.seed, 12))
    proj = PerturbedProjector(lines, t=0.1)
    rng = np.random.default_rng(seed(vcfg.seed, 14))
    sampler = experiments.theory.radial_sampler
    block = experiments.theory.SAMPLE_BLOCK
    worst = -math.inf
    for start in range(0, vcfg.nsamples, block):
        count = min(block, vcfg.nsamples - start)
        zs = sampler(rng, count, vcfg.lines_dim)
        for z, x in zip(zs, sample_member(lines, rng, count)):
            p = proj(z)
            pperp = project(lines, z)
            lhs = norm(p - x)
            rhs = norm(p - pperp) + norm(pperp - x)
            worst = max(worst, float(lhs - rhs))
            if lhs > rhs + 1e-12 * (1.0 + rhs):
                return False, f"violated: lhs={lhs} rhs={rhs} z={z.tolist()}"
    return True, f"samples={vcfg.nsamples} worst_gap={worst}"


@pytest.mark.parametrize("threshold", [None, 1.0, 1.4])
def test_triangle_entry_matches_per_sample_loop(monkeypatch, threshold):
    # The chain holds for true norms, so the entry passes (None). Tripling
    # the norm of vectors whose first coordinate exceeds the threshold
    # breaks it on some samples: at seed 0, 18 of 1300 with the first at
    # sample 32 (1.0), and 4 with the first at 419 (1.4). The blocked entry
    # must report the first violating sample, as the loop does.
    if threshold is None:
        norm = np.linalg.norm
    else:
        norm = lambda v: np.linalg.norm(v) * (3.0 if v[0] > threshold else 1.0)
        monkeypatch.setattr(experiments, "row_norms", lambda X: (
            row_norms(X) * np.where(X[..., 0] > threshold, 3.0, 1.0)))
    vcfg = VerifyConfig(nsamples=1300)
    entry = experiments._triangle_entry(vcfg)
    assert (entry.passed, entry.details) == _triangle_reference(vcfg, norm)
    assert entry.passed == (threshold is None)


@pytest.mark.parametrize("make_instance", [experiments._gaussian_instance,
                                           experiments._conditioned_instance],
                         ids=["gaussian", "conditioned"])
def test_theorem1_instances_stop_only_to_exclude(monkeypatch, make_instance):
    # the exact RIC may stop early only once it excludes an instance: the
    # exclusion decision and every qualifying delta equal those of the full
    # ric_exact_ksparse, and a qualifying instance decomposes every block
    # the full enumeration does. At seed 0 every Gaussian instance is
    # excluded and every conditioned one qualifies.
    from gpgd import theory

    vcfg = VerifyConfig()
    full = {}
    for seed in range(vcfg.nseeds):
        A, _ = make_instance(vcfg, seed)
        full[seed] = theory.ric_exact_ksparse(A, default_step_size(A), vcfg.k)
    evaluated = []
    original = theory.ric_exact_ksparse

    def recorded(*args, **kwargs):
        est = original(*args, **kwargs)
        evaluated.append(est.evaluated)
        return est

    monkeypatch.setattr(theory, "ric_exact_ksparse", recorded)
    instances = experiments._theorem1_instances(vcfg, make_instance)
    got = {seed: delta for seed, _, _, delta, _, _ in instances}
    assert got == {seed: est.value for seed, est in full.items()
                   if est.value * experiments._GOLDEN_BETA < 1.0}
    for seed, est in full.items():
        if seed in got:
            assert evaluated[seed] == est.evaluated
        else:
            assert evaluated[seed] < est.evaluated
    assert len(got) == (0 if make_instance is experiments._gaussian_instance
                        else vcfg.nseeds)


@pytest.mark.parametrize("field", ["nseeds", "nsamples"])
@pytest.mark.parametrize("value", [0, -5])
def test_verify_config_rejects_empty_sampling(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
        VerifyConfig(**{field: value})


def test_verify_config_sets_only_its_sampling():
    # the instance sizes are class constants, not fields
    assert [f.name for f in fields(VerifyConfig)] == [
        "nseeds", "nsamples", "seed"]
    assert VerifyConfig().t_grid == (0.05, 0.1, 0.2)


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


@pytest.mark.parametrize("row, match", [
    ("0.0,0,1,20.5,3,7", "line 3: 6 cells, the header has 7"),
    ("0.0,0,1,20.5,3,7,abc,extra", "line 3: 8 cells, the header has 7"),
    ("zero,0,1,20.5,3,7,abc", "line 3: could not convert"),
    ("0.0,0,1,,3,7,abc", "line 3: could not convert"),
    ("0.0,0,1,20.5,3,soon,abc", "line 3: could not convert"),
], ids=["short", "long", "lambda", "psnr_best", "conv_iter"])
def test_aggregate_bad_row(tmp_path, row, match):
    path = tmp_path / "results.csv"
    path.write_text("lambda,seed,item,psnr_best,best_index,conv_iter,config_hash\n"
                    f"0.0,0,0,21.5,4,never,abc\n{row}\n")
    with pytest.raises(ConfigError, match=match) as exc:
        aggregate_report(tmp_path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("header, missing", [
    ("seed,item,psnr_best,conv_iter", "lambda"),
    ("lambda,seed,item,best_index", "psnr_best, conv_iter"),
], ids=["lambda", "psnr_best-conv_iter"])
def test_aggregate_header_lacks_columns(tmp_path, header, missing):
    path = tmp_path / "results.csv"
    path.write_text(f"{header}\n0.0,0,0,21.5\n")
    with pytest.raises(ConfigError, match=f"lacks the column\\(s\\) {missing}$") as exc:
        aggregate_report(tmp_path)
    assert str(path) in str(exc.value)


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
    for line in ["problem = fly-fishing"] + BAD_VALUES:
        bad.write_text(line + "\n")
        rc = cli.main(["solve", "--config", str(bad)])
        assert rc == 2, line


def test_cli_verify_theorems_passes(tmp_path):
    rc = cli.main(
        ["verify-theorems", "--seeds", "2", "--samples", "200",
         "--out", str(tmp_path / "v")]
    )
    assert rc == 0


def _solve_then_report(tmp_path, capsys, lambdas):
    """stdout lines of gpgd solve, then of gpgd report on its out_dir, for
    a test-size config."""
    cfg = small_config(tmp_path, lambdas=lambdas, test_count=2, dataset_count=20,
                       train_epochs=10)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(config_to_text(cfg))
    rc = cli.main(["solve", "--config", str(cfg_path)])
    assert rc == 0
    solved = capsys.readouterr().out.splitlines()
    rc = cli.main(["report", str(cfg.out_dir)])
    assert rc == 0
    return solved, capsys.readouterr().out.splitlines()


def test_cli_solve_and_report(tmp_path, capsys):
    solved, reported = _solve_then_report(tmp_path, capsys, (0.0,))
    # solve prints its config hash line, then the table that report prints
    # for the same out_dir
    assert solved[0].startswith("config hash ")
    assert reported[0].split() == ["lambda", "cells", "mean_psnr", "std_psnr",
                                   "median_conv", "never"]
    assert len(reported) == 2 and solved[1:] == reported


def test_cli_report_orders_lambdas_as_solve(tmp_path, capsys):
    # lambdas that are not ascending: both commands list them in config
    # order, as summary.csv does
    solved, reported = _solve_then_report(tmp_path, capsys, (0.4, 0.0))
    assert [line.split()[0] for line in reported[1:]] == ["0.4", "0"]
    assert solved[1:] == reported


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


# (quantity, instance) of the estimates.csv lines, in the order the
# benchmark's estimate check parses them
ESTIMATE_KEYS = [
    ("ric_exact", "16x32 gaussian k=2"),
    ("ric_sampled", "16x32 gaussian k=2"),
    ("beta_hat", "hard-threshold n=16 k=1"),
    ("beta_hat", "hard-threshold n=16 k=2"),
    ("beta_hat", "hard-threshold n=16 k=3"),
    ("beta_hat", "union-of-lines exact"),
    ("orthogonality", "perturbed t=0.05"),
    ("orthogonality", "perturbed t=0.1"),
    ("orthogonality", "perturbed t=0.2"),
]


def test_cli_estimate(tmp_path):
    # the CSV is estimate_constants' records, and their values keep the
    # bounds the theory gives them: sampled RIC within the exact one, hard
    # thresholding within the golden-ratio bound
    for seed in (0, 1):
        out = tmp_path / str(seed)
        rc = cli.main(
            ["estimate", "--samples", "300", "--seed", str(seed), "--out", str(out)]
        )
        assert rc == 0
        records = estimate_constants(VerifyConfig(nsamples=300, seed=seed))
        lines = (out / "reports" / "estimates.csv").read_text(encoding="ascii")
        assert lines.splitlines() == ["quantity,instance,value",
                                      *(",".join(r) for r in records)]
        assert [(q, i) for q, i, _ in records] == ESTIMATE_KEYS
        values = [float(v) for _, _, v in records[:6]]
        assert values[1] <= values[0]
        assert all(v <= experiments._GOLDEN_BETA for v in values[2:5])


def test_estimate_probes_miss_the_lines(monkeypatch, tmp_path):
    # the lines model and the probe streams have seeds of their own, so no
    # probe of gpgd estimate's orthogonality reports lands on a line: at
    # seed 0 none of the 20,000 per report is skipped as degenerate (a
    # shared seed made the first 5 probes the line directions themselves)
    from gpgd import theory

    reports = []
    original = theory.orthogonality_report

    def recorded(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(theory, "orthogonality_report", recorded)
    assert cli.main(["estimate", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert [(r.samples, r.degenerate) for r in reports] == [(20_000, 0)] * 3


@pytest.mark.parametrize("argv", [
    ["estimate", "--samples", "0"],
    ["estimate", "--samples", "-5"],
    ["verify-theorems", "--samples", "0"],
    ["verify-theorems", "--samples", "-5"],
    ["verify-theorems", "--seeds", "0"],
])
def test_cli_rejects_empty_sampling(tmp_path, capsys, argv):
    # zero samples or instances would pass every check vacuously; the flag
    # is refused by name, with exit code 2, before any output is written
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {argv[1]}: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_verify_theorems_failure_exits_1(monkeypatch, tmp_path):
    from gpgd.experiments import VerificationEntry, VerificationReport

    def fake_verify(vcfg, out_dir=None):
        return VerificationReport([VerificationEntry("synthetic-failure", False, "x")])

    monkeypatch.setattr(cli, "verify_theorems", fake_verify)
    rc = cli.main(["verify-theorems", "--out", str(tmp_path)])
    assert rc == 1
