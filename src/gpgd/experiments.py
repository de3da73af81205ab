"""Experiment harness: configs, training orchestration, inverse-problem
sweeps, theorem-verification suites, and CSV reporting.

Everything is seeded and deterministic: running the same config twice
produces byte-identical result CSVs. Wall-clock timings are written to a
separate timing file so they never break that contract.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .datasets import Dataset, load_dataset_csv, load_idx, synth_dataset
from .models import (
    ExactProjector,
    KSparse,
    PerturbedProjector,
    project,
    random_lines,
    sample_member,
)
from .nets import (
    CheckpointError,
    NetProjector,
    TrainConfig,
    autoencoder_dims,
    checkpoint_train_key,
    history_to_csv,
    load_checkpoint,
    make_net,
    save_checkpoint,
    train,
)
from .operators import (
    Blur,
    DenseOperator,
    gaussian_blur_kernel,
    make_inpainting_operator,
    make_superres_operator,
)
from .signals import NoiseSpec, add_noise, row_norms
from .solver import (
    GpgdConfig,
    best_iterate,
    convergence_iteration,
    default_step_size,
    gpgd_run,
    trace_to_csv,
)
from . import theory

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "config_to_text",
    "config_from_text",
    "config_hash",
    "profile_config",
    "load_config_dataset",
    "RunRow",
    "ExperimentResult",
    "train_priors",
    "run_experiment",
    "VerifyConfig",
    "VerificationEntry",
    "VerificationReport",
    "verify_theorems",
    "estimate_constants",
    "aggregate_report",
]

_GOLDEN_BETA = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)  # sparse projection bound


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; serializes to key = value text with
    JSON values for lists."""

    problem: str = "inpainting"  # inpainting | superres | deblur | sparse
    ratio: float = 0.6
    factor: int = 2
    kernel_size: int = 3
    sigma_k: float = 1.0
    sparse_k: int = 2
    sparse_m: int = 16
    sigma: float = 0.02
    lambdas: tuple[float, ...] = (0.0, 0.4)
    seeds: tuple[int, ...] = (0,)
    dataset_name: str = "bars"
    dataset_n: int = 64
    dataset_count: int = 140
    dataset_seed: int = 7
    test_count: int = 20
    net_dims: tuple[int, ...] = ()
    train_epochs: int = 150
    train_batch: int = 64
    train_tau: float = 2e-3
    train_mode: str = "AE"
    train_xi: float = 0.1
    train_seed: int = 0
    conv_threshold: float = 0.01
    gpgd_gamma: float | None = None
    gpgd_max_iters: int = 150
    out_dir: str = "runs/out"

    def __post_init__(self):
        if self.problem not in ("inpainting", "superres", "deblur", "sparse"):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if not 0.0 <= self.ratio < 1.0:
            raise ConfigError(f"ratio must be in [0, 1), got {self.ratio}")
        if self.factor < 1:
            raise ConfigError(f"factor must be >= 1, got {self.factor}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if not self.lambdas or not all(lam >= 0 for lam in self.lambdas):
            raise ConfigError(f"lambdas must be non-empty and >= 0, got {self.lambdas}")
        if not self.conv_threshold > 0:
            raise ConfigError(f"conv_threshold must be > 0, got {self.conv_threshold}")
        if self.gpgd_gamma is not None and not self.gpgd_gamma >= 0:
            raise ConfigError(f"gpgd_gamma must be >= 0, got {self.gpgd_gamma}")
        if self.gpgd_max_iters < 1:
            raise ConfigError(
                f"gpgd_max_iters must be >= 1, got {self.gpgd_max_iters}"
            )
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(
                f"kernel_size must be odd and >= 1, got {self.kernel_size}"
            )
        if self.test_count < 1:
            raise ConfigError(f"test_count must be >= 1, got {self.test_count}")
        if self.train_epochs < 0:
            raise ConfigError(f"train_epochs must be >= 0, got {self.train_epochs}")
        if self.net_dims and self.net_dims[0] != self.net_dims[-1]:
            raise ConfigError(
                f"net_dims must end at their input width, got {self.net_dims}"
            )


# Fields written as JSON lists, and the type of their entries.
_TUPLE_FIELDS = {"lambdas": float, "seeds": int, "net_dims": int}


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical flat key = value rendering (declaration order)."""
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if f.name == "gpgd_gamma":
            rendered = json.dumps(val)
        elif f.name in _TUPLE_FIELDS:
            rendered = json.dumps(list(val))
        elif isinstance(val, float):
            rendered = repr(val)
        else:
            rendered = str(val)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ExperimentConfig:
    known = {f.name: f for f in fields(ExperimentConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value': {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _parse_value(key: str, raw: str, lineno: int):
    try:
        if key == "gpgd_gamma":
            val = json.loads(raw)
            return None if val is None else _json_number(val, float)
        if key in _TUPLE_FIELDS:
            items = json.loads(raw)
            if not isinstance(items, list):
                raise ValueError(f"expected a JSON list, got {raw}")
            return tuple(_json_number(v, _TUPLE_FIELDS[key]) for v in items)
        proto = getattr(ExperimentConfig, key)
        if isinstance(proto, int):
            return int(raw)
        if isinstance(proto, float):
            return float(raw)
        return raw
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None


def _json_number(val, kind):
    """A parsed JSON value as kind (int or float), which it must already be;
    an int passes as a float. A bool is an int to Python, but not a number
    here."""
    if isinstance(val, bool) or not isinstance(val, (int, kind)):
        raise ValueError(f"expected a JSON {'integer' if kind is int else 'number'}, "
                         f"got {val!r}")
    return kind(val)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the experimental content; the output location is excluded so
    reruns into different directories produce identical result rows."""
    text = "\n".join(
        line
        for line in config_to_text(cfg).splitlines()
        if not line.startswith("out_dir ")
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def profile_config(profile: str) -> ExperimentConfig:
    """Built-in presets. desk: 8x8 synthetic images, minutes end to end.
    mnist: 28x28 IDX images (dataset path must be supplied)."""
    if profile == "desk":
        return ExperimentConfig()
    if profile == "mnist":
        return ExperimentConfig(
            dataset_name="idx:mnist-images.idx",
            dataset_n=784,
            dataset_count=2000,
            net_dims=(784, 392, 200, 392, 784),
            train_epochs=60,
            lambdas=(0.0, 0.4),
        )
    raise ConfigError(f"unknown profile {profile!r} (expected desk or mnist)")


def load_config_dataset(cfg: ExperimentConfig) -> Dataset:
    name = cfg.dataset_name
    if name.startswith("idx:"):
        return load_idx(name[4:])
    if name.startswith("csv:"):
        return load_dataset_csv(name[4:])
    params = {}
    if name == "sparse-combos":
        params["k"] = cfg.sparse_k
    return synth_dataset(name, cfg.dataset_n, cfg.dataset_count, cfg.dataset_seed,
                         **params)


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _build_operator(cfg: ExperimentConfig, ds: Dataset, seed: int):
    n = ds.n
    if cfg.problem == "inpainting":
        return make_inpainting_operator(n, cfg.ratio, _derive_seed(seed, 1))
    if cfg.problem == "superres":
        if ds.shape2d is None:
            raise ConfigError("superres needs an image-shaped dataset")
        kernel = gaussian_blur_kernel(cfg.kernel_size, cfg.sigma_k)
        return make_superres_operator(ds.shape2d, cfg.factor, kernel)
    if cfg.problem == "deblur":
        if ds.shape2d is None:
            raise ConfigError("deblur needs an image-shaped dataset")
        kernel = gaussian_blur_kernel(cfg.kernel_size, cfg.sigma_k)
        return Blur(kernel, ds.shape2d)
    if cfg.problem == "sparse":
        rng = np.random.default_rng(_derive_seed(seed, 1))
        return DenseOperator(rng.standard_normal((cfg.sparse_m, n)))
    raise ConfigError(f"unknown problem {cfg.problem!r}")


def _split_items(cfg: ExperimentConfig, ds: Dataset):
    """(test items, training items): the first test_count items are held out."""
    if len(ds) <= cfg.test_count:
        raise ConfigError(
            f"dataset has {len(ds)} items, need more than test_count={cfg.test_count}"
        )
    return ds.items[: cfg.test_count], ds.items[cfg.test_count :]


def _train_key(train_items: np.ndarray, dims, tcfg: TrainConfig) -> str:
    """Content key of one prior: sha256 over the training items' bytes, the
    net dims and every TrainConfig field, floats written with repr."""
    h = hashlib.sha256(np.ascontiguousarray(train_items, dtype="<f8"))
    text = f"dims={list(dims)!r}\n" + "".join(
        f"{f.name}={getattr(tcfg, f.name)!r}\n" for f in fields(tcfg)
    )
    h.update(text.encode())
    return h.hexdigest()


def train_priors(cfg: ExperimentConfig, ds: Dataset):
    """Yield (lambda, prior network) for every lambda, in config order.

    A prior is loaded from out_dir/checkpoints/prior_lam{lam:g}.ckpt when
    that file exists, and is trained on the non-test items and saved there
    (with its training history) otherwise. The checkpoint header carries
    the prior's train key. Before any prior is trained or loaded, every
    existing checkpoint's key is checked, and a missing or different key
    (or two lambdas that share a file name but not a key) raises
    ConfigError rather than reusing a file made for another config; so
    does a net_dims input width that differs from the dataset width. Priors
    are made as the caller iterates, so a caller that drops each network
    holds one at a time.
    """
    _, train_items = _split_items(cfg, ds)
    dims = cfg.net_dims if cfg.net_dims else autoencoder_dims(train_items.shape[1])
    if dims[0] != train_items.shape[1]:
        raise ConfigError(
            f"net_dims {list(dims)} start at width {dims[0]}, but the dataset "
            f"width is {train_items.shape[1]}"
        )
    ckpt_dir = Path(cfg.out_dir) / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    plan = []
    keys: dict[Path, tuple[float, str]] = {}
    for lam in cfg.lambdas:
        tcfg = TrainConfig(
            lam=lam,
            tau=cfg.train_tau,
            batch_size=cfg.train_batch,
            epochs=cfg.train_epochs,
            mode=cfg.train_mode,
            xi=cfg.train_xi,
            seed=cfg.train_seed,
        )
        key = _train_key(train_items, dims, tcfg)
        path = ckpt_dir / f"prior_lam{lam:g}.ckpt"
        first, first_key = keys.setdefault(path, (lam, key))
        if first_key != key:
            raise ConfigError(f"lambdas {first!r} and {lam!r} share {path}")
        if path.exists():
            try:
                found = checkpoint_train_key(path)
            except CheckpointError as exc:
                raise ConfigError(f"cannot reuse {path}: {exc}") from None
            if found != key:
                raise ConfigError(
                    f"cannot reuse {path} for lambda={lam!r}: train_key "
                    f"{found!r} does not match {key!r}"
                )
        elif cfg.train_epochs < 1:
            raise ConfigError(f"missing checkpoint {path} and train_epochs < 1")
        plan.append((lam, tcfg, key, path))
    for lam, tcfg, key, path in plan:
        if path.exists():
            net = load_checkpoint(path, train_key=key)
        else:
            net, history = train(make_net(dims, seed=cfg.train_seed), train_items, tcfg)
            save_checkpoint(net, path, train_key=key)
            history_to_csv(history, ckpt_dir / f"history_lam{lam:g}.csv")
        yield lam, net
        del net  # so only the caller can keep it alive while the next one trains


@dataclass
class RunRow:
    lam: float
    seed: int
    item: int
    psnr_best: float
    best_index: int
    conv_iter: int | None
    cfg_hash: str

    @staticmethod
    def csv_header() -> str:
        return "lambda,seed,item,psnr_best,best_index,conv_iter,config_hash"

    def to_csv(self) -> str:
        conv = "never" if self.conv_iter is None else str(self.conv_iter)
        return (
            f"{repr(self.lam)},{self.seed},{self.item},{repr(self.psnr_best)},"
            f"{self.best_index},{conv},{self.cfg_hash}"
        )


@dataclass
class ExperimentResult:
    rows: list[RunRow]
    summary: list[dict]
    cfg_hash: str


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Full sweep: for each seed, build the operator, its step size and
    noisy measurements of every test item; then, one prior at a time in
    lambda order, solve each seed's items as one batch with that prior, and
    record each item's best-iterate PSNR and convergence iteration. Each
    prior is dropped before the next is loaded or trained, so the sweep
    holds one at a time. Rows come out ordered by seed, then item, then
    lambda; timing.json holds one wall time per batch solve, keyed
    lam{lam:g}_seed{seed}, and traces/ one trace CSV per cell.

    For problem "sparse" the prior is the exact hard-thresholding
    projection for every lambda (learned priors do not apply there).
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = load_config_dataset(cfg)
    test_items = _split_items(cfg, ds)[0].copy()
    chash = config_hash(cfg)

    # every seed's problem first, so a config that cannot build one trains
    # nothing
    problems = []
    for seed in cfg.seeds:
        A = _build_operator(cfg, ds, seed)
        gamma = cfg.gpgd_gamma if cfg.gpgd_gamma is not None else default_step_size(A)
        y_clean = A.apply(test_items)
        Y = np.stack([
            add_noise(y_clean[item], NoiseSpec(cfg.sigma, _derive_seed(seed, 2, item)))
            for item in range(cfg.test_count)
        ])
        problems.append((seed, A, Y, GpgdConfig(gamma=gamma, max_iters=cfg.gpgd_max_iters)))
    if cfg.problem == "sparse":
        priors = ((lam, None) for lam in cfg.lambdas)
    else:
        priors = train_priors(cfg, ds)
    del ds  # train_priors holds it only while it runs

    cells = {}
    timings = {}
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    for lam, net in priors:
        P = (ExactProjector(KSparse(cfg.sparse_k, test_items.shape[1])) if net is None
             else NetProjector(net))
        for seed, A, Y, run_cfg in problems:
            name = f"lam{lam:g}_seed{seed}"
            timings[name], cells[seed, lam] = _solve_batch(
                A, Y, P, run_cfg, test_items, cfg.conv_threshold, traces_dir, name)
        del net, P  # hold no prior while the next one is loaded or trained
    rows: list[RunRow] = []
    for seed in cfg.seeds:
        for item in range(cfg.test_count):
            for lam in cfg.lambdas:
                idx, psnr_best, conv = cells[seed, lam][item]
                rows.append(RunRow(lam=lam, seed=seed, item=item, psnr_best=psnr_best,
                                   best_index=idx, conv_iter=conv, cfg_hash=chash))

    summary = _summarize(
        [(r.lam, r.psnr_best, math.inf if r.conv_iter is None else r.conv_iter)
         for r in rows],
        cfg.lambdas,
    )
    _write_rows(rows, out / "results.csv")
    _write_summary(summary, out / "summary.csv")
    with open(out / "timing.json", "w", encoding="ascii") as fh:
        json.dump(timings, fh, indent=1, sort_keys=True)
    return ExperimentResult(rows=rows, summary=summary, cfg_hash=chash)


def _solve_batch(A, Y, P, run_cfg: GpgdConfig, truth, conv_threshold: float,
                 traces_dir: Path, name: str) -> tuple[float, list[tuple]]:
    """Solve the rows of Y as one batch: the solve's wall time, and (best
    index, best PSNR, convergence iteration) per row; one trace CSV per row
    in traces_dir. The iterate stack dies on return, so the caller's next
    batch never holds two."""
    started = time.perf_counter()
    _, trace = gpgd_run(A, Y, P, run_cfg, ground_truth=truth)
    seconds = time.perf_counter() - started
    idx, x_star = best_iterate(trace)
    convs = convergence_iteration(trace, x_star, conv_threshold)
    for item in range(len(Y)):
        trace_to_csv(trace.row(item), traces_dir / f"trace_{name}_item{item}.csv")
    return seconds, list(zip(idx.tolist(), trace.psnr_db.max(axis=1).tolist(), convs))


def _summarize(cells, lambdas) -> list[dict]:
    """Per-lambda statistics, in the order of lambdas, over (lambda, best
    PSNR, convergence iteration or inf for never) cells."""
    summary = []
    for lam in lambdas:
        psnrs = np.asarray([psnr for l, psnr, _ in cells if l == lam])
        convs = np.asarray([conv for l, _, conv in cells if l == lam], dtype=float)
        summary.append(
            {
                "lambda": lam,
                "cells": int(psnrs.size),
                "mean_psnr": float(psnrs.mean()),
                "std_psnr": float(psnrs.std(ddof=0)),
                "median_conv": float(np.median(convs)),
                "never_count": int(np.sum(np.isinf(convs))),
            }
        )
    return summary


def _write_rows(rows: list[RunRow], path: Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(RunRow.csv_header() + "\n")
        for row in rows:
            fh.write(row.to_csv() + "\n")


_SUMMARY_COLS = ("lambda", "cells", "mean_psnr", "std_psnr", "median_conv",
                 "never_count")


def _write_summary(summary: list[dict], path: Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(_SUMMARY_COLS) + "\n")
        for rec in summary:
            cells = []
            for col in _SUMMARY_COLS:
                val = rec[col]
                cells.append(repr(val) if isinstance(val, float) else str(val))
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    nseeds: int = 20
    nsamples: int = 10_000
    seed: int = 0
    n: ClassVar[int] = 32
    m: ClassVar[int] = 16
    k: ClassVar[int] = 2
    sigma: ClassVar[float] = 0.02
    iters: ClassVar[int] = 150
    lines: ClassVar[int] = 5
    lines_dim: ClassVar[int] = 8
    t_grid: ClassVar[tuple[float, ...]] = (0.05, 0.1, 0.2)

    def __post_init__(self):
        # zero instances or samples would pass every entry vacuously
        if self.nseeds < 1:
            raise ConfigError(f"nseeds must be >= 1, got {self.nseeds}")
        if self.nsamples < 1:
            raise ConfigError(f"nsamples must be >= 1, got {self.nsamples}")


@dataclass
class VerificationEntry:
    name: str
    passed: bool
    details: str


@dataclass
class VerificationReport:
    entries: list[VerificationEntry]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,passed,details\n")
            for e in self.entries:
                detail = e.details.replace(",", ";")
                fh.write(f"{e.name},{int(e.passed)},{detail}\n")


def _lines(vcfg: VerifyConfig):
    """The union-of-lines model set that the Theorem 2 and 3 suites and the
    estimate suite share."""
    return random_lines(vcfg.lines, vcfg.lines_dim, _derive_seed(vcfg.seed, 12))


def _gaussian_instance(vcfg: VerifyConfig, seed: int):
    rng = np.random.default_rng(_derive_seed(vcfg.seed, 10, seed))
    A = DenseOperator(rng.standard_normal((vcfg.m, vcfg.n)))
    return A, rng


def _conditioned_instance(vcfg: VerifyConfig, seed: int):
    """Square instance with spectrum in [0.85, 1.15]: its restricted
    isometry constant is small enough that delta * beta < 1 holds, which a
    flat Gaussian rectangle at these sizes never achieves."""
    rng = np.random.default_rng(_derive_seed(vcfg.seed, 11, seed))
    q, _ = np.linalg.qr(rng.standard_normal((vcfg.n, vcfg.n)))
    spectrum = rng.uniform(0.85, 1.15, vcfg.n)
    A = DenseOperator(q @ np.diag(spectrum) @ q.T)
    return A, rng


def _theorem1_instances(vcfg: VerifyConfig, make_instance) -> list[tuple]:
    """The sparse-recovery instances that the Theorem-1 suites share: per
    seed with delta * beta < 1 (the others carry no guarantee and are
    excluded), (seed, A, gamma, delta, x_true, rng) with the default step
    size gamma, delta the exact RIC of gamma A^T A over k-sparse secants,
    and a k-sparse x_true drawn from the seed's rng, which goes on to draw
    any noise. The RIC enumeration of an instance stops as soon as its
    running delta excludes it; a qualifying delta is exact."""
    instances = []
    for seed in range(vcfg.nseeds):
        A, rng = make_instance(vcfg, seed)
        gamma = default_step_size(A)
        delta = theory.ric_exact_ksparse(A, gamma, vcfg.k, beta=_GOLDEN_BETA).value
        if delta * _GOLDEN_BETA < 1.0:
            x_true = sample_member(KSparse(vcfg.k, vcfg.n), rng, 1)[0]
            instances.append((seed, A, gamma, delta, x_true, rng))
    return instances


def _recover(vcfg: VerifyConfig, A, gamma: float, y, x_true):
    """Error record of exact k-sparse projected gradient descent from y."""
    run_cfg = GpgdConfig(gamma=gamma, max_iters=vcfg.iters)
    proj = ExactProjector(KSparse(vcfg.k, vcfg.n))
    return gpgd_run(A, y, proj, run_cfg, ground_truth=x_true)[1].err[0]


def _theorem1_entry(name: str, vcfg: VerifyConfig, instances, violations,
                    extra: str = "") -> VerificationEntry:
    details = (
        f"qualifying={len(instances)} excluded={vcfg.nseeds - len(instances)}{extra}"
    )
    if violations:
        details += " violations=" + ";".join(violations)
    return VerificationEntry(name, not violations, details)


def _domination_entry(name: str, vcfg: VerifyConfig, instances) -> VerificationEntry:
    """Check the noiseless linear-recovery bound sequence against measured
    errors."""
    violations = []
    worst_margin = math.inf
    for seed, A, gamma, delta, x_true, _ in instances:
        err = _recover(vcfg, A, gamma, A.apply(x_true), x_true)
        bound = theory.theorem1_bound(
            delta, _GOLDEN_BETA, gamma, float(err[0]), 0.0, vcfg.iters
        )
        margin = float(np.min(bound.bounds + 1e-9 - err))
        worst_margin = min(worst_margin, margin)
        if np.any(err > bound.bounds + 1e-9):
            bad = int(np.argmax(err - bound.bounds))
            violations.append(f"seed {seed} iter {bad}")
    margin_text = worst_margin if instances else "n/a"
    return _theorem1_entry(name, vcfg, instances, violations,
                           f" worst_margin={margin_text}")


def _stability_entry(name: str, vcfg: VerifyConfig, instances) -> VerificationEntry:
    """Final noisy error against Theorem 1's noisy bound."""
    violations = []
    for seed, A, gamma, delta, x_true, rng in instances:
        e = vcfg.sigma * rng.standard_normal(A.m)
        atn = float(np.linalg.norm(A.adjoint(e)))
        err = _recover(vcfg, A, gamma, A.apply(x_true) + e, x_true)
        cap = theory.theorem1_bound(delta, _GOLDEN_BETA, gamma, float(err[0]), atn,
                                    vcfg.iters).bounds[-1] + 1e-9
        if err[-1] > cap:
            violations.append(f"seed {seed}: {err[-1]} > {cap}")
    return _theorem1_entry(name, vcfg, instances, violations)


def _triangle_entry(vcfg: VerifyConfig) -> VerificationEntry:
    """Per-sample instrumentation of the additive-deviation argument:
    ||P(z) - x|| <= ||P(z) - Pperp(z)|| + ||Pperp(z) - x|| exactly. Samples
    come in blocks of theory.SAMPLE_BLOCK, each drawn as a radial z block
    then an x block of line members, and are checked block by block; the
    first violating sample is reported."""
    lines = _lines(vcfg)
    proj = PerturbedProjector(lines, t=0.1)
    rng = np.random.default_rng(_derive_seed(vcfg.seed, 14))
    worst = -math.inf
    for start in range(0, vcfg.nsamples, theory.SAMPLE_BLOCK):
        count = min(theory.SAMPLE_BLOCK, vcfg.nsamples - start)
        z_b = theory.radial_sampler(rng, count, vcfg.lines_dim)
        x_b = sample_member(lines, rng, count)
        p = proj(z_b)
        pperp = project(lines, z_b)
        lhs = row_norms(p - x_b)
        rhs = row_norms(p - pperp) + row_norms(pperp - x_b)
        # fmax skips NaN gaps, as max(worst, nan) does
        worst = max(worst, float(np.fmax.reduce(lhs - rhs)))
        bad = np.flatnonzero(lhs > rhs + 1e-12 * (1.0 + rhs))
        if bad.size:
            j = bad[0]
            return VerificationEntry(
                "theorem2-triangle-chain",
                False,
                f"violated: lhs={lhs[j]} rhs={rhs[j]} z={z_b[j].tolist()}",
            )
    return VerificationEntry(
        "theorem2-triangle-chain", True, f"samples={vcfg.nsamples} worst_gap={worst}"
    )


def _perturbed_reports(vcfg: VerifyConfig):
    """Yield (t, orthogonality report) for each tangential magnitude t of
    t_grid: the perturbed projector onto the shared lines against the exact
    one, over nsamples radial probes."""
    lines = _lines(vcfg)
    for t in vcfg.t_grid:
        proj = PerturbedProjector(lines, t=t)
        yield t, theory.orthogonality_report(
            lines, proj, vcfg.nsamples, _derive_seed(vcfg.seed, 16)
        )


def _lprime_entries(vcfg: VerifyConfig) -> list[VerificationEntry]:
    """Sampled deviation ratio against the orthogonality-based bound with
    10%-inflated sampled sups, for each tangential magnitude."""
    entries = []
    for t, report in _perturbed_reports(vcfg):
        bound = theory.theorem3_bound(
            min(1.1 * report.max_psi, 0.999999), 1.1 * report.max_phi
        )
        name = f"theorem3-lprime-bound-t{t:g}"
        if bound is None:
            entries.append(
                VerificationEntry(name, False, "inflated sups violate hypothesis")
            )
        else:
            ok = report.lprime_hat <= bound
            entries.append(
                VerificationEntry(
                    name,
                    ok,
                    f"lprime_hat={report.lprime_hat} bound={bound} "
                    f"max_psi={report.max_psi} max_phi={report.max_phi}",
                )
            )
    return entries


def _exact_projector_entry(vcfg: VerifyConfig) -> VerificationEntry:
    lines = _lines(vcfg)
    report = theory.orthogonality_report(
        lines, ExactProjector(lines), vcfg.nsamples, _derive_seed(vcfg.seed, 17)
    )
    ok = (
        report.mean_psi <= 1e-9
        and report.max_phi <= 1e-9
        and report.lprime_hat <= 1e-9
    )
    return VerificationEntry(
        "orthogonality-exact-projector",
        ok,
        f"mean_psi={report.mean_psi} max_phi={report.max_phi} "
        f"lprime_hat={report.lprime_hat}",
    )


def verify_theorems(vcfg: VerifyConfig,
                    out_dir: str | None = None) -> VerificationReport:
    """Run the theorem-verification suites; failures are report entries,
    never exceptions."""
    conditioned = _theorem1_instances(vcfg, _conditioned_instance)
    entries = [
        _domination_entry(
            "theorem1-domination-gaussian", vcfg,
            _theorem1_instances(vcfg, _gaussian_instance),
        ),
        _domination_entry("theorem1-domination-conditioned", vcfg, conditioned),
        _stability_entry("theorem1-noisy-stability-conditioned", vcfg, conditioned),
        _triangle_entry(vcfg),
        *_lprime_entries(vcfg),
        _exact_projector_entry(vcfg),
    ]
    report = VerificationReport(entries)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report.to_csv(out / "theorem_report.csv")
    return report


def estimate_constants(vcfg: VerifyConfig) -> list[tuple[str, str, str]]:
    """The constants behind the theorems, measured on verify's instances:
    the 9 (quantity, instance, value) records of estimates.csv, in order.

    They are the exact and the sampled RIC of gamma A^T A on the first
    Gaussian instance, the sampled restricted Lipschitz constant of hard
    thresholding at k = 1, 2, 3 and of the exact projection onto the
    shared lines, and, for each t of t_grid, the sampled orthogonality sups
    and deviation ratio of the theorem-3 suite's report. Each sampled RIC
    and Lipschitz estimate draws nsamples samples from a stream seeded by
    a tag of its own. Values are written with repr, so they parse back bit
    for bit.
    """
    A, _ = _gaussian_instance(vcfg, 0)
    gamma = default_step_size(A)
    ric = f"{vcfg.m}x{vcfg.n} gaussian k={vcfg.k}"
    exact = theory.ric_exact_ksparse(A, gamma, vcfg.k)
    sampled = theory.ric_sampled(A, gamma, KSparse(vcfg.k, vcfg.n), vcfg.nsamples,
                                 _derive_seed(vcfg.seed, 18))
    records = [("ric_exact", ric, repr(exact.value)),
               ("ric_sampled", ric, repr(sampled.value))]
    for k in (1, 2, 3):
        model = KSparse(k, 16)
        est = theory.restricted_lipschitz_sampled(
            ExactProjector(model), model, vcfg.nsamples, _derive_seed(vcfg.seed, 19, k)
        )
        records.append(("beta_hat", f"hard-threshold n={model.n} k={k}", repr(est.value)))
    lines = _lines(vcfg)
    est = theory.restricted_lipschitz_sampled(
        ExactProjector(lines), lines, vcfg.nsamples, _derive_seed(vcfg.seed, 20)
    )
    records.append(("beta_hat", "union-of-lines exact", repr(est.value)))
    for t, report in _perturbed_reports(vcfg):
        records.append((
            "orthogonality",
            f"perturbed t={t:g}",
            f"max_psi={report.max_psi!r};max_phi={report.max_phi!r};"
            f"lprime_hat={report.lprime_hat!r}",
        ))
    return records


# ---------------------------------------------------------------------------
# Result aggregation
# ---------------------------------------------------------------------------


def aggregate_report(results_dir) -> tuple[str, list[dict]]:
    """Merge results.csv files under a directory into a per-lambda summary,
    lambdas in order of first appearance (config order, as gpgd solve
    prints them).

    Raises ConfigError when input files disagree on their schema, the
    header lacks a lambda, psnr_best or conv_iter column, or a row has
    another cell count than its header or an unparsable cell in one of
    those columns.
    """
    paths = sorted(Path(results_dir).rglob("results.csv"))
    if not paths:
        raise ConfigError(f"no results.csv files under {results_dir}")
    header = None
    rows = []
    for path in paths:
        lines = path.read_text(encoding="ascii").splitlines()
        if not lines:
            raise ConfigError(f"{path}: empty results file")
        if header is None:
            header = lines[0]
        elif lines[0] != header:
            raise ConfigError(
                f"schema mismatch: {paths[0]} has columns [{header}], "
                f"{path} has columns [{lines[0]}]"
            )
        width = header.count(",") + 1
        for lineno, line in enumerate(lines[1:], 2):
            if not line.strip():
                continue
            row = line.split(",")
            if len(row) != width:
                raise ConfigError(
                    f"{path} line {lineno}: {len(row)} cells, the header has {width}")
            rows.append((path, lineno, row))
    cols = header.split(",")
    needed = ("lambda", "psnr_best", "conv_iter")
    missing = [c for c in needed if c not in cols]
    if missing:
        raise ConfigError(f"{paths[0]}: header [{header}] lacks the "
                          f"column(s) {', '.join(missing)}")
    i_lam, i_psnr, i_conv = (cols.index(c) for c in needed)
    cells = []
    for path, lineno, r in rows:
        try:
            cells.append((float(r[i_lam]), float(r[i_psnr]),
                          math.inf if r[i_conv] == "never" else float(r[i_conv])))
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: {exc}") from None
    summary = _summarize(cells, list(dict.fromkeys(lam for lam, _, _ in cells)))
    return _summary_table(summary), summary


def _summary_table(summary: list[dict]) -> str:
    """The per-lambda table of _summarize's records that gpgd solve and
    gpgd report print."""
    lines = ["lambda   cells  mean_psnr  std_psnr  median_conv  never"]
    for rec in summary:
        conv_str = (
            "never" if math.isinf(rec["median_conv"]) else f"{rec['median_conv']:.1f}"
        )
        lines.append(
            f"{rec['lambda']:<8g} {rec['cells']:<6d} {rec['mean_psnr']:<10.3f} "
            f"{rec['std_psnr']:<9.3f} {conv_str:<12} {rec['never_count']}"
        )
    return "\n".join(lines)
