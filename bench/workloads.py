"""The benchmark's workloads: inputs made from the workload seed, the gpgd
commands each one runs, and the checks on what those commands write.

Every workload runs two gpgd commands through `gpgd.cli.main`, in process.
A workload's `rep` runs them once each, except that the second command
runs `repeats` times, each into a fresh output directory, because it is
the shorter and noisier of the two on the sweeps.
"""

from __future__ import annotations

import hashlib
import math
import re
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from gpgd.experiments import (
    ExperimentConfig,
    VerifyConfig,
    config_hash,
    config_to_text,
    load_config_dataset,
)
from gpgd.nets import CheckpointError, autoencoder_dims, load_checkpoint

DEFAULT_SEED = 0
GOLDEN_BETA = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
REG_LAMBDA = 0.4  # the regularized prior whose quality the sweeps report
_TOL = 1e-12


@dataclass
class Outcome:
    """Operations attempted and failed, and every failed check in words."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed}/{attempted} {what} failed")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Sweeps: gpgd train, then gpgd solve on the priors just written
# ---------------------------------------------------------------------------


def inpaint64_config(seed: int) -> ExperimentConfig:
    """Criterion 8 of tests/test_acceptance.py at the default seed; other
    seeds draw another dataset, masks and noise."""
    return ExperimentConfig(
        problem="inpainting", ratio=0.6, sigma=0.02, lambdas=(0.0, REG_LAMBDA),
        seeds=(3 * seed, 3 * seed + 1, 3 * seed + 2),
        dataset_name="gaussians", dataset_n=64, dataset_count=520,
        dataset_seed=7 + seed, test_count=20, net_dims=(64, 48, 24, 48, 64),
        train_epochs=1200, train_batch=64, train_tau=1e-3, train_seed=0,
        conv_threshold=0.01,
    )


def superres784_config(seed: int) -> ExperimentConfig:
    """28x28 images, blur then 2x subsampling; default autoencoder dims
    784-392-196-392-784. Seeds change the dataset and the noise."""
    return ExperimentConfig(
        problem="superres", factor=2, kernel_size=5, sigma_k=1.0, sigma=0.02,
        lambdas=(0.0, REG_LAMBDA), seeds=(2 * seed, 2 * seed + 1),
        dataset_name="gaussians", dataset_n=784, dataset_count=340,
        dataset_seed=7 + seed, test_count=20, train_epochs=10, train_batch=64,
        train_tau=1e-3, train_seed=0, conv_threshold=0.01,
    )


def _shrink(cfg: ExperimentConfig) -> ExperimentConfig:
    """The same sweep at test size: one seed, few items, few epochs."""
    n = 64 if cfg.problem == "superres" else cfg.dataset_n
    dims = (n, 16, n) if cfg.net_dims else ()
    return replace(cfg, seeds=cfg.seeds[:1], dataset_n=n, dataset_count=40,
                   test_count=4, net_dims=dims, train_epochs=3)


@dataclass(frozen=True)
class Sweep:
    name: str
    make_config: Callable[[int], ExperimentConfig]
    repeats: int
    criterion8_gates: bool
    uses: tuple[str, ...]
    phases = ("train", "solve")

    def config(self, seed: int, small: bool) -> ExperimentConfig:
        cfg = self.make_config(seed)
        return _shrink(cfg) if small else cfg

    def expected_calls(self, seed: int, small: bool):
        """(entry, phase, calls): one training per lambda, none in solve,
        so a reused stale checkpoint shows."""
        lambdas = len(self.config(seed, small).lambdas)
        return [("nets.train", "train", lambdas), ("nets.train", "solve", 0)]

    def setup(self, seed: int, out: Path, small: bool) -> dict:
        """Generate the dataset and write the config."""
        cfg = self.config(seed, small)
        ds = load_config_dataset(cfg)
        if len(ds) <= cfg.test_count:
            raise ValueError(f"{len(ds)} items leave no training data")
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.txt").write_text(config_to_text(cfg), encoding="utf-8")
        return {"config_hash": config_hash(cfg),
                "dataset_sha256": hashlib.sha256(ds.items.tobytes()).hexdigest()}

    def rep(self, run, seed: int, setup_dir: Path, rep_dir: Path, small: bool,
            outcome: Outcome, repeats: int) -> dict:
        cfg = self.config(seed, small)
        flags = ["--config", str(setup_dir / "config.txt")]
        first = rep_dir / "solve0"
        rc = run("train", ["train", *flags, "--out", str(first)])
        digests = self._check_priors(cfg, first, rc, outcome)
        rows = None
        for j in range(repeats):
            out = rep_dir / f"solve{j}"
            if j:
                shutil.copytree(first / "checkpoints", out / "checkpoints")
            rc = run("solve", ["solve", *flags, "--out", str(out)])
            got = self._check_rows(cfg, out, rc, outcome)
            results = out / "results.csv"
            digest = sha256_file(results) if results.exists() else None
            if j == 0:
                rows = got
                digests["results.csv"] = digest
            elif digest != digests["results.csv"]:
                outcome.problems.append(f"solve {j} results differ from solve 0")
        info = {"digests": digests, **_quality(rows)}
        if self.criterion8_gates and seed == DEFAULT_SEED and not small:
            info["criterion8"] = _criterion8(rows, outcome)
        return info

    def _check_priors(self, cfg, out: Path, rc, outcome: Outcome) -> dict:
        """One operation per lambda: a loadable checkpoint of the configured
        shape and one finite history record per epoch."""
        digests = {}
        bad = 0
        dims = list(cfg.net_dims or autoencoder_dims(cfg.dataset_n))
        for lam in cfg.lambdas:
            ckpt = out / "checkpoints" / f"prior_lam{lam:g}.ckpt"
            hist = out / "checkpoints" / f"history_lam{lam:g}.csv"
            try:
                net = load_checkpoint(ckpt)
                records = [line.split(",") for line in
                           hist.read_text(encoding="ascii").splitlines()[1:]]
                finite = all(math.isfinite(float(v)) for r in records for v in r[1:])
                ok = net.dims == dims and len(records) == cfg.train_epochs and finite
                digests[ckpt.name] = sha256_file(ckpt)
            except (OSError, CheckpointError, ValueError):
                ok = False
            bad += not ok
        if rc != 0 and not bad:
            bad = len(cfg.lambdas)
        outcome.ops(len(cfg.lambdas), bad, "trained priors")
        return digests

    def _check_rows(self, cfg, out: Path, rc, outcome: Outcome) -> list[dict]:
        """One operation per (lambda, seed, item) cell: present once, with
        a finite PSNR and the config's hash."""
        expected = {(lam, s, i) for lam in cfg.lambdas for s in cfg.seeds
                    for i in range(cfg.test_count)}
        chash = config_hash(cfg)
        rows = []
        try:
            lines = (out / "results.csv").read_text(encoding="ascii").splitlines()[1:]
        except OSError:
            lines = []
        seen = set()
        for line in lines:
            try:
                lam, s, item, psnr, _best, conv, h = line.split(",")
                key = (float(lam), int(s), int(item))
                row = {"lam": key[0], "seed": key[1], "item": key[2],
                       "psnr": float(psnr),
                       "conv": math.inf if conv == "never" else int(conv)}
            except ValueError:
                continue
            if key in expected and key not in seen and h == chash \
                    and math.isfinite(row["psnr"]):
                seen.add(key)
                rows.append(row)
        bad = len(expected) - len(seen)
        if rc != 0 and not bad:
            bad = len(expected)
        outcome.ops(len(expected), bad, "solve cells")
        return rows


def _quality(rows) -> dict:
    """Mean best-iterate PSNR and median convergence iteration of the
    regularized cells. Reported, not gated: both move with the seed."""
    reg = [r for r in rows or () if r["lam"] == REG_LAMBDA]
    if not reg:
        return {"psnr_db": None, "conv_iter": None}
    return {"psnr_db": statistics.fmean(r["psnr"] for r in reg),
            "conv_iter": statistics.median(r["conv"] for r in reg)}


def _criterion8(rows, outcome: Outcome) -> dict:
    """The acceptance gates of criterion 8, on the benchmark's own rows."""
    by = {(r["lam"], r["seed"], r["item"]): r for r in rows}
    pairs = [(by[k], by[(REG_LAMBDA, *k[1:])]) for k in by
             if k[0] == 0.0 and (REG_LAMBDA, *k[1:]) in by]
    if not pairs:
        outcome.problems.append("criterion 8: no complete cell pairs")
        return {}
    wins = sum(r4["conv"] <= r0["conv"] for r0, r4 in pairs) / len(pairs)
    degradation = (statistics.fmean(r0["psnr"] for r0, _ in pairs)
                   - statistics.fmean(r4["psnr"] for _, r4 in pairs))
    conv0 = float(np.median([r0["conv"] for r0, _ in pairs]))
    conv4 = float(np.median([r4["conv"] for _, r4 in pairs]))
    gates = {"win_share": wins, "psnr_degradation_db": degradation,
             "median_conv0": conv0, "median_conv4": conv4}
    if wins < 0.70:
        outcome.problems.append(f"criterion 8: lambda={REG_LAMBDA} converges no "
                                f"later in only {wins:.2f} of cells (< 0.70)")
    if degradation > 1.5:
        outcome.problems.append(f"criterion 8: PSNR degrades {degradation:.2f} dB")
    if conv4 > conv0:
        outcome.problems.append(f"criterion 8: median conv {conv4} > {conv0}")
    return gates


_SWEEP_USES = (
    "nets.train", "nets.loss_and_grad", "nets.adam_step", "nets.sor_value",
    "nets.forward_batch", "nets.forward", "solver.gpgd_run",
    "solver.default_step_size", "solver.trace_to_csv",
    "operators.PixelMask.apply", "operators.PixelMask.adjoint", "signals.psnr",
    "signals.add_noise", "datasets.synth_dataset", "experiments.run_experiment",
)


# ---------------------------------------------------------------------------
# Theory: gpgd verify-theorems, then gpgd estimate, at their defaults
# ---------------------------------------------------------------------------

_COUNTS = re.compile(r"qualifying=(\d+) excluded=(\d+)")
ESTIMATE_LINES = 9  # ric exact + sampled, 3 + 1 beta_hat, 3 orthogonality


@dataclass(frozen=True)
class Theory:
    name: str
    repeats: int
    uses: tuple[str, ...]
    phases = ("verify", "estimate")

    def expected_calls(self, seed: int, small: bool):
        return [("nets.train", "verify", 0), ("nets.train", "estimate", 0)]

    def setup(self, seed: int, out: Path, small: bool) -> dict:
        """The commands take flags only; set-up is the import of gpgd."""
        out.mkdir(parents=True, exist_ok=True)
        return {}

    def rep(self, run, seed: int, setup_dir: Path, rep_dir: Path, small: bool,
            outcome: Outcome, repeats: int) -> dict:
        seed_flag = ["--seed", str(seed)]
        size = ["--seeds", "2", "--samples", "300"] if small else []
        out = rep_dir / "verify"
        rc = run("verify", ["verify-theorems", "--out", str(out), *seed_flag, *size])
        report = out / "reports" / "theorem_report.csv"
        excluded = _check_verify(report, rc, outcome)
        digests = {"theorem_report.csv": sha256_file(report) if report.exists() else None}
        for j in range(repeats):
            out = rep_dir / f"estimate{j}"
            size = ["--samples", "300"] if small else []
            rc = run("estimate", ["estimate", "--out", str(out), *seed_flag, *size])
            path = out / "reports" / "estimates.csv"
            _check_estimate(path, rc, outcome)
            digest = sha256_file(path) if path.exists() else None
            if j == 0:
                digests["estimates.csv"] = digest
            elif digest != digests["estimates.csv"]:
                outcome.problems.append(f"estimate {j} differs from estimate 0")
        return {"digests": digests, "excluded_share": excluded}


def _check_verify(report: Path, rc, outcome: Outcome) -> float:
    """One operation per report entry, which must pass. Returns the share
    of instances excluded for delta*beta >= 1."""
    expected = 5 + len(VerifyConfig().t_grid)
    try:
        rows = [line.split(",", 2) for line in
                report.read_text(encoding="ascii").splitlines()[1:]]
    except OSError:
        rows = []
    bad = expected - sum(len(r) == 3 and r[1] == "1" for r in rows[:expected])
    if rc != 0 and not bad:
        bad = expected
    outcome.ops(expected, bad, "verify entries")
    counts = [tuple(map(int, m.groups())) for r in rows if len(r) == 3
              for m in [_COUNTS.search(r[2])] if m]
    total = sum(q + e for q, e in counts)
    return sum(e for _, e in counts) / total if total else 0.0


def _check_estimate(path: Path, rc, outcome: Outcome) -> None:
    """One operation per estimate line: finite values, sampled RIC within
    the exact RIC, and hard thresholding within the golden-ratio bound."""
    try:
        lines = path.read_text(encoding="ascii").splitlines()[1:]
    except OSError:
        lines = []
    values = {}
    good = 0
    for line in lines[:ESTIMATE_LINES]:
        try:  # a plain value, or name=value pairs joined by ';'
            quantity, instance, raw = line.split(",", 2)
            nums = [float(p.rpartition("=")[2]) for p in raw.split(";")]
        except ValueError:
            continue
        ok = all(math.isfinite(v) for v in nums)
        if quantity == "beta_hat" and instance.startswith("hard-threshold"):
            ok = ok and nums[0] <= GOLDEN_BETA + _TOL
        values[quantity] = nums
        if quantity == "ric_sampled":
            ok = ok and "ric_exact" in values and nums[0] <= values["ric_exact"][0] + _TOL
        good += ok
    bad = ESTIMATE_LINES - good
    if rc != 0 and not bad:
        bad = ESTIMATE_LINES
    outcome.ops(ESTIMATE_LINES, bad, "estimate lines")


WORKLOADS = {
    "inpaint64": Sweep("inpaint64", inpaint64_config, repeats=8,
                       criterion8_gates=True, uses=_SWEEP_USES),
    "superres784": Sweep(
        "superres784", superres784_config, repeats=1, criterion8_gates=False,
        uses=_SWEEP_USES + ("operators.Blur.apply", "operators.Blur.adjoint",
                            "operators.Composition.apply",
                            "operators.Composition.adjoint"),
    ),
    "theory": Theory(
        "theory", repeats=1,
        uses=("solver.gpgd_run", "solver.default_step_size",
              "operators.DenseOperator.apply", "operators.DenseOperator.adjoint",
              "operators.materialize", "models.project", "models.sample_member",
              "models.ExactProjector", "models.PerturbedProjector",
              "theory.ric_exact_ksparse", "theory.ric_sampled",
              "theory.restricted_lipschitz_sampled", "theory.orthogonality_report",
              "signals.psnr", "experiments.verify_theorems"),
    ),
}
