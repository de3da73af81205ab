"""Command-line harness.

Subcommands: gen-data, train, solve, estimate, verify-theorems, report.
Exit codes: 0 success, 1 failed assertions in verify-theorems, 2 usage or
config errors. All artifacts land under the output directory in
checkpoints/, traces/, and reports/.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .datasets import save_dataset_csv, synth_dataset
from .experiments import (
    ExperimentConfig,
    VerifyConfig,
    _summary_table,
    aggregate_report,
    config_from_text,
    config_to_text,
    estimate_constants,
    load_config_dataset,
    profile_config,
    run_experiment,
    train_priors,
    verify_theorems,
)

_SIGMA_NOTE = (
    "Note: sigma always denotes the noise standard deviation "
    "(e ~ N(0, sigma^2 I)); conventions that label the same parameter a "
    "'variance' are read as standard deviations here."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpgd",
        description="Projected gradient descent for inverse problems with "
        "learned projective priors.",
        epilog=_SIGMA_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p_gen.add_argument("--name", required=True,
                       choices=["bars", "gaussians", "sparse-combos"])
    p_gen.add_argument("--n", type=int, default=64)
    p_gen.add_argument("--count", type=int, default=140)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_data)

    p_train = sub.add_parser("train", help="train projective priors per lambda")
    _add_config_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_solve = sub.add_parser(
        "solve", help="run the inverse-problem sweep from a config"
    )
    _add_config_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_est = sub.add_parser(
        "estimate", help="estimate theory constants on canonical instances"
    )
    p_est.add_argument("--out", default="runs/estimates")
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--samples", type=_positive_int, default=20_000)
    p_est.set_defaults(func=_cmd_estimate)

    p_verify = sub.add_parser(
        "verify-theorems", help="empirically check the convergence theory"
    )
    p_verify.add_argument("--out", default="runs/verify")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--seeds", type=_positive_int, default=20,
                          help="number of random instances per suite")
    p_verify.add_argument("--samples", type=_positive_int, default=10_000)
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", help="aggregate result CSVs")
    p_report.add_argument("results_dir")
    p_report.set_defaults(func=_cmd_report)
    return parser


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1: a count of zero
    would make every sampled check pass vacuously."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--profile", choices=["desk", "mnist"], default="desk")
    p.add_argument("--seed", type=int, help="override: run with this single seed")
    p.add_argument("--lambda", dest="lambdas", type=float, action="append",
                   help="override: regularization weight (repeatable)")
    p.add_argument("--out", help="override: output directory")


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = config_from_text(Path(args.config).read_text(encoding="utf-8"))
    else:
        cfg = profile_config(args.profile)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.lambdas:
        cfg = replace(cfg, lambdas=tuple(args.lambdas))
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _cmd_gen_data(args) -> int:
    ds = synth_dataset(args.name, args.n, args.count, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset_csv(ds, out)
    print(f"wrote {len(ds)} items of length {ds.n} to {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    ds = load_config_dataset(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_to_text(cfg), encoding="utf-8")
    for lam, net in train_priors(cfg, ds):
        del net  # hold no prior while the next one trains
        print(f"trained/loaded prior for lambda={lam:g}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_to_text(cfg), encoding="utf-8")
    result = run_experiment(cfg)
    print(f"config hash {result.cfg_hash}; {len(result.rows)} runs")
    print(_summary_table(result.summary))
    return 0


def _cmd_estimate(args) -> int:
    vcfg = VerifyConfig(nsamples=args.samples, seed=args.seed)
    lines = [",".join(record) for record in estimate_constants(vcfg)]
    out = Path(args.out) / "reports"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "estimates.csv"
    path.write_text("quantity,instance,value\n" + "\n".join(lines) + "\n",
                    encoding="ascii")
    print("\n".join(lines))
    print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    vcfg = VerifyConfig(nseeds=args.seeds, nsamples=args.samples, seed=args.seed)
    report = verify_theorems(vcfg, out_dir=str(Path(args.out) / "reports"))
    for entry in report.entries:
        status = "PASS" if entry.passed else "FAIL"
        print(f"[{status}] {entry.name}: {entry.details}")
    return 0 if report.all_passed else 1


def _cmd_report(args) -> int:
    text, _ = aggregate_report(args.results_dir)
    print(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the package's errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
