"""Runs one workload and measures it.

An untraced run (the end-to-end metrics) times `SETUP_PROBES` set-ups,
each in a fresh interpreter, then repeats the workload until the time
budget is spent and reports medians. A traced run (the per-layer metrics)
does one untraced pass and one traced pass of the same work: the traced
pass gives the spans, and the difference of the two gives the tracing
overhead. Every pass checks the outputs of every command it runs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import tracing
from run import BLAS_ENV, ROOT
from workloads import WORKLOADS, Outcome

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 6
# Slack for the phase-sum check beyond the measured tracing overhead: the
# phase timer and the phase span differ by the span's own bookkeeping.
SPAN_SLACK_S = 1e-3

# End-to-end metrics: the wall time of each of a workload's two commands
# is reported under one name per position, so every workload reports
# every metric (train or verify-theorems, then solve or estimate).
END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("train_or_verify_s", "s", "lower", 0.25),
    ("solve_or_estimate_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]


class Session:
    """Runs gpgd commands in process, timing each phase and, when traced,
    recording a top-level span per phase."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.outcome = Outcome()

    @contextmanager
    def phase(self, name: str):
        started = time.perf_counter()
        try:
            with self.tracer.span(f"phase.{name}") if self.tracer else nullcontext():
                yield
        finally:
            self.times.setdefault(name, []).append(time.perf_counter() - started)

    def __call__(self, phase: str, argv: list[str]):
        """`gpgd <argv>`; returns its exit code, or None if it raised."""
        from gpgd import cli

        out = io.StringIO()
        rc = None
        with self.phase(phase), redirect_stdout(out), redirect_stderr(out):
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit):  # a failing command is a failed operation
                traceback.print_exc()
        if rc != 0:
            tail = out.getvalue().strip().splitlines()[-3:]
            self.outcome.problems.append(f"gpgd {argv[0]} exited with {rc}: {tail}")
        return rc


def run(name: str, seed: int, seconds: float, trace: bool, out_root: Path,
        small: bool = False) -> dict:
    """Run one workload; write result.json and manifest.json into a fresh
    directory under out_root and return the result."""
    wl = WORKLOADS[name]
    run_dir = out_root / f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    result = (_traced if trace else _measured)(wl, seed, seconds, run_dir, small)
    outcome: Outcome = result.pop("outcome")
    result.update(correct=not outcome.problems, attempted=outcome.attempted,
                  failed=outcome.failed, problems=outcome.problems)
    manifest = _manifest(name, seed, trace, small, result.pop("facts"),
                         result["reps"])
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def _measured(wl, seed, seconds, run_dir, small) -> dict:
    setup_times, facts = [], []

    def probe():
        seconds_i, facts_i = _setup_probe(wl.name, seed,
                                          run_dir / f"setup{len(setup_times)}", small)
        setup_times.append(seconds_i)
        facts.append(facts_i)

    # Half the set-ups run before the workload and half after, so their
    # median spans the run rather than one moment of the machine's load.
    for _ in range(SETUP_PROBES // 2):
        probe()
    session = Session()
    reps = []
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        rep_dir = run_dir / f"rep{len(reps)}"
        reps.append(wl.rep(session, seed, run_dir / "setup0", rep_dir, small,
                           session.outcome, wl.repeats))
        shutil.rmtree(rep_dir)
        now = time.perf_counter()
        if now - started + (now - rep_started) > seconds:
            break
    while len(setup_times) < SETUP_PROBES:
        probe()
    if any(f != facts[0] for f in facts):
        session.outcome.problems.append(f"set-ups disagree: {facts}")
    facts = facts[0]
    _check_same_outputs(reps, session.outcome)
    first, second = (session.times[p] for p in wl.phases)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "train_or_verify_s": statistics.median(first),
        "solve_or_estimate_s": statistics.median(second),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": setup_times, **session.times}
    return {"metrics": _with_units(metrics, END_TO_END), "samples": samples,
            "reps": reps, "facts": facts, "outcome": session.outcome,
            "summary": _summary(wl.name, seed, reps[0])}


def _setup_probe(name, seed, out: Path, small: bool):
    argv = [sys.executable, str(BENCH_DIR / "setup_step.py"), name, str(seed), str(out)]
    proc = subprocess.run(argv + (["--small"] if small else []), capture_output=True,
                          text=True, env={**os.environ, **BLAS_ENV}, timeout=120,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["seconds"], line["facts"]


def _traced(wl, seed, seconds, run_dir, small) -> dict:
    passes = {}
    for label, tracer in (("untraced", None), ("traced", tracing.Tracer())):
        session = Session(tracer)
        base = run_dir / label
        with tracing.instrument(tracer) if tracer else nullcontext():
            with session.phase("setup"):
                facts = wl.setup(seed, base / "setup", small)
            info = wl.rep(session, seed, base / "setup", base / "rep", small,
                          session.outcome, 1)
        shutil.rmtree(base)
        passes[label] = (session, info, tracer)
    (plain, plain_info, _), (session, info, tracer) = passes["untraced"], passes["traced"]
    outcome = session.outcome
    outcome.attempted += plain.outcome.attempted
    outcome.failed += plain.outcome.failed
    outcome.problems += plain.outcome.problems
    _check_same_outputs([plain_info, info], outcome)

    wall = {p: t[0] for p, t in session.times.items()}
    overhead = sum(wall.values()) - sum(t[0] for t in plain.times.values())
    phases = tracing.phase_breakdown(tracer)
    _check_coverage(wl, seed, small, tracer, phases, wall, overhead, outcome)
    tracer.save(run_dir / "spans.npz")
    metrics = tracing.layer_metrics(tracer, info.get("excluded_share", 0.0), overhead)
    return {"metrics": _with_units(metrics, tracing.PER_LAYER),
            "phases": phases, "untraced_phase_s": plain.times,
            "reps": [info], "facts": facts, "outcome": outcome,
            "summary": _summary(wl.name, seed, info)}


def _check_coverage(wl, seed, small, tracer, phases, wall, overhead, outcome):
    """Entry points the workload should use were called; training happens
    in train only; each phase's self times add up to its wall time."""
    stats = tracing.summarize(tracer)
    for name in wl.uses:
        if stats.get(name, {}).get("calls", 0) == 0:
            outcome.problems.append(f"coverage: {name} was never called")
    for name, phase, calls in wl.expected_calls(seed, small):
        got = tracing.calls_within(tracer, name, f"phase.{phase}")
        if got != calls:
            outcome.problems.append(f"coverage: {name} called {got} times in "
                                    f"{phase}, expected {calls}")
    for phase, seconds in wall.items():
        total = phases[f"phase.{phase}"]["self_s_total"]
        if abs(total - seconds) > max(overhead, 0.0) + SPAN_SLACK_S:
            outcome.problems.append(f"coverage: self times in {phase} add up to "
                                    f"{total:.6f} s of {seconds:.6f} s")
    extra = [p for p in phases if not p.startswith("phase.")]
    if extra:
        outcome.problems.append(f"coverage: spans outside any phase: {extra}")


def _check_same_outputs(infos, outcome):
    """Same seed, same config: every repetition writes identical outputs."""
    digests = [info["digests"] for info in infos]
    if any(d != digests[0] for d in digests[1:]):
        outcome.problems.append(f"outputs differ between repetitions: {digests}")


def _with_units(values: dict, spec) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in spec}


def _summary(name, seed, info) -> dict:
    """Results worth reading but not gated, because they move with the seed."""
    keep = ("psnr_db", "conv_iter", "criterion8", "excluded_share")
    return {"workload": name, "seed": seed,
            **{k: info[k] for k in keep if k in info}}


def _manifest(name, seed, trace, small, facts, reps) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((ROOT / "src" / "gpgd").glob("*.py"))
    source = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in src))
    return {
        **_git_state(),
        "source_sha256": source.hexdigest(),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {k: os.environ.get(k) for k in BLAS_ENV}},
        "nproc": os.cpu_count(),
        "workload": name, "seed": seed, "trace": trace, "small": small,
        **facts,
        "output_sha256": reps[0]["digests"],
    }


def _git_state() -> dict:
    """Revision and dirty flag, or nulls outside a git checkout. The
    ceiling stops git from finding a repository above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=30, check=True).stdout

    try:
        return {"git_revision": git("rev-parse", "HEAD").strip(),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_revision": None, "git_dirty": None}
