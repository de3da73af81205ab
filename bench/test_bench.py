"""Tests of the benchmark itself: every workload at test size through the
same code path as a real run (set-up probes, checks, traced pass, span
arithmetic), the self-time computation on a hand-built span tree, and the
checks' failure accounting on broken outputs.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys

import numpy as np
import pytest

from run import ROOT

sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_hand_built_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  other [20, 21]
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    mask = np.array([False, True, False, False, False])
    assert tracing.within(parent, mask).tolist() == [False, True, True, False, False]


def test_tracer_wraps_and_nests():
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda x: x + 1, lambda a, k, r: {"n": r})
    outer = tracer.wrap("m.outer", lambda x: inner(inner(x)))
    with tracer.span("phase.p"):
        assert outer(1) == 3
    stats = tracing.summarize(tracer)
    assert stats["m.inner"]["calls"] == 2
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert sorted(m["n"] for m in tracer.measures.values()) == [2, 3]
    phase = tracing.phase_breakdown(tracer)["phase.p"]
    assert phase["self_s_total"] == pytest.approx(phase["wall_s"], abs=1e-12)
    assert tracing.calls_within(tracer, "m.inner", "m.outer") == 2


def test_instrument_restores_every_binding():
    import gpgd.experiments
    import gpgd.nets
    from gpgd.operators import LinearOperator

    before = (gpgd.nets.train, gpgd.experiments.train, LinearOperator.apply)
    with tracing.instrument(tracing.Tracer()):
        assert gpgd.experiments.train is gpgd.nets.train
        assert gpgd.nets.train is not before[0]
    assert (gpgd.nets.train, gpgd.experiments.train, LinearOperator.apply) == before


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in harness.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_at_test_size(name, trace, tmp_path):
    result = harness.run(name, 1, 0.0, trace, tmp_path, small=True)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = tracing.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in spec]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        for entry in workloads.WORKLOADS[name].uses:
            if f"{entry}.calls" in values:
                assert values[f"{entry}.calls"] > 0
    else:
        assert all(v > 0 for v in values.values())
    (run_dir,) = tmp_path.iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["seed"] == 1 and manifest["output_sha256"]


def test_checks_count_broken_outputs(tmp_path):
    est = tmp_path / "estimates.csv"
    lines = ["quantity,instance,value", "ric_exact,x,0.5", "ric_sampled,x,0.6",
             "beta_hat,hard-threshold n=16 k=1,1.7", "beta_hat,hard-threshold n=16 k=2,1.2",
             "beta_hat,hard-threshold n=16 k=3,nan", "beta_hat,union-of-lines exact,1.4",
             *[f"orthogonality,perturbed t={t},max_psi=0.1;max_phi=0.0;lprime_hat=0.2"
               for t in (0.05, 0.1, 0.2)]]
    est.write_text("\n".join(lines) + "\n")
    outcome = workloads.Outcome()
    workloads._check_estimate(est, 0, outcome)
    assert (outcome.attempted, outcome.failed) == (9, 3)

    sweep = workloads.WORKLOADS["inpaint64"]
    cfg = sweep.config(0, small=True)
    (tmp_path / "results.csv").write_text("header\n")
    outcome = workloads.Outcome()
    sweep._check_rows(cfg, tmp_path, 0, outcome)
    assert outcome.failed == outcome.attempted == 8

    outcome = workloads.Outcome()
    workloads._check_verify(tmp_path / "missing.csv", None, outcome)
    assert outcome.failed == outcome.attempted == 8
