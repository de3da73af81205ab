"""Span recording around calls into gpgd's layers, from outside the package.

`instrument(tracer)` replaces each traced entry point with a wrapper in
every gpgd namespace that binds it (names imported with `from .x import f`
included), and restores the originals on exit. Spans live in compact
in-memory arrays until the run ends; `layer_metrics` turns them into the
per-layer metrics named in BENCHMARK.json.

A span's self time is its duration minus the durations of its direct
children. Spans come from one thread through a stack, so children never
overlap and their summed duration is exactly the part of the parent they
cover.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Functions traced in every namespace that binds them, by defining module.
FUNCTIONS = {
    "nets": ("train", "loss_and_grad", "adam_step", "sor_value",
             "forward_batch", "forward"),
    "solver": ("gpgd_run", "default_step_size", "trace_to_csv"),
    "operators": ("materialize",),
    "models": ("project", "sample_member"),
    "theory": ("ric_exact_ksparse", "ric_sampled",
               "restricted_lipschitz_sampled", "orthogonality_report"),
    "signals": ("psnr", "add_noise"),
    "datasets": ("synth_dataset",),
    "experiments": ("run_experiment", "verify_theorems"),
}
# Callable classes traced through __call__, one span name per class.
CALLABLE_CLASSES = {"models": ("ExactProjector", "PerturbedProjector")}
OPERATOR_CLASSES = ("Blur", "PixelMask", "DenseOperator", "Composition")

# Minimum memory traffic of one Adam update per parameter: read the
# parameter, gradient and both moments, write back parameter and moments.
ADAM_BYTES_PER_PARAM = 7 * 8

_S, _COUNT, _US, _MS, _B, _RATIO = "s", "count", "us", "ms", "B", "ratio"

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("nets.train.calls", _COUNT, "lower"),
    ("nets.train.self_s", _S, "lower"),
    ("nets.train.gflop", "GFLOP", "lower"),
    ("nets.train.gflop_per_s", "GFLOP/s", "higher"),
    ("nets.loss_and_grad.calls", _COUNT, "lower"),
    ("nets.loss_and_grad.busy_s", _S, "lower"),
    ("nets.adam_step.calls", _COUNT, "lower"),
    ("nets.adam_step.busy_s", _S, "lower"),
    ("nets.adam_step.bytes", _B, "lower"),
    ("nets.sor_value.calls", _COUNT, "lower"),
    ("nets.sor_value.busy_s", _S, "lower"),
    ("nets.forward_batch.calls", _COUNT, "lower"),
    ("nets.forward_batch.busy_s", _S, "lower"),
    ("nets.forward.calls", _COUNT, "lower"),
    ("nets.forward.busy_s", _S, "lower"),
    ("nets.forward.p50_us", _US, "lower"),
    ("nets.forward.p99_us", _US, "lower"),
    ("solver.gpgd_run.calls", _COUNT, "lower"),
    ("solver.gpgd_run.busy_s", _S, "lower"),
    ("solver.gpgd_run.self_s", _S, "lower"),
    ("solver.gpgd_run.p50_ms", _MS, "lower"),
    ("solver.gpgd_run.p90_ms", _MS, "lower"),
    ("solver.default_step_size.calls", _COUNT, "lower"),
    ("solver.default_step_size.busy_s", _S, "lower"),
    ("solver.default_step_size.power_iters", _COUNT, "lower"),
    ("solver.trace_to_csv.calls", _COUNT, "lower"),
    ("solver.trace_to_csv.busy_s", _S, "lower"),
    ("solver.trace_to_csv.bytes", _B, "lower"),
    ("solver.useful_iter_share", _RATIO, "higher"),
    *[
        (f"operators.{cls}.{method}.{q}", unit, "lower")
        for cls in OPERATOR_CLASSES
        for method in ("apply", "adjoint")
        for q, unit in (("calls", _COUNT), ("busy_s", _S))
    ],
    ("operators.materialize.calls", _COUNT, "lower"),
    ("operators.materialize.busy_s", _S, "lower"),
    *[
        (f"models.{entry}.{q}", unit, "lower")
        for entry in ("project", "sample_member", "ExactProjector",
                      "PerturbedProjector")
        for q, unit in (("calls", _COUNT), ("busy_s", _S))
    ],
    ("theory.ric_exact_ksparse.calls", _COUNT, "lower"),
    ("theory.ric_exact_ksparse.busy_s", _S, "lower"),
    ("theory.ric_exact_ksparse.supports", _COUNT, "lower"),
    ("theory.ric_sampled.calls", _COUNT, "lower"),
    ("theory.ric_sampled.busy_s", _S, "lower"),
    ("theory.ric_sampled.samples", _COUNT, "lower"),
    ("theory.restricted_lipschitz_sampled.calls", _COUNT, "lower"),
    ("theory.restricted_lipschitz_sampled.busy_s", _S, "lower"),
    ("theory.restricted_lipschitz_sampled.samples", _COUNT, "lower"),
    ("theory.orthogonality_report.calls", _COUNT, "lower"),
    ("theory.orthogonality_report.busy_s", _S, "lower"),
    ("theory.orthogonality_report.samples", _COUNT, "lower"),
    ("theory.orthogonality_report.degenerate_share", _RATIO, "lower"),
    ("theory.excluded_share", _RATIO, "lower"),
    ("signals.psnr.calls", _COUNT, "lower"),
    ("signals.psnr.busy_s", _S, "lower"),
    ("signals.add_noise.calls", _COUNT, "lower"),
    ("signals.add_noise.busy_s", _S, "lower"),
    ("datasets.synth_dataset.busy_s", _S, "lower"),
    ("experiments.run_experiment.self_s", _S, "lower"),
    ("experiments.verify_theorems.self_s", _S, "lower"),
    ("trace.overhead_s", _S, "lower"),
]


class Tracer:
    """Spans in allocation order: a parent always precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.measures: dict[int, dict[str, float]] = {}
        self._open = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, meter=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if meter is not None:
                self.measures[idx] = meter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.intp)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).astype(np.intp),
            "parent": parent,
            "start": start,
            "end": end,
            "self": self_times(parent, start, end),
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name_id=a["name_id"],
                            parent=a["parent"], start=a["start"], end=a["end"])


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed duration of its children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def within(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """True for spans that are in `mask` or have an ancestor in it."""
    out = mask.copy()
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        out[live] |= mask[anc[live]]
        anc[live] = parent[anc[live]]
        live = anc >= 0
    return out


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _weights(net) -> int:
    return sum(layer.weight.size for layer in net.layers)


# Meters read work counts off a traced call's arguments and result.
# Matmul flops only: 2 per multiply-add; the backward pass forms both the
# weight gradient and the input gradient, 4 per weight and row.
METERS = {
    "nets.forward_batch": lambda a, k, r: {
        "flop": 2.0 * r[0].shape[0] * _weights(_arg(a, k, 0, "net"))},
    "nets.loss_and_grad": lambda a, k, r: {
        "flop": 4.0 * np.atleast_2d(_arg(a, k, 1, "batch")).shape[0]
        * _weights(_arg(a, k, 0, "net"))
        * (2 if _arg(a, k, 3, "cfg").lam != 0.0 else 1)},
    "nets.adam_step": lambda a, k, r: {
        "bytes": ADAM_BYTES_PER_PARAM * _arg(a, k, 0, "net").n_params()},
    "solver.gpgd_run": lambda a, k, r: {
        "useful": r[1].best_index / max(len(r[1]) - 1, 1)},
    "solver.trace_to_csv": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "theory.ric_exact_ksparse": lambda a, k, r: {"supports": r.samples},
    "theory.ric_sampled": lambda a, k, r: {"samples": r.samples},
    "theory.restricted_lipschitz_sampled": lambda a, k, r: {"samples": r.samples},
    "theory.orthogonality_report": lambda a, k, r: {
        "samples": r.samples, "degenerate": r.degenerate},
}


def _operator_method(tracer: Tracer, method: str, fn):
    names: dict[type, str] = {}

    def traced(self, *args, **kwargs):
        cls = type(self)
        name = names.get(cls)
        if name is None:
            name = names[cls] = f"operators.{cls.__name__}.{method}"
        idx = tracer.open(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(idx)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Trace gpgd's entry points for the duration of the block."""
    import gpgd

    modules = [gpgd] + [
        importlib.import_module(f"gpgd.{info.name}")
        for info in pkgutil.iter_modules(gpgd.__path__)
    ]
    patches = []  # (owner, attribute, original)

    def patch(owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        patches.append((owner, attr, original))

    try:
        for mod, names in FUNCTIONS.items():
            home = importlib.import_module(f"gpgd.{mod}")
            for fname in names:
                original = getattr(home, fname)
                name = f"{mod}.{fname}"
                traced = tracer.wrap(name, original, METERS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patch(module, attr, original, traced)
        for mod, classes in CALLABLE_CLASSES.items():
            home = importlib.import_module(f"gpgd.{mod}")
            for cname in classes:
                cls = getattr(home, cname)
                original = cls.__dict__["__call__"]
                patch(cls, "__call__", original,
                      tracer.wrap(f"{mod}.{cname}", original))
        base = importlib.import_module("gpgd.operators").LinearOperator
        for method in ("apply", "adjoint"):
            original = base.__dict__[method]
            patch(base, method, original, _operator_method(tracer, method, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """calls, busy_s and self_s per span name."""
    a = tracer.arrays()
    k = len(tracer.names)
    calls = np.bincount(a["name_id"], minlength=k)
    busy = np.bincount(a["name_id"], weights=a["end"] - a["start"], minlength=k)
    own = np.bincount(a["name_id"], weights=a["self"], minlength=k)
    return {
        name: {"calls": int(calls[i]), "busy_s": float(busy[i]),
               "self_s": float(own[i])}
        for i, name in enumerate(tracer.names)
    }


def phase_breakdown(tracer: Tracer) -> dict[str, dict]:
    """Per top-level phase span: its wall time, its own (orchestration)
    self time, and the self time of each layer module inside it."""
    a = tracer.arrays()
    out = {}
    for r in np.flatnonzero(a["parent"] < 0):
        inside = within(a["parent"], np.arange(a["parent"].size) == r)
        own = np.bincount(a["name_id"][inside], weights=a["self"][inside],
                          minlength=len(tracer.names))
        layers: dict[str, float] = {}
        for nid, name in enumerate(tracer.names):
            module = name.split(".")[0]
            if own[nid] and module != "phase":
                layers[module] = layers.get(module, 0.0) + float(own[nid])
        out[tracer.names[a["name_id"][r]]] = {
            "wall_s": float(a["end"][r] - a["start"][r]),
            "orchestration_self_s": float(a["self"][r]),
            "self_s_by_module": layers,
            "self_s_total": float(a["self"][inside].sum()),
        }
    return out


def calls_within(tracer: Tracer, name: str, ancestor: str) -> int:
    """Number of `name` spans inside spans named `ancestor`."""
    a = tracer.arrays()
    inside = within(a["parent"], a["name_id"] == tracer._ids.get(ancestor, -1))
    return int(np.count_nonzero(inside & (a["name_id"] == tracer._ids.get(name, -1))))


def layer_metrics(tracer: Tracer, excluded_share: float,
                  overhead_s: float) -> dict[str, float]:
    """Every per-layer metric in PER_LAYER; entry points a workload never
    calls report zero."""
    a = tracer.arrays()
    stats = summarize(tracer)
    dur = a["end"] - a["start"]
    ids = tracer._ids

    def stat(name, q):
        return stats.get(name, {}).get(q, 0)

    def spans_of(name):
        return np.flatnonzero(a["name_id"] == ids.get(name, -1))

    def measured(name, q, mask=None):
        idx = spans_of(name)
        if mask is not None:
            idx = idx[mask[idx]]
        return float(sum(tracer.measures[i][q] for i in idx))

    def pct(name, p, scale):
        d = dur[spans_of(name)]
        return float(np.percentile(d, p) * scale) if d.size else 0.0

    in_train = within(a["parent"], a["name_id"] == ids.get("nets.train", -1))
    gflop = (measured("nets.forward_batch", "flop", in_train)
             + measured("nets.loss_and_grad", "flop", in_train)) / 1e9
    train_busy = stat("nets.train", "busy_s")
    apply_ids = [ids[n] for n in ids if n.startswith("operators.") and n.endswith(".apply")]
    apply_parents = a["parent"][np.isin(a["name_id"], apply_ids)]
    power_iters = int(np.count_nonzero(
        np.isin(apply_parents, spans_of("solver.default_step_size"))))
    runs = spans_of("solver.gpgd_run")
    ortho_samples = measured("theory.orthogonality_report", "samples")

    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        entry, _, q = name.rpartition(".")
        if q in ("calls", "busy_s", "self_s"):
            out[name] = stat(entry, q)
        elif q in ("supports", "samples", "bytes"):
            out[name] = measured(entry, q)
    out.update({
        "nets.train.gflop": gflop,
        "nets.train.gflop_per_s": gflop / train_busy if train_busy else 0.0,
        "nets.forward.p50_us": pct("nets.forward", 50, 1e6),
        "nets.forward.p99_us": pct("nets.forward", 99, 1e6),
        "solver.gpgd_run.p50_ms": pct("solver.gpgd_run", 50, 1e3),
        "solver.gpgd_run.p90_ms": pct("solver.gpgd_run", 90, 1e3),
        "solver.default_step_size.power_iters": power_iters,
        "solver.useful_iter_share": (
            float(np.mean([tracer.measures[i]["useful"] for i in runs]))
            if runs.size else 0.0),
        "theory.orthogonality_report.degenerate_share": (
            measured("theory.orthogonality_report", "degenerate") / ortho_samples
            if ortho_samples else 0.0),
        "theory.excluded_share": excluded_share,
        "trace.overhead_s": overhead_s,
    })
    return {name: out[name] for name, _, _ in PER_LAYER}
