"""Generalized projected gradient descent with per-iteration tracing.

The update is x_{k+1} = P(x_k) - gamma * A^T (A P(x_k) - y). Runs execute
the full iteration budget (no early stopping) and record the initial point
as iterate 0, matching the convention that a convergence iteration of 0
means the initial guess was already good enough. One run solves one
measurement vector or a stack of them, one per row, as one batch: A and P
see the whole stack at every iteration. Each row's iterates are kept as
one stack, from which its error and PSNR records are derived after the
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import LinearOperator
from .signals import as_rows, psnr, row_norms

__all__ = [
    "GpgdConfig",
    "GpgdTrace",
    "SolverDivergence",
    "gpgd_run",
    "convergence_iteration",
    "best_iterate",
    "default_step_size",
    "trace_to_csv",
]

# default_step_size's power iteration: relative tolerance and step budget
_POWER_TOL = 1e-8
_POWER_MAX_ITERS = 10_000


class SolverDivergence(RuntimeError):
    """Iterate became non-finite. row is the first row of the run's batch
    that did (0 for a one-vector run); norm is the norm of that row's
    previous iterate, its last finite one when the run started finite."""

    def __init__(self, iteration: int, norm: float, row: int):
        super().__init__(
            f"non-finite iterate at iteration {iteration} in row {row} (norm {norm!r})"
        )
        self.iteration = iteration
        self.norm = norm
        self.row = row


@dataclass
class GpgdConfig:
    """Solver settings. gamma=None selects 1/||A||_2^2 at run time; x0=None
    starts from A^T y. A run always executes all max_iters updates: the
    standard protocol picks the best iterate afterwards."""

    gamma: float | None = None
    max_iters: int = 150
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.gamma is not None and self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class GpgdTrace:
    """One run's records; iterate 0 is the initial point.

    A run on b rows (b = 1 for a one-vector y) keeps a list of b
    (max_iters + 1, n) iterate stacks, one per row, and records
    (b, max_iters + 1); row(r) is row r as a batch of 1.
    residual[r, i] = ||A x_i - y_r||. err/rel_err/psnr_db are set only when
    ground truth is supplied (rel_err not when a ground-truth row has norm
    0). proj_err[r, i] = ||P(x_i) - ground_truth_r|| for the projection
    used to form x_{i+1} (length max_iters).
    """

    gamma: float
    residual: np.ndarray
    iterates: list[np.ndarray]
    err: np.ndarray | None = None
    rel_err: np.ndarray | None = None
    psnr_db: np.ndarray | None = None
    proj_err: np.ndarray | None = None

    @property
    def best_index(self):
        """Each row's best-PSNR iterate index (lowest wins a tie), (b,)."""
        if self.psnr_db is None:
            return None
        return np.argmax(self.psnr_db, axis=1)

    def __len__(self) -> int:
        return self.residual.shape[1]

    def row(self, r: int) -> "GpgdTrace":
        """Row r as a trace of a batch of 1; it shares the run's arrays."""
        def pick(a):
            return None if a is None else a[r][None]

        return GpgdTrace(gamma=self.gamma, residual=pick(self.residual),
                         iterates=[self.iterates[r]], err=pick(self.err),
                         rel_err=pick(self.rel_err), psnr_db=pick(self.psnr_db),
                         proj_err=pick(self.proj_err))


def default_step_size(A: LinearOperator) -> float:
    """1 / ||A||_2^2 via power iteration on A^T A (fixed internal seed).
    Norms are sqrt(w . w), the bits of np.linalg.norm on a 1-D float64
    vector without its per-call overhead. Raises ValueError at the first
    non-finite estimate (a NaN or inf entry) or a vanishing A^T A v."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.n)
    v /= math.sqrt(v.dot(v))
    lam_prev = 0.0
    lam = 0.0
    # An inf or NaN entry makes inf - inf or inf * 0 inside the operator;
    # the finiteness check reports it, not a RuntimeWarning. One errstate
    # spans the loop because entering one costs about 1 us per step.
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(_POWER_MAX_ITERS):
            w = A.adjoint(A.apply(v))
            lam = float(np.dot(v, w))
            if not math.isfinite(lam):
                raise ValueError(f"default_step_size: non-finite estimate {lam}")
            norm = math.sqrt(w.dot(w))
            if norm == 0.0:
                raise ValueError("default_step_size: zero operator")
            v = w / norm
            if abs(lam - lam_prev) <= _POWER_TOL * max(abs(lam), 1e-300):
                break
            lam_prev = lam
    if lam <= 0.0:
        raise ValueError("default_step_size: could not estimate spectral norm")
    return 1.0 / lam


def gpgd_run(A: LinearOperator, y, P, cfg: GpgdConfig,
             ground_truth=None) -> tuple[np.ndarray, GpgdTrace]:
    """Run the projected gradient iteration and record its trace.

    y is one measurement vector (m,) or a stack (b, m) of them, one per
    row, solved together; the trace has b rows either way, b = 1 for one
    vector. P is called once per iteration with the iterate in y's shape:
    for one vector any callable R^n -> R^n works (exact projection,
    perturbed projection, or a trained network); for a stack, P must map
    each row (exact projections and network projectors do). ground_truth
    and cfg.x0 are one vector, shared by every row, or one row per
    measurement. Row r of a stack run equals the one-vector run on y[r]
    whenever A and P give a stack's rows the same bits as single vectors.
    Deterministic whenever P is. The returned final iterate is a fresh
    array in y's shape, not a view of the trace.
    """
    yv = as_rows(y)
    gamma = cfg.gamma if cfg.gamma is not None else default_step_size(A)
    shape = yv.shape[:-1] + (A.n,)
    if cfg.x0 is None:
        x = A.adjoint(yv)
    else:
        x = np.broadcast_to(as_rows(cfg.x0), shape).copy()
    # Each row has an iterate stack of its own: once freed, one block as
    # large as a whole batch's iterates makes the C allocator raise its
    # mmap and trim thresholds and keep that much freed heap resident.
    b = len(x) if x.ndim == 2 else 1
    truth = None if ground_truth is None else np.broadcast_to(
        as_rows(ground_truth), shape).reshape(b, A.n)
    stacks = [np.empty((cfg.max_iters + 1, A.n)) for _ in range(b)]
    residual = np.empty((b, cfg.max_iters + 1))
    proj_err = None if truth is None else np.empty((b, cfg.max_iters))
    # the norms of a huge but finite iterate overflow before its entries
    # do; a diverging run must reach the finiteness check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.max_iters + 1):
            if i:
                p = as_rows(P(x))
                if truth is not None:
                    proj_err[:, i - 1] = row_norms(p.reshape(b, A.n) - truth)
                x = p - gamma * A.adjoint(A.apply(p) - yv)
                finite = np.isfinite(x).reshape(b, A.n)
                if not finite.all():
                    row = int(np.argmin(finite.all(axis=1)))
                    # hypot scales by the largest entry, so the norm of a
                    # finite iterate past about 1.3e154 does not overflow
                    raise SolverDivergence(i, math.hypot(*stacks[row][i - 1]), row)
            for stack, xr in zip(stacks, x.reshape(b, A.n)):
                stack[i] = xr
            residual[:, i] = row_norms(A.apply(x) - yv)

    trace = GpgdTrace(gamma=gamma, residual=residual, iterates=stacks)
    if truth is not None:
        err = np.empty(residual.shape)
        db = np.empty(residual.shape)
        for r, stack in enumerate(stacks):
            err[r] = row_norms(stack - truth[r])
            db[r] = psnr(stack, truth[r])
        truth_norm = row_norms(truth)
        if np.all(truth_norm > 0):
            trace.rel_err = err / truth_norm[:, None]
        trace.err = err
        trace.psnr_db = db
        trace.proj_err = proj_err
    return x, trace


def convergence_iteration(trace: GpgdTrace, x_star,
                          threshold: float) -> list[int | None]:
    """Per row r, the first iterate i with ||x_i - x_star[r]|| /
    ||x_star[r]|| <= threshold, or None when no iterate qualifies.

    x_star is one reference per row, (b, n), or one vector shared by
    every row: usually each row's best iterate, unknown until the run
    finishes.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    refs = np.broadcast_to(as_rows(x_star),
                           (len(trace.iterates), trace.iterates[0].shape[1]))
    ref_norms = row_norms(refs)
    if np.any(ref_norms == 0.0):
        raise ValueError("convergence_iteration: ||x_star|| = 0")
    hits = [np.flatnonzero(row_norms(stack - ref) / ref_norm <= threshold)
            for stack, ref, ref_norm in zip(trace.iterates, refs, ref_norms)]
    return [int(h[0]) if h.size else None for h in hits]


def best_iterate(trace: GpgdTrace) -> tuple[np.ndarray, np.ndarray]:
    """Each row's iterate with the best PSNR against ground truth (lowest
    index wins): (b,) indices and the (b, n) stack of those iterates."""
    if trace.psnr_db is None:
        raise ValueError("best_iterate requires a run with ground truth")
    idx = trace.best_index
    return idx, np.stack([stack[i] for stack, i in zip(trace.iterates, idx)])


def trace_to_csv(trace: GpgdTrace, path) -> None:
    """Columns iter, rel_err, psnr_db, residual (empty cells when absent)
    of a one-row trace; take row r of a larger one with trace.row(r)."""
    if len(trace.iterates) != 1:
        raise ValueError("trace_to_csv writes one row; take trace.row(r)")
    rows = len(trace)

    def column(values):  # repr of each entry as a Python float
        return [""] * rows if values is None else map(repr, values[0].tolist())

    text = "".join(
        f"{i},{rel},{ps},{res}\n" for i, rel, ps, res in zip(
            range(rows), column(trace.rel_err), column(trace.psnr_db),
            column(trace.residual)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iter,rel_err,psnr_db,residual\n" + text)
