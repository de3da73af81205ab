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
from .signals import as_rows, as_vector, psnr, row_norms

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


class SolverDivergence(RuntimeError):
    """Iterate became non-finite. row is the first row of a stack run that
    did (None for a one-vector run); norm is the norm of that row's finite
    entries."""

    def __init__(self, iteration: int, norm: float, row: int | None = None):
        where = "" if row is None else f" in row {row}"
        super().__init__(
            f"non-finite iterate at iteration {iteration}{where} (norm {norm!r})"
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

    A one-vector run keeps the (max_iters + 1, n) stack of its iterates
    and records of length max_iters + 1. A run on b stacked rows keeps a
    list of b such iterate stacks, one per row, and records
    (b, max_iters + 1); row(r) is row r's own one-vector trace.
    residual[..., i] = ||A x_i - y||. err/rel_err/psnr_db are set only when
    ground truth is supplied (rel_err not when a ground-truth row has norm
    0). proj_err[..., i] = ||P(x_i) - ground_truth|| for the projection
    used to form x_{i+1} (length max_iters).
    """

    gamma: float
    residual: np.ndarray
    iterates: np.ndarray | list[np.ndarray]
    err: np.ndarray | None = None
    rel_err: np.ndarray | None = None
    psnr_db: np.ndarray | None = None
    proj_err: np.ndarray | None = None

    @property
    def best_index(self):
        """Index of the best-PSNR iterate (lowest index wins a tie): an int
        for a one-vector run, an array with one index per row for a stack."""
        if self.psnr_db is None:
            return None
        best = np.argmax(self.psnr_db, axis=-1)
        return int(best) if best.ndim == 0 else best

    def __len__(self) -> int:
        return self.residual.shape[-1]

    def row(self, r: int) -> "GpgdTrace":
        """Row r of a stack run as a one-vector trace; it shares the run's
        arrays."""
        def pick(a):
            return None if a is None else a[r]

        return GpgdTrace(gamma=self.gamma, residual=self.residual[r],
                         iterates=self.iterates[r], err=pick(self.err),
                         rel_err=pick(self.rel_err), psnr_db=pick(self.psnr_db),
                         proj_err=pick(self.proj_err))


def _one_vector(trace: GpgdTrace) -> None:
    if isinstance(trace.iterates, list):
        raise ValueError("expected a one-vector trace; take row r of a stack "
                         "run with trace.row(r)")


def default_step_size(A: LinearOperator, tol: float = 1e-8,
                      max_iters: int = 10_000) -> float:
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
        for _ in range(max_iters):
            w = A.adjoint(A.apply(v))
            lam = float(np.dot(v, w))
            if not math.isfinite(lam):
                raise ValueError(f"default_step_size: non-finite estimate {lam}")
            norm = math.sqrt(w.dot(w))
            if norm == 0.0:
                raise ValueError("default_step_size: zero operator")
            v = w / norm
            if abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
                break
            lam_prev = lam
    if lam <= 0.0:
        raise ValueError("default_step_size: could not estimate spectral norm")
    return 1.0 / lam


def gpgd_run(A: LinearOperator, y, P, cfg: GpgdConfig,
             ground_truth=None) -> tuple[np.ndarray, GpgdTrace]:
    """Run the projected gradient iteration and record its trace.

    y is one measurement vector (m,) or a stack (b, m) of them, one per
    row, solved together. P is called once per iteration with the iterate
    in that same shape: for one vector any callable R^n -> R^n works (exact
    projection, perturbed projection, or a trained network); for a stack,
    P must map each row (exact projections and network projectors do).
    ground_truth and cfg.x0 are one vector, shared by every row, or one row
    per measurement. Row r of a stack run equals the one-vector run on y[r]
    whenever A and P give a stack's rows the same bits as single vectors.
    Deterministic whenever P is. The returned final iterate is a fresh
    array, not a view of the trace.
    """
    yv = as_rows(y)
    gamma = cfg.gamma if cfg.gamma is not None else default_step_size(A)
    shape = yv.shape[:-1] + (A.n,)
    if cfg.x0 is None:
        x = A.adjoint(yv)
    else:
        x = np.broadcast_to(as_rows(cfg.x0), shape).copy()
    # Records are kept as (b, ...) rows, b = 1 for one vector, and each row
    # has an iterate stack of its own: once freed, one block as large as a
    # whole batch's iterates makes the C allocator raise its mmap and trim
    # thresholds and keep that much freed heap memory resident.
    b = len(x) if x.ndim == 2 else 1
    truth = None if ground_truth is None else np.broadcast_to(
        as_rows(ground_truth), shape).reshape(b, A.n)
    stacks = [np.empty((cfg.max_iters + 1, A.n)) for _ in range(b)]
    residual = np.empty((b, cfg.max_iters + 1))
    proj_err = None if truth is None else np.empty((b, cfg.max_iters))
    for i in range(cfg.max_iters + 1):
        if i:
            p = as_rows(P(x))
            if truth is not None:
                proj_err[:, i - 1] = row_norms(p.reshape(b, A.n) - truth)
            x = p - gamma * A.adjoint(A.apply(p) - yv)
            finite = np.isfinite(x)
            if not finite.all():
                row = None if x.ndim == 1 else int(np.argmin(finite.all(axis=-1)))
                bad = x if row is None else x[row]
                ok = finite if row is None else finite[row]
                raise SolverDivergence(i, float(np.linalg.norm(bad[ok])), row)
        for stack, xr in zip(stacks, x.reshape(b, A.n)):
            stack[i] = xr
        residual[:, i] = row_norms(A.apply(x) - yv)

    lead = shape[:-1]
    trace = GpgdTrace(gamma=gamma, residual=residual.reshape(lead + (-1,)),
                      iterates=stacks if lead else stacks[0])
    if truth is not None:
        err = np.empty(residual.shape)
        db = np.empty(residual.shape)
        for r, stack in enumerate(stacks):
            err[r] = row_norms(stack - truth[r])
            db[r] = psnr(stack, truth[r])
        truth_norm = row_norms(truth)
        if np.all(truth_norm > 0):
            trace.rel_err = (err / truth_norm[:, None]).reshape(lead + (-1,))
        trace.err = err.reshape(lead + (-1,))
        trace.psnr_db = db.reshape(lead + (-1,))
        trace.proj_err = proj_err.reshape(lead + (-1,))
    return x, trace


def convergence_iteration(trace: GpgdTrace, x_star, threshold: float) -> int | None:
    """First iterate i with ||x_i - x_star|| / ||x_star|| <= threshold.

    Returns None when no iterate qualifies. The reference point is usually
    the best iterate of the same run, unknown until the run finishes.
    """
    _one_vector(trace)
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    ref = as_vector(x_star)
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError("convergence_iteration: ||x_star|| = 0")
    hits = np.flatnonzero(row_norms(trace.iterates - ref) / ref_norm <= threshold)
    return int(hits[0]) if hits.size else None


def best_iterate(trace: GpgdTrace) -> tuple[int, np.ndarray]:
    """Iterate with the best PSNR against ground truth (lowest index wins)."""
    _one_vector(trace)
    if trace.psnr_db is None:
        raise ValueError("best_iterate requires a run with ground truth")
    idx = trace.best_index
    return idx, trace.iterates[idx]


def trace_to_csv(trace: GpgdTrace, path) -> None:
    """Columns iter, rel_err, psnr_db, residual (empty cells when absent)
    of a one-vector trace."""
    _one_vector(trace)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iter,rel_err,psnr_db,residual\n")
        for i in range(len(trace)):
            rel = "" if trace.rel_err is None else repr(float(trace.rel_err[i]))
            ps = "" if trace.psnr_db is None else repr(float(trace.psnr_db[i]))
            fh.write(f"{i},{rel},{ps},{repr(float(trace.residual[i]))}\n")
