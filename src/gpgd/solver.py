"""Generalized projected gradient descent with per-iteration tracing.

The update is x_{k+1} = P(x_k) - gamma * A^T (A P(x_k) - y). Runs execute
the full iteration budget (no early stopping) and record the initial point
as iterate 0, matching the convention that a convergence iteration of 0
means the initial guess was already good enough. The iterates are kept as
one stack, from which the error, PSNR and residual records are derived in
whole-array operations after the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import LinearOperator
from .signals import as_vector, psnr

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
    """Iterate became non-finite."""

    def __init__(self, iteration: int, norm: float):
        super().__init__(
            f"non-finite iterate at iteration {iteration} (norm {norm!r})"
        )
        self.iteration = iteration
        self.norm = norm


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
    """One run's records; row and index 0 are the initial point.

    iterates is the (max_iters + 1, n) stack of every iterate and
    residual[i] = ||A x_i - y||. err/rel_err/psnr_db are set only when
    ground truth is supplied (rel_err not when ||ground_truth|| = 0).
    proj_err[i] = ||P(x_i) - ground_truth|| for the projection used to form
    x_{i+1} (length max_iters).
    """

    gamma: float
    residual: np.ndarray
    iterates: np.ndarray
    err: np.ndarray | None = None
    rel_err: np.ndarray | None = None
    psnr_db: np.ndarray | None = None
    proj_err: np.ndarray | None = None

    @property
    def best_index(self) -> int | None:
        """Index of the best-PSNR iterate (lowest index wins a tie)."""
        return None if self.psnr_db is None else int(np.argmax(self.psnr_db))

    def __len__(self) -> int:
        return self.residual.size


def _row_norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; equals np.linalg.norm(row) bit for bit."""
    return np.sqrt(np.vecdot(D, D))


def default_step_size(A: LinearOperator, tol: float = 1e-8,
                      max_iters: int = 10_000) -> float:
    """1 / ||A||_2^2 via power iteration on A^T A (fixed internal seed)."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.n)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    lam = 0.0
    for _ in range(max_iters):
        w = A.adjoint(A.apply(v))
        lam = float(np.dot(v, w))
        norm = np.linalg.norm(w)
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

    P is any callable R^n -> R^n (exact projection, perturbed projection,
    or a trained network). Deterministic whenever P is. The returned final
    iterate is a fresh array, not a view of the trace.
    """
    yv = as_vector(y)
    gamma = cfg.gamma if cfg.gamma is not None else default_step_size(A)
    x = as_vector(cfg.x0).copy() if cfg.x0 is not None else A.adjoint(yv)
    X = np.empty((cfg.max_iters + 1, x.size))
    R = np.empty((cfg.max_iters + 1, yv.size))
    proj = np.empty((cfg.max_iters, x.size))
    X[0] = x
    R[0] = A.apply(x) - yv
    for i in range(1, cfg.max_iters + 1):
        p = as_vector(P(x))
        proj[i - 1] = p
        x = p - gamma * A.adjoint(A.apply(p) - yv)
        if not np.all(np.isfinite(x)):
            raise SolverDivergence(i, float(np.linalg.norm(x[np.isfinite(x)])))
        X[i] = x
        R[i] = A.apply(x) - yv

    trace = GpgdTrace(gamma=gamma, residual=_row_norms(R), iterates=X)
    if ground_truth is not None:
        truth = as_vector(ground_truth)
        truth_norm = float(np.linalg.norm(truth))
        proj -= truth
        trace.err = _row_norms(X - truth)
        trace.rel_err = trace.err / truth_norm if truth_norm > 0 else None
        trace.psnr_db = psnr(X, truth)
        trace.proj_err = _row_norms(proj)
    return x, trace


def convergence_iteration(trace: GpgdTrace, x_star, threshold: float) -> int | None:
    """First iterate i with ||x_i - x_star|| / ||x_star|| <= threshold.

    Returns None when no iterate qualifies. The reference point is usually
    the best iterate of the same run, unknown until the run finishes.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    ref = as_vector(x_star)
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError("convergence_iteration: ||x_star|| = 0")
    hits = np.flatnonzero(_row_norms(trace.iterates - ref) / ref_norm <= threshold)
    return int(hits[0]) if hits.size else None


def best_iterate(trace: GpgdTrace) -> tuple[int, np.ndarray]:
    """Iterate with the best PSNR against ground truth (lowest index wins)."""
    if trace.psnr_db is None:
        raise ValueError("best_iterate requires a run with ground truth")
    idx = trace.best_index
    return idx, trace.iterates[idx]


def trace_to_csv(trace: GpgdTrace, path) -> None:
    """Columns iter, rel_err, psnr_db, residual (empty cells when absent)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iter,rel_err,psnr_db,residual\n")
        for i in range(len(trace)):
            rel = "" if trace.rel_err is None else repr(float(trace.rel_err[i]))
            ps = "" if trace.psnr_db is None else repr(float(trace.psnr_db[i]))
            fh.write(f"{i},{rel},{ps},{repr(float(trace.residual[i]))}\n")
