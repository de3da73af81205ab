"""Low-dimensional model sets with exact orthogonal projections.

Supported sets: k-sparse vectors and unions of lines (unit directions
through the origin). Both are homogeneous and proximinal by construction.
Projections break ties by lowest index so results are reproducible, and
take one vector (n,) or a stack (b, n) of vectors, one per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import as_rows, row_norms

__all__ = [
    "ModelSetError",
    "KSparse",
    "UnionOfLines",
    "hard_threshold",
    "project_union",
    "project",
    "MEMBER_TOL",
    "on_model_set",
    "sample_member",
    "random_lines",
    "ExactProjector",
    "PerturbedProjector",
]

# Relative distance within which a point counts as lying in a model set.
MEMBER_TOL = 1e-9


class ModelSetError(ValueError):
    """Invalid model-set construction or unsupported model/operation pair."""


@dataclass(frozen=True)
class KSparse:
    """Vectors in R^n with at most k nonzero entries."""

    k: int
    n: int

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise ModelSetError(f"need 1 <= k < n, got k={self.k}, n={self.n}")


class UnionOfLines:
    """Union of lines span(x_i) for unit directions x_i."""

    def __init__(self, directions):
        dirs = np.asarray(directions, dtype=np.float64)
        if dirs.ndim != 2 or dirs.shape[0] < 1:
            raise ModelSetError("directions must be a (count, n) array")
        norms = np.linalg.norm(dirs, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ModelSetError("directions must have unit norm (1e-12)")
        self.directions = dirs
        self._directions_t = dirs.T  # made once, not per projection
        self.n = dirs.shape[1]


def hard_threshold(z, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of each row, zero the rest.

    This is the orthogonal projection onto the k-sparse set; magnitude ties
    are broken by lowest index.
    """
    vec = as_rows(z)
    if not 1 <= k <= vec.shape[-1]:
        raise ModelSetError(f"need 1 <= k <= {vec.shape[-1]}, got k={k}")
    order = np.argsort(-np.abs(vec), kind="stable")
    if vec.ndim == 2:
        keep = (np.arange(len(vec))[:, None], order[:, :k])
    else:
        keep = order[:k]
    out = np.zeros_like(vec)
    out[keep] = vec[keep]
    return out


def project_union(z, model) -> np.ndarray:
    """Orthogonal projection onto a union of lines.

    Picks, per row, the line maximizing the projected norm (equivalently,
    minimizing the residual); ties go to the lowest index.
    Every row gets the bits of its own one-vector call: the products are
    row-by-row matmuls, which a single stacked matmul would not give.
    """
    if not isinstance(model, UnionOfLines):
        raise ModelSetError(f"project_union does not support {type(model).__name__}")
    vec = as_rows(z)
    rows = vec.reshape(-1, vec.shape[-1])
    coeffs = np.matmul(rows[:, None, :], model._directions_t)[:, 0]
    best = np.argmax(np.abs(coeffs), axis=-1)
    out = coeffs[np.arange(len(rows)), best][:, None] * model.directions[best]
    return out.reshape(vec.shape)


def project(model, z) -> np.ndarray:
    """Exact orthogonal projection onto any supported model set."""
    if isinstance(model, KSparse):
        return hard_threshold(z, model.k)
    return project_union(z, model)


def on_model_set(z: np.ndarray, pz: np.ndarray):
    """Whether z lies within relative distance MEMBER_TOL of a model set,
    given its exact projection pz onto that set: a bool for one vector,
    a bool per row for a stack (b, n)."""
    inside = row_norms(z - pz) <= MEMBER_TOL * (1.0 + row_norms(z))
    return bool(inside) if np.ndim(z) == 1 else inside


def sample_member(model, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw random elements of the model set (Gaussian coefficients): a
    block (size, n), one element per row, or one element (n,) when size is
    None, which is row 0 of the block of 1.

    A block takes a fixed number of generator calls, in this order:
    KSparse, a (size, n) uniform key block whose k smallest keys per row
    pick the row's support (a uniform k-subset), then a (size, k) block of
    values; UnionOfLines, one line index per row, then one coefficient per
    row.
    """
    rows = 1 if size is None else size
    if isinstance(model, KSparse):
        keys = rng.random((rows, model.n))
        support = np.argpartition(keys, model.k - 1, axis=1)[:, : model.k]
        out = np.zeros((rows, model.n))
        out[np.arange(rows)[:, None], support] = rng.standard_normal((rows, model.k))
    elif isinstance(model, UnionOfLines):
        pick = rng.integers(model.directions.shape[0], size=rows)
        out = rng.standard_normal(rows)[:, None] * model.directions[pick]
    else:
        raise ModelSetError(f"cannot sample from {type(model).__name__}")
    return out[0] if size is None else out


def random_lines(count: int, n: int, seed: int) -> UnionOfLines:
    """Union of `count` uniformly random lines in R^n."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return UnionOfLines(dirs)


class ExactProjector:
    """Callable wrapper around the exact orthogonal projection."""

    def __init__(self, model):
        self.model = model

    def __call__(self, z) -> np.ndarray:
        return project(self.model, z)


class PerturbedProjector:
    """Controlled deviation from the exact projection onto a union of lines.

    Tangential magnitude t scales the coefficient along the best line by
    (1 + t), so ||P(z) - P_perp(z)|| = t * ||P_perp(z)||. Outputs always lie
    in the model set, and points already in the set are returned via the
    exact projection (P(z) = z on the set). Every row of a stack (b, n)
    gets the bits of its own one-vector call.
    """

    def __init__(self, model: UnionOfLines, t: float):
        if not isinstance(model, UnionOfLines):
            raise ModelSetError("perturbed projector requires a union of lines")
        if t < 0:
            raise ModelSetError(f"t must be >= 0, got t={t}")
        self.model = model
        self.t = float(t)

    def __call__(self, z) -> np.ndarray:
        vec = as_rows(z)
        rows = vec.reshape(-1, vec.shape[-1])
        dirs = self.model.directions
        # row-by-row matmul: the bits of directions @ row for every row
        coeffs = np.matmul(dirs, rows[:, :, None])[..., 0]
        best = np.argmax(np.abs(coeffs), axis=1)
        c = coeffs[np.arange(len(rows)), best][:, None]
        exact = c * dirs[best]
        on_set = on_model_set(rows, exact)
        out = (1.0 + self.t) * c * dirs[best]
        out[on_set] = exact[on_set]
        return out.reshape(vec.shape)
