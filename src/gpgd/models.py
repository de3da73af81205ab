"""Low-dimensional model sets with exact orthogonal projections.

Supported sets: k-sparse vectors, finite unions of subspaces given by
orthonormal bases, and unions of lines (unit directions through the
origin). All are homogeneous and proximinal by construction. Projections
break ties by lowest index so results are reproducible, and take one
vector (n,) or a stack (b, n) of vectors, one per row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .signals import as_rows, as_vector

__all__ = [
    "ModelSetError",
    "KSparse",
    "UnionOfSubspaces",
    "UnionOfLines",
    "hard_threshold",
    "project_union",
    "project",
    "is_member",
    "sample_member",
    "random_lines",
    "ExactProjector",
    "PerturbedProjector",
    "model_to_json",
    "model_from_json",
]


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


class UnionOfSubspaces:
    """Union of subspaces span(B_j), each basis with orthonormal columns."""

    def __init__(self, bases):
        mats = [np.asarray(b, dtype=np.float64) for b in bases]
        if not mats:
            raise ModelSetError("need at least one subspace basis")
        n = mats[0].shape[0]
        for b in mats:
            if b.ndim != 2 or b.shape[0] != n:
                raise ModelSetError("all bases must be (n, d) with a common n")
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-10:
                raise ModelSetError("basis columns must be orthonormal (1e-10)")
        self.bases = mats
        self.n = n


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
    """Orthogonal projection onto a union of subspaces or lines.

    Picks, per row, the component maximizing the projected norm
    (equivalently, minimizing the residual); ties go to the lowest index.
    """
    vec = as_rows(z)
    if isinstance(model, UnionOfLines):
        coeffs = vec @ model._directions_t
        best = np.argmax(np.abs(coeffs), axis=-1)
        if vec.ndim == 2:
            return coeffs[np.arange(len(vec)), best][:, None] * model.directions[best]
        return coeffs[best] * model.directions[best]
    if isinstance(model, UnionOfSubspaces):
        rows = vec.reshape(-1, model.n)
        coeffs = [rows @ b for b in model.bases]
        best = np.argmax(np.stack([np.sqrt(np.vecdot(c, c)) for c in coeffs]), axis=0)
        out = np.empty_like(rows)
        for r, j in enumerate(best.tolist()):
            out[r] = model.bases[j] @ coeffs[j][r]
        return out.reshape(vec.shape)
    raise ModelSetError(f"project_union does not support {type(model).__name__}")


def project(model, z) -> np.ndarray:
    """Exact orthogonal projection onto any supported model set."""
    if isinstance(model, KSparse):
        return hard_threshold(z, model.k)
    return project_union(z, model)


def is_member(model, x, tol: float = 1e-8) -> bool:
    """True iff x is within relative distance tol of the model set."""
    if tol <= 0:
        raise ModelSetError(f"tol must be > 0, got {tol}")
    vec = as_vector(x)
    resid = np.linalg.norm(vec - project(model, vec))
    return resid <= tol * (1.0 + np.linalg.norm(vec))


def sample_member(model, rng: np.random.Generator) -> np.ndarray:
    """Draw a random element of the model set (Gaussian coefficients)."""
    if isinstance(model, KSparse):
        out = np.zeros(model.n)
        support = rng.choice(model.n, size=model.k, replace=False)
        out[support] = rng.standard_normal(model.k)
        return out
    if isinstance(model, UnionOfSubspaces):
        b = model.bases[int(rng.integers(len(model.bases)))]
        return b @ rng.standard_normal(b.shape[1])
    if isinstance(model, UnionOfLines):
        i = int(rng.integers(model.directions.shape[0]))
        return rng.standard_normal() * model.directions[i]
    raise ModelSetError(f"cannot sample from {type(model).__name__}")


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

    Tangential magnitude t scales the coefficient along the chosen line by
    (1 + t), so ||P(z) - P_perp(z)|| = t * ||P_perp(z)|| whenever the same
    line is selected. Normal magnitude u > 0 flips the selection to the
    second-best line with probability u (drawn from the projector's own
    generator, so the map is sequence-reproducible rather than pointwise
    deterministic). Outputs always lie in the model set, and points already
    in the set are returned via the exact projection (P(z) = z on the set).
    It takes one vector per call, never a stack, because its draws are
    made in call order.
    """

    def __init__(self, model: UnionOfLines, t: float, u: float, seed: int,
                 member_tol: float = 1e-9):
        if not isinstance(model, UnionOfLines):
            raise ModelSetError("perturbed projector requires a union of lines")
        if t < 0 or u < 0:
            raise ModelSetError(f"t and u must be >= 0, got t={t}, u={u}")
        if u > 1:
            raise ModelSetError(f"u is a probability, got {u}")
        self.model = model
        self.t = float(t)
        self.u = float(u)
        self.member_tol = member_tol
        self._rng = np.random.default_rng(seed)

    def __call__(self, z) -> np.ndarray:
        vec = as_rows(z)
        if vec.ndim != 1:
            raise ModelSetError(
                "PerturbedProjector takes one vector per call: its random "
                "draws follow the call order"
            )
        coeffs = self.model.directions @ vec
        abs_c = np.abs(coeffs)
        best = int(np.argmax(abs_c))
        exact = coeffs[best] * self.model.directions[best]
        resid = np.linalg.norm(vec - exact)
        if resid <= self.member_tol * (1.0 + np.linalg.norm(vec)):
            return exact
        pick = best
        if self.u > 0 and abs_c.size > 1 and self._rng.random() < self.u:
            order = np.argsort(-abs_c, kind="stable")
            pick = int(order[1])
        return (1.0 + self.t) * coeffs[pick] * self.model.directions[pick]


def model_to_json(model) -> str:
    """Serialize a model set: kind tag plus flat row-major float arrays."""
    if isinstance(model, KSparse):
        doc = {"kind": "k-sparse", "k": model.k, "n": model.n}
    elif isinstance(model, UnionOfSubspaces):
        doc = {
            "kind": "union-of-subspaces",
            "n": model.n,
            "dims": [b.shape[1] for b in model.bases],
            "bases": [b.reshape(-1).tolist() for b in model.bases],
        }
    elif isinstance(model, UnionOfLines):
        doc = {
            "kind": "union-of-lines",
            "n": model.n,
            "count": model.directions.shape[0],
            "directions": model.directions.reshape(-1).tolist(),
        }
    else:
        raise ModelSetError(f"cannot serialize {type(model).__name__}")
    return json.dumps(doc)


def model_from_json(text: str):
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind == "k-sparse":
        return KSparse(int(doc["k"]), int(doc["n"]))
    if kind == "union-of-subspaces":
        n = int(doc["n"])
        bases = [
            np.asarray(flat, dtype=np.float64).reshape(n, d)
            for flat, d in zip(doc["bases"], doc["dims"])
        ]
        return UnionOfSubspaces(bases)
    if kind == "union-of-lines":
        n = int(doc["n"])
        count = int(doc["count"])
        dirs = np.asarray(doc["directions"], dtype=np.float64).reshape(count, n)
        return UnionOfLines(dirs)
    raise ModelSetError(f"unknown model kind: {kind!r}")
