"""Estimation of the constants driving linear convergence of projected
gradient descent: restricted isometry constants, restricted Lipschitz
constants, and the orthogonality quantities of approximate projections.

Sampled suprema are lower bounds, never certified values:
the underlying suprema range over all of R^n and are not computable in
general. Exact values are available only for the sparse model, by support
enumeration.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .models import on_model_set, project, sample_member
from .operators import materialize
from .signals import as_rows, row_norms

__all__ = [
    "PSI_GUARD",
    "SAMPLE_BLOCK",
    "psi_rows",
    "phi_rows",
    "RicEstimate",
    "ric_exact_ksparse",
    "ric_sampled",
    "LipschitzEstimate",
    "restricted_lipschitz_sampled",
    "OrthogonalityReport",
    "orthogonality_report",
    "Theorem1Bound",
    "theorem1_bound",
    "theorem3_bound",
    "radial_sampler",
]

# Degenerate-quotient guard on the projection and residual norms in psi and phi.
PSI_GUARD = 1e-9


def _einsum_norms(X: np.ndarray) -> np.ndarray:
    """Row norms by einsum. They round differently from signals.row_norms
    (np.linalg.norm's bits), and psi, phi and the deviation ratio keep
    them: trained priors, checkpoints and the theorem and estimate reports
    depend on these bits."""
    return np.sqrt(np.einsum("ij,ij->i", X, X))


def psi_rows(P: np.ndarray, Z: np.ndarray, dpsi: np.ndarray | None = None,
             R: np.ndarray | None = None):
    """Per-row orthogonality defect of projections P of the rows of Z, and
    optionally its gradient in P.

    psi = |u| / (a b) with u = <p, z-p>, a = ||p||, b = ||z-p||, clamped to
    1 against rounding. Rows with a or b at or below PSI_GUARD are
    degenerate: a 0/1 row weight gives them zero value and zero gradient in
    the same arithmetic as every other row. A stack with no degenerate row
    skips the weighting, which is exact (x * 1 and x + 0 are x), so a row's
    bits do not depend on its neighbours. Non-finite rows are not
    degenerate, so their NaN reaches the caller. When dpsi is given it
    receives the unclamped d psi / d p row by row; it may be P itself,
    which is read only before dpsi is written. R, if given, is scratch for
    Z - P. Returns (psi per row, degenerate mask).
    """
    R = np.subtract(Z, P, out=R)
    u = np.einsum("ij,ij->i", P, R)
    a = _einsum_norms(P)
    b = _einsum_norms(R)
    degenerate = (a <= PSI_GUARD) | (b <= PSI_GUARD)
    valid = ~degenerate if np.count_nonzero(degenerate) else None
    abs_u = np.abs(u)
    if valid is not None:
        a += degenerate  # degenerate rows divide by a positive dummy norm
        b += degenerate
        abs_u *= valid
    ab = a * b
    psi_vals = np.minimum(abs_u / ab, 1.0)
    if dpsi is not None:
        # d psi / d p = sign(u)/(ab) (r - p) - |u|/(a^3 b) p + |u|/(a b^3) r
        c = np.sign(u)
        if valid is not None:
            c *= valid
        c /= ab
        k_p = c + abs_u / (a * a * ab)
        k_r = c + abs_u / (ab * b * b)
        np.multiply(P, k_p[:, None], out=dpsi)
        R *= k_r[:, None]
        np.subtract(R, dpsi, out=dpsi)
    return psi_vals, degenerate


def _sin2(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise squared sine of the angle between rows of U and V (= 1 -
    cos^2), computed from the normalized residual so colinear rows give
    ~1e-32 instead of the ~1e-16 noise of the naive formula. Zero rows
    give NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        Uh = U / _einsum_norms(U)[:, None]
        Vh = V / _einsum_norms(V)[:, None]
    R = Vh - np.einsum("ij,ij->i", Uh, Vh)[:, None] * Uh
    return np.einsum("ij,ij->i", R, R)


# sin^2 below this is treated as exact colinearity (angle < 1e-12 rad);
# the quarter-root in phi would otherwise blow pure rounding noise up to
# observable magnitudes.
_COLINEAR_GUARD = 1e-24


def phi_rows(Pperp: np.ndarray, P: np.ndarray, Z: np.ndarray):
    """Per-row angular deviation between approximate projections P and
    exact projections Pperp of the rows of Z.

    sqrt(2 sqrt(1 - a(Pperp(z), P(z))^2) / (1 - a(z, Pperp(z))^2)). A row is
    undefined when a projection norm is at or below PSI_GUARD or the
    denominator vanishes (z in the model set). Returns (phi per row,
    undefined mask); undefined rows have value 0, NaN rows stay NaN.
    """
    sin2_pp = _sin2(Pperp, P)
    sin2_pp[sin2_pp <= _COLINEAR_GUARD] = 0.0
    denom = _sin2(Z, Pperp)
    undefined = (
        (_einsum_norms(Pperp) <= PSI_GUARD)
        | (_einsum_norms(P) <= PSI_GUARD)
        | (denom <= 1e-12)
    )
    sin2_pp[undefined] = 0.0
    denom[undefined] = 1.0
    return np.sqrt(2.0 * np.sqrt(sin2_pp) / denom), undefined


def radial_sampler(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Default probe distribution: uniform direction, radius uniform on
    (0, 2). Covers directions uniformly and radii broadly.

    Returns a (count, n) block of probes drawn by one (count, n)
    standard-normal call for the directions, then one uniform call for the
    count radii. Rows with a zero direction norm, and then rows with a zero
    radius, are redrawn (in row order, one call per pass), so every row is
    a nonzero point in the open ball.
    """
    g = rng.standard_normal((count, n))
    norms = row_norms(g)
    while (zero := np.flatnonzero(norms == 0.0)).size:
        g[zero] = rng.standard_normal((zero.size, n))
        norms[zero] = row_norms(g[zero])
    r = rng.uniform(0.0, 2.0, count)
    while (zero := np.flatnonzero(r == 0.0)).size:
        r[zero] = rng.uniform(0.0, 2.0, zero.size)
    return (r / norms)[:, None] * g


@dataclass
class RicEstimate:
    """Restricted isometry constant of I - gamma A^T A on a secant set:
    exact (ric_exact_ksparse) or a sampled lower bound (ric_sampled).

    samples counts the supports (exact) or secant pairs (sampled) the value
    ranges over; evaluated, when exact, counts the supports whose Gram block
    was eigendecomposed after pruning (None when sampled); degenerate, when
    sampled, counts the pairs skipped because their difference was
    (numerically) zero (None when exact).
    """

    value: float
    samples: int
    evaluated: int | None = None
    degenerate: int | None = None


# Supports per pass of the eigenvalue-bound computation in ric_exact_ksparse,
# and Gram blocks per eigvalsh call: sizes that keep every temporary well
# under a megabyte while amortizing numpy's per-call cost.
_RIC_BOUND_CHUNK = 4096
_RIC_EIG_CHUNK = 512
# Relative margin on the bounds before a block is pruned, far above their
# rounding error, so rounding can never prune the maximising block.
_RIC_PRUNE_MARGIN = 1e-12
# ric_exact_ksparse refuses to enumerate more supports than this.
_RIC_MAX_SUPPORTS = 10**6


def _take_blocks(gram: np.ndarray, supports: np.ndarray,
                 idx: np.ndarray | None = None) -> np.ndarray:
    """The principal submatrices gram[S, S], one per row S of supports, as
    an (s, s, c) stack with the support axis last, gathered by one take
    from the raveled C-contiguous (n, n) gram. The flat indices
    S[i] * n + S[j] are intp whatever the table's dtype, so they cannot
    wrap; idx, if given, is (s, s, c) intp scratch for them. With the
    support axis last, every index and bound operation runs over c
    contiguous entries."""
    sup = supports.T.astype(np.intp, order="C")
    idx = np.add((sup * len(gram))[:, None, :], sup[None, :, :], out=idx)
    return gram.ravel().take(idx)


def _block_bounds(blocks: np.ndarray, out: np.ndarray) -> None:
    """Writes to out an upper bound on the top eigenvalue of each block of
    an (s, s, c) stack: the smaller of its Frobenius norm and its largest
    absolute row sum (Gershgorin), formed in place by s - 1 slice adds and
    s - 1 elementwise maxima rather than reduces over axes of length s.
    Overwrites blocks."""
    a = np.abs(blocks, out=blocks)
    np.sqrt(np.einsum("ijb,ijb->b", a, a), out=out)
    rows = a[:, 0]  # row sums overwrite column 0, which nothing reads after
    for j in range(1, len(a)):
        rows += a[:, j]
    for row in rows[1:]:
        np.maximum(rows[0], row, out=rows[0])
    np.minimum(out, rows[0], out=out)


def _ric_bounds(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """_block_bounds of every block gram[S, S], S a row of supports,
    _RIC_BOUND_CHUNK supports at a time, with their indices in a contiguous
    prefix of one reused buffer; each chunk's blocks are freed before the
    next chunk's are taken."""
    count, s = supports.shape
    bounds = np.empty(count)
    buf = np.empty(s * s * min(count, _RIC_BOUND_CHUNK), dtype=np.intp)
    for start in range(0, count, _RIC_BOUND_CHUNK):
        chunk = supports[start : start + _RIC_BOUND_CHUNK]
        idx = buf[: s * s * len(chunk)].reshape(s, s, len(chunk))
        _block_bounds(_take_blocks(gram, chunk, idx),
                      out=bounds[start : start + len(chunk)])
    return bounds


@functools.lru_cache(maxsize=8)
def _support_table(n: int, s: int) -> np.ndarray:
    """Every s-subset of range(n) as a read-only (C(n, s), s) array in
    lexicographic order, built once per (n, s) and shared by every call."""
    count = math.comb(n, s)
    table = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), s)),
        dtype=np.min_scalar_type(n - 1),
        count=count * s,
    ).reshape(count, s)
    table.flags.writeable = False
    return table


def _iteration_matrix(A, gamma: float) -> np.ndarray:
    """M = I - gamma A^T A, the gradient step's linear part, as a dense
    (n, n) array. Raises ValueError, before any arithmetic, when gamma or
    an entry of A is not finite."""
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    mat = materialize(A)
    if not np.isfinite(mat).all():
        raise ValueError("the operator has a non-finite entry")
    return np.eye(mat.shape[1]) - gamma * (mat.T @ mat)


def ric_exact_ksparse(A, gamma: float, k: int,
                      beta: float | None = None) -> RicEstimate:
    """Exact RIC of gamma A^T A over the k-sparse secant set.

    Differences of k-sparse vectors are 2k-sparse, so the constant is the
    max over supports S (|S| = min(2k, n)) of the spectral norm of the full
    column submatrix M[:, S] of M = I - gamma A^T A. The full Euclidean
    norm of M w matters, not just its restriction to S, so the Gram matrix
    (M^2)[S, S] is the object whose top eigenvalue is enumerated.

    Bound and prune: every block's top eigenvalue is bounded by the smaller
    of its largest absolute row sum (Gershgorin) and its Frobenius norm.
    The blocks with the _RIC_EIG_CHUNK largest bounds are eigendecomposed
    first; the rest follow in decreasing-bound order, _RIC_EIG_CHUNK at a
    time, until the next bound falls below the best eigenvalue by the
    relative margin. The value is the full enumeration's maximum bit for
    bit: a maximum does not depend on evaluation order, each block's
    eigenvalues do not depend on the blocks decomposed with it, and pruned
    blocks cannot reach it.

    Early exit: with beta given, the enumeration also stops as soon as its
    running value delta gives delta * beta >= 1, the rate at which Theorem
    1 gives no guarantee. The returned value is then that running value, a
    lower bound that already decides the exclusion, not the exact RIC. An
    instance with delta * beta < 1 enumerates to the end, so its value is
    exact bit for bit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m_op = _iteration_matrix(A, gamma)
    n = len(m_op)
    s = min(2 * k, n)
    count = math.comb(n, s)
    if count > _RIC_MAX_SUPPORTS:
        raise ValueError(
            f"support enumeration too large: C({n},{s})={count} > {_RIC_MAX_SUPPORTS}"
        )
    gram = m_op @ m_op  # symmetric, so M^T M = M^2
    if not np.isfinite(gram).all():
        raise ValueError("(I - gamma A^T A)^2 has a non-finite entry")
    supports = _support_table(n, s)
    bounds = _ric_bounds(gram, supports)

    def top_eigenvalue(picked: np.ndarray) -> float:
        blocks = _take_blocks(gram, supports[picked]).transpose(2, 0, 1)
        return float(np.linalg.eigvalsh(blocks)[:, -1].max())

    def excluded(value: float) -> bool:
        return beta is not None and math.sqrt(max(value, 0.0)) * beta >= 1.0

    # The largest bounds are found without a sort; only the blocks whose
    # bound still reaches the best eigenvalue after them are sorted.
    top = np.argpartition(bounds, max(count - _RIC_EIG_CHUNK, 0))[-_RIC_EIG_CHUNK:]
    best = top_eigenvalue(top)
    evaluated = len(top)
    if not excluded(best):
        bounds[top] = -np.inf
        rest = np.flatnonzero(bounds * (1.0 + _RIC_PRUNE_MARGIN) >= best)
        rest = rest[np.argsort(-bounds[rest], kind="stable")]
        for start in range(0, len(rest), _RIC_EIG_CHUNK):
            if bounds[rest[start]] * (1.0 + _RIC_PRUNE_MARGIN) < best:
                break
            picked = rest[start : start + _RIC_EIG_CHUNK]
            best = max(best, top_eigenvalue(picked))
            evaluated += len(picked)
            if excluded(best):
                break
    return RicEstimate(value=math.sqrt(max(best, 0.0)), samples=count,
                       evaluated=evaluated)


# Samples per block in the sampled estimators: each block is drawn with a
# fixed number of generator calls and evaluated with one call per
# projection, membership test and norm. Large enough to amortize those
# calls, small enough that the block buffers stay a few tens of KB at the
# sizes the estimators run at.
SAMPLE_BLOCK = 512

# Differences at or below this norm are skipped as degenerate samples.
_SECANT_GUARD = 1e-12


def _check_nsamples(nsamples: int) -> None:
    if nsamples < 1:
        raise ValueError(f"nsamples must be >= 1, got {nsamples}")


def _secant_sup(nsamples: int, seed: int, draw, image):
    """Sampled sup of ||image(a, b, d)|| / ||d|| over secants d = a - b.

    Samples come in blocks of SAMPLE_BLOCK (fewer in the last), each drawn
    as the row pair (a, b) = draw(rng, count) from one generator seeded
    with seed. Rows with ||d|| at or below _SECANT_GUARD are skipped and
    counted as degenerate; image is called once per block that has a used
    row, on the used rows only, and returns their images as rows. Neither a
    skipped row nor a NaN ratio ever raises the running maximum, which
    starts at 0. Returns (value, degenerate). Raises ValueError when
    nsamples is below 1.
    """
    _check_nsamples(nsamples)
    rng = np.random.default_rng(seed)
    best, degenerate = 0.0, 0
    for start in range(0, nsamples, SAMPLE_BLOCK):
        count = min(SAMPLE_BLOCK, nsamples - start)
        a, b = draw(rng, count)
        d = a - b
        norms = row_norms(d)
        used = norms > _SECANT_GUARD
        degenerate += count - int(np.count_nonzero(used))
        if used.any():
            ratios = row_norms(image(a[used], b[used], d[used])) / norms[used]
            best = float(np.fmax(best, np.fmax.reduce(ratios)))
    return best, degenerate


def ric_sampled(A, gamma: float, model, nsamples: int, seed: int) -> RicEstimate:
    """Monte-Carlo lower bound on the RIC over random secant pairs.

    Samples come in blocks of SAMPLE_BLOCK (fewer in the last): each block
    draws its x1 block, then its x2 block, by models.sample_member, and
    sample i is the secant x1[i] - x2[i]. Raises ValueError when nsamples
    is below 1, or when gamma or an entry of A is not finite.
    """
    m_op = _iteration_matrix(A, gamma)
    value, degenerate = _secant_sup(
        nsamples, seed,
        lambda rng, count: (sample_member(model, rng, count),
                            sample_member(model, rng, count)),
        # row-by-row matmul: the bits of m_op @ diff for every row
        lambda x1, x2, diffs: np.matmul(m_op, diffs[:, :, None])[..., 0],
    )
    return RicEstimate(value=value, samples=nsamples, degenerate=degenerate)


@dataclass
class LipschitzEstimate:
    """Sampled lower bound on a restricted Lipschitz constant.

    degenerate counts the samples skipped because z was (numerically) x.
    """

    value: float
    samples: int
    degenerate: int = 0


def restricted_lipschitz_sampled(P, model, nsamples: int, seed: int,
                                 z_sampler=radial_sampler) -> LipschitzEstimate:
    """Max over samples of ||P(z) - x|| / ||z - x|| with x in the model set.

    Samples come in blocks of SAMPLE_BLOCK (fewer in the last): each block
    draws its z block by z_sampler(rng, count, n), which returns (count,
    n) (radial_sampler by default), then its x block by
    models.sample_member. P takes a stack (b, n) of points, one per row;
    it is called once per block, on the rows with z != x in sample order.
    Raises ValueError when nsamples is below 1.
    """
    value, degenerate = _secant_sup(
        nsamples, seed,
        lambda rng, count: (z_sampler(rng, count, model.n),
                            sample_member(model, rng, count)),
        lambda z, x, _: as_rows(P(z)) - x,
    )
    return LipschitzEstimate(value=value, samples=nsamples, degenerate=degenerate)


@dataclass
class OrthogonalityReport:
    """Sampled orthogonality quantities of a projector against a model set.

    lprime_hat is the sampled sup of ||Pperp(z) - P(z)|| / ||Pperp(z) - z||,
    the quantity whose theoretical bound is psi/sqrt(1-psi^2-phi^2)+phi.
    """

    mean_psi: float
    max_psi: float
    max_phi: float
    lprime_hat: float
    samples: int
    degenerate: int = 0


def orthogonality_report(model, P, nsamples: int, seed: int,
                         z_sampler=radial_sampler) -> OrthogonalityReport:
    """Aggregate psi, phi and the projection-deviation ratio over samples.

    Samples come in blocks z_sampler(rng, count, n) of shape (count, n)
    (radial_sampler by default) of SAMPLE_BLOCK samples (fewer in the
    last). Samples landing in the model set (models.on_model_set) are
    skipped and counted as degenerate. P takes a stack (b, n) of points,
    one per row; it is called once per block that holds a sample off the
    model set, on that block's off-set rows in sample order. Undefined psi
    and phi values contribute zero; mean_psi averages over the used
    samples. Raises ValueError when nsamples is below 1.
    """
    _check_nsamples(nsamples)
    rng = np.random.default_rng(seed)
    # psi sum, then the maxima of psi, phi and the deviation ratio
    totals = np.zeros(4)
    degenerate = 0
    for start in range(0, nsamples, SAMPLE_BLOCK):
        z_b = z_sampler(rng, min(SAMPLE_BLOCK, nsamples - start), model.n)
        pperp_b = project(model, z_b)
        off = ~on_model_set(z_b, pperp_b)
        degenerate += len(z_b) - int(np.count_nonzero(off))
        if not off.any():
            continue
        z_b, pperp_b = z_b[off], pperp_b[off]
        p_b = as_rows(P(z_b))
        psi_vals, _ = psi_rows(p_b, z_b)
        phi_vals, _ = phi_rows(pperp_b, p_b, z_b)
        lprime = _einsum_norms(pperp_b - p_b) / _einsum_norms(z_b - pperp_b)
        totals[0] += psi_vals.sum()
        np.maximum(totals[1:], [psi_vals.max(), phi_vals.max(), lprime.max()],
                   out=totals[1:])
    used = nsamples - degenerate
    return OrthogonalityReport(
        mean_psi=float(totals[0] / used) if used else 0.0,
        max_psi=float(totals[1]),
        max_phi=float(totals[2]),
        lprime_hat=float(totals[3]),
        samples=nsamples,
        degenerate=degenerate,
    )


@dataclass
class Theorem1Bound:
    """Linear-recovery error bound sequence; bounds is None ("no
    guarantee") when the rate delta * beta is at least 1.

    bounds[i] = rate^i * init_err + gamma * (sum_{j<i} rate^j) * atn_norm.
    delta already includes the step size (RIC of gamma A^T A), so only the
    noise term carries an explicit gamma factor.
    """

    bounds: np.ndarray | None


def theorem1_bound(delta: float, beta: float, gamma: float, init_err: float,
                   atn_norm: float, iters: int) -> Theorem1Bound:
    """Evaluate the stable linear recovery bound for iterations 0..iters."""
    for name, v in (("delta", delta), ("beta", beta), ("gamma", gamma),
                    ("init_err", init_err), ("atn_norm", atn_norm)):
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {v}")
    rate = delta * beta
    if rate >= 1.0:
        return Theorem1Bound(bounds=None)
    powers = rate ** np.arange(iters + 1)
    partial_sums = np.concatenate([[0.0], np.cumsum(powers[:-1])])
    bounds = powers * init_err + gamma * partial_sums * atn_norm
    return Theorem1Bound(bounds=bounds)


def theorem3_bound(big_psi: float, big_phi: float) -> float | None:
    """Bound on the projection-deviation ratio from the orthogonality sups:
    Psi / sqrt(1 - Psi^2 - Phi^2) + Phi, or None if Psi^2 + Phi^2 >= 1."""
    if big_psi < 0 or big_phi < 0:
        raise ValueError("sups must be >= 0")
    hyp = big_psi**2 + big_phi**2
    if hyp >= 1.0:
        return None
    return big_psi / math.sqrt(1.0 - hyp) + big_phi
