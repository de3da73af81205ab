import itertools
import math
import warnings

import numpy as np
import pytest

from gpgd.models import (
    MEMBER_TOL,
    ExactProjector,
    KSparse,
    PerturbedProjector,
    UnionOfLines,
    hard_threshold,
    on_model_set,
    project,
    random_lines,
    sample_member,
)
from gpgd.operators import DenseOperator
from gpgd.theory import (
    SAMPLE_BLOCK,
    orthogonality_report,
    phi_rows,
    psi_rows,
    radial_sampler,
    restricted_lipschitz_sampled,
    ric_exact_ksparse,
    ric_sampled,
    theorem1_bound,
    theorem3_bound,
)

GOLDEN = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)  # ~1.618, sparse projection bound


def power_iteration_sigma_max(mats, iters=20_000, tol=1e-12):
    """Independent spectral-norm oracle: the plain power method on M^T M for
    a stack of matrices (b, m, k) at once. Every matrix starts from the same
    vector and stops at its own tolerance; returns the b spectral norms."""
    mats = np.asarray(mats, dtype=np.float64)
    grams = np.einsum("bij,bik->bjk", mats, mats)
    rng = np.random.default_rng(1234)
    v0 = rng.standard_normal(mats.shape[2])
    v = np.tile(v0 / np.linalg.norm(v0), (mats.shape[0], 1))
    lam = np.zeros(mats.shape[0])
    idx = np.arange(mats.shape[0])  # matrices still iterating
    prev = lam.copy()
    for _ in range(iters):
        w = np.einsum("bjk,bk->bj", grams, v)
        new_lam = np.einsum("bj,bj->b", v, w)
        norm = np.linalg.norm(w, axis=1)
        zero = norm == 0.0
        lam[idx] = np.where(zero, 0.0, new_lam)
        keep = ~zero & (np.abs(new_lam - prev) > tol * np.maximum(new_lam, 1e-300))
        idx, grams, prev = idx[keep], grams[keep], new_lam[keep]
        v = w[keep] / norm[keep, None]
        if not idx.size:
            break
    return np.sqrt(np.maximum(lam, 0.0))


class SecondLineProjector:
    """Projection onto each point's second-best line of a union of lines,
    with its coefficient scaled by (1 + t): a deviation normal to the exact
    projection, so phi is non-zero. Stateless; every row of a stack gets
    the bits of its one-vector call."""

    def __init__(self, lines, t):
        self.lines, self.t = lines, t

    def __call__(self, z):
        Z = np.asarray(z, dtype=np.float64)
        rows = Z.reshape(-1, Z.shape[-1])
        dirs = self.lines.directions
        coeffs = np.matmul(dirs, rows[:, :, None])[..., 0]  # row by row
        second = np.argsort(-np.abs(coeffs), axis=1, kind="stable")[:, 1]
        c = coeffs[np.arange(len(rows)), second][:, None]
        return ((1.0 + self.t) * c * dirs[second]).reshape(Z.shape)


# --- psi / phi ------------------------------------------------------------
#
# One point is the (1, n) stack; the degenerate or undefined mask marks a
# value that does not exist.


def _psi_one(p, z):
    vals, degenerate = psi_rows(np.atleast_2d(p), np.atleast_2d(z))
    return float(vals[0]), bool(degenerate[0])


def _phi_one(model, p, z):
    Z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    vals, undefined = phi_rows(project(model, Z), np.atleast_2d(p), Z)
    return float(vals[0]), bool(undefined[0])


def test_psi_orthogonal_projection_is_zero():
    line = UnionOfLines([[1.0, 0.0]])
    val, degenerate = _psi_one(project(line, [1.0, 1.0]), [1.0, 1.0])
    assert not degenerate and val == pytest.approx(0.0, abs=1e-15)


def test_psi_tangentially_shifted_value():
    val, degenerate = _psi_one([1.5, 0.0], [1.0, 1.0])
    assert not degenerate and val == pytest.approx(0.4472135955, abs=1e-9)


def test_psi_degenerate_returns_none():
    line = UnionOfLines([[1.0, 0.0]])
    assert _psi_one(project(line, [2.0, 0.0]), [2.0, 0.0]) == (0.0, True)  # z in the set
    assert _psi_one(np.zeros(2), [1.0, 1.0]) == (0.0, True)  # P(z) = 0


def test_phi_exact_projector_is_zero():
    lines = random_lines(4, 5, seed=2)
    Z = np.random.default_rng(3).standard_normal((50, 5))
    # the exact projection again, by a loop over the lines
    P = np.array([max((np.dot(z, d) * d for d in lines.directions), key=np.linalg.norm)
                  for z in Z])
    vals, undefined = phi_rows(project(lines, Z), P, Z)
    assert not undefined.any()
    assert vals == pytest.approx(np.zeros(50), abs=1e-7)


def test_phi_forced_wrong_line_value():
    lines = UnionOfLines([[1.0, 0.0], [0.0, 1.0]])
    val, undefined = _phi_one(lines, [0.0, 1.0], [2.0, 1.0])  # P projects onto e2
    assert not undefined and val == pytest.approx(math.sqrt(10.0), abs=1e-12)


def test_phi_on_model_set_is_none():
    lines = UnionOfLines([[1.0, 0.0], [0.0, 1.0]])
    assert _phi_one(lines, [3.0, 0.0], [3.0, 0.0]) == (0.0, True)


def test_phi_perturbed_colinear_is_zero():
    lines = random_lines(5, 6, seed=4)
    Z = np.random.default_rng(6).standard_normal((100, 6))
    vals, undefined = phi_rows(project(lines, Z), PerturbedProjector(lines, t=0.3)(Z), Z)
    assert not undefined.any()
    assert vals == pytest.approx(np.zeros(100), abs=1e-7)


def test_psi_in_unit_interval():
    # Cauchy-Schwarz: psi is a cosine magnitude
    Z = np.random.default_rng(7).standard_normal((500, 6))
    proj = SecondLineProjector(random_lines(3, 6, seed=8), t=0.4)
    vals, degenerate = psi_rows(proj(Z), Z)
    assert not degenerate.any()
    assert np.all((0.0 <= vals) & (vals <= 1.0)) and vals.max() > 0.0


# --- RIC -------------------------------------------------------------------


def test_ric_exact_identity():
    est = ric_exact_ksparse(DenseOperator(np.eye(6)), 1.0, 2)
    assert est.value == pytest.approx(0.0, abs=1e-12)
    est_half = ric_exact_ksparse(DenseOperator(np.eye(6)), 0.5, 2)
    assert est_half.value == pytest.approx(0.5, abs=1e-12)


def test_ric_exact_matches_power_iteration_oracle():
    # independent oracle: enumerate supports, sigma_max of the full column
    # submatrix of I - gamma A^T A by power iteration
    rng = np.random.default_rng(10)
    A = rng.standard_normal((16, 32))
    gamma = 1.0 / np.linalg.norm(A, 2) ** 2
    est = ric_exact_ksparse(A, gamma, 2)
    M = np.eye(32) - gamma * (A.T @ A)
    supports = np.array(list(itertools.combinations(range(32), 4)))
    oracle = float(power_iteration_sigma_max(M[:, supports].transpose(1, 0, 2)).max())
    assert est.value == pytest.approx(oracle, abs=1e-8)


def test_ric_exact_combinatorial_guard():
    with pytest.raises(ValueError):
        ric_exact_ksparse(np.eye(64), 1.0, 8)


def test_support_table_built_once_and_read_only():
    from gpgd import theory

    A, gamma = _gaussian_operator(3, m=6, n=9)
    first = theory.ric_exact_ksparse(A, gamma, 2)
    table = theory._support_table(9, 4)
    assert theory._support_table(9, 4) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert np.array_equal(table, np.array(list(itertools.combinations(range(9), 4))))
    hits = theory._support_table.cache_info().hits
    second = theory.ric_exact_ksparse(A, gamma, 2)
    assert theory._support_table.cache_info().hits == hits + 1
    assert second == first
    assert first.value == _ric_full_enumeration(A, gamma, 2)


def _ric_full_enumeration(A, gamma, k):
    """Reference: top eigenvalue of (M^2)[S, S] for every support S, by
    eigvalsh, no pruning; returns the RIC the way the library does."""
    n = A.shape[1]
    M = np.eye(n) - gamma * (A.T @ A)
    gram = M @ M
    supports = np.array(list(itertools.combinations(range(n), min(2 * k, n))))
    eigs = np.linalg.eigvalsh(gram[supports[:, :, None], supports[:, None, :]])
    return math.sqrt(max(0.0, float(eigs[:, -1].max())))


def _gaussian_operator(seed, m=16, n=32):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    return A, 1.0 / np.linalg.norm(A, 2) ** 2


def _conditioned_operator(seed, n=32):
    """Square operator with spectrum in [0.85, 1.15] (the verify-theorems
    recipe)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = q @ np.diag(rng.uniform(0.85, 1.15, n)) @ q.T
    return A, 1.0 / np.linalg.norm(A, 2) ** 2


def _circulant_laplacian(n=16):
    """Symmetric circulant: invariant under cyclic shifts and reflection,
    so many Gram blocks tie up to rounding."""
    first = np.zeros(n)
    first[[0, 1, -1]] = 2.0, -1.0, -1.0
    A = np.stack([np.roll(first, i) for i in range(n)])
    return A, 1.0 / np.linalg.norm(A, 2) ** 2


def _rank_one_projector(n=16):
    """A whose rows are an orthonormal basis of the complement of the
    constant vector, at gamma 1: M^2 is the rank-one projector onto that
    vector, so every Gram block has the same top eigenvalue, equal to its
    Frobenius norm, up to rounding."""
    u = np.ones(n) / math.sqrt(n)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(np.column_stack([u, rng.standard_normal((n, n - 1))]))
    return q[:, 1:].T, 1.0


RIC_CASES = {  # name: (A, gamma, k)
    **{f"gaussian-{seed}": (*_gaussian_operator(seed), 2) for seed in (0, 7, 21)},
    **{f"conditioned-{seed}": (*_conditioned_operator(seed), 2) for seed in (3, 8)},
    "identity-gamma1": (np.eye(16), 1.0, 2),
    "identity-gamma0.5": (np.eye(16), 0.5, 2),
    "circulant": (*_circulant_laplacian(), 2),
    "all-ones": (np.ones((6, 12)), 1.0 / 72.0, 2),
    "rank-one": (*_rank_one_projector(), 2),
    "one-support": (*_gaussian_operator(4, m=3, n=5), 3),  # min(2k, n) == n
    "wide-index": (*_gaussian_operator(5, m=8, n=257), 1),  # indices past uint8
}


@pytest.mark.parametrize("case", sorted(RIC_CASES))
def test_ric_exact_equals_full_enumeration(case):
    A, gamma, k = RIC_CASES[case]
    est = ric_exact_ksparse(A, gamma, k)
    assert est.value == _ric_full_enumeration(A, gamma, k)
    n = A.shape[1]
    assert est.samples == math.comb(n, min(2 * k, n))
    assert 1 <= est.evaluated <= est.samples


def test_ric_exact_prunes_gaussian_blocks():
    est = ric_exact_ksparse(*RIC_CASES["gaussian-0"])
    assert est.evaluated < est.samples


@pytest.mark.parametrize("case", ["identity-gamma0.5", "rank-one"])
def test_ric_exact_evaluates_tied_blocks(case):
    # every block's bound equals the common top eigenvalue up to rounding,
    # so the pruning margin must keep all of them
    est = ric_exact_ksparse(*RIC_CASES[case])
    assert est.evaluated == est.samples


@pytest.mark.parametrize("case", sorted(RIC_CASES))
def test_ric_bounds_dominate_top_eigenvalues(case):
    # pruning is sound: every block's bound, widened by the pruning margin,
    # reaches the top eigvalsh eigenvalue of that block (gathered here by a
    # fancy index, independently of the library's flat take)
    from gpgd import theory

    A, gamma, k = RIC_CASES[case]
    n = A.shape[1]
    M = np.eye(n) - gamma * (A.T @ A)
    gram = M @ M
    supports = theory._support_table(n, min(2 * k, n))
    bounds = theory._ric_bounds(gram, supports)
    sup = supports.astype(np.intp)
    top = np.linalg.eigvalsh(gram[sup[:, :, None], sup[:, None, :]])[:, -1]
    assert bounds.shape == top.shape
    assert np.all(bounds * (1.0 + theory._RIC_PRUNE_MARGIN) >= top)


@pytest.mark.parametrize("case", sorted(RIC_CASES))
def test_ric_exact_beta_decides_exclusion_like_full_enumeration(case):
    # with beta, the value decides delta * beta >= 1 exactly as the full
    # enumeration's does; an excluded instance's value is a lower bound, a
    # qualifying one's is the full value with the same blocks decomposed
    A, gamma, k = RIC_CASES[case]
    full = ric_exact_ksparse(A, gamma, k)
    near = (0.5, 0.999, 1.001, 2.0) if full.value > 0.0 else ()
    for beta in [GOLDEN, *(c / full.value for c in near)]:
        est = ric_exact_ksparse(A, gamma, k, beta=beta)
        assert (est.value * beta >= 1.0) == (full.value * beta >= 1.0)
        if full.value * beta >= 1.0:
            assert est.value <= full.value
            assert est.evaluated <= full.evaluated
        else:
            assert (est.value, est.evaluated) == (full.value, full.evaluated)


@pytest.mark.parametrize("k", [0, -1])
def test_ric_exact_rejects_nonpositive_k(k):
    with pytest.raises(ValueError, match=r"k must be >= 1"):
        ric_exact_ksparse(np.eye(6), 1.0, k)


@pytest.mark.parametrize("A, gamma", [
    (np.eye(6), np.nan),
    (np.eye(6), np.inf),
    (np.eye(6), -np.inf),
    (np.diag([1.0, 1.0, np.nan, 1.0, 1.0, 1.0]), 1.0),
], ids=["gamma-nan", "gamma-inf", "gamma-minus-inf", "nan-entry"])
def test_ric_exact_rejects_non_finite_input(A, gamma):
    # refused before any arithmetic: no RuntimeWarning, no LinAlgError, and
    # no sampled value that skipped the NaN ratios
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"finite"):
            ric_exact_ksparse(A, gamma, 2)
        with pytest.raises(ValueError, match=r"finite"):
            ric_sampled(A, gamma, KSparse(2, 6), 100, seed=0)


def test_ric_sampled_identity_zero():
    est = ric_sampled(DenseOperator(np.eye(8)), 1.0, KSparse(2, 8), 200, seed=0)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_ric_sampled_below_exact():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((8, 16))
    gamma = 1.0 / np.linalg.norm(A, 2) ** 2
    exact = ric_exact_ksparse(A, gamma, 2)
    sampled = ric_sampled(A, gamma, KSparse(2, 16), 2000, seed=1)
    assert sampled.value <= exact.value + 1e-12


@pytest.mark.parametrize("nsamples", [0, -5])
@pytest.mark.parametrize("estimate", [
    lambda n: ric_sampled(np.eye(4), 0.5, KSparse(1, 4), n, seed=0),
    lambda n: restricted_lipschitz_sampled(ExactProjector(KSparse(1, 4)),
                                           KSparse(1, 4), n, seed=0),
    lambda n: orthogonality_report(random_lines(2, 4, seed=0),
                                   ExactProjector(random_lines(2, 4, seed=0)), n,
                                   seed=0),
], ids=["ric", "lipschitz", "report"])
def test_sampled_estimators_reject_empty_sampling(estimate, nsamples):
    # an empty sample would report a vacuous zero
    with pytest.raises(ValueError, match="nsamples must be >= 1"):
        estimate(nsamples)


class _ZerosFirst:
    """Generator stand-in whose first standard_normal block has zero rows 1
    and 3, and whose first uniform block has zero radii 0 and 3; every call
    after that comes from a real generator. Records every call."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def standard_normal(self, shape):
        out = self._rng.standard_normal(shape)
        if not self.calls:
            out[[1, 3]] = 0.0
        self.calls.append(("standard_normal", shape))
        return out

    def uniform(self, low, high, size):
        out = self._rng.uniform(low, high, size)
        if self.calls[-1][0] != "uniform":
            out[[0, 3]] = 0.0
        self.calls.append(("uniform", size))
        return out


def test_radial_sampler_redraws_zero_rows():
    # one direction block and one radius block; zero directions, then zero
    # radii, are redrawn for their rows only, and a row is its direction
    # scaled to its radius
    fake = _ZerosFirst(0)
    Z = radial_sampler(fake, 5, 3)
    assert fake.calls == [("standard_normal", (5, 3)), ("standard_normal", (2, 3)),
                          ("uniform", 5), ("uniform", 2)]
    rng = np.random.default_rng(0)
    g = rng.standard_normal((5, 3))
    g[[1, 3]] = rng.standard_normal((2, 3))
    r = rng.uniform(0.0, 2.0, 5)
    r[[0, 3]] = rng.uniform(0.0, 2.0, 2)
    g_norms = np.array([np.linalg.norm(row) for row in g])
    assert np.array_equal(Z, (r / g_norms)[:, None] * g)
    norms = np.linalg.norm(Z, axis=1)
    assert np.all((norms > 0.0) & (norms < 2.0))


# --- restricted Lipschitz ---------------------------------------------------


def test_lipschitz_identity_on_members_is_one():
    model = random_lines(4, 6, seed=13)
    member_sampler = lambda rng, count, n: sample_member(model, rng, count)
    est = restricted_lipschitz_sampled(
        lambda z: z, model, 500, seed=3, z_sampler=member_sampler
    )
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_lipschitz_hard_threshold_stays_below_golden():
    est = restricted_lipschitz_sampled(
        lambda z: hard_threshold(z, 1), KSparse(1, 2), 20_000, seed=4
    )
    assert est.value <= GOLDEN + 1e-9
    # approaches the bound in n=2 (near-optimal constant)
    assert est.value >= 1.3


def test_lipschitz_union_of_lines_below_two():
    model = random_lines(5, 8, seed=14)
    est = restricted_lipschitz_sampled(ExactProjector(model), model, 20_000, seed=5)
    assert est.value <= 2.0 + 1e-9


# --- orthogonality report ---------------------------------------------------


def test_report_exact_projector_all_zero():
    lines = random_lines(5, 8, seed=15)
    rep = orthogonality_report(lines, ExactProjector(lines), 2000, seed=8)
    assert rep.mean_psi <= 1e-9
    assert rep.max_phi <= 1e-9
    assert rep.lprime_hat <= 1e-9
    assert 0.0 <= rep.mean_psi <= rep.max_psi <= 1.0


def test_report_perturbed_tangential():
    lines = random_lines(5, 8, seed=15)
    proj = PerturbedProjector(lines, t=0.1)
    rep = orthogonality_report(lines, proj, 2000, seed=9)
    assert rep.max_phi == pytest.approx(0.0, abs=1e-7)
    assert rep.lprime_hat > 0.0


def _points_near_lines(lines, rel, rng):
    """One point per line at relative distance about rel from it: the
    line's point at a random scale plus an offset orthogonal to the line of
    size rel * (1 + scale). Returns the points and their exact relative
    distances ||z - Pperp(z)|| / (1 + ||z||)."""
    points = []
    for d in lines.directions:
        w = rng.standard_normal(d.size)
        w -= np.dot(w, d) * d
        w /= np.linalg.norm(w)
        scale = float(rng.uniform(0.5, 2.0))
        points.append(scale * d + rel * (1.0 + scale) * w)
    dists = [np.linalg.norm(z - project(lines, z)) / (1.0 + np.linalg.norm(z))
             for z in points]
    return points, np.array(dists)


def test_membership_tolerance_shared_by_report_and_projector():
    # points at relative distance 5e-10 count as members, at 2e-9 they do
    # not, for the orthogonality report's skip and the perturbed
    # projector's pass-through alike
    lines = random_lines(5, 8, seed=17)
    rng = np.random.default_rng(18)
    inside, d_in = _points_near_lines(lines, 5e-10, rng)
    outside, d_out = _points_near_lines(lines, 2e-9, rng)
    assert np.all(d_in < MEMBER_TOL) and np.all(d_out > MEMBER_TOL)

    stream = [p for pair in zip(inside, outside) for p in pair]
    feed = iter(stream)
    seen = []

    def feed_block(rng, count, n):
        return np.array([next(feed) for _ in range(count)])

    def recording_exact(z):
        seen.extend(np.reshape(z, (-1, lines.n)))  # one entry per row
        return project(lines, z)

    rep = orthogonality_report(lines, recording_exact, len(stream), seed=0,
                               z_sampler=feed_block)
    assert rep.degenerate == len(inside)
    assert len(seen) == len(outside)
    assert all(np.array_equal(a, b) for a, b in zip(seen, outside))

    proj = PerturbedProjector(lines, t=0.3)
    for z in inside:
        assert np.allclose(proj(z), project(lines, z), rtol=1e-14, atol=0.0)
    for z in outside:
        assert np.allclose(proj(z), 1.3 * project(lines, z), rtol=1e-14, atol=0.0)


def _sin2_reference(u, v):
    """Squared sine of the angle between u and v from the residual of v's
    unit vector against u's (the colinear-safe form)."""
    uh = u / math.sqrt(float(np.dot(u, u)))
    vh = v / math.sqrt(float(np.dot(v, v)))
    r = vh - float(np.dot(uh, vh)) * uh
    return float(np.dot(r, r))


def _report_stream(model, sampler, rng, nsamples):
    """The orthogonality report's draws, one block at a time: blocks of
    SAMPLE_BLOCK samples (fewer in the last), in sample order."""
    for start in range(0, nsamples, SAMPLE_BLOCK):
        yield sampler(rng, min(SAMPLE_BLOCK, nsamples - start), model.n)


def test_report_lprime_matches_recomputation():
    # replay the sample stream (same seed, same sampler, a fresh projector
    # with the same seed) and recompute psi, phi and the deviation ratio
    # sample by sample with scalar formulas. 1500 samples leave a partial
    # block; the second-line projector makes phi non-zero.
    lines = random_lines(5, 8, seed=15)
    nsamples, seed = 1500, 10
    for proj in (PerturbedProjector(lines, t=0.1), SecondLineProjector(lines, t=0.1)):
        rep = orthogonality_report(lines, proj, nsamples, seed=seed)
        rng = np.random.default_rng(seed)
        best = psi_sum = max_psi = max_phi = 0.0
        used = 0
        stream = _report_stream(lines, radial_sampler, rng, nsamples)
        for z in np.concatenate(list(stream)):
            pperp = project(lines, z)
            dist = np.linalg.norm(z - pperp)
            if dist <= 1e-9 * (1.0 + np.linalg.norm(z)):
                continue
            used += 1
            p = proj(z)
            best = max(best, float(np.linalg.norm(pperp - p) / dist))
            r = z - p
            na, nb = np.linalg.norm(p), np.linalg.norm(r)
            if na > 1e-9 and nb > 1e-9:
                psi_val = min(abs(float(np.dot(p, r))) / (na * nb), 1.0)
                psi_sum += psi_val
                max_psi = max(max_psi, psi_val)
            if np.linalg.norm(pperp) > 1e-9 and na > 1e-9:
                sin2_pp = _sin2_reference(pperp, p)
                sin2_pp = 0.0 if sin2_pp <= 1e-24 else sin2_pp
                denom = _sin2_reference(z, pperp)
                if denom > 1e-12:
                    max_phi = max(max_phi, math.sqrt(2.0 * math.sqrt(sin2_pp) / denom))
        assert rep.lprime_hat == pytest.approx(best, abs=1e-12)
        assert rep.mean_psi == pytest.approx(psi_sum / used, rel=1e-12)
        assert rep.max_psi == pytest.approx(max_psi, rel=1e-12)
        assert rep.max_phi == pytest.approx(max_phi, rel=1e-12, abs=1e-12)
        assert (max_phi > 0.1) == isinstance(proj, SecondLineProjector)


# --- blocked estimators against per-sample reference loops ------------------
#
# The estimators draw and evaluate their samples in blocks of SAMPLE_BLOCK
# rows. Each reference below draws the same blocks but evaluates one
# sample at a time; the blocked results must equal it bit for bit. 1300
# samples leave a partial last block.

NSAMPLES = 1300
assert NSAMPLES % SAMPLE_BLOCK and NSAMPLES > 2 * SAMPLE_BLOCK


def _block_pairs(nsamples, draw_first, draw_second):
    """The sampled estimators' stream: per block of SAMPLE_BLOCK samples
    (fewer in the last), draw_first(count) then draw_second(count) is
    drawn; yields their rows as (first, second) one sample at a time."""
    for start in range(0, nsamples, SAMPLE_BLOCK):
        count = min(SAMPLE_BLOCK, nsamples - start)
        yield from zip(draw_first(count), draw_second(count))


def _ric_reference(A, gamma, model, nsamples, seed):
    m_op = np.eye(A.shape[1]) - gamma * (A.T @ A)
    rng = np.random.default_rng(seed)
    best, skipped = 0.0, 0
    draw = lambda count: sample_member(model, rng, count)
    for x1, x2 in _block_pairs(nsamples, draw, draw):
        diff = x1 - x2
        norm = np.linalg.norm(diff)
        if norm > 1e-12:
            best = max(best, float(np.linalg.norm(m_op @ diff) / norm))
        else:
            skipped += 1
    return best, skipped


@pytest.mark.parametrize("model", [KSparse(2, 16), random_lines(5, 16, seed=70)])
@pytest.mark.parametrize("gamma", [0.02])
def test_ric_sampled_matches_per_sample_loop(model, gamma):
    A = np.random.default_rng(71).standard_normal((8, 16))
    est = ric_sampled(A, gamma, model, NSAMPLES, seed=72)
    value, skipped = _ric_reference(A, gamma, model, NSAMPLES, 72)
    assert est.value == value > 0.0
    assert est.degenerate == skipped == 0


def _lipschitz_reference(P, model, nsamples, seed, sampler):
    rng = np.random.default_rng(seed)
    best, skipped = 0.0, 0
    pairs = _block_pairs(nsamples, lambda count: sampler(rng, count, model.n),
                         lambda count: sample_member(model, rng, count))
    for z, x in pairs:
        dz = np.linalg.norm(z - x)
        if dz > 1e-12:
            ratio = float(np.linalg.norm(P(z) - x) / dz)
            if ratio > best:  # False for a NaN ratio
                best = ratio
        else:
            skipped += 1
    return best, skipped


def _radial_or_next_member(model):
    """Radial blocks, except that every third sample is the member the
    estimator draws next (the sampler peeks at the next member block and
    restores the generator state), so that sample has z == x and is
    skipped."""
    drawn = 0

    def sample(rng, count, n):
        nonlocal drawn
        Z = radial_sampler(rng, count, n)
        state = rng.bit_generator.state
        X = sample_member(model, rng, count)
        rng.bit_generator.state = state
        same = np.arange(drawn, drawn + count) % 3 == 0
        Z[same] = X[same]
        drawn += count
        return Z

    return sample


def _nan_above(threshold, P):
    """P, but NaN on every point whose first coordinate exceeds threshold."""
    return lambda Z: np.where(np.asarray(Z)[..., :1] > threshold, np.nan, P(Z))


_SPARSE = KSparse(2, 10)
_LINES = random_lines(5, 8, seed=73)
_LIPSCHITZ_CASES = {
    "hard-threshold": (lambda z: hard_threshold(z, 2), _SPARSE, None),
    "skipped": (lambda z: hard_threshold(z, 2), _SPARSE, _radial_or_next_member),
    "nan-some": (_nan_above(0.3, lambda z: hard_threshold(z, 2)), _SPARSE,
                 _radial_or_next_member),
    "nan-all": (lambda z: np.full(np.shape(z), np.nan), _SPARSE, None),
    "lines": (ExactProjector(_LINES), _LINES, None),
    # every ratio is exactly 1: the first sample sets the maximum and no
    # later sample moves it
    "ties": (lambda z: z, _LINES,
             lambda model: lambda rng, count, n: sample_member(model, rng, count)),
}


@pytest.mark.parametrize("case", sorted(_LIPSCHITZ_CASES))
def test_lipschitz_matches_per_sample_loop(case):
    P, model, make_sampler = _LIPSCHITZ_CASES[case]
    samplers = [make_sampler(model) if make_sampler else radial_sampler
                for _ in range(2)]
    est = restricted_lipschitz_sampled(P, model, NSAMPLES, seed=74,
                                       z_sampler=samplers[0])
    value, skipped = _lipschitz_reference(P, model, NSAMPLES, 74, samplers[1])
    assert est.value == value
    assert est.degenerate == skipped
    assert (skipped > 0) == (make_sampler is _radial_or_next_member)
    if case == "nan-all":  # no NaN ratio ever raises the maximum
        assert value == 0.0
    if case == "ties":
        assert value == 1.0


def _report_reference(model, P, nsamples, seed, sampler):
    """The report's draws, then per-sample membership tests and P calls;
    psi, phi and the deviation ratio evaluated on the used samples of each
    drawn block."""
    rng = np.random.default_rng(seed)
    blocks, skipped = [], 0
    for block in _report_stream(model, sampler, rng, nsamples):
        used = []
        for z in block:
            pperp = project(model, z)
            if np.linalg.norm(z - pperp) <= MEMBER_TOL * (1.0 + np.linalg.norm(z)):
                skipped += 1
            else:
                used.append((z, pperp, P(z)))
        if used:
            blocks.append(used)
    psi_sum = max_psi = max_phi = lprime = 0.0
    for used in blocks:
        z_b, pperp_b, p_b = map(np.array, zip(*used))
        psi_vals, _ = psi_rows(p_b, z_b)
        phi_vals, _ = phi_rows(pperp_b, p_b, z_b)
        num, den = pperp_b - p_b, z_b - pperp_b
        ratios = (np.sqrt(np.einsum("ij,ij->i", num, num))
                  / np.sqrt(np.einsum("ij,ij->i", den, den)))
        psi_sum += psi_vals.sum()
        max_psi = max(max_psi, psi_vals.max())
        max_phi = max(max_phi, phi_vals.max())
        lprime = max(lprime, ratios.max())
    return psi_sum / (nsamples - skipped), max_psi, max_phi, lprime, skipped


def _radial_or_on_a_line(lines, all_on_line_block=None):
    """Radial blocks, except that every fifth sample is a point on a line,
    which the report skips; so is every sample of the draw numbered
    all_on_line_block (counting from 0), if given."""
    drawn = draws = 0

    def sample(rng, count, n):
        nonlocal drawn, draws
        Z = radial_sampler(rng, count, n)
        i = np.arange(drawn, drawn + count)
        on_line = (i % 5 == 0) | (draws == all_on_line_block)
        draws += 1
        Z[on_line] = 1.5 * lines.directions[i[on_line] % len(lines.directions)]
        drawn += count
        return Z

    return sample


@pytest.mark.parametrize("t", [0.0, 0.3])
def test_report_matches_per_sample_loop(t):
    for proj in (PerturbedProjector(_LINES, t=t), SecondLineProjector(_LINES, t=t)):
        est = orthogonality_report(_LINES, proj, NSAMPLES, seed=76,
                                   z_sampler=_radial_or_on_a_line(_LINES))
        mean_psi, max_psi, max_phi, lprime, skipped = _report_reference(
            _LINES, proj, NSAMPLES, 76, _radial_or_on_a_line(_LINES))
        assert skipped == NSAMPLES // 5 == est.degenerate
        assert (est.mean_psi, est.max_psi, est.max_phi, est.lprime_hat) == (
            mean_psi, max_psi, max_phi, lprime)
        assert (max_phi > 0.0) == isinstance(proj, SecondLineProjector)


def test_report_calls_P_once_per_block_on_its_off_set_rows():
    # the second block lies entirely on the lines: P is called for the
    # first and third blocks only, each time on that block's off-set rows
    drawn, calls = [], []
    sampler = _radial_or_on_a_line(_LINES, all_on_line_block=1)
    proj = SecondLineProjector(_LINES, t=0.1)

    def recording_sampler(rng, count, n):
        drawn.append(sampler(rng, count, n))
        return drawn[-1].copy()

    def recording_P(Z):
        calls.append((np.array(Z), proj(Z)))
        return calls[-1][1]

    est = orthogonality_report(_LINES, recording_P, NSAMPLES, seed=78,
                               z_sampler=recording_sampler)
    assert [len(block) for block in drawn] == [
        SAMPLE_BLOCK, SAMPLE_BLOCK, NSAMPLES - 2 * SAMPLE_BLOCK]
    on_set = [on_model_set(block, project(_LINES, block)) for block in drawn]
    assert on_set[1].all() and not on_set[0].all() and not on_set[2].all()
    assert len(calls) == 2
    for (Z, _), block, on in zip(calls, (drawn[0], drawn[2]), (on_set[0], on_set[2])):
        assert np.array_equal(Z, block[~on])
    assert est.degenerate == sum(int(on.sum()) for on in on_set)
    used = sum(len(Z) for Z, _ in calls)
    assert used == NSAMPLES - est.degenerate
    psi_sum = 0.0
    for Z, p in calls:
        psi_sum += psi_rows(p, Z)[0].sum()
    assert est.mean_psi == psi_sum / used > 0.0


# --- theorem bounds ----------------------------------------------------------


def test_theorem1_geometric_decay():
    b = theorem1_bound(0.5, 1.0, 1.0, init_err=1.0, atn_norm=0.0, iters=4)
    assert b.bounds is not None
    assert np.allclose(b.bounds, [1.0, 0.5, 0.25, 0.125, 0.0625])


def test_theorem1_zero_rate():
    b = theorem1_bound(0.0, 0.5, 2.0, init_err=1.0, atn_norm=0.3, iters=3)
    assert np.allclose(b.bounds, [1.0, 0.6, 0.6, 0.6])


def test_theorem1_no_guarantee():
    b = theorem1_bound(0.9, 1.2, 1.0, 1.0, 0.0, 10)
    assert b.bounds is None


def test_theorem1_rejects_negative():
    with pytest.raises(ValueError):
        theorem1_bound(-0.1, 1.0, 1.0, 1.0, 0.0, 5)


def test_theorem3_examples():
    assert theorem3_bound(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert theorem3_bound(0.2, 0.0) == pytest.approx(0.2041241452, abs=1e-9)
    assert theorem3_bound(0.6, 0.8) is None  # hypothesis not satisfied


def test_triangle_chain_per_sample():
    # instrumentation of the deviation-to-Lipschitz argument: the additive
    # chain holds sample by sample, up to float rounding
    lines = random_lines(5, 8, seed=18)
    proj = PerturbedProjector(lines, t=0.3)
    rng = np.random.default_rng(20)
    for z, x in _block_pairs(2000, lambda count: radial_sampler(rng, count, 8),
                             lambda count: sample_member(lines, rng, count)):
        p = proj(z)
        pperp = project(lines, z)
        lhs = np.linalg.norm(p - x)
        rhs = np.linalg.norm(p - pperp) + np.linalg.norm(pperp - x)
        assert lhs <= rhs + 1e-12 * (1.0 + rhs)


@pytest.mark.parametrize("t", [0.0, 0.05, 0.1, 0.2, 0.35, 0.5])
def test_lprime_bound_holds_with_inflated_sups(t):
    lines = random_lines(5, 8, seed=21)
    proj = PerturbedProjector(lines, t=t)
    rep = orthogonality_report(lines, proj, 5000, seed=12)
    bound = theorem3_bound(min(1.1 * rep.max_psi, 0.999999), 1.1 * rep.max_phi)
    assert bound is not None
    assert rep.lprime_hat <= bound + 1e-12
