import itertools

import numpy as np
import pytest

from gpgd.models import (
    ExactProjector,
    KSparse,
    ModelSetError,
    PerturbedProjector,
    UnionOfLines,
    hard_threshold,
    on_model_set,
    project,
    project_union,
    random_lines,
    sample_member,
)


def brute_force_ksparse(z, k):
    """Argmin over all size-k supports of ||x - z|| (independent oracle)."""
    n = z.size
    best = None
    best_dist = np.inf
    for support in itertools.combinations(range(n), k):
        x = np.zeros(n)
        x[list(support)] = z[list(support)]
        d = np.linalg.norm(z - x)
        if d < best_dist - 1e-15:
            best_dist = d
            best = x
    return best


def test_hard_threshold_dominant_entry():
    assert np.array_equal(hard_threshold([3.0, 1.0, 0.0], 1), [3.0, 0.0, 0.0])


def test_hard_threshold_fixed_point():
    z = np.array([0.0, 2.0, 0.0, -1.0])
    assert np.array_equal(hard_threshold(z, 2), z)


def test_hard_threshold_derived_case():
    assert np.array_equal(hard_threshold([1.0, -1.0, 0.5], 2), [1.0, -1.0, 0.0])


def test_hard_threshold_tie_lowest_index():
    out = hard_threshold([2.0, -2.0, 2.0], 2)
    assert np.array_equal(out, [2.0, -2.0, 0.0])


def test_hard_threshold_k_range():
    with pytest.raises(ModelSetError):
        hard_threshold([1.0, 2.0], 0)
    with pytest.raises(ModelSetError):
        hard_threshold([1.0, 2.0], 3)


def test_hard_threshold_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(500):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n))
        z = rng.standard_normal(n)
        ours = hard_threshold(z, k)
        oracle = brute_force_ksparse(z, k)
        assert np.linalg.norm(z - ours) <= np.linalg.norm(z - oracle) + 1e-12


def test_project_union_lines_examples():
    lines = UnionOfLines([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(project_union([2.0, 1.0], lines), [2.0, 0.0])
    on_line = np.array([0.0, -3.5])
    assert np.allclose(project_union(on_line, lines), on_line, atol=1e-15)


def test_project_union_diagonal_line_derived():
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    lines = UnionOfLines([[1.0, 0.0], diag])
    z = np.array([1.0, 0.9])
    got = project_union(z, lines)
    # oracle: compare residual norms of both candidate projections directly
    cand = [np.dot(z, [1.0, 0.0]) * np.array([1.0, 0.0]), np.dot(z, diag) * diag]
    dists = [np.linalg.norm(z - c) for c in cand]
    assert dists[1] < dists[0]
    assert np.allclose(got, cand[1], atol=1e-14)


def test_project_union_rejects_ksparse():
    with pytest.raises(ModelSetError):
        project_union([1.0, 2.0], KSparse(1, 2))


def test_is_member():
    model = KSparse(1, 3)
    z = np.array([0.0, 2.0, 0.0])
    assert on_model_set(z, project(model, z))
    z = np.array([1.0, 1.0, 0.0])
    assert not on_model_set(z, project(model, z))
    lines = random_lines(4, 6, seed=0)
    z = np.zeros(6)
    assert on_model_set(z, project(lines, z))  # 0 is in every homogeneous set
    # a stack gets one answer per row, that of its one-vector call
    Z = np.vstack([z, 2.0 * lines.directions[1], np.ones(6)])
    inside = on_model_set(Z, project(lines, Z))
    assert inside.tolist() == [True, True, False]
    assert inside.tolist() == [on_model_set(r, project(lines, r)) for r in Z]


def test_model_validation():
    with pytest.raises(ModelSetError):
        KSparse(0, 4)
    with pytest.raises(ModelSetError):
        KSparse(4, 4)
    with pytest.raises(ModelSetError):
        UnionOfLines([[1.0, 1.0]])  # not unit norm


def test_perturbed_degenerate_matches_exact():
    lines = random_lines(5, 8, seed=3)
    proj = PerturbedProjector(lines, t=0.0)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        z = rng.standard_normal(8)
        assert np.allclose(proj(z), project_union(z, lines), atol=1e-12)


def test_perturbed_tangential_scaling():
    lines = UnionOfLines([[1.0, 0.0], [0.0, 1.0]])
    proj = PerturbedProjector(lines, t=0.1)
    assert np.allclose(proj([2.0, 1.0]), [2.2, 0.0], atol=1e-14)


def test_perturbed_returns_exact_on_model_points():
    lines = random_lines(3, 5, seed=9)
    proj = PerturbedProjector(lines, t=0.2)
    x = 1.7 * lines.directions[1]
    assert np.allclose(proj(x), x, atol=1e-12)


def test_perturbed_sup_matches_analytic_ratio():
    # measured sup of ||P(z)-Pperp(z)|| / ||z-Pperp(z)|| over samples vs the
    # analytic t * ||Pperp(z)|| / ||z-Pperp(z)|| maximized over the same set
    lines = random_lines(5, 8, seed=21)
    t = 0.1
    proj = PerturbedProjector(lines, t=t)
    rng = np.random.default_rng(5)
    measured = 0.0
    analytic = 0.0
    for _ in range(10_000):
        z = rng.standard_normal(8)
        pperp = project_union(z, lines)
        dist = np.linalg.norm(z - pperp)
        if dist < 1e-9:
            continue
        measured = max(measured, np.linalg.norm(proj(z) - pperp) / dist)
        analytic = max(analytic, t * np.linalg.norm(pperp) / dist)
    assert measured == pytest.approx(analytic, rel=1e-12)


def test_perturbed_rejects_non_line_models():
    with pytest.raises(ModelSetError):
        PerturbedProjector(KSparse(1, 4), t=0.1)


@pytest.mark.parametrize("t", [0.0, 0.1])
def test_idempotence(t):
    lines = random_lines(6, 10, seed=31)
    proj = (
        ExactProjector(lines)
        if t == 0.0
        else PerturbedProjector(lines, t=t)
    )
    rng = np.random.default_rng(6)
    for _ in range(1000):
        z = rng.standard_normal(10)
        p = proj(z)
        assert np.linalg.norm(proj(p) - p) <= 1e-10 * (1.0 + np.linalg.norm(p))


def test_homogeneity_union_of_lines():
    lines = random_lines(4, 7, seed=8)
    rng = np.random.default_rng(9)
    for _ in range(200):
        z = rng.standard_normal(7)
        c = float(rng.uniform(0.1, 5.0))
        assert np.linalg.norm(
            project_union(c * z, lines) - c * project_union(z, lines)
        ) <= 1e-10 * (1.0 + c * np.linalg.norm(z))


_SAMPLED_MODELS = [
    KSparse(2, 9),
    random_lines(3, 9, seed=12),
]


def test_sample_member_lands_in_set():
    rng = np.random.default_rng(11)
    for model in _SAMPLED_MODELS:
        X = sample_member(model, rng, 100)
        assert X.shape == (100, 9)
        for x in X:
            resid = np.linalg.norm(x - project(model, x))
            assert resid <= 1e-10 * (1.0 + np.linalg.norm(x))


def test_ksparse_block_supports_are_uniform():
    # every row has exactly k nonzero entries, and each index is in a
    # row's support with frequency k/n, within 5 sigma over 20k rows
    model, draws = KSparse(3, 10), 20_000
    X = sample_member(model, np.random.default_rng(15), draws)
    nonzero = X != 0.0
    assert np.all(nonzero.sum(axis=1) == model.k)
    p = model.k / model.n
    freq = nonzero.mean(axis=0)
    assert np.all(np.abs(freq - p) <= 5.0 * np.sqrt(p * (1.0 - p) / draws))


# --- stacks of vectors, one per row --------------------------------------------


def test_hard_threshold_stack_breaks_ties_by_lowest_index_in_every_row():
    Z = np.array([
        [2.0, -2.0, 2.0, 1.0],
        [1.0, 1.0, 1.0, 1.0],    # all equal: keep the first k
        [-3.0, -3.0, -3.0, -3.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.5, -4.0, 4.0, 0.5],
        [1.0, -1.0, 1.0, -1.0],
    ])
    for k in (1, 2, 3, 4):
        out = hard_threshold(Z, k)
        assert out.shape == Z.shape
        assert np.array_equal(out, np.stack([hard_threshold(z, k) for z in Z]))
    out = hard_threshold(Z, 2)
    assert np.array_equal(out[1], [1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(out[2], [-3.0, -3.0, 0.0, 0.0])
    assert np.array_equal(out[4], [0.0, -4.0, 4.0, 0.0])
    assert np.array_equal(out[5], [1.0, -1.0, 0.0, 0.0])


def test_hard_threshold_stack_matches_rows_random():
    # few distinct magnitudes in wide rows make ties common; the oracle
    # keeps the k largest magnitudes, lowest index first among equals
    rng = np.random.default_rng(60)
    for n in (9, 64):
        Z = rng.integers(-3, 4, size=(30, n)).astype(float)
        for k in (1, 3, n - 1):
            out = hard_threshold(Z, k)
            assert np.array_equal(out, np.stack([hard_threshold(z, k) for z in Z]))
            for z, row in zip(Z, out):
                keep = sorted(range(n), key=lambda j: (-abs(z[j]), j))[:k]
                expected = np.zeros(n)
                expected[keep] = z[keep]
                assert np.array_equal(row, expected)


@pytest.mark.parametrize("model", [
    random_lines(6, 10, seed=61),
    UnionOfLines([[1.0, 0.0], [0.0, 1.0]]),
    KSparse(3, 10),
    KSparse(1, 7),
])
def test_exact_projector_stack_matches_rows(model):
    rng = np.random.default_rng(63)
    Z = rng.standard_normal((12, model.n))
    proj = ExactProjector(model)
    out = proj(Z)
    rows = np.stack([proj(z) for z in Z])
    assert out.shape == Z.shape
    assert np.array_equal(out, rows)


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_perturbed_projector_stack_matches_calls(t):
    # every row of a stack gets the bits of its one-vector call, rows on
    # the set their exact projection, and the projector keeps no state
    lines = random_lines(4, 6, seed=64)
    rng = np.random.default_rng(65)
    Z = rng.standard_normal((40, 6))
    on_set = [3, 4, 17, 39]
    Z[on_set] = rng.uniform(0.5, 2.0, (4, 1)) * lines.directions[[0, 1, 2, 3]]
    proj = PerturbedProjector(lines, t=t)
    out = proj(Z)
    assert out.shape == Z.shape
    assert np.array_equal(out, np.stack([proj(z) for z in Z]))
    assert np.array_equal(proj(Z), out)  # a second call, the same bits
    assert np.array_equal(out[on_set], project(lines, Z[on_set]))
    if t == 0.0:  # (1 + 0) * c is c: the exact projection, bit for bit
        assert np.array_equal(out, project(lines, Z))
    else:
        assert np.any(out != project(lines, Z))
