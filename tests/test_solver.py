import math
import warnings

import numpy as np
import pytest

from gpgd.models import ExactProjector, KSparse, sample_member
from gpgd.operators import (
    Blur,
    DenseOperator,
    PixelMask,
    gaussian_blur_kernel,
    make_inpainting_operator,
    make_superres_operator,
)
from gpgd.solver import (
    GpgdConfig,
    GpgdTrace,
    SolverDivergence,
    best_iterate,
    convergence_iteration,
    default_step_size,
    gpgd_run,
    trace_to_csv,
)
from gpgd.signals import psnr
from gpgd.theory import ric_exact_ksparse, theorem1_bound

GOLDEN = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)


def conditioned_square(n=32, seed=0, lo=0.85, hi=1.15):
    """Well-conditioned symmetric instance: spectrum in [lo, hi] gives a
    small restricted isometry constant, so delta * beta < 1 holds (a flat
    Gaussian rectangle at half aspect never reaches that regime)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return DenseOperator(q @ np.diag(rng.uniform(lo, hi, n)) @ q.T), rng


@pytest.mark.parametrize("kwargs", [{"gamma": np.nan}, {"gamma": -0.1},
                                    {"gamma": 1.0, "max_iters": 0}])
def test_config_refuses_bad_values(kwargs):
    with pytest.raises(ValueError):
        GpgdConfig(**kwargs)


def test_gamma_zero_is_pure_projection():
    # identity A: the start A^T y is y itself
    A = DenseOperator(np.eye(4))
    y = np.array([2.0, 1.0, 0.0, 0.0])
    proj = ExactProjector(KSparse(1, 4))
    cfg = GpgdConfig(gamma=0.0, max_iters=5)
    _, trace = gpgd_run(A, y, proj, cfg)
    # x_i = P(x_{i-1}); exact idempotent P makes it constant from i = 1
    expected = proj(y)
    (its,) = trace.iterates
    assert len(its) == cfg.max_iters + 1
    for xi in its[1:]:
        assert np.array_equal(xi, expected)


def test_sparse_recovery_with_conditioned_instance():
    # noiseless recovery decays below 1e-9 within the iteration budget and
    # every iterate is dominated by the certified bound sequence
    A, rng = conditioned_square(seed=2)
    gamma = default_step_size(A)
    delta = ric_exact_ksparse(A, gamma, 2).value
    assert delta * GOLDEN < 1.0  # instance constructed to qualify
    x_true = np.zeros(32)
    x_true[[5, 20]] = rng.standard_normal(2)
    y = A.apply(x_true)
    cfg = GpgdConfig(gamma=gamma, max_iters=150)
    _, trace = gpgd_run(A, y, ExactProjector(KSparse(2, 32)), cfg, ground_truth=x_true)
    err = trace.err[0]
    assert err[-1] <= 1e-9
    bound = theorem1_bound(delta, GOLDEN, gamma, err[0], 0.0, 150)
    assert np.all(err <= bound.bounds + 1e-9)


def test_theorem_chain_per_iteration_with_noise():
    # instrumented inequalities: ||x_{n+1} - xh|| <= delta ||P(x_n) - xh||
    # + gamma ||A^T e|| and ||P(x_n) - xh|| <= beta ||x_n - xh||
    A, rng = conditioned_square(seed=3)
    gamma = default_step_size(A)
    delta = ric_exact_ksparse(A, gamma, 2).value
    x_true = np.zeros(32)
    x_true[[1, 30]] = rng.standard_normal(2)
    e = 0.02 * rng.standard_normal(32)
    y = A.apply(x_true) + e
    atn = gamma * np.linalg.norm(A.adjoint(e))
    cfg = GpgdConfig(gamma=gamma, max_iters=80)
    _, trace = gpgd_run(A, y, ExactProjector(KSparse(2, 32)), cfg, ground_truth=x_true)
    err, proj_err = trace.err[0], trace.proj_err[0]
    for i in range(len(proj_err)):
        assert err[i + 1] <= delta * proj_err[i] + atn + 1e-9
        assert proj_err[i] <= GOLDEN * err[i] + 1e-9


def test_noiseless_exactness_rate():
    A, rng = conditioned_square(seed=4)
    gamma = default_step_size(A)
    delta = ric_exact_ksparse(A, gamma, 2).value
    rate = delta * GOLDEN
    assert rate < 1.0
    x_true = np.zeros(32)
    x_true[[8, 9]] = rng.standard_normal(2)
    y = A.apply(x_true)
    cfg = GpgdConfig(gamma=gamma, max_iters=150)
    _, trace = gpgd_run(A, y, ExactProjector(KSparse(2, 32)), cfg, ground_truth=x_true)
    err = trace.err[0]
    assert err[-1] <= rate**150 * err[0] * (1.0 + 1e-6) + 1e-300


@pytest.mark.filterwarnings("error")
def test_divergence_aborts_with_diagnostics():
    A = DenseOperator(np.eye(3))
    blow_up = lambda z: z * 1e160
    # identity A starts from y = ones; with gamma = 0.5 each update is
    # (P(x) + y) / 2, so the iterate overflows to inf on the second step
    cfg = GpgdConfig(gamma=0.5, max_iters=10)
    with pytest.raises(SolverDivergence) as exc:
        gpgd_run(A, np.ones(3), blow_up, cfg)
    assert exc.value.iteration == 2 and exc.value.row == 0
    # the last finite iterate is 5e159 + 0.5 in every entry, whose norm
    # np.linalg.norm would overflow to inf
    assert exc.value.norm == pytest.approx(math.sqrt(3.0) * 5e159, rel=1e-12)


def test_default_x0_is_adjoint_of_y():
    rng = np.random.default_rng(5)
    A = DenseOperator(rng.standard_normal((4, 6)))
    y = rng.standard_normal(4)
    cfg = GpgdConfig(gamma=0.01, max_iters=1)
    _, trace = gpgd_run(A, y, lambda z: z, cfg)
    assert np.array_equal(trace.iterates[0][0], A.adjoint(y))


def test_trace_records_match_per_iterate_recomputation():
    # every record derived from the iterate stack equals, bit for bit, the
    # per-iterate formula; the start A^T y as ground truth makes iterate 0
    # an exact fit (PSNR inf)
    A, rng = conditioned_square(seed=9)
    y = rng.standard_normal(32)
    x_true = A.adjoint(y)
    proj = ExactProjector(KSparse(2, 32))
    cfg = GpgdConfig(gamma=default_step_size(A), max_iters=30)
    x, trace = gpgd_run(A, y, proj, cfg, ground_truth=x_true)
    (its,) = trace.iterates
    assert its.shape == (31, 32) and len(trace) == 31
    assert np.array_equal(x, its[-1]) and not np.shares_memory(x, its)
    err = np.array([np.linalg.norm(xi - x_true) for xi in its])
    db = [psnr(xi, x_true) for xi in its]
    assert db[0] == math.inf and all(math.isfinite(v) for v in db[1:])
    assert np.array_equal(trace.err, [err])
    assert np.array_equal(trace.rel_err, [err / np.linalg.norm(x_true)])
    assert trace.psnr_db.tolist() == [db]
    assert np.array_equal(
        trace.residual, [[np.linalg.norm(A.apply(xi) - y) for xi in its]]
    )
    assert np.array_equal(
        trace.proj_err, [[np.linalg.norm(proj(xi) - x_true) for xi in its[:-1]]]
    )
    assert trace.best_index.tolist() == [int(np.argmax(db))]
    x_star = its[trace.best_index[0] + 5]
    ref_norm = np.linalg.norm(x_star)
    for threshold in (0.5, 0.05, 1e-3):
        expected = next((i for i, xi in enumerate(its)
                         if np.linalg.norm(xi - x_star) / ref_norm <= threshold), None)
        assert convergence_iteration(trace, x_star, threshold) == [expected]


def _trace_with_rel_errors(x_star, rels):
    # iterates at prescribed relative distances from x_star
    direction = np.ones_like(x_star) / np.sqrt(x_star.size)
    its = np.array([x_star + r * np.linalg.norm(x_star) * direction for r in rels])
    return GpgdTrace(residual=np.zeros((1, len(its))), iterates=[its])


def test_convergence_iteration_examples():
    x_star = np.array([3.0, 4.0])
    t = _trace_with_rel_errors(x_star, [0.0, 0.5])
    assert convergence_iteration(t, x_star, 0.01) == [0]
    t = _trace_with_rel_errors(x_star, [1.0, 0.5, 0.009, 0.5])
    assert convergence_iteration(t, x_star, 0.01) == [2]
    t = _trace_with_rel_errors(x_star, [1.0, 0.5, 0.02])
    assert convergence_iteration(t, x_star, 0.01) == [None]


def test_convergence_iteration_rejects_zero_reference():
    t = _trace_with_rel_errors(np.array([1.0, 1.0]), [0.5])
    with pytest.raises(ValueError):
        convergence_iteration(t, np.zeros(2), 0.01)


def test_best_iterate_examples():
    its = np.array([np.zeros(2), np.ones(2), np.full(2, 2.0)])
    t = GpgdTrace(residual=np.zeros((1, 3)), iterates=[its],
                  psnr_db=np.array([[10.0, 30.0, 20.0]]))
    idx, x = best_iterate(t)
    assert idx.tolist() == [1] and np.array_equal(x, its[1:2])
    t_tie = GpgdTrace(residual=np.zeros((1, 3)), iterates=[its],
                      psnr_db=np.array([[15.0, 15.0, 15.0]]))
    assert best_iterate(t_tie)[0].tolist() == [0]
    t_single = GpgdTrace(residual=np.zeros((1, 1)),
                         iterates=[np.zeros((1, 2))], psnr_db=np.array([[12.0]]))
    assert best_iterate(t_single)[0].tolist() == [0]


def test_batch_helpers_give_each_row_its_own_hit():
    x_star = np.array([[3.0, 4.0], [1.0, -2.0]])
    its = [_trace_with_rel_errors(x_star[0], [1.0, 0.009, 0.5]).iterates[0],
           _trace_with_rel_errors(x_star[1], [0.5, 0.02, 1.0]).iterates[0]]
    t = GpgdTrace(residual=np.zeros((2, 3)), iterates=its,
                  psnr_db=np.array([[10.0, 30.0, 20.0], [40.0, 10.0, 10.0]]))
    idx, best = best_iterate(t)
    assert idx.tolist() == [1, 0]
    assert np.array_equal(best, [its[0][1], its[1][0]])
    assert convergence_iteration(t, x_star, 0.01) == [1, None]
    assert convergence_iteration(t, x_star, 0.1) == [1, 1]
    assert convergence_iteration(t, x_star[0], 0.01)[0] == 1  # one shared reference
    with pytest.raises(ValueError):
        convergence_iteration(t, np.ones(3), 0.01)
    for r, hit in enumerate([1, None]):
        assert convergence_iteration(t.row(r), x_star[r], 0.01) == [hit]
        assert best_iterate(t.row(r))[0].tolist() == [idx[r]]


def test_best_iterate_empty_trace():
    t = GpgdTrace(residual=np.zeros((1, 0)), iterates=[np.zeros((0, 2))])
    with pytest.raises(ValueError):
        best_iterate(t)


def test_default_step_size_examples():
    assert default_step_size(DenseOperator(np.eye(5))) == pytest.approx(1.0, rel=1e-7)
    assert default_step_size(DenseOperator(2.0 * np.eye(5))) == pytest.approx(
        0.25, rel=1e-7
    )


def test_default_step_size_matches_svd_oracle():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((16, 32))
    sigma_max = np.linalg.svd(mat, compute_uv=False)[0]  # dense SVD oracle
    got = default_step_size(DenseOperator(mat))
    assert got == pytest.approx(1.0 / sigma_max**2, rel=1e-6)


def _step_size_reference(A, tol=1e-8, max_iters=10_000):
    """The power iteration with np.linalg.norm for its norms; returns
    1 / lambda and the number of A^T A products it took."""
    v = np.random.default_rng(0).standard_normal(A.n)
    v /= np.linalg.norm(v)
    lam_prev = lam = 0.0
    for steps in range(1, max_iters + 1):
        w = A.adjoint(A.apply(v))
        lam = float(np.dot(v, w))
        v = w / np.linalg.norm(w)
        if abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            break
        lam_prev = lam
    return 1.0 / lam, steps


@pytest.mark.parametrize("make_op", [
    lambda: DenseOperator(np.random.default_rng(6).standard_normal((16, 32))),
    lambda: Blur(gaussian_blur_kernel(5, 1.0), (12, 10)),
    lambda: make_superres_operator((12, 10), 2, gaussian_blur_kernel(5, 1.0)),
], ids=["dense", "blur", "superres"])
def test_default_step_size_norm_bits_and_public_calls(monkeypatch, make_op):
    # sqrt(w . w) gives np.linalg.norm's bits on a 1-D float64 vector, and
    # every power step goes through A.apply and A.adjoint by those names
    A = make_op()
    expected, steps = _step_size_reference(A)
    calls = {"apply": 0, "adjoint": 0}
    for name in calls:
        method = getattr(A, name)

        def counted(x, _method=method, _name=name):
            calls[_name] += 1
            return _method(x)

        monkeypatch.setattr(A, name, counted)
    assert default_step_size(A) == expected
    assert calls == {"apply": steps, "adjoint": steps}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_default_step_size_refuses_non_finite_operator(monkeypatch, bad):
    # the first power step's estimate is not finite: raise there rather
    # than run every step and return NaN; the inf - inf inside A^T A v
    # must not surface as a RuntimeWarning first
    mat = np.eye(6)
    mat[2, 3] = bad
    A = DenseOperator(mat)
    calls = []
    apply = A.apply
    monkeypatch.setattr(A, "apply", lambda x: calls.append(1) or apply(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"non-finite"):
            default_step_size(A)
    assert len(calls) == 1


def test_default_step_size_zero_operator():
    with pytest.raises(ValueError):
        default_step_size(DenseOperator(np.zeros((3, 3))))


def test_determinism_bitwise():
    A, rng = conditioned_square(seed=7)
    x_true = np.zeros(32)
    x_true[[2, 12]] = rng.standard_normal(2)
    y = A.apply(x_true) + 0.01 * rng.standard_normal(32)
    cfg = GpgdConfig(gamma=default_step_size(A), max_iters=40)
    proj = ExactProjector(KSparse(2, 32))
    _, t1 = gpgd_run(A, y, proj, cfg, ground_truth=x_true)
    _, t2 = gpgd_run(A, y, proj, cfg, ground_truth=x_true)
    assert np.array_equal(t1.residual, t2.residual)
    assert np.array_equal(t1.err, t2.err)
    assert np.array_equal(t1.iterates, t2.iterates)


def test_trace_csv(tmp_path):
    A, rng = conditioned_square(seed=8)
    x_true = np.zeros(32)
    x_true[[0, 1]] = 1.0
    y = A.apply(x_true)
    cfg = GpgdConfig(gamma=default_step_size(A), max_iters=5)
    _, trace = gpgd_run(A, y, ExactProjector(KSparse(2, 32)), cfg, ground_truth=x_true)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,rel_err,psnr_db,residual"
    assert len(lines) == len(trace) + 1


def _trace_csv_per_line(trace, path):
    # the one-line-per-write reference writer that trace_to_csv replaced,
    # on row 0 of a one-row trace
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iter,rel_err,psnr_db,residual\n")
        for i in range(len(trace)):
            rel = "" if trace.rel_err is None else repr(float(trace.rel_err[0, i]))
            ps = "" if trace.psnr_db is None else repr(float(trace.psnr_db[0, i]))
            fh.write(f"{i},{rel},{ps},{repr(float(trace.residual[0, i]))}\n")


@pytest.mark.parametrize("absent", [(), ("rel_err",), ("psnr_db",),
                                    ("rel_err", "psnr_db")])
def test_trace_csv_matches_per_line_writer_byte_for_byte(tmp_path, absent):
    extremes = np.array([5e-324, 2.2250738585072014e-308, 1e-300, 0.1,
                         1.0 / 3.0, 1e22, 1.7976931348623157e308, 0.0])
    rng = np.random.default_rng(46)
    rows = extremes.size + 151

    def column():
        scales = 10.0 ** rng.integers(-300, 300, 151)
        return np.concatenate([extremes, rng.standard_normal(151) * scales])[None]

    psnr_db = column()
    psnr_db[0, [0, 9]] = np.inf  # an exact reconstruction
    records = {"rel_err": np.abs(column()), "psnr_db": psnr_db}
    trace = GpgdTrace(residual=np.abs(column()),
                      iterates=[np.zeros((rows, 2))],
                      **{k: None if k in absent else v for k, v in records.items()})
    trace_to_csv(trace, tmp_path / "new.csv")
    _trace_csv_per_line(trace, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_early_stop_off_by_default_runs_full_budget():
    A = DenseOperator(np.eye(4))
    proj = ExactProjector(KSparse(1, 4))
    cfg = GpgdConfig(gamma=1.0, max_iters=25)
    _, trace = gpgd_run(A, np.array([1.0, 0.0, 0.0, 0.0]), proj, cfg)
    assert len(trace) == 26  # initial point plus 25 updates


# --- stacks of measurements, one per row ----------------------------------------


def _stack_problem(A, b, k, seed):
    rng = np.random.default_rng(seed)
    X_true = np.concatenate([sample_member(KSparse(k, A.n), rng, 1)
                             for _ in range(b)])
    Y = A.apply(X_true) + 0.01 * rng.standard_normal((b, A.m))
    return X_true, Y


@pytest.mark.parametrize("A", [
    make_inpainting_operator(36, 0.4, seed=5),
    Blur(gaussian_blur_kernel(3, 0.9), (6, 6)),
    make_superres_operator((6, 6), 2, gaussian_blur_kernel(3, 0.9)),
], ids=["mask", "blur", "blur+subsample"])
def test_stack_run_equals_one_row_runs(A):
    X_true, Y = _stack_problem(A, 5, 3, seed=10)
    proj = ExactProjector(KSparse(3, A.n))
    cfg = GpgdConfig(gamma=default_step_size(A), max_iters=40)
    x, trace = gpgd_run(A, Y, proj, cfg, ground_truth=X_true)
    assert x.shape == (5, A.n) and len(trace) == 41
    assert len(trace.iterates) == 5
    assert all(stack.shape == (41, A.n) for stack in trace.iterates)
    assert not any(np.shares_memory(x, stack) for stack in trace.iterates)
    assert trace.best_index.shape == (5,)
    for r in range(5):
        x_r, one = gpgd_run(A, Y[r], proj, cfg, ground_truth=X_true[r])
        row = trace.row(r)
        assert np.array_equal(x[r], x_r)
        for name in ("iterates", "residual", "err", "rel_err", "psnr_db", "proj_err"):
            assert np.array_equal(getattr(row, name), getattr(one, name)), name
        assert row.best_index == one.best_index == trace.best_index[r]
        _, x_star = best_iterate(row)
        assert np.array_equal(x_star, best_iterate(one)[1])
        for threshold in (0.5, 0.01, 1e-4):
            assert convergence_iteration(row, x_star, threshold) == \
                convergence_iteration(one, x_star, threshold)


def test_one_vector_is_a_batch_of_one():
    # a 1-D y and the same y as a stack of 1 give bit-identical traces;
    # P sees the iterate in y's shape
    A, rng = conditioned_square(seed=12)
    x_true = np.zeros(32)
    x_true[[6, 21]] = rng.standard_normal(2)
    y = A.apply(x_true) + 0.05 * rng.standard_normal(32)
    proj = ExactProjector(KSparse(2, 32))
    cfg = GpgdConfig(gamma=default_step_size(A), max_iters=20)
    runs = []
    for y_in, truth in ((y, x_true), (y[None], x_true[None])):
        shapes = set()

        def P(z):
            shapes.add(z.shape)
            return proj(z)

        x, trace = gpgd_run(A, y_in, P, cfg, ground_truth=truth)
        assert x.shape == y_in.shape[:-1] + (32,) and shapes == {x.shape}
        runs.append((x, trace))
    (x, one), (X, stack) = runs
    assert np.array_equal(x, X[0]) and len(one.iterates) == 1
    for name in ("residual", "err", "rel_err", "psnr_db", "proj_err"):
        assert getattr(one, name).shape[0] == 1, name
        assert np.array_equal(getattr(one, name), getattr(stack, name)), name
    assert np.array_equal(one.iterates[0], stack.iterates[0])
    assert one.best_index.shape == (1,) and one.best_index == stack.best_index


def test_stack_run_shares_one_vector_ground_truth():
    A = make_inpainting_operator(16, 0.5, seed=6)
    x_true = np.zeros(16)
    x_true[[2, 9]] = [1.0, -0.5]
    Y = np.stack([A.apply(x_true), A.apply(x_true) + 0.1])
    proj = ExactProjector(KSparse(2, 16))
    cfg = GpgdConfig(gamma=1.0, max_iters=5)
    _, trace = gpgd_run(A, Y, proj, cfg, ground_truth=x_true)
    for r in range(2):
        _, one = gpgd_run(A, Y[r], proj, cfg, ground_truth=x_true)
        assert np.array_equal(trace.row(r).iterates, one.iterates)
        assert np.array_equal(trace.row(r).psnr_db, one.psnr_db)


def test_trace_csv_refuses_a_multi_row_trace(tmp_path):
    A = PixelMask(range(4), n=4)
    _, trace = gpgd_run(A, np.ones((2, 4)), ExactProjector(KSparse(1, 4)),
                        GpgdConfig(gamma=0.5, max_iters=3), ground_truth=np.ones(4))
    with pytest.raises(ValueError, match="row"):
        trace_to_csv(trace, tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()
    trace_to_csv(trace.row(1), tmp_path / "t.csv")
    assert len((tmp_path / "t.csv").read_text().splitlines()) == len(trace) + 1
    # an out-of-range row raises here rather than giving an empty trace
    with pytest.raises(IndexError):
        trace.row(2)
    assert np.array_equal(trace.row(-1).residual, trace.row(1).residual)


@pytest.mark.filterwarnings("error")
def test_divergence_names_the_first_bad_row():
    # the projector overflows the first two entries of row 1 only; the
    # batch stops where the one-row run on row 1 stops, with the same norm
    # of the last finite iterate, (5e159, 5e159, 1, 1), and names row 1;
    # A keeps every pixel, so each row starts from its y = ones
    A = PixelMask(range(4), n=4)

    def blow_up(z):
        out = z.copy()
        out[..., :2] *= 1e160
        return out

    def blow_up_row_1(Z):
        out = Z.copy()
        out[1] = blow_up(Z[1])
        return out

    cfg = GpgdConfig(gamma=0.5, max_iters=10)
    with pytest.raises(SolverDivergence) as one:
        gpgd_run(A, np.ones(4), blow_up, cfg)
    assert one.value.row == 0 and "row 0" in str(one.value)
    with pytest.raises(SolverDivergence) as batch:
        gpgd_run(A, np.ones((3, 4)), blow_up_row_1, cfg)
    assert batch.value.row == 1
    assert batch.value.iteration == one.value.iteration == 2
    assert batch.value.norm == one.value.norm
    assert one.value.norm == pytest.approx(7.0711e159, rel=1e-4)
    assert "row 1" in str(batch.value)
