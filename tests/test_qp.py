"""Tests for the per-sample quadratic-programming solvers.

The non-negativity-constrained solver is checked against the exhaustive
active-set enumeration oracle; the equality solver against hand Lagrange
calculations, its own degeneracy certificates, and an independent
eigendecomposition solver kept here as an oracle.
"""

import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from minvar import (
    ActiveSetError,
    AssetUniverse,
    CovarianceError,
    CovMatrix,
    TrialConfig,
    brute_force_noshort,
    generate_returns,
    kkt_residual,
    min_variance_equality,
    min_variance_noshort,
    true_optimum,
)
from minvar import qp
from minvar.qp import FLAT_RTOL, RANK_RTOL


def rand_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    a = rng.standard_normal((n, rank))
    return a @ a.T / rank


# ---------------------------------------------------------------------------
# CovMatrix construction and validation
# ---------------------------------------------------------------------------


def test_from_returns_shape_and_flag():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 20))
    c = CovMatrix.from_returns(x)
    assert c.matrix.shape == (5, 5)
    assert c.rank == 5
    assert np.allclose(c.matrix, x @ x.T / 20)
    under = CovMatrix.from_returns(rng.standard_normal((8, 4)))
    assert under.rank <= 4


@pytest.mark.parametrize("n, t", [(1, 1), (5, 20), (40, 7), (100, 333)])
def test_from_returns_is_exactly_symmetric(n, t):
    # C-ordered, F-ordered and strided panels; a strided one taken straight
    # through a general product comes out asymmetric in the last bits
    base = np.random.default_rng(n * t).standard_normal((n, 2 * t))
    for x in (np.ascontiguousarray(base[:, :t]), np.asfortranarray(base[:, :t]), base[:, ::2]):
        c = CovMatrix.from_returns(x).matrix
        assert np.array_equal(c, c.T)
        assert np.allclose(c, x @ x.T / t, rtol=1e-13, atol=1e-13)


def test_constructor_validation():
    bad = [
        [[1.0, 0.5], [0.2, 1.0]],  # asymmetric
        [[1.0, 2.0], [2.0, 1.0]],  # eig -1
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        np.diag([1e308, 1e308]),  # finite, but its trace overflows
        np.zeros((0, 0)),
        np.ones(3),
    ]
    for m in bad:
        with np.errstate(over="ignore"), pytest.raises(CovarianceError):
            CovMatrix(m)
    c = CovMatrix(np.eye(3))
    assert c.rank == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_from_returns_rejects_non_finite_samples(bad):
    # 1e200 is finite, but its square overflows the diagonal of X X'
    x = np.ones((3, 4))
    x[1, 2] = bad
    with np.errstate(over="ignore"), pytest.raises(CovarianceError):
        CovMatrix.from_returns(x)
    x[1, 2] = 1e150  # square 1e300: finite, and kept
    assert np.isfinite(CovMatrix.from_returns(x).matrix).all()


def test_from_returns_rejects_an_empty_panel():
    with pytest.raises(CovarianceError):
        CovMatrix.from_returns(np.zeros((0, 5)))


def test_matrix_is_readonly():
    c = CovMatrix(np.eye(2))
    with pytest.raises(ValueError):
        c.matrix[0, 0] = 5.0


def test_constructor_keeps_one_c_ordered_symmetrised_copy():
    rng = np.random.default_rng(3)
    for n in (6, 150):
        m = rand_psd(rng, n)
        m[0, 1] += 1e-14  # asymmetric within the 1e-12 gate
        for src in (m, np.asfortranarray(m)):
            c = CovMatrix(src).matrix
            assert np.array_equal(c, 0.5 * (m + m.T))
            # bit for bit, since `_factor` hands dpstrf the transpose
            assert np.array_equal(c, c.T)
            assert c.flags.c_contiguous and not c.flags.writeable
            assert not np.shares_memory(c, src)
    # halving before the sum keeps an entry above DBL_MAX / 2 finite
    assert CovMatrix([[1e308]]).matrix[0, 0] == 1e308


def test_covariances_and_results_compare_and_hash_by_identity():
    a, b = CovMatrix(np.eye(2)), CovMatrix(np.eye(2))
    r1, r2 = min_variance_equality(a), min_variance_equality(a)
    assert (a == b) is False and (a == a) is True
    assert (r1 == r2) is False and (r1 == r1) is True
    assert len({a, b, r1, r2}) == 4


def test_from_returns_owns_a_readonly_matrix():
    x = np.random.default_rng(4).standard_normal((6, 9))
    c = CovMatrix.from_returns(x)
    assert not c.matrix.flags.writeable
    assert not np.shares_memory(c.matrix, x)
    assert c.matrix.base is None  # no writeable view of the same buffer


# N = 300 panels: full rank (T = 600) and flat (T = 100)
MEMORY_PANELS = [(300, 600), (300, 100)]


def _panel(n, t):
    return np.random.default_rng(n + t).standard_normal((n, t)) / np.sqrt(n)


@pytest.mark.parametrize("n, t", MEMORY_PANELS)
def test_from_returns_peak_is_one_matrix(n, t):
    x = _panel(n, t)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        c = CovMatrix.from_returns(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * c.matrix.nbytes


@pytest.mark.parametrize("n, t", MEMORY_PANELS)
@pytest.mark.parametrize("solve", [min_variance_equality, min_variance_noshort])
def test_solvers_keep_nothing_on_a_held_covariance(solve, n, t):
    solve(CovMatrix.from_returns(_panel(20, t // 15)))  # warm LAPACK wrappers
    c = CovMatrix.from_returns(_panel(n, t))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = solve(c, float(n))
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert res.degenerate == (t < n)
    assert kept < 0.1 * c.matrix.nbytes
    assert list(vars(c)) == ["matrix"]


def test_noshort_solve_never_factors_c(monkeypatch):
    calls = []
    factor = qp._factor

    def counted(m):
        calls.append(m.shape)
        return factor(m)

    monkeypatch.setattr(qp, "_factor", counted)
    for n, t in ((40, 10), (40, 80)):  # flat and full rank
        res = min_variance_noshort(CovMatrix.from_returns(_panel(n, t)), float(n))
        assert res.degenerate == (t < n)
    assert calls == []


def test_degenerate_results_do_not_keep_the_covariance():
    for solve, n, t in ((min_variance_noshort, 40, 10), (brute_force_noshort, 6, 2)):
        c = CovMatrix.from_returns(_panel(n, t))
        held = weakref.ref(c)
        res = solve(c, float(n))
        del c
        assert res.degenerate
        assert held() is None


def _same_result(a, b):
    return a.weights.tobytes() == b.weights.tobytes() and all(
        getattr(a, k) == getattr(b, k)
        for k in ("objective", "active_set", "degenerate", "constraint", "lam",
                  "iterations")
    )


@pytest.mark.parametrize("n, t", [(40, 80), (40, 20)])
@pytest.mark.parametrize("solve", [min_variance_equality, min_variance_noshort])
def test_repeated_solves_are_bit_identical(solve, n, t):
    c = CovMatrix.from_returns(_panel(n, t))
    first = solve(c, float(n))
    again = solve(c, float(n))
    assert c.rank == min(n, t)
    after_rank = solve(c, float(n))
    assert _same_result(first, again) and _same_result(first, after_rank)
    assert list(vars(c)) == ["matrix"]


def test_drop_through_the_zero_q_matches_an_identity_q(monkeypatch):
    # a drop hands qr_delete's core a block of the corral's zero matrix as
    # Q, which is right only while the core's R rotations never read Q; the
    # reference corral drops with a fresh identity Q instead
    n = 60
    cm = CovMatrix.from_returns(_panel(n, 2 * n)).matrix
    rho = float(np.trace(cm)) / n
    corrals = []
    for _ in range(2):
        corral = qp._Corral(cm, rho, 0)
        assert corral.extend(np.arange(1, n))[0] == n - 1
        corrals.append(corral)
    zq, ref = corrals
    core = qp._qr_delete

    def identity_q(q_block, *args, **kwargs):
        return core(np.eye(q_block.shape[0], order="F"), *args, **kwargs)

    for q in (3, 31):  # k - q = 57, then 28
        zq.drop(q)
        with monkeypatch.context() as patch:
            patch.setattr(qp, "_qr_delete", identity_q)
            ref.drop(q)
        k = zq.k
        assert np.triu(zq.r[:k, :k]).tobytes() == np.triu(ref.r[:k, :k]).tobytes()
        assert zq.y[:k].tobytes() == ref.y[:k].tobytes()
        assert not zq.zero_q.any()


def _assert_factor_holds(corral, cm, rho):
    # R'R = C_ff + rho 11' and R'y = 1 over the members, to 1e-12 relative
    k, f = corral.k, corral.members
    r = np.triu(corral.r[:k, :k])
    m = cm[np.ix_(f, f)] + rho
    assert np.max(np.abs(r.T @ r - m)) <= 1e-12 * np.max(np.abs(m))
    assert np.max(np.abs(r.T @ corral.y[:k] - 1.0)) <= 1e-12


def test_extend_matches_per_asset_adds():
    # batch after batch, a block leaves the factor that adding its assets
    # one at a time would: R = chol(C_ff + rho 11')', unique, and
    # y = R'^-1 1 over the members, in member order
    n = 80
    cm = CovMatrix.from_returns(_panel(n, 2 * n)).matrix
    rho = float(np.trace(cm)) / n
    corral = qp._Corral(cm, rho, 0)
    members = [0]
    order = np.random.default_rng(4).permutation(np.arange(1, n))
    for batch in np.split(order, [12, 20, 45, 57]):  # B = 12, 8, 25, 12, 22
        assert corral.extend(batch)[0] == batch.size
        members += batch.tolist()
        k = corral.k
        assert corral.members.tolist() == members
        assert np.flatnonzero(corral.mask).tolist() == sorted(members)
        ref = np.linalg.cholesky(cm[np.ix_(members, members)] + rho).T
        y = scipy.linalg.solve_triangular(ref, np.ones(k), trans=1)
        assert np.allclose(np.triu(corral.r[:k, :k]), ref,
                           rtol=0, atol=1e-12 * float(np.max(np.abs(ref))))
        assert np.allclose(corral.y[:k], y, rtol=1e-12, atol=0)
        _assert_factor_holds(corral, cm, rho)


def test_extend_refuses_a_batch_with_an_asset_in_the_affine_hull():
    # asset 30 copies member 5, and asset 31 copies asset 32 of the same
    # batch, each up to 1e-9 noise. Each batch is refused from the copy on:
    # its prefix enters, and leaves the corral as extending by that prefix
    # alone does
    n = 40
    x = _panel(n, 2 * n)
    rng = np.random.default_rng(9)
    x[30] = x[5] + 1e-9 * rng.standard_normal(2 * n)
    x[31] = x[32] + 1e-9 * rng.standard_normal(2 * n)
    cm = CovMatrix.from_returns(x).matrix
    rho = float(np.trace(cm)) / n
    corral, ref = qp._Corral(cm, rho, 0), qp._Corral(cm, rho, 0)
    for c in (corral, ref):
        assert c.extend(np.arange(1, 12))[0] == 11
    for batch, prefix in (([20, 30, 21], [20]), ([31, 22, 32], [31, 22])):
        assert corral.extend(np.array(batch))[0] == len(prefix)
        assert ref.extend(np.array(prefix))[0] == len(prefix)
        k = corral.k
        assert corral.members.tolist()[-len(prefix):] == prefix
        assert corral.members.tolist() == ref.members.tolist()
        assert np.array_equal(corral.mask, ref.mask)
        # to rounding: a block of three runs other BLAS kernels than one of one
        for a, b in ((np.triu(corral.r[:k, :k]), np.triu(ref.r[:k, :k])),
                     (corral.y[:k], ref.y[:k])):
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))
    _assert_factor_holds(corral, cm, rho)


# ---------------------------------------------------------------------------
# Equality-constrained solver
# ---------------------------------------------------------------------------


def test_equality_identity_spec_example():
    c = CovMatrix(np.eye(4))
    res = min_variance_equality(c, 4.0)
    assert np.allclose(res.weights, 1.0, rtol=0, atol=1e-14)
    assert res.objective == pytest.approx(4.0, rel=1e-14)
    assert not res.degenerate
    assert c.rank == 4


def test_equality_diagonal_spec_example():
    c = CovMatrix(np.diag([1.0, 4.0]))
    res = min_variance_equality(c, 2.0)
    assert res.weights == pytest.approx([1.6, 0.4], rel=1e-14)
    assert res.objective == pytest.approx(1.6**2 + 4 * 0.4**2, rel=1e-14)
    assert res.objective == pytest.approx(3.2, rel=1e-14)


def test_equality_matches_replica_true_optimum():
    uni = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    c = CovMatrix(np.diag(np.asarray(uni.sigmas) ** 2))
    res = min_variance_equality(c, float(uni.n))
    opt = true_optimum(uni)
    assert res.weights == pytest.approx(list(opt.weights), rel=1e-13)
    assert res.objective == pytest.approx(opt.risk, rel=1e-13)


def test_equality_undersampled_is_degenerate():
    rng = np.random.default_rng(1)
    n, t = 8, 4
    c = CovMatrix.from_returns(rng.standard_normal((n, t)))
    res = min_variance_equality(c, float(n))
    assert res.degenerate
    assert res.objective < 1e-10 * np.trace(c.matrix)
    assert c.rank <= t
    assert sum(res.weights) == pytest.approx(n, abs=1e-10)


def test_equality_nullspace_orthogonal_to_budget():
    # Rank-deficient, but the null space is the zero-sum hyperplane, so the
    # objective is the constant (sum w)^2 = 9 on the whole budget plane.
    # The zero-variance degeneracy flag must NOT fire (objective > 0); the
    # solver falls back to the positive-spectrum minimum-norm point.
    n = 3
    c = CovMatrix(np.ones((n, n)))
    res = min_variance_equality(c, 3.0)
    assert not res.degenerate
    assert res.objective == pytest.approx(9.0, rel=1e-12)
    assert res.weights == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert sum(res.weights) == pytest.approx(3.0, abs=1e-12)


def test_equality_general_full_rank_against_direct_formula():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = rng.integers(2, 9)
        c = CovMatrix(rand_psd(rng, n) + 0.1 * np.eye(n))
        b = float(rng.uniform(0.5, 5.0))
        res = min_variance_equality(c, b)
        inv1 = np.linalg.solve(c.matrix, np.ones(n))
        w = b * inv1 / inv1.sum()
        assert np.allclose(res.weights, w, rtol=1e-9, atol=1e-12)
        assert kkt_residual(c, res, b) < 1e-8


def _eigh_equality(c, b):
    """Equality solver on a full eigendecomposition, as an independent oracle.

    Rank counts eigenvalues above RANK_RTOL * max eigenvalue; z, the part of
    1 in the null space, counts as zero at |z|^2 <= FLAT_RTOL * N, as in the
    solver. Returns (weights, rank, degenerate, lam).
    """
    n = c.n
    vals, vecs = np.linalg.eigh(c.matrix)
    keep = vals > RANK_RTOL * max(float(vals[-1]), 0.0)
    rank = int(np.sum(keep))
    ones = np.ones(n)
    a = vecs.T @ ones
    if rank < n:
        # eigh tilts the null vectors into the range of C by about
        # eps * max eigenvalue / smallest kept eigenvalue. When 1 lies in the
        # range, that tilt alone puts |z|^2 above FLAT_RTOL * N (4e-24 at a
        # range condition number of 3e4). One refinement step, V0 -= C^+ C V0,
        # removes it. C V0 is formed in long double: its float64 rounding is
        # of the order of the tilt it measures. On 2089 duplicate-row panels
        # with 1 in the range, the largest |z|^2 / N was 5.6e-23 unrefined,
        # 4.7e-26 refined in float64 and 2.5e-27 refined in long double.
        v0 = vecs[:, ~keep]
        cv = (c.matrix.astype(np.longdouble) @ v0.astype(np.longdouble)).astype(float)
        v0 = v0 - vecs[:, keep] @ ((vecs[:, keep].T @ cv) / vals[keep][:, None])
        z = v0 @ (v0.T @ ones)
        if float(z @ z) > FLAT_RTOL * n:
            return (b / float(np.sum(z))) * z, rank, True, 0.0
    y = np.where(keep, a / np.where(keep, vals, 1.0), 0.0)
    s = float(a[keep] @ y[keep])
    w = (b / s) * (vecs @ y)
    degen = max(float(w @ c.matrix @ w), 0.0) <= c.tol_zero
    return w, rank, degen, 2.0 * b / s


def _check_equality_against_oracle(c, b):
    w_ref, rank, degen, lam = _eigh_equality(c, b)
    res = min_variance_equality(c, b)
    assert c.rank == rank
    assert res.degenerate == degen
    # A flat point b z / 1'z with a small z is ill-conditioned: rounding of
    # order eps in C or z moves it by about eps / |z| relative, and its
    # weights grow like b / |z|. So the weight tolerance grows with
    # max|w| / max(1, b), and the budget and KKT bounds with max|w|.
    scale = float(np.max(np.abs(w_ref)))
    cond = max(1.0, scale / max(1.0, abs(b)))
    assert float(np.max(np.abs(res.weights - w_ref))) <= 1e-9 * scale * cond
    assert res.lam == pytest.approx(lam, rel=1e-9, abs=0.0)
    assert kkt_residual(c, res, b) <= 1e-8 * max(1.0, scale)
    return res


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 12),
    t=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    duplicate=st.booleans(),
    sigma_spread=st.floats(0.0, 1.0),
    budget=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
)
@example(n=1, t=3, seed=0, duplicate=False, sigma_spread=0.0, budget=1.0)
@example(n=6, t=1, seed=1, duplicate=False, sigma_spread=0.5, budget=2.0)
@example(n=5, t=8, seed=2, duplicate=True, sigma_spread=0.0, budget=1.0)
@example(n=4, t=6, seed=3, duplicate=False, sigma_spread=0.3, budget=0.0)
# near-duplicate assets: 1 lies almost in the range of C, so z is tiny
@example(n=2, t=1, seed=0, duplicate=True, sigma_spread=2.0**-24, budget=1.0)
@example(n=2, t=1, seed=0, duplicate=True, sigma_spread=1e-8, budget=1.0)
@example(n=2, t=1, seed=1, duplicate=True, sigma_spread=1e-8, budget=1.0)
@example(n=2, t=1, seed=0, duplicate=True, sigma_spread=2.0**-23, budget=1.0)
@example(n=2, t=1, seed=108, duplicate=True, sigma_spread=2.0**-23, budget=3.0)
@example(n=3, t=2, seed=0, duplicate=True, sigma_spread=1e-8, budget=1.0)
@example(n=10, t=9, seed=0, duplicate=True, sigma_spread=1e-8, budget=2.0)
# exact duplicates: z is rounding noise, the pseudo-inverse branch runs
@example(n=3, t=2, seed=0, duplicate=True, sigma_spread=0.0, budget=1.0)
# cond(C) ~ 3e4 on the range: eigh alone puts |z|^2 at 4e-24 > FLAT_RTOL * N
@example(n=3, t=2, seed=3, duplicate=True, sigma_spread=0.0, budget=1.0)
def test_equality_matches_eigh_oracle_on_panels(n, t, seed, duplicate, sigma_spread, budget):
    # T < N and a repeated asset row give singular covariances, T = 1 rank one.
    assume(t <= 2 * n)
    c = _panel_cov(n, t, seed, duplicate, sigma_spread)
    # Rank certificates from eigenvalues and from Cholesky pivots can only
    # disagree near the threshold, so keep every nonzero eigenvalue far above it.
    vals = np.linalg.eigvalsh(c.matrix)
    top = float(vals[-1])
    assume(np.all((vals < 1e-13 * top) | (vals > 1e-6 * top)))
    _check_equality_against_oracle(c, budget)
    res = min_variance_noshort(c, budget)
    # a zero-variance optimum on a nonzero budget needs a singular C
    assert not res.degenerate or budget == 0.0 or c.rank < n


@pytest.mark.parametrize("budget", [3.0, 0.0])
def test_equality_all_ones_corner_matches_oracle(budget):
    # The budget direction spans the whole range of C, so the null space
    # is orthogonal to it and the pseudo-inverse branch runs.
    c = CovMatrix(np.ones((3, 3)))
    assert c.rank == 1
    _check_equality_against_oracle(c, budget)


@pytest.mark.parametrize("r", [0.5, 0.9, 1.5, 2.5])
def test_equality_n400_kkt_flat_directions_and_oracle(r):
    n = 400
    uni = AssetUniverse.constant(1.0, n)
    t = round(n / r)
    for trial in range(2):
        cfg = TrialConfig(universe=uni, t=t, constraint="equality",
                          seed=11, trial_index=trial)
        c = CovMatrix.from_returns(generate_returns(cfg))
        res = _check_equality_against_oracle(c, float(n))
        assert res.degenerate == (t < n)
        if t < n:
            assert c.rank == t


# ---------------------------------------------------------------------------
# No-short solver vs brute force
# ---------------------------------------------------------------------------


def test_noshort_interior_spec_example():
    c = CovMatrix(np.diag([1.0, 4.0]))
    res = min_variance_noshort(c, 2.0)
    assert res.weights == pytest.approx([1.6, 0.4], rel=1e-13)
    assert res.active_set == ()
    assert not res.degenerate


def test_noshort_identity_spec_example():
    c = CovMatrix(np.eye(5))
    res = min_variance_noshort(c, 5.0)
    assert np.allclose(res.weights, 1.0, atol=1e-13)
    assert res.active_set == ()


def test_noshort_negative_correlation_binds():
    # Strong negative off-diagonal drives one equality weight negative;
    # the ban must zero it exactly.
    # Asset 1 is high-variance and strongly positively correlated with the
    # cheap asset 0, so the unconstrained optimum shorts it.
    m = np.array(
        [
            [1.0, 1.8, 0.0],
            [1.8, 4.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    c = CovMatrix(m)
    eq = min_variance_equality(c, 3.0)
    assert min(eq.weights) < 0  # the premise of the example
    res = min_variance_noshort(c, 3.0)
    assert len(res.active_set) >= 1
    for i in res.active_set:
        assert res.weights[i] == 0.0
    ref = brute_force_noshort(c, 3.0)
    assert res.objective == pytest.approx(ref.objective, abs=1e-12)
    assert res.active_set == ref.active_set


def test_noshort_diagonal_never_eliminates():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = rng.uniform(0.2, 5.0, size=6)
        c = CovMatrix(np.diag(d))
        res = brute_force_noshort(c, 6.0)
        assert res.active_set == ()
        assert min(res.weights) > 0


def test_noshort_random_instances_match_brute_force():
    rng = np.random.default_rng(4)
    for k in range(200):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1)) if k % 3 == 0 else n
        c = CovMatrix(rand_psd(rng, n, rank))
        b = float(rng.uniform(0.5, 3.0))
        res = min_variance_noshort(c, b)
        ref = brute_force_noshort(c, b)
        assert res.objective == pytest.approx(ref.objective, abs=1e-10 + 1e-10 * ref.objective)
        assert kkt_residual(c, res, b) < 1e-8
        assert sum(res.weights) == pytest.approx(b, abs=1e-10)
        assert min(res.weights) >= 0.0


def test_noshort_rank1_flat_case():
    # Mixed-sign loading vector: the positive orthant slice of the budget
    # plane intersects the null space, so zero in-sample variance is
    # attainable with non-negative weights.
    v = np.array([1.0, -1.0, 0.0])
    c = CovMatrix(np.outer(v, v))
    res = min_variance_noshort(c, 3.0)
    assert res.degenerate
    assert res.objective < c.tol_zero
    ref = brute_force_noshort(c, 3.0)
    assert ref.objective == pytest.approx(0.0, abs=1e-12)
    assert c.rank == 1
    assert kkt_residual(c, res, 3.0) < 1e-8


def test_noshort_objective_dominates_equality():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        c = CovMatrix(rand_psd(rng, n))
        b = float(rng.uniform(0.5, 3.0))
        eq = min_variance_equality(c, b)
        ns = min_variance_noshort(c, b)
        assert ns.objective >= eq.objective - 1e-10


def test_permutation_equivariance():
    rng = np.random.default_rng(6)
    n = 6
    m = rand_psd(rng, n) + 0.05 * np.eye(n)
    perm = rng.permutation(n)
    c = CovMatrix(m)
    cp = CovMatrix(m[np.ix_(perm, perm)])
    res = min_variance_noshort(c, 2.0)
    resp = min_variance_noshort(cp, 2.0)
    assert np.allclose(np.asarray(res.weights)[perm], resp.weights, atol=1e-10)
    assert resp.objective == pytest.approx(res.objective, rel=1e-10)


def test_scaling_properties():
    rng = np.random.default_rng(7)
    m = rand_psd(rng, 5) + 0.05 * np.eye(5)
    c = CovMatrix(m)
    cs = CovMatrix(7.0 * m)
    res = min_variance_noshort(c, 2.0)
    ress = min_variance_noshort(cs, 2.0)
    assert np.allclose(ress.weights, res.weights, atol=1e-11)
    assert ress.objective == pytest.approx(7.0 * res.objective, rel=1e-11)
    # Budget scaling: weights and sqrt-objective scale linearly.
    resb = min_variance_noshort(c, 6.0)
    assert np.allclose(resb.weights, 3.0 * np.asarray(res.weights), atol=1e-9)
    assert resb.objective == pytest.approx(9.0 * res.objective, rel=1e-9)


def test_kkt_residual_detects_perturbation():
    c = CovMatrix(np.diag([1.0, 4.0, 2.0]))
    res = min_variance_noshort(c, 3.0)
    assert kkt_residual(c, res, 3.0) < 1e-8
    import dataclasses

    w = np.asarray(res.weights).copy()
    w[0] += 1e-3
    w[1] -= 1e-3
    bad = dataclasses.replace(res, weights=w)
    assert kkt_residual(c, bad, 3.0) > 1e-4


def _panel_cov(n, t, seed, duplicate, sigma_spread):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, t))
    if duplicate and n >= 2:
        x[n - 1] = x[0]
    x *= np.exp(sigma_spread * rng.standard_normal(n))[:, None]
    return CovMatrix.from_returns(x)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    t=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    duplicate=st.booleans(),
    sigma_spread=st.floats(0.0, 1.0),
    budget=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
)
@example(n=1, t=3, seed=0, duplicate=False, sigma_spread=0.0, budget=1.0)
@example(n=6, t=1, seed=1, duplicate=False, sigma_spread=0.5, budget=2.0)
@example(n=5, t=8, seed=2, duplicate=True, sigma_spread=0.0, budget=1.0)
@example(n=4, t=6, seed=3, duplicate=False, sigma_spread=0.3, budget=0.0)
def test_noshort_matches_brute_force_on_panels(n, t, seed, duplicate, sigma_spread, budget):
    # T < N gives rank-deficient covariances, a repeated asset row puts an
    # affinely dependent asset next to the free set, T = 1 makes C rank one.
    c = _panel_cov(n, t, seed, duplicate, sigma_spread)
    res = min_variance_noshort(c, budget)
    ref = brute_force_noshort(c, budget)
    assert abs(res.objective - ref.objective) <= 1e-10 * (1.0 + ref.objective)
    assert kkt_residual(c, res, budget) <= 1e-8
    assert min(res.weights) >= 0.0
    assert sum(res.weights) == pytest.approx(budget, abs=1e-10 * max(budget, 1.0))
    assert res.degenerate == (res.objective <= c.tol_zero)


def _trace_steps(monkeypatch) -> dict:
    """Adds plus drops taken, extend calls, the steps before each hull swap, the corral."""
    extend, drop, swap = qp._Corral.extend, qp._Corral.drop, qp._Corral.swap
    trace = {"steps": 0, "extends": 0, "swaps": [], "corral": None}

    def traced_extend(self, batch):
        added, l = extend(self, batch)
        trace["steps"] += added
        trace["extends"] += 1
        trace["corral"] = self
        return added, l

    def traced_drop(self, q):
        trace["steps"] += 1
        return drop(self, q)

    def traced_swap(self, *args):
        trace["swaps"].append(trace["steps"])
        return swap(self, *args)

    monkeypatch.setattr(qp._Corral, "extend", traced_extend)
    monkeypatch.setattr(qp._Corral, "drop", traced_drop)
    monkeypatch.setattr(qp._Corral, "swap", traced_swap)
    return trace


def test_noshort_near_duplicate_asset_swaps_into_free_set(monkeypatch):
    # The last asset is a copy of the heaviest one shrunk by 1e-7: it is
    # strictly better but numerically inside the affine hull of any corral
    # that holds its twin, so its Cholesky pivot is ~0. When the twin is in
    # the corral first, the copy has to replace it, not join it; on other
    # seeds the copy enters first and the twin never does.
    swaps = _trace_steps(monkeypatch)["swaps"]
    swapped = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 10))
        heavy = int(np.argmax(brute_force_noshort(CovMatrix.from_returns(x), 1.0).weights))
        c = CovMatrix.from_returns(np.vstack([x, (1.0 - 1e-7) * x[heavy]]))
        del swaps[:]
        res = min_variance_noshort(c, 1.0)
        swapped += [seed] if swaps else []
        ref = brute_force_noshort(c, 1.0)
        assert res.objective == pytest.approx(ref.objective, abs=1e-14)
        assert kkt_residual(c, res, 1.0) <= 1e-12
        assert res.weights[-1] > 0.0
        assert res.weights[heavy] == 0.0
    assert swapped


def _scaled_copy_panels(draws):
    """Panels `draws` of a fixed stream: T = N, N in [20, 120], unscaled Gaussian
    returns, and 1-5 disjoint pairs x_a = (1 + eps) x_b with eps = 10^U(-14, -6)."""
    rng = np.random.default_rng(1)
    panels = {}
    for i in range(max(draws) + 1):
        n = int(rng.integers(20, 121))
        x = rng.standard_normal((n, n))
        k = int(rng.integers(1, 6))
        pairs = rng.choice(n, 2 * k, replace=False).reshape(k, 2)
        eps = 10.0 ** rng.uniform(-14, -6, size=k)
        x[pairs[:, 0]] = (1.0 + eps)[:, None] * x[pairs[:, 1]]
        if i in draws:
            panels[i] = x
    return panels


# the draws of the first 200 whose solves miss the gate, at 1.03e-8 to 1.43e-8
SCALED_COPY_MISSES = (3, 28, 37, 122, 140, 163)


@pytest.mark.xfail(strict=True, reason="FOUND 74: min_variance_noshort misses the 1e-8 "
                   "KKT gate on panels with near-scaled copies at T = N")
def test_noshort_near_scaled_copies_meet_the_kkt_gate():
    for i, x in _scaled_copy_panels(SCALED_COPY_MISSES).items():
        c = CovMatrix.from_returns(x)
        n = x.shape[0]
        assert kkt_residual(c, min_variance_noshort(c, n), n) <= 1e-8, f"draw {i}"


def _hull_swap_cov(seed):
    """Asset 3 is a copy of asset 0, 1 or 2 moved by 1e-8..3e-6."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 6))
    delta = 10 ** rng.uniform(-8, -5.5)
    x[3] = x[rng.integers(0, 3)] + delta * rng.standard_normal(6)
    return CovMatrix.from_returns(x)


@pytest.mark.parametrize("seed", [2, 3, 11])
def test_noshort_hull_swap_matches_brute_force(seed, monkeypatch):
    # when the twin of asset 3 is in the corral, the pivot of asset 3 is ~0
    # and it swaps weight with a member
    c = _hull_swap_cov(seed)
    swaps = _trace_steps(monkeypatch)["swaps"]
    res = min_variance_noshort(c)
    assert swaps
    assert kkt_residual(c, res, 4.0) <= 1e-13
    ref = brute_force_noshort(c)
    assert res.objective == pytest.approx(ref.objective, abs=1e-14)


def test_noshort_cap_reports_free_set_and_residual():
    c = CovMatrix(np.eye(5))
    assert min_variance_noshort(c, 5.0).iterations == 4  # four adds, no drop
    with pytest.raises(ActiveSetError) as info:
        min_variance_noshort(c, 5.0, max_iter=2)
    err = info.value
    assert err.iterate == [0, 1, 2]  # the start plus two adds
    mu_min, gap = err.residual
    assert mu_min < 0.0
    assert gap == pytest.approx(0.0, abs=1e-12)


def _cap_failure(c, cap, trace):
    """The cap's error, after checking that no step went past the cap."""
    with pytest.raises(ActiveSetError) as info:
        min_variance_noshort(c, max_iter=cap)
    err = info.value
    assert trace["steps"] <= cap
    assert err.iterate == trace["corral"].members.tolist()
    assert err.residual[1] == pytest.approx(0.0, abs=1e-12)
    return err


def test_noshort_cap_cuts_the_batch_to_the_steps_left(monkeypatch):
    # eleven outside assets tie and the batch takes eight of them; a cap of
    # five cuts it to five adds, and the next gradient fails at that corral
    trace = _trace_steps(monkeypatch)
    err = _cap_failure(CovMatrix(np.eye(12)), 5, trace)
    assert trace["steps"] == 5
    assert err.iterate == list(range(6))


@pytest.mark.parametrize("seed", [2, 3, 11])
def test_noshort_cap_fails_before_a_swap_past_it(seed, monkeypatch):
    # a swap is a drop plus an add: with room for its drop only, the solve
    # fails before the swap moves any weight, at the corral as it stands
    c = _hull_swap_cov(seed)
    trace = _trace_steps(monkeypatch)
    min_variance_noshort(c)
    (before,) = trace["swaps"]
    trace.update(steps=0, swaps=[])
    _cap_failure(c, before + 1, trace)
    assert trace["swaps"] == []


def test_noshort_batch_is_one_block_per_gradient(monkeypatch):
    # a flat panel (N = 100, r = 2.5), where many batch assets lie in the
    # affine hull of the corral: each gradient's batch is one extend call,
    # plus one for a swap's re-add, and an asset refused by the block waits
    # for the next gradient instead of starting a block of its own
    improving, gradients = qp._improving, []

    def traced_improving(*args):
        gradients.append(None)
        return improving(*args)

    monkeypatch.setattr(qp, "_improving", traced_improving)
    trace = _trace_steps(monkeypatch)
    c = CovMatrix.from_returns(_panel(100, 40))
    res = min_variance_noshort(c, 100.0)
    assert res.degenerate
    assert kkt_residual(c, res, 100.0) <= 1e-8
    assert trace["extends"] <= len(gradients) + len(trace["swaps"])


@pytest.mark.parametrize("n", range(1, 9))
def test_noshort_batch_can_free_every_asset(n):
    # one batch takes every outside asset, the corral ends up holding all N
    # and the next gradient has no candidate left
    c = CovMatrix(np.diag(np.linspace(1.0, 2.0, n)))
    res = min_variance_noshort(c, float(n))
    inv = 1.0 / np.diagonal(c.matrix)
    assert res.active_set == ()
    assert res.iterations == n - 1  # one batch of adds, no drop
    assert np.allclose(res.weights, n * inv / inv.sum(), rtol=1e-12, atol=0.0)
    assert kkt_residual(c, res, float(n)) <= 1e-12


def test_noshort_batch_stops_before_near_duplicate_pivot():
    # assets 1 and 2 are near-duplicates with tied multipliers at the start,
    # so both land in the first batch; asset 2 lies (to 1e-13) in the affine
    # hull of {0, 1}, so the block stops before it instead of appending it
    # on a ~0 pivot, and at the next gradient its multiplier is no longer
    # negative
    x = np.array([[1.0, 0.0], [0.0, 1.2], [0.0, 1.2 * (1.0 + 1e-13)]])
    c = CovMatrix(x @ x.T)
    res = min_variance_noshort(c, 1.0)
    assert res.iterations == 1  # the add of asset 1 only
    assert res.weights[2] == 0.0
    assert res.active_set == (2,)
    ref = brute_force_noshort(c, 1.0)
    assert res.objective == pytest.approx(ref.objective, rel=1e-12)
    assert kkt_residual(c, res, 1.0) <= 1e-12


def test_noshort_cap_cuts_the_batch_and_counts_only_its_adds():
    # at the start assets 1, 2 and 3 tie and form one batch, in that order;
    # asset 2 lies (to 1e-13) in the affine hull of {0, 1}. A cap of one
    # step cuts the batch to asset 1, and 2 is not improving at the next
    # gradient, so without asset 3 the solve ends at the cap with no error;
    # with it, the cap stops the solve before 3 is added. A cap of two cuts
    # the batch to 1 and 2; the block stops before 2, so it counts one step,
    # and 3 enters at the next gradient
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 1.2 * (1.0 + 1e-13), 0.0]])
    res = min_variance_noshort(CovMatrix(x @ x.T), 1.0, max_iter=1)
    assert res.iterations == 1
    assert res.active_set == (2,)
    x = np.vstack([x, [0.0, 0.0, 1.3]])
    c = CovMatrix(x @ x.T)
    with pytest.raises(ActiveSetError) as info:
        min_variance_noshort(c, 1.0, max_iter=1)
    assert info.value.iterate == [0, 1]
    res = min_variance_noshort(c, 1.0, max_iter=2)
    assert res.iterations == 2
    assert res.active_set == (2,)
    ref = brute_force_noshort(c, 1.0)
    assert res.objective == pytest.approx(ref.objective, rel=1e-12)
    assert kkt_residual(c, res, 1.0) <= 1e-12


def test_noshort_batch_breaks_ties_by_lowest_index():
    # eleven outside assets tie; the batch takes the eight lowest indices
    c = CovMatrix(np.eye(12))
    with pytest.raises(ActiveSetError) as info:
        min_variance_noshort(c, 12.0, max_iter=8)
    assert info.value.iterate == list(range(9))
    # the start asset is the smallest variance; the rest of the batch follows
    # it by (multiplier, index)
    d = np.full(12, 2.0)
    d[5] = 1.0
    with pytest.raises(ActiveSetError) as info:
        min_variance_noshort(CovMatrix(np.diag(d)), 12.0, max_iter=8)
    assert info.value.iterate == [5, 0, 1, 2, 3, 4, 6, 7, 8]


def test_noshort_ratio_tie_drops_the_lowest_asset_index():
    # from the start asset 2 one batch adds 3, 1 and 0, in multiplier order;
    # the affine weights of the new zero-weight members 1 and 0 are both
    # negative (-3.0 and -5.4), so both block at step length 0. Asset 0, the
    # lower index though the later corral position, leaves; then 1 keeps a
    # positive weight. Had asset 1 left, 0 would leave next and 1 come back
    # (six steps to the same optimum).
    x = np.array([[3, -2, -2, 3], [1, 3, -3, -3], [1, -3, -2, -1], [3, 3, -1, 2]], float)
    c = CovMatrix(x @ x.T)
    with pytest.raises(ActiveSetError) as info:
        min_variance_noshort(c, 4.0, max_iter=3)
    assert info.value.iterate == [2, 3, 1, 0]
    res = min_variance_noshort(c, 4.0)
    assert res.iterations == 4  # three adds, one drop
    assert res.active_set == (0,)
    assert res.weights[1] > 0.0
    ref = brute_force_noshort(c, 4.0)
    assert res.active_set == ref.active_set
    assert res.objective == pytest.approx(ref.objective, rel=1e-13)
    assert kkt_residual(c, res, 4.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12),
    t=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    duplicate=st.booleans(),
    sigma_spread=st.floats(0.0, 1.0),
    budget=st.floats(0.5, 3.0),
)
@example(n=12, t=24, seed=0, duplicate=False, sigma_spread=0.0, budget=1.0)
@example(n=12, t=5, seed=1, duplicate=True, sigma_spread=0.5, budget=2.0)
def test_noshort_batched_adds_match_brute_force(n, t, seed, duplicate, sigma_spread, budget):
    # N up to 12 puts more improving assets outside the corral than one
    # batch takes, and T < N flat phases with up to rank + 1 free assets
    c = _panel_cov(n, t, seed, duplicate, sigma_spread)
    res = min_variance_noshort(c, budget)
    ref = brute_force_noshort(c, budget)
    assert kkt_residual(c, res, budget) <= 1e-10
    assert abs(res.objective - ref.objective) <= 1e-10 * (1.0 + ref.objective)


@pytest.mark.parametrize("n", [60, 150])
def test_noshort_optimum_does_not_depend_on_the_batch_size(n, monkeypatch):
    # ADD_BATCH = 1 is the pure per-asset path below N = 1000; larger
    # batches, 16 as at N = 1000, take other paths to the same unique
    # optimum below r = 2. Above it every trial is flat, and the vertex
    # reached may depend on the path
    sizes = (1, 8, 16)
    for r in (0.5, 1.0, 1.5, 2.5):
        t = round(n / r)
        c = CovMatrix.from_returns(np.random.default_rng(n).standard_normal((n, t)))
        results = []
        for size in sizes:
            monkeypatch.setattr(qp, "ADD_BATCH", size)
            res = min_variance_noshort(c, float(n))
            assert kkt_residual(c, res, float(n)) <= 1e-10
            results.append(res)
        for res in results:
            if r < 2.0:
                assert not res.degenerate
                assert np.max(np.abs(res.weights - results[0].weights)) <= 1e-9
            else:
                assert res.degenerate
                assert np.count_nonzero(res.weights) <= t + 1


def test_iterations_zero_outside_the_active_set():
    c = CovMatrix(np.diag([1.0, 4.0, 2.0]))
    assert min_variance_equality(c, 3.0).iterations == 0
    assert brute_force_noshort(c, 3.0).iterations == 0


@pytest.mark.parametrize("r", [1.0, 1.9, 2.5])
def test_noshort_n400_kkt_and_flat_support(r):
    n = 400
    uni = AssetUniverse.constant(1.0, n)
    for trial in range(2):
        cfg = TrialConfig(universe=uni, t=round(n / r), constraint="noshort",
                          seed=11, trial_index=trial)
        c = CovMatrix.from_returns(generate_returns(cfg))
        res = min_variance_noshort(c, float(n))
        assert kkt_residual(c, res, float(n)) <= 1e-8
        assert res.degenerate == (res.objective <= c.tol_zero)
        if res.degenerate:
            assert np.count_nonzero(res.weights) <= c.rank + 1
            assert n - len(res.active_set) <= c.rank + 1


def test_zero_covariance_is_degenerate():
    c = CovMatrix(np.zeros((3, 3)))
    for solve in (min_variance_equality, min_variance_noshort, brute_force_noshort):
        res = solve(c, 3.0)
        assert res.objective == 0.0 and res.degenerate
        assert sum(res.weights) == pytest.approx(3.0, rel=1e-15)


@pytest.mark.parametrize("budget", [np.nan, np.inf])
@pytest.mark.parametrize(
    "solve", [min_variance_equality, min_variance_noshort, brute_force_noshort]
)
def test_solvers_reject_a_non_finite_budget(solve, budget):
    with pytest.raises(ValueError, match="budget"):
        solve(CovMatrix(np.eye(3)), budget)


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force_noshort(CovMatrix(np.eye(13)), 1.0)
    with pytest.raises(ValueError):
        brute_force_noshort(CovMatrix(np.eye(3)), -1.0)
