"""Tests for the saddle-point solvers.

The no-short budget multiplier is cross-checked against an independent
plain-bisection oracle built only on the (quadrature-validated) special
functions, and every solver output is checked to be a genuine stationary
point of the variational functional via finite differences.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from minvar import (
    AssetUniverse,
    CriticalPhaseError,
    NoConvergenceError,
    PhaseBoundaryError,
    RegularizerParams,
    build_mixture,
    critical_asymptotics,
    free_energy_functional,
    general_l1_solve,
    noshort_lambda,
    noshort_solution,
    stationarity_residual,
    true_optimum,
    unconstrained_solution,
)
from minvar.special import norm_cdf, norm_cdf_int, norm_pdf
from minvar import theory
from minvar.theory import (
    CRITICAL_MARGIN,
    NEWTON_MAX_ITER,
    _first_equation,
    _mean,
    _newton_right,
    _saddle_residual,
)


def norm_cdf_int2(x):
    """Second integral of the normal cdf, ((x^2 + 1) cdf(x) + x pdf(x)) / 2, as theory forms it."""
    x = np.asarray(x, dtype=float)
    return 0.5 * ((x * x + 1.0) * norm_cdf(x) + x * norm_pdf(x))


# ---------------------------------------------------------------------------
# Universe and parameter plumbing
# ---------------------------------------------------------------------------


def test_universe_moments():
    uni = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    assert uni.n == 3
    assert uni.mean_inv_sigma == pytest.approx((1 + 0.5 + 0.25) / 3)
    assert uni.mean_inv_var == pytest.approx((1 + 0.25 + 0.0625) / 3)


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 4096),
    seed=st.integers(0, 2**32 - 1),
    lo=st.floats(-300.0, 300.0),
    width=st.floats(0.0, 600.0),
    signs=st.sampled_from(["+", "-", "mixed"]),
)
def test_mean_helper_is_np_mean_bit_for_bit(size, seed, lo, width, signs):
    # magnitudes 10**lo .. 10**(lo + width), within 1e-300 .. 1e300
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(lo, min(lo + width, 300.0), size)
    if signs == "-":
        x = -x
    elif signs == "mixed":
        x *= rng.choice([-1.0, 1.0], size)
    assert _mean(x).hex() == float(np.mean(x)).hex()


def test_universe_validation():
    with pytest.raises(ValueError):
        AssetUniverse(sigmas=(1.0, -2.0))
    with pytest.raises(ValueError):
        AssetUniverse(sigmas=())
    with pytest.raises(ValueError):
        AssetUniverse(sigmas=(1.0, float("nan")))


def test_universe_constructors():
    uni = AssetUniverse.constant(2.0, 5)
    assert uni.sigmas == (2.0,) * 5
    log = AssetUniverse.lognormal(0.0, 0.5, 100, seed=3)
    assert log.n == 100
    assert all(s > 0 for s in log.sigmas)
    # Deterministic in the seed.
    assert log == AssetUniverse.lognormal(0.0, 0.5, 100, seed=3)


def test_regularizer_validation():
    assert RegularizerParams.none() == RegularizerParams(0.0, 0.0)
    assert RegularizerParams.short_ban().bans_shorts
    assert not RegularizerParams(0.0, 5.0).bans_shorts
    with pytest.raises(ValueError):
        RegularizerParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        RegularizerParams(float("inf"), 0.0)
    with pytest.raises(ValueError):
        RegularizerParams(0.0, -2.0)


def test_true_optimum():
    uni = AssetUniverse(sigmas=(1.0, 2.0))
    opt = true_optimum(uni)
    c2 = uni.mean_inv_var
    assert opt.weights[0] == pytest.approx(1.0 / (1.0 * c2))
    assert opt.weights[1] == pytest.approx(1.0 / (4.0 * c2))
    assert sum(opt.weights) == pytest.approx(2.0)
    assert opt.risk == pytest.approx(2.0 / c2)


# ---------------------------------------------------------------------------
# Unconstrained branch: closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
def test_unconstrained_closed_form_unit_sigma(r):
    uni = AssetUniverse.constant(1.0, 1)
    sol = unconstrained_solution(uni, r)
    assert sol.lam == pytest.approx((1 - r) / r, rel=1e-12)
    assert sol.delta == pytest.approx(r / (1 - r), rel=1e-12)
    assert sol.q0 == pytest.approx(1.0 / (1 - r), rel=1e-12)
    assert sol.q0_tilde == pytest.approx(1.0 / (1 - r), rel=1e-12)
    assert sol.n0 == 0.0
    assert sol.free_energy == pytest.approx(sol.lam / 2, rel=1e-12)


@pytest.mark.parametrize("r", [0.2, 0.6])
def test_unconstrained_closed_form_heterogeneous(r):
    uni = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    c2 = uni.mean_inv_var
    sol = unconstrained_solution(uni, r)
    assert sol.lam == pytest.approx((1 - r) / (r * c2), rel=1e-12)
    assert sol.delta == pytest.approx(r / (1 - r), rel=1e-12)
    assert sol.q0 == pytest.approx(1.0 / ((1 - r) * c2), rel=1e-12)
    # Relative overhead over the true optimum is universe independent.
    assert sol.q0_tilde == pytest.approx(1.0 / (1 - r), rel=1e-12)


@pytest.mark.parametrize("r", [1.0, 1.2, 5.0])
def test_unconstrained_beyond_boundary_raises(r):
    uni = AssetUniverse.constant(1.0, 1)
    with pytest.raises(PhaseBoundaryError, match="r = 1"):
        unconstrained_solution(uni, r)


# ---------------------------------------------------------------------------
# No-short branch: independent bisection oracle
# ---------------------------------------------------------------------------


def bisect_noshort_lambda(uni, r):
    """Plain interval bisection on the scaled-argument root equation.

    Uses only the quadrature-validated special functions; shares no code
    with the production solver beyond those primitives.
    """
    sig = np.asarray(uni.sigmas)

    def g(lam):
        return np.mean(norm_cdf_int2(np.sqrt(lam) / sig)) - 1.0 / (2.0 * r)

    lo, hi = 0.0, 1.0
    while g(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("r", [0.3, 0.7, 1.0, 1.5, 1.9, 1.99])
def test_noshort_lambda_matches_bisection_unit_sigma(r):
    uni = AssetUniverse.constant(1.0, 1)
    assert noshort_lambda(uni, r) == pytest.approx(
        bisect_noshort_lambda(uni, r), rel=1e-10, abs=1e-14
    )


@pytest.mark.parametrize("r", [0.5, 1.2, 1.8])
def test_noshort_lambda_matches_bisection_heterogeneous(r):
    uni = AssetUniverse(sigmas=(0.5, 1.0, 2.0, 4.0))
    assert noshort_lambda(uni, r) == pytest.approx(
        bisect_noshort_lambda(uni, r), rel=1e-10, abs=1e-14
    )


def test_noshort_solution_internal_consistency():
    uni = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    r = 1.25
    sol = noshort_solution(uni, r)
    sig = np.asarray(uni.sigmas)
    b = np.sqrt(sol.lam) / sig
    # Root equation satisfied.
    assert np.mean(norm_cdf_int2(b)) == pytest.approx(1.0 / (2 * r), rel=1e-12)
    # Susceptibility from the surviving fraction.
    phi_bar = np.mean(norm_cdf(b))
    assert sol.delta == pytest.approx(r * phi_bar / (1 - r * phi_bar), rel=1e-12)
    # Overlap from multiplier and susceptibility.
    assert sol.q0 == pytest.approx(sol.lam * r * (1 + sol.delta) ** 2, rel=1e-12)
    # Eliminated fraction: average left-tail mass.
    assert sol.n0 == pytest.approx(np.mean(norm_cdf(-b)), rel=1e-12)
    assert 0.0 < sol.n0 < 0.5
    # Budget functional value sits at half the multiplier at this corner.
    assert sol.free_energy == pytest.approx(sol.lam / 2, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    log_r=st.floats(math.log(1e-8), math.log(1.99)),
    sigmas=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=6),
)
@example(log_r=math.log(1e-6), sigmas=[1.0])
@example(log_r=math.log(5e-5), sigmas=[1.0])
@example(log_r=math.log(1e-8), sigmas=[0.05, 20.0])
def test_noshort_solution_small_r_relative_root(log_r, sigmas):
    r = math.exp(log_r)
    uni = AssetUniverse(sigmas=tuple(sigmas))
    sol = noshort_solution(uni, r)
    assert sol.lam > 0 and sol.q0 > 0 and sol.delta >= 0
    assert sol.q0_hat < 0 < sol.delta_hat
    assert 0.0 <= sol.n0 < 0.5
    target = 0.5 / r
    root = np.mean(norm_cdf_int2(np.sqrt(sol.lam) / np.asarray(uni.sigmas)))
    assert abs(root - target) <= 1e-12 * target


def test_noshort_scale_covariance():
    base = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    r = 1.4
    ref = noshort_solution(base, r)
    for s in (3.0, 7.0):
        scaled = AssetUniverse(sigmas=tuple(s * x for x in base.sigmas))
        sol = noshort_solution(scaled, r)
        assert sol.lam == pytest.approx(s * s * ref.lam, rel=1e-10)
        assert sol.q0 == pytest.approx(s * s * ref.q0, rel=1e-10)
        assert sol.delta == pytest.approx(ref.delta, rel=1e-10)
        assert sol.q0_tilde == pytest.approx(ref.q0_tilde, rel=1e-10)
        assert sol.n0 == pytest.approx(ref.n0, rel=1e-10)


def test_noshort_monotonicity_in_r():
    uni = AssetUniverse.constant(1.0, 1)
    rs = np.linspace(0.2, 1.95, 12)
    sols = [noshort_solution(uni, r) for r in rs]
    lams = [s.lam for s in sols]
    n0s = [s.n0 for s in sols]
    q0ts = [s.q0_tilde for s in sols]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert all(a < b for a, b in zip(n0s, n0s[1:]))
    assert all(a < b for a, b in zip(q0ts, q0ts[1:]))
    assert all(s.q0_tilde >= 1.0 for s in sols)


def test_noshort_elimination_ordering():
    uni = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    sol = noshort_solution(uni, 1.0)
    probs = sol.elim_prob
    assert probs[0] < probs[1] < probs[2]


@pytest.mark.parametrize("r", [2.0, 2.5])
def test_noshort_beyond_boundary_raises(r):
    uni = AssetUniverse.constant(1.0, 1)
    with pytest.raises(CriticalPhaseError, match="r = 2"):
        noshort_solution(uni, r)


@pytest.mark.parametrize(
    "uni, gap",
    [
        (AssetUniverse.lognormal(0.0, 1.5, 20, 1), 4.4e-16),
        (AssetUniverse.constant(1.0, 20), 1e-15),
        (AssetUniverse.constant(1.0, 20), 4.4e-16),
    ],
)
def test_noshort_refuses_within_critical_margin(uni, gap):
    # below the margin 1 - r * mean Phi is lost in rounding: the spread
    # universe answered delta * (2 - r) = 2 against the asymptote 4, the
    # uniform one 9 at gap 1e-15 and a rounded-to-zero denominator at 4.4e-16
    r = 2.0 - gap
    for solve in (noshort_lambda, noshort_solution):
        with pytest.raises(CriticalPhaseError, match="lost in rounding"):
            solve(uni, r)


@pytest.mark.parametrize(
    "uni",
    [AssetUniverse.lognormal(0.0, 1.5, 20, 1), AssetUniverse.constant(1.0, 20)],
)
def test_noshort_answers_just_outside_critical_margin(uni):
    r = 2.0 - 2e-13
    assert r <= 2.0 - CRITICAL_MARGIN
    sol = noshort_solution(uni, r)
    assert sol.delta * (2.0 - r) == pytest.approx(critical_asymptotics(uni).delta_slope, rel=1e-2)


# ---------------------------------------------------------------------------
# Newton from the convex side
# ---------------------------------------------------------------------------


def _brentq_noshort_lambda(uni, r):
    """The banned-shorts multiplier by scipy's brentq on mean W(sqrt(lam)/sigma) = 1/(2r)."""
    s_up = math.sqrt((2.0 / r - 1.0) / uni.mean_inv_var)
    s = scipy.optimize.brentq(lambda s: float(np.mean(norm_cdf_int2(s / uni._sig))) - 0.5 / r,
                              0.0, s_up, xtol=min(1e-15, 1e-9 * s_up),
                              rtol=4 * np.finfo(float).eps)
    return s * s


@pytest.mark.parametrize(
    "uni",
    [
        AssetUniverse.constant(1.0, 50),
        AssetUniverse.lognormal(0.0, 0.5, 200, 7),
        AssetUniverse.lognormal(0.0, 1.5, 20, 1),
    ],
)
@pytest.mark.parametrize("r", [1e-6, 0.5, 1.9, 2.0 - 1e-12])
def test_noshort_lambda_matches_scipy_brentq(uni, r):
    target = 0.5 / r
    ref = _brentq_noshort_lambda(uni, r)
    lam = noshort_lambda(uni, r)
    h = float(np.mean(norm_cdf_int2(math.sqrt(lam) / uni._sig))) - target
    assert abs(h) <= 1e-12 * max(1.0, target)
    if r <= 1.9:
        # within 1e-10 of r = 2 the root is only as sharp as 1/4 - 1/(2r)
        assert lam == pytest.approx(ref, rel=1e-12)


def test_newton_right_falls_monotonically_onto_the_root():
    seen = []

    def f(x):
        seen.append(x)
        return math.exp(x) - 2.0, math.exp(x)

    x, fx = _newton_right(f, 5.0)
    assert x == pytest.approx(math.log(2.0), rel=1e-15) and abs(fx) < 1e-15
    assert all(a > b for a, b in zip(seen, seen[1:]))
    assert seen[-1] == x


def test_newton_right_hits_its_cap():
    with pytest.raises(NoConvergenceError, match="still falling") as info:
        _newton_right(lambda x: (1.0, 1.0), 0.0)
    assert info.value.iterate == -NEWTON_MAX_ITER
    assert info.value.residual == 1.0


def test_import_leaves_scipy_optimize_unloaded():
    code = ("import sys, minvar, minvar.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Critical-point asymptotics
# ---------------------------------------------------------------------------


def test_critical_asymptotics_against_solver():
    uni = AssetUniverse(sigmas=(1.0, 2.0))
    cp = critical_asymptotics(uni)
    assert cp.r_c == 2.0
    c1 = uni.mean_inv_sigma
    assert cp.q0_limit == pytest.approx(math.pi / c1**2, rel=1e-12)
    assert cp.q0_tilde_limit == pytest.approx(math.pi * uni.mean_inv_var / c1**2, rel=1e-12)
    assert cp.n0_limit == 0.5
    r = 1.9999
    sol = noshort_solution(uni, r)
    assert sol.lam == pytest.approx(cp.lambda_coeff * (2 - r) ** 2, rel=5e-3)
    assert sol.delta == pytest.approx(cp.delta_slope / (2 - r), rel=5e-3)
    assert sol.q0 == pytest.approx(cp.q0_limit, rel=5e-3)
    assert sol.q0_tilde >= math.pi * uni.mean_inv_var / c1**2 * (1 - 5e-3)


# ---------------------------------------------------------------------------
# Variational functional and stationarity
# ---------------------------------------------------------------------------


def _solutions_for_stationarity():
    out = []
    for sigmas in [(1.0,), (1.0, 2.0, 4.0)]:
        uni = AssetUniverse(sigmas=sigmas)
        out.append(unconstrained_solution(uni, 0.5))
        for r in (0.5, 1.0, 1.5):
            out.append(noshort_solution(uni, r))
        out.append(
            general_l1_solve(uni, 0.8, RegularizerParams(0.3, 1.5))
        )
    return out


@pytest.mark.parametrize("sol", _solutions_for_stationarity())
def test_solver_outputs_are_stationary(sol):
    res = stationarity_residual(sol.order_params, sol.universe, sol.r, sol.reg)
    assert res < 1e-6


def test_stationarity_oracle_has_teeth():
    # A deliberately perturbed point must register a large gradient,
    # otherwise the finite-difference check proves nothing.
    uni = AssetUniverse.constant(1.0, 1)
    sol = noshort_solution(uni, 1.0)
    lam, q0, delta, q0_hat, delta_hat = sol.order_params
    bad = (lam * 1.05, q0, delta, q0_hat, delta_hat)
    assert stationarity_residual(bad, sol.universe, sol.r, sol.reg) > 1e-3


@pytest.mark.parametrize("r", [0.3, 0.9])
def test_corner_free_energy_is_the_functional_bit_for_bit(r):
    # the solution record takes f from the S_W it already holds; at the
    # unpenalized corners the functional re-derives the same S_W exactly
    uni = AssetUniverse.lognormal(0.0, 0.7, 50, 3)
    for sol in (unconstrained_solution(uni, r), noshort_solution(uni, r)):
        assert sol.free_energy == free_energy_functional(sol.order_params, uni, r, sol.reg)


def test_functional_value_matches_reported_free_energy():
    uni = AssetUniverse(sigmas=(1.0, 2.0))
    reg = RegularizerParams(0.3, 1.5)
    sol = general_l1_solve(uni, 0.8, reg)
    val = free_energy_functional(sol.order_params, uni, 0.8, reg)
    assert val == pytest.approx(sol.free_energy, rel=1e-10)
    # Away from the corners the budget value exceeds half the multiplier,
    # by exactly the (negative) overlap conjugate.
    assert sol.free_energy == pytest.approx(sol.lam + sol.q0_hat, rel=1e-10)
    assert abs(sol.free_energy - sol.lam / 2) > 1e-3


# ---------------------------------------------------------------------------
# General two-sided solver: corner agreement and robustness
# ---------------------------------------------------------------------------


def _free_corner(uni, r):
    """(lam, q0, delta, q0_hat, delta_hat) of the unpenalized estimator, in closed form."""
    c2 = uni.mean_inv_var
    lam = (1.0 - r) / (r * c2)
    return (lam, 1.0 / ((1.0 - r) * c2), r / (1.0 - r), -0.5 * lam, (1.0 - r) / (2.0 * r))


def _ban_corner(uni, r):
    """The same for the banned-shorts estimator, from the brentq multiplier.

    With b = sqrt(lam)/sigma: delta = r mean Phi(b) / (1 - r mean Phi(b)),
    q0 = lam r (1 + delta)^2, q0_hat = -lam/2, delta_hat = 1/(2r(1 + delta)).
    The denominator is taken as sqrt(lam) r mean(Psi(b)/sigma), equal at the
    root: formed as written, it cancels and put q0 7% off at 2 - r = 1e-13.
    """
    lam = _brentq_noshort_lambda(uni, r)
    b = math.sqrt(lam) / uni._sig
    delta = np.mean(norm_cdf(b)) / (math.sqrt(lam) * np.mean(norm_cdf_int(b) / uni._sig))
    v = 1.0 + delta
    return (lam, lam * r * v * v, delta, -0.5 * lam, 1.0 / (2.0 * r * v))


def _count_calls(monkeypatch, name):
    """Wrap `theory.<name>`; returns the list its calls are appended to."""
    calls = []
    wrapped = getattr(theory, name)

    def counted(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(theory, name, counted)
    return calls


RGRID = np.linspace(0.1, 0.9, 5)


@pytest.mark.parametrize("r", RGRID)
def test_general_solver_matches_unconstrained_corner(r):
    uni = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    sol = general_l1_solve(uni, r, RegularizerParams.none())
    for a, b in zip(sol.order_params, _free_corner(uni, r)):
        assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("gap", [1e-6, 1e-7, 1e-8, 1e-9, 1.1e-12, 2.0**-52])
def test_general_solver_matches_unconstrained_corner_near_r_1(monkeypatch, gap):
    # a root solve would stagnate this close to r = 1 (Newton from the
    # banned-shorts root ended 6e-5 relative off at gap 1.1e-12); the corner
    # is the closed form itself, with no saddle residual evaluated
    calls = _count_calls(monkeypatch, "_saddle_residual")
    uni = AssetUniverse.lognormal(0.0, 0.95, 37, 6108)
    r = 1.0 - gap
    sol = general_l1_solve(uni, r, RegularizerParams(0.0, 0.0))
    assert calls == []
    assert sol.lam == (1.0 - r) / (r * uni.mean_inv_var)
    # delta and q0 come from saddle-point averages, yet hold their closed forms
    ulps = 5 * np.finfo(float).eps
    assert sol.delta == pytest.approx(r / (1.0 - r), rel=ulps)
    assert sol.q0 == pytest.approx(1.0 / ((1.0 - r) * uni.mean_inv_var), rel=ulps)


@pytest.mark.parametrize("r", np.linspace(0.1, 1.9, 5))
def test_general_solver_matches_noshort_corner(r):
    # under a ban eta1 only shifts lam: the banned-shorts root solves both
    # saddle equations for every eta1, and is returned as it is
    uni = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    ref = general_l1_solve(uni, r, RegularizerParams.short_ban())
    for a, b in zip(ref.order_params, _ban_corner(uni, r)):
        assert a == pytest.approx(b, rel=1e-8, abs=1e-10)
    for eta1 in (0.3, 32.0):
        sol = general_l1_solve(uni, r, RegularizerParams(eta1, math.inf))
        assert (sol.delta, sol.q0, sol.n0) == (ref.delta, ref.q0, ref.n0)
        assert sol.lam == ref.lam + eta1


@pytest.mark.parametrize("eta1", [0.0, 0.3, 32.0])
def test_general_solver_under_a_ban_runs_no_newton(monkeypatch, eta1):
    calls = _count_calls(monkeypatch, "_saddle_residual")
    uni = AssetUniverse.lognormal(0.0, 0.5, 20, 3)
    for r in (0.1, 0.5, 1.0, 1.5, 1.9):
        general_l1_solve(uni, r, RegularizerParams(eta1, math.inf))
    assert calls == []


@pytest.mark.parametrize("eta, r, root_evals", [
    pytest.param((0.3, 1.5), 0.5, 0, id="penalized-r0.5"),
    pytest.param((0.3, 1.5), 1.5, 0, id="penalized-r1.5"),
    pytest.param((0.3, math.inf), 1.5, 1, id="ban-r1.5"),
    pytest.param((0.0, 0.0), 0.5, 1, id="closed-form-r0.5"),
])
def test_a_root_is_assembled_from_its_own_tail_terms(monkeypatch, eta, r, root_evals):
    # every saddle residual and every first-equation value evaluates the tail
    # terms once; a Newton root is assembled from its last evaluation, the
    # ban and closed-form roots from one evaluation at the root, and
    # `_assemble` itself evaluates none
    counts = dict(tails=0, in_assemble=0, residual=0, first=0)
    inside = []
    tail_terms, assemble = theory._tail_terms, theory._assemble
    residual, first_equation = theory._saddle_residual, theory._first_equation

    def counted_tails(*args, **kwargs):
        counts["tails"] += 1
        counts["in_assemble"] += bool(inside)
        return tail_terms(*args, **kwargs)

    def counted_assemble(*args):
        inside.append(args)
        try:
            return assemble(*args)
        finally:
            inside.pop()

    def counted_residual(*args):
        counts["residual"] += 1
        return residual(*args)

    def counted_first_equation(*args):
        first = first_equation(*args)

        def counted(m):
            counts["first"] += 1
            return first(m)

        return counted

    for name, fn in (("_tail_terms", counted_tails), ("_assemble", counted_assemble),
                     ("_saddle_residual", counted_residual),
                     ("_first_equation", counted_first_equation)):
        monkeypatch.setattr(theory, name, fn)
    general_l1_solve(AssetUniverse.lognormal(0.0, 0.5, 50, 7), r, RegularizerParams(*eta))
    assert counts["in_assemble"] == 0
    assert (counts["residual"] > 0) == (root_evals == 0)
    assert counts["tails"] == counts["residual"] + counts["first"] + root_evals


def test_general_solver_falls_back_to_the_bracketed_start(monkeypatch):
    # at r = 1 under a penalty of 1e-12 sigma the equations barely see m, so
    # Newton from the banned-shorts root leaves the root unpinned
    calls = _count_calls(monkeypatch, "_bracketed_start")
    sol = general_l1_solve(AssetUniverse((2.0,)), 1.0, RegularizerParams(0.0, 1e-12))
    assert len(calls) == 1
    assert max(abs(e) for e in _saddle_equations(sol)) < 1e-10
    assert math.sqrt(-2.0 * sol.q0_hat) == pytest.approx(7.36e-5, rel=1e-2)


def test_large_short_penalty_approaches_ban():
    uni = AssetUniverse.constant(1.0, 1)
    r = 1.3
    ban = noshort_solution(uni, r)
    near = general_l1_solve(uni, r, RegularizerParams(0.0, 1e6))
    assert near.lam == pytest.approx(ban.lam, rel=1e-9)
    assert near.n0 == pytest.approx(ban.n0, rel=1e-9)


def test_symmetric_penalty_interpolates():
    # A symmetric two-sided penalty keeps more assets than a hard ban
    # (smaller zero fraction at the same ratio than the one-sided ban has
    # shorts eliminated) and still prices the budget between the corners.
    uni = AssetUniverse.constant(1.0, 1)
    r = 0.8
    sol = general_l1_solve(uni, r, RegularizerParams(0.5, 0.5))
    free = unconstrained_solution(uni, r)
    assert sol.lam > free.lam
    assert 0.0 < sol.n0 < 1.0


def test_general_solver_beyond_known_boundaries_raises():
    uni = AssetUniverse.constant(1.0, 1)
    with pytest.raises(PhaseBoundaryError):
        general_l1_solve(uni, 1.0, RegularizerParams.none())
    with pytest.raises(CriticalPhaseError):
        general_l1_solve(uni, 2.0, RegularizerParams.short_ban())


@pytest.mark.parametrize("reg", [RegularizerParams(0.3, 1.5), RegularizerParams(0.1, 0.5),
                                 RegularizerParams(0.0, 2.0), RegularizerParams(0.5, 0.0)])
@pytest.mark.parametrize("r", [2.0, 2.0001, 2.5, 3.0])
def test_penalized_solver_is_critical_from_r_2(reg, r):
    uni = AssetUniverse.lognormal(0.0, 0.5, 20, 3)
    with pytest.raises(CriticalPhaseError):
        general_l1_solve(uni, r, reg)


@pytest.mark.parametrize("r, reason", [(2.5, "zero-variance"), (2.0 - 1e-15, "lost in rounding")])
def test_critical_refusal_names_the_side_of_r_2(r, reason):
    # from r = 2 on the optimum is flat; just below it the ratio is fine but
    # 2 - r is lost in rounding. Every entry point gives the reason of its side.
    uni = AssetUniverse.lognormal(0.0, 0.5, 20, 3)
    for solve in (noshort_lambda, noshort_solution,
                  lambda uni, r: general_l1_solve(uni, r, RegularizerParams.short_ban()),
                  lambda uni, r: general_l1_solve(uni, r, RegularizerParams(0.3, 1.5))):
        with pytest.raises(CriticalPhaseError, match="r = 2") as exc:
            solve(uni, r)
        assert reason in str(exc.value)


@pytest.mark.parametrize("solve", [
    lambda uni, r: noshort_lambda(uni, r),
    lambda uni, r: noshort_solution(uni, r),
    lambda uni, r: unconstrained_solution(uni, r),
    lambda uni, r: general_l1_solve(uni, r, RegularizerParams(0.3, 1.5)),
    lambda uni, r: free_energy_functional((1.0, 1.0, 0.5, -0.5, 1.0), uni, r,
                                          RegularizerParams.none()),
], ids=["noshort_lambda", "noshort_solution", "unconstrained_solution",
        "general_l1_solve", "free_energy_functional"])
def test_nan_ratio_is_refused(solve):
    # nan fails every comparison, so only `not r > 0` refuses it up front
    with pytest.raises(ValueError, match="r must be positive"):
        solve(AssetUniverse((1.0, 2.0)), math.nan)


def test_error_hierarchy():
    # Callers filter on these relationships; keep them stable.
    from minvar import ActiveSetError, CovarianceError

    assert issubclass(CriticalPhaseError, PhaseBoundaryError)
    assert issubclass(PhaseBoundaryError, ValueError)
    assert issubclass(NoConvergenceError, RuntimeError)
    assert issubclass(ActiveSetError, NoConvergenceError)
    assert issubclass(CovarianceError, ValueError)
    err = NoConvergenceError("stalled", iterate=(1.0, 2.0), residual=3e-4)
    assert err.iterate == (1.0, 2.0)
    assert err.residual == 3e-4


# ---------------------------------------------------------------------------
# General two-sided solver: property test over the whole penalty family
# ---------------------------------------------------------------------------


def _saddle_equations(sol):
    """Residuals of both saddle equations at `sol`, from special functions only.

    The shifted multiplier m = lam - eta1 is read back from the positive
    centers m * r * (1 + delta) / sigma^2, which carry it to full relative
    precision even where lam lies within a few ulps of eta1.
    """
    sig = np.asarray(sol.universe.sigmas)
    r, reg = sol.r, sol.reg
    u = math.sqrt(-2.0 * sol.q0_hat)
    m = sol.center_pos * sig**2 / (r * (1.0 + sol.delta))
    b1 = m / (sig * u)
    s_w, s_psi, s_phi = norm_cdf_int2(b1), norm_cdf_int(b1) / sig, norm_cdf(b1)
    if not reg.bans_shorts:
        b2 = (sol.lam + reg.eta2) / (sig * u)
        s_w = s_w + norm_cdf_int2(-b2)
        s_psi = s_psi - norm_cdf_int(-b2) / sig
        s_phi = s_phi + norm_cdf(-b2)
    return (2.0 * r * np.mean(s_w) - 1.0,
            u * r * np.mean(s_psi) - 1.0 + r * np.mean(s_phi))


def _stationarity_tolerance(sol):
    """1e-6, widened by the roundoff floor of the finite differences.

    Each central difference steps a coordinate by ~6e-6 of the scale on
    which the functional varies in it, so its roundoff is ~eps/6e-6 of the
    largest term of the functional over that scale. Near r = 2, q0_hat and
    delta_hat are tiny and that floor exceeds any fixed threshold.
    """
    lam, q0, delta, q0_hat, delta_hat = sol.order_params
    r = sol.r
    terms = max(abs(lam), abs(delta * q0_hat), abs(delta_hat * q0),
                q0 / (2.0 * r * (1.0 + delta)), -q0_hat / (2.0 * r * delta_hat))
    edge = min(sol.universe.sigmas) * math.sqrt(-2.0 * q0_hat)
    scales = (max(lam - sol.reg.eta1, edge), q0, 1.0 + delta, -q0_hat, delta_hat)
    return 1e-6 * max(1.0, terms / min(scales))


def _check_penalized(uni, r, reg):
    if reg == RegularizerParams.none() and r >= 1:
        with pytest.raises(PhaseBoundaryError):
            general_l1_solve(uni, r, reg)
        return
    if r > 2.0 - CRITICAL_MARGIN:
        with pytest.raises(CriticalPhaseError):
            general_l1_solve(uni, r, reg)
        return
    try:
        sol = general_l1_solve(uni, r, reg)
    except PhaseBoundaryError as exc:
        # documented: at r >= 1 a penalty too weak to resolve in double
        # precision; at r = 1 the equations lose eta from ~1e-20 sigma on
        assert "too weak" in str(exc)
        assert r >= 1 and reg.eta1 + reg.eta2 < 1e-12 * max(uni.sigmas)
        return
    # ReplicaSolution itself checks lam, q0, delta_hat > 0 > q0_hat,
    # delta >= 0 and n0 in [0, 1]
    assert sol.r == r and sol.reg == reg
    # every budget-feasible portfolio pays eta1 per unit budget
    assert sol.lam >= reg.eta1
    assert sol.q0_tilde >= 1.0 - 1e-9
    assert max(abs(e) for e in _saddle_equations(sol)) < 1e-10
    assert stationarity_residual(sol.order_params, uni, r, reg) < _stationarity_tolerance(sol)
    assert build_mixture(sol).mean() == pytest.approx(1.0, rel=1e-9)
    if reg == RegularizerParams.none():
        ref, gap = _free_corner(uni, r), 1.0 - r
    elif reg == RegularizerParams.short_ban():
        ref, gap = _ban_corner(uni, r), 2.0 - r
    else:
        return
    # solver and reference resolve their equations to ~eps; the order
    # parameters inherit a condition number ~1/gap from the nearby phase boundary
    for a, b in zip(sol.order_params, ref):
        assert a == pytest.approx(b, rel=1e-8 + 1e-14 / gap, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    log_r=st.floats(math.log(1e-6), math.log(2.0), exclude_max=True),
    spread=st.floats(0.0, 3.0),
    n=st.integers(1, 39),
    seed=st.integers(0, 2**16),
    eta1=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    eta2=st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 50.0)),
)
# r = 1 - 2^-52 under a penalty of 2^-126: a band below rounding, which
# Newton cannot pin, so the closed-form root is the answer
@example(log_r=math.log1p(-2.0**-52), spread=0.0, n=1, seed=0, eta1=0.0, eta2=2.0**-126)
# r = 1 - 2^-52 with no penalty: delta = r/(1 - r) must come out of the
# closing band whole, or the mixture mean misses 1 by ~4e-9
@example(log_r=math.log1p(-2.0**-52), spread=0.5, n=1, seed=11, eta1=0.0, eta2=0.0)
@example(log_r=math.log1p(-2.0**-52), spread=2.0, n=1, seed=11, eta1=0.0, eta2=0.0)
@example(log_r=math.log1p(-2.0**-52), spread=2.0, n=5, seed=11, eta1=0.0, eta2=0.0)
def test_penalized_solver_property(log_r, spread, n, seed, eta1, eta2):
    # eta1 = inf is refused by RegularizerParams itself (test_regularizer_validation)
    uni = AssetUniverse.lognormal(0.0, spread, n, seed)
    _check_penalized(uni, math.exp(log_r), RegularizerParams(eta1, eta2))


def test_penalized_solver_wide_spread_large_eta1():
    # sigma from 2e-4 to 203: lam sits at eta1 * (1 + 6e-7), so forming
    # lam - eta1 in the unknowns would discard about six digits of b1
    uni = AssetUniverse.lognormal(0.0, 2.873252209593038, 30, 250)
    _check_penalized(uni, 0.05623889436770299, RegularizerParams(32.45170760348181, 0.0))


@pytest.mark.parametrize("reg", [RegularizerParams(0.3, math.inf), RegularizerParams(0.3, 1.5)])
def test_saddle_jacobian_matches_central_differences(reg):
    uni = AssetUniverse.lognormal(0.0, 0.8, 25, 11)
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = float(rng.uniform(0.05, 1.95))
        x = np.array([rng.uniform(-0.25, 3.0), rng.uniform(0.1, 3.0)])
        f, jac, tails = _saddle_residual(x, uni, r, reg)
        assert tails.d is not None
        first = _first_equation(uni, r, reg, x[1])(x[0])
        assert first == pytest.approx((f[0], jac[0, 0]), rel=1e-15, abs=0.0)
        fd = np.empty((2, 2))
        for j in range(2):
            h = 1e-6 * max(abs(x[j]), 1e-2)
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (_saddle_residual(x + e, uni, r, reg)[0]
                        - _saddle_residual(x - e, uni, r, reg)[0]) / (2.0 * h)
        assert np.allclose(jac, fd, rtol=1e-6, atol=1e-8 * np.max(np.abs(fd)))
