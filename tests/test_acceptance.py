"""Acceptance suite: twelve end-to-end criteria with stated tolerances.

Every test prints (and records for the terminal summary) one line

    CRITERION <k>: PASS|FAIL — <key numbers>

and then asserts, so a red criterion still reports its measurements.
Statistical criteria fix seed 0 a priori; "within 3 standard errors"
always means the Monte Carlo standard error of the mean, the analytic
reference being exact.
"""

import math
import time

import numpy as np
import pytest
import scipy.optimize

from minvar import (
    AssetUniverse,
    CovMatrix,
    PhaseBoundaryError,
    RegularizerParams,
    brute_force_noshort,
    build_mixture,
    critical_asymptotics,
    general_l1_solve,
    kkt_residual,
    min_variance_noshort,
    noshort_solution,
    stationarity_residual,
    sweep,
    unconstrained_solution,
    weight_histogram,
)
from minvar import theory
from minvar.cli import main, read_table
from minvar.mc import bin_grid
from minvar.special import norm_cdf, norm_cdf_int, norm_pdf


def norm_cdf_int2(x):
    """Second integral of the normal cdf, ((x^2 + 1) cdf(x) + x pdf(x)) / 2, as theory forms it."""
    x = np.asarray(x, dtype=float)
    return 0.5 * ((x * x + 1.0) * norm_cdf(x) + x * norm_pdf(x))


def _check(fails, cond, msg):
    if not cond:
        fails.append(msg)


def test_criterion_1_special_function_identities(criterion_recorder):
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(2026)
    x = rng.uniform(-6.0, 6.0, size=1000)
    refl = np.max(np.abs(norm_cdf_int2(x) + norm_cdf_int2(-x) - (x * x + 1.0) / 2.0))
    rec = np.max(
        np.abs(norm_cdf_int2(x) - 0.5 * x * norm_cdf_int(x) - 0.5 * norm_cdf(x))
    )
    _check(fails, refl < 1e-12, f"reflection identity residual {refl:.3e} >= 1e-12")
    _check(fails, rec < 1e-12, f"recursion identity residual {rec:.3e} >= 1e-12")
    _check(fails, norm_cdf_int2(0.0) == 0.25, "value at zero is not exactly 1/4")
    _check(fails, norm_cdf(0.0) == 0.5, "cdf at zero is not exactly 1/2")
    dt = time.perf_counter() - t0
    _check(fails, dt < 1.0, f"runtime {dt:.2f}s >= 1s")
    line = (
        f"CRITERION 1: {'PASS' if not fails else 'FAIL'} — 1000 pts, "
        f"max residuals {refl:.2e}/{rec:.2e} (tol 1e-12), exact values at 0, {dt:.2f}s"
    )
    criterion_recorder(line)
    assert not fails, "; ".join(fails)


def test_criterion_2_unconstrained_closed_forms(criterion_recorder):
    t0 = time.perf_counter()
    fails = []
    uni = AssetUniverse.constant(1.0, 1)
    worst = 0.0
    for r in np.arange(0.1, 0.91, 0.1):
        r = float(round(r, 10))
        sol = unconstrained_solution(uni, r)
        diffs = (
            abs(sol.lam - (1 - r) / r),
            abs(sol.delta - r / (1 - r)),
            abs(sol.q0_tilde - 1 / (1 - r)),
            abs(sol.free_energy - sol.lam / 2),
        )
        worst = max(worst, *diffs)
        _check(
            fails,
            max(diffs) <= 1e-10,
            f"closed-form deviation {max(diffs):.2e} at r={r}",
        )
    dt = time.perf_counter() - t0
    _check(fails, dt < 1.0, f"runtime {dt:.2f}s >= 1s")
    criterion_recorder(
        f"CRITERION 2: {'PASS' if not fails else 'FAIL'} — r=0.1..0.9, "
        f"worst closed-form deviation {worst:.2e} (tol 1e-10), {dt:.2f}s"
    )
    assert not fails, "; ".join(fails)


def test_criterion_3_stationarity_of_solver_outputs(criterion_recorder):
    fails = []
    worst_grad, worst_f = 0.0, 0.0
    n_points = 0
    for sigmas in [(1.0,), (1.0, 2.0, 4.0)]:
        uni = AssetUniverse(sigmas=sigmas)
        for r in (0.5, 1.0, 1.5):
            # Unconstrained corner: defined only below r = 1; at and above,
            # refusing with the phase error is the correct output.
            if r < 1:
                sols = [unconstrained_solution(uni, r)]
            else:
                try:
                    unconstrained_solution(uni, r)
                    fails.append(f"unconstrained at r={r} did not refuse")
                    sols = []
                except PhaseBoundaryError:
                    sols = []
            sols.append(noshort_solution(uni, r))
            for sol in sols:
                n_points += 1
                g = stationarity_residual(sol.order_params, sol.universe, sol.r, sol.reg)
                fdev = abs(sol.free_energy - sol.lam / 2)
                worst_grad = max(worst_grad, g)
                worst_f = max(worst_f, fdev)
                _check(
                    fails, g < 1e-6,
                    f"gradient {g:.2e} at r={r}, sigmas={sigmas}, reg={sol.reg}",
                )
                _check(
                    fails, fdev <= 1e-8,
                    f"f != lam/2 by {fdev:.2e} at r={r}, sigmas={sigmas}",
                )
    criterion_recorder(
        f"CRITERION 3: {'PASS' if not fails else 'FAIL'} — {n_points} solver outputs, "
        f"worst FD gradient {worst_grad:.2e} (tol 1e-6), "
        f"worst |f-lam/2| {worst_f:.2e} (tol 1e-8), boundary refusals checked"
    )
    assert not fails, "; ".join(fails)


def test_criterion_4_critical_point_behavior(criterion_recorder):
    t0 = time.perf_counter()
    fails = []
    uni1 = AssetUniverse.constant(1.0, 1)
    lam_near = noshort_solution(uni1, 1.9999).lam
    _check(fails, lam_near < 1e-4, f"lambda(1.9999) = {lam_near:.3e} >= 1e-4")
    slopes = []
    for r in (1.99, 1.999, 1.9999):
        d = noshort_solution(uni1, r).delta * (2.0 - r)
        slopes.append(d)
        _check(fails, 3.92 <= d <= 4.08, f"delta*(2-r) = {d:.4f} at r={r}")
    q0_near = noshort_solution(uni1, 1.9999).q0
    _check(
        fails,
        abs(q0_near - math.pi) <= 0.005 * math.pi,
        f"q0(1.9999) = {q0_near:.6f} not within 0.5% of pi",
    )
    uni2 = AssetUniverse(sigmas=(1.0, 2.0))
    c1 = uni2.mean_inv_sigma
    q0_het = noshort_solution(uni2, 1.9999).q0
    _check(
        fails,
        abs(q0_het - math.pi / c1**2) <= 0.005 * math.pi / c1**2,
        f"q0(1.9999) = {q0_het:.6f} not within 0.5% of pi/c1^2 = {math.pi/c1**2:.6f}",
    )
    min_q0t = math.inf
    for uni in (uni1, uni2):
        for r in np.linspace(0.1, 0.9, 9):
            min_q0t = min(min_q0t, unconstrained_solution(uni, float(r)).q0_tilde)
        for r in np.linspace(0.1, 1.9999, 12):
            min_q0t = min(min_q0t, noshort_solution(uni, float(r)).q0_tilde)
        lim = critical_asymptotics(uni).q0_tilde_limit
        _check(
            fails, lim >= math.pi * (1 - 1e-12),
            f"critical risk-ratio limit {lim:.6f} < pi for sigmas={uni.sigmas}",
        )
    _check(fails, min_q0t >= 1.0, f"risk ratio dipped below 1: {min_q0t:.6f}")
    dt = time.perf_counter() - t0
    _check(fails, dt < 5.0, f"runtime {dt:.2f}s >= 5s")
    criterion_recorder(
        f"CRITERION 4: {'PASS' if not fails else 'FAIL'} — lambda(1.9999)={lam_near:.2e}, "
        f"delta*(2-r)∈[{min(slopes):.3f},{max(slopes):.3f}], q0→{q0_near:.5f} (pi), "
        f"min risk ratio {min_q0t:.3f}, {dt:.2f}s"
    )
    assert not fails, "; ".join(fails)


def test_criterion_5_corner_reductions(criterion_recorder, monkeypatch):
    # The corners are checked against this test's own references: the
    # closed form in (r, c2) at eta = (0, 0), and at eta = (0, inf) the
    # banned-shorts root of mean W(sqrt(lam)/sigma) = 1/(2r) by scipy's
    # brentq, with delta = r phi_bar / (1 - r phi_bar). The interior route,
    # damped Newton on both saddle equations, must meet both corners.
    fails = []
    uni = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    sig = np.asarray(uni.sigmas)
    c2 = uni.mean_inv_var

    def free_ref(r):
        lam = (1.0 - r) / (r * c2)
        return (lam, 1.0 / ((1.0 - r) * c2), r / (1.0 - r), -0.5 * lam, (1.0 - r) / (2.0 * r))

    def ban_ref(r):
        s_up = math.sqrt((2.0 / r - 1.0) / c2)
        s = scipy.optimize.brentq(lambda s: float(np.mean(norm_cdf_int2(s / sig))) - 0.5 / r,
                                  0.0, s_up, xtol=min(1e-15, 1e-9 * s_up),
                                  rtol=4 * np.finfo(float).eps)
        phi_bar = float(np.mean(norm_cdf(s / sig)))
        v = 1.0 / (1.0 - r * phi_bar)  # 1 + delta
        return (s * s, s * s * r * v * v, v - 1.0, -0.5 * s * s, 1.0 / (2.0 * r * v))

    def reldev(sol, ref):
        return max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(sol.order_params, ref))

    free_grid, ban_grid = np.linspace(0.05, 0.95, 10), np.linspace(0.1, 1.9, 10)
    corner = 0.0
    for grid, reg, ref in ((free_grid, RegularizerParams.none(), free_ref),
                           (ban_grid, RegularizerParams.short_ban(), ban_ref)):
        for r in grid:
            d = reldev(general_l1_solve(uni, float(r), reg), ref(float(r)))
            corner = max(corner, d)
            _check(fails, d <= 1e-8, f"corner eta2={reg.eta2:g} deviation {d:.2e} at r={r:.3f}")

    calls = []
    residual = theory._saddle_residual

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(theory, "_saddle_residual", counted)

    def interior(grid, reg, ref):
        """Worst deviation from `ref` over `grid`, each point solved by Newton."""
        worst = 0.0
        for r in grid:
            del calls[:]
            worst = max(worst, reldev(general_l1_solve(uni, float(r), reg), ref(float(r))))
            _check(fails, calls, f"eta = ({reg.eta1:g}, {reg.eta2:g}) at r={r:.3f} ran no Newton")
        return worst

    weak = {}
    for eps in (1e-6, 1e-8, 1e-10):
        weak[eps] = interior(free_grid, RegularizerParams(eps, eps), free_ref)
        _check(fails, weak[eps] <= 100.0 * eps,
               f"eta = ({eps:g}, {eps:g}) deviation {weak[eps]:.2e} from the free corner")
    # at eta2 = 1e3 Newton returns its start, the banned-shorts root, after
    # one residual, so that value would check nothing
    strong = {eta2: interior(ban_grid, RegularizerParams(0.0, eta2), ban_ref)
              for eta2 in (10.0, 30.0, 100.0)}
    _check(fails, strong[10.0] > strong[30.0] > strong[100.0],
           f"ban corner not approached as eta2 grows: {strong}")
    _check(fails, strong[100.0] <= 1e-10,
           f"eta2 = 100 deviation {strong[100.0]:.2e} from the ban corner")
    criterion_recorder(
        f"CRITERION 5: {'PASS' if not fails else 'FAIL'} — corners vs closed form and "
        f"brentq root, 10-point grids, worst {corner:.2e} (tol 1e-8); Newton at "
        f"eta=(eps,eps) vs free: " + ", ".join(f"{v:.1e}" for v in weak.values())
        + " (tol 100 eps); at eta=(0,eta2) vs ban, eta2=10,30,100: "
        + ", ".join(f"{v:.1e}" for v in strong.values()) + " (last tol 1e-10)"
    )
    assert not fails, "; ".join(fails)


def test_criterion_6_qp_oracle_equivalence(criterion_recorder):
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(123)
    worst_obj, worst_kkt = 0.0, 0.0
    for k in range(500):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1)) if k % 3 == 0 else n
        a = rng.standard_normal((n, rank))
        c = CovMatrix(a @ a.T / rank)
        b = float(rng.uniform(0.5, 3.0))
        res = min_variance_noshort(c, b)
        ref = brute_force_noshort(c, b)
        dobj = abs(res.objective - ref.objective)
        kkt = kkt_residual(c, res, b)
        worst_obj = max(worst_obj, dobj)
        worst_kkt = max(worst_kkt, kkt)
        _check(fails, dobj <= 1e-10, f"objective gap {dobj:.2e} on instance {k}")
        _check(fails, kkt < 1e-8, f"KKT residual {kkt:.2e} on instance {k}")
    dt = time.perf_counter() - t0
    _check(fails, dt < 30.0, f"runtime {dt:.1f}s >= 30s")
    criterion_recorder(
        f"CRITERION 6: {'PASS' if not fails else 'FAIL'} — 500 random PSD instances "
        f"N∈[2,8], worst objective gap {worst_obj:.2e} (tol 1e-10), "
        f"worst KKT {worst_kkt:.2e} (tol 1e-8), {dt:.1f}s"
    )
    assert not fails, "; ".join(fails)


def test_criterion_7_equality_risk_curve(criterion_recorder):
    t0 = time.perf_counter()
    fails = []
    uni = AssetUniverse.constant(1.0, 100)
    s = sweep(uni, [0.25, 0.5, 0.75, 0.9], trials=1000, constraint="equality",
              seed=0, threads=4)
    zs = []
    for p in s:
        analytic = 1.0 / (1.0 - p.r)
        z = (p.q0_tilde_hat_mean - analytic) / p.q0_tilde_hat_se
        zs.append(f"{p.r_requested:g}:{z:+.2f}")
        _check(
            fails, abs(z) <= 3.0,
            f"risk ratio off at r={p.r:.4f}: mean {p.q0_tilde_hat_mean:.4f} "
            f"vs {analytic:.4f}, z={z:+.2f}",
        )
    s2 = sweep(uni, [1.25, 1.5], trials=1000, constraint="equality", seed=0, threads=4)
    for p in s2:
        _check(
            fails, p.zero_variance_probability == 1.0,
            f"degenerate fraction {p.zero_variance_probability} != 1 at r={p.r:.3f}",
        )
    dt = time.perf_counter() - t0
    _check(fails, dt < 300.0, f"runtime {dt:.0f}s >= 5min")
    criterion_recorder(
        f"CRITERION 7: {'PASS' if not fails else 'FAIL'} — equality, N=100, 1000 trials, "
        f"risk-ratio z = {{{', '.join(zs)}}} (|z|<=3), degenerate fraction 1.0 at "
        f"r∈{{1.25,1.5}}, {dt:.0f}s"
    )
    assert not fails, "; ".join(fails)


def test_criterion_8_noshort_order_parameter_curves(criterion_recorder):
    # Both metrics are gated at 3 Monte Carlo standard errors of the mean
    # against the exact asymptotic curves evaluated at the achieved ratio
    # N/T. At N=100 the no-short estimators carry an O(1/N) finite-size
    # bias (measured to scale like ~0.35/N for the budget multiplier),
    # which near the critical ratio exceeds the asymptotic value itself;
    # the gate is asserted as stated nonetheless, so this criterion
    # documents the finite-size gap honestly rather than hiding it.
    t0 = time.perf_counter()
    fails = []
    uni = AssetUniverse.constant(1.0, 100)
    s = sweep(uni, [0.5, 1.0, 1.5, 1.9], trials=1000, constraint="noshort",
              seed=0, threads=4)
    detail = []
    for p in s:
        sol = noshort_solution(uni, p.r)
        z_lam = (p.lambda_hat_mean - sol.lam) / p.lambda_hat_se
        z_q = (p.q0_tilde_hat_mean - sol.q0_tilde) / p.q0_tilde_hat_se
        detail.append(f"r={p.r:.3f}: z_lam={z_lam:+.2f}, z_risk={z_q:+.2f}")
        _check(
            fails, abs(z_lam) <= 3.0,
            f"multiplier off at r={p.r:.4f}: mean {p.lambda_hat_mean:.5f} vs "
            f"{sol.lam:.5f} (se {p.lambda_hat_se:.2e}), z={z_lam:+.2f}",
        )
        _check(
            fails, abs(z_q) <= 3.0,
            f"risk ratio off at r={p.r:.4f}: mean {p.q0_tilde_hat_mean:.5f} vs "
            f"{sol.q0_tilde:.5f} (se {p.q0_tilde_hat_se:.2e}), z={z_q:+.2f}",
        )
    dt = time.perf_counter() - t0
    _check(fails, dt < 600.0, f"runtime {dt:.0f}s >= 10min")
    criterion_recorder(
        f"CRITERION 8: {'PASS' if not fails else 'FAIL'} — noshort, N=100, 1000 trials; "
        f"{'; '.join(detail)} (|z|<=3), {dt:.0f}s"
    )
    assert not fails, "; ".join(fails)


def wendel(n: int, t: int) -> float:
    """P(Bin(N - 1, 1/2) >= T), exactly: the chance that N symmetric points in
    general position in R^T hold the origin in their convex hull (Wendel 1962),
    that is, that the no-short problem has a zero-variance portfolio."""
    return sum(math.comb(n - 1, k) for k in range(t, n)) / 2 ** (n - 1)


def test_criterion_9_zero_variance_phase_scan(criterion_recorder):
    t0 = time.perf_counter()
    fails = []
    low = sweep(
        AssetUniverse.constant(1.0, 50), [0.5], trials=200, constraint="noshort", seed=0
    )[0]
    _check(
        fails, low.zero_variance_probability == 0.0,
        f"P(zero variance) = {low.zero_variance_probability} != 0 at r=0.5",
    )
    high = sweep(
        AssetUniverse.constant(1.0, 100), [2.5], trials=200, constraint="noshort",
        seed=0, threads=4,
    )[0]
    _check(
        fails, high.zero_variance_probability > 0.95,
        f"P(zero variance) = {high.zero_variance_probability} <= 0.95 at r=2.5",
    )
    scan = sweep(
        AssetUniverse.constant(1.0, 50), [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        trials=200, constraint="noshort", seed=0, threads=4,
    )
    probs = [p.zero_variance_probability for p in scan]
    for a, b in zip(scan, scan[1:]):
        slack = 3.0 * math.hypot(a.zero_variance_se, b.zero_variance_se)
        _check(
            fails,
            b.zero_variance_probability >= a.zero_variance_probability - slack,
            f"phase curve decreases: {a.zero_variance_probability} -> "
            f"{b.zero_variance_probability} at r={b.r:.3f}",
        )
    # every point against the exact finite-N law, at 3 binomial SEs of it;
    # where the law is 0 (or 1) the share must be exactly 0 (or 1)
    z_max = 0.0  # the z of largest size
    for p in (low, high, *scan):
        exact = wendel(p.n, p.t)
        se = math.sqrt(exact * (1.0 - exact) / p.trials)
        gap = p.zero_variance_probability - exact
        _check(
            fails, abs(gap) <= 3.0 * se,
            f"P(zero variance) = {p.zero_variance_probability} vs Wendel {exact:.4f} "
            f"(se {se:.2e}) at N={p.n}, T={p.t}",
        )
        if se > 0.0:
            z_max = max(z_max, gap / se, key=abs)
    dt = time.perf_counter() - t0
    criterion_recorder(
        f"CRITERION 9: {'PASS' if not fails else 'FAIL'} — P(zero var) = "
        f"{low.zero_variance_probability:g} at r=0.5 (N=50), "
        f"{high.zero_variance_probability:g} at r=2.5 (N=100), "
        f"scan {probs} nondecreasing, Wendel z of largest size {z_max:+.2f} (|z|<=3), {dt:.0f}s"
    )
    assert not fails, "; ".join(fails)


def test_criterion_10_weight_distribution(criterion_recorder):
    t0 = time.perf_counter()
    fails = []
    uni = AssetUniverse.constant(1.0, 100)
    s = sweep(uni, [1.0], trials=1000, constraint="noshort", seed=0, threads=4,
              keep_weights=True)
    p = s[0]
    sol = noshort_solution(uni, p.r)
    mix = build_mixture(sol)
    edges = bin_grid(0.0, float(p.weights.max()), 0.05)
    h = weight_histogram(p.weights, edges)
    z_atom = (h.atom - sol.n0) / p.zero_fraction_se
    _check(
        fails, abs(z_atom) <= 3.0,
        f"atom mass {h.atom:.4f} vs n0 {sol.n0:.4f}, z={z_atom:+.2f}",
    )
    analytic = mix.bin_mass(edges)
    # Both integrate to ~1 - n0 already; charge the analytic mass outside
    # the sampled range so missing tails count against the distance.
    tail = (1.0 - sol.n0) - analytic.sum()
    l1 = float(np.sum(np.abs(h.masses - analytic))) + abs(tail)
    _check(fails, l1 < 0.05, f"L1 distance {l1:.4f} >= 0.05")
    probs = noshort_solution(AssetUniverse(sigmas=(1.0, 2.0, 4.0)), 1.0).elim_prob
    _check(
        fails, probs[0] < probs[1] < probs[2],
        f"elimination probabilities not increasing: {probs}",
    )
    dt = time.perf_counter() - t0
    _check(fails, dt < 300.0, f"runtime {dt:.0f}s >= 5min")
    criterion_recorder(
        f"CRITERION 10: {'PASS' if not fails else 'FAIL'} — pooled atom {h.atom:.4f} "
        f"vs n0 {sol.n0:.4f} (z={z_atom:+.2f}), L1 {l1:.4f} (tol 0.05), "
        f"elimination probs {[f'{q:.3f}' for q in probs]} increasing, {dt:.0f}s"
    )
    assert not fails, "; ".join(fails)


def test_criterion_11_thread_count_determinism(criterion_recorder, tmp_path):
    fails = []
    outs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"sim_t{threads}.csv"
        code = main(
            ["simulate", "--r-grid", "0.5,1.25,1.9", "--n", "16", "--trials", "12",
             "--seed", "7", "--constraint", "noshort",
             "--threads", str(threads), "--out", str(out)]
        )
        _check(fails, code == 0, f"simulate exited {code} with threads={threads}")
        outs.append(out.read_bytes())
    _check(fails, outs[0] == outs[1] == outs[2], "outputs differ across thread counts")
    _check(fails, len(outs[0]) > 0, "empty output")
    criterion_recorder(
        f"CRITERION 11: {'PASS' if not fails else 'FAIL'} — simulate with "
        f"threads∈{{1,2,8}} byte-identical ({len(outs[0])} bytes)"
    )
    assert not fails, "; ".join(fails)


def test_criterion_12_equality_finite_size_risk_law(criterion_recorder):
    # For Gaussian returns of known zero mean, any sigma and T > N, the
    # sample minimum-variance portfolio has the exact out-of-sample risk
    # ratio E[q0_tilde_hat] = (T - 1)/(T - N). At N = 20 the asymptote
    # 1/(1 - r) sits several standard errors away, so this gate sees the
    # finite-size term that criterion 7, against the asymptote at N = 100,
    # leaves inside its 3 SE.
    t0 = time.perf_counter()
    fails = []
    n = 20
    detail = []
    for name, uni in (("sigma=1", AssetUniverse.constant(1.0, n)),
                      ("lognormal", AssetUniverse.lognormal(0.0, 0.5, n, 7))):
        s = sweep(uni, [n / 25, n / 40], trials=2000, constraint="equality", seed=0)
        for p in s:
            exact = (p.t - 1) / (p.t - n)
            z = (p.q0_tilde_hat_mean - exact) / p.q0_tilde_hat_se
            z_asym = (p.q0_tilde_hat_mean - 1.0 / (1.0 - p.r)) / p.q0_tilde_hat_se
            detail.append(f"{name} T={p.t}: z={z:+.2f} (vs 1/(1-r): {z_asym:+.2f})")
            _check(
                fails, abs(z) <= 3.0,
                f"risk ratio off at {name}, T={p.t}: mean {p.q0_tilde_hat_mean:.4f} "
                f"vs {exact:.4f} (se {p.q0_tilde_hat_se:.2e}), z={z:+.2f}",
            )
    dt = time.perf_counter() - t0
    _check(fails, dt < 60.0, f"runtime {dt:.0f}s >= 1min")
    criterion_recorder(
        f"CRITERION 12: {'PASS' if not fails else 'FAIL'} — equality, N=20, 2000 trials, "
        f"risk ratio vs (T-1)/(T-N): {'; '.join(detail)} (|z|<=3), {dt:.1f}s"
    )
    assert not fails, "; ".join(fails)
