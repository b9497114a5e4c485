"""Analytic theory of large minimum-variance portfolios under sampling noise.

The setting: N assets with independent returns of known standard deviations
sigma_i, a portfolio estimated from T observations, and the high-dimensional
limit N, T -> infinity at fixed ratio r = N/T. Weights are normalized to
sum(w) = N, so the equal-weight portfolio is w = 1.

Everything an asset universe contributes enters through two moments:

    c1 = mean(1 / sigma_i)      (harmonic-type first moment)
    c2 = mean(1 / sigma_i**2)   (precision mean)

The module exposes:

  * the noiseless optimum (`true_optimum`),
  * closed forms for the unconstrained estimator, valid for 0 < r < 1
    (`unconstrained_solution`),
  * the short-sale-banned estimator, valid for 0 < r < 2
    (`noshort_lambda`, `noshort_solution`),
  * a solver for the general asymmetric-penalty system that contains both
    of the above as corners (`general_l1_solve`),
  * the variational free-energy surface and a finite-difference
    stationarity check (`free_energy_functional`, `stationarity_residual`),
  * closed-form behavior at the critical ratio r = 2
    (`critical_asymptotics`).

Order parameters follow one convention everywhere: `lam` is the budget
multiplier (twice the free energy at the relevant corners), `delta` the
response susceptibility, `q0` the overlap whose rescaling
q0_tilde = q0 * c2 measures out-of-sample risk inflation relative to the
noiseless optimum, and (`q0_hat`, `delta_hat`) the conjugate pair with
q0_hat < 0 < delta_hat at every solution. Per-asset quantities (each
asset's weight law on `ReplicaSolution`, the noiseless weights on
`OptimalPortfolio`) are read-only float arrays in universe order.

Outside its phase a branch raises instead of extrapolating:
PhaseBoundaryError at r >= 1 for the unconstrained branch,
CriticalPhaseError at r >= 2 for the banned/penalized branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import optimize

from .errors import CriticalPhaseError, NoConvergenceError, PhaseBoundaryError
from .special import norm_cdf, norm_cdf_int, norm_cdf_int2, norm_pdf

__all__ = [
    "AssetUniverse",
    "RegularizerParams",
    "ReplicaSolution",
    "OptimalPortfolio",
    "CriticalPoint",
    "as_universe",
    "true_optimum",
    "unconstrained_solution",
    "noshort_lambda",
    "noshort_solution",
    "general_l1_solve",
    "free_energy_functional",
    "stationarity_residual",
    "critical_asymptotics",
]


@dataclass(frozen=True)
class AssetUniverse:
    """Collection of per-asset return standard deviations.

    Parameters
    ----------
    sigmas : tuple of float
        Positive, finite standard deviations, one per asset.
    """

    sigmas: tuple[float, ...]

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigmas)
        if len(sig) == 0:
            raise ValueError("universe needs at least one asset")
        if any(not math.isfinite(s) or s <= 0.0 for s in sig):
            raise ValueError("sigmas must be positive and finite")
        object.__setattr__(self, "sigmas", sig)

    @classmethod
    def constant(cls, sigma: float, n: int) -> "AssetUniverse":
        return cls((float(sigma),) * int(n))

    @classmethod
    def lognormal(cls, mu: float, s: float, n: int, seed: int) -> "AssetUniverse":
        """Draw sigma_i = exp(mu + s * z_i) with a dedicated counter-based stream."""
        if s < 0:
            raise ValueError("lognormal spread must be nonnegative")
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        z = gen.standard_normal(int(n))
        return cls(tuple(np.exp(mu + s * z)))

    @cached_property
    def _sig(self) -> np.ndarray:
        return np.asarray(self.sigmas, dtype=float)

    @property
    def n(self) -> int:
        return len(self.sigmas)

    @property
    def mean_inv_sigma(self) -> float:
        """c1 = mean(1/sigma)."""
        return float(np.mean(1.0 / self._sig))

    @property
    def mean_inv_var(self) -> float:
        """c2 = mean(1/sigma^2)."""
        return float(np.mean(1.0 / self._sig**2))


def as_universe(u) -> AssetUniverse:
    """Coerce an AssetUniverse or a plain sequence of sigmas."""
    if isinstance(u, AssetUniverse):
        return u
    return AssetUniverse(tuple(u))


@dataclass(frozen=True)
class RegularizerParams:
    """Asymmetric weight penalties: eta1 on the positive side, eta2 on the negative.

    eta2 = math.inf encodes a hard ban on negative weights (short selling).
    Both corners of interest are provided as constructors: `none()` for the
    plain estimator and `short_ban()` for the hard constraint.
    """

    eta1: float = 0.0
    eta2: float = 0.0

    def __post_init__(self):
        e1, e2 = float(self.eta1), float(self.eta2)
        if not math.isfinite(e1) or e1 < 0:
            raise ValueError("eta1 must be finite and nonnegative")
        if math.isnan(e2) or e2 < 0:
            raise ValueError("eta2 must be nonnegative (math.inf allowed)")
        object.__setattr__(self, "eta1", e1)
        object.__setattr__(self, "eta2", e2)

    @classmethod
    def none(cls) -> "RegularizerParams":
        return cls(0.0, 0.0)

    @classmethod
    def short_ban(cls) -> "RegularizerParams":
        return cls(0.0, math.inf)

    @property
    def bans_shorts(self) -> bool:
        return math.isinf(self.eta2)


@dataclass(frozen=True)
class OptimalPortfolio:
    """Noiseless minimum-variance weights and their risk sum(sigma_i^2 w_i^2).

    `weights` is a read-only array in universe order.
    """

    weights: np.ndarray
    risk: float


@dataclass(frozen=True)
class CriticalPoint:
    """Closed-form behavior of the banned-shorts branch at its critical ratio.

    lambda_coeff is the coefficient of (r_c - r)^2 in the vanishing budget
    multiplier; delta_slope the constant in delta ~ delta_slope / (r_c - r).
    """

    r_c: float
    q0_limit: float
    q0_tilde_limit: float
    lambda_coeff: float
    delta_slope: float
    n0_limit: float


@dataclass(frozen=True)
class ReplicaSolution:
    """One saddle point of the high-dimensional estimation problem.

    Attributes
    ----------
    r : float
        Aspect ratio N/T the solution was computed at.
    lam : float
        Budget multiplier; the estimated in-sample objective concentrates
        on lam * r.
    delta, q0, q0_hat, delta_hat : float
        Remaining order parameters; see the module docstring.
    free_energy : float
        Stationary value of the variational functional. Equals lam / 2
        whenever the positive side is unpenalized and the negative side is
        free or fully banned.
    q0_tilde : float
        Out-of-sample risk of the estimated portfolio relative to the
        noiseless optimum; >= 1, diverging at the phase boundary.
    n0 : float
        Fraction of assets whose weight condenses exactly at zero.
    center_pos, center_neg, spread, elim_prob : np.ndarray
        Weight law of each asset, in universe order, as read-only arrays:
        asset i's weight is a Gaussian of spread `spread[i]` centered at
        `center_pos[i]` on w > 0 and at `center_neg[i]` on w < 0, with the
        remaining mass `elim_prob[i]` condensed on w = 0 exactly.
        `center_neg` is +inf where the negative side carries no mass; the
        mean of `elim_prob` is n0.
    """

    r: float
    lam: float
    delta: float
    q0: float
    q0_hat: float
    delta_hat: float
    free_energy: float
    q0_tilde: float
    n0: float
    universe: AssetUniverse
    reg: RegularizerParams
    center_pos: np.ndarray
    center_neg: np.ndarray
    spread: np.ndarray
    elim_prob: np.ndarray

    def __post_init__(self):
        ok = (
            self.r > 0
            and self.lam > 0
            and self.q0 > 0
            and self.q0_hat < 0
            and self.delta_hat > 0
            and self.delta >= 0
            and 0.0 <= self.n0 <= 1.0
        )
        if not ok:
            raise ValueError("order parameters violate saddle-point invariants")
        for name in ("center_pos", "center_neg", "spread", "elim_prob"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def order_params(self) -> tuple[float, float, float, float, float]:
        """(lam, q0, delta, q0_hat, delta_hat), the functional's argument order."""
        return (self.lam, self.q0, self.delta, self.q0_hat, self.delta_hat)


def true_optimum(universe) -> OptimalPortfolio:
    """Noiseless minimum-variance portfolio under the budget sum(w) = N.

    With independent assets the answer is precision weighting,
    w_i = 1 / (sigma_i^2 * c2), and the risk sum(sigma_i^2 w_i^2) = N / c2.
    """
    uni = as_universe(universe)
    c2 = uni.mean_inv_var
    w = 1.0 / (uni._sig**2 * c2)
    w.flags.writeable = False
    return OptimalPortfolio(weights=w, risk=uni.n / c2)


def _tail_terms(lam: float, u: float, uni: AssetUniverse, reg: RegularizerParams):
    """Population averages entering the saddle equations at scale u = sqrt(-2*q0_hat).

    Returns (S_W, S_Psi, S_Phi, b1, b2) where the S_* are means over assets
    of the second, first and zeroth iterated cdf integrals evaluated at the
    standardized band edges b1_i = (lam - eta1)/(sigma_i u) and
    -b2_i = -(lam + eta2)/(sigma_i u). A banned negative side (eta2 = inf)
    contributes exactly zero to every average.
    """
    sig = uni._sig
    b1 = (lam - reg.eta1) / (sig * u)
    s_w = norm_cdf_int2(b1)
    s_psi = norm_cdf_int(b1) / sig
    s_phi = norm_cdf(b1)
    if math.isinf(reg.eta2):
        b2 = np.full_like(b1, math.inf)
    else:
        b2 = (lam + reg.eta2) / (sig * u)
        s_w = s_w + norm_cdf_int2(-b2)
        s_psi = s_psi - norm_cdf_int(-b2) / sig
        s_phi = s_phi + norm_cdf(-b2)
    return float(np.mean(s_w)), float(np.mean(s_psi)), float(np.mean(s_phi)), b1, b2


def _assemble(uni, reg, r, lam, u) -> ReplicaSolution:
    """Build the full solution record from the reduced unknowns (lam, u)."""
    s_w, s_psi, s_phi, b1, b2 = _tail_terms(lam, u, uni, reg)
    denom = 1.0 - r * s_phi
    if denom <= 0.0:
        raise CriticalPhaseError(
            "susceptibility diverges: r * mean cdf mass reached 1 (flat phase)"
        )
    delta = r * s_phi / denom
    v = 1.0 + delta
    q0 = u * u * r * v * v
    q0_hat = -0.5 * u * u
    delta_hat = 1.0 / (2.0 * r * v)
    sig = uni._sig
    spread = np.sqrt(q0 * r) / sig
    w_pos = (lam - reg.eta1) * r * v / sig**2
    if math.isinf(reg.eta2):
        w_neg = np.full_like(sig, math.inf)
        elim = norm_cdf(-b1)
    else:
        w_neg = (lam + reg.eta2) * r * v / sig**2
        elim = norm_cdf(b2) - norm_cdf(b1)
    n0 = float(np.mean(elim))
    op = (lam, q0, delta, q0_hat, delta_hat)
    f = free_energy_functional(op, uni, r, reg)
    return ReplicaSolution(
        r=r,
        lam=lam,
        delta=delta,
        q0=q0,
        q0_hat=q0_hat,
        delta_hat=delta_hat,
        free_energy=f,
        q0_tilde=q0 * uni.mean_inv_var,
        n0=n0,
        universe=uni,
        reg=reg,
        center_pos=w_pos,
        center_neg=w_neg,
        spread=spread,
        elim_prob=elim,
    )


def unconstrained_solution(universe, r: float) -> ReplicaSolution:
    """Closed-form solution of the unpenalized estimator, 0 < r < 1.

    All order parameters are elementary in (r, c2); the weight law of each
    asset is a single Gaussian centered on its noiseless weight. Risk
    inflation is the classic 1/(1 - r) factor, independent of the universe.
    """
    uni = as_universe(universe)
    if r <= 0:
        raise ValueError("r must be positive")
    if r >= 1:
        raise PhaseBoundaryError(
            f"unconstrained estimator has no solution at r = {r:g}: the sample "
            "covariance loses rank at the r = 1 boundary and the optimum is "
            "non-unique from there on"
        )
    c2 = uni.mean_inv_var
    lam = (1.0 - r) / (r * c2)
    return _assemble(uni, RegularizerParams.none(), r, lam, math.sqrt(lam))


def noshort_lambda(universe, r: float) -> float:
    """Budget multiplier of the banned-shorts estimator, 0 < r < 2.

    Solves mean_i W(sqrt(lam)/sigma_i) = 1/(2r) with W the second iterated
    cdf integral. The root find runs in s = sqrt(lam), where the equation
    stays well conditioned all the way into the critical region, on the
    bracket (0, s_up] with s_up from the bound W(x) > (x^2 + 1)/4 for x > 0.
    A final Newton step in lam polishes the residual below
    1e-12 * max(1, 1/(2r)): absolute for r >= 1/2, relative to the target
    below, where the target outgrows what double precision resolves to 1e-12.
    """
    uni = as_universe(universe)
    if r <= 0:
        raise ValueError("r must be positive")
    if r >= 2:
        raise CriticalPhaseError(
            f"banned-shorts estimator has no solution at r = {r:g}: beyond the "
            "critical ratio r = 2 a zero-variance portfolio exists with "
            "probability one"
        )
    sig = uni._sig
    target = 0.5 / r
    s = _noshort_root(uni, r)
    lam = s * s
    if lam > 0:
        # one Newton step in lam; dW/dlam = Psi(s/sigma) / (2 sigma s)
        g = float(np.mean(norm_cdf_int2(s / sig))) - target
        dg = float(np.mean(norm_cdf_int(s / sig) / sig)) / (2.0 * s)
        step = g / dg
        if abs(step) < 0.5 * lam:
            lam = lam - step
    residual = abs(float(np.mean(norm_cdf_int2(math.sqrt(lam) / sig))) - target)
    if residual > 1e-12 * max(1.0, target):
        raise NoConvergenceError(
            "multiplier root residual above 1e-12 * max(1, 1/(2r))",
            iterate=lam,
            residual=residual,
        )
    return float(lam)


def _noshort_root(uni: AssetUniverse, r: float) -> float:
    """Root s = sqrt(lam) of mean_i W(s/sigma_i) = 1/(2r) on (0, s_up], 0 < r < 2."""
    sig = uni._sig
    target = 0.5 / r

    def h(s):
        return float(np.mean(norm_cdf_int2(s / sig))) - target

    s_up = math.sqrt((2.0 / r - 1.0) / uni.mean_inv_var)
    return optimize.brentq(h, 0.0, s_up, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def noshort_solution(universe, r: float) -> ReplicaSolution:
    """Full solution of the banned-shorts estimator, 0 < r < 2.

    Derived quantities follow from the multiplier: the cdf mass
    phi_bar = mean Phi(sqrt(lam)/sigma) gives delta = r*phi_bar/(1 - r*phi_bar)
    (the denominator is strictly positive for lam > 0), q0 = lam*r*(1+delta)^2,
    and the condensed fraction n0 = mean Phi(-sqrt(lam)/sigma) < 1/2.
    """
    uni = as_universe(universe)
    lam = noshort_lambda(uni, r)
    return _assemble(uni, RegularizerParams.short_ban(), r, lam, math.sqrt(lam))


def free_energy_functional(op, universe, r: float, reg: RegularizerParams) -> float:
    """Variational functional whose stationary points are the solutions.

    Parameters
    ----------
    op : tuple
        (lam, q0, delta, q0_hat, delta_hat) with q0_hat < 0 and delta_hat > 0.
    universe, r, reg
        Problem data; reg.eta2 = inf drops the negative branch exactly.

    Returns the scalar value; raises ValueError off the domain. At a
    solution with eta1 = 0 and eta2 in {0, inf} the value equals lam / 2.
    """
    lam, q0, delta, q0_hat, delta_hat = (float(t) for t in op)
    uni = as_universe(universe)
    if r <= 0:
        raise ValueError("r must be positive")
    if q0_hat >= 0 or delta_hat <= 0 or delta <= -1:
        raise ValueError(
            "functional domain requires q0_hat < 0, delta_hat > 0, delta > -1"
        )
    u = math.sqrt(-2.0 * q0_hat)
    s_w, _, _, _, _ = _tail_terms(lam, u, uni, reg)
    return (
        lam
        - delta * q0_hat
        - delta_hat * q0
        + q0 / (2.0 * r * (1.0 + delta))
        + (q0_hat / delta_hat) * s_w
    )


def stationarity_residual(op, universe, r: float, reg: RegularizerParams) -> float:
    """Max-norm central-difference gradient of the functional at `op`.

    Each coordinate steps by the cube root of eps, scaled to its magnitude.
    Values below ~1e-6 certify stationarity at solver accuracy.
    """
    x = np.asarray(op, dtype=float)
    rel = float(np.cbrt(np.finfo(float).eps))
    grad = np.zeros_like(x)
    for k in range(5):
        h = rel * max(abs(x[k]), 1e-2)
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fp = free_energy_functional(xp, universe, r, reg)
        fm = free_energy_functional(xm, universe, r, reg)
        grad[k] = (fp - fm) / (2.0 * h)
    return float(np.max(np.abs(grad)))


def _initial_guesses(uni, r, reg):
    """Candidate starting points (lam, u) for the damped Newton solve, r < 2."""
    out = []
    # banned-shorts anchor, shifted by the positive-side penalty
    m0 = _noshort_root(uni, r)
    if m0 > 0:
        out.append((m0 * m0 + reg.eta1, m0))
    if r < 1:
        lam_u = (1.0 - r) / (r * uni.mean_inv_var)
        out.append((lam_u + reg.eta1, math.sqrt(lam_u)))
    out.append((1.0 + reg.eta1, 1.0))
    return out


# damped Newton of general_l1_solve: residual target and iteration budget
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200


def general_l1_solve(universe, r: float, reg: RegularizerParams) -> ReplicaSolution:
    """Solve the asymmetric-penalty saddle equations by damped Newton.

    The five-parameter system reduces to two unknowns, the multiplier lam
    and the scale u = sqrt(-2*q0_hat):

        2 r * S_W(lam, u) = 1
        u r * S_Psi(lam, u) = 1 - r * S_Phi(lam, u)

    with the averages of `_tail_terms`. The Jacobian is taken by central
    differences and steps are backtracked to keep lam, u positive and the
    residual decreasing. Corners reproduce the closed forms: eta = (0, 0)
    matches `unconstrained_solution`, eta = (0, inf) matches
    `noshort_solution`.

    Raises PhaseBoundaryError / CriticalPhaseError off the feasible phase
    and NoConvergenceError if NEWTON_MAX_ITER iterations are spent. Every
    penalized problem is critical from r = 2 on: beyond it a long-only
    zero-variance portfolio exists with probability -> 1 (Wendel 1962),
    and it pays only the penalty eta1 * N that every budget-feasible
    portfolio pays at least, so the optimum is flat.
    """
    uni = as_universe(universe)
    if r <= 0:
        raise ValueError("r must be positive")
    if reg.eta1 == 0.0 and reg.eta2 == 0.0 and r >= 1:
        raise PhaseBoundaryError(
            f"penalty-free system has no solution at r = {r:g} (boundary r = 1)"
        )
    if r >= 2:
        raise CriticalPhaseError(
            f"penalized system has no solution at r = {r:g} (critical r = 2)"
        )

    def residual(x):
        s_w, s_psi, s_phi = _tail_terms(x[0], x[1], uni, reg)[:3]
        return np.array(
            [2.0 * r * s_w - 1.0, x[1] * r * s_psi - 1.0 + r * s_phi]
        )

    best = None
    for cand in _initial_guesses(uni, r, reg):
        x = np.array(cand, dtype=float)
        fx = residual(x)
        norm = float(np.max(np.abs(fx)))
        if best is None or norm < best[2]:
            best = (x, fx, norm)
    x, fx, norm = best

    floor = 1e-300
    for _ in range(NEWTON_MAX_ITER):
        if norm < NEWTON_TOL:
            break
        jac = np.empty((2, 2))
        for j in range(2):
            h = 1e-7 * max(abs(x[j]), 1e-3)
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            jac[:, j] = (residual(xp) - residual(xm)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            raise NoConvergenceError(
                "singular Jacobian in saddle solve", iterate=tuple(x), residual=norm
            )
        alpha = 1.0
        while alpha > 1e-14:
            xn = x + alpha * step
            if xn[0] > floor and xn[1] > floor:
                fn = residual(xn)
                nn = float(np.max(np.abs(fn)))
                if nn < norm * (1.0 - 1e-4 * alpha) or nn < NEWTON_TOL:
                    x, fx, norm = xn, fn, nn
                    break
            alpha *= 0.5
        else:
            # stagnated: accept if already at contract accuracy
            if norm < 1e-10:
                break
            raise NoConvergenceError(
                "saddle solve stagnated", iterate=tuple(x), residual=norm
            )
    if norm >= 1e-10:
        raise NoConvergenceError(
            f"saddle solve above residual contract after {NEWTON_MAX_ITER} iterations",
            iterate=tuple(x),
            residual=norm,
        )
    return _assemble(uni, reg, r, float(x[0]), float(x[1]))


def critical_asymptotics(universe) -> CriticalPoint:
    """Behavior of the banned-shorts branch as r approaches r_c = 2.

    The multiplier vanishes like lambda_coeff * (2 - r)^2 with
    lambda_coeff = pi / (32 c1^2), the susceptibility diverges like
    4 / (2 - r), the out-of-sample overlap q0 tends to pi / c1^2, the risk
    inflation to pi * c2 / c1^2 (>= pi by Cauchy-Schwarz, = pi only for a
    uniform universe), and the condensed fraction to 1/2 from below.
    """
    uni = as_universe(universe)
    c1 = uni.mean_inv_sigma
    c2 = uni.mean_inv_var
    return CriticalPoint(
        r_c=2.0,
        q0_limit=math.pi / c1**2,
        q0_tilde_limit=math.pi * c2 / c1**2,
        lambda_coeff=math.pi / (32.0 * c1**2),
        delta_slope=4.0,
        n0_limit=0.5,
    )
