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
  * a solver for the general asymmetric-penalty system
    (`general_l1_solve`): eta = (0, 0) is the closed form, any ban the
    banned-shorts root shifted by eta1, and a finite eta2 runs Newton with
    a bracketed fallback,
  * its two corners, which are calls of it: the unconstrained estimator,
    0 < r < 1 (`unconstrained_solution`), and the short-sale-banned one,
    0 < r < 2 (`noshort_solution`), whose multiplier is a scalar root
    (`noshort_lambda`),
  * the variational free-energy surface and a finite-difference
    stationarity check (`free_energy_functional`, `stationarity_residual`),
  * closed-form behavior at the critical ratio r = 2
    (`critical_asymptotics`).

Scalar roots are found by Newton from the right of an increasing convex
equation (`_newton_right`), which needs no bracket and no tolerance; the
one non-convex scalar root, in the penalized solver's fallback start, is
bisected. The penalized solver starts at the banned-shorts root. Each
root's per-asset terms (band edges, their cdf and pdf, the averages) are
evaluated once: the solution record is assembled from the evaluation the
solver made at the root, not from a second pass over the assets. The
runtime needs only scipy.special (through `minvar.special`), not
scipy.optimize.

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
CriticalPhaseError at r > 2 - CRITICAL_MARGIN for the banned/penalized branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CriticalPhaseError, NoConvergenceError, PhaseBoundaryError
from .special import norm_cdf, norm_pdf

# the banned and penalized branches treat r within this of 2 as critical: the
# susceptibility ~ 4 / (2 - r) stays within 1% of it down to 2 - r ~ 1e-13,
# not below, where 2 - r is lost in rounding
CRITICAL_MARGIN = 1e-13

__all__ = [
    "AssetUniverse",
    "RegularizerParams",
    "ReplicaSolution",
    "OptimalPortfolio",
    "CriticalPoint",
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
        Positive, finite standard deviations, one per asset, whose c1 and
        c2 (module docstring) are positive and finite too.
    """

    sigmas: tuple[float, ...]

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigmas)
        if len(sig) == 0:
            raise ValueError("universe needs at least one asset")
        if any(not math.isfinite(s) or s <= 0.0 for s in sig):
            raise ValueError("sigmas must be positive and finite")
        object.__setattr__(self, "sigmas", sig)
        with np.errstate(over="ignore", divide="ignore"):
            c1, c2 = self.mean_inv_sigma, self.mean_inv_var
        if not (0.0 < c1 < math.inf and 0.0 < c2 < math.inf):
            raise ValueError(
                "sigmas out of range: mean(1/sigma) and mean(1/sigma^2) must be positive and finite"
            )

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

    @cached_property
    def mean_inv_sigma(self) -> float:
        """c1 = mean(1/sigma)."""
        return float(np.mean(1.0 / self._sig))

    @cached_property
    def mean_inv_var(self) -> float:
        """c2 = mean(1/sigma^2)."""
        return float(np.mean(1.0 / self._sig**2))


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
            and all(map(math.isfinite, (self.lam, self.delta, self.q0, self.q0_hat,
                                        self.delta_hat, self.free_energy, self.q0_tilde)))
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


def true_optimum(universe: AssetUniverse) -> OptimalPortfolio:
    """Noiseless minimum-variance portfolio under the budget sum(w) = N.

    With independent assets the answer is precision weighting,
    w_i = 1 / (sigma_i^2 * c2), and the risk sum(sigma_i^2 w_i^2) = N / c2.
    """
    c2 = universe.mean_inv_var
    w = 1.0 / (universe._sig**2 * c2)
    w.flags.writeable = False
    return OptimalPortfolio(weights=w, risk=universe.n / c2)


def _mean(x: np.ndarray) -> float:
    """float(np.mean(x)) of a 1-d float array, to the bit, without np.mean's wrapper.

    np.mean sums by the same np.add.reduce and divides by the count; the
    saddle solves take ~15 000 such means per round of the analytic benchmark.
    """
    return float(np.add.reduce(x)) / x.size


class _Tails(NamedTuple):
    """One evaluation of `_tail_terms` at (m, u): the averages and the arrays they come from.

    The mean `s_phi` of the per-asset `cdf_sum` is taken only where it is
    read. `b2` and `psi2` are None under a ban.
    """

    s_w: float
    s_psi: float
    cdf_sum: np.ndarray  # Phi(b1) + Phi(-b2) per asset, the S_Phi summands
    b1: np.ndarray  # the positive band edge m / (sigma u)
    b2: np.ndarray | None  # the negative band edge (m + eta1 + eta2) / (sigma u)
    cdf: np.ndarray  # Phi(b1)
    pdf: np.ndarray  # phi(b1)
    psi2: np.ndarray | None  # Psi(-b2)
    d: np.ndarray | None  # with `jac`, the derivatives of (S_W, S_Psi, S_Phi) in (m, u)

    @property
    def s_phi(self) -> float:
        return _mean(self.cdf_sum)


def _tail_terms(m: float, u: float, uni: AssetUniverse, reg: RegularizerParams,
                jac: bool = False) -> _Tails:
    """Population averages entering the saddle equations at scale u = sqrt(-2*q0_hat).

    The multiplier enters shifted, m = lam - eta1, so that b1 keeps its
    digits where lam lies close to eta1. The averages S_W, S_Psi and S_Phi
    are means over assets of the second, first and zeroth iterated cdf
    integrals evaluated at the standardized band edges
    b1_i = m/(sigma_i u) and -b2_i = -(m + eta1 + eta2)/(sigma_i u). A banned
    negative side (eta2 = inf) contributes exactly zero to every average.

    Each edge costs one cdf and one pdf; the integrals are formed from them
    as in `minvar.special`, and the returned `_Tails` keeps the edge, cdf
    and pdf arrays, so `_assemble` builds a solution from a root's own
    evaluation. With `jac`, d is the 3x2 array of the derivatives
    of (S_W, S_Psi, S_Phi) in (m, u), exact through W' = Psi, Psi' = Phi,
    Phi' = phi and db/dm = 1/(sigma u), db/du = -b/u; otherwise d is None.
    """
    sig = uni._sig
    b1 = m / (sig * u)
    cdf, pdf = norm_cdf(b1), norm_pdf(b1)
    psi = b1 * cdf + pdf
    s_w = 0.5 * ((b1 * b1 + 1.0) * cdf + b1 * pdf)
    s_psi = psi / sig
    cdf_sum = cdf
    if jac:
        d_psi_m, d_psi_u = cdf / sig, -b1 * cdf
        d_phi_m, d_phi_u = pdf, -b1 * pdf
        d_w_u = -b1 * psi
    b2 = psi2 = d = None
    if not math.isinf(reg.eta2):
        b2 = (m + (reg.eta1 + reg.eta2)) / (sig * u)
        x = -b2
        cdf2, pdf2 = norm_cdf(x), norm_pdf(x)
        psi2 = x * cdf2 + pdf2
        s_w = s_w + 0.5 * ((x * x + 1.0) * cdf2 + x * pdf2)
        s_psi = s_psi - psi2 / sig
        cdf_sum = cdf_sum + cdf2
        if jac:
            d_psi_m = d_psi_m + cdf2 / sig
            d_psi_u = d_psi_u - b2 * cdf2
            d_phi_m = d_phi_m - pdf2
            d_phi_u = d_phi_u + b2 * pdf2
            d_w_u = d_w_u + b2 * psi2
    s_w, s_psi = _mean(s_w), _mean(s_psi)
    if jac:
        d = np.array([
            [s_psi, _mean(d_w_u)],
            [_mean(d_psi_m / sig), _mean(d_psi_u / sig)],
            [_mean(d_phi_m / sig), _mean(d_phi_u)],
        ]) / u
    return _Tails(s_w, s_psi, cdf_sum, b1, b2, cdf, pdf, psi2, d)


def _assemble(uni, reg, r, m, u, t: _Tails) -> ReplicaSolution:
    """Build the full solution record from a root (m = lam - eta1, u) of both saddle equations.

    `t` is the root's own `_tail_terms` evaluation, which this reads rather
    than evaluates again. The susceptibility r S_Phi / (1 - r S_Phi) takes
    its denominator as u r S_Psi, equal at a root of the second saddle
    equation and free of the cancellation near r = 2 or under a weak
    penalty at r >= 1. With a finite eta2, S_Psi is formed as
    mean((b1 + (Psi(-b1) - Psi(-b2))) / sigma): Psi(b1) and Psi(-b2) both
    lie near phi(0) as the band closes (r -> 1 at eta = 0), and the two Psi
    of equal arguments cancel exactly. Psi(-b2) is `t.psi2`, and Psi(-b1)
    costs one cdf, since phi(-b1) is phi(b1) to the bit.
    """
    sig = uni._sig
    s_psi = t.s_psi
    if math.isinf(reg.eta2):
        elim = norm_cdf(-t.b1)
    else:
        x = -t.b1
        s_psi = _mean((t.b1 + ((x * norm_cdf(x) + t.pdf) - t.psi2)) / sig)
        elim = norm_cdf(t.b2) - t.cdf
    lam = m + reg.eta1
    denom = u * r * s_psi
    if denom <= 0.0:
        raise CriticalPhaseError(
            "susceptibility diverges: u * r * mean(Psi / sigma) rounded to 0 (flat phase)"
        )
    delta = r * t.s_phi / denom
    v = 1.0 + delta
    q0 = u * u * r * v * v
    q0_hat = -0.5 * u * u
    delta_hat = 1.0 / (2.0 * r * v)
    spread = np.sqrt(q0 * r) / sig
    w_pos = m * r * v / sig**2
    w_neg = (m + (reg.eta1 + reg.eta2)) * r * v / sig**2  # +inf under a ban
    n0 = _mean(elim)
    f = _functional_value(lam, q0, delta, q0_hat, delta_hat, r, t.s_w)
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


def unconstrained_solution(universe: AssetUniverse, r: float) -> ReplicaSolution:
    """The unpenalized estimator, 0 < r < 1: `general_l1_solve` at eta = (0, 0).

    In exact arithmetic lam = (1 - r)/(r c2), delta = r/(1 - r) and
    q0 = 1/((1 - r) c2); the root is set from lam, but the rest is assembled
    from saddle-point averages, which keep delta and q0 c2 (1 - r) within
    1.1e-15 relative of r/(1 - r) and 1 down to 1 - r = 2^-52 (N from 1 to
    1000, lognormal spreads up to 0.95). Each asset's weight law is one
    Gaussian centered on its noiseless weight; risk inflation is 1/(1 - r)
    for every universe. PhaseBoundaryError from r = 1 on.
    """
    return general_l1_solve(universe, r, RegularizerParams.none())


def noshort_lambda(universe: AssetUniverse, r: float) -> float:
    """Budget multiplier of the banned-shorts estimator, 0 < r <= 2 - CRITICAL_MARGIN.

    Solves mean_i W(sqrt(lam)/sigma_i) = 1/(2r), W the second iterated cdf
    integral, as `_first_equation` under the ban at u = 1, in s = sqrt(lam),
    where it stays well conditioned into the critical region: its left side
    is increasing and convex in s (W' = Psi > 0, W'' = Phi > 0), so Newton
    from s_up, which the bound W(x) > (x^2 + 1)/4 for x > 0 puts right of
    the root, falls monotonically onto it. The residual h = mean W - 1/(2r)
    there must be below 1e-12 * max(1, 1/(2r)): absolute for r >= 1/2,
    relative to the target below, where the target outgrows what double
    precision resolves to 1e-12. From r = 2 - CRITICAL_MARGIN on it raises
    `general_l1_solve`'s CriticalPhaseError (`_near_critical`).
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if r > 2.0 - CRITICAL_MARGIN:
        raise _near_critical("banned-shorts estimator", r)
    s_up = math.sqrt((2.0 / r - 1.0) / universe.mean_inv_var)
    s, f = _newton_right(_first_equation(universe, r, RegularizerParams.short_ban(), 1.0), s_up)
    lam = s * s
    h = f / (2.0 * r)
    if abs(h) > 1e-12 * max(1.0, 0.5 / r):
        raise NoConvergenceError(
            "multiplier root residual above 1e-12 * max(1, 1/(2r))",
            iterate=lam,
            residual=abs(h),
        )
    return lam


def _first_equation(uni: AssetUniverse, r: float, reg: RegularizerParams, u: float):
    """First saddle equation at fixed u: m -> (2r S_W(m, u) - 1, its m-derivative 2r S_Psi/u)."""
    def first(m):
        t = _tail_terms(m, u, uni, reg)
        return 2.0 * r * t.s_w - 1.0, 2.0 * r * (t.s_psi / u)

    return first


def _newton_right(f, x: float) -> tuple[float, float]:
    """Root of an increasing convex f by Newton from x, where f(x) >= 0.

    f returns (value, derivative). Every tangent lies below such an f, so
    the iterates fall monotonically onto the root; the first one that does
    not fall marks it, and (x, f(x)) is returned. NoConvergenceError after
    NEWTON_MAX_ITER steps.
    """
    fx, dfx = f(x)
    for _ in range(NEWTON_MAX_ITER):
        xn = x - fx / dfx
        if not xn < x:
            return x, fx
        x = xn
        fx, dfx = f(x)
    raise NoConvergenceError(
        f"Newton from the convex side still falling after {NEWTON_MAX_ITER} steps",
        iterate=x, residual=fx,
    )


def noshort_solution(universe: AssetUniverse, r: float) -> ReplicaSolution:
    """The banned-shorts estimator, 0 < r < 2: `general_l1_solve` at eta = (0, inf).

    Derived quantities follow from the multiplier of `noshort_lambda`: the
    cdf mass phi_bar = mean Phi(sqrt(lam)/sigma) gives
    delta = r*phi_bar/(1 - r*phi_bar), its denominator formed as
    sqrt(lam)*r*mean(Psi(sqrt(lam)/sigma)/sigma) > 0, equal at the root and
    free of cancellation near r = 2; q0 = lam*r*(1+delta)^2, and the
    condensed fraction n0 = mean Phi(-sqrt(lam)/sigma) < 1/2.
    CriticalPhaseError from r = 2 - CRITICAL_MARGIN on.
    """
    return general_l1_solve(universe, r, RegularizerParams.short_ban())


def free_energy_functional(op, universe: AssetUniverse, r: float, reg: RegularizerParams) -> float:
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
    if not r > 0:
        raise ValueError("r must be positive")
    if q0_hat >= 0 or delta_hat <= 0 or delta <= -1:
        raise ValueError(
            "functional domain requires q0_hat < 0, delta_hat > 0, delta > -1"
        )
    u = math.sqrt(-2.0 * q0_hat)
    s_w = _tail_terms(lam - reg.eta1, u, universe, reg).s_w
    return _functional_value(lam, q0, delta, q0_hat, delta_hat, r, s_w)


def _functional_value(lam, q0, delta, q0_hat, delta_hat, r, s_w) -> float:
    """The functional's value, given S_W at u = sqrt(-2 q0_hat) and m = lam - eta1."""
    return (
        lam
        - delta * q0_hat
        - delta_hat * q0
        + q0 / (2.0 * r * (1.0 + delta))
        + (q0_hat / delta_hat) * s_w
    )


def stationarity_residual(op, universe: AssetUniverse, r: float, reg: RegularizerParams) -> float:
    """Max-norm central-difference gradient of the functional at `op`.

    Each coordinate steps by the cube root of eps times the scale on which
    the functional varies in it: |q0|, |q0_hat| and delta_hat themselves,
    1 + delta for delta, and for lam its distance lam - eta1 from the
    positive band edge, but no less than the narrowest edge width
    min(sigma) * u. No step leaves the functional's domain.
    Values below ~1e-6 certify stationarity at solver accuracy.
    """
    x = np.asarray(op, dtype=float)
    lam, q0, delta, q0_hat, delta_hat = x
    u = math.sqrt(-2.0 * q0_hat) if q0_hat < 0 else 0.0
    edge = min(universe.sigmas) * u
    scale = (max(abs(lam - reg.eta1), edge), abs(q0), 1.0 + abs(delta), -q0_hat, delta_hat)
    rel = float(np.cbrt(np.finfo(float).eps))
    grad = np.zeros_like(x)
    for k in range(5):
        h = rel * (scale[k] if scale[k] > 0 else 1e-2)
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fp = free_energy_functional(xp, universe, r, reg)
        fm = free_energy_functional(xm, universe, r, reg)
        grad[k] = (fp - fm) / (2.0 * h)
    return float(np.max(np.abs(grad)))


def _saddle_residual(x, uni, r, reg):
    """Residual of both saddle equations at x = (m, u), its exact Jacobian, and the `_Tails` there."""
    m, u = x
    t = _tail_terms(m, u, uni, reg, jac=True)
    d = t.d
    f = np.array([2.0 * r * t.s_w - 1.0, u * r * t.s_psi - 1.0 + r * t.s_phi])
    jac = np.array([
        [2.0 * r * d[0, 0], 2.0 * r * d[0, 1]],
        [r * (u * d[1, 0] + d[2, 0]), r * (t.s_psi + u * d[1, 1] + d[2, 1])],
    ])
    return f, jac, t


# damped Newton of general_l1_solve: residual target and iteration budget
# (the budget also caps `_newton_right`)
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
_UNPINNED = "saddle solve ill-determined: the residual tolerance does not pin the root"
# log of sqrt(tiny): the smallest scale u whose q0_hat = -u^2/2 is a normal double
_LOG_U_MIN = 0.5 * math.log(np.finfo(float).tiny)


def general_l1_solve(
    universe: AssetUniverse, r: float, reg: RegularizerParams
) -> ReplicaSolution:
    """Solve the asymmetric-penalty saddle equations.

    The five-parameter system reduces to two unknowns, the shifted
    multiplier m = lam - eta1 and the scale u = sqrt(-2*q0_hat):

        2 r * S_W(m, u) = 1
        u r * S_Psi(m, u) = 1 - r * S_Phi(m, u)

    with the averages of `_tail_terms`. Each eta takes one route:

      * eta = (0, 0) is the closed-form root m = u^2 = (1 - r)/(r c2) at
        r < 1 (PhaseBoundaryError from r = 1 on), and so is, at r < 1, a
        penalty whose widest band eta / (sigma u) at that root is at most
        1e-13, the bound to which r >= 1 resolves eta;
      * any ban (eta2 = inf) is the banned-shorts root (lam_ns, sqrt(lam_ns))
        of `noshort_lambda`, which solves both equations exactly: eta1 only
        shifts lam, and eta = (0, inf) is `noshort_solution`;
      * any other eta runs damped Newton from the banned-shorts root and, if
        that stops short of a root pinned to NEWTON_TOL, again from
        `_bracketed_start`; a pinned or smaller residual wins.

    Newton iterates on m rather than lam, which keeps the positive band
    edge m/(sigma u) exact where lam lies within a few ulps of a large
    eta1. The Jacobian is exact, from the derivatives `_tail_terms` forms
    out of the same cdf and pdf arrays as the residual, so each candidate
    point costs one cdf and one pdf per band edge. Every route assembles
    its solution from the `_tail_terms` evaluation at its root: Newton's
    last accepted point or its polish step, or one evaluation at the
    closed-form or banned-shorts root. Steps are backtracked to
    keep m and u positive (every budget-feasible portfolio pays eta1 per
    unit budget, so lam >= eta1 at the solution) and the residual
    decreasing.

    Raises PhaseBoundaryError / CriticalPhaseError off the feasible phase,
    and NoConvergenceError if no start reaches a residual below 1e-10 or,
    at r < 1, the tolerance does not pin the root (the next Newton step
    would move it by more than 1%). Every penalized problem is critical
    from r = 2 on: beyond it a long-only zero-variance portfolio exists
    with probability -> 1 (Wendel 1962), and it pays only the penalty
    eta1 * N that every budget-feasible portfolio pays at least, so the
    optimum is flat. Within CRITICAL_MARGIN below r = 2 it raises
    CriticalPhaseError as well. At r >= 1 the penalty-free limit has no
    solution: the scale u shrinks with eta = eta1 + eta2 while the
    susceptibility grows. A penalty too weak to resolve in double precision
    raises PhaseBoundaryError: one that puts u below sqrt(tiny) ~ 1.5e-154,
    whose 1/delta rounds to zero, whose widest band eta / (sigma u) falls
    below 1e-13, or that leaves the root unpinned. For r > 1 that takes eta
    far below 1e-100 sigma; at r = 1 itself u ~ eta^(1/3), and the band
    ~ eta^(2/3) reaches 1e-13 near eta ~ 1e-19 sigma.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if r < 1:
        # Newton near r = 1 stagnates (6e-5 relative off at 1 - r = 1.1e-12
        # at eta = 0) or leaves a root the weak band cannot pin
        lam = (1.0 - r) / (r * universe.mean_inv_var)
        u = math.sqrt(lam)
        if reg.eta1 + reg.eta2 <= 1e-13 * float(np.min(universe._sig)) * u:
            return _assemble(universe, reg, r, lam, u, _tail_terms(lam, u, universe, reg))
    elif reg.eta1 == 0.0 and reg.eta2 == 0.0:
        raise PhaseBoundaryError(
            f"unconstrained estimator has no solution at r = {r:g}: the sample "
            "covariance loses rank at the r = 1 boundary and the optimum is "
            "non-unique from there on"
        )
    if r > 2.0 - CRITICAL_MARGIN:
        raise _near_critical("penalized system", r)
    lam0 = noshort_lambda(universe, r)
    u0 = math.sqrt(lam0)
    if reg.bans_shorts:
        return _assemble(universe, reg, r, lam0, u0, _tail_terms(lam0, u0, universe, reg))
    x, norm, why, tails = _newton(np.array([lam0, u0]), universe, r, reg)
    if why is not None:
        # Newton stalls against the m = 0 wall, at a spurious root, or where
        # the equations are nearly degenerate (r ~ 1 under a weak penalty)
        alt = _newton(np.array(_bracketed_start(universe, r, reg)), universe, r, reg)
        if alt[2] is None or alt[1] <= norm:
            x, norm, why, tails = alt
    if norm >= 1e-10 or (why == _UNPINNED and r < 1):
        raise NoConvergenceError(why, iterate=tuple(x), residual=norm)
    m, u = float(x[0]), float(x[1])
    # from r = 1 on only the penalty keeps the solution finite: the root must
    # be pinned and the widest band eta / (sigma u) stand above rounding
    widest = (reg.eta1 + reg.eta2) / (float(np.min(universe._sig)) * u)
    resolved = r < 1 or (why != _UNPINNED and widest > 1e-13)
    if math.log(u) >= _LOG_U_MIN and resolved:
        try:
            return _assemble(universe, reg, r, m, u, tails)
        except CriticalPhaseError:
            pass  # u r S_Psi rounded to 0: m and the penalty are below resolution
    raise _unrepresentable(r, reg)


def _newton(x, uni, r, reg):
    """Damped Newton on (m, u) from x.

    Returns (x, residual max-norm, why, the `_Tails` at x), `why` naming the
    reason the iteration stopped short of a root pinned to NEWTON_TOL, or None.
    """
    fx, jac, tails = _saddle_residual(x, uni, r, reg)
    norm0 = norm = float(np.max(np.abs(fx)))
    floor = 1e-300
    for it in range(NEWTON_MAX_ITER + 1):
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            why = _UNPINNED if norm < NEWTON_TOL else "singular Jacobian in saddle solve"
            return x, norm, why, tails
        if norm < NEWTON_TOL:
            break
        if it == NEWTON_MAX_ITER:
            return x, norm, f"saddle solve above residual contract after {it} iterations", tails
        alpha = 1.0
        while alpha > 1e-14:
            xn = x + alpha * step
            # physical roots have m = lam - eta1 > 0: the in-sample cost per
            # unit budget is at least the eta1 every budget-feasible portfolio pays
            if xn[0] > floor and xn[1] > floor:
                fn, jn, tn = _saddle_residual(xn, uni, r, reg)
                nn = float(np.max(np.abs(fn)))
                if nn < norm * (1.0 - 1e-4 * alpha) or nn < NEWTON_TOL:
                    x, fx, jac, norm, tails = xn, fn, jn, nn, tn
                    break
            alpha *= 0.5
        else:
            return x, norm, "saddle solve stagnated", tails
    # at a root the tolerance pins, the next step is far below the point
    # itself; not so where the equations barely see the unknowns (r = 1
    # under a penalty of ~1e-12 sigma: any small m solves them to 1e-12)
    if not np.all(np.abs(step) <= 1e-2 * x):
        return x, norm, _UNPINNED, tails
    if norm < norm0:
        # an iterate steps on to rounding, as near r = 1 the order parameters
        # magnify the residual by ~1/|1 - r|; a start within NEWTON_TOL stays
        fn, _, tn = _saddle_residual(x + step, uni, r, reg)
        nn = float(np.max(np.abs(fn)))
        if nn < norm:
            return x + step, nn, None, tn
    return x, norm, None, tails


def _bracketed_start(uni, r, reg) -> tuple[float, float]:
    """A point near the physical root, by bracketing, for Newton to polish.

    For fixed u the first saddle equation is increasing and convex in m > 0:
    its m-derivatives 2r mean((Psi(b1) - Psi(-b2)) / sigma) / u and
    2r mean((Phi(b1) + Phi(-b2)) / sigma^2) / u^2 are positive, as b1 > -b2.
    So it has at most one root m(u) there, which Newton from its right
    finds. Along that curve the second equation is negative as u -> 0 and
    positive where m(u) reaches 0 or, for r < 1 and under a ban, as u grows;
    its root is bracketed in log u and bisected, so a weak penalty that puts
    u many decades below 1 costs no more than a strong one.
    """
    def m_root(u):
        """The root m(u) > 0 of the first equation, None past the curve's end."""
        first = _first_equation(uni, r, reg, u)
        if first(0.0)[0] >= 0.0:
            return None
        hi = math.log(u)
        while first(math.exp(hi))[0] < 0.0:
            hi += 2.0
        return _newton_right(first, math.exp(hi))[0]

    def second(log_u):
        u = math.exp(log_u)
        m = m_root(u)
        return 1.0 if m is None else _saddle_residual(np.array([m, u]), uni, r, reg)[0][1]

    # a nan (edges past 1e154 overflow W) counts as not bracketing
    lo = hi = -0.5 * math.log(uni.mean_inv_var)
    while not second(lo) < 0.0:
        lo -= 4.0
        if lo < _LOG_U_MIN:
            raise _unrepresentable(r, reg)
    while not second(hi) >= 0.0:
        hi += 4.0
        if hi > -_LOG_U_MIN:
            raise NoConvergenceError(
                "saddle solve found no bracket on the physical branch",
                iterate=(math.exp(lo), math.exp(hi)), residual=math.inf,
            )
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if second(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    u = math.exp(0.5 * (lo + hi))
    return m_root(u), u


def _near_critical(what, r) -> CriticalPhaseError:
    """The refusal from r = 2 - CRITICAL_MARGIN on, with its reason on each side of r = 2."""
    why = ("from it on the optimum is flat, and beyond it a long-only zero-variance "
           "portfolio exists with probability -> 1" if r >= 2
           else f"within {CRITICAL_MARGIN:g} below it, 2 - r is lost in rounding")
    return CriticalPhaseError(f"{what} has no solution at r = {r!r} (critical r = 2; {why})")


def _unrepresentable(r, reg) -> PhaseBoundaryError:
    return PhaseBoundaryError(
        f"penalty eta = ({reg.eta1:g}, {reg.eta2:g}) is too weak at r = {r:g} "
        "to resolve in double precision: the penalty-free limit has no "
        "solution from r = 1 on"
    )


def critical_asymptotics(universe: AssetUniverse) -> CriticalPoint:
    """Behavior of the banned-shorts branch as r approaches r_c = 2.

    The multiplier vanishes like lambda_coeff * (2 - r)^2 with
    lambda_coeff = pi / (32 c1^2), the susceptibility diverges like
    4 / (2 - r), the out-of-sample overlap q0 tends to pi / c1^2, the risk
    inflation to pi * c2 / c1^2 (>= pi by Cauchy-Schwarz, = pi only for a
    uniform universe), and the condensed fraction to 1/2 from below.
    """
    c1 = universe.mean_inv_sigma
    c2 = universe.mean_inv_var
    return CriticalPoint(
        r_c=2.0,
        q0_limit=math.pi / c1**2,
        q0_tilde_limit=math.pi * c2 / c1**2,
        lambda_coeff=math.pi / (32.0 * c1**2),
        delta_slope=4.0,
        n0_limit=0.5,
    )
