"""Monte Carlo verification harness for the analytic theory.

One trial draws an (N, T) panel of independent Gaussian returns with
per-asset variances sigma_i^2 / N, forms the second-moment matrix
C = X X' / T (means are known to be zero, so nothing is centered), solves
the requested finite-size optimizer under the budget sum(w) = N, and
reports the observables the theory predicts:

    lambda_hat   = (w' C w) / r      -> the budget multiplier lam
    q0_tilde_hat = sum(sigma^2 w^2) / sum(sigma^2 w*^2)
                                     -> the risk inflation q0_tilde
    zero_fraction                    -> the condensed fraction n0
    degenerate                       -> the zero-variance (flat) phase flag

Determinism contract: every trial's stream is Philox keyed by
SeedSequence(seed, spawn_key=(trial_index,)), trial indices are assigned
before execution, and reductions run in trial order, so every number a
sweep produces is a pure function of (seed, configuration), independent
of thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ActiveSetError
from .qp import CovMatrix, min_variance_equality, min_variance_noshort
from .theory import AssetUniverse, as_universe, true_optimum

__all__ = [
    "TrialConfig",
    "SampleMetrics",
    "PointSummary",
    "SweepSummary",
    "Histogram",
    "generate_returns",
    "run_trial",
    "sweep",
    "weight_histogram",
]

CONSTRAINTS = ("equality", "noshort")

# weights below WEIGHT_ZERO_RTOL * budget / N count as eliminated
WEIGHT_ZERO_RTOL = 1e-8


@dataclass(frozen=True)
class TrialConfig:
    """One sample of the estimation experiment."""

    universe: AssetUniverse
    t: int
    constraint: str
    seed: int
    trial_index: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("need at least one observation")
        if self.constraint not in CONSTRAINTS:
            raise ValueError(f"constraint must be one of {CONSTRAINTS}")

    @property
    def r(self) -> float:
        return self.universe.n / self.t


@dataclass(frozen=True)
class SampleMetrics:
    """Observables of one trial; weights kept for pooled histograms."""

    r: float
    t: int
    lambda_hat: float
    q0_tilde_hat: float
    zero_fraction: float
    objective: float
    degenerate: bool
    weights: np.ndarray


@dataclass(frozen=True)
class PointSummary:
    """Aggregates of one grid point; SEs use the sample standard deviation."""

    r_requested: float
    r: float
    t: int
    n: int
    trials: int
    lambda_hat_mean: float
    lambda_hat_se: float
    q0_tilde_hat_mean: float
    q0_tilde_hat_se: float
    zero_fraction_mean: float
    zero_fraction_se: float
    objective_mean: float
    objective_se: float
    zero_variance_probability: float
    zero_variance_se: float
    weights: np.ndarray | None = None


@dataclass(frozen=True)
class SweepSummary:
    universe: AssetUniverse
    constraint: str
    seed: int
    trials: int
    points: tuple[PointSummary, ...]


def generate_returns(cfg: TrialConfig) -> np.ndarray:
    """(N, T) Gaussian panel, row i scaled to variance sigma_i^2 / N.

    The stream is a counter-based generator keyed on (seed, trial_index),
    so regeneration is exact and trials may run in any order.
    """
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(cfg.trial_index,))
    gen = np.random.Generator(np.random.Philox(ss))
    uni = cfg.universe
    x = gen.standard_normal((uni.n, cfg.t))
    x *= (uni._sig / math.sqrt(uni.n))[:, None]
    return x


def run_trial(cfg: TrialConfig) -> SampleMetrics:
    """Draw one panel, optimize, and evaluate the trial observables."""
    uni = cfg.universe
    n = uni.n
    x = generate_returns(cfg)
    cov = CovMatrix.from_returns(x)
    if cfg.constraint == "equality":
        res = min_variance_equality(cov, budget=n)
    else:
        try:
            res = min_variance_noshort(cov, budget=n)
        except ActiveSetError as exc:
            raise ActiveSetError(
                f"trial {cfg.trial_index} (r = {cfg.r:.6g}, T = {cfg.t}, "
                f"seed {cfg.seed}): {exc}",
                iterate=exc.iterate, residual=exc.residual,
            ) from exc
    w = res.weights
    r = cfg.r
    sig2 = uni._sig**2
    ref = true_optimum(uni)
    q0_tilde_hat = float(sig2 @ (w * w)) / ref.risk
    # zero threshold scales with the mean weight budget/N, which is 1 here
    zero_fraction = float(np.mean(np.abs(w) <= WEIGHT_ZERO_RTOL))
    return SampleMetrics(
        r=r,
        t=cfg.t,
        lambda_hat=res.objective / r,
        q0_tilde_hat=q0_tilde_hat,
        zero_fraction=zero_fraction,
        objective=res.objective,
        degenerate=res.degenerate,
        weights=w,
    )


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(values))
    if values.size < 2:
        return m, 0.0
    return m, float(np.std(values, ddof=1) / math.sqrt(values.size))


def sweep(
    universe,
    r_grid,
    trials: int,
    constraint: str,
    seed: int,
    threads: int = 1,
    keep_weights: bool = False,
) -> SweepSummary:
    """Run `trials` independent trials at every ratio of `r_grid`.

    The observation count is T = round(N / r) (at least 1) and the achieved
    ratio r = N/T is what each point reports; analytic comparisons should
    be evaluated there. Trial indices are globally unique across the grid,
    so no stream is reused. With threads > 1 the trials are executed by a
    thread pool (the linear algebra releases the interpreter lock) and
    collected in trial order; results are identical for any thread count.
    """
    uni = as_universe(universe)
    if trials < 1:
        raise ValueError("need at least one trial")
    grid = [float(r) for r in r_grid]
    if any(r <= 0 or not math.isfinite(r) for r in grid):
        raise ValueError("ratios must be positive and finite")
    points = []
    for k, r_req in enumerate(grid):
        t = max(1, round(uni.n / r_req))
        cfgs = [
            TrialConfig(
                universe=uni,
                t=t,
                constraint=constraint,
                seed=seed,
                trial_index=k * trials + j,
            )
            for j in range(trials)
        ]
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                metrics = list(pool.map(run_trial, cfgs))
        else:
            metrics = [run_trial(c) for c in cfgs]
        lam_m, lam_se = _mean_se(np.array([m.lambda_hat for m in metrics]))
        q_m, q_se = _mean_se(np.array([m.q0_tilde_hat for m in metrics]))
        z_m, z_se = _mean_se(np.array([m.zero_fraction for m in metrics]))
        o_m, o_se = _mean_se(np.array([m.objective for m in metrics]))
        p = float(np.mean([m.degenerate for m in metrics]))
        p_se = math.sqrt(p * (1.0 - p) / trials)
        pooled = (
            np.concatenate([m.weights for m in metrics]) if keep_weights else None
        )
        points.append(
            PointSummary(
                r_requested=r_req,
                r=uni.n / t,
                t=t,
                n=uni.n,
                trials=trials,
                lambda_hat_mean=lam_m,
                lambda_hat_se=lam_se,
                q0_tilde_hat_mean=q_m,
                q0_tilde_hat_se=q_se,
                zero_fraction_mean=z_m,
                zero_fraction_se=z_se,
                objective_mean=o_m,
                objective_se=o_se,
                zero_variance_probability=p,
                zero_variance_se=p_se,
                weights=pooled,
            )
        )
    return SweepSummary(
        universe=uni, constraint=constraint, seed=seed, trials=trials,
        points=tuple(points),
    )


@dataclass(frozen=True)
class Histogram:
    """Pooled weight histogram: zero atom separated from the continuous bins.

    `masses` are probabilities per bin over all pooled weights (atom
    included in the normalization), so atom + sum(masses) = 1.
    """

    edges: np.ndarray
    masses: np.ndarray
    atom: float
    count: int


def bin_grid(lo: float, hi: float, bin_width: float) -> np.ndarray:
    """Edges k * bin_width, k integer, covering [lo, hi] with at least one bin."""
    lo_k = math.floor(lo / bin_width)
    hi_k = max(math.ceil(hi / bin_width), lo_k + 1)
    return np.arange(lo_k, hi_k + 1) * bin_width


def weight_histogram(
    weights: np.ndarray, bin_width: float = 0.05, zero_tol: float = WEIGHT_ZERO_RTOL,
    edges: np.ndarray | None = None,
) -> Histogram:
    """Histogram pooled weights with the exact-zero atom kept out of the bins.

    Bins are multiples of `bin_width` covering the nonzero weights (one bin
    [0, bin_width) when there are none), unless `edges` gives them; weights
    outside given edges count in no bin.
    """
    w = np.asarray(weights, dtype=float).ravel()
    if w.size == 0:
        raise ValueError("no weights to histogram")
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise ValueError("bin width must be positive and finite")
    at_zero = np.abs(w) <= zero_tol
    atom = float(np.mean(at_zero))
    wc = w[~at_zero]
    if edges is None:
        lo, hi = (float(wc.min()), float(wc.max())) if wc.size else (0.0, 0.0)
        edges = bin_grid(lo, hi, bin_width)
    counts, _ = np.histogram(wc, bins=edges)
    return Histogram(
        edges=edges, masses=counts / w.size, atom=atom, count=w.size
    )
