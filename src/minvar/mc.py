"""Monte Carlo verification harness for the analytic theory.

One trial draws an (N, T) panel of independent Gaussian returns with
per-asset variances sigma_i^2 / N, forms the second-moment matrix
C = X X' / T (means are known to be zero, so nothing is centered), solves
the requested finite-size optimizer under the budget sum(w) = N, and
returns the solver's `QpResult`. `OBSERVABLES` declares each observable
the theory predicts once: its value, a map from a trial's configuration
and `QpResult`, its reduction over a grid point's trials, and the replica
column it estimates. The fields of `PointSummary`, and the columns of
`simulate`, `phase` and `compare`, are read from it, and `sweep`
evaluates every entry as each trial's result arrives.

Determinism contract: every trial's stream is Philox keyed by
SeedSequence(seed, spawn_key=(trial_index,)), trial indices are assigned
before execution, and reductions run in trial order, so every number a
sweep produces is a pure function of (seed, configuration), independent
of thread count. Where the OpenBLAS that numpy and scipy ship is found as
the Linux wheels bundle it (see `_openblas_threads`), a sweep runs it at
one thread, so its numbers are independent of OPENBLAS_NUM_THREADS as
well; elsewhere BLAS runs as set and can move their last bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import pathlib
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, make_dataclass

import numpy as np
import scipy

from .errors import ActiveSetError
from .qp import CovMatrix, QpResult, min_variance_equality, min_variance_noshort
from .theory import AssetUniverse, true_optimum

__all__ = [
    "TrialConfig",
    "PointSummary",
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
class Observable:
    """One Monte Carlo observable: a value per trial, two columns per grid point.

    `value(cfg, res)` is its value in trial `cfg`, whose solver returned `res`.
    A float reduces to `<name>_mean` and `<name>_se` (sample SD / sqrt(trials)),
    a boolean to the share `<name>_probability` and its binomial `<name>_se`.
    `compare` checks the mean against the `replica` column `estimates` names.
    """

    name: str
    value: Callable[[TrialConfig, QpResult], float | bool]
    estimates: str | None = None
    boolean: bool = False

    @property
    def columns(self) -> tuple[str, str]:
        return f"{self.name}_{'probability' if self.boolean else 'mean'}", f"{self.name}_se"

    def reduce(self, values: np.ndarray) -> tuple[float, float]:
        """The two columns' values from the trial-ordered `values`."""
        m = float(np.mean(values))
        if self.boolean:
            return m, math.sqrt(m * (1.0 - m) / values.size)
        if values.size < 2:
            return m, 0.0
        return m, float(np.std(values, ddof=1) / math.sqrt(values.size))


# In column order. The zero threshold of a weight scales with the mean
# weight budget/N, which is 1 here.
OBSERVABLES = (
    # w'Cw / r -> the budget multiplier lam
    Observable("lambda_hat", lambda cfg, res: res.objective / cfg.r, "lambda"),
    # sum(sigma^2 w^2) / sum(sigma^2 w*^2) -> the risk inflation q0_tilde
    Observable(
        "q0_tilde_hat",
        lambda cfg, res: float(cfg.universe._sig**2 @ (res.weights * res.weights))
        / true_optimum(cfg.universe).risk,
        "q0_tilde",
    ),
    # the share of weights at most WEIGHT_ZERO_RTOL -> the condensed fraction n0
    Observable("zero_fraction",
               lambda cfg, res: float(np.mean(np.abs(res.weights) <= WEIGHT_ZERO_RTOL)), "n0"),
    Observable("objective", lambda cfg, res: res.objective),
    # a zero-variance (flat) optimum
    Observable("zero_variance", lambda cfg, res: res.degenerate, boolean=True),
)

# a grid point's own columns, ahead of its observables'
POINT_FIELDS = (("r_requested", float), ("r", float), ("t", int), ("n", int), ("trials", int))

PointSummary = make_dataclass(
    "PointSummary",
    [*POINT_FIELDS, *((c, float) for o in OBSERVABLES for c in o.columns),
     ("weights", np.ndarray | None, None)],
    frozen=True,
    namespace={"__module__": __name__, "__doc__": "Aggregates of one grid point, two "
               "columns per entry of OBSERVABLES, as `Observable` defines them."},
)


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


def run_trial(cfg: TrialConfig) -> QpResult:
    """Draw one panel, form C and return the optimizer's solve at budget N."""
    n = cfg.universe.n
    cov = CovMatrix.from_returns(generate_returns(cfg))
    if cfg.constraint == "equality":
        return min_variance_equality(cov, budget=n)
    try:
        return min_variance_noshort(cov, budget=n)
    except ActiveSetError as exc:
        raise ActiveSetError(
            f"trial {cfg.trial_index} (r = {cfg.r:.6g}, T = {cfg.t}, "
            f"seed {cfg.seed}): {exc}",
            iterate=exc.iterate, residual=exc.residual,
        ) from exc


@functools.cache
def _openblas_threads() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS that numpy and scipy ship.

    A Linux wheel bundles its build as `<package>.libs/libscipy_openblas*.so`
    next to the package; numpy's ILP64 build suffixes the functions `64_`.
    Looked up once per process; empty elsewhere, including the macOS and
    Windows wheels (`.dylib` under `<package>/.dylibs`, `.dll`) and packages
    that link another BLAS (MKL, Accelerate, a system library).
    """
    found = []
    for pkg in (np, scipy):
        libs = pathlib.Path(pkg.__file__).parents[1] / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so")):
            try:
                lib = ctypes.CDLL(str(path))
                suffix = "64_" if hasattr(lib, "scipy_openblas_get_num_threads64_") else ""
                found.append((getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
                              getattr(lib, f"scipy_openblas_set_num_threads{suffix}")))
            except (OSError, AttributeError):
                pass  # not a build of this naming: BLAS runs as set
    return tuple(found)


_BLAS_LOCK = threading.Lock()
_blas_sweeps = 0  # sweeps running; the first saves the thread counts, the last restores them
_blas_saved: list[int] = []


@contextlib.contextmanager
def _one_blas_thread():
    """Limit each OpenBLAS of `_openblas_threads` to one thread while the block runs."""
    global _blas_sweeps
    libs = _openblas_threads()
    with _BLAS_LOCK:
        if _blas_sweeps == 0:
            _blas_saved[:] = [get() for get, _ in libs]
            for _, set_ in libs:
                set_(1)
        _blas_sweeps += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_sweeps -= 1
            if _blas_sweeps == 0:
                for (_, set_), n in zip(libs, _blas_saved):
                    set_(n)


def sweep(
    universe: AssetUniverse,
    r_grid,
    trials: int,
    constraint: str,
    seed: int,
    threads: int = 1,
    keep_weights: bool = False,
) -> tuple[PointSummary, ...]:
    """Run `trials` independent trials at every ratio of `r_grid`, one point per ratio.

    The observation count is T = round(N / r) (at least 1) and the achieved
    ratio r = N/T is what each point reports; analytic comparisons should
    be evaluated there. Trial indices are globally unique across the grid,
    so no stream is reused. With threads > 1 the trials are executed by one
    thread pool for the whole grid (the linear algebra releases the
    interpreter lock) and collected in trial order, point by point; results
    are identical for any thread count. Each result is reduced to its
    observables (and, with `keep_weights`, its weights) as it arrives.

    While it runs, the OpenBLAS builds numpy and scipy ship are limited to
    one thread each, a process-wide setting restored when the sweep ends, so
    every table is independent of OPENBLAS_NUM_THREADS. Where no such build
    is found (`_openblas_threads`), BLAS runs as set. On 2 vCPUs one thread
    was also the faster: a `threads=1` no-short sweep at N = 400 took 2.2 s
    against 5.4 s with BLAS at its default of two, equality 1.7 s against
    2.5 s. On more cores it has not been measured.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    grid = [float(r) for r in r_grid]
    if any(r <= 0 or not math.isfinite(r) for r in grid):
        raise ValueError("ratios must be positive and finite")
    points = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(_one_blas_thread())
        run = map
        if threads > 1:  # one pool serves every grid point
            run = stack.enter_context(ThreadPoolExecutor(max_workers=threads)).map
        for k, r_req in enumerate(grid):
            t = max(1, round(universe.n / r_req))
            cfgs = [
                TrialConfig(
                    universe=universe,
                    t=t,
                    constraint=constraint,
                    seed=seed,
                    trial_index=k * trials + j,
                )
                for j in range(trials)
            ]
            values, pooled = [], []
            for cfg, res in zip(cfgs, run(run_trial, cfgs)):
                values.append([o.value(cfg, res) for o in OBSERVABLES])
                if keep_weights:
                    pooled.append(res.weights)
            stats = {}
            for o, column in zip(OBSERVABLES, zip(*values)):
                stats.update(zip(o.columns, o.reduce(np.array(column))))
            points.append(PointSummary(
                r_requested=r_req, r=universe.n / t, t=t, n=universe.n, trials=trials, **stats,
                weights=np.concatenate(pooled) if keep_weights else None,
            ))
    return tuple(points)


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
    """Edges k * bin_width, k integer, covering [lo, hi] with at least one bin.

    Raises ValueError where max(|lo|, |hi|) / bin_width reaches 2**53: past
    it the integers k, and so the edges k * bin_width, are no longer exact.
    """
    if not max(abs(lo), abs(hi)) / bin_width < 2.0**53:
        raise ValueError("bin width too small for the weight range: edges k * width inexact")
    lo_k = math.floor(lo / bin_width)
    hi_k = max(math.ceil(hi / bin_width), lo_k + 1)
    return np.arange(lo_k, hi_k + 1) * bin_width


def weight_histogram(
    weights: np.ndarray, bin_width: float = 0.05, edges: np.ndarray | None = None,
) -> Histogram:
    """Histogram pooled weights with the exact-zero atom kept out of the bins.

    Bins are multiples of `bin_width` covering the nonzero weights (one bin
    [0, bin_width) when there are none), unless `edges` gives them; weights
    outside given edges count in no bin. The atom holds the weights of size
    at most WEIGHT_ZERO_RTOL, as `zero_fraction` counts them.
    """
    w = np.asarray(weights, dtype=float).ravel()
    if w.size == 0:
        raise ValueError("no weights to histogram")
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise ValueError("bin width must be positive and finite")
    at_zero = np.abs(w) <= WEIGHT_ZERO_RTOL
    atom = float(np.mean(at_zero))
    wc = w[~at_zero]
    if edges is None:
        lo, hi = (float(wc.min()), float(wc.max())) if wc.size else (0.0, 0.0)
        edges = bin_grid(lo, hi, bin_width)
    counts, _ = np.histogram(wc, bins=edges)
    return Histogram(
        edges=edges, masses=counts / w.size, atom=atom, count=w.size
    )
