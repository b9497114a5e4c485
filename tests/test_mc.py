"""Tests for the Monte Carlo harness.

Covers the keyed RNG contract (regeneration, order and thread-count
independence), per-trial observables against direct computation, and the
small-sample physics that has exact finite-size answers.
"""

import math
import sys

import numpy as np
import pytest

from minvar import (
    AssetUniverse,
    CovMatrix,
    QpResult,
    TrialConfig,
    generate_returns,
    min_variance_equality,
    run_trial,
    sweep,
    true_optimum,
    weight_histogram,
)
from minvar.mc import OBSERVABLES, bin_grid


UNI = AssetUniverse.constant(1.0, 20)


def _observe(cfg):
    """Each OBSERVABLES value of trial `cfg`, by name, as `sweep` evaluates them."""
    res = run_trial(cfg)
    return {o.name: o.value(cfg, res) for o in OBSERVABLES}


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(universe=UNI, t=0, constraint="equality", seed=0, trial_index=0)
    with pytest.raises(ValueError):
        TrialConfig(universe=UNI, t=5, constraint="longonly", seed=0, trial_index=0)
    cfg = TrialConfig(universe=UNI, t=40, constraint="noshort", seed=0, trial_index=0)
    assert cfg.r == 0.5


def test_generate_returns_scaling_and_keying():
    uni = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    cfg = TrialConfig(universe=uni, t=50_000, constraint="equality", seed=3, trial_index=5)
    x = generate_returns(cfg)
    assert x.shape == (3, 50_000)
    sample_var = np.var(x, axis=1)
    expect = np.asarray(uni.sigmas) ** 2 / uni.n
    assert np.allclose(sample_var, expect, rtol=0.05)
    # Exact regeneration from the key; distinct trials give distinct panels.
    again = generate_returns(cfg)
    assert np.array_equal(x, again)
    other = generate_returns(
        TrialConfig(universe=uni, t=50_000, constraint="equality", seed=3, trial_index=6)
    )
    assert not np.array_equal(x, other)


def test_run_trial_observables_match_direct_computation():
    uni = AssetUniverse(sigmas=(1.0, 2.0))
    cfg = TrialConfig(universe=uni, t=8, constraint="equality", seed=9, trial_index=0)
    trial = run_trial(cfg)
    assert isinstance(trial, QpResult)
    m = {o.name: o.value(cfg, trial) for o in OBSERVABLES}
    x = generate_returns(cfg)
    res = min_variance_equality(CovMatrix.from_returns(x), budget=2.0)
    assert m["objective"] == res.objective
    assert m["lambda_hat"] == pytest.approx(res.objective / cfg.r, rel=1e-15)
    w = np.asarray(res.weights)
    sig2 = np.asarray(uni.sigmas) ** 2
    assert m["q0_tilde_hat"] == pytest.approx(
        float(sig2 @ (w * w)) / true_optimum(uni).risk, rel=1e-13
    )
    assert x.shape == (2, 8)
    assert np.array_equal(trial.weights, w)


def test_sweep_grid_reporting_and_determinism():
    s1 = sweep(UNI, [0.5, 1.6], trials=6, constraint="noshort", seed=21)
    s2 = sweep(UNI, [0.5, 1.6], trials=6, constraint="noshort", seed=21, threads=4)
    assert s1 == s2  # thread-count independence, exact equality
    p, q = s1
    assert p.t == 40 and p.r == 0.5 and p.r_requested == 0.5
    assert q.t == round(20 / 1.6) and q.r == 20 / q.t
    # six no-short trials per point: the ban eliminates assets at r = 0.5
    assert p.trials == q.trials == 6 and p.zero_fraction_mean > 0.0


@pytest.mark.parametrize("threads", [2, 4])
def test_noshort_sweep_with_drops_is_thread_count_independent(threads):
    # at N = 200 every solve drops corral members, each through its own
    # corral's buffers; a short switch interval makes the threads
    # interleave inside their solves
    uni = AssetUniverse.constant(1.0, 200)
    s1 = sweep(uni, [1.9, 2.5], trials=4, constraint="noshort", seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        s2 = sweep(uni, [1.9, 2.5], trials=4, constraint="noshort", seed=5,
                   threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert s1 == s2


def test_sweep_trial_indices_are_global():
    # The second grid point must not reuse the first point's streams: its
    # trials are keyed from trials..2*trials-1.
    s = sweep(UNI, [0.5, 0.5], trials=4, constraint="equality", seed=13)
    a, b = s
    assert a.t == b.t
    assert a.lambda_hat_mean != b.lambda_hat_mean  # different draws
    cfg = TrialConfig(universe=UNI, t=40, constraint="equality", seed=13, trial_index=4)
    first_of_second = _observe(cfg)
    # Reconstruct the second point's mean directly.
    ms = [
        _observe(
            TrialConfig(universe=UNI, t=40, constraint="equality", seed=13, trial_index=i)
        )
        for i in range(4, 8)
    ]
    assert b.lambda_hat_mean == pytest.approx(
        np.mean([m["lambda_hat"] for m in ms]), rel=1e-15
    )
    assert ms[0]["lambda_hat"] == first_of_second["lambda_hat"]


def test_sweep_mean_and_se_definitions():
    s = sweep(UNI, [0.8], trials=5, constraint="equality", seed=2)
    (p,) = s
    t = p.t
    vals = [
        _observe(
            TrialConfig(universe=UNI, t=t, constraint="equality", seed=2, trial_index=i)
        )["q0_tilde_hat"]
        for i in range(5)
    ]
    assert p.q0_tilde_hat_mean == pytest.approx(np.mean(vals), rel=1e-14)
    assert p.q0_tilde_hat_se == pytest.approx(
        np.std(vals, ddof=1) / np.sqrt(5), rel=1e-12
    )


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        sweep(UNI, [0.5], trials=0, constraint="equality", seed=0)
    with pytest.raises(ValueError):
        sweep(UNI, [-0.5], trials=2, constraint="equality", seed=0)
    with pytest.raises(ValueError):
        sweep(UNI, [0.5], trials=2, constraint="bogus", seed=0)


def test_equality_oversampled_ratio_always_degenerate():
    s = sweep(UNI, [1.25, 2.0], trials=20, constraint="equality", seed=5)
    for p in s:
        assert p.zero_variance_probability == 1.0
        assert p.objective_mean < 1e-12


def test_equality_insample_mean_matches_exact_finite_size_law():
    # Equality case at sigma=1: the in-sample objective over the plane has
    # the exact sampling mean lambda_hat = (T - N + 1)/N, an O(1/N) lift of
    # the asymptotic (1-r)/r. A 3-sigma band around the exact law is a
    # sharp oracle for the whole pipeline (RNG scaling included).
    n, t, trials = 20, 40, 400
    uni = AssetUniverse.constant(1.0, n)
    (p,) = sweep(uni, [n / t], trials=trials, constraint="equality", seed=17)
    assert p.t == t
    exact = (t - n + 1) / n
    assert abs(p.lambda_hat_mean - exact) < 3 * p.lambda_hat_se


@pytest.mark.parametrize("n,t", [(50, 22), (50, 25), (100, 45), (100, 50)])
def test_zero_variance_frequency_matches_wendel(n, t):
    # Wendel (1962): N symmetric points in general position in R^T have the
    # origin in their convex hull with probability P(Bin(N-1, 1/2) >= T),
    # for any positive row scaling. That is the exact finite-size chance
    # that the no-short problem has a zero-variance portfolio.
    trials = 400
    p = sum(math.comb(n - 1, k) for k in range(t, n)) / 2 ** (n - 1)
    (point,) = sweep(
        AssetUniverse.constant(1.0, n), [n / t], trials=trials, constraint="noshort", seed=0
    )
    assert point.t == t
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(point.zero_variance_probability - p) <= 3.0 * se


def test_keep_weights_and_histogram():
    (p,) = sweep(UNI, [1.5], trials=10, constraint="noshort", seed=6, keep_weights=True)
    assert p.weights is not None
    assert p.weights.shape == (10 * UNI.n,)
    assert np.all(p.weights >= 0)
    h = weight_histogram(p.weights, bin_width=0.25)
    assert h.count == p.weights.size
    assert h.atom == pytest.approx(p.zero_fraction_mean, abs=1e-12)
    assert h.atom + h.masses.sum() == pytest.approx(1.0, abs=1e-12)
    # Bin masses agree with a direct count on the nonzero weights.
    wc = p.weights[p.weights > 1e-8]
    k = np.searchsorted(h.edges, 0.6, side="right") - 1
    lo, hi = h.edges[k], h.edges[k + 1]
    direct = np.sum((wc >= lo) & (wc < hi)) / p.weights.size
    assert h.masses[k] == pytest.approx(direct, abs=1e-12)
    (no_weights,) = sweep(UNI, [1.5], trials=2, constraint="noshort", seed=6)
    assert no_weights.weights is None


def test_weight_histogram_validation():
    with pytest.raises(ValueError):
        weight_histogram(np.array([]))
    for bad in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            weight_histogram(np.array([1.0]), bin_width=bad)
    h = weight_histogram(np.zeros(5), bin_width=0.25)
    assert h.atom == 1.0
    assert np.array_equal(h.edges, [0.0, 0.25]) and np.array_equal(h.masses, [0.0])


def test_bin_grid_refuses_inexact_edges():
    # from 2**53 bin widths off 0 on, k * bin_width is no longer exact
    for lo, hi in ((0.0, 1.0), (-1.0, 0.0)):
        with pytest.raises(ValueError, match="bin width too small"):
            bin_grid(lo, hi, 2.0**-53)
    with pytest.raises(ValueError, match="bin width too small"):
        weight_histogram(np.array([0.0, 1.0]), bin_width=1e-300)
    assert np.array_equal(bin_grid(-0.5, 1.0, 0.5), [-0.5, 0.0, 0.5, 1.0])


def test_weight_histogram_on_given_edges():
    w = np.array([0.0, 1e-12, -0.3, 0.05, 0.12, 0.12, 0.49, 2.0])
    own = weight_histogram(w, bin_width=0.1)
    same = weight_histogram(w, edges=own.edges)
    assert np.array_equal(same.edges, own.edges) and np.array_equal(same.masses, own.masses)
    h = weight_histogram(w, edges=np.array([0.0, 0.25, 0.5]))
    assert h.atom == 2 / 8 and h.count == 8
    # weights outside the given edges count in no bin
    assert np.array_equal(h.masses, np.array([3, 1]) / 8)
    empty = weight_histogram(np.zeros(3), edges=np.array([-1.0, 0.0, 1.0]))
    assert empty.atom == 1.0 and np.array_equal(empty.masses, np.zeros(2))
