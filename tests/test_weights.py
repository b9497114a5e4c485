"""Tests for the pooled weight mixture.

Masses and moments are checked against direct quadrature of the density,
and the sampler is checked statistically against the analytic masses.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from minvar import (
    AssetUniverse,
    RegularizerParams,
    WeightMixture,
    build_mixture,
    general_l1_solve,
    noshort_solution,
    sample_weights,
    unconstrained_solution,
)
import minvar.weights
from minvar.cli import _bin_edges
from minvar.special import norm_cdf, norm_pdf


@pytest.fixture(scope="module")
def noshort_mix():
    uni = AssetUniverse(sigmas=(1.0, 2.0, 4.0))
    sol = noshort_solution(uni, 1.0)
    return sol, build_mixture(sol)


@pytest.fixture(scope="module")
def free_mix():
    uni = AssetUniverse.constant(1.0, 1)
    sol = unconstrained_solution(uni, 0.5)
    return sol, build_mixture(sol)


def test_validation():
    uni = AssetUniverse.constant(1.0, 1)
    sol = noshort_solution(uni, 1.0)
    law = dict(center_pos=sol.center_pos, center_neg=sol.center_neg, spread=sol.spread)
    with pytest.raises(ValueError):
        WeightMixture(atom=-0.1, **law)
    with pytest.raises(ValueError):
        WeightMixture(atom=1.5, **law)
    with pytest.raises(ValueError):
        WeightMixture(atom=0.0, center_pos=[], center_neg=[], spread=[])


@pytest.mark.parametrize(
    "law, match",
    [
        (dict(center_pos=[1.0, 2.0], center_neg=[np.inf], spread=[0.5, 0.5]), "equal lengths"),
        (dict(center_pos=[1.0], center_neg=[np.inf], spread=[0.5, 0.5]), "equal lengths"),
        (dict(center_pos=[[1.0]], center_neg=[[np.inf]], spread=[[0.5]]), "1-d"),
        (dict(center_pos=1.0, center_neg=np.inf, spread=0.5), "1-d"),
        (dict(center_pos=[1.0, 2.0], center_neg=[np.inf] * 2, spread=[0.5, 0.0]), "positive"),
    ],
)
def test_validation_rejects_misaligned_components(law, match):
    with pytest.raises(ValueError, match=match):
        WeightMixture(atom=0.0, **law)


def test_solution_and_mixture_are_read_only(noshort_mix):
    sol, mix = noshort_mix
    for name in ("center_pos", "center_neg", "spread", "elim_prob"):
        assert getattr(sol, name).flags.writeable is False
    for name in ("center_pos", "center_neg", "spread"):
        assert getattr(mix, name).flags.writeable is False
        assert np.array_equal(getattr(mix, name), getattr(sol, name))
    src = np.array([1.0, 2.0])
    own = WeightMixture(atom=0.0, center_pos=src, center_neg=src, spread=src)
    src[0] = 5.0
    assert own.center_pos[0] == 1.0


def test_atom_equals_zero_fraction(noshort_mix):
    sol, mix = noshort_mix
    assert mix.atom == sol.n0
    assert mix.n == 3


def test_density_integrates_to_continuous_mass(noshort_mix):
    sol, mix = noshort_mix
    val, err = quad(mix.density, -50.0, 50.0, limit=400)
    assert err < 1e-8
    assert val == pytest.approx(1.0 - sol.n0, abs=1e-8)


def test_density_is_zero_on_banned_side(noshort_mix):
    _, mix = noshort_mix
    ws = np.linspace(-10.0, -1e-6, 50)
    assert np.all(mix.density(ws) == 0.0)
    pos, neg = mix.branch_masses()
    assert neg == 0.0
    assert pos == pytest.approx(1.0 - mix.atom, rel=1e-12)


def test_bin_mass_matches_quadrature(noshort_mix):
    _, mix = noshort_mix
    for lo, hi in [(0.05, 0.1), (0.5, 1.0), (-1.0, 0.5), (2.0, 9.0)]:
        val, _ = quad(mix.density, lo, hi, limit=400)
        assert mix.bin_mass([lo, hi])[0] == pytest.approx(val, abs=1e-10)
    edges = [-1.0, 0.05, 0.1, 0.1, 0.5, 1.0, 9.0]
    masses = mix.bin_mass(edges)
    assert masses.shape == (6,)
    assert masses[2] == 0.0  # empty bin
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        assert masses[k] == mix.bin_mass([lo, hi])[0]
    assert mix.bin_mass([1.0]).shape == (0,)
    for bad in ([2.0, 1.0], [], [[0.0, 1.0]], [0.0, np.nan, 1.0]):
        with pytest.raises(ValueError):
            mix.bin_mass(bad)
    # repeated infinite edges make an empty bin, as repeated finite ones do,
    # and are checked without forming inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        masses = mix.bin_mass([0.0, 1.0, np.inf, np.inf])
        assert np.array_equal(mix.bin_mass([-np.inf, -np.inf, 0.0]), [0.0, 0.0])
    assert masses[1] == mix.bin_mass([1.0, np.inf])[0]
    assert masses[2] == 0.0


def test_bin_mass_two_sided_matches_quadrature(free_mix):
    # Bins below, ending at, straddling and starting at zero: the negative
    # branch carries mass here, unlike under the short-sale ban.
    _, mix = free_mix
    edges = np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
    masses = mix.bin_mass(edges)
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        val, _ = quad(mix.density, lo, hi, limit=400)
        assert masses[k] == pytest.approx(val, abs=1e-10)
    straddle = mix.bin_mass([-1.0, 0.5])[0]
    assert straddle == pytest.approx(masses[1] + masses[2], abs=1e-14)
    wide = mix.bin_mass(np.linspace(-40.0, 40.0, 801))
    assert float(np.sum(wide)) == pytest.approx(1.0, abs=1e-12)


def _bin_mass_per_bin(mix, lo, hi):
    """One bin's mass by a separate pass over the components, as a reference."""
    a, b, s = mix.center_pos, mix.center_neg, mix.spread
    mass = 0.0
    p_lo, p_hi = max(lo, 0.0), max(hi, 0.0)
    if p_hi > p_lo:
        mass += float(np.mean(norm_cdf((p_hi - a) / s) - norm_cdf((p_lo - a) / s)))
    n_lo, n_hi = min(lo, 0.0), min(hi, 0.0)
    if n_hi > n_lo:
        mass += float(np.mean(norm_cdf((n_hi - b) / s) - norm_cdf((n_lo - b) / s)))
    return mass


@pytest.fixture(scope="module")
def workload_mixes():
    """The analytic benchmark's N = 1000 laws on `weights`' 0.05 grid, with per-bin masses.

    No-short at r = 1.9, and eta = (0.3, 1.5) at r = 1.5, whose negative
    branch carries mass.
    """
    uni = AssetUniverse.lognormal(0.0, 0.5, 1000, 7)
    out = []
    for sol in (noshort_solution(uni, 1.9),
                general_l1_solve(uni, 1.5, RegularizerParams(0.3, 1.5))):
        mix = build_mixture(sol)
        edges = _bin_edges(mix, 0.05)
        ref = [_bin_mass_per_bin(mix, float(lo), float(hi))
               for lo, hi in zip(edges, edges[1:])]
        out.append((mix, edges, ref))
    return out


@pytest.mark.parametrize("block", [None, 7, 15])
def test_bin_mass_equals_per_bin_reference(noshort_mix, free_mix, workload_mixes,
                                           monkeypatch, block):
    # Same arithmetic per bin, so equal to the last bit, whatever the block
    # size (7 and 15 elements give 2 and 5 edges per block for 3 assets).
    # The grids have bins ending at, starting at and straddling zero.
    if block is not None:
        monkeypatch.setattr(minvar.weights, "_BLOCK_ELEMENTS", block)
    grids = (
        np.concatenate([[-2.0], np.linspace(-1.0, 8.0, 37), [8.0]]),
        np.linspace(-1.1, 8.0, 30),
    )
    for edges in grids:
        for _, mix in (noshort_mix, free_mix):
            ref = [_bin_mass_per_bin(mix, float(lo), float(hi))
                   for lo, hi in zip(edges, edges[1:])]
            assert np.array_equal(mix.bin_mass(edges), ref)
    # at N = 1000 most (edge, component) pairs are past the saturation
    # bound, where bin_mass writes 1.0 instead of evaluating the cdf
    for mix, edges, ref in workload_mixes:
        bound = mix.center_pos + minvar.weights._CDF_ONE * mix.spread
        assert np.mean(edges[:, None] >= bound) > 0.5
        assert np.array_equal(mix.bin_mass(edges), ref)


def test_bin_mass_skip_bound_lost_in_rounding(monkeypatch):
    # With center / spread = 1e18 the bound center + 8.2924 * spread rounds
    # to the center itself, an edge where the cdf is 1/2: nothing may be
    # skipped. Blocks of two edges, since a block evaluates a component at
    # all its edges once any of them is live.
    monkeypatch.setattr(minvar.weights, "_BLOCK_ELEMENTS", 4)
    mix = WeightMixture(atom=0.0, center_pos=[1e18, 1.0], center_neg=[np.inf] * 2,
                        spread=[1.0, 0.5])
    edges = 1e18 + np.array([-256.0, -128.0, 0.0, 128.0, 256.0])
    ref = [_bin_mass_per_bin(mix, float(lo), float(hi)) for lo, hi in zip(edges, edges[1:])]
    assert ref[1] == 0.25
    assert np.array_equal(mix.bin_mass(edges), ref)


def test_fine_partition_reconstructs_total_mass(noshort_mix):
    sol, mix = noshort_mix
    edges = np.linspace(-30.0, 30.0, 1201)
    total = float(np.sum(mix.bin_mass(edges)))
    assert total + mix.atom == pytest.approx(1.0, abs=1e-9)


def test_mean_is_unit_budget(noshort_mix, free_mix):
    for sol, mix in (noshort_mix, free_mix):
        # Saddle-point identity: the continuous part carries the whole
        # unit budget (the atom contributes zero).
        assert mix.mean() == pytest.approx(1.0, rel=1e-10)
        val, _ = quad(lambda w: w * mix.density(w), -60.0, 60.0, limit=600)
        assert val == pytest.approx(1.0, abs=1e-7)


def test_unconstrained_mixture_is_plain_gaussian(free_mix):
    sol, mix = free_mix
    assert mix.atom == 0.0
    assert mix.center_neg[0] == mix.center_pos[0]
    # Single unit-variance asset: the estimated weight is Gaussian around
    # the true weight 1 with variance q0 * r.
    assert mix.center_pos[0] == pytest.approx(1.0, rel=1e-12)
    spread = np.sqrt(sol.q0 * sol.r)
    assert mix.spread[0] == pytest.approx(spread, rel=1e-12)
    ws = np.linspace(-4.0, 6.0, 41)
    ws = ws[ws != 0]
    expect = norm_pdf((ws - 1.0) / spread) / spread
    assert np.allclose(mix.density(ws), expect, rtol=1e-12, atol=0)
    pos, neg = mix.branch_masses()
    assert pos + neg == pytest.approx(1.0, rel=1e-12)
    assert neg > 0.1  # plenty of short positions without the ban


def test_elim_prob_increases_with_sigma(noshort_mix):
    sol, _ = noshort_mix
    probs = sol.elim_prob
    assert probs.shape == (3,)
    assert 0 < probs[0] < probs[1] < probs[2] < 0.5
    assert np.mean(probs) == pytest.approx(sol.n0, rel=1e-12)


def test_sampler_reproducible(noshort_mix):
    _, mix = noshort_mix
    a = sample_weights(mix, 1000, seed=42)
    b = sample_weights(mix, 1000, seed=42)
    c = sample_weights(mix, 1000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_statistics_noshort(noshort_mix):
    sol, mix = noshort_mix
    m = 1_000_000
    w = sample_weights(mix, m, seed=7)
    assert np.all(w >= 0.0)
    zero = np.mean(w == 0.0)
    se = np.sqrt(sol.n0 * (1 - sol.n0) / m)
    assert abs(zero - sol.n0) < 3 * se
    # Continuous-branch mean: E[w] over all draws equals mixture mean()
    # times the continuous mass... the atom contributes 0, so E[w] = 1.
    assert abs(np.mean(w) - 1.0) < 3 * np.std(w) / np.sqrt(m)
    # A couple of interior bins.
    for lo, hi in [(0.1, 0.5), (1.0, 2.0)]:
        p = float(mix.bin_mass([lo, hi])[0])
        freq = np.mean((w >= lo) & (w < hi))
        assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / m) + 1e-9


def test_sampler_statistics_two_sided(free_mix):
    sol, mix = free_mix
    m = 500_000
    w = sample_weights(mix, m, seed=11)
    pos, neg = mix.branch_masses()
    freq_neg = np.mean(w < 0)
    assert abs(freq_neg - neg) < 3 * np.sqrt(neg * (1 - neg) / m)
    assert np.mean(w == 0.0) == 0.0
    assert np.mean(w) == pytest.approx(1.0, abs=3 * np.std(w) / np.sqrt(m))
    assert np.var(w) == pytest.approx(sol.q0 * sol.r, rel=0.02)
