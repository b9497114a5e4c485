"""Asymptotic distribution of estimated portfolio weights.

In the high-dimensional limit the weight of asset i is distributed as a
Gaussian of asset-specific spread, truncated to the positive axis around
one center and to the negative axis around another (the two centers
coincide when no penalty separates the sides), plus a point mass at
exactly zero for the probability that the asset is eliminated from the
portfolio. Pooling over assets gives the mixture this module evaluates,
integrates, and samples. Its per-asset parameters are the solution's
arrays `center_pos`, `center_neg` and `spread`, and every method is one
vectorised pass over them.

Sampling needs no rejection loop. For one draw with centers (a, b),
spread s and a shared standard normal z:

    y1 = a + s*z   is emitted if y1 > 0,
    y2 = b + s*z   is emitted if y1 <= 0 and y2 < 0,
    0              otherwise.

Because b >= a, the three events partition the z axis at -a/s and -b/s,
which reproduces the truncated densities and the atom exactly.

Bin masses are mean differences of each component's normal cdf at the bin
edges. From z = (edge - center)/spread = 8.2924 on, norm_cdf(z) rounds to
exactly 1.0 (it first does at z = 8.2923612 on a 3M-point grid, and stays
1.0 out to 1e300 and +inf; tests/test_special.py pins this). `bin_mass`
therefore evaluates norm_cdf only on each component's edges below
center + 8.2924 * spread and writes 1.0 at the rest, which changes no bit
of any mass: the differences and means still run over every entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import norm_cdf, norm_cdf_int, norm_pdf
from .theory import ReplicaSolution

__all__ = [
    "WeightMixture",
    "build_mixture",
    "sample_weights",
]

# elements (8 bytes each) per temporary in WeightMixture.bin_mass
_BLOCK_ELEMENTS = 1 << 14
# norm_cdf(z) is exactly 1.0 for every z >= _CDF_ONE (module docstring)
_CDF_ONE = 8.2924


@dataclass(frozen=True)
class WeightMixture:
    """Pooled weight law: a zero atom of mass `atom` plus per-asset Gaussians.

    Component i is a Gaussian of spread `spread[i]` truncated to w > 0
    around `center_pos[i]` and to w < 0 around `center_neg[i]`; the three
    are equal-length 1-d arrays, stored read-only. The continuous part
    carries total mass 1 - atom. A component with center_neg = +inf has no
    negative branch (hard short-sale ban).
    """

    atom: float
    center_pos: np.ndarray
    center_neg: np.ndarray
    spread: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.atom <= 1.0:
            raise ValueError("atom mass must lie in [0, 1]")
        fields = {
            name: np.array(getattr(self, name), dtype=float)
            for name in ("center_pos", "center_neg", "spread")
        }
        if any(a.ndim != 1 for a in fields.values()):
            raise ValueError("component parameters must be 1-d arrays")
        if len({a.size for a in fields.values()}) != 1:
            raise ValueError("component parameters must have equal lengths")
        if fields["spread"].size == 0:
            raise ValueError("mixture needs at least one component")
        if np.any(fields["spread"] <= 0):
            raise ValueError("component spreads must be positive")
        for name, a in fields.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.center_pos.size

    def density(self, w):
        """Continuous part of the pooled density (the atom is not included)."""
        w = np.asarray(w, dtype=float)
        scalar = w.ndim == 0
        w2 = np.atleast_1d(w)[:, None]
        a, b, s = self.center_pos, self.center_neg, self.spread
        pos = np.where(w2 > 0, norm_pdf((w2 - a) / s) / s, 0.0)
        with np.errstate(invalid="ignore"):
            neg = np.where(w2 < 0, norm_pdf((w2 - b) / s) / s, 0.0)
        out = np.mean(pos + neg, axis=1)
        return float(out[0]) if scalar else out

    def bin_mass(self, edges) -> np.ndarray:
        """Continuous mass of every bin [edges[k], edges[k+1]); the atom is excluded.

        `edges` is a nondecreasing 1-d array; the result has one entry fewer.
        Each component's cdf is evaluated once per edge of each branch, over
        blocks of edges that keep every (edges x components) temporary
        within 128 KB, and only at edges below center + 8.2924 * spread:
        past that its value rounds to exactly 1.0 (module docstring), which is
        written instead, so the masses are those of the full evaluation to
        the last bit.
        """
        e = np.asarray(edges, dtype=float)
        if e.ndim != 1 or e.size == 0:
            raise ValueError("bin edges must be a nonempty 1-d array")
        # neighbors are compared, not differenced: inf - inf is nan
        if np.isnan(e).any() or np.any(e[1:] < e[:-1]):
            raise ValueError("bin edges must be nondecreasing")
        out = np.zeros(e.size - 1)
        # only bins reaching above zero carry positive-branch mass, and only
        # bins reaching below zero carry negative-branch mass
        lo = max(int(np.searchsorted(e, 0.0, side="right")) - 1, 0)
        self._branch_masses(np.maximum(e[lo:], 0.0), self.center_pos, out[lo:])
        hi = int(np.searchsorted(e, 0.0, side="left"))
        self._branch_masses(np.minimum(e[: hi + 1], 0.0), self.center_neg, out[:hi])
        return out

    def _branch_masses(self, edges, center, out) -> None:
        """Add each bin's mean cdf difference around `center` to `out`, in place."""
        s = self.spread
        rows = max(2, _BLOCK_ELEMENTS // self.n)
        # component j's cdf can be below 1.0 only at its first live[j] edges
        live = np.searchsorted(edges, center + _CDF_ONE * s)
        # the bound's rounding may put a live edge past it: then evaluate
        # them all (past the first saturated edge z only grows)
        first = edges[np.minimum(live, edges.size - 1)]
        live[(first - center) / s < _CDF_ONE] = edges.size
        # consecutive blocks share one edge, so every difference is formed
        for start in range(0, edges.size - 1, rows - 1):
            block = edges[start : start + rows, None]
            cols = np.flatnonzero(live > start)
            cdf = np.ones((block.shape[0], self.n))
            cdf[:, cols] = norm_cdf((block - center[cols]) / s[cols])
            out[start : start + cdf.shape[0] - 1] += np.mean(np.diff(cdf, axis=0), axis=1)

    def mean(self) -> float:
        """Analytic mean of the continuous part.

        Per asset the truncated-Gaussian first moments sum to
        s * (Psi(a/s) - Psi(-b/s)) with Psi the integrated cdf; at a saddle
        point this averages to exactly 1, the budget per asset. A finite b
        takes it as a + s * (Psi(-a/s) - Psi(-b/s)), whose two Psi cancel
        exactly at a = b instead of leaving the rounding of two numbers near
        phi(0).
        """
        a, b, s = self.center_pos, self.center_neg, self.spread
        banned = np.isinf(b)
        # evaluate the negative branch only at finite centers; -inf would
        # produce nan inside the discarded arm of a plain where()
        b = np.where(banned, 0.0, b)
        two_sided = a + s * (norm_cdf_int(-a / s) - norm_cdf_int(-b / s))
        return float(np.mean(np.where(banned, s * norm_cdf_int(a / s), two_sided)))

    def branch_masses(self) -> tuple[float, float]:
        """(positive, negative) continuous masses; they sum to 1 - atom."""
        a, b, s = self.center_pos, self.center_neg, self.spread
        pos = float(np.mean(norm_cdf(a / s)))
        neg = float(np.mean(norm_cdf(-b / s)))
        return pos, neg


def build_mixture(sol: ReplicaSolution) -> WeightMixture:
    """Pooled weight mixture of a saddle-point solution."""
    return WeightMixture(
        atom=sol.n0, center_pos=sol.center_pos, center_neg=sol.center_neg, spread=sol.spread
    )


def sample_weights(mixture: WeightMixture, size: int, seed) -> np.ndarray:
    """Draw `size` weights from the pooled mixture, exactly in distribution.

    `seed` may be anything numpy's default_rng accepts (int, SeedSequence,
    Generator). Assets are picked uniformly; the classification trick in
    the module docstring converts one Gaussian per draw into the truncated
    pair plus atom without rejection.
    """
    gen = np.random.default_rng(seed)
    a, b, s = mixture.center_pos, mixture.center_neg, mixture.spread
    idx = gen.integers(0, mixture.n, size=size)
    z = gen.standard_normal(size)
    y1 = a[idx] + s[idx] * z
    y2 = b[idx] + s[idx] * z
    return np.where(y1 > 0, y1, np.where(y2 < 0, y2, 0.0))
