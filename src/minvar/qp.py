"""Finite-size minimum-variance optimizers: budget equality, optional w >= 0.

Solves min w' C w subject to sum(w) = budget, and optionally w >= 0, for a
dense PSD covariance C. A solver that needs a factor of C forms it, by a
pivoted Cholesky decomposition truncated at its numerical rank (LAPACK
dpstrf), and frees it on return: the covariance keeps only its matrix. The
factor certifies rank for both solvers. The equality problem is two
triangular solves on a full-rank factor. When C is singular and the budget
plane meets its null space, the minimum is exactly zero, the solution is
non-unique, and the reported weights are the minimum-norm representative,
found from a thin QR of the factor and normalized by its own budget, with
the degeneracy flagged rather than regularized away.

The nonnegative problem is Wolfe's min-norm-point algorithm written in
weights (C = X X' / T makes w' C w the squared norm of a point in the
convex hull of the scaled asset vectors). The free set, the "corral",
starts at the single asset of smallest variance. A major step adds up to
ADD_BATCH outside assets with negative multipliers 2 (C w)_j - lam, taken
from one gradient, most negative first; minor steps move toward the
corral's affine minimizer and drop the member that would cross zero first.
The affine minimizer comes from a Cholesky factor of M = C_ff + rho 11'
with rho = trace(C)/N: on the budget plane w' M w = w' C w + rho budget^2,
so the shift moves no optimum, and M is positive definite exactly when the
corral's asset vectors are affinely independent. An add solves the new
factor column in place, in the factor's spare column (one triangular
solve), and a drop restores the factor in place with Givens rotations;
both cost O(k^2) for k free assets. If the first asset of a batch lies in
the corral's affine hull it would give a zero pivot, so it first swaps
weight with the member it can replace; later assets of the batch in the
hull are skipped. The solve never factors C itself: a degenerate result
says only that the optimum has zero variance, and `CovMatrix.rank` gives
rank(C) to a caller who wants it.

The brute-force oracle enumerates supports and solves each one with the
equality solver; it checks which support the active set picks.

No ridge, no jitter: a flat optimum is reported as flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr_delete, solve_triangular
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr, dpstrf

from .errors import ActiveSetError, CovarianceError

__all__ = [
    "CovMatrix",
    "QpResult",
    "min_variance_equality",
    "min_variance_noshort",
    "kkt_residual",
    "brute_force_noshort",
]

# the pivoted Cholesky factor stops at the first squared pivot (a diagonal
# entry of the remaining Schur complement) below RANK_RTOL * max_i C_ii; that
# step count is the certified rank. An eigenvalue test at the same level
# would agree except for eigenvalues within a small factor of the threshold.
RANK_RTOL = 1e-10
# an objective at most ZERO_RTOL * trace(C)/N is a zero-variance (flat) optimum
ZERO_RTOL = 1e-10
# z, the part of 1 outside the range of a singular C, counts as zero when
# |z|^2 <= FLAT_RTOL * N. The threshold weighs two errors. Rounding leaves
# |z|^2 below about 1e-31 N when 1 lies in the range (measured at
# N = 10..400), and the flat point b z / 1'z is stationary to rounding for
# any z above that noise. The pseudo-inverse point, used at and below the
# threshold, misses stationarity by lam * max|z_i - mean(z)|, which is at
# most 1e-12 sqrt(N) lam there. So the threshold sits just clear of the noise.
FLAT_RTOL = 1e-24
# the Cython core under scipy's batching wrapper of qr_delete (see _Corral)
_qr_delete = getattr(qr_delete, "__wrapped__", qr_delete)
# a squared Cholesky pivot below PIVOT_RTOL * M_jj marks an asset inside the
# corral's affine hull; it is never pivoted on: the first asset of a batch is
# swapped in, a later one skipped
PIVOT_RTOL = 1e-12
# a major step of the no-short solver adds up to ADD_BATCH improving assets
# from one gradient (one N x N product C w) before its minor cycle. Larger
# batches take fewer gradients but bring in more assets that the minor cycle
# drops again. Solve CPU time per trial on 36 trials at N = 400,
# r in {1, 1.9, 2.5} (2-vCPU Xeon VM, one BLAS thread, batch sizes
# interleaved, median of 9 passes): 36.9, 25.4, 18.6, 16.9, 17.1 and 18.4 ms
# at batch sizes 1, 2, 4, 8, 12 and 16.
ADD_BATCH = 8


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Validated dense symmetric PSD matrix: one read-only N x N array.

    Its rank is certified by a pivoted Cholesky factor, which is formed per
    solve (and per `rank` query) and not kept. The constructor takes an
    outside array: it keeps one C-ordered float copy, which must be
    nonempty, square, finite and symmetric to 1e-12, symmetrises it, and
    checks its spectrum, since a pivoted Cholesky factor cannot tell an
    indefinite matrix from a PSD one. `from_returns` builds the Gram matrix
    of a return sample, PSD and symmetric by construction, so it skips the
    spectrum. Both raise CovarianceError on bad input. Instances compare
    and hash by identity, as the array has no single truth value.
    """

    matrix: np.ndarray

    def __post_init__(self):
        c = np.array(self.matrix, dtype=float, order="C")  # the one owned copy
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
            raise CovarianceError("covariance must be a nonempty square matrix")
        if not np.isfinite(c).all():
            raise CovarianceError("covariance must be finite")
        scale = max(1.0, float(np.max(np.abs(c))))
        # abs() of the temporary runs in place (numpy elides it); np.abs would not
        if float(np.max(abs(c - c.T))) > 1e-12 * scale:
            raise CovarianceError("covariance must be symmetric to 1e-12")
        # 0.5 c + 0.5 c', in place; numpy buffers the overlapping c'. Halving
        # first is exact and keeps every sum finite; it rounds as 0.5 (c + c')
        c *= 0.5
        np.add(c, c.T, out=c)
        # the solvers scale by trace/N
        trace = float(np.trace(c))
        if not math.isfinite(trace):
            raise CovarianceError("covariance trace must be finite")
        vals = np.linalg.eigvalsh(c)
        if vals[0] < -1e-10 * max(trace, 0.0) - 1e-300:
            raise CovarianceError(
                f"matrix is not positive semidefinite (min eigenvalue {vals[0]:.3e})"
            )
        c.flags.writeable = False
        object.__setattr__(self, "matrix", c)

    @classmethod
    def _own(cls, m: np.ndarray) -> "CovMatrix":
        """Wrap a square float array that no one else holds, without a copy."""
        m.flags.writeable = False
        cov = object.__new__(cls)
        object.__setattr__(cov, "matrix", m)
        return cov

    @classmethod
    def from_returns(cls, x: np.ndarray) -> "CovMatrix":
        """Second-moment matrix X X' / T of an (N, T) return sample."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise CovarianceError("returns must be an (N, T) array")
        n, t = x.shape
        if n < 1:
            raise CovarianceError("need at least one asset")
        if t < 1:
            raise CovarianceError("need at least one observation")
        # numpy runs x @ x.T on a C- or F-ordered x as a symmetric rank-k
        # update (syrk) and mirrors the triangle, so c is exactly symmetric;
        # a strided x would take a general product, so it is copied first
        if not (x.flags.c_contiguous or x.flags.f_contiguous):
            x = np.ascontiguousarray(x)
        c = x @ x.T
        c /= t
        # a finite trace means a finite matrix: a nan or inf return, or one
        # whose square overflows, makes its own diagonal entry non-finite,
        # and by Cauchy-Schwarz no partial sum of an off-diagonal entry of
        # X X' exceeds the larger of its two diagonal entries in size. The
        # solvers scale by trace/N, so a trace that overflows is refused too.
        if not math.isfinite(float(np.trace(c))):
            raise CovarianceError("returns must be finite, with finite squares")
        return cls._own(c)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return _factor(self.matrix)[2]

    @property
    def tol_zero(self) -> float:
        """Objective threshold at or under which the optimum counts as zero variance."""
        return ZERO_RTOL * float(np.trace(self.matrix)) / self.n


@dataclass(frozen=True, eq=False)
class QpResult:
    """Solution record of one quadratic program.

    `active_set` lists the indices pinned at zero (always empty for the
    equality-only problem). `degenerate` marks a zero-variance optimum,
    one whose objective is at most `CovMatrix.tol_zero`. On a nonzero
    budget it needs a (numerically) singular C and is not unique: the
    equality solver reports its minimum-norm representative, the no-short
    solver a vertex-like point with at most rank(C) + 1 nonzero weights,
    where rank(C) is `CovMatrix.rank`. `lam` is the budget multiplier at the
    solution. `iterations` counts the no-short solver's active-set steps
    (adds plus drops) and is 0 for the other solvers. The record holds the
    optimum only, never the covariance. Records compare and hash by
    identity, as `CovMatrix` does.
    """

    weights: np.ndarray
    objective: float
    active_set: tuple[int, ...]
    degenerate: bool
    constraint: str
    lam: float
    iterations: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def _factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(F, piv, rank): C[piv][:, piv] = L L' with L the lower trapezoid of F[:, :rank].

    F is dpstrf's Fortran-ordered N x N output. Above the diagonal it keeps
    entries of C, which the triangular solves never read; the thin QR of a
    singular factor zeroes them first.
    """
    top = float(np.max(np.diagonal(m)))
    if top < 0.0:
        raise CovarianceError("covariance has a negative diagonal")
    f, piv, rank, _ = dpstrf(m, tol=RANK_RTOL * top, lower=1)
    return f, piv - 1, rank


def _as_cov(c) -> CovMatrix:
    return c if isinstance(c, CovMatrix) else CovMatrix(c)


def min_variance_equality(c, budget: float = None) -> QpResult:
    """Minimize w' C w on the plane sum(w) = budget (default budget = N).

    Full-rank C gives the classic precision-weighted solution, C^-1 1 from
    two triangular solves on the pivoted Cholesky factor. If C is singular
    and the budget plane meets its null space, the minimum is exactly zero
    along an affine set. Its minimum-norm point is b z / 1'z, where z is the
    part of 1 orthogonal to the factor's column space (1'z = |z|^2 in exact
    arithmetic; dividing by the computed 1'z makes the budget exact). It is
    returned with `degenerate` set. When 1 lies in that column space, z is
    zero up to rounding and the solution is b C^+ 1 / 1'C^+ 1; a z with
    |z|^2 <= FLAT_RTOL * N counts as zero. On this and the full-rank path,
    `degenerate` marks an objective at most `CovMatrix.tol_zero`. Raises
    ValueError on a budget that is not finite.
    """
    cov = _as_cov(c)
    n = cov.n
    b = float(n if budget is None else budget)
    if not math.isfinite(b):
        raise ValueError("budget must be finite")
    l, piv, rank = _factor(cov.matrix)
    ones = np.ones(n)  # the budget direction is invariant under the pivoting
    flat = False
    if rank < n:
        # L = Q S, with Q kept as the reflectors of dgeqrf and applied by
        # dormqr; in pivoted order the null space of C is orthogonal to Q.
        # The second projection removes the rounding 1 - Q Q'1 leaves in the
        # range of Q, which C would amplify by 1/1'z when z is small.
        # dgeqrf overwrites the zeroed, Fortran-ordered columns of F in place.
        l = l[:, :rank]
        np.copyto(l[:rank], 0.0, where=np.tri(rank, k=-1, dtype=bool).T)
        lwork = int(dgeqrf_lwork(n, max(rank, 1))[0])
        qr, tau, _, _ = dgeqrf(l, lwork=lwork, overwrite_a=1)
        s_fac = qr[:rank]
        a = _reflect(qr, tau, ones, "T")[:rank]
        z = ones - _reflect(qr, tau, a, "N")
        z -= _reflect(qr, tau, _reflect(qr, tau, z, "T")[:rank], "N")
        flat = float(z @ z) > FLAT_RTOL * n
        if not flat:
            # C^+ 1 = Q S^-T S^-1 Q' 1
            y = solve_triangular(s_fac, a, check_finite=False)
            x = _reflect(qr, tau, solve_triangular(s_fac, y, trans=1, check_finite=False), "N")
    else:
        y = solve_triangular(l, ones, lower=True, check_finite=False)
        x = solve_triangular(l, y, lower=True, trans=1, check_finite=False)
    # w = b x / s: the flat point b z / 1'z, or b C^+ 1 / 1'C^+ 1 with 1'C^+ 1 = y'y
    x, s = (z, float(np.sum(z))) if flat else (x, float(y @ y))
    w = np.empty(n)
    w[piv] = (b / s) * x
    obj = max(float(w @ cov.matrix @ w), 0.0)
    return QpResult(
        weights=w,
        objective=obj,
        active_set=(),
        degenerate=flat or obj <= cov.tol_zero,
        constraint="equality",
        lam=0.0 if flat else 2.0 * b / s,
    )


def _reflect(qr: np.ndarray, tau: np.ndarray, v: np.ndarray, trans: str) -> np.ndarray:
    """Q v ("N") or Q' v ("T") for the N x N orthogonal Q of a dgeqrf factor.

    For "N", a v shorter than N is padded with zeros, so Q v is the thin
    factor's product; for "T" the first rank entries are the thin Q' v.
    """
    c = np.zeros((qr.shape[0], 1), order="F")
    c[: v.shape[0], 0] = v
    if tau.size == 0:  # rank 0: Q = I, and dormqr refuses an empty factor
        return c[:, 0]
    return dormqr("L", trans, qr, tau, c, 1, overwrite_c=1)[0][:, 0]


class _Corral:
    """Free set of the no-short solver with a Cholesky factor of its M block.

    M = C_ff + rho 11' over the members, in factor order, and M = R'R with R
    upper triangular. R is kept in column-major full storage with leading
    dimension N and one spare column, so adds and drops work in place. LAPACK
    band storage with kd = N - 1 and lda = N + 1 puts entry (i, j) at
    (N - 1 + i - j) + (N + 1) j = (N - 1) + i + N j: the same memory,
    shifted by N - 1 entries. Through that band view, dtbsv solves
    with the leading k x k block of R without copying it. A pivot gathers
    C[j, f] + rho into the spare column and solves it there, so an add
    only writes the pivot below it; a drop borrows the same column for y.
    y holds R'^-1 1, which gives the affine minimizer through one more
    solve. Each asset of a batch goes through `pivot` and then `add`; one in
    the affine hull is swapped in first if it leads the batch, else skipped.

    A drop calls qr_delete's Cython core directly: scipy's wrapper around
    it broadcasts over batches of matrices, which a drop's single 2-D block
    does not need, and costs 9-11 us of every call, more than the rotations
    themselves (12.5 -> 1.4 us at k - q = 2, 16.5 -> 7.2 us at 54). The
    core also rotates a throwaway Q, which R's rotations never read. It
    gets the leading (k - q) x (k - q) block of a Fortran-ordered zero
    matrix: rotated zeros stay zero, so only a drop deeper than any before
    it allocates, a larger one (3-14 times per N = 400 solve). An N x N
    zero matrix per solve nearly doubled the minor page faults of
    perfbench's noshort-n400 rounds, since each solve touched fresh pages.
    """

    def __init__(self, cm: np.ndarray, rho: float, i0: int):
        n = cm.shape[0]
        self.cm = cm
        self.rho = rho
        self.kd = n - 1
        buf = np.empty(n - 1 + n * (n + 1))
        self.zero_q = np.zeros((0, 0), order="F")
        self.r = buf[n - 1 :].reshape((n, n + 1), order="F")
        self.band = buf[: (n + 1) * n].reshape((n + 1, n), order="F")
        self.idx = np.empty(n, dtype=np.intp)
        self.mask = np.zeros(n, dtype=bool)
        self.y = np.empty(n)
        self.idx[0] = i0
        self.mask[i0] = True
        self.r[0, 0] = math.sqrt(cm[i0, i0] + rho)
        self.y[0] = 1.0 / self.r[0, 0]
        self.k = 1

    @property
    def members(self) -> np.ndarray:
        return self.idx[: self.k]

    def solve(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        """R^-1 x, or R'^-1 x with trans=1."""
        return dtbsv(self.kd, self.band[:, : self.k], x, trans=trans)

    def pivot(self, j: int) -> tuple[np.ndarray, float, float]:
        """New factor column l of asset j, its squared pivot d2, and M_jj.

        l is solved in place in the spare column of R, a view that the
        next pivot or drop overwrites.
        """
        k = self.k
        mjj = self.cm[j, j] + self.rho
        # the members are valid indices; mode="clip" spares take's buffer
        l = self.cm[j].take(self.members, out=self.r[:k, k], mode="clip")
        l += self.rho
        dtbsv(self.kd, self.band[:, :k], l, trans=1, overwrite_x=1)
        return l, mjj - float(l @ l), mjj

    def add(self, j: int, d2: float) -> None:
        """Append asset j with the column that pivot(j) left in place."""
        k = self.k
        d = math.sqrt(d2)
        self.r[k, k] = d
        self.y[k] = (1.0 - float(self.r[:k, k] @ self.y[:k])) / d
        self.idx[k] = j
        self.mask[j] = True
        self.k = k + 1

    def drop(self, q: int) -> None:
        """Remove the member at factor position q, in O(k (k - q))."""
        k, r = self.k, self.r
        self.mask[self.idx[q]] = False
        self.idx[q : k - 1] = self.idx[q + 1 : k]
        # deleting column q leaves a Hessenberg block in rows q..k-1; Givens
        # rotations (qr_delete, in place) make it triangular again and shift
        # the later columns left. With y's tail in the spare column they
        # rotate it alike: R'y = 1 holds for the remaining columns under any
        # orthogonal map of the rows. The rows above q only shift.
        r[q:k, k] = self.y[q:k]
        if self.zero_q.shape[0] < k - q:
            self.zero_q = np.zeros((k - q, k - q), order="F")
        _qr_delete(
            self.zero_q[: k - q, : k - q], r[q:k, q : k + 1], 0, which="col",
            overwrite_qr=True, check_finite=False,
        )
        r[:q, q : k - 1] = r[:q, q + 1 : k]
        self.y[q : k - 1] = r[q : k - 1, k - 1]
        self.k = k - 1

    def affine_minimizer(self, b: float) -> np.ndarray:
        """argmin v' C v over sum(v) = b, supported on the members."""
        y = self.y[: self.k]
        return (b / float(y @ y)) * self.solve(y)


def _improving(mu: np.ndarray, tol: float) -> np.ndarray:
    """Up to ADD_BATCH assets with mu < -tol, ordered by (mu, asset index)."""
    cand = (mu < -tol).nonzero()[0]
    if cand.size > ADD_BATCH:
        part = mu[cand]
        part.partition(ADD_BATCH - 1)
        cand = cand[mu[cand] <= part[ADD_BATCH - 1]]
    return cand[mu[cand].argsort(kind="stable")[:ADD_BATCH]]


def _first_blocking(pos: np.ndarray, ratios: np.ndarray, members: np.ndarray):
    """(q, ratio) of the smallest ratio, ratios[i] taken at corral position pos[i].

    The lowest asset index among the tied positions breaks ties.
    """
    t = ratios.min()
    ties = pos[ratios == t]
    return int(ties[members[ties].argmin()]), t


def min_variance_noshort(c, budget: float = None, max_iter: int = None) -> QpResult:
    """Minimize w' C w with sum(w) = budget and w >= 0, by a vertex-start active set.

    Wolfe's min-norm-point method in weight form. The corral starts as the
    single asset of smallest variance. Each major step adds, from one
    gradient, up to ADD_BATCH outside assets with negative multipliers,
    ordered by (multiplier, asset index), and skips those in the corral's
    affine hull; minor steps then drop the corral members that block the
    way to the corral's affine minimizer. A new member whose affine weight
    is negative leaves at step length 0, and by Wolfe's lemma the last new
    member left keeps a positive weight, so the objective falls strictly at
    every major step and the method terminates as with single adds.
    Assets outside the corral have exactly zero weight in the result, and
    `iterations` counts adds plus drops. Flat (zero-variance) optima are
    detected from the final objective against the scaled threshold and
    flagged, never regularized; they end with at most rank(C) + 1 corral
    members. Raises ValueError on a budget that is negative or not finite,
    and ActiveSetError if the step cap (50 N) is exhausted.
    """
    cov = _as_cov(c)
    n = cov.n
    b = float(n if budget is None else budget)
    if not 0.0 <= b < math.inf:
        raise ValueError("budget must be finite and nonnegative")
    cap = 50 * n if max_iter is None else max_iter
    cm = cov.matrix
    rho = max(float(np.trace(cm)) / n, 1e-300)
    tol_mu = 1e-10 * 2.0 * rho * max(abs(b), 1.0)
    tol_w = 1e-12 * max(abs(b), 1.0)

    i0 = int(np.argmin(np.diagonal(cm)))
    corral = _Corral(cm, rho, i0)
    w = np.zeros(n)
    w[i0] = b
    steps = 0

    def failure(reason: str, mu_min: float) -> ActiveSetError:
        gap = abs(float(np.sum(w)) - b)
        return ActiveSetError(
            f"{reason} with {corral.k} assets free, most negative "
            f"multiplier {mu_min:.3e}, budget gap {gap:.3e}",
            iterate=corral.members.tolist(),
            residual=(mu_min, gap),
        )

    def count_step() -> None:
        """Count one add or drop; the failure reports the batch's first multiplier."""
        nonlocal steps
        if steps >= cap:
            raise failure(f"active-set cap {cap} reached", mu_min)
        steps += 1

    while True:
        g = cm @ w
        lam = 2.0 * float(w @ g) / b if b > 0 else 0.0
        mu = 2.0 * g
        mu -= lam
        mu[corral.mask] = np.inf
        batch = _improving(mu, tol_mu)
        if batch.size == 0:
            break
        mu_min = float(mu[batch[0]])
        for i, j in enumerate(batch.tolist()):
            l, d2, mjj = corral.pivot(j)
            if d2 <= PIVOT_RTOL * mjj:
                if i > 0:
                    # the swap below moves w along a null direction of C (to
                    # the pivot tolerance), so the rest of the batch keeps its
                    # multipliers; a later member in the corral's affine hull
                    # is skipped, not swapped
                    continue
                # j lies (numerically) in the corral's affine hull, x_j = X_f c
                # with sum(c) = 1: move weight onto j along the objective-neutral
                # direction e_j - c and drop the member that empties first, whose
                # coefficient is clear of rounding, so j pivots on a nonzero
                f = corral.members
                coef = corral.solve(l)  # M^-1 m_j, before the drop reuses l's column
                pos = (coef > 1e-9).nonzero()[0]
                q, t = _first_blocking(pos, w[f[pos]] / coef[pos], f)
                w[f] = np.maximum(w[f] - t * coef, 0.0)
                w[f[q]] = 0.0
                w[j] = t
                count_step()
                corral.drop(q)
                l, d2, mjj = corral.pivot(j)
                if not d2 > 0.0:
                    raise failure(f"asset {j} stays affinely dependent", mu_min)
            count_step()
            corral.add(j, d2)
        while True:
            v = corral.affine_minimizer(b)
            f = corral.members
            pos = (v < -tol_w).nonzero()[0]
            if pos.size == 0:
                w[f] = np.maximum(v, 0.0)
                break
            count_step()
            # minimum-ratio step toward the affine minimizer
            w_f = w[f]
            q, t = _first_blocking(pos, w_f[pos] / (w_f[pos] - v[pos]), f)
            alpha = min(max(t, 0.0), 1.0)
            # w_f + alpha (v - w_f), operation for operation, in v
            v -= w_f
            v *= alpha
            v += w_f
            w[f] = v
            w[f[q]] = 0.0
            corral.drop(q)

    obj = max(float(w @ g), 0.0)
    return QpResult(
        weights=w,
        objective=obj,
        active_set=tuple(int(i) for i in np.flatnonzero(~corral.mask)),
        degenerate=obj <= cov.tol_zero,
        constraint="noshort",
        lam=lam,
        iterations=steps,
    )


def kkt_residual(c, result: QpResult, budget: float) -> float:
    """Max-norm violation of the first-order conditions at `result`.

    Components: budget gap, stationarity of the free gradient around the
    fitted multiplier, and for the nonnegative problem also weight
    negativity, multiplier negativity, and complementary slackness.
    """
    cov = _as_cov(c)
    w = np.asarray(result.weights, dtype=float)
    g = 2.0 * (cov.matrix @ w)
    res = abs(float(np.sum(w)) - float(budget))
    active = np.zeros(cov.n, dtype=bool)
    if result.constraint == "noshort":
        active[list(result.active_set)] = True
    free = ~active
    if np.any(free):
        lam = float(np.mean(g[free]))
        res = max(res, float(np.max(np.abs(g[free] - lam))))
    else:
        lam = result.lam
    if result.constraint == "noshort":
        res = max(res, max(0.0, -float(np.min(w))))
        if np.any(active):
            mu = g[active] - lam
            res = max(res, max(0.0, -float(np.min(mu))))
            res = max(res, float(np.max(np.abs(mu * w[active]))))
    return res


def brute_force_noshort(c, budget: float = None) -> QpResult:
    """Exact reference for the nonnegative problem by support enumeration.

    Every nonempty support set gets the equality solver's minimizer on
    that support; feasible candidates (all entries nonnegative) are
    compared on the objective. Some optimal face always contains a vertex
    whose support yields a unique, hence feasible, restricted solution, so
    the scan is exhaustive. Guarded to N <= 12.
    """
    cov = _as_cov(c)
    n = cov.n
    if n > 12:
        raise ValueError("brute force is limited to N <= 12")
    b = float(n if budget is None else budget)
    if not 0.0 <= b < math.inf:
        raise ValueError("budget must be finite and nonnegative")
    cm = cov.matrix
    tol_feas = 1e-12 * max(abs(b), 1.0)
    best = None
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sub = min_variance_equality(CovMatrix._own(cm[np.ix_(idx, idx)]), b)
        w_s, lam = sub.weights, sub.lam
        if w_s.min() < -tol_feas:
            continue
        w = np.zeros(n)
        w[idx] = np.maximum(w_s, 0.0)
        obj = float(w @ cm @ w)
        if best is None or obj < best[0] - 1e-15 * max(1.0, abs(best[0])):
            best = (obj, w, lam)
    obj, w, lam = best
    obj = max(obj, 0.0)
    zero = w <= tol_feas
    return QpResult(
        weights=w,
        objective=obj,
        active_set=tuple(int(i) for i in np.flatnonzero(zero)),
        degenerate=obj <= cov.tol_zero,
        constraint="noshort",
        lam=lam,
    )
