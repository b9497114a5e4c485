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
ADD_BATCH max(1, N // 500) outside assets with negative multipliers
2 (C w)_j - lam, taken from one gradient, most negative first; minor steps
move toward the corral's affine minimizer and drop the member that would
cross zero first.
The affine minimizer comes from a Cholesky factor of M = C_ff + rho 11'
with rho = trace(C)/N: on the budget plane w' M w = w' C w + rho budget^2,
so the shift moves no optimum, and M is positive definite exactly when the
corral's asset vectors are affinely independent. For k free assets, a
batch of B enters the factor as one block, in O(k^2 B): one triangular
solve for its B new columns and a Cholesky factor of its B x B Schur
complement. A drop restores the factor in place with Givens rotations, in
O(k^2). An asset in the affine hull of the corral and the batch assets
before it would give a zero pivot, so the block stops before it: the
assets ahead of it enter, and the rest of the batch waits for the next
gradient. If that asset leads the batch, it swaps weight with the member
it can replace and enters in that member's stead, as a block of one.
Each major step adds one block. Each gradient C w is one symmetric
product that reads one triangle of C. The solve never factors C itself:
a degenerate result says only that the optimum has zero variance, and
`CovMatrix.rank` gives rank(C) to a caller who wants it.

The brute-force oracle enumerates supports and solves each one with the
equality solver; it checks which support the active set picks.

No ridge, no jitter: a flat optimum is reported as flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr_delete
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr, dpotrf, dpstrf, dtrtrs

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
# corral's affine hull; it is never pivoted on: a block stops before it, and
# it is swapped in if it leads its batch, else left to the next gradient
PIVOT_RTOL = 1e-12
# a major step of the no-short solver adds up to ADD_BATCH max(1, N // 500)
# improving assets from one gradient (one product C w) before its minor
# cycle. Larger batches take fewer gradients but bring in more assets that
# the minor cycle drops again. Solve CPU time per trial in ms, mean over
# r in {1, 1.9, 2.5} (2-vCPU Xeon VM, one BLAS thread, batch sizes
# interleaved, median of 7, 5 and 3 passes over 30, 10 and 3 trials per r):
#
#   batch size      1      4      8     12     16     24
#   N = 100      3.71   1.90   1.98   2.11   2.64
#   N = 400      24.4   11.5   8.45   9.32   9.25
#   N = 1000            111    80.3   71.4   68.9   68.2
#
# Below N = 1000, 8 is within noise of the best; at N = 1000, 16 is. Every
# add is one block, a batch of one too; the batch-1 column was re-measured
# so (batches of 4 and 8 read within 0.3 ms of the table in the same run).
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
    (adds plus drops; a hull swap counts as a drop plus an add) and is 0
    for the other solvers. The record holds the optimum only, never the
    covariance. Records compare and hash by identity, as `CovMatrix` does.
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
    # m is exactly symmetric, so its F-ordered transpose is m; f2py copies it straight
    f, piv, rank, _ = dpstrf(m.T, tol=RANK_RTOL * top, lower=1)
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
        a = _reflect(qr, tau, ones, "T")[:rank]
        z = ones - _reflect(qr, tau, a, "N")
        z -= _reflect(qr, tau, _reflect(qr, tau, z, "T")[:rank], "N")
        flat = float(z @ z) > FLAT_RTOL * n
        if not flat:
            # C^+ 1 = Q S^-T S^-1 Q' 1, solved with the lower triangle S' (a
            # copy): the upper solve in place on qr would round differently
            s_low = qr[:rank].T
            y = dtrtrs(s_low, a, lower=1, trans=1)[0]
            x = _reflect(qr, tau, dtrtrs(s_low, y, lower=1)[0], "N")
    else:
        y = dtrtrs(l, ones, lower=1)[0]
        x = dtrtrs(l, y, lower=1, trans=1)[0]
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
    upper triangular. R lives in an N x (N + 1) column-major array, so its
    leading block r[:, :k] is a contiguous (N, k) view that LAPACK reads as
    the k x k triangle with leading dimension N: every solve is one dtrtrs
    on that view, with no copy, and adds and drops work in place. y holds
    R'^-1 1, which gives the affine minimizer through one more solve.

    A batch of B assets enters as one block (`extend`): one gather of
    C[batch, members + batch] + rho, one dtrtrs for all B new columns (a
    level-3 triangular solve), a dpotrf of the B x B Schur complement, and
    one solve for y's new entries. If a squared pivot of the Schur factor is
    at most PIVOT_RTOL * M_jj, that asset lies in the affine hull of the
    corral and the batch assets before it; the block is then cut to the
    assets before it, the leading block of the columns and factor already
    formed. A drop borrows the spare column k of R for y.

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
        self.zero_q = np.zeros((0, 0), order="F")
        self.r = np.empty((n, n + 1), order="F")
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
        return dtrtrs(self.r[:, : self.k], x, trans=trans)[0]

    def extend(self, batch: np.ndarray) -> tuple[int, np.ndarray]:
        """Append the longest prefix of `batch` that the factor takes, as one block.

        The prefix ends before the first asset whose squared Schur pivot is
        at most PIVOT_RTOL * M_jj, or where dpotrf meets a nonpositive one.
        Returns its length p, the number of assets added, and the k x B
        block R'^-1 (C[members, batch] + rho) solved on the corral as it
        was, whose column 0 is the first asset's factor column when p = 0.
        """
        k, nb = self.k, batch.size
        # idx past the members is scratch: with the batch written there,
        # C[batch, members + batch] + rho is one gather. Its transpose is the
        # column-major (k + B) x B block whose first k rows dtrtrs solves in
        # place, R' L = C[members, batch] + rho, under M[batch, batch]
        self.idx[k : k + nb] = batch
        g = self.cm.take(batch, axis=0).take(self.idx[: k + nb], axis=1)
        g += self.rho
        lm = dtrtrs(self.r[:, :k], g.T, trans=1, overwrite_b=1)[0]
        l, m = lm[:k], lm[k:]
        # upper Cholesky factor of the Schur complement M_bb - L'L, which is
        # symmetric: its transpose is column-major, and dpotrf works in place.
        # Its leading p x p block is the factor of the prefix's complement.
        s = m - l.T @ l
        d, info = dpotrf(s.T, overwrite_a=1)
        good = d.diagonal() ** 2 > PIVOT_RTOL * m.diagonal()
        p = info - 1 if info else nb
        if not good[:p].all():
            p = int(good.argmin())
        if p:
            d = d[:p, :p]
            self.r[:k, k : k + p] = l[:, :p]
            self.r[k : k + p, k : k + p] = d
            self.y[k : k + p] = dtrtrs(d, 1.0 - self.y[:k] @ l[:, :p], trans=1)[0]
            self.mask[batch[:p]] = True
            self.k = k + p
        return p, l

    def swap(self, j: int, l: np.ndarray, w: np.ndarray) -> None:
        """Move weight of w onto outside asset j and drop the member emptied first.

        j lies (numerically) in the corral's affine hull, x_j = X_f c with
        sum(c) = 1, and l is its factor column, so c = M^-1 m_j = R^-1 l.
        Weight moves along the objective-neutral direction e_j - c until a
        member empties; its coefficient is clear of rounding, so once it is
        dropped j pivots on a nonzero.
        """
        f = self.members
        coef = self.solve(l)
        pos = (coef > 1e-9).nonzero()[0]
        q, t = _first_blocking(pos, w[f[pos]] / coef[pos], f)
        w[f] = np.maximum(w[f] - t * coef, 0.0)
        w[f[q]] = 0.0
        w[j] = t
        self.drop(q)

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


def _improving(mu: np.ndarray, tol: float, size: int) -> np.ndarray:
    """Up to `size` assets with mu < -tol, ordered by (mu, asset index)."""
    cand = (mu < -tol).nonzero()[0]
    if cand.size > size:
        part = mu[cand]
        part.partition(size - 1)
        cand = cand[mu[cand] <= part[size - 1]]
    return cand[mu[cand].argsort(kind="stable")[:size]]


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
    gradient, up to ADD_BATCH max(1, N // 500) outside assets with negative
    multipliers, ordered by (multiplier, asset index), as one block of the
    factor that ends before the first asset in the affine hull of the
    corral and the assets added before it; the rest of the batch waits for
    the next gradient. If that asset leads the batch, it swaps in for a
    member instead. Minor steps then drop the corral members that block the
    way to the corral's affine minimizer. A new member whose affine weight
    is negative leaves at step length 0, and by Wolfe's lemma the last new
    member left keeps a positive weight, so the objective falls strictly at
    every major step and the method terminates as with single adds. Assets
    outside the corral have exactly zero weight in the result, and
    `iterations` counts adds plus drops. Flat (zero-variance) optima are
    detected from the final objective against the scaled threshold and
    flagged, never regularized; they end with at most rank(C) + 1 corral
    members. Raises ValueError on a budget that is negative or not finite,
    and ActiveSetError, at the corral as it stands, before a step past the
    cap (50 N, or `max_iter`): a batch is cut to the steps left, and a drop
    or a swap that does not fit fails.
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
        """The error at the corral as it stands."""
        free = corral.members
        gap = abs(float(np.sum(w)) - b)
        return ActiveSetError(
            f"{reason} with {free.size} assets free, most negative "
            f"multiplier {mu_min:.3e}, budget gap {gap:.3e}",
            iterate=free.tolist(),
            residual=(mu_min, gap),
        )

    def room(need: int) -> int:
        """Steps left under the cap, asked before a step; fails if fewer than `need`."""
        if cap - steps < need:
            raise failure(f"active-set cap {cap} reached", mu_min)
        return cap - steps

    size = ADD_BATCH * max(1, n // 500)
    cmt = cm.T  # column-major, so dsymv reads one triangle of C in place
    while True:
        g = dsymv(1.0, cmt, w)
        lam = 2.0 * float(w @ g) / b if b > 0 else 0.0
        mu = 2.0 * g
        mu -= lam
        mu[corral.mask] = np.inf
        batch = _improving(mu, tol_mu, size)
        if batch.size == 0:
            break
        mu_min = float(mu[batch[0]])
        # one block per major step, cut to the steps left: it ends before
        # the first asset in the affine hull of the corral and the assets
        # ahead of it, and the rest waits for the next gradient (once the
        # corral and the prefix span the lifted asset vectors [x_i; sqrt(rho)],
        # every later asset is in the hull too). If that asset leads the
        # batch, it is swapped in for a member, along a null direction of C
        # (to the pivot tolerance), and re-added as the block
        added, l = corral.extend(batch[: room(1)])
        if not added:
            j = int(batch[0])
            room(2)  # a swap is a drop plus an add
            corral.swap(j, l[:, 0], w)
            if not corral.extend(batch[:1])[0]:
                raise failure(f"asset {j} stays affinely dependent", mu_min)
            added = 2
        steps += added
        while True:
            v = corral.affine_minimizer(b)
            f = corral.members
            pos = (v < -tol_w).nonzero()[0]
            if pos.size == 0:
                w[f] = np.maximum(v, 0.0)
                break
            room(1)
            steps += 1
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
