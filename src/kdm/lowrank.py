"""Pivoted incomplete Cholesky decomposition with a biorthogonal factor.

Given row access to a symmetric positive-semidefinite N x N matrix K, the
decomposition selects m pivot indices pi_1..pi_m and produces

* ``Lt`` (m x N): the transpose of an incomplete Cholesky factor L, one row
  per pivot, with trace(K - L L^T) <= eps,
* ``R``  (m x m): a biorthogonal factor satisfying K[:, piv] R = L and
  R^T L[piv, :] = I, hence R R^T = inv(K[piv, piv]).

Only the diagonal of K plus one full row per pivot are requested (and the
rows of a block cut short, below), so the cost is O(m^2 N) time.  ``Lt`` is
the leading rows of a (cap, N) buffer: a plain step i has the oracle write
its kernel row K[pi_i, :] straight into row i, then subtracts in place the
Schur product of the i earlier rows with their entries at the pivot, and
scales the row.  Every row is written before it is read, so the buffer is
left uninitialised, and the memory touched is O(m N) for the rank m reached,
not for the cap.  The other vectors a step needs are buffers allocated once
per decomposition: the earlier rows' entries at the pivot, the Schur product,
ell^2, the floor mask and the pivot indices.  A step allocates no array
itself; only the kernel formula makes one temporary of N entries.  With
``epsilon=0`` the loop runs until the residual diagonal is exhausted and
L L^T reproduces K to the numerical rank.

Done as one matrix-vector product per step, the Schur products read all
earlier rows at every step: m^2 N / 2 entries in all, at the speed of memory,
not of arithmetic.  The greedy rule avoids most of that reading by working
out its next pivots and forming their rows together.  A block begins at some
step ``base``.  The pool C is the POOL indices with the largest residual
diagonal d, and tau the largest d outside C.  d never increases, so no index
outside C can rise above tau, and while residual entries of C stay above tau
the next greedy pivots are those of C's own residual block
S_C = K[C, C] - L[C, :base] L[C, :base]^T.  One LAPACK pivoted Cholesky of
S_C (``dpstrf``), stopped at tau, lists them in order.  Once the first k <=
CANDIDATES of them, B, are fixed, the block is a left-looking Cholesky panel:
one oracle call writes K[B, :] into the factor rows ``base`` to ``base + k``,
one matrix product computes their Schur products against the rows before
``base`` (reading those rows once) and one in-place subtraction removes them,
leaving S = K[B, :] - L[B, :base] L[:, :base]^T.  With T the lower Cholesky
factor (``dpotrf``) of S's own k x k pivot columns, the block's rows of L^T
are T^{-1} S, one in-place triangular solve (``dtrsm``).  Should ``dpotrf``
find that k x k block indefinite at order j through roundoff, the block keeps
its first j - 1 rows; a block of one row is S scaled by one over the root of
its residual diagonal entry, as a plain step scales it.  Each later step uses
its precomputed row only if its pivot is the next one of B; otherwise it
begins a new block, and so does a step after B's last row.  C is in index
order, so ``dpstrf``'s first pivot breaks ties toward the smallest index as
:func:`greedy_pivot` does; its row swaps can reorder later exact ties, which
at worst cuts a block short inside the tie.  Per block that costs one POOL x
POOL kernel block (``oracle.submatrix``), a gather of the pool's ``base`` x
POOL entries of L^T, POOL^3 / 3 flops in ``dpstrf``, the k kernel rows, the
(k, base) x (base, N) product, k^3 / 3 flops in ``dpotrf`` and k^2 N in the
solve, all of which the loop then uses unless roundoff reorders near-equal
residual entries or the stopping rule ends the loop inside the block.  Rows
formed for a block cut short are left unused, so the oracle's row count can
exceed the rank by them.  The pivot is still chosen from the exact residual
diagonal, and each step still zeroes its row at the earlier pivots, sets its
pivot entry to the root of the residual and updates d, so pivots, rank,
stopping rule and ``hit_rank_cap`` are those of the plain loop, and a
prediction that roundoff spoils costs only a new block; only the order in
which the products are summed differs, a change at roundoff level that can
decide a pivot only between residual entries tied to roundoff (such as
copies of one point).  OMP steps keep the plain product: their pivots do not
follow the residual diagonal.

``R`` is formed once, after the loop.  Each step zeroes its row of L^T at
the earlier pivots, so the pivot columns of L^T, ``Lt[:, piv]`` = L[piv, :]^T,
are exactly upper triangular, and R = inv(L[piv, :]^T) is one LAPACK
triangular inverse (``dtrtri``) of an m x m copy: m^3 / 3 flops, about 0.2 s
at rank 2,000 on one core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpstrf, dtrtri

from .kernels import Dataset, KernelSpec, _as_points, cross_kernel_matrix, kernel_diagonal, sq_norms

# residual diagonal entries below DIAG_FLOOR_REL * max(diag K) are treated as
# exhausted; entries more negative than -PSD_TOL_REL * max(diag K) mean the
# oracle was not PSD
DIAG_FLOOR_REL = 1e-12
PSD_TOL_REL = 1e-8

DEFAULT_MAX_RANK = 2000

# OMP candidates are the indices whose residual diagonal reaches this quantile
# of the nonzero entries
OMP_QUANTILE = 0.9

# greedy steps take their rows of L^T from a block of at most CANDIDATES
# rows, formed together for the next pivots that a pivoted Cholesky of the
# POOL indices with the largest residual diagonal lists, once the earlier rows
# hold at least BLOCK_MIN_ENTRIES entries (2 MB); below that one
# matrix-vector product per step is cheaper
CANDIDATES = 32
POOL = 64
BLOCK_MIN_ENTRIES = 2**18


class NumericsError(RuntimeError):
    """Numerical failure: non-PSD input, singular system, or similar."""


class KernelOracle:
    """Lazy rows of the kernel matrix of one point set against itself.

    The squared norms of the points are computed once; ``rows(idx, out)``
    reuses them for both operands, writes K[idx, :] into ``out`` (a float64
    array of shape (len(idx), N)) and returns it.  The rows are bitwise equal
    to ``cross_kernel_matrix(spec, pts[idx], pts)``, and one row to the
    column ``cross_kernel_matrix(spec, pts, pts[j:j+1])``.
    ``submatrix(idx)`` is the kernel block K[idx, idx]; only rows count in
    ``queries``.
    """

    def __init__(self, spec: KernelSpec, points: Union[Dataset, np.ndarray]):
        self._spec = spec
        self._pts = _as_points(points)
        self._sq_norms = sq_norms(self._pts)
        self.queries = 0

    @property
    def size(self) -> int:
        return self._pts.shape[0]

    def diagonal(self) -> np.ndarray:
        return kernel_diagonal(self._spec, self._pts)

    def rows(self, idx, out: Optional[np.ndarray] = None) -> np.ndarray:
        self.queries += len(idx)
        return cross_kernel_matrix(
            self._spec,
            self._pts[idx],
            self._pts,
            row_sq_norms=self._sq_norms[idx],
            col_sq_norms=self._sq_norms,
            out=out,
        )

    def submatrix(self, idx: np.ndarray) -> np.ndarray:
        pts = self._pts[idx]
        return cross_kernel_matrix(self._spec, pts, pts, row_sq_norms=self._sq_norms[idx])


@dataclass
class CholeskyFactors:
    """Output of :func:`pivoted_cholesky`.

    ``pivots`` lists the selected indices in selection order.  ``Lt`` is
    L^T, one row per pivot; ``R`` is upper triangular in the pivot ordering.
    ``residual_trace`` is trace(K - L L^T) = l1 norm of the final residual
    diagonal, and ``epsilon`` the absolute tolerance the loop was run with.
    """

    pivots: np.ndarray
    Lt: np.ndarray
    R: np.ndarray
    residual_trace: float
    epsilon: float
    hit_rank_cap: bool = False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def greedy_pivot(d: np.ndarray) -> int:
    """Index of the largest residual diagonal entry.

    Ties resolve to the smallest index.  Raises when that entry is not
    strictly positive and finite, which covers NaN entries too.
    """
    d = np.asarray(d, dtype=np.float64)
    j = int(np.argmax(d))
    if not 0.0 < d[j] < np.inf:
        raise ValueError("no strictly positive diagonal entry available for pivoting")
    return j


def omp_pivot(d: np.ndarray, target_values: np.ndarray, w_running: np.ndarray) -> int:
    """Pivot maximizing the normalized unexplained target energy.

    Candidates are restricted to indices whose residual diagonal reaches the
    ``OMP_QUANTILE`` quantile of the nonzero diagonal entries; among them the score
    (f(z_j) - w_j)^2 / d_j decides, ties to the smallest index.  When every
    score vanishes the choice falls back to :func:`greedy_pivot`.
    """
    d = np.asarray(d, dtype=np.float64)
    nz = d[d > 0]
    if nz.size == 0:
        raise ValueError("no strictly positive diagonal entry available for pivoting")
    eta = np.quantile(nz, OMP_QUANTILE)
    cand = d >= eta
    scores = np.full(d.shape, -np.inf)
    resid = np.asarray(target_values, dtype=np.float64) - np.asarray(w_running, dtype=np.float64)
    scores[cand] = resid[cand] ** 2 / d[cand]
    j = int(np.argmax(scores))
    if scores[j] <= 0:
        return greedy_pivot(d)
    return j


def _next_pivots(oracle, lt: np.ndarray, d: np.ndarray, piv: int, k: int, floor: float):
    """The next at most k greedy pivots, ``piv`` first, and their columns of ``lt``.

    ``lt`` holds the rows of L^T written so far and ``d`` the residual
    diagonal; ``piv`` is the current step's greedy pivot.  The pivots are
    those of ``dpstrf`` on the pool's residual block, stopped at the larger
    of tau and the floor (module docstring).  ``dpstrf`` takes its first
    pivot whatever the tolerance, so when roundoff, or a tie at the maximum
    wider than the pool, makes that another index than ``piv``, the rest of
    its list follows a step the loop does not take and the block is ``piv``
    alone.  Returns the block's indices and ``lt[:, block]``.
    """
    n = d.size
    p = min(POOL, n - 1)  # at least one point stays outside the pool
    part = np.argpartition(d, n - p - 1)
    tau = max(float(d[part[n - p - 1]]), floor)
    pool = np.sort(part[n - p :])  # index order, so ties go to the smallest
    cols = lt[:, pool]
    s = oracle.submatrix(pool) - cols.T @ cols
    _, order, rank, _ = dpstrf(s, tol=tau, lower=1, overwrite_a=1)
    sel = order[: min(rank, k)] - 1
    block = pool[sel]
    if block.size and block[0] == piv:
        return block, cols[:, sel]
    return np.array([piv]), lt[:, [piv]]


def _block_rows(oracle, lt: np.ndarray, base: int, block: np.ndarray, cols: np.ndarray, prod, scale: float) -> int:
    """Write the rows of L^T for ``block``, the pivots of steps base, base + 1, ...

    ``cols`` is ``lt[:base, block]``.  The oracle writes K[block, :] into
    ``lt[base:base + k]``, one matrix product (into ``prod``) gives their
    Schur products against the rows before ``base``, and after subtracting
    them the rows hold S = K[block, :] - L[block, :base] L[:, :base]^T.
    With T the lower Cholesky factor of S[:, block], the block's rows of L^T
    are T^{-1} S: one triangular solve in place.  ``dpotrf`` can find
    S[:, block] indefinite at some order j through roundoff; then only the
    first j - 1 rows are kept.  One row is S scaled by ``scale``, 1 / sqrt
    of its residual diagonal entry, as a plain step scales it.  Returns the
    number of rows kept.
    """
    k = block.size
    rows = oracle.rows(block, out=lt[base : base + k])
    np.matmul(cols.T, lt[:base], out=prod[:k])
    rows -= prod[:k]
    if k > 1:
        t, info = dpotrf(rows[:, block], lower=1, clean=0)
        if info != 0:
            k = max(info - 1, 1)
    if k == 1:
        rows[0] *= scale
    else:
        # the transposed rows are an F-ordered (N, k) view, so the solve
        # X T^T = S^T runs in place
        dtrsm(1.0, t[:k, :k], rows[:k].T, side=1, lower=1, trans_a=1, overwrite_b=1)
    return k


def pivoted_cholesky(
    oracle,
    epsilon: float,
    strategy: str = "greedy",
    *,
    omp_target: Optional[np.ndarray] = None,
    max_rank: Optional[int] = None,
) -> CholeskyFactors:
    """Run the decomposition until trace(K - L L^T) <= epsilon.

    Parameters
    ----------
    oracle : object with ``size``, ``diagonal()``, ``rows(idx, out)``, ``submatrix(idx)``
        Access to the PSD matrix: its diagonal, the rows K[idx, :] written
        into the C-ordered float64 array ``out`` of shape (len(idx), N)
        (rows of the factor buffer) and returned, and the block K[idx, idx]
        as a new array.  A plain step reads its pivot's row, a block of
        greedy steps its k rows and one POOL x POOL block; the rows read
        exceed ``rank`` only by those of blocks cut short.
    epsilon : float
        Absolute trace tolerance, >= 0.  Zero runs to numerical rank.
    strategy : {"greedy", "omp"}
        Pivot rule.  ``omp`` additionally needs ``omp_target``, the target
        function values at all N points.
    max_rank : int, optional
        Hard cap on the number of pivots, >= 1; hitting it is reported
        through ``hit_rank_cap``, not raised.

    Time is O(m^2 N) for rank m and N points.  Once the earlier rows hold
    ``BLOCK_MIN_ENTRIES`` entries, greedy steps take their rows from blocks
    formed for the pivots the loop is about to take (module docstring): a
    block begun at step i reads one POOL x POOL kernel block, runs ``dpstrf``
    on it, has the oracle write the k <= CANDIDATES kernel rows of its
    pivots into the factor buffer, subtracts their Schur products, computed
    as one (k, i) x (i, N) product into a buffer of at most (CANDIDATES, N)
    allocated once per call, and finishes the rows with one k x k Cholesky
    factor and one triangular solve in place.  The pivots are those of one
    matrix-vector product per step, except between residual entries tied to
    roundoff.  Apart from that block buffer, the factor buffer and the step
    vectors are allocated once, before the loop; a step writes its row,
    Schur product, ell^2 and floor mask into them.  ``R`` is one triangular
    inverse of the m x m pivot columns of ``Lt``, O(m^3) time.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    if strategy not in ("greedy", "omp"):
        raise ValueError(f"unknown pivot strategy {strategy!r}")
    if strategy == "omp":
        if omp_target is None:
            raise ValueError("omp strategy requires omp_target values")
        target = np.asarray(omp_target, dtype=np.float64)
        if target.shape != (oracle.size,):
            raise ValueError("omp_target must have one value per point")

    n = oracle.size
    cap = min(n, DEFAULT_MAX_RANK if max_rank is None else max_rank)

    d = oracle.diagonal().astype(np.float64, copy=True)
    if not np.all(np.isfinite(d)):
        raise NumericsError("matrix diagonal contains non-finite entries")
    dmax = float(np.max(d, initial=0.0))
    tol = PSD_TOL_REL * max(dmax, 1.0)
    if np.any(d < -tol):
        raise NumericsError("matrix diagonal has negative entries; oracle is not PSD")
    floor = DIAG_FLOOR_REL * dmax
    d[d <= floor] = 0.0

    # L^T, one row per pivot; step i writes all of row i and reads only the
    # rows before it, or a block begun at step i writes its rows together.
    # The per-step vectors live in buffers allocated here: the pivots, the
    # earlier rows' entries at the pivot, the Schur product, ell^2 and the
    # floor mask.  Every entry is written before it is read; the pivots are
    # zeros only because the tests poison unwritten buffers with NaN, which
    # an int array cannot hold
    lt = np.empty((cap, n))
    pivots = np.zeros(cap, dtype=np.intp)
    lrow_buf = np.empty(cap)
    schur = np.empty(n)
    sq = np.empty(n)
    low = np.empty(n, dtype=bool)
    w = np.zeros(n) if strategy == "omp" else None
    # a block begun at step base holds the finished rows lt[base:block_end]
    # of its pivots block[:block_end - base]; prod receives its Schur
    # products against the rows before base
    prod = None
    block = None
    base = block_end = 0

    # the floor keeps d >= 0, so a sum above epsilon >= 0 means a positive entry
    i = 0
    while i < cap and float(d.sum()) > epsilon:
        if strategy == "greedy":
            piv = greedy_pivot(d)
        else:
            piv = omp_pivot(d, target, w)
        root = math.sqrt(float(d[piv]))
        scale = 1.0 / root

        if strategy == "greedy" and i * n >= BLOCK_MIN_ENTRIES:
            if i >= block_end or block[i - base] != piv:
                base = i
                k = min(CANDIDATES, cap - i)
                block, cols = _next_pivots(oracle, lt[:i], d, piv, k, floor)
                if prod is None:
                    prod = np.empty((k, n))
                block_end = i + _block_rows(oracle, lt, i, block, cols, prod, scale)
            ell = lt[i]
        else:
            lrow = lrow_buf[:i]
            np.copyto(lrow, lt[:i, piv])
            # np.dot, not np.matmul with out: the tests count those calls as
            # block products
            np.dot(lt[:i].T, lrow, out=schur)
            ell = oracle.rows([piv], out=lt[i : i + 1])[0]
            ell -= schur
            ell *= scale
        ell[pivots[:i]] = 0.0  # Schur complement vanishes at previous pivots
        ell[piv] = root

        if w is not None:
            w += np.multiply(ell, scale * (target[piv] - w[piv]), out=sq)

        d -= np.multiply(ell, ell, out=sq)
        d[piv] = 0.0
        if d.min() < -tol:
            raise NumericsError("residual diagonal went negative; oracle is not PSD")
        d[np.less_equal(d, floor, out=low)] = 0.0

        pivots[i] = piv
        i += 1

    pivots = pivots[:i]
    r = np.zeros((0, 0))
    if i:
        r, info = dtrtri(lt[:i, pivots], lower=0)
        if info != 0:
            raise NumericsError(f"triangular inverse of the pivot block failed (LAPACK info {info})")
    residual = float(d.sum())
    return CholeskyFactors(
        pivots=pivots,
        Lt=lt[:i],
        R=r,
        residual_trace=residual,
        epsilon=float(epsilon),
        hit_rank_cap=bool(i == cap and residual > epsilon),
    )
