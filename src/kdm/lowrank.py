"""Pivoted incomplete Cholesky decomposition with a biorthogonal factor.

Given row access to a symmetric positive-semidefinite N x N matrix K, the
decomposition selects m pivot indices pi_1..pi_m and produces

* ``Lt`` (m x N): the transpose of an incomplete Cholesky factor L, one row
  per pivot, with trace(K - L L^T) <= eps,
* ``R``  (m x m), formed only on request: a biorthogonal factor satisfying
  K[:, piv] R = L and R^T L[piv, :] = I, hence R R^T = inv(K[piv, piv]).

Only the diagonal of K plus one full row per pivot are requested (and the
rows of a block cut short, below), so the cost is O(m^2 N) time.  ``Lt`` is
the leading rows of a (cap, N) buffer, and every row of it is formed one way:
as a row of a block B of k >= 1 pivots begun at some step ``base``.  One
oracle call writes K[B, :] into the factor rows ``base`` to ``base + k``
(its cross products of points pass through the block's Schur-product
buffer, free until the next product), one
matrix product computes their Schur products against the rows before
``base`` and one in-place subtraction removes them, leaving
S = K[B, :] - L[B, :base] L[:, :base]^T.  A block of one pivot is S scaled
by one over the root of its residual diagonal entry.  For k > 1, with T the
lower Cholesky factor (``np.linalg.cholesky``) of S's own k x k pivot
columns, the block's rows of L^T are T^{-1} S: one product of the k x k
inverse (``np.linalg.inv``) with S into the block's Schur-product buffer,
copied back into the factor rows.  Should roundoff make that k x k block
indefinite, numpy does not say at which order the factorization failed, so
the block keeps its first row only.  Each later step uses its precomputed
row only if its pivot is the next one of B; otherwise it begins a new block,
and so does a step after B's last row.  Every row is written before it is
read, so the buffer is left uninitialised, and the memory touched is O(m N)
for the rank m reached, not for the cap.  The block's Schur products, ell^2, the floor mask and the
pivot indices are buffers allocated once per decomposition.  With
``epsilon=0`` the loop runs until the residual diagonal is exhausted and
L L^T reproduces K to the numerical rank.

Only the choice of B depends on the pivot rule and the size.  An OMP step,
and a greedy step while the earlier rows hold fewer than BLOCK_MIN_ENTRIES
entries, is a block of its own pivot alone: one matrix-vector product per
step, which reads all earlier rows at every step, m^2 N / 2 entries in all,
at the speed of memory, not of arithmetic.  Past that size the greedy rule
avoids most of that reading by working out its next pivots.  The pool C is
the POOL indices with the largest residual diagonal d, and tau the largest d
outside C.  d never increases, so no index outside C can rise above tau, and
while residual entries of C stay above tau the next greedy pivots are those
of C's own residual block S_C = K[C, C] - L[C, :base] L[C, :base]^T.  A
greedy pivoted Cholesky of S_C (:func:`_greedy_order`), stopped at tau,
lists them in order, and B is the first k <= CANDIDATES of them.  It is
left-looking: each listed pivot costs one matrix-vector product with the
rows listed before it.  C is in index order and each step takes the first
of its largest residual entries, so exact ties go to the smallest index at
every pivot of the list, as :func:`greedy_pivot` breaks them.  Per block
that costs one POOL x POOL kernel block (``oracle.submatrix``), a gather of
the pool's ``base`` x POOL entries of L^T, at most k POOL^2 flops in the
list, the k kernel rows, the (k, base) x (base, N) product, k^3 / 3 flops in
the Cholesky factor, k^3 in its inverse and 2 k^2 N in the product with S,
all of which the loop then uses unless roundoff reorders near-equal
residual entries or the stopping rule ends the loop inside the block.  Rows
formed for a block cut short are left unused, so the oracle's row count can
exceed the rank by them.  The pivot is still chosen from the exact residual
diagonal, and each step still zeroes its row at the earlier pivots, sets its
pivot entry to the root of the residual and updates d, so pivots, rank,
stopping rule and ``hit_rank_cap`` are those of blocks of one pivot, and a
prediction that roundoff spoils costs only a new block; only the order in
which the products are summed differs, a change at roundoff level that can
decide a pivot only between residual entries tied to roundoff (such as
copies of one point).  OMP pivots do not follow the residual diagonal, so
their blocks stay at one pivot.

A block of k > 1 pivots whose panel of k N entries reaches
SPLIT_MIN_ENTRIES (1 MB; at N = 20,000 a block of 7 or more pivots, at
N = 2,000 none) is formed in PARTS ranges of columns, side by side: the
calling thread forms one and a pool of worker threads the others (see
:func:`worker_count`).  Each range gets its kernel rows, its Schur products
against the earlier rows and their subtraction; the k x k Cholesky factor
of the pivot columns and its inverse follow on the calling thread, and then
each range gets its product with the inverse and its copy back.  Every
entry depends only on its own column, so the ranges are fixed by N alone,
and the bits do not depend on how many workers run them.  The ranges begin
at multiples of 64 columns, where BLAS also tiles one product over all N,
so the bits are those of one range over all N columns, except where
OpenBLAS switches kernels: it forms small products (up to about 10^6
multiply-adds, in 0.3.31) by a kernel that rounds the last N mod 8 columns
differently, so where a part is that small and the whole product is not
(the 12 x 12 product with the inverse at N = 9,999, for one) those columns
can move in the last bit.  At N = 20,000 no bit moves.  BLAS itself stays
at one thread.  Smaller panels and blocks of one pivot are one range, on the
calling thread, since handing a part to another thread costs more than it
saves there.

Each step zeroes its row of L^T at the earlier pivots, so the pivot block
of L^T, ``Lt[:, piv]`` = L[piv, :]^T, is exactly upper triangular, and
R = inv(L[piv, :]^T).  The loop does not form R: a fit reads it only through
beta = R w, which one triangular solve with the pivot block gives
(:func:`_upper_solve`, O(m^2 k) flops for k right-hand sides).  ``R`` is
formed only on request, on first access, as the same solve with the
identity, exactly upper triangular.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .kernels import Dataset, KernelSpec, _as_points, _kernel_block, kernel_diagonal, sq_norms

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
# hold at least BLOCK_MIN_ENTRIES entries (2 MB); below that a block of the
# step's own pivot alone, one matrix-vector product, is cheaper
CANDIDATES = 32
POOL = 64
BLOCK_MIN_ENTRIES = 2**18

# a listed block whose panel of k x N entries reaches SPLIT_MIN_ENTRIES (1 MB)
# is formed in PARTS fixed column ranges, run side by side on the workers
PARTS = 2
SPLIT_MIN_ENTRIES = 2**17

# triangular systems are solved in diagonal blocks of at most INVERSE_LEAF rows
INVERSE_LEAF = 64


class NumericsError(RuntimeError):
    """Numerical failure: non-PSD input, singular system, or similar."""


class KernelOracle:
    """Lazy rows of the kernel matrix of one point set against itself.

    The squared norms of the points are computed once; ``rows(idx, out)``
    reuses them for both operands, writes K[idx, :] into ``out`` (a float64
    array of shape (len(idx), N)) and returns it.  The rows are bitwise equal
    to ``cross_kernel_matrix(spec, pts[idx], pts)``, and one row to the
    column ``cross_kernel_matrix(spec, pts, pts[j:j+1])``.  With ``start``
    and ``stop`` they are K[idx, start:stop], bitwise
    ``cross_kernel_matrix(spec, pts[idx], pts[start:stop])``.  ``scratch``,
    a float64 array of the shape of ``out`` whose entries are left
    undefined, receives the rows' cross products of points, so that a call
    given both allocates nothing of the rows' size; the bits are the same.
    ``submatrix(idx)`` is the kernel block K[idx, idx].  Only rows count in
    ``queries``, and only in a range that begins at column 0, so that a row
    formed in parts counts once.
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

    def rows(
        self,
        idx,
        out: Optional[np.ndarray] = None,
        start: int = 0,
        stop: Optional[int] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if start == 0:
            self.queries += len(idx)
        cols = slice(start, stop)
        return _kernel_block(
            self._spec, self._pts[idx], self._pts[cols], self._sq_norms[idx], self._sq_norms[cols], out, scratch
        )

    def submatrix(self, idx: np.ndarray) -> np.ndarray:
        pts = self._pts[idx]
        return _kernel_block(self._spec, pts, pts, self._sq_norms[idx])


@dataclass
class CholeskyFactors:
    """Output of :func:`pivoted_cholesky`.

    ``pivots`` lists the selected indices in selection order.  ``Lt`` is
    L^T, one row per pivot; its pivot block ``Lt[:, pivots]`` is exactly
    upper triangular.  ``residual_trace`` is trace(K - L L^T) = l1 norm of
    the final residual diagonal, and ``epsilon`` the absolute tolerance the
    loop was run with.
    """

    pivots: np.ndarray
    Lt: np.ndarray
    residual_trace: float
    epsilon: float
    hit_rank_cap: bool = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @cached_property
    def R(self) -> np.ndarray:
        """The biorthogonal factor inv(Lt[:, pivots]), exactly upper triangular, formed on first access.

        No fit reads it: beta = R w is one :func:`_upper_solve` with the
        pivot block.  Raises ``NumericsError`` when it is not finite.
        """
        return _upper_solve(self.Lt[:, self.pivots], np.eye(self.rank))


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


def _greedy_order(s: np.ndarray, tau: float, k: int) -> np.ndarray:
    """The first at most k pivots of a greedy pivoted Cholesky of the PSD block ``s``.

    Each step takes the index of the largest residual diagonal entry, the
    smallest among exact ties as :func:`greedy_pivot` does, and the list
    stops before an entry that does not exceed ``tau``.  The factor is formed
    left-looking, one row per step: the pivot's row of ``s`` less one
    matrix-vector product with the rows before it, over the root of its
    residual.
    """
    p = s.shape[0]
    d = s.diagonal().copy()
    rows = np.empty((min(k, p), p))
    order = np.zeros(rows.shape[0], dtype=np.intp)
    for j in range(rows.shape[0]):
        piv = int(np.argmax(d))
        if not d[piv] > tau:
            return order[:j]
        row = np.subtract(s[piv], rows[:j, piv] @ rows[:j], out=rows[j])
        row *= 1.0 / math.sqrt(float(d[piv]))
        d -= row * row
        d[piv] = 0.0
        order[j] = piv
    return order


def _next_pivots(oracle, lt: np.ndarray, d: np.ndarray, piv: int, k: int, floor: float) -> np.ndarray:
    """The next at most k greedy pivots, ``piv`` first.

    ``lt`` holds the rows of L^T written so far and ``d`` the residual
    diagonal; ``piv`` is the current step's greedy pivot.  The pivots are
    those :func:`_greedy_order` lists on the pool's residual block, stopped
    at the larger of tau and the floor (module docstring).  When roundoff,
    or a tie at the maximum wider than the pool, makes its first pivot
    another index than ``piv``, or leaves it none, the block is ``piv``
    alone.
    """
    n = d.size
    p = min(POOL, n - 1)  # at least one point stays outside the pool
    part = np.argpartition(d, n - p - 1)
    tau = max(float(d[part[n - p - 1]]), floor)
    pool = np.sort(part[n - p :])  # index order, so ties go to the smallest
    cols = lt[:, pool]
    block = pool[_greedy_order(oracle.submatrix(pool) - cols.T @ cols, tau, k)]
    if block.size and block[0] == piv:
        return block
    return np.array([piv])


def worker_count() -> int:
    """Workers that form the parts of a split panel side by side.

    ``KDM_THREADS`` when it is set, else min(PARTS, the CPUs this process
    may run on).  Raises ValueError, naming the variable, when it is set to
    anything but an integer >= 1.
    """
    text = os.environ.get("KDM_THREADS")
    if text is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        return min(PARTS, cpus)
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise ValueError(f"KDM_THREADS must be an integer >= 1, got {text!r}")
    return int(text)


_executor: Optional[ThreadPoolExecutor] = None
_executor_key = None
_executor_lock = threading.Lock()


def _side_by_side(fn, arguments: list) -> list:
    """``[fn(*args) for args in arguments]``, the calls run side by side.

    The first call runs on the calling thread and the others on a pool of
    min(worker_count(), PARTS) - 1 threads, made on first use (and again in
    a forked child, which inherits no threads); with one worker, or one
    call, they run one after another here.  Every call has ended before an
    exception propagates, so none is left writing into a shared buffer.
    """
    global _executor, _executor_key
    if len(arguments) == 1:  # a panel kept whole, the common case: nothing to hand off
        return [fn(*arguments[0])]
    size = min(worker_count(), PARTS) - 1
    if size == 0:
        return [fn(*args) for args in arguments]
    with _executor_lock:
        if _executor_key != (size, os.getpid()):
            _executor, _executor_key = ThreadPoolExecutor(size, thread_name_prefix="kdm"), (size, os.getpid())
        pool = _executor
    futures = [pool.submit(fn, *args) for args in arguments[1:]]
    try:
        first = fn(*arguments[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def _column_ranges(n: int, k: int) -> list:
    """The column ranges (c0, c1) in which a block of k rows of N = ``n`` entries is formed.

    PARTS ranges, fixed by N alone, for k > 1 and k N >= SPLIT_MIN_ENTRIES;
    one range of all N columns otherwise.  Each range begins at a multiple of
    64 columns, a multiple of every BLAS kernel's tile, so that BLAS tiles
    the columns of a range as it tiles them in one product over all N.
    """
    if k < 2 or k * n < SPLIT_MIN_ENTRIES:
        return [(0, n)]
    edges = [n * p // PARTS // 64 * 64 for p in range(PARTS)] + [n]
    return list(zip(edges[:-1], edges[1:]))


def _block_rows(oracle, lt: np.ndarray, base: int, block: np.ndarray, prod: np.ndarray, scale: float) -> int:
    """Write the rows of L^T for ``block``, the pivots of steps base, base + 1, ...

    The oracle writes K[block, :] into ``lt[base:base + k]``, its cross
    products of points passing through ``prod``; one matrix product of the
    gathered columns ``lt[:base, block]`` with the rows before ``base``
    (into ``prod``) gives their Schur products, and after
    subtracting them the rows hold S = K[block, :] - L[block, :base]
    L[:, :base]^T.  One row is S scaled by ``scale``, 1 / sqrt of its
    residual diagonal entry.  For k > 1, with T the lower Cholesky factor of
    S[:, block], the block's rows of L^T are T^{-1} S: one matrix product of
    the k x k inverse into ``prod``, copied back.  Should roundoff make
    S[:, block] indefinite, the Cholesky factorization does not say at which
    order, so only the first row is kept, scaled as one row is.  The rows,
    products and copies are formed over the column ranges of
    :func:`_column_ranges`, side by side, each range writing only into its
    columns of ``lt`` and ``prod``: no part allocates an array of its
    range's size.  The Cholesky factor and its inverse between them are
    serial.  Returns the number of rows kept.
    """
    k = block.size
    rows = lt[base : base + k]
    cols = lt[:base, block].T
    parts = _column_ranges(lt.shape[1], k)

    def schur(c0, c1):
        part, products = rows[:, c0:c1], prod[:k, c0:c1]
        oracle.rows(block, out=part, start=c0, stop=c1, scratch=products)
        part -= np.matmul(cols, lt[:base, c0:c1], out=products)

    _side_by_side(schur, parts)
    if k > 1:
        try:
            t = np.linalg.cholesky(rows[:, block])
        except np.linalg.LinAlgError:
            k = 1
    if k == 1:
        rows[0] *= scale
    else:
        tinv = np.linalg.inv(t)

        def solve(c0, c1):
            rows[:, c0:c1] = np.matmul(tinv, rows[:, c0:c1], out=prod[:k, c0:c1])

        _side_by_side(solve, parts)
    return k


def _upper_solve(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution x of u x = b for the upper triangular matrix ``u``; ``b`` is (m,) or (m, k).

    Recursive 2 x 2 blocks: with U = [[A, B], [0, C]], C x2 = b2 and then
    A x1 = b1 - B x2, down to leaves of at most INVERSE_LEAF rows that
    ``np.linalg.solve`` solves; its LU makes no row swap on a triangular
    block, so a leaf is one back substitution.  Each off-diagonal block costs
    one matrix product: O(m^2 k) flops for k right-hand sides.  For b = I
    the solution is inv(u), exactly upper triangular.
    Raises ``NumericsError`` when ``u`` is singular or the solution not finite.
    """
    m = u.shape[0]
    if m <= INVERSE_LEAF:
        try:
            x = np.linalg.solve(u, b)
        except np.linalg.LinAlgError:
            x = None
    else:
        h = m // 2
        x2 = _upper_solve(u[h:, h:], b[h:])
        x = np.concatenate([_upper_solve(u[:h, :h], b[:h] - u[:h, h:] @ x2), x2])
    if x is None or not np.isfinite(x).all():
        raise NumericsError("triangular solve with the pivot block is singular or not finite")
    return x


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
    oracle : object with ``size``, ``diagonal()``, ``rows(idx, out, start, stop, scratch)``, ``submatrix(idx)``
        Access to the PSD matrix: its diagonal, the rows K[idx, start:stop]
        written into the float64 array ``out`` of shape (len(idx), stop -
        start) (those columns of rows of the factor buffer) and returned,
        with ``scratch``, an array of that shape whose entries it may
        overwrite (those columns of the Schur-product buffer), counted in
        ``queries`` only when ``start`` is 0, and the block
        K[idx, idx] as a new array.  A block of one pivot reads that pivot's
        row, a listed block of greedy pivots its k rows and one POOL x POOL
        block; the rows read exceed ``rank`` only by those of blocks cut
        short.
    epsilon : float
        Absolute trace tolerance, >= 0.  Zero runs to numerical rank.
    strategy : {"greedy", "omp"}
        Pivot rule.  ``omp`` additionally needs ``omp_target``, the target
        function values at all N points, each finite; any other strategy
        refuses an ``omp_target``.
    max_rank : int, optional
        Hard cap on the number of pivots, >= 1; hitting it is reported
        through ``hit_rank_cap``, not raised.

    Time is O(m^2 N) for rank m and N points.  Every row of ``Lt`` comes
    from one block of k pivots (module docstring): the oracle writes their k
    kernel rows into the factor buffer, their Schur products, one (k, i) x
    (i, N) product for a block begun at step i, go into a buffer of at most
    (CANDIDATES, N) and are subtracted, and the rows are scaled (k = 1) or
    finished with one k x k Cholesky factor, its inverse and one product
    into that buffer; a panel of at least SPLIT_MIN_ENTRIES entries is
    formed in PARTS fixed column ranges side by side, with the same bits at
    any worker count.  A block is the step's pivot alone for OMP and for
    greedy steps before the earlier rows hold ``BLOCK_MIN_ENTRIES`` entries;
    after that a greedy block is up to CANDIDATES pivots that
    :func:`_greedy_order` lists on one POOL x POOL kernel block.  The pivots
    do not depend on the block sizes, except between residual entries tied
    to roundoff.  The factor buffer and the step vectors are allocated once,
    before the loop.  ``R`` is not formed here: the factors form it on
    first access (:class:`CholeskyFactors`), and fits never read it.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    if strategy not in ("greedy", "omp"):
        raise ValueError(f"unknown pivot strategy {strategy!r}")
    worker_count()  # a bad KDM_THREADS fails every decomposition, not only one whose panels split
    if strategy != "omp" and omp_target is not None:
        raise ValueError(f"omp_target is read only by the omp strategy, not by {strategy!r}")
    if strategy == "omp":
        if omp_target is None:
            raise ValueError("omp strategy requires omp_target values")
        target = np.asarray(omp_target, dtype=np.float64)
        if target.shape != (oracle.size,) or not np.isfinite(target).all():
            raise ValueError("omp_target must hold one finite value per point")

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

    # L^T, one row per pivot, written by blocks: a block begun at step base
    # writes the rows lt[base:block_end] of its pivots block[:block_end -
    # base] and reads only the rows before base; prod receives their Schur
    # products.  The other step vectors live in buffers allocated here: the
    # pivots, ell^2 and the floor mask.  Every entry is written before it is
    # read; the pivots are zeros only because the tests poison unwritten
    # buffers with NaN, which an int array cannot hold
    lt = np.empty((cap, n))
    pivots = np.zeros(cap, dtype=np.intp)
    prod = np.empty((min(CANDIDATES, cap), n))
    sq = np.empty(n)
    low = np.empty(n, dtype=bool)
    w = np.zeros(n) if strategy == "omp" else None
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
        pivots[i] = piv

        if i >= block_end or block[i - base] != piv:
            base = i
            if strategy == "greedy" and i * n >= BLOCK_MIN_ENTRIES:
                block = _next_pivots(oracle, lt[:i], d, piv, min(CANDIDATES, cap - i), floor)
            else:
                block = pivots[i : i + 1]  # a view, so a step allocates no index array
            block_end = i + _block_rows(oracle, lt, i, block, prod, scale)
        ell = lt[i]
        ell[pivots[:i]] = 0.0  # Schur complement vanishes at previous pivots
        ell[piv] = root

        if w is not None:
            w += np.multiply(ell, scale * (target[piv] - w[piv]), out=sq)

        d -= np.multiply(ell, ell, out=sq)
        d[piv] = 0.0
        if d.min() < -tol:
            raise NumericsError("residual diagonal went negative; oracle is not PSD")
        d[np.less_equal(d, floor, out=low)] = 0.0
        i += 1

    residual = float(d.sum())
    return CholeskyFactors(
        pivots=pivots[:i],
        Lt=lt[:i],
        residual_trace=residual,
        epsilon=float(epsilon),
        hit_rank_cap=bool(i == cap and residual > epsilon),
    )
