"""Pivoted incomplete Cholesky decomposition with a biorthogonal factor.

Given column access to a symmetric positive-semidefinite N x N matrix K, the
decomposition selects m pivot indices pi_1..pi_m and produces

* ``Lt`` (m x N): the transpose of an incomplete Cholesky factor L, one row
  per pivot, with trace(K - L L^T) <= eps,
* ``R``  (m x m): a biorthogonal factor satisfying K[:, piv] R = L and
  R^T L[piv, :] = I, hence R R^T = inv(K[piv, piv]).

Only the diagonal of K plus one full column per pivot are ever requested, so
the cost is O(m^2 N) time.  ``Lt`` is the leading rows of a (cap, N) buffer:
step i reads the rows of the i earlier steps as one contiguous block for its
Schur update and writes its own row.  The buffer is zero-filled lazily by the
allocator, so the memory touched is O(m N) for the rank m reached, not for
the cap.  With ``epsilon=0`` the loop
runs until the residual diagonal is exhausted and L L^T reproduces K to the
numerical rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .kernels import Dataset, KernelSpec, _as_points, cross_kernel_matrix, kernel_diagonal, sq_norms

# residual diagonal entries below DIAG_FLOOR_REL * max(diag K) are treated as
# exhausted; entries more negative than -PSD_TOL_REL * max(diag K) mean the
# oracle was not PSD
DIAG_FLOOR_REL = 1e-12
PSD_TOL_REL = 1e-8

DEFAULT_MAX_RANK = 2000


class NumericsError(RuntimeError):
    """Numerical failure: non-PSD input, singular system, or similar."""


class KernelOracle:
    """Lazy columns of the kernel matrix of one point set against itself.

    The squared norms of the points are computed once; each column reuses
    them and is bitwise equal to ``cross_kernel_matrix(spec, pts, pts[j:j+1])``.
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

    def column(self, j: int) -> np.ndarray:
        self.queries += 1
        return cross_kernel_matrix(
            self._spec, self._pts, self._pts[j : j + 1], row_sq_norms=self._sq_norms
        )[:, 0]


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


def omp_pivot(
    d: np.ndarray,
    target_values: np.ndarray,
    w_running: np.ndarray,
    quantile_threshold: float = 0.9,
) -> int:
    """Pivot maximizing the normalized unexplained target energy.

    Candidates are restricted to indices whose residual diagonal reaches the
    given quantile of the nonzero diagonal entries; among them the score
    (f(z_j) - w_j)^2 / d_j decides, ties to the smallest index.  When every
    score vanishes the choice falls back to :func:`greedy_pivot`.
    """
    d = np.asarray(d, dtype=np.float64)
    nz = d[d > 0]
    if nz.size == 0:
        raise ValueError("no strictly positive diagonal entry available for pivoting")
    if not 0.0 <= quantile_threshold <= 1.0:
        raise ValueError("quantile_threshold must lie in [0, 1]")
    eta = np.quantile(nz, quantile_threshold)
    cand = d >= eta
    scores = np.full(d.shape, -np.inf)
    resid = np.asarray(target_values, dtype=np.float64) - np.asarray(w_running, dtype=np.float64)
    scores[cand] = resid[cand] ** 2 / d[cand]
    j = int(np.argmax(scores))
    if scores[j] <= 0:
        return greedy_pivot(d)
    return j


def pivoted_cholesky(
    oracle,
    epsilon: float,
    strategy: str = "greedy",
    *,
    omp_target: Optional[np.ndarray] = None,
    omp_quantile: float = 0.9,
    max_rank: Optional[int] = None,
) -> CholeskyFactors:
    """Run the decomposition until trace(K - L L^T) <= epsilon.

    Parameters
    ----------
    oracle : object with ``size``, ``diagonal()``, ``column(j)``
        Column access to the PSD matrix.  Exactly ``rank`` columns are read.
    epsilon : float
        Absolute trace tolerance, >= 0.  Zero runs to numerical rank.
    strategy : {"greedy", "omp"}
        Pivot rule.  ``omp`` additionally needs ``omp_target``, the target
        function values at all N points.
    max_rank : int, optional
        Hard cap on the number of pivots, >= 1; hitting it is reported
        through ``hit_rank_cap``, not raised.
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
    if np.any(d < -PSD_TOL_REL * max(dmax, 1.0)):
        raise NumericsError("matrix diagonal has negative entries; oracle is not PSD")
    floor = DIAG_FLOOR_REL * dmax
    d[d <= floor] = 0.0

    lt = np.zeros((cap, n))  # L^T, one row per pivot
    rbuf = np.zeros((cap, cap))
    pivots: list[int] = []
    w = np.zeros(n) if strategy == "omp" else None

    i = 0
    while i < cap and float(d.sum()) > epsilon and np.any(d > 0):
        if strategy == "greedy":
            piv = greedy_pivot(d)
        else:
            piv = omp_pivot(d, target, w, omp_quantile)
        scale = 1.0 / np.sqrt(d[piv])

        lrow = lt[:i, piv].copy()
        ell = oracle.column(piv) - lt[:i].T @ lrow
        ell *= scale
        if pivots:
            ell[pivots] = 0.0  # Schur complement vanishes at previous pivots
        ell[piv] = np.sqrt(d[piv])

        rbuf[:i, i] = -scale * (rbuf[:i, :i] @ lrow)
        rbuf[i, i] = scale

        if w is not None:
            w += ell * (scale * (target[piv] - w[piv]))

        d -= ell * ell
        d[piv] = 0.0
        if np.any(d < -PSD_TOL_REL * max(dmax, 1.0)):
            raise NumericsError("residual diagonal went negative; oracle is not PSD")
        d[d <= floor] = 0.0

        lt[i] = ell
        pivots.append(piv)
        i += 1

    residual = float(d.sum())
    return CholeskyFactors(
        pivots=np.asarray(pivots, dtype=np.intp),
        Lt=lt[:i],
        R=rbuf[:i, :i].copy(),
        residual_trace=residual,
        epsilon=float(epsilon),
        hit_rank_cap=bool(i == cap and residual > epsilon and np.any(d > 0)),
    )
