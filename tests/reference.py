"""Validation-only references the tests check the package against.

``MatrixOracle`` gives row access to a materialized matrix and
``verify_factors`` recomputes the structural identities of a decomposition
against it.  ``fit_full`` solves the exact representer system over all 2n
stacked points, quadratic in memory, so the low-rank fit can be checked
against it at small scale through ``eval_h_full`` and ``rkhs_gap``;
``h_norm_gram`` is the RKHS norm of a low-rank fit from its Gram matrix.
``median_heuristic_rho_reference`` and ``energy_score_broadcast`` are the
plain numpy forms of the median heuristic and of the energy score, and
``reservoir_indices_scalar`` draws the grid subsample with one scalar draw
per item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from kdm.bench import MEDIAN_POINTS
from kdm.estimator import KdmModel, PriorSpec, _common_size, _input_transform, _query_points
from kdm.kernels import KernelSpec, Standardizer, _as_points, _sq_dists, cross_kernel_matrix
from kdm.lowrank import CholeskyFactors, NumericsError


class MatrixOracle:
    """Row and block access to a materialized symmetric PSD matrix.

    Only rows count in ``queries``.
    """

    def __init__(self, matrix: np.ndarray):
        k = np.asarray(matrix, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("matrix oracle needs a square matrix")
        self._k = k
        self.queries = 0

    @property
    def size(self) -> int:
        return self._k.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diag(self._k).copy()

    def rows(self, idx, out: Optional[np.ndarray] = None) -> np.ndarray:
        self.queries += len(idx)
        return np.take(self._k, idx, axis=0, out=out)

    def submatrix(self, idx: np.ndarray) -> np.ndarray:
        return self._k[np.ix_(idx, idx)]


@dataclass
class FactorCheck:
    """Frobenius residuals of the five structural identities plus PSD slack."""

    col_identity: float  # || K[:, piv] R - L ||_F
    biorthogonality: float  # || R^T L[piv, :] - I ||_F
    pivot_inverse: float  # || R R^T - inv(K[piv, piv]) ||_F
    nystrom: float  # || L L^T - K[:, piv] inv(K[piv, piv]) K[piv, :] ||_F
    residual_min_eig: float  # min eigenvalue of K - L L^T
    residual_trace: float  # trace of K - L L^T


def verify_factors(matrix: np.ndarray, factors: CholeskyFactors) -> FactorCheck:
    """Recompute the structural identities of a decomposition against K."""
    k = np.asarray(matrix, dtype=np.float64)
    piv = factors.pivots
    lmat, rmat = factors.Lt.T, factors.R
    cols = k[:, piv]
    kpp = k[np.ix_(piv, piv)]
    eye = np.eye(len(piv))
    kpp_inv = np.linalg.solve(kpp, eye)
    nystrom = cols @ np.linalg.solve(kpp, cols.T)
    resid = k - lmat @ lmat.T
    resid = 0.5 * (resid + resid.T)
    return FactorCheck(
        col_identity=float(np.linalg.norm(cols @ rmat - lmat)),
        biorthogonality=float(np.linalg.norm(rmat.T @ lmat[piv, :] - eye)),
        pivot_inverse=float(np.linalg.norm(rmat @ rmat.T - kpp_inv)),
        nystrom=float(np.linalg.norm(lmat @ lmat.T - nystrom)),
        residual_min_eig=float(np.linalg.eigvalsh(resid)[0]),
        residual_trace=float(np.trace(resid)),
    )


@dataclass
class FullRankModel:
    """Exact representer-system fit over all 2n stacked points."""

    kernel: KernelSpec
    lam: float
    prior: PriorSpec
    points: np.ndarray  # in kernel coordinates
    beta: np.ndarray
    n: int
    standardizer: Standardizer


def fit_full(
    sample_p,
    sample_q,
    kernel: KernelSpec,
    lam: float,
    *,
    prior: Optional[PriorSpec] = None,
    standardize: bool = False,
    max_points: int = 4000,
) -> FullRankModel:
    """Dense 2n x 2n reference fit; quadratic memory, for validation scale.

    The kernel coordinates are those of :func:`kdm.estimator.fit`: the same
    input transform of the stacked sample.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    pts_p, pts_q = _common_size(sample_p, sample_q)
    n = pts_p.shape[0]
    if 2 * n > max_points:
        raise ValueError(f"dense fit limited to {max_points} stacked points, got {2 * n}")
    prior = prior if prior is not None else PriorSpec.one()
    stacked = np.vstack([pts_p, pts_q])
    standardizer = _input_transform(kernel, stacked, standardize)
    zs = standardizer.apply(stacked)

    k = cross_kernel_matrix(kernel, zs, zs)
    p_star = prior.evaluate(pts_p)
    q_star = np.concatenate([-p_star, np.ones(n)])
    # minimizer of the regularized empirical loss solves (K D_P K + n lam K) b
    # = K q; any solution of (D_P K + n lam I) b = q works and that system is
    # provably invertible since D_P K has nonnegative real eigenvalues
    m = k.copy()
    m[n:, :] = 0.0
    m[np.diag_indices(2 * n)] += n * lam
    try:
        beta = np.linalg.solve(m, q_star)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"dense representer system is singular: {exc}") from exc
    return FullRankModel(
        kernel=kernel,
        lam=float(lam),
        prior=prior,
        points=zs,
        beta=beta,
        n=n,
        standardizer=standardizer,
    )


def eval_h_full(full: FullRankModel, z) -> Union[float, np.ndarray]:
    """Correction h of the dense fit at one point or a batch."""
    pts, single = _query_points(full.points.shape[1], z)
    vals = cross_kernel_matrix(full.kernel, full.standardizer.apply(pts), full.points) @ full.beta
    return float(vals[0]) if single else vals


def rkhs_gap(full: FullRankModel, model: KdmModel) -> float:
    """RKHS distance between the dense and the low-rank fit.

    Computed from Gram matrices, so it costs O((2n)^2) and is meant for
    validation scale.  Both fits must use the same kernel and coordinates.
    """
    if full.kernel != model.kernel:
        raise ValueError("fits use different kernels")
    if not (
        np.array_equal(full.standardizer.mean, model.standardizer.mean)
        and np.array_equal(full.standardizer.scale, model.standardizer.scale)
    ):
        raise ValueError("fits use different coordinate transforms")
    k_ff = cross_kernel_matrix(full.kernel, full.points, full.points)
    k_ll = cross_kernel_matrix(full.kernel, model.pivot_points, model.pivot_points)
    k_fl = cross_kernel_matrix(full.kernel, full.points, model.pivot_points)
    gap2 = (
        full.beta @ k_ff @ full.beta
        + model.beta @ k_ll @ model.beta
        - 2.0 * (full.beta @ k_fl @ model.beta)
    )
    return float(np.sqrt(max(gap2, 0.0)))


def h_norm_gram(model: KdmModel) -> float:
    """RKHS norm of the correction h as sqrt(beta^T K[piv, piv] beta)."""
    kpp = cross_kernel_matrix(model.kernel, model.pivot_points, model.pivot_points)
    val = float(model.beta @ kpp @ model.beta)
    return float(np.sqrt(max(val, 0.0)))


def median_heuristic_rho_reference(points) -> float:
    """Half the np.median of the upper triangle of the squared distances."""
    pts = _as_points(points)
    n = pts.shape[0]
    if n > MEDIAN_POINTS:
        pts = pts[np.linspace(0, n - 1, MEDIAN_POINTS).astype(np.intp)]
    d2 = _sq_dists(pts, pts)
    med = float(np.median(d2[np.triu_indices(pts.shape[0], 1)]))
    return max(med / 2.0, 1e-12)


def energy_score_broadcast(ys: np.ndarray, xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Energy scores of Q outcomes (Q, d) against candidates (m, d), weights (Q, m).

    Forms the (Q, m, d) and (m, m, d) difference arrays and reduces over d.
    """
    m = xs.shape[0]
    misfit = np.sum(w * np.linalg.norm(xs[None, :, :] - ys[:, None, :], axis=2), axis=1) / m
    diff = xs[:, None, :] - xs[None, :, :]
    spread = np.sum((w @ np.sqrt(np.sum(diff**2, axis=2))) * w, axis=1) / (2.0 * m**2)
    return misfit - spread


def reservoir_indices_scalar(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Algorithm R as a loop: item t >= k replaces slot j ~ U{0..t} when j < k."""
    if n <= k:
        return np.arange(n)
    reservoir = np.arange(k)
    for t in range(k, n):
        j = int(rng.integers(0, t + 1))
        if j < k:
            reservoir[j] = t
    return np.sort(reservoir)
