"""Validation-only references the tests check the package against.

``MatrixOracle`` gives row access to a materialized matrix and
``verify_factors`` recomputes the structural identities of a decomposition
against it.  ``fit_full`` solves the exact representer system over all 2n
stacked points, quadratic in memory, so the low-rank fit can be checked
against it at small scale through ``eval_h_full`` and ``rkhs_gap``;
``h_norm_gram`` is the RKHS norm of a low-rank fit from its Gram matrix.
``eval_kernel`` is one kernel entry, and ``validation_loss`` the quadratic
loss of one fitted model on validation samples, which the lambda path of
``kdm.estimator.cross_validate`` must reproduce.
``median_heuristic_rho_reference`` and ``energy_score_broadcast`` are the
plain numpy forms of the median heuristic and of the energy score, and
``reservoir_indices_scalar`` draws the grid subsample with one scalar draw
per item.  ``ingest_csv_reference`` is the CSV reader's csv-module parse,
cell by cell, that ``kdm.cli.ingest_csv`` must agree with.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from kdm.bench import MEDIAN_POINTS
from kdm.cli import UsageError
from kdm.estimator import KdmModel, PriorSpec, _as_dataset, _common_size, _input_transform, _quadratic_loss, eval_h
from kdm.kernels import KernelSpec, Standardizer, _as_points, _query_points, _sq_dists, cross_kernel_matrix
from kdm.lowrank import CholeskyFactors, NumericsError


class MatrixOracle:
    """Row and block access to a materialized symmetric PSD matrix.

    ``rows`` takes the column range ``start:stop`` and the ``scratch``
    buffer as ``KernelOracle.rows`` does; it needs no scratch and leaves it
    untouched.  Only rows count in ``queries``, in a range that begins at
    column 0.
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
        return np.take(self._k[:, start:stop], idx, axis=0, out=out)

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


def eval_kernel(spec: KernelSpec, z1, z2) -> float:
    """Single kernel evaluation k(z1, z2)."""
    a = np.atleast_1d(np.asarray(z1, dtype=np.float64))
    b = np.atleast_1d(np.asarray(z2, dtype=np.float64))
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("z1 and z2 must be vectors of equal dimension")
    return float(cross_kernel_matrix(spec, a[None, :], b[None, :])[0, 0])


def validation_loss(model: KdmModel, val_p, val_q) -> float:
    """Out-of-sample quadratic loss of the fitted ratio (lower is better).

    Both empirical sums are averaged over their validation sample sizes; the
    normalization does not move the argmin across models on common data.
    """
    vp, vq = _as_dataset(val_p), _as_dataset(val_q)
    if vp.d != model.d or vq.d != model.d:
        raise ValueError("validation sample dimension differs from model")
    return float(_quadratic_loss(eval_h(model, vp.points), eval_h(model, vq.points), model.prior.evaluate(vp.points)))


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


def ingest_csv_reference(path: str, columns=None) -> np.ndarray:
    """The points ``kdm.cli.ingest_csv(path, columns)`` reads, or its UsageError, by the csv module alone.

    The whole file goes through ``csv.reader`` and every selected cell
    through Python's ``float``, row by row; the first row that is too long
    or too short, or that holds a selected cell that is not a finite number,
    is named.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise UsageError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if header in ([], [""]):
        raise UsageError(f"{path}: row 1 is empty, but row 1 must name the columns")
    if all(_is_finite(h) for h in header):
        raise UsageError(f"{path}: row 1 holds only numbers, but row 1 must name the columns")
    if columns is None:
        idx = list(range(len(header)))
    elif all(isinstance(c, int) for c in columns):
        idx = list(columns)
        for i in idx:
            if i < 0 or i >= len(header):
                raise UsageError(f"{path}: column index {i} out of range (file has {len(header)})")
    else:
        idx = []
        for name in columns:
            if name not in header:
                raise UsageError(f"{path}: no column named {name!r}")
            idx.append(header.index(name))
    if len(rows) == 1:
        raise UsageError(f"{path}: no data rows")
    points = np.empty((len(rows) - 1, len(idx)))
    for rownum, row in enumerate(rows[1:], start=1):
        if len(row) > len(header):
            raise UsageError(f"{path}: row {rownum} has {len(row)} fields, but the header names {len(header)}")
        if len(row) < len(header):
            raise UsageError(f"{path}: row {rownum} has only {len(row)} fields")
        for j, i in enumerate(idx):
            cell = row[i].strip()
            try:
                v = float(cell)
            except ValueError:
                raise UsageError(f"{path}: cannot parse {cell!r} at row {rownum}, column {header[i]!r}")
            if not math.isfinite(v):
                raise UsageError(f"{path}: non-finite value {cell!r} at row {rownum}, column {header[i]!r}")
            points[rownum - 1, j] = v
    return points


def _is_finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False
