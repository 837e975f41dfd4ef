"""Regularized density-ratio estimation between two samples.

The ratio dQ/dP is modeled as a fixed prior guess plus an RKHS correction h.
Fitting solves a ridge system in the span of the pivot columns selected by the
incomplete Cholesky decomposition, so the linear algebra stays m x m even when
the stacked sample holds thousands of points.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .kernels import (
    Dataset,
    KernelSpec,
    Standardizer,
    _as_points,
    _json_number,
    _query_points,
    cross_kernel_matrix,
    kernel_sup,
    kernel_sup_is_empirical,
)
from .lowrank import (
    CholeskyFactors,
    KernelOracle,
    NumericsError,
    _side_by_side,
    _upper_solve,
    pivoted_cholesky,
    worker_count,
)

DEFAULT_EPSILON_REL = 1e-6

# the covariance's product of the Q block with itself is formed on a worker,
# beside the Gram, once that block holds SIDE_BY_SIDE_MIN_ENTRIES entries (8 MB)
SIDE_BY_SIDE_MIN_ENTRIES = 2**20


@dataclass(frozen=True)
class PriorSpec:
    """Prior guess for the density ratio with a declared sup bound.

    ``kind`` is ``"zero"``, ``"one"`` or ``"custom"``, and a custom prior
    evaluates the callable ``func``.  ``pi_inf`` bounds sup |p(z)| and must
    be a finite real number >= 0, stored as a float; for a custom evaluator
    it is taken on trust and only checked lazily against the values actually
    requested.  Every construction is checked, ``dataclasses.replace``
    included: a bad field raises ValueError.
    """

    kind: str
    pi_inf: float
    func: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "one", "custom"):
            raise ValueError(f"unknown prior kind {self.kind!r}; expected 'zero', 'one' or 'custom'")
        if not (isinstance(self.pi_inf, numbers.Real) and 0 <= self.pi_inf < math.inf):
            raise ValueError(f"pi_inf must be a finite number >= 0, got {self.pi_inf!r}")
        if self.kind == "custom" and not callable(self.func):
            raise ValueError(f"a custom prior needs a callable func, got {self.func!r}")
        object.__setattr__(self, "pi_inf", float(self.pi_inf))

    @classmethod
    def zero(cls) -> "PriorSpec":
        return cls(kind="zero", pi_inf=0.0)

    @classmethod
    def one(cls) -> "PriorSpec":
        return cls(kind="one", pi_inf=1.0)

    @classmethod
    def custom(cls, func: Callable[[np.ndarray], np.ndarray], pi_inf: float) -> "PriorSpec":
        return cls(kind="custom", pi_inf=pi_inf, func=func)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        if self.kind == "zero":
            return np.zeros(pts.shape[0])
        if self.kind == "one":
            return np.ones(pts.shape[0])
        vals = np.asarray(self.func(pts), dtype=np.float64).reshape(-1)
        if vals.shape[0] != pts.shape[0]:
            raise ValueError("prior evaluator returned wrong number of values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("prior evaluator returned non-finite values")
        if np.max(np.abs(vals), initial=0.0) > self.pi_inf * (1 + 1e-12):
            warnings.warn("prior values exceed the declared sup bound pi_inf", RuntimeWarning)
        return vals


@dataclass
class KdmModel:
    """Fitted low-rank density-ratio model.

    ``pivot_points`` are stored in the kernel's coordinate system, the image
    of the training points under ``standardizer`` (see
    :func:`_input_transform`); queries are transformed the same way before
    kernel evaluation.  The test reads ``moment_gap`` (L_Q^T 1 - L_P^T p*) and
    its plug-in ``covariance``; no array has a row per training point.  The
    base model of a conditional fit has no ``covariance`` (None).
    """

    kernel: KernelSpec
    lam: float
    prior: PriorSpec
    pivot_points: np.ndarray
    pivots: np.ndarray
    beta: np.ndarray
    w: np.ndarray
    moment_gap: np.ndarray
    covariance: Optional[np.ndarray]
    n: int
    epsilon: float
    residual_trace: float
    kappa_inf: float
    standardizer: Standardizer
    hit_rank_cap: bool = False
    seed: Optional[int] = None

    @property
    def kappa_empirical(self) -> bool:
        """Whether ``kappa_inf`` is taken over the data, not the kernel's true sup."""
        return kernel_sup_is_empirical(self.kernel)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def d(self) -> int:
        return self.pivot_points.shape[1]


def _as_dataset(sample) -> Dataset:
    return sample if isinstance(sample, Dataset) else Dataset(np.asarray(sample))


def _common_size(sample_p, sample_q) -> tuple[np.ndarray, np.ndarray]:
    """Both samples' points cut to the smaller sample size, warning when they differ."""
    sp, sq = _as_dataset(sample_p), _as_dataset(sample_q)
    if sp.d != sq.d:
        raise ValueError(f"sample dimensions differ: {sp.d} vs {sq.d}")
    n = min(sp.n, sq.n)
    if sp.n != sq.n:
        warnings.warn(
            f"sample sizes differ ({sp.n} vs {sq.n}); truncating both to {n}",
            RuntimeWarning,
        )
    return sp.points[:n], sq.points[:n]


@dataclass
class _Decomposition:
    """Kernel-dependent part of a fit, reusable across lambda values.

    ``gram`` (L_P^T L_P) and the pivot block ``U`` (``Lt[:, pivots]``,
    exactly upper triangular) are m x m and ``fields`` holds the
    lambda-independent fields of the model: no array has a row per training
    point.  :func:`_solve` is the one ridge solve on it, for one lambda or a
    path, and shares ``gram``, which must not be modified; a fold of
    :func:`cross_validate` that hands it to a worker for its
    eigendecomposition sets it to None.  ``covariance``
    is None unless the caller asked for it.  beta = R w is one triangular
    solve with ``U`` inside :func:`_solve`; R is never formed.
    """

    gram: np.ndarray
    U: np.ndarray
    fields: dict


def _input_transform(kernel: KernelSpec, stacked: np.ndarray, standardize: bool) -> Standardizer:
    """The map from data to kernel coordinates, fixed from the stacked sample.

    ``standardize`` centers and scales each column.  Otherwise the
    translation-invariant families are centered on the stacked mean, with
    scale 1: the kernel is unchanged, and its expanded squared distances no
    longer cancel when the data sit far from the origin.  The polynomial
    kernel is not translation-invariant, so it gets the identity.
    """
    if standardize:
        return Standardizer.from_points(stacked)
    d = stacked.shape[1]
    mean = np.zeros(d) if kernel.family == "polynomial" else stacked.mean(axis=0)
    return Standardizer(mean=mean, scale=np.ones(d))


def _factor(
    pts_p: np.ndarray,
    pts_q: np.ndarray,
    kernel: KernelSpec,
    *,
    epsilon: Optional[float] = None,
    epsilon_rel: float = DEFAULT_EPSILON_REL,
    strategy: str = "greedy",
    omp_target: Optional[np.ndarray] = None,
    max_rank: Optional[int] = None,
    standardize: bool = False,
) -> tuple[CholeskyFactors, np.ndarray, Standardizer]:
    """Pivoted Cholesky factor of the kernel matrix of the stacked P and Q points.

    ``pts_p`` and ``pts_q`` hold n points each, already matched in size, and
    ``omp_target`` one value per stacked point, P's first.  Returns the
    factors, the kernel coordinates of the stacked points and the
    standardizer that maps data to them (:func:`_input_transform`).  The
    columns of ``Lt`` follow the stacked points, so ``Lt[:, :n]`` and
    ``Lt[:, n:]`` are the P and Q column blocks that :func:`_reduce` takes.
    A tolerance at or above the kernel trace is refused with a ValueError
    naming it; a kernel matrix of trace zero raises ``NumericsError``.
    """
    _check_tolerances(epsilon, epsilon_rel)
    stacked = np.vstack([pts_p, pts_q])
    standardizer = _input_transform(kernel, stacked, standardize)
    zs = standardizer.apply(stacked)

    oracle = KernelOracle(kernel, zs)
    trace = float(oracle.diagonal().sum())
    given = f"epsilon={epsilon!r}" if epsilon is not None else f"epsilon_rel={epsilon_rel!r}"
    if epsilon is None:
        epsilon = epsilon_rel * trace
    # at or above the trace the loop selects no pivot: that is the
    # tolerance's fault, unless the kernel matrix is zero
    if 0 < trace <= epsilon:
        raise ValueError(f"tolerance {given} is at or above the kernel trace {trace!r}, so no pivot would be selected")
    factors = pivoted_cholesky(oracle, epsilon, strategy, omp_target=omp_target, max_rank=max_rank)
    if factors.rank == 0:
        raise NumericsError("decomposition selected no pivots; kernel matrix is numerically zero")
    return factors, zs, standardizer


def _reduce(lt_p: np.ndarray, lt_q: np.ndarray, prior: PriorSpec, p_star: np.ndarray, with_covariance: bool) -> tuple:
    """The Gram, the moment gap and, if asked, the covariance of two column blocks of L^T.

    ``lt_p`` and ``lt_q`` are m x n blocks of a factor's ``Lt``, with the
    same rows: the columns of n P points and of n Q points.  They are read
    and never written, so slices of ``Lt`` serve without a copy.
    ``p_star`` holds the prior at those P points; the prior zero reads none.
    Returns the Gram L_P^T L_P, the moment gap L_Q^T 1 - L_P^T p* (the
    ridge system's right-hand side) and, when ``with_covariance``, the
    plug-in covariance of the scaled gap n^{-1/2} (L_Q^T 1 - L_P^T p*) that
    the test reads, else None.  Each column enters on its own, so any two
    equal-sized sets of a factor's columns reduce the same way, and the
    blocks' first k rows, the factor of the first k pivots, give the leading
    k x k blocks of the Gram and the covariance and the first k entries of
    the gap.
    """
    # the P block of the covariance, (L_P^T diag(p*^2) L_P) / n less the
    # outer product of the mean, is the Gram for the prior one and vanishes
    # for the prior zero; only a custom prior forms it, through an m x n
    # temporary.  numpy forms lt_p lt_p^T with syrk, so the Gram is exactly
    # symmetric and its transpose is the same matrix in LAPACK's column
    # order: each ridge solve fills its workspace with a straight copy.  The
    # covariance's Q product is the same call, run beside it for a large Q
    # block; both write into m x m outputs allocated here, so the worker
    # allocates none
    m, n = lt_p.shape
    gram, qq = np.empty((m, m)), np.empty((m, m)) if with_covariance else None
    products = [(lt_p, lt_p.T, gram), (lt_q, lt_q.T, qq)][: 1 + with_covariance]
    if lt_q.size >= SIDE_BY_SIDE_MIN_ENTRIES:
        _side_by_side(np.matmul, products)
    else:
        for operands in products:
            np.matmul(*operands)
    gram = gram.T
    lq1 = lt_q @ np.ones(n)
    lpp = None if prior.kind == "zero" else lt_p @ p_star
    covariance = None
    if with_covariance:
        # sig = QQ / n - lq1 lq1^T / n^2 (+ G / n - lpp lpp^T / n^2), and
        # the covariance is 0.5 (sig + sig^T): each step in place, in the Q
        # product or in one m x m scratch, in that order, so the bits are
        # those of the expressions
        sig, tmp = np.divide(qq, n, out=qq), np.empty((m, m))
        sig -= np.divide(np.outer(lq1, lq1, out=tmp), n**2, out=tmp)
        if lpp is not None:
            sig += np.divide(gram if prior.kind == "one" else (lt_p * p_star**2) @ lt_p.T, n, out=tmp)
            sig -= np.divide(np.outer(lpp, lpp, out=tmp), n**2, out=tmp)
        covariance = np.multiply(np.add(sig, sig.T, out=tmp), 0.5, out=tmp)
    return gram, lq1 if lpp is None else lq1 - lpp, covariance


def _decompose(pts_p, pts_q, kernel: KernelSpec, prior, with_covariance: bool, **factoring) -> _Decomposition:
    """The lambda-independent part of a fit: :func:`_factor`, then :func:`_reduce`.

    ``pts_p`` and ``pts_q`` hold the same number of points, and
    ``factoring`` holds :func:`_factor`'s keywords.  The factor's P and Q
    column blocks go to :func:`_reduce` as slices, and the test covariance
    is formed only when ``with_covariance``.  ``prior`` defaults to the
    prior one.  The factor, m rows of 2n entries, is dropped on return, so
    no caller holds it past the reduction.
    """
    factors, zs, standardizer = _factor(pts_p, pts_q, kernel, **factoring)
    n, lt = pts_p.shape[0], factors.Lt
    prior = prior if prior is not None else PriorSpec.one()
    gram, moment_gap, covariance = _reduce(lt[:, :n], lt[:, n:], prior, prior.evaluate(pts_p), with_covariance)
    return _Decomposition(
        gram=gram,
        U=lt[:, factors.pivots],
        fields=dict(
            kernel=kernel,
            prior=prior,
            pivot_points=zs[factors.pivots],
            pivots=factors.pivots,
            moment_gap=moment_gap,
            covariance=covariance,
            n=n,
            epsilon=factors.epsilon,
            residual_trace=factors.residual_trace,
            kappa_inf=kernel_sup(kernel, zs),
            standardizer=standardizer,
            hit_rank_cap=factors.hit_rank_cap,
        ),
    )


def _solve(dec: _Decomposition, lam, spectrum: Optional[Future] = None) -> tuple[np.ndarray, np.ndarray]:
    """Weights w of the ridge system (G + n lam I) w = moment gap, and beta = R w.

    A number ``lam`` is one LU solve of the sum, formed in a copy of the Gram
    (``np.linalg.solve``).  An array of lambdas is a path: one
    eigendecomposition G = V diag(e) V^T serves it all, and column j of w,
    V diag(1 / (e + n lam_j)) V^T gap, solves the system at ``lam[j]``.  At
    m = 400 and one BLAS thread a path takes about 17 ms, 1.8 times LAPACK's
    tridiagonal route (dsytrd, then one dptsv per lambda), which numpy does
    not wrap: ``eigh`` keeps kdm on numpy alone; a single lambda stays on
    LU, which costs less than ``eigh``.  A path's ``spectrum``, when given,
    is a future of ``np.linalg.eigh`` of the Gram begun on another thread,
    and the decomposition need not hold the Gram; its result is awaited
    here.  beta comes from one triangular solve with the pivot block
    (:func:`_upper_solve`).  A failed factorization, a shifted eigenvalue
    that is not > 0 or a w that is not finite raises ``NumericsError``.
    Callers check ``lam``.
    """
    n, gap = dec.fields["n"], dec.fields["moment_gap"]
    try:
        if np.ndim(lam) == 0:
            # m x m SPD system; smallest eigenvalue >= n*lam, so no jitter is needed
            a = dec.gram.copy(order="F")
            a.flat[:: len(gap) + 1] += n * lam
            w = np.linalg.solve(a, gap)
        else:
            evals, vecs = np.linalg.eigh(dec.gram) if spectrum is None else spectrum.result()
            shifted = evals[:, None] + n * lam
            w = vecs @ ((vecs.T @ gap)[:, None] / shifted) if (shifted > 0).all() else None
    except np.linalg.LinAlgError:
        w = None
    if w is None or not np.isfinite(w).all():
        raise NumericsError("ridge system is not positive definite or not finite")
    return w, _upper_solve(dec.U, w)


def _check_tolerances(epsilon: Optional[float], epsilon_rel: float) -> None:
    """Reject a decomposition tolerance that is not a finite number >= 0."""
    for name, value in (("epsilon", epsilon), ("epsilon_rel", epsilon_rel)):
        if value is not None and not (value >= 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _check_lambdas(lambdas: Sequence[float]) -> None:
    """Reject any ridge parameter that is not a finite number > 0."""
    for lam in lambdas:
        if not (lam > 0 and math.isfinite(lam)):
            raise ValueError(f"lam must be > 0 and finite, got {lam!r}")


def _model(dec: _Decomposition, lam: float, seed: Optional[int] = None) -> KdmModel:
    """The fitted model of one lambda on a decomposition; ``seed`` is only recorded."""
    w, beta = _solve(dec, lam)
    return KdmModel(lam=float(lam), beta=beta, w=w, seed=seed, **dec.fields)


def fit(
    sample_p,
    sample_q,
    kernel: KernelSpec,
    lam: float,
    *,
    epsilon: Optional[float] = None,
    epsilon_rel: float = DEFAULT_EPSILON_REL,
    prior: Optional[PriorSpec] = None,
    strategy: str = "greedy",
    omp_target: Optional[np.ndarray] = None,
    max_rank: Optional[int] = None,
    standardize: bool = False,
    seed: Optional[int] = None,
) -> KdmModel:
    """Fit the low-rank density-ratio model dQ/dP ~ prior + h.

    ``sample_p`` and ``sample_q`` are the denominator and numerator samples.
    ``epsilon`` is the absolute decomposition tolerance; when omitted it
    defaults to ``epsilon_rel`` times the kernel trace of the stacked sample.
    ``strategy="omp"`` needs ``omp_target``, one finite value per input row,
    the P sample's rows first; when the sizes differ, the values of the rows
    cut from the larger sample are cut with them.  Both tolerances must be
    finite numbers >= 0, and the tolerance in force below the kernel trace
    of the stacked sample, else no pivot is selected.  The fit is deterministic: no randomness enters
    anywhere.
    ``seed`` is only recorded, as ``KdmModel.seed`` and in the saved bundle;
    no computation reads it yet (a randomized test calibration or pivot rule
    would draw from it).
    """
    _check_lambdas([lam])
    sp, sq = _as_dataset(sample_p), _as_dataset(sample_q)
    pts_p, pts_q = _common_size(sp, sq)
    if omp_target is not None:
        # one value per input row, P's first: keep those of the rows kept
        target = np.asarray(omp_target, dtype=np.float64)
        if target.shape != (sp.n + sq.n,):
            raise ValueError(f"omp_target needs one value per input row, {sp.n} + {sq.n}, got shape {target.shape}")
        omp_target = np.concatenate([target[: len(pts_p)], target[sp.n :][: len(pts_q)]])
    dec = _decompose(
        pts_p,
        pts_q,
        kernel,
        prior,
        with_covariance=True,
        epsilon=epsilon,
        epsilon_rel=epsilon_rel,
        strategy=strategy,
        omp_target=omp_target,
        max_rank=max_rank,
        standardize=standardize,
    )
    return _model(dec, lam, seed)


def eval_h(model: KdmModel, z) -> Union[float, np.ndarray]:
    """RKHS correction h at one point (a scalar or a vector) or a batch (2-d input)."""
    pts, single = _query_points(model.d, z)
    vals = cross_kernel_matrix(model.kernel, model.standardizer.apply(pts), model.pivot_points) @ model.beta
    return float(vals[0]) if single else vals


def eval_density_ratio(model: KdmModel, z) -> Union[float, np.ndarray]:
    """Estimated dQ/dP at z, unclipped: the estimate can be negative."""
    pts, single = _query_points(model.d, z)
    vals = model.prior.evaluate(pts) + eval_h(model, pts)
    return float(vals[0]) if single else vals


def h_norm(model: KdmModel) -> float:
    """RKHS norm of the fitted correction h, as ||w||_2.

    With beta = R w and R^T K[piv, piv] R = I (the biorthogonal identity),
    ||h||^2 = beta^T K[piv, piv] beta = w^T w, so no kernel entry is needed.
    """
    return float(np.linalg.norm(model.w))


def _quadratic_loss(hp: np.ndarray, hq: np.ndarray, pbar: np.ndarray) -> Union[float, np.ndarray]:
    """Out-of-sample quadratic loss from h at the P and Q points and the prior at the P points.

    The loss is -2 (mean_Q h - mean_P p h) + mean_P h^2, lower for a better
    ratio: both empirical sums are averaged over their own sample sizes,
    which does not move the argmin across models on common data.  ``hp`` and
    ``hq`` hold one model's values, (n,), or L models' values as columns,
    (n, L); the loss is a scalar or an (L,) array accordingly.
    """
    cross = hq.sum(axis=0) / hq.shape[0] - pbar @ hp / hp.shape[0]
    quad = (hp * hp).sum(axis=0) / hp.shape[0]
    return -2.0 * cross + quad


def _path_losses(
    dec: _Decomposition,
    va_p: np.ndarray,
    va_q: np.ndarray,
    lambdas: Sequence[float],
    spectrum: Optional[Future] = None,
) -> np.ndarray:
    """Validation loss of the ridge solution at each lambda on one decomposition.

    The betas of all lambdas come from one call of :func:`_solve` on the
    path, one eigendecomposition of the Gram (``spectrum``, when it was
    begun on another thread) and one triangular solve with the pivot
    block, and the validation points' kernel rows against
    the pivots and the prior at the validation P points are made once, so
    each lambda adds O(m^2) work: no model is built per lambda.  Each loss
    equals :func:`_quadratic_loss` of the model :func:`fit` returns to
    roundoff.
    """
    std, piv = dec.fields["standardizer"], dec.fields["pivot_points"]
    k_p, k_q = (cross_kernel_matrix(dec.fields["kernel"], std.apply(va), piv) for va in (va_p, va_q))
    # each distinct lambda is solved once, so equal lambdas tie exactly
    distinct, back = np.unique(np.asarray(lambdas, dtype=np.float64), return_inverse=True)
    beta = _solve(dec, distinct, spectrum)[1]
    return _quadratic_loss(k_p @ beta, k_q @ beta, dec.fields["prior"].evaluate(va_p))[back]


@dataclass
class CvResult:
    """Grid search outcome: the chosen kernel and lambda, and the mean losses.

    ``mean_losses[i, j]`` is the mean validation loss of ``kernels[i]`` at
    ``lambdas[j]``.
    """

    kernel: KernelSpec
    lam: float
    mean_losses: np.ndarray


def cross_validate(
    sample_p,
    sample_q,
    kernels: Sequence[KernelSpec],
    lambdas: Sequence[float],
    folds: int,
    *,
    epsilon_rel: float = DEFAULT_EPSILON_REL,
    prior: Optional[PriorSpec] = None,
    max_rank: Optional[int] = None,
    standardize: bool = False,
    seed: int = 0,
) -> CvResult:
    """K-fold selection of a kernel and a lambda by mean validation loss.

    Every kernel is scored at every lambda; ``mean_losses`` has shape
    (len(kernels), len(lambdas)).  Folds are drawn once from ``seed`` and
    shared across the whole grid, with the i-th fold of the P-sample paired
    with the i-th fold of the Q-sample.  Every lambda is checked before any
    fold is decomposed.  Decompositions, the validation points' kernel rows
    against the pivots and the prior at the validation P points are computed
    once per fold and kernel, and one :func:`_solve` of the whole lambda
    path, one eigendecomposition of the fold's m x m Gram, O(m^3), serves
    all the lambdas, which then cost O(m^2) each: grids dense in lambda cost
    little extra.  With a second worker (``lowrank.worker_count``), each
    fold's eigendecomposition runs on a thread of this call, ended before it
    returns, while the next fold is factored; the losses do not depend on
    the worker count.  Each loss equals
    :func:`_quadratic_loss` of a fresh fit on the training fold to roundoff.
    Ties resolve to the earliest kernel, then the earliest lambda.  Every fold
    is decomposed with the greedy rule at a tolerance relative to its own
    kernel trace.
    """
    pts_p, pts_q = _common_size(sample_p, sample_q)
    n = pts_p.shape[0]
    if folds < 2 or folds > n:
        raise ValueError(f"folds must lie in [2, {n}], got {folds}")
    if len(kernels) == 0 or len(lambdas) == 0:
        raise ValueError("empty grid")
    _check_lambdas(lambdas)
    rng = np.random.default_rng(seed)
    parts_p = np.array_split(rng.permutation(n), folds)
    parts_q = np.array_split(rng.permutation(n), folds)

    losses = np.zeros((len(kernels), len(lambdas), folds))

    def finish(row, dec, va_p, va_q, spectrum=None):
        row[:] = _path_losses(dec, va_p, va_q, lambdas, spectrum)

    # with a second worker, each fold's eigh (LAPACK, which releases the
    # GIL) runs on a thread of this call while this thread finishes the
    # previous fold's path and factors the next; the worker holds the only
    # reference to the Gram, so none outlives its eigendecomposition
    with ThreadPoolExecutor(1, thread_name_prefix="kdm-cv") if worker_count() > 1 else nullcontext() as pool:
        last = None
        for f in range(folds):
            tr_p = pts_p[np.concatenate(parts_p[:f] + parts_p[f + 1 :])]
            tr_q = pts_q[np.concatenate(parts_q[:f] + parts_q[f + 1 :])]
            va_p, va_q = pts_p[parts_p[f]], pts_q[parts_q[f]]
            for i, kern in enumerate(kernels):
                dec = _decompose(
                    tr_p,
                    tr_q,
                    kern,
                    prior,
                    with_covariance=False,
                    epsilon_rel=epsilon_rel,
                    max_rank=max_rank,
                    standardize=standardize,
                )
                path = (losses[i, :, f], dec, va_p, va_q)
                if pool is None:
                    finish(*path)
                    continue
                path += (pool.submit(np.linalg.eigh, dec.gram),)
                dec.gram = None
                if last is not None:
                    finish(*last)
                last = path
        if last is not None:
            finish(*last)

    mean_losses = losses.mean(axis=2)
    if not np.all(np.isfinite(mean_losses)):
        raise NumericsError("validation losses are not finite")
    i, j = np.unravel_index(np.argmin(mean_losses), mean_losses.shape)
    return CvResult(kernel=kernels[i], lam=float(lambdas[j]), mean_losses=mean_losses)


# ---------------------------------------------------------------------------
# model serialization: a deterministic binary container (no timestamps, fixed
# field order) so identical fits produce identical bytes

_MAGIC = b"KDM\x01"
_FORMAT = 2
# name -> (dtype, axes): "m" is the rank, len(pivots), and "d" the data
# dimension; no array grows with the training sample size n
_ARRAYS = {
    "pivot_points": ("f8", ("m", "d")),
    "pivots": ("i8", ("m",)),
    "beta": ("f8", ("m",)),
    "w": ("f8", ("m",)),
    "moment_gap": ("f8", ("m",)),
    "covariance": ("f8", ("m", "m")),
}
# header fields read as floats, each a finite JSON number, and whether it
# must be > 0 (else >= 0)
_HEADER_NUMBERS = {"lam": True, "epsilon": False, "residual_trace": False, "kappa_inf": True}


def save_model(model: KdmModel, path: str) -> None:
    """Write the model as a self-contained binary bundle of O(m^2 + md) bytes."""
    if model.prior.kind == "custom":
        raise ValueError("custom prior evaluators cannot be serialized; refit with zero/one prior")
    if model.covariance is None:
        raise ValueError("model carries no test covariance; fit it with fit() to save it")
    header = {
        "format": _FORMAT,
        "kernel": model.kernel.to_dict(),
        "lam": model.lam,
        "prior": {"kind": model.prior.kind, "pi_inf": model.prior.pi_inf},
        "n": model.n,
        "epsilon": model.epsilon,
        "residual_trace": model.residual_trace,
        "kappa_inf": model.kappa_inf,
        "kappa_empirical": model.kappa_empirical,
        "hit_rank_cap": model.hit_rank_cap,
        "seed": model.seed,
        "standardizer": {"mean": model.standardizer.mean.tolist(), "scale": model.standardizer.scale.tolist()},
        "arrays": [],
    }
    blobs = []
    for name, (dtype, _) in _ARRAYS.items():
        arr = np.ascontiguousarray(getattr(model, name), dtype=np.int64 if dtype == "i8" else np.float64)
        header["arrays"].append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for blob in blobs:
            fh.write(blob)


def _check_remaining(fh, size: int, count: int, path: str, what: str) -> None:
    remain = size - fh.tell()
    if count > remain:
        raise ValueError(f"{path}: truncated bundle: {what} needs {count} bytes, {remain} remain")


def _read_array(fh, size: int, meta, path: str) -> tuple[str, np.ndarray]:
    """One array of the bundle, checked against its declared name, dtype and shape; floats must be finite."""
    if not isinstance(meta, dict) or meta.get("name") not in _ARRAYS:
        raise ValueError(f"{path}: field 'arrays' has an entry that names no model array: {meta!r}")
    name = meta["name"]
    expected, axes = _ARRAYS[name]
    if meta.get("dtype") != expected:
        raise ValueError(f"{path}: array {name!r} has dtype {meta.get('dtype')!r}, expected {expected!r}")
    shape = meta.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) != len(axes)
        or not all(type(k) is int and k >= 0 for k in shape)
    ):
        raise ValueError(f"{path}: array {name!r} has invalid shape {shape!r}, expected {len(axes)} sizes")
    _check_remaining(fh, size, 8 * math.prod(shape), path, f"array {name!r} of shape {shape}")
    arr = np.empty(shape, dtype=np.int64 if expected == "i8" else np.float64)
    if arr.nbytes:
        fh.readinto(memoryview(arr).cast("B"))
    if expected == "f8" and not np.isfinite(arr).all():
        raise ValueError(f"{path}: array {name!r} holds a non-finite value")
    return name, arr


def _check_consistency(header: dict, arrays: dict, path: str) -> None:
    """The arrays against each other and against the header fields they share a size with."""
    m = arrays["pivots"].shape[0]
    for name, (_, axes) in _ARRAYS.items():
        shape = arrays[name].shape
        if any(axis == "m" and size != m for size, axis in zip(shape, axes)):
            raise ValueError(f"{path}: array {name!r} has shape {list(shape)}, but the rank is {m}")
    n = header.get("n")
    if type(n) is not int or n < 1:
        raise ValueError(f"{path}: field 'n' is {n!r}; expected an integer >= 1")


def load_model(path: str) -> KdmModel:
    """Read a bundle written by :func:`save_model`.

    Raises ValueError, naming the file and the offending field, when the
    magic, the format, an array's dtype or shape, the byte count, or the
    sizes the arrays and the header share differ from what
    :func:`save_model` writes, when a float array holds a value that is not
    finite, or when a header number is not finite or out
    of its range (``lam`` and ``kappa_inf`` > 0, ``epsilon`` and
    ``residual_trace`` >= 0, standardizer scales > 0).  Bundles of the older
    format 1, which stored n-row factor blocks, are rejected: refit the
    model to write format 2.  A
    format-2 bundle whose ``standardizer`` is null was fitted in raw
    coordinates and loads with the identity transform.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path} is not a model bundle")
        _check_remaining(fh, size, 8, path, "header length")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        _check_remaining(fh, size, hlen, path, "header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: header is not valid JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        if header.get("format") != _FORMAT:
            raise ValueError(
                f"{path}: field 'format' is {header.get('format')!r}; this version reads format {_FORMAT} "
                "only, so refit the model to write a new bundle"
            )
        metas = header.get("arrays")
        if not isinstance(metas, list):
            raise ValueError(f"{path}: field 'arrays' is missing or not a list")
        arrays = dict(_read_array(fh, size, meta, path) for meta in metas)
        if len(metas) != len(_ARRAYS) or len(arrays) != len(_ARRAYS):
            raise ValueError(f"{path}: field 'arrays' must list {', '.join(_ARRAYS)} once each")
        if fh.tell() != size:
            raise ValueError(f"{path}: {size - fh.tell()} trailing bytes after the last array")
    _check_consistency(header, arrays, path)
    try:
        return _model_from_bundle(header, arrays)
    except KeyError as exc:
        raise ValueError(f"{path}: header lacks field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _model_from_bundle(header: dict, arrays: dict) -> KdmModel:
    """The model a bundle's header and arrays describe; a ValueError names the field at fault."""
    prior = header["prior"]
    kind = prior.get("kind") if isinstance(prior, dict) else None
    if kind not in ("one", "zero"):
        raise ValueError(f"field 'prior' is {prior!r}; expected kind 'one' or 'zero'")
    hit_rank_cap = header["hit_rank_cap"]
    if type(hit_rank_cap) is not bool:
        raise ValueError(f"field 'hit_rank_cap' is {hit_rank_cap!r}; expected true or false")
    seed = header["seed"]
    if seed is not None and type(seed) is not int:
        raise ValueError(f"field 'seed' is {seed!r}; expected an integer or null")
    numbers = {}
    for name, positive in _HEADER_NUMBERS.items():
        value = _json_number(header[name], f"field {name!r}")
        if value < 0 or (positive and value == 0):
            raise ValueError(f"field {name!r} is {value!r}; expected a number {'>' if positive else '>='} 0")
        numbers[name] = value
    std, d = header["standardizer"], arrays["pivot_points"].shape[1]
    if std is None:
        std = {"mean": [0.0] * d, "scale": [1.0] * d}
    if not isinstance(std, dict) or [np.shape(std.get("mean")), np.shape(std.get("scale"))] != [(d,), (d,)]:
        raise ValueError(f"field 'standardizer' must hold a mean and a scale for each of the {d} columns")
    for key in ("mean", "scale"):
        for value in std[key]:
            _json_number(value, f"field 'standardizer' {key} entry")
    if min(std["scale"], default=1.0) <= 0:
        raise ValueError(f"field 'standardizer' has scale {std['scale']!r}; expected entries > 0")
    return KdmModel(
        kernel=KernelSpec.from_dict(header["kernel"]),
        prior=PriorSpec.one() if kind == "one" else PriorSpec.zero(),
        n=header["n"],
        standardizer=Standardizer(mean=np.asarray(std["mean"]), scale=np.asarray(std["scale"])),
        hit_rank_cap=hit_rank_cap,
        seed=seed,
        **numbers,
        **arrays,
    )
