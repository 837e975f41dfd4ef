"""Regularized density-ratio estimation between two samples.

The ratio dQ/dP is modeled as a fixed prior guess plus an RKHS correction h.
Fitting solves a ridge system in the span of the pivot columns selected by the
incomplete Cholesky decomposition, so the linear algebra stays m x m even when
the stacked sample holds thousands of points.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .kernels import (
    Dataset,
    KernelSpec,
    Standardizer,
    cross_kernel_matrix,
    kernel_sup,
    kernel_sup_is_empirical,
)
from .lowrank import KernelOracle, NumericsError, pivoted_cholesky

DEFAULT_EPSILON_REL = 1e-6


@dataclass(frozen=True)
class PriorSpec:
    """Prior guess for the density ratio with a declared sup bound.

    ``pi_inf`` bounds sup |p(z)|; for a custom evaluator it is taken on trust
    and only checked lazily against the values actually requested.
    """

    kind: str
    pi_inf: float
    func: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False)

    @classmethod
    def zero(cls) -> "PriorSpec":
        return cls(kind="zero", pi_inf=0.0)

    @classmethod
    def one(cls) -> "PriorSpec":
        return cls(kind="one", pi_inf=1.0)

    @classmethod
    def custom(cls, func: Callable[[np.ndarray], np.ndarray], pi_inf: float) -> "PriorSpec":
        if pi_inf < 0:
            raise ValueError("pi_inf must be >= 0")
        return cls(kind="custom", pi_inf=float(pi_inf), func=func)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if self.kind == "zero":
            return np.zeros(pts.shape[0])
        if self.kind == "one":
            return np.ones(pts.shape[0])
        if self.kind != "custom" or self.func is None:
            raise ValueError(f"malformed prior {self.kind!r}")
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
    kappa_empirical: bool
    standardizer: Standardizer
    hit_rank_cap: bool = False
    seed: Optional[int] = None

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

    ``gram`` (L_P^T L_P) and ``R`` are m x m and ``fields`` holds the
    lambda-independent fields of the model: no array has a row per training
    point.  Every solve shares ``gram``, so it must not be modified.  The
    fold decompositions of :func:`cross_validate` and the decomposition of a
    conditional fit leave ``covariance`` None: no consumer of theirs reads it.
    """

    gram: np.ndarray
    R: np.ndarray
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


def _decompose(
    sample_p,
    sample_q,
    kernel: KernelSpec,
    *,
    epsilon: Optional[float] = None,
    epsilon_rel: float = DEFAULT_EPSILON_REL,
    prior: Optional[PriorSpec] = None,
    strategy: str = "greedy",
    omp_target: Optional[np.ndarray] = None,
    max_rank: Optional[int] = None,
    standardize: bool = False,
    seed: Optional[int] = None,
    _covariance: bool = True,
) -> _Decomposition:
    pts_p, pts_q = _common_size(sample_p, sample_q)
    n = pts_p.shape[0]
    prior = prior if prior is not None else PriorSpec.one()

    stacked = np.vstack([pts_p, pts_q])
    standardizer = _input_transform(kernel, stacked, standardize)
    zs = standardizer.apply(stacked)

    oracle = KernelOracle(kernel, zs)
    if epsilon is None:
        epsilon = epsilon_rel * float(oracle.diagonal().sum())
    factors = pivoted_cholesky(oracle, epsilon, strategy, omp_target=omp_target, max_rank=max_rank)
    if factors.rank == 0:
        raise NumericsError("decomposition selected no pivots; kernel matrix is numerically zero")

    # reduce the m x n row blocks of L^T to lambda-independent statistics:
    # the Gram and the moment gap of the ridge system, and the plug-in
    # covariance of the scaled gap n^{-1/2} (L_Q^T 1 - L_P^T p*) that the
    # test reads.  The P block of the covariance, (L_P^T diag(p*^2) L_P) / n
    # less the outer product of the mean, is the Gram for the prior one and
    # vanishes for the prior zero; only a custom prior forms it, through an
    # m x n temporary.
    lt_p, lt_q = factors.Lt[:, :n], factors.Lt[:, n:]
    # numpy forms lt_p lt_p^T with syrk, so the Gram is exactly symmetric
    # and its transpose is the same matrix in LAPACK's column order: each
    # ridge solve fills its workspace with a straight copy
    gram = (lt_p @ lt_p.T).T
    lq1 = lt_q @ np.ones(n)
    p_star = None if prior.kind == "zero" else prior.evaluate(pts_p)
    lpp = None if p_star is None else lt_p @ p_star
    covariance = None
    if _covariance:
        sig = lt_q @ lt_q.T / n - np.outer(lq1, lq1) / n**2
        if p_star is not None:
            sig += (gram if prior.kind == "one" else (lt_p * p_star**2) @ lt_p.T) / n
            sig -= np.outer(lpp, lpp) / n**2
        covariance = 0.5 * (sig + sig.T)
    return _Decomposition(
        gram=gram,
        R=factors.R,
        fields=dict(
            kernel=kernel,
            prior=prior,
            pivot_points=zs[factors.pivots],
            pivots=factors.pivots,
            moment_gap=lq1 if lpp is None else lq1 - lpp,
            covariance=covariance,
            n=n,
            epsilon=factors.epsilon,
            residual_trace=factors.residual_trace,
            kappa_inf=kernel_sup(kernel, zs),
            kappa_empirical=kernel_sup_is_empirical(kernel),
            standardizer=standardizer,
            hit_rank_cap=factors.hit_rank_cap,
            seed=seed,
        ),
    )


def _solve(dec: _Decomposition, lam: float, a: np.ndarray) -> np.ndarray:
    """Weights w of the ridge system (G + n lam I) w = moment gap.

    ``a`` is an m x m workspace in LAPACK's column order, the order the
    Gram is stored in: the sum is formed in it and the factor overwrites
    it, so the cached Gram serves every lambda of a path and one workspace
    serves all of them.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    n, m = dec.fields["n"], len(dec.fields["pivots"])
    # m x m SPD system; smallest eigenvalue >= n*lam, so no jitter is needed
    np.copyto(a, dec.gram)
    a.flat[:: m + 1] += n * lam
    c, info = dpotrf(a, lower=1, overwrite_a=1, clean=0)
    if info == 0:
        w, info = dpotrs(c, dec.fields["moment_gap"], lower=1)
    # OpenBLAS's dpotrf passes a NaN pivot without a nonzero info, so a
    # non-finite system shows only in w
    if info != 0 or not np.isfinite(w).all():
        raise NumericsError(f"ridge system is not positive definite or not finite (LAPACK info {info})")
    return w


def _model(dec: _Decomposition, lam: float) -> KdmModel:
    """The fitted model of one lambda on a decomposition."""
    m = len(dec.fields["pivots"])
    w = _solve(dec, lam, np.empty((m, m), order="F"))
    return KdmModel(lam=float(lam), beta=dec.R @ w, w=w, **dec.fields)


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
    ``strategy="omp"`` needs ``omp_target``, one value per stacked point
    (the P sample's rows first).  The fit is deterministic: no randomness
    enters anywhere.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    dec = _decompose(
        sample_p,
        sample_q,
        kernel,
        epsilon=epsilon,
        epsilon_rel=epsilon_rel,
        prior=prior,
        strategy=strategy,
        omp_target=omp_target,
        max_rank=max_rank,
        standardize=standardize,
        seed=seed,
    )
    return _model(dec, lam)


def _query_points(d: int, z) -> tuple[np.ndarray, bool]:
    pts = np.asarray(z, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[1] != d:
        raise ValueError(f"query dimension {pts.shape[1]} != model dimension {d}")
    return pts, single


def eval_h(model: KdmModel, z) -> Union[float, np.ndarray]:
    """RKHS correction h at one point (1-d input) or a batch (2-d input)."""
    pts, single = _query_points(model.d, z)
    vals = cross_kernel_matrix(model.kernel, model.standardizer.apply(pts), model.pivot_points) @ model.beta
    return float(vals[0]) if single else vals


def eval_density_ratio(model: KdmModel, z, clip: bool = False) -> Union[float, np.ndarray]:
    """Estimated dQ/dP at z; ``clip`` truncates negatives at zero."""
    pts, single = _query_points(model.d, z)
    vals = model.prior.evaluate(pts) + eval_h(model, pts)
    if clip:
        vals = np.maximum(vals, 0.0)
    return float(vals[0]) if single else vals


def h_norm(model: KdmModel) -> float:
    """RKHS norm of the fitted correction h, as ||w||_2.

    With beta = R w and R^T K[piv, piv] R = I (the biorthogonal identity),
    ||h||^2 = beta^T K[piv, piv] beta = w^T w, so no kernel entry is needed.
    """
    return float(np.linalg.norm(model.w))


def validation_loss(model: KdmModel, val_p, val_q) -> float:
    """Out-of-sample quadratic loss of the fitted ratio (lower is better).

    Both empirical sums are averaged over their validation sample sizes; the
    normalization does not move the argmin across models on common data.
    """
    vp, vq = _as_dataset(val_p), _as_dataset(val_q)
    if vp.d != model.d or vq.d != model.d:
        raise ValueError("validation sample dimension differs from model")
    return _quadratic_loss(eval_h(model, vp.points), eval_h(model, vq.points), model.prior.evaluate(vp.points))


def _quadratic_loss(hp: np.ndarray, hq: np.ndarray, pbar: np.ndarray) -> float:
    """Validation loss from h at the P and Q points and the prior at the P points."""
    cross = float(hq.sum()) / hq.shape[0] - float(pbar @ hp) / hp.shape[0]
    quad = float(hp @ hp) / hp.shape[0]
    return -2.0 * cross + quad


def _path_losses(dec: _Decomposition, va_p: np.ndarray, va_q: np.ndarray, lambdas: list) -> list:
    """Validation loss of the solve at each lambda on one decomposition.

    The validation points' kernel rows against the pivots, the prior at the
    validation P points and the solve's workspace do not depend on lambda,
    so they are made once; no model is built per lambda, and each loss still
    equals :func:`validation_loss` of the model :func:`fit` returns.
    """
    std, piv = dec.fields["standardizer"], dec.fields["pivot_points"]
    k_p, k_q = (cross_kernel_matrix(dec.fields["kernel"], std.apply(va), piv) for va in (va_p, va_q))
    pbar = dec.fields["prior"].evaluate(va_p)
    a = np.empty((piv.shape[0],) * 2, order="F")
    losses = []
    for lam in lambdas:
        beta = dec.R @ _solve(dec, lam, a)
        losses.append(_quadratic_loss(k_p @ beta, k_q @ beta, pbar))
    return losses


@dataclass
class CvResult:
    """Grid search outcome: chosen entry plus the per-entry mean losses."""

    kernel: KernelSpec
    lam: float
    mean_losses: np.ndarray
    grid: list


def grid_product(kernels: Sequence[KernelSpec], lambdas: Sequence[float]) -> list:
    """All (kernel, lambda) pairs, kernels outermost, in stable order."""
    return [(k, float(l)) for k in kernels for l in lambdas]


def cross_validate(
    sample_p,
    sample_q,
    grid: Sequence,
    folds: int,
    *,
    epsilon_rel: float = DEFAULT_EPSILON_REL,
    prior: Optional[PriorSpec] = None,
    max_rank: Optional[int] = None,
    standardize: bool = False,
    seed: int = 0,
) -> CvResult:
    """K-fold selection of (kernel, lambda) by mean validation loss.

    Folds are drawn once from ``seed`` and shared across the whole grid, with
    the i-th fold of the P-sample paired with the i-th fold of the Q-sample.
    Decompositions, the validation points' kernel rows against the pivots and
    the prior at the validation P points are computed once per fold and
    kernel and reused across lambda values, so grids dense in lambda cost
    little extra.  Each loss equals :func:`validation_loss` of a fresh fit
    on the training fold.  Ties resolve to the earliest grid entry.  Every
    fold is decomposed with the greedy rule at a tolerance relative to its
    own kernel trace.
    """
    pts_p, pts_q = _common_size(sample_p, sample_q)
    n = pts_p.shape[0]
    if folds < 2 or folds > n:
        raise ValueError("folds must lie in [2, n]")
    if len(grid) == 0:
        raise ValueError("empty grid")
    rng = np.random.default_rng(seed)
    chunks_p = np.array_split(rng.permutation(n), folds)
    chunks_q = np.array_split(rng.permutation(n), folds)

    kernels_in_order: list[KernelSpec] = []
    for k, _ in grid:
        if k not in kernels_in_order:
            kernels_in_order.append(k)

    losses = np.zeros((len(grid), folds))
    for f in range(folds):
        val_p_idx, val_q_idx = chunks_p[f], chunks_q[f]
        tr_p_idx = np.concatenate([chunks_p[j] for j in range(folds) if j != f])
        tr_q_idx = np.concatenate([chunks_q[j] for j in range(folds) if j != f])
        tr_p, tr_q = pts_p[tr_p_idx], pts_q[tr_q_idx]
        va_p, va_q = pts_p[val_p_idx], pts_q[val_q_idx]
        for kern in kernels_in_order:
            dec = _decompose(
                tr_p,
                tr_q,
                kern,
                epsilon_rel=epsilon_rel,
                prior=prior,
                max_rank=max_rank,
                standardize=standardize,
                _covariance=False,
            )
            rows = [g for g, (gk, _) in enumerate(grid) if gk == kern]
            losses[rows, f] = _path_losses(dec, va_p, va_q, [grid[g][1] for g in rows])

    mean_losses = losses.mean(axis=1)
    if not np.all(np.isfinite(mean_losses)):
        raise NumericsError("validation losses are not finite")
    best = int(np.argmin(mean_losses))
    return CvResult(kernel=grid[best][0], lam=grid[best][1], mean_losses=mean_losses, grid=list(grid))


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
    """One array of the bundle, checked against its declared name, dtype and shape."""
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
    return name, arr


def _check_consistency(header: dict, arrays: dict, path: str) -> None:
    """The arrays against each other and against the header fields they share a size with."""
    m = arrays["pivots"].shape[0]
    for name, (_, axes) in _ARRAYS.items():
        shape = arrays[name].shape
        if any(axis == "m" and size != m for size, axis in zip(shape, axes)):
            raise ValueError(f"{path}: array {name!r} has shape {list(shape)}, but the rank is {m}")
    std, d = header.get("standardizer"), arrays["pivot_points"].shape[1]
    if std is not None and (
        not isinstance(std, dict) or [np.shape(std.get("mean")), np.shape(std.get("scale"))] != [(d,), (d,)]
    ):
        raise ValueError(f"{path}: field 'standardizer' must hold a mean and a scale for each of the {d} columns")
    n = header.get("n")
    if type(n) is not int or n < 1:
        raise ValueError(f"{path}: field 'n' is {n!r}; expected an integer >= 1")


def load_model(path: str) -> KdmModel:
    """Read a bundle written by :func:`save_model`.

    Raises ValueError, naming the file and the offending field, when the
    magic, the format, an array's dtype or shape, the byte count, or the
    sizes the arrays and the header share differ from what
    :func:`save_model` writes.  Bundles of the older format 1, which stored
    n-row factor blocks, are rejected: refit the model to write format 2.  A
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


def _model_from_bundle(header: dict, arrays: dict) -> KdmModel:
    prior = PriorSpec.one() if header["prior"]["kind"] == "one" else PriorSpec.zero()
    std, d = header["standardizer"], arrays["pivot_points"].shape[1]
    if std is None:
        std = {"mean": [0.0] * d, "scale": [1.0] * d}
    return KdmModel(
        kernel=KernelSpec.from_dict(header["kernel"]),
        lam=float(header["lam"]),
        prior=prior,
        n=header["n"],
        epsilon=float(header["epsilon"]),
        residual_trace=float(header["residual_trace"]),
        kappa_inf=float(header["kappa_inf"]),
        kappa_empirical=bool(header["kappa_empirical"]),
        standardizer=Standardizer(mean=np.asarray(std["mean"]), scale=np.asarray(std["scale"])),
        hit_rank_cap=bool(header["hit_rank_cap"]),
        seed=header["seed"],
        **arrays,
    )
