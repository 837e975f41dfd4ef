"""Forecast evaluation: proper scoring rules and out-of-sample R-squared."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .kernels import _as_points, _query_points
from .lowrank import NumericsError

DS_JITTER_REL = 1e-8


@dataclass
class ForecastRecord:
    """One forecast: predicted mean and covariance plus the realized outcome."""

    mean: np.ndarray
    cov: np.ndarray
    realized: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        self.realized = np.atleast_1d(np.asarray(self.realized, dtype=np.float64))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=np.float64))
        d = self.mean.shape[0]
        if self.realized.shape != (d,) or self.cov.shape != (d, d):
            raise ValueError("mean, cov, realized have inconsistent dimensions")


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances ||b_j - a_i||, one (len(a), len(b)) array.

    The squared differences are summed one coordinate at a time, in order,
    so no (len(a), len(b), d) array is formed.
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(out)
    for k in range(a.shape[1]):
        np.subtract(b[None, :, k], a[:, k, None], out=diff)
        diff *= diff
        out += diff
    return np.sqrt(out, out=out)


def energy_score(y: np.ndarray, xs: np.ndarray, weights: Optional[np.ndarray] = None) -> Union[float, np.ndarray]:
    """Weighted-ensemble energy score of outcome y against candidates xs.

    (1/m) sum_i w_i ||y - x_i||  -  1/(2 m^2) sum_ij w_i w_j ||x_i - x_j||.
    Unit weights recover the plain Monte Carlo energy score; importance
    weights must be scaled so their mean is one to stay comparable.  A 2-d
    ``y`` holds Q outcomes, one per row, scored against the same candidates
    with one row of ``weights`` each (shape (Q, m)); the pairwise candidate
    distances are computed once and the Q scores are returned as an array.
    Unit weights (``weights`` omitted, or every entry exactly 1) are scored
    by two reductions of the distances, O(Qm + m^2), in place of the 2Qm^2
    flops of the product of weights and candidate distances; both spellings
    give the same bits.
    """
    pts = _as_points(xs)
    ys, single = _query_points(pts.shape[1], y)
    q, m = ys.shape[0], pts.shape[0]
    w = np.ones((q, m)) if weights is None else np.asarray(weights, dtype=np.float64)
    if single and weights is not None:
        w = w[None, :]
    if w.shape != (q, m):
        raise ValueError("weights must have one entry per candidate (and one row per outcome)")
    for name, arr in (("outcomes", ys), ("candidates", pts), ("weights", w)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contain NaN or infinite entries")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    unit = weights is None or bool((w == 1).all())
    scores = _energy_scores(None if unit else w, _distances(ys, pts), _distances(pts, pts))
    return float(scores[0]) if single else scores


def _energy_scores(w: Optional[np.ndarray], dist_y: np.ndarray, dist_xx: np.ndarray) -> np.ndarray:
    """Energy scores from weights (Q, m) and the distances of :func:`energy_score`.

    ``dist_y`` is ``_distances(ys, xs)`` (Q, m) and ``dist_xx`` is
    ``_distances(xs, xs)`` (m, m); a caller scoring the same outcomes and
    candidates under several weight sets computes them once.  ``w`` None
    means unit weights: every row of w @ dist_xx is then the same, so the
    misfit is a row sum of ``dist_y`` and the spread one scalar.
    """
    m = dist_xx.shape[0]
    if w is None:
        return dist_y.sum(axis=1) / m - dist_xx.sum() / (2.0 * m**2)
    misfit = np.sum(w * dist_y, axis=1) / m
    spread = np.sum((w @ dist_xx) * w, axis=1) / (2.0 * m**2)
    return misfit - spread


def energy_score_differential(baseline_scores: Sequence[float], method_scores: Sequence[float]) -> float:
    """Mean of (baseline - method) per-point scores; positive favors the method."""
    a = np.asarray(baseline_scores, dtype=np.float64)
    b = np.asarray(method_scores, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("score arrays must be nonempty and aligned")
    return float(np.mean(a - b))


def r2_oos(records: Sequence[ForecastRecord], baseline_means: Sequence[np.ndarray]) -> float:
    """One minus the squared-error ratio of the forecasts to a baseline mean."""
    if len(records) == 0 or len(records) != len(baseline_means):
        raise ValueError("records and baseline_means must be nonempty and aligned")
    num = sum(float(np.sum((r.realized - r.mean) ** 2)) for r in records)
    den = sum(
        float(np.sum((r.realized - np.atleast_1d(np.asarray(b, dtype=np.float64))) ** 2))
        for r, b in zip(records, baseline_means)
    )
    if den == 0:
        raise ValueError("baseline residuals are identically zero")
    return 1.0 - num / den


def _second_moment_residual(record: ForecastRecord) -> float:
    realized = np.outer(record.realized, record.realized)
    predicted = record.cov + np.outer(record.mean, record.mean)
    return float(np.sum((realized - predicted) ** 2))


def r2_second_moment(records: Sequence[ForecastRecord], baseline: Sequence[ForecastRecord]) -> float:
    """Same ratio comparison on the predicted second moment cov + mean mean^T."""
    if len(records) == 0 or len(records) != len(baseline):
        raise ValueError("records and baseline must be nonempty and aligned")
    num = sum(_second_moment_residual(r) for r in records)
    den = sum(_second_moment_residual(r) for r in baseline)
    if den == 0:
        raise ValueError("baseline residuals are identically zero")
    return 1.0 - num / den


def dawid_sebastiani(realized: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """log det(cov) + squared Mahalanobis distance of the realized outcome.

    Solved through a Cholesky factorization, never an explicit inverse.  A
    covariance that fails to factor gets one diagonal boost of relative size
    DS_JITTER_REL before the attempt is abandoned; one with a NaN or
    infinite entry is rejected before any attempt.
    """
    mu = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    yv = np.atleast_1d(np.asarray(realized, dtype=np.float64))
    sig = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    d = mu.shape[0]
    if yv.shape != (d,) or sig.shape != (d, d):
        raise ValueError("inconsistent dimensions")
    if not np.isfinite(sig).all():
        raise NumericsError("covariance has non-finite entries")
    sig = 0.5 * (sig + sig.T)
    boost = DS_JITTER_REL * float(np.trace(sig)) / d
    for attempt in range(2):
        try:
            chol = np.linalg.cholesky(sig if attempt == 0 else sig + boost * np.eye(d))
            break
        except np.linalg.LinAlgError:
            if attempt == 1 or not boost > 0:
                raise NumericsError("covariance is not positive definite")
    resid = np.linalg.solve(chol, yv - mu)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return logdet + float(resid @ resid)


def excess_scoring_loss(records: Sequence[ForecastRecord], baseline: Sequence[ForecastRecord]) -> float:
    """Mean Dawid-Sebastiani score gap, baseline minus method; positive favors the method."""
    if len(records) == 0 or len(records) != len(baseline):
        raise ValueError("records and baseline must be nonempty and aligned")
    gaps = [
        dawid_sebastiani(b.realized, b.mean, b.cov) - dawid_sebastiani(r.realized, r.mean, r.cov)
        for r, b in zip(records, baseline)
    ]
    return float(np.mean(gaps))
