"""Chi-square test of a prior density-ratio guess against two samples.

Under the null dQ/dP = prior, the scaled moment-gap vector of a fitted model
is asymptotically Gaussian with a covariance estimated from the same
decomposition; the fit keeps both, as ``moment_gap`` and ``covariance``.
Summing squared standardized principal components gives a statistic with a
chi-square(ell) limit, where ell counts the eigenvalues kept by a truncation
rule.  Neither the vector nor the covariance depends on the ridge parameter,
so the test needs no lambda tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .estimator import KdmModel, h_norm

# eigenvalues below EIG_FLOOR_REL times the largest are treated as zero
EIG_FLOOR_REL = 1e-12
DEFAULT_TRUNCATION_T = 1e-9


def chi_square_upper_tail(x: float, dof: int) -> float:
    """P[chi2(dof) >= x], by the finite series for an integer dof.

    With y = x / 2 and dof = 2m + a, a in {0, 1}, the regularized upper
    incomplete gamma Q(dof / 2, y) is (Abramowitz & Stegun 26.4.4-5)

        Q = [a erfc(sqrt(y))] + sum_{j<m} exp(-y) y^(j + a/2) / Gamma(j + a/2 + 1),

    a sum of positive terms, each formed in the log domain so that none
    overflows, and added exactly (``math.fsum``).  O(dof) time.
    """
    if not (isinstance(dof, (int, np.integer)) and dof >= 1):
        raise ValueError(f"dof must be an integer >= 1, got {dof!r}")
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x!r}")
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    y, half = x / 2.0, (dof % 2) / 2.0
    logs = [(j + half) * math.log(y) - y - math.lgamma(j + half + 1.0) for j in range(dof // 2)]
    top = max(logs, default=0.0)
    tail = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    head = math.erfc(math.sqrt(y)) if half else 0.0
    return min(head + tail, 1.0)


@dataclass
class C_coefficients:
    """Finite-sample constants and the resulting norm threshold."""

    c_fs: float
    c_ae: float
    rhs: float


def finite_sample_bound(
    eta: float,
    lam: float,
    n: int,
    epsilon: float,
    kappa_inf: float,
    pi_inf: float,
) -> C_coefficients:
    """High-probability threshold on the fitted correction norm.

    With probability at least 1 - eta under the null (the prior is the true
    ratio, so the true correction is zero), the fitted h satisfies
    ||h||_H <= rhs.  ``epsilon`` is the absolute decomposition tolerance
    actually used.
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if lam <= 0 or n < 1 or epsilon < 0 or kappa_inf <= 0 or pi_inf < 0:
        raise ValueError("invalid bound parameters")
    c_fs = 2.0 * np.sqrt(2.0 * np.log(2.0 / eta) * kappa_inf) * (1.0 + pi_inf)
    c_ae = np.sqrt(epsilon) * (1.0 + np.sqrt(kappa_inf / lam)) * (pi_inf + 1.0)
    rhs = (c_fs + c_ae) / (lam * np.sqrt(n))
    return C_coefficients(c_fs=float(c_fs), c_ae=float(c_ae), rhs=float(rhs))


# the fields of the norm check, set only when run_test is given an eta
_NORM_CHECK = ("h_norm", "norm_bound", "bound_holds", "c_fs", "c_ae")


@dataclass
class TestResult:
    """Outcome of the chi-square ratio test."""

    statistic: float
    ell: int
    p_value: float
    truncation: str
    threshold: float
    n: int
    rank: int
    eigenvalues: np.ndarray = field(repr=False, default=None)
    residual_trace: float = 0.0
    hit_rank_cap: bool = False
    h_norm: Optional[float] = None
    norm_bound: Optional[float] = None
    bound_holds: Optional[bool] = None
    # the sampling and approximation terms of norm_bound
    c_fs: Optional[float] = None
    c_ae: Optional[float] = None

    def to_dict(self) -> dict:
        """The report's fields, without ``eigenvalues``, and without the norm check's when it was not run."""
        skip = {"eigenvalues"} if self.h_norm is not None else {"eigenvalues", *_NORM_CHECK}
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}


def _truncation_length(eig: np.ndarray, rule: str, t: float) -> int:
    if rule not in ("relative", "explained"):
        raise ValueError(f"unknown truncation rule {rule!r}")
    # past 1 no eigenvalue reaches t times the largest and no share of the
    # total reaches t, so either rule would keep none whatever the data
    if not 0 < t <= 1:
        raise ValueError(f"{rule} truncation needs a finite t > 0 and at most 1, got {t}")
    pos = eig[eig > 0]
    if pos.size == 0:
        return 0
    if rule == "relative":
        return int(np.sum(pos >= t * pos[0]))
    frac = np.cumsum(pos) / pos.sum()
    # the last fraction can round to just below 1, and t = 1 must still keep
    # only positive eigenvalues
    return min(int(np.searchsorted(frac, t) + 1), pos.size)


def run_test(
    model: KdmModel,
    truncation: str = "relative",
    t: float = DEFAULT_TRUNCATION_T,
    eta: Optional[float] = None,
) -> TestResult:
    """Test whether the model's prior already explains the two samples.

    Eigenvalues of the estimated covariance below EIG_FLOOR_REL times the
    largest are zeroed; the truncation rule then keeps ell leading components
    ("relative": eigenvalues >= t * largest; "explained": smallest count
    reaching a fraction t of the total), for t in (0, 1]; any other t
    raises ``ValueError``.  A degenerate covariance yields
    statistic 0 with p-value 1.  Passing ``eta`` additionally reports the
    finite-sample norm check at that confidence level, with the larger of the
    requested tolerance and the residual trace reached as its epsilon, and
    the bound's sampling and approximation terms ``c_fs`` and ``c_ae``.
    """
    if model.covariance is None:
        raise ValueError("model carries no test covariance; fit it with fit() to test it")
    # scaled moment gap n^{-1/2} (L_Q^T 1 - L_P^T p*), zero-mean under the null
    v = model.moment_gap / np.sqrt(model.n)
    eig, vec = np.linalg.eigh(model.covariance)
    eig, vec = eig[::-1].copy(), vec[:, ::-1]
    if eig.size and eig[0] > 0:
        eig[eig < EIG_FLOOR_REL * eig[0]] = 0.0
    else:
        eig = np.zeros_like(eig)

    ell = _truncation_length(eig, truncation, t)
    if ell == 0:
        stat, p = 0.0, 1.0
    else:
        proj = vec[:, :ell].T @ v
        stat = float(np.sum(proj**2 / eig[:ell]))
        p = chi_square_upper_tail(stat, ell)

    result = TestResult(
        statistic=stat,
        ell=ell,
        p_value=p,
        truncation=truncation,
        threshold=float(t),
        n=model.n,
        rank=model.rank,
        eigenvalues=eig,
        residual_trace=model.residual_trace,
        hit_rank_cap=model.hit_rank_cap,
    )
    if eta is not None:
        # a capped decomposition stops above its requested tolerance; the
        # bound must use the trace the factors actually reached
        eps_reached = max(model.epsilon, model.residual_trace)
        bound = finite_sample_bound(eta, model.lam, model.n, eps_reached, model.kappa_inf, model.prior.pi_inf)
        result.h_norm = h_norm(model)
        result.norm_bound = bound.rhs
        result.c_fs, result.c_ae = bound.c_fs, bound.c_ae
        result.bound_holds = bool(result.h_norm <= bound.rhs)
    return result
