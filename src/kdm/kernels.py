"""Kernel families and data containers shared by the estimators.

Three positive-definite families on R^d are supported.  ``gaussian`` and
``laplace`` are bounded with sup-norm exactly 1; the ``polynomial`` family is
unbounded, so its sup can only be reported empirically over a data set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

FAMILIES = ("gaussian", "laplace", "polynomial")


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of one kernel family.

    Parameters
    ----------
    family : str
        One of ``"gaussian"``, ``"laplace"``, ``"polynomial"``.
    rho : float
        Squared length scale for ``gaussian`` (k = exp(-|z-z'|^2 / (2 rho))),
        decay rate for ``laplace`` (k = exp(-rho |z-z'|)).  Ignored by the
        polynomial family.
    c : float
        Offset of the polynomial kernel k = (<z, z'> + c)^q.  Must be >= 0
        so the kernel stays positive semidefinite.
    q : int
        Degree of the polynomial kernel, >= 1.
    """

    family: str
    rho: float = 1.0
    c: float = 0.0
    q: int = 2

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian" and not self.rho > 0:
            raise ValueError("gaussian kernel needs rho > 0")
        if self.family == "laplace" and not self.rho > 0:
            raise ValueError("laplace kernel needs rho > 0")
        if self.family == "polynomial":
            if self.c < 0:
                raise ValueError("polynomial kernel needs c >= 0")
            if int(self.q) != self.q or self.q < 1:
                raise ValueError("polynomial kernel needs integer q >= 1")

    def to_dict(self) -> dict:
        return {"family": self.family, "rho": self.rho, "c": self.c, "q": self.q}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return cls(
            family=d["family"],
            rho=float(d.get("rho", 1.0)),
            c=float(d.get("c", 0.0)),
            q=int(d.get("q", 2)),
        )


@dataclass
class Dataset:
    """An n x d sample matrix."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a nonempty 2-d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain NaN or infinite entries")
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine transform z -> (z - mean) / scale."""

    mean: np.ndarray
    scale: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=np.float64) - self.mean) / self.scale

    @classmethod
    def from_points(cls, points: np.ndarray) -> "Standardizer":
        pts = np.asarray(points, dtype=np.float64)
        mean = pts.mean(axis=0)
        scale = pts.std(axis=0)
        # constant columns pass through unscaled rather than dividing by zero
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean=mean, scale=scale)


def _as_points(data: Union[Dataset, np.ndarray]) -> np.ndarray:
    pts = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def sq_norms(points: Union[Dataset, np.ndarray]) -> np.ndarray:
    """Squared Euclidean norm of each point, as the kernel formulas use it."""
    pts = _as_points(points)
    return np.sum(pts * pts, axis=1)


def _sq_dists(
    a: np.ndarray,
    b: np.ndarray,
    aa: Optional[np.ndarray] = None,
    bb: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    # expanded form with a clamp at zero so duplicate points never go negative
    aa = (sq_norms(a) if aa is None else aa)[:, None]
    bb = (sq_norms(b) if bb is None else bb)[None, :]
    # scaling the d-column operand with fewer points (such as the pivots of
    # a block of kernel rows), not the product, saves a full-size temporary;
    # doubling is exact, so the bits are those of 2 * (a @ b.T) whichever
    # operand is scaled, whenever both are one general matrix product (a is
    # not b); the sum, the subtraction and the clamp run in place on one
    # array, ``out`` when given
    d2 = np.add(aa, bb, out=out)
    d2 -= (2.0 * a) @ b.T if a.shape[0] < b.shape[0] else a @ (2.0 * b).T
    return np.maximum(d2, 0.0, out=d2)


def cross_kernel_matrix(
    spec: KernelSpec,
    rows: Union[Dataset, np.ndarray],
    cols: Union[Dataset, np.ndarray],
    *,
    row_sq_norms: Optional[np.ndarray] = None,
    col_sq_norms: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate k(z_i, z'_j) for every row point against every column point.

    ``row_sq_norms`` and ``col_sq_norms``, if given, must be
    ``sq_norms(rows)`` and ``sq_norms(cols)``; a caller that evaluates many
    blocks against the same points passes their norms to skip recomputing
    them.  ``out``, if given, is a float64 array of the
    result's shape that receives the entries and is returned.  The result is
    bitwise the same either way.
    """
    a = _as_points(rows)
    b = _as_points(cols)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if spec.family == "polynomial":
        k = np.add(a @ b.T, spec.c, out=out)
        k **= spec.q
        return k
    # exp(d2 / (-2 rho)) and exp(-rho sqrt(d2)), evaluated in place
    d2 = _sq_dists(a, b, row_sq_norms, col_sq_norms, out)
    if spec.family == "gaussian":
        d2 /= -2.0 * spec.rho
    else:
        np.sqrt(d2, out=d2)
        d2 *= -spec.rho
    return np.exp(d2, out=d2)


def eval_kernel(spec: KernelSpec, z1: np.ndarray, z2: np.ndarray) -> float:
    """Single kernel evaluation k(z1, z2)."""
    a = np.atleast_1d(np.asarray(z1, dtype=np.float64))
    b = np.atleast_1d(np.asarray(z2, dtype=np.float64))
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("z1 and z2 must be vectors of equal dimension")
    return float(cross_kernel_matrix(spec, a[None, :], b[None, :])[0, 0])


def kernel_diagonal(spec: KernelSpec, data: Union[Dataset, np.ndarray]) -> np.ndarray:
    """k(z_i, z_i) for each point, without forming the full matrix."""
    pts = _as_points(data)
    if spec.family in ("gaussian", "laplace"):
        return np.ones(pts.shape[0])
    return (sq_norms(pts) + spec.c) ** spec.q


def kernel_sup(spec: KernelSpec, data: Union[Dataset, np.ndarray, None] = None) -> float:
    """Upper bound kappa on sup_z k(z, z).

    Exact (= 1) for the bounded families.  The polynomial family is unbounded,
    so the value returned is the empirical max of k(z, z) over ``data`` and is
    only a surrogate; see :func:`kernel_sup_is_empirical`.
    """
    if spec.family in ("gaussian", "laplace"):
        return 1.0
    if data is None:
        raise ValueError("polynomial kernel sup requires data points")
    return float(np.max(kernel_diagonal(spec, data)))


def kernel_sup_is_empirical(spec: KernelSpec) -> bool:
    """True when kernel_sup is a data-dependent surrogate, not a true bound."""
    return spec.family == "polynomial"
