"""Kernel families and data containers shared by the estimators.

Three positive-definite families on R^d are supported.  ``gaussian`` and
``laplace`` are bounded with sup-norm exactly 1; the ``polynomial`` family is
unbounded, so its sup can only be reported empirically over a data set.
"""

from __future__ import annotations

import math
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
        polynomial family, but must be finite like every parameter.
    c : float
        Offset of the polynomial kernel k = (<z, z'> + c)^q.  Must be finite
        and >= 0 so the kernel stays positive semidefinite.
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
        if not (math.isfinite(self.rho) and math.isfinite(self.c)):
            raise ValueError(f"kernel parameters must be finite, got rho={self.rho!r}, c={self.c!r}")
        if self.family != "polynomial" and not self.rho > 0:
            raise ValueError(f"{self.family} kernel needs rho > 0")
        if self.family == "polynomial":
            if self.c < 0:
                raise ValueError("polynomial kernel needs c >= 0")
            if int(self.q) != self.q or self.q < 1:
                raise ValueError("polynomial kernel needs integer q >= 1")

    def to_dict(self) -> dict:
        return {"family": self.family, "rho": self.rho, "c": self.c, "q": self.q}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        """The spec :meth:`to_dict` wrote.

        A ``d`` that is not a JSON object, a degree ``q`` that is not
        integral, or a ``rho`` or ``c`` that is not a JSON number, is refused
        with a ValueError naming the field.
        """
        if not isinstance(d, dict):
            raise ValueError(f"field 'kernel' is {d!r}; expected a JSON object")
        q = d.get("q", 2)
        if type(q) not in (int, float) or q % 1:
            raise ValueError(f"kernel field 'q' is {q!r}; expected an integer")
        return cls(
            family=d["family"],
            rho=_json_number(d.get("rho", 1.0), "kernel field 'rho'"),
            c=_json_number(d.get("c", 0.0), "kernel field 'c'"),
            q=int(q),
        )


def _json_number(value, name: str) -> float:
    """``value`` as a float if it is a finite JSON number; a ValueError naming ``name`` otherwise.

    A string or a boolean is refused, not coerced, and so are the ``NaN``
    and ``Infinity`` that Python's ``json`` reads as floats.
    """
    if type(value) not in (int, float):
        raise ValueError(f"{name} is {value!r}; expected a number")
    if not math.isfinite(value):
        raise ValueError(f"{name} is {value!r}; expected a finite number")
    return float(value)


@dataclass
class Dataset:
    """An n x d sample matrix."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = _as_points(self.points)
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


def _query_points(d: int, z) -> tuple[np.ndarray, bool]:
    """Query points of dimension ``d`` as a (Q, d) array, and whether ``z`` was one point.

    A scalar or a vector is one point and a 2-d array a batch of rows; any
    other shape, or a width other than ``d``, is refused with a ValueError.
    """
    arr = np.asarray(z, dtype=np.float64)
    single = arr.ndim <= 1
    pts = np.atleast_1d(arr)[None, :] if single else arr
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"queries must be points of dimension {d}, one or a batch of rows; got shape {arr.shape}")
    return pts, single


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
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    # expanded form with a clamp at zero so duplicate points never go negative
    aa = (sq_norms(a) if aa is None else aa)[:, None]
    bb = (sq_norms(b) if bb is None else bb)[None, :]
    # scaling the d-column operand with fewer points (such as the pivots of
    # a block of kernel rows), not the product, saves a full-size temporary;
    # doubling is exact, so the bits are those of 2 * (a @ b.T) whichever
    # operand is scaled, whenever both are one general matrix product (a is
    # not b) of the same shape: the BLAS may round an entry otherwise in a
    # product of other shape.  The product goes into ``scratch`` when given
    # (the same BLAS call, so the same bits), and the sum, the subtraction
    # and the clamp run in place on one array, ``out`` when given
    d2 = np.add(aa, bb, out=out)
    if a.shape[0] < b.shape[0]:
        d2 -= np.matmul(2.0 * a, b.T, out=scratch)
    else:
        d2 -= np.matmul(a, (2.0 * b).T, out=scratch)
    return np.maximum(d2, 0.0, out=d2)


def cross_kernel_matrix(
    spec: KernelSpec,
    rows: Union[Dataset, np.ndarray],
    cols: Union[Dataset, np.ndarray],
) -> np.ndarray:
    """Evaluate k(z_i, z'_j) for every row point against every column point."""
    a = _as_points(rows)
    b = _as_points(cols)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return _kernel_block(spec, a, b)


def _kernel_block(
    spec: KernelSpec,
    a: np.ndarray,
    b: np.ndarray,
    aa: Optional[np.ndarray] = None,
    bb: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`cross_kernel_matrix` of the 2-d point arrays ``a`` and ``b`` of one dimension.

    ``aa`` and ``bb``, if given, must be ``sq_norms(a)`` and ``sq_norms(b)``;
    a caller that evaluates many blocks against the same points passes their
    norms to skip recomputing them.  ``out``, if given, is a float64 array of
    the result's shape that receives the entries and is returned.
    ``scratch``, if given, is a float64 array of the result's shape that
    receives the cross products a b^T, so that no array of the result's size
    is allocated when ``out`` is given too; its entries are left undefined.
    The result is bitwise the same either way.
    """
    if spec.family == "polynomial":
        k = np.add(np.matmul(a, b.T, out=scratch), spec.c, out=out)
        k **= spec.q
        return k
    # exp(d2 / (-2 rho)) and exp(-rho sqrt(d2)), evaluated in place
    d2 = _sq_dists(a, b, aa, bb, out, scratch)
    if spec.family == "gaussian":
        d2 /= -2.0 * spec.rho
    else:
        np.sqrt(d2, out=d2)
        d2 *= -spec.rho
    return np.exp(d2, out=d2)


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
