"""Conditional distribution estimates from a joint sample.

A density-ratio model fitted between a decoupled sample (x and y taken from
different rows, approximating the product of marginals) and the paired sample
turns into conditional weights over a grid of candidate y values, from which
conditional expectations and moments follow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .estimator import DEFAULT_EPSILON_REL, KdmModel, PriorSpec, _check_lambdas, _decompose, _model, eval_density_ratio
from .kernels import Dataset, KernelSpec, _query_points, cross_kernel_matrix

SCHEMES = ("shifted", "three_split")
DEFAULT_GRID_CAP = 2000
# kernel entries per block when the ratio matrix cannot be factorised: 1 MB
# of float64; blocks of 8 MB ran about twice as slow, out of cache
_BLOCK_ENTRIES = 1 << 17


@dataclass
class JointDataset:
    """Paired sample of predictors x and outcomes y, one row per observation."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim == 1:
            y = y[:, None]
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] < 1:
            raise ValueError("x and y must be 2-d with the same number of rows")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("joint sample contains NaN or infinite entries")
        self.x, self.y = x, y

    @property
    def rows(self) -> int:
        return self.x.shape[0]

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    @property
    def d_y(self) -> int:
        return self.y.shape[1]


def split_joint_sample(joint: JointDataset, scheme: str = "shifted") -> tuple[Dataset, Dataset]:
    """Build the decoupled sample (P) and the paired sample (Q).

    "three_split" uses disjoint row blocks: x from odd rows and y from even
    rows of the first two thirds for P, the last third intact for Q; the row
    count must be divisible by 3 and both outputs have rows/3 points.
    "shifted" pairs each x with the next row's y (cyclically) for P and with
    its own y for Q, keeping all n rows; it needs n >= 2.
    """
    if scheme == "three_split":
        if joint.rows % 3 != 0:
            raise ValueError("three_split needs a row count divisible by 3")
        n = joint.rows // 3
        xp = joint.x[0 : 2 * n : 2]
        yp = joint.y[1 : 2 * n : 2]
        xq = joint.x[2 * n :]
        yq = joint.y[2 * n :]
    elif scheme == "shifted":
        if joint.rows < 2:
            raise ValueError("shifted scheme needs at least 2 rows")
        xp, yp = joint.x, np.roll(joint.y, -1, axis=0)
        xq, yq = joint.x, joint.y
    else:
        raise ValueError(f"unknown split scheme {scheme!r}")
    return Dataset(np.hstack([xp, yp])), Dataset(np.hstack([xq, yq]))


@dataclass
class ConditionalModel:
    """Density-ratio model on (x, y) pairs plus a candidate grid for y."""

    base: KdmModel
    y_grid: np.ndarray
    scheme: str

    @property
    def d_x(self) -> int:
        return self.base.d - self.y_grid.shape[1]

    @property
    def d_y(self) -> int:
        return self.y_grid.shape[1]


def _reservoir_indices(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    # Algorithm R; deterministic for a given generator state.  One call
    # draws j_t in [0, t] for every t = k..n-1, the draws of the scalar loop
    # in its order; item t replaces slot j_t < k, and the last such t wins,
    # which is the largest, since t only grows
    if n <= k:
        return np.arange(n)
    t = np.arange(k, n)
    j = rng.integers(0, t + 1)
    keep = j < k
    reservoir = np.arange(k)
    np.maximum.at(reservoir, j[keep], t[keep])
    return np.sort(reservoir)


def fit_conditional(
    joint: JointDataset,
    kernel: KernelSpec,
    lam: float,
    *,
    scheme: str = "shifted",
    prior: Optional[PriorSpec] = None,
    epsilon: Optional[float] = None,
    epsilon_rel: float = DEFAULT_EPSILON_REL,
    max_rank: Optional[int] = None,
    standardize: bool = False,
    grid_cap: int = DEFAULT_GRID_CAP,
    seed: int = 0,
) -> ConditionalModel:
    """Split the joint sample, fit the ratio model, and attach a y grid.

    The grid holds the sample's own y rows, subsampled down to
    min(n, grid_cap) entries when there are more; ``seed`` is the stream of
    that subsampling and of nothing else.  A model over another grid is
    ``ConditionalModel(base, y_grid, scheme)``.  The decomposition uses the
    greedy rule, on the two samples of the split, equal in size by
    construction.  The base model is the one :func:`fit` returns with no
    ``seed`` (its ``seed`` is None), except that it carries no test
    covariance (``covariance`` is None): no conditional estimate reads it.
    """
    _check_lambdas([lam])
    if grid_cap < 1:
        raise ValueError(f"grid_cap must be >= 1, got {grid_cap}")
    sample_p, sample_q = split_joint_sample(joint, scheme)
    idx = _reservoir_indices(joint.rows, min(sample_p.n, grid_cap), np.random.default_rng(seed))
    y_grid = joint.y[idx].copy()
    dec = _decompose(
        sample_p.points,
        sample_q.points,
        kernel,
        prior,
        with_covariance=False,
        epsilon=epsilon,
        epsilon_rel=epsilon_rel,
        max_rank=max_rank,
        standardize=standardize,
    )
    return ConditionalModel(base=_model(dec, lam), y_grid=y_grid, scheme=scheme)


def _ratio_matrix(cmodel: ConditionalModel, xs: np.ndarray) -> np.ndarray:
    """Estimated ratio at every (query, grid point) pair, as a (Q, G) array."""
    base, grid = cmodel.base, cmodel.y_grid
    d_x = cmodel.d_x
    if base.kernel.family == "gaussian" and base.prior.kind in ("zero", "one"):
        # k((x, y), (x', y')) = k_x(x, x') k_y(y, y') on the stacked
        # coordinates, also after the per-column input transform, so the
        # whole matrix is one product of an x block and a y block
        std = base.standardizer
        xs = (xs - std.mean[:d_x]) / std.scale[:d_x]
        grid = (grid - std.mean[d_x:]) / std.scale[d_x:]
        piv = base.pivot_points
        k_x = cross_kernel_matrix(base.kernel, xs, piv[:, :d_x])
        k_y = cross_kernel_matrix(base.kernel, grid, piv[:, d_x:])
        vals = (k_x * base.beta) @ k_y.T
        return vals + 1.0 if base.prior.kind == "one" else vals
    # other kernels and custom priors do not factorise: evaluate the ratio on
    # the stacked pairs, a bounded number of kernel entries at a time
    g = grid.shape[0]
    step = max(1, _BLOCK_ENTRIES // (g * base.rank))
    vals = np.empty((xs.shape[0], g))
    for start in range(0, xs.shape[0], step):
        block = xs[start : start + step]
        pairs = np.hstack([np.repeat(block, g, axis=0), np.tile(grid, (block.shape[0], 1))])
        vals[start : start + step] = eval_density_ratio(base, pairs).reshape(block.shape[0], g)
    return vals


def conditional_weights(
    cmodel: ConditionalModel,
    x: np.ndarray,
    return_degenerate: bool = False,
) -> Union[np.ndarray, tuple[np.ndarray, Union[bool, np.ndarray]]]:
    """Normalized nonnegative weights over the y grid at predictor value x.

    ``x`` is one query of shape (d_x,), giving weights of shape (G,), or a
    batch of shape (Q, d_x), giving one row of weights per query, (Q, G).
    Estimated ratio values at (x, y_i) are clipped at zero and normalized to
    sum to one.  A row whose values all clip away falls back to uniform
    weights; one RuntimeWarning per call says how many rows did, and the
    optional degenerate flag (a bool, or a bool array for a batch) marks them.
    """
    xs, single = _query_points(cmodel.d_x, x)
    vals = np.maximum(_ratio_matrix(cmodel, xs), 0.0)
    totals = vals.sum(axis=1)
    degenerate = ~(totals > 0)
    weights = vals / np.where(degenerate, 1.0, totals)[:, None]
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} of {xs.shape[0]} queries had all ratio values clipped to zero; "
            "using uniform weights for them",
            RuntimeWarning,
        )
        weights[degenerate] = 1.0 / weights.shape[1]
    if single:
        weights, degenerate = weights[0], bool(degenerate[0])
    return (weights, degenerate) if return_degenerate else weights


def conditional_expectation(cmodel: ConditionalModel, x: np.ndarray, f_values: np.ndarray) -> Union[float, np.ndarray]:
    """Weighted average of f over the y grid: estimates E[f(Y) | X = x].

    One x gives a float (or a vector for vector-valued f); a batch of Q rows
    gives one value (or vector) per row.
    """
    fv = np.asarray(f_values, dtype=np.float64)
    if fv.shape[0] != cmodel.y_grid.shape[0]:
        raise ValueError("f_values must have one entry per grid point")
    w = conditional_weights(cmodel, x)
    out = w @ fv
    return float(out) if out.ndim == 0 else out


def conditional_moments(
    cmodel: ConditionalModel,
    x: np.ndarray,
    return_degenerate: bool = False,
) -> Union[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, Union[bool, np.ndarray]]]:
    """Conditional mean vector and covariance matrix of Y given X = x.

    One x gives shapes (d_y,) and (d_y, d_y); a batch of Q rows gives
    (Q, d_y) and (Q, d_y, d_y).  With ``return_degenerate`` the flag of
    :func:`conditional_weights` comes third: set where the moments are those
    of the uniform fallback weights.
    """
    w, degenerate = conditional_weights(cmodel, x, return_degenerate=True)
    ws = np.atleast_2d(w)
    mean = ws @ cmodel.y_grid
    centered = cmodel.y_grid - mean[:, None, :]
    cov = np.swapaxes(centered * ws[:, :, None], 1, 2) @ centered
    if w.ndim == 1:
        mean, cov = mean[0], cov[0]
    return (mean, cov, degenerate) if return_degenerate else (mean, cov)
