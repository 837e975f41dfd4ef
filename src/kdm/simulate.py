"""Synthetic joint distributions for calibration and power studies.

Every sampler takes an explicit seed (or an already-constructed generator)
and draws its variates in a fixed documented order, so outputs are
bit-reproducible across runs and platforms with the same numpy stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .conditional import JointDataset

DISTRIBUTIONS = (
    "independent_clouds",
    "w",
    "diamond",
    "parabola",
    "two_parabola",
    "circle",
    "variance",
    "log",
)

DEFAULT_C = {
    "independent_clouds": None,
    "w": 1.0,
    "diamond": 0.5,
    "parabola": 1.0,
    "two_parabola": 1.0,
    "circle": 4.2,
    "variance": 1.0,
    "log": 1.0,
}

# each coordinate of a mixture cluster mean is uniform on [-MEAN_RANGE, MEAN_RANGE]
MEAN_RANGE = 0.2

SeedLike = Union[int, np.random.Generator]


def _as_rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _signs(rng: np.random.Generator, n: int) -> np.ndarray:
    return 2.0 * rng.integers(0, 2, n) - 1.0


def sample_distribution(name: str, n: int, seed: SeedLike, c: Optional[float] = None) -> JointDataset:
    """Draw n rows of the named bivariate distribution.

    ``c`` is the dependence strength; omitted it takes the distribution's
    default.  Draw order per distribution (vectorized, one call each):

    * independent_clouds: x-sign, y-sign, x-noise, y-noise
    * w / parabola:       x, noise
    * two_parabola:       x, noise, branch sign
    * diamond:            u, v, mix uniform, fresh u, fresh v
    * circle:             u, x-noise, y-noise
    * variance / log:     x, noise
    """
    if name not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {name!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if c is not None and not np.isfinite(c):
        raise ValueError(f"c must be a finite number, got {c!r}")
    if c is None:
        c = DEFAULT_C[name]
    rng = _as_rng(seed)

    if name == "independent_clouds":
        x0 = _signs(rng, n)
        y0 = _signs(rng, n)
        x = x0 + rng.standard_normal(n)
        y = y0 + rng.standard_normal(n)
    elif name == "w":
        x = rng.uniform(-1.0, 1.0, n)
        y = c * (x**2 - 0.5) ** 2 + rng.uniform(0.0, 1.0, n)
    elif name == "diamond":
        if not 0.0 <= c <= 1.0:
            raise ValueError("diamond needs c in [0, 1]")
        u = rng.uniform(-1.0, 1.0, n)
        v = rng.uniform(-1.0, 1.0, n)
        mix = rng.uniform(0.0, 1.0, n)
        u2 = rng.uniform(-1.0, 1.0, n)
        v2 = rng.uniform(-1.0, 1.0, n)
        r = np.cos(np.pi / 4.0)
        take = mix < c
        x = np.where(take, u * r + v * r, u2)
        y = np.where(take, -u * r + v * r, v2)
    elif name == "parabola":
        x = rng.uniform(-1.0, 1.0, n)
        y = c * x**2 + rng.uniform(0.0, 1.0, n)
    elif name == "two_parabola":
        x = rng.uniform(-1.0, 1.0, n)
        e = rng.uniform(0.0, 1.0, n)
        y = (c * x**2 + e) * _signs(rng, n)
    elif name == "circle":
        u = rng.uniform(-1.0, 1.0, n)
        x = c * np.sin(2.0 * np.pi * u) + rng.standard_normal(n)
        y = 4.2 * np.cos(2.0 * np.pi * u) + rng.standard_normal(n)
    elif name == "variance":
        x = rng.standard_normal(n)
        y = rng.standard_normal(n) * np.sqrt(c * x**2 + 1.0)
    else:  # log
        x = rng.standard_normal(n)
        # an exactly-zero draw has measure zero but would produce -inf
        x = np.where(x == 0.0, np.finfo(np.float64).tiny, x)
        y = c * np.log(x**2) + rng.standard_normal(n)

    return JointDataset(x=x, y=y)


def random_correlation(dim: int, seed: SeedLike) -> np.ndarray:
    """Random correlation matrix: a Gram matrix of normal rows, rescaled to unit diagonal."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = _as_rng(seed)
    a = rng.standard_normal((dim, dim))
    g = a @ a.T
    s = 1.0 / np.sqrt(np.diag(g))
    corr = g * np.outer(s, s)
    np.fill_diagonal(corr, 1.0)
    return corr


@dataclass(frozen=True)
class MixtureConfig:
    """Shape of a random Gaussian mixture on paired planes (x and y in R^2 each)."""

    n_clusters: int
    dim_x: int = 2
    dim_y: int = 2

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError("dimensions must be >= 1")


@dataclass
class MixtureModel:
    """A drawn mixture: simplex weights, cluster means, correlation shapes."""

    weights: np.ndarray
    means: np.ndarray
    correlations: np.ndarray
    dim_x: int
    dim_y: int

    def sample(self, n: int, seed: SeedLike) -> tuple[JointDataset, np.ndarray]:
        """n draws plus their cluster labels.

        Components come from inverse-CDF lookup of uniform variates against
        the cumulative weights; one block of standard normals is drawn for
        all rows first, so the stream does not depend on label outcomes.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = _as_rng(seed)
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0  # guard against roundoff in the last bin
        labels = np.searchsorted(cum, rng.uniform(0.0, 1.0, n), side="left")
        normals = rng.standard_normal((n, self.means.shape[1]))
        out = np.empty_like(normals)
        for j in range(len(self.weights)):
            mask = labels == j
            if not np.any(mask):
                continue
            chol = _stable_cholesky(self.correlations[j])
            out[mask] = self.means[j] + normals[mask] @ chol.T
        return JointDataset(x=out[:, : self.dim_x], y=out[:, self.dim_x :]), labels


def _stable_cholesky(matrix: np.ndarray) -> np.ndarray:
    jitter = 0.0
    scale = float(np.trace(matrix)) / matrix.shape[0]
    for _ in range(6):
        try:
            return np.linalg.cholesky(matrix + jitter * np.eye(matrix.shape[0]))
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-12 * scale)
    raise np.linalg.LinAlgError("correlation matrix is numerically indefinite")


def draw_mixture_model(config: MixtureConfig, seed: SeedLike) -> MixtureModel:
    """Draw mixture parameters: weights, then all means, then correlations in cluster order."""
    rng = _as_rng(seed)
    k = config.n_clusters
    dim = config.dim_x + config.dim_y
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(-MEAN_RANGE, MEAN_RANGE, (k, dim))
    correlations = np.stack([random_correlation(dim, rng) for _ in range(k)])
    return MixtureModel(
        weights=weights,
        means=means,
        correlations=correlations,
        dim_x=config.dim_x,
        dim_y=config.dim_y,
    )


def sample_gaussian_mixture(config: MixtureConfig, n_total: int, seed: SeedLike) -> JointDataset:
    """Draw mixture parameters and then n_total rows from them, single stream."""
    rng = _as_rng(seed)
    model = draw_mixture_model(config, rng)
    joint, _ = model.sample(n_total, rng)
    return joint
