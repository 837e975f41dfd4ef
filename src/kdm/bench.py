"""Monte Carlo studies: test calibration, power curves, forecast comparisons.

Replication r of a study with master seed s uses the derived stream s XOR r,
so studies can be chunked or resumed without replaying earlier replications.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .conditional import JointDataset, conditional_weights, fit_conditional, split_joint_sample
from .estimator import fit
from .hypothesis import DEFAULT_TRUNCATION_T, TestResult, run_test
from .kernels import KernelSpec, _as_points, sq_norms
from .metrics import _distances, _energy_scores
from .simulate import MixtureConfig, draw_mixture_model, sample_distribution

DEFAULT_EPS_REL = 1e-5
DEFAULT_MAX_RANK = 256
# default Gaussian length scale of the independence studies: this multiple of
# the median heuristic; wider than the classic choice because the chi-square
# approximation of the test needs the covariance spectrum to decay well
# inside the truncation window
RHO_MULT = 4.0
# the median heuristic looks at no more than this many points, and forms
# their squared distances this many rows at a time.  A band's product
# against all the points rounds each entry as the full product does only
# when the band is a whole number of the BLAS kernel's row tiles: 48 rows
# is a multiple of 2, 3, 4, 6, 8, 12, 16 and 24; bands of 64 rows did not
# keep the bits (OpenBLAS 0.3.31, AVX-512 host), bands of 12, 24, 48 or 96 did
MEDIAN_POINTS = 500
MEDIAN_BAND_ROWS = 48
# mixture run r draws 1 + (r mod MAX_CLUSTERS) clusters
MAX_CLUSTERS = 3


@lru_cache(maxsize=4)
def _row_bands(k: int) -> tuple:
    """Row bands (i0, i1, low) of the strict upper triangle of a k x k array.

    Bands start every MEDIAN_BAND_ROWS rows before the last row, which has
    no entry above the diagonal, so each holds two rows or more.  Band
    i0..i1 keeps the (i1 - i0) x (k - i0) block of rows i0..i1-1 and columns
    i0..k-1, and ``low`` lists the flat indices of that block's entries on
    and below the diagonal.
    """
    bands = []
    for i0 in range(0, k - 1, MEDIAN_BAND_ROWS):
        i1 = min(i0 + MEDIAN_BAND_ROWS, k)
        rows, cols = np.tril_indices(i1 - i0)
        low = rows * (k - i0) + cols
        low.flags.writeable = False
        bands.append((i0, i1, low))
    return tuple(bands)


def _upper_sq_dists(pts: np.ndarray) -> np.ndarray:
    """The k (k - 1) / 2 squared distances above the diagonal, and +inf fill.

    Each band of ``_row_bands`` takes one product of its rows against all k
    points, then keeps columns i0 on: each entry is (|x_i|^2 + |x_j|^2) -
    2 x_i.x_j clamped at zero, as ``kernels._sq_dists(pts, pts)`` forms it,
    with the bits of the full k x k product (one BLAS thread).  The blocks
    go straight into one array, their entries on and below the diagonal set
    to +inf, so no k x k array is formed and the finite values are the
    distances in the row-major order of the upper triangle.
    """
    k = pts.shape[0]
    aa = sq_norms(pts)
    bands = _row_bands(k)
    vals = np.empty(sum((i1 - i0) * (k - i0) for i0, i1, _ in bands))
    prod = np.empty((min(MEDIAN_BAND_ROWS, k), k))
    pos = 0
    for i0, i1, low in bands:
        g = np.matmul(2.0 * pts[i0:i1], pts.T, out=prod[: i1 - i0])
        d2 = vals[pos : pos + (i1 - i0) * (k - i0)].reshape(i1 - i0, k - i0)
        np.add(aa[i0:i1, None], aa[None, i0:], out=d2)
        d2 -= g[:, i0:]
        np.maximum(d2, 0.0, out=d2)
        d2.reshape(-1)[low] = np.inf
        pos += d2.size
    return vals


def median_heuristic_rho(points: np.ndarray) -> float:
    """Half the median pairwise squared distance over at most MEDIAN_POINTS points.

    Deterministic: when subsampling is needed the points are thinned with an
    even stride rather than at random.  The squared distances come from
    ``_upper_sq_dists``, in row bands of MEDIAN_BAND_ROWS rows with no k x k
    array, and the result is bitwise half of ``np.median`` over the upper
    triangle of ``kernels._sq_dists(pts, pts)`` (floored at 1e-12).  Raises
    ValueError for fewer than two points or for non-finite values.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("the median heuristic needs at least two points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    if n > MEDIAN_POINTS:
        pts = pts[np.linspace(0, n - 1, MEDIAN_POINTS).astype(np.intp)]
    k = pts.shape[0]
    vals = _upper_sq_dists(pts)
    # the median as np.median forms it, with one partition instead of two:
    # the mean of the two middle values for an even count, else the middle
    # one; the infinities sit above every value it reads
    count = k * (k - 1) // 2
    h = count // 2
    if count % 2:
        vals.partition(h)
        med = vals[h]
    else:
        vals.partition(h - 1)
        med = (vals[h - 1] + vals[h:].min()) / 2.0
    return max(float(med) / 2.0, 1e-12)


def _test_kernel(stacked: np.ndarray) -> KernelSpec:
    """The null studies' Gaussian kernel: ``RHO_MULT`` times the median heuristic of the stacked sample."""
    return KernelSpec("gaussian", rho=RHO_MULT * median_heuristic_rho(stacked))


def independence_test(
    joint: JointDataset,
    *,
    kernel: Optional[KernelSpec] = None,
    epsilon_rel: float = DEFAULT_EPS_REL,
    max_rank: int = DEFAULT_MAX_RANK,
    scheme: str = "three_split",
    t: float = DEFAULT_TRUNCATION_T,
) -> TestResult:
    """Test X independent of Y in a joint sample.

    The decoupled/paired samples come from the chosen split scheme; the
    default kernel is Gaussian with ``RHO_MULT`` times the median-heuristic
    length scale of the stacked sample.  The test truncates its spectrum by
    the relative rule at ``t``.
    """
    sample_p, sample_q = split_joint_sample(joint, scheme)
    if kernel is None:
        kernel = _test_kernel(np.vstack([sample_p.points, sample_q.points]))
    # the test reads the moment gap and its covariance, which no ridge
    # parameter enters, so any lam > 0 gives the same result
    model = fit(sample_p, sample_q, kernel, 1e-3, epsilon_rel=epsilon_rel, max_rank=max_rank)
    return run_test(model, "relative", t)


@dataclass
class RejectionStudy:
    """Rejection rate of the independence test over seeded replications."""

    distribution: str
    n: int
    reps: int
    level: float
    p_values: np.ndarray

    @property
    def rejection_rate(self) -> float:
        """Share of the p-values at or below ``level``."""
        return float(np.mean(self.p_values <= self.level))

    @property
    def mc_stderr(self) -> float:
        r = self.rejection_rate
        return float(np.sqrt(max(r * (1.0 - r), 1e-12) / self.reps))


def rejection_study(
    distribution: str,
    n: int,
    reps: int,
    seed: int,
    *,
    level: float = 0.05,
    c: Optional[float] = None,
    kernel: Optional[KernelSpec] = None,
    epsilon_rel: float = DEFAULT_EPS_REL,
    max_rank: int = DEFAULT_MAX_RANK,
    scheme: str = "three_split",
    t: float = DEFAULT_TRUNCATION_T,
) -> RejectionStudy:
    """Run the independence test on `reps` fresh data sets of per-sample size n."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    rows = 3 * n if scheme == "three_split" else n
    pvals = np.empty(reps)
    for r in range(reps):
        joint = sample_distribution(distribution, rows, seed ^ r, c=c)
        pvals[r] = independence_test(
            joint,
            kernel=kernel,
            epsilon_rel=epsilon_rel,
            max_rank=max_rank,
            scheme=scheme,
            t=t,
        ).p_value
    return RejectionStudy(
        distribution=distribution,
        n=n,
        reps=reps,
        level=level,
        p_values=pvals,
    )


def ks_to_uniform(p_values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the sample to the uniform law on [0, 1]."""
    p = np.sort(np.asarray(p_values, dtype=np.float64))
    if p.size == 0 or p[0] < 0 or p[-1] > 1:
        raise ValueError("p-values must lie in [0, 1]")
    k = p.size
    grid = np.arange(1, k + 1) / k
    return float(max(np.max(grid - p), np.max(p - (grid - 1.0 / k))))


def null_bound_study(n: int, reps: int, seed: int) -> np.ndarray:
    """Check the finite-sample norm bound under a true null, rep by rep.

    Each replication draws 2n rows from the independent-clouds law, whose
    halves are two samples on which the prior ratio one is exact, fits them
    at lambda 1e-3 with the kernel of :func:`_test_kernel`, and records
    whether the fitted correction norm stays below the threshold at eta = 0.1.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    holds = np.empty(reps, dtype=bool)
    for r in range(reps):
        joint = sample_distribution("independent_clouds", 2 * n, seed ^ r)
        pts = np.hstack([joint.x, joint.y])
        model = fit(pts[:n], pts[n:], _test_kernel(pts), 1e-3, epsilon_rel=DEFAULT_EPS_REL, max_rank=DEFAULT_MAX_RANK)
        holds[r] = run_test(model, eta=0.1).bound_holds
    return holds


@dataclass
class MixtureStudy:
    """Energy-score comparison of conditional weights against uniform weights."""

    differentials: np.ndarray
    clusters: np.ndarray

    @property
    def median_differential(self) -> float:
        return float(np.median(self.differentials))


def mixture_energy_study(
    runs: int,
    seed: int,
    *,
    n_train: int = 1000,
    n_test: int = 200,
    grid_cap: int = 500,
    lam: float = 1e-3,
    epsilon_rel: float = DEFAULT_EPS_REL,
    max_rank: int = 400,
) -> MixtureStudy:
    """Out-of-sample energy scores on random Gaussian mixtures.

    Run r draws a mixture with 1 + (r mod MAX_CLUSTERS) clusters, fits the
    conditional model on a three-way split of 3 * n_train rows, and scores
    n_test fresh outcomes against the candidate grid twice: once with the
    conditional weights (scaled to mean one) and once with uniform weights.
    The differential is the mean uniform-minus-conditional score, so positive
    values favor the conditional model.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    diffs = np.empty(runs)
    clusters = np.empty(runs, dtype=np.intp)
    for r in range(runs):
        rng = np.random.default_rng(seed ^ r)
        k = 1 + r % MAX_CLUSTERS
        clusters[r] = k
        mixture = draw_mixture_model(MixtureConfig(n_clusters=k), rng)
        train, _ = mixture.sample(3 * n_train, rng)
        test, _ = mixture.sample(n_test, rng)

        stacked = np.hstack([train.x, train.y])
        kernel = KernelSpec("gaussian", rho=median_heuristic_rho(stacked))
        cmodel = fit_conditional(
            train,
            kernel,
            lam,
            scheme="three_split",
            epsilon_rel=epsilon_rel,
            max_rank=max_rank,
            grid_cap=grid_cap,
            seed=seed ^ r,
        )

        grid = cmodel.y_grid
        weights = conditional_weights(cmodel, test.x) * grid.shape[0]  # mean-one scaling
        # the two scores share the outcome and the candidate distances; the
        # uniform baseline passes no weights, so it is scored by two
        # reductions, O(Qm + m^2), with the bits of energy_score(y, grid)
        dist_y, dist_xx = _distances(test.y, grid), _distances(grid, grid)
        es_cond = _energy_scores(weights, dist_y, dist_xx)
        es_unif = _energy_scores(None, dist_y, dist_xx)
        diffs[r] = float(np.mean(es_unif - es_cond))
    return MixtureStudy(differentials=diffs, clusters=clusters)
