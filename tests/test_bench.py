import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdm.bench as bench
from kdm.bench import (
    independence_test,
    ks_to_uniform,
    median_heuristic_rho,
    mixture_energy_study,
    null_bound_study,
    rejection_study,
)
from kdm.kernels import KernelSpec, _sq_dists
from kdm.metrics import energy_score
from kdm.simulate import sample_distribution
from reference import energy_score_broadcast, median_heuristic_rho_reference


def test_ks_to_uniform_hand_example():
    assert ks_to_uniform(np.array([0.1, 0.5, 0.9])) == pytest.approx(7.0 / 30.0, rel=1e-14)
    grid = (np.arange(1, 11) - 0.5) / 10.0
    assert ks_to_uniform(grid) == pytest.approx(0.05, rel=1e-14)


def test_ks_to_uniform_matches_scipy():
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 1, 200)
    assert ks_to_uniform(p) == pytest.approx(scipy.stats.kstest(p, "uniform").statistic, rel=1e-12)


def test_ks_to_uniform_guards():
    with pytest.raises(ValueError):
        ks_to_uniform(np.array([]))
    with pytest.raises(ValueError):
        ks_to_uniform(np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        ks_to_uniform(np.array([0.5, 1.1]))


def test_median_heuristic_two_points():
    assert median_heuristic_rho(np.array([[0.0], [2.0]])) == pytest.approx(2.0, rel=1e-14)
    assert median_heuristic_rho(np.array([0.0, 2.0])) == pytest.approx(2.0, rel=1e-14)


def test_median_heuristic_subsampling_deterministic():
    rng = np.random.default_rng(1)
    pts = rng.normal(0, 1, (1200, 2))
    assert median_heuristic_rho(pts) == median_heuristic_rho(pts)
    # identical points give the floor value
    assert median_heuristic_rho(np.zeros((5, 2))) == pytest.approx(1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3000),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    decimals=st.sampled_from([None, 0, 1]),
)
@example(n=2, d=2, seed=0, decimals=None).via("one pair")
@example(n=49, d=3, seed=1, decimals=1).via("the last row alone has no pair above it")
@example(n=50, d=4, seed=2, decimals=None).via("a last band of two rows")
@example(n=444, d=2, seed=21, decimals=1).via("64-row bands from the diagonal moved rho")
@example(n=3000, d=4, seed=72, decimals=None).via("thinned; so did they here")
def test_median_heuristic_matches_np_median_bitwise(n, d, seed, decimals):
    # sizes above MEDIAN_POINTS take the stride path; k (k - 1) / 2 pairs are
    # odd or even in turn; rounding to few decimals gives duplicate rows
    pts = np.random.default_rng(seed).normal(0.0, 2.0, (n, d))
    if decimals is not None:
        pts = np.round(pts, decimals)
    assert median_heuristic_rho(pts) == median_heuristic_rho_reference(pts)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, bench.MEDIAN_POINTS),
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    decimals=st.sampled_from([None, 0, 1]),
)
@example(k=500, d=2, seed=0, decimals=None).via("bands of 64 rows lose bits here")
@example(k=257, d=4, seed=1, decimals=1).via("a short last band")
def test_banded_sq_dists_keep_the_bits_of_the_full_product(k, d, seed, decimals):
    # every entry above the diagonal, not only the median: a band must round
    # each one as the full k x k product does; they come in the row-major
    # order of the upper triangle, the +inf fill after them
    pts = np.random.default_rng(seed).normal(0.0, 2.0, (k, d))
    if decimals is not None:
        pts = np.round(pts, decimals)
    vals = bench._upper_sq_dists(pts)
    full = _sq_dists(pts, pts)[np.triu_indices(k, 1)]
    assert np.array_equal(vals[vals < np.inf], full)
    assert np.sum(vals == np.inf) == vals.size - full.size


def test_median_heuristic_forms_no_k_by_k_array():
    # the full 500 x 500 distance matrix, its sum of norms and the gather of
    # the upper triangle peaked at 4.0 MB; the bands of the upper triangle
    # hold about 1.1 k (k - 1) / 2 values, and one band's product 192 kB
    pts = np.random.default_rng(4).normal(0.0, 1.0, (3000, 2))
    median_heuristic_rho(pts)  # fills the cache of band indices
    k = bench.MEDIAN_POINTS
    tracemalloc.start()
    try:
        median_heuristic_rho(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (k * (k - 1) // 2) * 8


def test_median_heuristic_rejects_non_finite_points():
    pts = np.random.default_rng(2).normal(0, 1, (50, 2))
    for bad in (np.nan, np.inf):
        pts[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            median_heuristic_rho(pts)
    with pytest.raises(ValueError, match="two points"):
        median_heuristic_rho(np.zeros((1, 2)))


def test_independence_test_detects_dependence():
    dependent = sample_distribution("circle", 1200, seed=2)
    independent = sample_distribution("independent_clouds", 1200, seed=3)
    p_dep = independence_test(dependent).p_value
    p_ind = independence_test(independent).p_value
    assert p_dep < 1e-3
    assert p_ind > 0.01


def test_independence_test_deterministic_and_kernel_override():
    joint = sample_distribution("variance", 300, seed=4)
    a = independence_test(joint)
    b = independence_test(joint)
    assert (a.statistic, a.ell, a.p_value) == (b.statistic, b.ell, b.p_value)
    c = independence_test(joint, kernel=KernelSpec("laplace", rho=1.0))
    assert c.p_value != a.p_value


def test_rejection_study_reproducible():
    a = rejection_study("circle", 60, 5, seed=2024)
    b = rejection_study("circle", 60, 5, seed=2024)
    np.testing.assert_array_equal(a.p_values, b.p_values)
    assert a.p_values.shape == (5,)
    assert a.rejection_rate == pytest.approx(np.mean(a.p_values <= 0.05))
    assert a.mc_stderr == pytest.approx(
        np.sqrt(max(a.rejection_rate * (1 - a.rejection_rate), 1e-12) / 5)
    )


def test_rejection_study_guards():
    with pytest.raises(ValueError):
        rejection_study("circle", 60, 0, seed=0)
    with pytest.raises(ValueError):
        rejection_study("circle", 60, 2, seed=0, level=1.5)


def test_rejection_study_shifted_scheme_runs():
    res = rejection_study("variance", 45, 2, seed=5, scheme="shifted")
    assert res.p_values.shape == (2,)
    assert np.all((res.p_values >= 0) & (res.p_values <= 1))


def test_null_bound_study_smoke():
    holds = null_bound_study(100, 5, seed=6)
    assert holds.shape == (5,) and holds.dtype == bool
    assert holds.mean() >= 0.6
    # fewer than one replication is refused, as by the other studies
    with pytest.raises(ValueError, match="reps must be >= 1"):
        null_bound_study(100, 0, seed=6)


def test_mixture_energy_study_smoke():
    study = mixture_energy_study(2, seed=7, n_train=120, n_test=15, grid_cap=80, max_rank=120)
    assert study.differentials.shape == (2,)
    np.testing.assert_array_equal(study.clusters, [1, 2])
    assert np.isfinite(study.median_differential)
    again = mixture_energy_study(2, seed=7, n_train=120, n_test=15, grid_cap=80, max_rank=120)
    np.testing.assert_array_equal(study.differentials, again.differentials)
    with pytest.raises(ValueError):
        mixture_energy_study(0, seed=0)


def test_mixture_energy_study_scores_are_those_of_energy_score(monkeypatch):
    # the study computes the distances once for both weight sets; each
    # score must keep the bits of an energy_score call.  At the default
    # 500-point grid the rows of a product with one row of ones differ from
    # those with a row per query, and with seed 7 that reaches the scores
    seen = {"scores": []}

    def spy_weights(cmodel, x):
        seen["grid"], seen["weights"] = cmodel.y_grid, real_weights(cmodel, x)
        return seen["weights"]

    def spy_distances(a, b):
        if b is not a:
            seen["ys"] = a
        return real_distances(a, b)

    def spy_scores(w, dist_y, dist_xx):
        seen["scores"].append(real_scores(w, dist_y, dist_xx))
        return seen["scores"][-1]

    real_weights, real_distances, real_scores = bench.conditional_weights, bench._distances, bench._energy_scores
    monkeypatch.setattr(bench, "conditional_weights", spy_weights)
    monkeypatch.setattr(bench, "_distances", spy_distances)
    monkeypatch.setattr(bench, "_energy_scores", spy_scores)
    study = mixture_energy_study(1, seed=7)
    ys, grid = seen["ys"], seen["grid"]
    assert grid.shape[0] == 500
    weighted, uniform = seen["scores"]
    assert weighted.tobytes() == energy_score(ys, grid, seen["weights"] * grid.shape[0]).tobytes()
    assert uniform.tobytes() == energy_score(ys, grid).tobytes()
    # unit weights are scored by reductions, whose sums round differently
    # from the products of an explicit array of ones
    ones = np.ones((ys.shape[0], grid.shape[0]))
    np.testing.assert_allclose(uniform, energy_score_broadcast(ys, grid, ones), rtol=1e-13, atol=0)
    assert study.differentials[0] == float(np.mean(uniform - weighted))
