import numpy as np
import pytest

from kdm.conditional import (
    JointDataset,
    _reservoir_indices,
    conditional_expectation,
    conditional_moments,
    conditional_weights,
    fit_conditional,
    split_joint_sample,
)
from kdm.estimator import PriorSpec
from kdm.kernels import KernelSpec


def test_joint_dataset_validation():
    j = JointDataset(np.arange(4.0), np.arange(4.0) + 10)
    assert (j.rows, j.d_x, j.d_y) == (4, 1, 1)
    with pytest.raises(ValueError):
        JointDataset(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        JointDataset(np.array([np.nan]), np.array([1.0]))


def test_three_split_hand_example():
    x = np.arange(6.0)
    y = np.arange(6.0) + 100
    p, q = split_joint_sample(JointDataset(x, y), "three_split")
    # x from rows 0, 2 and y from rows 1, 3; paired block is rows 4, 5
    np.testing.assert_array_equal(p.points, [[0.0, 101.0], [2.0, 103.0]])
    np.testing.assert_array_equal(q.points, [[4.0, 104.0], [5.0, 105.0]])


def test_shifted_hand_example():
    x = np.arange(3.0)
    y = np.arange(3.0) + 100
    p, q = split_joint_sample(JointDataset(x, y), "shifted")
    np.testing.assert_array_equal(p.points, [[0.0, 101.0], [1.0, 102.0], [2.0, 100.0]])
    np.testing.assert_array_equal(q.points, [[0.0, 100.0], [1.0, 101.0], [2.0, 102.0]])


def test_split_guards():
    j = JointDataset(np.arange(4.0), np.arange(4.0))
    with pytest.raises(ValueError):
        split_joint_sample(j, "three_split")
    with pytest.raises(ValueError):
        split_joint_sample(JointDataset([1.0], [1.0]), "shifted")
    with pytest.raises(ValueError):
        split_joint_sample(j, "other")


def gaussian_joint(seed, rows, slope=0.8):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, rows)
    y = slope * x + np.sqrt(1 - slope**2) * rng.normal(0.0, 1.0, rows)
    return JointDataset(x, y)


def test_weights_are_a_distribution():
    cm = fit_conditional(gaussian_joint(0, 600), KernelSpec("gaussian", rho=1.0), lam=1e-3)
    w = conditional_weights(cm, np.array([0.5]))
    assert w.shape == (cm.y_grid.shape[0],)
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)


def test_weights_track_the_regression_line():
    cm = fit_conditional(gaussian_joint(1, 1200), KernelSpec("gaussian", rho=1.0), lam=1e-3)
    for xv in (-1.0, 0.0, 1.0):
        mean = conditional_expectation(cm, np.array([xv]), cm.y_grid[:, 0])
        assert mean == pytest.approx(0.8 * xv, abs=0.25)


def test_degenerate_weights_fall_back_to_uniform():
    cm = fit_conditional(
        gaussian_joint(2, 300),
        KernelSpec("gaussian", rho=1.0),
        lam=1e-3,
        prior=PriorSpec.zero(),
    )
    cm.base.beta[:] = 0.0  # ratio is now identically zero
    with pytest.warns(RuntimeWarning):
        w, degenerate = conditional_weights(cm, np.array([0.0]), return_degenerate=True)
    assert degenerate
    np.testing.assert_allclose(w, np.full(w.shape, 1.0 / w.shape[0]))
    with pytest.warns(RuntimeWarning):
        mean, _, degenerate = conditional_moments(cm, np.array([0.0]), return_degenerate=True)
    assert degenerate
    np.testing.assert_allclose(mean, cm.y_grid.mean(axis=0), rtol=1e-12)


def test_expectation_of_ones_is_one():
    cm = fit_conditional(gaussian_joint(3, 300), KernelSpec("gaussian", rho=1.0), lam=1e-3)
    ones = np.ones(cm.y_grid.shape[0])
    assert conditional_expectation(cm, np.array([0.2]), ones) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        conditional_expectation(cm, np.array([0.2]), np.ones(3))


def test_moments_shapes_and_psd():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, 450)
    y = np.column_stack([x + rng.normal(0, 0.5, 450), rng.normal(0, 1, 450)])
    cm = fit_conditional(
        JointDataset(x, y), KernelSpec("gaussian", rho=1.0), lam=1e-3, scheme="three_split"
    )
    mean, cov = conditional_moments(cm, np.array([0.0]))
    assert mean.shape == (2,) and cov.shape == (2, 2)
    flagged = conditional_moments(cm, np.array([0.0]), return_degenerate=True)
    np.testing.assert_array_equal(flagged[0], mean)
    np.testing.assert_array_equal(flagged[1], cov)
    assert flagged[2] is False
    np.testing.assert_allclose(cov, cov.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10


def test_weights_reject_wrong_x_dimension():
    cm = fit_conditional(gaussian_joint(5, 120), KernelSpec("gaussian", rho=1.0), lam=1e-3)
    with pytest.raises(ValueError):
        conditional_weights(cm, np.array([0.0, 1.0]))


def test_reservoir_indices():
    idx = _reservoir_indices(10, 20, np.random.default_rng(0))
    np.testing.assert_array_equal(idx, np.arange(10))
    a = _reservoir_indices(1000, 64, np.random.default_rng(7))
    b = _reservoir_indices(1000, 64, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (64,)
    assert np.all(np.diff(a) > 0)
    assert a.min() >= 0 and a.max() < 1000


def test_grid_subsampling_and_explicit_grid():
    joint = gaussian_joint(6, 900)
    cm = fit_conditional(
        joint, KernelSpec("gaussian", rho=1.0), lam=1e-3, scheme="three_split", grid_cap=50
    )
    assert cm.y_grid.shape == (50, 1)
    grid = np.linspace(-2, 2, 11)
    cm2 = fit_conditional(joint, KernelSpec("gaussian", rho=1.0), lam=1e-3, y_grid=grid)
    assert cm2.y_grid.shape == (11, 1)
    with pytest.raises(ValueError):
        fit_conditional(joint, KernelSpec("gaussian", rho=1.0), lam=1e-3, y_grid=np.zeros((4, 2)))


def test_fit_conditional_deterministic():
    joint = gaussian_joint(8, 600)
    a = fit_conditional(joint, KernelSpec("gaussian", rho=1.0), lam=1e-3, seed=3)
    b = fit_conditional(joint, KernelSpec("gaussian", rho=1.0), lam=1e-3, seed=3)
    np.testing.assert_array_equal(a.base.beta, b.base.beta)
    np.testing.assert_array_equal(a.y_grid, b.y_grid)
