import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdm.bench as bench
import kdm.cli as cli
import kdm.conditional as conditional
from kdm.conditional import (
    JointDataset,
    _reservoir_indices,
    conditional_expectation,
    conditional_moments,
    conditional_weights,
    fit_conditional,
    split_joint_sample,
)
from kdm.estimator import PriorSpec, eval_density_ratio, fit, save_model
from kdm.hypothesis import run_test
from kdm.kernels import KernelSpec
from reference import reservoir_indices_scalar


def reference_weights(cmodel, x):
    """Weights and degenerate flag of one query, evaluated pair by pair.

    This is the per-query loop the batched weights replaced, kept as the
    reference they are checked against.
    """
    grid = cmodel.y_grid
    pairs = np.hstack([np.tile(x, (grid.shape[0], 1)), grid])
    vals = np.maximum(eval_density_ratio(cmodel.base, pairs), 0.0)
    total = float(vals.sum())
    if not total > 0:
        return np.full(grid.shape[0], 1.0 / grid.shape[0]), True
    return vals / total, False


def reference_batch(cmodel, xs):
    out = [reference_weights(cmodel, x) for x in xs]
    return np.array([w for w, _ in out]), np.array([flag for _, flag in out])


def reference_moments(cmodel, xs, return_degenerate=True):
    """Per-query moments and flags, as conditional_moments(..., return_degenerate=True) returns them."""
    means, covs, flags = [], [], []
    for x in xs:
        w, flag = reference_weights(cmodel, x)
        mean = w @ cmodel.y_grid
        centered = cmodel.y_grid - mean
        means.append(mean)
        covs.append((centered * w[:, None]).T @ centered)
        flags.append(flag)
    return np.array(means), np.array(covs), np.array(flags)


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
    ones = np.ones(cm.y_grid.shape[0])
    for bad in (np.array([0.0, 1.0]), np.zeros((3, 2)), np.zeros((2, 1, 1))):
        with pytest.raises(ValueError):
            conditional_weights(cm, bad)
        with pytest.raises(ValueError):
            conditional_moments(cm, bad)
        with pytest.raises(ValueError):
            conditional_expectation(cm, bad, ones)


def test_batch_shapes_and_single_form():
    cm = fit_conditional(gaussian_joint(9, 300), KernelSpec("gaussian", rho=1.0), lam=1e-3)
    g = cm.y_grid.shape[0]
    xs = np.array([[-0.5], [0.0], [0.7]])
    w = conditional_weights(cm, xs)
    assert w.shape == (3, g)
    # the single form is the batch form with Q = 1
    np.testing.assert_array_equal(conditional_weights(cm, xs[1]), conditional_weights(cm, xs[1:2])[0])
    np.testing.assert_array_equal(conditional_weights(cm, 0.0), conditional_weights(cm, xs[1:2])[0])
    mean, cov, flags = conditional_moments(cm, xs, return_degenerate=True)
    assert mean.shape == (3, 1) and cov.shape == (3, 1, 1) and flags.dtype == bool
    ref_mean, ref_cov, ref_flags = reference_moments(cm, xs)
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12)
    np.testing.assert_allclose(cov, ref_cov, rtol=1e-12)
    np.testing.assert_array_equal(flags, ref_flags)
    np.testing.assert_allclose(
        conditional_expectation(cm, xs, cm.y_grid[:, 0]), ref_mean[:, 0], rtol=1e-12
    )
    assert conditional_expectation(cm, xs, np.ones((g, 2))).shape == (3, 2)


def test_batch_flags_exactly_the_degenerate_rows():
    cm = fit_conditional(
        gaussian_joint(2, 300), KernelSpec("gaussian", rho=1.0), lam=1e-3, prior=PriorSpec.zero()
    )
    xs = np.array([[0.0], [1e6], [0.5], [-1e6]])  # far rows: every kernel value underflows to zero
    with pytest.warns(RuntimeWarning, match="2 of 4 queries") as record:
        w, flags = conditional_weights(cm, xs, return_degenerate=True)
    assert sum(issubclass(r.category, RuntimeWarning) for r in record) == 1
    np.testing.assert_array_equal(flags, [False, True, False, True])
    np.testing.assert_array_equal(w[flags], np.full((2, w.shape[1]), 1.0 / w.shape[1]))
    ref_w, ref_flags = reference_batch(cm, xs)
    np.testing.assert_array_equal(flags, ref_flags)
    np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-12)
    with pytest.warns(RuntimeWarning, match="2 of 4 queries"):
        _, _, moment_flags = conditional_moments(cm, xs, return_degenerate=True)
    np.testing.assert_array_equal(moment_flags, flags)


def _custom_prior(z):
    return 0.5 + 0.4 * np.tanh(z[:, 0] * z[:, -1])


@pytest.mark.parametrize("family", ["gaussian", "laplace", "polynomial"])
@pytest.mark.parametrize("prior", ["zero", "one", "custom"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    standardize=st.booleans(),
    d_x=st.integers(1, 2),
    d_y=st.integers(1, 2),
    batch=st.sampled_from(["one", "few", "past_one_block"]),
)
def test_batch_weights_match_per_query_reference(family, prior, seed, standardize, d_x, d_y, batch):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (60, d_x))
    y = 0.7 * x[:, :1] + rng.normal(0, 0.6, (60, d_y))
    prior_spec = PriorSpec.custom(_custom_prior, 0.9) if prior == "custom" else getattr(PriorSpec, prior)()
    cm = fit_conditional(
        JointDataset(x, y),
        KernelSpec(family, rho=float(rng.uniform(0.5, 2.0)), c=1.0, q=2),
        1e-2,
        prior=prior_spec,
        standardize=standardize,
        grid_cap=25,
        seed=seed % 1000,
    )
    # rows per block of the path that does not factorise
    step = max(1, conditional._BLOCK_ENTRIES // (cm.y_grid.shape[0] * cm.base.rank))
    q = {"one": 1, "few": 5, "past_one_block": step + 2}[batch]
    xs = rng.normal(0, 1, (q, d_x))
    if prior == "zero" and family != "polynomial" and q > 1:
        xs[-1] = 1e6  # a degenerate row beside normal ones
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        w, flags = conditional_weights(cm, xs, return_degenerate=True)
        ref_w, ref_flags = reference_batch(cm, xs)
    assert w.shape == ref_w.shape and flags.dtype == bool
    np.testing.assert_array_equal(flags, ref_flags)
    np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-12)
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_mixture_study_matches_per_query_weights(monkeypatch):
    size = dict(n_train=150, n_test=40, grid_cap=60, max_rank=60)
    for seed in (3, 4, 5):
        batched = bench.mixture_energy_study(2, seed, **size)
        monkeypatch.setattr(bench, "conditional_weights", lambda cm, xs: reference_batch(cm, xs)[0])
        looped = bench.mixture_energy_study(2, seed, **size)
        monkeypatch.undo()
        np.testing.assert_allclose(batched.differentials, looped.differentials, rtol=0, atol=1e-12)


def test_condexp_csv_matches_per_query_moments(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(11)
    x = rng.normal(0, 1, (150, 2))
    y = np.column_stack([x[:, 0] + rng.normal(0, 0.5, 150), rng.normal(0, 1, 150)])

    def write(name, header, rows):
        path = str(tmp_path / name)
        np.savetxt(path, rows, delimiter=",", header=",".join(header), comments="")
        return path

    joint = write("joint.csv", ["x1", "x2", "y1", "y2"], np.hstack([x, y]))
    query = write("query.csv", ["x1", "x2"], [[0.0, 0.0], [1e6, 1e6], [0.5, -1.0], [-1.0, 2.0]])
    argv = ["condexp", "--joint", joint, "--xcols", "x1,x2", "--ycols", "y1,y2", "--rho", "1.0",
            "--lambda", "1e-3", "--prior", "zero", "--seed", "0", "--query", query, "--out"]

    def run(out):
        assert cli.main(argv + [str(tmp_path / out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        return np.loadtxt(tmp_path / out, delimiter=",", skiprows=1), payload

    with pytest.warns(RuntimeWarning, match="1 of 4 queries"):
        batched, payload = run("batched.csv")
    monkeypatch.setattr(cli, "conditional_moments", reference_moments)
    looped, ref_payload = run("looped.csv")
    assert batched.shape == looped.shape == (4, 2 + 4 + 1)
    np.testing.assert_allclose(batched, looped, rtol=1e-12, atol=0)
    assert payload["degenerate_queries"] == ref_payload["degenerate_queries"] == 1
    np.testing.assert_array_equal(batched[:, -1], [0.0, 1.0, 0.0, 0.0])


def test_reservoir_indices():
    idx = _reservoir_indices(10, 20, np.random.default_rng(0))
    np.testing.assert_array_equal(idx, np.arange(10))
    a = _reservoir_indices(1000, 64, np.random.default_rng(7))
    b = _reservoir_indices(1000, 64, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (64,)
    assert np.all(np.diff(a) > 0)
    assert a.min() >= 0 and a.max() < 1000


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3000),
    k=st.one_of(st.just(1), st.integers(1, 600)),
    seed=st.integers(0, 2**32 - 1),
)
def test_reservoir_indices_match_the_scalar_loop(n, k, seed):
    # the one-call draw gives the loop's subsample bit for bit, n <= k included
    idx = _reservoir_indices(n, k, np.random.default_rng(seed))
    ref = reservoir_indices_scalar(n, k, np.random.default_rng(seed))
    assert idx.dtype == ref.dtype
    np.testing.assert_array_equal(idx, ref)


@pytest.mark.parametrize("n, k", [(3000, 500), (1000, 500), (5000, 2000), (2000, 1), (500, 500)])
def test_reservoir_indices_match_the_scalar_loop_at_study_sizes(n, k):
    for seed in range(10):
        idx = _reservoir_indices(n, k, np.random.default_rng(seed))
        np.testing.assert_array_equal(idx, reservoir_indices_scalar(n, k, np.random.default_rng(seed)))


def test_grid_subsampling_and_explicit_grid():
    joint = gaussian_joint(6, 900)
    cm = fit_conditional(
        joint, KernelSpec("gaussian", rho=1.0), lam=1e-3, scheme="three_split", grid_cap=50
    )
    assert cm.y_grid.shape == (50, 1)
    # another grid over the same base model
    grid = np.linspace(-2, 2, 11)[:, None]
    cm2 = conditional.ConditionalModel(cm.base, grid, cm.scheme)
    assert cm2.d_x == 1 and cm2.d_y == 1
    weights = conditional_weights(cm2, joint.x[:5])
    assert weights.shape == (5, 11)
    np.testing.assert_allclose(weights, reference_batch(cm2, joint.x[:5])[0], rtol=1e-12, atol=1e-15)


def test_fit_conditional_rejects_bad_sizes():
    joint = gaussian_joint(6, 90)
    spec = KernelSpec("gaussian", rho=1.0)
    for cap in (0, -2):
        with pytest.raises(ValueError, match=f"grid_cap must be >= 1, got {cap}"):
            fit_conditional(joint, spec, lam=1e-3, grid_cap=cap)
    with pytest.raises(ValueError, match="lam must be > 0"):
        fit_conditional(joint, spec, lam=0.0)


def test_fit_conditional_skips_covariance_only(tmp_path):
    # the base model is fit()'s model on the same split, without the test
    # covariance, which no conditional estimate reads
    joint = gaussian_joint(9, 600)
    spec = KernelSpec("gaussian", rho=1.0)
    cm = fit_conditional(joint, spec, lam=1e-3, max_rank=40, seed=4)
    assert cm.base.covariance is None
    p, q = split_joint_sample(joint, "shifted")
    ref = conditional.ConditionalModel(
        base=fit(p, q, spec, lam=1e-3, max_rank=40, seed=4), y_grid=cm.y_grid, scheme="shifted"
    )
    assert ref.base.covariance is not None
    xs = joint.x[:25]
    assert conditional_weights(cm, xs).tobytes() == conditional_weights(ref, xs).tobytes()
    with pytest.raises(ValueError, match="no test covariance"):
        run_test(cm.base)
    with pytest.raises(ValueError, match="no test covariance"):
        save_model(cm.base, str(tmp_path / "m.kdm"))


def test_fit_conditional_deterministic():
    joint = gaussian_joint(8, 600)
    a = fit_conditional(joint, KernelSpec("gaussian", rho=1.0), lam=1e-3, seed=3)
    b = fit_conditional(joint, KernelSpec("gaussian", rho=1.0), lam=1e-3, seed=3)
    np.testing.assert_array_equal(a.base.beta, b.base.beta)
    np.testing.assert_array_equal(a.y_grid, b.y_grid)
