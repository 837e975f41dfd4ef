import functools
import re

import numpy as np
import pytest

from kdm.conditional import JointDataset, conditional_weights, fit_conditional
from kdm.estimator import eval_density_ratio, eval_h, fit
from kdm.kernels import (
    Dataset,
    KernelSpec,
    Standardizer,
    _kernel_block,
    cross_kernel_matrix,
    kernel_diagonal,
    kernel_sup,
    kernel_sup_is_empirical,
    sq_norms,
)
from kdm.metrics import energy_score
from reference import eval_kernel


def test_gaussian_known_value():
    # exp(-|0-1|^2 / (2*0.5)) = exp(-1)
    spec = KernelSpec("gaussian", rho=0.5)
    assert eval_kernel(spec, [0.0], [1.0]) == pytest.approx(0.36787944117144233, abs=1e-15)


def test_laplace_known_value():
    # exp(-2 * |0-1|) = exp(-2)
    spec = KernelSpec("laplace", rho=2.0)
    assert eval_kernel(spec, [0.0], [1.0]) == pytest.approx(0.1353352832366127, abs=1e-15)


def test_polynomial_known_value():
    # (<(1,0),(1,1)> + 1)^2 = 4
    spec = KernelSpec("polynomial", c=1.0, q=2)
    assert eval_kernel(spec, [1.0, 0.0], [1.0, 1.0]) == 4.0


def test_kernel_at_identical_points():
    for spec in (KernelSpec("gaussian", rho=0.7), KernelSpec("laplace", rho=1.3)):
        z = np.array([0.3, -1.2, 5.0])
        assert eval_kernel(spec, z, z) == 1.0


def test_cross_matrix_symmetry_and_psd():
    rng = np.random.default_rng(42)
    pts = rng.normal(0, 1, (40, 3))
    for spec in (
        KernelSpec("gaussian", rho=0.8),
        KernelSpec("laplace", rho=0.5),
        KernelSpec("polynomial", c=0.5, q=3),
    ):
        k = cross_kernel_matrix(spec, pts, pts)
        np.testing.assert_allclose(k, k.T, atol=1e-12)
        assert np.linalg.eigvalsh(k).min() >= -1e-8 * np.trace(k)


def test_cross_matrix_matches_pointwise():
    rng = np.random.default_rng(3)
    a, b = rng.normal(0, 1, (5, 2)), rng.normal(0, 1, (4, 2))
    spec = KernelSpec("gaussian", rho=1.5)
    k = cross_kernel_matrix(spec, a, b)
    for i in range(5):
        for j in range(4):
            assert k[i, j] == pytest.approx(eval_kernel(spec, a[i], b[j]), rel=1e-14)


def test_cross_matrix_accepts_datasets():
    a = Dataset(np.array([[0.0], [1.0]]))
    k = cross_kernel_matrix(KernelSpec("gaussian", rho=0.5), a, a)
    assert k.shape == (2, 2)
    assert k[0, 1] == pytest.approx(np.exp(-1.0))


def test_dimension_mismatch_rejected():
    spec = KernelSpec("gaussian")
    with pytest.raises(ValueError):
        cross_kernel_matrix(spec, np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eval_kernel(spec, [0.0], [0.0, 1.0])


def test_duplicate_points_no_negative_distance():
    # expanded distances of far-apart duplicated points must clamp at zero
    pts = np.full((6, 2), 1e6)
    k = cross_kernel_matrix(KernelSpec("gaussian", rho=1.0), pts, pts)
    np.testing.assert_array_equal(k, np.ones((6, 6)))


def test_kernel_diagonal_matches_matrix():
    rng = np.random.default_rng(11)
    pts = rng.normal(0, 2, (15, 2))
    for spec in (KernelSpec("gaussian"), KernelSpec("polynomial", c=1.0, q=2)):
        diag = kernel_diagonal(spec, pts)
        np.testing.assert_allclose(diag, np.diag(cross_kernel_matrix(spec, pts, pts)), rtol=1e-14)


def test_kernel_sup_bounded_families():
    assert kernel_sup(KernelSpec("gaussian", rho=2.0)) == 1.0
    assert kernel_sup(KernelSpec("laplace", rho=0.1)) == 1.0
    assert not kernel_sup_is_empirical(KernelSpec("gaussian"))


def test_kernel_sup_polynomial_empirical():
    spec = KernelSpec("polynomial", c=1.0, q=2)
    # max over {(1,1)} of (<z,z>+1)^2 = (2+1)^2 = 9
    assert kernel_sup(spec, np.array([[1.0, 1.0]])) == 9.0
    assert kernel_sup_is_empirical(spec)
    with pytest.raises(ValueError):
        kernel_sup(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("triangular")
    with pytest.raises(ValueError):
        KernelSpec("gaussian", rho=0.0)
    with pytest.raises(ValueError):
        KernelSpec("laplace", rho=-1.0)
    with pytest.raises(ValueError):
        KernelSpec("polynomial", c=-0.5)
    with pytest.raises(ValueError):
        KernelSpec("polynomial", q=0)
    # an infinite length scale is a constant kernel, a NaN offset no kernel
    for bad in (
        dict(family="gaussian", rho=np.inf),
        dict(family="laplace", rho=np.inf),
        dict(family="laplace", rho=np.nan),
        dict(family="polynomial", c=np.nan),
        dict(family="polynomial", c=np.inf),
        dict(family="polynomial", rho=np.inf),
        dict(family="gaussian", c=np.nan),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            KernelSpec(**bad)


def test_spec_dict_round_trip():
    spec = KernelSpec("polynomial", rho=2.0, c=0.5, q=4)
    assert KernelSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_dict_refuses_a_non_integral_degree():
    # an integral float is the integer degree; any other value is refused,
    # not truncated
    assert KernelSpec.from_dict({"family": "polynomial", "q": 3.0}) == KernelSpec("polynomial", q=3)
    for bad in (2.7, np.inf, "3", False):
        with pytest.raises(ValueError, match="kernel field 'q'"):
            KernelSpec.from_dict({"family": "polynomial", "q": bad})


def test_dataset_validation():
    ds = Dataset(np.arange(4.0))
    assert ds.n == 4 and ds.d == 1
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 2)))


def test_standardizer_round_trip():
    rng = np.random.default_rng(5)
    pts = rng.normal(3.0, 2.5, (200, 3))
    std = Standardizer.from_points(pts)
    out = std.apply(pts)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)


def test_standardizer_constant_column():
    pts = np.column_stack([np.ones(10), np.arange(10.0)])
    out = Standardizer.from_points(pts).apply(pts)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-15)


@pytest.mark.parametrize("d", [1, 3, 7])
@pytest.mark.parametrize(
    "spec",
    [KernelSpec("gaussian", rho=0.8), KernelSpec("laplace", rho=1.7), KernelSpec("polynomial", c=1.0, q=3)],
    ids=["gaussian", "laplace", "polynomial"],
)
def test_precomputed_row_norms_are_bitwise_identical(spec, d):
    rng = np.random.default_rng(d)
    pts = rng.normal(0.0, 2.0, (60, d))
    pts = np.vstack([pts, pts[:7], pts[3:4]])  # exact duplicates
    norms = sq_norms(pts)
    for j in (0, 3, 17, 60, pts.shape[0] - 1):
        col = pts[j : j + 1]
        plain = cross_kernel_matrix(spec, pts, col)
        cached = _kernel_block(spec, pts, col, norms)
        assert cached.tobytes() == plain.tobytes()
    block = pts[5:12]
    assert _kernel_block(spec, pts, block, norms).tobytes() == cross_kernel_matrix(spec, pts, block).tobytes()
    # the pool's submatrix form: both operands the same points, their norms given once
    pool = _kernel_block(spec, block, block, norms[5:12])
    assert pool.tobytes() == cross_kernel_matrix(spec, block, block).tobytes()


@functools.lru_cache(maxsize=None)
def _query_callers(d):
    """The four callers of the query rule, each a function of the queries, on points of dimension ``d``."""
    rng = np.random.default_rng(40 + d)
    spec = KernelSpec("gaussian", rho=1.0)
    model = fit(rng.normal(0.0, 1.0, (40, d)), rng.normal(0.3, 1.0, (40, d)), spec, 1e-2)
    cmodel = fit_conditional(JointDataset(x=rng.normal(size=(60, d)), y=rng.normal(size=(60, 1))), spec, 1e-2)
    candidates = rng.normal(size=(30, d))
    return {
        "eval_h": lambda z: eval_h(model, z),
        "eval_density_ratio": lambda z: eval_density_ratio(model, z),
        "conditional_weights": lambda z: conditional_weights(cmodel, z),
        "energy_score": lambda z: energy_score(z, candidates),
    }


# case -> (dimension, queries, rows of the result: None for one point, 0 when refused)
_QUERY_CASES = {
    "scalar": (1, 0.5, None),
    "vector": (3, [0.5, -1.0, 0.2], None),
    "batch": (3, [[0.5, -1.0, 0.2], [0.0, 0.3, -0.4]], 2),
    "3-d": (3, np.zeros((2, 3, 1)), 0),
    "wrong_width": (3, np.zeros((2, 2)), 0),
}


@pytest.mark.parametrize("case", list(_QUERY_CASES))
@pytest.mark.parametrize("caller", ["eval_h", "eval_density_ratio", "conditional_weights", "energy_score"])
def test_every_caller_applies_the_one_query_rule(caller, case):
    # a scalar or a vector is one point and a 2-d array a batch of rows;
    # any other shape or width is a ValueError naming the width and the shape
    d, queries, batch = _QUERY_CASES[case]
    f = _query_callers(d)[caller]
    if batch == 0:
        with pytest.raises(ValueError, match=rf"dimension {d}\b.*{re.escape(str(np.shape(queries)))}"):
            f(queries)
        return
    got = f(queries)
    rows = np.atleast_2d(queries)
    want = np.asarray(f(rows))
    if batch is None:
        # one point: a float, or one row of weights, as the point's row of a batch
        assert want.shape[0] == 1
        assert isinstance(got, float) if caller != "conditional_weights" else got.ndim == 1
        np.testing.assert_allclose(got, want[0], rtol=1e-12, atol=1e-15)
    else:
        assert np.shape(got)[0] == batch
        for row, value in zip(rows, got):
            np.testing.assert_allclose(f(row), value, rtol=1e-12, atol=1e-15)
