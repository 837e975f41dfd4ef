import dataclasses
import math

import numpy as np
import pytest
import scipy.special

from kdm.estimator import PriorSpec, fit
from kdm.hypothesis import (
    C_coefficients,
    _truncation_length,
    chi_square_upper_tail,
    finite_sample_bound,
    run_test,
)
from kdm.kernels import KernelSpec, cross_kernel_matrix
from kdm.lowrank import KernelOracle, pivoted_cholesky


def poisson_sum_upper_tail(x, dof):
    # independent oracle.  Even dof: P[chi2(2m) >= x] is the sum of the first
    # m Poisson(x/2) probabilities.  Odd dof (Abramowitz & Stegun 26.4.5):
    # 2 Q(sqrt(x)) + 2 Z(sqrt(x)) sum_{r=1}^{m} sqrt(x)^(2r-1) / (2r-1)!!,
    # with Q and Z the standard normal tail and density.  Both sums are
    # accumulated in the log domain
    m = dof // 2
    if dof % 2 == 0:
        logs = [-x / 2.0 + k * math.log(x / 2.0) - math.lgamma(k + 1) for k in range(m)]
        head = 0.0
    else:
        # log (2r-1)!! = log (2r)! - r log 2 - log r!
        logs = [
            math.log(2.0) - x / 2.0 - 0.5 * math.log(2.0 * math.pi) + (2 * r - 1) * 0.5 * math.log(x)
            - (math.lgamma(2 * r + 1) - r * math.log(2.0) - math.lgamma(r + 1))
            for r in range(1, m + 1)
        ]
        head = math.erfc(math.sqrt(x / 2.0))
    if not logs:
        return head
    top = max(logs)
    return head + math.exp(top) * sum(math.exp(v - top) for v in logs)


def test_upper_tail_closed_forms():
    assert chi_square_upper_tail(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-12)
    assert chi_square_upper_tail(2.0, 4) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    assert chi_square_upper_tail(3.841459, 1) == pytest.approx(0.05, abs=1e-6)
    assert chi_square_upper_tail(0.0, 3) == 1.0


def test_upper_tail_matches_poisson_sum():
    cases = [(150.0, 100), (80.0, 100), (12.0, 10), (5.0, 2)]
    cases += [(150.0, 101), (80.0, 101), (12.0, 11), (5.0, 3), (0.3, 1), (40.0, 1), (2500.0, 2001)]
    for x, dof in cases:
        assert chi_square_upper_tail(x, dof) == pytest.approx(poisson_sum_upper_tail(x, dof), rel=1e-10)


def test_upper_tail_matches_scipy():
    dofs = list(range(1, 60)) + [99, 100, 101, 499, 500, 1001, 1496, 1497, 2000, 3001]
    for dof in dofs:
        for x in np.concatenate([[1e-8, 1e-3], np.geomspace(0.05, dof + 800.0, 40)]):
            want = scipy.special.gammaincc(dof / 2.0, x / 2.0)
            if want > 1e-290:
                assert chi_square_upper_tail(float(x), dof) == pytest.approx(want, rel=1e-10), (x, dof)


def test_upper_tail_guards():
    # an infinite statistic, as a degenerate fit can give, has tail 0
    assert chi_square_upper_tail(math.inf, 1) == 0.0
    assert chi_square_upper_tail(math.inf, 40) == 0.0
    for x, dof in [(1.0, 0), (-1.0, 2), (math.nan, 2), (1.0, 2.0), (1.0, 2.5), (1.0, -3), (1.0, None)]:
        with pytest.raises(ValueError):
            chi_square_upper_tail(x, dof)


def fitted_model(seed=0, n=150, shift=0.0, lam=1e-3):
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, 1.0, (n, 2))
    q = rng.normal(shift, 1.0, (n, 2))
    return fit(p, q, KernelSpec("gaussian", rho=1.0), lam=lam)


def refactor(model, p, q):
    """Pivoted Cholesky factors of the model's stacked sample, recomputed in its kernel coordinates."""
    f = pivoted_cholesky(KernelOracle(model.kernel, model.standardizer.apply(np.vstack([p, q]))), model.epsilon)
    np.testing.assert_array_equal(f.pivots, model.pivots)
    return f


def test_sample_variable_via_kernel_identity():
    # L = K[:, piv] R, so the moment gap can be recomputed from raw kernel
    # columns at the pivots
    rng = np.random.default_rng(7)
    p = rng.normal(0.0, 1.0, (120, 2))
    q = rng.normal(0.3, 1.0, (120, 2))
    model = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-3)
    r = refactor(model, p, q).R
    k_q = cross_kernel_matrix(model.kernel, model.pivot_points, model.standardizer.apply(q))
    k_p = cross_kernel_matrix(model.kernel, model.pivot_points, model.standardizer.apply(p))
    direct = r.T @ (k_q @ np.ones(120) - k_p @ np.ones(120))
    np.testing.assert_allclose(model.moment_gap / np.sqrt(120), direct / np.sqrt(120), rtol=1e-7, atol=1e-9)


def test_covariance_matches_empirical_covariances():
    rng = np.random.default_rng(11)
    p = rng.normal(0.0, 1.0, (100, 2))
    q = rng.normal(0.2, 1.0, (100, 2))
    model = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-3)
    l = refactor(model, p, q).Lt.T
    l_p, l_q, p_star = l[:100], l[100:], np.ones(100)
    expected = np.cov(l_q.T, bias=True) + np.cov((l_p * p_star[:, None]).T, bias=True)
    sig = model.covariance
    np.testing.assert_allclose(sig, expected, rtol=1e-10, atol=1e-14)
    np.testing.assert_array_equal(sig, sig.T)
    assert np.min(np.linalg.eigvalsh(sig)) >= -1e-10


@pytest.mark.parametrize(
    "prior",
    [PriorSpec.zero(), PriorSpec.custom(lambda z: 1.0 + 0.5 * np.tanh(z[:, 0]), pi_inf=1.5)],
    ids=["zero", "custom"],
)
def test_covariance_and_gap_match_empirical_moments_per_prior(prior):
    # the prior one is the test above; the zero prior drops the P block and
    # a custom prior weights the P rows by p*
    rng = np.random.default_rng(11)
    p = rng.normal(0.0, 1.0, (100, 2))
    q = rng.normal(0.2, 1.0, (100, 2))
    model = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-3, prior=prior)
    l = refactor(model, p, q).Lt.T
    l_p, l_q, p_star = l[:100], l[100:], prior.evaluate(p)
    expected = np.cov(l_q.T, bias=True) + np.cov((l_p * p_star[:, None]).T, bias=True)
    np.testing.assert_allclose(model.covariance, expected, rtol=1e-10, atol=1e-14)
    np.testing.assert_array_equal(model.covariance, model.covariance.T)
    np.testing.assert_allclose(model.moment_gap, l_q.sum(axis=0) - l_p.T @ p_star, rtol=1e-12, atol=1e-12)


def test_statistic_independent_of_ridge():
    a = fitted_model(seed=3, lam=1e-4)
    b = fitted_model(seed=3, lam=10.0)
    ra, rb = run_test(a), run_test(b)
    assert ra.statistic == rb.statistic
    assert ra.ell == rb.ell
    assert ra.p_value == rb.p_value


def test_truncation_length_rules():
    eig = np.array([1.0, 1e-3, 1e-12, 0.0])
    assert _truncation_length(eig, "relative", 1e-9) == 2
    assert _truncation_length(eig, "relative", 1e-15) == 3
    assert _truncation_length(np.array([0.9, 0.09, 0.01]), "explained", 0.99) == 2
    assert _truncation_length(np.array([0.9, 0.09, 0.01]), "explained", 1.0) == 3
    # the cumulative fractions of these eight end one ulp below 1, and t = 1
    # must still keep no more than the positive eigenvalues
    eight = np.array([0.93, 0.84, 0.76, 0.72, 0.51, 0.07, 0.03, 0.02])
    assert _truncation_length(eight, "explained", 1.0) == 8
    assert _truncation_length(np.append(eight, 0.0), "explained", 1.0) == 8
    assert _truncation_length(np.zeros(3), "relative", 1e-9) == 0
    with pytest.raises(ValueError):
        _truncation_length(eig, "relative", 0.0)
    with pytest.raises(ValueError):
        _truncation_length(eig, "explained", 1.5)
    with pytest.raises(ValueError):
        _truncation_length(eig, "other", 0.5)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_relative_truncation_needs_a_finite_t(t):
    # a NaN or infinite t kept no eigenvalue, so the test reported ell 0 and
    # p-value 1: "the prior explains the data", whatever the data
    for eig in (np.array([1.0, 1e-3, 0.0]), np.zeros(3)):
        with pytest.raises(ValueError, match="finite t > 0"):
            _truncation_length(eig, "relative", t)
    with pytest.raises(ValueError, match="finite t > 0"):
        run_test(fitted_model(seed=4), t=t)


def test_explained_truncation_skips_a_floored_eigenvalue():
    # with one eigenvalue at zero, ell = 9 divided by it: statistic inf, p 0
    rng = np.random.default_rng(0)
    p, q = rng.normal(0.0, 1.0, (150, 2)), rng.normal(0.0, 1.0, (150, 2))
    model = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-3, max_rank=9)
    eig = np.array([0.93, 0.84, 0.76, 0.72, 0.51, 0.07, 0.03, 0.02, 0.0])
    model = dataclasses.replace(model, covariance=np.diag(eig))
    res = run_test(model, truncation="explained", t=1.0)
    assert res.ell == 8
    v = model.moment_gap / np.sqrt(model.n)
    assert res.statistic == pytest.approx(float(np.sum(v[:8] ** 2 / eig[:8])), rel=1e-12)
    assert 0.0 < res.p_value < 1.0


def test_degenerate_covariance_gives_null_result():
    pts = np.zeros((20, 1))
    model = fit(pts, pts, KernelSpec("gaussian", rho=1.0), lam=1e-3)
    res = run_test(model)
    assert res.ell == 0
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_detects_mean_shift_and_accepts_null():
    null = run_test(fitted_model(seed=21, n=400, shift=0.0))
    alt = run_test(fitted_model(seed=21, n=400, shift=0.8))
    assert null.p_value > 0.01
    assert alt.p_value < 1e-4


def test_explained_truncation_runs():
    res = run_test(fitted_model(seed=5), truncation="explained", t=0.95)
    assert 1 <= res.ell <= res.rank
    assert 0.0 <= res.p_value <= 1.0


def test_finite_sample_bound_frozen_case():
    b = finite_sample_bound(eta=0.1, lam=0.5, n=100, epsilon=0.04, kappa_inf=1.0, pi_inf=1.0)
    assert b.c_fs == pytest.approx(9.790987322723266, rel=1e-12)
    assert b.c_ae == pytest.approx(0.965685424949238, rel=1e-12)
    assert b.rhs == pytest.approx(2.151334549534501, rel=1e-12)


def test_finite_sample_bound_guards():
    for kwargs in (
        dict(eta=0.0, lam=0.5, n=100, epsilon=0.0, kappa_inf=1.0, pi_inf=1.0),
        dict(eta=1.0, lam=0.5, n=100, epsilon=0.0, kappa_inf=1.0, pi_inf=1.0),
        dict(eta=0.1, lam=0.0, n=100, epsilon=0.0, kappa_inf=1.0, pi_inf=1.0),
        dict(eta=0.1, lam=0.5, n=100, epsilon=-1.0, kappa_inf=1.0, pi_inf=1.0),
    ):
        with pytest.raises(ValueError):
            finite_sample_bound(**kwargs)


# the keys of every test report; the norm check adds five when eta is given
REPORT_KEYS = {
    "statistic",
    "ell",
    "p_value",
    "truncation",
    "threshold",
    "n",
    "rank",
    "residual_trace",
    "hit_rank_cap",
}


def test_norm_check_reported_with_eta():
    model = fitted_model(seed=9, n=200, shift=0.0, lam=1e-3)
    res = run_test(model, eta=0.05)
    assert res.h_norm is not None and res.h_norm >= 0.0
    assert res.norm_bound == pytest.approx(
        finite_sample_bound(0.05, model.lam, model.n, model.epsilon, model.kappa_inf, 1.0).rhs
    )
    assert res.bound_holds is True
    d = res.to_dict()
    assert set(d) == REPORT_KEYS | {"h_norm", "norm_bound", "bound_holds", "c_fs", "c_ae"}
    assert (d["h_norm"], d["norm_bound"], d["bound_holds"]) == (res.h_norm, res.norm_bound, res.bound_holds)


def test_to_dict_without_norm_check():
    model = fitted_model(seed=9)
    d = run_test(model).to_dict()
    assert set(d) == REPORT_KEYS
    assert d["hit_rank_cap"] is False
    assert d["residual_trace"] == model.residual_trace <= model.epsilon


def test_norm_bound_uses_residual_trace_when_rank_capped():
    # with max_rank=20 the decomposition stops far above its requested
    # tolerance; a bound computed from the requested epsilon came out 257x
    # smaller than the one the achieved residual trace gives
    rng = np.random.default_rng(0)
    p = rng.normal(0.0, 1.0, (1500, 3))
    q = rng.normal(0.0, 1.0, (1500, 3))
    model = fit(p, q, KernelSpec("gaussian", rho=0.3), lam=1e-3, max_rank=20)
    assert model.hit_rank_cap and model.residual_trace > 100 * model.epsilon
    res = run_test(model, eta=0.1)
    reached = finite_sample_bound(0.1, model.lam, model.n, model.residual_trace, model.kappa_inf, 1.0)
    requested = finite_sample_bound(0.1, model.lam, model.n, model.epsilon, model.kappa_inf, 1.0)
    assert res.norm_bound == pytest.approx(reached.rhs, rel=1e-12)
    assert res.norm_bound > 200 * requested.rhs
    d = res.to_dict()
    assert d["hit_rank_cap"] is True
    assert d["residual_trace"] == model.residual_trace


def test_norm_check_reports_c_ae_of_the_residual_trace_reached():
    # the approximation term of a capped fit uses max(epsilon, residual
    # trace), here the trace; the sampling term has no epsilon in it
    rng = np.random.default_rng(0)
    p = rng.normal(0.0, 1.0, (1500, 3))
    q = rng.normal(0.0, 1.0, (1500, 3))
    model = fit(p, q, KernelSpec("gaussian", rho=0.3), lam=1e-3, max_rank=20)
    assert model.residual_trace > model.epsilon
    res = run_test(model, eta=0.1)
    reached = finite_sample_bound(0.1, model.lam, model.n, model.residual_trace, model.kappa_inf, 1.0)
    assert (res.c_fs, res.c_ae, res.norm_bound) == (reached.c_fs, reached.c_ae, reached.rhs)
    assert res.c_ae > finite_sample_bound(0.1, model.lam, model.n, model.epsilon, model.kappa_inf, 1.0).c_ae
    d = res.to_dict()
    assert (d["c_fs"], d["c_ae"]) == (reached.c_fs, reached.c_ae)
    assert {"c_fs", "c_ae"}.isdisjoint(run_test(model).to_dict())

