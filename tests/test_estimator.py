import dataclasses
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdm import estimator, lowrank
from kdm.conditional import JointDataset, fit_conditional
from kdm.estimator import (
    PriorSpec,
    cross_validate,
    eval_density_ratio,
    eval_h,
    fit,
    h_norm,
    load_model,
    save_model,
)
from kdm.hypothesis import run_test
from kdm.kernels import KernelSpec, cross_kernel_matrix
from kdm.lowrank import KernelOracle, NumericsError, pivoted_cholesky
from reference import eval_h_full, fit_full, h_norm_gram, rkhs_gap, validation_loss


def bernoulli_samples(p_head, q_head, n, rng):
    p = (rng.uniform(0, 1, n) < p_head).astype(float)[:, None]
    q = (rng.uniform(0, 1, n) < q_head).astype(float)[:, None]
    return p, q


def test_prior_spec_evaluate():
    pts = np.array([[0.0], [2.0]])
    np.testing.assert_array_equal(PriorSpec.one().evaluate(pts), [1.0, 1.0])
    np.testing.assert_array_equal(PriorSpec.zero().evaluate(pts), [0.0, 0.0])
    custom = PriorSpec.custom(lambda z: z[:, 0] + 1.0, pi_inf=3.0)
    np.testing.assert_array_equal(custom.evaluate(pts), [1.0, 3.0])


def test_prior_sup_violation_warns():
    prior = PriorSpec.custom(lambda z: 10.0 * np.ones(z.shape[0]), pi_inf=1.0)
    with pytest.warns(RuntimeWarning):
        prior.evaluate(np.zeros((3, 1)))


def test_prior_bad_evaluator():
    with pytest.raises(ValueError):
        PriorSpec.custom(lambda z: np.ones(z.shape[0] + 1), pi_inf=1.0).evaluate(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        PriorSpec.custom(lambda z: np.full(z.shape[0], np.nan), pi_inf=1.0).evaluate(np.zeros((3, 1)))


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_prior_bound_must_be_finite_and_nonnegative(bad):
    # a NaN bound made run_test report norm_bound NaN and bound_holds False,
    # and an infinite one a bound that holds trivially.  One check at
    # construction covers the constructor, the class methods and
    # dataclasses.replace
    message = re.escape(f"pi_inf must be a finite number >= 0, got {bad!r}")

    def ones(z):
        return np.ones(z.shape[0])

    for make in (
        lambda: PriorSpec.custom(ones, bad),
        lambda: PriorSpec(kind="custom", pi_inf=bad, func=ones),
        lambda: PriorSpec(kind="one", pi_inf=bad),
        lambda: dataclasses.replace(PriorSpec.one(), pi_inf=bad),
        lambda: dataclasses.replace(PriorSpec.custom(ones, 1.0), pi_inf=bad),
    ):
        with pytest.raises(ValueError, match=message):
            make()
    assert PriorSpec.custom(lambda z: np.zeros(z.shape[0]), 0).pi_inf == 0.0


def test_prior_kind_and_evaluator_are_checked_at_construction():
    with pytest.raises(ValueError, match="unknown prior kind 'half'"):
        PriorSpec(kind="half", pi_inf=0.5)
    with pytest.raises(ValueError, match="unknown prior kind 'One'"):
        dataclasses.replace(PriorSpec.one(), kind="One")
    for func in (None, 1.0):
        with pytest.raises(ValueError, match="a custom prior needs a callable func"):
            PriorSpec(kind="custom", pi_inf=1.0, func=func)
    with pytest.raises(ValueError, match="a custom prior needs a callable func"):
        dataclasses.replace(PriorSpec.one(), kind="custom")
    for bad in ("1", None, 1j):
        with pytest.raises(ValueError, match=re.escape(f"pi_inf must be a finite number >= 0, got {bad!r}")):
            PriorSpec(kind="one", pi_inf=bad)
    assert type(PriorSpec(kind="one", pi_inf=np.float32(1.0)).pi_inf) is float
    assert (PriorSpec.zero().kind, PriorSpec.zero().pi_inf) == ("zero", 0.0)
    assert (PriorSpec.one().kind, PriorSpec.one().pi_inf) == ("one", 1.0)
    custom = PriorSpec.custom(lambda z: np.full(z.shape[0], 0.5), 2)
    assert (custom.kind, custom.pi_inf) == ("custom", 2.0)
    np.testing.assert_array_equal(custom.evaluate(np.zeros((3, 1))), [0.5, 0.5, 0.5])


def test_discrete_ratio_recovery_exact_counts():
    # two-point sample space; with exact counts the vanishing-ridge limit of
    # the estimated ratio at z is (Q count at z) / (P count at z)
    p = np.array([0.0] * 1000 + [1.0] * 1000)[:, None]
    q = np.array([0.0] * 600 + [1.0] * 1400)[:, None]
    model = fit(p, q, KernelSpec("gaussian", rho=0.5), lam=1e-8)
    assert model.rank == 2
    assert eval_density_ratio(model, np.array([0.0])) == pytest.approx(0.6, abs=1e-4)
    assert eval_density_ratio(model, np.array([1.0])) == pytest.approx(1.4, abs=1e-4)


def test_identical_samples_give_negligible_correction():
    # pivoting breaks the duplicate-row symmetry, so the correction is
    # roundoff-level rather than bitwise zero
    rng = np.random.default_rng(0)
    pts = rng.normal(0, 1, (80, 2))
    model = fit(pts, pts.copy(), KernelSpec("gaussian", rho=1.0), lam=1e-3)
    assert h_norm(model) <= 1e-6
    ratios = eval_density_ratio(model, rng.normal(0, 1, (30, 2)))
    np.testing.assert_allclose(ratios, np.ones(30), atol=1e-6)


def test_huge_ridge_shrinks_to_prior():
    rng = np.random.default_rng(1)
    p, q = rng.normal(0, 1, (100, 1)), rng.normal(1, 1, (100, 1))
    model = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e12)
    # the stored right-hand side is L_Q^T 1 - L_P^T p* of the same factors,
    # which are taken in the model's kernel coordinates
    zs = model.standardizer.apply(np.vstack([p, q]))
    f = pivoted_cholesky(KernelOracle(model.kernel, zs), model.epsilon)
    np.testing.assert_array_equal(f.pivots, model.pivots)
    l = f.Lt.T
    rhs = l[100:].T @ np.ones(100) - l[:100].T @ np.ones(100)
    np.testing.assert_allclose(model.moment_gap, rhs, rtol=1e-12, atol=1e-12)
    assert np.linalg.norm(model.beta) <= 1e-6 * np.linalg.norm(model.moment_gap)


def test_rank_capped_fit_holds_one_factor():
    # the factor exists once, as the rank-major rows the decomposition wrote:
    # with a second N x m copy the traced peak reached 2.14 N m 8 bytes
    rng = np.random.default_rng(17)
    n, cap = 2000, 200
    p, q = rng.normal(0, 1, (n, 4)), rng.normal(0.3, 1, (n, 4))
    tracemalloc.start()
    try:
        model = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-3, max_rank=cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.rank == cap and model.hit_rank_cap
    assert peak < 1.8 * (2 * n) * cap * 8


def test_rank_capped_fit_covariance_needs_no_m_by_n_temporary():
    # with the prior one the P block of the covariance is the Gram; forming
    # it as (L_P^T * p*^2) L_P took an m x n temporary, and the traced peak
    # was 1.63 N m 8 bytes at this size.  What remains above the factor is
    # mostly the loop's (32, N) block of Schur products: 1.18.
    rng = np.random.default_rng(18)
    n, cap = 5000, 400
    p, q = rng.normal(0, 1, (n, 4)), rng.normal(0.3, 1, (n, 4))
    tracemalloc.start()
    try:
        model = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-3, max_rank=cap, prior=PriorSpec.one())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.rank == cap and model.hit_rank_cap and model.covariance is not None
    assert peak < 1.25 * (2 * n) * cap * 8


def test_fit_is_deterministic():
    rng = np.random.default_rng(8)
    p, q = rng.normal(0, 1, (60, 2)), rng.normal(0.5, 1, (60, 2))
    a = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-2)
    b = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-2)
    np.testing.assert_array_equal(a.beta, b.beta)
    np.testing.assert_array_equal(a.pivots, b.pivots)


def test_unequal_sizes_truncate_with_warning():
    rng = np.random.default_rng(3)
    p, q = rng.normal(0, 1, (50, 1)), rng.normal(0, 1, (40, 1))
    with pytest.warns(RuntimeWarning):
        model = fit(p, q, KernelSpec("gaussian"), lam=1e-2)
    assert model.n == 40


def test_fit_validation_errors():
    rng = np.random.default_rng(4)
    p = rng.normal(0, 1, (20, 1))
    with pytest.raises(ValueError):
        fit(p, p, KernelSpec("gaussian"), lam=0.0)
    with pytest.raises(ValueError):
        fit(p, rng.normal(0, 1, (20, 2)), KernelSpec("gaussian"), lam=1e-2)
    model = fit(p, p, KernelSpec("gaussian"), lam=1e-2)
    with pytest.raises(ValueError):
        eval_h(model, np.zeros(3))


def test_h_norm_dual_paths_agree():
    # ||w|| (the biorthogonal identity) against sqrt(beta^T K[piv, piv] beta)
    rng = np.random.default_rng(5)
    for spec in (
        KernelSpec("gaussian", rho=0.7),
        KernelSpec("laplace", rho=1.1),
        KernelSpec("polynomial", c=1.0, q=2),
    ):
        p, q = rng.normal(0, 1, (70, 2)), rng.normal(0.4, 1.2, (70, 2))
        model = fit(p, q, spec, lam=1e-2)
        assert h_norm_gram(model) == pytest.approx(h_norm(model), rel=1e-8)


def test_pivot_evaluation_consistency():
    # h at the pivot points equals K[piv, piv] beta; the model keeps the
    # pivots in kernel coordinates and eval_h takes data coordinates
    rng = np.random.default_rng(12)
    p, q = rng.normal(0, 1, (50, 2)), rng.normal(0.2, 1, (50, 2))
    model = fit(p, q, KernelSpec("gaussian", rho=1.3), lam=1e-2)
    raw = np.vstack([p, q])[model.pivots]
    np.testing.assert_array_equal(model.standardizer.apply(raw), model.pivot_points)
    kpp = cross_kernel_matrix(model.kernel, model.pivot_points, model.pivot_points)
    np.testing.assert_allclose(eval_h(model, raw), kpp @ model.beta, rtol=1e-10, atol=1e-12)


def test_complete_decomposition_matches_dense_fit():
    rng = np.random.default_rng(6)
    for trial in range(4):
        n = int(rng.integers(40, 120))
        d = int(rng.integers(1, 3))
        p, q = rng.normal(0, 1, (n, d)), rng.normal(0.3, 1, (n, d))
        lam = 10.0 ** rng.uniform(-3, 0)
        spec = KernelSpec("gaussian", rho=float(rng.uniform(0.5, 2.0)))
        full = fit_full(p, q, spec, lam)
        low = fit(p, q, spec, lam, epsilon=0.0)
        zs = rng.normal(0, 1.2, (60, d))
        hf, hl = eval_h_full(full, zs), eval_h(low, zs)
        scale = 1.0 + np.max(np.abs(hf))
        assert np.max(np.abs(hf - hl)) <= 1e-6 * scale


def test_partial_decomposition_gap_bound():
    # RKHS distance between dense and low-rank fits obeys the epsilon bound
    rng = np.random.default_rng(10)
    for trial in range(4):
        n = int(rng.integers(40, 100))
        p, q = rng.normal(0, 1, (n, 2)), rng.normal(0.3, 1, (n, 2))
        lam = 10.0 ** rng.uniform(-2, 0)
        spec = KernelSpec("gaussian", rho=1.0)
        eps = 0.05 * 2 * n  # trace of a unit-diagonal kernel matrix is 2n
        full = fit_full(p, q, spec, lam)
        low = fit(p, q, spec, lam, epsilon=eps)
        kappa, pi = 1.0, 1.0
        bound = np.sqrt(eps) * (1 + np.sqrt(kappa / lam)) * (pi + 1) / (lam * np.sqrt(n))
        assert rkhs_gap(full, low) <= bound


def test_fit_full_guards():
    rng = np.random.default_rng(2)
    p = rng.normal(0, 1, (30, 1))
    with pytest.raises(ValueError):
        fit_full(p, p, KernelSpec("gaussian"), lam=-1.0)
    with pytest.raises(ValueError):
        fit_full(p, p, KernelSpec("gaussian"), lam=1e-2, max_points=10)


def test_validation_loss_matches_direct_sums():
    rng = np.random.default_rng(13)
    p, q = rng.normal(0, 1, (60, 1)), rng.normal(0.5, 1, (60, 1))
    model = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-2)
    vp, vq = rng.normal(0, 1, (25, 1)), rng.normal(0.5, 1, (35, 1))
    hp = np.array([eval_h(model, z) for z in vp])
    hq = np.array([eval_h(model, z) for z in vq])
    expected = -2.0 * (hq.mean() - np.mean(1.0 * hp)) + np.mean(hp**2)
    assert validation_loss(model, vp, vq) == pytest.approx(expected, rel=1e-12)


def test_validation_loss_prefers_signal_over_shrinkage():
    # with a real density-ratio signal, fitting beats shrinking to the prior
    rng = np.random.default_rng(14)
    p, q = bernoulli_samples(0.5, 0.8, 400, rng)
    model_fit = fit(p, q, KernelSpec("gaussian", rho=0.5), lam=1e-4)
    model_null = fit(p, q, KernelSpec("gaussian", rho=0.5), lam=1e8)
    vp, vq = bernoulli_samples(0.5, 0.8, 400, rng)
    assert validation_loss(model_fit, vp, vq) < validation_loss(model_null, vp, vq)


def test_cross_validate_deterministic_and_sane():
    rng = np.random.default_rng(15)
    p, q = bernoulli_samples(0.5, 0.8, 300, rng)
    kernels, lambdas = [KernelSpec("gaussian", rho=0.5)], [1e-4, 1e8]
    a = cross_validate(p, q, kernels, lambdas, folds=5, seed=42)
    b = cross_validate(p, q, kernels, lambdas, folds=5, seed=42)
    np.testing.assert_array_equal(a.mean_losses, b.mean_losses)
    assert (a.kernel, a.lam) == (b.kernel, b.lam)
    assert a.lam == 1e-4  # shrinkage to the (wrong) prior loses


def test_cross_validate_tie_goes_to_first_entry():
    rng = np.random.default_rng(16)
    p, q = rng.normal(0, 1, (40, 1)), rng.normal(0, 1, (40, 1))
    spec = KernelSpec("gaussian", rho=1.0)
    res = cross_validate(p, q, [spec], [1e-3, 1e-3], folds=4, seed=0)
    assert res.mean_losses[0, 0] == res.mean_losses[0, 1]
    assert res.lam == 1e-3


def test_cross_validate_scores_each_kernel_at_every_lambda():
    # row i of the (kernel, lambda) losses is the one-kernel search on
    # kernels[i], bit for bit, and the choice is the argmin in kernel-major order
    rng = np.random.default_rng(30)
    p, q = rng.normal(0, 1, (60, 2)), rng.normal(0.5, 1, (60, 2))
    kernels = [KernelSpec("gaussian", rho=0.5), KernelSpec("laplace", rho=2.0)]
    lambdas = [1e-1, 1e-4, 1e-2]
    res = cross_validate(p, q, kernels, lambdas, folds=3, seed=7)
    assert res.mean_losses.shape == (2, 3)
    for i, kern in enumerate(kernels):
        alone = cross_validate(p, q, [kern], lambdas, folds=3, seed=7)
        assert res.mean_losses[i].tobytes() == alone.mean_losses[0].tobytes()
    i, j = np.unravel_index(np.argmin(res.mean_losses), (2, 3))
    assert (res.kernel, res.lam) == (kernels[i], lambdas[j])


def decompose(p, q, spec, prior=None):
    """The decomposition fit() makes of equal-sized samples p and q, covariance included."""
    return estimator._decompose(p, q, spec, prior, with_covariance=True)


def documented_folds(n, folds, seed):
    """(train P, train Q, validation P, validation Q) row indices of each fold.

    These are the folds cross_validate documents: one permutation per sample
    from ``seed``, split into ``folds`` chunks, the i-th chunks validating.
    """
    fold_rng = np.random.default_rng(seed)
    chunks_p = np.array_split(fold_rng.permutation(n), folds)
    chunks_q = np.array_split(fold_rng.permutation(n), folds)
    rest = [[j for j in range(folds) if j != f] for f in range(folds)]
    return [
        (np.concatenate([chunks_p[j] for j in rest[f]]), np.concatenate([chunks_q[j] for j in rest[f]]),
         chunks_p[f], chunks_q[f])
        for f in range(folds)
    ]


def separate_fit_losses(p, q, spec, lambdas, folds, seed, **kwargs):
    """(lambda, fold) losses of fresh fits on the documented folds."""
    losses = np.empty((len(lambdas), folds))
    for f, (tr_p, tr_q, va_p, va_q) in enumerate(documented_folds(p.shape[0], folds, seed)):
        for g, lam in enumerate(lambdas):
            losses[g, f] = validation_loss(fit(p[tr_p], q[tr_q], spec, lam, **kwargs), p[va_p], q[va_q])
    return losses


def test_cross_validate_lambda_path_matches_separate_fits(monkeypatch):
    # one reduction of each fold's Gram serves the whole path: each (fold,
    # lambda) loss equals validation_loss of a fresh fit at its lambda to
    # roundoff (the fresh fit factors G + n*lam*I by Cholesky), the lambdas
    # need not be sorted, and a repeated lambda repeats its loss exactly
    rng = np.random.default_rng(23)
    p, q = rng.normal(0, 1, (90, 2)), rng.normal(0.4, 1, (90, 2))
    spec = KernelSpec("gaussian", rho=1.0)
    lambdas = [1e-1, 1e-6, 1e-2, 1e-4, 1e-6, 3.0]
    folds, losses = [], []

    def spy_factor(tr_p, tr_q, kern, **kwargs):
        folds.append((tr_p, tr_q))
        return real_factor(tr_p, tr_q, kern, **kwargs)

    def spy_loss(hp, hq, pbar):
        loss = real_loss(hp, hq, pbar)
        losses.append(loss)
        return loss

    real_factor, real_loss = estimator._factor, estimator._quadratic_loss
    monkeypatch.setattr(estimator, "_factor", spy_factor)
    monkeypatch.setattr(estimator, "_quadratic_loss", spy_loss)
    res = cross_validate(p, q, [spec], lambdas, folds=3, seed=5)
    monkeypatch.undo()
    # one factoring and one loss evaluation per fold cover every lambda
    assert len(folds) == 3 and len(losses) == 3
    for (tr_p, tr_q), (idx_p, idx_q, _, _) in zip(folds, documented_folds(90, 3, 5)):
        np.testing.assert_array_equal(tr_p, p[idx_p])
        np.testing.assert_array_equal(tr_q, q[idx_q])
    expected = separate_fit_losses(p, q, spec, lambdas, 3, 5)
    # each fold's losses cover its distinct lambdas, in ascending order
    distinct = [lambdas.index(lam) for lam in sorted(set(lambdas))]
    np.testing.assert_allclose(np.column_stack(losses), expected[distinct], rtol=1e-8)
    np.testing.assert_allclose(res.mean_losses[0], expected.mean(axis=1), rtol=1e-8)
    assert res.mean_losses[0, 1] == res.mean_losses[0, 4]
    assert res.lam == lambdas[int(np.argmin(expected.mean(axis=1)))]


@pytest.mark.parametrize("case", ["rank1", "rank2"])
def test_cross_validate_lambda_path_at_rank_one_and_two(case):
    # identical points give a rank-1 factor, which has no reflectors, and two
    # distinct values a rank-2 one, whose single reflector is the identity
    rng = np.random.default_rng(29)
    if case == "rank1":
        p, q, prior = np.zeros((30, 1)), np.zeros((30, 1)), PriorSpec.zero()
    else:
        (p, q), prior = bernoulli_samples(0.3, 0.7, 60, rng), PriorSpec.one()
    spec = KernelSpec("gaussian", rho=1.0)
    lambdas = [1e-2, 1e-5, 1.0, 1e-5]
    assert fit(p, q, spec, 1e-2, prior=prior).rank == (1 if case == "rank1" else 2)
    res = cross_validate(p, q, [spec], lambdas, folds=3, seed=2, prior=prior)
    expected = separate_fit_losses(p, q, spec, lambdas, 3, 2, prior=prior)
    np.testing.assert_allclose(res.mean_losses[0], expected.mean(axis=1), rtol=1e-8)
    assert len(set(res.mean_losses[0].tolist())) == 3


def test_ridge_solve_keeps_the_gram_and_rejects_a_nan_system():
    rng = np.random.default_rng(25)
    p, q = rng.normal(0, 1, (60, 2)), rng.normal(0.3, 1, (60, 2))
    dec = decompose(p, q, KernelSpec("gaussian", rho=1.0))
    gram = dec.gram.copy()
    model = estimator._model(dec, 1e-3)
    m = model.rank
    np.testing.assert_allclose((gram + 60 * 1e-3 * np.eye(m)) @ model.w, model.moment_gap, rtol=1e-10, atol=1e-12)
    # a solve after another gives the first bits, and the path the same
    # weights to roundoff: no solve writes to the shared Gram
    estimator._solve(dec, 1e-1)
    w, beta = estimator._solve(dec, 1e-3)
    assert w.tobytes() == model.w.tobytes() and beta.tobytes() == model.beta.tobytes()
    path = estimator._solve(dec, np.array([1e-1, 1e-3]))[0]
    np.testing.assert_allclose(path[:, 1], model.w, rtol=1e-9, atol=1e-12 * np.abs(model.w).max())
    assert dec.gram.tobytes() == gram.tobytes()
    gram[m - 1, m - 2] = np.nan
    for solve in (lambda d: estimator._model(d, 1e-3), lambda d: estimator._solve(d, np.array([1e-3, 1.0]))):
        with pytest.raises(NumericsError, match="not positive definite"):
            solve(dataclasses.replace(dec, gram=gram))


@pytest.mark.parametrize("family", ["gaussian", "laplace"])
@pytest.mark.parametrize("prior", ["one", "zero"])
def test_low_rank_fits_are_prefixes_of_one_factor(family, prior):
    # the greedy rule reads only the residual of earlier pivots, so a fit
    # capped at m takes the first m pivots of a fit capped at M > m, and
    # the first m rows of a factor are the factor of its first m pivots: the
    # reduction of those rows, and the separate fit, give the leading blocks
    # of the rank-M Gram, gap, covariance, pivot block and R.  At 1,500 +
    # 1,500 points the later steps run in blocks
    rng = np.random.default_rng(41)
    n, cap = 1500, 300
    p, q = rng.normal(0, 1, (n, 3)), rng.normal(0.2, 1.1, (n, 3))
    spec, prior = KernelSpec(family, rho=0.5), getattr(PriorSpec, prior)()
    factors = estimator._factor(p, q, spec, max_rank=cap)[0]
    assert factors.rank == cap and factors.hit_rank_cap
    p_star = prior.evaluate(p)
    gram, gap, cov = estimator._reduce(factors.Lt[:, :n], factors.Lt[:, n:], prior, p_star, True)

    def close(a, b):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    for m in (20, 150, 299):
        rows = factors.Lt[:m]
        prefix = estimator._reduce(rows[:, :n], rows[:, n:], prior, p_star, True)
        part = estimator._decompose(p, q, spec, prior, with_covariance=True, max_rank=m)
        np.testing.assert_array_equal(part.fields["pivots"], factors.pivots[:m])
        for lead in (prefix[0], part.gram):
            close(lead, gram[:m, :m])
        for lead in (prefix[1], part.fields["moment_gap"]):
            close(lead, gap[:m])
        for lead in (prefix[2], part.fields["covariance"]):
            close(lead, cov[:m, :m])
        close(part.U, factors.Lt[:m, factors.pivots[:m]])
        close(lowrank._upper_solve(part.U, np.eye(m)), factors.R[:m, :m])


@pytest.mark.parametrize("family", ["gaussian", "laplace"])
@pytest.mark.parametrize("rank", [40, 150])
def test_fits_solve_for_beta_without_forming_r(monkeypatch, family, rank):
    # beta = R w is one triangular solve with the pivot block: no fit,
    # conditional fit or cv fold reads the factors' R, and each fit's beta
    # is that of R, formed afterwards on the same factors.  The ranks lie on
    # both sides of one leaf of the solve
    rng = np.random.default_rng(43)
    p, q = rng.normal(0, 1, (500, 2)), rng.normal(0.3, 1.1, (500, 2))
    spec = KernelSpec(family, rho=0.3)
    factored = []

    def spy_cholesky(*args, **kwargs):
        factored.append(real_cholesky(*args, **kwargs))
        return factored[-1]

    def no_r(factors):
        raise AssertionError("a fit read CholeskyFactors.R")

    real_cholesky = estimator.pivoted_cholesky
    monkeypatch.setattr(estimator, "pivoted_cholesky", spy_cholesky)
    monkeypatch.setattr(lowrank.CholeskyFactors, "R", property(no_r))
    models = [
        fit(p, q, spec, 1e-3, max_rank=rank),
        fit_conditional(JointDataset(p[:, :1], p[:, 1:]), spec, 1e-3, max_rank=rank).base,
    ]
    cross_validate(p, q, [spec], [1e-3, 1e-1], folds=3, max_rank=rank)
    monkeypatch.undo()
    assert len(factored) == 2 + 3
    assert 40 < lowrank.INVERSE_LEAF < 150
    for model, factors in zip(models, factored):
        assert model.rank == factors.rank == rank
        want = factors.R @ model.w
        assert np.abs(model.beta - want).max() <= 1e-10 * np.abs(want).max()
    # a pivot block whose solve is not finite fails the fit
    dec = decompose(p, q, spec)
    dec.U[0, -1] = np.inf
    with pytest.raises(NumericsError, match="triangular solve"):
        estimator._model(dec, 1e-3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    case=st.sampled_from(["one point", "full rank", "duplicated"]),
    prior=st.sampled_from(["one", "zero"]),
    lambdas=st.lists(st.sampled_from([1e-6, 1e-4, 1e-2, 1.0, 10.0]), min_size=1, max_size=5),
)
def test_path_weights_match_a_dense_solve_at_every_lambda(seed, n, case, prior, lambdas):
    # column j of the path solves (G + n lambda_j I) w = gap.  Both routes
    # are backward stable, so they agree to a forward error of the order of
    # eps * cond: the test allows 1e-13 * cond(G + n lambda_j I), relative to
    # the solution's norm.  "one point" stacks one distinct point, so m = 1;
    # "duplicated" draws P from two distinct points, so the Gram, formed from
    # P's rows of the factor, has rank <= 2 < m.  The first lambda repeats
    rng = np.random.default_rng(seed)
    p, q = rng.normal(0, 1, (n, 2)), rng.normal(0.3, 1, (n, 2))
    if case == "one point":
        p = q = np.ones((n, 2))
    elif case == "duplicated":
        p = rng.normal(0, 1, (2, 2))[np.arange(n) % 2]
    dec = decompose(p, q, KernelSpec("gaussian", rho=1.0), getattr(PriorSpec, prior)())
    m = dec.gram.shape[0]
    assert (m == 1) == (case == "one point")
    if case == "duplicated":
        assert np.linalg.matrix_rank(dec.gram) <= 2 < m
    lams = np.array(lambdas + lambdas[:1])
    path = estimator._solve(dec, lams)[0]
    evals = np.linalg.eigvalsh(dec.gram)
    for j, lam in enumerate(lams):
        want = np.linalg.solve(dec.gram + n * lam * np.eye(m), dec.fields["moment_gap"])
        cond = (evals.max() + n * lam) / (evals.min() + n * lam)
        assert np.linalg.norm(path[:, j] - want) <= 1e-13 * cond * np.linalg.norm(want)


def test_path_weights_reject_a_failed_or_indefinite_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(27)
    p, q = rng.normal(0, 1, (40, 2)), rng.normal(0.3, 1, (40, 2))
    dec = decompose(p, q, KernelSpec("gaussian", rho=1.0))
    lams = np.array([1e-3, 1.0])
    # G = -I: the shifted eigenvalue -1 + 40 * 1e-3 is < 0
    with pytest.raises(NumericsError, match="not positive definite"):
        estimator._solve(dataclasses.replace(dec, gram=-np.eye(dec.gram.shape[0])), lams)

    def diverge(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", diverge)
    with pytest.raises(NumericsError, match="not positive definite"):
        estimator._solve(dec, lams)


def test_every_fit_and_fold_solves_once_and_only_the_solve_forms_beta(monkeypatch):
    # one ridge routine: fit, the conditional fit and each fold of
    # cross_validate call _solve once per decomposition, a single lambda on
    # LU and a fold's lambda path on one eigh, and the triangular solve for
    # beta runs only inside _solve
    rng = np.random.default_rng(44)
    p, q = rng.normal(0, 1, (150, 2)), rng.normal(0.3, 1.1, (150, 2))
    kernels = [KernelSpec("gaussian", rho=0.5), KernelSpec("laplace", rho=1.0)]
    log, inside = [], []
    real_cholesky, real_solve, real_upper, real_eigh = (
        estimator.pivoted_cholesky,
        estimator._solve,
        estimator._upper_solve,
        np.linalg.eigh,
    )

    def spy_cholesky(*args, **kwargs):
        log.append("factor")
        return real_cholesky(*args, **kwargs)

    def spy_solve(dec, lam):
        log.append(("solve", np.ndim(lam)))
        inside.append(True)
        try:
            return real_solve(dec, lam)
        finally:
            inside.pop()

    def spy_upper(u, b):
        assert inside, "estimator._upper_solve ran outside _solve"
        log.append("beta")
        return real_upper(u, b)

    def spy_eigh(a, *args, **kwargs):
        log.append("eigh")
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(estimator, "pivoted_cholesky", spy_cholesky)
    monkeypatch.setattr(estimator, "_solve", spy_solve)
    monkeypatch.setattr(estimator, "_upper_solve", spy_upper)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    fit(p, q, kernels[0], 1e-3)
    fit_conditional(JointDataset(p[:, :1], p[:, 1:]), kernels[0], 1e-3)
    assert log == ["factor", ("solve", 0), "beta"] * 2
    log.clear()
    cross_validate(p, q, kernels, [1e-3, 1e-1, 1e-3], folds=3)
    assert log == ["factor", ("solve", 1), "eigh", "beta"] * 6


def test_folds_out_of_range_name_the_bounds():
    rng = np.random.default_rng(28)
    p, q = rng.normal(0, 1, (60, 2)), rng.normal(0.3, 1, (60, 2))
    for folds in (1, 1000):
        with pytest.raises(ValueError, match=rf"folds must lie in \[2, 60\], got {folds}$"):
            cross_validate(p, q, [KernelSpec("gaussian")], [1e-3], folds=folds, seed=0)


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.inf, math.nan])
def test_lambda_must_be_finite_and_positive(monkeypatch, bad):
    # the whole grid is checked before any fold is decomposed
    rng = np.random.default_rng(26)
    p = rng.normal(0, 1, (30, 1))
    spec = KernelSpec("gaussian")
    with pytest.raises(ValueError, match="lam must be > 0 and finite"):
        fit(p, p, spec, lam=bad)
    monkeypatch.setattr(estimator, "_factor", None)
    with pytest.raises(ValueError, match=f"lam must be > 0 and finite, got {bad!r}"):
        cross_validate(p, p, [spec], [1e-3, bad], folds=3, seed=0)


@pytest.mark.parametrize("name", ["epsilon", "epsilon_rel"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
def test_tolerance_must_be_finite_and_nonnegative(name, bad):
    # before: an infinite or NaN tolerance ended in "kernel matrix is
    # numerically zero", a NumericsError, instead of naming the argument
    rng = np.random.default_rng(27)
    p = rng.normal(0, 1, (30, 2))
    spec = KernelSpec("gaussian")
    message = f"{name} must be a finite number >= 0, got {bad!r}"
    with pytest.raises(ValueError, match=message):
        fit(p, p, spec, 1e-3, **{name: bad})
    with pytest.raises(ValueError, match=message):
        fit_conditional(JointDataset(p[:, :1], p[:, 1:]), spec, 1e-3, **{name: bad})
    if name == "epsilon_rel":  # cross_validate has no absolute tolerance
        with pytest.raises(ValueError, match=message):
            cross_validate(p, p, [spec], [1e-3], folds=3, epsilon_rel=bad, seed=0)


def test_omp_target_is_cut_with_unequal_samples():
    # the target holds one value per input row, P's first; when the samples
    # are cut to the smaller size, P's values of the dropped rows go with them
    rng = np.random.default_rng(28)
    p, q = rng.normal(0, 1, (200, 2)), rng.normal(0.3, 1, (150, 2))
    target = rng.normal(0, 1, 350)
    spec = KernelSpec("gaussian", rho=1.0)
    with pytest.warns(RuntimeWarning, match="truncating both to 150"):
        model = fit(p, q, spec, 1e-3, strategy="omp", omp_target=target, max_rank=30)
    cut = np.concatenate([target[:150], target[200:]])
    equal = fit(p[:150], q, spec, 1e-3, strategy="omp", omp_target=cut, max_rank=30)
    np.testing.assert_array_equal(model.pivots, equal.pivots)
    np.testing.assert_array_equal(model.beta, equal.beta)
    # the values of the stacked cut samples no longer pass, silently misaligned
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match=r"one value per input row, 200 \+ 150"):
        fit(p, q, spec, 1e-3, strategy="omp", omp_target=target[:300])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_omp_target_must_be_finite(bad):
    # unchecked, a NaN value made its point the first pivot, and on these
    # points the rank moved from 70 to 127
    rng = np.random.default_rng(32)
    p, q = rng.normal(0, 1, (100, 2)), rng.normal(0.3, 1, (100, 2))
    target = np.concatenate([p[:, 0], q[:, 0]])
    target[37] = bad
    spec = KernelSpec("gaussian", rho=1.0)
    with pytest.raises(ValueError, match="omp_target must hold one finite value per point"):
        fit(p, q, spec, 1e-3, strategy="omp", omp_target=target)
    with pytest.raises(ValueError, match="omp_target must hold one finite value per point"):
        pivoted_cholesky(KernelOracle(spec, np.vstack([p, q])), 0.0, "omp", omp_target=target)


def test_sample_sizes_are_matched_once_per_entry_point(monkeypatch):
    # fit and cross_validate cut the two samples to one size once; the folds
    # and the halves of a conditional split have one size already
    real, calls = estimator._common_size, []
    monkeypatch.setattr(estimator, "_common_size", lambda p, q: calls.append(1) or real(p, q))
    rng = np.random.default_rng(33)
    p, q = rng.normal(0, 1, (60, 2)), rng.normal(0.3, 1, (60, 2))
    spec = KernelSpec("gaussian", rho=1.0)
    fit(p, q, spec, 1e-3)
    assert len(calls) == 1
    cross_validate(p, q, [spec, KernelSpec("laplace", rho=1.0)], [1e-3, 1e-2], folds=3, seed=0)
    assert len(calls) == 2
    fit_conditional(JointDataset(p[:, :1], p[:, 1:]), spec, 1e-3, scheme="three_split")
    fit_conditional(JointDataset(p[:, :1], p[:, 1:]), spec, 1e-3)
    assert len(calls) == 2


def test_cross_validate_unequal_sizes_truncate_with_warning():
    rng = np.random.default_rng(24)
    p, q = rng.normal(0, 1, (50, 1)), rng.normal(0, 1, (40, 1))
    kernels, lambdas = [KernelSpec("gaussian")], [1e-2]
    with pytest.warns(RuntimeWarning, match="truncating both to 40"):
        res = cross_validate(p, q, kernels, lambdas, folds=4, seed=0)
    np.testing.assert_array_equal(
        res.mean_losses, cross_validate(p[:40], q, kernels, lambdas, folds=4, seed=0).mean_losses
    )


def test_cross_validate_guards():
    rng = np.random.default_rng(17)
    p = rng.normal(0, 1, (30, 1))
    spec = KernelSpec("gaussian")
    with pytest.raises(ValueError, match="empty grid"):
        cross_validate(p, p, [], [1e-3], folds=3, seed=0)
    with pytest.raises(ValueError, match="empty grid"):
        cross_validate(p, p, [spec], [], folds=3, seed=0)
    with pytest.raises(ValueError, match="folds"):
        cross_validate(p, p, [spec], [1e-3], folds=1, seed=0)


def test_standardize_recorded_and_equivalent():
    rng = np.random.default_rng(18)
    p = rng.normal(5.0, 3.0, (80, 2))
    q = rng.normal(6.0, 3.0, (80, 2))
    model = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-2, standardize=True)
    assert model.standardizer is not None
    stacked = np.vstack([p, q])
    manual = (stacked - stacked.mean(axis=0)) / stacked.std(axis=0)
    ref = fit(manual[:80], manual[80:], KernelSpec("gaussian", rho=1.0), lam=1e-2)
    zs = rng.normal(5.0, 3.0, (20, 2))
    zs_manual = (zs - stacked.mean(axis=0)) / stacked.std(axis=0)
    np.testing.assert_allclose(eval_h(model, zs), eval_h(ref, zs_manual), rtol=1e-9, atol=1e-12)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    p, q = rng.normal(0, 1, (50, 2)), rng.normal(0.5, 1, (50, 2))
    model = fit(p, q, KernelSpec("laplace", rho=0.8), lam=1e-2, standardize=True)
    path = str(tmp_path / "model.kdm")
    save_model(model, path)
    loaded = load_model(path)
    zs = rng.normal(0, 1, (15, 2))
    np.testing.assert_array_equal(eval_h(loaded, zs), eval_h(model, zs))
    assert loaded.kernel == model.kernel
    assert loaded.n == model.n

    # identical fits serialize to identical bytes
    path2 = str(tmp_path / "model2.kdm")
    save_model(model, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_save_custom_prior_rejected(tmp_path):
    rng = np.random.default_rng(20)
    p = rng.normal(0, 1, (20, 1))
    prior = PriorSpec.custom(lambda z: np.ones(z.shape[0]), pi_inf=1.0)
    model = fit(p, p, KernelSpec("gaussian"), lam=1e-2, prior=prior)
    with pytest.raises(ValueError):
        save_model(model, str(tmp_path / "m.kdm"))


def _bundle(tmp_path):
    rng = np.random.default_rng(21)
    p, q = rng.normal(0, 1, (40, 2)), rng.normal(0.5, 1, (40, 2))
    path = str(tmp_path / "model.kdm")
    save_model(fit(p, q, KernelSpec("gaussian"), lam=1e-2), path)
    raw = open(path, "rb").read()
    (hlen,) = struct.unpack("<Q", raw[4:12])
    header, body = json.loads(raw[12 : 12 + hlen]), raw[12 + hlen :]
    assert _pack(header, body) == raw  # the helpers below rebuild save_model's bytes
    return path, raw, header, body


def _pack(header, body):
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"KDM\x01" + struct.pack("<Q", len(head)) + head + body


def _rewrite(path, header, body):
    with open(path, "wb") as fh:
        fh.write(_pack(header, body))


def test_load_rejects_truncated_bundle(tmp_path):
    path, raw, _, _ = _bundle(tmp_path)
    for cut in (1, 8, len(raw) // 2, 10):
        with open(path, "wb") as fh:
            fh.write(raw[: len(raw) - cut] if cut != 10 else raw[:10])
        with pytest.raises(ValueError, match=r"model\.kdm: truncated bundle"):
            load_model(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path, raw, _, _ = _bundle(tmp_path)
    with open(path, "wb") as fh:
        fh.write(raw + b"\x00")
    with pytest.raises(ValueError, match=r"model\.kdm: 1 trailing bytes"):
        load_model(path)


def test_load_rejects_wrong_format(tmp_path):
    path, _, header, body = _bundle(tmp_path)
    assert header["format"] == 2
    _rewrite(path, {**header, "format": 1}, body)
    with pytest.raises(ValueError, match=r"model\.kdm: field 'format' is 1; .* refit the model"):
        load_model(path)
    del header["format"]
    _rewrite(path, header, body)
    with pytest.raises(ValueError, match="field 'format'"):
        load_model(path)


def test_load_rejects_bad_dtype_and_shape(tmp_path):
    path, _, header, body = _bundle(tmp_path)
    arrays = [dict(meta) for meta in header["arrays"]]
    arrays[0]["dtype"] = "f4"
    _rewrite(path, {**header, "arrays": arrays}, body)
    with pytest.raises(ValueError, match=r"model\.kdm: array 'pivot_points' has dtype 'f4'"):
        load_model(path)
    # a declared shape larger than the bytes that follow, or smaller
    arrays = [dict(meta) for meta in header["arrays"]]
    assert arrays[-1]["name"] == "covariance"
    arrays[-1]["shape"] = [arrays[-1]["shape"][0] + 1, arrays[-1]["shape"][1]]
    _rewrite(path, {**header, "arrays": arrays}, body)
    with pytest.raises(ValueError, match=r"truncated bundle: array 'covariance' of shape"):
        load_model(path)
    arrays = [dict(meta) for meta in header["arrays"]]
    arrays[0]["shape"] = [arrays[0]["shape"][0] - 1, arrays[0]["shape"][1]]
    _rewrite(path, {**header, "arrays": arrays}, body)
    with pytest.raises(ValueError, match="trailing bytes"):
        load_model(path)
    arrays = [dict(meta) for meta in header["arrays"]]
    arrays[0]["shape"] = [-1, 3]
    _rewrite(path, {**header, "arrays": arrays}, body)
    with pytest.raises(ValueError, match="array 'pivot_points' has invalid shape"):
        load_model(path)
    arrays = [dict(meta) for meta in header["arrays"]]
    arrays[0]["shape"] = [math.prod(arrays[0]["shape"])]
    _rewrite(path, {**header, "arrays": arrays}, body)
    with pytest.raises(ValueError, match="array 'pivot_points' has invalid shape .*, expected 2 sizes"):
        load_model(path)


def _reshaped(header, **shapes):
    """The header with some arrays' declared shapes replaced (same byte count)."""
    arrays = [dict(meta, shape=shapes.get(meta["name"], meta["shape"])) for meta in header["arrays"]]
    return {**header, "arrays": arrays}


def test_load_rejects_rank_axis_mismatch(tmp_path):
    path, _, header, body = _bundle(tmp_path)
    m = next(meta["shape"][0] for meta in header["arrays"] if meta["name"] == "pivots")
    _rewrite(path, _reshaped(header, beta=[m - 1], w=[m + 1]), body)
    with pytest.raises(ValueError, match=rf"model\.kdm: array 'beta' has shape \[{m - 1}\], but the rank is {m}"):
        load_model(path)


def test_load_rejects_non_square_covariance(tmp_path):
    path, _, header, body = _bundle(tmp_path)
    m = next(meta["shape"][0] for meta in header["arrays"] if meta["name"] == "pivots")
    _rewrite(path, _reshaped(header, covariance=[1, m * m]), body)
    with pytest.raises(ValueError, match=rf"model\.kdm: array 'covariance' has shape \[1, {m * m}\], but the rank"):
        load_model(path)


def test_load_rejects_standardizer_of_other_dimension(tmp_path):
    path, _, header, body = _bundle(tmp_path)
    assert header["standardizer"]["scale"] == [1.0, 1.0]  # a Gaussian fit is centered, not scaled
    _rewrite(path, {**header, "standardizer": {"mean": [0.0] * 3, "scale": [1.0] * 3}}, body)
    with pytest.raises(ValueError, match=r"model\.kdm: field 'standardizer' .* 2 columns"):
        load_model(path)
    _rewrite(path, {**header, "standardizer": {"mean": [0.0, 0.0], "scale": [1.0]}}, body)
    with pytest.raises(ValueError, match="field 'standardizer'"):
        load_model(path)


def test_load_null_standardizer_as_identity(tmp_path):
    # a format-2 bundle written before every fit carried its input transform
    path, _, header, body = _bundle(tmp_path)
    _rewrite(path, {**header, "standardizer": None}, body)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.standardizer.mean, [0.0, 0.0])
    np.testing.assert_array_equal(loaded.standardizer.scale, [1.0, 1.0])
    zs = np.random.default_rng(22).normal(0, 1, (10, 2))
    expected = cross_kernel_matrix(loaded.kernel, zs, loaded.pivot_points) @ loaded.beta
    np.testing.assert_array_equal(eval_h(loaded, zs), expected)


def test_load_rejects_a_prior_other_than_one_or_zero(tmp_path):
    # read as the prior zero, any other kind would shift every ratio of the
    # model by the prior
    path, _, header, body = _bundle(tmp_path)
    assert header["prior"] == {"kind": "one", "pi_inf": 1.0}
    for bad in ({"kind": "custom", "pi_inf": 2.0}, {"kind": "One", "pi_inf": 1.0}, {"kind": None}, None):
        _rewrite(path, {**header, "prior": bad}, body)
        with pytest.raises(ValueError, match=r"model\.kdm: field 'prior' is .*; expected kind 'one' or 'zero'"):
            load_model(path)
    _rewrite(path, {**header, "prior": {"kind": "zero", "pi_inf": 0.0}}, body)
    assert load_model(path).prior == PriorSpec.zero()


def test_load_refuses_coerced_header_values(tmp_path):
    # coerced, a degree of 2.7 would load as 2 and a hit_rank_cap of "false" as True
    path, _, header, body = _bundle(tmp_path)
    for bad in (2.7, "2", True, None):
        _rewrite(path, {**header, "kernel": {**header["kernel"], "q": bad}}, body)
        with pytest.raises(ValueError, match=r"model\.kdm: kernel field 'q' is .*; expected an integer"):
            load_model(path)
    for bad in ("false", 0, 1, None):
        _rewrite(path, {**header, "hit_rank_cap": bad}, body)
        with pytest.raises(ValueError, match=r"model\.kdm: field 'hit_rank_cap' is .*; expected true or false"):
            load_model(path)


def test_load_refuses_a_kernel_field_that_is_not_an_object(tmp_path):
    # KernelSpec.from_dict called .get on it and raised AttributeError
    path, _, header, body = _bundle(tmp_path)
    for bad in ("gaussian", [1, 2], None, 3):
        _rewrite(path, {**header, "kernel": bad}, body)
        with pytest.raises(ValueError, match=r"model\.kdm: field 'kernel' is .*; expected a JSON object"):
            load_model(path)


def test_load_refuses_header_numbers_that_are_not_numbers(tmp_path):
    # coerced, "0.5" would load as the ridge parameter 0.5 and true as 1.0
    path, _, header, body = _bundle(tmp_path)
    for name in ("lam", "epsilon", "residual_trace", "kappa_inf"):
        for bad in ("0.5", True, None, [1.0]):
            _rewrite(path, {**header, name: bad}, body)
            with pytest.raises(ValueError, match=rf"model\.kdm: field '{name}' is .*; expected a number"):
                load_model(path)
    for name in ("rho", "c"):
        for bad in ("3", False, None):
            _rewrite(path, {**header, "kernel": {**header["kernel"], name: bad}}, body)
            with pytest.raises(ValueError, match=rf"model\.kdm: kernel field '{name}' is .*; expected a number"):
                load_model(path)
    for bad in ("abc", 1.5, True, "7"):
        _rewrite(path, {**header, "seed": bad}, body)
        with pytest.raises(ValueError, match=r"model\.kdm: field 'seed' is .*; expected an integer or null"):
            load_model(path)
    # integers are numbers, and a null seed is an unrecorded one
    _rewrite(path, {**header, "lam": 1, "kernel": {**header["kernel"], "rho": 2}, "seed": None}, body)
    model = load_model(path)
    assert (model.lam, model.kernel.rho, model.seed) == (1.0, 2.0, None) and type(model.lam) is float
    _rewrite(path, {**header, "seed": 12}, body)
    assert load_model(path).seed == 12


def test_load_refuses_header_numbers_that_are_not_finite_or_out_of_range(tmp_path):
    # json reads the tokens NaN and Infinity as floats: a NaN lam loaded and
    # gave a NaN norm bound, an infinite kappa_inf one that always held
    path, _, header, body = _bundle(tmp_path)
    for name in ("lam", "epsilon", "residual_trace", "kappa_inf"):
        for bad in (math.nan, math.inf, -math.inf):
            _rewrite(path, {**header, name: bad}, body)
            with pytest.raises(ValueError, match=rf"model\.kdm: field '{name}' is .*; expected a finite number"):
                load_model(path)
    for name in ("rho", "c"):
        _rewrite(path, {**header, "kernel": {**header["kernel"], name: math.nan}}, body)
        with pytest.raises(ValueError, match=rf"model\.kdm: kernel field '{name}' is nan; expected a finite number"):
            load_model(path)
    for name, bad, rule in (
        ("lam", 0, "> 0"),
        ("lam", -1e-3, "> 0"),
        ("kappa_inf", 0.0, "> 0"),
        ("epsilon", -1e-9, ">= 0"),
        ("residual_trace", -2.0, ">= 0"),
    ):
        _rewrite(path, {**header, name: bad}, body)
        with pytest.raises(ValueError, match=rf"model\.kdm: field '{name}' is .*; expected a number {rule}"):
            load_model(path)
    std = header["standardizer"]
    for bad in ({**std, "mean": [math.nan, 0.0]}, {**std, "scale": [1.0, math.inf]}):
        _rewrite(path, {**header, "standardizer": bad}, body)
        with pytest.raises(ValueError, match=r"model\.kdm: field 'standardizer' .* expected a finite number"):
            load_model(path)
    _rewrite(path, {**header, "standardizer": {**std, "scale": [1.0, 0.0]}}, body)
    with pytest.raises(ValueError, match=r"model\.kdm: field 'standardizer' has scale .*; expected entries > 0"):
        load_model(path)
    # the bounds themselves load: a tolerance and a residual trace of zero
    _rewrite(path, {**header, "epsilon": 0, "residual_trace": 0.0}, body)
    assert (load_model(path).epsilon, load_model(path).residual_trace) == (0.0, 0.0)


def test_load_refuses_a_float_array_with_a_non_finite_value(tmp_path):
    # a NaN in the covariance loaded, and the test ran on it: it reported
    # one kept eigenvalue fewer and a smaller statistic, with exit code 0
    path, _, header, body = _bundle(tmp_path)
    offset = 0
    for meta in header["arrays"]:
        size = 8 * math.prod(meta["shape"])
        if meta["dtype"] == "f8":
            for bad in (math.nan, math.inf):
                values = bytearray(body)
                values[offset : offset + 8] = struct.pack("<d", bad)
                _rewrite(path, header, bytes(values))
                with pytest.raises(ValueError, match=rf"model\.kdm: array '{meta['name']}' holds a non-finite value$"):
                    load_model(path)
        offset += size
    assert offset == len(body)
    assert {m["name"] for m in header["arrays"] if m["dtype"] == "f8"} == {
        "pivot_points", "beta", "w", "moment_gap", "covariance"
    }


def test_an_omp_target_needs_the_omp_strategy():
    # a greedy fit took a target, even one of NaNs, and ignored it
    rng = np.random.default_rng(29)
    p, q = rng.normal(0, 1, (50, 2)), rng.normal(0.3, 1, (50, 2))
    for target in (np.full(100, np.nan), np.ones(100)):
        with pytest.raises(ValueError, match="omp_target is read only by the omp strategy, not by 'greedy'"):
            fit(p, q, KernelSpec("gaussian"), 1e-3, omp_target=target)


def test_load_rejects_invalid_sample_size(tmp_path):
    path, _, header, body = _bundle(tmp_path)
    for bad in (0, -3, 2.5, "40", True, None):
        _rewrite(path, {**header, "n": bad}, body)
        with pytest.raises(ValueError, match=r"model\.kdm: field 'n' is .*; expected an integer >= 1"):
            load_model(path)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    d=st.integers(1, 3),
    family=st.sampled_from(["gaussian", "laplace", "polynomial"]),
    prior=st.sampled_from(["one", "zero"]),
    standardize=st.booleans(),
    cap=st.one_of(st.none(), st.integers(1, 10)),
)
def test_bundle_round_trip_is_exact(tmp_path_factory, seed, n, d, family, prior, standardize, cap):
    rng = np.random.default_rng(seed)
    p, q = rng.normal(0, 1, (n, d)), rng.normal(0.3, 1.2, (n, d))
    spec = KernelSpec(family, rho=float(rng.uniform(0.3, 2.0)), c=1.0, q=2)
    model = fit(
        p, q, spec, 1e-2, prior=getattr(PriorSpec, prior)(), standardize=standardize, max_rank=cap
    )
    path = str(tmp_path_factory.mktemp("bundle") / "model.kdm")
    save_model(model, path)
    loaded = load_model(path)
    again = path + ".again"
    save_model(loaded, again)
    assert open(path, "rb").read() == open(again, "rb").read()
    for args in (("relative", 1e-9, None), ("explained", 0.9, 0.1)):
        a, b = run_test(model, *args), run_test(loaded, *args)
        for f in dataclasses.fields(a):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)



def _two_samples(seed, n, d):
    rng = np.random.default_rng(seed)
    return rng, rng.normal(0, 1, (n, d)), rng.normal(0.5, 1.2, (n, d))


def _assert_same_h(ha, hb):
    assert np.max(np.abs(ha - hb)) <= 1e-8 * max(1.0, np.max(np.abs(ha)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 60),
    d=st.integers(1, 3),
    family=st.sampled_from(["gaussian", "laplace"]),
    standardize=st.booleans(),
    c=st.floats(-1e6, 1e6),
)
def test_fit_is_translation_invariant(seed, n, d, family, standardize, c):
    # the kernel depends on differences only, so shifting both samples by c
    # shifts h; expanded squared distances of uncentered data used to lose
    # every digit (a Gaussian fit raised at c = 1e4)
    rng, p, q = _two_samples(seed, n, d)
    spec = KernelSpec(family, rho=float(rng.uniform(0.5, 2.0)))
    zs = rng.normal(0.2, 1.5, (20, d))
    a = fit(p, q, spec, 1e-3, standardize=standardize)
    b = fit(p + c, q + c, spec, 1e-3, standardize=standardize)
    np.testing.assert_array_equal(a.pivots, b.pivots)
    _assert_same_h(eval_h(a, zs), eval_h(b, zs + c))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    d=st.integers(1, 3),
    family=st.sampled_from(["gaussian", "laplace", "polynomial"]),
    prior=st.sampled_from(["one", "zero"]),
    standardize=st.booleans(),
)
def test_fit_ignores_row_order_within_samples(seed, n, d, family, prior, standardize):
    # compare h, not pivot indices: the pivots follow the rows.  With a unit
    # diagonal every point ties for the first pivot and the smallest index
    # wins, so the first row of P stays in place; the later pivots are then
    # the same points
    rng, p, q = _two_samples(seed, n, d)
    spec = KernelSpec(family, rho=float(rng.uniform(0.5, 2.0)), c=1.0, q=2)
    kwargs = dict(prior=getattr(PriorSpec, prior)(), standardize=standardize)
    zs = rng.normal(0.2, 1.5, (20, d))
    perm_p, perm_q = np.concatenate([[0], 1 + rng.permutation(n - 1)]), rng.permutation(n)
    a = fit(p, q, spec, 1e-2, **kwargs)
    b = fit(p[perm_p], q[perm_q], spec, 1e-2, **kwargs)
    np.testing.assert_array_equal(np.concatenate([perm_p, n + perm_q])[b.pivots], a.pivots)
    _assert_same_h(eval_h(a, zs), eval_h(b, zs))


def test_bundle_is_byte_identical_at_one_and_two_workers(monkeypatch, tmp_path):
    # 2 x 8,000 points at rank cap 160: the decomposition splits its large
    # panels, and the covariance's product of the 160 x 8,000 Q block runs
    # on a worker beside the Gram; the bundle, covariance included, is the
    # same at one worker, at two, and with both kept on the calling thread
    rng = np.random.default_rng(23)
    p, q = rng.normal(0.0, 1.0, (8000, 4)), rng.normal(0.2, 1.1, (8000, 4))
    bundles, concurrent = [], []
    for threads, together in (("1", True), ("2", True), ("2", False)):
        with monkeypatch.context() as mp:
            mp.setenv("KDM_THREADS", threads)
            if not together:
                mp.setattr(lowrank, "SPLIT_MIN_ENTRIES", 2**62)
                mp.setattr(estimator, "SIDE_BY_SIDE_MIN_ENTRIES", 2**62)
            real, calls = estimator._side_by_side, []
            mp.setattr(estimator, "_side_by_side", lambda fn, args: calls.append(len(args)) or real(fn, args))
            model = fit(p, q, KernelSpec("gaussian", rho=1.0), lam=1e-2, max_rank=160)
            path = tmp_path / f"{threads}-{together}.kdm"
            save_model(model, str(path))
        bundles.append(path.read_bytes())
        concurrent.append(calls)
    assert model.hit_rank_cap and model.covariance is not None
    assert bundles[0] == bundles[1] == bundles[2]
    assert concurrent == [[2], [2], []]


def test_small_fits_form_the_gram_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(estimator, "_side_by_side", lambda fn, args: pytest.fail("side by side below the size gate"))
    rng = np.random.default_rng(24)
    model = fit(rng.normal(0, 1, (500, 2)), rng.normal(0.3, 1, (500, 2)), KernelSpec("gaussian"), lam=1e-2)
    assert model.covariance is not None
