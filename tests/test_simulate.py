import numpy as np
import pytest

from kdm.simulate import (
    DISTRIBUTIONS,
    MixtureConfig,
    MixtureModel,
    draw_mixture_model,
    random_correlation,
    sample_distribution,
    sample_gaussian_mixture,
)


def test_samplers_are_bit_reproducible():
    for name in DISTRIBUTIONS:
        a = sample_distribution(name, 64, seed=123)
        b = sample_distribution(name, 64, seed=123)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)


def test_sampler_guards():
    with pytest.raises(ValueError):
        sample_distribution("nope", 10, seed=0)
    with pytest.raises(ValueError):
        sample_distribution("w", 0, seed=0)
    with pytest.raises(ValueError):
        sample_distribution("diamond", 10, seed=0, c=1.5)


@pytest.mark.parametrize("name", ["w", "circle", "independent_clouds"])
@pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_dependence_strength_is_named(name, c):
    # before: "joint sample contains NaN or infinite entries" (w, circle),
    # which named neither c nor its value
    with pytest.raises(ValueError, match=f"c must be a finite number, got {c!r}"):
        sample_distribution(name, 10, seed=0, c=c)


def test_independent_clouds_moments():
    j = sample_distribution("independent_clouds", 40000, seed=1)
    # each coordinate is a symmetric two-component normal mixture at +-1
    assert j.x.mean() == pytest.approx(0.0, abs=0.03)
    assert j.x.var() == pytest.approx(2.0, abs=0.06)
    assert j.y.var() == pytest.approx(2.0, abs=0.06)
    corr = np.corrcoef(j.x[:, 0], j.y[:, 0])[0, 1]
    assert abs(corr) < 0.02


def test_bounded_supports():
    w = sample_distribution("w", 5000, seed=2)
    assert np.all(w.x >= -1) and np.all(w.x <= 1)
    assert np.all(w.y >= (w.x**2 - 0.5) ** 2)
    assert np.all(w.y <= (w.x**2 - 0.5) ** 2 + 1)

    par = sample_distribution("parabola", 5000, seed=3)
    assert np.all(par.y >= par.x**2) and np.all(par.y <= par.x**2 + 1)

    two = sample_distribution("two_parabola", 5000, seed=4)
    assert np.all(np.abs(two.y) >= two.x**2)
    assert np.all(np.abs(two.y) <= two.x**2 + 1)


def test_diamond_support_at_full_mixing():
    j = sample_distribution("diamond", 5000, seed=5, c=1.0)
    # the rotated square has vertices on the axes at radius sqrt(2)
    assert np.max(np.abs(j.x) + np.abs(j.y)) <= np.sqrt(2.0) + 1e-12
    j0 = sample_distribution("diamond", 5000, seed=6, c=0.0)
    assert np.max(np.abs(j0.x)) <= 1.0 and np.max(np.abs(j0.y)) <= 1.0


def test_circle_radial_structure():
    j = sample_distribution("circle", 20000, seed=7)
    r = np.sqrt(j.x[:, 0] ** 2 + j.y[:, 0] ** 2)
    # noisy ring of radius 4.2: mean radius close to it, few points near 0
    assert r.mean() == pytest.approx(4.2, abs=0.15)
    assert np.mean(r < 1.0) < 0.01


def test_variance_dependence():
    j = sample_distribution("variance", 40000, seed=8)
    x, y = j.x[:, 0], j.y[:, 0]
    inner = np.abs(x) < 0.5
    assert y[inner].var() < y[~inner].var()
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.02


def test_log_conditional_mean():
    # E[log chi2(1)] = -(gamma + log 2), since log x^2 with x standard normal
    j = sample_distribution("log", 200000, seed=9)
    expected = -1.2703628454614782
    assert (j.y[:, 0] - np.log(j.x[:, 0] ** 2)).mean() == pytest.approx(0.0, abs=0.01)
    assert j.y[:, 0].mean() == pytest.approx(expected, abs=0.02)


def test_random_correlation_properties():
    for dim in (1, 2, 5):
        c = random_correlation(dim, seed=10 + dim)
        np.testing.assert_allclose(np.diag(c), np.ones(dim))
        np.testing.assert_allclose(c, c.T)
        assert np.min(np.linalg.eigvalsh(c)) >= -1e-10
        assert np.max(np.abs(c)) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        random_correlation(0, seed=0)


def test_mixture_config_guards():
    with pytest.raises(ValueError):
        MixtureConfig(n_clusters=0)
    with pytest.raises(ValueError):
        MixtureConfig(n_clusters=2, dim_x=0)


def test_draw_mixture_model_shapes():
    model = draw_mixture_model(MixtureConfig(n_clusters=3), seed=11)
    assert model.weights.shape == (3,)
    assert model.weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert model.means.shape == (3, 4)
    assert np.max(np.abs(model.means)) <= 0.2
    assert model.correlations.shape == (3, 4, 4)


def test_mixture_label_frequencies_match_weights():
    model = draw_mixture_model(MixtureConfig(n_clusters=4), seed=12)
    _, labels = model.sample(20000, seed=13)
    freq = np.bincount(labels, minlength=4) / 20000
    np.testing.assert_allclose(freq, model.weights, atol=0.03)


def test_mixture_cluster_covariance():
    corr = np.stack([np.eye(2), np.array([[1.0, 0.9], [0.9, 1.0]])])
    model = MixtureModel(
        weights=np.array([0.5, 0.5]),
        means=np.zeros((2, 2)),
        correlations=corr,
        dim_x=1,
        dim_y=1,
    )
    joint, labels = model.sample(40000, seed=14)
    pts = np.hstack([joint.x, joint.y])
    for j in range(2):
        emp = np.cov(pts[labels == j].T, bias=True)
        np.testing.assert_allclose(emp, corr[j], atol=0.05)


def test_sample_gaussian_mixture_reproducible():
    cfg = MixtureConfig(n_clusters=2)
    a = sample_gaussian_mixture(cfg, 256, seed=15)
    b = sample_gaussian_mixture(cfg, 256, seed=15)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    assert a.x.shape == (256, 2) and a.y.shape == (256, 2)
