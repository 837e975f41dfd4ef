import math
import warnings

import numpy as np
import pytest
import scipy.stats

from kdm.lowrank import NumericsError
from kdm.metrics import (
    ForecastRecord,
    dawid_sebastiani,
    energy_score,
    energy_score_differential,
    excess_scoring_loss,
    r2_oos,
    r2_second_moment,
)
from reference import energy_score_broadcast


def test_energy_score_two_point_hand_example():
    # misfit (1 + 1)/2 = 1, spread (0 + 2 + 2 + 0)/8 = 0.5
    assert energy_score(0.0, np.array([-1.0, 1.0])) == pytest.approx(0.5, rel=1e-14)


def test_energy_score_perfect_forecast_is_zero():
    assert energy_score(np.array([1.0, 2.0]), np.tile([1.0, 2.0], (5, 1))) == pytest.approx(0.0, abs=1e-14)


def test_energy_score_weights_reduce_to_subensemble():
    # full weight on one candidate scores like that singleton alone
    weighted = energy_score(0.0, np.array([-1.0, 1.0]), weights=np.array([2.0, 0.0]))
    singleton = energy_score(0.0, np.array([-1.0]))
    assert weighted == pytest.approx(singleton, rel=1e-14)


def test_energy_score_matches_crps_for_normal_forecast():
    # in one dimension the energy score is the CRPS, which has a closed form
    # for a standard normal forecast
    rng = np.random.default_rng(0)
    draws = rng.standard_normal(4000)
    for y in (0.0, 1.0):
        crps = (
            y * (2.0 * scipy.stats.norm.cdf(y) - 1.0)
            + 2.0 * scipy.stats.norm.pdf(y)
            - 1.0 / math.sqrt(math.pi)
        )
        assert energy_score(y, draws) == pytest.approx(crps, abs=0.02)


def test_energy_score_batch_matches_rows():
    # a batch of outcomes scores each row by the single-outcome formula
    rng = np.random.default_rng(1)
    xs, ys = rng.normal(0, 1, (40, 2)), rng.normal(0, 1, (7, 2))
    weights = rng.uniform(0, 2, (7, 40))
    pair = np.array([[np.linalg.norm(a - b) for b in xs] for a in xs])
    for w in (weights, np.ones((7, 40))):
        rows = [wi @ np.linalg.norm(xs - y, axis=1) / 40 - wi @ pair @ wi / (2 * 40**2) for wi, y in zip(w, ys)]
        batch = energy_score(ys, xs, w)
        assert batch.shape == (7,)
        np.testing.assert_allclose(batch, rows, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose([energy_score(y, xs, wi) for wi, y in zip(w, ys)], rows, rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(energy_score(ys, xs), energy_score(ys, xs, np.ones((7, 40))))
    assert isinstance(energy_score(ys[0], xs, weights[0]), float)
    with pytest.raises(ValueError):
        energy_score(ys, xs, weights[0])
    with pytest.raises(ValueError):
        energy_score(ys, xs, weights[:, :5])
    with pytest.raises(ValueError):
        energy_score(ys, xs, -weights)
    with pytest.raises(ValueError):
        energy_score(ys[:, :1], xs)


def test_energy_score_matches_broadcast_reference():
    # one coordinate at a time sums in the order numpy sums an axis shorter
    # than 8; longer axes are summed pairwise, a roundoff-level difference
    rng = np.random.default_rng(3)
    for d in range(1, 11):
        ys = rng.normal(0, 1, (30, d))
        xs = rng.normal(0, 1, (45, d))
        w = rng.uniform(0, 2, (30, 45))
        got, want = energy_score(ys, xs, w), energy_score_broadcast(ys, xs, w)
        if d <= 7:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_energy_score_guards():
    with pytest.raises(ValueError):
        energy_score(np.array([0.0, 1.0]), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        energy_score(0.0, np.zeros(4), weights=np.ones(3))
    with pytest.raises(ValueError):
        energy_score(0.0, np.zeros(4), weights=-np.ones(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["weights", "outcomes", "candidates"])
def test_energy_score_rejects_non_finite_inputs(where, bad):
    # unchecked, a NaN or infinite entry gives a nan score and a matmul warning
    y, xs, w = np.zeros((2, 2)), np.arange(8.0).reshape(4, 2), np.ones((2, 4))
    {"weights": w, "outcomes": y, "candidates": xs}[where][1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{where} contain NaN or infinite entries"):
            energy_score(y, xs, weights=w)


def test_energy_score_differential():
    assert energy_score_differential([1.0, 2.0, 3.0], [0.0, 2.0, 2.0]) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        energy_score_differential([], [])
    with pytest.raises(ValueError):
        energy_score_differential([1.0], [1.0, 2.0])


def test_r2_oos_hand_example():
    records = [
        ForecastRecord(mean=0.5, cov=[[1.0]], realized=1.0),
        ForecastRecord(mean=2.0, cov=[[1.0]], realized=2.0),
    ]
    assert r2_oos(records, [0.0, 0.0]) == pytest.approx(1.0 - 0.25 / 5.0, rel=1e-14)
    with pytest.raises(ValueError):
        r2_oos(records, [1.0, 2.0])
    with pytest.raises(ValueError):
        r2_oos([], [])


def test_r2_second_moment_hand_example():
    rec = [ForecastRecord(mean=1.0, cov=[[1.0]], realized=2.0)]
    base = [ForecastRecord(mean=0.0, cov=[[0.0]], realized=2.0)]
    # residuals (4 - 2)^2 = 4 against (4 - 0)^2 = 16
    assert r2_second_moment(rec, base) == pytest.approx(0.75, rel=1e-14)
    with pytest.raises(ValueError):
        r2_second_moment(rec, [])


def test_forecast_record_validation():
    with pytest.raises(ValueError):
        ForecastRecord(mean=[0.0, 1.0], cov=[[1.0]], realized=[0.0, 1.0])
    with pytest.raises(ValueError):
        ForecastRecord(mean=[0.0], cov=[[1.0]], realized=[0.0, 1.0])


def test_dawid_sebastiani_hand_example():
    ds = dawid_sebastiani([1.0, 0.0], [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
    assert ds == pytest.approx(math.log(4.0) + 0.25, rel=1e-14)


def test_dawid_sebastiani_matches_normal_logpdf():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    mu, y = rng.standard_normal(3), rng.standard_normal(3)
    ds = dawid_sebastiani(y, mu, cov)
    logpdf = scipy.stats.multivariate_normal(mean=mu, cov=cov).logpdf(y)
    assert ds == pytest.approx(-2.0 * logpdf - 3.0 * math.log(2.0 * math.pi), rel=1e-10)


def test_dawid_sebastiani_jitter_recovers_singular_cov():
    ds = dawid_sebastiani([0.0, 0.0], [1.0, -1.0], [[1.0, 1.0], [1.0, 1.0]])
    assert math.isfinite(ds)


@pytest.mark.parametrize(
    "cov",
    [[[1.0, np.nan], [np.nan, 1.0]], [[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[1.0, -np.inf], [-np.inf, 1.0]]],
    ids=["nan-offdiag", "nan-diag", "inf-diag", "inf-offdiag"],
)
def test_dawid_sebastiani_raises_numerics_error_for_non_finite_cov(cov):
    with pytest.raises(NumericsError, match="non-finite"):
        dawid_sebastiani([0.0, 0.0], [0.0, 0.0], cov)


def test_dawid_sebastiani_raises_for_indefinite_cov():
    with pytest.raises(NumericsError):
        dawid_sebastiani([0.0, 0.0], [0.0, 0.0], [[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        dawid_sebastiani([0.0], [0.0, 0.0], np.eye(2))


def test_excess_scoring_loss_hand_example():
    rec = [ForecastRecord(mean=0.0, cov=[[1.0]], realized=0.0)]
    base = [ForecastRecord(mean=1.0, cov=[[1.0]], realized=0.0)]
    assert excess_scoring_loss(rec, base) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        excess_scoring_loss(rec, [])
