import math

import numpy as np
import pytest

from freeconv.errors import DomainError
from freeconv.sphere import (WeightVector, concentration_report,
                             marginal_chi2_pvalue, marginal_density, sample,
                             sample_matrix, vector_stats)


def test_samples_lie_on_unit_sphere():
    for n in (2, 8, 64, 501):
        th = sample(n, seed=5)
        assert th.n == n
        assert np.sum(th.theta**2) == pytest.approx(1.0, abs=1e-12)


def test_sampling_is_deterministic_per_seed_and_index():
    a = sample(16, seed=9, index=3).theta
    b = sample(16, seed=9, index=3).theta
    c = sample(16, seed=9, index=4).theta
    d = sample(16, seed=10, index=3).theta
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_matrix_rows_match_indexed_samples():
    M = sample_matrix(8, 5, seed=1)
    assert M.shape == (5, 8)
    for k in range(5):
        assert np.array_equal(M[k], sample(8, seed=1, index=k).theta)


def test_uniform_weight_vector():
    th = WeightVector.uniform(16)
    assert np.all(th.theta == 0.25)


def test_weight_vector_validates_norm():
    with pytest.raises(DomainError):
        WeightVector(np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        WeightVector(np.array([math.nan]))
    with pytest.raises(DomainError):
        WeightVector.uniform(0)


def test_vector_stats_power_sums():
    th = np.array([0.6, -0.8])
    st = vector_stats(th)
    assert st["max_abs"] == pytest.approx(0.8)
    assert st["sum_abs_pow"][3] == pytest.approx(0.6**3 + 0.8**3)
    assert st["sum_cubes"] == pytest.approx(0.6**3 - 0.8**3)


def test_marginal_density_normalizes():
    for n in (4, 16, 64):
        x = np.linspace(-math.sqrt(n), math.sqrt(n), 20001)
        mass = np.trapezoid(marginal_density(n, x), x)
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_marginal_chi2_accepts_true_distribution():
    samples = sample_matrix(32, 20000, seed=77)
    p = marginal_chi2_pvalue(32, samples)
    assert p > 0.001


def test_coordinate_symmetry():
    """Each coordinate has mean 0 and variance 1/n."""
    M = sample_matrix(16, 20000, seed=3)
    means = M.mean(axis=0)
    var = M.var(axis=0)
    assert np.max(np.abs(means)) < 0.01
    assert np.max(np.abs(var - 1.0 / 16.0)) < 0.01


def test_concentration_report_bounds_hold():
    rep = concentration_report(64, 20000, seed=0)
    assert rep["all_pass"]
    names = {e["name"] for e in rep["checks"]}
    assert "max_coordinate" in names
    assert "cube_sum" in names


def test_concentration_report_validates_input():
    with pytest.raises(DomainError):
        concentration_report(2, 20000, seed=0)
