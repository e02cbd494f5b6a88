import math

import numpy as np
import pytest

from freeconv.cumulants import (cumulants_to_moments, kargin_bound_check,
                                measure_cumulants, moments_to_cumulants,
                                phi_theta)
from freeconv.errors import DomainError, OutOfDiscError
from freeconv.measures import Measure

from oracles import moments_from_cumulants_nc


def random_atomic(rng, max_atoms=5):
    # atoms kept in [-1, 1] so high moments stay O(1) and absolute
    # round-trip tolerances are meaningful
    k = rng.integers(2, max_atoms + 1)
    xs = rng.uniform(-1.0, 1.0, size=k)
    ws = rng.random(k) + 0.1
    ws /= ws.sum()
    return Measure.atomic(xs, ws)


def test_roundtrip_moments_cumulants():
    rng = np.random.default_rng(100)
    for _ in range(100):
        mu = random_atomic(rng)
        m = [mu.moment(k) for k in range(1, 17)]
        kap = moments_to_cumulants(m)
        back = cumulants_to_moments(kap)
        assert np.max(np.abs(np.array(back) - np.array(m))) < 1e-10


def test_moments_to_cumulants_needs_a_moment():
    with pytest.raises(DomainError, match="at least one moment"):
        moments_to_cumulants([])


def test_cumulants_match_noncrossing_partition_sums():
    """The defining relation: each moment is the sum over non-crossing
    partitions of products of block cumulants.  Brute force up to order 10.
    """
    rng = np.random.default_rng(101)
    for _ in range(5):
        mu = random_atomic(rng, max_atoms=3)
        m = [mu.moment(k) for k in range(1, 11)]
        kap = moments_to_cumulants(m)
        oracle = moments_from_cumulants_nc(list(kap), 10)
        assert np.max(np.abs(np.array(oracle[1:]) - np.array(m))) < 1e-9


def test_semicircle_cumulants_vanish_beyond_two():
    kap = measure_cumulants(Measure.semicircle(1.5), 10)
    assert kap[0] == pytest.approx(0.0)
    assert kap[1] == pytest.approx(1.5)
    assert np.max(np.abs(kap[2:])) < 1e-12


def test_bernoulli_cumulants_known_values():
    # kappa_2 = 1, kappa_4 = -1, kappa_6 = 2 for the symmetric +-1 law
    kap = measure_cumulants(Measure.bernoulli(), 6)
    assert kap[1] == pytest.approx(1.0)
    assert kap[3] == pytest.approx(-1.0)
    assert kap[5] == pytest.approx(2.0)


@pytest.mark.parametrize("mu", [Measure.bernoulli(), Measure.binomial(0.25),
                                Measure.semicircle(1.0)])
def test_cumulant_growth_bound(mu):
    """|kappa_m| <= (2L/(m-1)) (4L)^{m-1} for measures supported in [-L, L]."""
    rows = kargin_bound_check(mu, 12)
    assert all(r["pass"] for r in rows)


def test_k_series_inverts_cauchy():
    from freeconv.complexfn import cauchy
    rng = np.random.default_rng(102)
    for mu in (Measure.bernoulli(), Measure.binomial(0.3)):
        L = mu.support_radius
        for _ in range(20):
            # K maps the lower half-disc into C+, where cauchy is defined
            w = rng.normal() - 1j * (0.1 + abs(rng.normal()))
            z = complex(w * (0.1 + 0.89 * rng.random()) / (abs(w) * 10.0 * L))
            K = phi_theta(mu, [1.0], z, order=40)
            g = complex(cauchy(mu, np.array([K]))[0])
            assert abs(g - z) < 1e-8


def test_k_series_outside_disc_raises():
    mu = Measure.bernoulli()
    with pytest.raises(OutOfDiscError):
        phi_theta(mu, [1.0], 0.5 + 0.0j)


def test_phi_theta_near_identity_bound():
    """|phi_theta(z) - 1/z - z| <= 128 L^4 |z|^3 sum theta^4
    + |m3 sum theta^3| |z|^2 inside the joint disc."""
    rng = np.random.default_rng(103)
    mu = Measure.binomial(0.25)
    L = mu.support_radius
    m3 = mu.moment(3)
    for _ in range(50):
        n = int(rng.integers(8, 64))
        th = rng.normal(size=n)
        th /= np.linalg.norm(th)
        rad = 1.0 / (6.0 * L * np.max(np.abs(th)))
        z = (rng.normal() + 1j * rng.normal())
        z *= rng.random() * 0.9 * rad / abs(z)
        if abs(z) < 1e-3:
            z = 1e-3 + 1e-3j
        val = phi_theta(mu, th, complex(z))
        bound = (128.0 * L**4 * abs(z) ** 3 * np.sum(th**4)
                 + abs(m3 * np.sum(th**3)) * abs(z) ** 2)
        assert abs(val - 1.0 / z - z) <= bound + 1e-12
