import math
from fractions import Fraction

import numpy as np
import pytest

from freeconv.cumulants import (cumulants_to_moments, kargin_bound_check,
                                measure_cumulants, moments_to_cumulants,
                                phi_theta)
from freeconv.errors import DomainError, OutOfDiscError
from freeconv.measures import Measure
from freeconv.sphere import WeightVector, sample, sample_matrix, vector_stats

from oracles import (cumulants_to_moments_exact, moments_from_cumulants_nc,
                     moments_to_cumulants_exact)


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
    # both directions take a non-empty 1-D sequence of finite floats
    for convert in (moments_to_cumulants, cumulants_to_moments):
        for bad in ([], [math.nan, 1.0], [0.0, math.inf], [[1.0, 2.0]],
                    np.ones((2, 2)), 1.0):
            with pytest.raises(DomainError, match="1-D sequence of at least one"):
                convert(bad)


@pytest.mark.parametrize("mu", [
    Measure.bernoulli(), Measure.semicircle(1.0), Measure.binomial(0.25),
    Measure.binomial(0.1), Measure.atomic([-1.577, 0.732], [0.75, 0.25]),
], ids=["bernoulli", "semicircle", "binomial0.25", "binomial0.1", "two_atom"])
def test_conversions_match_exact_rationals_at_order_32(mu):
    """Both directions against the relation in exact rational arithmetic,
    at order 32.  From the law's moments the cumulants are within 1e-12 of
    the largest (1.4e-13 on the two-atom law).  From the exact cumulants
    rounded to float the moments are within 1e-7 of the largest (7.3e-9 on
    the two-atom law, whose moments amplify the rounding of its cumulants)."""
    m = [mu.moment(k) for k in range(1, 33)]
    exact = moments_to_cumulants_exact(m)
    err = max(abs(Fraction(k) - e) for k, e in zip(moments_to_cumulants(m), exact))
    assert err <= Fraction(1e-12) * max(map(abs, exact))
    kappa = [float(e) for e in exact]
    exact = cumulants_to_moments_exact(kappa)
    err = max(abs(Fraction(x) - e) for x, e in zip(cumulants_to_moments(kappa), exact))
    assert err <= Fraction(1e-7) * max(map(abs, exact))


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


def test_phi_theta_takes_weights_through_the_unit_sphere_check():
    """A WeightVector gives the same value as its array; weights off the
    unit sphere are rejected."""
    mu, z = Measure.binomial(0.25), 0.05 + 0.02j
    th = WeightVector.uniform(4)
    assert phi_theta(mu, th, z) == phi_theta(mu, th.theta, z)
    with pytest.raises(DomainError):
        phi_theta(mu, [0.5, 0.5], z)


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


def test_power_sums_agree_with_vector_stats():
    """The running-product sums of theta^3 and theta^4, phi_theta's m = 3
    and 4 terms, are vector_stats' sum of cubes and of fourth powers bit
    for bit.  Over these 500 rows the sum of th**3 (pow) differs from the
    product form for 220, and the sum of th^2 * th^2 from that of
    th^3 * th for 118."""
    for th in sample_matrix(32, 500, 0):
        cubes, st = th * th * th, vector_stats(th)
        assert ((float(np.sum(cubes)), float(np.sum(cubes * th)))
                == (st["sum_cubes"], st["sum_abs_pow"][4]))


@pytest.mark.parametrize("n, seed", [(1, 0), (32, 21), (256, 8), (1024, 37)])
def test_phi_theta_power_sums_are_bit_identical_to_per_m_sums(n, seed):
    """phi_theta equals the series summed from per-m power sums bit for bit,
    each sum float(np.sum(p)) of the running product p = th^(m-1) * th."""
    mu, th = Measure.binomial(0.25), sample(n, seed).theta
    per_m, p = [], th
    for _ in range(32):
        per_m.append(float(np.sum(p)))
        p = p * th
    kappa = measure_cumulants(mu, 32)
    rng = np.random.default_rng(seed)
    radius = 1.0 / (6.0 * mu.support_radius * np.max(np.abs(th)))
    for z in radius * rng.uniform(0.1, 0.9, 5) * np.exp(2j * np.pi * rng.random(5)):
        acc, zp = 1.0 / complex(z), 1.0 + 0j
        for k, s in zip(kappa, per_m):
            acc += k * s * zp
            zp *= complex(z)
        assert phi_theta(mu, th, z) == acc


@pytest.mark.parametrize("order", [0, -3, 2.5, 4.0, True, "8"])
@pytest.mark.parametrize("call", [
    lambda order: measure_cumulants(Measure.bernoulli(), order),
    lambda order: kargin_bound_check(Measure.bernoulli(), order),
    lambda order: phi_theta(Measure.bernoulli(), WeightVector.uniform(4), 0.1,
                            order=order),
], ids=["measure_cumulants", "kargin_bound_check", "phi_theta"])
def test_order_must_be_an_integer_at_least_one(call, order):
    with pytest.raises(DomainError, match="order must be an integer >= 1"):
        call(order)


def test_order_takes_a_numpy_integer():
    mu = Measure.bernoulli()
    assert measure_cumulants(mu, np.int64(6)) == measure_cumulants(mu, 6)
