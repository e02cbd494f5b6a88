import numpy as np
import pytest

from freeconv.complexfn import cauchy, sqrt_cut
from freeconv.errors import BranchCutError, DomainError
from freeconv.measures import Measure


def test_sqrt_cut_squares_back():
    rng = np.random.default_rng(11)
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    z = z[np.abs(z.imag) > 1e-10]
    w = sqrt_cut(z)
    assert np.max(np.abs(w * w - z)) < 1e-12


def test_sqrt_cut_image_in_upper_half_plane():
    rng = np.random.default_rng(12)
    z = rng.normal(scale=5, size=500) + 1j * rng.normal(scale=5, size=500)
    z = z[np.abs(z.imag) > 1e-10]
    assert np.all(sqrt_cut(z).imag > 0)


def test_sqrt_cut_negative_reals_allowed():
    # the cut is [0, inf); the negative real axis is regular
    w = sqrt_cut(np.array([-4.0 + 0.0j]))
    assert w[0] == pytest.approx(2.0j)


def test_sqrt_cut_accurate_near_negative_axis():
    """Both components to full relative precision where Im z is tiny
    against Re z < 0 (there sqrt_cut equals the principal root)."""
    z = np.array([-9.92 + 1.9e-6j, -1.0 + 1e-12j, -1e3 + 1e-9j])
    w, ref = sqrt_cut(z), np.sqrt(z)
    assert np.all(np.abs(w.real - ref.real) <= 1e-15 * np.abs(ref.real))
    assert np.all(np.abs(w.imag - ref.imag) <= 1e-15 * np.abs(ref.imag))


def test_sqrt_cut_rejects_points_on_cut():
    with pytest.raises(BranchCutError):
        sqrt_cut(np.array([4.0 + 0.0j]))
    with pytest.raises(BranchCutError):
        sqrt_cut(np.array([1.0 + 1e-15j]))


def test_sqrt_cut_continuity_across_negative_axis():
    eps = 1e-12
    up = sqrt_cut(np.array([-1.0 + eps * 1j]))[0]
    dn = sqrt_cut(np.array([-1.0 - eps * 1j]))[0]
    assert abs(up - dn) < 1e-6


def test_cauchy_atomic_matches_direct_sum():
    mu = Measure.binomial(0.3)
    z = np.array([0.5 + 1.0j, -1.0 + 0.2j])
    direct = sum(w / (z - x) for x, w in mu.atoms)
    assert np.max(np.abs(cauchy(mu, z) - direct)) < 1e-14


def test_cauchy_semicircle_asymptotics():
    """G(iy) ~ 1/(iy) for large y; first correction is variance / (iy)^3."""
    sc = Measure.semicircle(1.0)
    y = 100.0
    g = complex(cauchy(sc, np.array([1j * y]))[0])
    assert abs(g - 1.0 / (1j * y)) < 2.0 / y**3
    for y in (1e6, 1e8):  # no cancellation between z and the root
        g = complex(cauchy(sc, 1j * y))
        assert abs(g * 1j * y - 1.0) < 1e-10


def test_cauchy_maps_to_lower_half_plane():
    rng = np.random.default_rng(13)
    z = rng.normal(size=100) + 1j * np.abs(rng.normal(size=100)) + 1e-6j
    z = np.append(z, -2e4 + 1j)  # far out, where Im G is tiny
    for mu in (Measure.semicircle(1.0), Measure.binomial(0.25)):
        assert np.all(cauchy(mu, z).imag < 0)


def test_cauchy_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        cauchy(Measure.bernoulli(), np.array([1.0 - 1j]))


def test_f_transform_dissipative():
    """Im F(z) >= Im z for reciprocal Cauchy transforms F = 1/G."""
    rng = np.random.default_rng(14)
    z = rng.normal(size=100) + 1j * (0.01 + np.abs(rng.normal(size=100)))
    for mu in (Measure.semicircle(2.0), Measure.binomial(0.4)):
        F = 1.0 / cauchy(mu, z)
        assert np.all(F.imag >= z.imag - 1e-12)


def test_semicircle_g_closed_form_on_axis():
    """G(z) = (z - sqrt(z^2 - 4))/2 for the unit-variance semicircle."""
    sc = Measure.semicircle(1.0)
    z = np.linspace(-3, 3, 41) + 0.7j
    g = cauchy(sc, z)
    assert np.max(np.abs(g * g - z * g + 1.0)) < 1e-12
