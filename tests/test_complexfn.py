import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _sqrt_cut_rel_err(z):
    """Relative error of sqrt_cut at the points z against i sqrt(-z) in
    40-digit principal roots."""
    import mpmath
    w = np.atleast_1d(sqrt_cut(z))
    with mpmath.workdps(40):
        refs = [1j * mpmath.sqrt(-mpmath.mpc(zk)) for zk in np.atleast_1d(z)]
        return np.array([float(abs(mpmath.mpc(wk) - ref) / abs(ref))
                         for wk, ref in zip(w, refs)])


def test_sqrt_cut_finite_near_the_largest_float():
    """Where |Re z| or |Im z| nears the largest float, the root is finite,
    in C+ and accurate to rounding."""
    z = np.array([1e308 + 1e308j, -1.5e308 + 1e308j, 1.7e308 + 1j, -1.7e308 - 1e300j])
    w = sqrt_cut(z)
    assert np.all(np.isfinite(w)) and np.all(w.imag > 0)
    assert np.all(_sqrt_cut_rel_err(z) <= 4.5e-16)


def test_sqrt_cut_accurate_over_the_plane():
    """Against 40 digits at 3000 points off the cut whose parts range from
    1e-300 to 1e300 in magnitude, in all four quadrants."""
    rng = np.random.default_rng(15)
    re, im = rng.choice([-1.0, 1.0], (2, 4800)) * 10.0 ** rng.uniform(-300, 300, (2, 4800))
    z = re + 1j * im
    z = z[(np.abs(z.imag) > 1e-14) | (z.real < -1e-14)][:3000]
    assert z.size == 3000
    w = sqrt_cut(z)
    assert np.all(w.imag > 0)
    assert np.all(_sqrt_cut_rel_err(z) <= 4.5e-16)


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
    # outside [-2, 2] at Im z far below the rounding of Re z, and on the
    # support at the smallest Im z
    z = np.append(z, [3 + 1e-15j, -3 + 1e-15j, 0.5 + 1e-300j])
    for mu in (Measure.semicircle(1.0), Measure.binomial(0.25)):
        g = cauchy(mu, z)
        assert np.all(np.isfinite(g))
        assert np.all(g.imag < 0)


def test_cauchy_semicircle_of_tiny_variance_is_the_point_mass():
    z = 0.5 + 1j
    g = cauchy(Measure.semicircle(1e-310), z)
    assert abs(g - 1.0 / z) <= 1e-15 * abs(1.0 / z)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cauchy_semicircle_accurate_near_the_edge(sign):
    """Against a 50-digit reference, just outside the edge at 2."""
    g = cauchy(Measure.semicircle(1.0), sign * 2.0000001 + 1e-12j)
    ref = sign * 0.9996838222302851 - 1.58063889065096e-09j
    assert abs(g - ref) <= 4e-16 * abs(ref)


def _semicircle_point(log_var, log_im, edge, side, log_gap, re):
    """(variance, z): z = sigma*w with Im w = 10^log_im and Re w either
    within 10^log_gap of the edge +-2 or re."""
    sigma = 10.0 ** (0.5 * log_var)
    if edge:
        re = side * (2.0 + np.copysign(10.0 ** log_gap, re))
    return sigma * sigma, sigma * complex(re, 10.0 ** log_im)


_semicircle_points = st.builds(
    _semicircle_point, st.floats(-300.0, 300.0), st.floats(-15.0, 2.0),
    st.integers(0, 2).map(lambda k: k == 0), st.sampled_from([1.0, -1.0]),
    st.floats(-12.0, -2.0), st.floats(-5.0, 5.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(point=_semicircle_points)
def test_cauchy_semicircle_solves_its_quadratic(point):
    """G solves variance G^2 - z G + 1 = 0 to rounding and lies in C-,
    over variances from 1e-300 to 1e300 and points down to 1e-15 sigma
    from the axis, a third of them within 1e-2 sigma of an edge."""
    v, z = point
    g = cauchy(Measure.semicircle(v), z)
    assert np.isfinite(g) and g.imag < 0
    scale = abs(v * g * g) + abs(z * g) + 1.0
    assert abs(v * g * g - z * g + 1.0) <= 8.0 * np.finfo(float).eps * scale


def test_cauchy_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        cauchy(Measure.bernoulli(), np.array([1.0 - 1j]))


@pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(1.0, np.nan),
                               complex(np.inf, 1.0), complex(0.0, np.inf)])
@pytest.mark.parametrize("mu", [Measure.bernoulli(), Measure.semicircle(1.0)])
def test_cauchy_rejects_non_finite_points(mu, z):
    with pytest.raises(DomainError):
        cauchy(mu, np.array([0.5j, z]))


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
