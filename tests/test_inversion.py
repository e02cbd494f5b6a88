import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv.complexfn import cauchy, sqrt_cut
from freeconv.errors import DomainError, InversionError
from freeconv.inversion import (GriddedDistribution, delta_eps, delta_tilde,
                                kolmogorov, levy, recover)
from freeconv.measures import (Measure, arcsine_cdf, semicircle_cdf,
                               semicircle_density)
from freeconv.subordination import solve

from oracles import delta_eps_steps, levy_steps


def semicircle_g(zs):
    return cauchy(Measure.semicircle(1.0), zs)


def test_recover_semicircle_density():
    for eta in (1e-2, 1e-3):
        d = recover(semicircle_g, -4, 4, points=4001, eta=eta)
        m = np.abs(d.grid) <= 1.5
        err = np.max(np.abs(d.density[m] - semicircle_density(d.grid[m])))
        assert err <= 3.0 * eta


def test_recover_point_mass_is_cauchy_kernel():
    eta = 1e-3
    d = recover(lambda z: cauchy(Measure.point(0.0), z), -4, 4,
                points=4001, eta=eta)
    kernel = eta / (math.pi * (d.grid**2 + eta**2))
    assert np.max(np.abs(d.density - kernel)) < 1e-9


def test_recover_cdf_monotone_in_unit_range():
    d = recover(semicircle_g, -4, 4, points=2001, eta=1e-3)
    assert np.all(np.diff(d.cdf) >= -1e-15)
    assert 0.0 <= d.cdf[0] <= d.cdf[-1] <= 1.0
    assert d.tail_mass < 5e-3


_mass_summand = st.one_of(
    st.builds(lambda p, s: Measure.binomial(p).scale(s), st.floats(0.2, 0.8),
              st.floats(-0.7, 0.7).filter(lambda s: abs(s) > 0.05)),
    st.builds(Measure.semicircle, st.floats(0.05, 1.0)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(ms=st.lists(_mass_summand, min_size=1, max_size=3),
       eta=st.floats(0.02, 0.3), d=st.floats(0.5, 4.0))
def test_recovered_mass_is_one(ms, eta, d):
    """The trapezoid mass of recover's density on [-R, R], R = L + d, for a
    free sum supported in [-L, L] (L = the sum of the summands' radii).

    The density is p = mu * P_eta with the Cauchy kernel P_eta.  On the
    whole grid of step h the trapezoid sum of P_eta is 1 up to
    2q/(1-q), q = exp(-2 pi eta/h) (Poisson summation).  The window drops
    the grid points beyond +-R, whose sum is at most the Cauchy tail mass
    beyond the window, 2 eta/(pi d), and halves the two end points, at most
    h eta/(pi d^2).  So -2q/(1-q) <= 1 - mass <= 2q/(1-q) + 2 eta/(pi d)
    + h eta/(pi d^2), plus 1e-9 for the solver and rounding.
    """
    L = sum(mu.support_radius for mu in ms)
    R = L + d
    points = math.ceil(8.0 * R / eta) + 1  # h <= eta/4
    dist = recover(lambda zs: solve(ms, zs).G, -R, R, points=points, eta=eta)
    h = dist.grid[1] - dist.grid[0]
    q = math.exp(-2.0 * math.pi * eta / h)
    alias = 2.0 * q / (1.0 - q) + 1e-9
    window = 2.0 * eta / (math.pi * d) + h * eta / (math.pi * d * d)
    deficit = 1.0 - float(np.trapezoid(dist.density, dist.grid))
    assert -alias <= deficit <= alias + window


def test_recover_validates_arguments():
    with pytest.raises(DomainError):
        recover(semicircle_g, 2, -2)
    with pytest.raises(DomainError):
        recover(semicircle_g, -2, 2, eta=0.0)


def test_recover_rejects_density_dip():
    """A transform in the upper half-plane is no Cauchy transform: its
    density is negative."""
    with pytest.raises(InversionError, match="dips"):
        recover(lambda z: np.full(z.shape, 1j), -1, 1, points=5)


def test_csv_roundtrip():
    d = recover(semicircle_g, -3, 3, points=501, eta=1e-2)
    again = GriddedDistribution.from_csv(d.to_csv())
    assert np.array_equal(again.grid, d.grid)
    assert np.array_equal(again.density, d.density)
    assert again.eta == d.eta
    assert again.tail_mass == d.tail_mass


def test_from_csv_requires_eta_line():
    with pytest.raises(DomainError, match="eta="):
        GriddedDistribution.from_csv("x,density,cdf\n0,1,0.5\n")


def test_kolmogorov_known_value():
    """Arcsine vs semicircle on [-2, 2]: the CDF difference peaks at
    x = +-sqrt(2) with value 1/(2 pi)."""
    v = kolmogorov(lambda x: arcsine_cdf(np.asarray(x, float)),
                   lambda x: semicircle_cdf(np.asarray(x, float)))
    assert v == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-4)


def test_kolmogorov_shifted_step():
    step = lambda s: (lambda x: (np.asarray(x, float) >= s).astype(float))
    assert kolmogorov(step(0.0), step(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert kolmogorov(step(0.0), step(1.0)) == pytest.approx(1.0)


def test_levy_bounded_by_kolmogorov():
    rng = np.random.default_rng(31)
    for _ in range(20):
        c1, c2 = sorted(rng.uniform(0.3, 2.0, size=2))
        f = lambda x, c=c1: semicircle_cdf(np.asarray(x, float) / math.sqrt(c))
        g = lambda x, c=c2: semicircle_cdf(np.asarray(x, float) / math.sqrt(c))
        dl = levy(f, g)
        dk = kolmogorov(f, g)
        assert dl <= dk + 1e-12


def test_levy_of_shift_is_shift():
    """Horizontally shifting a continuous CDF by s gives Levy distance
    about s/... bounded by s; for a 45-degree-steep region it equals s/2
    only for slope-1 CDFs, so just check the shift upper bound and
    positivity."""
    f = lambda x: semicircle_cdf(np.asarray(x, float))
    g = lambda x: semicircle_cdf(np.asarray(x, float) - 0.1)
    d = levy(f, g)
    assert 0.01 < d <= 0.1 + 1e-9


def _levy_violation(f, g, nodes, s):
    """Largest violation of the Levy condition F(x - s) - s <= G(x) <=
    F(x + s) + s, over all x, for CDFs f and g linear between the nodes:
    both sides are piecewise linear with breaks at nodes and nodes +- s."""
    xs = np.concatenate([nodes, nodes - s, nodes + s])
    return max(np.max(f(xs - s) - s - g(xs)), np.max(g(xs) - f(xs + s) - s))


def test_levy_meets_its_definition_arcsine_semicircle():
    """The Levy condition of the piecewise-linear CDFs on the 4001-point
    [-4, 4] grid fails just below the computed distance and holds just
    above it."""
    grid = np.linspace(-4.0, 4.0, 4001)
    f = lambda x: np.interp(x, grid, arcsine_cdf(grid))
    g = lambda x: np.interp(x, grid, semicircle_cdf(grid))
    d = levy(arcsine_cdf, semicircle_cdf)
    assert _levy_violation(f, g, grid, d - 1e-12) > 0.0
    assert _levy_violation(f, g, grid, d + 1e-12) <= 0.0


def test_gridded_pair_compared_on_both_grids():
    """The CDFs differ most at x = 0.6, a node of b's grid only; every
    distance sees it."""
    a = GriddedDistribution(grid=np.array([-2.0, 0.0, 2.0]), density=np.zeros(3),
                            cdf=np.array([0.0, 0.5, 1.0]), eta=1e-3, tail_mass=0.0)
    b = GriddedDistribution(grid=np.array([-2.0, 0.6, 2.0]), density=np.zeros(3),
                            cdf=np.array([0.0, 0.9, 1.0]), eta=1e-3, tail_mass=0.0)
    assert kolmogorov(a, b) == pytest.approx(0.25, abs=1e-15)
    # anchored at -1.5, where F_b - F_a = 0.9 * 0.5/2.6 - 0.125
    assert delta_eps(a, b, 0.5) == pytest.approx(0.25 - (0.45 / 2.6 - 0.125),
                                                 abs=1e-15)
    nodes = np.union1d(a.grid, b.grid)
    d = levy(a, b)
    assert _levy_violation(a.cdf_at, b.cdf_at, nodes, d - 1e-12) > 0.0
    assert _levy_violation(a.cdf_at, b.cdf_at, nodes, d + 1e-12) <= 0.0


_atoms = st.lists(st.tuples(st.one_of(st.floats(-3.0, 3.0),
                                      st.sampled_from([-1.5, 0.0, 0.3, 1.5])),
                            st.floats(0.05, 1.0)),
                  min_size=1, max_size=5, unique_by=lambda a: a[0])


def _measure(atoms):
    total = sum(w for _, w in atoms)
    return Measure.atomic([x for x, _ in atoms], [w / total for _, w in atoms])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fa=_atoms, fb=_atoms)
def test_atomic_distances_match_step_oracles(fa, fb):
    """Random atomic pairs, atoms at the Delta_eps window's ends included,
    against the step-CDF oracles built from the atoms alone."""
    a, b = _measure(fa), _measure(fb)
    assert levy(a, b) == pytest.approx(levy_steps(a.atoms, b.atoms), abs=1e-12)
    assert delta_eps(a, b, 0.5) == pytest.approx(
        delta_eps_steps(a.atoms, b.atoms, 0.5), abs=1e-12)


def test_delta_eps_checks_each_grid_window():
    """A grid on [-1, 1] does not cover [-1.5, 1.5], whatever the other
    grid covers."""
    wide = recover(semicircle_g, -3, 3, points=601, eta=1e-2)
    narrow = recover(semicircle_g, -1, 1, points=201, eta=1e-2)
    for a, b in ((wide, narrow), (narrow, wide), (narrow, semicircle_cdf)):
        with pytest.raises(DomainError, match="cover"):
            delta_eps(a, b, 0.5)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.1])
def test_delta_eps_rejects_eps_out_of_range(eps):
    with pytest.raises(DomainError, match="eps"):
        delta_eps(semicircle_cdf, arcsine_cdf, eps)


@pytest.mark.parametrize("a, eps, match", [
    (0.0, 0.2, "a must"), (1.0, 0.2, "a must"),
    (0.05, 0.0, "eps must"), (0.05, 1.0, "eps must"),
])
def test_delta_tilde_rejects_parameters_out_of_range(a, eps, match):
    g = lambda z: 0j
    with pytest.raises(DomainError, match=match):
        delta_tilde(g, g, a=a, eps=eps)


@pytest.mark.parametrize("u_points", [0, -1])
def test_delta_tilde_rejects_u_points_below_one(u_points):
    """With no u there is no sup to take: 0 points would report a + eps^1.5
    without evaluating either G."""
    def g(z):
        raise AssertionError("G evaluated")
    with pytest.raises(DomainError, match="u_points"):
        delta_tilde(g, g, a=0.05, eps=0.2, u_points=u_points)


@pytest.mark.parametrize("u_points", [2.5, 3.0, "3", None])
def test_delta_tilde_rejects_non_integer_u_points(u_points):
    def g(z):
        raise AssertionError("G evaluated")
    with pytest.raises(DomainError, match="u_points must be an integer"):
        delta_tilde(g, g, a=0.05, eps=0.2, u_points=u_points)


def test_delta_eps_anchored_at_left_endpoint():
    """Identical up to a constant vertical offset inside the window: the
    anchored pseudometric is 0 for a pure offset of the same CDF."""
    f = lambda x: semicircle_cdf(np.asarray(x, float))
    g = lambda x: semicircle_cdf(np.asarray(x, float)) + 0.01
    assert delta_eps(f, g, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert delta_eps(f, f, 0.5) == 0.0


def test_delta_eps_le_twice_kolmogorov():
    rng = np.random.default_rng(32)
    for _ in range(20):
        c = rng.uniform(0.5, 1.5)
        f = lambda x: semicircle_cdf(np.asarray(x, float))
        g = lambda x, cc=c: semicircle_cdf(np.asarray(x, float) / math.sqrt(cc))
        assert delta_eps(f, g, 0.3) <= 2.0 * kolmogorov(f, g) + 1e-6


def test_delta_tilde_zero_for_identical():
    g = lambda z: complex(cauchy(Measure.semicircle(1.0), np.array([z]))[0])
    v = delta_tilde(g, g, a=0.05, eps=0.2)
    assert v == pytest.approx(0.05 + 0.2**1.5, abs=1e-9)


def test_delta_tilde_detects_difference():
    g1 = lambda z: complex(cauchy(Measure.semicircle(1.0), np.array([z]))[0])
    g2 = lambda z: complex(cauchy(Measure.semicircle(1.3), np.array([z]))[0])
    base = 0.05 + 0.2**1.5
    assert delta_tilde(g1, g2, a=0.05, eps=0.2) > base + 1e-3


def test_delta_tilde_raises_when_quadrature_misses_tolerance():
    rough = lambda z: complex(math.sin(1e3 * z.imag))
    with pytest.raises(InversionError, match=r"u=.*error estimate"):
        delta_tilde(rough, lambda z: 0j, a=0.05, eps=0.2, u_points=3)


def test_cdf_at_interpolates():
    d = recover(semicircle_g, -4, 4, points=2001, eta=1e-3)
    mid = d.cdf_at(np.array([0.0]))[0]
    assert mid == pytest.approx(0.5, abs=5e-3)
