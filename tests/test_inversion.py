import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv.complexfn import cauchy, sqrt_cut
from freeconv.errors import DomainError, InversionError
from freeconv.experiments import weighted_summands
from freeconv.inversion import (GriddedDistribution, delta_eps, delta_tilde,
                                kolmogorov, levy, recover)
from freeconv.measures import (Measure, arcsine_cdf, semicircle_cdf,
                               semicircle_density)
from freeconv.sphere import sample
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


@pytest.mark.parametrize("kwargs, name", [
    ({"points": 2.5}, "points"), ({"points": 5.0}, "points"),
    ({"points": True}, "points"), ({"points": 1}, "points"),
    ({"points": np.int64(1)}, "points"),
    ({"eta": math.inf}, "eta"), ({"eta": math.nan}, "eta"), ({"eta": -1e-3}, "eta"),
    ({"eta": True}, "eta"),
    ({"x_min": -math.inf}, "x_min"), ({"x_min": math.nan}, "x_min"),
    ({"x_max": math.inf}, "x_max"), ({"x_min": 1.0}, "x_min"),
], ids=["points-2.5", "points-5.0", "points-bool", "points-1", "points-int64-1",
        "eta-inf", "eta-nan", "eta-negative", "eta-bool", "x_min-inf", "x_min-nan",
        "x_max-inf", "x_min-eq-x_max"])
def test_recover_rejects_bad_arguments_up_front(kwargs, name):
    """Each bad argument is a DomainError naming it, raised before g_eval
    runs and without a numpy RuntimeWarning."""
    args = {"x_min": -1.0, "x_max": 1.0, "points": 5, "eta": 1e-3} | kwargs

    def never(zs):
        raise AssertionError("g_eval called")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=name):
            recover(never, **args)


def test_recover_accepts_numpy_integer_points():
    d = recover(semicircle_g, -1, 1, points=np.int64(5), eta=1e-2)
    assert d.grid.size == 5


@pytest.mark.parametrize("points", [2, 3, 400, 4001])
def test_recover_grid_is_exactly_mirrored(points):
    """On [-R, R] the grid is its own mirror image bit for bit, with exact
    ends, strictly increasing and within 4 eps R of np.linspace's."""
    R = 3.1234
    grid = recover(semicircle_g, -R, R, points=points, eta=1e-2).grid
    assert np.array_equal(grid, -grid[::-1])
    assert grid[0] == -R and grid[-1] == R
    assert np.all(np.diff(grid) > 0.0)
    ref = np.linspace(-R, R, points)
    assert np.max(np.abs(grid - ref)) <= 4.0 * np.finfo(float).eps * R


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


def _normal_cdf(x):
    return 0.5 * np.vectorize(math.erfc)(-np.asarray(x, float) / math.sqrt(2.0))


@pytest.mark.parametrize("distance", [kolmogorov, levy])
@pytest.mark.parametrize("other", [semicircle_cdf, Measure.bernoulli()],
                         ids=["callable", "measure"])
def test_cdf_callable_must_fit_the_window(distance, other):
    """The standard normal leaves Phi(-4) ~ 3.2e-5 outside [-4, 4], mass
    the comparison grid cannot see: it is rejected, naming R."""
    with pytest.raises(DomainError, match="R = 4"):
        distance(_normal_cdf, other)
    with pytest.raises(DomainError, match="R = 4"):
        distance(other, _normal_cdf)


def test_cdf_callable_window_grows_with_the_measure():
    """A measure wider than 4 widens the window, and the callable is
    checked at its ends: the normal leaves Phi(-6) ~ 1e-9 outside
    [-6, 6]."""
    wide = Measure.atomic([-6.0, 6.0], [0.5, 0.5])
    with pytest.raises(DomainError, match="R = 6"):
        kolmogorov(_normal_cdf, wide)
    assert kolmogorov(semicircle_cdf, wide) == pytest.approx(0.5)


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
    (0.05, 0.0, "eps must"), (0.05, 1.0, "eps must"), ("0.5", 0.2, "a must"),
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


_STRIP_LAWS = {
    # the benchmark's Bernoulli(+-0.6) boxplus semicircle(0.64)
    "mixed": lambda: [Measure.bernoulli().scale(0.6), Measure.semicircle(0.64)],
    # the largest 13- vs 14-node gap seen, at u = -1.9
    "binomial-n16-seed1": lambda: weighted_summands(
        Measure.binomial(0.25).standardize(), sample(16, 1, index=0)),
}


@pytest.mark.parametrize("u_points", [1, 5])
@pytest.mark.parametrize("law", sorted(_STRIP_LAWS))
def test_delta_tilde_matches_quad_reference(law, u_points):
    """The graded Gauss-Legendre value against QUADPACK to 1e-13, at the
    same u; u_points = 1 is u = -1.9 alone."""
    from scipy.integrate import quad
    measures = _STRIP_LAWS[law]()
    ga = lambda z: complex(solve(measures, z).G)
    gb = lambda z: complex(semicircle_g(z))
    ref = max(quad(lambda v: abs(ga(u + 1j * v) - gb(u + 1j * v)), 0.05, 1.0,
                   epsabs=1e-13, epsrel=0.0, full_output=1)[0]
              for u in np.linspace(-1.9, 1.9, u_points)) + 0.05 + 0.2**1.5
    assert delta_tilde(ga, gb, a=0.05, eps=0.2, u_points=u_points) == \
        pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("u_points", [1, 4])
def test_delta_tilde_calls_each_g_27_times_per_u(u_points):
    calls = {"a": 0, "b": 0}

    def counted(key, scale):
        def g(z):
            calls[key] += 1
            return complex(cauchy(Measure.semicircle(scale), np.array([z]))[0])
        return g
    delta_tilde(counted("a", 1.0), counted("b", 1.3), a=0.05, eps=0.2,
                u_points=u_points)
    assert calls == {"a": 27 * u_points, "b": 27 * u_points}


@pytest.mark.parametrize("side", ["a", "b"])
def test_delta_tilde_raises_on_nan_naming_u(side):
    """One NaN at a node of the second u (u = 0 of three) raises there;
    max() would otherwise drop it."""
    count = [0]

    def g_nan(z):
        count[0] += 1
        return complex(math.nan) if count[0] == 27 + 5 else semicircle_g(z)
    g_a, g_b = (g_nan, semicircle_g) if side == "a" else (semicircle_g, g_nan)
    with pytest.raises(InversionError, match=r"u=0 .*error estimate nan"):
        delta_tilde(g_a, g_b, a=0.05, eps=0.2, u_points=3)


def test_cdf_callable_is_checked_at_a_gridded_inputs_ends():
    """A constant 1/2 is no CDF: against a grid on [-1, 1] it is rejected,
    naming both ends, and not read as a distance of 0.498."""
    narrow = recover(semicircle_g, -1, 1, points=201, eta=1e-2)
    half = lambda x: 0.5 * np.ones_like(x)
    for a, b in ((narrow, half), (half, narrow)):
        for distance in (kolmogorov, levy):
            with pytest.raises(DomainError, match="ends -1 and 1 of the gridded"):
                distance(a, b)


def test_measure_is_checked_at_a_gridded_inputs_ends():
    """The semicircle leaves 0.196 of its mass on each side of [-1, 1]: a
    grid there cannot see it, so the measure is rejected like its CDF
    callable, not read as a distance of 0.197."""
    narrow = recover(semicircle_g, -1, 1, points=201, eta=1e-2)
    for law in (Measure.semicircle(1.0), semicircle_cdf):
        for distance in (kolmogorov, levy):
            with pytest.raises(DomainError, match="ends -1 and 1 of the gridded"):
                distance(narrow, law)
            with pytest.raises(DomainError, match="ends -1 and 1 of the gridded"):
                distance(law, narrow)
    wide = recover(semicircle_g, -4, 4, points=801, eta=1e-2)
    assert kolmogorov(wide, Measure.semicircle(1.0)) < 0.01


def test_cdf_at_interpolates():
    d = recover(semicircle_g, -4, 4, points=2001, eta=1e-3)
    mid = d.cdf_at(np.array([0.0]))[0]
    assert mid == pytest.approx(0.5, abs=5e-3)
