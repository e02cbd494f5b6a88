import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import subordination
from freeconv.complexfn import cauchy
from freeconv.errors import DomainError, IterationError
from freeconv.measures import Measure
from freeconv.sphere import WeightVector, as_weights, sample
from freeconv.inversion import delta_tilde
from freeconv.subordination import (_POINT_ATOMS, _TILE, SolveOptions,
                                    _make_evaluator, _poles, _setup, solve,
                                    solve_grid, weighted_summands)

from oracles import (atomic_f_mp, atomic_g_zeros_mp, binomial_convolution_g,
                     semicircle_f_mp)


def test_single_measure_is_identity():
    mu = Measure.binomial(0.3)
    z = 0.4 + 0.8j
    sol = solve([mu], z)
    assert sol.G == pytest.approx(complex(cauchy(mu, np.array([z]))[0]))
    assert sol.Z[0] == pytest.approx(z)


def test_semicircle_halves_combine():
    """Two semicircles of variance 1/2 convolve to the unit semicircle."""
    halves = [Measure.semicircle(0.5), Measure.semicircle(0.5)]
    zs = np.linspace(-3, 3, 50) + 1j * np.linspace(0.05, 3, 50)
    G = solve(halves, zs).G
    ref = cauchy(Measure.semicircle(1.0), zs)
    assert np.max(np.abs(G - ref)) < 1e-10


def test_bernoulli_pair_gives_arcsine_transform():
    from freeconv.complexfn import sqrt_cut
    b = Measure.bernoulli()
    zs = np.linspace(-4, 4, 80) + 0.3j
    G = solve([b, b], zs).G
    assert np.max(np.abs(G - 1.0 / sqrt_cut(zs * zs - 4.0))) < 1e-10


@pytest.mark.parametrize("p,n", [(0.5, 2), (0.5, 8), (0.25, 4), (0.25, 16)])
def test_binomial_closed_form(p, n):
    mu = Measure.binomial(p).scale(1.0 / np.sqrt(n))
    zs = np.linspace(-3, 3, 60) + 1j
    G = solve([mu] * n, zs).G
    assert np.max(np.abs(G - binomial_convolution_g(p, n, zs))) < 1e-10


def test_imaginary_parts_ordered():
    """Im Z_i >= Im z, Im F >= Im z, Im G < 0 for every converged solve."""
    rng = np.random.default_rng(21)
    ms = [Measure.bernoulli(), Measure.binomial(0.3), Measure.semicircle(0.5)]
    for _ in range(25):
        z = complex(rng.normal(), 0.05 + abs(rng.normal()))
        sol = solve(ms, z)
        assert all(w.imag >= z.imag - 1e-10 for w in sol.Z)
        assert sol.F.imag >= z.imag - 1e-10
        assert sol.G.imag < 0


def test_permutation_invariance():
    ms = [Measure.bernoulli(), Measure.binomial(0.2), Measure.semicircle(1.0)]
    z = -0.7 + 0.4j
    a = solve(ms, z)
    b = solve([ms[2], ms[0], ms[1]], z)
    assert a.G == pytest.approx(b.G, abs=1e-10)
    assert a.Z[0] == pytest.approx(b.Z[1], abs=1e-9)
    assert a.Z[1] == pytest.approx(b.Z[2], abs=1e-9)
    assert a.Z[2] == pytest.approx(b.Z[0], abs=1e-9)


def test_warm_start_matches_cold_start():
    ms = [Measure.bernoulli()] * 4
    z0, z1 = 0.5 + 0.3j, 0.55 + 0.3j
    cold = solve(ms, z1)
    warm = solve_grid(ms, [z1], init=solve(ms, z0).Z[:, None])
    assert warm.G[0] == pytest.approx(cold.G, abs=1e-9)


def test_duplicate_collapse_matches_full_system():
    """The multiplicity-collapsed path must agree with an explicit solve
    forced through the general path via a warm start, also when repeats
    interleave with other summands; rows of equal measures are bit-equal."""
    mu = Measure.binomial(0.25).scale(0.5)
    b = Measure.bernoulli().scale(-0.4)
    s = Measure.semicircle(0.3)
    zs = np.array([0.3 + 0.5j, -1.2 + 0.2j])
    for ms in ([mu] * 4, [mu, b, mu, s, b, mu]):
        Zc, Fc, Gc, _, _, conv = solve_grid(ms, zs)
        init = np.tile(zs, (len(ms), 1))
        Zf, Ff, Gf, _, _, conv2 = solve_grid(ms, zs, init=init)
        assert np.all(conv) and np.all(conv2)
        assert np.max(np.abs(Gc - Gf)) < 1e-9
        assert np.max(np.abs(Zc - Zf)) < 1e-9
        for i, m in enumerate(ms):
            assert np.array_equal(Zc[i], Zc[ms.index(m)])


def test_scalar_solve_is_column_zero_of_grid_solve():
    ms = [Measure.bernoulli().scale(0.6), Measure.semicircle(0.64),
          Measure.bernoulli().scale(0.6)]
    z = 0.35 + 0.07j
    point, grid = solve(ms, z), solve(ms, [z])
    assert type(point.G) is complex and type(point.F) is complex
    assert type(point.iterations) is int and point.converged is True
    assert point.Z.shape == (3,)
    assert np.array_equal(point.Z, grid.Z[:, 0])
    for name in ("F", "G", "residual", "iterations", "converged"):
        assert getattr(point, name) == getattr(grid, name)[0]


def test_reciprocal_subordination_relation():
    """For the normalized weighted sum the solved Z_i obey
    F_i(Z_i) = F of the convolution and sum Z_i - z = (n-1) F."""
    rng = np.random.default_rng(22)
    th = rng.normal(size=8)
    th /= np.linalg.norm(th)
    ms = [Measure.bernoulli().scale(float(t)) for t in th]
    z = 0.9 + 0.6j
    sol = solve(ms, z)
    F = sol.F
    for i, m in enumerate(ms):
        Fi = 1.0 / complex(cauchy(m, np.array([sol.Z[i]]))[0])
        assert Fi == pytest.approx(F, abs=1e-9)
    assert sum(sol.Z) - z == pytest.approx((len(ms) - 1) * F, abs=1e-9)


def _random_law(rng, k):
    w = rng.random(k) + 0.1
    return Measure.atomic(rng.normal(size=k), w / w.sum())


_rng = np.random.default_rng(26)
# random laws of 1, 2, 3 and 7 atoms, one whose pole -1/2 is a double and
# one of mass 1 + 9e-13, near the 1e-12 a Measure allows
_KERNEL_LAWS = [_random_law(_rng, k) for k in (1, 2, 3, 7)] + [
    Measure.atomic([-1.0, 1.0], [0.25, 0.75]),
    Measure.atomic([0.0, 0.5, 2.0], [0.25, 0.5, 0.25 + 9e-13])]
_WIDE_LAW = _random_law(_rng, 40)


def _law_poles(laws):
    """_poles on the laws' stacked atoms, one list of poles per law."""
    K = max(len(mu.atoms) for mu in laws)
    pad = [K - len(mu.atoms) for mu in laws]
    X = np.array([[x for x, _ in mu.atoms] + [mu.atoms[-1][0]] * p
                  for mu, p in zip(laws, pad)]).T
    W = np.array([[w for _, w in mu.atoms] + [0.0] * p
                  for mu, p in zip(laws, pad)]).T
    P, _ = _poles(X, W, K - np.array(pad))
    return [P[:len(mu.atoms) - 1, i] for i, mu in enumerate(laws)]


def test_poles_interlace_the_atoms_and_match_the_zeros_of_g():
    """Each pole lies strictly between its two atoms and within 4 ulps of
    the 40-digit zero of G, on the scale at which double rounding of G's
    terms can place that zero at all: sum w/|p - x| / sum w/(p - x)^2."""
    for mu, poles in zip(_KERNEL_LAWS, _law_poles(_KERNEL_LAWS)):
        x, w = np.array(mu.atoms).T
        assert np.all((x[:-1] < poles) & (poles < x[1:]))
        for p, zero in zip(poles, atomic_g_zeros_mp(mu.atoms)):
            floor = np.sum(w / np.abs(p - x)) / np.sum(w / (p - x) ** 2)
            assert abs(p - zero) <= 4 * np.spacing(max(abs(float(zero)), floor))
    assert _law_poles(_KERNEL_LAWS)[-2][0] == -0.5


def _relative_errors(laws, points):
    """Per law, the relative errors of F and of 1/F' at its points, from
    one evaluator over all the laws (rows of differing atom counts, row i
    at points[i]), against the 40-digit sum form; where the law has at
    most _POINT_ATOMS atoms, the larger of those and its one-point
    kernel's errors."""
    m = max(map(len, points))
    Z = np.array([list(z) + [z[0]] * (m - len(z)) for z in points])
    F, inv = _make_evaluator(laws)[0](Z)
    assert np.all(np.isfinite(F) & np.isfinite(inv))
    errors = []
    for mu, row, f, d in zip(laws, points, F, inv):
        ref = np.array([atomic_f_mp(mu.atoms, z) for z in row]).T
        got = [np.array([f[:len(row)], d[:len(row)]])]
        kernels = _make_evaluator([mu])[1]
        if kernels is not None:
            got.append(np.array([kernels[0](complex(z)) for z in row]).T)
        err = np.max([np.abs(g / ref - 1) for g in got], axis=0)
        errors.append((err[0], err[1]))
    return errors


def test_pole_zero_kernel_matches_the_sum_form_near_atoms_and_poles():
    """1e-9 above an atom F keeps its relative accuracy.  1e-9 above a
    pole p, F ~ 1/(Z - p) and 1/F' ~ (Z - p)^2, so a pole off the exact
    zero p* by d moves them by d/1e-9 and 2d/1e-9 relative: that is the
    bound beside 1e-13, and for the law whose pole is a double, d = 0."""
    laws = _KERNEL_LAWS
    at_atoms = [[x + 1e-9j for x, _ in mu.atoms] for mu in laws]
    assert max(max(f.max(), d.max())
               for f, d in _relative_errors(laws, at_atoms)) < 1e-13
    poles = _law_poles(laws)
    above = [p + 1e-9j if p.size else np.array([1e-9j]) for p in poles]
    for mu, p, (f, d) in zip(laws, poles, _relative_errors(laws, above)):
        shift = np.array([float(abs(a - b)) for a, b in
                          zip(p, atomic_g_zeros_mp(mu.atoms))] or [0.0]) / 1e-9
        assert np.all(f < 1e-13 + 1.5 * shift) and np.all(d < 1e-13 + 3 * shift)


def test_each_row_holds_the_bytes_of_its_law_alone():
    """A row with fewer atoms than the block's most skips the missing
    poles (where= masks), so the other rows of a block move no byte of
    it; a law of mass 1 still takes F = (Z - x_k) prod ..., no 1/W."""
    Z = np.array([[0.3 + 0.2j, -1.1 + 1e-3j, 4.0 + 2.0j]] * len(_KERNEL_LAWS))
    F, inv = _make_evaluator(_KERNEL_LAWS)[0](Z)
    for i, mu in enumerate(_KERNEL_LAWS):
        f, d = _make_evaluator([mu])[0](Z[i:i + 1])
        assert np.array_equal(f[0], F[i]) and np.array_equal(d[0], inv[i])


def test_pole_zero_kernel_at_large_z_does_not_overflow():
    """At |Z| = 1e8 a product of 40 atom factors would overflow; the
    paired factors (Z - x_j)/(Z - p_j) stay near 1."""
    zs = 1e8 * np.exp(1j * np.array([0.01, 0.5, np.pi / 2, 3.0]))
    laws = [_WIDE_LAW, _KERNEL_LAWS[2]]
    assert max(max(f.max(), d.max())
               for f, d in _relative_errors(laws, [zs, zs])) < 1e-13


def test_semicircle_rows_match_the_closed_form():
    """A semicircle row's F = 1/G and 1/F' = 2 - Z G against 40 digits,
    away from the edges +-2 sqrt(variance), where 2 - Z G cancels; the
    one-point kernels too."""
    zs = np.array([0.3 + 0.2j, -3.0 + 1e-3j, 5.0 + 5.0j, 1e8j])
    V = [0.5, 2.0]
    evaluate, kernels = _make_evaluator([Measure.semicircle(v) for v in V])
    F, inv = evaluate(np.array([zs] * len(V)))
    for v, f, d, kernel in zip(V, F, inv, kernels):
        ref = np.array([semicircle_f_mp(v, z) for z in zs]).T
        point = np.array([kernel(complex(z)) for z in zs]).T
        for got in (np.array([f, d]), point):
            assert np.max(np.abs(got / ref - 1)) < 1e-13


def test_one_grid_over_laws_of_every_kind_meets_its_tolerance():
    """A point mass, a two-atom, a three-atom and a semicircle row in one
    block: the residual recomputed with cauchy from the returned Z is
    within the solver's tolerance at every point."""
    ms = [Measure.point(0.3), Measure.bernoulli(),
          Measure.atomic([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2]),
          Measure.semicircle(0.5)]
    zs = np.concatenate([np.linspace(-5, 5, 201) + 1e-3j,
                         np.linspace(-5, 5, 21) + 1j, [1e6 + 1e6j]])
    sol = solve_grid(ms, zs)
    assert np.all(sol.converged)
    F = np.array([1.0 / cauchy(mu, Zi) for mu, Zi in zip(ms, sol.Z)])
    n = len(ms)
    residual = np.maximum(np.abs(F - F[0]).max(axis=0),
                          np.abs(sol.Z.sum(axis=0) - zs - (n - 1) * F[0]))
    tol = np.maximum(SolveOptions().tol, 8 * np.finfo(float).eps * (
        np.abs(zs) + np.abs(sol.Z.sum(axis=0)) + (n - 1) * np.abs(F[0])))
    assert np.all(residual <= tol)


def test_lower_half_plane_rejected():
    with pytest.raises(DomainError):
        solve([Measure.bernoulli()], 1.0 - 0.5j)
    with pytest.raises(DomainError):
        solve_grid([Measure.bernoulli()], [1.0 + 0.0j])


@pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(1.0, np.nan),
                               complex(np.inf, 1.0)])
def test_non_finite_points_rejected(z):
    with pytest.raises(DomainError):
        solve_grid([Measure.bernoulli()] * 2, [0.5j, z])


@pytest.mark.parametrize("ms, zs, init", [
    ([Measure.bernoulli()] * 2, [1j, 2j], np.full((3, 1), 2j)),
    ([Measure.bernoulli()] * 3, [1j, 2j, 3j], np.full((2, 2), 3j)),
    ([Measure.bernoulli()] * 2, [1j, 2j], [[2j, complex(np.inf, 2.0)],
                                           [2j, 2j]]),
], ids=["rows", "measures", "inf"])
def test_init_of_wrong_shape_or_not_finite_rejected(ms, zs, init):
    with pytest.raises(DomainError):
        solve_grid(ms, zs, init=init)


@pytest.mark.parametrize("entry", [solve, solve_grid])
def test_points_of_two_dimensions_rejected(entry):
    """zs must be a point or a 1-D array; a 2-D one is named, not passed
    on to fail inside the Newton loop."""
    zs = [[0.5 + 1j, 1 + 1j], [0.2 + 1j, 0.3 + 1j]]
    with pytest.raises(DomainError, match=r"shape \(2, 2\)"):
        entry([Measure.bernoulli()] * 2, zs)


def test_empty_measure_list_rejected():
    with pytest.raises(DomainError):
        solve_grid([], [1j])


@pytest.mark.parametrize("entry", [solve_grid, solve])
@pytest.mark.parametrize("ms", [[Measure.bernoulli()] * 2,
                                [Measure.bernoulli(), Measure.semicircle(1.0)]],
                         ids=["identical", "distinct"])
def test_empty_grid_gives_empty_solution(entry, ms):
    """No points make no tiles, and no thread pool is started for them."""
    sol = entry(ms, np.array([], complex))
    assert sol.Z.shape == (2, 0)
    assert all(a.shape == (0,) for a in sol[1:])


def test_iteration_failure_carries_residual():
    ms = [Measure.bernoulli()] * 16
    with pytest.raises(IterationError) as exc:
        solve(ms, 0.01 + 1e-7j, SolveOptions(tol=1e-15, max_iters=2))
    assert exc.value.residual > 0


def test_grid_solve_failure_names_point_and_index():
    """On an array, solve raises at the first unconverged point."""
    ms = [Measure.bernoulli()] * 16
    zs = np.array([10.0 + 5.0j, 0.01 + 1e-7j, 0.02 + 1e-7j])
    opts = SolveOptions(tol=1e-15, max_iters=2)
    conv = solve_grid(ms, zs, opts).converged
    assert conv[0] and not conv[1]
    with pytest.raises(IterationError, match=r"z=\(0\.01\+1e-07j\) \(index 1\)") as exc:
        solve(ms, zs, opts)
    assert exc.value.residual > 0


def test_weighted_sum_g_uses_signed_weights():
    """Negative weights reflect the law; for an asymmetric base measure the
    result differs from using |theta|.  A WeightVector gives the same G as
    its array."""
    mu = Measure.binomial(0.2)
    th = np.array([0.8, -0.6])
    z = 0.5 + 1.0j
    g = lambda theta: solve(weighted_summands(mu, theta), z).G
    g_signed = g(th)
    g_abs = g(np.abs(th))
    assert abs(g_signed - g_abs) > 1e-4
    assert g(WeightVector(th)) == g_signed


def test_solve_options_validation():
    """tol must be a real in (0, inf) and max_iters an integer >= 1."""
    for kw in ({"tol": -1.0}, {"tol": 0.0}, {"tol": math.inf},
               {"tol": math.nan}, {"max_iters": 0}, {"max_iters": 2.5},
               {"max_iters": 3.0}, {"max_iters": True}, {"tol": True},
               {"tol": "1e-3"}):
        with pytest.raises(DomainError, match=next(iter(kw))):
            SolveOptions(**kw)


def test_solve_options_take_numpy_integers():
    opts = SolveOptions(tol=np.float64(1e-9), max_iters=np.int64(50))
    assert solve([Measure.bernoulli()] * 2, 0.5j, opts).iterations <= 50


def test_newton_converges_at_support_edges():
    """1024 identical summands at Im z = 1e-4: every point converges in a
    few Newton steps and G matches the closed form."""
    zs = np.linspace(-2.2, 2.2, 401) + 1e-4j
    _, _, G, _, iters, conv = solve_grid([Measure.bernoulli().scale(1 / 32)] * 1024,
                                         zs, SolveOptions(tol=1e-7))
    assert np.all(conv)
    assert iters.max() <= 50
    assert np.max(np.abs(G - binomial_convolution_g(0.5, 1024, zs))) < 1e-6


@pytest.mark.parametrize("measures, z", [
    ([Measure.bernoulli().scale(0.6), Measure.semicircle(0.64)], 1e4 + 1j),
    ([Measure.bernoulli().scale(0.25)] * 16, 1e3 + 1j),
], ids=["mixed", "uniform16"])
def test_large_z_stops_at_rounding_level(measures, z):
    """The residual's sums round at about eps (|z| + |sum Z_i|), above the
    1e-12 tolerance here; the stop test's rounding floor still ends the
    solve, and G matches 1/z + m_2/z^3 (both laws have m_2 = 1)."""
    _, _, G, _, iters, conv = solve_grid(measures, [z])
    assert conv[0] and iters[0] <= 3
    assert abs(G[0] - (1.0 / z + 1.0 / z**3)) <= 1e-9 * abs(1.0 / z)


def test_mixed_list_stays_in_domain():
    """A narrow semicircle next to atomic summands pushes its Z far out;
    no evaluation may leave Im Z_i >= Im z."""
    ms = [Measure.bernoulli().scale(0.5), Measure.binomial(0.2).scale(-0.7),
          Measure.semicircle(0.06)]
    zs = np.linspace(-3, 3, 401) + 1e-3j
    Z, _, G, _, _, conv = solve_grid(ms, zs)
    assert np.all(conv)
    assert np.all(Z.imag >= zs.imag)
    assert np.all(G.imag < 0)


def test_init_below_im_z_rejected():
    with pytest.raises(DomainError):
        solve_grid([Measure.bernoulli()] * 2, [1j], init=[[0.5j], [1j]])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.floats(0.05, 0.95), n=st.integers(1, 256),
       x=st.floats(-3.0, 3.0), y=st.floats(1e-4, 2.0))
def test_binomial_oracle_property(p, n, x, y):
    z = complex(x, y)
    tol = 1e-7 if n >= 64 else 1e-9
    mu = Measure.binomial(p).scale(1.0 / np.sqrt(n))
    _, _, G, _, iters, conv = solve_grid([mu] * n, [z], SolveOptions(tol=tol))
    assert conv[0] and iters[0] <= 50
    ref = complex(binomial_convolution_g(p, n, z))
    assert abs(G[0] - ref) <= 1e-6 * (1.0 + abs(ref))


_summand = st.one_of(
    st.builds(lambda p, s: Measure.binomial(p).scale(s), st.floats(0.05, 0.95),
              st.floats(-1.0, 1.0).filter(lambda s: abs(s) > 1e-3)),
    st.builds(Measure.semicircle, st.floats(1e-3, 1.0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ms=st.lists(_summand, min_size=2, max_size=6), data=st.data(),
       x=st.floats(-3.0, 3.0), y=st.floats(1e-3, 2.0))
def test_mixed_list_properties(ms, data, x, y):
    z = complex(x, y)
    opts = SolveOptions(tol=1e-10)
    Z, _, G, _, _, conv = solve_grid(ms, [z], opts)
    assert conv[0]
    assert np.all(Z[:, 0].imag >= y)
    assert G[0].imag < 0
    order = data.draw(st.permutations(range(len(ms))))
    Zp, _, Gp, _, _, convp = solve_grid([ms[i] for i in order], [z], opts)
    assert convp[0]
    assert abs(Gp[0] - G[0]) <= 1e-6 * (1.0 + abs(G[0]))
    assert np.all(np.abs(Zp[:, 0] - Z[list(order), 0]) <= 1e-6 * (1.0 + np.abs(Zp[:, 0])))


_located = st.one_of(
    st.builds(lambda p, s, a: Measure.binomial(p).scale(s).shift(a),
              st.floats(0.05, 0.95),
              st.floats(-1.0, 1.0).filter(lambda s: abs(s) > 1e-3),
              st.floats(-1.0, 1.0)),
    st.builds(Measure.point, st.floats(-1.0, 1.0)),
    st.builds(Measure.semicircle, st.floats(1e-3, 1.0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ms=st.lists(_located, min_size=2, max_size=6), near=st.booleans(),
       data=st.data())
def test_clt_start_reaches_the_cold_start_fixed_point(ms, near, data):
    """Summands with non-zero means, and z within 1e-9 of an atom at
    Im z = 1e-9: the free-CLT start and the start Z_i = z both converge,
    to the same Z.  Z is compared, not G: near an atom |G| is large and
    a residual below tol does not pin G to 1e-9."""
    atoms = [x for mu in ms for x, _ in mu.atoms]
    if near and atoms:
        x = data.draw(st.sampled_from(atoms)) + data.draw(st.floats(-1e-9, 1e-9))
        z = complex(x, 1e-9)
    else:
        z = complex(data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(1e-3, 2.0)))
    zs = np.array([z])
    clt = solve_grid(ms, zs)
    cold = solve_grid(ms, zs, init=np.tile(zs, (len(ms), 1)))
    assert clt.converged[0] and cold.converged[0]
    assert np.all(np.abs(clt.Z - cold.Z) <= 1e-9 * (1.0 + np.abs(cold.Z)))


@pytest.mark.parametrize("ms, mean", [
    ([Measure.semicircle(0.5), Measure.semicircle(0.3), Measure.semicircle(0.2)], 0.0),
    ([Measure.point(0.7), Measure.semicircle(0.6), Measure.point(-0.2),
      Measure.semicircle(0.4)], 0.5),
], ids=["semicircles", "shifted"])
def test_semicircle_summands_start_at_the_fixed_point(ms, mean):
    """For semicircle and point-mass summands the free-CLT start is the
    exact fixed point: no step is taken, the residual is at rounding
    level, and G is that of the semicircle of variance 1 about the mean."""
    zs = np.linspace(-3, 3, 801) + 1e-3j
    _, _, G, res, iters, conv = solve_grid(ms, zs)
    assert np.all(conv) and np.all(iters == 0)
    assert np.max(res) < 1e-14
    assert np.max(np.abs(G - cauchy(Measure.semicircle(1.0), zs - mean))) < 1e-13


def test_iteration_budget_of_a_random_weighted_sum():
    """Iteration counts are deterministic where wall time is not: 256
    distinct Bernoulli summands on 4001 points take about 11,200 steps
    from the free-CLT start (about 41,400 from Z_i = z)."""
    zs = np.linspace(-3, 3, 4001) + 1e-3j
    sol = solve_grid(_random_sum(256), zs)
    assert np.all(sol.converged)
    assert sol.iterations.sum() <= 15000


def _random_sum(n):
    return weighted_summands(Measure.bernoulli(), sample(n, 0, 0))


def test_init_path_spans_tiles_and_matches_binomial_oracle():
    """init= keeps all 256 identical coordinates, so the 4001 points run in
    many tiles; every point converges to the closed form."""
    n, zs = 256, np.linspace(-3, 3, 4001) + 1j
    assert zs.size > 3 * (_TILE // n)
    mu = Measure.bernoulli().scale(1.0 / np.sqrt(n))
    _, _, G, _, _, conv = solve_grid([mu] * n, zs, init=np.tile(zs, (n, 1)))
    assert np.all(conv)
    assert np.max(np.abs(G - binomial_convolution_g(0.5, n, zs))) < 1e-10


def test_tiles_are_independent_solves():
    """Each tile's columns of a three-tile solve equal solve_grid on that
    tile's points alone, bit for bit."""
    ms = _random_sum(64)
    width = _TILE // 64
    zs = np.linspace(-3, 3, 2 * width + 100) + 1e-3j
    full = solve_grid(ms, zs)
    for lo in range(0, zs.size, width):
        part = solve_grid(ms, zs[lo:lo + width])
        for a, b in zip(full, part):
            assert np.array_equal(a[..., lo:lo + width], b)


def _digest(sol):
    h = hashlib.sha256()
    for a in sol:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


_MIXED = [Measure.bernoulli().scale(0.5), Measure.binomial(0.2).scale(-0.7),
          Measure.semicircle(0.06)]


@pytest.mark.parametrize("ms, m, digest", [
    (_random_sum(4), 201, "4f9c508ef9d1a1cc4e36811a8d855e6944c42511a0d700e2d02cd26be6541313"),
    (_random_sum(8), 201, "e2b3bbb47cd89b82da70ba2f022527b551628d1026b7a5bed7db385fb427412a"),
    (_random_sum(16), 2001, "1ea60821d01302228d91714fabe4dc8d276c7ce95e94e5280af0cf83ca1c805c"),
    (_random_sum(64), 500, "2d192bde7b0bb00d6ffbb7e04c1ad1cc1d818db9768fe487163aa8a36c0531f1"),
    (_MIXED, 401, "5ce5d1e324acad82bcceb966ee3a36e1d05cf9320fd82e0675ebf9432b8e57ef"),
], ids=["n4", "n8", "n16", "n64", "mixed"])
def test_single_tile_solve_bytes_are_pinned(ms, m, digest):
    """A call of at most one tile is one Newton loop over the whole block,
    so its bytes are pinned to those of the untiled solver."""
    assert m <= _TILE // len(ms)
    assert _digest(solve_grid(ms, np.linspace(-3, 3, m) + 1e-3j)) == digest


_GRID = np.linspace(-3, 3, 4001) + 1e-3j


@pytest.mark.parametrize("n", [16, 64, 256], ids=["n16", "n64", "n256"])
def test_tile_threads_give_the_bytes_of_one_thread(n, monkeypatch):
    """Tiles are independent solves writing disjoint columns, so how many
    threads run them does not move a byte.  Four threads, more than the
    cores of most hosts, switching often: overlapping writes would show."""
    ms = _random_sum(n)
    assert _GRID.size > _TILE // n  # more than one tile
    monkeypatch.setattr(subordination, "_WORKERS", 1)
    one = _digest(solve_grid(ms, _GRID))
    monkeypatch.setattr(subordination, "_WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = _digest(solve_grid(ms, _GRID))
    finally:
        sys.setswitchinterval(interval)
    assert many == one


_BLAS_DIGEST = """
import hashlib, numpy as np
from freeconv import Measure
from freeconv.sphere import sample
from freeconv.subordination import solve_grid, weighted_summands
sol = solve_grid(weighted_summands(Measure.bernoulli(), sample(256, 0, 0)),
                 np.linspace(-3, 3, 2001) + 1e-3j)
print(hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in sol)).hexdigest())
"""


def test_solve_bytes_do_not_depend_on_the_blas_threads():
    """No step calls BLAS, so a fresh process with OpenBLAS on one thread,
    on two, or on its default gives the same bytes.  OpenBLAS on two
    threads splits a complex matrix-vector product over some of these
    256-row tiles and rounds it differently, so a BLAS sum would fail."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = str(Path(subordination.__file__).parents[1])
    digests = set()
    for threads in ({"OPENBLAS_NUM_THREADS": "1"},
                    {"OPENBLAS_NUM_THREADS": "2"}, {}):
        res = subprocess.run([sys.executable, "-c", _BLAS_DIGEST],
                             env=base | threads, capture_output=True,
                             text=True, check=True)
        digests.add(res.stdout)
    assert len(digests) == 1


_TEN = sample(10, 0, 0).theta


@pytest.mark.parametrize("ms, at_z", [
    (_random_sum(17), False),
    (_random_sum(64), False),
    (_random_sum(256), False),
    ([Measure.bernoulli().scale(t) for t in _TEN[:5]]
     + [Measure.binomial(0.25).scale(t) for t in _TEN[5:]], False),
    ([Measure.semicircle(v) for v in np.linspace(0.01, 0.1, 20)], False),
    (weighted_summands(Measure.bernoulli(), np.repeat(sample(8, 0, 0).theta, 4) / 2),
     False),
    (weighted_summands(Measure.bernoulli(), np.repeat(sample(200, 0, 0).theta, 4) / 2),
     False),
    (_random_sum(64), True),
], ids=["distinct-17", "distinct-64", "distinct", "two-and-three-atoms",
        "semicircles", "small-partial-collapse", "partial-collapse", "init-64"])
def test_a_points_bytes_do_not_depend_on_the_other_points(ms, at_z):
    """Every start, free-CLT or init (at_z: Z_i = z), is points-major and a
    column mask keeps it so: every sum and step runs along a point's own
    column, so a point solved alone, or among any other points in any
    order, gets the bytes it gets in the whole grid.  One point of a
    system of at most _POINT_ATOMS coordinate-atoms runs in Python
    arithmetic (_newton_point), so there it is not solved alone."""
    zs = np.linspace(-3, 3, 601) + 1e-3j
    init = np.tile(zs, (len(ms), 1)) if at_z else None
    full = solve_grid(ms, zs, init=init)
    atoms = sum(len(mu.atoms) if mu.kind == "atomic" else 1 for mu in set(ms))
    singles = [[0], [377]] if at_z or atoms > _POINT_ATOMS else []
    rng = np.random.default_rng(0)
    picks = [rng.choice(zs.size, size, replace=False) for size in (2, 2, 2, 2, 50)]
    for pick in singles + picks:
        part = solve_grid(ms, zs[pick], init=init[:, pick] if at_z else None)
        for a, b in zip(full, part):
            assert np.array_equal(a[..., pick], b)


def _tile_spy(monkeypatch, before):
    """Run before(zs) at the start of every tile; returns the threads seen."""
    newton, threads = subordination._newton, []

    def spy(evaluate, c, n, zs, *rest):
        threads.append(threading.get_ident())
        before(zs)
        return newton(evaluate, c, n, zs, *rest)
    monkeypatch.setattr(subordination, "_newton", spy)
    monkeypatch.setattr(subordination, "_WORKERS", 2)
    return threads


def test_tile_exception_propagates(monkeypatch):
    class TileFailure(Exception):
        pass

    def fail_second_tile(zs):
        if zs[0] != _GRID[0]:
            raise TileFailure
    threads = _tile_spy(monkeypatch, fail_second_tile)
    with pytest.raises(TileFailure):
        solve_grid(_random_sum(64), _GRID)
    assert threading.get_ident() not in threads


# two atoms whose pole arithmetic under- and overflows
_CLOSE_ATOMS = Measure.atomic([0.0, 2.7e-221], [0.5, 0.5])


def test_a_callers_errstate_moves_no_byte_and_raises_nothing(monkeypatch):
    """Every solve runs under the one floating-point rule, whatever the
    caller's errstate: under all="raise", with the setup rebuilt each time,
    a multi-tile, a single-tile and a one-point solve of a system with two
    atoms 2.7e-221 apart give the bytes of the same solve under numpy's
    defaults."""
    monkeypatch.setattr(subordination, "_WORKERS", 2)
    pair = [_CLOSE_ATOMS, Measure.bernoulli()]
    calls = [(_random_sum(64) + [_CLOSE_ATOMS], _GRID),
             (pair, np.linspace(-3, 3, 41) + 0.01j), (pair, [0.3 + 0.2j])]
    expected = [_digest(solve_grid(ms, zs)) for ms, zs in calls]
    for (ms, zs), digest in zip(calls, expected):
        _setup.cache_clear()
        with np.errstate(all="raise"):
            assert _digest(solve_grid(ms, zs)) == digest


@pytest.mark.parametrize("law", [
    Measure.atomic([1.0, math.nextafter(1.0, 2.0)], [0.5, 0.5]), _CLOSE_ATOMS,
    Measure.atomic([-1.0, 0.0, 1e-300], [1 / 3, 1 / 3, 1 / 3]),
], ids=["one-ulp", "2.7e-221", "three-with-1e-300"])
@pytest.mark.parametrize("zs", [[0.3 + 0.2j], [0.3 + 0.2j, 1j]],
                         ids=["one-point", "grid"])
def test_close_atoms_solve_without_a_warning(law, zs):
    """Laws with atoms one ulp, 2.7e-221 or 1e-300 apart solve beside a
    Bernoulli law on both paths, with no RuntimeWarning (an error under
    this suite's filter), to an F that inverts each summand's G."""
    ms = [law, Measure.bernoulli()]
    sol = solve_grid(ms, zs)
    assert sol.converged.all()
    for mu, Zi in zip(ms, sol.Z):
        assert np.abs(sol.F * cauchy(mu, Zi) - 1).max() <= 1e-12


def test_a_point_near_the_largest_float_warns_on_neither_path():
    """z = 1.5e308 + i overflows the grid's start; that is data, not a
    warning, and G there is the one-point solve's.  Beside a semicircle,
    whose G there underflows to 0 (so a plain 1/G would raise
    ZeroDivisionError in Python), both paths end the point unconverged."""
    b, z = Measure.bernoulli(), 1.5e308 + 1j
    grid, point = solve_grid([b, b], [z, 1j]), solve_grid([b, b], [z])
    assert grid.converged.all() and point.converged.all()
    assert grid.G[0] == point.G[0]
    s = Measure.semicircle(0.5)
    for z in (1.5e308 + 1j, 1.5e308j):
        for ms in ([s, b], [b, s]):
            grid, point = solve_grid(ms, [z, 1j]), solve_grid(ms, [z])
            assert not grid.converged[0] and not point.converged[0]
            assert grid.converged[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_finishes_a_multi_tile_solve(monkeypatch):
    """Tile threads live for one call, so a child forked after a threaded
    solve (whose threads do not exist in the child) can run its own."""
    monkeypatch.setattr(subordination, "_WORKERS", 2)
    ms = _random_sum(16)
    expected = _digest(solve_grid(ms, _GRID))
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            code = 0 if _digest(solve_grid(ms, _GRID)) == expected else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's solve hung")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def _mixed_pair():
    return [Measure.bernoulli().scale(0.6), Measure.semicircle(0.64)]


def test_equal_measures_share_a_setup_and_the_bytes():
    """Equal but distinct Measure objects hit the same cached setup and
    give the same bytes as the first call."""
    zs = np.linspace(-2, 2, 7) + 0.05j
    _setup.cache_clear()
    first = _digest(solve_grid(_mixed_pair(), zs))
    second = _digest(solve_grid(_mixed_pair(), zs))
    assert second == first
    assert _setup.cache_info().hits == 1


def test_setup_cache_leaves_init_calls_alone():
    """Calls with and without init, interleaved, each give the bytes of
    the same call made on an empty cache."""
    ms, zs = _mixed_pair() * 2, np.linspace(-2, 2, 5) + 0.1j
    init = np.tile(zs, (len(ms), 1))
    alone = []
    for kw in ({}, {"init": init}):
        _setup.cache_clear()
        alone.append(_digest(solve_grid(ms, zs, **kw)))
    for _ in range(2):
        assert _digest(solve_grid(ms, zs, init=init)) == alone[1]
        assert _digest(solve_grid(ms, zs)) == alone[0]


@pytest.mark.parametrize("shared, digest", [
    ([Measure.bernoulli().scale(1 / 8)] * 64,
     "6a93cd7eaeda9ce29cf1e4ca0c19c0fb919c5f02ce8c769034746bd66c68b86a"),
    ([Measure.bernoulli().scale(0.6), Measure.semicircle(0.16)] * 2,
     "78380f9d362c9752a2c1a984bf9470c05cfa28bdbc6b2b4028d8381022057a58"),
], ids=["one-measure", "two-measures"])
def test_equal_but_distinct_summands_share_a_coordinate(shared, digest):
    """Summands that are equal but distinct objects pass the identity
    dedupe as distinct and are merged by value in the setup: the same
    coordinates, in the same first-occurrence order, and the bytes of the
    list that shares one object per law."""
    fresh = [Measure.from_json(mu.to_json()) for mu in shared]
    assert len(set(map(id, fresh))) == len(fresh)
    zs = np.linspace(-3, 3, 201) + 1e-3j
    for ms in (shared, fresh, shared[:1] + fresh[1:]):
        _setup.cache_clear()
        sol = solve_grid(ms, zs)
        assert _digest(sol) == digest
    assert (sol.Z.strides[0] == 0) == (len(set(shared)) == 1)


def test_setup_cache_holds_its_objects_not_their_ids():
    """Lists freed between calls may leave their ids to the next one's
    objects; each call still gets the setup of its own laws."""
    zs = np.linspace(-2, 2, 5) + 0.1j
    for c in (0.3, 0.5, 0.3, 0.7):
        got = _digest(solve_grid([Measure.bernoulli().scale(c)] * 4, zs))
        _setup.cache_clear()
        assert got == _digest(solve_grid([Measure.bernoulli().scale(c)] * 4, zs))


def test_setup_cache_is_bounded():
    size = _setup.cache_info().maxsize
    for k in range(size + 5):
        solve([Measure.bernoulli().scale(0.1 + 0.01 * k)], 1j)
    assert _setup.cache_info().currsize <= size


def test_scalar_solve_step_count_on_strip_nodes():
    """One point at a time on Delta-tilde strip nodes (the u grid of
    delta_tilde at eps = 0.2, v in [a, 1] at a = 0.05): cheaper passes must
    not hide extra steps.  The total is pinned to the current solver."""
    ms = _mixed_pair()
    us, vs = np.linspace(-1.9, 1.9, 9), np.linspace(0.05, 1.0, 8)
    iters = [solve(ms, u + 1j * v).iterations for u in us for v in vs]
    assert max(iters) <= 4
    assert sum(iters) == 228


def _same_point(one, two):
    """A one-point solve (column 0 of one) and the same point solved as
    column 0 of a two-point grid (two), which runs the array loop: the
    same flags and steps, and G within 1e-13 (relative where |G| > 1, as
    near an atom at small Im z).  The paths round differently, so the
    steps can differ where the stop test is decided by rounding: then by
    one, and the earlier stop's residual lies within 10% of its tolerance
    (about 1 in 1,500 random points)."""
    assert one.converged[0] == two.converged[0]
    steps = (one.iterations[0], two.iterations[0])
    if steps[0] != steps[1]:
        first = (one, two)[int(np.argmin(steps))]
        assert abs(steps[0] - steps[1]) == 1
        assert first.residual[0] > 0.9 * SolveOptions().tol
    assert abs(one.G[0] - two.G[0]) <= 1e-13 * max(1.0, abs(two.G[0]))


_law = st.one_of(
    st.builds(lambda xs, ws: Measure.atomic(xs, [w / sum(ws[:len(xs)])
                                                 for w in ws[:len(xs)]]),
              st.lists(st.integers(-16, 16).map(lambda i: i / 8), min_size=1,
                       max_size=4, unique=True),
              st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4)),
    st.builds(Measure.semicircle, st.floats(1e-3, 2.0)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(laws=st.lists(_law, min_size=1, max_size=4),
       picks=st.lists(st.integers(0, 3), min_size=1, max_size=6),
       x=st.floats(-3.0, 3.0), e=st.floats(-6.0, 1.0))
def test_one_point_matches_its_grid_column(laws, picks, x, e):
    """Atomic laws of 1-4 atoms, semicircles and their sums, repeats
    included (at most 16 coordinate-atoms, so one point takes the Python
    path), at Im z from 1e-6 to 10."""
    ms, z = [laws[i % len(laws)] for i in picks], complex(x, 10.0 ** e)
    _same_point(solve_grid(ms, [z]), solve_grid(ms, [z, z]))


def test_one_point_init_matches_its_grid_column():
    """An init warm start, and an init Z_i = i of two Bernoulli summands,
    where F'(i) = 0: the Newton step divides by zero, gives no exception
    and no RuntimeWarning, and the sweep takes the step, at one point and
    at two."""
    warm = _mixed_pair() * 2
    for ms, z, init in ((warm, 0.35 + 0.07j, solve(warm, 0.3 + 0.07j).Z),
                        ([Measure.bernoulli()] * 2, 0.3 + 0.5j, np.full(2, 1j))):
        _same_point(solve_grid(ms, [z], init=init[:, None]),
                    solve_grid(ms, [z, z], init=np.tile(init[:, None], 2)))


@pytest.mark.parametrize("zs", [[1j], [1j, 2j]], ids=["one-point", "grid"])
def test_zero_derivative_of_f_warns_on_neither_path(zs):
    """F'(i) = 0 for the Bernoulli law: its 1/F' is not finite there, with
    no RuntimeWarning (an error under this suite's filter), and G(i) =
    -i/2 holds at step 0."""
    sol = solve_grid([Measure.bernoulli()], zs)
    assert sol.converged.all() and sol.iterations[0] == 0
    assert abs(sol.G[0] + 0.5j) <= 1e-15


def test_both_paths_raise_the_same_iteration_error():
    """max_iters = 1 at a point that needs 4 steps: a scalar, a one-point
    array and a two-point grid name the same z, index, residual and step
    count."""
    ms, z, opts = _mixed_pair(), 0.35 + 0.07j, SolveOptions(max_iters=1)
    texts = []
    for zs in (z, [z], [z, z]):
        with pytest.raises(IterationError) as exc:
            solve(ms, zs, opts)
        assert exc.value.iterations == 1
        texts.append(str(exc.value))
    assert texts[0] == texts[1] == texts[2]
    assert "z=(0.35+0.07j) (index 0)" in texts[0]


def test_one_point_of_a_small_system_skips_the_array_loop(monkeypatch):
    """delta_tilde over the mixed pair never enters _newton; one point of
    a system of _POINT_ATOMS coordinate-atoms does not either, and one of
    two atoms more does."""
    calls = []
    newton = subordination._newton
    monkeypatch.setattr(subordination, "_newton",
                        lambda *a: calls.append(a[3].size) or newton(*a))
    g = lambda z: solve(_mixed_pair(), z).G
    delta_tilde(g, lambda z: cauchy(Measure.semicircle(1.0), z), 0.05, 0.2,
                u_points=3)
    assert calls == []
    for k, entered in ((_POINT_ATOMS // 2, []), (_POINT_ATOMS // 2 + 1, [1])):
        ms = _random_sum(k)  # k distinct two-atom laws
        assert len(set(ms)) == k
        solve(ms, 0.3 + 0.2j)
        assert calls == entered


def test_grid_memory_stays_near_output_size():
    """256 distinct coordinates on 4001 points: the traced peak stays below
    twice the returned Z (the untiled solver peaked near 7x)."""
    ms, zs = _random_sum(256), np.linspace(-3, 3, 4001) + 1e-3j
    tracemalloc.start()
    try:
        sol = solve_grid(ms, zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(sol.converged)
    assert peak < 2 * sol.Z.nbytes


def test_identical_summands_solve_without_an_n_by_m_copy():
    """1024 identical Bernoulli summands at 4001 points: one coordinate is
    solved and Z is a stride-0 view of it, so the traced peak stays far
    below one n x m complex array (which Z.nbytes still reports)."""
    n, zs = 1024, np.linspace(-3, 3, 4001) + 1e-3j
    ms = weighted_summands(Measure.bernoulli(), WeightVector.uniform(n))
    tracemalloc.start()
    try:
        sol = solve_grid(ms, zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(sol.converged)
    assert sol.Z.shape == (n, zs.size) and sol.Z.nbytes == n * zs.size * 16
    assert sol.Z.strides[0] == 0
    assert peak < n * zs.size * 16 / 8


@pytest.mark.parametrize("ms, digest", [
    ([Measure.bernoulli().scale(1 / 8)] * 64,
     "6a93cd7eaeda9ce29cf1e4ca0c19c0fb919c5f02ce8c769034746bd66c68b86a"),
    ([Measure.bernoulli().scale(0.6), Measure.semicircle(0.16)] * 2,
     "78380f9d362c9752a2c1a984bf9470c05cfa28bdbc6b2b4028d8381022057a58"),
], ids=["one-measure", "two-measures"])
def test_collapsed_z_equals_the_gathered_rows(ms, digest):
    """A broadcast (one distinct measure) or gathered (two) Z holds, bit
    for bit, the rows the gathering solver returned; equal summands get
    equal rows."""
    sol = solve_grid(ms, np.linspace(-3, 3, 201) + 1e-3j)
    assert _digest(sol) == digest
    for i, mu in enumerate(ms):
        assert np.array_equal(sol.Z[i], sol.Z[ms.index(mu)])


_b, _s = Measure.bernoulli().scale(0.6), Measure.semicircle(0.64)


@pytest.mark.parametrize("ms, kw", [
    ([_b] * 8, {}), ([_b, _s] * 2, {}), ([_b, _s], {}), ([_b], {}),
    ([_b] * 3, {"init": np.full((3, 2), 0.5j)}),
], ids=["broadcast", "gathered", "plain", "one-summand", "init"])
def test_z_is_read_only_on_every_path(ms, kw):
    sol = solve_grid(ms, [0.1 + 0.5j, -0.2 + 0.5j], **kw)
    with pytest.raises(ValueError):
        sol.Z[0, 0] = 0.0
    init = kw.get("init")
    point = (solve(ms, 0.1 + 0.5j) if init is None
             else solve_grid(ms, [0.1 + 0.5j], init=init[:, :1]))
    with pytest.raises(ValueError):
        point.Z[0] = 0.0


def test_scalar_solve_of_identical_summands_returns_one_z_per_summand():
    n = 16
    sol = solve([Measure.bernoulli().scale(0.25)] * n, 0.3 + 0.2j)
    assert sol.Z.shape == (n,)
    assert np.all(sol.Z == sol.Z[0])
    assert sum(sol.Z) - (0.3 + 0.2j) == pytest.approx((n - 1) * sol.F, abs=1e-12)


@pytest.mark.parametrize("theta", [
    WeightVector.uniform(64), sample(64, 0, 0), [0.0, -0.0, 0.6, -0.8, 0.0],
], ids=["uniform", "random", "signed-zeros"])
def test_weighted_summands_scale_each_distinct_weight_once(theta, monkeypatch):
    """The list equals one scale per weight, down to the sign of zero, and
    mu.scale runs once per distinct weight value."""
    mu = Measure.binomial(0.3)
    expected = [mu.scale(float(t)) for t in as_weights(theta)]
    calls = []
    scale = Measure.scale
    monkeypatch.setattr(Measure, "scale",
                        lambda self, c: calls.append(c) or scale(self, c))
    got = weighted_summands(mu, theta)
    assert list(map(repr, got)) == list(map(repr, expected))
    distinct = set(as_weights(theta).tolist())
    assert len(calls) == len(distinct) == len({id(m) for m in got})
