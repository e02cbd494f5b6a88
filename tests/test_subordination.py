import hashlib
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import subordination
from freeconv.complexfn import cauchy
from freeconv.errors import DomainError, IterationError
from freeconv.measures import Measure
from freeconv.sphere import WeightVector, sample
from freeconv.subordination import (_TILE, SolveOptions, _setup, solve,
                                    solve_grid, weighted_summands)

from oracles import binomial_convolution_g


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
    warm = solve(ms, z1, init=solve(ms, z0).Z)
    assert warm.G == pytest.approx(cold.G, abs=1e-9)


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
    init = solve(ms, 0.3 + 0.07j).Z
    for point, grid in ((solve(ms, z), solve(ms, [z])),
                        (solve(ms, z, init=init),
                         solve_grid(ms, [z], init=init[:, None]))):
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
    with pytest.raises(DomainError):
        SolveOptions(tol=-1.0)
    with pytest.raises(DomainError):
        SolveOptions(max_iters=0)


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
        solve([Measure.bernoulli()] * 2, 1j, init=[0.5j, 1j])


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
    (_random_sum(4), 201, "97ebd097828b194b130c105ed560f282aa635c3cfd56b6c20c4774fdfd3a043a"),
    (_random_sum(8), 201, "52a9e352b09471ff5316af1c7cb62efd8d1bae5c95e3ad09f569c9a91e9f9c12"),
    (_random_sum(16), 2001, "600a86b01b2b5646ad5c9be4af4d5f37f50ce7521c82028017a7bd074bcefc61"),
    (_random_sum(64), 500, "5bef26a1f8c8d0a5d69d5491524c0bb1ef1a241f23e083f3ce0af56e42c28c75"),
    (_MIXED, 401, "b7a066c18533340e13679819ae3840450f419a8614f1d00899f46024b6e83540"),
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


@pytest.mark.parametrize("env, workers", [
    ({}, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 4), ({"OMP_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
], ids=["unset", "openblas1", "omp1", "openblas-first", "invalid-skipped",
        "more-than-cores"])
def test_tile_threads_share_the_cores_with_blas(env, workers, monkeypatch):
    """Four cores over the threads OpenBLAS takes from the environment:
    unset, it runs one per core, and the solve keeps to one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert subordination._tile_workers() == workers


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


def test_tiles_see_the_callers_errstate(monkeypatch):
    """Worker threads start from numpy's default errstate; each tile runs
    in a copy of the caller's context, so it sees the caller's."""
    seen = []
    threads = _tile_spy(monkeypatch, lambda zs: seen.append(np.geterr()))
    with np.errstate(all="raise"):
        expected = np.geterr()
        solve_grid(_random_sum(64), _GRID)
    assert threading.get_ident() not in threads
    assert len(seen) == 8 and all(e == expected for e in seen)


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
