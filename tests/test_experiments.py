import math
import re
import warnings

import numpy as np
import pytest

from freeconv.complexfn import cauchy
from freeconv import experiments
from freeconv.errors import BranchCutError, DomainError, IterationError
from freeconv.experiments import (cubic_roots, detect_support,
                                  fit_loglog_slope, functional_residuals,
                                  nonid_experiment, rate_experiment,
                                  rate_report_csv, recover_weighted_sum,
                                  superconvergence_radius, support_experiment)
from freeconv.inversion import GriddedDistribution, delta_tilde
from freeconv.measures import Measure
from freeconv.sphere import WeightVector, sample
from freeconv.subordination import (SolveOptions, _setup, by_identity, solve,
                                    solve_grid, weighted_summands)


def test_cubic_roots_reconstruct_polynomial():
    rng = np.random.default_rng(41)
    for _ in range(200):
        b, c, d = rng.normal(size=3) + 1j * rng.normal(size=3)
        roots = cubic_roots(b, c, d)
        assert abs(sum(roots) + b) < 1e-8
        assert abs(roots[0] * roots[1] * roots[2] + d) < 1e-8
        for w in roots:
            assert abs(((w + b) * w + c) * w + d) < 1e-7


def test_cubic_roots_triple_root():
    # (w - 1)^3 = w^3 - 3w^2 + 3w - 1
    roots = cubic_roots(-3.0, 3.0, -1.0)
    assert max(abs(w - 1.0) for w in roots) < 1e-4


def test_fit_loglog_slope_recovers_power_law():
    ns = [4, 8, 16, 32, 64]
    vals = [3.0 * n**-0.5 for n in ns]
    slope, r2 = fit_loglog_slope(ns, vals)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_loglog_slope_skips_nonpositive():
    with pytest.warns(UserWarning):
        slope, _ = fit_loglog_slope([2, 4, 8, 16], [1.0, 0.5, 0.0, 0.25])
    assert math.isfinite(slope)
    with pytest.raises(DomainError):
        fit_loglog_slope([2, 4], [1.0, 0.5])


def test_fit_loglog_slope_skips_non_finite_rows_with_one_warning():
    """inf and NaN rows are dropped by the same mask as nonpositive ones:
    the fit is that of the other rows, with no RuntimeWarning."""
    ns, vals = [4, 8, 16, 32, 64, 128], [0.5, math.inf, 0.25, math.nan, 0.125, 0.0]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        fit = fit_loglog_slope(ns, vals)
    assert [str(w.message) for w in seen] == [
        "skipping rows with non-finite or nonpositive distances in slope fit"]
    assert fit == fit_loglog_slope([4, 16, 64], [0.5, 0.25, 0.125])
    with pytest.warns(UserWarning), pytest.raises(DomainError,
                                                  match="at least 3 finite positive rows"):
        fit_loglog_slope([16, 64, 256], [1e-2, math.inf, 1e-3])


@pytest.mark.parametrize("rows, seed", [(3, 0), (4, 1), (5, 2), (7, 3)])
def test_fit_loglog_slope_rejects_one_weighted_n(rows, seed):
    """Error weights round the weighted mean of equal log n off it, so a
    single n must be rejected by counting distinct n, not by sxx == 0."""
    rng = np.random.default_rng(seed)
    with pytest.raises(DomainError, match="two distinct n"):
        fit_loglog_slope([16] * rows, rng.uniform(0.01, 0.02, rows),
                         rng.uniform(0.002, 0.003, rows))


def test_theta_off_the_unit_sphere_is_rejected():
    with pytest.raises(DomainError):
        superconvergence_radius(Measure.bernoulli(), [2.0, 2.0])


def test_superconvergence_radius_uniform_bernoulli():
    """Uniform weights on n = 1024 coordinates: 384/1024 = 0.375, and the
    odd-moment term vanishes for the symmetric two-point law."""
    r = superconvergence_radius(Measure.bernoulli(), WeightVector.uniform(1024))
    assert r == 0.375


def test_recover_weighted_sum_mass_and_symmetry():
    dist, stats = recover_weighted_sum(Measure.bernoulli(),
                                       WeightVector.uniform(16))
    assert dist.tail_mass < 1e-2
    assert stats["max_iterations"] > 0
    # symmetric law: density even to grid accuracy
    assert np.max(np.abs(dist.density - dist.density[::-1])) < 1e-6


def _spied_recovery(monkeypatch, measures, points, eta=1e-2):
    """_recover_sum's law with the point count of every solve it made."""
    sizes = []

    def spy(ms, zs, opts):
        sizes.append(np.size(zs))
        return solve(ms, zs, opts)

    monkeypatch.setattr(experiments, "solve", spy)
    dist, _ = experiments._recover_sum(measures, eta, points,
                                       experiments.DEFAULT_OPTIONS)
    return dist, sizes


def _full_grid_recovery(measures, points, eta=1e-2):
    R = experiments._window_radius(*by_identity(measures))
    return experiments.recover(lambda zs: solve(measures, zs).G, -R, R,
                               points=points, eta=eta)


_SYMMETRIC_SUMS = {
    "bernoulli-random-theta": weighted_summands(Measure.bernoulli(), sample(8, 0)),
    "semicircles": [Measure.semicircle(0.3), Measure.semicircle(0.7)],
    "three-atoms": [Measure.atomic([-1.5, 0.0, 1.5], [0.25, 0.5, 0.25]),
                    Measure.bernoulli().scale(0.5)],
}


@pytest.mark.parametrize("points", [401, 400])
@pytest.mark.parametrize("name", list(_SYMMETRIC_SUMS))
def test_symmetric_sum_solves_the_right_half(monkeypatch, name, points):
    """A sum of symmetric laws solves ceil(m/2) points; its density is its
    own exact mirror image and within 1e-12 of a full-grid solve."""
    measures = _SYMMETRIC_SUMS[name]
    dist, sizes = _spied_recovery(monkeypatch, measures, points)
    assert sizes == [math.ceil(points / 2)]
    assert np.array_equal(dist.density, dist.density[::-1])
    full = _full_grid_recovery(measures, points)
    assert np.array_equal(dist.grid, full.grid)
    assert np.max(np.abs(dist.density - full.density)) <= 1e-12


@pytest.mark.parametrize("measures", [[Measure.bernoulli()] * 4,
                                      [Measure.binomial(0.25).standardize()] * 4],
                         ids=["symmetric", "asymmetric"])
def test_unconverged_recovery_names_the_grid_index(measures):
    """The solved points are a prefix of the recovery grid, so the index an
    IterationError names is the grid's own, mirrored sum or not."""
    eta, points = 1e-3, 11
    with pytest.raises(IterationError) as exc:
        experiments._recover_sum(measures, eta, points, SolveOptions(max_iters=1))
    z, index = re.search(r"at z=(\S+) \(index (\d+)\)", str(exc.value)).groups()
    grid = _full_grid_recovery(measures, points, eta).grid
    assert complex(z) == grid[int(index)] + 1j * eta


_ASYMMETRIC_SUMS = {
    "binomial:0.25": [Measure.binomial(0.25).standardize()] * 4,
    "unequal-weights": [Measure.atomic([-1.0, 1.0], [0.3, 0.7]),
                        Measure.bernoulli()],
}


@pytest.mark.parametrize("points", [401, 400])
@pytest.mark.parametrize("name", list(_ASYMMETRIC_SUMS))
def test_asymmetric_sum_solves_every_point(monkeypatch, name, points):
    """A summand that is not symmetric keeps the full-grid solve, byte for
    byte."""
    measures = _ASYMMETRIC_SUMS[name]
    dist, sizes = _spied_recovery(monkeypatch, measures, points)
    assert sizes == [points]
    full = _full_grid_recovery(measures, points)
    for field in ("grid", "density", "cdf"):
        assert getattr(dist, field).tobytes() == getattr(full, field).tobytes()
    assert dist.tail_mass == full.tail_mass


def test_symmetric_support_is_symmetric():
    """Bernoulli with random weights: the detected support is [-hi, hi]
    exactly."""
    lo, hi = support_experiment(Measure.bernoulli(), sample(16, 3)).detected_support
    assert lo == -hi


def test_detect_support_on_semicircle():
    from freeconv.complexfn import cauchy
    d_eta = 1e-4
    from freeconv.inversion import recover
    dist = recover(lambda z: cauchy(Measure.semicircle(1.0), z), -4, 4,
                   points=4001, eta=d_eta)
    lo, hi = detect_support(dist, threshold=1e-5)
    assert -2.05 < lo < -1.97
    assert 1.97 < hi < 2.05


def test_detect_support_needs_a_density_core():
    flat = GriddedDistribution(grid=np.linspace(-1.0, 1.0, 5), density=np.zeros(5),
                               cdf=np.zeros(5), eta=1e-3, tail_mass=1.0)
    with pytest.raises(DomainError, match="no density core"):
        detect_support(flat, threshold=1e-5)


@pytest.mark.parametrize("threshold", [0.0, -1e-5, math.nan, math.inf, True])
def test_support_experiment_rejects_nonpositive_threshold(threshold):
    with pytest.raises(DomainError, match="density_threshold"):
        support_experiment(Measure.bernoulli(), WeightVector.uniform(4),
                           density_threshold=threshold)


def test_support_experiment_uniform_weights():
    # r_theta = 384 L^4 sum theta^4 = 384/n for uniform weights; this is
    # above the 1/2 precondition until n >= 768, so no containment verdicts
    rep = support_experiment(Measure.bernoulli(), WeightVector.uniform(64))
    assert rep.r_theta == pytest.approx(384.0 / 64.0)
    assert not rep.preconditions_met
    assert rep.contained_in_paper_bound is None
    assert rep.detected_support[0] < 0 < rep.detected_support[1]


def test_support_experiment_flags_unmet_preconditions():
    # n = 16 uniform: max|theta| = 1/4 > 1/(6L) = 1/6 fails the disc bound
    rep = support_experiment(Measure.bernoulli(), WeightVector.uniform(16))
    assert not rep.preconditions_met
    assert rep.contained_in_paper_bound is None


def test_functional_residuals_identities():
    th = sample(8, seed=2)
    zs = np.array([0.5 + 1j, -1.0 + 0.3j, 1.4 + 2.0j])
    terms = functional_residuals(Measure.bernoulli(), th, zs)
    for t in terms:
        assert t.residual_p <= 1e-8 * (1 + abs(t.z)) ** 3
        assert t.residual_q <= 1e-8 * (1 + abs(t.z)) ** 2
        assert t.vieta_sum_err <= 1e-9
        assert t.vieta_prod_err <= 1e-9
        # I3 is the minimal squared weight after sorting
        assert t.I3.real == pytest.approx(np.min(th.theta**2))


def test_functional_residuals_skewed_measure():
    """The odd-moment terms I4/I5 are exercised only when m3 != 0."""
    th = sample(6, seed=3)
    terms = functional_residuals(Measure.binomial(0.25), th,
                                 np.array([0.3 + 0.9j]))
    t = terms[0]
    assert abs(t.I5) > 0
    assert t.residual_p <= 1e-8 * (1 + abs(t.z)) ** 3


def test_functional_residuals_root_matching():
    th = sample(8, seed=4)
    grid = np.linspace(-1.5, 1.5, 9) + 1j
    terms = functional_residuals(Measure.bernoulli(), th, grid)
    assert all(t.matched_root_p == "omega3" for t in terms)
    assert all(t.matched_root_q == "omega_tilde2" for t in terms)
    assert max(t.match_dist_p for t in terms) < 1e-6
    # one batched solve over the grid agrees with solving each point alone
    for t in terms:
        (alone,) = functional_residuals(Measure.bernoulli(), th, [t.z])
        assert np.max(np.abs(np.subtract(alone.Z, t.Z))) < 1e-12


_CUBIC_CUT = "branch-cut degeneracy in the closed-form roots"
_QUADRATIC_CUT = " quadratic branch-cut degeneracy"


@pytest.mark.parametrize("cuts, failure", [
    ((True, False), _CUBIC_CUT),
    ((False, True), _QUADRATIC_CUT),
    ((True, True), _CUBIC_CUT + _QUADRATIC_CUT),
], ids=["cubic", "quadratic", "both"])
def test_functional_residuals_branch_cut_fallbacks(cuts, failure, monkeypatch):
    """When sqrt_cut meets its cut, the cubic's other roots come from
    cubic_roots and the quadratic's from the principal root: the same
    roots, and root_failure names each fallback taken."""
    th, z = sample(8, seed=2), 0.5 + 1j
    (ref,) = functional_residuals(Measure.bernoulli(), th, [z])
    assert ref.root_failure is None
    on_cut, sqrt_cut = iter(cuts), experiments.sqrt_cut

    def cut_sqrt(w):
        if next(on_cut):
            raise BranchCutError("on the cut")
        return sqrt_cut(w)

    monkeypatch.setattr(experiments, "sqrt_cut", cut_sqrt)
    (t,) = functional_residuals(Measure.bernoulli(), th, [z])
    assert t.root_failure == failure
    for got, want in ((t.roots_p, ref.roots_p), (t.roots_q, ref.roots_q)):
        got, want = sorted(got, key=lambda w: w.real), sorted(want, key=lambda w: w.real)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-9
    assert t.vieta_sum_err <= 1e-9 and t.vieta_prod_err <= 1e-9
    assert t.match_dist_p == pytest.approx(ref.match_dist_p, abs=1e-9)
    assert t.match_dist_q == pytest.approx(ref.match_dist_q, abs=1e-9)


def test_rate_experiment_small_schedule():
    rep = rate_experiment(Measure.bernoulli(), [4, 8, 16],
                          weight_mode="uniform", metrics=("delta",),
                          points=1001)
    deltas = [r.delta for r in rep.rows]
    assert deltas[0] > deltas[1] > deltas[2]
    assert "delta" in rep.slopes
    csv_text = rate_report_csv(rep)
    assert csv_text.startswith("n,rep,seed,weight_mode,delta")
    assert len(csv_text.strip().splitlines()) == 4


def test_rate_experiment_delta_tilde():
    mu = Measure.bernoulli()
    rep = rate_experiment(mu, [4, 8, 16], weight_mode="uniform",
                          metrics=("delta_tilde",), points=1001)
    sc = Measure.semicircle(1.0)
    for r in rep.rows:
        ref = delta_tilde(
            lambda z: solve(weighted_summands(mu, WeightVector.uniform(r.n)), z).G,
            lambda z: complex(cauchy(sc, z)), 0.05, 0.2, u_points=101)
        assert math.isfinite(r.delta_tilde)
        assert r.delta_tilde == ref


def test_rate_experiment_draws_each_n_in_one_batch(monkeypatch):
    """All reps of one n come from one batched sphere draw, and rep k's
    weights are the bytes of the scalar draw sample(n, seed, index=k)."""
    draws, thetas = [], []

    def spy_sample(n, seed, index):
        draws.append((n, seed, np.asarray(index).tolist()))
        return sample(n, seed, index)

    def spy_recover(mu, theta, **kw):
        thetas.append(theta)
        return recover_weighted_sum(mu, theta, **kw)

    monkeypatch.setattr(experiments, "sample", spy_sample)
    monkeypatch.setattr(experiments, "recover_weighted_sum", spy_recover)
    rate_experiment(Measure.bernoulli(), [4, 8], weight_mode="random",
                    metrics=("delta",), reps=3, seed=5, points=201)
    assert draws == [(4, 5, [0, 1, 2]), (8, 5, [0, 1, 2])]
    for i, theta in enumerate(thetas):
        n, rep = (4, 8)[i // 3], i % 3
        assert np.asarray(theta).tobytes() == sample(n, 5, index=rep).theta.tobytes()


def test_rate_experiment_validates_schedule():
    with pytest.raises(DomainError):
        rate_experiment(Measure.bernoulli(), [8, 4])
    with pytest.raises(DomainError):
        rate_experiment(Measure.bernoulli(), [1, 2])
    with pytest.raises(DomainError):
        rate_experiment(Measure.bernoulli(), [4, 8], weight_mode="magic")


@pytest.mark.parametrize("weight_mode", ["uniform", "random"])
@pytest.mark.parametrize("kw, name", [
    ({"reps": 2.5}, "reps=2.5"), ({"reps": True}, "reps=True"),
    ({"n_schedule": [4.5, 8, 16]}, "4.5"), ({"n_schedule": [True, 8]}, "True"),
], ids=["reps-float", "reps-bool", "n-float", "n-bool"])
def test_rate_experiment_rejects_non_integer_reps_and_n(kw, name, weight_mode):
    """A reps or an n that is not an integer, a bool included, is an input
    error that names it, before any weights are drawn."""
    kw = {"n_schedule": [4, 8], **kw}
    with pytest.raises(DomainError, match=re.escape(name)):
        rate_experiment(Measure.bernoulli(), weight_mode=weight_mode,
                        points=201, **kw)


def test_nonid_experiment_states_ratio():
    ms = [Measure.bernoulli(), Measure.binomial(0.3).scale(1.5),
          Measure.semicircle(0.8), Measure.bernoulli().scale(0.7)] * 3
    out = nonid_experiment(ms, points=1001)
    bn = math.sqrt(sum(m.var for m in ms))
    assert out["B_n"] == pytest.approx(bn)
    assert out["L_n"] > 0
    assert 0 < out["delta"] < 1
    assert out["ratio"] == pytest.approx(out["delta"] / out["L_n"])


@pytest.mark.parametrize("weight_mode", ["uniform", "random"])
@pytest.mark.parametrize("mu", [Measure.bernoulli(),
                                Measure.binomial(0.25).standardize()],
                         ids=["bernoulli", "binomial:0.25"])
def test_nonid_experiment_matches_rates_on_weighted_summands(mu, weight_mode):
    """The same summands give the same delta through either entry point:
    one window rule and one recovery serve both."""
    theta = (WeightVector.uniform(64) if weight_mode == "uniform"
             else sample(64, 0, index=0))
    out = nonid_experiment(weighted_summands(mu, theta), points=1001)
    rep = rate_experiment(mu, [64], weight_mode=weight_mode, points=1001,
                          metrics=("delta",))
    assert out["delta"] == pytest.approx(rep.rows[0].delta, rel=0, abs=1e-12)


def test_nonid_experiment_rejects_nonzero_mean():
    with pytest.raises(DomainError):
        nonid_experiment([Measure.atomic([0.0, 1.0], [0.5, 0.5])])


def test_nonid_experiment_rejects_zero_variance():
    with pytest.raises(DomainError, match="positive variance"):
        nonid_experiment([Measure.bernoulli(), Measure.point(0.0)])


@pytest.mark.parametrize("measures", [[], ()], ids=["list", "tuple"])
def test_nonid_experiment_rejects_empty_input(measures):
    """No summands means B_n = 0: named as a domain error, not a division."""
    with pytest.raises(DomainError, match="at least one measure"):
        nonid_experiment(measures)


def _count_measure_hashes_and_compares(monkeypatch):
    calls = {"__hash__": 0, "__eq__": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(Measure, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(Measure, name, counted)
    return calls


@pytest.mark.parametrize("run", [
    lambda mu, th: solve_grid(weighted_summands(mu, th),
                              np.linspace(-2.5, 2.5, 101) + 1e-2j),
    lambda mu, th: recover_weighted_sum(mu, th, points=401),
    lambda mu, th: support_experiment(mu, th, points=401),
], ids=["solve_grid", "recover_weighted_sum", "support_experiment"])
def test_identical_summands_hash_no_measure_per_summand(monkeypatch, run):
    """1024 summands that are one object: a cold and a warm call hash and
    compare a handful of Measures, not one or more per summand."""
    mu, theta = Measure.bernoulli(), WeightVector.uniform(1024)
    _setup.cache_clear()
    calls = _count_measure_hashes_and_compares(monkeypatch)
    run(mu, theta)
    run(mu, theta)
    assert calls["__hash__"] <= 4 and calls["__eq__"] <= 4, calls


def test_window_radius_reads_each_distinct_measure_once(monkeypatch):
    """One support_radius read per distinct object, and the bytes of the
    rule applied to every summand's own radius."""
    a, b = Measure.bernoulli().scale(0.3), Measure.binomial(0.2).scale(0.1)
    ms = [a, b, a, Measure.from_json(a.to_json()), b] * 7
    r = np.array([m.support_radius for m in ms])
    want = min(float(np.sum(r)), 2.0 + min(5.0 * float(np.sum(r**3)), 1.5)) + 1.0
    reads = []
    radius = Measure.support_radius
    monkeypatch.setattr(Measure, "support_radius",
                        property(lambda m: reads.append(m) or radius.fget(m)))
    assert experiments._window_radius(*by_identity(ms)) == want
    assert len(reads) == 3
