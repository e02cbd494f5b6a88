import math

import numpy as np
import pytest

from freeconv.complexfn import cauchy
from freeconv import experiments
from freeconv.errors import BranchCutError, DomainError
from freeconv.experiments import (cubic_roots, detect_support,
                                  fit_loglog_slope, functional_residuals,
                                  nonid_experiment, rate_experiment,
                                  rate_report_csv, recover_weighted_sum,
                                  superconvergence_radius, support_experiment)
from freeconv.inversion import GriddedDistribution, delta_tilde
from freeconv.measures import Measure
from freeconv.sphere import WeightVector, sample
from freeconv.subordination import solve, weighted_summands


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


@pytest.mark.parametrize("threshold", [0.0, -1e-5])
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
                          metrics=("delta_tilde",), points=1001,
                          tilde_u_points=5)
    sc = Measure.semicircle(1.0)
    for r in rep.rows:
        ref = delta_tilde(
            lambda z: solve(weighted_summands(mu, WeightVector.uniform(r.n)), z).G,
            lambda z: complex(cauchy(sc, z)), 0.05, 0.2, u_points=5)
        assert math.isfinite(r.delta_tilde)
        assert r.delta_tilde == ref


@pytest.mark.parametrize("u_points", [0, -1])
def test_rate_experiment_rejects_tilde_u_points_below_one(u_points):
    with pytest.raises(DomainError, match="u_points"):
        rate_experiment(Measure.bernoulli(), [4], metrics=("delta_tilde",),
                        points=201, tilde_u_points=u_points)


def test_rate_experiment_validates_schedule():
    with pytest.raises(DomainError):
        rate_experiment(Measure.bernoulli(), [8, 4])
    with pytest.raises(DomainError):
        rate_experiment(Measure.bernoulli(), [1, 2])
    with pytest.raises(DomainError):
        rate_experiment(Measure.bernoulli(), [4, 8], weight_mode="magic")


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
