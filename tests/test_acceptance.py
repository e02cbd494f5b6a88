"""End-to-end acceptance suite.

Each test prints a single pass/fail line on the live terminal via
capsys.disabled(), then asserts.  Expensive artifacts for the rate,
residual, support and concentration criteria are computed once, cached at
module level, and reused by the determinism criterion, which recomputes
every artifact from scratch and demands byte-identical serialization.
"""

import json
import math

import numpy as np
import pytest

from freeconv.complexfn import cauchy
from freeconv.cumulants import (cumulants_to_moments, kargin_bound_check,
                                moments_to_cumulants, phi_theta)
from freeconv.experiments import (functional_residuals, rate_experiment,
                                  rate_report_csv, support_experiment)
from freeconv.inversion import (DEFAULT_POINTS, delta_eps, kolmogorov, levy,
                                recover)
from freeconv.measures import (Measure, arcsine_cdf, semicircle_cdf,
                               semicircle_density)
from freeconv.sphere import (WeightVector, concentration_report,
                             marginal_chi2_pvalue, sample, sample_matrix)
from freeconv.subordination import solve

from oracles import binomial_convolution_g, moments_from_cumulants_nc


def _report(capsys, num, label, ok, detail=""):
    line = "criterion %02d %s: %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _json_bytes(obj):
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, complex):
            return [o.real, o.imag]
        raise TypeError(type(o).__name__)
    return json.dumps(obj, sort_keys=True, default=default).encode()


# ---------------------------------------------------------------------------
# cached artifact builders (criteria 5-9 share them with criterion 12)

_CACHE = {}


def _first(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def _clt_artifact():
    rep = rate_experiment(Measure.binomial(0.25), [4, 8, 16, 32, 64, 128, 256],
                          weight_mode="uniform", metrics=("delta",))
    return rep, rate_report_csv(rep).encode()


def _rates_artifact():
    rep = rate_experiment(Measure.bernoulli(), [16, 64, 256],
                          weight_mode="random",
                          metrics=("delta", "delta_eps"), reps=5, seed=0)
    return rep, rate_report_csv(rep).encode()


def _residual_grid():
    re = np.linspace(-1.7, 1.7, 20)
    im = np.linspace(0.05, 3.0, 10)
    return (re[:, None] + 1j * im[None, :]).ravel()


def _residuals_artifact():
    th = sample(32, seed=0)
    terms = functional_residuals(Measure.bernoulli(), th, _residual_grid())
    line = functional_residuals(Measure.bernoulli(), th,
                                np.linspace(-1.7, 1.7, 20) + 1j)
    rows = [{"z": t.z, "residual_p": t.residual_p, "residual_q": t.residual_q,
             "vieta_sum_err": t.vieta_sum_err, "vieta_prod_err": t.vieta_prod_err,
             "matched_root_p": t.matched_root_p, "match_dist_p": t.match_dist_p}
            for t in terms]
    rows_line = [{"z": t.z, "matched_root_q": t.matched_root_q,
                  "match_dist_q": t.match_dist_q} for t in line]
    return terms, line, _json_bytes({"grid": rows, "line": rows_line})


def _support_artifact():
    rep = support_experiment(Measure.bernoulli(), WeightVector.uniform(1024))
    payload = {"n": rep.n, "r_theta": rep.r_theta,
               "bound_paper": rep.bound_paper, "bound_kargin": rep.bound_kargin,
               "preconditions_met": rep.preconditions_met,
               "detected_support": list(rep.detected_support),
               "contained_in_paper_bound": rep.contained_in_paper_bound,
               "contained_in_kargin_bound": rep.contained_in_kargin_bound}
    return rep, _json_bytes(payload)


def _concentration_artifact():
    rep = concentration_report(64, 100000, seed=0)
    pval = marginal_chi2_pvalue(64, sample_matrix(64, 100000, seed=0))
    rep = dict(rep)
    rep["chi2_pvalue"] = pval
    return rep, _json_bytes(rep)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_binomial_oracle(capsys):
    zs = np.linspace(-4, 4, 200) + 1j
    worst = 0.0
    for p, schedule in ((0.5, (2, 8, 32)), (0.25, (4, 16))):
        for n in schedule:
            mu = Measure.binomial(p).scale(1.0 / math.sqrt(n))
            G = solve([mu] * n, zs).G
            worst = max(worst, float(np.max(np.abs(G - binomial_convolution_g(p, n, zs)))))
    _report(capsys, 1, "binomial closed-form oracle", worst <= 1e-8,
            "max err %.2e" % worst)


def test_criterion_02_semicircle_stability(capsys):
    zs = np.linspace(-3, 3, 100) + 1j * np.linspace(0.05, 3, 100)
    G = solve([Measure.semicircle(0.5), Measure.semicircle(0.5)], zs).G
    err = float(np.max(np.abs(G - cauchy(Measure.semicircle(1.0), zs))))
    _report(capsys, 2, "semicircle self-convolution", err <= 1e-10,
            "max err %.2e" % err)


def test_criterion_03_arcsine_kolmogorov(capsys):
    v = kolmogorov(lambda x: arcsine_cdf(np.asarray(x, float)),
                   lambda x: semicircle_cdf(np.asarray(x, float)))
    err = abs(v - 1.0 / (2.0 * math.pi))
    _report(capsys, 3, "arcsine vs semicircle Kolmogorov", err <= 1e-4,
            "value %.8f" % v)


def test_criterion_04_inversion_accuracy(capsys):
    sc = lambda z: cauchy(Measure.semicircle(1.0), z)
    ok = True
    detail = []
    for eta in (1e-2, 1e-3):
        d = recover(sc, -4, 4, points=4001, eta=eta)
        m = np.abs(d.grid) <= 1.5
        err = float(np.max(np.abs(d.density[m] - semicircle_density(d.grid[m]))))
        ok = ok and err <= 3.0 * eta
        detail.append("eta=%g err %.2e" % (eta, err))
    eta = 1e-3
    d = recover(lambda z: cauchy(Measure.point(0.0), z), -4, 4,
                points=4001, eta=eta)
    kernel = eta / (math.pi * (d.grid**2 + eta**2))
    atom_err = float(np.max(np.abs(d.density - kernel)))
    ok = ok and atom_err <= 1e-9
    detail.append("atom err %.2e" % atom_err)
    _report(capsys, 4, "density recovery", ok, "; ".join(detail))


def test_criterion_05_free_clt_trend(capsys):
    rep, _ = _first("clt", _clt_artifact)
    slope, r2 = rep.slopes["delta"]
    ok = -0.7 <= slope <= -0.35 and r2 >= 0.9
    _report(capsys, 5, "free CLT rate trend", ok,
            "slope %.3f r2 %.3f" % (slope, r2))


def test_criterion_06_weighted_sum_rates(capsys):
    rep, _ = _first("rates", _rates_artifact)
    meds, errs = [], []
    for n in (16, 64, 256):
        rows = [r for r in rep.rows if r.n == n]
        meds.append(float(np.median([r.delta for r in rows])))
        errs.append(max(r.delta_err for r in rows))
    decreasing = meds[0] > meds[1] > meds[2]
    # the per-row error estimates are conservative upper bounds that cancel
    # between the compared smoothed CDFs; the decrease is demanded to exceed
    # the largest single estimate over the whole schedule
    significant = (meds[0] - meds[2]) > max(errs)
    sd, _ = rep.slopes["delta"]
    se, _ = rep.slopes["delta_eps"]
    ok = decreasing and significant and sd <= -0.3 and se <= -0.5
    _report(capsys, 6, "weighted-sum rate slopes", ok,
            "medians %s, delta slope %.3f, delta_eps slope %.3f"
            % (["%.4f" % m for m in meds], sd, se))


def test_criterion_07_functional_equation_residuals(capsys):
    terms, line, _ = _first("residuals", _residuals_artifact)
    ok = all(t.residual_p <= 1e-8 * (1 + abs(t.z)) ** 3 for t in terms)
    ok = ok and all(t.residual_q <= 1e-8 * (1 + abs(t.z)) ** 2 for t in terms)
    ok = ok and all(max(t.vieta_sum_err, t.vieta_prod_err) <= 1e-9 for t in terms)
    ok = ok and all(t.matched_root_p == "omega3" and t.match_dist_p <= 1e-6
                    for t in terms)
    ok = ok and all(t.matched_root_q == "omega_tilde2" and t.match_dist_q <= 1e-6
                    for t in line)
    worst_p = max(t.residual_p / (1 + abs(t.z)) ** 3 for t in terms)
    _report(capsys, 7, "functional-equation residuals", ok,
            "worst scaled residual_p %.2e" % worst_p)


def test_criterion_08_support_bound(capsys):
    rep, _ = _first("support", _support_artifact)
    lo, hi = rep.detected_support
    kargin = 2.0 + 5.0 / 32.0
    ok = (rep.r_theta == 0.375 and rep.preconditions_met
          and -2.75 <= lo and hi <= 2.75
          and -kargin < lo and hi < kargin
          and rep.contained_in_paper_bound and rep.contained_in_kargin_bound)
    _report(capsys, 8, "superconvergence support bound", ok,
            "r_theta %.3f support (%.4f, %.4f)" % (rep.r_theta, lo, hi))


def test_criterion_09_concentration(capsys):
    rep, _ = _first("concentration", _concentration_artifact)
    ok = all(c["pass"] for c in rep["checks"]) and rep["chi2_pvalue"] > 0.001
    _report(capsys, 9, "sphere concentration Monte Carlo", ok,
            "chi2 p %.4f" % rep["chi2_pvalue"])


def test_criterion_10_cumulant_suite(capsys):
    rng = np.random.default_rng(1000)
    ok = True

    def random_atomic():
        k = rng.integers(2, 6)
        xs = rng.uniform(-1.0, 1.0, size=k)
        ws = rng.random(k) + 0.1
        return Measure.atomic(xs, ws / ws.sum())

    worst_rt = 0.0
    for _ in range(100):
        mu = random_atomic()
        m = [mu.moment(k) for k in range(1, 17)]
        back = cumulants_to_moments(moments_to_cumulants(m))
        worst_rt = max(worst_rt, float(np.max(np.abs(np.array(back) - np.array(m)))))
    ok = ok and worst_rt <= 1e-10

    for _ in range(3):
        mu = random_atomic()
        m = [mu.moment(k) for k in range(1, 11)]
        kap = list(moments_to_cumulants(m))
        oracle = moments_from_cumulants_nc(kap, 10)[1:]
        ok = ok and np.max(np.abs(np.array(oracle) - np.array(m))) < 1e-9

    for mu in (Measure.bernoulli(), Measure.binomial(0.25), Measure.semicircle(1.0)):
        ok = ok and all(r["pass"] for r in kargin_bound_check(mu, 12))

    worst_gk = 0.0
    for mu in (Measure.bernoulli(), Measure.binomial(0.3)):
        L = mu.support_radius
        for _ in range(25):
            w = rng.normal() - 1j * (0.1 + abs(rng.normal()))
            z = complex(w * (0.1 + 0.89 * rng.random()) / (abs(w) * 10.0 * L))
            K = phi_theta(mu, [1.0], z, order=40)
            worst_gk = max(worst_gk, abs(complex(cauchy(mu, np.array([K]))[0]) - z))
    ok = ok and worst_gk <= 1e-8

    mu = Measure.binomial(0.25)
    L, m3 = mu.support_radius, mu.moment(3)
    for _ in range(50):
        n = int(rng.integers(8, 64))
        th = rng.normal(size=n)
        th /= np.linalg.norm(th)
        rad = 1.0 / (6.0 * L * np.max(np.abs(th)))
        z = rng.normal() + 1j * rng.normal()
        z *= rng.random() * 0.9 * rad / abs(z)
        if abs(z) < 1e-3:
            z = 1e-3 + 1e-3j
        val = phi_theta(mu, th, complex(z))
        bound = (128.0 * L**4 * abs(z) ** 3 * np.sum(th**4)
                 + abs(m3 * np.sum(th**3)) * abs(z) ** 2)
        ok = ok and abs(val - 1.0 / z - z) <= bound + 1e-12

    _report(capsys, 10, "cumulant transform suite", ok,
            "roundtrip %.2e, G(K(z)) %.2e" % (worst_rt, worst_gk))


def test_criterion_11_distance_algebra(capsys):
    rng = np.random.default_rng(1100)
    ok = True

    def step_cdf(mu):
        atoms = sorted(mu.atoms)
        xs = np.array([a[0] for a in atoms])
        cs = np.cumsum([a[1] for a in atoms])
        return lambda t: np.where(np.asarray(t, float)[..., None] >= xs, 1, 0) @ np.diff(np.concatenate([[0.0], cs]))

    def random_atomic():
        k = rng.integers(2, 6)
        xs = rng.uniform(-1.5, 1.5, size=k)
        ws = rng.random(k) + 0.1
        return Measure.atomic(xs, ws / ws.sum())

    for _ in range(50):
        f, g = step_cdf(random_atomic()), step_cdf(random_atomic())
        dk = kolmogorov(f, g)
        ok = ok and levy(f, g) <= dk + 1e-9
        ok = ok and delta_eps(f, g, 0.5) <= 2.0 * dk + 1e-6

    b = Measure.bernoulli()
    dx = 8.0 / (DEFAULT_POINTS - 1)  # distance grid resolution
    for _ in range(20):
        c1, c2 = rng.uniform(0.5, 1.5, size=2)
        dl = levy(step_cdf(b.scale(c1)), step_cdf(b.scale(c2)))
        ok = ok and dl <= abs(c1 - c2) + dx

    _report(capsys, 11, "distance inequalities", ok)


def test_criterion_12_determinism(capsys):
    pairs = (("clt", _clt_artifact), ("rates", _rates_artifact),
             ("residuals", _residuals_artifact), ("support", _support_artifact),
             ("concentration", _concentration_artifact))
    mismatched = [key for key, builder in pairs
                  if _first(key, builder)[-1] != builder()[-1]]
    _report(capsys, 12, "byte-identical reruns", not mismatched,
            "mismatched: %s" % mismatched if mismatched else "5 artifacts")
