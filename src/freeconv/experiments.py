"""End-to-end harnesses: convergence-rate studies against the semicircle
law, support-bound verification, and functional-equation residual checks
for the subordination function Z_1.

The cubic P(z, w) = w^3 - z w^2 + (1 - I3) w - r(z) and the quadratic
Q(z, w) = w^2 - z w + 1 - q(z) are exact identities in Z_1 once the
subordination system is solved, so their residuals certify both the solver
and the term assembly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .complexfn import cauchy, sqrt_cut
from .errors import BranchCutError, DomainError
from .inversion import (DEFAULT_ETA, DEFAULT_POINTS, GriddedDistribution,
                        csv_table, delta_eps, delta_tilde, kolmogorov, levy,
                        recover)
from .measures import Measure
from .sphere import WeightVector, as_weights, sample, vector_stats
from .subordination import (DEFAULT_OPTIONS, SolveOptions, solve,
                            weighted_summands)

_TILDE_A, _TILDE_EPS = 0.05, 0.2  # rate_experiment's delta_tilde: a and eps


# ---------------------------------------------------------------------------
# cubic roots: numpy's, with a Newton polish step per root


def cubic_roots(b: complex, c: complex, d: complex) -> tuple[complex, complex, complex]:
    """Roots of w^3 + b w^2 + c w + d with complex coefficients."""
    b, c, d = complex(b), complex(c), complex(d)

    def polish(w):
        f = ((w + b) * w + c) * w + d
        fp = (3.0 * w + 2.0 * b) * w + c
        return w - f / fp if fp != 0.0 else w

    return tuple(polish(complex(w)) for w in np.roots([1.0, b, c, d]))


# ---------------------------------------------------------------------------
# log-log slope fitting


def fit_loglog_slope(ns, values, errors=None) -> tuple[float, float]:
    """Weighted least squares of log(value) on log(n); returns (slope, R^2).

    Rows with nonpositive values are skipped with a warning.  Weights are
    1/error^2 when error estimates are supplied.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0.0
    if np.any(~keep):
        warnings.warn("skipping rows with nonpositive distances in slope fit")
    ns, values = ns[keep], values[keep]
    if ns.size < 3:
        raise DomainError("need at least 3 positive rows for a slope fit")
    if np.unique(ns).size < 2:
        raise DomainError("slope fit needs at least two distinct n values")
    w = np.ones_like(values)
    if errors is not None:
        err = np.asarray(errors, dtype=float)[keep]
        w = 1.0 / np.maximum(err, 1e-300) ** 2
    x, y = np.log(ns), np.log(values)
    wm = lambda v: np.sum(w * v) / np.sum(w)
    xb, yb = wm(x), wm(y)
    slope = np.sum(w * (x - xb) * (y - yb)) / np.sum(w * (x - xb) ** 2)
    intercept = yb - slope * xb
    resid = y - (intercept + slope * x)
    ss_res = np.sum(w * resid**2)
    ss_tot = np.sum(w * (y - yb) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)


# ---------------------------------------------------------------------------
# rate experiments


@dataclass(frozen=True)
class RateRow:
    n: int
    rep: int
    seed: int
    weight_mode: str
    delta: float
    delta_err: float
    delta_eps: float
    delta_tilde: float
    levy: float
    max_iterations: int


@dataclass(frozen=True)
class RateReport:
    rows: tuple[RateRow, ...]
    slopes: dict = field(default_factory=dict)


def _weights_for(n: int, weight_mode: str, seed: int, rep: int) -> WeightVector:
    if weight_mode == "uniform":
        return WeightVector.uniform(n)
    if weight_mode == "random":
        return sample(n, seed, index=rep)
    raise DomainError(f"unknown weight mode {weight_mode!r}")


def _window_radius(measures) -> float:
    """Half-width of the recovery window for a standardized free sum, from
    the summands' support radii r_i: min(sum r_i, 2 + min(5 sum r_i^3, 1.5))
    + 1.  sum r_i bounds the support outright; 2 + 5 sum r_i^3 is Kargin's
    enclosure (support_experiment's bound_kargin), capped at 3.5."""
    r = np.array([m.support_radius for m in measures])
    return min(float(np.sum(r)), 2.0 + min(5.0 * float(np.sum(r**3)), 1.5)) + 1.0


def _recover_sum(measures, eta: float, points: int, opts: SolveOptions,
                 window: float | None = None):
    """The eta-smoothed law of the free sum of the measures on [-R, R],
    R = window or _window_radius, plus solver stats."""
    R = _window_radius(measures) if window is None else float(window)
    stats = {"max_iterations": 0}

    def g_eval(zs):
        sol = solve(measures, zs, opts)
        stats["max_iterations"] = max(stats["max_iterations"],
                                      int(np.max(sol.iterations)))
        return sol.G

    dist = recover(g_eval, -R, R, points=points, eta=eta)
    return dist, stats


def recover_weighted_sum(mu: Measure, theta, eta: float = DEFAULT_ETA,
                         points: int = DEFAULT_POINTS,
                         opts: SolveOptions = DEFAULT_OPTIONS,
                         window: float | None = None):
    """Recover the eta-smoothed law of sum_i theta_i X_i plus solver stats."""
    return _recover_sum(weighted_summands(mu, as_weights(theta)), eta, points,
                        opts, window)


def _semicircle_smoothed(grid_like: GriddedDistribution) -> GriddedDistribution:
    """Semicircle law smoothed at the same eta on the same grid."""
    sc = Measure.semicircle(1.0)
    return recover(lambda zs: cauchy(sc, zs), grid_like.x_min, grid_like.x_max,
                   points=grid_like.grid.size, eta=grid_like.eta)


def rate_experiment(mu: Measure, n_schedule, weight_mode: str = "uniform",
                    metrics=("delta", "levy", "delta_eps"), reps: int = 1,
                    seed: int = 0, eps: float = 0.5, eta: float = DEFAULT_ETA,
                    points: int = DEFAULT_POINTS,
                    opts: SolveOptions = DEFAULT_OPTIONS,
                    tilde_u_points: int = 101) -> RateReport:
    """Distances from the weighted free sum to the semicircle law per n.

    Both CDFs are smoothed at the same eta (the biases largely cancel);
    delta_err carries the eta + grid error estimate used to weight the
    slope fit.
    """
    ns = list(n_schedule)
    if any(b <= a for a, b in zip(ns, ns[1:])) or any(n < 2 for n in ns):
        raise DomainError("n_schedule must be increasing with every n >= 2")
    unknown = set(metrics) - {"delta", "levy", "delta_eps", "delta_tilde"}
    if unknown:
        raise DomainError(f"unknown metrics {sorted(unknown)}")
    if reps < 1:
        raise DomainError("reps must be >= 1")
    mu = mu.standardize()
    rows = []
    for n in ns:
        for rep in range(reps):
            theta = _weights_for(n, weight_mode, seed, rep)
            dist, stats = recover_weighted_sum(mu, theta, eta=eta,
                                               points=points, opts=opts)
            ref = _semicircle_smoothed(dist)
            dx = dist.grid[1] - dist.grid[0]
            err = 2.0 * eta + 2.0 * dx + dist.tail_mass
            d = kolmogorov(dist, ref) if "delta" in metrics else math.nan
            dl = levy(dist, ref) if "levy" in metrics else math.nan
            de = delta_eps(dist, ref, eps) if "delta_eps" in metrics else math.nan
            dt = math.nan
            if "delta_tilde" in metrics:
                summands = weighted_summands(mu, theta)
                sc = Measure.semicircle(1.0)
                dt = delta_tilde(lambda z: solve(summands, z, opts).G,
                                 lambda z: complex(cauchy(sc, z)), _TILDE_A,
                                 _TILDE_EPS, u_points=tilde_u_points)
            rows.append(RateRow(n=n, rep=rep, seed=seed, weight_mode=weight_mode,
                                delta=d, delta_err=err, delta_eps=de,
                                delta_tilde=dt, levy=dl,
                                max_iterations=stats["max_iterations"]))
    slopes = {}
    for name in metrics:
        vals = [getattr(r, name) for r in rows]
        errs = [r.delta_err for r in rows]
        try:
            slopes[name] = fit_loglog_slope([r.n for r in rows], vals, errs)
        except DomainError:
            pass
    return RateReport(rows=tuple(rows), slopes=slopes)


def rate_report_csv(report: RateReport) -> str:
    """The rows as a table, with the running log-log slope of delta."""
    def running_slope(head):
        try:
            return fit_loglog_slope([q.n for q in head], [q.delta for q in head],
                                    [q.delta_err for q in head])[0]
        except DomainError:
            return math.nan

    return csv_table(["n", "rep", "seed", "weight_mode", "delta", "delta_err",
                      "delta_eps", "delta_tilde", "levy", "slope_running"],
                     ((r.n, r.rep, r.seed, r.weight_mode, r.delta, r.delta_err,
                       r.delta_eps, r.delta_tilde, r.levy,
                       running_slope(report.rows[:i + 1]))
                      for i, r in enumerate(report.rows)))


def nonid_experiment(measures, eta: float = DEFAULT_ETA,
                     points: int = DEFAULT_POINTS,
                     opts: SolveOptions = DEFAULT_OPTIONS) -> dict:
    """Normalized free sum of non-identically distributed bounded measures.

    Normalizes by 1/B_n with B_n = sqrt(sum of variances), convolves, and
    reports the Kolmogorov distance to the semicircle law along with the
    Lyapunov-type ratio L_n = sum T_i^3 / B_n^3 (T_i = support radius).
    The recovery is recover_weighted_sum's, window rule included, so
    weighted_summands(mu, theta) gives rate_experiment's delta.
    """
    measures = list(measures)
    if not measures:
        raise DomainError("nonid_experiment needs at least one measure, got none")
    for m in measures:
        if m.var <= 0.0:
            raise DomainError("every input measure must have positive variance")
        if abs(m.mean) > 1e-12:
            raise DomainError("every input measure must have mean zero")
    bn = math.sqrt(sum(m.var for m in measures))
    ln = sum(m.support_radius**3 for m in measures) / bn**3
    dist, _ = _recover_sum([m.scale(1.0 / bn) for m in measures], eta,
                           points, opts)
    ref = _semicircle_smoothed(dist)
    d = kolmogorov(dist, ref)
    return {"count": len(measures), "B_n": bn, "L_n": ln,
            "delta": d, "ratio": d / ln}


# ---------------------------------------------------------------------------
# support bounds


@dataclass(frozen=True)
class SupportReport:
    n: int
    L: float
    m3: float
    sum_theta4: float
    sum_theta3: float
    sum_abs_theta3: float
    r_theta: float
    bound_kargin: float
    bound_paper: float
    preconditions_met: bool
    detected_support: tuple[float, float]
    contained_in_paper_bound: bool | None
    contained_in_kargin_bound: bool | None
    eta: float
    threshold: float


def superconvergence_radius(mu: Measure, theta) -> float:
    """r_theta = 384 L^4 sum theta_i^4 + 3 |m_3 sum theta_i^3|."""
    st = vector_stats(theta)
    return (384.0 * mu.support_radius**4 * st["sum_abs_pow"][4]
            + 3.0 * abs(mu.moment(3) * st["sum_cubes"]))


_CORE_LEVEL = 1e-3  # density level that marks detect_support's core


def detect_support(dist: GriddedDistribution,
                   threshold: float) -> tuple[float, float]:
    """Smallest interval outside which the density stays below threshold
    plus a Cauchy-tail allowance.

    The allowance at x is eta/(pi d^2) with d the distance to a coarse core
    (density >= _CORE_LEVEL); it dominates the genuine smoothing tail of any
    probability measure contained in the core, so points flagged outside
    carry no support mass beyond the threshold.
    """
    grid, dens, eta = dist.grid, dist.density, dist.eta
    core = grid[dens >= _CORE_LEVEL]
    if core.size == 0:
        raise DomainError(f"no density core found (density below {_CORE_LEVEL:g})")
    a0, b0 = float(core[0]), float(core[-1])
    d = np.maximum(np.maximum(a0 - grid, grid - b0), 0.0)
    with np.errstate(divide="ignore"):
        allowance = np.where(d > 0.0, eta / (math.pi * np.maximum(d, 1e-300) ** 2),
                             np.inf)
    flagged = grid[(d > 0.0) & (dens > threshold + allowance)]
    lo = min(a0, float(flagged[0])) if flagged.size else a0
    hi = max(b0, float(flagged[-1])) if flagged.size else b0
    return lo, hi


def support_experiment(mu: Measure, theta, density_threshold: float = 1e-5,
                       eta: float = 1e-4, points: int = DEFAULT_POINTS,
                       opts: SolveOptions = DEFAULT_OPTIONS) -> SupportReport:
    """Verify the superconvergence support enclosures for a weighted sum."""
    if density_threshold <= 0.0:
        raise DomainError("density_threshold must be positive")
    mu = mu.standardize()
    th = as_weights(theta)
    L = mu.support_radius
    m3 = mu.moment(3)
    st = vector_stats(th)
    r_theta = superconvergence_radius(mu, th)
    bound_kargin = 5.0 * L**3 * st["sum_abs_pow"][3]
    bound_paper = 2.0 * r_theta
    pre = bool(st["max_abs"] < 1.0 / (6.0 * L) and r_theta <= 0.5)

    R = 2.0 + max(bound_paper, bound_kargin, 0.5) + 0.75
    dist, _ = recover_weighted_sum(mu, th, eta=eta, points=points, opts=opts,
                                   window=R)
    detected = detect_support(dist, density_threshold)

    cp = ck = None
    if pre:
        cp = bool(-2.0 - bound_paper <= detected[0] and detected[1] <= 2.0 + bound_paper)
        ck = bool(-2.0 - bound_kargin < detected[0] and detected[1] < 2.0 + bound_kargin)
    return SupportReport(
        n=th.size, L=L, m3=m3,
        sum_theta4=st["sum_abs_pow"][4], sum_theta3=st["sum_cubes"],
        sum_abs_theta3=st["sum_abs_pow"][3],
        r_theta=r_theta, bound_kargin=bound_kargin, bound_paper=bound_paper,
        preconditions_met=pre, detected_support=detected,
        contained_in_paper_bound=cp, contained_in_kargin_bound=ck,
        eta=eta, threshold=density_threshold)


# ---------------------------------------------------------------------------
# functional-equation residuals


@dataclass(frozen=True)
class FunctionalEqTerms:
    z: complex
    Z: tuple[complex, ...]
    I1: complex
    I2: complex
    I3: complex
    I4: complex
    I5: complex
    r: complex
    M1: complex
    M2: complex
    M3: complex
    q: complex
    r2: complex
    roots_p: tuple[complex, complex, complex]  # omega_1, omega_2, omega_3
    roots_q: tuple[complex, complex]           # omega~_1, omega~_2
    residual_p: float
    residual_q: float
    matched_root_p: str
    matched_root_q: str
    match_dist_p: float
    match_dist_q: float
    vieta_sum_err: float
    vieta_prod_err: float
    root_failure: str | None = None


def functional_residuals(mu: Measure, theta, z_grid,
                         opts: SolveOptions = DEFAULT_OPTIONS) -> list[FunctionalEqTerms]:
    """Assemble the cubic/quadratic functional-equation terms at each z.

    Weights are sorted by |theta_i| ascending so the first coordinate
    carries the minimal squared weight, matching the term definitions.
    """
    mu = mu.standardize()
    th = as_weights(theta)
    th = th[np.argsort(np.abs(th), kind="stable")]
    measures = weighted_summands(mu, th)
    zs = np.atleast_1d(np.asarray(z_grid, dtype=complex))
    sol = solve(measures, zs, opts)
    Fs = np.stack([1.0 / cauchy(m, Z) for m, Z in zip(measures, sol.Z)])
    m3 = mu.moment(3)
    t2 = th**2
    t3 = th**3
    out = []
    for z, Z, F in zip(zs, sol.Z.T, Fs.T):
        z1 = Z[0]
        j1 = np.sum(F[1:] - Z[1:] + t2[1:] / Z[1:] + t3[1:] * m3 / Z[1:] ** 2)
        j2 = np.sum(t2[1:] / z1 - t2[1:] / Z[1:])
        j4 = m3 * np.sum(t3[1:] / z1**2 - t3[1:] / Z[1:] ** 2)
        I1 = z1**2 * j1
        I2 = z1**2 * j2
        I3 = complex(t2[0])
        I4 = z1**2 * j4
        I5 = complex(-m3 * np.sum(t3[1:]))
        r = I1 + I2 + I4 + I5

        M1 = z1 * np.sum(F[1:] - Z[1:] + t2[1:] / Z[1:])
        M2 = z1 * np.sum(t2[1:] / z1 - t2[1:] / Z[1:])
        M3 = complex(t2[0])
        q = M1 + M2 + M3

        res_p = abs(z1**3 - z * z1**2 + (1.0 - I3) * z1 - r)
        res_q = abs(z1**2 - z * z1 + 1.0 - q)

        failure = None
        roots = sorted(cubic_roots(-z, 1.0 - I3, -r), key=abs)
        omega1 = roots[0]
        r2 = 4.0 * I3 + (2.0 * z - 3.0 * omega1) * omega1
        try:
            s = complex(sqrt_cut(z * z - 4.0 + r2))
            omega2 = 0.5 * (z - s) - omega1 / 2.0
            omega3 = 0.5 * (z + s) - omega1 / 2.0
        except BranchCutError:
            failure = "branch-cut degeneracy in the closed-form roots"
            omega2, omega3 = roots[1], roots[2]
        try:
            sq = complex(sqrt_cut(z * z - 4.0 + 4.0 * q))
            wt1 = 0.5 * (z - sq)
            wt2 = 0.5 * (z + sq)
        except BranchCutError:
            failure = (failure or "") + " quadratic branch-cut degeneracy"
            disc = np.sqrt(complex(z * z - 4.0 + 4.0 * q))
            wt1, wt2 = 0.5 * (z - disc), 0.5 * (z + disc)

        labels_p = {"omega1": omega1, "omega2": omega2, "omega3": omega3}
        mp = min(labels_p, key=lambda k: abs(labels_p[k] - z1))
        labels_q = {"omega_tilde1": wt1, "omega_tilde2": wt2}
        mq = min(labels_q, key=lambda k: abs(labels_q[k] - z1))

        vs = abs((omega1 + omega2 + omega3) - z)
        vp = abs(omega1 * omega2 * omega3 - r)
        out.append(FunctionalEqTerms(
            z=complex(z), Z=tuple(map(complex, Z)),
            I1=complex(I1), I2=complex(I2), I3=I3, I4=complex(I4), I5=I5,
            r=complex(r), M1=complex(M1), M2=complex(M2), M3=M3, q=complex(q),
            r2=complex(r2),
            roots_p=(omega1, omega2, omega3), roots_q=(wt1, wt2),
            residual_p=float(res_p), residual_q=float(res_q),
            matched_root_p=mp, matched_root_q=mq,
            match_dist_p=float(abs(labels_p[mp] - z1)),
            match_dist_q=float(abs(labels_q[mq] - z1)),
            vieta_sum_err=float(vs), vieta_prod_err=float(vp),
            root_failure=failure))
    return out
