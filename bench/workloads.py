"""The four benchmark workloads.

Each workload builds its inputs from the seed, runs one repetition (the
timed part) through freeconv's public functions, and then checks that
repetition's outputs against references that share no code with the
solver.  Library functions are looked up on their modules at call time, so
the wrappers that run.py installs see every call.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from freeconv import (cli, complexfn, cumulants, experiments, inversion,
                      sphere, subordination)
from freeconv.errors import FreeconvError, IterationError
from freeconv.measures import Measure
from oracles import binomial_convolution_g

NAN = complex(math.nan, math.nan)


@dataclass
class Rep:
    """Raw material of one repetition; filled while timed, checked after."""
    grids: list = field(default_factory=list)     # captured solve_grid calls
    recovers: list = field(default_factory=list)  # captured recover calls
    latency: list = field(default_factory=list)   # seconds per timed call
    errors: list = field(default_factory=list)    # FreeconvErrors caught
    out: dict = field(default_factory=dict)
    wall_s: float = 0.0


@dataclass
class GridCall:
    """One solve_grid call, unpacked from its captured arguments."""
    measures: list
    zs: np.ndarray
    tol: float
    atoms: int  # atoms over the coordinates the solver iterates
    Z: np.ndarray
    G: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def grid_calls(rep: Rep) -> list[GridCall]:
    """The repetition's captured solve_grid calls, arguments bound by name."""
    sig = inspect.signature(subordination.solve_grid)
    out = []
    for args, kwargs, result in rep.grids:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        measures = list(a["measures"])
        coords = measures
        if a["init"] is None and len(measures) > 1:
            coords = []
            for mu in measures:  # identical summands share one coordinate
                if mu not in coords:
                    coords.append(mu)
        atoms = sum(len(mu.atoms) if mu.kind == "atomic" else 1 for mu in coords)
        Z, _, G, _, iters, conv = result
        out.append(GridCall(measures, np.atleast_1d(np.asarray(a["zs"], complex)),
                            a["opts"].tol, atoms, Z, G, iters, conv))
    return out


def system_residual(measures, zs, Z, chunk: int = 512) -> np.ndarray:
    """Residual of the full n-coordinate subordination system at Z,
    recomputed with complexfn.cauchy: the larger of max_i |F_i - F_1| and
    |sum_i Z_i - z - (n-1) F_1|, per point."""
    n = len(measures)
    out = np.empty(zs.size)
    for lo in range(0, zs.size, chunk):
        sl = slice(lo, lo + chunk)
        Zc = Z[:, sl]
        F = np.stack([1.0 / complexfn.cauchy(mu, Zc[i]) for i, mu in enumerate(measures)])
        spread = np.max(np.abs(F - F[0]), axis=0)
        identity = np.abs(Zc.sum(axis=0) - zs[sl] - (n - 1) * F[0])
        out[sl] = np.maximum(spread, identity)
    return out


def mixed_oracle_g(z, a: float, t: float) -> complex:
    """G of (Bernoulli at +-a) boxplus semicircle(t) at z: G = (z - w)/t
    with w the root of w^3 - z w^2 + (t - a^2) w + z a^2 = 0 that has
    Im w >= Im z (w is the subordination point of the atomic summand).
    Returns NaN unless exactly one root qualifies."""
    z = complex(z)
    roots = np.roots([1.0, -z, t - a * a, z * a * a])
    ok = roots[roots.imag >= z.imag - 1e-12 * (1.0 + abs(z))]
    return complex((z - ok[0]) / t) if ok.size == 1 else NAN


class Workload:
    name = ""
    # traced functions the workload is known to reach; a traced repetition
    # that records no call of one of them fails the coverage check
    reaches: tuple = ()
    # repetitions per untraced run even past --seconds: the workloads made
    # of many small interpreter-bound calls spread most from run to run on
    # a shared host, so they report the median of two
    min_reps = 1
    # False when the inputs do not depend on the seed: every run, whatever
    # its seed, must then digest like the first one
    seeded = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def attempt(self, rep: Rep, fn, *args, **kwargs):
        """Call fn; a FreeconvError is recorded (it counts as a failed
        operation) and None returned, so later parts still run."""
        try:
            return fn(*args, **kwargs)
        except FreeconvError as exc:
            rep.errors.append(exc)
            return None

    def run(self, rep: Rep) -> None:
        raise NotImplementedError

    def operations(self, rep: Rep, calls: list[GridCall]) -> int:
        """Attempted operations: spectral points unless overridden."""
        return sum(c.zs.size for c in calls)

    def check(self, rep: Rep, calls: list[GridCall]) -> tuple[list, dict]:
        """(list of (check, ok, detail), workload metrics)."""
        raise NotImplementedError

    def serialized(self, rep: Rep) -> list:
        """Outputs, in a deterministic text form, for the repeat digest."""
        raise NotImplementedError

    # -- shared pieces ---------------------------------------------------

    def failed(self, rep: Rep, calls: list[GridCall]) -> int:
        """Unconverged points, plus every caught error that is not an
        IterationError (those already show as unconverged points)."""
        unconv = sum(int(np.count_nonzero(~c.converged)) for c in calls)
        return unconv + sum(not isinstance(e, IterationError) for e in rep.errors)

    def solver_checks(self, calls: list[GridCall], checks: list, metrics: dict):
        """Recomputed residual within the solver's tolerance (plus n*1e-13
        rounding in the n-term sum) and Im Z_i >= Im z at every point."""
        worst, ok_res, ok_im = 0.0, True, True
        for c in calls:
            res = system_residual(c.measures, c.zs, c.Z)
            worst = max(worst, float(np.max(res)))
            ok_res &= bool(np.all(res[c.converged] <= c.tol + len(c.measures) * 1e-13))
            ok_im &= bool(np.all(c.Z.imag >= c.zs.imag * (1.0 - 1e-12)))
        checks.append(("residual_recomputed", ok_res, f"max {worst:.3e}"))
        checks.append(("im_Z_ge_im_z", ok_im, ""))
        metrics["residual_max"] = worst

    def digest(self, rep: Rep, calls: list[GridCall]) -> str:
        h = hashlib.sha256()
        for part in self.serialized(rep):
            h.update(part if isinstance(part, bytes) else repr(part).encode())
        for c in calls:
            h.update(np.ascontiguousarray(c.iterations).tobytes())
            h.update(np.ascontiguousarray(c.G).tobytes())
        return h.hexdigest()


class SupportEdge(Workload):
    name = "support-edge"
    reaches = ("experiments.support_experiment", "experiments.recover_weighted_sum",
               "experiments.superconvergence_radius", "experiments.detect_support",
               "inversion.recover", "subordination.solve_grid", "sphere.vector_stats")
    N = 1024
    seeded = False
    # a G error below 1e-5 keeps the density error |Im dG|/pi under a
    # third of support_experiment's 1e-5 detection threshold
    G_TOL = 1e-5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.mu = Measure.bernoulli()
        self.theta = sphere.WeightVector.uniform(self.N)

    def run(self, rep):
        rep.out["report"] = self.attempt(rep, experiments.support_experiment,
                                         self.mu, self.theta)

    def check(self, rep, calls):
        checks, metrics = [], {}
        r = rep.out["report"]
        ok = r is not None
        if ok:  # criterion 8
            lo, hi = r.detected_support
            kargin = 2.0 + 5.0 / 32.0
            ok = (r.r_theta == 0.375 and r.preconditions_met
                  and -2.75 <= lo and hi <= 2.75 and -kargin < lo and hi < kargin
                  and bool(r.contained_in_paper_bound)
                  and bool(r.contained_in_kargin_bound))
        checks.append(("criterion_08_support", ok,
                       repr(r.detected_support) if r is not None else "raised"))
        err = 0.0
        for c in calls:
            ref = binomial_convolution_g(0.5, self.N, c.zs)
            err = max(err, float(np.max(np.abs(c.G - ref))))
        checks.append(("g_vs_binomial_oracle", bool(calls) and err <= self.G_TOL,
                       f"max {err:.3e}"))
        metrics["g_err_max"] = err
        self.solver_checks(calls, checks, metrics)
        return checks, metrics

    def serialized(self, rep):
        return [rep.out["report"]]


class RatesRandom(Workload):
    name = "rates-random"
    reaches = ("cli.main", "cli.cmd_rates", "experiments.rate_experiment",
               "experiments.recover_weighted_sum", "experiments.rate_report_csv",
               "inversion.recover", "inversion.kolmogorov", "inversion.levy",
               "inversion.delta_eps", "subordination.solve_grid",
               "complexfn.cauchy", "sphere.sample")
    METRICS = ("delta", "delta_eps", "levy")
    ETA = 1e-3
    # mass the eta-smoothed Cauchy tails can carry outside the window
    MASS_TOL = 1e-3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.path = os.path.join(workdir, "rates.csv")
        self.argv = ["rates", "--preset", "bernoulli", "--n", "16,64,256",
                     "--weights", "random", "--metric", ",".join(self.METRICS),
                     "--eta", repr(self.ETA), "--points", "4001",
                     "--seed", str(seed), "--no-timestamp", "-o", self.path]

    def run(self, rep):
        rep.out["exit"] = cli.main(self.argv)
        if rep.out["exit"] == 0:
            with open(self.path, "rb") as fh:
                rep.out["csv"] = fh.read()

    def failed(self, rep, calls):
        # the CLI catches errors itself: a non-zero exit with no unconverged
        # point behind it is one failed operation
        n = super().failed(rep, calls)
        return n + int(rep.out["exit"] != 0 and n == 0)

    def check(self, rep, calls):
        checks, metrics = [], {}
        checks.append(("cli_exit_0", rep.out["exit"] == 0, str(rep.out["exit"])))
        text = rep.out.get("csv", b"").decode()
        slopes = {}
        for line in text.splitlines():
            if line.startswith("# slope["):
                name, rest = line[len("# slope["):].split("]=", 1)
                slopes[name] = float(rest.split()[0])
        ok = all(slopes.get(m, 0.0) < 0.0 for m in self.METRICS)
        checks.append(("negative_slopes", ok, repr(slopes)))
        masses = [float(np.trapezoid(d.density, d.grid)) for _, _, d in rep.recovers]
        ok = len(masses) == 6 and all(abs(1.0 - m) <= self.MASS_TOL for m in masses)
        checks.append(("unit_mass", ok, ", ".join(f"{m:.6f}" for m in masses)))
        self.solver_checks(calls, checks, metrics)
        return checks, metrics

    def serialized(self, rep):
        return [rep.out["exit"], rep.out.get("csv", b"")]


class PointwiseMixed(Workload):
    name = "pointwise-mixed"
    min_reps = 2
    reaches = ("inversion.delta_tilde", "subordination.solve",
               "subordination.solve_grid", "complexfn.cauchy", "complexfn.sqrt_cut",
               "experiments.functional_residuals", "experiments.cubic_roots",
               "cumulants.phi_theta", "cumulants.measure_cumulants",
               "cumulants.moments_to_cumulants")
    A, T = 0.6, 0.64          # Bernoulli(+-A) boxplus semicircle(T)
    TILDE_A, TILDE_EPS, U_POINTS = 0.05, 0.2, 41
    PHI_POINTS = 300
    # the solver stops at a 1e-12 residual; near the strip's lower edge
    # (Im z = 0.05) the G error stays within a few times that
    G_TOL = 1e-10
    TILDE_TOL = 1e-8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.mixed = [Measure.bernoulli().scale(self.A), Measure.semicircle(self.T)]
        self.sc = Measure.semicircle(1.0)
        self.bern = Measure.bernoulli()
        self.theta = sphere.sample(32, seed)
        re, im = np.linspace(-1.7, 1.7, 20), np.linspace(0.05, 3.0, 10)
        self.grid = (re[:, None] + 1j * im[None, :]).ravel()  # criterion 7
        self.phi_mu = Measure.binomial(0.25)
        rad = 1.0 / (6.0 * self.phi_mu.support_radius * np.max(np.abs(self.theta.theta)))
        r = rad * rng.uniform(0.1, 0.9, self.PHI_POINTS)
        self.phi_z = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, self.PHI_POINTS))

    def g_b(self, z):
        return complexfn.cauchy(self.sc, z)

    def run(self, rep):
        clock = time.perf_counter

        def g_a(z):
            t0 = clock()
            try:
                g = subordination.solve(self.mixed, z).G
            except FreeconvError as exc:
                rep.errors.append(exc)
                g = NAN
            rep.latency.append(clock() - t0)
            rep.out["g_a"].append((z, g))
            return g

        rep.out["g_a"] = []
        rep.out["delta_tilde"] = self.attempt(
            rep, inversion.delta_tilde, g_a, self.g_b, self.TILDE_A,
            self.TILDE_EPS, u_points=self.U_POINTS)
        rep.out["terms"] = self.attempt(rep, experiments.functional_residuals,
                                        self.bern, self.theta, self.grid)
        th = self.theta.theta
        rep.out["phi"] = [self.attempt(rep, cumulants.phi_theta, self.phi_mu, th, z)
                          for z in self.phi_z]

    def operations(self, rep, calls):
        return super().operations(rep, calls) + self.PHI_POINTS

    def check(self, rep, calls):
        checks, metrics = [], {}
        # the values delta_tilde consumed, not the solver's internal ones
        errs = np.array([abs(g - mixed_oracle_g(z, self.A, self.T))
                         for z, g in rep.out["g_a"]])
        err = float(np.max(errs, initial=0.0, where=np.isfinite(errs)))
        checks.append(("g_vs_cubic_oracle",
                       errs.size > 0 and bool(np.all(errs <= self.G_TOL)),
                       f"max {err:.3e} over {errs.size} points"))
        metrics["g_err_max"] = err

        dt = rep.out["delta_tilde"]
        ref = inversion.delta_tilde(lambda z: mixed_oracle_g(z, self.A, self.T),
                                    self.g_b, self.TILDE_A, self.TILDE_EPS,
                                    u_points=self.U_POINTS)
        checks.append(("delta_tilde_vs_oracle",
                       dt is not None and abs(dt - ref) <= self.TILDE_TOL,
                       f"{dt!r} vs {ref!r}"))

        terms = rep.out["terms"]
        ok = terms is not None and len(terms) == self.grid.size and all(
            t.residual_p <= 1e-8 * (1 + abs(t.z)) ** 3
            and t.residual_q <= 1e-8 * (1 + abs(t.z)) ** 2
            and max(t.vieta_sum_err, t.vieta_prod_err) <= 1e-9
            and t.matched_root_p == "omega3" and t.match_dist_p <= 1e-6
            for t in terms)
        checks.append(("criterion_07_residuals", ok, ""))

        mu, th = self.phi_mu, self.theta.theta
        L, m3 = mu.support_radius, mu.moment(3)
        ok = True
        for z, val in zip(self.phi_z, rep.out["phi"]):
            bound = (128.0 * L**4 * abs(z) ** 3 * np.sum(th**4)
                     + abs(m3 * np.sum(th**3)) * abs(z) ** 2)
            ok = ok and val is not None and bool(abs(val - 1.0 / z - z) <= bound + 1e-12)
        checks.append(("criterion_10_phi_theta_bound", ok, ""))
        self.solver_checks(calls, checks, metrics)
        return checks, metrics

    def serialized(self, rep):
        return [rep.out["g_a"], rep.out["delta_tilde"], rep.out["terms"],
                rep.out["phi"]]


class SphereMC(Workload):
    name = "sphere-mc"
    min_reps = 2
    reaches = ("sphere.concentration_report", "sphere.sample_matrix",
               "sphere.sample", "sphere.marginal_chi2_pvalue",
               "sphere.marginal_density")
    N, COUNT = 64, 100000

    def run(self, rep):
        rep.out["report"] = self.attempt(rep, sphere.concentration_report,
                                         self.N, self.COUNT, self.seed)
        mat = self.attempt(rep, sphere.sample_matrix, self.N, self.COUNT, self.seed)
        rep.out["matrix"] = mat
        rep.out["pvalue"] = (None if mat is None else self.attempt(
            rep, sphere.marginal_chi2_pvalue, self.N, mat))

    def operations(self, rep, calls):
        return 2 * self.COUNT

    def check(self, rep, calls):
        r, mat, p = rep.out["report"], rep.out["matrix"], rep.out["pvalue"]
        checks = [("criterion_09_concentration",
                   r is not None and r["all_pass"] and p is not None and p > 0.001,
                   f"chi2 p {p!r}")]
        ok = mat is not None and mat.shape == (self.COUNT, self.N) and bool(
            np.all(np.abs(np.einsum("ij,ij->i", mat, mat) - 1.0) <= 1e-12))
        checks.append(("rows_on_unit_sphere", ok, ""))
        return checks, {}

    def serialized(self, rep):
        mat = rep.out["matrix"]
        return [rep.out["report"], rep.out["pvalue"],
                b"" if mat is None else np.ascontiguousarray(mat).tobytes()]


WORKLOADS = {w.name: w for w in (SupportEdge, RatesRandom, PointwiseMixed, SphereMC)}
