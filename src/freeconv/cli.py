"""Command-line front end.

Every command validates its configuration first, computes, and returns its
result: a CSV body or a JSON payload.  ``main`` alone turns that into the
artifact, which embeds the resolved configuration and the seed, and writes
it atomically (temp file + rename); pass --no-timestamp for
byte-reproducible artifacts.  Exit codes: 0 success, 1 usage/config error,
2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, replace
from datetime import datetime, timezone

import numpy as np

from .errors import (BranchCutError, DomainError, InversionError,
                     IterationError, OutOfDiscError)
from .experiments import (_recover_sum, _weights_for, functional_residuals,
                          rate_experiment, rate_report_csv, support_experiment)
from .inversion import (GriddedDistribution, csv_table, delta_eps, kolmogorov,
                        levy)
from .measures import Measure, arcsine_cdf
from .sphere import concentration_report, sample_matrix, vector_stats
from .subordination import DEFAULT_OPTIONS, SolveOptions, solve

CONFIG_ERROR, NUMERICAL_ERROR, IO_ERROR = 1, 2, 3


def _load_measure(spec: str) -> Measure:
    if os.path.exists(spec) or spec.endswith(".json"):
        with open(spec) as fh:
            return Measure.from_json(fh.read())
    return Measure.from_preset(spec)


def _atomic_write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _artifact(args, result: str | dict) -> str:
    """A command's result with its configuration (every parsed option that
    was given or has a default, and the command) and, unless suppressed,
    a timestamp: '#' lines ahead of a CSV body, or keys of a JSON payload."""
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("output", "no_timestamp", "func") and v is not None}
    stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
    if isinstance(result, str):
        head = f"# config: {json.dumps(cfg, sort_keys=True)}\n"
        if stamp:
            head += f"# timestamp: {stamp}\n"
        return head + result
    doc = {"config": cfg, **result}
    if stamp:
        doc["timestamp"] = stamp
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _solver_opts(args) -> SolveOptions:
    """The library's default options with each solver flag given on the
    command line in place of its field."""
    given = {k: getattr(args, k) for k in ("tol", "max_iters")
             if getattr(args, k) is not None}
    return replace(DEFAULT_OPTIONS, **given)


# ---------------------------------------------------------------------------


def cmd_convolve(args) -> str:
    specs = args.preset or []
    if not specs:
        raise DomainError("convolve needs at least one --preset or measure file")
    measures = [_load_measure(s) for s in specs]
    opts = _solver_opts(args)
    window = args.window
    if window is None:
        window = sum(m.support_radius for m in measures) + 1.0
    elif not (window > 0 and math.isfinite(2.0 * window)):  # NaN fails too
        raise DomainError("--window must be positive with a finite span")
    if args.density:
        return _recover_sum(measures, args.eta, args.points, opts,
                            window)[0].to_csv()
    zs = np.linspace(-window, window, args.points) + 1j
    G = solve(measures, zs, opts).G
    return csv_table(["re_z", "im_z", "re_g", "im_g"],
                     ((z.real, z.imag, g.real, g.imag) for z, g in zip(zs, G)))


def _distribution(spec: str):
    """Distance input for 'arcsine' (its CDF), a density CSV, or a measure
    preset or file (the measure itself, so atoms are compared exactly)."""
    if spec == "arcsine":
        return arcsine_cdf
    if spec.endswith(".csv"):
        with open(spec) as fh:
            return GriddedDistribution.from_csv(fh.read())
    return _load_measure(spec)


def cmd_distance(args) -> dict:
    fa, fb = _distribution(args.a), _distribution(args.b)
    if args.metric == "kolmogorov":
        value = kolmogorov(fa, fb)
    elif args.metric == "levy":
        value = levy(fa, fb)
    else:
        value = delta_eps(fa, fb, args.eps)
    return {"value": value}


def cmd_rates(args) -> str:
    mu = _load_measure(args.preset)
    ns = [int(s) for s in args.n.split(",")]
    report = rate_experiment(mu, ns, weight_mode=args.weights,
                             metrics=tuple(args.metric.split(",")),
                             reps=args.reps, seed=args.seed, eps=args.eps,
                             eta=args.eta, points=args.points,
                             opts=_solver_opts(args))
    slopes = "".join(f"# slope[{name}]={slope:.17g} r2={r2:.17g}\n"
                     for name, (slope, r2) in sorted(report.slopes.items()))
    return slopes + rate_report_csv(report)


def cmd_support(args) -> dict:
    mu = _load_measure(args.preset)
    theta = _weights_for(args.n, args.weights, args.seed, 0)
    rep = support_experiment(mu, theta, density_threshold=args.threshold,
                             eta=args.eta, points=args.points,
                             opts=_solver_opts(args))
    return asdict(rep)


def cmd_residuals(args) -> str:
    mu = _load_measure(args.preset)
    theta = _weights_for(args.n, args.weights, args.seed, 0)
    side = max(2, int(round(math.sqrt(args.grid_points))))
    re = np.linspace(-args.re_max, args.re_max, side)
    im = np.linspace(args.im_min, args.im_max, side)
    zs = (re[None, :] + 1j * im[:, None]).ravel()
    terms = functional_residuals(mu, theta, zs, opts=_solver_opts(args))
    return csv_table(["re_z", "im_z", "residual_p", "residual_q",
                      "vieta_sum_err", "vieta_prod_err", "matched_root_p",
                      "matched_root_q", "match_dist_p", "match_dist_q"],
                     ((t.z.real, t.z.imag, t.residual_p, t.residual_q,
                       t.vieta_sum_err, t.vieta_prod_err, t.matched_root_p,
                       t.matched_root_q, t.match_dist_p, t.match_dist_q)
                      for t in terms))


def cmd_sphere(args) -> str:
    # with no rows, nothing is drawn and n is not checked
    thetas = sample_matrix(args.n, args.count, args.seed) if args.count else []
    stats = map(vector_stats, thetas)
    return csv_table(["index", "max_abs", "sum_abs3", "sum_abs4", "sum_cubes"],
                     ((i, st["max_abs"], st["sum_abs_pow"][3],
                       st["sum_abs_pow"][4], st["sum_cubes"])
                      for i, st in enumerate(stats)))


def cmd_concentration(args) -> dict:
    return concentration_report(args.n, args.samples, args.seed, A=args.A)


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", "-o", default="-",
                   help="output path ('-' for stdout)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field for reproducible bytes")


def _add_solver(p: argparse.ArgumentParser) -> None:
    """Solver overrides, for the subcommands that solve the system."""
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freeconv",
        description="Free additive convolution, spectral recovery, and "
                    "rate/support/residual experiment harnesses.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convolve", help="free convolution of input measures")
    p.add_argument("--preset", action="append",
                   help="measure preset or JSON file (repeatable)")
    p.add_argument("--density", action="store_true",
                   help="emit the recovered density/CDF instead of G samples")
    p.add_argument("--eta", type=float, default=1e-3)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--window", type=float, default=None)
    _add_common(p)
    _add_solver(p)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("distance", help="distance between two distributions")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--metric", default="kolmogorov",
                   choices=["kolmogorov", "levy", "delta_eps"])
    p.add_argument("--eps", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("rates", help="convergence-rate study vs semicircle")
    p.add_argument("--preset", required=True)
    p.add_argument("--n", required=True, help="comma-separated schedule")
    p.add_argument("--weights", default="uniform", choices=["uniform", "random"])
    p.add_argument("--metric", default="delta",
                   help="comma-separated subset of delta,levy,delta_eps,delta_tilde")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=1e-3)
    p.add_argument("--points", type=int, default=2001)
    _add_common(p)
    _add_solver(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("support", help="superconvergence support enclosure")
    p.add_argument("--preset", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", default="uniform", choices=["uniform", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-5)
    p.add_argument("--eta", type=float, default=1e-4)
    p.add_argument("--points", type=int, default=4001)
    _add_common(p)
    _add_solver(p)
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("residuals", help="functional-equation residual grid")
    p.add_argument("--preset", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", default="random", choices=["uniform", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--re-max", type=float, default=1.7)
    p.add_argument("--im-min", type=float, default=0.05)
    p.add_argument("--im-max", type=float, default=3.0)
    p.add_argument("--grid-points", type=int, default=200)
    _add_common(p)
    _add_solver(p)
    p.set_defaults(func=cmd_residuals)

    p = sub.add_parser("sphere", help="unit-sphere weight sampling stats")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("concentration", help="Monte Carlo concentration checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--A", type=float, default=4.0)
    _add_common(p)
    p.set_defaults(func=cmd_concentration)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return CONFIG_ERROR if exc.code not in (0, None) else 0
    try:
        _atomic_write(args.output, _artifact(args, args.func(args)))
        return 0
    # the numerical errors first: BranchCutError and OutOfDiscError are
    # DomainErrors too
    except (IterationError, InversionError, BranchCutError,
            OutOfDiscError, ArithmeticError) as exc:
        print(f"freeconv: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (DomainError, ValueError) as exc:
        print(f"freeconv: config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except OSError as exc:
        print(f"freeconv: i/o error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
