"""Command-line front end.

Every command validates its configuration first, computes, then writes the
result atomically (temp file + rename).  Outputs embed the resolved
configuration and the seed; pass --no-timestamp for byte-reproducible
artifacts.  Exit codes: 0 success, 1 usage/config error, 2 numerical
failure, 3 I/O error.
"""

from __future__ import annotations

import os

if os.environ.get("FREECONV_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["FREECONV_THREADS"])

import argparse
import csv
import io
import json
import math
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from .complexfn import cauchy
from .errors import (BranchCutError, DomainError, InversionError,
                     IterationError, OutOfDiscError)
from .experiments import (functional_residuals, rate_experiment,
                          rate_report_csv, support_experiment)
from .inversion import (GriddedDistribution, delta_eps, kolmogorov, levy,
                        recover)
from .measures import Measure, arcsine_cdf
from .sphere import WeightVector, concentration_report, sample, vector_stats
from .subordination import DEFAULT_OPTIONS, SolveOptions, g_free_grid

_FMT = "%.17g"

CONFIG_ERROR, NUMERICAL_ERROR, IO_ERROR = 1, 2, 3


def _load_measure(spec: str) -> Measure:
    if os.path.exists(spec) or spec.endswith(".json"):
        with open(spec) as fh:
            return Measure.from_json(fh.read())
    return Measure.from_preset(spec)


def _config_dict(args) -> dict:
    """Every parsed option that was given or has a default, and the command."""
    return {k: v for k, v in vars(args).items()
            if k not in ("output", "no_timestamp", "func") and v is not None}


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


def _header_lines(args, cfg: dict) -> str:
    lines = [f"# config: {json.dumps(cfg, sort_keys=True)}\n"]
    if not args.no_timestamp:
        lines.append(f"# timestamp: {datetime.now(timezone.utc).isoformat()}\n")
    return "".join(lines)


def _json_report(args, cfg: dict, payload: dict) -> str:
    doc = {"config": cfg, **payload}
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    def _default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.bool_):
            return bool(o)
        raise TypeError(f"not JSON serializable: {type(o)}")

    return json.dumps(doc, indent=2, sort_keys=True, default=_default) + "\n"


def _solver_opts(args) -> SolveOptions:
    """The library's default options with each solver flag given on the
    command line in place of its field."""
    given = {k: getattr(args, k) for k in ("tol", "max_iters")
             if getattr(args, k) is not None}
    return replace(DEFAULT_OPTIONS, **given)


def _weights(args) -> WeightVector:
    if args.weights == "uniform":
        return WeightVector.uniform(args.n)
    return sample(args.n, args.seed)


# ---------------------------------------------------------------------------


def cmd_convolve(args) -> int:
    specs = args.preset or []
    if not specs:
        raise DomainError("convolve needs at least one --preset or measure file")
    measures = [_load_measure(s) for s in specs]
    opts = _solver_opts(args)
    cfg = _config_dict(args)
    window = args.window
    if window is None:
        window = sum(m.support_radius for m in measures) + 1.0

    buf = io.StringIO()
    buf.write(_header_lines(args, cfg))
    if args.density:
        dist = recover(lambda zs: g_free_grid(measures, zs, opts),
                       -window, window, points=args.points, eta=args.eta)
        buf.write(dist.to_csv())
    else:
        xs = np.linspace(-window, window, args.points)
        zs = xs + 1j
        G = g_free_grid(measures, zs, opts)
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["re_z", "im_z", "re_g", "im_g"])
        for z, g in zip(zs, G):
            w.writerow([_FMT % z.real, _FMT % z.imag, _FMT % g.real, _FMT % g.imag])
    _atomic_write(args.output, buf.getvalue())
    return 0


def _distribution(spec: str):
    """Distance input for 'arcsine' (its CDF), a density CSV, or a measure
    preset or file (the measure itself, so atoms are compared exactly)."""
    if spec == "arcsine":
        return arcsine_cdf
    if spec.endswith(".csv"):
        with open(spec) as fh:
            return GriddedDistribution.from_csv(fh.read())
    return _load_measure(spec)


def cmd_distance(args) -> int:
    fa, fb = _distribution(args.a), _distribution(args.b)
    cfg = _config_dict(args)
    if args.metric == "kolmogorov":
        value = kolmogorov(fa, fb)
    elif args.metric == "levy":
        value = levy(fa, fb)
    elif args.metric == "delta_eps":
        value = delta_eps(fa, fb, args.eps)
    else:
        raise DomainError(f"unknown metric {args.metric!r}")
    _atomic_write(args.output, _json_report(args, cfg, {"value": value}))
    return 0


def cmd_rates(args) -> int:
    mu = _load_measure(args.preset)
    ns = [int(s) for s in args.n.split(",")]
    metrics = tuple(args.metric.split(","))
    cfg = _config_dict(args)
    report = rate_experiment(mu, ns, weight_mode=args.weights, metrics=metrics,
                             reps=args.reps, seed=args.seed, eps=args.eps,
                             eta=args.eta, points=args.points,
                             opts=_solver_opts(args))
    buf = io.StringIO()
    buf.write(_header_lines(args, cfg))
    for name, (slope, r2) in sorted(report.slopes.items()):
        buf.write(f"# slope[{name}]={_FMT % slope} r2={_FMT % r2}\n")
    buf.write(rate_report_csv(report))
    _atomic_write(args.output, buf.getvalue())
    return 0


def cmd_support(args) -> int:
    mu = _load_measure(args.preset)
    theta = _weights(args)
    cfg = _config_dict(args)
    rep = support_experiment(mu, theta, density_threshold=args.threshold,
                             eta=args.eta, points=args.points,
                             opts=_solver_opts(args))
    payload = {
        "n": rep.n, "L": rep.L, "m3": rep.m3, "r_theta": rep.r_theta,
        "sum_theta4": rep.sum_theta4, "sum_theta3": rep.sum_theta3,
        "sum_abs_theta3": rep.sum_abs_theta3,
        "bound_kargin": rep.bound_kargin, "bound_paper": rep.bound_paper,
        "preconditions_met": rep.preconditions_met,
        "detected_support": list(rep.detected_support),
        "contained_in_paper_bound": rep.contained_in_paper_bound,
        "contained_in_kargin_bound": rep.contained_in_kargin_bound,
        "eta": rep.eta, "threshold": rep.threshold,
    }
    _atomic_write(args.output, _json_report(args, cfg, payload))
    return 0


def cmd_residuals(args) -> int:
    mu = _load_measure(args.preset)
    theta = _weights(args)
    cfg = _config_dict(args)
    side = max(2, int(round(math.sqrt(args.grid_points))))
    re = np.linspace(-args.re_max, args.re_max, side)
    im = np.linspace(args.im_min, args.im_max, side)
    zs = (re[None, :] + 1j * im[:, None]).ravel()
    terms = functional_residuals(mu, theta, zs,
                                 opts=_solver_opts(args))
    buf = io.StringIO()
    buf.write(_header_lines(args, cfg))
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["re_z", "im_z", "residual_p", "residual_q", "vieta_sum_err",
                "vieta_prod_err", "matched_root_p", "matched_root_q",
                "match_dist_p", "match_dist_q"])
    for t in terms:
        w.writerow([_FMT % t.z.real, _FMT % t.z.imag, _FMT % t.residual_p,
                    _FMT % t.residual_q, _FMT % t.vieta_sum_err,
                    _FMT % t.vieta_prod_err, t.matched_root_p, t.matched_root_q,
                    _FMT % t.match_dist_p, _FMT % t.match_dist_q])
    _atomic_write(args.output, buf.getvalue())
    return 0


def cmd_sphere(args) -> int:
    cfg = _config_dict(args)
    buf = io.StringIO()
    buf.write(_header_lines(args, cfg))
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["index", "max_abs", "sum_abs3", "sum_abs4", "sum_cubes"])
    for i in range(args.count):
        st = vector_stats(sample(args.n, args.seed, index=i).theta)
        w.writerow([i, _FMT % st["max_abs"], _FMT % st["sum_abs_pow"][3],
                    _FMT % st["sum_abs_pow"][4], _FMT % st["sum_cubes"]])
    _atomic_write(args.output, buf.getvalue())
    return 0


def cmd_concentration(args) -> int:
    cfg = _config_dict(args)
    rep = concentration_report(args.n, args.samples, args.seed, A=args.A)
    _atomic_write(args.output, _json_report(args, cfg, rep))
    return 0


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
        return args.func(args)
    except (DomainError, ValueError) as exc:
        print(f"freeconv: config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (IterationError, InversionError, BranchCutError,
            OutOfDiscError, ArithmeticError) as exc:
        print(f"freeconv: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except OSError as exc:
        print(f"freeconv: i/o error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
