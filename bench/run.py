"""freeconv benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload support-edge --seed 0 --seconds 10 --trace 0

Run it from anywhere inside a source checkout: it imports ``src/freeconv``
and ``tests/oracles.py`` of the checkout that holds this file, and exits
with status 2 (printing no result) when they are missing.  BLAS/OpenMP
thread pools are pinned to one thread.

A run measures ``setup_s`` (the median of three fresh processes that
import freeconv and build the workload's inputs), then repeats the
workload, one repetition after the other, until the next one would end
past ``--seconds`` (at least ``Workload.min_reps`` times).  Every
repetition's outputs are checked and digested; repetitions of one seed,
in this run or in an earlier run of the same sources, must digest
identically (every run, whatever its seed, when the workload has no
random input).  With ``--trace 1`` the run makes one untraced and one
traced repetition and reports per-layer metrics instead of end-to-end
ones.  See bench/README.md.

Standard output: one ``{"report": ...}`` line with everything measured,
then the result line with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".bench_build"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "FREECONV_THREADS")
SETUP_PROBES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def median_setup_s(args) -> float:
    """Median wall time of fresh processes that import freeconv and build
    the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed: " + proc.stderr.decode()[-2000:])
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def remembered_digest(key: str, digest: str) -> str:
    """The output digest an earlier run of these exact sources recorded
    under ``key``; records ``digest`` when there is none."""
    h = hashlib.sha256()
    files = [*sorted((ROOT / "src").rglob("*.py")), ROOT / "tests" / "oracles.py",
             *sorted((ROOT / "bench").glob("*.py"))]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    path = STATE / f"digests-{h.hexdigest()[:16]}.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if key not in known:
        known[key] = digest
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return known[key]


def run_rep(workload, patch, functions, tracer=None):
    """One repetition with output capture (and spans when tracing)."""
    from spans import capturing
    from workloads import Rep
    rep = Rep()
    wrappers = {"subordination.solve_grid": capturing(
                    functions["subordination.solve_grid"], rep.grids),
                "inversion.recover": capturing(functions["inversion.recover"],
                                               rep.recovers)}
    if tracer is not None:
        wrappers = {name: tracer.wrap(name, wrappers.get(name, fn))
                    for name, fn in functions.items()}
    patch.install(wrappers)
    try:
        t0 = time.perf_counter()
        workload.run(rep)
        rep.wall_s = time.perf_counter() - t0
    finally:
        patch.restore()
    return rep


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(names, rep, calls, summary: dict, overhead_s: float) -> dict:
    """Per-layer values of the traced repetition; ``names`` ending in
    ``.calls`` or ``.self_s`` are read from the span of that name."""
    import numpy as np

    def span(name, field):
        return summary.get(name, {}).get(field, 0)

    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            out[name] = span(base, field)
    out["subordination.solve_grid.points"] = sum(c.zs.size for c in calls)
    iters = (np.concatenate([c.iterations for c in calls]) if calls
             else np.zeros(0, dtype=int))
    passes = sum(int(np.max(c.iterations)) for c in calls if c.iterations.size)
    work = sum(float(np.sum(c.iterations)) * c.atoms for c in calls)
    grid_s = span("subordination.solve_grid", "total_s")
    out.update({
        "subordination.iters_total": int(iters.sum()),
        "subordination.iters_p50": percentile(iters, 50),
        "subordination.iters_p99": percentile(iters, 99),
        "subordination.iters_max": int(iters.max()) if iters.size else 0,
        "subordination.passes_total": passes,
        "subordination.us_per_pass": grid_s / passes * 1e6 if passes else 0.0,
        "subordination.ns_per_point_iter_atom": grid_s / work * 1e9 if work else 0.0,
        "subordination.unconverged": sum(int(np.count_nonzero(~c.converged))
                                         for c in calls),
        "inversion.delta_tilde.g_evals": len(rep.latency),
        "trace.overhead_s": overhead_s,
        "trace.spans": sum(s["calls"] for s in summary.values()),
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "freeconv" / "__init__.py").is_file():
        return fail(f"no freeconv sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        return fail(f"no {ROOT / 'tests' / 'oracles.py'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import freeconv
    if not Path(freeconv.__file__).resolve().is_relative_to(ROOT / "src"):
        return fail(f"imported freeconv from {freeconv.__file__}, not {ROOT / 'src'}")
    from spans import Patch, Tracer, public_functions
    from workloads import WORKLOADS, grid_calls
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]

    STATE.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        if args.setup_probe:
            cls(args.seed, workdir)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setup_s = None if args.trace else median_setup_s(args)
        workload = cls(args.seed, workdir)
        functions = public_functions()
        patch = Patch(functions)
        # accuracy over an empty set of points (no oracle, no solver) is 0
        checks, wmetrics, digests = [], {"g_err_max": 0.0, "residual_max": 0.0}, []
        walls, latency = [], []
        attempted = failed = 0

        def evaluate(rep, calls):
            """Check and digest one repetition; its captures are dropped after."""
            nonlocal attempted, failed
            rep_checks, m = workload.check(rep, calls)
            checks.extend((f"rep{len(digests)}.{name}", bool(ok), detail)
                          for name, ok, detail in rep_checks)
            for key, value in m.items():
                wmetrics[key] = max(wmetrics[key], value)
            attempted += workload.operations(rep, calls)
            failed += workload.failed(rep, calls)
            digests.append(workload.digest(rep, calls))

        peak_rss_mib = None
        t_start = time.perf_counter()
        while True:
            t_rep = time.perf_counter()
            rep = run_rep(workload, patch, functions)
            if peak_rss_mib is None:  # before any check allocates
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            walls.append(rep.wall_s)
            latency += rep.latency
            evaluate(rep, grid_calls(rep))
            now = time.perf_counter()
            if args.trace or (len(walls) >= workload.min_reps
                              and now - t_start + (now - t_rep) > args.seconds):
                break
        wall_s = statistics.median(walls)

        layers = {}
        if args.trace:
            tracer = Tracer()
            rep = run_rep(workload, patch, functions, tracer)
            calls = grid_calls(rep)
            evaluate(rep, calls)
            summary = tracer.summary()
            for name in workload.reaches:
                checks.append((f"coverage.{name}",
                               summary.get(name, {}).get("calls", 0) > 0, ""))
            layers = layer_metrics([m["name"] for m in spec["per_layer"]], rep,
                                   calls, summary, rep.wall_s - wall_s)
            del rep, calls

        checks.append(("repeat_digest_in_run", len(set(digests)) == 1,
                       f"{len(digests)} repetitions"))
        key = f"{args.workload}/{args.seed}" if workload.seeded else args.workload
        earlier = remembered_digest(key, digests[0])
        checks.append(("repeat_digest_across_runs", earlier == digests[0],
                       f"{earlier[:12]} vs {digests[0][:12]}"))
        wmetrics.update({
            "call_p50_ms": percentile(latency, 50) * 1e3,
            "call_p99_ms": percentile(latency, 99) * 1e3,
            "call_samples": len(latency),
            "fail_ratio": failed / max(attempted, 1),
        })
        if args.trace:
            values = dict(layers, **{f"workload.{k}": v for k, v in wmetrics.items()})
        else:
            values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mib": peak_rss_mib}

        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise RuntimeError(f"benchmark computed no value for {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
        correct = all(ok for _, ok, _ in checks)
        for name, ok, detail in checks:
            if not ok:
                print(f"bench: check failed: {name} {detail}", file=sys.stderr)

        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "closed_loop": "one caller, each call waits for the previous one",
            "setup_s": setup_s, "rep_wall_s": walls,
            "peak_rss_mib": peak_rss_mib, "workload_metrics": wmetrics,
            "digest": digests[0],
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        }
        if args.trace:
            report["layers"] = layers
            report["traced_wall_s"] = layers["trace.overhead_s"] + wall_s
            report["spans"] = {k: v for k, v in sorted(summary.items()) if v["calls"]}
        print(json.dumps({"report": report}, default=float))
        print(json.dumps({"correct": correct, "attempted": int(attempted),
                          "failed": int(failed), "metrics": metrics}, default=float))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
