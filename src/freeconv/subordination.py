"""Pointwise solver for the n-measure subordination system in the upper
half-plane.

For measures nu_1..nu_n and z with Im z > 0, the system is

    F_i(Z_i) = w  (i = 1..n),   Z_1 + ... + Z_n - z = (n-1) w,

where F_i is the reciprocal Cauchy transform of nu_i.  Its Jacobian in
(Z_1..Z_n, w) is diagonal plus rank one, so eliminating dZ_i leaves a
scalar Schur complement and one Newton step costs one pass over the atoms,
like one fixed-point sweep.  Every point starts at the free-CLT prediction:
the summands other than i act like the semicircle of their mean and
variance, so Z_i = z - (m - m_i) - (v - v_i) G_{sc(v)}(z - m), with m and v
the total mean and variance; for semicircle summands this is the fixed
point itself.  A point whose Newton iterate is not finite or
leaves Im Z_i >= Im z takes the plain sweep Z_i <- z + sum_{j != i}
(F_j(Z_j) - Z_j) instead, which stays there because Im(F_j(v) - v) >= 0
(Belinschi-Mai-Speicher).  Convergence is declared on the system residual,
not on the step size, once it is below the tolerance or below the rounding
level of the sums it is made of, 8 eps (|z| + |sum_i Z_i| + (n-1)|w|),
whichever is larger: at large |z| or for hundreds of coordinates that
level exceeds any fixed absolute tolerance.  A point's outputs are
written once, when it leaves the Newton loop.  What depends on the
measures alone (the dedupe, the start's mean and variance terms, the
stacked atom arrays) is built once per tuple of measures and cached.
A grid is solved in independent column tiles, run concurrently where
BLAS leaves cores free (see solve_grid).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .complexfn import _semicircle_g
from .errors import DomainError, IterationError
from .measures import Measure
from .sphere import as_weights


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-12
    max_iters: int = 10000

    def __post_init__(self):
        if not (self.tol > 0 and self.max_iters > 0):
            raise DomainError("invalid solver options")


DEFAULT_OPTIONS = SolveOptions()
_ROUNDING = 8.0 * np.finfo(float).eps  # residual floor per unit of its sums
_TILE = 1 << 15  # coordinate-points per tile: a complex block of 512 KiB


def _tile_workers():
    """Threads for a multi-tile solve: the cores this process may run on,
    divided by the threads of one BLAS call, which OpenBLAS takes from the
    first positive one of these variables, else one per core.  Its threads
    spin between calls, so tile threads on top of them slow a solve down."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    env = (os.environ.get(v, "") for v in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    blas = next((int(v) for v in env if v.isdigit() and int(v) > 0), cores)
    return max(1, cores // blas)


_WORKERS = _tile_workers()


class GridSolution(NamedTuple):
    """A solve's result: Z of shape (n, m), then one entry per point (for
    solve at a scalar z, Z of shape (n,) and Python scalars)."""
    Z: np.ndarray
    F: np.ndarray
    G: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _make_evaluator(measures):
    """(F_i(Z_i), F_i'(Z_i)) on a (k, m) block of points in C+.

    Atomic coordinates are summed over stacked atom arrays, one atom at a
    time (F' = F^2 sum_j w_j/(Z - x_j)^2); semicircle coordinates are one
    _semicircle_g block against a column of their variances (F' =
    F/(2F - Z), from F^2 - Z F + variance = 0).
    """
    is_atomic = np.array([mu.kind == "atomic" for mu in measures])
    # row indexers, slices (views, not copies) where the rows are contiguous
    atomic, semi = (slice(i[0], i[-1] + 1) if i.size and i[-1] - i[0] < i.size
                    else i for i in map(np.flatnonzero, (is_atomic, ~is_atomic)))
    atoms = [mu.atoms for mu in measures if mu.kind == "atomic"]
    V = np.array([[mu.variance_param] for mu in measures if mu.kind != "atomic"])
    na = max(map(len, atoms), default=0)
    # complex, as numpy would cast them at every use
    X = np.zeros((na, len(atoms), 1), dtype=complex)
    W = np.zeros((na, len(atoms), 1), dtype=complex)  # zero weight pads
    for a, pairs in enumerate(atoms):
        for j, (x, w) in enumerate(pairs):
            X[j, a, 0], W[j, a, 0] = x, w
    XW = list(zip(X, W))

    def atomic_part(Za):
        F = dF = q = t = None  # later atoms reuse the buffers q and t
        for x, w in XW:
            # out=None allocates as Za - x would: the layout, and so the
            # BLAS path and the bytes of c @ F, stay the same
            q = np.reciprocal(np.subtract(Za, x, out=q), out=q)
            if F is None:  # the first atom starts both sums: no zero start
                F = w * q
                q *= q
                dF = w * q
                continue
            t = np.multiply(w, q, out=t)
            F += t
            q *= q
            dF += np.multiply(w, q, out=t)
        np.reciprocal(F, out=F)
        dF *= F
        dF *= F
        return F, dF

    def evaluate(Z):
        if not V.size:
            return atomic_part(Z)
        F = np.empty_like(Z)
        dF = np.empty_like(Z)
        if atoms:
            F[atomic], dF[atomic] = atomic_part(Z[atomic])
        Zs = Z[semi]
        Fs = 1.0 / _semicircle_g(Zs, V)
        F[semi] = Fs
        dF[semi] = Fs / (2.0 * Fs - Zs)
        return F, dF

    return evaluate


def _newton(evaluate, c, n, zs, opts, Z, F0, res, tol, iterations):
    """Newton steps on one tile until every point converges or max_iters;
    writes Z and the per-point outputs in place as points retire.  Converged
    points leave the working set, so late steps only touch the stragglers."""
    idx, Zw, zw = np.arange(zs.shape[0]), Z, zs

    for step in range(opts.max_iters + 1):
        F, dF = evaluate(Zw)
        w = c @ F / n
        s = c @ Zw
        sz = s - zw
        rw = np.maximum(np.abs(F - F[0]).max(axis=0),
                        np.abs(sz - (n - 1) * F[0]))
        tw = np.maximum(opts.tol, _ROUNDING * (np.abs(zw) + np.abs(s)
                                                + (n - 1) * np.abs(w)))
        live = rw > tw
        if step == opts.max_iters or not live.any():
            Z[:, idx], F0[idx], res[idx], tol[idx], iterations[idx] = (
                Zw, F[0], rw, tw, step)
            return
        if not live.all():
            out, done = idx[~live], ~live
            Z[:, out], F0[out], res[out], tol[out], iterations[out] = (
                Zw[:, done], F[0, done], rw[done], tw[done], step)
            idx, zw, Zw = idx[live], zw[live], Zw[:, live]
            w, sz = w[live], sz[live]
            F = F[:, live]  # one block at a time, so the old one goes first
            dF = dF[:, live]
        r = sz - (n - 1) * w
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = np.reciprocal(dF, out=dF)  # 1/F_i'
            e = F - w
            e *= inv  # e_i/F_i'
            dw = (c @ e - r) / (c @ inv - (n - 1))  # Schur complement
            Zn = np.multiply(dw, inv, out=inv)  # Z_i + (dw - e_i)/F_i'
            Zn -= e
            Zn += Zw
        ok = (np.isfinite(Zn) & (Zn.imag >= zw.imag)).all(axis=0)
        if not ok.all():
            bad = ~ok
            delta = F[:, bad] - Zw[:, bad]  # Im(F_j(v) - v) >= 0
            sweep = zw[bad] + c @ delta - delta
            # rounding guard: the sweep keeps Im Z_i >= Im z exactly in theory
            sweep.imag = np.maximum(sweep.imag, zw[bad].imag)
            Zn[:, bad] = sweep
        del F, dF, inv, e  # free the block before the next evaluation
        Zw = Zn


@lru_cache(maxsize=32)
def _setup(measures):
    """A solve's setup without init, built once per tuple of measures: each
    measure's coordinate (None if none collapsed), complex multiplicities
    (as matmul casts them), the evaluator and the free-CLT start's terms (m,
    v summed over the multiplicities; Im _semicircle_g <= 0 exactly, so Im
    Z_i >= Im z needs no clamp; v = 0 needs no branch: v - v_i = 0)."""
    index = {}  # first-occurrence order; Measure is frozen, so hashable
    expand = [index.setdefault(mu, len(index)) for mu in measures]
    coords, counts = list(index), np.bincount(expand)
    mi = np.array([mu.mean for mu in coords])
    # moment(2) - mean^2 can round below 0 for atoms far from the origin
    vi = np.array([max(mu.var, 0.0) for mu in coords])
    mean, var = np.dot(counts, mi), np.dot(counts, vi)
    return (expand if len(coords) < len(measures) else None,
            counts.astype(complex), _make_evaluator(coords),
            ((vi - var)[:, None], mean, var, (mean - mi)[:, None]))


def solve_grid(measures, zs, opts: SolveOptions = DEFAULT_OPTIONS,
               init=None) -> GridSolution:
    """Solve the subordination system simultaneously at every point of zs.

    Returns the GridSolution (Z, F, G, residual, iterations, converged)
    with Z of shape (n, m).  zs is a point or a 1-D array of points, each
    finite with Im z > 0.  ``init`` replaces the free-CLT start: shape
    (n, m), or (n,) for one point, finite, with Im Z_i >= Im z.  Without
    it, duplicate measures share a coordinate: the fixed point is symmetric
    in identical coordinates and identical measures get identical starts,
    so the collapsed system has the same solution.

    Points are independent, so the columns are solved in tiles of about
    2^15 coordinate-points (512 KiB per complex block): the Newton
    temporaries stay in cache, and memory beyond the returned Z is a few
    tiles, whatever the grid size.  The tiles of a multi-tile call run on
    up to _WORKERS threads, started for the call and joined before it
    returns (so a fork finds none), each tile in a copy of the caller's
    context (numpy's errstate); a tile's exception is raised here.  The
    bytes do not depend on the number of threads, but they do depend on
    the BLAS thread count: a sum such as c @ F split across BLAS threads
    rounds differently.
    """
    measures = tuple(measures)
    n = len(measures)
    if n == 0:
        raise DomainError("need at least one measure")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if zs.ndim != 1:
        raise DomainError(f"points must be a scalar or 1-D, got shape {zs.shape}")
    if not (np.isfinite(zs) & (zs.imag > 0)).all():
        raise DomainError("all evaluation points must be finite with Im z > 0")
    m = zs.shape[0]

    if init is None:
        expand, c, evaluate, (scale, mean, var, shift) = _setup(measures)
        Z = np.multiply(scale, _semicircle_g(zs - mean, var))  # free-CLT start
        Z += zs
        Z -= shift
    else:
        expand, c, evaluate = None, np.ones(n, complex), _make_evaluator(measures)
        Z = np.array(init, dtype=complex)
        if Z.shape == (n,) and m == 1:
            Z = Z.reshape(n, 1)
        if Z.shape != (n, m) or not np.all(np.isfinite(Z)
                                           & (Z.imag >= zs.imag)):
            raise DomainError(f"init must be finite, of shape ({n}, {m}), "
                              "with Im Z_i >= Im z")

    F0 = np.empty(m, dtype=complex)
    res = np.empty(m)
    tol = np.empty(m)
    iterations = np.zeros(m, dtype=int)
    width = max(1, _TILE // c.size)
    tiles = [slice(lo, lo + width) for lo in range(0, m, width)]

    def run(t):
        _newton(evaluate, c, n, zs[t], opts, Z[:, t], F0[t], res[t], tol[t],
                iterations[t])

    workers = min(_WORKERS, len(tiles))
    if workers == 1:
        for t in tiles:
            run(t)
    else:  # each tile in a copy of the caller's context (numpy's errstate)
        from concurrent.futures import ThreadPoolExecutor
        from contextvars import copy_context
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(lambda ctx, t: ctx.run(run, t),
                          [copy_context() for _ in tiles], tiles))
    if expand is not None:
        Z = Z[expand]
    return GridSolution(Z, F0, 1.0 / F0, res, iterations, res <= tol)


def solve(measures, z, opts: SolveOptions = DEFAULT_OPTIONS,
          init=None) -> GridSolution:
    """Solve the system at a point or an array of points; the checked
    solve_grid.

    Raises IterationError naming the first unconverged point, its index and
    its last residual.  For a scalar z, ``init`` is the Z vector of a
    neighbouring solution (warm start) and the result holds that point's
    entries: Z of shape (n,), the other fields Python scalars.
    """
    sol = solve_grid(measures, z, opts, init)
    if not sol.converged.all():
        bad = int(np.argmax(~sol.converged))
        res, iters = float(sol.residual[bad]), int(sol.iterations[bad])
        raise IterationError(
            f"subordination failed to converge at z={complex(np.ravel(z)[bad])} "
            f"(index {bad}): residual {res:.3e} after {iters} iterations",
            residual=res, iterations=iters)
    if np.ndim(z):
        return sol
    return GridSolution(sol.Z[:, 0], *(a[0].item() for a in sol[1:]))


def weighted_summands(mu: Measure, theta) -> list[Measure]:
    """The summands D_{theta_i} mu of the weighted free sum sum_i theta_i X_i."""
    return [mu.scale(float(t)) for t in as_weights(theta)]

