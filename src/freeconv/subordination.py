"""Pointwise solver for the n-measure subordination system in the upper
half-plane.

For measures nu_1..nu_n and z with Im z > 0, the system is

    F_i(Z_i) = w  (i = 1..n),   Z_1 + ... + Z_n - z = (n-1) w,

where F_i is the reciprocal Cauchy transform of nu_i.  Its Jacobian in
(Z_1..Z_n, w) is diagonal plus rank one, so eliminating dZ_i leaves a
scalar Schur complement, and the step needs F_i and 1/F_i' alone.  The
evaluator returns exactly those: an atomic law of k atoms in its pole-zero
form costs k reciprocals per point (one per pole of F, one for 1/F'), a
semicircle one division past its G, and the step itself divides by
nothing but the scalar Schur complement.  Every point starts at the
free-CLT prediction: the summands other than i act like the semicircle of
their mean and variance, so Z_i = z - (m - m_i) - (v - v_i) G_{sc(v)}(z -
m), with m and v the total mean and variance; for semicircle summands
this is the fixed point itself.  A point whose Newton iterate is not
finite or leaves Im Z_i >= Im z takes the plain sweep Z_i <- z + sum_{j != i}
(F_j(Z_j) - Z_j) instead, which stays there because Im(F_j(v) - v) >= 0
(Belinschi-Mai-Speicher).  Convergence is declared on the system residual,
not on the step size, once it is below the tolerance or below the rounding
level of the sums it is made of, 8 eps (|z| + |sum_i Z_i| + (n-1)|w|),
whichever is larger: at large |z| or for hundreds of coordinates that
level exceeds any fixed absolute tolerance.  A point's outputs are
written once, when it leaves the Newton loop.  What depends on the
measures alone (the dedupe, the start's mean and variance terms, the
stacked atoms, poles and residues) is built once per tuple of measures
and cached.
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
    solve at a scalar z, Z of shape (n,) and Python scalars).  Z is
    read-only; a broadcast of one row when all summands are one measure."""
    Z: np.ndarray
    F: np.ndarray
    G: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _poles(X, Wt, k):
    """The zeros p_j of G in the gaps (x_j, x_{j+1}) of stacked atomic laws,
    and the residues rho_j = 1/sum_i w_i/(p_j - x_i)^2 of -F there.

    X and Wt are (K, a): column c holds a law's k[c] atoms and weights,
    padded with its last atom at weight 0.  Returns P and R of shape
    (K - 1, a), padded with the last atom and rho = 0.  G falls from +inf
    to -inf across a gap, so each zero is found by Newton steps kept in a
    shrinking bracket, all gaps at once, from the zero of the gap's two
    atoms alone, p = (w_j x_{j+1} + w_{j+1} x_j)/(w_j + w_{j+1}): exact for
    a two-atom law up to rounding, which the steps polish.
    """
    P = np.repeat(X[-1:], len(X) - 1, axis=0)
    R = np.zeros_like(P)
    gap, col = np.nonzero(np.arange(len(P))[:, None] < k - 1)

    def g_and_slope(p):  # G and -G' at each gap's p, one atom row at a time
        g = s = 0.0
        for x, w in zip(X, Wt):
            x = x[col]
            t = w[col] / (p - x)
            g = g + t
            s = s + t / (p - x)
        return g, s

    a, b, wa, wb = X[gap, col], X[gap + 1, col], Wt[gap, col], Wt[gap + 1, col]
    lo, hi = np.nextafter(a, b), np.nextafter(b, a)  # inside the gap
    p = np.clip((wa * b + wb * a) / (wa + wb), lo, hi)
    tol = 4 * np.finfo(float).eps * np.maximum(np.abs(a), np.abs(b))
    for _ in range(100):  # bisection alone needs at most 52 halvings
        g, s = g_and_slope(p)
        lo, hi = np.where(g > 0, p, lo), np.where(g < 0, p, hi)
        pn = p + g / s
        pn = np.where((lo <= pn) & (pn <= hi), pn, 0.5 * (lo + hi))
        done = np.abs(pn - p) <= tol
        p = pn
        if done.all():
            break
    P[gap, col] = p
    R[gap, col] = 1.0 / g_and_slope(p)[1]
    return P, R


def _make_evaluator(measures):
    """(F_i(Z_i), 1/F_i'(Z_i)) on a (k, m) block of points in C+.

    An atomic coordinate with atoms x_1 < ... < x_k of total weight W
    takes F in its pole-zero form (Akhiezer) and 1/F' from F's partial
    fractions, with the poles p_j and residues rho_j of _poles:

        F = (Z - x_k)/W prod_{j<k} (Z - x_j)/(Z - p_j),
        1/F' = 1/(1/W + sum_{j<k} rho_j/(Z - p_j)^2),

    k reciprocals per point, one per pole and one for 1/F'.  Each atom
    pairs with the pole to its right, so every factor stays near 1 at
    large |Z| and F keeps its relative accuracy near an atom.  Rows with
    fewer atoms than the most skip the missing poles by where= masks (the
    first pole's term, which starts the sum, by its padded rho = 0).  A
    semicircle coordinate is one _semicircle_g block against a column of
    its variances, F = 1/G and 1/F' = 2 - Z G (from F^2 - Z F + variance
    = 0).  The returned arrays are the caller's to overwrite.
    """
    is_atomic = np.array([mu.kind == "atomic" for mu in measures])
    # row indexers, slices (views, not copies) where the rows are contiguous
    atomic, semi = (slice(i[0], i[-1] + 1) if i.size and i[-1] - i[0] < i.size
                    else i for i in map(np.flatnonzero, (is_atomic, ~is_atomic)))
    atoms = [mu.atoms for mu in measures if mu.kind == "atomic"]
    V = np.array([[mu.variance_param] for mu in measures if mu.kind != "atomic"])
    k = np.array([len(a) for a in atoms], dtype=int)
    K = k.max(initial=1)
    X = np.array([[x for x, _ in a] + [a[-1][0]] * (K - len(a))
                  for a in atoms]).reshape(-1, K).T
    Wt = np.array([[w for _, w in a] + [0.0] * (K - len(a))
                   for a in atoms]).reshape(-1, K).T
    P, R = _poles(X, Wt, k)
    # complex columns, as numpy would cast them at every use
    last = X[-1, :, None].astype(complex)
    inv_w = (1.0 / Wt.sum(axis=0))[:, None].astype(complex)
    scaled = bool((inv_w != 1).any())
    # the j-th pole term is a row's where it has more than j + 1 atoms
    terms = [(x[:, None].astype(complex), p[:, None].astype(complex),
              r[:, None].astype(complex),
              True if (k > j + 1).all() else (k > j + 1)[:, None])
             for j, (x, p, r) in enumerate(zip(X[:-1], P, R))]

    def atomic_part(Za):
        F = np.subtract(Za, last)
        if scaled:  # some W != 1
            F *= inv_w
        S = q = t = None  # S takes the first q; later poles reuse q and t
        for x, p, r, on in terms:
            q = np.reciprocal(np.subtract(Za, p, out=q), out=q)
            t = np.subtract(Za, x, out=t)
            t *= q
            np.multiply(F, t, out=F, where=on)
            q *= q
            q *= r
            if S is None:  # the first term starts S; rho = 0 pads it
                S, q = q, None
            else:
                np.add(S, q, out=S, where=on)
        if S is None:  # point masses only
            S = np.zeros_like(F)
        S += inv_w if scaled else 1.0
        return F, np.reciprocal(S, out=S)

    def evaluate(Z):
        if not V.size:
            return atomic_part(Z)
        F = np.empty_like(Z)
        inv = np.empty_like(Z)
        if atoms:
            F[atomic], inv[atomic] = atomic_part(Z[atomic])
        Zs = Z[semi]
        Gs = _semicircle_g(Zs, V)
        F[semi] = 1.0 / Gs
        inv[semi] = 2.0 - Zs * Gs
        return F, inv

    return evaluate


def _newton(evaluate, c, n, zs, opts, Z, F0, res, tol, iterations):
    """Newton steps on one tile until every point converges or max_iters;
    writes Z and the per-point outputs in place as points retire.  Converged
    points leave the working set, so late steps only touch the stragglers.
    evaluate gives (F, 1/F'), so a step divides only by the Schur
    complement; the new Z is built in the 1/F' block."""
    idx, Zw, zw = np.arange(zs.shape[0]), Z, zs

    for step in range(opts.max_iters + 1):
        F, inv = evaluate(Zw)
        w = c @ F / n
        s = c @ Zw
        sz = s - zw
        rw = np.maximum(np.abs(F - F[0]).max(axis=0),
                        np.abs(sz - (n - 1) * F[0]))
        tw = np.maximum(opts.tol, _ROUNDING * (np.abs(zw) + np.abs(s)
                                                + (n - 1) * np.abs(w)))
        live = (rw > tw) & (step < opts.max_iters)
        if not live.all():
            out, done = idx[~live], ~live
            Z[:, out], F0[out], res[out], tol[out], iterations[out] = (
                Zw[:, done], F[0, done], rw[done], tw[done], step)
            if out.size == idx.size:  # every point retired
                return
            idx, zw, Zw = idx[live], zw[live], Zw[:, live]
            w, sz = w[live], sz[live]
            F = F[:, live]  # one block at a time, so the old one goes first
            inv = inv[:, live]
        r = sz - (n - 1) * w
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
        del F, inv, e  # free the block before the next evaluation
        Zw = Zn


@lru_cache(maxsize=32)
def _setup(measures):
    """A solve's setup without init, built once per tuple of measures: each
    measure's coordinate (None if none collapsed), complex multiplicities
    (as matmul casts them), the (F, 1/F') evaluator with its atomic
    coordinates' poles and residues, and the free-CLT start's terms (m,
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
    so the collapsed system has the same solution.  Z is read-only on
    every path; when all summands are one measure it is a broadcast of one
    row (stride 0, no n x m copy); a partial collapse gathers the rows.

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
    if expand is not None:  # one coordinate: a view of its row, no n x m copy
        Z = np.broadcast_to(Z, (n, m)) if c.size == 1 else Z[expand]
    Z.flags.writeable = False
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
    """The summands D_{theta_i} mu of the weighted free sum sum_i theta_i X_i.

    mu is scaled once per distinct weight, so equal weights share one
    Measure object (0.0 and -0.0 compare equal; both scale to the point
    mass at 0)."""
    w = as_weights(theta).tolist()
    scaled = {t: mu.scale(t) for t in dict.fromkeys(w)}
    return list(map(scaled.__getitem__, w))

