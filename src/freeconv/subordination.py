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
written once, when it leaves the Newton loop.  The summands are first
deduplicated by object identity, in C and with no Measure hashed, and
what depends on the measures alone (the value dedupe, the start's mean
and variance terms, the stacked atoms, poles and residues) is built once
per distinct objects and slots and cached.
A grid is solved in independent column tiles, one thread per core, and
no step calls BLAS (see solve_grid).  One floating-point rule holds
in every solve: inf and NaN are data, shown as the sweep or as an
unconverged point, never as a warning or an exception (1/F' is not
finite where F' = 0, as for the Bernoulli law at Z = i).  So solve_grid
does its numpy work, after its input checks, under
np.errstate(all="ignore"), and _newton sets it again for its tile: a
worker thread starts from numpy's defaults.

The one algorithm runs in two arithmetics.  A grid runs it on numpy
arrays (_newton), and so does every solve given an init.  One free-CLT
started point of a system of at most _POINT_ATOMS = 32 coordinate-atoms
(an atomic law counts its atoms, a semicircle 1) runs it in Python
complex arithmetic (_newton_point): there a pass of _newton is
some 70 numpy calls on one-element arrays, whose dispatch costs far more
than the arithmetic.  Both take the same start, kernels, step, sweep, Im
clamp and stop test, in the same order of operations.  At the points
the tests sample they differ only in rounding (numpy's complex product
may fuse a multiply-add, and its quotient scales by a reciprocal), so a
stop test that lands within rounding of its tolerance can end one a step
before the other; ROADMAP item 13 names a point where they part.  The
bound sits below the crossover, measured on one-point solves of distinct
Bernoulli summands on a 2-core VM: Python took 142 against numpy's 191
us per solve at 32 coordinate-atoms, 195 against 207 at 48 and 237
against 197 at 64.  Per pass the two meet near 48, so solves of many
steps cross earlier than that.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .complexfn import _semicircle_g
from .errors import DomainError, IterationError, check_between, check_integer
from .measures import Measure
from .sphere import _CORES, as_weights


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-12
    max_iters: int = 10000

    def __post_init__(self):
        check_between("tol", self.tol, 0.0, math.inf)
        check_integer("max_iters", self.max_iters, 1)


DEFAULT_OPTIONS = SolveOptions()
_ROUNDING = 8.0 * math.ulp(1.0)  # residual floor per unit of its sums
_TILE = 1 << 15  # coordinate-points per tile: a complex block of 512 KiB
# coordinate-atoms (an atomic law counts its atoms, a semicircle 1) up to
# which a one-point solve runs in Python complex arithmetic (_newton_point)
_POINT_ATOMS = 32
_NAN = complex(math.nan, math.nan)
_WORKERS = _CORES  # threads for a multi-tile solve


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

    Also returns the same kernels at one point in Python complex
    arithmetic, one per coordinate (_atomic_point, _semicircle_point), or
    None above _POINT_ATOMS coordinate-atoms.
    """
    is_atomic = np.array([mu.kind == "atomic" for mu in measures])
    atomic, semi = np.flatnonzero(is_atomic), np.flatnonzero(~is_atomic)
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
        F[atomic], inv[atomic] = atomic_part(Z[atomic])
        Zs = Z[semi]
        Gs = _semicircle_g(Zs, V)
        F[semi] = 1.0 / Gs
        inv[semi] = 2.0 - Zs * Gs
        return F, inv

    if k.sum() + len(V) > _POINT_ATOMS:
        return evaluate, None
    cols = zip(X.T.tolist(), P.T.tolist(), R.T.tolist(),
               inv_w[:, 0].real.tolist(), k.tolist())
    edges = iter((2.0 * np.sqrt(V.ravel())).tolist())
    return evaluate, tuple(_atomic_point(*next(cols)) if mu.kind == "atomic"
                           else _semicircle_point(next(edges))
                           for mu in measures)


def _quot(a, b):
    """a / b, or NaN for b = 0, where numpy gives inf or NaN (a step that
    meets it takes the sweep) and Python raises ZeroDivisionError."""
    return a / b if b else _NAN


def _atomic_point(x, p, r, inv_w, k):
    """atomic_part's (F, 1/F') at one point for one law, operation for
    operation: its k atoms x, poles p, residues r (padded lists) and 1/W."""
    last, terms = x[-1], tuple(zip(x[:k - 1], p[:k - 1], r[:k - 1]))

    def kernel(Z):
        F = (Z - last) * inv_w
        S = 0j
        for xj, pj, rj in terms:
            q = 1.0 / (Z - pj)
            F *= (Z - xj) * q
            S += q * q * rj
        S += inv_w
        return F, _quot(1.0, S)

    return kernel


def _semicircle_g_point(Z, e):
    """_semicircle_g at one point, e = 2 sqrt(variance)."""
    return 2.0 / (Z + cmath.sqrt(Z - e) * cmath.sqrt(Z + e))


def _semicircle_point(e):
    """evaluate's semicircle (F, 1/F') at one point."""
    def kernel(Z):
        G = _semicircle_g_point(Z, e)
        return _quot(1.0, G), 2.0 - Z * G

    return kernel


def _sum(c, X):  # sum_i c_i X[i], real c (None: all 1), calling no BLAS
    if c is None:
        return np.einsum("ij->j", X)
    # one coordinate: its row times its count, 2-3x faster than einsum's
    return X[0] * c[0] if len(c) == 1 else np.einsum("i,ij->j", c, X)


def _newton(evaluate, c, n, zs, opts, Z, F0, res, tol, iterations):
    """Newton steps on one tile until every point converges or max_iters;
    writes Z and the per-point outputs in place as points retire.  Converged
    points leave the working set, so late steps only touch the stragglers.
    evaluate gives (F, 1/F'), so a step divides only by the Schur
    complement; the new Z is built in the 1/F' block."""
    idx, Zw, zw = np.arange(zs.shape[0]), Z, zs

    # the module docstring's rule: a worker thread starts from numpy's defaults
    with np.errstate(all="ignore"):
        for step in range(opts.max_iters + 1):
            F, inv = evaluate(Zw)
            w = _sum(c, F) / n
            s = _sum(c, Zw)
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
            e = F - w
            e *= inv  # e_i/F_i'
            dw = (_sum(c, e) - r) / (_sum(c, inv) - (n - 1))  # Schur complement
            Zn = np.multiply(dw, inv, out=inv)  # Z_i + (dw - e_i)/F_i'
            Zn -= e
            Zn += Zw
            ok = (np.isfinite(Zn) & (Zn.imag >= zw.imag)).all(axis=0)
            if not ok.all():
                bad = ~ok
                delta = F[:, bad] - Zw[:, bad]  # Im(F_j(v) - v) >= 0
                sweep = zw[bad] + _sum(c, delta) - delta
                # rounding guard: the sweep keeps Im Z_i >= Im z exactly in theory
                sweep.imag = np.maximum(sweep.imag, zw[bad].imag)
                Zn[:, bad] = sweep
            del F, inv, e  # free the block before the next evaluation
            Zw = Zn


def _newton_point(kernels, c, n, z, opts, Z):
    """_newton at one point in Python complex arithmetic, on lists of the
    coordinates' Z and multiplicities c (real, None when all are 1), with
    the kernels of _make_evaluator: the same residual, rounding floor,
    Schur-complement step, sweep and Im clamp, in _newton's order of
    operations.  Returns the point's Z, F_1, residual, tolerance and steps."""
    total = sum if c is None else (lambda v: sum(map(operator.mul, c, v)))
    for step in range(opts.max_iters + 1):
        F, inv = zip(*[f(x) for f, x in zip(kernels, Z)])
        F0 = F[0]
        w = total(F) / n
        s = total(Z)
        sz = s - z
        rw = max(max([abs(f - F0) for f in F]), abs(sz - (n - 1) * F0))
        tw = max(opts.tol, _ROUNDING * (abs(z) + abs(s) + (n - 1) * abs(w)))
        if not rw > tw or step == opts.max_iters:
            return Z, F0, rw, tw, step
        r = sz - (n - 1) * w
        e = [(f - w) * d for f, d in zip(F, inv)]
        dw = _quot(total(e) - r, total(inv) - (n - 1))
        Zn = [dw * d - ei + x for d, ei, x in zip(inv, e, Z)]
        if not all(cmath.isfinite(x) and x.imag >= z.imag for x in Zn):
            delta = [f - x for f, x in zip(F, Z)]
            swept = z + total(delta)
            Zn = [complex(t.real, max(t.imag, z.imag))
                  for t in (swept - d for d in delta)]
        Z = Zn


def by_identity(measures):
    """The distinct objects among measures, in first-occurrence order, and
    each measure's slot among them (measures[i] is objects[slots[i]]): O(n)
    work in C, and no Measure hashed or compared (ids are unique among live
    objects, and measures holds them all).  One object, the uniform-weight
    case, is found by an identity scan, which makes no int per summand
    and runs about 8 times faster than the dict."""
    if measures and all(map(operator.is_, measures, repeat(measures[0]))):
        return (measures[0],), (0,) * len(measures)
    objects = dict(zip(map(id, measures), measures))
    slot = dict(zip(objects, range(len(objects))))
    return tuple(objects.values()), tuple(map(slot.__getitem__, map(id, measures)))


@lru_cache(maxsize=32)
def _setup(objects, slots):
    """A solve's setup without init, built once per by_identity result
    (measures[i] is objects[slots[i]]).  The key holds the objects, not
    their ids, which are reused once an object is freed; equal but
    distinct objects make an equal key.  Returns each measure's
    coordinate, in first-occurrence order of the values, the real
    multiplicities (None if none collapsed), the (F, 1/F') evaluator with
    its atomic coordinates' poles and residues and the one-point kernels
    built from them (None above _POINT_ATOMS coordinate-atoms), and the
    free-CLT start's terms (m, v summed over the multiplicities; Im
    _semicircle_g <= 0 exactly, so Im Z_i >= Im z needs no clamp; v = 0
    needs no branch: v - v_i = 0)."""
    index = {}  # the value dedupe: Measure is frozen, so hashable
    coord = [index.setdefault(mu, len(index)) for mu in objects]
    expand = np.take(coord, slots)
    coords, counts = list(index), np.bincount(expand)
    mi = np.array([mu.mean for mu in coords])
    # moment(2) - mean^2 can round below 0 for atoms far from the origin
    vi = np.array([max(mu.var, 0.0) for mu in coords])
    c = None if len(coords) == len(slots) else counts.astype(float)
    mean, var = _sum(c, np.stack([mi, vi], axis=1)).tolist()
    return (expand, c, *_make_evaluator(coords),
            ((vi - var)[:, None], mean, var, (mean - mi)[:, None]))


def solve_grid(measures, zs, opts: SolveOptions = DEFAULT_OPTIONS,
               init=None) -> GridSolution:
    """Solve the subordination system simultaneously at every point of zs.

    Returns the GridSolution (Z, F, G, residual, iterations, converged)
    with Z of shape (n, m).  zs is a point or a 1-D array of points, each
    finite with Im z > 0.  ``init`` replaces the free-CLT start: shape
    (n, m), finite, with Im Z_i >= Im z.  Without it, duplicate measures
    share a coordinate: the fixed point is symmetric in identical
    coordinates and identical measures get identical starts, so the
    collapsed system has the same solution.  The summands are
    deduplicated by object identity first (O(n) work in C), then the
    distinct objects by value, in _setup's cache, so n summands that are
    one object, or a few, cost O(distinct) Measure hashes; equal but
    distinct objects still share a coordinate.  Z is read-only on
    every path; when all summands are one measure it is a broadcast of one
    row (stride 0, no n x m copy); a partial collapse gathers the rows.

    One point (m = 1) without init, of at most _POINT_ATOMS collapsed
    coordinate-atoms, is solved by _newton_point in Python complex
    arithmetic, with _setup's kernels; it returns the same GridSolution.
    Any other call, every call with init too, runs _newton.

    Points are independent, so the columns are solved in tiles of about
    2^15 coordinate-points (512 KiB per complex block): the Newton
    temporaries stay in cache, and memory beyond the returned Z is a few
    tiles, whatever the grid size.  Every start, free-CLT or init, is
    points-major (Fortran order), which _newton's column mask keeps as
    points retire, so a point's bytes do not depend on its tile-mates when
    the summands are all atomic or all semicircles.  The tiles run on up to
    _WORKERS threads, joined before the call returns (so a fork finds
    none); a tile's exception is raised here.  No step calls BLAS (_sum),
    so no thread count moves a byte.
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

    if init is not None:
        Z = np.array(init, dtype=complex, order="F")
        if Z.shape != (n, m) or not (np.isfinite(Z) & (Z.imag >= zs.imag)).all():
            raise DomainError(f"init must be finite, of shape ({n}, {m}), "
                              "with Im Z_i >= Im z")

    with np.errstate(all="ignore"):  # the module docstring's floating-point rule
        if init is None:
            expand, c, evaluate, kernels, (scale, mean, var, shift) = _setup(
                *by_identity(measures))
        else:
            c = kernels = None
            evaluate = _make_evaluator(measures)[0]
        F0 = np.empty(m, dtype=complex)
        res = np.empty(m)
        tol = np.empty(m)
        iterations = np.zeros(m, dtype=int)
        if m == 1 and kernels is not None:  # one point of a small system
            z = complex(zs[0])
            g = _semicircle_g_point(z - mean, 2.0 * math.sqrt(var))  # free-CLT start
            Z = [s * g + z - t for s, t in zip(scale[:, 0].tolist(),
                                               shift[:, 0].tolist())]
            Z, F0[0], res[0], tol[0], iterations[0] = _newton_point(
                kernels, None if c is None else c.tolist(), n, z, opts, Z)
            Z = np.array(Z).reshape(-1, 1)
        else:
            if init is None:  # free-CLT start
                Z = np.multiply(scale, _semicircle_g(zs - mean, var), order="F")
                Z += zs
                Z -= shift
            width = max(1, _TILE // len(Z))
            tiles = [slice(lo, lo + width) for lo in range(0, m, width)]

            def run(t):
                _newton(evaluate, c, n, zs[t], opts, Z[:, t], F0[t], res[t],
                        tol[t], iterations[t])

            workers = min(_WORKERS, len(tiles))
            if workers <= 1:  # one tile, or none for an empty grid
                list(map(run, tiles))
            else:
                from concurrent.futures import ThreadPoolExecutor
                with ThreadPoolExecutor(workers) as pool:
                    list(pool.map(run, tiles))
        if c is not None:  # collapsed; one coordinate: a view of its row, no copy
            Z = np.broadcast_to(Z, (n, m)) if len(Z) == 1 else Z[expand]
        Z.flags.writeable = False
        return GridSolution(Z, F0, 1.0 / F0, res, iterations, res <= tol)


def solve(measures, z, opts: SolveOptions = DEFAULT_OPTIONS) -> GridSolution:
    """Solve the system at a point or an array of points from the
    free-CLT start; the checked solve_grid (whose init gives another start).

    Raises IterationError naming the first unconverged point, its index and
    its last residual.  For a scalar z the result holds that point's
    entries: Z of shape (n,), the other fields Python scalars.
    """
    sol = solve_grid(measures, z, opts)
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

