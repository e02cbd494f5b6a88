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
level exceeds any fixed absolute tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    atomic = [i for i, mu in enumerate(measures) if mu.kind == "atomic"]
    semi = [i for i, mu in enumerate(measures) if mu.kind != "atomic"]
    V = np.array([[measures[i].variance_param] for i in semi])  # (s, 1)
    na = max((len(measures[i].atoms) for i in atomic), default=0)
    # complex, as numpy would cast them at every use
    X = np.zeros((na, len(atomic), 1), dtype=complex)
    W = np.zeros((na, len(atomic), 1), dtype=complex)  # zero weight pads
    for a, i in enumerate(atomic):
        for j, (x, w) in enumerate(measures[i].atoms):
            X[j, a, 0], W[j, a, 0] = x, w

    def atomic_part(Za):
        F = np.zeros_like(Za)
        dF = np.zeros_like(Za)
        for x, w in zip(X, W):
            q = np.reciprocal(Za - x)
            F += w * q
            q *= q
            dF += w * q
        np.reciprocal(F, out=F)
        dF *= F
        dF *= F
        return F, dF

    def evaluate(Z):
        if not semi:
            return atomic_part(Z)
        F = np.empty_like(Z)
        dF = np.empty_like(Z)
        if atomic:
            F[atomic], dF[atomic] = atomic_part(Z[atomic])
        Zs = Z[semi]
        Fs = 1.0 / _semicircle_g(Zs, V)
        F[semi] = Fs
        dF[semi] = Fs / (2.0 * Fs - Zs)
        return F, dF

    return evaluate


def _newton(evaluate, c, zs, opts: SolveOptions, Z, F0, res, tol, iterations):
    """Newton steps on one tile until every point converges or max_iters;
    writes Z and the per-point outputs in place.  Converged points leave
    the working set, so late steps only touch the stragglers."""
    n = int(np.sum(c))
    idx, Zw, zw = np.arange(zs.shape[0]), Z, zs

    for step in range(opts.max_iters + 1):
        F, dF = evaluate(Zw)
        w = c @ F / n
        s = c @ Zw
        sz = s - zw
        r = sz - (n - 1) * w
        rw = np.maximum(np.max(np.abs(F - F[0]), axis=0),
                        np.abs(sz - (n - 1) * F[0]))
        tw = np.maximum(opts.tol, _ROUNDING * (np.abs(zw) + np.abs(s)
                                                + (n - 1) * np.abs(w)))
        F0[idx], res[idx], tol[idx] = F[0], rw, tw
        live = rw > tw
        if step == opts.max_iters or not np.any(live):
            Z[:, idx] = Zw
            return
        if not np.all(live):
            Z[:, idx[~live]] = Zw[:, ~live]
            idx, zw, Zw = idx[live], zw[live], Zw[:, live]
            F, dF, w, r = F[:, live], dF[:, live], w[live], r[live]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = np.reciprocal(dF, out=dF)  # 1/F_i'
            e = F - w
            e *= inv  # e_i/F_i'
            dw = (c @ e - r) / (c @ inv - (n - 1))  # Schur complement
            Zn = dw * inv  # Z_i + (dw - e_i)/F_i'
            Zn -= e
            Zn += Zw
        bad = ~np.all(np.isfinite(Zn) & (Zn.imag >= zw.imag), axis=0)
        if np.any(bad):
            delta = F[:, bad] - Zw[:, bad]  # Im(F_j(v) - v) >= 0
            sweep = zw[bad] + c @ delta - delta
            # rounding guard: the sweep keeps Im Z_i >= Im z exactly in theory
            sweep.imag = np.maximum(sweep.imag, zw[bad].imag)
            Zn[:, bad] = sweep
        del F, dF, inv, e  # free the block before the next evaluation
        Zw = Zn
        iterations[idx] += 1


def _clt_start(measures, counts, zs):
    """The free-CLT start of the module docstring as a (k, m) block, m and
    v summed over the multiplicities counts.  _semicircle_g has Im G <= 0
    exactly, so Im Z_i >= Im z holds with no clamp; v = 0 (point masses
    only) needs no branch, as its G term is multiplied by v - v_i = 0."""
    mi = np.array([mu.mean for mu in measures])
    # moment(2) - mean^2 can round below 0 for atoms far from the origin
    vi = np.array([max(mu.var, 0.0) for mu in measures])
    mean, var = np.dot(counts, mi), np.dot(counts, vi)
    Z0 = np.multiply((vi - var)[:, None], _semicircle_g(zs - mean, var))
    Z0 += zs
    Z0 -= (mean - mi)[:, None]
    return Z0


def solve_grid(measures, zs, opts: SolveOptions = DEFAULT_OPTIONS,
               init=None) -> GridSolution:
    """Solve the subordination system simultaneously at every point of zs.

    Returns the GridSolution (Z, F, G, residual, iterations, converged)
    with Z of shape (n, m).  Every z must be finite with Im z > 0.
    ``init`` replaces the free-CLT start: shape (n, m), or (n,) for one
    point, finite, with Im Z_i >= Im z.  Without it, duplicate measures
    share a coordinate: the fixed point is symmetric in identical
    coordinates and identical measures get identical starts, so the
    collapsed system has the same solution.

    Points are independent, so the columns are solved in tiles of about
    2^15 coordinate-points (512 KiB per complex block), one after another:
    the Newton temporaries stay in cache, and memory beyond the returned Z
    is a few tiles, whatever the grid size.
    """
    measures = list(measures)
    n = len(measures)
    if n == 0:
        raise DomainError("need at least one measure")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if not np.all(np.isfinite(zs) & (zs.imag > 0)):
        raise DomainError("all evaluation points must be finite with Im z > 0")
    m = zs.shape[0]

    if init is None:
        index = {}  # first-occurrence order; Measure is frozen, so hashable
        expand = [index.setdefault(mu, len(index)) for mu in measures]
        coords, counts = list(index), np.bincount(expand)
        Z = _clt_start(coords, counts, zs)
    else:
        coords, counts = measures, np.ones(n)
        Z = np.array(init, dtype=complex)
        if Z.shape == (n,) and m == 1:
            Z = Z.reshape(n, 1)
        if Z.shape != (n, m) or not np.all(np.isfinite(Z)
                                           & (Z.imag >= zs.imag)):
            raise DomainError(f"init must be finite, of shape ({n}, {m}), "
                              "with Im Z_i >= Im z")

    evaluate = _make_evaluator(coords)
    c = np.asarray(counts, dtype=float)
    F0 = np.empty(m, dtype=complex)
    res = np.empty(m)
    tol = np.empty(m)
    iterations = np.zeros(m, dtype=int)
    width = max(1, _TILE // len(coords))
    for lo in range(0, m, width):
        t = slice(lo, lo + width)
        _newton(evaluate, c, zs[t], opts, Z[:, t], F0[t], res[t], tol[t],
                iterations[t])
    if len(coords) < n:
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
    if not np.all(sol.converged):
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

