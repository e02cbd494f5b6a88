"""Pointwise solver for the n-measure subordination system in the upper
half-plane.

For measures nu_1..nu_n and z with Im z > 0, the system is

    F_i(Z_i) = w  (i = 1..n),   Z_1 + ... + Z_n - z = (n-1) w,

where F_i is the reciprocal Cauchy transform of nu_i.  Its Jacobian in
(Z_1..Z_n, w) is diagonal plus rank one, so eliminating dZ_i leaves a
scalar Schur complement and one Newton step costs one pass over the atoms,
like one fixed-point sweep.  A point whose Newton iterate is not finite or
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

from .complexfn import cauchy
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


@dataclass(frozen=True)
class SubordinationSolution:
    z: complex
    Z: tuple[complex, ...]
    common_F: complex
    G: complex
    iterations: int
    residual: float
    converged: bool


class GridSolution(NamedTuple):
    """solve_grid's result: Z of shape (n, m), then one entry per point."""
    Z: np.ndarray
    F: np.ndarray
    G: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _make_evaluator(measures):
    """(F_i(Z_i), F_i'(Z_i)) on a (k, m) block of points in C+.

    Atomic coordinates are summed over stacked atom arrays, one atom at a
    time (F' = F^2 sum_j w_j/(Z - x_j)^2); semicircle coordinates go
    through cauchy (F' = F/(2F - Z), from F^2 - Z F + variance = 0).
    """
    atomic = [i for i, mu in enumerate(measures) if mu.kind == "atomic"]
    semi = [i for i, mu in enumerate(measures) if mu.kind != "atomic"]
    na = max((len(measures[i].atoms) for i in atomic), default=0)
    X = np.zeros((na, len(atomic), 1))
    W = np.zeros((na, len(atomic), 1))  # zero weight pads shorter lists
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
        for i in semi:
            Fi = 1.0 / cauchy(measures[i], Z[i])
            F[i] = Fi
            dF[i] = Fi / (2.0 * Fi - Z[i])
        return F, dF

    return evaluate


def _iterate(measures, counts, n, zs, opts: SolveOptions, Z):
    """Newton on a (k, m) coordinate block, one point per column.

    counts[k] is the multiplicity of measures[k] among the n system
    coordinates.  Converged grid points leave the working set, so late
    steps only touch the stragglers.  Block temporaries are updated in
    place: with hundreds of coordinates each (k, m) array is tens of MiB.
    """
    m = zs.shape[0]
    c = np.asarray(counts, dtype=float)
    evaluate = _make_evaluator(measures)
    F0 = np.empty(m, dtype=complex)
    res = np.empty(m)
    tol = np.empty(m)
    iterations = np.zeros(m, dtype=int)
    idx, Zw, zw = np.arange(m), Z, zs

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
            break
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

    return GridSolution(Z, F0, 1.0 / F0, res, iterations, res <= tol)


def solve_grid(measures, zs, opts: SolveOptions = DEFAULT_OPTIONS,
               init=None) -> GridSolution:
    """Solve the subordination system simultaneously at every point of zs.

    Returns the GridSolution (Z, F, G, residual, iterations, converged)
    with Z of shape (n, m); points take Newton steps independently.
    ``init`` (shape (n, m), Im Z_i >= Im z) replaces the start Z_i = z.
    Duplicate measures share a coordinate internally: the fixed point is
    symmetric in identical coordinates and the symmetric init preserves
    that, so the collapsed system has the same solution.
    """
    measures = list(measures)
    n = len(measures)
    if n == 0:
        raise DomainError("need at least one measure")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if np.any(zs.imag <= 0):
        raise DomainError("all evaluation points must satisfy Im z > 0")

    if init is None and n > 1:
        unique, counts, expand = [], [], []
        for mu in measures:
            try:
                k = unique.index(mu)
            except ValueError:
                k = len(unique)
                unique.append(mu)
                counts.append(0)
            counts[k] += 1
            expand.append(k)
        if len(unique) < n:
            Z0 = np.tile(zs, (len(unique), 1))
            sol = _iterate(unique, counts, n, zs, opts, Z0)
            return sol._replace(Z=sol.Z[expand])

    Z0 = np.tile(zs, (n, 1)) if init is None else np.array(init, dtype=complex)
    if not np.all(Z0.imag >= zs.imag):  # NaN fails too
        raise DomainError("init must satisfy Im Z_i >= Im z")
    return _iterate(measures, [1] * n, n, zs, opts, Z0)


def _raise_unconverged(zs, sol: GridSolution) -> None:
    """Raise IterationError naming the first point of a solve_grid result
    that did not converge; return if every point did."""
    if np.all(sol.converged):
        return
    bad = int(np.argmax(~sol.converged))
    res, iters = float(sol.residual[bad]), int(sol.iterations[bad])
    raise IterationError(
        f"subordination failed to converge at z={complex(zs[bad])} (index {bad}): "
        f"residual {res:.3e} after {iters} iterations",
        residual=res, iterations=iters)


def solve(measures, z, opts: SolveOptions = DEFAULT_OPTIONS,
          init=None) -> SubordinationSolution:
    """Solve the subordination system at a single point z in C+.

    ``init`` may carry the Z vector of a neighbouring solution (warm start);
    results agree with cold starts to within the solver tolerance.
    Raises IterationError on non-convergence, carrying the last residual.
    """
    z = complex(z)
    init_arr = None
    if init is not None:
        init_arr = np.asarray(init, dtype=complex).reshape(len(list(measures)), 1)
    sol = solve_grid(measures, [z], opts, init=init_arr)
    _raise_unconverged([z], sol)
    return SubordinationSolution(
        z=z,
        Z=tuple(complex(v) for v in sol.Z[:, 0]),
        common_F=complex(sol.F[0]),
        G=complex(sol.G[0]),
        iterations=int(sol.iterations[0]),
        residual=float(sol.residual[0]),
        converged=True,
    )


def g_free(measures, z, opts: SolveOptions = DEFAULT_OPTIONS) -> complex:
    """Cauchy transform of nu_1 ++ ... ++ nu_n at z (via the common F value)."""
    return solve(measures, z, opts).G


def g_free_grid(measures, zs, opts: SolveOptions = DEFAULT_OPTIONS):
    """Vectorized g_free over an array of points; raises if any point fails."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    sol = solve_grid(measures, zs, opts)
    _raise_unconverged(zs, sol)
    return sol.G


def weighted_summands(mu: Measure, theta) -> list[Measure]:
    """The summands D_{theta_i} mu of the weighted free sum sum_i theta_i X_i."""
    return [mu.scale(float(t)) for t in as_weights(theta)]


def weighted_sum_g(mu: Measure, theta, z, opts: SolveOptions = DEFAULT_OPTIONS) -> complex:
    """Cauchy transform of the weighted free sum sum_i theta_i X_i at z."""
    return g_free(weighted_summands(mu, theta), z, opts)
