"""Pointwise solver for the n-measure subordination system in the upper
half-plane.

For measures nu_1..nu_n and z with Im z > 0, the system is

    Z_1 + ... + Z_n - z = (n-1) F_1(Z_1),   F_1(Z_1) = ... = F_n(Z_n),

where F_i is the reciprocal Cauchy transform of nu_i.  Rearranged per
coordinate, Z_i = z + sum_{j != i} (F_j(Z_j) - Z_j), which drives a damped
simultaneous fixed-point iteration: since Im(F_j(w) - w) >= 0, iterates stay
in the upper half-plane with Im Z_i >= Im z.  Damping is halved whenever the
system residual increases between sweeps (floor 1/16) and reset to 1 after
50 consecutive shrinking sweeps.  Convergence is declared on the system
residual, not on the step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexfn import cauchy
from .errors import DomainError, IterationError
from .measures import Measure
from .sphere import as_weights

_ALPHA_FLOOR = 1.0 / 16.0
_RESET_AFTER = 50
_SNAP = 25


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-12
    max_iters: int = 10000
    damping: float = 1.0

    def __post_init__(self):
        if not (self.tol > 0 and self.max_iters > 0 and 0 < self.damping <= 1):
            raise DomainError("invalid solver options")


DEFAULT_OPTIONS = SolveOptions()


@dataclass(frozen=True)
class SubordinationSolution:
    z: complex
    Z: tuple[complex, ...]
    common_F: complex
    G: complex
    iterations: int
    residual: float
    converged: bool


def _f_values(measures, Z):
    """F_i(Z_i) for each measure; Z has shape (n,) or (n, m)."""
    return np.stack([1.0 / cauchy(mu, np.atleast_1d(Z[i]))
                     for i, mu in enumerate(measures)])


def _make_f_eval(measures):
    """Per-sweep F evaluator; purely atomic lists get a stacked fast path.

    Iterates stay in the upper half-plane (each update is a convex mix of
    points with Im >= Im z), so the fast path skips domain checks.
    """
    if not all(mu.kind == "atomic" for mu in measures):
        return lambda Z: _f_values(measures, Z)
    na = max(len(mu.atoms) for mu in measures)
    k = len(measures)
    X = np.zeros((k, na, 1))
    W = np.zeros((k, na, 1))
    for i, mu in enumerate(measures):
        for j, (x, w) in enumerate(mu.atoms):
            X[i, j, 0] = x
            W[i, j, 0] = w

    def f_eval(Z):
        G = np.sum(W / (Z[:, None, :] - X), axis=1)
        return 1.0 / G

    return f_eval


def _iterate(measures, counts, n, zs, opts: SolveOptions, Z):
    """Damped fixed-point loop over a (k, m) coordinate block.

    counts[k] is the multiplicity of measures[k] among the n system
    coordinates.  Converged grid points are moved out of the working set so
    late sweeps only touch the stragglers.
    """
    m = zs.shape[0]
    c = np.asarray(counts, dtype=float)[:, None]
    f_eval = _make_f_eval(measures)

    def residual(F, Z, zc):
        spread = np.max(np.abs(F - F[0]), axis=0)
        identity = np.abs(np.sum(c * Z, axis=0) - zc - (n - 1) * F[0])
        return np.maximum(spread, identity)

    F = f_eval(Z)
    res = residual(F, Z, zs)
    iterations = np.zeros(m, dtype=int)
    idx = np.flatnonzero(res > opts.tol)
    Zw, Fw, rw, zw = Z[:, idx], F[:, idx], res[idx], zs[idx]
    alpha = np.full(idx.size, opts.damping)
    streak = np.zeros(idx.size, dtype=int)

    # geometric extrapolation state: near the real axis the contraction
    # factor approaches 1 and plain sweeps crawl; every _SNAP sweeps the
    # dominant error mode is estimated from two successive displacement
    # snapshots and removed, accepted only where the residual improves
    z_last = Zw.copy()
    dz_prev = None
    sweep = 0

    for _ in range(opts.max_iters):
        if idx.size == 0:
            break
        delta = Fw - Zw  # Im(F_j(w) - w) >= 0
        target = zw + np.sum(c * delta, axis=0) - delta  # z + sum_{j != i}(F_j - Z_j)
        Zw = (1.0 - alpha) * Zw + alpha * target
        Fw = f_eval(Zw)
        rn = residual(Fw, Zw, zw)

        worse = rn > rw
        alpha = np.where(worse, np.maximum(alpha * 0.5, _ALPHA_FLOOR), alpha)
        streak = np.where(worse, 0, streak + 1)
        reset = streak >= _RESET_AFTER
        alpha = np.where(reset, opts.damping, alpha)
        streak = np.where(reset, 0, streak)
        rw = rn
        iterations[idx] += 1
        sweep += 1

        if sweep % _SNAP == 0:
            dz = Zw - z_last
            if dz_prev is not None:
                num = np.sum(dz * np.conj(dz_prev), axis=0)
                den = np.sum(np.abs(dz_prev) ** 2, axis=0)
                q = num / np.where(den > 0, den, 1.0)
                ok = (np.abs(q) > 0.2) & (np.abs(q) < 0.995) & (den > 0)
                if np.any(ok):
                    gain = np.where(ok, q / (1.0 - q), 0.0)
                    Zt = Zw + dz * gain
                    valid = ok & np.all(Zt.imag >= zw.imag, axis=0)
                    if np.any(valid):
                        Ft = f_eval(Zt)
                        rt = residual(Ft, Zt, zw)
                        better = valid & (rt < rw)
                        Zw = np.where(better, Zt, Zw)
                        Fw = np.where(better, Ft, Fw)
                        rw = np.where(better, rt, rw)
                dz_prev = None
                z_last = Zw.copy()
            else:
                dz_prev = dz
                z_last = Zw.copy()

        done = rw <= opts.tol
        if np.any(done):
            hit = idx[done]
            Z[:, hit], F[:, hit], res[hit] = Zw[:, done], Fw[:, done], rw[done]
            keep = ~done
            idx, zw, alpha, streak = idx[keep], zw[keep], alpha[keep], streak[keep]
            Zw, Fw, rw = Zw[:, keep], Fw[:, keep], rw[keep]
            z_last = z_last[:, keep]
            if dz_prev is not None:
                dz_prev = dz_prev[:, keep]

    Z[:, idx], F[:, idx], res[idx] = Zw, Fw, rw
    converged = res <= opts.tol
    return Z, F[0], 1.0 / F[0], res, iterations, converged


def solve_grid(measures, zs, opts: SolveOptions = DEFAULT_OPTIONS, init=None):
    """Solve the subordination system simultaneously at every point of zs.

    Returns (Z, F, G, residual, iterations, converged) with Z of shape
    (n, m); points iterate independently with per-point adaptive damping.
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
            Zu, F0, G, res, iters, conv = _iterate(unique, counts, n, zs,
                                                   opts, Z0)
            return Zu[expand], F0, G, res, iters, conv

    Z0 = np.tile(zs, (n, 1)) if init is None else np.array(init, dtype=complex)
    return _iterate(measures, [1] * n, n, zs, opts, Z0)


def _raise_unconverged(zs, res, iters, conv) -> None:
    """Raise IterationError naming the first point of a solve_grid result
    that did not converge; return if every point did."""
    if np.all(conv):
        return
    bad = int(np.argmax(~conv))
    raise IterationError(
        f"subordination failed to converge at z={complex(zs[bad])} (index {bad}): "
        f"residual {res[bad]:.3e} after {int(iters[bad])} iterations",
        residual=float(res[bad]), iterations=int(iters[bad]))


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
    Z, F0, G, res, iters, conv = solve_grid(measures, [z], opts, init=init_arr)
    _raise_unconverged([z], res, iters, conv)
    return SubordinationSolution(
        z=z,
        Z=tuple(complex(v) for v in Z[:, 0]),
        common_F=complex(F0[0]),
        G=complex(G[0]),
        iterations=int(iters[0]),
        residual=float(res[0]),
        converged=True,
    )


def g_free(measures, z, opts: SolveOptions = DEFAULT_OPTIONS) -> complex:
    """Cauchy transform of nu_1 ++ ... ++ nu_n at z (via the common F value)."""
    return solve(measures, z, opts).G


def g_free_grid(measures, zs, opts: SolveOptions = DEFAULT_OPTIONS):
    """Vectorized g_free over an array of points; raises if any point fails."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    _, _, G, res, iters, conv = solve_grid(measures, zs, opts)
    _raise_unconverged(zs, res, iters, conv)
    return G


def weighted_summands(mu: Measure, theta) -> list[Measure]:
    """The summands D_{theta_i} mu of the weighted free sum sum_i theta_i X_i."""
    return [mu.scale(float(t)) for t in as_weights(theta)]


def weighted_sum_g(mu: Measure, theta, z, opts: SolveOptions = DEFAULT_OPTIONS) -> complex:
    """Cauchy transform of the weighted free sum sum_i theta_i X_i at z."""
    return g_free(weighted_summands(mu, theta), z, opts)
