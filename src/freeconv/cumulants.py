"""Moment/free-cumulant conversion, truncated K-transform series, and the
superconvergence series phi_theta.

The conversion uses the free moment-cumulant recursion

    m_n = sum_{s=1}^{n} kappa_s * sum_{i_1+...+i_s = n-s, i_j >= 0} m_{i_1}...m_{i_s}

with m_0 = 1.  The inner sum is the coefficient of t^{n-s} in M(t)^s,
M(t) = sum_i m_i t^i; both directions grow the table of those coefficients
one degree at a time, so each needs O(N^3) flops in N vectorized steps.  An
exponential enumeration over non-crossing partitions is kept as a test
oracle only (see tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfDiscError
from .measures import Measure

DEFAULT_ORDER = 32


def _free_relation(m: np.ndarray, kappa: np.ndarray, moments_known: bool) -> None:
    """Complete m_n = sum_{s=1}^{n} kappa_s [t^{n-s}] M(t)^s in place.

    m and kappa have length N + 1 with m[0] = 1; the side named by
    ``moments_known`` holds m_1..m_N (or kappa_1..kappa_N) and the other is
    filled.  P[s, t] = [t^t] M(t)^s; its column t depends on m_1..m_t only,
    and P[s, t] = P[s-1, t] + sum_{i=1}^{t} P[s-1, t-i] m_i, a cumulative
    sum over s.
    """
    N = m.size - 1
    P = np.zeros((N + 1, N + 1))
    P[:, 0] = 1.0  # m_0^s
    for n in range(1, N + 1):
        s = np.arange(1, n)
        lower = float(kappa[1:n] @ P[s, n - s])  # the s = n term is kappa_n
        if moments_known:
            kappa[n] = m[n] - lower
        else:
            m[n] = lower + kappa[n]
        P[1:, n] = np.cumsum(P[:-1, n - 1::-1] @ m[1:n + 1])


@dataclass(frozen=True)
class CumulantSequence:
    """Free cumulants kappa_1..kappa_N."""

    kappa: tuple[float, ...]


def moments_to_cumulants(moments) -> CumulantSequence:
    """Invert the free moment-cumulant recursion; exact at working precision."""
    m = np.concatenate([[1.0], np.asarray(moments, dtype=float)])
    if m.size < 2:
        raise DomainError("need at least one moment")
    kappa = np.zeros_like(m)
    _free_relation(m, kappa, moments_known=True)
    return CumulantSequence(kappa=tuple(kappa[1:].tolist()))


def cumulants_to_moments(seq: CumulantSequence | tuple | list) -> list[float]:
    """Forward free moment-cumulant recursion (exact inverse of the above)."""
    kappa = np.concatenate([[0.0], np.asarray(
        seq.kappa if isinstance(seq, CumulantSequence) else seq, dtype=float)])
    m = np.zeros_like(kappa)
    m[0] = 1.0
    _free_relation(m, kappa, moments_known=False)
    return m[1:].tolist()


def measure_cumulants(mu: Measure, order: int) -> CumulantSequence:
    """Free cumulants of a measure, from its exact moments."""
    moments = [mu.moment(k) for k in range(1, order + 1)]
    return moments_to_cumulants(moments)


def kargin_bound_check(mu: Measure, order: int) -> list[dict]:
    """Check |kappa_m| <= (2L/(m-1)) (4L)^{m-1} for m = 2..order.

    Returns one record per m with the computed cumulant, the bound and a
    pass flag; all records pass for valid compactly supported measures.
    """
    seq = measure_cumulants(mu, order)
    L = mu.support_radius
    report = []
    for m in range(2, order + 1):
        bound = (2.0 * L / (m - 1)) * (4.0 * L) ** (m - 1)
        value = seq.kappa[m - 1]
        report.append({"m": m, "kappa": value, "bound": bound,
                       "pass": abs(value) <= bound * (1.0 + 1e-12) + 1e-12})
    return report


def k_transform_series(mu: Measure, z, order: int = DEFAULT_ORDER) -> complex:
    """Truncated Laurent series 1/z + sum_{m=1}^{N} kappa_m z^{m-1}.

    This is phi_theta with theta = (1).  Valid inside 0 < |z| < 1/(6L);
    evaluation outside raises OutOfDiscError.
    """
    return phi_theta(mu, [1.0], z, order)


def phi_theta(mu: Measure, theta, z, order: int = DEFAULT_ORDER) -> complex:
    """Truncated series of sum_i K_{D_{theta_i} mu}(z) - (n-1)/z.

    Uses kappa_m(D_c mu) = c^m kappa_m(mu), so the value equals
    1/z + sum_{m=1}^{N} kappa_m(mu) (sum_i theta_i^m) z^{m-1}.
    Valid inside 0 < |z| < 1/(6 L max_i |theta_i|).
    """
    z = complex(z)
    th = np.asarray(theta, dtype=float)
    L = mu.support_radius
    tmax = float(np.max(np.abs(th)))
    if abs(z) == 0.0 or (L > 0.0 and tmax > 0.0 and abs(z) >= 1.0 / (6.0 * L * tmax)):
        raise OutOfDiscError("phi_theta requires 0 < |z| < 1/(6 L max|theta_i|)")
    seq = measure_cumulants(mu, order)
    acc = 1.0 / z
    zp = 1.0 + 0j
    for m in range(1, order + 1):
        acc += seq.kappa[m - 1] * float(np.sum(th**m)) * zp
        zp *= z
    return acc
