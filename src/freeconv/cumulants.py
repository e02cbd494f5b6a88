"""Moment/free-cumulant conversion, truncated K-transform series, and the
superconvergence series phi_theta.

The conversion uses the free moment-cumulant recursion

    m_n = sum_{s=1}^{n} kappa_s * sum_{i_1+...+i_s = n-s, i_j >= 0} m_{i_1}...m_{i_s}

with m_0 = 1.  The inner sum is the coefficient of t^{n-s} in M(t)^s,
M(t) = sum_i m_i t^i; both directions grow the table of those coefficients
one degree at a time, so each needs O(N^3) flops in N vectorized steps.  An
exponential enumeration over non-crossing partitions is kept as a test
oracle only (see tests).  phi_theta's powers of the weights are running
products, as vector_stats' are, so its m = 3 and 4 sums are the same bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, OutOfDiscError, is_integer
from .measures import Measure
from .sphere import as_weights

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


def moments_to_cumulants(moments) -> tuple[float, ...]:
    """Invert the free moment-cumulant recursion; exact at working precision."""
    m = np.concatenate([[1.0], np.asarray(moments, dtype=float)])
    if m.size < 2:
        raise DomainError("need at least one moment")
    kappa = np.zeros_like(m)
    _free_relation(m, kappa, moments_known=True)
    return tuple(kappa[1:].tolist())


def cumulants_to_moments(seq) -> list[float]:
    """Forward free moment-cumulant recursion (exact inverse of the above)."""
    kappa = np.concatenate([[0.0], np.asarray(seq, dtype=float)])
    m = np.zeros_like(kappa)
    m[0] = 1.0
    _free_relation(m, kappa, moments_known=False)
    return m[1:].tolist()


def measure_cumulants(mu: Measure, order: int) -> tuple[float, ...]:
    """Free cumulants kappa_1..kappa_N of a measure, from its exact moments.

    An order that is not an integer >= 1 raises DomainError, here and so in
    kargin_bound_check and phi_theta, which take their cumulants from here.
    """
    if not (is_integer(order) and order >= 1):
        raise DomainError(f"order must be an integer >= 1, got order={order!r}")
    moments = [mu.moment(k) for k in range(1, order + 1)]
    return moments_to_cumulants(moments)


def kargin_bound_check(mu: Measure, order: int) -> list[dict]:
    """Check |kappa_m| <= (2L/(m-1)) (4L)^{m-1} for m = 2..order.

    Returns one record per m with the computed cumulant, the bound and a
    pass flag; all records pass for valid compactly supported measures.
    """
    kappa = measure_cumulants(mu, order)
    L = mu.support_radius
    report = []
    for m in range(2, order + 1):
        bound = (2.0 * L / (m - 1)) * (4.0 * L) ** (m - 1)
        value = kappa[m - 1]
        report.append({"m": m, "kappa": value, "bound": bound,
                       "pass": abs(value) <= bound * (1.0 + 1e-12) + 1e-12})
    return report


def phi_theta(mu: Measure, theta, z, order: int = DEFAULT_ORDER) -> complex:
    """Truncated series of sum_i K_{D_{theta_i} mu}(z) - (n-1)/z.

    Uses kappa_m(D_c mu) = c^m kappa_m(mu), so the value equals
    1/z + sum_{m=1}^{N} kappa_m(mu) (sum_i theta_i^m) z^{m-1}.
    Valid inside 0 < |z| < 1/(6 L max_i |theta_i|).  theta^m is the running
    product theta^(m-1) * theta, one np.cumprod row summed on its own.
    """
    z = complex(z)
    th = as_weights(theta)
    L = mu.support_radius
    tmax = float(np.max(np.abs(th)))
    if abs(z) == 0.0 or (L > 0.0 and tmax > 0.0 and abs(z) >= 1.0 / (6.0 * L * tmax)):
        raise OutOfDiscError("phi_theta requires 0 < |z| < 1/(6 L max|theta_i|)")
    kappa = measure_cumulants(mu, order)
    sums = np.cumprod(np.broadcast_to(th, (order, th.size)), axis=0).sum(axis=1)
    acc = 1.0 / z
    zp = 1.0 + 0j
    for k, s in zip(kappa, sums.tolist()):
        acc += k * s * zp
        zp *= z
    return acc
