"""Moment/free-cumulant conversion, truncated K-transform series, and the
superconvergence series phi_theta.

The conversion uses the free moment-cumulant recursion

    m_n = sum_{s=1}^{n} kappa_s * sum_{i_1+...+i_s = n-s, i_j >= 0} m_{i_1}...m_{i_s}

with m_0 = 1, evaluated as a dynamic program over convolution powers of the
moment sequence.  An exponential enumeration over non-crossing partitions is
kept as a test oracle only (see tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfDiscError
from .measures import Measure

DEFAULT_ORDER = 32


def _conv_power_table(m: list[float], max_s: int, max_t: int) -> list[list[float]]:
    """C[s][t] = sum over compositions of t into s nonnegative parts of
    products m_{i_1}...m_{i_s}, with m_0 = 1."""
    seq = [1.0] + list(m)
    seq += [0.0] * max(0, max_t + 1 - len(seq))
    table = [[0.0] * (max_t + 1) for _ in range(max_s + 1)]
    table[0][0] = 1.0
    for s in range(1, max_s + 1):
        prev = table[s - 1]
        cur = table[s]
        for t in range(max_t + 1):
            cur[t] = sum(prev[t - i] * seq[i] for i in range(t + 1))
    return table


@dataclass(frozen=True)
class CumulantSequence:
    """Free cumulants kappa_1..kappa_N together with the source support radius."""

    kappa: tuple[float, ...]
    source_support_radius: float = 0.0

    @property
    def order(self) -> int:
        return len(self.kappa)


def moments_to_cumulants(moments, support_radius: float = 0.0) -> CumulantSequence:
    """Invert the free moment-cumulant recursion; exact at working precision."""
    m = [float(x) for x in moments]
    n_max = len(m)
    if n_max < 1:
        raise DomainError("need at least one moment")
    table = _conv_power_table(m, n_max, n_max)
    kappa: list[float] = []
    for n in range(1, n_max + 1):
        acc = m[n - 1]
        for s in range(1, n):
            acc -= kappa[s - 1] * table[s][n - s]
        kappa.append(acc)  # the s = n term is kappa_n * m_0^n = kappa_n
    return CumulantSequence(kappa=tuple(kappa),
                            source_support_radius=float(support_radius))


def cumulants_to_moments(seq: CumulantSequence | tuple | list) -> list[float]:
    """Forward free moment-cumulant recursion (exact inverse of the above)."""
    kappa = list(seq.kappa) if isinstance(seq, CumulantSequence) else [float(x) for x in seq]
    n_max = len(kappa)
    m: list[float] = []
    for n in range(1, n_max + 1):
        table = _conv_power_table(m, n, n)
        acc = 0.0
        for s in range(1, n + 1):
            acc += kappa[s - 1] * table[s][n - s]
        m.append(acc)
    return m


def measure_cumulants(mu: Measure, order: int) -> CumulantSequence:
    """Free cumulants of a measure, from its exact moments."""
    moments = [mu.moment(k) for k in range(1, order + 1)]
    return moments_to_cumulants(moments, support_radius=mu.support_radius)


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

    Valid inside 0 < |z| < 1/(6L); evaluation outside raises OutOfDiscError.
    """
    z = complex(z)
    L = mu.support_radius
    if abs(z) == 0.0 or (L > 0.0 and abs(z) >= 1.0 / (6.0 * L)):
        raise OutOfDiscError(
            f"k_transform_series requires 0 < |z| < 1/(6L) = {1.0/(6.0*L) if L else math.inf}")
    seq = measure_cumulants(mu, order)
    acc = 1.0 / z
    zp = 1.0 + 0j
    for m in range(1, order + 1):
        acc += seq.kappa[m - 1] * zp
        zp *= z
    return acc


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
