"""Moment/free-cumulant conversion, truncated K-transform series, and the
superconvergence series phi_theta.

M(z) = 1 + sum m_n z^n and C(w) = 1 + sum kappa_s w^s satisfy M(z) =
C(z M(z)), and Lagrange inversion (Nica-Speicher, Lecture 16) gives

    m_n = [w^n] C^{n+1} / (n+1),   kappa_n = -[z^n] B^{n-1} / (n-1),  B = 1/M,

and kappa_1 = m_1.  _powers builds the powers in about 2 log2(N) small
matmuls, after an N-step series division for B; a pivoted solve or a
product-form triangular inverse would lose digits.  The exact oracles are
in the tests.  phi_theta's powers of the weights are running products, as
vector_stats' are, so its m = 3 and 4 sums are the same bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, OutOfDiscError, check_integer
from .measures import Measure
from .sphere import as_weights

DEFAULT_ORDER = 32


def _powers(c: np.ndarray, count: int) -> np.ndarray:
    """P[s, t] = [x^t] c(x)^s for s < count and t < c.size: the columns
    T^s e_0, T the lower-triangular Toeplitz matrix of c, by doubling
    K <- [K, T K] and T <- T T."""
    lag = np.subtract.outer(np.arange(c.size), np.arange(c.size))
    T = np.where(lag >= 0, c[lag], 0.0)
    K = np.eye(c.size, 1)
    while True:
        K = np.hstack([K, T @ K])
        if K.shape[1] >= count:
            return K[:, :count].T
        T = T @ T


def _series(seq, noun: str) -> np.ndarray:
    """seq as a 1-D array of at least one finite float, or DomainError."""
    a = np.asarray(seq, dtype=float)
    if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a)):
        raise DomainError(f"need a 1-D sequence of at least one {noun}, all finite; got {seq!r}")
    return a


def moments_to_cumulants(moments) -> tuple[float, ...]:
    """kappa_1 = m_1 and kappa_n = -[z^n] B(z)^{n-1} / (n-1), B = 1/M."""
    m = _series(moments, "moment")
    b = np.eye(1, m.size + 1)[0]
    for n in range(1, b.size):  # B = 1/M: sum_{i=0}^{n} m_i b_{n-i} = 0
        b[n] = -(m[:n] @ b[n - 1::-1])
    n = np.arange(2, b.size)
    kappa = -_powers(b, m.size)[n - 1, n] / (n - 1)
    return (float(m[0]), *kappa.tolist())


def cumulants_to_moments(seq) -> list[float]:
    """m_n = [w^n] C(w)^{n+1} / (n+1), C = 1 + sum_s kappa_s w^s."""
    kappa = _series(seq, "cumulant")
    n = np.arange(1, kappa.size + 1)
    return (_powers(np.concatenate([[1.0], kappa]), kappa.size + 2)[n + 1, n]
            / (n + 1)).tolist()


def measure_cumulants(mu: Measure, order: int) -> tuple[float, ...]:
    """Free cumulants kappa_1..kappa_N of a measure, from its exact moments.

    An order that is not an integer >= 1 raises DomainError, here and so in
    kargin_bound_check and phi_theta, which take their cumulants from here.
    """
    check_integer("order", order, 1)
    return moments_to_cumulants([mu.moment(k) for k in range(1, order + 1)])


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
