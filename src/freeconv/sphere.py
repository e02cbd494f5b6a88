"""Uniform sampling on the unit sphere and Monte Carlo checks of the
sphere concentration inequalities.

Sampling is deterministic and order-independent: sample index k under seed s
draws from its own counter-based Philox stream keyed by (s, k), and
Gaussians are produced by Marsaglia polar rejection from that stream, so the
k-th sample is identical no matter which other samples are generated or in
what order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _stats

from .errors import DomainError


@dataclass(frozen=True)
class WeightVector:
    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", t)
        if not abs(float(np.sum(t * t)) - 1.0) <= 1e-12:  # NaN fails too
            raise DomainError("weight vector must lie on the unit sphere")

    @property
    def n(self) -> int:
        return self.theta.size

    @staticmethod
    def uniform(n: int) -> "WeightVector":
        if n < 1:
            raise DomainError("n must be >= 1")
        return WeightVector(np.full(n, 1.0 / math.sqrt(n)))


def as_weights(theta) -> np.ndarray:
    """The weights of a WeightVector or of any sequence, as a float array."""
    return np.asarray(theta.theta if isinstance(theta, WeightVector) else theta,
                      dtype=float)


def _polar_gaussians(rng: np.random.Generator, count: int) -> np.ndarray:
    """Marsaglia polar method; rejection keeps the stream layout explicit."""
    out = np.empty(0)
    while out.size < count:
        need = count - out.size
        m = max(need, 8)
        u = rng.uniform(-1.0, 1.0, size=m)
        v = rng.uniform(-1.0, 1.0, size=m)
        s = u * u + v * v
        keep = (s > 0.0) & (s < 1.0)
        u, v, s = u[keep], v[keep], s[keep]
        f = np.sqrt(-2.0 * np.log(s) / s)
        out = np.concatenate([out, u * f, v * f])
    return out[:count]


def sample(n: int, seed: int, index: int = 0) -> WeightVector:
    """One uniform point on S^{n-1}; deterministic given (n, seed, index)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=[int(seed), int(index)]))
    g = _polar_gaussians(rng, n)
    norm = float(np.linalg.norm(g))
    while norm == 0.0:  # probability ~0; retry on the same stream
        g = _polar_gaussians(rng, n)
        norm = float(np.linalg.norm(g))
    return WeightVector(g / norm)


def sample_matrix(n: int, count: int, seed: int) -> np.ndarray:
    """count-by-n matrix of independent uniform sphere points."""
    return np.stack([sample(n, seed, index=k).theta for k in range(count)])


def vector_stats(theta) -> dict:
    """max|theta_i|, sum_i |theta_i|^k for k in 3..9, and sum of cubes."""
    t = as_weights(theta)
    a = np.abs(t)
    return {
        "max_abs": float(np.max(a)),
        "sum_abs_pow": {k: float(np.sum(a**k)) for k in range(3, 10)},
        "sum_cubes": float(np.sum(t**3)),
    }


def marginal_density(n: int, x):
    """Density of sqrt(n) * theta_1 under the uniform sphere law."""
    x = np.asarray(x, dtype=float)
    cn = math.gamma(n / 2.0) / (math.sqrt(math.pi * n) * math.gamma((n - 1) / 2.0))
    return cn * np.maximum(1.0 - x * x / n, 0.0) ** ((n - 3) / 2.0)


def marginal_chi2_pvalue(n: int, samples: np.ndarray, bins: int = 40) -> float:
    """Chi-squared goodness of fit of sqrt(n) theta_1 against its density."""
    x = math.sqrt(n) * samples[:, 0]
    lim = min(math.sqrt(n), 6.0)
    edges = np.linspace(-lim, lim, bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    fine = np.linspace(edges[0], edges[-1], bins * 50 + 1)
    dens = marginal_density(n, fine)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))])
    probs = np.interp(edges, fine, cdf)
    probs = np.diff(probs)
    probs = probs / probs.sum()
    expected = probs * counts.sum()
    # pool sparse tail bins so the chi-squared approximation is valid
    keep = expected >= 5.0
    obs = np.concatenate([counts[keep], [counts[~keep].sum()]])
    exp = np.concatenate([expected[keep], [expected[~keep].sum()]])
    if exp[-1] <= 0:
        obs, exp = obs[:-1], exp[:-1]
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    return float(_stats.chi2.sf(chi2, dof))


def concentration_report(n: int, samples: int, seed: int, A: float = 4.0) -> dict:
    """Empirical violation frequencies vs. the concentration bounds.

    Checks, per entry: the max-coordinate bound (8/(A sqrt(2 pi)))/n for
    A >= 4; the power-sum bounds exp(-(rn)^{2/k}) with B_3 = 33, B_4 = 121,
    r = 1; and the cube-sum bound P(|sum theta_i^3| >= 10/(sqrt(n) log n))
    < 2/sqrt(n).  Each record carries the bound, the empirical frequency,
    its Monte Carlo standard error and a pass flag
    (empirical <= bound + 3 stderr).
    """
    if n < 4 or samples < 1000:
        raise DomainError("need n >= 4 and samples >= 1000")
    mat = sample_matrix(n, samples, seed)
    absmat = np.abs(mat)

    def entry(name, event_freq, bound):
        stderr = math.sqrt(max(event_freq * (1.0 - event_freq), 1.0 / samples) / samples)
        return {
            "name": name,
            "bound": bound,
            "empirical": event_freq,
            "stderr": stderr,
            "pass": event_freq <= bound + 3.0 * stderr,
        }

    report = {"n": n, "samples": samples, "seed": seed, "checks": []}

    thresh = A * math.sqrt(math.log(n) / n)
    freq = float(np.mean(np.max(absmat, axis=1) > thresh))
    report["checks"].append(entry("max_coordinate", freq, 8.0 / (A * math.sqrt(2 * math.pi)) / n))

    for k, bk in ((3, 33.0), (4, 121.0)):
        r = 1.0
        thresh = bk * r / n ** ((k - 2) / 2.0)
        freq = float(np.mean(np.sum(absmat**k, axis=1) >= thresh))
        report["checks"].append(entry(f"power_sum_k{k}", freq,
                                      math.exp(-((r * n) ** (2.0 / k)))))

    cubes = np.sum(mat**3, axis=1)
    thresh = 10.0 / (math.sqrt(n) * math.log(n))
    freq = float(np.mean(np.abs(cubes) >= thresh))
    report["checks"].append(entry("cube_sum", freq, 2.0 / math.sqrt(n)))

    t = 5.0
    freq = float(np.mean(np.abs(cubes) >= t / n))
    report["checks"].append(entry("cube_sum_t", freq,
                                  2.0 * math.exp(-(t ** (2.0 / 3.0)) / 23.0)))

    report["all_pass"] = all(c["pass"] for c in report["checks"])
    return report
