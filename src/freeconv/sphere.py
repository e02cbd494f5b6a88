"""Uniform sampling on the unit sphere and Monte Carlo checks of the
sphere concentration inequalities.

Sampling is deterministic and order-independent: sample index k under seed s
draws from its own counter-based Philox stream keyed by (s, k), and
Gaussians are produced by Marsaglia polar rejection from that stream, so the
k-th sample is identical no matter which other samples are generated or in
what order.

Seeds and indices must lie in [-2**63, 2**64); they key the stream modulo
2**64, so negative values wrap as numpy's Philox(key=[s, k]) wraps them.

``sample`` with a 1-D integer index array draws all rows in one batch, byte
for byte equal to the scalar path.  One Philox is rekeyed to (s, k) for each
row, through a state dict of plain ints, and gives the 2m raw words,
m = max(n, 8), from which the scalar loop draws its first m u's and m v's.
The polar rejection and the normalisation then run over a block of rows at
once, with no sort: each row's first n values are gathered by the rank of
its accepted pairs.  A row falls back to the scalar path when its first
round yields fewer than n values or when its norm is 0.
``concentration_report`` forms its power sums from products, not ``pow``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

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


def _first_round(raw: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first n polar Gaussians of each row of raw Philox words, and the
    mask of rows whose first round gave fewer than n (their values are junk).
    """
    m = raw.shape[1] // 2
    uv = (raw >> 11) * 2.0**-52 - 1.0  # Generator.uniform(-1, 1), bit for bit
    u, v = uv[:, :m], uv[:, m:]
    s = u * u + v * v
    keep = (s > 0.0) & (s < 1.0)
    accepted = np.count_nonzero(keep, axis=1)
    short = 2 * accepted < n
    pos = np.flatnonzero(keep)  # the accepted pairs, row after row
    if pos.size == 0:
        return np.zeros((raw.shape[0], n)), short
    a, j = accepted[:, None], np.arange(n)
    half = j >= a  # a row's accepted u's, then its accepted v's
    rank = (np.cumsum(accepted) - accepted)[:, None] + np.where(half, j - a, j)
    p = pos[np.minimum(rank, pos.size - 1)]  # short rows read other pairs
    sp = s.ravel()[p]
    f = np.sqrt(-2.0 * np.log(sp) / sp)
    return uv.ravel()[p + (p // m + half) * m] * f, short


def _key(value) -> int:
    """A seed or index as its Philox key word: value mod 2**64."""
    k = int(value)
    if not -2**63 <= k < 2**64:
        raise DomainError("seeds and indices must lie in [-2**63, 2**64)")
    return k % 2**64


_BLOCK = 1 << 17  # raw words per block: bounds the temporaries, not the rows


def _sample_rows(n: int, seed: int, idx: np.ndarray) -> np.ndarray:
    """The rows sample(n, seed, k).theta for k in idx, drawn in blocks."""
    out = np.empty((idx.size, n))
    m = max(n, 8)
    bitgen = np.random.Philox()
    key = [_key(seed), 0]
    # the start of the stream Philox(key=key): zero counter, empty buffer;
    # the state setter reads plain ints much faster than numpy scalars
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    rows = max(1, _BLOCK // (2 * m))
    raw = np.empty((rows, 2 * m), dtype=np.uint64)
    for lo in range(0, idx.size, rows):
        ks = idx[lo:lo + rows]
        for i, k in enumerate(ks.astype(np.int64).view(np.uint64).tolist()):
            key[1] = k
            bitgen.state = state
            raw[i] = bitgen.random_raw(2 * m)
        g, short = _first_round(raw[:ks.size], n)
        sq = np.vecdot(g, g)  # the same bytes as np.linalg.norm's dot
        redo = short | (sq == 0.0)
        sq[redo] = 1.0
        block = out[lo:lo + ks.size]
        np.divide(g, np.sqrt(sq)[:, None], out=block)
        for r in np.flatnonzero(redo):
            block[r] = sample(n, seed, int(ks[r])).theta
        if not np.all(np.abs(np.sum(block * block, axis=1) - 1.0) <= 1e-12):
            raise DomainError("weight vector must lie on the unit sphere")
    return out


def sample(n: int, seed: int, index: int | np.ndarray = 0) -> WeightVector | np.ndarray:
    """Uniform points on S^{n-1}, deterministic given (n, seed, index).

    A scalar index gives one WeightVector.  A 1-D integer index array gives
    the (len(index), n) matrix whose rows are those samples' weights, byte
    for byte equal to drawing each row on its own.  Seeds and indices must
    lie in [-2**63, 2**64); they key the stream modulo 2**64.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu":
        return _sample_rows(n, seed, index)
    key = np.array([_key(seed), _key(index)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    g = _polar_gaussians(rng, n)
    norm = float(np.linalg.norm(g))
    while norm == 0.0:  # probability ~0; retry on the same stream
        g = _polar_gaussians(rng, n)
        norm = float(np.linalg.norm(g))
    return WeightVector(g / norm)


def sample_matrix(n: int, count: int, seed: int) -> np.ndarray:
    """count-by-n matrix of independent uniform sphere points."""
    if count < 0:
        raise DomainError("count must be >= 0")
    return sample(n, seed, np.arange(count))


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
    return float(chdtrc(dof, chi2))


# Rows per block of concentration_report.  It only bounds the memory of the
# block's temporaries: products are exact per element and each row is summed
# on its own, so the statistics do not depend on it.
_REPORT_ROWS = 1024


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
    max_abs, cubes = np.empty(samples), np.empty(samples)
    abs_pow = {3: np.empty(samples), 4: np.empty(samples)}
    for lo in range(0, samples, _REPORT_ROWS):
        mat = sample(n, seed, np.arange(lo, min(lo + _REPORT_ROWS, samples)))
        rows = slice(lo, lo + len(mat))
        sq = mat * mat  # products, not pow: pow is slow on negative bases
        cube = sq * mat
        max_abs[rows] = np.max(np.abs(mat), axis=1)
        cubes[rows] = np.sum(cube, axis=1)
        abs_pow[3][rows] = np.sum(np.abs(cube), axis=1)
        abs_pow[4][rows] = np.sum(sq * sq, axis=1)

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
    freq = float(np.mean(max_abs > thresh))
    report["checks"].append(entry("max_coordinate", freq, 8.0 / (A * math.sqrt(2 * math.pi)) / n))

    for k, bk in ((3, 33.0), (4, 121.0)):
        r = 1.0
        thresh = bk * r / n ** ((k - 2) / 2.0)
        freq = float(np.mean(abs_pow[k] >= thresh))
        report["checks"].append(entry(f"power_sum_k{k}", freq,
                                      math.exp(-((r * n) ** (2.0 / k)))))

    thresh = 10.0 / (math.sqrt(n) * math.log(n))
    freq = float(np.mean(np.abs(cubes) >= thresh))
    report["checks"].append(entry("cube_sum", freq, 2.0 / math.sqrt(n)))

    t = 5.0
    freq = float(np.mean(np.abs(cubes) >= t / n))
    report["checks"].append(entry("cube_sum_t", freq,
                                  2.0 * math.exp(-(t ** (2.0 / 3.0)) / 23.0)))

    report["all_pass"] = all(c["pass"] for c in report["checks"])
    return report
