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
row, through a state dict of plain ints, and a Generator on it writes the
row's 2m doubles in [0, 1), m = max(n, 8), straight into a buffer, where
they become the first m u's and m v's the scalar loop's
Generator.uniform(-1, 1) draws.  The polar rejection and the normalisation
then run over a block of rows at once, with no sort: each row's first n
values are gathered by the rank of its accepted pairs.  A row falls back to
the scalar path when its first round yields fewer than n values or when its
norm is 0.

One block generator serves a whole draw, with one Philox, one state dict
and one set of buffers: ``sample`` has it write straight into the returned
matrix, and ``concentration_report`` reduces each block in place, forming
its power sums from products, not ``pow``.  No block allocates, so no
memory is trimmed off the heap at one block and faulted back in at the next.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

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
    """The weights of a WeightVector, or of any sequence checked as one
    (on the unit sphere within 1e-12), as a float array."""
    if not isinstance(theta, WeightVector):
        theta = WeightVector(theta)
    return theta.theta


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


def _first_round(uv: np.ndarray, out: np.ndarray, w: np.ndarray,
                 p: np.ndarray) -> np.ndarray:
    """Write into out the first n = out.shape[1] polar Gaussians of each row
    of uv, and return the mask of rows whose first round gave fewer than n
    (their rows of out are junk).

    A row of uv holds the 2m doubles Generator.random draws from the row's
    stream; they are mapped in place to Generator.uniform(-1, 1)'s, bit for
    bit, the m u's then the m v's.  w (uv's shape) and p (intp, out's
    shape) are scratch.
    """
    rows, n, m = out.shape[0], out.shape[1], uv.shape[1] // 2
    uv *= 2.0
    uv -= 1.0
    np.multiply(uv, uv, out=w)
    s = w[:, :m]  # u*u + v*v, in the u's places
    s += w[:, m:]
    keep = (s > 0.0) & (s < 1.0)
    accepted = np.count_nonzero(keep, axis=1)
    short = 2 * accepted < n
    pos = np.flatnonzero(keep)  # the accepted pairs, row after row
    if pos.size == 0:
        out[:] = 0.0
        return short
    a = accepted[:, None]
    half = np.arange(n) >= a  # a row's accepted u's, then its accepted v's
    # the rank of each value's pair among the accepted, then the pair
    np.add(np.arange(n), (np.cumsum(accepted) - accepted)[:, None], out=p)
    np.subtract(p, a, out=p, where=half)
    # "clip" keeps short rows' ranks in range: they read other pairs; every
    # other index is in range, and raise mode would copy out first
    np.take(pos, p, out=p, mode="clip")
    p += m * np.arange(rows)[:, None]  # the pair's u (and s) in a row of 2m
    np.take(w.ravel(), p, out=out, mode="clip")
    f = w.ravel()[:out.size].reshape(out.shape)  # s is read: w is free
    with np.errstate(divide="ignore", invalid="ignore"):  # short rows' junk s may be >= 1
        np.log(out, out=f)
        f *= -2.0
        f /= out
        np.sqrt(f, out=f)
    np.add(p, m, out=p, where=half)  # the pair's v
    np.take(uv.ravel(), p, out=out, mode="clip")
    out *= f
    return short


def _key(value) -> int:
    """A seed or index as its Philox key word: value mod 2**64."""
    k = int(value)
    if not -2**63 <= k < 2**64:
        raise DomainError("seeds and indices must lie in [-2**63, 2**64)")
    return k % 2**64


_BLOCK = 1 << 17  # doubles drawn per block: bounds the buffers, not the rows


def _block_rows(n: int, count: int) -> int:
    """Rows per block when drawing count rows on S^{n-1}."""
    return max(1, min(_BLOCK // (2 * max(n, 8)), count))


def _blocks(n: int, seed: int, idx: np.ndarray, out: np.ndarray | None = None):
    """Yield (lo, rows), block after block: rows[i] is
    sample(n, seed, idx[lo + i]).theta.

    One Philox, its state dict and one set of buffers serve the whole draw,
    so no block allocates.  The rows are out[lo:lo + len(rows)] when out is
    given; otherwise they are one buffer, which the next block overwrites
    and the caller may use as scratch.
    """
    m = max(n, 8)
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    key = [_key(seed), 0]
    # the start of the stream Philox(key=key): zero counter, empty buffer;
    # the state setter reads plain ints much faster than numpy scalars
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    size = _block_rows(n, idx.size)
    uv, w = np.empty((2, size, 2 * m))
    uv_rows = list(uv)
    p = np.empty((size, n), dtype=np.intp)
    buf = np.empty((size, n)) if out is None else None
    for lo in range(0, idx.size, size):
        ks = idx[lo:lo + size]
        k = ks.size
        for row, index in zip(uv_rows, ks.astype(np.int64).view(np.uint64).tolist()):
            key[1] = index
            bitgen.state = state
            rng.random(out=row)
        block = buf[:k] if out is None else out[lo:lo + k]
        short = _first_round(uv[:k], block, w[:k], p[:k])
        sq = np.vecdot(block, block)  # the same bytes as np.linalg.norm's dot
        redo = short | (sq == 0.0)
        sq[redo] = 1.0
        block /= np.sqrt(sq, out=sq)[:, None]
        for r in np.flatnonzero(redo):
            block[r] = sample(n, seed, int(ks[r])).theta
        if not np.all(np.abs(np.vecdot(block, block) - 1.0) <= 1e-12):
            raise DomainError("weight vector must lie on the unit sphere")
        yield lo, block


def sample(n: int, seed: int, index: int | np.ndarray = 0) -> WeightVector | np.ndarray:
    """Uniform points on S^{n-1}, deterministic given (n, seed, index).

    A scalar index gives one WeightVector.  A 1-D integer index array gives
    the (len(index), n) matrix whose rows are those samples' weights, byte
    for byte equal to drawing each row on its own; any other array or
    sequence raises DomainError.  Seeds and indices must lie in
    [-2**63, 2**64); they key the stream modulo 2**64.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu":
        out = np.empty((index.size, n))
        for _ in _blocks(n, seed, index, out):
            pass
        return out
    try:
        scalar = np.ndim(index) == 0
    except ValueError:  # a ragged sequence has no shape
        raise DomainError("an index must be a scalar or a 1-D integer array, "
                          f"not the ragged sequence {reprlib.repr(index)}") from None
    if not scalar:
        index = np.asarray(index)
        raise DomainError("an index must be a scalar or a 1-D integer array, "
                          f"not an array of shape {index.shape} and dtype {index.dtype}")
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
    """max|theta_i|, sum_i |theta_i|^k for k = 3 and 4, and sum of cubes."""
    t = as_weights(theta)
    sq = t * t
    cubes = sq * t
    return {
        "max_abs": float(np.max(np.abs(t))),
        "sum_abs_pow": {3: float(np.sum(np.abs(cubes))), 4: float(np.sum(sq * sq))},
        "sum_cubes": float(np.sum(cubes)),
    }


def marginal_density(n: int, x):
    """Density of sqrt(n) * theta_1 under the uniform sphere law."""
    x = np.asarray(x, dtype=float)
    cn = math.gamma(n / 2.0) / (math.sqrt(math.pi * n) * math.gamma((n - 1) / 2.0))
    return cn * np.maximum(1.0 - x * x / n, 0.0) ** ((n - 3) / 2.0)


_CHI2_BINS = 40  # equal-width bins over [-min(sqrt(n), 6), min(sqrt(n), 6)]


def _chi2_sf(k: int, x: float) -> float:
    """P(chi^2_k > x) for an integer k >= 1: the regularized upper
    incomplete gamma Q(k/2, x/2) in closed form, from Q(1, y) = e^-y (even
    k) or Q(1/2, y) = erfc(sqrt y) (odd k) by the positive terms of
    Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1)."""
    y = 0.5 * x
    if k % 2:
        a, q, t = 0.5, math.erfc(math.sqrt(y)), 2.0 * math.exp(-y) * math.sqrt(y / math.pi)
    else:
        a, q, t = 1.0, math.exp(-y), math.exp(-y) * y
    while a < 0.5 * k:
        q += t
        a += 1.0
        t *= y / a
    return q


def marginal_chi2_pvalue(n: int, samples: np.ndarray) -> float:
    """Chi-squared goodness of fit of sqrt(n) theta_1 against its density."""
    x = math.sqrt(n) * samples[:, 0]
    lim = min(math.sqrt(n), 6.0)
    edges = np.linspace(-lim, lim, _CHI2_BINS + 1)
    counts, _ = np.histogram(x, bins=edges)
    fine = np.linspace(edges[0], edges[-1], _CHI2_BINS * 50 + 1)
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
    if dof < 1:
        raise DomainError("too few samples for a chi-squared test: "
                          "fewer than two bins expect 5 or more")
    return _chi2_sf(dof, chi2)


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
    # Products are exact per element and each row is summed on its own, so
    # the statistics do not depend on the block size.  Each block is reduced
    # in place, in its own buffer and one scratch block.
    scratch = np.empty((_block_rows(n, samples), n))
    for lo, mat in _blocks(n, seed, np.arange(samples)):
        rows, sq = slice(lo, lo + len(mat)), scratch[:len(mat)]
        np.max(np.abs(mat, out=sq), axis=1, out=max_abs[rows])
        np.multiply(mat, mat, out=sq)  # products, not pow: pow is slow on negative bases
        mat *= sq  # the cubes
        np.sum(mat, axis=1, out=cubes[rows])
        np.sum(np.abs(mat, out=mat), axis=1, out=abs_pow[3][rows])
        sq *= sq
        np.sum(sq, axis=1, out=abs_pow[4][rows])

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
        thresh = bk / n ** ((k - 2) / 2.0)
        freq = float(np.mean(abs_pow[k] >= thresh))
        report["checks"].append(entry(f"power_sum_k{k}", freq,
                                      math.exp(-(n ** (2.0 / k)))))

    thresh = 10.0 / (math.sqrt(n) * math.log(n))
    freq = float(np.mean(np.abs(cubes) >= thresh))
    report["checks"].append(entry("cube_sum", freq, 2.0 / math.sqrt(n)))

    t = 5.0
    freq = float(np.mean(np.abs(cubes) >= t / n))
    report["checks"].append(entry("cube_sum_t", freq,
                                  2.0 * math.exp(-(t ** (2.0 / 3.0)) / 23.0)))

    report["all_pass"] = all(c["pass"] for c in report["checks"])
    return report
