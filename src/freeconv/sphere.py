"""Uniform sampling on the unit sphere and Monte Carlo checks of the
sphere concentration inequalities.

Sampling is deterministic and order-independent: sample index k under seed s
draws from its own counter-based Philox stream keyed by (s, k), and
Gaussians are produced by Marsaglia polar rejection from that stream, so the
k-th sample is identical no matter which other samples are generated or in
what order.

Sizes, seeds and indices must be integers (a bool or a float raises
DomainError); seeds and indices must lie in [-2**63, 2**64), and they key
the stream modulo 2**64, so negative values wrap as numpy's
Philox(key=[s, k]) wraps them.

Every draw is a batch, and a scalar index is the one-row batch.  One
Philox is rekeyed to (s, k) for each row, through a state dict of plain
ints, and a Generator on it writes the row's 2m doubles in [0, 1),
m = max(n, 8), into a buffer, where they become the first m u's and m v's
Generator.uniform(-1, 1) would draw.  The polar rejection and the
normalisation run over a block of rows at once, with no sort: each row's
first n values are gathered by the rank of its accepted pairs.  A row whose
first round yields fewer than n values, or whose norm is 0, is redrawn in
the block generator by the polar loop from its stream's start, and on along
the stream while the norm is 0.

One block generator serves a whole draw (or a worker's slice of one),
with one Philox, one state dict and one set of buffers: ``sample`` has it write straight into the returned
matrix, and ``concentration_report`` and the ``sphere`` command reduce
each block in place by the one row reducer every weight statistic comes
from, whose powers are running products, theta^m = theta^(m-1) * theta.
No block allocates, so no memory is trimmed off the heap at one block and
faulted back in at the next.

A draw of many blocks is split into block-aligned slices of rows, since
no row's stream needs another's: the parent draws the first slice, and
an os.fork()ed child each other, into shared memory that holds the
result.  There is a worker per core, at most one per two blocks (a fork
and wait costs about a block), and one unless /proc/self/task lists one
thread, native ones (BLAS's) included.  Threads would gain nothing: the
rekey loop holds the GIL.  The bytes do not depend on the worker count,
and no process outlives a call.
"""

from __future__ import annotations

import math
import os
import reprlib
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import DomainError, check_integer, is_integer, is_real


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
        check_integer("n", n, 1)
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


def _key(name: str, value) -> int:
    """A seed or index as its Philox key word: value mod 2**64."""
    if not (is_integer(value) and -2**63 <= value < 2**64):
        raise DomainError(f"{name} must be an integer in [-2**63, 2**64), got {name}={value!r}")
    return int(value) % 2**64


_BLOCK = 1 << 17  # doubles drawn per block: bounds the buffers, not the rows


def _block_rows(n: int, count: int) -> int:
    """Rows per block when drawing count rows on S^{n-1}."""
    return max(1, min(_BLOCK // (2 * max(n, 8)), count))


def _blocks(n: int, seed: int, idx: np.ndarray, out: np.ndarray | None = None):
    """Yield (lo, rows), block after block: rows[i] is the point of S^{n-1}
    drawn on the stream keyed by (seed, idx[lo + i]).

    One Philox, its state dict and one set of buffers serve the whole draw,
    so no block allocates.  The rows are out[lo:lo + len(rows)] when out is
    given; otherwise they are one buffer, which the next block overwrites
    and the caller may use as scratch.
    """
    m = max(n, 8)
    bitgen = np.random.Philox(0)  # a fixed seed draws no OS entropy; each row rekeys it
    rng = np.random.Generator(bitgen)
    key = [_key("seed", seed), 0]
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
        ks = idx[lo:lo + size].astype(np.int64).view(np.uint64).tolist()
        k = len(ks)
        for row, index in zip(uv_rows, ks):
            key[1] = index
            bitgen.state = state
            rng.random(out=row)
        block = buf[:k] if out is None else out[lo:lo + k]
        short = _first_round(uv[:k], block, w[:k], p[:k])
        sq = np.vecdot(block, block)  # the same bytes as each row's own dot
        for r in np.flatnonzero(short | (sq == 0.0)).tolist():
            key[1] = ks[r]
            bitgen.state = state
            sq[r] = 0.0
            while sq[r] == 0.0:  # probability ~0
                block[r] = _polar_gaussians(rng, n)
                sq[r] = np.vecdot(block[r], block[r])
        block /= np.sqrt(sq, out=sq)[:, None]
        if not np.all(np.abs(np.vecdot(block, block) - 1.0) <= 1e-12):
            raise DomainError("weight vector must lie on the unit sphere")
        yield lo, block


# the cores this process may run on: a tile thread or a draw process each
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)


def _fork_cores() -> int:
    """The cores a draw may fork onto: all while /proc/self/task lists one
    thread, so a fork copies none (BLAS's included); else, or unread, one."""
    try:
        return _CORES if len(os.listdir("/proc/self/task")) == 1 else 1
    except OSError:
        return 1


def _draw_workers(blocks: int) -> int:  # the module docstring's rule
    return 1 if blocks < 4 else min(_fork_cores(), blocks // 2)


def _split_draw(n: int, rows: int, shape: tuple, draw) -> np.ndarray:
    """The array of this shape that draw(out, lo, hi) fills, for slices
    [lo, hi) of rows on S^{n-1} that are whole blocks but the last.

    One worker fills a np.empty array in one call.  More fill shared
    memory: each child draws its slice and leaves by os._exit, flushing
    none of the parent's stdio and running none of its atexit hooks.  The
    parent waits for every child, even when its own slice raises, then
    redraws each slice whose child failed, raising what one worker would.
    """
    size = _block_rows(n, rows)
    blocks = -(-rows // size)
    per = max(1, -(-blocks // _draw_workers(blocks))) * size
    slices = [(lo, min(lo + per, rows)) for lo in range(0, rows, per)]
    if len(slices) <= 1:
        out = np.empty(shape)
        draw(out, 0, rows)
        return out
    import mmap  # only a draw that forks maps shared memory
    out = np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)
    pids = []
    try:
        for lo, hi in slices[1:]:
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this slice on, the parent draws
                break
            if pid == 0:
                code = 1
                try:
                    draw(out, lo, hi)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        draw(out, *slices[0])
    finally:
        codes = [os.waitpid(pid, 0)[1] for pid in pids]
    for (lo, hi), code in zip_longest(slices[1:], codes, fillvalue=1):
        if code:
            draw(out, lo, hi)
    return out


def sample(n: int, seed: int, index: int | np.ndarray = 0) -> WeightVector | np.ndarray:
    """Uniform points on S^{n-1}, deterministic given (n, seed, index).

    A scalar index gives one WeightVector.  A 1-D integer index array gives
    the (len(index), n) matrix whose rows are those samples' weights, byte
    for byte equal to drawing each row on its own; any other array or
    sequence raises DomainError.  n must be an integer >= 1; seeds and
    indices must be integers in [-2**63, 2**64), and they key the stream
    modulo 2**64.
    """
    check_integer("n", n, 1)
    if isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu":
        def draw(out, lo, hi):
            for _ in _blocks(n, seed, index[lo:hi], out[lo:hi]):
                pass

        return _split_draw(n, index.size, (index.size, n), draw)
    try:
        scalar = np.ndim(index) == 0
    except ValueError:  # a ragged sequence has no shape
        raise DomainError("an index must be a scalar or a 1-D integer array, "
                          f"not the ragged sequence {reprlib.repr(index)}") from None
    if not scalar:
        index = np.asarray(index)
        raise DomainError("an index must be a scalar or a 1-D integer array, "
                          f"not an array of shape {index.shape} and dtype {index.dtype}")
    return WeightVector(sample(n, seed, np.array([_key("index", index)], dtype=np.uint64))[0])


def sample_matrix(n: int, count: int, seed: int) -> np.ndarray:
    """count-by-n matrix of independent uniform sphere points."""
    check_integer("count", count, 0)
    return sample(n, seed, np.arange(count))


def _row_stats(mat: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """Write each row's max|theta_i|, sum |theta_i|^3, sum theta_i^4 and
    sum theta_i^3 into out[0..3], overwriting mat and scratch (mat's shape).
    Each row is summed on its own: alone or in a block, the same bytes."""
    np.max(np.abs(mat, out=scratch), axis=1, out=out[0])
    np.multiply(mat, mat, out=scratch)  # products, not pow: pow is slow on negative bases
    scratch *= mat  # the cubes
    np.sum(scratch, axis=1, out=out[3])
    mat *= scratch  # the fourth powers
    np.sum(mat, axis=1, out=out[2])
    np.sum(np.abs(scratch, out=scratch), axis=1, out=out[1])


def vector_stats(theta) -> dict:
    """max|theta_i|, sum_i |theta_i|^k for k = 3 and 4, and sum of cubes:
    the row reducer's, run on a one-row copy of the weights."""
    row = np.array(as_weights(theta), ndmin=2)
    out = np.empty((4, 1))
    _row_stats(row, np.empty_like(row), out)
    max_abs, abs3, abs4, cubes = out[:, 0].tolist()
    return {"max_abs": max_abs, "sum_abs_pow": {3: abs3, 4: abs4}, "sum_cubes": cubes}


def _sample_stats(n: int, count: int, seed: int) -> np.ndarray:
    """The (4, count) row statistics of sample_matrix(n, count, seed), from
    the row reducer: each block is reduced in place, in the draw's buffer
    and one scratch block per worker, so no block allocates."""
    check_integer("n", n, 1)
    check_integer("count", count, 0)

    def draw(stats, lo, hi):
        scratch = np.empty((_block_rows(n, hi - lo), n))
        for a, mat in _blocks(n, seed, np.arange(lo, hi)):
            _row_stats(mat, scratch[:len(mat)], stats[:, lo + a:lo + a + len(mat)])

    return _split_draw(n, count, (4, count), draw)


def marginal_density(n: int, x):
    """Density of sqrt(n) * theta_1 under the uniform sphere law."""
    check_integer("n", n, 2)
    x = np.asarray(x, dtype=float)
    # the Gamma ratio from lgamma: Gamma(n/2) alone overflows from n = 344
    cn = math.exp(math.lgamma(n / 2) - math.lgamma((n - 1) / 2)) / math.sqrt(math.pi * n)
    u = 1.0 - x * x / n
    # 0 where 1 - x^2/n <= 0, where n = 2's power is infinite and n = 3's is 1
    return cn * np.power(u, (n - 3) / 2.0, out=np.zeros_like(u), where=~(u <= 0.0))


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
    """Chi-squared goodness of fit of sqrt(n) theta_1 against its density;
    samples is a 2-D array of n columns, one draw per row."""
    check_integer("n", n, 2)
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[1] != n:
        raise DomainError(f"samples must be a 2-D array with n = {n} columns, "
                          f"got shape {samples.shape}")
    x = math.sqrt(n) * samples[:, 0]
    lim = min(math.sqrt(n), 6.0)
    edges = np.linspace(-lim, lim, _CHI2_BINS + 1)
    counts, _ = np.histogram(x, bins=edges)
    if n == 2:  # the arcsine law: no trapezoid integrates its 1/sqrt edges
        probs = 0.5 + np.arcsin(edges / math.sqrt(2.0)) / math.pi
    else:
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

    Checks, per entry: the max-coordinate bound (8/(A sqrt(2 pi)))/n for a
    finite A >= 4; the power-sum bounds exp(-(rn)^{2/k}) with B_3 = 33,
    B_4 = 121, r = 1; and the cube-sum bound P(|sum theta_i^3| >=
    10/(sqrt(n) log n)) < 2/sqrt(n).  Each record carries the bound, the
    empirical frequency, its Monte Carlo standard error and a pass flag
    (empirical <= bound + 3 stderr).  The row statistics are vector_stats'.
    """
    check_integer("n", n, 4)
    check_integer("samples", samples, 1000)
    if not (is_real(A) and 4.0 <= A < math.inf):  # NaN fails too
        raise DomainError(f"A must be finite and >= 4, got A={A!r}")
    max_abs, abs3, abs4, cubes = _sample_stats(n, samples, seed)

    def entry(name, event, bound):  # event: which rows break the bound
        freq = float(np.mean(event))
        stderr = math.sqrt(max(freq * (1.0 - freq), 1.0 / samples) / samples)
        return {"name": name, "bound": bound, "empirical": freq, "stderr": stderr,
                "pass": freq <= bound + 3.0 * stderr}

    checks = [entry("max_coordinate", max_abs > A * math.sqrt(math.log(n) / n),
                    8.0 / (A * math.sqrt(2 * math.pi)) / n)]
    for k, bk, sums in ((3, 33.0, abs3), (4, 121.0, abs4)):
        checks.append(entry(f"power_sum_k{k}", sums >= bk / n ** ((k - 2) / 2.0),
                            math.exp(-(n ** (2.0 / k)))))
    checks.append(entry("cube_sum", np.abs(cubes) >= 10.0 / (math.sqrt(n) * math.log(n)),
                        2.0 / math.sqrt(n)))
    t = 5.0
    checks.append(entry("cube_sum_t", np.abs(cubes) >= t / n,
                        2.0 * math.exp(-(t ** (2.0 / 3.0)) / 23.0)))
    return {"n": n, "samples": samples, "seed": seed, "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}
