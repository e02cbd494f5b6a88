import faulthandler
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import freeconv
from freeconv import sphere
from freeconv.errors import DomainError
from freeconv.measures import semicircle_cdf
from freeconv.sphere import (WeightVector, concentration_report,
                             marginal_chi2_pvalue, marginal_density, sample,
                             sample_matrix, vector_stats)

# A numpy RuntimeWarning (say, a key built through a float cast) fails here.
pytestmark = pytest.mark.filterwarnings("error")


def test_samples_lie_on_unit_sphere():
    for n in (2, 8, 64, 501):
        th = sample(n, seed=5)
        assert th.n == n
        assert np.sum(th.theta**2) == pytest.approx(1.0, abs=1e-12)


def test_sampling_is_deterministic_per_seed_and_index():
    a = sample(16, seed=9, index=3).theta
    b = sample(16, seed=9, index=3).theta
    c = sample(16, seed=9, index=4).theta
    d = sample(16, seed=10, index=3).theta
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_matrix_rows_match_indexed_samples():
    M = sample_matrix(8, 5, seed=1)
    assert M.shape == (5, 8)
    for k in range(5):
        assert np.array_equal(M[k], sample(8, seed=1, index=k).theta)


def _stream_loop_row(n, seed, k):
    """Reference: row k drawn on its own from Philox(key=[seed, k]) by a
    plain polar loop, whose bytes every row of sample() must have."""
    rng = np.random.Generator(np.random.Philox(key=[int(seed), int(k)]))
    while True:
        out = np.empty(0)
        while out.size < n:
            m = max(n - out.size, 8)
            u = rng.uniform(-1.0, 1.0, size=m)
            v = rng.uniform(-1.0, 1.0, size=m)
            s = u * u + v * v
            keep = (s > 0.0) & (s < 1.0)
            u, v, s = u[keep], v[keep], s[keep]
            f = np.sqrt(-2.0 * np.log(s) / s)
            out = np.concatenate([out, u * f, v * f])
        g = out[:n]
        norm = float(np.linalg.norm(g))
        if norm != 0.0:
            return g / norm


# The extra indices are rows whose first round of 8 pairs gives fewer than n
# values, so they are redrawn by the polar loop; an index array of them alone
# leaves the batch no value to gather at n = 1, 2 (row 5529 of seed 1
# accepts no pair).
# Each count crosses a block of the batched sampler except at n = 1, 2, 3.
@pytest.mark.parametrize("n,count,seed,extra", [
    (1, 300, 1, [5529]), (2, 300, 1, [5529]), (3, 400, 2, [344]),
    (8, 8300, 0, []), (64, 1100, 0, []), (501, 150, 5, []),
])
def test_sample_matrix_matches_stream_loop_bytes(n, count, seed, extra):
    ref = np.stack([_stream_loop_row(n, seed, k) for k in range(count)])
    assert sample_matrix(n, count, seed).tobytes() == ref.tobytes()
    if extra:
        got = sample(n, seed, np.array(extra))
        assert got.tobytes() == np.stack([_stream_loop_row(n, seed, k)
                                          for k in extra]).tobytes()


def _zero_row(r):
    """A _first_round that zeroes row r of its output."""
    first_round = sphere._first_round

    def zero_row(uv, out, *scratch):
        short = first_round(uv, out, *scratch)
        out[r] = 0.0
        return short

    return zero_row


def test_zero_draw_is_redrawn_on_the_same_stream(monkeypatch):
    """A row of norm 0 is drawn again from its stream's start, and a redraw
    of norm 0 is replaced by the stream's next draw."""
    n, seed, k = 6, 3, 2
    polar, first = sphere._polar_gaussians, []

    def zero_first(rng, count):
        g = polar(rng, count)  # the stream advances as for a real draw
        if not first:
            first.append(g)
            return np.zeros(count)
        return g

    monkeypatch.setattr(sphere, "_first_round", _zero_row(0))
    monkeypatch.setattr(sphere, "_polar_gaussians", zero_first)
    got = sample(n, seed, k).theta
    rng = np.random.Generator(np.random.Philox(key=[seed, k]))
    assert np.array_equal(polar(rng, n), first[0])
    g = polar(rng, n)
    assert got.tobytes() == (g / np.linalg.norm(g)).tobytes()


def test_zero_row_in_a_batch_is_redrawn_on_its_stream(monkeypatch):
    """A batched row of norm 0 is drawn again from its own stream; the
    other rows keep their bytes."""
    monkeypatch.setattr(sphere, "_first_round", _zero_row(1))
    M = sample(6, 3, np.arange(3))
    assert M.tobytes() == np.stack([_stream_loop_row(6, 3, k) for k in range(3)]).tobytes()


def _nan_row(seed, k):
    """A _first_round that writes NaN into the row drawn on stream (seed, k),
    found by its first double, in whichever process draws it."""
    first_round = sphere._first_round
    first = np.random.Generator(np.random.Philox(key=[seed, k])).random()

    def nan_row(uv, out, *scratch):
        rows = np.flatnonzero(uv[:, 0] == first)  # read before uv is mapped in place
        short = first_round(uv, out, *scratch)
        out[rows] = np.nan
        return short

    return nan_row


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 1000 rows per block at n <= 8: the counts are one block, five blocks, and
# five and a half.  Three workers split 5000 rows as 2000, 2000 and 1000, and
# 5500 rows as 2000, 2000 and 1500, so a child draws the partial last block.
_SPLIT_BLOCK = 2 * 8 * 1000


def _split_draws(count):
    """sample_matrix, sample at an unordered index and concentration_report."""
    idx = np.random.default_rng(count).permutation(count) - 7
    return (sample_matrix(8, count, 3).tobytes(), sample(8, 5, idx).tobytes(),
            repr(concentration_report(8, count, 4)))


@pytest.mark.parametrize("zero", [False, True], ids=["plain", "zero-row"])
@pytest.mark.parametrize("count", [1000, 5000, 5500])
def test_draws_split_over_workers_keep_their_bytes(count, zero, monkeypatch):
    """The bytes do not depend on the worker count.  With a zero row in
    every block, each child redraws rows of its own slice."""
    monkeypatch.setattr(sphere, "_BLOCK", _SPLIT_BLOCK)
    monkeypatch.setattr(sphere, "_draw_workers", lambda blocks: 1)
    one = _split_draws(count)
    if zero:
        monkeypatch.setattr(sphere, "_first_round", _zero_row(1))
    for workers in (1, 2, 3):
        monkeypatch.setattr(sphere, "_draw_workers", lambda blocks: workers)
        assert _split_draws(count) == one
        _no_child_left()


def test_one_worker_draws_into_process_memory(monkeypatch):
    """One worker is the plain draw: a np.empty output, no shared memory."""
    monkeypatch.setattr(sphere, "_BLOCK", _SPLIT_BLOCK)
    monkeypatch.setattr(sphere, "_draw_workers", lambda blocks: 1)
    assert sample_matrix(8, 5000, 0).base is None
    monkeypatch.setattr(sphere, "_draw_workers", lambda blocks: 2)
    assert sample_matrix(8, 5000, 0).base is not None


def test_a_draw_that_cannot_fork_draws_every_slice_itself(monkeypatch):
    """A fork refused (say, at the process limit) costs the draw its
    speed, not its bytes."""
    monkeypatch.setattr(sphere, "_BLOCK", _SPLIT_BLOCK)
    monkeypatch.setattr(sphere, "_draw_workers", lambda blocks: 1)
    one = _split_draws(5500)

    def refuse():
        raise BlockingIOError("Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(sphere, "_draw_workers", lambda blocks: 3)
    assert _split_draws(5500) == one


# with two workers the parent draws rows [0, 3000) and a child [3000, 5000)
@pytest.mark.parametrize("k", [100, 4321], ids=["parent-slice", "child-slice"])
@pytest.mark.parametrize("draw", [
    lambda: sample_matrix(8, 5000, 2), lambda: concentration_report(8, 5000, 2),
], ids=["matrix", "report"])
def test_a_failing_slice_raises_what_one_worker_raises(draw, k, monkeypatch):
    """A row that fails the unit-norm check fails its slice: the parent
    redraws a failed child's slice and raises one worker's error, and no
    child outlives the call."""
    monkeypatch.setattr(sphere, "_BLOCK", _SPLIT_BLOCK)
    monkeypatch.setattr(sphere, "_first_round", _nan_row(2, k))
    messages = []
    for workers in (1, 2):
        monkeypatch.setattr(sphere, "_draw_workers", lambda blocks: workers)
        with pytest.raises(DomainError) as err:
            draw()
        messages.append(str(err.value))
        _no_child_left()
    assert messages == ["weight vector must lie on the unit sphere"] * 2


@pytest.mark.parametrize("blocks, workers", [(0, 1), (1, 1), (3, 1), (5, 2), (7, 3),
                                             (8, 4), (100, 4)])
def test_draw_workers_take_the_free_cores_at_two_blocks_each(blocks, workers,
                                                             monkeypatch):
    """Four cores to fork onto, at most one worker per two blocks: a fork
    and wait costs about a block."""
    monkeypatch.setattr(sphere, "_fork_cores", lambda: 4)
    assert sphere._draw_workers(blocks) == workers


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts the threads Linux lists")
def test_draw_keeps_one_worker_without_fork_or_beside_a_thread(monkeypatch):
    """A new process with BLAS on one thread forks onto every core; beside
    another Python thread, or where /proc/self/task cannot be read (no
    procfs, so no fork either), a draw keeps one worker."""
    env = dict(os.environ, PYTHONPATH=str(Path(freeconv.__file__).parents[1]))
    code = "from freeconv import sphere; print(sphere._fork_cores() == sphere._CORES)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "True"
    monkeypatch.setattr(sphere, "_CORES", 4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert sphere._draw_workers(8) == 1
    finally:
        release.set()
        thread.join()

    def unreadable(path):
        raise FileNotFoundError(path)
    monkeypatch.setattr(os, "listdir", unreadable)
    assert sphere._draw_workers(8) == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts the threads Linux lists")
def test_draw_keeps_one_worker_beside_a_native_thread():
    """faulthandler's watchdog is a native thread, as BLAS's are: the
    threading module does not count it, but a fork would copy the process
    beside it, so a draw keeps one worker on any number of cores."""
    faulthandler.dump_traceback_later(60)
    try:
        assert threading.active_count() == 1
        assert sphere._draw_workers(8) == 1
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.mark.parametrize("seed,idx", [
    (-3, np.arange(-5, 20)),
    (-2**63, np.array([2**63 - 1, -2**63, 0])),
    (2**63 + 1, np.arange(3)),
    (7, np.array([2**63 + 5, 5], dtype=np.uint64)),
    (4, np.array([7, 0, 3, 3, 12], dtype=np.int32)),
])
def test_index_array_matches_scalar_sample(seed, idx):
    M = sample(6, seed, idx)
    assert M.shape == (idx.size, 6)
    assert M.tobytes() == np.stack([sample(6, seed, k).theta for k in idx]).tobytes()


@pytest.mark.parametrize("seed,k", [(0, 0), (-3, -5), (-2**63, 2**63 - 1),
                                    (2**63 - 1, -2**63), (5, 12345)])
def test_keys_below_2_63_keep_the_philox_stream(seed, k):
    assert sample(6, seed, k).theta.tobytes() == _stream_loop_row(6, seed, k).tobytes()


def test_keys_at_and_above_2_63_give_distinct_streams():
    rows = [sample(4, s, 0).theta for s in (2**63, 2**63 + 1, 2**63 + 1000, 2**64 - 1)]
    rows += [sample(4, 0, k).theta for k in (2**63, 2**63 + 1)]
    assert len({r.tobytes() for r in rows}) == len(rows)
    assert sample(4, 2**64 - 1, 0).theta.tobytes() == sample(4, -1, 0).theta.tobytes()
    idx = np.array([2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    assert sample(4, 2**63 + 1, idx).tobytes() == np.stack(
        [sample(4, 2**63 + 1, int(k)).theta for k in idx]).tobytes()


@pytest.mark.parametrize("seed,index", [(2**64, 0), (-2**63 - 1, 0), (0, 2**64),
                                        (0, -2**63 - 1), (2**64, np.arange(2))])
def test_keys_outside_range_rejected(seed, index):
    with pytest.raises(DomainError):
        sample(4, seed, index)


# SHA-256 of sampled bytes and of a report: a change to the per-row stream,
# to the batch path or to the report's statistics shows here.
@pytest.mark.parametrize("make,digest", [
    (lambda: sample_matrix(64, 4096, 0).tobytes(),
     "11e752f8164a160db22ee807973de46f99256c0d3ae7339ab146ace8db8c5eab"),
    (lambda: sample_matrix(3, 4096, -1).tobytes(),
     "880a36680ef440f313b86cf37aa941851039fa10335dde86304b3a7728237d04"),
    (lambda: sample(5, 7, 11).theta.tobytes(),
     "d23df37dcdbb56d4e6a928b451a604aaa0b98aa3bab47dc0e1a08452aa1f24d3"),
    (lambda: repr(concentration_report(64, 20000, 0)).encode(),
     "c4729ec4a6e4cd37ee423c52299a6182c5098d0880b02d31ae5dd39f60470dac"),
    # at n = 6..9 short rows read values outside (0, 1) before they are
    # redrawn: under this module's filterwarnings("error") no RuntimeWarning
    # may escape, and no byte may move
    (lambda: sample_matrix(6, 20000, 0).tobytes(),
     "ec2651b9174d66195c2b3ef59ff5a87a1d342052183884a04ad0957ea94672b0"),
    (lambda: sample_matrix(7, 20000, 0).tobytes(),
     "bd29e0e7b462bca897a477f83e51ae9ba1c6aa4510c830b5bd522083725478bd"),
    (lambda: sample_matrix(8, 20000, 0).tobytes(),
     "813250d299e29d780da63dd0d2bc81f8dabc830ab8f3e17f0f20d462f55994be"),
    (lambda: sample_matrix(9, 20000, 0).tobytes(),
     "62ed90b1db04ba8307ef531e8bce0e674a1a0263e55424b51972f616a57bb62f"),
], ids=["matrix64", "matrix3", "scalar5", "report64", "matrix6", "matrix7",
        "matrix8", "matrix9"])
def test_golden_digests(make, digest):
    assert hashlib.sha256(make()).hexdigest() == digest


def test_scalar_index_still_gives_weight_vector():
    assert isinstance(sample(6, 4, 7), WeightVector)
    assert isinstance(sample(6, 4, np.int64(7)), WeightVector)
    with pytest.raises(DomainError, match="index must be an integer"):
        sample(6, 4, 7.9)


@pytest.mark.parametrize("index", [
    np.zeros((2, 2), dtype=np.int64), np.array([1.0, 2.0]),
    np.array([True, False]), [1, 2],
], ids=["2d-int", "float", "bool", "list"])
def test_sample_rejects_an_index_that_is_no_scalar_or_integer_vector(index):
    arr = np.asarray(index)
    with pytest.raises(DomainError, match=re.escape(f"shape {arr.shape} and dtype {arr.dtype}")):
        sample(4, 0, index)


@pytest.mark.parametrize("index", [[1, [2]], [[0], [1, 2]]],
                         ids=["scalar-and-list", "lists-of-two-lengths"])
def test_sample_rejects_a_ragged_index(index):
    """A ragged sequence has no shape; the error names it."""
    with pytest.raises(DomainError, match=re.escape(f"ragged sequence {index!r}")):
        sample(4, 0, index)


@pytest.mark.parametrize("n", [0, -3])
def test_sample_rejects_dimension_below_one(n):
    with pytest.raises(DomainError, match="n must be"):
        sample(n, seed=0)


@pytest.mark.parametrize("call, name", [
    (lambda: sample(8, 0.5, 1), "seed"),
    (lambda: sample(8, True, 1), "seed"),
    (lambda: sample(8, 0, 1.7), "index"),
    (lambda: sample(8, 0, True), "index"),
    (lambda: sample(8.0, 0, 1), "n"),
    (lambda: sample_matrix(8, True, 0), "count"),
    (lambda: sample_matrix(8, 2.5, 0), "count"),
    (lambda: sample_matrix(8, 4, 1.0), "seed"),
    (lambda: concentration_report(8, 1000.5, 0), "samples"),
    (lambda: concentration_report(8.0, 1000, 0), "n"),
    (lambda: WeightVector.uniform(4.0), "n"),
    (lambda: WeightVector.uniform(True), "n"),
], ids=["float-seed", "bool-seed", "float-index", "bool-index", "float-n",
        "bool-count", "float-count", "float-seed-matrix", "float-samples",
        "float-n-report", "float-n-uniform", "bool-n-uniform"])
def test_sizes_seeds_and_indices_must_be_integers(call, name):
    """A float or a bool is no size, seed or index: it is not truncated to
    one, and the error names the argument."""
    with pytest.raises(DomainError, match=f"^{name} must be an integer"):
        call()


def test_sample_matrix_count_edges():
    assert sample_matrix(5, 0, seed=1).shape == (0, 5)
    with pytest.raises(DomainError):
        sample_matrix(5, -1, seed=1)


def _full_matrix_report(n, samples, seed, A=4.0):
    """Reference: concentration_report computed on the whole matrix at once."""
    mat = sample_matrix(n, samples, seed)
    absmat = np.abs(mat)
    cubes = np.sum(mat**3, axis=1)
    freqs = [(np.max(absmat, axis=1) > A * math.sqrt(math.log(n) / n),
              8.0 / (A * math.sqrt(2 * math.pi)) / n)]
    for k, bk in ((3, 33.0), (4, 121.0)):
        freqs.append((np.sum(absmat**k, axis=1) >= bk / n ** ((k - 2) / 2.0),
                      math.exp(-(n ** (2.0 / k)))))
    freqs.append((np.abs(cubes) >= 10.0 / (math.sqrt(n) * math.log(n)),
                  2.0 / math.sqrt(n)))
    freqs.append((np.abs(cubes) >= 5.0 / n,
                  2.0 * math.exp(-(5.0 ** (2.0 / 3.0)) / 23.0)))
    checks = []
    for name, (event, bound) in zip(("max_coordinate", "power_sum_k3", "power_sum_k4",
                                     "cube_sum", "cube_sum_t"), freqs):
        freq = float(np.mean(event))
        stderr = math.sqrt(max(freq * (1.0 - freq), 1.0 / samples) / samples)
        checks.append({"name": name, "bound": bound, "empirical": freq,
                       "stderr": stderr, "pass": freq <= bound + 3.0 * stderr})
    return {"n": n, "samples": samples, "seed": seed, "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}


@pytest.mark.parametrize("n", [5, 8, 13, 64])
def test_concentration_report_matches_full_matrix(n):
    assert concentration_report(n, 2000, seed=n) == _full_matrix_report(n, 2000, n)


# A block holds 1024 rows at n = 64 and 8192 at n <= 8 (m = 8); these counts
# end in a partial block.
@pytest.mark.parametrize("n,samples", [(64, 3 * 1024 + 100), (8, 8192 + 1000)])
def test_concentration_report_matches_full_matrix_over_partial_blocks(n, samples):
    rows = sphere._block_rows(n, samples)
    assert samples > rows and samples % rows
    assert concentration_report(n, samples, seed=1) == _full_matrix_report(n, samples, 1)


_REPORT_FAULTS = """
import resource
from freeconv.sphere import concentration_report

concentration_report(64, 100000, 0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
concentration_report(64, 100000, 0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_report_draws_into_reused_buffers():
    """A report of 100000 rows faults fewer than 20000 pages: its blocks
    reuse one set of buffers.  Arrays allocated afresh for each block are
    trimmed off the heap when freed and faulted back in at the next block,
    about 148000 minor faults per call."""
    env = dict(os.environ, PYTHONPATH=str(Path(freeconv.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", _REPORT_FAULTS], env=env,
                         capture_output=True, text=True, check=True)
    assert int(res.stdout) < 20000


def test_import_does_not_load_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(Path(freeconv.__file__).parents[1]))
    code = "import sys, freeconv; print('scipy.stats' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_import_does_not_load_scipy_integrate_or_special():
    env = dict(os.environ, PYTHONPATH=str(Path(freeconv.__file__).parents[1]))
    code = ("import sys, freeconv; "
            "print([m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_uniform_weight_vector():
    th = WeightVector.uniform(16)
    assert np.all(th.theta == 0.25)


def test_weight_vector_validates_norm():
    with pytest.raises(DomainError):
        WeightVector(np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        WeightVector(np.array([math.nan]))
    with pytest.raises(DomainError):
        WeightVector.uniform(0)


def test_vector_stats_power_sums():
    th = np.array([0.6, -0.8])
    st = vector_stats(th)
    assert st["max_abs"] == pytest.approx(0.8)
    assert sorted(st["sum_abs_pow"]) == [3, 4]
    assert st["sum_abs_pow"][3] == pytest.approx(0.6**3 + 0.8**3)
    assert st["sum_abs_pow"][4] == pytest.approx(0.6**4 + 0.8**4)
    assert st["sum_cubes"] == pytest.approx(0.6**3 - 0.8**3)


def test_marginal_density_normalizes():
    # a ratio of math.gamma values is 0 at n = 343 and overflows from 344
    for n in (4, 16, 64, 343, 400, 1024, 65536):
        x = np.linspace(-math.sqrt(n), math.sqrt(n), 20001)
        mass = np.trapezoid(marginal_density(n, x), x)
        assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2.5, True], ids=["one", "float", "bool"])
def test_marginal_density_and_chi2_check_n(n):
    """The sphere dimension is an integer >= 2: n = 1 would reach
    lgamma(0), and n = 2.5 names no sphere.  The samples are a 2-D array
    of n columns: a 1-D array, or draws from another sphere, would test
    the wrong law."""
    with pytest.raises(DomainError, match="^n must be an integer >= 2"):
        marginal_density(n, 0.0)
    with pytest.raises(DomainError, match="^n must be an integer >= 2"):
        marginal_chi2_pvalue(n, sample_matrix(8, 1000, 0))
    for samples in (np.zeros(64), sample_matrix(32, 100, 0), np.zeros((1, 2, 64))):
        with pytest.raises(DomainError, match="^samples must be a 2-D array "
                           "with n = 64 columns"):
            marginal_chi2_pvalue(64, samples)


def test_marginal_density_and_chi2_take_a_numpy_integer():
    samples = sample_matrix(64, 2000, 0)
    assert marginal_density(np.int64(64), 0.5) == marginal_density(64, 0.5)
    assert marginal_chi2_pvalue(np.int64(64), samples) == marginal_chi2_pvalue(64, samples)


@pytest.mark.parametrize("n", [2, 3])
def test_marginal_density_and_chi2_at_the_smallest_spheres(n):
    """The density is 0 off (-sqrt(n), sqrt(n)): n = 3's flat density and
    n = 2's infinite arcsine edges do not leak past them.  The chi-squared
    test at n = 2 takes its bins from the arcsine CDF, with no RuntimeWarning
    (an error under this suite's filter), and accepts the true law."""
    assert marginal_density(n, [-1.9, 1.9]).tolist() == [0.0, 0.0]
    x = np.linspace(-math.sqrt(n), math.sqrt(n), 200001)[1:-1]
    assert np.trapezoid(marginal_density(n, x), x) == pytest.approx(1.0, abs=1e-2)
    for seed in range(3):
        assert marginal_chi2_pvalue(n, sample_matrix(n, 2000, seed)) > 0.01


def test_marginal_chi2_at_large_n():
    p = marginal_chi2_pvalue(1024, sample_matrix(1024, 2000, 0))
    assert 0.0 < p <= 1.0


def test_marginal_chi2_accepts_true_distribution():
    samples = sample_matrix(32, 20000, seed=77)
    p = marginal_chi2_pvalue(32, samples)
    assert p > 0.001


def test_marginal_chi2_with_no_pooled_bin_matches_scipy():
    """At n = 4 with 2000 rows every bin expects 5 or more (13.3 at the
    fewest), so no bin is pooled and the empty pool is dropped: the p-value
    is scipy's chisquare on the 40 bins, with counts expected from the
    n = 4 marginal, the semicircle law (within the trapezoid's error)."""
    from scipy.stats import chisquare
    samples = sample_matrix(4, 2000, seed=0)
    edges = np.linspace(-2.0, 2.0, 41)
    obs, _ = np.histogram(2.0 * samples[:, 0], bins=edges)
    exp = 2000 * np.diff(semicircle_cdf(edges))
    assert exp.min() >= 5.0
    assert marginal_chi2_pvalue(4, samples) == pytest.approx(
        chisquare(obs, exp).pvalue, rel=1e-2)


def test_chi2_tail_matches_scipy():
    """The closed-form Q(k/2, x/2) against scipy's chdtrc, relative, for
    k = 1..60 and x in [0, 200]."""
    from scipy.special import chdtrc
    xs = np.linspace(0.0, 200.0, 401)
    for k in range(1, 61):
        got = [sphere._chi2_sf(k, float(x)) for x in xs]
        np.testing.assert_allclose(got, chdtrc(k, xs), rtol=1e-13, atol=0.0,
                                   err_msg=f"k={k}")


def test_marginal_chi2_does_not_import_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(freeconv.__file__).parents[1]))
    code = ("import sys; from freeconv.sphere import marginal_chi2_pvalue, "
            "sample_matrix; marginal_chi2_pvalue(8, sample_matrix(8, 500, seed=1)); "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from freeconv import Measure, cauchy, delta_tilde, solve
from freeconv.cli import main
from freeconv.sphere import marginal_chi2_pvalue, sample_matrix

b, sc = Measure.bernoulli(), Measure.semicircle(1.0)
dt = delta_tilde(lambda z: solve([b, b], z).G, lambda z: cauchy(sc, z),
                 a=0.05, eps=0.2, u_points=3)
p = marginal_chi2_pvalue(8, sample_matrix(8, 500, seed=1))
code = main(["concentration", "--n", "16", "--samples", "2000",
             "--no-timestamp", "-o", "-"])
print(repr(dt), repr(p), code, file=sys.stderr)
"""


def test_runs_without_scipy():
    """Import, the strip functional, the sphere's chi-squared p-value and a
    CLI run all work with scipy unimportable: numpy is the one runtime
    dependency."""
    env = dict(os.environ, PYTHONPATH=str(Path(freeconv.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    dt, p, code = res.stderr.split()
    assert 0.05 + 0.2**1.5 < float(dt) < 1.0 and 0.0 <= float(p) <= 1.0
    assert code == "0" and "checks" in json.loads(res.stdout)


@pytest.mark.parametrize("rows", [1, 10])
def test_marginal_chi2_rejects_too_few_samples(rows):
    """With fewer than two bins expecting 5 or more there are no degrees
    of freedom left to test."""
    with pytest.raises(DomainError, match="too few samples"):
        marginal_chi2_pvalue(32, sample_matrix(32, rows, seed=0))


def test_coordinate_symmetry():
    """Each coordinate has mean 0 and variance 1/n."""
    M = sample_matrix(16, 20000, seed=3)
    means = M.mean(axis=0)
    var = M.var(axis=0)
    assert np.max(np.abs(means)) < 0.01
    assert np.max(np.abs(var - 1.0 / 16.0)) < 0.01


def test_concentration_report_bounds_hold():
    rep = concentration_report(64, 20000, seed=0)
    assert rep["all_pass"]
    names = {e["name"] for e in rep["checks"]}
    assert "max_coordinate" in names
    assert "cube_sum" in names


def test_concentration_report_validates_input():
    with pytest.raises(DomainError):
        concentration_report(2, 20000, seed=0)
