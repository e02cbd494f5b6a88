import hashlib
import json
import math
import os
import re
import subprocess
import sys
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
    """Reference: row k drawn on its own from Philox(key=[seed, k]) by the
    scalar polar loop, as sample() with a scalar index does."""
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
# values, so they take the scalar fallback; an index array of them alone
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


def test_zero_draw_is_redrawn_on_the_same_stream(monkeypatch):
    """A first draw of norm 0 is replaced by the stream's next draw."""
    n, seed, k = 6, 3, 2
    polar, first = sphere._polar_gaussians, []

    def zero_first(rng, count):
        g = polar(rng, count)  # the stream advances as for a real draw
        if not first:
            first.append(g)
            return np.zeros(count)
        return g

    monkeypatch.setattr(sphere, "_polar_gaussians", zero_first)
    got = sample(n, seed, k).theta
    rng = np.random.Generator(np.random.Philox(key=[seed, k]))
    assert np.array_equal(polar(rng, n), first[0])
    g = polar(rng, n)
    assert got.tobytes() == (g / np.linalg.norm(g)).tobytes()


def test_zero_row_in_a_batch_takes_the_scalar_path(monkeypatch):
    """A batched row of norm 0 is redrawn by the scalar sampler."""
    first_round = sphere._first_round

    def zero_row_one(uv, out, *scratch):
        short = first_round(uv, out, *scratch)
        out[1] = 0.0
        return short

    calls = []

    def scalar_sample(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(sphere, "_first_round", zero_row_one)
    monkeypatch.setattr(sphere, "sample", scalar_sample)
    M = sample(6, 3, np.arange(3))
    assert calls == [(6, 3, 1)]
    assert M.tobytes() == np.stack([sample(6, 3, k).theta for k in range(3)]).tobytes()


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
    assert np.array_equal(sample(6, 4, 7.9).theta, sample(6, 4, 7).theta)


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
    for n in (4, 16, 64):
        x = np.linspace(-math.sqrt(n), math.sqrt(n), 20001)
        mass = np.trapezoid(marginal_density(n, x), x)
        assert mass == pytest.approx(1.0, abs=1e-6)


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
