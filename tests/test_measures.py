import json
import math

import numpy as np
import pytest

from freeconv.errors import DegenerateMeasureError, DomainError
from freeconv.measures import (Measure, arcsine_cdf, semicircle_cdf,
                               semicircle_density)

from oracles import catalan


def test_atomic_weights_must_sum_to_one():
    with pytest.raises(DomainError):
        Measure.atomic([0.0, 1.0], [0.5, 0.4])


@pytest.mark.parametrize("build", [
    lambda: Measure.atomic([0.0, 1.0], [math.nan, 1.0]),
    lambda: Measure.atomic([math.inf], [1.0]),
    lambda: Measure.semicircle(math.nan),
    lambda: Measure.from_json('{"kind": "atomic", "atoms": [{"x": NaN, "w": 1.0}]}'),
], ids=["nan-weight", "inf-position", "nan-variance", "json-nan-atom"])
def test_non_finite_inputs_rejected(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("fields", [
    # mass 2 (solve gave G = -2j), an unknown kind (a nan residual) and list
    # atoms (unhashable, a TypeError in solve_grid's dedupe) used to pass
    dict(kind="atomic", atoms=((0.0, 2.0),)),
    dict(kind="banana"),
    dict(kind="atomic", atoms=[(-1.0, 0.5), (1.0, 0.5)]),
    dict(kind="atomic", atoms=((-1.0, 0.5), [1.0, 0.5])),
    dict(kind="atomic", atoms=((1.0, 0.5), (-1.0, 0.5))),
    dict(kind="atomic", atoms=((1.0, 0.5), (1.0, 0.5))),
    dict(kind="atomic", atoms=((-1.0, 1.5), (1.0, -0.5))),
    dict(kind="atomic", atoms=((math.inf, 1.0),)),
    dict(kind="atomic", atoms=()),
    dict(kind="atomic", atoms=((0.0, 1.0),), variance_param=1.0),
    dict(kind="semicircle"),
    dict(kind="semicircle", atoms=((0.0, 1.0),), variance_param=1.0),
], ids=["mass-2", "unknown-kind", "list-atoms", "list-pair", "unsorted",
        "repeated-position", "negative-weight", "inf-position", "no-atoms",
        "atomic-with-variance", "semicircle-variance-0", "semicircle-with-atoms"])
def test_bare_construction_is_validated(fields):
    with pytest.raises(DomainError, match="invalid measure: kind="):
        Measure(**fields)


def test_atomic_rejects_a_negative_weight_before_merging():
    with pytest.raises(DomainError, match="atom weight"):
        Measure.atomic([0.0, 0.0], [1.5, -0.5])


def test_bare_construction_equals_named_constructor():
    bern = Measure(kind="atomic", atoms=((-1.0, 0.5), (1.0, 0.5)))
    assert bern == Measure.bernoulli() and hash(bern) == hash(Measure.bernoulli())
    sc = Measure(kind="semicircle", variance_param=2.0)
    assert sc == Measure.semicircle(2.0) and hash(sc) == hash(Measure.semicircle(2.0))


def test_atomic_merges_duplicate_positions():
    mu = Measure.atomic([1.0, 1.0, -1.0], [0.25, 0.25, 0.5])
    assert len(mu.atoms) == 2
    assert sum(w for _, w in mu.atoms) == pytest.approx(1.0)


def test_bernoulli_is_standardized():
    mu = Measure.bernoulli()
    assert mu.mean == pytest.approx(0.0)
    assert mu.var == pytest.approx(1.0)
    assert mu.moment(3) == pytest.approx(0.0)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75])
def test_binomial_standardized_with_skewness(p):
    """Two-atom measure with weights (p, q): mean 0, variance 1, and third
    moment -(p - q)/sqrt(pq)."""
    q = 1.0 - p
    mu = Measure.binomial(p)
    assert mu.mean == pytest.approx(0.0, abs=1e-14)
    assert mu.var == pytest.approx(1.0)
    assert mu.moment(3) == pytest.approx(-(p - q) / math.sqrt(p * q))


def test_semicircle_even_moments_are_catalan():
    sc = Measure.semicircle(1.0)
    for k in range(2, 12, 2):
        assert sc.moment(k) == pytest.approx(catalan(k // 2))
        assert sc.moment(k + 1) == 0.0


def test_semicircle_variance_scaling():
    sc = Measure.semicircle(2.0)
    assert sc.var == pytest.approx(2.0)
    assert sc.support_radius == pytest.approx(2.0 * math.sqrt(2.0))


def test_scale_scales_moments():
    mu = Measure.binomial(0.25)
    nu = mu.scale(3.0)
    for k in range(1, 6):
        assert nu.moment(k) == pytest.approx(3.0**k * mu.moment(k))


def test_scale_handles_sign_and_zero():
    mu = Measure.binomial(0.25)
    neg = mu.scale(-2.0)
    assert neg.moment(3) == pytest.approx(-8.0 * mu.moment(3))
    z = mu.scale(0.0)
    assert z.atoms == ((0.0, 1.0),)


def test_semicircle_scaled_below_the_smallest_variance_is_the_point_mass():
    """c^2 v underflows to 0 at c = 1e-170: the point mass, as at c = 0, so
    a valid weight vector with a tiny weight gives valid summands."""
    from freeconv.subordination import weighted_summands
    assert Measure.semicircle(1.0).scale(1e-170) == Measure.point(0.0)
    summands = weighted_summands(Measure.semicircle(1.0), [1.0, 1e-170])
    assert summands == [Measure.semicircle(1.0), Measure.point(0.0)]


def test_standardize_roundtrip():
    mu = Measure.atomic([-3.0, 1.0, 4.0], [0.3, 0.5, 0.2])
    nu = mu.standardize()
    assert nu.mean == pytest.approx(0.0, abs=1e-14)
    assert nu.var == pytest.approx(1.0)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, "0.5"])
def test_binomial_rejects_p_outside_unit_interval(p):
    with pytest.raises(DomainError, match=r"p must be in \(0, 1\)"):
        Measure.binomial(p)


@pytest.mark.parametrize("mu", [Measure.bernoulli(), Measure.semicircle(1.0)],
                         ids=["atomic", "semicircle"])
@pytest.mark.parametrize("order", ["moment"])
def test_moments_reject_order_below_one(mu, order):
    with pytest.raises(DomainError, match="order"):
        getattr(mu, order)(0)


def test_shift_of_semicircle_rejected():
    with pytest.raises(DomainError, match="atomic"):
        Measure.semicircle(1.0).shift(0.5)


def test_standardize_semicircle_and_zero_variance():
    assert Measure.semicircle(3.0).standardize() == Measure.semicircle(1.0)
    with pytest.raises(DegenerateMeasureError):
        Measure.point(2.0).standardize()


def test_from_json_rejects_unknown_kind():
    with pytest.raises(DomainError, match="unknown measure kind"):
        Measure.from_json('{"kind": "cauchy"}')


def test_json_roundtrip_atomic_and_semicircle():
    for mu in (Measure.binomial(0.3), Measure.semicircle(0.7)):
        again = Measure.from_json(mu.to_json())
        assert again == mu
    d = json.loads(Measure.bernoulli().to_json())
    assert d["kind"] == "atomic"


def test_from_preset():
    assert Measure.from_preset("bernoulli") == Measure.bernoulli()
    assert Measure.from_preset("binomial:0.25") == Measure.binomial(0.25)
    assert Measure.from_preset("semicircle:2") == Measure.semicircle(2.0)
    with pytest.raises(DomainError):
        Measure.from_preset("cauchy")


def test_semicircle_density_and_cdf_consistency():
    xs = np.linspace(-2.0, 2.0, 2001)
    dens = semicircle_density(xs)
    cdf = semicircle_cdf(xs)
    assert cdf[0] == pytest.approx(0.0, abs=1e-12)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
    num = np.gradient(cdf, xs)
    mask = np.abs(xs) < 1.9
    assert np.max(np.abs(num[mask] - dens[mask])) < 1e-5


def test_arcsine_cdf_endpoints_and_symmetry():
    assert arcsine_cdf(np.array([-2.0]))[0] == pytest.approx(0.0)
    assert arcsine_cdf(np.array([2.0]))[0] == pytest.approx(1.0)
    assert arcsine_cdf(np.array([0.0]))[0] == pytest.approx(0.5)
