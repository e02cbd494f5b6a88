"""The two input rules, check_integer and check_between, at every argument
that takes them: each bad value is a DomainError naming the argument, and
numpy scalars pass as the Python numbers they stand for.  concentration_report's
A, closed at 4, keeps its own check on the same real-number test."""

import math
import re

import numpy as np
import pytest

from freeconv.complexfn import cauchy
from freeconv.cumulants import measure_cumulants
from freeconv.errors import DomainError
from freeconv.experiments import rate_experiment, support_experiment
from freeconv.inversion import delta_eps, delta_tilde, recover
from freeconv.measures import Measure, arcsine_cdf, semicircle_cdf
from freeconv.sphere import WeightVector, concentration_report
from freeconv.subordination import SolveOptions

_zero = lambda z: 0j
_semicircle_g = lambda zs: cauchy(Measure.semicircle(1.0), zs)

# name, call, least (an integer rule) or (lo, hi) (an interval rule)
_ARGUMENTS = [
    ("order", lambda v: measure_cumulants(Measure.bernoulli(), v), 1),
    ("order", lambda v: Measure.bernoulli().moment(v), 1),
    ("points", lambda v: recover(_semicircle_g, -1.0, 1.0, points=v, eta=1e-2), 2),
    ("u_points", lambda v: delta_tilde(_zero, _zero, a=0.05, eps=0.2, u_points=v), 1),
    ("reps", lambda v: rate_experiment(Measure.bernoulli(), [4, 8], metrics=("delta",),
                                       reps=v, points=201), 1),
    ("max_iters", lambda v: SolveOptions(max_iters=v), 1),
    ("tol", lambda v: SolveOptions(tol=v), (0.0, math.inf)),
    ("eta", lambda v: recover(_semicircle_g, -1.0, 1.0, points=5, eta=v), (0.0, math.inf)),
    ("x_min", lambda v: recover(_semicircle_g, v, 1.0, points=5, eta=1e-2),
     (-math.inf, math.inf)),
    ("x_max", lambda v: recover(_semicircle_g, -1.0, v, points=5, eta=1e-2),
     (-math.inf, math.inf)),
    ("eps", lambda v: delta_eps(semicircle_cdf, arcsine_cdf, v), (0.0, 1.0)),
    ("a", lambda v: delta_tilde(_zero, _zero, a=v, eps=0.2, u_points=3), (0.0, 1.0)),
    ("eps", lambda v: delta_tilde(_zero, _zero, a=0.05, eps=v, u_points=3), (0.0, 1.0)),
    ("p", Measure.binomial, (0.0, 1.0)),
    ("density_threshold", lambda v: support_experiment(
        Measure.bernoulli(), WeightVector.uniform(4), density_threshold=v, points=201),
     (0.0, math.inf)),
]
_IDS = ["measure_cumulants", "moment", "recover-points", "delta_tilde-u_points",
        "rate_experiment-reps", "max_iters", "tol", "recover-eta", "recover-x_min",
        "recover-x_max", "delta_eps-eps",
        "delta_tilde-a", "delta_tilde-eps", "binomial-p", "support_experiment-threshold"]


def _bad_values(rule):
    """2.5, True, a string, least - 1 or both bounds, NaN and inf, where
    each is outside the rule, and for an integer an integral float."""
    if isinstance(rule, int):
        return [2.5, float(rule + 1), True, str(rule), rule - 1, math.nan, math.inf]
    lo, hi = rule
    return [v for v in (2.5, True, "0.5", lo, hi, math.nan, math.inf, -math.inf)
            if not (isinstance(v, float) and lo < v < hi)]


@pytest.mark.parametrize("name, call, rule", _ARGUMENTS, ids=_IDS)
def test_bad_values_raise_domain_error_naming_the_argument(name, call, rule):
    for value in _bad_values(rule):
        with pytest.raises(DomainError, match=f"^{re.escape(name)} must be .*got {name}="):
            call(value)


@pytest.mark.parametrize("name, call, rule", _ARGUMENTS, ids=_IDS)
def test_numpy_scalars_are_accepted(name, call, rule):
    if isinstance(rule, int):
        call(np.int64(max(rule, 3)))
    else:
        call(np.float64(0.5))


@pytest.mark.parametrize("value", [True, "5", math.nan, math.inf, 3.99])
def test_report_a_is_a_real_number_at_least_4(value):
    """concentration_report's A is closed at 4, so it keeps its own check,
    on the same real-number test: a bool or a string is no A."""
    with pytest.raises(DomainError, match=f"^A must be finite and >= 4, got A={re.escape(repr(value))}"):
        concentration_report(8, 1000, 0, A=value)
    concentration_report(8, 1000, 0, A=np.float64(4.0))
