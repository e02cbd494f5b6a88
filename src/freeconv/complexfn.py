"""Branch-convention complex square root and the Cauchy transform.

The square root places its branch cut on the non-negative real axis:
sqrt_cut(z) = i sqrt(-z) in numpy's principal root, whose cut is
(-inf, 0] and whose values have Re >= 0.  Negating z moves the cut
[0, inf) onto the principal one, and the factor i turns the right
half-plane into the upper one, so Im sqrt_cut(z) > 0 off the cut: it is
sqrt(r) e^{i phi/2} with phi = arg z in (0, 2pi).  For finite z the
product by i is exact, and numpy's scaled root stays finite up to the
largest float.  Products of square roots are never simplified
algebraically: sqrt(z1 z2) != sqrt(z1) sqrt(z2) in general under this
convention.

The semicircle's G is one closed form in principal roots, _semicircle_g,
shared by cauchy and the subordination solver.  All functions accept
scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchCutError, DomainError
from .measures import Measure

_CUT_TOL = 1e-14


def sqrt_cut(z):
    """Square root with branch cut on [0, inf); Im of the result is > 0.

    It is i sqrt(-z) in principal roots: -z moves the cut [0, inf) onto
    the principal cut (-inf, 0], and i maps the principal root's
    Re > 0 onto Im > 0.  Raises BranchCutError if any input lies within
    1e-14 of the cut.
    """
    z = np.asarray(z, dtype=complex)
    if np.any((np.abs(z.imag) <= _CUT_TOL) & (z.real >= -_CUT_TOL)):
        raise BranchCutError("sqrt_cut evaluated on the [0, inf) branch cut")
    out = 1j * np.sqrt(-z)
    return out if out.ndim else complex(out)


def _semicircle_g(z, variance):
    """Semicircle G at z in C+ for a variance (0 gives 1/z, an array
    broadcasts): 2/(z + sqrt(z - e) sqrt(z + e)), e = 2 sqrt(variance).
    Both principal roots lie in the first quadrant, so Im G < 0 with no cut
    test even at Im z below the rounding of Re z; z -+ e lose nothing near
    the edges, and no z^2 is formed to overflow or cancel."""
    e = 2.0 * np.sqrt(variance)
    return 2.0 / (z + np.sqrt(z - e) * np.sqrt(z + e))


def cauchy(mu: Measure, z):
    """Cauchy transform G_mu(z) = int 1/(z-t) dmu(t) for finite z with
    Im z > 0.

    Atomic measures are summed exactly; a semicircle goes through
    _semicircle_g: principal roots meet no cut at tiny Im z, no z^2 is
    formed to overflow, and z plus a root near z does not cancel.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z) & (z.imag > 0.0)):
        raise DomainError("transform evaluation requires finite z with Im z > 0")
    if mu.kind == "atomic":
        out = np.zeros_like(z)
        for x, w in mu.atoms:
            out += w / (z - x)
    else:
        out = _semicircle_g(z, mu.variance_param)
    return out if out.ndim else complex(out)
