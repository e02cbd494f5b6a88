"""Branch-convention complex square root and the Cauchy/F transform zoo.

The square root places its branch cut on the non-negative real axis:
sqrt(r e^{i phi}) = sqrt(r) e^{i phi/2} with phi = arg z in (0, 2pi), so the
imaginary part of the result is always positive.  Equivalently, for
z = u + iv,

    Re = sgn(v) sqrt((sqrt(u^2+v^2) + u)/2),   Im = sqrt((sqrt(u^2+v^2) - u)/2)

with the convention sgn(0) = +1.  Products of square roots are never
simplified algebraically: sqrt(z1 z2) != sqrt(z1) sqrt(z2) in general under
this convention.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchCutError, DomainError
from .measures import Measure

_CUT_TOL = 1e-14


def sqrt_cut(z):
    """Square root with branch cut on [0, inf); Im of the result is > 0.

    Raises BranchCutError if any input lies within 1e-14 of the cut.
    """
    z = np.asarray(z, dtype=complex)
    u = z.real
    v = z.imag
    on_cut = (np.abs(v) <= _CUT_TOL) & (u >= -_CUT_TOL)
    if np.any(on_cut):
        raise BranchCutError("sqrt_cut evaluated on the [0, inf) branch cut")
    r = np.hypot(u, v)
    sgn = np.where(v >= 0.0, 1.0, -1.0)  # sgn(0) = +1
    # the larger component from the formula above, the other from
    # re * im = v / 2, so that r + u (or r - u) never cancels
    big = np.sqrt(0.5 * (r + np.abs(u)))
    with np.errstate(divide="ignore", invalid="ignore"):
        small = 0.5 * v / big
    out = np.where(u >= 0.0, sgn * big + 1j * np.abs(small), small + 1j * big)
    return out if out.ndim else complex(out)


def _check_upper(z):
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0.0):
        raise DomainError("transform evaluation requires Im z > 0")
    return z


def cauchy(mu: Measure, z):
    """Cauchy transform G_mu(z) = int 1/(z-t) dmu(t) for Im z > 0.

    Atomic measures are summed exactly; Semicircle(c) uses the closed form
    G(z) = G_w(z/sqrt(c))/sqrt(c) with G_w(z) = (z - sqrt_cut(z^2-4))/2,
    evaluated as 2/(z + sqrt_cut(z^2-4)) (the same root: the product of the
    two denominators is 4) so that large |z| does not cancel.
    """
    z = _check_upper(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if mu.kind == "atomic":
        out = np.zeros_like(z)
        for x, w in mu.atoms:
            out += w / (z - x)
    else:
        s = np.sqrt(mu.variance_param)
        w = z / s
        out = 2.0 / (s * (w + sqrt_cut(w * w - 4.0)))
    return complex(out[0]) if scalar else out
