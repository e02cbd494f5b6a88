"""Stieltjes-Perron recovery at height eta and distance functionals.

``recover`` samples density(x) = -(1/pi) Im G(x + i eta) on a uniform grid;
the CDF is a cumulative trapezoid plus a left-tail correction derived from
the 1/z asymptote of G (for x0 left of the support, the smoothed tail mass
is approximately -(eta/pi) Re G(x0 + i eta)).  Distances compare the
eta-smoothed CDFs of both inputs unless a measure or an analytic CDF is
supplied, in which case that side is exact; the comparison grid holds
every atom and its left neighbour, so sups over jumps are exact.  The
strip functional of Bai's smoothing inequality and its line integral are
QUADPACK integrals (scipy.integrate.quad) to a 1e-9 absolute tolerance; a
missed tolerance raises InversionError.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InversionError
from .measures import Measure

DEFAULT_ETA = 1e-3
DEFAULT_POINTS = 4001
_NEG_DENSITY_TOL = -1e-12
_QUAD_TOL = 1e-9


def csv_table(header, rows) -> str:
    """The one table format: CSV text with floats, numpy floats included,
    printed as %.17g and every other value as is."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(["%.17g" % v if isinstance(v, float) else v for v in row]
                for row in rows)
    return buf.getvalue()


@dataclass(frozen=True)
class GriddedDistribution:
    grid: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    eta: float
    tail_mass: float

    @property
    def x_min(self) -> float:
        return float(self.grid[0])

    @property
    def x_max(self) -> float:
        return float(self.grid[-1])

    def cdf_at(self, x):
        """Linear interpolation of the CDF, constant beyond the window."""
        return np.interp(x, self.grid, self.cdf)

    def to_csv(self) -> str:
        return (f"# eta={self.eta:.17g} tail_mass={self.tail_mass:.17g}\n"
                + csv_table(["x", "density", "cdf"],
                            zip(self.grid, self.density, self.cdf)))

    @staticmethod
    def from_csv(text: str) -> "GriddedDistribution":
        """Parse ``to_csv`` output; other '#' lines, such as the config
        header the CLI writes first, are skipped."""
        lines = text.splitlines()
        meta = next((l for l in lines if l.startswith("# eta=")), None)
        if meta is None:
            raise DomainError("density CSV has no '# eta=' line")
        meta = {k: float(v) for k, v in (t.split("=") for t in meta[2:].split())}
        body = [l for l in lines if l and not l.startswith("#")][1:]
        arr = np.array([[float(v) for v in r] for r in csv.reader(body)])
        return GriddedDistribution(grid=arr[:, 0], density=arr[:, 1], cdf=arr[:, 2],
                                   eta=meta["eta"], tail_mass=meta["tail_mass"])


def recover(g_eval, x_min: float, x_max: float, points: int = DEFAULT_POINTS,
            eta: float = DEFAULT_ETA) -> GriddedDistribution:
    """Recover the eta-smoothed density/CDF of the measure behind g_eval.

    ``g_eval`` maps a complex numpy array in C+ to G values.  A density dip
    below -1e-12 signals a broken transform and raises InversionError.
    """
    if not (x_min < x_max and eta > 0 and points >= 2):
        raise DomainError("recover requires x_min < x_max, eta > 0, points >= 2")
    grid = np.linspace(x_min, x_max, points)
    g = np.asarray(g_eval(grid + 1j * eta), dtype=complex)
    density = -g.imag / math.pi
    if np.min(density) < _NEG_DENSITY_TOL:
        raise InversionError(
            f"recovered density dips to {np.min(density):.3e} below -1e-12")
    density = np.maximum(density, 0.0)

    dx = grid[1] - grid[0]
    inner = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * dx)])
    left_tail = max(0.0, -(eta / math.pi) * float(g[0].real))
    tail_mass = max(0.0, 1.0 - float(inner[-1]))
    cdf = np.clip(inner + left_tail, 0.0, 1.0)
    return GriddedDistribution(grid=grid, density=density, cdf=cdf,
                               eta=eta, tail_mass=tail_mass)


def _as_cdf_pair(a, b):
    """Common-grid CDF arrays for two inputs: gridded distributions,
    measures, or CDF callables.

    Two gridded inputs share a uniform grid over both windows; one gridded
    input lends its grid; otherwise the grid is [-R, R] with R the larger
    support radius (4 for a bare callable, which carries none).  Every atom
    x and its left neighbour nextafter(x, -inf) join the grid, so a sup over
    a step CDF is attained on it.
    """
    gridded = [x for x in (a, b) if isinstance(x, GriddedDistribution)]
    if len(gridded) == 2:
        lo = min(a.x_min, b.x_min)
        hi = max(a.x_max, b.x_max)
        grid = np.linspace(lo, hi, max(a.grid.size, b.grid.size))
    elif gridded:
        grid = gridded[0].grid
    else:
        R = max(x.support_radius if isinstance(x, Measure) else 4.0 for x in (a, b))
        grid = np.linspace(-R, R, DEFAULT_POINTS)
    atoms = np.array([x for m in (a, b) if isinstance(m, Measure)
                      and m.kind == "atomic" for x, _ in m.atoms])
    if atoms.size:
        grid = np.union1d(grid, np.concatenate([atoms, np.nextafter(atoms, -np.inf)]))

    def cdf(x):
        if isinstance(x, GriddedDistribution):
            return x.cdf_at(grid)
        if isinstance(x, Measure):
            return x.cdf(grid)
        return np.asarray(x(grid), dtype=float)

    return grid, cdf(a), cdf(b)


def kolmogorov(a, b) -> float:
    """sup-norm distance between CDFs on the common grid."""
    _, ca, cb = _as_cdf_pair(a, b)
    return float(np.max(np.abs(ca - cb)))


def levy(a, b) -> float:
    """Levy distance by bisection over the grid CDFs; satisfies d_L <= Delta."""
    grid, ca, cb = _as_cdf_pair(a, b)

    def ok(s: float) -> bool:
        left = np.interp(grid - s, grid, ca, left=0.0, right=1.0) - s
        right = np.interp(grid + s, grid, ca, left=0.0, right=1.0) + s
        return bool(np.all(left <= cb + 1e-15) and np.all(cb <= right + 1e-15))

    lo, hi = 0.0, float(np.max(np.abs(ca - cb)))
    if ok(lo):
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def delta_eps(a, b, eps: float) -> float:
    """Interval-probability sup over [-2+eps, 2-eps], anchored at -2+eps."""
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must be in (0, 1)")
    grid, ca, cb = _as_cdf_pair(a, b)
    lo, hi = -2.0 + eps, 2.0 - eps
    # beyond a measure's support its CDF is exactly 0 or 1, as interp clamps
    if any(isinstance(x, GriddedDistribution) for x in (a, b)) and (
            grid[0] > lo or grid[-1] < hi):
        raise DomainError("grids must cover [-2+eps, 2-eps]")
    xs = np.linspace(lo, hi, 1601)
    fa = np.interp(xs, grid, ca) - np.interp(lo, grid, ca)
    fb = np.interp(xs, grid, cb) - np.interp(lo, grid, cb)
    return float(np.max(np.abs(fa - fb)))


def _integral(f, lo: float, hi: float, where: str) -> float:
    """QUADPACK integral of f over [lo, hi] (either end may be infinite) to
    the absolute tolerance _QUAD_TOL; raises InversionError naming ``where``
    when quad reports that it missed the tolerance."""
    from scipy.integrate import quad  # deferred: scipy.integrate is slow to import

    val, err, _, *warning = quad(f, lo, hi, epsabs=_QUAD_TOL, epsrel=0.0,
                                 full_output=1)
    if warning:
        raise InversionError(f"quadrature at {where} missed its {_QUAD_TOL:g} "
                             f"tolerance: error estimate {err:.3e}")
    return val


def delta_tilde(g_a, g_b, a: float, eps: float, u_points: int = 801) -> float:
    """Strip functional: sup_u int_a^1 |G_a - G_b| dv + a + eps^{3/2}."""
    if not (0.0 < a < 1.0):
        raise DomainError("a must be in (0, 1)")
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must be in (0, 1)")
    us = np.linspace(-2.0 + eps / 2.0, 2.0 - eps / 2.0, u_points)
    sup = 0.0
    for u in us:
        val = _integral(
            lambda v: abs(complex(g_a(u + 1j * v)) - complex(g_b(u + 1j * v))),
            a, 1.0, f"u={u:.17g}")
        sup = max(sup, val)
    return sup + a + eps**1.5


def bai_integrals(g_a, g_b, a: float, eps: float,
                  u_points: int = 801) -> tuple[float, float]:
    """The two integrals of Bai's smoothing inequality (diagnostic only).

    Returns (integral of |G_a - G_b| along the whole line Im z = 1, sup over
    I_eps of the strip integral).
    """
    line = _integral(lambda u: abs(complex(g_a(u + 1j)) - complex(g_b(u + 1j))),
                     -math.inf, math.inf, "the line Im z = 1")
    strip = delta_tilde(g_a, g_b, a, eps, u_points=u_points) - a - eps**1.5
    return line, strip
