"""Stieltjes-Perron recovery at height eta and distance functionals.

``recover`` samples density(x) = -(1/pi) Im G(x + i eta) on a uniform grid
that is exactly its own mirror image on a window [-R, R], so a caller that
knows the law is symmetric can solve half of it.  The CDF is a cumulative
trapezoid plus a left-tail correction derived from the 1/z asymptote of G
(for x0 left of the support, the smoothed tail mass is approximately
-(eta/pi) Re G(x0 + i eta)).  Distances compare the
eta-smoothed CDFs of both inputs unless a measure or an analytic CDF is
supplied, in which case that side is exact.  The Kolmogorov, Levy and
Delta_eps distances are exact, in one pass, for the piecewise-linear CDFs
on one comparison grid: the union of the inputs' grids, holding every atom
and its left neighbour, so sups over jumps are exact.  The strip
functional of Bai's smoothing inequality takes each v-integral over [a, 1]
by a 13- and a 14-node Gauss-Legendre rule in the graded variable
v = a^((1-x)/2), which packs the nodes near v = a, next to the real axis;
it returns the 14-node value, and a gap between the two above 1e-9 raises
InversionError.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InversionError, check_between, check_integer
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
        """Parse ``to_csv`` output, skipping other '#' lines such as the CLI's
        config header.  Other text, a value that is not finite or a grid that
        does not increase strictly raises DomainError."""
        lines = text.splitlines()
        meta = next((l[2:] for l in lines if l.startswith("# eta=")), "")
        meta = dict(t.partition("=")[::2] for t in meta.split())
        rows = list(csv.reader(l for l in lines if l and not l.startswith("#")))[1:]
        if not rows or any(len(r) != 3 for r in rows):
            raise DomainError("density CSV needs one or more rows of x,density,cdf")
        try:
            eta, tail_mass = float(meta["eta"]), float(meta["tail_mass"])
            arr = np.array(rows, dtype=float)
        except (KeyError, ValueError) as exc:
            raise DomainError("density CSV needs a '# eta=<eta> tail_mass=<mass>' "
                              f"line and numbers in its rows: {exc!r}") from None
        if not (np.isfinite(arr).all() and math.isfinite(eta + tail_mass)
                and (np.diff(arr[:, 0]) > 0.0).all()):
            raise DomainError("density CSV needs finite values on a strictly increasing grid")
        return GriddedDistribution(grid=arr[:, 0], density=arr[:, 1], cdf=arr[:, 2],
                                   eta=eta, tail_mass=tail_mass)


def recover(g_eval, x_min: float, x_max: float, points: int = DEFAULT_POINTS,
            eta: float = DEFAULT_ETA) -> GriddedDistribution:
    """Recover the eta-smoothed density/CDF of the measure behind g_eval.

    ``g_eval`` maps a complex numpy array in C+ to G values.  The grid is
    c + h t_k, c = (x_min + x_max)/2, h = (x_max - x_min)/2, with
    t_k = (2k - (points - 1))/(points - 1) and its ends set to x_min and
    x_max: t_{points-1-k} = -t_k exactly, so a window [-R, R] gives a grid
    that is its own mirror image bit for bit (0 at the centre of an odd
    count), which np.linspace's does not.  A density dip below -1e-12
    signals a broken transform and raises InversionError.  Ends that are
    not finite real numbers (a bool is none) or not ordered, an eta
    outside (0, inf) and a points that is not an integer >= 2 raise
    DomainError naming the argument.
    """
    check_between("x_min", x_min, -math.inf, math.inf)
    check_between("x_max", x_max, -math.inf, math.inf)
    if not x_min < x_max:
        raise DomainError(f"recover needs finite x_min < x_max, got "
                          f"x_min={x_min!r}, x_max={x_max!r}")
    check_between("eta", eta, 0.0, math.inf)
    check_integer("points", points, 2)
    t = (2.0 * np.arange(points) - (points - 1)) / (points - 1)
    grid = (0.5 * x_min + 0.5 * x_max) + (0.5 * x_max - 0.5 * x_min) * t
    grid[0], grid[-1] = x_min, x_max
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


def _union(*parts):
    """np.union1d of the arrays, without its numpy.ma import (1.8 MiB)."""
    x = np.sort(np.concatenate(parts))
    return x[np.append(True, x[1:] > x[:-1])]


_CDF_WINDOW_TOL = 1e-12  # mass a CDF may leave outside the comparison grid


def _as_cdf_pair(a, b, tails=True):
    """The comparison grid and both CDFs on it, for two inputs: gridded
    distributions, measures, or CDF callables.

    The grid is the union of the gridded inputs' grids; without one it is
    [-R, R] with R the larger support radius (4 for a bare callable, which
    carries none).  Every atom x and its left neighbour nextafter(x, -inf)
    join the grid, so a sup over a step CDF is attained on it.  With
    ``tails`` (the distance reads the mass outside the grid as 0 and 1), a
    measure's or a callable's CDF must be within 1e-12 of 0 and 1 at the
    grid's ends, or DomainError names them.
    """
    gridded = [x.grid for x in (a, b) if isinstance(x, GriddedDistribution)]
    if gridded:
        grid, span = _union(*gridded), "the gridded input's grid"
    else:
        R = max(x.support_radius if isinstance(x, Measure) else 4.0 for x in (a, b))
        grid, span = np.linspace(-R, R, DEFAULT_POINTS), f"[-R, R], R = {R:g}"
    atoms = np.array([x for m in (a, b) if isinstance(m, Measure)
                      and m.kind == "atomic" for x, _ in m.atoms])
    if atoms.size:
        grid = _union(grid, atoms, np.nextafter(atoms, -np.inf))

    def cdf(x, at):
        if isinstance(x, GriddedDistribution):
            return x.cdf_at(at)
        if isinstance(x, Measure):
            return x.cdf(at)
        return np.asarray(x(at), dtype=float)

    for x in (x for x in (a, b) if tails and not isinstance(x, GriddedDistribution)):
        lo, hi = cdf(x, grid[[0, -1]])
        if not (abs(lo) <= _CDF_WINDOW_TOL and abs(hi - 1.0) <= _CDF_WINDOW_TOL):
            what = "a measure's CDF" if isinstance(x, Measure) else "a CDF callable"
            raise DomainError(
                f"{what} must be within {_CDF_WINDOW_TOL:g} of 0 and 1 at "
                f"the ends {grid[0]:g} and {grid[-1]:g} of {span}; it leaves "
                f"{lo:.3e} left of {grid[0]:g} and {1.0 - hi:.3e} right of {grid[-1]:g}")
    return grid, cdf(a, grid), cdf(b, grid)


def kolmogorov(a, b) -> float:
    """sup-norm distance between CDFs on the common grid."""
    _, ca, cb = _as_cdf_pair(a, b)
    return float(np.max(np.abs(ca - cb)))


def _completed_graph(grid, cdf):
    """Vertices (t, y) of the completed graph of the piecewise-linear CDF,
    read along the lines x + y = t, with 0 left of the grid and 1 right of
    it.  A node one ulp left of the next is an atom's left limit: it takes
    the atom's x, so the jump is vertical."""
    jump = np.nextafter(grid[:-1], np.inf) == grid[1:]
    x = np.append(np.where(jump, grid[1:], grid[:-1]), grid[-1])
    return (np.concatenate([[grid[0]], x + cdf, [grid[-1] + 1.0]]),
            np.concatenate([[0.0], cdf, [1.0]]))


def levy(a, b) -> float:
    """Levy distance: the largest gap between the completed graphs of the two
    CDFs along the lines x + y = t, taken at both graphs' vertices, where the
    piecewise-linear gap peaks.  Satisfies d_L <= Delta."""
    grid, ca, cb = _as_cdf_pair(a, b)
    (ta, ya), (tb, yb) = _completed_graph(grid, ca), _completed_graph(grid, cb)
    t = np.concatenate([ta, tb])
    return float(np.max(np.abs(np.interp(t, ta, ya) - np.interp(t, tb, yb))))


def delta_eps(a, b, eps: float) -> float:
    """Interval-probability sup over [-2+eps, 2-eps], anchored at -2+eps,
    taken at the grid nodes inside the window and its two ends."""
    check_between("eps", eps, 0.0, 1.0)
    lo, hi = -2.0 + eps, 2.0 - eps
    # beyond a measure's support its CDF is exactly 0 or 1, as interp clamps
    if any(isinstance(x, GriddedDistribution) and (x.x_min > lo or x.x_max < hi)
           for x in (a, b)):
        raise DomainError("grids must cover [-2+eps, 2-eps]")
    # only interval probabilities inside the window: no tail mass is read
    grid, ca, cb = _as_cdf_pair(a, b, tails=False)
    xs = np.concatenate([[lo], grid[(grid > lo) & (grid < hi)], [hi]])
    d = np.interp(xs, grid, ca) - np.interp(xs, grid, cb)
    return float(np.max(np.abs(d - d[0])))


def delta_tilde(g_a, g_b, a: float, eps: float, u_points: int = 801) -> float:
    """Strip functional: sup_u int_a^1 |G_a - G_b| dv + a + eps^{3/2}, over
    u_points u in [-2 + eps/2, 2 - eps/2].  Each v-integral is the 14-node
    graded Gauss-Legendre value, so G_a and G_b are each called at 27 scalar
    points per u; when the 13-node value differs from it by more than
    _QUAD_TOL, or either is not finite, InversionError names u."""
    check_between("a", a, 0.0, 1.0)
    check_between("eps", eps, 0.0, 1.0)
    check_integer("u_points", u_points, 1)
    rules = []
    for k in (13, 14):  # Gauss-Legendre in v = a^((1-x)/2): dv = v ln(1/a)/2 dx
        x, w = np.polynomial.legendre.leggauss(k)
        v = a ** ((1.0 - x) / 2.0)
        rules.append((v.tolist(), w * v * (math.log(1.0 / a) / 2.0)))

    sup = 0.0
    for u in np.linspace(-2.0 + eps / 2.0, 2.0 - eps / 2.0, u_points):
        lo, hi = (float(w @ [abs(complex(g_a(u + 1j * t)) - complex(g_b(u + 1j * t)))
                             for t in v]) for v, w in rules)
        if not abs(hi - lo) <= _QUAD_TOL:  # NaN fails too
            raise InversionError(f"quadrature at u={u:.17g} missed its {_QUAD_TOL:g} "
                                 f"tolerance: error estimate {abs(hi - lo):.3e}")
        sup = max(sup, hi)
    return sup + a + eps**1.5
