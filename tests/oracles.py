"""Independent reference implementations used only by the tests.

These are deliberately brute-force or closed-form and share no code with
the library: non-crossing-partition sums for free cumulants, the exact
Cauchy transform of the normalized n-fold convolution of a standardized
two-atom measure, and the Levy and Delta_eps distances of two step CDFs
computed from their atoms alone.
"""

import math
from itertools import combinations

import numpy as np


def set_partitions(elements):
    """All partitions of a list, via recursive first-element placement."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def is_noncrossing(partition):
    """Blocks a < b < c < d with a,c in one block and b,d in another cross."""
    for b1, b2 in combinations(partition, 2):
        for a in b1:
            for c in b1:
                for b in b2:
                    for d in b2:
                        if a < b < c < d:
                            return False
    return True


def moments_from_cumulants_nc(kappa, order):
    """m_n = sum over non-crossing partitions of prod kappa_{|block|}."""
    out = [1.0]
    for n in range(1, order + 1):
        total = 0.0
        for part in set_partitions(list(range(n))):
            if is_noncrossing(part):
                total += math.prod(kappa[len(b) - 1] for b in part)
        out.append(total)
    return out


def binomial_convolution_g(p, n, z):
    """Cauchy transform of the normalized n-fold free convolution of the
    standardized two-atom measure with weights (p, 1-p).

    Closed form with skewness parameter r = (p - q) / sqrt(p q); the square
    root is the branch positive for large positive real arguments, continued
    through the upper half-plane.
    """
    z = np.asarray(z, dtype=complex)
    q = 1.0 - p
    r = (p - q) / math.sqrt(p * q)
    s = z + r / math.sqrt(n)
    w = s * s - 4.0 + 4.0 / n
    # principal sqrt with the sign forced into the upper half-plane is the
    # branch whose cut lies along [0, inf)
    root = np.sqrt(w)
    root = np.where(root.imag < 0, -root, root)
    pref = 0.5 / (1.0 - z * (z / n + r / math.sqrt(n)))
    return pref * ((n - 2.0) * z / n - r / math.sqrt(n) - root)


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def step_mass(atoms, lo, hi):
    """Mass of the (position, weight) atoms in the interval (lo, hi]."""
    return sum(w for x, w in atoms if lo < x <= hi)


def levy_steps(f, g):
    """Levy distance of the step CDFs F and G of two atom lists.

    The condition F(x - s) - s <= G(x) <= F(x + s) + s is checked only at
    the breakpoints: both sides are constant between jumps and the CDFs are
    right-continuous, so the worst x on the left is x = x_i + s for an atom
    x_i of F, and on the right x = y_j for an atom y_j of G.  The condition
    at x_i, G(x_i + s) + s >= F(x_i), first holds on some constant piece
    [y_j, y_{j+1}) of G (or before G's first atom, y = -inf), at
    s = max(0, y_j - x_i, F(x_i) - G(y_j)); the distance is the largest of
    these first-hold points over both CDFs' atoms.
    """
    def reach(f, g):
        return max(min(max(0.0, y - x, step_mass(f, -math.inf, x)
                           - step_mass(g, -math.inf, y))
                       for y in [-math.inf] + [y for y, _ in g])
                   for x, _ in f)

    return max(reach(f, g), reach(g, f))


def delta_eps_steps(f, g, eps):
    """sup over x in [-2+eps, 2-eps] of |F(lo, x] - G(lo, x]|, lo = -2+eps,
    for two atom lists: the interval masses change only at atoms, so the
    sup is taken at lo and at every atom in (lo, hi]."""
    lo, hi = -2.0 + eps, 2.0 - eps
    return max(abs(step_mass(f, lo, x) - step_mass(g, lo, x))
               for x in [lo] + [x for x, _ in f + g if lo < x <= hi])
