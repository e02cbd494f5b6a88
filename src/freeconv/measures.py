"""Probability measures: finite atomic laws and the semicircle family.

Measures are immutable after construction; every operation here is pure.
The atomic representation keeps positions strictly increasing with strictly
positive weights that sum to one (validated at construction, assumed
everywhere downstream).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMeasureError, DomainError, check_between, check_integer

_WEIGHT_SUM_TOL = 1e-12


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


@dataclass(frozen=True)
class Measure:
    """Tagged probability measure: atomic (finite support) or semicircle.

    Atomic measures carry ``atoms`` as a tuple of (position, weight) pairs
    sorted by position, semicircle measures only their variance; every
    construction, a bare ``Measure(...)`` too, validates the fields.
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] = field(default=())
    variance_param: float = 0.0

    def __post_init__(self):
        atoms, ok = self.atoms, type(self.atoms) is tuple
        if self.kind == "semicircle":
            ok = ok and not atoms and 0.0 < self.variance_param < math.inf
        else:
            ok = (ok and self.kind == "atomic" and self.variance_param == 0.0
                  and len(atoms) > 0)
            prev, total = -math.inf, 0.0
            for a in atoms if ok else ():
                if not (type(a) is tuple and len(a) == 2
                        and prev < a[0] < math.inf and 0.0 < a[1] < math.inf):
                    ok = False
                    break
                prev = a[0]
                total += a[1]
            ok = ok and abs(total - 1.0) <= _WEIGHT_SUM_TOL
        if not ok:
            raise DomainError(f"invalid measure: kind={self.kind!r}, atoms={atoms!r}, "
                              f"variance_param={self.variance_param!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def atomic(positions, weights) -> "Measure":
        pairs = sorted(zip(map(float, positions), map(float, weights)))
        merged: list[tuple[float, float]] = []
        for x, w in pairs:
            if not 0.0 < w < math.inf:
                raise DomainError(f"atom weight must be positive and finite, got {w}")
            if merged and x == merged[-1][0]:
                x, w0 = merged.pop()  # keeps the first x: 0.0 == -0.0
                w += w0
            merged.append((x, w))
        return Measure(kind="atomic", atoms=tuple(merged))

    @staticmethod
    def semicircle(variance: float) -> "Measure":
        return Measure(kind="semicircle", variance_param=float(variance))

    @staticmethod
    def point(a: float) -> "Measure":
        return Measure.atomic([a], [1.0])

    @staticmethod
    def bernoulli() -> "Measure":
        """Symmetric two-point law at +-1: mean 0, variance 1."""
        return Measure.atomic([-1.0, 1.0], [0.5, 0.5])

    @staticmethod
    def binomial(p: float) -> "Measure":
        """Two-point law with atom sqrt(q/p) of weight p and -sqrt(p/q) of weight q.

        Standardized (mean 0, variance 1) for every p in (0, 1); p = 1/2
        recovers the Bernoulli law.
        """
        check_between("p", p, 0.0, 1.0)
        q = 1.0 - p
        return Measure.atomic(
            [-math.sqrt(p / q), math.sqrt(q / p)], [q, p]
        )

    # -- basic statistics --------------------------------------------------

    def moment(self, order: int) -> float:
        """Raw moment of an integer order >= 1; exact for atoms, closed form
        for the semicircle."""
        check_integer("order", order, 1)
        if self.kind == "atomic":
            return sum(w * x**order for x, w in self.atoms)
        if order % 2 == 1:
            return 0.0
        return self.variance_param ** (order // 2) * _catalan(order // 2)

    @property
    def mean(self) -> float:
        return self.moment(1)

    @property
    def var(self) -> float:
        m1 = self.mean
        return self.moment(2) - m1 * m1

    @property
    def support_radius(self) -> float:
        """Smallest L with support contained in [-L, L]."""
        if self.kind == "atomic":
            return max(abs(x) for x, _ in self.atoms)
        return 2.0 * math.sqrt(self.variance_param)

    def cdf(self, x):
        """CDF at the points x: a step function with right-continuous jumps
        for atomic measures, the scaled semicircle CDF otherwise."""
        x = np.asarray(x, dtype=float)
        if self.kind == "atomic":
            xs = np.array([p for p, _ in self.atoms])
            cum = np.concatenate([[0.0], np.cumsum([w for _, w in self.atoms])])
            return cum[np.searchsorted(xs, x, side="right")]
        return semicircle_cdf(x / math.sqrt(self.variance_param))

    # -- transformations ---------------------------------------------------

    def scale(self, c: float) -> "Measure":
        """Signed dilation x -> c*x; semicircle variance scales by c^2, and
        c = 0, or a c^2 variance that underflows to 0, collapses to the
        point mass at 0."""
        if c == 0.0:
            return Measure.point(0.0)
        if self.kind == "semicircle":
            v = c * c * self.variance_param
            return Measure.point(0.0) if v == 0.0 else Measure.semicircle(v)
        return Measure.atomic([c * x for x, _ in self.atoms],
                              [w for _, w in self.atoms])

    def shift(self, a: float) -> "Measure":
        if self.kind != "atomic":
            raise DomainError("shift is only defined for atomic measures here")
        return Measure.atomic([x + a for x, _ in self.atoms],
                              [w for _, w in self.atoms])

    def standardize(self) -> "Measure":
        """Center and scale to mean 0, variance 1."""
        if self.kind == "semicircle":
            return Measure.semicircle(1.0)
        v = self.var
        if v <= 0.0:
            raise DegenerateMeasureError("cannot standardize a zero-variance measure")
        return self.shift(-self.mean).scale(1.0 / math.sqrt(v))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        if self.kind == "atomic":
            return json.dumps({"kind": "atomic",
                               "atoms": [{"x": x, "w": w} for x, w in self.atoms]})
        return json.dumps({"kind": "semicircle", "variance": self.variance_param})

    @staticmethod
    def from_json(s: str) -> "Measure":
        """Parse ``to_json`` output; text that is not JSON, or JSON of
        another shape, raises DomainError."""
        def field(obj, key, kind):  # obj[key], where a JSON object holds a kind
            if not (isinstance(obj, dict) and isinstance(obj.get(key), kind)):
                raise DomainError(f"a measure's JSON needs a {kind.__name__} "
                                  f"{key!r} in {obj!r:.80}")
            return obj[key]

        try:
            d = json.loads(s, parse_int=float)  # so that every number is a float
        except json.JSONDecodeError as exc:
            raise DomainError(f"a measure's JSON does not parse: {exc}") from None
        kind = field(d, "kind", str)
        if kind == "atomic":
            atoms = field(d, "atoms", list)
            return Measure.atomic([field(a, "x", float) for a in atoms],
                                  [field(a, "w", float) for a in atoms])
        if kind == "semicircle":
            return Measure.semicircle(field(d, "variance", float))
        raise DomainError(f"unknown measure kind {kind!r}")

    @staticmethod
    def from_preset(name: str) -> "Measure":
        """Parse a preset spec: bernoulli, binomial:<p>, semicircle[:<c>]."""
        kind, colon, arg = name.partition(":")
        if name in ("bernoulli", "semicircle"):
            return Measure.bernoulli() if name == "bernoulli" else Measure.semicircle(1.0)
        if colon and kind in ("binomial", "semicircle"):
            try:
                value = float(arg)
            except ValueError:
                raise DomainError(f"measure preset {name!r} needs a number after ':'") from None
            return getattr(Measure, kind)(value)  # the constructor of that name
        raise DomainError(f"unknown measure preset {name!r}")


def semicircle_density(x):
    """Density of the variance-1 semicircle law, sqrt(4-x^2)/(2 pi) on [-2,2]."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 2.0
    out[inside] = np.sqrt(4.0 - x[inside] ** 2) / (2.0 * math.pi)
    return out if out.ndim else float(out)


def semicircle_cdf(x):
    """CDF of the variance-1 semicircle law, clamped to [0, 1]."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -2.0, 2.0)
    val = 0.5 + xc * np.sqrt(4.0 - xc**2) / (4.0 * math.pi) + np.arcsin(xc / 2.0) / math.pi
    val = np.clip(val, 0.0, 1.0)
    return val if val.ndim else float(val)


def arcsine_cdf(x):
    """CDF of the arcsine law on [-2, 2] (Bernoulli + Bernoulli, free)."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -2.0, 2.0)
    val = 0.5 + np.arcsin(xc / 2.0) / math.pi
    return val if val.ndim else float(val)
