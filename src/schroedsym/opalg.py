"""Exact differential-operator algebra with Laurent-polynomial coefficients.

An operator is one table ``{(m, n, i, j): c}`` of terms
``c s^i x^j d1^m d2^n`` in canonical derivatives-rightmost form (the power
i of the first variable may be negative).  Composition expands by the
Leibniz rule in closed form on that table, so commutation tables, Casimir
elements, and intertwining relations are checked coefficient-exactly
instead of by sampling.  Only coefficients that are exactly zero are
dropped.

The first variable s is t for the linear family and e^{2 k omega t} for
the oscillator family (so 1/sqrt(u) and 1/u become s^{-1}, s^{-2}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coords import FamilySpec
from .errors import FamilyMismatch, OrderError

LINEAR_VARS = "linear"  # (t, x)
QUADRATIC_VARS = "quadratic"  # (s, x)


class DiffOp:
    """Finite sum of terms c s^i x^j d1^m d2^n, held as {(m, n, i, j): c}."""

    __slots__ = ("family", "terms", "_tables")

    def __init__(self, family, terms=None):
        self.family = family
        self.terms = {k: c for k, c in terms.items() if c != 0} if terms else {}
        self._tables = {}  # of _derived

    @classmethod
    def from_poly(cls, family, poly):
        """The multiplication operator by the polynomial {(i, j): c}."""
        return cls(family, {(0, 0, i, j): c for (i, j), c in poly.items()})

    @classmethod
    def monomial(cls, family, c, i=0, j=0, m=0, n=0):
        return cls(family, {(m, n, i, j): c})

    @property
    def order(self):
        """Parabolic order: the largest 2m + n, d1 counting twice."""
        return max((2 * m + n for m, n, _, _ in self.terms), default=0)

    def _check(self, other):
        if self.family != other.family:
            raise FamilyMismatch(f"{self.family} vs {other.family}")

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return self + DiffOp.monomial(self.family, other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return DiffOp(self.family, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DiffOp(self.family, {k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        return DiffOp(self.family, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product via the Leibniz expansion.

        d1^m d2^n . (c s^i x^j d1^p d2^q) is the sum over a <= m, b <= n of
        C(m, a) C(n, b) i^(a) j^(b) c s^(i-a) x^(j-b) d1^(m-a+p) d2^(n-b+q),
        with i^(a) = i (i - 1) ... (i - a + 1) the falling factorial (exact
        for negative i, 0 for 0 <= i < a).  The right-hand terms after
        d1^a d2^b hit their coefficients are ``other``'s table of (a, b),
        built once per operand (``_derived``), however often it is composed.
        """
        self._check(other)
        out = {}
        for (m, n, i1, j1), c1 in self.terms.items():
            for a in range(m + 1):
                for b in range(n + 1):
                    w = c1 * (math.comb(m, a) * math.comb(n, b))
                    for p, q, i, j, c in other._derived(a, b):
                        key = (m - a + p, n - b + q, i1 + i, j1 + j)
                        out[key] = out.get(key, 0) + w * c
        return DiffOp(self.family, out)

    def _derived(self, a, b):
        """The terms (p, q, i, j, c) after d1^a d2^b hit their coefficients,
        one derivative at a time: built on first use and kept, since nothing
        writes ``terms``."""
        if (a, b) not in self._tables:
            self._tables[a, b] = (
                [(p, q, i, j - 1, c * j) for p, q, i, j, c in self._derived(a, b - 1) if j] if b
                else [(p, q, i - 1, j, c * i) for p, q, i, j, c in self._derived(a - 1, 0) if i] if a
                else [(*k, c) for k, c in self.terms.items()])
        return self._tables[a, b]

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def max_abs_diff(self, other: "DiffOp") -> float:
        """The largest |coefficient difference| (0.0 for none), or NaN as
        soon as one is NaN: ``max`` would drop it, so that the verdict
        would depend on the order of the terms."""
        self._check(other)
        a, b = self.terms, other.terms
        diffs = [abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()]
        return math.nan if any(map(math.isnan, diffs)) else max(diffs, default=0.0)

    def jet(self, fn, z, order):
        """``(jet, v1)``: the jet of ``order`` of a jet-backed function at a
        ``Point`` z in this family's variables, (t, x) or (s, x) with
        s = e^{2 k omega t}, in which the function must then be represented,
        and v1, t or s, at z.  ``on_jet`` reads it for any operator of at
        most that parabolic ``order``."""
        if self.family == QUADRATIC_VARS:
            if getattr(fn, "rate", None) is None:
                raise OrderError("function has no exponential-variable jets")
            s = fn.s_of_t(z.t)
            return fn.jet_s(s, z.x1, order), s
        return fn.jet(z.t, z.x1, order), z.t

    def on_jet(self, j, v1, x):
        """Numeric action on a function's ``jet`` ``(j, v1)`` at x."""
        coefs = {}
        for (m, n, i, jx), c in self.terms.items():
            term = c
            if i:
                term = term * v1 ** i if i > 0 else term / v1 ** (-i)
            if jx:
                term = term * x ** jx
            coefs[m, n] = coefs.get((m, n), 0.0) + term
        total = 0.0
        for mn, coef in coefs.items():
            total = total + coef * j.partial(mn)
        return total

    def apply(self, fn, z):
        """Numeric action on a jet-backed function at a ``Point`` z."""
        return self.on_jet(*self.jet(fn, z, self.order), z.x1)

    def __repr__(self):
        parts = [f"{c!r}*s^{i}*x^{j} d1^{m} d2^{n}"
                 for (m, n, i, j), c in sorted(self.terms.items())]
        return f"DiffOp[{self.family}]: " + (" + ".join(parts) if parts else "0")


# -- generator sets -------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSet:
    """The six symmetry generators, their conjugated variants, and the
    evolution operator of one potential family; its Casimirs ``i2`` and
    ``i3`` are built on first use."""

    family: str
    L3: DiffOp
    Lplus: DiffOp
    Lminus: DiffOp
    T1: DiffOp
    T2: DiffOp
    unit: DiffOp
    L3t: DiffOp
    Lplust: DiffOp
    Lminust: DiffOp
    T1t: DiffOp
    T2t: DiffOp
    Kop: DiffOp
    D: DiffOp
    k: complex
    alpha: float
    beta: float = 0.0
    omega: complex = 0.0
    i2 = cached_property(lambda g: casimir_I2(g))
    i3 = cached_property(lambda g: casimir_I3(g))


def _op(family):
    def mono(c, i=0, j=0, m=0, n=0):
        return DiffOp.monomial(family, c, i, j, m, n)

    return mono


def _evolution(D, k, spec: FamilySpec):
    """The evolution operator D - k d2^2 + k V of ``spec``'s potential V,
    with D the time derivative in the variables of D's family."""
    return (D - DiffOp.monomial(D.family, k, n=2)
            + k * DiffOp.from_poly(D.family, {(0, p): c for p, c in spec.potential.items()}))


def generators_linear(spec: FamilySpec) -> GeneratorSet:
    """Symmetry generators of the linear-potential family in (t, x)."""
    # numpy scalars, so that an overflow of the algebra raises under
    # numpy's error state (``Check.run``) instead of reading inf
    k, alpha, beta = (np.asarray(v)[()] for v in (spec.k, spec.alpha, spec.beta))
    mono = _op(LINEAR_VARS)
    k2b = k * k * beta
    k3b2 = k ** 3 * beta ** 2
    L3 = -1.0 * (
        mono(1.0, 1, 0, 1, 0)
        + mono(0.5, 0, 1, 0, 1) + mono(1.5 * k2b, 2, 0, 0, 1)
        + mono(k * alpha, 1, 0) + mono(1.5 * k * beta, 1, 1)
        + mono(0.5 * k3b2, 3, 0) + mono(0.25)
    )
    Lp = (
        mono(1.0, 0, 0, 1, 0)
        + mono(2.0 * k2b, 1, 0, 0, 1)
        + mono(k * alpha) + mono(k * beta, 0, 1) + mono(k3b2, 2, 0)
    )
    Lm = (
        mono(1.0, 2, 0, 1, 0)
        + mono(1.0, 1, 1, 0, 1) + mono(k2b, 3, 0, 0, 1)
        + mono(0.5, 1, 0) + mono(alpha * k, 2, 0)
        + mono(0.25 * k3b2, 4, 0) + mono(1.5 * k * beta, 2, 1)
        + mono(0.25 / k, 0, 2)
    )
    T1 = mono(1.0, 0, 0, 0, 1) + mono(k * beta, 1, 0)
    T2 = mono(1.0, 1, 0, 0, 1) + mono(0.5 / k, 0, 1) + mono(0.5 * k * beta, 2, 0)
    unit = mono(1.0)
    D = mono(1.0, 0, 0, 1, 0)
    Kop = _evolution(D, k, spec)
    return GeneratorSet(
        LINEAR_VARS, L3, Lp, Lm, T1, T2, unit,
        L3 - unit, Lp, Lm + mono(2.0, 1, 0), T1, T2,
        Kop, D, k, alpha, beta=beta,
    )


def generators_quadratic(spec: FamilySpec) -> GeneratorSet:
    """Symmetry generators of the oscillator family in (s, x), s = e^{2 k omega t}.

    With u = s^2 and d/du = (1/2s) d/ds, the exponential-variable forms
    become Laurent polynomials in s.
    """
    # numpy scalars, as in generators_linear
    k, alpha, omega = (np.asarray(v)[()] for v in (spec.k, spec.alpha, spec.omega))
    mono = _op(QUADRATIC_VARS)
    a4w = alpha / (4.0 * omega)
    L3 = -1.0 * (mono(0.5, 1, 0, 1, 0) + mono(a4w))
    Lp = (
        mono(0.5, -1, 0, 1, 0)
        - mono(0.5, -2, 1, 0, 1)
        + mono(a4w - 0.25, -2, 0)
        + mono(0.5 * omega, -2, 2)
    )
    Lm = (
        mono(0.5, 3, 0, 1, 0)
        + mono(0.5, 2, 1, 0, 1)
        + mono(a4w + 0.25, 2, 0)
        + mono(0.5 * omega, 2, 2)
    )
    T1 = mono(1.0, -1, 0, 0, 1) - mono(omega, -1, 1)
    T2 = mono(1.0, 1, 0, 0, 1) + mono(omega, 1, 1)
    unit = mono(1.0)
    # d/dt = 2 k omega s d/ds
    D = mono(2.0 * k * omega, 1, 0, 1, 0)
    Kop = _evolution(D, k, spec)
    return GeneratorSet(
        QUADRATIC_VARS, L3, Lp, Lm, T1, T2, unit,
        L3, Lp - mono(1.0, -2, 0), Lm + mono(1.0, 2, 0), T1, T2,
        Kop, D, k, alpha, omega=omega,
    )


def casimir_I2(g: GeneratorSet) -> DiffOp:
    """Quadratic invariant of the fractional-linear subalgebra."""
    return g.Lplus.compose(g.Lminus) - g.L3.compose(g.L3) + g.L3


def casimir_I3(g: GeneratorSet) -> DiffOp:
    """Cubic invariant of the full algebra, from its quadratic one
    ``g.i2``; a pure constant 3/16."""
    anti = g.T1.compose(g.T2) + g.T2.compose(g.T1)
    tail = g.L3.compose(anti) + g.Lplus.compose(g.T2.compose(g.T2)) + g.Lminus.compose(g.T1.compose(g.T1))
    weight = g.k if g.family == LINEAR_VARS else 1.0 / (4.0 * g.omega)
    return -1.0 * g.i2 + weight * tail
