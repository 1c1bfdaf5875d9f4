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

import numpy as np

from .coords import FamilySpec
from .errors import FamilyMismatch, OrderError

EQ_TOL = 1e-13

LINEAR_VARS = "linear"  # (t, x)
QUADRATIC_VARS = "quadratic"  # (s, x)


class DiffOp:
    """Finite sum of terms c s^i x^j d1^m d2^n, held as {(m, n, i, j): c}."""

    __slots__ = ("family", "terms")

    def __init__(self, family, terms=None):
        self.family = family
        self.terms = {k: c for k, c in terms.items() if c != 0} if terms else {}

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
        for negative i, 0 for 0 <= i < a).  Each right-hand term is
        differentiated one derivative at a time, once per (a, b) that some
        left-hand term can take.
        """
        self._check(other)
        top_m = max((m for m, _, _, _ in self.terms), default=0)
        top_n = max((n for _, n, _, _ in self.terms), default=0)
        # derived[a, b]: the right-hand terms after d1^a d2^b hit their coefficients
        derived = {(0, 0): [(*k, c) for k, c in other.terms.items()]}
        for a in range(top_m + 1):
            if a:
                derived[a, 0] = [(p, q, i - 1, j, c * i) for p, q, i, j, c in derived[a - 1, 0] if i]
            for b in range(1, top_n + 1):
                derived[a, b] = [(p, q, i, j - 1, c * j) for p, q, i, j, c in derived[a, b - 1] if j]
        out = {}
        for (m, n, i1, j1), c1 in self.terms.items():
            for a in range(m + 1):
                for b in range(n + 1):
                    w = c1 * (math.comb(m, a) * math.comb(n, b))
                    for p, q, i, j, c in derived[a, b]:
                        key = (m - a + p, n - b + q, i1 + i, j1 + j)
                        out[key] = out.get(key, 0) + w * c
        return DiffOp(self.family, out)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def max_abs_diff(self, other: "DiffOp") -> float:
        self._check(other)
        a, b = self.terms, other.terms
        return max((abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()),
                   default=0.0)

    def equals(self, other) -> bool:
        return self.max_abs_diff(other) <= EQ_TOL

    def is_zero(self) -> bool:
        return all(abs(c) <= EQ_TOL for c in self.terms.values())

    def apply(self, fn, z):
        """Numeric action on a jet-backed function at a ``Point`` z.

        Linear-family operators differentiate in (t, x).  Oscillator-family
        operators differentiate in (s, x) with s = e^{2 k omega t}; the
        function must be represented in that variable.  The jet is taken
        at the parabolic ``order`` (the largest 2m + n), because jets
        weigh the first variable twice.
        """
        order, t, x = self.order, z.t, z.x1
        if self.family == QUADRATIC_VARS:
            if getattr(fn, "rate", None) is None:
                raise OrderError("function has no exponential-variable jets")
            s = fn.s_of_t(t)
            j = fn.jet_s(s, x, order)
            v1 = s
        else:
            j = fn.jet(t, x, order)
            v1 = t
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

    def __repr__(self):
        parts = [f"{c!r}*s^{i}*x^{j} d1^{m} d2^{n}"
                 for (m, n, i, j), c in sorted(self.terms.items())]
        return f"DiffOp[{self.family}]: " + (" + ".join(parts) if parts else "0")


# -- generator sets -------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSet:
    """The six symmetry generators, their conjugated variants, and the
    evolution operator of one potential family."""

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

    def pairs(self):
        """(tilde generator, generator) pairs for the intertwining check."""
        return (
            (self.L3t, self.L3),
            (self.Lplust, self.Lplus),
            (self.Lminust, self.Lminus),
            (self.T1t, self.T1),
            (self.T2t, self.T2),
        )

    def commutator_table_defect(self) -> float:
        """Max coefficient defect over the full bracket table."""
        two_k_bracket = DiffOp.monomial(
            self.family,
            1.0 / (2.0 * self.k) if self.family == LINEAR_VARS else 2.0 * self.omega,
        )
        expect = [
            (self.L3.commutator(self.Lplus), self.Lplus),
            (self.L3.commutator(self.Lminus), -1.0 * self.Lminus),
            (self.Lplus.commutator(self.Lminus), -2.0 * self.L3),
            (self.L3.commutator(self.T1), 0.5 * self.T1),
            (self.L3.commutator(self.T2), -0.5 * self.T2),
            (self.Lplus.commutator(self.T1), 0.0 * self.unit),
            (self.Lminus.commutator(self.T2), 0.0 * self.unit),
            (self.Lplus.commutator(self.T2), self.T1),
            (self.Lminus.commutator(self.T1), -1.0 * self.T2),
            (self.T1.commutator(self.T2), two_k_bracket),
        ]
        return max(got.max_abs_diff(want) for got, want in expect)


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
    """Cubic invariant of the full algebra; a pure constant 3/16."""
    anti = g.T1.compose(g.T2) + g.T2.compose(g.T1)
    tail = g.L3.compose(anti) + g.Lplus.compose(g.T2.compose(g.T2)) + g.Lminus.compose(g.T1.compose(g.T1))
    weight = g.k if g.family == LINEAR_VARS else 1.0 / (4.0 * g.omega)
    return -1.0 * casimir_I2(g) + weight * tail


def intertwine_check(g: GeneratorSet, kop: DiffOp) -> bool:
    """tilde(gen) . K == K . gen for all five generators."""
    if kop.family != g.family:
        raise FamilyMismatch("operator belongs to the other family")
    return all(gt.compose(kop).equals(kop.compose(gen)) for gt, gen in g.pairs())
