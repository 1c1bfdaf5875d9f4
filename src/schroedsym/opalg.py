"""Exact differential-operator algebra with Laurent-polynomial coefficients.

Operators are finite sums of coefficient polynomials (Laurent in the first
variable, polynomial in the second) times mixed partial derivatives, in
canonical derivatives-rightmost form.  Composition expands by the Leibniz
rule, so commutation tables, Casimir elements, and intertwining relations
are checked coefficient-exactly instead of by sampling.

The first variable is t for the linear family and s = e^{2 k omega t} for
the oscillator family (so 1/sqrt(u) and 1/u become s^{-1}, s^{-2}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import FamilyMismatch, OrderError, ZeroK, ZeroOmega

PRUNE_TOL = 1e-15
EQ_TOL = 1e-13

LINEAR_VARS = "linear"  # (t, x)
QUADRATIC_VARS = "quadratic"  # (s, x)


class LaurentPoly2:
    """Sparse polynomial in two variables; the first exponent may be negative."""

    __slots__ = ("coef",)

    def __init__(self, coef=None):
        self.coef = {}
        if coef:
            for k, v in coef.items():
                if v != 0:
                    self.coef[k] = self.coef.get(k, 0) + v

    @classmethod
    def term(cls, c, i=0, j=0):
        return cls({(i, j): c})

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    def __bool__(self):
        return bool(self.coef)

    def __add__(self, other):
        out = dict(self.coef)
        for k, v in other.coef.items():
            out[k] = out.get(k, 0) + v
        return LaurentPoly2(out)._pruned()

    def __sub__(self, other):
        out = dict(self.coef)
        for k, v in other.coef.items():
            out[k] = out.get(k, 0) - v
        return LaurentPoly2(out)._pruned()

    def __neg__(self):
        return LaurentPoly2({k: -v for k, v in self.coef.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly2):
            if other == 0:
                return LaurentPoly2()
            return LaurentPoly2({k: v * other for k, v in self.coef.items()})
        out = {}
        for (i1, j1), v1 in self.coef.items():
            for (i2, j2), v2 in other.coef.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + v1 * v2
        return LaurentPoly2(out)._pruned()

    __rmul__ = __mul__

    def _pruned(self):
        self.coef = {k: v for k, v in self.coef.items() if abs(v) > PRUNE_TOL}
        return self

    def derive(self, var):
        """d/d(var); var 0 is the Laurent variable, var 1 the polynomial one."""
        out = {}
        for (i, j), v in self.coef.items():
            if var == 0 and i != 0:
                out[(i - 1, j)] = out.get((i - 1, j), 0) + i * v
            elif var == 1 and j != 0:
                out[(i, j - 1)] = out.get((i, j - 1), 0) + j * v
        return LaurentPoly2(out)

    def evaluate(self, v1, v2):
        total = 0.0
        for (i, j), c in self.coef.items():
            term = c
            if i:
                term = term * v1 ** i if i > 0 else term / v1 ** (-i)
            if j:
                term = term * v2 ** j
            total = total + term
        return total

    def max_abs_diff(self, other):
        keys = set(self.coef) | set(other.coef)
        if not keys:
            return 0.0
        return max(abs(self.coef.get(k, 0) - other.coef.get(k, 0)) for k in keys)

    def __repr__(self):
        if not self.coef:
            return "0"
        parts = [f"{v!r}*v1^{i}*v2^{j}" for (i, j), v in sorted(self.coef.items())]
        return " + ".join(parts)


class DiffOp:
    """Finite sum of LaurentPoly2 coefficients times d1^m d2^n."""

    __slots__ = ("family", "terms")

    def __init__(self, family, terms=None):
        self.family = family
        self.terms = {}
        if terms:
            for k, p in terms.items():
                if p:
                    self.terms[k] = self.terms[k] + p if k in self.terms else p

    @classmethod
    def from_poly(cls, family, poly):
        return cls(family, {(0, 0): poly})

    @classmethod
    def monomial(cls, family, c, i=0, j=0, m=0, n=0):
        return cls(family, {(m, n): LaurentPoly2.term(c, i, j)})

    @property
    def order(self):
        """Parabolic order: the largest 2m + n, d1 counting twice."""
        return max((jets.weight(k) for k in self.terms), default=0)

    def _check(self, other):
        if self.family != other.family:
            raise FamilyMismatch(f"{self.family} vs {other.family}")

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return self + DiffOp.from_poly(self.family, LaurentPoly2.const(other))
        self._check(other)
        out = dict(self.terms)
        for k, p in other.terms.items():
            out[k] = out[k] + p if k in out else p
        return DiffOp(self.family, {k: p for k, p in out.items() if p})

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, DiffOp) else -other)

    def __neg__(self):
        return DiffOp(self.family, {k: -p for k, p in self.terms.items()})

    def __mul__(self, scalar):
        return DiffOp(self.family, {k: p * scalar for k, p in self.terms.items()})

    __rmul__ = __mul__

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product via the Leibniz expansion."""
        self._check(other)
        out = {}
        for (m, n), P in self.terms.items():
            for (p, q), Q in other.terms.items():
                # d1^m d2^n (Q ...) -> sum over derivatives hitting Q
                for i in range(m + 1):
                    ci = math.comb(m, i)
                    Qi = Q
                    for _ in range(i):
                        Qi = Qi.derive(0)
                    if not Qi and i < m:
                        continue
                    for j in range(n + 1):
                        cj = math.comb(n, j)
                        Qij = Qi
                        for _ in range(j):
                            Qij = Qij.derive(1)
                        if not Qij:
                            continue
                        key = (m - i + p, n - j + q)
                        contrib = P * Qij * (ci * cj)
                        out[key] = out[key] + contrib if key in out else contrib
        return DiffOp(self.family, {k: v for k, v in out.items() if v})

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def max_abs_diff(self, other: "DiffOp") -> float:
        self._check(other)
        keys = set(self.terms) | set(other.terms)
        empty = LaurentPoly2()
        return max(
            (self.terms.get(k, empty).max_abs_diff(other.terms.get(k, empty)) for k in keys),
            default=0.0,
        )

    def equals(self, other, tol=EQ_TOL) -> bool:
        return self.max_abs_diff(other) <= tol

    def is_zero(self, tol=EQ_TOL) -> bool:
        return all(
            all(abs(v) <= tol for v in p.coef.values()) for p in self.terms.values()
        )

    def apply(self, fn, z):
        """Numeric action on a jet-backed function at a point.

        Linear-family operators differentiate in (t, x).  Oscillator-family
        operators differentiate in (s, x) with s = e^{2 k omega t}; the
        function must be represented in that variable.  The jet is taken
        at the parabolic ``order`` (the largest 2m + n), because jets
        weigh the first variable twice.
        """
        order = self.order
        t = z.t if hasattr(z, "t") else z[0]
        x = z.x1 if hasattr(z, "x1") else z[1]
        if self.family == QUADRATIC_VARS:
            if getattr(fn, "rate", None) is None:
                raise OrderError("function has no exponential-variable jets")
            s = fn.s_of_t(t)
            j = fn.jet_s(s, x, order)
            v1 = s
        else:
            j = fn.jet(t, x, order)
            v1 = t
        total = 0.0
        for (m, n), P in self.terms.items():
            total = total + P.evaluate(v1, x) * j.partial((m, n))
        return total

    def __repr__(self):
        parts = [f"({p!r}) d1^{m} d2^{n}" for (m, n), p in sorted(self.terms.items())]
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
        two_k_bracket = (
            LaurentPoly2.const(1.0 / (2.0 * self.k))
            if self.family == LINEAR_VARS
            else LaurentPoly2.const(2.0 * self.omega)
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
            (self.T1.commutator(self.T2), DiffOp.from_poly(self.family, two_k_bracket)),
        ]
        return max(got.max_abs_diff(want) for got, want in expect)


def _op(family):
    def mono(c, i=0, j=0, m=0, n=0):
        return DiffOp.monomial(family, c, i, j, m, n)

    return mono


def generators_linear(k, alpha, beta) -> GeneratorSet:
    """Symmetry generators of the linear-potential family in (t, x)."""
    if k == 0:
        raise ZeroK("k must be nonzero")
    # numpy scalars, so that an overflow of the algebra raises under
    # numpy's error state (``Check.run``) instead of reading inf
    k, alpha, beta = (np.asarray(v)[()] for v in (k, alpha, beta))
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
    Kop = mono(1.0, 0, 0, 1, 0) - mono(k, 0, 0, 0, 2) + mono(k * alpha) + mono(k * beta, 0, 1)
    D = mono(1.0, 0, 0, 1, 0)
    return GeneratorSet(
        LINEAR_VARS, L3, Lp, Lm, T1, T2, unit,
        L3 - unit, Lp, Lm + mono(2.0, 1, 0), T1, T2,
        Kop, D, k, alpha, beta=beta,
    )


def generators_quadratic(k, alpha, omega) -> GeneratorSet:
    """Symmetry generators of the oscillator family in (s, x), s = e^{2 k omega t}.

    With u = s^2 and d/du = (1/2s) d/ds, the exponential-variable forms
    become Laurent polynomials in s.
    """
    if k == 0:
        raise ZeroK("k must be nonzero")
    if omega == 0:
        raise ZeroOmega("omega must be nonzero")
    k, alpha, omega = (np.asarray(v)[()] for v in (k, alpha, omega))  # as in generators_linear
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
    Kop = D - mono(k, 0, 0, 0, 2) + mono(k * alpha) + mono(k * omega ** 2, 0, 2)
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


def intertwine_check(g: GeneratorSet, kop: DiffOp, tol=EQ_TOL) -> bool:
    """tilde(gen) . K == K . gen for all five generators."""
    if kop.family != g.family:
        raise FamilyMismatch("operator belongs to the other family")
    return all(
        gt.compose(kop).equals(kop.compose(gen), tol) for gt, gen in g.pairs()
    )
