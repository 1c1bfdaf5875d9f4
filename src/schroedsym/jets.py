"""Truncated multivariate Taylor (jet) arithmetic.

A ``Jet`` stores the Taylor coefficients of a scalar function at a point,
keyed by exponent tuples.  Coefficients may be plain scalars or numpy
arrays, so one jet evaluation can cover an entire sampling grid at once.
All branchy functions (``exp``, ``log``, ``sqrt``, complex powers) use
principal branches on the constant term and nilpotent series for the
rest, which is exactly the chain rule.

Real data stays real.  A coefficient is float64 unless a complex value
enters it: a complex input or constant (imaginary k, a plane-wave or
theta phase), or a branch function (``log``, ``sqrt``, ``cpow``) whose
argument leaves [0, inf), which then gives the principal-branch complex
value for the whole array.  These are ``numpy.emath``'s semantics, used
alike for jets and plain arrays, so the jet and array paths agree.

Truncation is by parabolic weight: variable 0 is time and counts twice,
so the exponent ``k`` weighs ``2 k[0] + k[1] + ...`` and a jet of order N
keeps the exponents of weight <= N.  At order 2 that is psi, psi_t, the
first space partials and the second space partials: exactly what the
operator d/dt - k Delta + k V reads.  The kept exponents form a lower set
and every product adds weights, so a dropped term never feeds a kept
one.  ``compose`` stays exact as long as the new time depends on time
only, which every frame of the symmetry group satisfies (t' is a
fractional-linear function of t); it raises ``OrderError`` otherwise.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import OrderError


@lru_cache(maxsize=None)
def _zero_key(nvars):
    return (0,) * nvars


@lru_cache(maxsize=None)
def weight(alpha):
    """Parabolic weight of an exponent tuple: time counts twice."""
    return alpha[0] + sum(alpha)


@lru_cache(maxsize=None)
def _factorial_product(alpha):
    w = 1
    for a in alpha:
        w *= math.factorial(a)
    return w


def asjet(value, nvars, order):
    """Coerce a scalar/array into a constant jet; jets pass through."""
    if isinstance(value, Jet):
        if value.nvars != nvars or value.order != order:
            raise ValueError("jet shape mismatch")
        return value
    return Jet.const(value, nvars, order)


class Jet:
    __slots__ = ("nvars", "order", "coef")
    # numpy defers to the reflected operators, so ``ndarray * jet`` is a jet
    # with array coefficients rather than an object array of jets
    __array_ufunc__ = None

    def __init__(self, nvars, order, coef):
        self.nvars = nvars
        self.order = order
        self.coef = coef  # dict: exponent tuple -> scalar or ndarray

    @classmethod
    def const(cls, value, nvars, order):
        return cls(nvars, order, {_zero_key(nvars): value})

    @classmethod
    def variable(cls, value, index, nvars, order):
        coef = {_zero_key(nvars): value}
        seed = tuple(1 if i == index else 0 for i in range(nvars))
        if weight(seed) <= order:
            coef[seed] = 1.0
        return cls(nvars, order, coef)

    @property
    def value(self):
        return self.coef.get(_zero_key(self.nvars), 0.0)

    def coefficient(self, alpha):
        """Taylor coefficient for the exponent tuple ``alpha``."""
        alpha = tuple(alpha)
        if weight(alpha) > self.order:
            raise OrderError(f"exponent {alpha} has weight {weight(alpha)} > jet order {self.order}")
        return self.coef.get(alpha, 0.0)

    def partial(self, alpha):
        """Partial derivative of multi-order ``alpha`` (Taylor coef times factorials)."""
        alpha = tuple(alpha)
        return self.coefficient(alpha) * _factorial_product(alpha)

    # -- ring operations ---------------------------------------------------

    def _like(self, coef):
        return Jet(self.nvars, self.order, coef)

    def __add__(self, other):
        if not isinstance(other, Jet):
            coef = dict(self.coef)
            z = _zero_key(self.nvars)
            coef[z] = coef.get(z, 0.0) + other
            return self._like(coef)
        coef = dict(self.coef)
        for k, v in other.coef.items():
            coef[k] = coef[k] + v if k in coef else v
        return self._like(coef)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -v for k, v in self.coef.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._like({k: v * other for k, v in self.coef.items()})
        rhs = [(k2, weight(k2), v2) for k2, v2 in other.coef.items()]
        coef = {}
        for k1, v1 in self.coef.items():
            room = self.order - weight(k1)
            for k2, w2, v2 in rhs:
                if w2 > room:
                    continue
                k = tuple(i + j for i, j in zip(k1, k2))
                prod = v1 * v2
                coef[k] = coef[k] + prod if k in coef else prod
        return self._like(coef)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("use cpow for non-integer powers")
        if n < 0:
            return self.reciprocal() ** (-n)
        out = Jet.const(1.0, self.nvars, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- nilpotent series --------------------------------------------------

    def _split(self):
        """Constant part and the nilpotent remainder."""
        z = _zero_key(self.nvars)
        c = self.coef.get(z, 0.0)
        h = {k: v for k, v in self.coef.items() if k != z}
        return c, self._like(h)

    def exp(self):
        c, h = self._split()
        out = Jet.const(1.0, self.nvars, self.order)
        hp = None
        for i in range(1, self.order + 1):
            hp = h if hp is None else hp * h
            if not hp.coef:
                break
            out = out + hp * (1.0 / math.factorial(i))
        return out * np.exp(c)

    def log(self):
        c, h = self._split()
        inv_c = 1.0 / c
        out = Jet.const(np.emath.log(c), self.nvars, self.order)
        hp = None
        for i in range(1, self.order + 1):
            hp = h if hp is None else hp * h
            if not hp.coef:
                break
            out = out + hp * ((-1.0) ** (i + 1) * inv_c ** i / i)
        return out

    def reciprocal(self):
        c, h = self._split()
        inv_c = 1.0 / c
        out = Jet.const(inv_c, self.nvars, self.order)
        hp = None
        for i in range(1, self.order + 1):
            hp = h if hp is None else hp * h
            if not hp.coef:
                break
            out = out + hp * ((-1.0) ** i * inv_c ** (i + 1))
        return out

    def cpow(self, p):
        """Principal-branch power with arbitrary complex exponent."""
        return self._power(p, np.emath.power(self.value, p))

    def sqrt(self):
        return self._power(0.5, np.emath.sqrt(self.value))

    def _power(self, p, cp):
        """Series of the p-th power whose constant term is ``cp``."""
        c, h = self._split()
        inv_c = 1.0 / c
        out = Jet.const(cp, self.nvars, self.order)
        hp = None
        binom = 1.0
        for i in range(1, self.order + 1):
            binom *= (p - (i - 1)) / i
            hp = h if hp is None else hp * h
            if not hp.coef:
                break
            out = out + hp * (binom * inv_c ** i * cp)
        return out


# -- scalar/array/jet generic wrappers --------------------------------------


def exp(z):
    return z.exp() if isinstance(z, Jet) else np.exp(z)


def log(z):
    return z.log() if isinstance(z, Jet) else np.emath.log(z)


def sqrt(z):
    return z.sqrt() if isinstance(z, Jet) else np.emath.sqrt(z)


def cpow(z, p):
    return z.cpow(p) if isinstance(z, Jet) else np.emath.power(z, p)


def value_of(z):
    """Constant part of a jet, or the value itself."""
    return z.value if isinstance(z, Jet) else z


def compose(base, args):
    """Taylor composition: insert the jets ``args`` into ``base``.

    ``base`` holds the Taylor coefficients of g at the point
    (value_of(args[0]), ...); the result is the jet of
    g(args[0](y), args[1](y), ...).  No argument's increment may hold a
    term lighter than its own variable (a time that depends on space):
    the truncated ``base`` would miss what such a term feeds.
    """
    if len(args) != base.nvars:
        raise ValueError("arity mismatch in jet composition")
    nvars = args[0].nvars
    order = args[0].order
    deltas = [a._split()[1] for a in args]  # increments, with no constant key
    powers = []
    for i, d in enumerate(deltas):
        lightest = weight(tuple(int(j == i) for j in range(base.nvars)))
        if any(0 < weight(k) < lightest for k in d.coef):
            raise OrderError(f"argument {i} of a composition depends on a lighter variable")
        maxdeg = max((k[i] for k in base.coef), default=0)
        p = [Jet.const(1.0, nvars, order)]
        for _ in range(maxdeg):
            p.append(p[-1] * d)
        powers.append(p)
    out = Jet.const(0.0, nvars, order)
    for alpha, c in base.coef.items():
        term = Jet.const(c, nvars, order)
        for i, a in enumerate(alpha):
            if a:
                term = term * powers[i][a]
        out = out + term
    return out
