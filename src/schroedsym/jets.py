"""Truncated multivariate Taylor (jet) arithmetic.

A ``Jet`` stores the Taylor coefficients of a scalar function at a point
in one owned array ``block`` of shape ``(len(support), *shape)``: row i
holds the coefficient of the exponent ``support[i]``, an exponent outside
``support`` is a structural zero, and ``coef`` is a read-only view.  The
coefficients may be arrays, so one jet covers a whole sampling grid.  An
operation fills a block it allocates, in place, and never writes a block
a jet holds.  Products walk a Cauchy table cached per pair of supports;
``exp``, ``log``, ``reciprocal`` and the powers are one nilpotent series
(principal branch on the constant term, each function's own coefficient
sequence for the powers of the rest): exactly the chain rule.

Real data stays real.  A coefficient is float64 unless a complex value
enters its jet: a complex input or constant (imaginary k, a plane-wave or
theta phase), or a branch function (``log``, ``sqrt``, ``cpow``) whose
argument has an entry < 0, which then gives the principal-branch complex
value for the whole array.  This is ``numpy.emath``'s rule, applied by one
helper alike for jets and plain arrays, so the jet and array paths agree.

Truncation is by parabolic weight: variable 0 is time and counts twice,
so the exponent ``k`` weighs ``2 k[0] + k[1] + ...`` and a jet of order N
keeps the exponents of weight <= N.  At order 2 that is psi, psi_t, the
first space partials and the second space partials: exactly what the
operator d/dt - k Delta + k V reads.  The kept exponents form a lower set
and every product adds weights, so a dropped term never feeds a kept
one: the jets of order N form a truncated ring, closed under products and
the series functions.  So a formula evaluated on any argument jets, such
as the jets of a coordinate map, gives the exact truncated jet of the
composite (the chain rule by evaluation), whatever the arguments' weights.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import OrderError


@lru_cache(maxsize=None)
def weight(alpha):
    """Parabolic weight of an exponent tuple: time counts twice."""
    return alpha[0] + sum(alpha)


@lru_cache(maxsize=None)
def _product(order, sa, sb):
    """Cauchy table: support, per row the first (i, j) pair and the rest, and any sums."""
    rows = {}
    for i, ka in enumerate(sa):
        for j, kb in enumerate(sb):
            if weight(ka) + weight(kb) <= order:
                rows.setdefault(tuple(p + q for p, q in zip(ka, kb)), []).append((i, j))
    terms = tuple((*pairs[0], tuple(pairs[1:])) for pairs in rows.values())
    return tuple(rows), terms, any(len(pairs) > 1 for pairs in rows.values())


def _shape(sa, sb):
    """Broadcast of two coefficient shapes."""
    if sa == sb or not (sa and sb):
        return sa or sb
    n = len(sa) - len(sb)
    return tuple(map(max, (1,) * -n + sa, (1,) * n + sb))


@lru_cache(maxsize=None)
def _union(sa, sb):
    """Support of a sum (``sa``, then what ``sb`` adds) and per row its rows in ``sa``, ``sb``."""
    support = sa + tuple(k for k in sb if k not in sa)
    return support, tuple((sa.index(k) if k in sa else None, sb.index(k) if k in sb else None)
                          for k in support)


@lru_cache(maxsize=None)
def _powers(nvars, order, hs):
    """Support of a series in a nilpotent jet of support ``hs`` (the constant,
    then what each power adds), and the last power that holds an exponent."""
    support, ps, m = ((0,) * nvars,) + hs, hs, 1
    while ps := _product(order, ps, hs)[0]:
        support, m = _union(support, ps)[0], m + 1
    return support, m


def _pad(block, ndim):
    """``block`` with unit axes after its row axis, up to ``ndim`` axes."""
    return block if block.ndim >= ndim else block[(slice(None),) + (None,) * (ndim - block.ndim)]


def _add_rows(out, support, jet, k, scratch):
    """``out[row of key] += k * coefficient`` for each key of ``jet``."""
    for r, row in zip(map(support.index, jet.support), jet.block):
        target = out[r, ...]
        np.add(target, np.multiply(row, k, scratch), target)


def _jet(nvars, order, support, block):
    jet = object.__new__(Jet)
    jet.nvars, jet.order, jet.support, jet.block = nvars, order, support, block
    return jet


class Jet:
    __slots__ = ("nvars", "order", "support", "block")
    # numpy defers to the reflected operators, so ``ndarray * jet`` is a jet
    # with array coefficients rather than an object array of jets
    __array_ufunc__ = None

    def __init__(self, nvars, order, coef):
        """The jet with coefficients ``coef``: exponent tuple -> scalar or array."""
        vals = [np.asarray(v) for v in coef.values()]
        block = np.array(np.broadcast_arrays(*vals), np.result_type(float, *vals))
        self.nvars, self.order, self.support, self.block = nvars, order, tuple(coef), block

    @classmethod
    def const(cls, value, nvars, order):
        return cls(nvars, order, {(0,) * nvars: value})

    @classmethod
    def variable(cls, value, index, nvars, order):
        z = (0,) * nvars
        seed = z[:index] + (1,) + z[index + 1:]
        support, value = (z,) + ((seed,) if weight(seed) <= order else ()), np.asarray(value)
        block = np.empty((len(support),) + value.shape, np.promote_types(value.dtype, float))
        block[0], block[1:] = value, 1.0
        return _jet(nvars, order, support, block)

    @property
    def coef(self):
        """Read-only ``{exponent: coefficient}`` view of the block."""
        return MappingProxyType(dict(zip(self.support, self.block)))

    @property
    def value(self):
        z = (0,) * self.nvars
        return self.block[self.support.index(z)] if z in self.support else 0.0

    def coefficient(self, alpha):
        """Taylor coefficient for the exponent tuple ``alpha``."""
        alpha = tuple(alpha)
        if weight(alpha) > self.order:
            raise OrderError(f"exponent {alpha} has weight {weight(alpha)} > jet order {self.order}")
        return self.block[self.support.index(alpha)] if alpha in self.support else 0.0

    def partial(self, alpha):
        """Partial derivative of multi-order ``alpha`` (Taylor coef times
        factorials): the coefficient itself, not a copy, when they are 1."""
        c, scale = self.coefficient(alpha), math.prod(map(math.factorial, alpha))
        return c if scale == 1 else c * scale

    def __add__(self, other):
        sb, b = ((other.support, other.block) if isinstance(other, Jet)
                 else (((0,) * self.nvars,), np.asarray(other)[None]))
        a = self.block
        if sb == self.support:
            return _jet(self.nvars, self.order, sb, _pad(a, b.ndim) + _pad(b, a.ndim))
        support, rows = _union(self.support, sb)
        out = np.empty((len(support),) + _shape(a.shape[1:], b.shape[1:]),
                       np.promote_types(a.dtype, b.dtype))
        for r, (i, j) in enumerate(rows):
            if i is None or j is None:
                out[r] = b[j] if i is None else a[i]
            else:
                np.add(a[i], b[j], out[r, ...])
        return _jet(self.nvars, self.order, support, out)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.nvars, self.order, self.support, -self.block)

    def sum(self, axis=0):
        """The jet whose coefficients are summed over their axis ``axis``."""
        return _jet(self.nvars, self.order, self.support, self.block.sum(axis + 1))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            other = np.asarray(other)
            return _jet(self.nvars, self.order, self.support,
                        _pad(self.block, other.ndim + 1) * other)
        support, terms, sums = _product(self.order, self.support, other.support)
        a, b, shape = self.block, other.block, _shape(self.block.shape[1:], other.block.shape[1:])
        dtype = np.promote_types(a.dtype, b.dtype)
        out, scratch = np.empty((len(support),) + shape, dtype), sums and np.empty(shape, dtype)
        for o, (i, j, rest) in enumerate(terms):
            row = out[o, ...]
            np.multiply(a[i], b[j], row)
            for i, j in rest:
                np.add(row, np.multiply(a[i], b[j], scratch), row)
        return _jet(self.nvars, self.order, support, out)

    def __rmul__(self, other):
        # numpy rounds a complex product by its operand order, so ``other``
        # stays first: the value row is then what the array path computes
        other = np.asarray(other)
        return _jet(self.nvars, self.order, self.support, other * _pad(self.block, other.ndim + 1))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        # a true division, so that the value row is what the array path computes
        other = np.asarray(other)
        return _jet(self.nvars, self.order, self.support, _pad(self.block, other.ndim + 1) / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("use cpow for non-integer powers")
        if n < 0:
            return self.reciprocal() ** (-n)
        out, base = Jet.const(1.0, self.nvars, self.order) if n == 0 else None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def _nilpotent(self):
        """The non-constant part, on a view of the block if the constant is first."""
        z = (0,) * self.nvars
        if z not in self.support:
            return self
        i = self.support.index(z)
        rest = self.block[1:] if i == 0 else np.delete(self.block, i, axis=0)
        return _jet(self.nvars, self.order, self.support[:i] + self.support[i + 1:], rest)

    def _series(self, c0, coef, scale=None):
        """``scale * (c0 + sum_i coef(i) h^i)``, h the nilpotent part: the series of
        the function with value c0 and Taylor coefficients coef(i) at the constant."""
        h = self._nilpotent()
        support, m = _powers(self.nvars, self.order, h.support)
        k, n = coef(1), len(h.support)
        out = np.empty((len(support),) + self.block.shape[1:], np.result_type(self.block, c0, k))
        out[0] = c0 if scale is None else c0 * scale
        np.multiply(h.block, k, out[1:n + 1])
        if m > 1:
            out[n + 1:], p, scratch = 0.0, h, np.empty(out.shape[1:], out.dtype)
        for i in range(2, m + 1):
            p = p * h
            _add_rows(out, support, p, coef(i), scratch)
        if scale is not None:
            out[1:] *= scale
        return _jet(self.nvars, self.order, support, out)

    def exp(self):
        return self._series(1.0, lambda i: 1.0 / math.factorial(i), np.exp(self.value))

    def log(self):
        inv_c = 1.0 / self.value
        return self._series(_principal(np.log, self.value),
                            lambda i: (-1.0) ** (i + 1) * inv_c ** i / i)

    def reciprocal(self):
        inv_c = 1.0 / self.value
        return self._series(inv_c, lambda i: (-1.0) ** i * inv_c ** (i + 1))

    def cpow(self, p):
        """Principal-branch power with arbitrary complex exponent."""
        return self._power(p, _principal(np.power, self.value, p))

    def sqrt(self):
        return self._power(0.5, _principal(np.sqrt, self.value))

    def _power(self, p, cp):
        """Series of the p-th power whose constant term is ``cp``."""
        inv_c = 1.0 / self.value
        return self._series(cp, lambda i: math.prod((p - j) / (j + 1) for j in range(i))
                            * inv_c ** i * cp)


def _principal(ufunc, z, *p):
    """``ufunc(z, *p)`` on the principal branch by ``numpy.emath``'s rule, without
    its overhead: a real ``z`` with an entry < 0 turns complex first (-0.0 and NaN
    do not), and a negative integer exponent turns float."""
    z = np.asarray(z)
    if z.dtype.kind != "c" and (z < 0).any():
        z = z.astype(complex)
    if p and isinstance(p[0], (int, np.integer)) and p[0] < 0:
        p = (float(p[0]),)
    return ufunc(z, *p)


def exp(z):
    return z.exp() if isinstance(z, Jet) else np.exp(z)


def log(z):
    return z.log() if isinstance(z, Jet) else _principal(np.log, z)


def reciprocal(z):
    return z.reciprocal() if isinstance(z, Jet) else 1.0 / z


def sqrt(z):
    return z.sqrt() if isinstance(z, Jet) else _principal(np.sqrt, z)


def cpow(z, p):
    return z.cpow(p) if isinstance(z, Jet) else _principal(np.power, z, p)


def value_of(z):
    """Constant part of a jet, or the value itself."""
    return z.value if isinstance(z, Jet) else z

