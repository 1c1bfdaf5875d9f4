"""Coordinate actions of the symmetry groups on (t, x).

Each family's frame (t', the scale xi and shift f of x' = xi x + f, and
the multiplier's exponent coefficients A, B, C) comes from one ``frame``
evaluation, a ``Frame``; the action ``act``, the multiplier and the
structure-equation checks all read it.  A family's one-coordinate
potential is ``FamilySpec.potential``, its Laurent coefficients.
Every map here is written generically over its scalar type: plain complex
numbers, numpy arrays, or jets all work, so the same code path feeds both
the numeric checks and the chain-rule machinery of the residual verifier.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import jets
from .errors import (
    BranchError,
    DomainError,
    RangeError,
    ShapeError,
    SingularTime,
    ZeroK,
    ZeroOmega,
)
from .group import GroupElement, Mat2, is_disk_shaped

SINGULAR_TOL = 1e-14

FREE = "free"
INVERSE_QUADRATIC = "inverse_quadratic"
LINEAR = "linear"
QUADRATIC = "quadratic"
NDIM_LINEAR = "ndim_linear"
NLS2D = "nls2d"

FAMILIES = (FREE, INVERSE_QUADRATIC, LINEAR, QUADRATIC, NDIM_LINEAR, NLS2D)


def is_real(v, name):
    """The signature rule: whether ``v`` is real (imaginary part exactly 0)
    rather than purely imaginary (real part exactly 0); ``DomainError`` when
    it is neither.  At k omega it picks the oscillator family's group."""
    if np.imag(v) == 0:
        return True
    if np.real(v) == 0:
        return False
    raise DomainError(f"{name} must be real or purely imaginary, got {v}")


@dataclass(frozen=True)
class FamilySpec:
    """Potential family tag plus the parameters selecting its formulas."""

    family: str
    k: complex
    alpha: float = 0.0
    beta: float = 0.0
    omega: complex = 0.0
    n: int = 1
    coupling: float = 1.0  # cubic coupling, 2-d NLS family only

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        for name in ("k", "alpha", "beta", "omega", "coupling"):
            if not cmath.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.k == 0:
            raise ZeroK("k must be nonzero")
        is_real(self.k, "k")
        if self.family == QUADRATIC:
            if self.omega == 0:
                raise ZeroOmega("quadratic family needs a nonzero omega")
            is_real(self.omega, "omega")
        if self.n < 1:
            raise DomainError("dimension must be >= 1")
        if self.family == INVERSE_QUADRATIC and self.n != 1:  # alpha/|x|^2 is no sum over x_j
            raise DomainError("the inverse-quadratic family has one space coordinate")
        if self.family == NLS2D and (self.n != 2 or is_real(self.k, "k")):
            raise DomainError("the 2-d NLS family needs n = 2 and purely imaginary k")

    # convenience constructors ------------------------------------------------

    @classmethod
    def free(cls, k, n=1):
        return cls(FREE, k, n=n)

    @classmethod
    def inverse_quadratic(cls, k, alpha):
        return cls(INVERSE_QUADRATIC, k, alpha=alpha)

    @classmethod
    def linear(cls, k, alpha, beta):
        return cls(LINEAR, k, alpha=alpha, beta=beta)

    @classmethod
    def quadratic(cls, k, alpha, omega):
        return cls(QUADRATIC, k, alpha=alpha, omega=omega)

    @classmethod
    def ndim_linear(cls, k, alpha, beta, n):
        return cls(NDIM_LINEAR, k, alpha=alpha, beta=beta, n=n)

    @classmethod
    def nls2d(cls, k, coupling=1.0):
        return cls(NLS2D, k, n=2, coupling=coupling)

    @property
    def potential(self):
        """The one-coordinate potential V(x) = sum_p c_p x^p as its Laurent
        coefficients ``{p: c_p}``; the NLS family's cubic term is not a
        potential."""
        if self.family in (FREE, NLS2D):
            return {}
        if self.family == INVERSE_QUADRATIC:
            return {-2: self.alpha}
        if self.family == QUADRATIC:
            return {0: self.alpha, 2: self.omega ** 2}
        return {0: self.alpha, 1: self.beta}

    @property
    def komega(self):
        return self.k * self.omega

    @property
    def komega_is_real(self):
        return is_real(self.komega, "k omega")

    @property
    def period(self):
        """2 pi/|4 k omega|, the period of the time at purely imaginary k*omega."""
        return 2.0 * np.pi / abs(4.0 * self.komega)


@dataclass(frozen=True)
class Point:
    """Coordinate pair {t, x}; x is a tuple of space coordinates.

    A scalar or an ndarray ``x`` is one coordinate; several coordinates
    come as a tuple or list.  ``t`` and each coordinate may be arrays of
    one batch shape, a batch of points that a batched element acts on
    entry by entry.
    """

    t: complex
    x: tuple

    def __init__(self, t, x):
        object.__setattr__(self, "t", t)
        if np.ndim(x) == 0 or isinstance(x, np.ndarray):
            x = (x,)
        object.__setattr__(self, "x", tuple(x))

    @property
    def x1(self):
        return self.x[0]

    @property
    def n(self):
        return len(self.x)


@dataclass(frozen=True)
class GalileanData:
    """Affine data of the x' = x + sigma + v t reduction."""

    sigma: float
    v: float


# -- scalar-generic primitives ----------------------------------------------


def mobius_time(m: Mat2, t):
    """t' = (c t + d)/(a t + b), the denominator r = a t + b and xi = 1/r:
    the one reciprocal that every other division by r reuses."""
    r = _nonsingular(m.a * t + m.b, "a t + b")
    xi = jets.reciprocal(r)
    return (m.c * t + m.d) * xi, r, xi


def linear_xi_f(l: GroupElement, spec: FamilySpec, t):
    """Scale and shift of the affine space map for the linear family."""
    tp, r, xi = mobius_time(l.m, t)
    f = l.mu - l.nu * tp
    k2b = spec.k ** 2 * spec.beta
    if k2b:
        f = f + k2b * (tp * tp - t * t * xi)
    return tp, xi, f, r


def quadratic_frame(l: GroupElement, spec: FamilySpec, t) -> Frame:
    """The quadratic family's frame: Mobius data in the exponential time
    variable u = e^{4 k omega t}.

    Square roots are taken so that the frame is continuous at the group
    unit: the scale uses the principal root of u/((a u + b)(c u + d)) and
    sqrt(u) means e^{2 k omega t}.  The reciprocals of a u + b, c u + d and
    e^{2 k omega t} are each taken once; u' = (c u + d)/(a u + b), and
    1/u' and 1/w (w the root of u' that matches xi) are products of them.
    """
    k, alpha, omega, mu, nu = spec.k, spec.alpha, spec.omega, l.mu, l.nu
    kw = spec.komega
    u = jets.exp(4.0 * kw * t)
    den = _nonsingular(l.a * u + l.b, "a u + b")
    num = _nonsingular(l.c * u + l.d, "c u + d")
    inv_den, inv_num = jets.reciprocal(den), jets.reciprocal(num)
    ratio = u * (inv_den * inv_num)
    if spec.komega_is_real:  # principal square roots need the product off the cut
        _off_cut(ratio, "(a u + b)(c u + d) crossed the branch cut")
    xi = jets.sqrt(ratio)
    rootu = jets.exp(2.0 * kw * t)
    xi_rootu = xi * jets.reciprocal(rootu)
    w, inv_w = num * xi_rootu, den * xi_rootu  # w^2 = u', consistent with xi
    f = nu * w - mu * inv_w
    up = num * inv_den
    tp = _quadratic_time(up, t, kw, spec)
    A = (
        0.5 * jets.log(xi)
        + alpha * k * (tp - t)
        + (omega / 2.0) * (nu * nu * up - mu * mu * (den * inv_num))
    )
    B = omega * rootu * (nu * inv_den + mu * inv_num)
    C = (omega / 2.0) * (-1.0 + l.b * inv_den + l.d * inv_num)
    return Frame(tp, xi, f, A, B, C)


def _quadratic_time(up, t, kw, spec):
    """t' from the transformed exponential variable, continuous at the unit.

    For real k*omega the principal logarithm is real; for purely imaginary
    k*omega the time is periodic and the representative nearest to t is
    reported.
    """
    if spec.komega_is_real:
        _off_cut(up, "u' landed on the branch cut of the logarithm")
        return jets.log(up) / (4.0 * kw)
    tp = jets.log(up) / (4.0 * kw)
    t0 = jets.value_of(t)
    shift = np.round(np.real(t0 - jets.value_of(tp)) / spec.period) * spec.period
    return tp + shift


# -- the frame ----------------------------------------------------------------


EXP_GUARD = 700.0


def _above(z, bound, name):
    """The domain guard of a formula or a lift: ``DomainError`` unless the
    real part of every value of ``z`` (a jet's constant part, or an array)
    exceeds ``bound``."""
    if np.any(np.real(jets.value_of(z)) <= bound):
        raise DomainError(f"needs {name} > {bound}")


def _nonsingular(z, name):
    """The denominator ``z`` as it came, or ``SingularTime`` when one of its
    values lies within ``SINGULAR_TOL`` of 0."""
    if np.min(np.abs(jets.value_of(z))) < SINGULAR_TOL:
        raise SingularTime(f"{name} vanishes at a requested point")
    return z


def _off_cut(z, message):
    """``BranchError`` when a value of ``z`` lies on the cut of the principal
    root and logarithm, the closed negative real axis, to 1e-10 of |z|."""
    z0 = np.asarray(jets.value_of(z))
    if np.any((np.real(z0) <= 0) & (np.abs(np.imag(z0)) <= 1e-10 * np.abs(z0))):
        raise BranchError(message)


def _is(v, literal):
    """Whether ``v`` is the float ``literal`` itself, not an array or a jet."""
    return type(v) is float and v == literal


def _terms(*terms):
    """The sum, left to right, of the terms ``(c, *factors)``: c times the
    product of its factors, or c alone.  A term with the float literal 0.0
    among its coefficient or factors drops before anything multiplies, and
    a literal 1.0 skips its multiply, so that a frame's literal
    coefficients (the f1/phi1 lifts' xi = 1.0 and C = 0.0, the
    inverse-quadratic f = B = 0.0, a Gaussian's identity map) cost no pass
    over the grid and stay literal through ``Frame.then``.  Any other
    value, a slipped literal too, takes the general path."""
    out = None
    for c, *factors in terms:
        if _is(c, 0.0) or any(_is(v, 0.0) for v in factors):
            continue
        factors = [v for v in factors if not _is(v, 1.0)]
        if factors:
            v = reduce(operator.mul, factors)
            term = v if _is(c, 1.0) else c * v
        else:
            term = c
        out = term if out is None else out + term
    return 0.0 if out is None else out


@dataclass(frozen=True)
class Frame:
    """One evaluation of a family's frame at a time t (scalar-generic).

    The action maps t to tp and each space coordinate x_j to xi x_j + f; the
    multiplier over n space coordinates is
    exp(n A + B sum_j x_j + C sum_j x_j^2), the product of one factor
    exp(A + B x_j + C x_j^2) per coordinate.
    """

    tp: object
    xi: object
    f: object
    A: object
    B: object
    C: object

    def then(self, inner):
        """The frame of a pullback through ``self`` of a pullback through
        ``inner``, with ``inner`` evaluated at ``self.tp``: the one
        composition law.  The inner exponent at x' = xi x + f is again
        quadratic in x, A_i + B_i f + C_i f^2 + (B_i + 2 C_i f) xi x +
        C_i xi^2 x^2, so K(t, x) K_i(t', x') beta(t'', xi_i x' + f_i) is
        the composed multiplier times beta(t'', xi'' x + f'').  Every
        coefficient is a time-only jet, and a literal 0.0 or 1.0 stays
        literal (``_terms``)."""
        xi, f = self.xi, self.f
        return Frame(
            inner.tp,
            _terms((inner.xi, xi)),
            _terms((inner.xi, f), (inner.f,)),
            _terms((self.A,), (inner.A,), (inner.B, f), (inner.C, f, f)),
            _terms((self.B,), (inner.B, xi), (inner.C, 2.0, xi, f)),
            _terms((self.C,), (inner.C, xi, xi)),
        )

    def space(self, x):
        """Mapped space coordinates xi x_j + f; a literal xi = 1.0 or f = 0.0
        costs nothing (``_terms``)."""
        return tuple(_terms((self.xi, xj), (self.f,)) for xj in x)

    def multiplier(self, x):
        """exp(n A + B sum_j x_j + C sum_j x_j^2) over the coordinates x: the
        product, left to right, of ``multiplier_factors``."""
        return reduce(operator.mul, self.multiplier_factors(x))

    def multiplier_factors(self, x):
        """The multiplier's factors exp(A + B x_j + C x_j^2), one per
        coordinate x_j: the exponentials of ``exponents``.

        Each factor depends on t and its own x_j only, so on a grid sampled
        on broadcastable axes it spans the time axis and one space axis."""
        return tuple(map(jets.exp, self.exponents(x)))

    def exponents(self, x):
        """The exponents A + B x_j + C x_j^2 of the multiplier's factors, one
        per coordinate x_j, in the association of ``_terms``: jets for space
        jets, and for arrays the frame's time jets over them, whose value
        rows are the same and whose t rows are A' + B' x_j + C' x_j^2.

        ``RangeError`` when the real part of the whole exponent (the sum of
        the values) exceeds ``EXP_GUARD``, and, for two or more coordinates,
        when a factor's leaves [-EXP_GUARD, EXP_GUARD]: it could overflow,
        or underflow to 0 beside a large one."""
        es = [_terms((self.A,), (self.B, xj), (self.C, xj, xj)) for xj in x]
        vs = [np.real(jets.value_of(e)) for e in es]
        if np.max(reduce(operator.add, vs)) > EXP_GUARD or (
                len(vs) > 1 and max(np.max(np.abs(v)) for v in vs) > EXP_GUARD):
            raise RangeError("multiplier exponent exceeds the double range")
        return es


def frame(l: GroupElement, spec: FamilySpec, t) -> Frame:
    """The frame of ``l`` at time t; the one place where the frame depends
    on the family.

    Inverse-quadratic: x' = x/(a t + b), A = -log(a t + b)/2, B = 0,
    C = -a/(4 k (a t + b)).  Linear (also the free, n-coordinate linear and
    2-d NLS families): A carries the (a t + b)^{-1/2} prefactor as
    -log(a t + b)/2, so that (A, B, C) satisfy the first-order structure
    equations directly, and the constant -mu nu/4k normalizes the cocycle
    to its symplectic form.  Quadratic: the same in the exponential time
    variable u = exp(4 k omega t).
    """
    if spec.family == INVERSE_QUADRATIC:
        tp, r, xi = mobius_time(l.m, t)
        return Frame(tp, xi, 0.0, -0.5 * jets.log(r), 0.0, (-0.25 * l.a / spec.k) * xi)
    if spec.family == QUADRATIC:
        return quadratic_frame(l, spec, t)
    k, alpha, beta, b, mu, nu = spec.k, spec.alpha, spec.beta, l.b, l.mu, l.nu
    tp, xi, f, r = linear_xi_f(l, spec, t)
    C = -0.25 / k * (l.a * xi)
    B = -nu / (2.0 * k) * xi
    A = (
        -0.5 * jets.log(r)
        - mu * nu / (4.0 * k)
        + alpha * k * (tp - t)
        + nu * nu / (4.0 * k) * tp
    )
    if beta:
        B = B + (k * beta / 2.0) * (2.0 * tp * xi - t - b * t * xi)
        A = (
            A
            + k * beta * (mu * tp - nu * (tp * tp - t * t * xi / 2.0))
            + k ** 3 * beta ** 2
            * ((2.0 / 3.0) * tp ** 3 + t ** 3 / 12.0 + (b / 4.0) * t ** 3 * xi - t * t * tp * xi)
        )
    return Frame(tp, xi, f, A, B, C)


def act(l: GroupElement, z: Point, spec: FamilySpec) -> Point:
    """The group action (t, x_j) -> (t', xi x_j + f) of the family's frame."""
    fr = frame(l, spec, z.t)
    return Point(fr.tp, fr.space(z.x))


def galilean_params(l: GroupElement, spec: FamilySpec) -> GalileanData:
    """Affine data sigma, v for upper-unitriangular elements."""
    m = l.m
    if any(np.any(np.abs(v) > 1e-12) for v in (m.c - 1.0, m.a, m.b - 1.0)):
        raise ShapeError("element is not of the time-translation shape")
    lam = m.d
    k2b = spec.k ** 2 * spec.beta
    sigma = l.mu - l.nu * lam + k2b * lam ** 2
    v = 2.0 * k2b * lam - l.nu
    return GalileanData(sigma, v)


def reality_domain_check(l: GroupElement, t, spec: FamilySpec):
    """Per entry, whether the quadratic action stays real at time t.

    Real k*omega: a u + b and c u + d real with positive product.  Purely
    imaginary k*omega: the matrix is of the circle-preserving shape and the
    translations satisfy mu* = -nu.
    """
    if spec.family != QUADRATIC:
        raise DomainError("reality_domain_check needs the quadratic family")
    if spec.komega_is_real:
        u = np.exp(4.0 * np.real(spec.komega) * np.real(t))
        den = l.a * u + l.b
        num = l.c * u + l.d
        real = [np.abs(np.imag(v)) <= 1e-10 * np.maximum(1.0, np.abs(v)) for v in (den, num)]
        return real[0] & real[1] & (np.real(den) * np.real(num) > 0)
    return is_disk_shaped(l.m) & (np.abs(np.conj(l.mu) + l.nu) <= 1e-10)
