"""Reference solutions with analytic partial derivatives.

Every closed-form solution here is a ``FormulaFn``: its formula is the
closed form written once as jet arithmetic, so evaluating it on jets
yields partial derivatives of any order, and the residual verifier and
the operator algebra never fall back to finite differences.  A formula
guards its own domain at its top and raises ``DomainError`` there.  The
oscillator family's functions take the exponential variable
s = e^{2 k omega t} as their first argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import jets
from .coords import FamilySpec, LINEAR, QUADRATIC, NLS2D
from .errors import (
    ConvergenceError,
    DomainError,
    NoRootError,
    QuadratureError,
)
from .jets import Jet


class SmoothFn:
    """Scalar function of (t, x) exposing jet-evaluated partials.

    ``x`` is a scalar for one space dimension, else a sequence of length
    ``ndim``.  ``jet`` seeds variable 0 with t and variables 1..ndim with
    the space coordinates; coefficients may be numpy arrays.
    """

    ndim = 1

    def jet(self, t, x, order) -> Jet:
        """Jet at (t, x) holding every partial whose parabolic weight
        (twice the t order plus the x orders) is at most ``order``: order 2
        gives psi, psi_t, the x partials and the second x partials.  The
        coefficients are float64 for real data (the dtype rule of ``jets``).
        A point outside the function's domain raises ``DomainError`` here:
        the jet is the only domain guard."""
        raise NotImplementedError

    def value(self, t, x):
        return self.jet(t, x, 0).value

    def partial(self, t, x, orders):
        """Partial derivative; ``orders`` = (t order, x order, ...)."""
        return self.jet(t, x, jets.weight(tuple(orders))).partial(orders)

    def _seed(self, t, x, order):
        nv = 1 + self.ndim
        tj = Jet.variable(t, 0, nv, order)
        if self.ndim == 1:
            if isinstance(x, (tuple, list)):
                x = x[0]
            xjs = [Jet.variable(x, 1, nv, order)]
        else:
            xjs = [Jet.variable(xc, 1 + i, nv, order) for i, xc in enumerate(x)]
        return tj, xjs


class FormulaFn(SmoothFn):
    """A jet-generic formula f(t, x...) as a SmoothFn.

    With a ``rate`` the formula's first argument is the exponential
    variable s = e^{rate t} instead of t, and ``jet_s`` gives its jets in
    (s, x) themselves, as the oscillator family's operators need.
    """

    def __init__(self, formula, ndim=1, rate=None):
        self.formula = formula
        self.ndim = ndim
        self.rate = rate

    def jet(self, t, x, order):
        tj, xjs = self._seed(t, x, order)
        return self.formula(tj if self.rate is None else jets.exp(self.rate * tj), *xjs)

    def jet_s(self, s, x, order):
        """Jet in the exponential variable itself."""
        if self.rate is None:
            raise DomainError("function is not represented in the exponential variable")
        sj, xjs = self._seed(s, x, order)
        return self.formula(sj, *xjs)

    def s_of_t(self, t):
        if self.rate is None:
            raise DomainError("function is not represented in the exponential variable")
        return np.exp(self.rate * np.asarray(t))


def _above(z, bound, name):
    """The domain guard of a formula: ``DomainError`` unless the real part
    of every value of ``z`` (a jet's constant part, or an array) exceeds
    ``bound``."""
    if np.any(np.real(jets.value_of(z)) <= bound):
        raise DomainError(f"needs {name} > {bound}")


def _power(z, p):
    """z^p: a product of factors for a whole real p, where the series of
    ``cpow`` would round differently, else the principal branch."""
    whole = np.imag(p) == 0 and float(np.real(p)).is_integer()
    return z ** int(np.real(p)) if whole else jets.cpow(z, p)


# -- library constructors ------------------------------------------------------


def gaussian_free(k, t0=0.0) -> FormulaFn:
    """Heat/Schrodinger kernel (4 pi k (t + t0))^{-1/2} e^{-x^2/(4k(t+t0))};
    for a real k it guards t > -t0."""
    if k == 0:
        raise DomainError("k must be nonzero")
    c = jets.cpow(4.0 * np.pi * k, -0.5)
    t_min = float(-np.real(t0)) if abs(np.imag(k)) < 1e-12 * abs(k) else None

    def formula(t, x):
        if t_min is not None:
            _above(t, t_min, "t")
        tau = t + t0
        return jets.exp(-1.0 / (4.0 * k) * tau ** -1 * x ** 2) * jets.cpow(tau, -0.5) * c

    return FormulaFn(formula)


def constant_one() -> FormulaFn:
    return FormulaFn(lambda t, x: Jet.const(1.0, t.nvars, t.order))


def power_static(s_exponent, alpha) -> FormulaFn:
    """Static solution x^s of the scale-invariant family, s(s-1) = alpha,
    on x > 0."""
    if abs(s_exponent * (s_exponent - 1.0) - alpha) > 1e-10:
        raise DomainError("s(s-1) must equal alpha")

    def formula(t, x):
        _above(x, 0.0, "x")
        return _power(x, s_exponent)

    return FormulaFn(formula)


def theta1(trunc: int) -> FormulaFn:
    """Odd Jacobi theta series, truncated symmetrically.

    Satisfies 4 pi i d/dt = d^2/dx^2 term by term (k = -i/4pi).  The
    truncation window n in [1-trunc, trunc] keeps the series exactly odd
    in x.  Evaluation needs Im t > 0, and raises ``ConvergenceError`` when
    the tail bound at Im t exceeds 1e-12.
    """
    if trunc < 10:
        raise DomainError("trunc must be >= 10")

    def formula(t, x):
        im = np.imag(jets.value_of(t))
        _above(im, 0, "Im t")
        bound = np.max(4.0 * np.exp(-np.pi * (trunc + 0.5) ** 2 * np.minimum(im, 50.0)))
        if bound > 1e-12:
            raise ConvergenceError(f"series tail bound {bound:.3e} exceeds 1e-12")
        return reduce(Jet.__add__, (
            jets.exp(1j * np.pi * (n - 0.5) ** 2 * t + 1j * np.pi * (2 * n - 1) * x) * (1j * (-1) ** n)
            for n in range(1 - trunc, trunc + 1)))

    return FormulaFn(formula)


def f_pair(spec: FamilySpec):
    """Static-exponent and spreading lifts of the linear-potential family;
    the spreading lift guards t > 0."""
    if spec.family != LINEAR:
        raise DomainError("f_pair needs the linear family")
    k, a, b = spec.k, spec.alpha, spec.beta

    def f1(t, x):
        return jets.exp((-k * a) * t + (-k * b) * t * x + k ** 3 * b ** 2 / 3.0 * t ** 3)

    def f2(t, x):
        _above(t, 0.0, "t")
        return jets.exp((-k * a) * t + (-k * b / 2.0) * t * x + k ** 3 * b ** 2 / 12.0 * t ** 3
                        + -1.0 / (4.0 * k) * t ** -1 * x ** 2) * jets.cpow(t, -0.5)

    return FormulaFn(f1), FormulaFn(f2)


def phi_pair(spec: FamilySpec):
    """Inverse lifts back to the free equation; the second guards t > 0.

    The exponent coefficients come from inverting the forward lifts: the
    cubic coefficients must be (2/3) k^3 beta^2 (and its 1/t^3 mirror) for
    the forward/backward round trip to collapse to the constant 1.
    """
    if spec.family != LINEAR:
        raise DomainError("phi_pair needs the linear family")
    k, a, b = spec.k, spec.alpha, spec.beta
    cub = (2.0 / 3.0) * k ** 3 * b ** 2

    def phi1(t, x):
        return jets.exp((k * a) * t + (k * b) * t * x + cub * t ** 3)

    def phi2(t, x):
        _above(t, 0.0, "t")
        r = t ** -1
        return jets.exp((-k * a) * r + (-k * b) * r ** 2 * x + (-cub) * r ** 3
                        + -1.0 / (4.0 * k) * r * x ** 2) * jets.cpow(t, -0.5)

    return FormulaFn(phi1), FormulaFn(phi2)


def g_functions(spec: FamilySpec, gamma=0.0):
    """Highest/lowest-weight and coherent states of the oscillator family.

    Written in the exponential variable s = e^{2 k omega t}: the t-linear
    exponent parts become s-powers, and the coherent state's 1/sqrt(u),
    1/u terms become s^{-1}, s^{-2}.
    """
    if spec.family != QUADRATIC:
        raise DomainError("g_functions needs the quadratic family")
    k, a, w = spec.k, spec.alpha, spec.omega

    def g1(s, x):
        return jets.exp(w / 2.0 * x ** 2) * _power(s, (w - a) / (2.0 * w))

    def g2(s, x):
        return jets.exp(-w / 2.0 * x ** 2) * _power(s, -(w + a) / (2.0 * w))

    # The linear term carries +gamma so the annihilation-type generator has
    # eigenvalue +gamma on g3; the opposite sign convention is the gamma ->
    # -gamma relabeling of the same one-parameter family.
    def g3(s, x):
        r = s ** -1
        return jets.exp(-w / 2.0 * x ** 2 + gamma * r * x + -gamma ** 2 / (4.0 * w) * r ** 2) \
            * _power(s, -(a + w) / (2.0 * w))

    return tuple(FormulaFn(g, rate=2.0 * k * w) for g in (g1, g2, g3))

def plane_wave_nls(amplitude, p, spec: FamilySpec) -> FormulaFn:
    """Exact plane-wave solution of the 2-d cubic equation (imaginary k)."""
    if spec.family != NLS2D:
        raise DomainError("plane_wave_nls needs the 2-d NLS family")
    p = tuple(p)
    if len(p) != 2:
        raise DomainError("momentum must have two components")
    k, lam = spec.k, spec.coupling
    p2 = p[0] ** 2 + p[1] ** 2
    rate = k * (lam * amplitude ** 2 - p2)

    def formula(tj, x1, x2):
        return jets.exp(1j * (p[0] * x1 + p[1] * x2) + rate * tj) * amplitude

    return FormulaFn(formula, ndim=2)


# -- bound-state machinery -----------------------------------------------------


@dataclass(frozen=True)
class AirySpec:
    """Ingredients of the oscillatory bound-state integral."""

    alpha: float
    beta: float
    E: float = None
    trunc: float = None  # contour truncation
    h: float = 0.25  # panel width of the composite quadrature
    delta: float = 1e-3  # contour damping offset

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError("beta must be positive for square integrability")
        if self.E is None:
            object.__setattr__(self, "E", -self.alpha)
        elif abs(self.E + self.alpha) > 1e-12:
            raise DomainError("E must equal -alpha")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# caps of the Airy code's loops, past which they raise ConvergenceError: a
# truncation grown 1000 times covers |p| up to ~6e5 beta^2, and 100
# halvings take any bracket of the energy scan down to adjacent floats
TRUNCATION_STEPS = 1000
BISECTION_STEPS = 100


def _contour_integral(p, beta, delta, trunc, h, moments):
    """2 Re of the damped oscillatory integral, rotated onto the ray
    e^{i pi/6} where the cubic phase decays; ``moments`` selects x-derivative
    weights (i beta z)^m.  The result has one row per moment order, each of
    the shape of ``p``.  The Gauss-Legendre nodes of all panels of both
    contour pieces (0 -> i delta, then the ray) are one array, evaluated for
    every ``p`` at once, per truncation: without a given ``trunc`` each ``p``
    gets the least whole one at which the cubic phase has decayed."""
    p = np.asarray(p, dtype=float)
    ray = np.exp(1j * np.pi / 6.0)
    if trunc is None:
        trunc, steps = np.full(p.shape, 4.0), 0
        while np.any(short := beta ** 2 * trunc ** 3 / 3.0 - abs(p) * trunc / 2.0 < 45.0):
            if steps == TRUNCATION_STEPS:
                raise ConvergenceError(f"no truncation up to {trunc.max():.0f} decays the phase")
            trunc, steps = trunc + short, steps + 1
    trunc = np.broadcast_to(trunc, p.shape)
    # tail estimate at the truncation point, per p
    ztail = 1j * delta + ray * trunc
    phase = 1j * (p * ztail + beta ** 2 * ztail ** 3 / 3.0)
    decay = beta ** 2 * trunc ** 2 / 2.0
    tail = np.exp(np.real(phase)) / np.maximum(decay, 1e-30) * np.maximum(abs(p), 1.0) ** max(moments)
    if np.any(tail > 1e-8):
        raise QuadratureError(f"tail estimate {np.max(tail):.3e} exceeds 1e-8")

    def integrate(p, length, dl):
        z, w = [], []
        for z0, direction, span in ((0.0, 1j, dl), (1j * dl, ray, length)):
            edges = np.linspace(0.0, span, max(1, int(np.ceil(span / h))) + 1)
            mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
            z.append(z0 + direction * (mid[:, None] + half[:, None] * _GL_NODES))
            w.append(half[:, None] * _GL_WEIGHTS * direction)
        z, w = np.concatenate(z).ravel(), np.concatenate(w).ravel()
        wf = np.multiply.outer(p, z)  # in place from here: one (p, node) array
        wf += beta ** 2 * z ** 3 / 3.0
        wf *= 1j
        np.exp(wf, out=wf)
        wf *= w
        return np.stack([2.0 * np.real(np.sum(wf * (1j * beta * z) ** m, axis=-1)) for m in moments])

    out = np.empty((len(moments),) + p.shape)
    for length in np.unique(trunc):
        sel = trunc == length
        # Richardson extrapolation of the damping offset
        out[:, sel] = 2.0 * integrate(p[sel], length, delta / 2.0) - integrate(p[sel], length, delta)
    return out


class AiryFn:
    """Bound-state profile u(x) with quadrature-evaluated derivatives."""

    def __init__(self, spec: AirySpec):
        self.spec = spec

    def value(self, x):
        return self.derivatives(x, 0)[0]

    def derivatives(self, x, max_order):
        """u(x), u'(x), ... up to max_order (<= 3): one row per order, each
        of the shape of ``x``."""
        if max_order > 3:
            raise DomainError("quadrature moments implemented to order 3")
        p = self.spec.alpha + self.spec.beta * np.asarray(x)
        return _contour_integral(p, self.spec.beta, self.spec.delta, self.spec.trunc,
                                 self.spec.h, tuple(range(max_order + 1)))

    def ode_residual(self, x):
        """-u'' + beta x u - E u; zero for the true bound-state profile."""
        u, _, upp = self.derivatives(x, 2)
        return -upp + (self.spec.beta * x - self.spec.E) * u


def airy_u(spec: AirySpec) -> AiryFn:
    return AiryFn(spec)


def eigenvalue_scan(spec: AirySpec, e_range, scan_points=61, tol=1e-10):
    """Roots of the x = 0 boundary condition in the energy window.

    Brackets sign changes of u(0; E) on a uniform scan, evaluated as one
    batch, then bisects each bracket to width ``tol``, in at most
    ``BISECTION_STEPS`` halvings.
    """
    lo, hi = e_range
    if not hi > lo:
        raise DomainError("empty energy window")

    def u0(E):
        return _contour_integral(-E, spec.beta, spec.delta, spec.trunc, spec.h, (0,))[0]

    es = np.linspace(lo, hi, scan_points)
    vals = u0(es)
    roots = []
    for i in range(len(es) - 1):
        if vals[i] == 0.0:
            roots.append(es[i])
            continue
        if np.sign(vals[i]) * np.sign(vals[i + 1]) < 0:
            a, fa = es[i], vals[i]
            b, steps = es[i + 1], 0
            while b - a > tol:
                if steps == BISECTION_STEPS:
                    raise ConvergenceError(f"bisection width {b - a:.3e} > tol {tol:.3e}")
                steps += 1
                m = 0.5 * (a + b)
                fm = u0(m)
                if fm == 0.0:
                    a = b = m
                elif np.sign(fm) == np.sign(fa):
                    a, fa = m, fm
                else:
                    b = m
            roots.append(0.5 * (a + b))
    if not roots:
        raise NoRootError(f"no sign change of u(0; E) in [{lo}, {hi}]")
    return roots
