"""Reference solutions with analytic partial derivatives.

Every closed-form solution here is a ``FormulaFn`` or a ``PullbackFn``.
A formula is the closed form written once as jet arithmetic; a pullback
evaluates its base on the jets that a ``Frame`` maps and multiplies by the
frame's multiplier, so the linear family's f1, f2, phi1, phi2 are the
lifts of the constant 1.  Evaluating either on jets yields partial
derivatives of any order, and the residual verifier and the operator
algebra never fall back to finite differences.  A formula or a frame
guards its own domain and raises ``DomainError`` there.  The
oscillator family's functions take the exponential variable
s = e^{2 k omega t} as their first argument.

Evaluation is two steps.  The time step ``at_time`` takes the time jet and
evaluates everything that depends on time only, a pullback's frame and a
formula's s = e^{rate t}; it returns the space step, a function of the
space jets.  The residual verifier takes the time step once per
verification and the space step once per tile of the grid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import jets
from .coords import FamilySpec, LINEAR, QUADRATIC, NLS2D, _above, is_real
from .errors import (
    ConvergenceError,
    DomainError,
    NoRootError,
    QuadratureError,
)
from .jets import Jet
from .multiplier import lift_frame


class SmoothFn:
    """Scalar function of (t, x) exposing jet-evaluated partials.

    ``x`` is a scalar for one space dimension, else a sequence of length
    ``ndim``.  ``jet`` seeds variable 0 with t and variables 1..ndim with
    the space coordinates and evaluates ``jet_at`` on those seeds;
    coefficients may be numpy arrays.  A subclass defines ``at_time``.
    ``batch`` is the shape of the batch axes that its values carry ahead of
    the grid's, a batched element's (``residual.transformed``).
    """

    ndim = 1
    batch = ()

    def jet(self, t, x, order) -> Jet:
        """Jet at (t, x) holding every partial whose parabolic weight
        (twice the t order plus the x orders) is at most ``order``: order 2
        gives psi, psi_t, the x partials and the second x partials.  The
        coefficients are float64 for real data (the dtype rule of ``jets``).
        A point outside the function's domain raises ``DomainError`` here:
        the jet is the only domain guard."""
        return self.jet_at(*self._seed(t, x, order))

    def jet_at(self, tj, xjs) -> Jet:
        """Jet of psi(tj, xjs) for argument jets ``tj`` and ``xjs`` (one per
        space coordinate): the function evaluated on them, which is the
        chain rule through whatever map the argument jets expand.  It is the
        product, left to right, of ``factors_at``."""
        return reduce(operator.mul, self.factors_at(tj, xjs))

    def factors_at(self, tj, xjs):
        """psi(tj, xjs) as a tuple of jets whose product it is: one jet, or
        one factor per space coordinate, factor j a function of t and x_j
        only, which a pullback multiplies by its multiplier's factor j
        (``paired``).  The space step of ``at_time(tj)`` on ``xjs``."""
        return self.at_time(tj)(xjs)

    def at_time(self, tj):
        """The time step: what depends on the time jet ``tj`` alone,
        evaluated once, and as the result the space step ``xjs ->``
        ``factors_at(tj, xjs)``.  A guard on time raises here."""
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


def paired(base_factors, multiplier_factors):
    """The factors of K * psi from those of psi (at the mapped jets) and of
    the multiplier K (``coords.Frame.multiplier_factors``).

    When the base gives one factor per space coordinate, base factor j
    times multiplier factor j: both depend on t and x_j only (the frame
    maps x_j to xi x_j + f), so on grid axes each product spans one space
    axis, and only the product of the pairs spans the grid.  Otherwise the
    one jet psi * (K_1 K_2 ...).  One coordinate is psi * K_1 either way."""
    if len(base_factors) == len(multiplier_factors):
        return tuple(map(operator.mul, base_factors, multiplier_factors))
    return (reduce(operator.mul, base_factors) * reduce(operator.mul, multiplier_factors),)


class PullbackFn(SmoothFn):
    """K(t, x) * psi(t', x'): the base evaluated on the jets that a frame maps.

    ``frame(t) -> Frame`` (``coords.Frame``) gives t', the space map
    x' = xi x + f and the multiplier K at the time jet, for a symmetry
    (``coords.frame``) and a lift (``multiplier.lift_frame``) alike.
    Evaluating the base on the mapped jets is the chain rule and guards the
    base's domain at the mapped values; pullbacks nest, and the factors of
    a separable base stay separable (``paired``).

    The time step evaluates the frame and the base's time step at t' (a
    nested pullback's inner frame); the space step maps the space jets,
    runs the base's space step on them and pairs its factors with the
    multiplier's.  A frame with batch axes (a batched element's) declares
    their shape in ``batch``.
    """

    def __init__(self, base: SmoothFn, frame, ndim=None, batch=()):
        self.base = base
        self.frame = frame
        self.ndim = base.ndim if ndim is None else ndim
        self.batch = np.broadcast_shapes(batch, base.batch) if batch and base.batch else batch or base.batch

    def at_time(self, tj):
        fr = self.frame(tj)
        base = self.base.at_time(fr.tp)

        def space(xjs):
            bs = base(fr.space(xjs))  # before the multiplier: the lower peak of memory
            return paired(bs, fr.multiplier_factors(xjs))

        return space


class FormulaFn(SmoothFn):
    """A jet-generic formula f(t, x...) as a SmoothFn.

    The formula returns a jet, or a tuple of factors whose product is f,
    one per space coordinate (``SmoothFn.factors_at``).  With a ``rate``
    the formula's first argument is the exponential variable
    s = e^{rate t} instead of t, and ``jet_s`` gives its jets in (s, x)
    themselves, as the oscillator family's operators need.
    """

    def __init__(self, formula, ndim=1, rate=None):
        self.formula = formula
        self.ndim = ndim
        self.rate = rate

    def at_time(self, tj):
        s = tj if self.rate is None else jets.exp(self.rate * tj)

        def space(xjs):
            out = self.formula(s, *xjs)
            return out if isinstance(out, tuple) else (out,)

        return space

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
    t_min = float(-np.real(t0)) if is_real(k, "k") else None

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
    in x.  The terms are one jet whose coefficients carry a leading n
    axis, ahead of the axes of t and x, which ``Jet.sum`` then sums.
    Evaluation needs Im t > 0, and raises ``ConvergenceError`` when the
    tail bound at Im t exceeds 1e-12.
    """
    if trunc < 10:
        raise DomainError("trunc must be >= 10")

    def formula(t, x):
        im = np.imag(jets.value_of(t))
        _above(im, 0, "Im t")
        bound = np.max(4.0 * np.exp(-np.pi * (trunc + 0.5) ** 2 * np.minimum(im, 50.0)))
        if bound > 1e-12:
            raise ConvergenceError(f"series tail bound {bound:.3e} exceeds 1e-12")
        ndim = max(np.ndim(jets.value_of(t)), np.ndim(jets.value_of(x)))
        n = np.arange(1 - trunc, trunc + 1).reshape((-1,) + (1,) * ndim)
        terms = jets.exp(1j * np.pi * (n - 0.5) ** 2 * t + 1j * np.pi * (2 * n - 1) * x)
        return (terms * (1j * (-1.0) ** n)).sum(axis=0)

    return FormulaFn(formula)


def f_pair(spec: FamilySpec):
    """Static-exponent and spreading solutions f1, f2 of the linear-potential
    family: the f1/f2 lifts of the constant 1 (``multiplier.lift_frame``),
    so the spreading one guards t > 0."""
    if spec.family != LINEAR:
        raise DomainError("f_pair needs the linear family")
    return tuple(PullbackFn(constant_one(), lift_frame(kind, spec)) for kind in ("f1", "f2"))


def phi_pair(spec: FamilySpec):
    """Multipliers phi1, phi2 of the inverse lifts back to the free equation
    (their lifts of the constant 1); the second guards t > 0."""
    if spec.family != LINEAR:
        raise DomainError("phi_pair needs the linear family")
    return tuple(PullbackFn(constant_one(), lift_frame(kind, spec)) for kind in ("phi1", "phi2"))


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
    """Exact plane-wave solution of the 2-d cubic equation (imaginary k),
    amplitude exp(i p.x + rate t), given as its two factors
    exp(i p_1 x_1 + rate t) and amplitude exp(i p_2 x_2), one per space
    axis: each spans only t (or nothing) and its own coordinate, and a
    pullback pairs each with the multiplier's factor of that axis."""
    if spec.family != NLS2D:
        raise DomainError("plane_wave_nls needs the 2-d NLS family")
    p = tuple(p)
    if len(p) != 2:
        raise DomainError("momentum must have two components")
    k, lam = spec.k, spec.coupling
    p2 = p[0] ** 2 + p[1] ** 2
    rate = k * (lam * amplitude ** 2 - p2)

    def formula(tj, x1, x2):
        return jets.exp(1j * p[0] * x1 + rate * tj), jets.exp(1j * p[1] * x2) * amplitude

    return FormulaFn(formula, ndim=2)


# -- bound-state machinery -----------------------------------------------------


@dataclass(frozen=True)
class AirySpec:
    """The potential alpha + beta x of the halfline bound state; its energy
    is E = -alpha."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError("beta must be positive for square integrability")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
PANEL_WIDTH = 0.25  # of the composite Gauss-Legendre rule along the ray

# caps of the Airy code's loops, past which they raise ConvergenceError: a
# truncation grown 1000 times covers |p| up to ~6e5 beta^2, and a root
# search takes about 4 Newton steps, while 100 midpoint steps would take
# any bracket of the energy scan down to adjacent floats
TRUNCATION_STEPS = 1000
ROOT_STEPS = 100
SCAN_POINTS, ROOT_WIDTH = 61, 1e-10  # of the energy scan and its root brackets


def _contour_integral(p, beta, moments):
    """2 Re of the oscillatory integral of exp(i(p z + beta^2 z^3/3)) over
    the ray e^{i pi/6} from 0, where the cubic phase decays; ``moments``
    selects x-derivative weights (i beta z)^m.  The result has one row per
    moment order, each of the shape of ``p``.  Each ``p`` gets the least
    whole truncation at which the phase has decayed, and the Gauss-Legendre
    nodes of all panels are one array, evaluated for every ``p`` of one
    truncation at once.

    For p < 0 the integrand first grows to its peak e^g, g = (2/3)
    (-p/2)^{3/2} / beta, and the sum cancels; a node's phase there is of
    size ~g, so the error estimate adds the round-off eps e^g (1 + g) to
    the truncated tail, and past 1e-8 it raises ``QuadratureError``."""
    p = np.asarray(p, dtype=float)
    ray = np.exp(1j * np.pi / 6.0)
    trunc, steps = np.full(p.shape, 4.0), 0
    while np.any(short := beta ** 2 * trunc ** 3 / 3.0 - abs(p) * trunc / 2.0 < 45.0):
        if steps == TRUNCATION_STEPS:
            raise ConvergenceError(f"no truncation up to {trunc.max():.0f} decays the phase")
        trunc, steps = trunc + short, steps + 1
    # |integrand| = exp(-p r / 2 - beta^2 r^3 / 3) at z = r e^{i pi/6}
    tail = np.exp(-p * trunc / 2.0 - beta ** 2 * trunc ** 3 / 3.0) / (beta ** 2 * trunc ** 2 / 2.0)
    g = (2.0 / 3.0) * np.maximum(-p / 2.0, 0.0) ** 1.5 / beta
    error = (tail + np.finfo(float).eps * np.exp(g) * (1.0 + g)) * np.maximum(abs(p), 1.0) ** max(moments)
    if np.any(error > 1e-8):
        raise QuadratureError(f"error estimate {np.max(error):.3e} exceeds 1e-8")

    out = np.empty((len(moments),) + p.shape)
    for length in np.unique(trunc):
        sel = trunc == length
        edges = np.linspace(0.0, length, int(np.ceil(length / PANEL_WIDTH)) + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        z = (ray * (mid[:, None] + half[:, None] * _GL_NODES)).ravel()
        w = (ray * half[:, None] * _GL_WEIGHTS).ravel()
        wf = np.multiply.outer(p[sel], z)  # in place from here: one (p, node) array
        wf += beta ** 2 * z ** 3 / 3.0
        wf *= 1j
        np.exp(wf, out=wf)
        wf *= w
        out[:, sel] = [2.0 * np.real(np.sum(wf * (1j * beta * z) ** m, axis=-1)) for m in moments]
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
        return _contour_integral(self._shifted_potential(x), self.spec.beta,
                                 tuple(range(max_order + 1)))

    def _shifted_potential(self, x):
        """alpha + beta x = V(x) - E: the quadrature's argument p and the
        coefficient of u in the bound-state equation."""
        return self.spec.alpha + self.spec.beta * np.asarray(x)

    def ode_residual(self, x):
        """-u'' + beta x u - E u with E = -alpha; zero for the true
        bound-state profile."""
        u, _, upp = self.derivatives(x, 2)
        return -upp + self._shifted_potential(x) * u


def eigenvalue_scan(spec: AirySpec, e_range):
    """Roots of the x = 0 boundary condition in the energy window.

    Brackets sign changes of u(0; E) on a uniform scan of ``SCAN_POINTS``
    energies, evaluated as one batch, then refines each bracket by the
    certified Newton search of ``_bracketed_root``: each root returned is
    the midpoint of a sign-change bracket of width at most ``ROOT_WIDTH``.
    """
    lo, hi = e_range
    if not hi > lo:
        raise DomainError("empty energy window")

    es = np.linspace(lo, hi, SCAN_POINTS)
    vals = _contour_integral(-es, spec.beta, (0,))[0]
    roots = []
    for i in range(len(es) - 1):
        if vals[i] == 0.0:
            roots.append(es[i])
        elif np.sign(vals[i]) * np.sign(vals[i + 1]) < 0:
            roots.append(_bracketed_root(spec.beta, es[i], es[i + 1], vals[i]))
    if not roots:
        raise NoRootError(f"no sign change of u(0; E) in [{lo}, {hi}]")
    return roots


def _bracketed_root(beta, a, b, fa):
    """The root of u(0; E) in the bracket [a, b], where u(0; a) = ``fa``,
    by safeguarded Newton steps from the midpoint.

    One quadrature gives u and u_x, so du/dE = -u_x / beta at x = 0.  Each
    evaluation shrinks the bracket, and a Newton step that leaves it is
    replaced by its midpoint.  A step shorter than ROOT_WIDTH / 4 ends the
    search if u changes sign between E -+ ROOT_WIDTH / 2 (one two-point
    quadrature): E is then the midpoint of a bracket of width ROOT_WIDTH,
    as bisection would give, and if it does not change sign the search goes
    on from the midpoint.  After ``ROOT_STEPS`` steps it raises
    ``ConvergenceError``.
    """
    e = 0.5 * (a + b)
    for _ in range(ROOT_STEPS):
        if b - a <= ROOT_WIDTH:
            return 0.5 * (a + b)
        u, ux = _contour_integral(-e, beta, (0, 1))
        if u == 0.0:
            return e
        if np.sign(u) == np.sign(fa):
            a, fa = e, u
        else:
            b = e
        step = beta * u / ux if ux != 0.0 else np.inf  # -u / (du/dE)
        if not a <= e + step <= b:
            e = 0.5 * (a + b)
            continue
        e += step
        if abs(step) < ROOT_WIDTH / 4.0:
            lo, hi = _contour_integral(-e + np.array([0.5, -0.5]) * ROOT_WIDTH, beta, (0,))[0]
            if np.sign(lo) * np.sign(hi) <= 0:
                return e
            e = 0.5 * (a + b)
    raise ConvergenceError(f"no certified root after {ROOT_STEPS} steps; bracket width {b - a:.3e}")
