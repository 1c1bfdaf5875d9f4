"""Reference solutions with analytic partial derivatives.

Every closed-form solution here is a ``FormulaFn``, a ``GaussianFn`` or a
``PullbackFn``.  A formula is the closed form written once as jet
arithmetic.  A Gaussian exp(A + B x + C x^2) is its exponent, the
coefficients A, B, C as functions of time alone: the free kernel, the
oscillator family's g1-g3 and the constant 1.  A pullback evaluates its
base on the jets that a ``Frame`` maps and multiplies by the frame's
multiplier, so the linear family's f1, f2, phi1, phi2 are the lifts of
the constant 1.  Frames compose (``Frame.then``): a pullback of a
pullback, or of a Gaussian, is one frame, and a Gaussian folds into it
whole.  Evaluating any of them on jets yields partial derivatives of any
order, and the residual verifier and the operator algebra never fall
back to finite differences.  A formula, an exponent or a frame guards
its own domain and raises ``DomainError`` there.  The oscillator
family's functions take the exponential variable s = e^{2 k omega t} as
their first argument.

Evaluation is two steps, and a function class defines them in one
method, ``split_at``.  The time step takes the time jet and evaluates
everything that depends on time only, a pullback's frame composed with
its base's and a formula's s = e^{rate t}; it returns the frame of the
multiplier K (None for a formula) and the space step, which gives the
innermost base's factors at the jets that frame maps (None for beta = 1,
when the innermost base is a Gaussian).  ``at_time`` and ``jet_at`` derive from
it (``pairing``).  The residual verifier takes the time step once per
verification and the space step once per tile of the grid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import jets
from .coords import FamilySpec, Frame, LINEAR, QUADRATIC, NLS2D, _above, _terms, is_real
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
    coefficients may be numpy arrays.  A subclass defines ``split_at``
    only.  ``batch`` is the shape of the batch axes that its values carry
    ahead of the grid's, a batched element's (``residual.transformed``).
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
        product, left to right, of the factors of ``at_time``; an exponent
        that is the literal 0 (``constant_one``) gives the constant jet 1."""
        psi = reduce(operator.mul, self.at_time(tj)(xjs))
        return psi if isinstance(psi, Jet) else Jet.const(psi, tj.nvars, tj.order)

    def split_at(self, tj):
        """The time step, ``(frame, space)`` for psi = K beta: K the frame's
        multiplier (frame None for K = 1) and ``space(yjs)`` the factors of
        beta at the space jets that the frame maps, yjs = frame.space(xjs)
        (xjs for K = 1), one jet or one per coordinate j, a function of t
        and x_j only; space None for beta = 1 (a Gaussian, ``GaussianFn``).
        A guard on time raises here."""
        raise NotImplementedError

    def at_time(self, tj):
        """The time step of psi's factors: with K = 1 the space step of
        ``split_at``, otherwise beta's times K's (``pairing``)."""
        fr, space = self.split_at(tj)
        if fr is None:
            return space

        def pulled(xjs):
            # the base before the multiplier: the lower peak of memory
            beta = () if space is None else space(fr.space(xjs))
            ks = fr.multiplier_factors(xjs)
            return tuple(_terms((b, reduce(operator.mul, [ks[j] for j in on])))
                         for on, b in pairing(beta, len(ks)))

        return pulled

    def value(self, t, x):
        return self.jet(t, x, 0).value

    def partial(self, t, x, orders):
        """Partial derivative; ``orders`` = (t order, x order, ...)."""
        return self.jet(t, x, jets.weight(tuple(orders))).partial(orders)

    def _seed(self, t, x, order):
        """Seeds of t and of the ``ndim`` space coordinates of ``x``;
        ``DomainError`` for another number of coordinates."""
        nv = 1 + self.ndim
        several = isinstance(x, (tuple, list)) or self.ndim > 1 and np.ndim(x) > 0
        xs = list(x) if several else [x]
        if len(xs) != self.ndim:
            raise DomainError(f"a function of {self.ndim} space coordinates at {len(xs)}")
        xjs = [Jet.variable(xc, 1 + i, nv, order) for i, xc in enumerate(xs)]
        return Jet.variable(t, 0, nv, order), xjs


def pairing(factors, n):
    """``(coordinates j, beta)`` pairs of the factors of a function of ``n``
    space coordinates with the multiplier factors K_j.  One factor per
    coordinate pairs factor j with K_j: both depend on t and x_j only, so
    on grid axes each pair spans one space axis.  No factors (beta = 1, a
    folded Gaussian) pair each K_j with the literal 1.0.  Otherwise the one
    product of the factors pairs with K_1 K_2 ...."""
    if not factors:
        factors = (1.0,) * n
    if len(factors) == n:
        return [((j,), beta) for j, beta in enumerate(factors)]
    return [(range(n), reduce(operator.mul, factors))]


class PullbackFn(SmoothFn):
    """K(t, x) * psi(t', x'): the base evaluated on the jets that a frame maps.

    ``frame(t) -> Frame`` (``coords.Frame``) gives t', the space map
    x' = xi x + f and the multiplier K at the time jet, for a symmetry
    (``coords.frame``) and a lift (``multiplier.lift_frame``) alike.
    Evaluating the base on the mapped jets is the chain rule and guards the
    base's domain at the mapped values; pullbacks nest, and the factors of
    a separable base stay separable (``pairing``).

    The time step evaluates the frame and the base's time step at t'; a
    base with a multiplier of its own (a nested pullback, a Gaussian)
    returns its frame, and the two compose into one (``Frame.then``),
    whose map takes x to the innermost base's coordinates at once.  The
    space step is the innermost base's, and a Gaussian innermost base (a
    lift of the constant 1 too) has none.  The multiplier stays apart, so
    that the residual verifier reads its exponent, not its jet.  A
    pullback has its base's ``ndim``; a frame with batch axes (a batched
    element's) declares their shape in ``batch``.
    """

    def __init__(self, base: SmoothFn, frame, batch=()):
        self.base = base
        self.frame = frame
        self.ndim = base.ndim
        self.batch = np.broadcast_shapes(batch, base.batch) if batch and base.batch else batch or base.batch

    def split_at(self, tj):
        fr = self.frame(tj)
        inner, space = self.base.split_at(fr.tp)
        return fr if inner is None else fr.then(inner), space


class FormulaFn(SmoothFn):
    """A jet-generic formula f(t, x...) as a SmoothFn.

    The formula returns a jet, or a tuple of factors whose product is f,
    one per space coordinate (``SmoothFn.split_at``).  With a ``rate``
    the formula's first argument is the exponential variable
    s = e^{rate t} instead of t, and ``jet_s`` gives its jets in (s, x)
    themselves, as the oscillator family's operators need.
    """

    def __init__(self, formula, ndim=1, rate=None):
        self.formula = formula
        self.ndim = ndim
        self.rate = rate

    def split_at(self, tj):
        s = self._variable(tj)

        def space(xjs):
            out = self.formula(s, *xjs)
            return out if isinstance(out, tuple) else (out,)

        return None, space

    def _variable(self, tj):
        """The formula's time variable at the time jet: t or e^{rate t}."""
        return tj if self.rate is None else jets.exp(self.rate * tj)

    def jet_s(self, s, x, order):
        """Jet in the exponential variable itself."""
        if self.rate is None:
            raise DomainError("function is not represented in the exponential variable")
        sj, xjs = self._seed(s, x, order)
        return self.formula(sj, *xjs)

    def s_of_t(self, t):
        if self.rate is None:
            raise DomainError("function is not represented in the exponential variable")
        return self._variable(np.asarray(t))


class GaussianFn(FormulaFn):
    """exp(A + B x + C x^2) of one space coordinate, stated once as its
    exponent ``exponent(s) -> (A, B, C)`` in its time variable s (t, or
    e^{rate t}); a guard on time raises there.

    Its time step returns the exponent as the frame of the identity map,
    and there is no space step: beta = 1.  So a pullback through it folds
    it into its own multiplier (``Frame.then``), and the residual verifier
    forms no jet of it.  ``formula``, and so ``jet_s``, is the exponential
    of the same exponent."""

    def __init__(self, exponent, rate=None):
        self.exponent, self.rate = exponent, rate

    def _frame(self, tj, s):
        """The exponent at s as the frame of the identity map at tj, whose
        map only a space step would read."""
        return Frame(tj, 1.0, 0.0, *self.exponent(s))

    def formula(self, s, x):
        return self._frame(s, s).multiplier((x,))

    def split_at(self, tj):
        return self._frame(tj, self._variable(tj)), None


# -- library constructors ------------------------------------------------------


def gaussian_free(k, t0=0.0) -> GaussianFn:
    """Heat/Schrodinger kernel (4 pi k (t + t0))^{-1/2} e^{-x^2/(4k(t+t0))}:
    A = -(log(4 pi k) + log(t + t0))/2, each the principal root's
    logarithm, B = 0 and C = -1/(4k(t + t0)).  For a real k it guards
    t > -t0."""
    if k == 0:
        raise DomainError("k must be nonzero")
    amplitude = -0.5 * jets.log(4.0 * np.pi * k)
    t_min = float(-np.real(t0)) if is_real(k, "k") else None

    def exponent(t):
        if t_min is not None:
            _above(t, t_min, "t")
        tau = t + t0
        return -0.5 * jets.log(tau) + amplitude, 0.0, (-1.0 / (4.0 * k)) * jets.reciprocal(tau)

    return GaussianFn(exponent)


def constant_one() -> GaussianFn:
    """The constant 1: the Gaussian of exponent 0."""
    return GaussianFn(lambda t: (0.0, 0.0, 0.0))


def power_static(s_exponent, alpha) -> FormulaFn:
    """Static solution x^s of the scale-invariant family, s(s-1) = alpha,
    on x > 0: a product of factors for a whole real s, where the series of
    ``cpow`` would round differently, else the principal branch."""
    if abs(s_exponent * (s_exponent - 1.0) - alpha) > 1e-10:
        raise DomainError("s(s-1) must equal alpha")
    whole = np.imag(s_exponent) == 0 and float(np.real(s_exponent)).is_integer()

    def formula(t, x):
        _above(x, 0.0, "x")
        return x ** int(np.real(s_exponent)) if whole else jets.cpow(x, s_exponent)

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
    exponent parts become multiples of log s (principal, as the powers
    s^p were), and the coherent state's 1/sqrt(u), 1/u terms become
    s^{-1}, s^{-2}.
    """
    if spec.family != QUADRATIC:
        raise DomainError("g_functions needs the quadratic family")
    k, a, w = spec.k, spec.alpha, spec.omega
    up, down = (w - a) / (2.0 * w), -(w + a) / (2.0 * w)  # the weights' s-powers

    def g1(s):
        return up * jets.log(s), 0.0, w / 2.0

    def g2(s):
        return down * jets.log(s), 0.0, -w / 2.0

    # The linear term carries +gamma so the annihilation-type generator has
    # eigenvalue +gamma on g3; the opposite sign convention is the gamma ->
    # -gamma relabeling of the same one-parameter family.
    def g3(s):
        r = jets.reciprocal(s)
        return -gamma ** 2 / (4.0 * w) * r ** 2 + down * jets.log(s), gamma * r, -w / 2.0

    return tuple(GaussianFn(g, rate=2.0 * k * w) for g in (g1, g2, g3))


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
        # the quadrature's argument p is alpha + beta x = V(x) - E
        return _contour_integral(self.spec.alpha + self.spec.beta * np.asarray(x), self.spec.beta,
                                 tuple(range(max_order + 1)))


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
