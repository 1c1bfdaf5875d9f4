"""Residual verification of the defining evolution operator.

Evaluates r = psi_t - k (Delta psi - V psi) on jet-backed functions, builds
transformed functions K * psi(mapped coordinates) with chain-rule partials,
and checks the operator intertwining identity pointwise, including on
functions that do not solve the equation.

Grids are sampled on broadcastable axes (``GridSpec.points``): the time
axis varies along the first array dimension and each space axis along its
own, so the frame and the time-only jets hold one value per time, and only
what mixes ``t`` with ``x`` is computed on the whole grid.  Reports
broadcast their arrays before locating the worst point.

An element whose entries have shape ``(n,)`` is a batch of n elements on
its own leading axis (``(n, 1, ..., 1)`` against ``t (nt, 1)`` and
``x (1, nx)``): one verification covers the batch, and its report has one
``max_abs``/``max_rel`` per element.  A scalar element is batch shape ().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .coords import (
    FREE,
    INVERSE_QUADRATIC,
    LINEAR,
    NDIM_LINEAR,
    NLS2D,
    QUADRATIC,
    FamilySpec,
    frame,
)
from .errors import DomainError
from .group import GroupElement, Mat2
from .multiplier import IntertwinerParams, k0_map
from .solutions import SmoothFn

REL_FLOOR = 1e-300


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid."""

    t_range: tuple
    x_range: tuple
    nt: int = 14
    nx: int = 14

    def __post_init__(self):
        if self.nt < 3 or self.nx < 3:
            raise DomainError("grid needs at least 3 points per axis")
        if not (self.t_range[1] > self.t_range[0] and self.x_range[1] > self.x_range[0]):
            raise DomainError("grid ranges must be nondegenerate")

    def points(self, ndim=1):
        """Axes ``(t, [x_1, ..., x_ndim])``, each varying along its own dimension."""
        ts = np.linspace(self.t_range[0], self.t_range[1], self.nt)
        xs = np.linspace(self.x_range[0], self.x_range[1], self.nx)
        mesh = np.meshgrid(ts, *(xs + 0.37 * i for i in range(ndim)), indexing="ij", sparse=True)
        return mesh[0], list(mesh[1:])


@dataclass(frozen=True)
class ResidualReport:
    """Grid summary of a pointwise residual: floats for one function,
    arrays of the batch shape for a batch; ``n_points`` counts them all."""

    max_abs: float
    max_rel: float
    argmax: tuple
    n_points: int

    def __str__(self):
        i = np.argmax(self.max_rel) if np.ndim(self.max_rel) else ()  # a batch's worst entry
        return (f"max_abs={np.asarray(self.max_abs)[i]:.3e} max_rel={np.asarray(self.max_rel)[i]:.3e} "
                f"at (t, x)={tuple(complex(np.asarray(a)[i]) for a in self.argmax)} "
                f"over {self.n_points} points")


def potential(spec: FamilySpec, xs):
    """V(x); ``xs`` is a list of per-coordinate arrays (or scalars)."""
    if spec.family in (FREE, NLS2D):
        return 0.0
    if spec.family == INVERSE_QUADRATIC:
        x2 = sum(np.asarray(x) ** 2 for x in xs)
        return spec.alpha / x2
    if spec.family == LINEAR:
        return spec.alpha + spec.beta * np.asarray(xs[0])
    if spec.family == QUADRATIC:
        return spec.alpha + spec.omega ** 2 * np.asarray(xs[0]) ** 2
    if spec.family == NDIM_LINEAR:
        return sum(spec.alpha + spec.beta * np.asarray(x) for x in xs)
    raise DomainError(f"no potential for family {spec.family!r}")


def _residual(spec: FamilySpec, psi_t, laplacian, psi, xs):
    """psi_t - k (Delta psi - V psi); the NLS family has the cubic term
    in place of the potential."""
    if spec.family == NLS2D:
        return psi_t - spec.k * (laplacian + spec.coupling * np.abs(psi) ** 2 * psi)
    return psi_t - spec.k * (laplacian - potential(spec, xs) * psi)


def _residual_from_jet(j, spec: FamilySpec, xs):
    ndim = j.nvars - 1
    pt = j.partial((1,) + (0,) * ndim)
    lap = 0.0
    for i in range(ndim):
        alpha = [0] * (ndim + 1)
        alpha[1 + i] = 2
        lap = lap + j.partial(tuple(alpha))
    return _residual(spec, pt, lap, j.value, xs)


def residual_arrays(fn: SmoothFn, spec: FamilySpec, t, xs):
    """Vectorized residual and value over point arrays; float64 for a real
    family on real points (the dtype rule of ``jets``)."""
    x_arg = xs[0] if fn.ndim == 1 else tuple(xs)
    j = fn.jet(t, x_arg, 2)
    return _residual_from_jet(j, spec, xs), j.value


def _fd_residual_arrays(fn: SmoothFn, spec: FamilySpec, t, xs, h):
    """Centered second-order stencils on function values."""
    def val(tv, xvs):
        x_arg = xvs[0] if fn.ndim == 1 else tuple(xvs)
        return fn.jet(tv, x_arg, 0).value

    psi = val(t, xs)
    pt = (val(t + h, xs) - val(t - h, xs)) / (2.0 * h)
    lap = 0.0
    for i in range(len(xs)):
        up = [x + (h if j == i else 0.0) for j, x in enumerate(xs)]
        dn = [x - (h if j == i else 0.0) for j, x in enumerate(xs)]
        lap = lap + (val(t, up) - 2.0 * psi + val(t, dn)) / h ** 2
    return _residual(spec, pt, lap, psi, xs), psi


def _report(resid, scale, t, xs):
    """Summary of ``|resid|`` relative to ``scale`` over the broadcast grid,
    the last ``t.ndim`` axes; batch axes ahead of them are kept."""
    resid, scale, *coords = np.broadcast_arrays(resid, scale, t, *xs)
    nb = resid.ndim - np.ndim(t)
    batch, grid = resid.shape[:nb], resid.shape[nb:]
    absr = np.abs(resid).reshape(batch + (-1,))
    rel = absr / (scale.reshape(batch + (-1,)) + REL_FLOOR)
    at = np.indices(batch, sparse=True) + np.unravel_index(absr.argmax(axis=-1), grid)

    def out(a, kind):  # a scalar for one function, an array for a batch
        return a if batch else kind(a)

    return ResidualReport(
        max_abs=out(absr.max(axis=-1), float),
        max_rel=out(rel.max(axis=-1), float),
        argmax=tuple(out(a[at].astype(complex), complex) for a in coords),
        n_points=resid.size,
    )


def grid_residual(fn: SmoothFn, spec: FamilySpec, grid: GridSpec) -> ResidualReport:
    """Residual report over the whole grid, relative to ``|psi|``.  A grid
    that leaves the function's domain raises ``DomainError`` (from the
    function's jet): no point is dropped."""
    t, xs = grid.points(fn.ndim)
    resid, psi = residual_arrays(fn, spec, t, xs)
    return _report(resid, np.abs(psi), t, xs)


def fd_order(fn: SmoothFn, spec: FamilySpec, grid: GridSpec):
    """Observed order at which the residual of centered stencils at steps
    1e-3 and 5e-4 approaches the analytic residual over the grid; NaN when
    the second error is not positive, so that the order cannot be measured."""
    t, xs = grid.points(fn.ndim)
    exact, _ = residual_arrays(fn, spec, t, xs)
    e1, e2 = (np.max(np.abs(_fd_residual_arrays(fn, spec, t, xs, h)[0] - exact))
              for h in (1e-3, 1e-3 / 2.0))
    return float(np.log2(e1 / e2)) if e2 > 0 else math.nan


class PullbackFn(SmoothFn):
    """K(t, x) * psi(t', x') with chain-rule partials through the frame.

    ``frame(t_jet, x_jets) -> (t'_jet, [x'_jets], K_jet)`` fixes the
    coordinate map and multiplier; the base function's jet at the mapped
    point, which guards the base's domain, is Taylor-composed with the map
    jets.
    """

    def __init__(self, base: SmoothFn, frame, ndim=None):
        self.base = base
        self.frame = frame
        self.ndim = base.ndim if ndim is None else ndim

    def jet(self, t, x, order):
        tj, xjs = self._seed(t, x, order)
        tp, xps, kj = self.frame(tj, xjs)
        tv = jets.value_of(tp)
        xvs = [jets.value_of(xp) for xp in xps]
        bj = self.base.jet(tv, xvs[0] if self.base.ndim == 1 else tuple(xvs), order)
        return jets.compose(bj, [tp] + xps) * kj


def _batch_first(l: GroupElement, naxes):
    """``l`` with its entries' batch axes ahead of ``naxes`` grid axes."""
    entries = (l.c, l.d, l.a, l.b, l.mu, l.nu)
    if not any(isinstance(v, np.ndarray) for v in entries):
        return l
    c, d, a, b, mu, nu = (np.reshape(v, np.shape(v) + (1,) * naxes) for v in entries)
    return GroupElement(Mat2(c, d, a, b), mu, nu)


def transformed(fn: SmoothFn, l: GroupElement, spec: FamilySpec) -> PullbackFn:
    """The group-transformed function K(Z | element) * fn(element Z); a
    batched element gives a function with the batch axes leading."""
    l = _batch_first(l, 1 + spec.n)

    def pullback(tj, xjs):
        fr = frame(l, spec, tj)
        return fr.tp, list(fr.space(xjs)), fr.multiplier(xjs)

    return PullbackFn(fn, pullback, ndim=spec.n)


def lift_frame(map_kind: str, spec: FamilySpec, params: IntertwinerParams = None):
    """Frame of one of the named solution-space lifts.

    f1/f2 lift free solutions into the linear family, phi1/phi2 invert
    them, K0 lifts free solutions into the quadratic family.
    """
    if map_kind == "K0":
        if params is None:
            raise DomainError("the K0 lift needs intertwiner constants")

        def frame(tj, xjs):
            tp, xp, kj = k0_map(params, spec, tj, xjs[0])
            return tp, [xp], kj

        return frame

    from .solutions import f_pair, phi_pair

    k2b = spec.k ** 2 * spec.beta
    if map_kind in ("f1", "f2"):
        F = f_pair(spec)[0 if map_kind == "f1" else 1]
    elif map_kind in ("phi1", "phi2"):
        F = phi_pair(spec)[0 if map_kind == "phi1" else 1]
    else:
        raise DomainError(f"unknown map kind {map_kind!r}")

    def frame(tj, xjs):
        xj = xjs[0]
        if map_kind == "f1":
            tp, xp = tj, xj - k2b * tj * tj
        elif map_kind == "f2":
            tp, xp = -tj.reciprocal(), xj / tj - k2b * tj
        elif map_kind == "phi1":
            tp, xp = tj, xj + k2b * tj * tj
        else:  # phi2
            tp, xp = -tj.reciprocal(), xj / tj + k2b * tj.reciprocal() * tj.reciprocal()
        kj = F.jet(jets.value_of(tj), jets.value_of(xj), tj.order)
        return tp, [xp], kj

    return frame


def verify_transformed_solution(fn: SmoothFn, l: GroupElement, spec: FamilySpec,
                       grid: GridSpec) -> ResidualReport:
    """Residual of the transformed function; zero when fn solves the family."""
    return grid_residual(transformed(fn, l, spec), spec, grid)


def verify_lifted_solution(psi0: SmoothFn, map_kind: str, params,
                       spec_from: FamilySpec, spec_to: FamilySpec,
                       grid: GridSpec) -> ResidualReport:
    """Residual of the lifted function against the target family."""
    fam = spec_to if spec_to.family in (LINEAR, QUADRATIC) else spec_from
    mapped = PullbackFn(psi0, lift_frame(map_kind, fam, params))
    return grid_residual(mapped, spec_to, grid)


def verify_intertwining(fn: SmoothFn, l: GroupElement, spec: FamilySpec,
                        grid: GridSpec) -> ResidualReport:
    """Pointwise check of the operator identity behind the symmetry.

    Compares (d/dt - k Delta + k V)[K fn(mapped)] against
    xi^2 * K * [(d/dt' - k Delta' + k V') fn](mapped), with xi^2 = dt'/dt;
    fn need not solve the equation, so this tests the identity itself rather
    than solution preservation.
    """
    t, xs = grid.points(spec.n)
    lhs, psi_prime = residual_arrays(transformed(fn, l, spec), spec, t, xs)
    fr = frame(_batch_first(l, 1 + spec.n), spec, t)
    base_res, _ = residual_arrays(fn, spec, fr.tp, list(fr.space(xs)))
    rhs = fr.xi * fr.xi * fr.multiplier(xs) * base_res
    return _report(lhs - rhs, np.abs(rhs) + np.abs(psi_prime), t, xs)
