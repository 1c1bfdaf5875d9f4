"""Residual verification of the defining evolution operator.

Evaluates r = psi_t - k (Delta psi - V psi) on jet-backed functions,
builds transformed and lifted functions K * psi(mapped coordinates) as
pullbacks (``PullbackFn``, re-exported from ``solutions``) through a group
element's frame or a lift's frame (``lift_frame``, re-exported from
``multiplier``), and checks the operator intertwining identity pointwise,
including on functions that do not solve the equation.

Grids are sampled on broadcastable axes (``GridSpec.points``): the time
axis varies along the first array dimension and each space axis along its
own, so the frame and the time-only jets hold one value per time, and only
what mixes ``t`` with ``x`` is computed on the whole grid.  A report reads
the axes only at the worst point.

An element whose entries have shape ``(n,)`` is a batch of n elements on
its own leading axis (``(n, 1, ..., 1)`` against ``t (nt, 1)`` and
``x (1, nx)``): one verification covers the batch, and its report has one
``max_abs``/``max_rel`` per element.  A scalar element is batch shape ().
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .coords import LINEAR, NLS2D, QUADRATIC, FamilySpec, frame
from .errors import DomainError
from .group import GroupElement, Mat2
from .jets import Jet, value_of
from .multiplier import lift_frame
from .solutions import PullbackFn, SmoothFn, paired

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
        """Axes ``(t, [x_1, ..., x_ndim])``, each varying along its own
        dimension: read-only arrays, built once per grid value and ``ndim``."""
        t, *xs = _axes(tuple(self.t_range), tuple(self.x_range), self.nt, self.nx, ndim)
        return t, xs


@lru_cache(maxsize=16)
def _axes(t_range, x_range, nt, nx, ndim):
    ts = np.linspace(t_range[0], t_range[1], nt)
    xs = np.linspace(x_range[0], x_range[1], nx)
    mesh = np.meshgrid(ts, *(xs + 0.37 * i for i in range(ndim)), indexing="ij", sparse=True)
    for axis in mesh:
        axis.flags.writeable = False
    return tuple(mesh)


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
    """V(x), the sum over the coordinates x_j of the one-coordinate
    potential ``spec.potential``; ``xs`` is a list of per-coordinate arrays
    (or scalars).  A negative power divides: c / x^-p."""
    coefs = spec.potential.items()
    total = 0.0
    for x in map(np.asarray, xs):
        v = 0.0
        for p, c in coefs:
            v = v + (c if p == 0 else c * x ** p if p > 0 else c / x ** -p)
        total = total + v
    return total


def _residual(spec: FamilySpec, psi_t, laplacian, psi, xs):
    """psi_t - k (Delta psi - V psi); the NLS family has the cubic term
    in place of the potential."""
    if spec.family == NLS2D:
        return psi_t - spec.k * (laplacian + spec.coupling * np.abs(psi) ** 2 * psi)
    return psi_t - spec.k * (laplacian - potential(spec, xs) * psi)


def _residual_from_jet(j, spec: FamilySpec, xs):
    ndim = j.nvars - 1
    pt = j.partial((1,) + (0,) * ndim)
    # summed from its first term: one space coordinate reads its row as is
    lap = reduce(operator.add, (j.partial(tuple(2 * (v == i) for v in range(1 + ndim)))
                                for i in range(1, 1 + ndim)))
    return _residual(spec, pt, lap, j.value, xs)


def residual_arrays(fn: SmoothFn, spec: FamilySpec, t, xs):
    """Vectorized residual and value over point arrays; float64 for a real
    family on real points (the dtype rule of ``jets``)."""
    j = fn.jet(t, xs, 2)
    return _residual_from_jet(j, spec, xs), j.value


def _fd_residual_arrays(fn: SmoothFn, spec: FamilySpec, t, xs, h):
    """Centered second-order stencils on function values."""
    def val(tv, xvs):
        return fn.jet(tv, xvs, 0).value

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
    the last ``t.ndim`` axes; batch axes ahead of them are kept.  Each grid
    axis varies along its own dimension (``GridSpec.points``), so the worst
    point's coordinates are read off the axes at its unravelled index."""
    shape = np.broadcast(resid, scale, t, *xs).shape
    nb = len(shape) - np.ndim(t)
    batch, grid = shape[:nb], shape[nb:]
    absr = np.abs(resid)
    rel = absr / (scale + REL_FLOOR)
    absr, rel = ((a if a.shape == shape else np.broadcast_to(a, shape)).reshape(batch + (-1,))
                 for a in (absr, rel))
    at = np.unravel_index(absr.argmax(axis=-1), grid)

    def out(a, kind):  # a scalar for one function, an array for a batch
        return a if batch else kind(a)

    return ResidualReport(
        max_abs=out(absr.max(axis=-1), float),
        max_rel=out(rel.max(axis=-1), float),
        argmax=tuple(out(a.ravel()[i].astype(complex), complex) for a, i in zip((t, *xs), at)),
        n_points=absr.size,
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
    return PullbackFn(fn, lambda tj: frame(l, spec, tj), ndim=spec.n)


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
    than solution preservation.  The frame is evaluated once, on the seeded
    time jet: the left-hand side evaluates fn on its jets (the pullback) and
    the right-hand side reads its value rows.
    """
    t, xs = grid.points(spec.n)
    nv = 1 + spec.n
    tj = Jet.variable(t, 0, nv, 2)
    xjs = [Jet.variable(x, 1 + i, nv, 2) for i, x in enumerate(xs)]
    fr = frame(_batch_first(l, nv), spec, tj)
    xps, ks = fr.space(xjs), fr.multiplier_factors(xjs)
    pulled = reduce(operator.mul, paired(fn.factors_at(fr.tp, xps), ks))
    # the right-hand side reads the value rows of the same frame evaluation
    base_res, _ = residual_arrays(fn, spec, value_of(fr.tp), [value_of(x) for x in xps])
    xi = value_of(fr.xi)
    rhs = xi * xi * reduce(operator.mul, map(value_of, ks)) * base_res
    return _report(_residual_from_jet(pulled, spec, xs) - rhs, np.abs(rhs) + np.abs(pulled.value),
                   t, xs)
