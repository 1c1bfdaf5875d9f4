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

A verification evaluates a function in two steps (``SmoothFn.at_time``):
the time step, once, on the seeded time jet, evaluates the frame and every
time-only jet; the space step runs on tiles of the last space axis, each of
at most ``TILE_POINTS`` points, batch axes included.  Each tile is
summarized on its own and the summaries fold into one report, bit for bit
the report of one evaluation on the whole grid; a grid within the budget is
one tile.  A guard raises in the first tile that has a point outside its
domain or range, with the error of one evaluation on the whole grid.

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


# Points of one tile, batch axes included: the 224^2 and 37^3 grids of the
# benchmark's residual_large round take two tiles each (of 112 columns, of
# 18 and 19 planes), the checks' 14^2 grids one.  On a 2-vCPU Xeon (Python
# 3.11, numpy 2.4; perfbench/run.py residual_large, 20 s runs, ten pairs)
# that round's op_s_p50 fell 4 % and its peak_rss_mb from 56.3 to 49.5 MB
# against one tile.  At 25,088, three 37^3 tiles, the same round read the
# same or 40 % slower from run to run, as glibc happened to trim the heap;
# a tile costs ~0.4 ms of its own, so at 12,544 and below the round slows.
TILE_POINTS = 32_768


def _tiles(n, per_column):
    """Slices of a last space axis of ``n`` values, each of at most
    ``TILE_POINTS`` points where one value spans ``per_column``, in as few
    tiles as that allows and of widths that differ by at most one."""
    count = -(-n // max(1, TILE_POINTS // per_column))
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


def _report(resid, scale, t, xs):
    """Summary of ``|resid|`` relative to ``scale`` over one tile, the last
    ``t.ndim`` axes of the broadcast shape; batch axes ahead of them are
    kept: the maxima, the flat index in the tile of the first worst point
    in C order (``ndarray.argmax``'s), and the point count."""
    shape = np.broadcast(resid, scale, t, *xs).shape
    batch = shape[:len(shape) - t.ndim]
    absr = np.abs(resid)
    rel = absr / (scale + REL_FLOOR)
    absr, rel = ((a if a.shape == shape else np.broadcast_to(a, shape)).reshape(batch + (-1,))
                 for a in (absr, rel))
    return absr.max(axis=-1), rel.max(axis=-1), absr.argmax(axis=-1), absr.size


def _fold(a, b):
    """The summary of two tiles from theirs, with flat indices in the whole
    grid: maxima that propagate NaN, as ``ndarray.max`` does, and the point
    that ``ndarray.argmax`` would pick over both, a NaN before any number
    and of equal values the lower flat index; point counts add."""
    (abs_a, rel_a, at_a, n_a), (abs_b, rel_b, at_b, n_b) = a, b
    nan_a, nan_b = np.isnan(abs_a), np.isnan(abs_b)
    tie = (abs_a == abs_b) | (nan_a & nan_b)
    take_b = (nan_b & ~nan_a) | (abs_b > abs_a) | (tie & (at_b < at_a))
    return np.maximum(abs_a, abs_b), np.maximum(rel_a, rel_b), np.where(take_b, at_b, at_a), n_a + n_b


def _tile_report(tile, t, xs, grid, cols):
    """``_report`` of ``tile`` on the columns ``cols`` of the last space
    axis, with the worst point's flat index in the whole ``grid``."""
    *head, last = xs
    part = [*head, last[..., cols]]
    max_abs, max_rel, at, n = _report(*tile(part), t, part)
    *at, col = np.unravel_index(at, grid[:-1] + (cols.stop - cols.start,))
    return max_abs, max_rel, np.ravel_multi_index((*at, col + cols.start), grid), n


def _tiled(tile, batch, t, xs) -> ResidualReport:
    """Report of ``tile(xs) -> (resid, scale)`` over the grid of the axes
    ``t`` and ``xs``, whose values carry the batch axes ``batch`` ahead of
    the grid's.  It is evaluated on tiles of the last space axis
    (``_tiles``), whose summaries fold into the report of the whole grid
    (``_fold``): bit for bit the report of one evaluation on it.  Each grid
    axis varies along its own dimension (``GridSpec.points``), so the worst
    point's coordinates are read off the axes at its unravelled index."""
    grid = np.broadcast(t, *xs).shape
    tiles = _tiles(grid[-1], math.prod(batch) * math.prod(grid[:-1]))
    if len(tiles) == 1:  # the flat index in the tile is the grid's
        summary = _report(*tile(xs), t, xs)
    else:
        summary = reduce(_fold, (_tile_report(tile, t, xs, grid, cols) for cols in tiles))
    max_abs, max_rel, at, n_points = summary
    batched = np.ndim(max_abs) > 0

    def out(a, kind):  # a scalar for one function, an array for a batch
        return a if batched else kind(a)

    return ResidualReport(
        max_abs=out(max_abs, float),
        max_rel=out(max_rel, float),
        argmax=tuple(out(a.ravel()[i].astype(complex), complex)
                     for a, i in zip((t, *xs), np.unravel_index(at, grid))),
        n_points=n_points,
    )


def _seeds(xs):
    """Jets of the space coordinates ``xs``, variables 1..len(xs), order 2."""
    return [Jet.variable(x, 1 + i, 1 + len(xs), 2) for i, x in enumerate(xs)]


def grid_residual(fn: SmoothFn, spec: FamilySpec, grid: GridSpec) -> ResidualReport:
    """Residual report over the whole grid, relative to ``|psi|``.  The
    function's time step is taken once and its space step once per tile
    (``_tiled``).  A grid that leaves the function's domain raises
    ``DomainError`` (from the function's jet): no point is dropped."""
    t, xs = grid.points(fn.ndim)
    space = fn.at_time(Jet.variable(t, 0, 1 + fn.ndim, 2))

    def tile(xs):
        j = reduce(operator.mul, space(_seeds(xs)))
        return _residual_from_jet(j, spec, xs), np.abs(j.value)

    return _tiled(tile, fn.batch, t, xs)


def fd_order(fn: SmoothFn, spec: FamilySpec, grid: GridSpec):
    """Observed order at which the residual of centered stencils at steps
    1e-3 and 5e-4 approaches the analytic residual over the grid; NaN when
    the second error is not positive, so that the order cannot be measured."""
    t, xs = grid.points(fn.ndim)
    exact, _ = residual_arrays(fn, spec, t, xs)
    e1, e2 = (np.max(np.abs(_fd_residual_arrays(fn, spec, t, xs, h)[0] - exact))
              for h in (1e-3, 1e-3 / 2.0))
    return float(np.log2(e1 / e2)) if e2 > 0 else math.nan


def _batch_shape(l: GroupElement):
    """The shape of the batch that ``l``'s entries make, () for one element."""
    entries = (l.c, l.d, l.a, l.b, l.mu, l.nu)
    if not any(isinstance(v, np.ndarray) for v in entries):
        return ()
    return np.broadcast_shapes(*map(np.shape, entries))


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
    batch, l = _batch_shape(l), _batch_first(l, 1 + spec.n)
    return PullbackFn(fn, lambda tj: frame(l, spec, tj), ndim=spec.n, batch=batch)


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
    time jet, and so are fn's two time steps, at its jet t' and at a fresh
    jet of its values; per tile of the grid (``_tiled``), the left-hand
    side evaluates fn on the frame's jets (the pullback) and the
    right-hand side reads their value rows.
    """
    t, xs = grid.points(spec.n)
    nv = 1 + spec.n
    fr = frame(_batch_first(l, nv), spec, Jet.variable(t, 0, nv, 2))
    pulled_at, base_at = fn.at_time(fr.tp), fn.at_time(Jet.variable(value_of(fr.tp), 0, nv, 2))
    xi = value_of(fr.xi)

    def tile(xs):
        xjs = _seeds(xs)
        xps, ks = fr.space(xjs), fr.multiplier_factors(xjs)
        pulled = reduce(operator.mul, paired(pulled_at(xps), ks))
        # the right-hand side reads the value rows of the same frame evaluation
        xvs = [value_of(x) for x in xps]
        base_res = _residual_from_jet(reduce(operator.mul, base_at(_seeds(xvs))), spec, xvs)
        rhs = xi * xi * reduce(operator.mul, map(value_of, ks)) * base_res
        return _residual_from_jet(pulled, spec, xs) - rhs, np.abs(rhs) + np.abs(pulled.value)

    return _tiled(tile, _batch_shape(l), t, xs)
