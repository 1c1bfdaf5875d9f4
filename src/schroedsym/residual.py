"""Residual verification of the defining evolution operator.

Evaluates r = psi_t - k (Delta psi - V psi) on jet-backed functions,
builds transformed and lifted functions K * psi(mapped coordinates) as
pullbacks (``PullbackFn``, re-exported from ``solutions``) through a group
element's frame or a lift's frame (``lift_frame``, re-exported from
``multiplier``), and checks the operator intertwining identity pointwise,
including on functions that do not solve the equation.

One formula gives every analytic residual, the product rule
(``_product_rule``).  A function is psi = K beta: a pullback's K is its
multiplier, exp(q) with q = sum_j (A + B x_j + C x_j^2) and A, B, C
functions of t, and beta its base on the mapped jets; a formula has
K = 1 and q = 0, and a Gaussian beta = 1.  Then

    R = K {beta_t + q_t beta - k sum_j [beta_jj + 2 q_j' beta_j
          + (2 C + q_j'^2) beta] + k V beta},

with the NLS family's - k g |psi|^2 beta in place of k V beta, so K is
never made a jet: q_t and q_j' = B + 2 C x_j are plain arrays built from
the value and t rows of the frame's time jets, and K is exp of q's value.
A base given as one factor per coordinate splits the braces into one
bracket per factor, each spanning t and its own coordinate.  Frames
compose (``Frame.then``), so nested pullbacks give one K, and a Gaussian
base (``solutions.GaussianFn``) folds into it: beta = 1, and the product
rule runs on the one composed exponent with no jet of the base.

With beta = 1, psi is its exponents (``SmoothFn.exponents``) and R/psi a
polynomial in each x_j with time-only coefficients (``_by_power``), which
``coefficient_residual`` bounds on the grid's box with no array over x.

Grids are sampled on broadcastable axes (``GridSpec.points``): the time
axis varies along the first array dimension and each space axis along its
own, so the frame and the time-only jets hold one value per time, and only
what mixes ``t`` with ``x`` is computed on the whole grid.  A report reads
the axes only at the worst point.

A verification's dimension is its family's ``spec.n`` (``_of_family``).
It evaluates a function in two steps (``SmoothFn.split_at``): the time
step, once, on the seeded time jet, evaluates the frame and every
time-only jet; the space step, whose factors the product rule pairs with
the multiplier's as ``SmoothFn.at_time`` does (``solutions.pairing``),
runs on tiles of the last space axis, each of at most ``TILE_POINTS``
points, batch axes included.  Each tile is summarized on its own and the
summaries fold into one report, bit for bit the report of one evaluation
on the whole grid; a grid within the budget is one tile.  A guard raises
in the first tile that has a point outside its domain or range, with the
error of one evaluation on the whole grid.  A verification of more than
one tile first sets the process's heap policy (``_hold_heap``): through
glibc's ``mallopt``, tiles take their arrays from a heap whose top stays
mapped between tiles and verifications; a C library without it, or where
it has no effect, is left as it is.

An element whose entries have shape ``(n,)`` is a batch of n elements on
its own leading axis (``(n, 1, ..., 1)`` against ``t (nt, 1)`` and
``x (1, nx)``): one verification covers the batch, and its report has one
``max_abs``/``max_rel`` per element.  A scalar element is batch shape ().
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .coords import LINEAR, NLS2D, QUADRATIC, FamilySpec, _terms, frame
from .errors import DomainError, ShapeError
from .group import GroupElement, Mat2
from .jets import Jet, _jet, value_of
from .multiplier import lift_frame
from .solutions import PullbackFn, SmoothFn, pairing

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


def _braces(spec: FamilySpec, psi_t, laplacian, psi, xs):
    """psi_t - k (Delta psi - V psi), V the potential over the coordinates
    ``xs``: the residual but for the NLS family's cubic term, of a function
    or of one factor of a product (``_product_rule``)."""
    return psi_t - spec.k * (laplacian - potential(spec, xs) * psi)


def _by_power(spec: FamilySpec, A, B, C):
    """The braces over psi of psi = exp(A + B x + C x^2), A, B, C given as
    (value, d/dt) (``_rate``), read by power of x: A_t - 2kC - kB^2 + kV_0,
    B_t - 4kBC + kV_1 and C_t - 4kC^2 + kV_2, the coefficients of x^0, x^1
    and x^2.  A potential of another power raises ``DomainError``."""
    (_, a_t), (b, b_t), (c, c_t), k, v = A, B, C, spec.k, spec.potential
    if not v.keys() <= {0, 1, 2}:
        raise DomainError(f"the potential's powers {sorted(v)} are not among x^0, x^1, x^2")
    return (a_t - 2.0 * k * c - k * b * b + k * v.get(0, 0.0),
            b_t - 4.0 * k * b * c + k * v.get(1, 0.0), c_t - 4.0 * k * c * c + k * v.get(2, 0.0))


def _rate(z):
    """(value, d/dt) of a frame field evaluated on a time jet; a literal field
    is constant in t."""
    return (z.value, z.coefficient((1,))) if isinstance(z, Jet) else (z, 0.0)


def _less_cubic(spec: FamilySpec, resid, psi):
    """``resid`` less the NLS family's cubic term k g |psi|^2 psi, in
    place of the potential that family does not have."""
    if spec.family != NLS2D:
        return resid
    return resid - spec.k * (spec.coupling * np.abs(psi) ** 2 * psi)


def _partial(z, var, order):
    """The partial of ``order`` in the variable ``var`` (0 is t) of a jet,
    and 0.0 of a constant."""
    if not isinstance(z, Jet):
        return 0.0
    return z.partial(tuple(order * (v == var) for v in range(z.nvars)))


def _conjugation(fr, xs):
    """What the product rule reads of the multiplier K = prod_j exp(q_j),
    q_j = A + B x_j + C x_j^2, on the coordinates' arrays ``xs``: per
    coordinate, K_j on the exponent's value, q_j's t partial, q_j' =
    B + 2 C x_j and q_j'' + q_j'^2 = 2 C + q_j'^2.  Arrays that span t and
    x_j only, from the value and t rows of the frame's time jets; a literal
    0.0 coefficient stays 0.0 and costs nothing (``_terms``).  The
    exponents pass the frame's range guard (``Frame.exponents``).  With no
    frame, K = 1: each K_j is None and the rest the literal 0.0."""
    if fr is None:
        return [(None, 0.0, 0.0, 0.0)] * len(xs)
    B, C = value_of(fr.B), value_of(fr.C)
    out = []
    for q, x in zip(fr.exponents(xs), xs):
        dq = _terms((B,), (C, 2.0, x))
        out.append((np.exp(value_of(q)), _partial(q, 0, 1), dq, _terms((2.0 * C,), (dq, dq))))
    return out


def _product_rule(spec: FamilySpec, factors, conj, xs):
    """``(R, psi)`` of psi = K beta by the product rule (module
    docstring), beta the product of the jets ``factors`` and K the
    multiplier that ``conj`` describes (``_conjugation``), on the
    coordinates' arrays ``xs``.  Factors one per coordinate, each a
    function of t and its x_j only, give one bracket each, spanning t and
    x_j, times the other factors of psi (``solutions.pairing``).  With
    K = 1 and one factor this is psi_t - k (Delta psi - V psi) on the rows
    of psi itself."""
    brackets, values = [], []  # per factor: K_f times its bracket, and K_f beta_f
    for on, beta in pairing(factors, len(xs)):
        ks, qts, dqs, curvs = zip(*(conj[j] for j in on))
        bv = value_of(beta)
        pt = _terms((1.0, _partial(beta, 0, 1)), (reduce(operator.add, qts), bv))
        # summed from its first term: one coordinate reads its row as is
        lap = reduce(operator.add, (
            _terms((1.0, _partial(beta, 1 + j, 2)), (dq, 2.0, _partial(beta, 1 + j, 1)), (curv, bv))
            for j, dq, curv in zip(on, dqs, curvs)))
        w = _braces(spec, pt, lap, bv, [xs[j] for j in on])
        if ks[0] is not None:
            k = reduce(operator.mul, ks)
            w, bv = k * w, _terms((bv, k))
        brackets.append(w)
        values.append(bv)
    psi = reduce(operator.mul, values)
    resid = reduce(operator.add, (reduce(operator.mul, values[:f] + [w] + values[f + 1:])
                                  for f, w in enumerate(brackets)))
    return _less_cubic(spec, resid, psi), psi


def _of_family(fn: SmoothFn, spec: FamilySpec) -> SmoothFn:
    """``fn``, which must have the family's ``spec.n`` space coordinates."""
    if fn.ndim != spec.n:
        raise DomainError(f"a function of {fn.ndim} space coordinates under a family of {spec.n}")
    return fn


def _residual_step(fn: SmoothFn, spec: FamilySpec, tj):
    """The time step of ``fn``'s residual (``SmoothFn.split_at``), taken
    once; it returns the space step ``xs -> (R, psi)`` on arrays of the
    space coordinates, by the product rule.  The base is evaluated before
    the multiplier, as ``SmoothFn.at_time`` does."""
    fr, base = _of_family(fn, spec).split_at(tj)

    def space(xs):
        factors = ()
        if base is not None:
            xjs = _seeds(xs)
            factors = base(xjs if fr is None else fr.space(xjs))
        return _product_rule(spec, factors, _conjugation(fr, xs), xs)

    return space


def residual_arrays(fn: SmoothFn, spec: FamilySpec, t, xs):
    """Vectorized residual and value over point arrays; float64 for a real
    family on real points (the dtype rule of ``jets``)."""
    return _residual_step(fn, spec, Jet.variable(t, 0, 1 + spec.n, 2))(xs)


def stencil(fn: SmoothFn, t, xs, order, steps):
    """The jet of ``fn`` of ``order`` at the points (t, xs) and, for each
    ``(var, h)`` of ``steps`` (var 0 is t, j the coordinate x_j), its
    centred differences in ``var`` at h and h/2: the first
    (f(+h) - f(-h)) / 2h and the second (f(+h) - 2 f + f(-h)) / h^2, as
    jets whose coefficients carry two leading axes, [i, 0] at the i-th
    step's h and [i, 1] at its h/2.  The moved point sets, stacked on a
    leading axis, are one evaluation; a batched ``fn`` raises ``ShapeError``."""
    if fn.batch:
        raise ShapeError(f"a stencil of a batch of shape {fn.batch}")
    moves = [(0, 0.0)] + [(var, s * h) for var, step in steps
                          for h in (step, step / 2.0) for s in (1.0, -1.0)]
    t, *xs = (np.stack([a + h if v == var else a for var, h in moves])
              for v, a in enumerate((t, *xs)))
    jet = fn.jet(t, xs, order)
    block = jet.block
    hs = np.reshape([h for _, h in moves[1::2]], (1, -1) + (1,) * (block.ndim - 2))
    up, down = block[:, 1::2], block[:, 2::2]
    first = (up - down) / (2.0 * hs)
    second = (up - 2.0 * block[:, :1] + down) / hs ** 2
    shape = (len(jet.support), len(steps), 2) + block.shape[2:]
    return (_jet(jet.nvars, order, jet.support, block[:, 0]),
            *(_jet(jet.nvars, order, jet.support, d.reshape(shape)) for d in (first, second)))


# Points of one tile, batch axes included: the 224^2 and 37^3 grids of the
# benchmark's residual_large round take two tiles each (of 112 columns, of
# 18 and 19 planes), the checks' 14^2 grids one.  With the heap held
# (``_hold_heap``), on a 2-vCPU Xeon (Python 3.11, numpy 2.4; perfbench/run.py
# residual_large, 10 s runs, three per budget) that round's op_s_p50 reads
# 0.0360 s against 0.0445 s on one tile (which holds no heap), and
# peak_rss_mb 45.1 against 49.2 MB.  At 25,088, three 37^3 tiles, it reads
# the same 0.0359 s; a tile costs ~0.12 ms of its own, so at 16,384 the
# round reads 0.0395 s (43.0 MB).
TILE_POINTS = 32_768

# glibc's malloc maps a block of at least M_MMAP_THRESHOLD bytes on its own,
# and gives the heap's free top back to the kernel past M_TRIM_THRESHOLD; by
# default both follow the largest mapped block freed.  A tiled verification
# then returns its working set to the kernel at its end, and the next one
# faults it in again: ~1,500 pages for a 224^2 grid.  Held at these sizes, a
# tile's arrays come from the heap and its top stays mapped.  The trim
# threshold alone freezes the mmap threshold where the rule left it, at its
# 128 KiB default in a fresh process, and a 224^2 tile's 400 kB arrays are
# then still mapped afresh each time.
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 64 << 20


def _hold_heap():
    """Keep the C heap's memory mapped between tiles and verifications
    (``HEAP_MMAP_THRESHOLD``, ``HEAP_TRIM_THRESHOLD``), by ``mallopt``,
    which is idempotent and acts on the whole process; a C library without
    it is left as it is."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, HEAP_MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
        mallopt(-1, HEAP_TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


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
        _hold_heap()
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
    t, xs = grid.points(spec.n)
    space = _residual_step(fn, spec, Jet.variable(t, 0, 1 + spec.n, 2))

    def tile(xs):
        resid, psi = space(xs)
        return resid, np.abs(psi)

    return _tiled(tile, fn.batch, t, xs)


def coefficient_residual(fn: SmoothFn, spec: FamilySpec, grid: GridSpec):
    """A bound on |R/psi| over the grid's box |x_j| <= X_j, one per element
    of a batch, for psi = exp(sum_j q_j) given as its exponents
    (``SmoothFn.exponents``): the largest over the grid's times of
    |sum_j c0_j| + sum_j (|c1_j| X_j + |c2_j| X_j^2), c_p the coefficient of
    x_j^p (``_by_power``).  No array spans x.  The NLS family's k g |psi|^2
    must be time-only, every Re B_j and Re C_j 0, else ``DomainError``."""
    t, xs = grid.points(spec.n)
    frames = _of_family(fn, spec).exponents(Jet.variable(t, 0, 1, 2))
    c0, size = 0.0, 0.0
    for fr, big in zip(frames, (np.max(np.abs(x)) for x in xs)):
        p0, p1, p2 = _by_power(spec, *map(_rate, (fr.A, fr.B, fr.C)))
        c0, size = c0 + p0, size + np.abs(p1) * big + np.abs(p2) * big * big
    if spec.family == NLS2D:
        if any(np.any(np.real(value_of(v)) != 0) for fr in frames for v in (fr.B, fr.C)):
            raise DomainError("|psi|^2 depends on x: an exponent has Re B or Re C nonzero")
        c0 = c0 - spec.k * spec.coupling * np.exp(2.0 * np.real(sum(value_of(fr.A) for fr in frames)))
    bound = np.broadcast_to(np.abs(c0) + size, fn.batch + t.shape)
    return np.max(bound.reshape(fn.batch + (-1,)), axis=-1)[()]


def fd_order(fn: SmoothFn, spec: FamilySpec, grid: GridSpec):
    """Observed order at which the residual of centred differences
    (``stencil``) at steps 1e-3 and 5e-4 approaches the analytic residual
    over the grid; NaN when the second error is not positive."""
    t, xs = grid.points(spec.n)
    exact, _ = residual_arrays(fn, spec, t, xs)
    centre, first, second = stencil(fn, t, xs, 0, [(var, 1e-3) for var in range(1 + spec.n)])
    psi, lap = centre.value, reduce(operator.add, second.value[1:])
    fd = _less_cubic(spec, _braces(spec, first.value[0], lap, psi, xs), psi)
    e1, e2 = np.max(np.abs(fd - exact), axis=tuple(range(1, fd.ndim)))
    return float(np.log2(e1 / e2)) if e2 > 0 else math.nan


def _batched(l: GroupElement, naxes):
    """The shape of the batch that ``l``'s entries make, () for one element,
    and ``l`` with its entries' batch axes ahead of ``naxes`` grid axes."""
    entries = (l.c, l.d, l.a, l.b, l.mu, l.nu)
    if not any(isinstance(v, np.ndarray) for v in entries):
        return (), l
    c, d, a, b, mu, nu = (np.reshape(v, np.shape(v) + (1,) * naxes) for v in entries)
    return np.broadcast_shapes(*map(np.shape, entries)), GroupElement(Mat2(c, d, a, b), mu, nu)


def transformed(fn: SmoothFn, l: GroupElement, spec: FamilySpec) -> PullbackFn:
    """The group-transformed function K(Z | element) * fn(element Z); a
    batched element gives a function with the batch axes leading."""
    batch, l = _batched(l, 1 + spec.n)
    return PullbackFn(_of_family(fn, spec), lambda tj: frame(l, spec, tj), batch=batch)


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
    batch, l = _batched(l, nv)
    fr = frame(l, spec, Jet.variable(t, 0, nv, 2))
    pulled_at = fn.at_time(fr.tp)
    base_residual = _residual_step(fn, spec, Jet.variable(value_of(fr.tp), 0, nv, 2))
    xi = value_of(fr.xi)

    def tile(xs):
        xps, conj = fr.space(_seeds(xs)), _conjugation(fr, xs)
        resid, psi = _product_rule(spec, pulled_at(xps), conj, xs)
        k = reduce(operator.mul, (c[0] for c in conj))
        # the exponent's arrays go before the right-hand side's jets are
        # formed: a 224^2 verification peaks at 3.85 MB, not 4.66 MB
        del conj
        # the right-hand side reads the value rows of the same frame evaluation
        rhs = xi * xi * k * base_residual([value_of(x) for x in xps])[0]
        return resid - rhs, np.abs(rhs) + np.abs(psi)

    return _tiled(tile, batch, t, xs)
