"""Named verification suites over every module.

Each check pins one identity, runs it over seeded random draws, and
yields its defects, each a float or an array with one entry per trial;
``Check.run`` folds them through ``worst_defect`` into the check's value,
the largest defect, which is NaN (and fails) as soon as one is NaN.  A
check that raises a typed error (``SchroedSymError``) or an
``ArithmeticError`` (a ``FloatingPointError``, as each check runs with
numpy's overflow, invalid and divide-by-zero errors raised, or the
``OverflowError`` of a Python-scalar power) fails with the value NaN and
the error's type and message, and the other checks still run.  A
check with several trials draws them as one batch (the samplers' ``size``,
or one ``rng.uniform`` call with a row per trial) and evaluates the batch
in one array pass; the symbolic ``liealg.jacobi`` still goes trial by
trial.  The residual checks of exponents (``transformed_linear``,
``transformed_quadratic``, ``transformed_disk``, ``transformed_nls`` and
``lift_residuals``) read R/psi's x-coefficients from the composed frame's
time jets, and their value bounds |R/psi| on the grid's whole box
(``residual.coefficient_residual``); the other residual checks sample the
grid.  A
finite-difference check takes its centred differences, at a step h and
at h/2, from the one rule ``residual.stencil``, which evaluates each
function once per jet order, on the moved point sets stacked on one axis.
The checks of one pass (``run_suite``) share each family's operator
algebra, its generator set and Casimirs, built on first use (``_Pass``); a
check run on its own builds its own, and no pass keeps anything.  The
structure-equation checks (``multiplier.ode_oracle_*``,
``multiplier.structure_consistency``) evaluate each frame once, on a
time jet over the whole batch.  A grid
that leaves a function's domain raises ``DomainError``, which fails its
check.  The CLI wraps these; the acceptance tests drive the same
functions at their own trial counts.  Per-check generators are seeded
from (run seed, check name), so reports are reproducible regardless of
which subset runs.

What a check accepts is decided here alone: a defect, a verdict's
tolerance or a misprint control that only one check reads sits beside
that check, and the library modules keep the formulas that it tests.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import astuple, dataclass, field
from functools import cache, cached_property, partial
from types import MappingProxyType

import numpy as np

from . import jets
from .coords import (
    FAMILIES,
    FamilySpec,
    Point,
    act,
    frame,
    galilean_params,
    is_real,
    reality_domain_check,
)
from .errors import ConfigError, DeterminantError, DomainError, SchroedSymError
from .group import (
    DiskParams,
    GroupElement,
    Mat2,
    cocycle_linear,
    cocycle_quadratic,
    compose,
    disk_parametrize,
    inverse,
    is_semigroup_admissible,
)
from .multiplier import IntertwinerParams, multiplier
from .opalg import (
    DiffOp,
    LINEAR_VARS,
    QUADRATIC_VARS,
    generators_linear,
    generators_quadratic,
)
from .residual import (
    GridSpec,
    PullbackFn,
    _rate,
    coefficient_residual,
    fd_order,
    grid_residual,
    residual_arrays,
    lift_frame,
    stencil,
    transformed,
    verify_intertwining,
    verify_transformed_solution,
    verify_lifted_solution,
)
from .sampling import (
    _expm_traceless,
    element_for_family,
    random_admissible_element,
    random_disk_element,
    random_element,
    random_modular_matrix,
    random_sl2r,
)
from .solutions import (
    ROOT_WIDTH,
    AiryFn,
    AirySpec,
    FormulaFn,
    constant_one,
    eigenvalue_scan,
    f_pair,
    g_functions,
    gaussian_free,
    phi_pair,
    plane_wave_nls,
    power_static,
    theta1,
)

# magnitudes of the first two zeros of Ai (DLMF §9.9): the first two boundary roots
AIRY_FIRST_TWO = (2.338107410459767, 4.087949444130970)
T_RANGE, X_RANGE = (-0.4, 0.6), (-1.2, 1.2)  # of the residual checks' grids


@dataclass(frozen=True)
class RunConfig:
    """Run parameters; trial/tolerance overrides apply to every check."""

    seed: int = 0
    trials: int = None
    tol: float = None
    family: str = None
    k: complex = 0.7  # real, or purely imaginary (a complex with real part 0)
    alpha: float = 0.3
    beta: float = 0.9
    omega: float = 0.6

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {self.tol}")
        if self.trials is not None and self.trials < 1:
            raise ConfigError("trial count must be >= 1")
        try:  # the families state the rules of their parameters
            if is_real(self.k, "k"):
                object.__setattr__(self, "k", float(np.real(self.k)))
            self.specs()
        except SchroedSymError as exc:
            raise ConfigError(str(exc)) from exc
        if self.family is not None and self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; choose from {list(FAMILIES)}")

    def specs(self):
        """The families at this k, one read-only mapping per config; the
        circle (disk) and 2-d NLS families need an imaginary k: i k and -i k
        at a real k, k itself at an imaginary one."""
        return self._specs

    @cached_property
    def _specs(self):
        k, a, b, w = self.k, self.alpha, self.beta, self.omega
        disk_k, nls_k = (1j * k, -1j * k) if is_real(k, "k") else (k, k)
        return MappingProxyType({
            "free": FamilySpec.free(k),
            "inverse_quadratic": FamilySpec.inverse_quadratic(k, 2.0),
            "linear": FamilySpec.linear(k, a, b),
            "quadratic": FamilySpec.quadratic(k, a, w),
            "disk": FamilySpec.quadratic(disk_k, a, w),
            "nls2d": FamilySpec.nls2d(nls_k, coupling=1.3),
            "ndim_linear": FamilySpec.ndim_linear(k, a, b, 2),
        })

    def generators(self, family):
        """A new generator set of the "linear" or "quadratic" family: a check
        run on its own shares nothing (a pass shares one, ``_Pass``)."""
        build = generators_linear if family == "linear" else generators_quadratic
        return build(self.specs()[family])


class _Pass(RunConfig):
    """The config of one ``run_suite`` call, whose checks share each
    family's generator set, built on first use; nothing outlives the call."""

    def generators(self, family):
        if family not in self._generators:
            self._generators[family] = super().generators(family)
        return self._generators[family]

    _generators = cached_property(lambda self: {})


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    passed: bool
    value: float
    tol: float
    seconds: float
    error: str = None  # "Type: message" of the typed error the check raised


@dataclass
class SuiteReport:
    results: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def to_text(self):
        if not self.results:
            return ""
        width = max(len(r.name) for r in self.results)
        lines = []
        for r in sorted(self.results, key=lambda r: r.name):
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{status}  {r.name:<{width}}  value={r.value:.3e}  tol={r.tol:.1e}"
                f"  {r.seconds*1e3:8.1f} ms  [{r.anchor}]"
                + (f"  error: {r.error}" if r.error else "")
            )
        npass = sum(r.passed for r in self.results)
        lines.append(f"{npass}/{len(self.results)} checks passed")
        return "\n".join(lines)

    def to_json(self):
        rows = [
            {
                "name": r.name,
                "anchor": r.anchor,
                "pass": bool(r.passed),
                "value": float(r.value),
                "tol": float(r.tol),
                "seconds": round(r.seconds, 6),
                "error": r.error,
            }
            for r in sorted(self.results, key=lambda r: r.name)
        ]
        return json.dumps(rows, indent=1)


def worst_defect(defects):
    """The largest of the defects (0.0 for none), or NaN as soon as one is
    NaN: ``max`` would drop it, and a NaN value fails because ``nan <= tol``
    is false.  A defect is a float or an array of them, one per trial; a
    scalar folds without a numpy call."""
    worst = 0.0
    for defect in defects:
        if isinstance(defect, np.ndarray):
            defect = defect.max(initial=0.0)  # NaN if any entry is NaN
        if math.isnan(defect):
            return math.nan
        worst = max(worst, defect)
    return float(worst)


class Check:
    def __init__(self, name, anchor, tol, trials, fn, families=None, structural=False):
        self.name = name
        self.anchor = anchor
        self.tol = tol
        self.trials = trials
        self.fn = fn
        self.families = families  # None: family-agnostic, always runs
        self.structural = structural  # measured on an intrinsic scale

    def covers(self, family):
        return family is None or self.families is None or family in self.families

    def run(self, cfg: RunConfig) -> CheckResult:
        rng = np.random.default_rng([cfg.seed, zlib.crc32(self.name.encode())])
        # the tolerance override targets numerical-identity checks; checks
        # measured on intrinsic scales (order estimates, limit extrapolations,
        # reference root offsets, pass/fail controls) keep their own tolerance
        tol = cfg.tol if cfg.tol is not None and not self.structural else self.tol
        trials = cfg.trials if cfg.trials is not None else self.trials
        start = time.perf_counter()
        try:  # an overflow or invalid operation is an error, never a silent NaN
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                value, error = worst_defect(self.fn(cfg, rng, trials)), None
        except (SchroedSymError, ArithmeticError) as exc:  # fails this check only
            value, error = math.nan, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - start
        return CheckResult(self.name, self.anchor, value <= tol, value, tol, dt, error)


CHECKS: dict[str, Check] = {}  # every registered check, by its qualified name


def _register(suite, name, anchor, tol, trials=1, families=None, structural=False):
    def deco(fn):
        check = Check(f"{suite}.{name}", anchor, tol, trials, fn, families, structural)
        CHECKS[check.name] = check
        return fn

    return deco


def suite_names():
    return sorted({name.partition(".")[0] for name in CHECKS})


def run_named_check(name, cfg: RunConfig) -> CheckResult:
    """Run one check by its qualified name (e.g. ``group.associativity``)."""
    if name not in CHECKS:
        raise ConfigError(f"unknown check {name!r}")
    return CHECKS[name].run(cfg)


def run_suite(target, cfg: RunConfig) -> SuiteReport:
    if target != "all" and target not in suite_names():
        raise ConfigError(f"unknown verify target {target!r}; "
                          f"choose from {['all'] + suite_names()}")
    report, cfg = SuiteReport(), _Pass(*astuple(cfg))
    for name, check in sorted(CHECKS.items()):
        if target in ("all", name.partition(".")[0]) and check.covers(cfg.family):
            report.results.append(check.run(cfg))
    return report


# ---------------------------------------------------------------- group ------


def _halves(trials, kinds):
    """(n, kind) for (trials+1)//2 trials of kinds[0] and trials//2 of
    kinds[1], as alternating trials split them; an empty half is left out."""
    return [(n, kind) for n, kind in zip(((trials + 1) // 2, trials // 2), kinds) if n]


@_register("group", "associativity", "semidirect composition is associative", 1e-12, 1000)
def _group_assoc(cfg, rng, trials):
    for n, cx in _halves(trials, (False, True)):
        l1, l2, l3 = (random_element(rng, complex_entries=cx, size=n) for _ in range(3))
        p = compose(compose(l1, l2), l3)
        q = compose(l1, compose(l2, l3))
        yield from (
            abs(p.a - q.a), abs(p.b - q.b), abs(p.c - q.c), abs(p.d - q.d),
            abs(p.mu - q.mu), abs(p.nu - q.nu),
        )


@_register("group", "inverse", "element times its inverse is the unit", 1e-12, 1000)
def _group_inverse(cfg, rng, trials):
    for n, cx in _halves(trials, (False, True)):
        l = random_element(rng, complex_entries=cx, size=n)
        p = compose(l, inverse(l))
        yield from (
            abs(p.a), abs(p.b - 1.0), abs(p.c - 1.0), abs(p.d),
            abs(p.mu), abs(p.nu),
        )


@_register("group", "symplectic", "unimodular matrices preserve the symplectic form", 1e-12, 1000)
def _group_symplectic(cfg, rng, trials):
    """Per trial, the largest entry of |M^T J M - J|.  M^T J M = det(M) J,
    so only a matrix that slips past ``Mat2``'s determinant guard fails."""
    m = random_sl2r(rng, size=trials)
    c, d, a, b = np.broadcast_arrays(m.c, m.d, m.a, m.b)
    m = np.stack([np.stack([c, d], -1), np.stack([a, b], -1)], -2)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    yield np.abs(np.swapaxes(m, -1, -2) @ J @ m - J).max(axis=(-2, -1))[()]


@_register("group", "cocycle_cycle_linear", "cocycle cycle condition, linear family", 1e-12, 1000, families=("linear",))
def _group_cycle_linear(cfg, rng, trials):
    k = cfg.k
    l1, l2, l3 = (random_element(rng, size=trials) for _ in range(3))
    lhs = cocycle_linear(l1, l2, k) + cocycle_linear(compose(l1, l2), l3, k)
    rhs = cocycle_linear(l2, l3, k) + cocycle_linear(l1, compose(l2, l3), k)
    yield abs(lhs - rhs)


@_register("group", "cocycle_antisymmetry", "cocycle antisymmetry under inverses", 1e-12, 1000)
def _group_antisym(cfg, rng, trials):
    k = cfg.k
    l1, l2 = (random_element(rng, size=trials) for _ in range(2))
    lhs = cocycle_linear(inverse(l2), inverse(l1), k)
    yield abs(lhs + cocycle_linear(l1, l2, k))


@_register("group", "cocycle_cycle_quadratic", "cocycle cycle condition, oscillator family", 1e-12, 1000, families=("quadratic",))
def _group_cycle_quadratic(cfg, rng, trials):
    w = cfg.omega
    l1, l2, l3 = (random_element(rng, complex_entries=True, size=trials) for _ in range(3))
    lhs = cocycle_quadratic(l1, l2, w) + cocycle_quadratic(compose(l1, l2), l3, w)
    rhs = cocycle_quadratic(l2, l3, w) + cocycle_quadratic(l1, compose(l2, l3), w)
    yield abs(lhs - rhs)


# reads 0 at every seed; a gate above 0 leaves room for an FMA on another CPU
@_register("group", "disk_closure", "circle-preserving shape survives composition", 1e-12, 300, families=("quadratic",))
def _group_disk_closure(cfg, rng, trials):
    p = compose(*(random_disk_element(rng, size=trials) for _ in range(2)))
    yield from (
        abs(p.c - np.conj(p.b)),
        abs(p.d - np.conj(p.a)),
        abs(np.conj(p.mu) + p.nu),
    )


@_register("group", "admissible_closure", "nonnegative matrices compose to nonnegative", 0.5, 300, families=("quadratic",), structural=True)
def _group_admissible(cfg, rng, trials):
    p = compose(*(random_admissible_element(rng, size=trials) for _ in range(2)))
    yield np.where(is_semigroup_admissible(p), 0.0, 1.0)
    if is_semigroup_admissible(GroupElement(Mat2(1.0, 0.3, -1.0, 0.7))):
        yield 1.0


@_register("group", "determinant_guard", "non-unimodular matrices are rejected", 0.5, structural=True)
def _group_det_guard(cfg, rng, trials):
    try:
        Mat2(1.0, 0.0, 0.0, 1.1)
        yield 1.0
    except DeterminantError:
        pass
    try:
        GroupElement(Mat2.identity())
    except DeterminantError:
        yield 1.0


# reads 0 at every seed and parameter, since it reads neither; a gate above 0
# leaves room for another libm's cos, sin and exp of pi/2 and pi, or an FMA
@_register("group", "disk_parametrization", "disk coordinates give a rotation at the origin", 1e-12, families=("quadratic",))
def _group_disk_param(cfg, rng, trials):
    ident = disk_parametrize(DiskParams(0.0, 0.0))
    yield from (abs(ident.a), abs(ident.b - 1.0), abs(ident.c - 1.0), abs(ident.d))
    rot = disk_parametrize(DiskParams(np.pi / 2.0, 0.0))
    for u in (1.0, 1j, np.exp(0.3j)):
        up = (rot.c * u + rot.d) / (rot.a * u + rot.b)
        yield abs(up - np.exp(1j * np.pi) * u)


# ---------------------------------------------------------------- coords -----


@_register("coords", "identity_action", "unit element fixes every point, all families", 1e-13, 50)
def _coords_identity(cfg, rng, trials):
    sp = cfg.specs()
    ident = GroupElement.identity()
    t, x = rng.uniform(-0.5, 0.5, trials), rng.uniform(-1.5, 1.5, trials)
    for name in ("linear", "quadratic", "disk"):
        zp = act(ident, Point(t, x), sp[name])
        yield from (abs(zp.t - t), abs(zp.x1 - x))
    zp = act(ident, Point(t, abs(x) + 0.2), sp["inverse_quadratic"])
    yield from (abs(zp.t - t), abs(zp.x1 - abs(x) - 0.2))


# family: (what the anchor names, the families it runs for)
_HOMOMORPHISM = {
    "linear": ("linear family", ("linear", "free")),
    "inverse_quadratic": ("scale-invariant family", ("inverse_quadratic",)),
    "quadratic": ("oscillator semigroup", ("quadratic",)),
    "disk": ("circle subgroup", ("quadratic",)),
}


def _homomorphism(family, cfg, rng, trials):
    spec = cfg.specs()[family]
    l1, l2 = (element_for_family(rng, spec, size=trials) for _ in range(2))
    z = Point(rng.uniform(-0.4, 0.4, trials), rng.uniform(-1.2, 1.2, trials))
    seq = act(l1, act(l2, z, spec), spec)
    joint = act(compose(l1, l2), z, spec)
    dt = abs(seq.t - joint.t)
    if spec.family == "quadratic" and not spec.komega_is_real:
        dt = np.minimum(dt, abs(dt - spec.period))
    yield from (dt, abs(seq.x1 - joint.x1))


for _family, (_what, _families) in _HOMOMORPHISM.items():
    _register("coords", f"homomorphism_{_family}", f"two-step action equals composed action, {_what}",
              1e-11, 300, families=_families)(partial(_homomorphism, _family))


# reads 0 at every seed; a gate above 0 leaves room for an FMA on another CPU
@_register("coords", "time_translation", "upper shear translates time", 1e-15, families=("linear", "free", "inverse_quadratic"))
def _coords_time_translation(cfg, rng, trials):
    spec = cfg.specs()["inverse_quadratic"]
    lam = 0.8
    l = GroupElement(Mat2(1.0, lam, 0.0, 1.0))
    for t, x in ((0.2, 0.5), (-0.3, 1.0)):
        zp = act(l, Point(t, x), spec)
        yield from (abs(zp.t - (t + lam)), abs(zp.x1 - x))


# reads 0 at every seed; a gate above 0 leaves room for an FMA on another CPU
@_register("coords", "dilatation", "diagonal matrix rescales time twice as fast as space", 1e-15, families=("inverse_quadratic", "free"))
def _coords_dilatation(cfg, rng, trials):
    spec = cfg.specs()["inverse_quadratic"]
    l = GroupElement(Mat2(2.0, 0.0, 0.0, 0.5))
    for t, x in ((0.2, 0.5), (-0.3, 1.0)):
        zp = act(l, Point(t, x), spec)
        yield from (abs(zp.t - 4.0 * t), abs(zp.x1 - 2.0 * x))


@_register("coords", "galilean", "shear elements act as affine boosts", 1e-12, 100, families=("linear",))
def _coords_galilean(cfg, rng, trials):
    spec = cfg.specs()["linear"]
    lam, mu, nu = rng.uniform(-0.8, 0.8, (3, trials))
    l = GroupElement(Mat2(1.0, lam, 0.0, 1.0), mu, nu)
    gd = galilean_params(l, spec)
    t, x = rng.uniform(-0.6, 0.6, trials), rng.uniform(-1.5, 1.5, trials)
    zp = act(l, Point(t, x), spec)
    yield from (abs(zp.t - (t + lam)), abs(zp.x1 - (x + gd.sigma + gd.v * t)))
    k2b = spec.k ** 2 * spec.beta
    l0 = GroupElement(Mat2(1.0, 0.5, 0.0, 1.0), 0.3, 0.0)
    gd = galilean_params(l0, spec)
    yield from (abs(gd.sigma - (0.3 + k2b * 0.25)), abs(gd.v - 2.0 * k2b * 0.5))


def _comoving_defect(l, z, spec):
    """|LHS - RHS| of the translation-free comoving-coordinate identity
    x' - k^2 beta t'^2 = (x - k^2 beta t^2)/(a t + b)."""
    zp = act(l, z, spec)
    k2b = spec.k ** 2 * spec.beta
    r = l.a * z.t + l.b
    lhs = zp.x1 - k2b * zp.t ** 2
    rhs = (z.x1 - k2b * z.t ** 2) / r
    return abs(lhs - rhs)


@_register("coords", "comoving_identity", "translation-free comoving coordinate scales uniformly", 1e-12, 100, families=("linear",))
def _coords_comoving(cfg, rng, trials):
    spec = cfg.specs()["linear"]
    l = GroupElement(random_sl2r(rng, size=trials), 0.0, 0.0)
    z = Point(rng.uniform(-0.4, 0.4, trials), rng.uniform(-1.5, 1.5, trials))
    yield _comoving_defect(l, z, spec)
    # control: with a translation the identity must break
    bad = GroupElement(Mat2.identity(), 0.7, 0.0)
    if not 1e-3 <= _comoving_defect(bad, Point(0.2, 0.4), spec) < math.inf:
        yield 1.0


@_register("coords", "pair_differences", "coordinate differences scale by the common factor", 1e-12, 100, families=("ndim_linear",))
def _coords_pairs(cfg, rng, trials):
    spec = cfg.specs()["ndim_linear"]
    l = element_for_family(rng, spec, size=trials)
    t = rng.uniform(-0.4, 0.4, trials)
    x1, x2 = rng.uniform(-1.5, 1.5, (2, trials))
    zp = act(l, Point(t, (x1, x2)), spec)
    r = l.a * t + l.b
    yield abs((zp.x[0] - zp.x[1]) - (x1 - x2) / r)


@_register("coords", "branch_continuity", "oscillator action tends to the identity map", 1e-6, 40, families=("quadratic",), structural=True)
def _coords_branch(cfg, rng, trials):
    """Richardson limit of the action along a shrinking one-parameter
    element family; a branch jump at the unit would leave an O(1) defect."""
    for name in ("quadratic", "disk"):
        spec = cfg.specs()[name]
        t, x = rng.uniform(-2.5, 2.5, trials), rng.uniform(-1.5, 1.5, trials)
        if name == "quadratic":
            p = rng.uniform(-1.0, 1.0, trials)
            q, r = rng.uniform(0.0, 1.0, (2, trials))
            mu, nu = rng.uniform(-1.0, 1.0, (2, trials))

            def element(eps):
                m = Mat2(*np.real(_expm_traceless(eps * p, eps * q, eps * r)))
                return GroupElement(m, eps * mu, eps * nu)
        else:
            th = rng.uniform(-1.0, 1.0, trials)
            lam = rng.uniform(0.0, 1.0, trials) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, trials))
            mu = rng.uniform(-1.0, 1.0, trials) + 1j * rng.uniform(-1.0, 1.0, trials)

            def element(eps):
                el = disk_parametrize(DiskParams(eps * th, eps * lam))
                return GroupElement(el.m, eps * mu, -np.conj(eps * mu))

        def deviation(eps):
            zp = act(element(eps), Point(t, x), spec)
            return zp.t - t, zp.x1 - x

        eps = 1e-5
        d1t, d1x = deviation(eps)
        d2t, d2x = deviation(eps / 2.0)
        yield from (abs(2.0 * d2t - d1t), abs(2.0 * d2x - d1x))


@_register("coords", "reality_domain", "reality predicate accepts the semigroup, rejects sign flips", 0.5, 40, families=("quadratic",), structural=True)
def _coords_reality(cfg, rng, trials):
    spec = cfg.specs()["quadratic"]
    l = element_for_family(rng, spec, size=trials)
    yield np.where(reality_domain_check(l, rng.uniform(-1.0, 1.0, trials), spec), 0.0, 1.0)
    # the sign flip acts where u = exp(4 k omega t) = 4, so a u + b = -1
    # (to rounding) at every real k omega; at an imaginary one the time is not read
    t = np.log(4.0) / (4.0 * np.real(spec.komega)) if spec.komega_is_real else 0.0
    bad = GroupElement(Mat2(1.0, 0.0, -0.5, 1.0))
    if reality_domain_check(bad, t, spec):
        yield 1.0
    disk = cfg.specs()["disk"]
    if not reality_domain_check(element_for_family(rng, disk), 0.3, disk):
        yield 1.0


# ------------------------------------------------------------- multiplier ----


@_register("multiplier", "identity_value", "multiplier is one at the unit element", 1e-12, 20)
def _mult_identity(cfg, rng, trials):
    sp = cfg.specs()
    ident = GroupElement.identity()
    t, x = rng.uniform(-2.0, 2.0, trials), rng.uniform(-1.5, 1.5, trials)
    for name in ("linear", "quadratic", "disk", "inverse_quadratic"):
        yield abs(multiplier(ident, Point(t, x), sp[name]) - 1.0)
    yield abs(multiplier(ident, Point(t, (x, x + 0.3)), sp["ndim_linear"]) - 1.0)


@_register("multiplier", "cocycle_inverse_quadratic", "exact multiplier product law, scale-invariant family", 1e-11, 500, families=("inverse_quadratic",))
def _mult_cocycle_invq(cfg, rng, trials):
    """One space coordinate in (trials+1)//2 trials, two in trials//2."""
    spec = cfg.specs()["inverse_quadratic"]
    for n, xs in _halves(trials, ((0.7,), (0.7, -0.4))):
        l1, l2 = (element_for_family(rng, spec, size=n) for _ in range(2))
        z = Point(rng.uniform(-0.4, 0.4, n), xs)
        lhs, rhs = _two_steps(l1, l2, z, spec), multiplier(compose(l1, l2), z, spec)
        yield abs(lhs - rhs) / abs(rhs)


def _two_steps(l1, l2, z, spec):
    """K(l2, z) K(l1, l2 z), from one evaluation of l2's frame."""
    fr = frame(l2, spec, z.t)
    return fr.multiplier(z.x) * multiplier(l1, Point(fr.tp, fr.space(z.x)), spec)


def _cocycle_defect(rng, trials, spec, cocycle=cocycle_quadratic):
    """Relative defects of K(l2, z) K(l1, l2 z) = exp(w(l1, l2)) K(l1 l2, z),
    w the cocycle of the spec's family; ``cocycle`` is the oscillator's."""
    l1, l2 = (element_for_family(rng, spec, size=trials) for _ in range(2))
    z = Point(rng.uniform(-0.4, 0.4, trials), rng.uniform(-1.2, 1.2, trials))
    lhs = _two_steps(l1, l2, z, spec)
    w = (cocycle_linear(l1, l2, spec.k) if spec.family == "linear"
         else cocycle(l1, l2, spec.omega))
    rhs = np.exp(w) * multiplier(compose(l1, l2), z, spec)
    yield abs(lhs - rhs) / abs(lhs)


@_register("multiplier", "cocycle_linear", "projective multiplier product law, linear family", 1e-11, 500, families=("linear",))
def _mult_cocycle_linear(cfg, rng, trials):
    yield from _cocycle_defect(rng, trials, cfg.specs()["linear"])


@_register("multiplier", "cocycle_quadratic", "projective multiplier product law, oscillator family", 1e-11, 500, families=("quadratic",))
def _mult_cocycle_quadratic(cfg, rng, trials):
    sp = cfg.specs()
    half = max(1, trials // 2)
    for name in ("quadratic", "disk"):
        yield from _cocycle_defect(rng, half, sp[name])


def _misprinted_cocycle(l1, l2, omega):
    """The oscillator cocycle with the printed second bracket,
    (mu a - nu c) mu' + (mu b - nu a) nu': the misprint that
    ``cocycle_variant_resolution`` rejects."""
    m, mu, nu = l1.m, l1.mu, l1.nu
    return omega * ((mu * m.a - nu * m.c) * l2.mu + (mu * m.b - nu * m.a) * l2.nu)


@_register("multiplier", "cocycle_variant_resolution", "misprinted cocycle bracket fails, resolved one passes", 0.5, 60, families=("quadratic",), structural=True)
def _mult_variant(cfg, rng, trials):
    spec = cfg.specs()["quadratic"]
    good, bad = (worst_defect(_cocycle_defect(rng, trials, spec, cocycle))
                 for cocycle in (cocycle_quadratic, _misprinted_cocycle))
    yield 0.0 if good < 1e-10 and bad > 1e-6 else 1.0


def _forcing(k, v_from, v_to, xi, f):
    """The source terms k (xi^2 V_from(xi x + f) - V_to(x)) of the structure
    equations, for potentials given as Laurent coefficients: ``{p: terms}``,
    the terms (not summed) of the coefficient of x^p.  A negative power of
    V_from expands only when the shift f is the literal 0."""
    terms = {}
    for p, c in v_from.items():
        if p < 0:
            if np.any(f != 0):
                raise DomainError(f"x^{p} has no finite expansion about a shifted point")
            terms.setdefault(p, []).append(k * c * xi ** (2 + p))
            continue
        for j in range(p + 1):
            terms.setdefault(j, []).append(k * c * math.comb(p, j) * xi ** (2 + j) * f ** (p - j))
    for p, c in v_to.items():
        terms.setdefault(p, []).append(-k * c)
    return terms


def _structure_defects(fr, k, v_from, v_to):
    """Scaled defects of the first-order structure equations of a frame
    evaluated on the time jet ``Jet.variable(t, 0, 1, 2)``: with g = ``_forcing``,
    t'_t = xi^2, xi_t = 4 k xi C, f_t = 2 k xi B, A_t = k (B^2 + 2 C) + g0,
    B_t = 4 k B C + g1, C_t = 4 k C^2 + g2, and every other power of g is 0.
    Each equation's defect is scaled by the sum of its terms' magnitudes.
    Near a zero of B or C their parts cancel to rounding, so outside the
    equations of A and C, B and C count at the sizes b and c at which k B^2
    and 4 k C^2 balance those two equations."""
    (_, tp_t), (xi, xi_t), (f, f_t), (_, A_t), (B, B_t), (C, C_t) = map(
        _rate, (fr.tp, fr.xi, fr.f, fr.A, fr.B, fr.C))
    g = _forcing(k, v_from, v_to, xi, f)
    g0, g1, g2 = (g.pop(p, []) for p in (0, 1, 2))
    a_rhs, c_rhs = [k * B * B, 2.0 * k * C, *g0], [4.0 * k * C * C, *g2]
    a_size, c_size, k4 = _size(A_t, *a_rhs), _size(C_t, *c_rhs), abs(4.0 * k)
    b, c = np.sqrt(a_size / abs(k)), np.sqrt(c_size / k4)
    equations = [  # (lhs, rhs terms, the sum of the terms' magnitudes)
        (tp_t, [xi * xi], _size(tp_t, xi * xi)),
        (xi_t, [4.0 * k * xi * C], _size(xi_t) + k4 * abs(xi) * c),
        (f_t, [2.0 * k * xi * B], _size(f_t) + k4 / 2.0 * abs(xi) * b),
        (A_t, a_rhs, a_size),
        (B_t, [4.0 * k * B * C, *g1], _size(B_t, *g1) + k4 * b * c),
        (C_t, c_rhs, c_size),
    ] + [(0.0, terms, _size(*terms)) for terms in g.values()]
    for lhs, rhs, size in equations:
        yield abs(lhs - sum(rhs)) / np.maximum(size, np.finfo(float).tiny)


def _size(*terms):
    return sum(abs(term) for term in terms)


# the gate of the structure checks: their worst defect over seeds 1-300 is
# 1.0e-15, and a 1e-9 slip of one frame literal reads about 1e-10
STRUCTURE_TOL = 1e-12
# family: what the anchor names
_GROUP_FRAMES = {"linear": "linear family", "quadratic": "oscillator semigroup",
                 "disk": "circle subgroup"}


def _group_frame(family, cfg, rng, trials):
    spec = cfg.specs()[family]
    l = element_for_family(rng, spec, size=trials)
    fr = frame(l, spec, jets.Jet.variable(np.linspace(-0.3, 0.5, 9)[:, None], 0, 1, 2))
    yield from _structure_defects(fr, spec.k, spec.potential, spec.potential)


for _family, _what in _GROUP_FRAMES.items():
    _register("multiplier", f"ode_oracle_{_family}",
              f"closed exponent coefficients solve their structure equations, {_what}",
              STRUCTURE_TOL, 5, families=("quadratic" if _family == "disk" else _family,),
              structural=True)(partial(_group_frame, _family))


# lift: (the family it lifts from, the family it lifts into)
_LIFTS = {"f1": ("free", "linear"), "f2": ("free", "linear"), "phi1": ("linear", "free"),
          "phi2": ("linear", "free"), "K0": ("free", "quadratic")}


@_register("multiplier", "structure_consistency", "inverse-quadratic and lift frames solve their structure equations", STRUCTURE_TOL, 20, structural=True)
def _mult_structure(cfg, rng, trials):
    """The inverse-quadratic frame and the five lifts (K0 with drawn
    constants), at drawn times t > 0."""
    sp = cfg.specs()
    spec = sp["inverse_quadratic"]
    l = element_for_family(rng, spec, size=trials)
    t = jets.Jet.variable(rng.uniform(0.1, 0.9, trials), 0, 1, 2)
    yield from _structure_defects(frame(l, spec, t), spec.k, spec.potential, spec.potential)
    params = IntertwinerParams(*rng.uniform((0.5, 0.5, 0.0), (1.5, 1.5, 0.5)))
    for kind, (v_from, v_to) in _LIFTS.items():
        spec = sp["quadratic" if kind == "K0" else "linear"]
        fr = lift_frame(kind, spec, params)(t)
        yield from _structure_defects(fr, spec.k, sp[v_from].potential, sp[v_to].potential)


@_register("multiplier", "nls_modulus", "two-coordinate multiplier has unit-free modulus, imaginary k", 1e-12, 200, families=("nls2d",))
def _mult_nls(cfg, rng, trials):
    spec = cfg.specs()["nls2d"]
    l = element_for_family(rng, spec, size=trials)
    t = rng.uniform(-0.4, 0.4, trials)
    z = Point(t, tuple(rng.uniform(-1, 1, (2, trials))))
    r = l.a * t + l.b
    yield abs(abs(multiplier(l, z, spec)) ** 2 - 1.0 / r ** 2)


@_register("multiplier", "k0_values", "free-to-oscillator lift reproduces its closed constants", 1e-12, families=("quadratic",))
def _mult_k0(cfg, rng, trials):
    spec = cfg.specs()["quadratic"]
    k, w = spec.k, spec.omega
    p = IntertwinerParams(1.0, 0.0, 0.0)
    for t in (0.1, 0.4):
        u = np.exp(4.0 * k * w * t)
        fr = lift_frame("K0", spec, p)(t)
        yield abs(fr.tp + 1.0 / (4.0 * k * w * u))
        yield abs(fr.space([0.5])[0] - 0.5 / np.sqrt(u))
        expected = u ** 0.25 / np.sqrt(u) * np.exp(-k * spec.alpha * t - w / 2.0 * 0.25)
        yield abs(fr.multiplier([0.5]) - expected)


# --------------------------------------------------------------- solutions ---


def _uniforms(rng, trials, *bounds):
    """One column per ``(lo, hi)`` pair, one row per trial: the draws, in
    their order, of a loop that draws the pairs' uniforms trial by trial."""
    lo, hi = zip(*bounds)
    return rng.uniform(lo, hi, (trials, len(bounds))).T


@_register("solutions", "free_gaussian", "spreading kernel solves the free equation", 1e-12, 30, families=("free",))
def _sol_gaussian(cfg, rng, trials):
    for k in (cfg.k, -0.5j):
        spec = FamilySpec.free(k)
        fn = gaussian_free(k, t0=0.0)
        t, x = _uniforms(rng, trials, (0.2, 2.0), (-1.5, 1.5))
        r, v = residual_arrays(fn, spec, t, [x])
        yield abs(r) / np.maximum(abs(v), 1.0)


@_register("solutions", "power_static", "static power solves the scale-invariant equation", 1e-12, 30, families=("inverse_quadratic",))
def _sol_power(cfg, rng, trials):
    for s, alpha in ((1.0, 0.0), (2.0, 2.0), (3.0, 6.0)):
        spec = FamilySpec.inverse_quadratic(cfg.k, alpha)
        t, x = _uniforms(rng, trials, (-0.5, 0.5), (0.3, 2.0))
        r, v = residual_arrays(power_static(s, alpha), spec, t, [x])
        yield abs(r) / np.maximum(abs(v), 1.0)


@_register("solutions", "linear_pair", "both canonical lifts solve the linear-potential equation", 1e-12, 30, families=("linear",))
def _sol_fpair(cfg, rng, trials):
    spec = cfg.specs()["linear"]
    t, x = _uniforms(rng, trials, (0.2, 1.5), (-1.5, 1.5))
    for fn in f_pair(spec):
        r, v = residual_arrays(fn, spec, t, [x])
        yield abs(r) / abs(v)
    base = f_pair(FamilySpec.linear(cfg.k, cfg.alpha, 0.0))[0]
    yield abs(base.value(0.7, 0.4) - np.exp(-cfg.k * cfg.alpha * 0.7))


@_register("solutions", "inverse_pair", "both inverse lifts land in the free solution space", 1e-11, families=("linear",))
def _sol_phipair(cfg, rng, trials):
    spec = cfg.specs()["linear"]
    free = cfg.specs()["free"]
    f1, _ = f_pair(spec)
    for kind, grid in (("phi1", GridSpec(T_RANGE, X_RANGE)),
                       ("phi2", GridSpec((0.15, 1.0), X_RANGE))):
        rep = verify_lifted_solution(f1, kind, None, spec, free, grid)
        yield rep.max_rel
    phi1, _ = phi_pair(spec)
    k, b = spec.k, spec.beta
    yield abs(phi1.value(0.6, 0.0)
              - np.exp(spec.alpha * k * 0.6 + (2.0 / 3.0) * k ** 3 * b ** 2 * 0.216))
    bare = phi_pair(FamilySpec.linear(cfg.k, cfg.alpha, 0.0))[0]
    f1b = f_pair(FamilySpec.linear(cfg.k, cfg.alpha, 0.0))[0]
    yield abs(bare.value(0.8, 0.3) * f1b.value(0.8, 0.3) - 1.0)


@_register("solutions", "oscillator_states", "weight and coherent states are annihilated by the evolution operator", 1e-12, 30, families=("quadratic",))
def _sol_gfuncs(cfg, rng, trials):
    for name in ("quadratic", "disk"):
        spec = cfg.specs()[name]
        t, x = _uniforms(rng, trials, (-0.6, 0.6), (-1.2, 1.2))
        for fn in g_functions(spec, gamma=0.7):
            r, v = residual_arrays(fn, spec, t, [x])
            yield abs(r) / abs(v)
    spec = cfg.specs()["quadratic"]
    g2 = g_functions(spec, 0.0)[1]
    g3_zero = g_functions(spec, 0.0)[2]
    yield abs(g2.value(0.4, 0.8) - g3_zero.value(0.4, 0.8))


@_register("solutions", "theta_pde", "truncated theta series solves its evolution equation", 1e-13, 30, families=("free",))
def _sol_theta_pde(cfg, rng, trials):
    """The residual psi_t - k psi_xx over the sizes of its terms, 2 pi
    (n - 1/2)^2 e^{-pi (n - 1/2)^2 Im t} per term of the series, rather than
    over |theta|, which vanishes at x = 0 because theta is odd."""
    trunc = 20
    fn = theta1(trunc)
    im_t, re_t, x = _uniforms(rng, trials, (0.8, 1.5), (-0.3, 0.3), (-0.45, 0.45))
    r, _ = residual_arrays(fn, FamilySpec.free(-1j / (4.0 * np.pi)), im_t * 1j + re_t, [x])
    n2 = (np.arange(1 - trunc, trunc + 1) - 0.5) ** 2  # (n - 1/2)^2 over the truncation window
    scale = np.sum(2.0 * np.pi * n2 * np.exp(-np.pi * n2 * im_t[:, None]), axis=-1)
    yield abs(r) / scale
    yield abs(fn.value(1.1j, 0.23) + fn.value(1.1j, -0.23))


@_register("solutions", "theta_modular", "theta is an eighth-root fixed point of integer matrices", 1e-8, 10, families=("free",))
def _sol_theta_modular(cfg, rng, trials):
    fn = theta1(28)
    spec = FamilySpec.free(-1j / (4.0 * np.pi))
    l = GroupElement(random_modular_matrix(rng, size=trials), 0.0, 0.0)
    tf = transformed(fn, l, spec)
    pts = [(1.4j + 0.1, 0.2), (1.7j, -0.3), (1.5j - 0.2, 0.15)]
    eps, *ratios = (tf.value(t, x) / fn.value(t, x) for t, x in pts)
    yield abs(eps ** 8 - 1.0)
    yield from (abs(r - eps) for r in ratios)


def _airy_residual(u, x):
    """-u'' + (alpha + beta x) u, the bound-state equation with E = -alpha
    stated from the profile's spec; zero for the true profile."""
    psi, _, upp = u.derivatives(x, 2)
    return -upp + (u.spec.alpha + u.spec.beta * np.asarray(x)) * psi


@_register("solutions", "airy_ode", "oscillatory integral solves the halfline eigenproblem", 1e-6, 5, families=("linear",), structural=True)
def _sol_airy_ode(cfg, rng, trials):
    u = AiryFn(AirySpec(alpha=-1.0, beta=1.0))
    yield abs(_airy_residual(u, np.linspace(0.0, 3.0, trials)))
    if not abs(u.value(10.0)) <= 1e-4:  # a NaN fails too
        yield 1.0


# each root is the midpoint of a sign-change bracket no wider than ROOT_WIDTH,
# so it lies within ROOT_WIDTH / 2 of the zero, which the 16-digit reference
# values resolve
@_register("solutions", "airy_roots", "boundary roots match the reference zero magnitudes", ROOT_WIDTH, families=("linear",), structural=True)
def _sol_airy_roots(cfg, rng, trials):
    spec = AirySpec(alpha=-2.0, beta=1.0)
    r1 = eigenvalue_scan(spec, (1.0, 3.0))
    r2 = eigenvalue_scan(spec, (3.0, 5.0))
    yield from (abs(r1[0] - AIRY_FIRST_TWO[0]), abs(r2[0] - AIRY_FIRST_TWO[1]))


@_register("solutions", "nls_plane_wave", "plane wave solves the two-coordinate cubic equation", 1e-12, 30, families=("nls2d",))
def _sol_nls(cfg, rng, trials):
    spec = cfg.specs()["nls2d"]
    fn = plane_wave_nls(1.2, (0.4, -0.7), spec)
    t, x1, x2 = _uniforms(rng, trials, (-0.5, 0.5), (-1, 1), (-1, 1))
    r, v = residual_arrays(fn, spec, t, [x1, x2])
    yield abs(r) / abs(v)
    zero = plane_wave_nls(0.0, (0.4, -0.7), spec)
    r, _ = residual_arrays(zero, spec, np.array([0.2]), [np.array([0.1]), np.array([0.2])])
    yield abs(r[0])


@_register("solutions", "partials_fd", "jet partials agree with halved central differences at second order", 0.5, 20, structural=True)
def _sol_partials(cfg, rng, trials):
    spec = cfg.specs()["linear"]
    _, f2 = f_pair(spec)
    gs = g_functions(cfg.specs()["quadratic"], 0.5)

    def fd_orders(fn):
        """1 for each trial whose error does not fall at order 1.5-2.6.
        The second difference takes its own steps, four times those of the
        first: at the first's 5e-4 it sits on its round-off floor, about
        eps |psi| / h^2, and would read as order 1."""
        t, x = _uniforms(rng, trials, (0.4, 1.2), (-1.0, 1.0))
        j = fn.jet(t, x, 2)
        _, first, second = stencil(fn, t, [x], 0, [(0, 1e-3), (1, 4e-3)])
        errs = np.maximum(abs(first.value[0] - j.partial((1, 0))),
                          abs(second.value[1] - j.partial((0, 2))))
        with np.errstate(divide="ignore", invalid="ignore"):
            order = np.log2(errs[0] / errs[1])
        ok = np.isfinite(errs[0]) & np.isfinite(errs[1]) & (
            (errs[1] <= 1e-12) | ((1.5 <= order) & (order <= 2.6)))
        return np.where(ok, 0.0, 1.0)

    yield fd_orders(f2)
    yield fd_orders(gs[2])


@_register("solutions", "mixed_symmetry", "mixed partial derivatives are symmetric", 1e-9, 20, structural=True)
def _sol_mixed(cfg, rng, trials):
    """Richardson-combined cross-derivative estimates from both
    differentiation orders must agree (t of x-partial vs x of t-partial)."""
    spec = cfg.specs()["linear"]
    _, f2 = f_pair(spec)
    t, x = _uniforms(rng, trials, (0.4, 1.5), (-1.2, 1.2))

    def centred(var, order, partial):
        """The first centred differences in ``var`` of a partial, at 2e-3 and 1e-3."""
        return stencil(f2, t, [x], order, [(var, 2e-3)])[1].partial(partial)[0]

    (dt_fx, dt_fx_half), (dx_ft, dx_ft_half) = centred(0, 1, (0, 1)), centred(1, 2, (1, 0))
    richardson = (4.0 * (dt_fx_half - dx_ft_half) - (dt_fx - dx_ft)) / 3.0
    scale = np.maximum(abs(f2.jet(t, x, 3).partial((1, 1))), 1.0)
    yield abs(richardson) / scale


# ---------------------------------------------------------------- residual ---


@_register("residual", "self_residuals", "declared solutions have tiny relative residual on grids", 1e-11)
def _res_self(cfg, rng, trials):
    sp = cfg.specs()
    f1, f2 = f_pair(sp["linear"])
    g1, g2, g3 = g_functions(sp["quadratic"], 0.6)
    base = GridSpec(T_RANGE, X_RANGE)
    cases = [
        (gaussian_free(cfg.k, 2.0), sp["free"], base),
        (power_static(2.0, 2.0), sp["inverse_quadratic"], GridSpec(T_RANGE, (0.3, 1.8))),
        (f1, sp["linear"], base),
        (f2, sp["linear"], GridSpec((0.5, 2.0), X_RANGE)),
        (g2, sp["quadratic"], base),
        (g3, sp["quadratic"], base),
    ]
    yield from (grid_residual(fn, spec, grid).max_rel for fn, spec, grid in cases)


@_register("residual", "fd_order", "finite-difference residual converges at second order", 0.2, structural=True)
def _res_fd(cfg, rng, trials):
    spec = cfg.specs()["linear"]
    _, f2 = f_pair(spec)
    yield abs(fd_order(f2, spec, GridSpec((0.4, 1.4), (-1.0, 1.0))) - 2.0)


@_register("residual", "zero_function", "zero function reports zero residual", 0.0)
def _res_zero(cfg, rng, trials):
    zero = FormulaFn(lambda tj, xj: 0.0 * tj)
    rep = grid_residual(zero, cfg.specs()["linear"], GridSpec(T_RANGE, X_RANGE))
    yield rep.max_abs


# family: (what the anchor names, its solution, the x range of its grid
# when not X_RANGE, the bounds that differ from its sampler's defaults)
_TRANSFORMED = {
    "linear": ("linear family", lambda spec: f_pair(spec)[0], None,
               {"scale": 0.3, "translation": 0.6}),
    "inverse_quadratic": ("scale-invariant family", lambda spec: power_static(2.0, 2.0),
                          (0.4, 1.8), {"scale": 0.3}),
    "quadratic": ("oscillator semigroup", lambda spec: g_functions(spec, 0.5)[1], None, {}),
    "disk": ("circle subgroup", lambda spec: g_functions(spec, 0.4)[2], None, {}),
}


def _transformed(family, solution, x_range, bounds, cfg, rng, trials):
    spec = cfg.specs()[family]
    l = element_for_family(rng, spec, **bounds, size=trials)
    grid = GridSpec(T_RANGE, x_range or X_RANGE)
    if family == "inverse_quadratic":  # its base x^s is no exponent
        yield verify_transformed_solution(solution(spec), l, spec, grid).max_rel
    else:
        yield coefficient_residual(transformed(solution(spec), l, spec), spec, grid)


for _family, (_what, *_case) in _TRANSFORMED.items():
    _register("residual", f"transformed_{_family}", f"transformed solutions still solve, {_what}",
              1e-9, 30, families=("quadratic" if _family == "disk" else _family,))(
        partial(_transformed, _family, *_case))


# trials of residual.transformed_nls per draw: its elements are drawn in
# draws of this size, which fixes them, and evaluated as one batch
NLS_CHUNK = 3


@_register("residual", "transformed_nls", "transformed plane waves still solve the cubic equation", 1e-9, 15, families=("nls2d",))
def _res_tr_nls(cfg, rng, trials):
    spec = cfg.specs()["nls2d"]
    draws = [element_for_family(rng, spec, size=min(NLS_CHUNK, trials - start))
             for start in range(0, trials, NLS_CHUNK)]
    c, d, a, b, mu, nu = map(np.concatenate, zip(*((l.c, l.d, l.a, l.b, l.mu, l.nu) for l in draws)))
    l = GroupElement(Mat2(c, d, a, b), mu, nu)
    yield coefficient_residual(transformed(plane_wave_nls(1.1, (0.4, -0.7), spec), l, spec),
                               spec, GridSpec(T_RANGE, X_RANGE))


@_register("residual", "intertwining_nonsolution", "operator identity holds on functions that do not solve", 1e-9, 20)
def _res_intertwine(cfg, rng, trials):
    sp = cfg.specs()
    expfn = FormulaFn(lambda tj, xj: jets.exp(tj + xj))
    x2fn = FormulaFn(lambda tj, xj: xj * xj)
    grid, grid_x_pos = GridSpec(T_RANGE, X_RANGE), GridSpec(T_RANGE, (0.4, 1.8))
    invq0 = FamilySpec.inverse_quadratic(cfg.k, 0.0)
    for fn, spec, g in ((expfn, sp["linear"], grid), (x2fn, invq0, grid_x_pos),
                        (expfn, sp["quadratic"], grid)):
        yield verify_intertwining(fn, element_for_family(rng, spec, size=trials), spec, g).max_rel


@_register("residual", "lift_residuals", "free solutions lift into both potential families", 1e-9, families=("linear", "quadratic", "free"))
def _res_lift(cfg, rng, trials):
    sp = cfg.specs()
    psi0 = gaussian_free(cfg.k, t0=2.0)
    grid, late = GridSpec(T_RANGE, X_RANGE), GridSpec((0.15, 1.0), X_RANGE)
    for fn, kind, params, family, g in (
            (psi0, "f1", None, "linear", grid),
            (constant_one(), "f2", None, "linear", late),
            (gaussian_free(cfg.k, t0=8.0), "f2", None, "linear", late),
            (psi0, "K0", IntertwinerParams(1.0, 0.0, 0.0), "quadratic", grid),
            (psi0, "K0", IntertwinerParams(0.8, 0.3, 0.2), "quadratic", grid)):
        yield coefficient_residual(PullbackFn(fn, lift_frame(kind, sp[family], params)), sp[family], g)


@_register("residual", "lift_roundtrip", "lift then inverse lift is multiplication by a constant", 1e-12, families=("linear", "free"))
def _res_roundtrip(cfg, rng, trials):
    sp = cfg.specs()
    psi0 = gaussian_free(cfg.k, t0=2.0)
    lifted = PullbackFn(psi0, lift_frame("f1", sp["linear"]))
    back = PullbackFn(lifted, lift_frame("phi1", sp["linear"]))
    t, xs = GridSpec(T_RANGE, X_RANGE).points(1)
    got, want = back.jet(t, xs[0], 2), psi0.jet(t, xs[0], 2)
    for alpha in want.support:  # psi and its partials, each relative to its grid max
        yield np.abs(got.coefficient(alpha) - want.coefficient(alpha)).max() / np.abs(
            want.coefficient(alpha)).max()


# ----------------------------------------------------------------- liealg ----


def _table_defects(g):
    """The coefficient defects of the ten entries of the bracket table of
    ``g``'s generators, one per entry."""
    central = DiffOp.monomial(g.family, 1.0 / (2.0 * g.k) if g.family == LINEAR_VARS else 2.0 * g.omega)
    for got, want in (
        (g.L3.commutator(g.Lplus), g.Lplus),
        (g.L3.commutator(g.Lminus), -1.0 * g.Lminus),
        (g.Lplus.commutator(g.Lminus), -2.0 * g.L3),
        (g.L3.commutator(g.T1), 0.5 * g.T1),
        (g.L3.commutator(g.T2), -0.5 * g.T2),
        (g.Lplus.commutator(g.T1), 0.0 * g.unit),
        (g.Lminus.commutator(g.T2), 0.0 * g.unit),
        (g.Lplus.commutator(g.T2), g.T1),
        (g.Lminus.commutator(g.T1), -1.0 * g.T2),
        (g.T1.commutator(g.T2), central),
    ):
        yield got.max_abs_diff(want)


@_register("liealg", "table_linear", "full bracket table of the linear-family algebra", 1e-13, families=("linear",))
def _lie_table_linear(cfg, rng, trials):
    yield from _table_defects(cfg.generators("linear"))


# reads 0 at every seed, since it draws nothing, but not at every parameter:
# up to 4.4e-16 over k in {0.3, 0.7, 1, 1.5, 2.5, 1e-3, +-0.7j}, alpha in
# {0, 0.3, 1.7}, omega in {0.1, 0.3, 0.6, 1, 3}, from alpha/(4 omega) and omega
@_register("liealg", "table_quadratic", "full bracket table of the oscillator algebra", 1e-13, families=("quadratic",))
def _lie_table_quadratic(cfg, rng, trials):
    yield from _table_defects(cfg.generators("quadratic"))


@_register("liealg", "evolution_identity_linear", "evolution operator is an enveloping-algebra element, linear family", 1e-13, families=("linear",))
def _lie_evol_linear(cfg, rng, trials):
    g = cfg.generators("linear")
    k1 = g.Lplus - g.k * g.T1.compose(g.T1)
    d = g.Lplus - (2.0 * g.k ** 2 * g.beta) * g.T2 - (g.k * g.alpha) * g.unit
    yield from (k1.max_abs_diff(g.Kop), d.max_abs_diff(g.D))


# reads 0 at every seed; a gate above 0 leaves room for an FMA on another CPU
@_register("liealg", "evolution_identity_quadratic", "evolution operator is an enveloping-algebra element, oscillator family", 1e-14, families=("quadratic",))
def _lie_evol_quadratic(cfg, rng, trials):
    g = cfg.generators("quadratic")
    k2 = (-4.0 * g.k * g.omega) * g.L3 - (0.5 * g.k) * (
        g.T1.compose(g.T2) + g.T2.compose(g.T1))
    d = (-4.0 * g.k * g.omega) * g.L3 - (g.k * g.alpha) * g.unit
    yield from (k2.max_abs_diff(g.Kop), d.max_abs_diff(g.D))


# of liealg.intertwine's verdicts: a relation holds when no coefficient of
# its two sides differs by more
INTERTWINE_TOL = 1e-13


def _intertwines(g, kop):
    """Whether tilde(gen) . K = K . gen, to ``INTERTWINE_TOL``, for all five
    generators of ``g``."""
    pairs = ((g.L3t, g.L3), (g.Lplust, g.Lplus), (g.Lminust, g.Lminus), (g.T1t, g.T1), (g.T2t, g.T2))
    return all(gt.compose(kop).max_abs_diff(kop.compose(gen)) <= INTERTWINE_TOL for gt, gen in pairs)


@_register("liealg", "intertwine", "conjugated generators intertwine with the evolution operator", 0.5, structural=True)
def _lie_intertwine(cfg, rng, trials):
    gl, gq = cfg.generators("linear"), cfg.generators("quadratic")
    if not (_intertwines(gl, gl.Kop) and _intertwines(gq, gq.Kop)):
        yield 1.0
    # falsification control: a perturbed lowering operator must fail its
    # relation by a finite difference (a NaN fails the control)
    broken = gl.Lminus + 1e-3 * gl.unit
    if not INTERTWINE_TOL < gl.Lminust.compose(gl.Kop).max_abs_diff(gl.Kop.compose(broken)) < math.inf:
        yield 1.0
    comm = [
        gl.Lplus.commutator(gl.Kop),
        gl.T1.commutator(gl.Kop),
        gl.T2.commutator(gl.Kop),
        gl.L3.commutator(gl.Kop) - gl.Kop,
    ]
    if not all(c.max_abs_diff(0.0 * gl.unit) <= INTERTWINE_TOL for c in comm):
        yield 1.0


@_register("liealg", "casimir_cubic", "cubic invariant is the constant 3/16", 1e-13)
def _lie_i3(cfg, rng, trials):
    for g in (cfg.generators("linear"), cfg.generators("quadratic")):
        yield (g.i3 - (3.0 / 16.0) * g.unit).max_abs_diff(0.0 * g.unit)


@_register("liealg", "casimir_factorization", "quadratic invariant factors through the evolution operator", 1e-13)
def _lie_i2(cfg, rng, trials):
    k, gl, gq = cfg.k, cfg.generators("linear"), cfg.generators("quadratic")
    poly = DiffOp.monomial(LINEAR_VARS, 1.0, 0, 1) - DiffOp.monomial(LINEAR_VARS, k * k * cfg.beta, 2, 0)
    rhs = (3.0 / 16.0) * gl.unit + (poly.compose(poly) * (0.25 / k)).compose(gl.Kop)
    dl = gl.i2.max_abs_diff(rhs)
    rhsq = (3.0 / 16.0) * gq.unit + DiffOp.monomial(QUADRATIC_VARS, 0.25 / k, 0, 2).compose(gq.Kop)
    dq = gq.i2.max_abs_diff(rhsq)
    yield from (dl, dq)


@_register("liealg", "casimir_commutes", "invariants commute with the subalgebra", 1e-13)
def _lie_casimir_comm(cfg, rng, trials):
    gl = cfg.generators("linear")
    yield from (
        gl.i2.commutator(gl.L3).max_abs_diff(0.0 * gl.unit),
        gl.i3.commutator(gl.T1).max_abs_diff(0.0 * gl.unit),
        gl.i3.commutator(gl.Lplus).max_abs_diff(0.0 * gl.unit),
    )


@_register("liealg", "eigenrelations", "weight and coherent states have the stated eigenvalues", 1e-11, 50)
def _lie_eigen(cfg, rng, trials):
    """One jet per function, at the largest order of its operators; its
    value row is the reference value."""
    sp, gl, gq = cfg.specs(), cfg.generators("linear"), cfg.generators("quadratic")
    f1, f2 = f_pair(sp["linear"])
    g1, g2, g3 = g_functions(sp["quadratic"], gamma=0.8)
    z = Point(*_uniforms(rng, trials, (0.2, 1.0), (-1.2, 1.2)))
    for fn, relations in (
        (f1, ((gl.Lplus, 0.0), (gl.T1, 0.0), (gl.L3, -0.25), (gl.i2, 3.0 / 16.0), (gl.i3, 3.0 / 16.0))),
        (f2, ((gl.Lminus, 0.0), (gl.T2, 0.0), (gl.L3, 0.25), (gl.i2, 3.0 / 16.0), (gl.i3, 3.0 / 16.0))),
        (g1, ((gq.Kop, 0.0), (gq.Lplus, 0.0), (gq.T1, 0.0), (gq.L3, -0.25))),
        (g2, ((gq.Kop, 0.0), (gq.Lminus, 0.0), (gq.T2, 0.0), (gq.L3, 0.25))),
        (g3, ((gq.Kop, 0.0), (gq.T2, 0.8), (gq.Lminus, 0.64 / (4.0 * cfg.omega)))),
    ):
        j, v1 = relations[0][0].jet(fn, z, max(op.order for op, _ in relations))
        for op, eigenvalue in relations:
            yield abs(op.on_jet(j, v1, z.x1) - eigenvalue * j.value) / abs(j.value)


@_register("liealg", "jacobi", "composition is associative and brackets satisfy Jacobi", 1e-12, 15)
def _lie_jacobi(cfg, rng, trials):
    """Each pair of basis operators is composed, and bracketed, once per
    check, however often the trials draw it."""
    g = cfg.generators("linear")
    basis = [g.L3, g.Lplus, g.Lminus, g.T1, g.T2, g.unit]

    @cache
    def pair(i, j):
        return basis[i].compose(basis[j])

    @cache
    def bracket(i, j):  # basis[i].commutator(basis[j])
        return pair(i, j) - pair(j, i)

    for _ in range(trials):
        i, j, m = (int(rng.integers(0, len(basis))) for _ in range(3))
        a, b, c = basis[i], basis[j], basis[m]
        assoc = pair(i, j).compose(c).max_abs_diff(a.compose(pair(j, m)))
        jac = (
            a.commutator(bracket(j, m))
            + b.commutator(bracket(m, i))
            + c.commutator(bracket(i, j))
        ).max_abs_diff(0.0 * g.unit)
        yield from (assoc, jac)


@_register("liealg", "time_derivative_stays", "time derivatives of solutions remain solutions", 1e-10, 10)
def _lie_dpower(cfg, rng, trials):
    g = cfg.generators("linear")
    f1, _ = f_pair(cfg.specs()["linear"])
    op = g.Kop.compose(g.D.compose(g.D))
    z = Point(*_uniforms(rng, trials, (0.2, 1.0), (-1.2, 1.2)))
    yield abs(op.apply(f1, z)) / abs(f1.value(z.t, z.x1))


# reads 0 everywhere and is exact: it reads no parameter, and binary64 holds
# every product and sum of its small-integer coefficients, FMA or not; a gate
# of 0 would hold too, but the gate stays with those of the other liealg
# coefficient checks, which round at float parameters
@_register("liealg", "poly_ring", "coefficient ring arithmetic handles negative powers", 1e-14)
def _lie_poly(cfg, rng, trials):
    """Order-0 operators are the coefficient ring that ``compose`` multiplies."""
    def mono(c, i=0, j=0, m=0):
        return DiffOp.monomial(QUADRATIC_VARS, c, i, j, m)

    p = mono(1.0, 1) + mono(1.0, -1)
    yield p.compose(p).max_abs_diff(mono(1.0, 2) + mono(2.0) + mono(1.0, -2))
    ds = mono(1.0, m=1)
    yield ds.commutator(mono(1.0, 2, 1)).max_abs_diff(mono(2.0, 1, 1))
    yield ds.commutator(mono(1.0, -1)).max_abs_diff(mono(-1.0, -2))
    yield p.compose(mono(1.0)).max_abs_diff(p)
