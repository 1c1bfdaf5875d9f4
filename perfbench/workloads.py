"""The benchmark's workloads: what one operation is, which inputs it draws
from the workload seed, and how every output is checked.

All workloads are closed loops with one caller: the next operation starts
when the previous one has returned.  The package is driven only through
its public functions, looked up on the modules at call time so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import json
import sys
import traceback
from dataclasses import dataclass

RESIDUAL_TOL = 1e-9  # the check registry's grid-residual tolerance

# the check registry's run parameters (RunConfig defaults)
K, ALPHA, BETA, OMEGA = 0.7, 0.3, 0.9, 0.6
T_RANGE, X_RANGE = (-0.4, 0.6), (-1.2, 1.2)

EXPECTED_CHECKS = frozenset(
    [f"coords.{n}" for n in (
        "branch_continuity", "comoving_identity", "dilatation", "galilean",
        "homomorphism_disk", "homomorphism_inverse_quadratic",
        "homomorphism_linear", "homomorphism_quadratic", "identity_action",
        "pair_differences", "reality_domain", "time_translation")]
    + [f"group.{n}" for n in (
        "admissible_closure", "associativity", "cocycle_antisymmetry",
        "cocycle_cycle_linear", "cocycle_cycle_quadratic", "determinant_guard",
        "disk_closure", "disk_parametrization", "inverse", "symplectic")]
    + [f"liealg.{n}" for n in (
        "casimir_commutes", "casimir_cubic", "casimir_factorization",
        "eigenrelations", "evolution_identity_linear",
        "evolution_identity_quadratic", "intertwine", "jacobi", "poly_ring",
        "table_linear", "table_quadratic", "time_derivative_stays")]
    + [f"multiplier.{n}" for n in (
        "cocycle_inverse_quadratic", "cocycle_linear", "cocycle_quadratic",
        "cocycle_variant_resolution", "identity_value", "k0_values",
        "nls_modulus", "ode_oracle_disk", "ode_oracle_linear",
        "ode_oracle_quadratic", "structure_consistency")]
    + [f"residual.{n}" for n in (
        "fd_order", "intertwining_nonsolution", "lift_residuals",
        "lift_roundtrip", "self_residuals", "transformed_disk",
        "transformed_inverse_quadratic", "transformed_linear",
        "transformed_nls", "transformed_quadratic", "zero_function")]
    + [f"solutions.{n}" for n in (
        "airy_ode", "airy_roots", "free_gaussian", "inverse_pair",
        "linear_pair", "mixed_symmetry", "nls_plane_wave", "oscillator_states",
        "partials_fd", "power_static", "theta_modular", "theta_pde")]
)
assert len(EXPECTED_CHECKS) == 68

TRANSFORMED_CASES = ("linear", "inverse_quadratic", "quadratic", "disk", "nls")


def mod(name):
    return importlib.import_module(f"schroedsym.{name}")


@dataclass
class Outcome:
    """What one operation did: checked units attempted and failed, and the
    points it verified: grid points (dropped points excluded) in a residual
    round, checks in a verify_all pass."""

    attempted: int
    failed: int
    points: int = 0


# -- verify_all ------------------------------------------------------------------


def score_verify_report(rc, text):
    """Checks failed in one ``verify all`` pass.

    A check passes only if the CLI returned 0 and the JSON report holds
    exactly the expected check names, each once, with ``pass: true``.
    """
    n = len(EXPECTED_CHECKS)
    try:
        rows = json.loads(text)
        names = [row["name"] for row in rows]
    except (ValueError, TypeError, KeyError):
        return Outcome(n, n, n)
    if rc != 0 or len(names) != len(set(names)) or set(names) != EXPECTED_CHECKS:
        return Outcome(n, n, n)
    failed = sum(1 for row in rows if row.get("pass") is not True)
    return Outcome(n, failed, n)


class VerifyAll:
    name = "verify_all"
    # Why: this is the gate users and Tier-1 run (criterion 10 runs it twice,
    # 43.6 of the 84 s Tier-1 run).  About 89 % of it is the RK4 oracle, so
    # the adaptive-oracle item must show here.  It is the only workload that
    # runs group, opalg and the Airy quadrature.  Tier-1 pytest itself is
    # not a workload; this covers its dominant cost.
    why = "the 68-check gate users and Tier-1 run; ~89% RK4 oracle; only workload running group, opalg and the Airy quadrature"
    unit = "check"
    point_name = "checks"
    # one pass outlasts the measuring window and the machine's speed drifts
    # by ~10% between passes, so the median needs at least two
    min_ops = 2
    trace_ops = 1
    speed_exponent = 1.0  # see speed.py

    def __init__(self, workdir):
        self.out = workdir / "verify_all.json"

    def setup(self, rng):
        return mod("cli")

    def op(self, cli, rng, tracer=None):
        seed = int(rng.integers(0, 2**31 - 1))
        self.out.unlink(missing_ok=True)
        rc = cli.main(["verify", "all", "--seed", str(seed), "--format", "json",
                       "--out", str(self.out)])
        text = self.out.read_text(encoding="utf-8") if self.out.exists() else ""
        return score_verify_report(rc, text)


# -- residual rounds -------------------------------------------------------------


@dataclass
class Case:
    """One library verification of the round: ``run(rng)`` returns a
    ResidualReport over a grid of ``n_points`` points."""

    label: str
    run: object
    n_points: int


def check_case(case, rng):
    """(passed, points verified) for one verification.

    It fails if it raises, if max_rel exceeds the registry tolerance, or if
    it verifies fewer points than its grid holds.
    """
    try:
        report = case.run(rng)
    except Exception:  # a failed operation is counted, the loop goes on
        traceback.print_exc(file=sys.stderr)
        return False, 0
    ok = report.max_rel <= RESIDUAL_TOL and report.n_points >= case.n_points
    return ok, int(report.n_points)


def residual_cases(n, n_nls):
    """The round: one verification per case of the registry's
    ``residual.transformed_*``, ``residual.lift_residuals`` and
    ``residual.intertwining_nonsolution`` checks, with their specs, element
    samplers and grids, on an n x n grid (n_nls^3 for the 2-d NLS family).
    """
    co, jets, res, sa, so, gr, mu = (mod(m) for m in (
        "coords", "jets", "residual", "sampling", "solutions", "group", "multiplier"))
    FamilySpec, GridSpec = co.FamilySpec, res.GridSpec
    linear = FamilySpec.linear(K, ALPHA, BETA)
    quadratic = FamilySpec.quadratic(K, ALPHA, OMEGA)
    disk = FamilySpec.quadratic(1j * K, ALPHA, OMEGA)
    nls2d = FamilySpec.nls2d(-1j * K, coupling=1.3)
    free = FamilySpec.free(K)
    invq = FamilySpec.inverse_quadratic(K, 2.0)
    invq0 = FamilySpec.inverse_quadratic(K, 0.0)
    grid = GridSpec(T_RANGE, X_RANGE, n, n)
    grid_x_pos = GridSpec(T_RANGE, (0.4, 1.8), n, n)
    grid_late = GridSpec((0.15, 1.0), X_RANGE, n, n)
    grid_nls = GridSpec(T_RANGE, X_RANGE, n_nls, n_nls)
    n2, n3 = n * n, n_nls ** 3

    def transformed(fn, spec, sampler, g):
        return lambda rng: res.verify_transformed_solution(fn, sampler(rng), spec, g)

    def lifted(psi0, kind, params, spec_to, g):
        return lambda rng: res.verify_lifted_solution(psi0, kind, params, free, spec_to, g)

    def intertwined(fn, spec, sampler, g):
        return lambda rng: res.verify_intertwining(fn, sampler(rng), spec, g)

    def draw(sampler, **kw):  # looked up per call, so a tracer sees it
        return lambda rng: getattr(sa, sampler)(rng, **kw)

    def scale_only(**kw):
        return lambda rng: gr.GroupElement(sa.random_sl2r(rng, **kw), 0.0, 0.0)

    psi0 = so.gaussian_free(K, t0=2.0)
    expfn = so.FormulaFn(lambda tj, xj: jets.exp(tj + xj))
    x2fn = so.FormulaFn(lambda tj, xj: xj * xj)
    return [
        Case("residual.transformed_linear", transformed(
            so.f_pair(linear)[0], linear,
            draw("random_element", scale=0.3, translation=0.6), grid), n2),
        Case("residual.transformed_inverse_quadratic", transformed(
            so.power_static(2.0, 2.0), invq, scale_only(scale=0.3), grid_x_pos), n2),
        Case("residual.transformed_quadratic", transformed(
            so.g_functions(quadratic, 0.5)[1], quadratic,
            draw("random_admissible_element"), grid), n2),
        Case("residual.transformed_disk", transformed(
            so.g_functions(disk, 0.4)[2], disk, draw("random_disk_element"), grid), n2),
        Case("residual.transformed_nls", transformed(
            so.plane_wave_nls(1.1, (0.4, -0.7), nls2d), nls2d,
            draw("random_element"), grid_nls), n3),
        Case("residual.lift_f1", lifted(psi0, "f1", None, linear, grid), n2),
        Case("residual.lift_f2_one", lifted(so.constant_one(), "f2", None, linear, grid_late), n2),
        Case("residual.lift_f2_gaussian", lifted(
            so.gaussian_free(K, t0=8.0), "f2", None, linear, grid_late), n2),
        Case("residual.lift_K0_unit", lifted(
            psi0, "K0", mu.IntertwinerParams(1.0, 0.0, 0.0), quadratic, grid), n2),
        Case("residual.lift_K0", lifted(
            psi0, "K0", mu.IntertwinerParams(0.8, 0.3, 0.2), quadratic, grid), n2),
        Case("residual.intertwining_linear", intertwined(
            expfn, linear, draw("random_element"), grid), n2),
        Case("residual.intertwining_inverse_quadratic", intertwined(
            x2fn, invq0, scale_only(), grid_x_pos), n2),
        Case("residual.intertwining_quadratic", intertwined(
            expfn, quadratic, draw("random_admissible_element"), grid), n2),
    ]


class ResidualRound:
    unit = "verification"
    point_name = "grid points"
    min_ops = 1

    def __init__(self, name, why, n, n_nls, trace_ops, speed_exponent=1.0):
        self.name, self.why = name, why
        self.n, self.n_nls = n, n_nls
        self.trace_ops = trace_ops
        self.speed_exponent = speed_exponent

    def setup(self, rng):
        return residual_cases(self.n, self.n_nls)

    def op(self, cases, rng, tracer=None):
        out = Outcome(0, 0)
        for case in cases:
            if tracer is not None:
                tracer.begin_label(case.label)
            ok, points = check_case(case, rng)
            out.attempted += 1
            out.failed += not ok
            out.points += points
        if tracer is not None:
            tracer.label = None
        return out


def workloads(workdir):
    return {
        "verify_all": VerifyAll(workdir),
        # Why: the per-call-overhead regime, where dict-based Jet arithmetic
        # dominates (141 Jet.__mul__ calls per linear verification; the
        # tracer, which also counts those made inside series and division,
        # sees 188) and the repeated frame evaluations dominate (4
        # linear_xi_f/quadratic_frame calls per verification where 1 would
        # do).  It never runs the oracle.
        "residual_small": ResidualRound(
            "residual_small",
            "196-point grids: per-call overhead of dict jets and of 4 frame evaluations per verification; never runs the oracle",
            n=14, n_nls=14, trace_ops=20),
        # Why: the throughput and memory regime.  A jets or frame change that
        # trades per-call overhead for per-point work or memory moves this
        # workload opposite to residual_small, and the benchmark shows it.
        "residual_large": ResidualRound(
            "residual_large",
            "~50k-point grids (224x224, 37^3 for nls2d): per-point throughput and memory of the same round",
            n=224, n_nls=37, trace_ops=2,
            # a round here spends much of its time in numpy's array loops
            # and page faults, and its time moves as about the 0.5-0.75th
            # power of the reference kernel's (four recordings of 56-141
            # rounds); cut into 10-20 s runs, their medians scaled by the
            # full kernel time spread 0.04-0.18, by its 0.6th power 0.03-0.07
            speed_exponent=0.6),
    }
