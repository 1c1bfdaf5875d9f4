"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
asserts the criterion bound, so the module doubles as a human-readable
scoreboard and a hard gate.
"""

import json
import time

import numpy as np
import scipy.special

from schroedsym.cli import main
from schroedsym.coords import FamilySpec
from schroedsym.solutions import AirySpec, eigenvalue_scan, f_pair, phi_pair
from schroedsym.suites import AIRY_FIRST_TWO, RunConfig, run_named_check

SEED = 20240809


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


def _run_all(names, cfg):
    """(all passed, the result nearest its gate, seconds)."""
    results = [run_named_check(name, cfg) for name in names]
    worst = max(results, key=lambda r: r.value / r.tol)
    seconds = sum(r.seconds for r in results)
    return all(r.passed for r in results), worst, seconds


def _of(r):
    """A result's value against its own gate."""
    return f"{r.value:.2e} (tol {r.tol:g})"


def test_criterion_01_group_laws():
    cfg = RunConfig(seed=SEED, trials=1000)
    ok, worst, secs = _run_all(
        ["group.associativity", "group.inverse", "group.cocycle_cycle_linear",
         "group.cocycle_antisymmetry", "group.symplectic"], cfg)
    ok = ok and secs < 1.0
    _line(1, ok, f"group laws, 1000 elements each: worst defect {_of(worst)}, "
                 f"{secs:.2f}s (< 1s)")
    assert ok


def test_criterion_02_multiplier_cocycles():
    cfg = RunConfig(seed=SEED, trials=500)
    ok, worst, secs = _run_all(
        ["multiplier.cocycle_inverse_quadratic", "multiplier.cocycle_linear",
         "multiplier.cocycle_quadratic"], cfg)
    variant = run_named_check("multiplier.cocycle_variant_resolution",
                              RunConfig(seed=SEED, trials=60))
    ok = ok and variant.passed and secs < 5.0
    _line(2, ok, f"multiplier product laws, 500 pairs per family: worst rel "
                 f"{_of(worst)}, misprint variant rejected, {secs:.2f}s (< 5s)")
    assert ok


def test_criterion_03_transformed_solutions():
    cfg = RunConfig(seed=SEED, trials=100)
    ok, worst, secs = _run_all(
        ["residual.transformed_linear", "residual.transformed_inverse_quadratic",
         "residual.transformed_quadratic", "residual.transformed_disk"], cfg)
    ok = ok and secs < 20.0
    _line(3, ok, f"transformed solutions, 100 elements per family on 196-point "
                 f"grids: worst rel residual {_of(worst)}, {secs:.1f}s (< 20s)")
    assert ok


def test_criterion_04_intertwining_on_nonsolutions():
    cfg = RunConfig(seed=SEED, trials=25)
    res = run_named_check("residual.intertwining_nonsolution", cfg)
    _line(4, res.passed, f"operator identity on non-solutions: worst rel "
                         f"difference {_of(res)}")
    assert res.passed


def test_criterion_05_solution_lifts():
    cfg = RunConfig(seed=SEED)
    lifts = run_named_check("residual.lift_residuals", cfg)
    roundtrip = run_named_check("residual.lift_roundtrip", cfg)
    # the inverse-lift cubic coefficient is fixed by the inversion oracle:
    # phi1 * (forward lift of 1) must be identically one
    spec = FamilySpec.linear(0.7, 0.3, 0.9)
    f1 = f_pair(spec)[0]
    phi1 = phi_pair(spec)[0]
    k, b = spec.k, spec.beta
    ts = np.linspace(0.2, 1.4, 9)
    resolved = max(abs(phi1.value(t, x) * f1.value(t, x + k * k * b * t * t) - 1.0)
                   for t in ts for x in (-0.8, 0.3, 1.1))
    printed_coeff = np.exp(spec.alpha * k * 0.9 + (2.0 / 3.0) * k ** 2 * b ** 3 * 0.9 ** 3)
    printed_differs = abs(phi1.value(0.9, 0.0) - printed_coeff) > 1e-3
    ok = lifts.passed and roundtrip.passed and resolved < 1e-12 and printed_differs
    _line(5, ok, f"solution-space lifts: worst rel residual {_of(lifts)}, "
                 f"round trip deviation {_of(roundtrip)}; inverse-lift "
                 f"cubic coefficient resolved to (2/3)k^3 beta^2 by the inversion oracle")
    assert ok


def test_criterion_06_lie_algebra_identities():
    cfg = RunConfig(seed=SEED)
    ok, worst, _ = _run_all(
        ["liealg.table_linear", "liealg.table_quadratic",
         "liealg.evolution_identity_linear", "liealg.evolution_identity_quadratic",
         "liealg.intertwine"], cfg)
    _line(6, ok, f"bracket tables, evolution-operator and intertwining "
                 f"identities: worst coefficient defect {_of(worst)}")
    assert ok


def test_criterion_07_casimirs():
    cfg = RunConfig(seed=SEED, trials=50)
    ok, worst, _ = _run_all(
        ["liealg.casimir_cubic", "liealg.casimir_factorization",
         "liealg.casimir_commutes"], RunConfig(seed=SEED))
    eig = run_named_check("liealg.eigenrelations", cfg)
    ok = ok and eig.passed
    _line(7, ok, f"Casimir constants/factorizations coefficient-exact "
                 f"{_of(worst)}; eigenrelations at 50 points: {_of(eig)}")
    assert ok


def test_criterion_08_special_functions():
    cfg = RunConfig(seed=SEED)
    theta_pde = run_named_check("solutions.theta_pde", cfg)
    theta_mod = run_named_check("solutions.theta_modular", RunConfig(seed=SEED, trials=10))
    roots = run_named_check("solutions.airy_roots", cfg)
    # independent cross-check of the frozen root magnitudes
    zeros = -scipy.special.ai_zeros(2)[0]
    spec = AirySpec(alpha=-2.0, beta=1.0)
    r1 = eigenvalue_scan(spec, (1.0, 3.0))[0]
    r2 = eigenvalue_scan(spec, (3.0, 5.0))[0]
    cross = max(abs(r1 - zeros[0]), abs(r2 - zeros[1]))
    ok = theta_pde.passed and theta_mod.passed and roots.passed and cross < 1e-6
    _line(8, ok, f"theta evolution {_of(theta_pde)}, modular eighth-root defect "
                 f"{_of(theta_mod)} at 10 matrices; bound-state roots within "
                 f"{_of(roots)} of {AIRY_FIRST_TWO[0]!r}/{AIRY_FIRST_TWO[1]!r}, "
                 f"reference-zero cross-check {cross:.2e}")
    assert ok


def test_criterion_09_nls_example():
    cfg = RunConfig(seed=SEED, trials=200)
    modulus = run_named_check("multiplier.nls_modulus", cfg)
    moved = run_named_check("residual.transformed_nls", RunConfig(seed=SEED, trials=25))
    ok = modulus.passed and moved.passed
    _line(9, ok, f"two-coordinate cubic equation: multiplier modulus defect "
                 f"{_of(modulus)}, transformed plane-wave residual {_of(moved)}")
    assert ok


def test_criterion_10_full_run_deterministic(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    start = time.perf_counter()
    rc1 = main(["verify", "all", "--seed", "11", "--format", "json", "--out", str(p1)])
    elapsed = time.perf_counter() - start
    rc2 = main(["verify", "all", "--seed", "11", "--format", "json", "--out", str(p2)])
    rows1 = json.loads(p1.read_text())
    rows2 = json.loads(p2.read_text())
    for rows in (rows1, rows2):
        for row in rows:
            row.pop("seconds")
    identical = json.dumps(rows1) == json.dumps(rows2)
    ok = rc1 == 0 and rc2 == 0 and elapsed < 60.0 and identical
    _line(10, ok, f"full verification: exit 0, {elapsed:.1f}s (< 60s), repeat run "
                  f"byte-identical modulo timing: {identical}")
    assert ok
