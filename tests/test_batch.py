"""Batched trials: one array pass equals the per-entry scalar evaluation,
a slip in one trial of a batch fails its check, and every check that
draws several trials evaluates them as a batch.  Every registered check
passes at seeds 1 to 10, at its own tolerance and trial count."""

import dataclasses

import numpy as np
import pytest

from schroedsym import jets, residual, suites
from schroedsym.coords import FamilySpec, Point, act, frame
from schroedsym.group import GroupElement, Mat2, cocycle_linear, cocycle_quadratic, compose
from schroedsym.multiplier import multiplier
from schroedsym.residual import GridSpec, residual_arrays, transformed, verify_intertwining
from schroedsym.sampling import (
    element_for_family,
    random_admissible_element,
    random_disk_element,
    random_element,
    random_modular_matrix,
    random_sl2c,
    random_sl2r,
)
from schroedsym.solutions import FormulaFn
from schroedsym.suites import RunConfig, run_named_check

N = 8
LIN = FamilySpec.linear(0.7, 0.3, 0.9)
QUAD = FamilySpec.quadratic(0.7, 0.3, 0.6)
DISK = FamilySpec.quadratic(0.7j, 0.3, 0.6)
INVQ = FamilySpec.inverse_quadratic(0.7, 2.0)
THETA = FamilySpec.free(-1j / (4.0 * np.pi))

# sampler of a batch of N elements, its family, and the shift of the times it acts at
CASES = {
    "sl2r": (lambda rng: GroupElement(random_sl2r(rng, size=N)), INVQ, 0.0),
    "sl2c": (lambda rng: GroupElement(random_sl2c(rng, size=N)), LIN, 0.0),
    "element": (lambda rng: random_element(rng, size=N), LIN, 0.0),
    "complex_element": (lambda rng: random_element(rng, complex_entries=True, size=N), LIN, 0.0),
    "admissible": (lambda rng: random_admissible_element(rng, size=N), QUAD, 0.0),
    "disk": (lambda rng: random_disk_element(rng, size=N), DISK, 0.0),
    "modular": (lambda rng: GroupElement(random_modular_matrix(rng, size=N)), THETA, 1.4j),
    "for_family": (lambda rng: element_for_family(rng, QUAD, size=N), QUAD, 0.0),
}


def _entry(l, i):
    """The scalar element at batch index i."""
    pick = lambda v: np.asarray(v)[i] if np.ndim(v) else v
    return GroupElement(Mat2(*(pick(v) for v in (l.c, l.d, l.a, l.b))), pick(l.mu), pick(l.nu))


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_matches_scalar_evaluation_per_entry(case):
    sampler, spec, t_shift = CASES[case]
    rng = np.random.default_rng(3)
    l1, l2 = sampler(rng), sampler(rng)
    t = rng.uniform(-0.3, 0.3, N) + t_shift
    x = rng.uniform(0.4, 1.2, N)
    batch = frame(l1, spec, t)
    zp = act(l1, Point(t, x), spec)
    values = [*(getattr(batch, f) for f in "tp xi f A B C".split()), zp.t, zp.x1,
              multiplier(l1, Point(t, x), spec), cocycle_linear(l1, l2, spec.k),
              cocycle_quadratic(l1, l2, 0.6)]
    for i in range(N):
        e1, e2 = _entry(l1, i), _entry(l2, i)
        one = frame(e1, spec, t[i])
        zi = act(e1, Point(t[i], x[i]), spec)
        scalars = [*(getattr(one, f) for f in "tp xi f A B C".split()), zi.t, zi.x1,
                   multiplier(e1, Point(t[i], x[i]), spec), cocycle_linear(e1, e2, spec.k),
                   cocycle_quadratic(e1, e2, 0.6)]
        for got, want in zip(values, scalars):
            np.testing.assert_allclose(np.broadcast_to(got, (N,))[i], want, rtol=1e-14, atol=0)


# spec, and its family's own sampler at that sampler's default bounds
FAMILY_SAMPLERS = {
    "linear": (LIN, random_element),
    "free": (FamilySpec.free(0.7), random_element),
    "inverse_quadratic": (INVQ, lambda rng, size: GroupElement(random_sl2r(rng, size=size))),
    "quadratic": (QUAD, random_admissible_element),
    "disk": (DISK, random_disk_element),
    "nls2d": (FamilySpec.nls2d(-0.7j, coupling=1.3), random_element),
}


@pytest.mark.parametrize("family", sorted(FAMILY_SAMPLERS))
def test_element_for_family_draws_what_its_family_sampler_draws(family):
    spec, sampler = FAMILY_SAMPLERS[family]
    got = element_for_family(np.random.default_rng(5), spec, size=N)
    want = sampler(np.random.default_rng(5), size=N)
    for entry in ("c", "d", "a", "b", "mu", "nu"):
        np.testing.assert_array_equal(getattr(got, entry), getattr(want, entry))


def test_one_slipped_trial_fails_its_batched_check(monkeypatch):
    def slipped(l1, l2):
        p = compose(l1, l2)
        mu = np.array(p.mu, dtype=complex)
        mu[mu.size // 2] += 1e-9
        return GroupElement(p.m, mu, p.nu)

    cfg = RunConfig(seed=3)
    names = ("group.associativity", "multiplier.cocycle_linear")
    assert all(run_named_check(name, cfg).passed for name in names)
    monkeypatch.setattr(suites, "compose", slipped)
    for name in names:
        assert not run_named_check(name, cfg).passed


EXPFN = FormulaFn(lambda tj, xj: jets.exp(tj + xj))
X2FN = FormulaFn(lambda tj, xj: xj * xj)
GRID = GridSpec((-0.4, 0.6), (-1.2, 1.2))
GRID_X_POS = GridSpec((-0.4, 0.6), (0.4, 1.8))

# a function that does not solve (so the residual is O(1)), a batch sampler,
# the family and the grid of each batched residual verification
RESIDUAL_CASES = {
    "linear": (EXPFN, CASES["element"][0], LIN, GRID),
    "inverse_quadratic": (X2FN, CASES["sl2r"][0], FamilySpec.inverse_quadratic(0.7, 0.0), GRID_X_POS),
    "quadratic": (EXPFN, CASES["admissible"][0], QUAD, GRID),
    "disk": (EXPFN, CASES["disk"][0], DISK, GRID),
}


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_batched_residual_matches_scalar_verification_per_entry(case):
    fn, sampler, spec, grid = RESIDUAL_CASES[case]
    l = sampler(np.random.default_rng(5))
    t, xs = grid.points(1)
    resid, psi = residual_arrays(transformed(fn, l, spec), spec, t, xs)
    assert resid.shape == psi.shape == (N, grid.nt, grid.nx)
    rep = verify_intertwining(fn, l, spec, grid)
    assert rep.max_rel.shape == (N,) and rep.n_points == N * grid.nt * grid.nx
    for i in range(N):
        r1, psi1 = residual_arrays(transformed(fn, _entry(l, i), spec), spec, t, xs)
        np.testing.assert_allclose(resid[i], r1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(psi[i], psi1, rtol=1e-12, atol=0)
        one = verify_intertwining(fn, _entry(l, i), spec, grid)
        # the identity holds to round-off for every entry; a batch axis out of
        # step with the frame's would leave an O(1) defect
        assert rep.max_rel[i] < 1e-13 and one.max_rel < 1e-13
        assert abs(rep.max_rel[i] - one.max_rel) < 1e-14


def test_unbatched_report_is_scalar_and_batched_report_is_per_entry():
    fn, sampler, spec, grid = RESIDUAL_CASES["linear"]
    l = sampler(np.random.default_rng(5))
    one = verify_intertwining(fn, _entry(l, 0), spec, grid)
    assert type(one.max_abs) is float and type(one.max_rel) is float
    assert all(type(c) is complex for c in one.argmax) and len(one.argmax) == 2
    assert one.n_points == grid.nt * grid.nx
    batch = verify_intertwining(fn, l, spec, grid)
    assert batch.max_abs.shape == batch.max_rel.shape == (N,)
    assert all(np.shape(c) == (N,) for c in batch.argmax)
    assert batch.n_points == N * grid.nt * grid.nx
    assert batch.max_abs[0] == one.max_abs and batch.argmax[1][0] == one.argmax[1]
    worst = int(np.argmax(batch.max_rel))
    assert str(batch) == str(verify_intertwining(fn, _entry(l, worst), spec, grid)).replace(
        f"over {grid.nt * grid.nx} points", f"over {batch.n_points} points")


def test_one_slipped_trial_fails_a_batched_residual_check(monkeypatch):
    def slipped(l, spec, t):  # the new time of the middle trial, by 1e-9
        fr = frame(l, spec, t)
        bump = np.ones(np.shape(l.a))
        bump.flat[bump.size // 2] += 1e-9
        return dataclasses.replace(fr, tp=fr.tp * bump)

    cfg = RunConfig(seed=3)
    assert run_named_check("residual.transformed_linear", cfg).passed
    monkeypatch.setattr(residual, "frame", slipped)
    assert not run_named_check("residual.transformed_linear", cfg).passed


def test_a_slipped_weight_state_fails_eigenrelations(monkeypatch):
    def slipped(spec, gamma=0.0):
        g1, g2, g3 = g_functions(spec, gamma)  # g1 with x stretched by 1e-9
        return FormulaFn(lambda s, x: g1.formula(s, x * (1 + 1e-9)), rate=g1.rate), g2, g3

    g_functions = suites.g_functions
    cfg = RunConfig(seed=3)
    assert run_named_check("liealg.eigenrelations", cfg).passed
    monkeypatch.setattr(suites, "g_functions", slipped)
    assert not run_named_check("liealg.eigenrelations", cfg).passed


def test_uniform_rows_are_the_draws_of_a_per_trial_loop():
    batch, loop = np.random.default_rng(4), np.random.default_rng(4)
    t, x = suites._uniforms(batch, 5, (0.2, 2.0), (-1.5, 1.5))
    drawn = [(loop.uniform(0.2, 2.0), loop.uniform(-1.5, 1.5)) for _ in range(5)]
    np.testing.assert_array_equal(np.stack([t, x], axis=1), drawn)
    assert batch.bit_generator.state == loop.bit_generator.state


# checks that draw several trials and still evaluate them one at a time
PER_TRIAL = {
    "residual.transformed_nls": "each trial is a 14^3-point grid; a batch holds them all at once",
    "liealg.jacobi": "symbolic DiffOp algebra, which has no array axis",
    "multiplier.cocycle_variant_resolution": "batched; folds both batches into one pass/fail",
}


def test_every_multi_trial_check_yields_an_array_defect():
    cfg = RunConfig(seed=1)
    for checks in suites._REGISTRY.values():
        for check in checks:
            if check.trials == 1 or check.name in PER_TRIAL:
                continue
            rng = np.random.default_rng(1)
            defects = list(check.fn(cfg, rng, check.trials))
            assert any(isinstance(d, np.ndarray) for d in defects), check.name


# every registered check, by name: the one statement of each identity
REGISTERED = sorted(c.name for checks in suites._REGISTRY.values() for c in checks)


def test_registered_names_are_the_benchmarks_expected_checks(bench_workloads):
    # the benchmark counts a verify-all pass as passed only if it reports
    # exactly these names, so a renamed or added check must change both
    assert set(REGISTERED) == bench_workloads.EXPECTED_CHECKS
    assert len(REGISTERED) == len(set(REGISTERED))


@pytest.mark.parametrize("name", REGISTERED)
def test_batched_check_passes_at_seeds_1_to_10(name):
    for seed in range(1, 11):
        result = run_named_check(name, RunConfig(seed=seed))
        assert result.passed, (seed, result.value, result.tol)
