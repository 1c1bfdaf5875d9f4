"""Batched group elements: one array pass equals the per-entry scalar
evaluation, and a slip in one trial of a batch fails its check."""

import numpy as np
import pytest

from schroedsym import suites
from schroedsym.coords import FamilySpec, Point, act, frame
from schroedsym.group import GroupElement, Mat2, cocycle_linear, cocycle_quadratic, compose
from schroedsym.multiplier import multiplier
from schroedsym.sampling import (
    element_for_family,
    random_admissible_element,
    random_disk_element,
    random_element,
    random_modular_matrix,
    random_sl2c,
    random_sl2r,
)
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


BATCHED = [
    *(f"group.{n}" for n in (
        "associativity", "inverse", "symplectic", "cocycle_cycle_linear",
        "cocycle_antisymmetry", "cocycle_cycle_quadratic", "disk_closure",
        "admissible_closure")),
    *(f"coords.{n}" for n in (
        "identity_action", "homomorphism_linear", "homomorphism_inverse_quadratic",
        "homomorphism_quadratic", "homomorphism_disk", "galilean", "comoving_identity",
        "pair_differences", "branch_continuity", "reality_domain")),
    *(f"multiplier.{n}" for n in (
        "identity_value", "cocycle_inverse_quadratic", "cocycle_linear", "cocycle_quadratic",
        "cocycle_variant_resolution", "structure_consistency", "nls_modulus")),
]


@pytest.mark.parametrize("name", BATCHED)
def test_batched_check_passes_at_seeds_1_to_10(name):
    for seed in range(1, 11):
        result = run_named_check(name, RunConfig(seed=seed))
        assert result.passed, (seed, result.value, result.tol)
