import numpy as np
import pytest

import dataclasses
import importlib

from schroedsym.coords import FamilySpec, Frame, Point, act, frame
from schroedsym.errors import RangeError, SingularTime, DomainError
from schroedsym.group import GroupElement, Mat2, cocycle_linear, cocycle_quadratic, compose
from schroedsym.multiplier import (
    IntertwinerParams,
    lift_frame,
    multiplier,
    ode_oracle_coefficients,
)
from schroedsym.suites import RunConfig, run_named_check
from schroedsym.sampling import random_admissible_element, random_disk_element, random_element, random_sl2r

RNG = np.random.default_rng(5150)

LIN = FamilySpec.linear(k=0.7, alpha=0.3, beta=0.9)
QUAD = FamilySpec.quadratic(k=0.8, alpha=0.4, omega=0.6)
DISK = FamilySpec.quadratic(k=0.8j, alpha=0.4, omega=0.6)
INVQ = FamilySpec.inverse_quadratic(k=0.7, alpha=2.0)


def test_identity_multipliers_are_one():
    # the unit is multiplier.identity_value; a time translation (a=0, b=1)
    # has multiplier one too
    shear = GroupElement(Mat2(1.0, 0.6, 0.0, 1.0))
    assert abs(multiplier(shear, Point(0.2, 0.5), INVQ) - 1.0) < 1e-14


def test_pure_translation_with_zero_nu_is_trivial():
    spec = FamilySpec.linear(k=0.7, alpha=0.0, beta=0.0)
    l = GroupElement(Mat2.identity(), 0.9, 0.0)
    assert abs(multiplier(l, Point(0.4, 1.2), spec) - 1.0) < 1e-14


def test_inverse_quadratic_cocycle_is_exact():
    for n in (1, 2, 3):
        for _ in range(150):
            l1, l2 = GroupElement(random_sl2r(RNG)), GroupElement(random_sl2r(RNG))
            xs = tuple(RNG.uniform(0.3, 1.5, n))
            z = Point(RNG.uniform(-0.4, 0.4), xs)
            lhs = multiplier(l2, z, INVQ) * multiplier(l1, act(l2, z, INVQ), INVQ)
            rhs = multiplier(compose(l1, l2), z, INVQ)
            assert abs(lhs - rhs) / abs(rhs) < 1e-11


def test_linear_cocycle_carries_exponential_factor():
    for _ in range(300):
        l1, l2 = random_element(RNG), random_element(RNG)
        z = Point(RNG.uniform(-0.4, 0.4), RNG.uniform(-1.2, 1.2))
        lhs = multiplier(l2, z, LIN) * multiplier(l1, act(l2, z, LIN), LIN)
        rhs = np.exp(cocycle_linear(l1, l2, LIN.k)) * multiplier(compose(l1, l2), z, LIN)
        assert abs(lhs - rhs) / abs(rhs) < 1e-11


@pytest.mark.parametrize("spec,sampler", [
    (QUAD, lambda: random_admissible_element(RNG)),
    (DISK, lambda: random_disk_element(RNG)),
])
def test_quadratic_cocycle_resolved_variant(spec, sampler):
    for _ in range(200):
        l1, l2 = sampler(), sampler()
        z = Point(RNG.uniform(-0.4, 0.4), RNG.uniform(-1.2, 1.2))
        lhs = multiplier(l2, z, spec) * multiplier(l1, act(l2, z, spec), spec)
        w = cocycle_quadratic(l1, l2, spec.omega, "resolved")
        rhs = np.exp(w) * multiplier(compose(l1, l2), z, spec)
        assert abs(lhs - rhs) / abs(lhs) < 1e-11


def test_ndim_product_multiplier_closed_form():
    # two free coordinates: the product takes the known closed form
    spec = FamilySpec.ndim_linear(0.7, 0.0, 0.0, 2)
    k = spec.k
    for _ in range(50):
        l = random_element(RNG)
        t = RNG.uniform(-0.4, 0.4)
        x1, x2 = RNG.uniform(-1.2, 1.2, 2)
        r = l.a * t + l.b
        tp = (l.c * t + l.d) / r
        expo = (-l.mu * l.nu / (2 * k) + l.nu ** 2 / (2 * k) * tp
                - l.nu / (2 * k) * (x1 + x2) / r
                - l.a / (4 * k) * (x1 ** 2 + x2 ** 2) / r)
        want = np.exp(expo) / r
        got = multiplier(l, Point(t, (x1, x2)), spec)
        assert abs(got - want) / abs(want) < 1e-12


def test_nls_modulus_identity():
    spec = FamilySpec.nls2d(-0.7j, coupling=1.0)
    for _ in range(100):
        l = random_element(RNG)
        t = RNG.uniform(-0.4, 0.4)
        z = Point(t, (RNG.uniform(-1, 1), RNG.uniform(-1, 1)))
        r = l.a * t + l.b
        assert abs(abs(multiplier(l, z, spec)) ** 2 - 1.0 / r ** 2) < 1e-12


def test_k0_intertwiner_values():
    # t', x' and K0 at the simplest constants are multiplier.k0_values
    p = IntertwinerParams(sigma=1.0, tau=0.0, lam=0.0)
    w = QUAD.omega
    # C0 coefficient at lam = 0 is -omega/2: with tau = 0 there is no
    # x-linear part, so C0 = log(K0(x=1)/K0(x=0))
    fr = lift_frame("K0", QUAD, p)(0.2)
    c0 = np.log(fr.multiplier([1.0]) / fr.multiplier([0.0]))
    assert abs(c0 + w / 2.0) < 1e-12


@pytest.mark.parametrize("kind", ["f1", "f2", "phi1", "phi2", "K0"])
def test_every_lift_is_a_frame(kind):
    spec = QUAD if kind == "K0" else LIN
    fr = lift_frame(kind, spec, IntertwinerParams(0.8, 0.3, 0.2))(0.5)
    assert isinstance(fr, Frame)
    # the multiplier is exp(A + B x + C x^2) of the frame's coefficients
    x = 0.7
    assert abs(fr.multiplier([x]) - np.exp(fr.A + fr.B * x + fr.C * x * x)) < 1e-14


def test_k0_singular_time():
    p = IntertwinerParams(sigma=1.0, tau=0.0, lam=-1.0)
    with pytest.raises(SingularTime):
        lift_frame("K0", QUAD, p)(0.0)
    with pytest.raises(DomainError):
        IntertwinerParams(sigma=0.0)


def test_range_error_on_overflowing_exponent():
    l = GroupElement(Mat2.identity(), 0.0, 1.0)
    with pytest.raises(RangeError):
        multiplier(l, Point(0.0, -3000.0), FamilySpec.linear(0.7, 0.0, 0.0))


@pytest.mark.parametrize("spec,sampler,tol", [
    (LIN, lambda: random_element(RNG), 1e-7),
    (QUAD, lambda: random_admissible_element(RNG), 1e-6),
    (DISK, lambda: random_disk_element(RNG), 1e-6),
])
def test_ode_oracle_matches_closed_forms(spec, sampler, tol):
    # the error estimate must bound the fine sweep's defect and track it, so
    # an estimate of 0 or of the fine sweep against itself fails here
    tg = np.linspace(-0.3, 0.5, 9)
    tracked = 0
    for _ in range(6):
        l = sampler()
        closed = frame(l, spec, tg)
        oracle, estimate = ode_oracle_coefficients(l, spec, tg)
        defect = max(np.abs(o - c).max() for o, c in zip(oracle, (closed.A, closed.B, closed.C)))
        assert defect < tol
        assert estimate <= 1e-11
        if defect > 1e-13:
            assert 0.5 * defect <= estimate <= 2.0 * defect
            tracked += 1
    assert tracked > 0
    # the unit element keeps all coefficients at zero
    oracle, _ = ode_oracle_coefficients(GroupElement.identity(), LIN, tg)
    assert max(np.abs(v).max() for v in oracle) < 1e-12


@pytest.mark.parametrize("spec,sampler", [
    (LIN, lambda: random_element(RNG)),
    (QUAD, lambda: random_admissible_element(RNG)),
    (DISK, lambda: random_disk_element(RNG)),
], ids=["linear", "quadratic", "disk"])
def test_ode_oracle_steps_real_families_in_floats(monkeypatch, spec, sampler):
    # real start values step RK4 on floats, bit for bit the real part of
    # the same sweep started from complex values; the disk family is complex
    module, sweeps = importlib.import_module("schroedsym.multiplier"), []

    def recorded(*args):
        sweeps.append(args)
        return sweep(*args)

    sweep = module._rk4_sweep
    monkeypatch.setattr(module, "_rk4_sweep", recorded)
    oracle, _ = ode_oracle_coefficients(sampler(), spec, np.linspace(-0.3, 0.5, 9))
    if spec is DISK:
        assert all(o.dtype == np.complex128 for o in oracle)
        return
    k, start, forcing, widths, stride = sweeps[-1]  # the fine sweep that was returned
    assert stride == 1 and all(type(v) is float for v in start)
    complex_start = sweep(k, tuple(map(complex, start)), forcing, widths, stride)
    for o, c in zip(oracle, complex_start):
        assert o.dtype == np.float64
        assert np.array_equal(o, c.real)


@pytest.mark.parametrize("family,coefficient", [
    ("linear", "A"), ("quadratic", "A"), ("quadratic", "B"), ("quadratic", "C"),
], ids=["linear-A", "quadratic-A", "quadratic-B", "quadratic-C"])
def test_oracle_check_rejects_a_slipped_closed_form(monkeypatch, family, coefficient):
    # a 1e-4 slip in one closed-form coefficient must fail the registered
    # oracle checks of its family at their own trials and tolerance; an
    # oracle that took the coefficient from the frame at every step, not
    # only at t_grid[0], would integrate the slip away and pass.  The linear
    # slip is in the k^3 beta^2 term of A; the oscillator slips are relative
    # and reach both the real (quadratic) and the circle (disk) checks.
    original = frame

    def slipped(l, spec, t):
        fr = original(l, spec, t)
        if spec.family != family:
            return fr
        if family == "quadratic":
            return dataclasses.replace(fr, **{coefficient: (1.0 + 1e-4) * getattr(fr, coefficient)})
        k, beta, r = spec.k, spec.beta, l.a * t + l.b
        tp = fr.tp
        term = (2.0 / 3.0) * tp ** 3 + t ** 3 / 12.0 + (l.b / 4.0) * t ** 3 / r - t * t * tp / r
        return dataclasses.replace(fr, A=fr.A + 1e-4 * k ** 3 * beta ** 2 * term)

    checks = [f"multiplier.ode_oracle_{name}"
              for name in (("linear",) if family == "linear" else ("quadratic", "disk"))]
    for name in checks:
        assert run_named_check(name, RunConfig(seed=7)).passed
    for name in ("coords", "multiplier", "suites"):
        module = importlib.import_module(f"schroedsym.{name}")
        monkeypatch.setattr(module, "frame", slipped)
    for name in checks:
        assert not run_named_check(name, RunConfig(seed=7)).passed, name


def test_ode_oracle_integration_error_across_pole():
    from schroedsym.errors import IntegrationError, SingularTime

    # the Mobius denominator vanishes at t = 1/3 inside the grid
    l = GroupElement(Mat2(1.0, 0.0, -3.0, 1.0))
    with pytest.raises((IntegrationError, SingularTime)):
        ode_oracle_coefficients(l, LIN, np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainError):
        ode_oracle_coefficients(l, LIN, np.array([0.3]))


def test_frame_consistency_relations():
    # B = f'/(2 k xi), C = xi'/(4 k xi)
    h = 1e-5
    for spec, sampler in (
        (LIN, lambda: random_element(RNG)),
        (QUAD, lambda: random_admissible_element(RNG)),
    ):
        for _ in range(20):
            l = sampler()
            t = RNG.uniform(-0.3, 0.3)
            p0, pp, pm = (frame(l, spec, tv) for tv in (t, t + h, t - h))
            fdot = (pp.f - pm.f) / (2 * h)
            xidot = (pp.xi - pm.xi) / (2 * h)
            assert abs(p0.B - fdot / (2 * spec.k * p0.xi)) < 1e-7
            assert abs(p0.C - xidot / (4 * spec.k * p0.xi)) < 1e-7
