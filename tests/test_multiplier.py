import numpy as np
import pytest

import dataclasses
import importlib

from schroedsym import coords, jets, suites
from schroedsym.coords import EXP_GUARD, FamilySpec, Frame, Point, frame
from schroedsym.errors import RangeError, SingularTime, DomainError
from schroedsym.group import GroupElement, Mat2, cocycle_quadratic
from schroedsym.jets import Jet
from schroedsym.multiplier import IntertwinerParams, lift_frame, multiplier
from schroedsym.residual import GridSpec
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
    with pytest.raises(SingularTime, match=r"u \+ lam vanishes"):
        lift_frame("K0", QUAD, p)(0.0)
    with pytest.raises(DomainError):
        IntertwinerParams(sigma=0.0)


def test_range_error_on_overflowing_exponent():
    l = GroupElement(Mat2.identity(), 0.0, 1.0)
    with pytest.raises(RangeError):
        multiplier(l, Point(0.0, -3000.0), FamilySpec.linear(0.7, 0.0, 0.0))


def test_range_error_on_the_whole_two_coordinate_exponent():
    # each factor's exponent is 400, below the guard; their sum 800 is not
    fr = Frame(0.0, 1.0, 0.0, 400.0, 0.0, 0.0)
    assert 400.0 < EXP_GUARD < 800.0
    with pytest.raises(RangeError):
        fr.multiplier((0.5, 0.5))


def test_range_error_on_an_underflowing_factor():
    # the whole exponent -800 + 640 = -160 is in range, but the first factor
    # underflows to 0 beside the second, and their product would read 0
    fr = Frame(0.0, 1.0, 0.0, 0.0, -800.0, 0.0)
    assert np.exp(-800.0) * np.exp(640.0) == 0.0 < np.exp(-160.0)
    with pytest.raises(RangeError):
        fr.multiplier((1.0, -0.8))


def _jet_grid(t_range, ndim):
    t, xs = GridSpec(t_range, (-1.2, 1.2)).points(ndim)
    return Jet.variable(t, 0, 1 + ndim, 2), [Jet.variable(x, 1 + i, 1 + ndim, 2)
                                             for i, x in enumerate(xs)]


GROUP_T, LIFT_T = (-0.4, 0.6), (0.15, 1.0)  # f2 and phi2 need t > 0
ONE_COORDINATE_FRAMES = {
    "linear": (lambda tj: frame(random_element(RNG), LIN, tj), GROUP_T),
    "inverse_quadratic": (lambda tj: frame(GroupElement(random_sl2r(RNG)), INVQ, tj), GROUP_T),
    "quadratic": (lambda tj: frame(random_admissible_element(RNG), QUAD, tj), GROUP_T),
    "disk": (lambda tj: frame(random_disk_element(RNG), DISK, tj), GROUP_T),
    **{kind: (lift_frame(kind, QUAD if kind == "K0" else LIN, IntertwinerParams(0.8, 0.3, 0.2)), LIFT_T)
       for kind in ("f1", "f2", "phi1", "phi2", "K0")},
}


@pytest.mark.parametrize("name", list(ONE_COORDINATE_FRAMES))
def test_one_coordinate_multiplier_is_the_exponential_of_its_exponent(name):
    # one factor, built with the operations of the closed form in its order:
    # every coefficient is bit-identical, literal 0.0 and 1.0 terms included
    at, t_range = ONE_COORDINATE_FRAMES[name]
    tj, (xj,) = _jet_grid(t_range, 1)
    fr = at(tj)
    got, want = fr.multiplier([xj]), jets.exp(fr.A + fr.B * xj + fr.C * (xj * xj))
    for alpha in ((0, 0), (1, 0), (0, 1), (0, 2)):
        assert np.array_equal(got.coefficient(alpha), want.coefficient(alpha)), alpha


def test_two_coordinate_multiplier_is_the_product_of_its_factors():
    spec = FamilySpec.nls2d(-0.7j, coupling=1.3)
    tj, (x1, x2) = _jet_grid(GROUP_T, 2)
    fr = frame(random_element(RNG), spec, tj)
    got = fr.multiplier([x1, x2])
    want = jets.exp(2 * fr.A + fr.B * (x1 + x2) + fr.C * (x1 * x1 + x2 * x2))
    scale = np.max(np.abs(want.value))
    for alpha in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0), (0, 0, 2), (0, 1, 1)):
        assert np.max(np.abs(got.coefficient(alpha) - want.coefficient(alpha))) < 1e-14 * scale


@pytest.mark.parametrize("family,coefficient", [
    ("linear", "A"), ("quadratic", "A"), ("quadratic", "B"), ("quadratic", "C"),
], ids=["linear-A", "quadratic-A", "quadratic-B", "quadratic-C"])
def test_oracle_check_rejects_a_slipped_closed_form(monkeypatch, family, coefficient):
    # a 1e-4 slip in one closed-form coefficient must fail the registered
    # structure-equation checks of its family at their own trials and
    # tolerance.  The linear slip is in the k^3 beta^2 term of A; the
    # oscillator slips are relative and reach both the real (quadratic) and
    # the circle (disk) checks.
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


@pytest.mark.parametrize("module,function,text,literal,checks", [
    ("coords", "frame", "0.0, -0.5 * jets.log(r)", "0.5", ("multiplier.structure_consistency",)),
    ("coords", "quadratic_frame", "0.5 * jets.log(xi)", "0.5", ("multiplier.ode_oracle_quadratic",)),
    ("multiplier", "lift_frame", "p.sigma * p.tau / (2.0 * omega)", "2.0", ("multiplier.structure_consistency",)),
    ("multiplier", "lift_frame", "p.tau ** 2 / (4.0 * omega)", "4.0", ("multiplier.structure_consistency",)),
    ("multiplier", "lift_frame", "Frame(t, 1.0, -k2b", "1.0",
     ("multiplier.structure_consistency", "residual.lift_roundtrip")),
], ids=["inverse-quadratic-A", "quadratic-A", "K0-f", "K0-A-tau", "f1-xi"])
def test_a_single_literal_slip_fails_a_structure_check(slip_literal, module, function, text,
                                                      literal, checks):
    # a 1e-9 slip of one literal of a frame's A, f or xi: no other check sees
    # the first four.  The f1 lift's xi = 1.0 is a literal that Frame.space
    # skips; slipped, it takes the general path, so the lifted functions move
    assert all(run_named_check(name, RunConfig(seed=7)).passed for name in checks)
    slip_literal(importlib.import_module(f"schroedsym.{module}"), function, text, literal)
    for name in checks:
        assert not run_named_check(name, RunConfig(seed=7)).passed, name


def test_the_misprint_control_is_live(monkeypatch):
    # with the misprinted bracket replaced by the resolved one, both sides of
    # the control pass, and so the check fails
    assert run_named_check("multiplier.cocycle_variant_resolution", RunConfig(seed=7)).passed
    monkeypatch.setattr(suites, "_misprinted_cocycle", cocycle_quadratic)
    assert not run_named_check("multiplier.cocycle_variant_resolution", RunConfig(seed=7)).passed


@pytest.mark.parametrize("name, frames", [
    ("multiplier.cocycle_inverse_quadratic", 6), ("multiplier.cocycle_linear", 3),
    ("multiplier.cocycle_quadratic", 6), ("multiplier.cocycle_variant_resolution", 6)])
def test_a_product_law_evaluates_each_frame_once(monkeypatch, name, frames):
    # K(l2, z) K(l1, l2 z) against K(l1 l2, z) is three frame evaluations per
    # batch: K(l2, z) and l2 z read one; the oscillator checks take two batches
    calls = {"outer": 0, "depth": 0}

    def counted(fn):
        def wrapper(*args):
            calls["outer"] += calls["depth"] == 0
            calls["depth"] += 1
            try:
                return fn(*args)
            finally:
                calls["depth"] -= 1
        return wrapper

    for frame_of in ("mobius_time", "linear_xi_f", "quadratic_frame"):
        monkeypatch.setattr(coords, frame_of, counted(getattr(coords, frame_of)))
    assert run_named_check(name, RunConfig(seed=7)).passed
    assert calls["outer"] == frames
