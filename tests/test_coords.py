import math
import re

import numpy as np
import pytest

from schroedsym.coords import (
    FamilySpec,
    Point,
    act,
    galilean_params,
    linear_xi_f,
    quadratic_frame,
    reality_domain_check,
    frame,
)
from schroedsym.errors import (
    BranchError,
    ConfigError,
    DomainError,
    ShapeError,
    SingularTime,
    ZeroK,
    ZeroOmega,
)
from schroedsym.group import DiskParams, GroupElement, Mat2, disk_parametrize
from schroedsym.jets import Jet, value_of
from schroedsym.sampling import (
    element_for_family,
    random_admissible_element,
    random_disk_element,
    random_element,
    random_sl2r,
)
from schroedsym.suites import T_RANGE, RunConfig, _comoving_defect

RNG = np.random.default_rng(11)

LIN = FamilySpec.linear(k=0.7, alpha=0.3, beta=0.9)
QUAD = FamilySpec.quadratic(k=0.8, alpha=0.4, omega=0.6)
DISK = FamilySpec.quadratic(k=0.8j, alpha=0.4, omega=0.6)
INVQ = FamilySpec.inverse_quadratic(k=0.7, alpha=2.0)


def test_point_takes_an_array_as_one_batched_coordinate():
    t, x = np.array([0.1, 0.2, 0.3]), np.array([0.2, 0.3, 0.4])
    assert Point(t, x).n == 1 and Point(t, (x, x)).n == 2
    zp = act(random_element(RNG, size=3), Point(t, x), LIN)
    assert zp.n == 1 and np.shape(zp.x1) == (3,)


def test_family_spec_validation():
    with pytest.raises(ZeroK):
        FamilySpec.linear(0.0, 0.0, 1.0)
    with pytest.raises(ZeroOmega):
        FamilySpec.quadratic(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        FamilySpec("linear", k=1.0 + 1.0j)  # neither real nor imaginary
    with pytest.raises(DomainError):
        FamilySpec.nls2d(1.0)


@pytest.mark.parametrize("field, make", [
    ("k", lambda v: FamilySpec.linear(v, 0.3, 0.9)),
    ("alpha", lambda v: FamilySpec.linear(0.7, v, 0.9)),
    ("beta", lambda v: FamilySpec.linear(0.7, 0.3, v)),
    ("omega", lambda v: FamilySpec.quadratic(0.7, 0.3, v)),
    ("coupling", lambda v: FamilySpec.nls2d(-0.7j, coupling=v)),
], ids=["k", "alpha", "beta", "omega", "coupling"])
def test_family_spec_rejects_non_finite_parameters(field, make):
    # an infinite imaginary part too: k = i inf is purely imaginary
    for value in (math.nan, math.inf, -math.inf, complex(0.0, math.inf)):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            make(value)


def test_family_rules_hold_for_the_plain_constructor():
    # the 2-d NLS family: imaginary k and two coordinates; the
    # inverse-quadratic one: one coordinate, since alpha/|x|^2 is not a sum
    # over coordinates
    for k, n in ((0.7, 2), (0.7j, 1), (0.7j, 3)):
        with pytest.raises(DomainError):
            FamilySpec("nls2d", k, n=n)
    with pytest.raises(DomainError):
        FamilySpec("inverse_quadratic", 0.7, alpha=2.0, n=2)
    with pytest.raises(TypeError):
        FamilySpec.inverse_quadratic(0.7, 2.0, n=2)
    assert FamilySpec("nls2d", 0.7j, n=2) == FamilySpec.nls2d(0.7j)


def test_inverse_quadratic_action_specials():
    z = Point(0.2, 0.5)
    # exactly; the shift and the dilatation are coords.time_translation and
    # coords.dilatation
    ident = act(GroupElement.identity(), z, INVQ)
    assert ident.t == z.t and ident.x1 == z.x1


def test_singular_time_raises():
    # one input per denominator of the group frames, at t = 0 where u = 1;
    # u + lam is the K0 lift's (test_multiplier)
    for m, spec, denominator in ((Mat2(0.0, -1.0, 1.0, 0.0), INVQ, "a t + b"),
                                 (Mat2(1.0, 0.0, -1.0, 1.0), QUAD, "a u + b"),
                                 (Mat2(1.0, -1.0, 0.0, 1.0), QUAD, "c u + d")):
        with pytest.raises(SingularTime, match=re.escape(f"{denominator} vanishes")):
            act(GroupElement(m), Point(0.0, 1.0), spec)


def test_act_linear_translation_only():
    # beta = 0 with a unit matrix: x' = x + mu - nu t
    spec = FamilySpec.linear(k=0.7, alpha=0.0, beta=0.0)
    l = GroupElement(Mat2.identity(), 0.4, -0.3)
    z = act(l, Point(0.6, 1.1), spec)
    assert abs(z.t - 0.6) < 1e-15
    assert abs(z.x1 - (1.1 + 0.4 + 0.3 * 0.6)) < 1e-15


def test_linear_identity_action():
    # to 1e-14, which coords.identity_action's gate may not take: 100x its
    # worst over seeds 1-2000 is 2.3e-14; the homomorphism is
    # coords.homomorphism_linear
    ident = GroupElement.identity()
    for _ in range(100):
        z = Point(RNG.uniform(-0.4, 0.4), RNG.uniform(-1.2, 1.2))
        zi = act(ident, z, LIN)
        assert abs(zi.t - z.t) < 1e-14 and abs(zi.x1 - z.x1) < 1e-14


def test_quadratic_action_identity_and_reality():
    ident = GroupElement.identity()
    for t in (-1.2, 0.0, 0.7, 2.5):
        z = act(ident, Point(t, 0.8), QUAD)
        assert abs(z.t - t) < 1e-13 and abs(z.x1 - 0.8) < 1e-13
        zd = act(ident, Point(t, 0.8), DISK)
        assert abs(zd.t - t) < 1e-13 and abs(zd.x1 - 0.8) < 1e-13
    for _ in range(100):
        l = random_admissible_element(RNG)
        z = act(l, Point(RNG.uniform(-0.5, 0.5), RNG.uniform(-1, 1)), QUAD)
        assert abs(np.imag(z.t)) < 1e-12 and abs(np.imag(z.x1)) < 1e-12
    for _ in range(100):
        l = random_disk_element(RNG)
        z = act(l, Point(RNG.uniform(-0.5, 0.5), RNG.uniform(-1, 1)), DISK)
        assert abs(np.imag(z.x1)) < 1e-10  # reality of the space coordinate


def test_disk_scale_is_reciprocal_modulus():
    for _ in range(50):
        l = random_disk_element(RNG)
        t = RNG.uniform(-0.5, 0.5)
        xi = quadratic_frame(l, DISK, t).xi
        den = l.a * np.exp(4.0 * DISK.komega * t) + l.b
        assert xi > 0
        assert abs(xi - 1.0 / abs(den)) < 1e-12


def test_quadratic_branch_error():
    # a < 0 pushes (a u + b)(c u + d) negative for large u
    l = GroupElement(Mat2(1.0, 0.0, -0.5, 1.0))
    with pytest.raises(BranchError, match=re.escape("(a u + b)(c u + d) crossed")):
        act(l, Point(2.5, 0.3), QUAD)
    # at t = 0, a u + b = w and c u + d = -w with w = e^{i pi/4}: the
    # product's root is i, off its cut, but u' = -1 is on the logarithm's
    w = np.exp(0.25j * np.pi)
    l = GroupElement(Mat2(np.conj(w), -np.sqrt(2.0), 0.0, w))
    with pytest.raises(BranchError, match="branch cut of the logarithm"):
        act(l, Point(0.0, 0.3), QUAD)


def test_signature_is_exact():
    # k omega = 6e-14j is purely imaginary: the circle subgroup, whose
    # sampler draws disk elements, not the real semigroup's
    spec = FamilySpec.quadratic(1e-13j, 0.3, 0.6)
    assert not spec.komega_is_real
    got = element_for_family(np.random.default_rng(5), spec)
    want = random_disk_element(np.random.default_rng(5))
    assert (got.m, got.mu, got.nu) == (want.m, want.mu, want.nu)


def test_run_config_and_family_spec_share_the_signature_rule():
    for k in (0.7 + 1e-20j, 0.3 + 0.7j):
        with pytest.raises(ConfigError, match="k must be real or purely imaginary"):
            RunConfig(k=k)
        with pytest.raises(DomainError, match="k must be real or purely imaginary"):
            FamilySpec.linear(k, 0.3, 0.9)
    for k in (0.7 + 0j, 0.7j, -0.7j):
        assert RunConfig(k=k).specs()["linear"] == FamilySpec.linear(k, 0.3, 0.9)


def test_galilean_params_and_affine_formula():
    # the affine formula is coords.galilean; the unit has no boost, and
    # other shapes are rejected
    assert galilean_params(GroupElement.identity(), LIN) == galilean_params(
        GroupElement(Mat2.identity(), 0.0, 0.0), LIN)
    gd0 = galilean_params(GroupElement.identity(), LIN)
    assert gd0.sigma == 0.0 and gd0.v == 0.0
    with pytest.raises(ShapeError):
        galilean_params(GroupElement(Mat2(2.0, 0.0, 0.0, 0.5)), LIN)


def test_special_galilean_subgroup_values():
    # nu = 0 shear: sigma = mu + k^2 beta lam^2, v = 2 k^2 beta lam
    lam, mu = 0.5, 0.3
    l = GroupElement(Mat2(1.0, lam, 0.0, 1.0), mu, 0.0)
    gd = galilean_params(l, LIN)
    k2b = LIN.k ** 2 * LIN.beta
    assert abs(gd.sigma - (mu + k2b * lam ** 2)) < 1e-15
    assert abs(gd.v - 2 * k2b * lam) < 1e-15


def test_comoving_identity():
    # the random trials and the translation control are coords.comoving_identity
    assert _comoving_defect(GroupElement.identity(), Point(0.3, 0.7), LIN) == 0.0


def test_reality_domain_check():
    # the semigroup, the sign flip and the circle subgroup are
    # coords.reality_domain
    assert reality_domain_check(GroupElement.identity(), 1.7, QUAD)
    # broken pairing mu* != -nu fails the circle-subgroup test
    el = disk_parametrize(DiskParams(0.2, 0.1))
    assert not reality_domain_check(GroupElement(el.m, 0.5, 0.5), 0.4, DISK)


def test_mobius_composition_fraction_identities():
    # the algebraic identities behind two-step composition of the time map:
    # with M'' = M M', a tbar + b = (a'' t + b'')/(a' t + b') at tbar = Mobius(M', t),
    # plus the reverse eliminations of the primed row
    for _ in range(100):
        m, mp = random_sl2r(RNG), random_sl2r(RNG)
        mpp = m.mul(mp)
        t = RNG.uniform(-0.5, 0.5)
        tbar = (mp.c * t + mp.d) / (mp.a * t + mp.b)
        lhs = m.a * tbar + m.b
        assert abs(lhs - (mpp.a * t + mpp.b) / (mp.a * t + mp.b)) < 1e-13
        lhs2 = m.c * tbar + m.d
        assert abs(lhs2 - (mpp.c * t + mpp.d) / (mp.a * t + mp.b)) < 1e-13
        denom = (mp.a * t + mp.b) * (mpp.a * t + mpp.b)
        rhs = mpp.a / (mpp.a * t + mpp.b) - mp.a / (mp.a * t + mp.b)
        assert abs(m.a / denom - rhs) < 1e-13
        assert abs((mp.a * t + mp.b)
                   - (m.c * (mpp.a * t + mpp.b) - m.a * (mpp.c * t + mpp.d))) < 1e-13
        assert abs((mp.c * t + mp.d)
                   - (-m.d * (mpp.a * t + mpp.b) + m.b * (mpp.c * t + mpp.d))) < 1e-13


def test_act_dispatch_matches_family_actions():
    # each family acts through its own frame map
    z = Point(0.25, 0.9)
    l = random_element(RNG)
    r = l.a * z.t + l.b
    zi = act(l, z, INVQ)
    assert zi.t == (l.c * z.t + l.d) * (1.0 / r) and abs(zi.x1 - z.x1 / r) < 1e-15
    tp, xi, f, _ = linear_xi_f(l, LIN, z.t)
    assert act(l, z, LIN) == Point(tp, xi * z.x1 + f)
    la = random_admissible_element(RNG)
    fr = quadratic_frame(la, QUAD, z.t)
    assert act(la, z, QUAD) == Point(fr.tp, fr.xi * z.x1 + fr.f)


def test_frame_jet_and_array_paths_agree_where_a_t_plus_b_is_negative():
    # a t + b = -0.4 at the first point: A = -log(a t + b)/2 takes the
    # principal branch on both paths, with no NaN on the jet path
    l = GroupElement(Mat2(10.0, 0.0, 1.0, 0.1), 0.0, 0.0)
    spec = FamilySpec.linear(0.7, 0.3, 0.9)
    t = np.array([-0.5, 0.5])
    arr = frame(l, spec, t)
    with np.errstate(all="raise"):
        jet = frame(l, spec, Jet.variable(t, 0, 2, 2))
    assert arr.A[0] == pytest.approx(367.1158 - 1.5708j, abs=1e-4)
    for name in ("tp", "xi", "f", "A", "B", "C"):
        np.testing.assert_allclose(value_of(getattr(jet, name)), getattr(arr, name), rtol=1e-14)


SPECS = dict(RunConfig().specs(), inverse_quadratic_0=FamilySpec.inverse_quadratic(0.7, 0.0))


@pytest.mark.parametrize("name", list(SPECS))
def test_frame_value_rows_equal_the_array_frame(name):
    # the intertwining check reads its right-hand side off the value rows of
    # the frame it evaluates on the time jet
    spec, rng = SPECS[name], np.random.default_rng(7)
    t = np.linspace(*T_RANGE, 14)
    tj = Jet.variable(t, 0, 1 + spec.n, 2)
    for _ in range(20):
        l = element_for_family(rng, spec)
        arr, jet = frame(l, spec, t), frame(l, spec, tj)
        for key in ("tp", "xi", "f", "A", "B", "C"):
            want, got = np.broadcast_arrays(getattr(arr, key), value_of(getattr(jet, key)))
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), key
