import inspect
import textwrap
from functools import reduce

import numpy as np
import pytest
import scipy.special

from schroedsym import jets, multiplier, solutions, suites
from schroedsym.coords import FamilySpec
from schroedsym.errors import ConvergenceError, DomainError, NoRootError, QuadratureError, RangeError
from schroedsym.jets import Jet
from schroedsym.residual import residual_arrays, stencil
from schroedsym.solutions import (
    _GL_NODES,
    _GL_WEIGHTS,
    _contour_integral,
    AiryFn,
    AirySpec,
    SmoothFn,
    eigenvalue_scan,
    f_pair,
    g_functions,
    gaussian_free,
    phi_pair,
    plane_wave_nls,
    power_static,
    theta1,
)
from schroedsym.suites import RunConfig, run_named_check

RNG = np.random.default_rng(99)

LIN = FamilySpec.linear(k=0.7, alpha=0.3, beta=0.9)
QUAD = FamilySpec.quadratic(k=0.8, alpha=0.4, omega=0.6)


def rel_residual(fn, spec, t, x):
    r, v = residual_arrays(fn, spec, np.atleast_1d(t), [np.atleast_1d(x)])
    return float(np.abs(r).max() / np.abs(v).max())


def test_gaussian_free_solves_both_signatures():
    # both signatures solve in solutions.free_gaussian; the real one is even
    # in x and guards t > 0
    g = gaussian_free(1.0)
    assert abs(g.value(0.7, 0.4) - g.value(0.7, -0.4)) < 1e-15  # even in x
    with pytest.raises(DomainError):
        g.value(-1.0, 0.0)


def test_power_static_residual_and_validation():
    for s, alpha in ((1.0, 0.0), (2.0, 2.0), (0.5 * (1 + np.sqrt(5.0)), 1.0)):
        fn = power_static(s, alpha)
        spec = FamilySpec.inverse_quadratic(0.7, alpha)
        assert rel_residual(fn, spec, 0.3, 1.2) < 1e-12
    with pytest.raises(DomainError):
        power_static(2.0, 3.0)
    with pytest.raises(DomainError):
        power_static(2.0, 2.0).value(0.1, -1.0)


def test_theta_series_pde_and_oddness():
    # the evolution equation and the oddness are solutions.theta_pde; a
    # short truncation and a tail bound above 1e-12 are typed errors
    with pytest.raises(DomainError):
        theta1(9)
    with pytest.raises(ConvergenceError):
        theta1(10).value(0.05j, 0.2)
    with pytest.raises(DomainError, match="needs Im t > 0"):
        theta1(10).value(0.3 + 0.0j, 0.2)


@pytest.mark.parametrize("t,x", [
    (0.2 + np.linspace(0.8, 1.6, 10) * 1j, 0.37),
    ((np.linspace(-0.3, 0.3, 4) + 1.1j)[:, None], np.linspace(-0.45, 0.45, 5)[None, :]),
])
def test_theta_jet_matches_the_term_by_term_sum(t, x):
    # every coefficient of the order-2 jet, against the terms' own jets
    # summed one by one
    trunc = 20
    tj, (xj,) = theta1(trunc)._seed(t, x, 2)
    terms = [jets.exp(1j * np.pi * (n - 0.5) ** 2 * tj + 1j * np.pi * (2 * n - 1) * xj) * (1j * (-1) ** n)
             for n in range(1 - trunc, trunc + 1)]
    ref = reduce(Jet.__add__, terms)
    got = theta1(trunc).jet(t, x, 2)
    assert set(got.support) == set(ref.support)
    for alpha in ref.support:
        scale = sum(np.abs(term.coefficient(alpha)) for term in terms)
        assert got.coefficient(alpha).shape == np.broadcast_shapes(np.shape(t), np.shape(x))
        assert np.all(np.abs(got.coefficient(alpha) - ref.coefficient(alpha)) <= 1e-15 * scale)


def test_theta_against_brute_force_series():
    # independent summation in numpy, term by term
    th = theta1(25)
    t, x = 0.2 + 1.1j, 0.37
    brute = 0.0j
    for n in range(-24, 26):
        brute += 1j * (-1) ** n * np.exp(1j * np.pi * (n - 0.5) ** 2 * t + 1j * np.pi * (2 * n - 1) * x)
    assert abs(th.value(t, x) - brute) < 1e-13


def test_f_pair_membership_and_beta_zero_limit():
    # membership and the beta = 0 limit are solutions.linear_pair; the
    # spreading lift and its inverse guard t > 0
    _, f2 = f_pair(LIN)
    with pytest.raises(DomainError):
        f2.value(-0.2, 0.0)
    with pytest.raises(DomainError, match="needs t > 0.0"):
        phi_pair(LIN)[1].value(0.0, 0.3)


def test_a_lift_whose_exponent_leaves_the_double_range_raises():
    # phi1's exponent at t = 20 is about 1.5e3: every lift multiplier goes
    # through the frame's range guard instead of overflowing to inf
    with pytest.raises(RangeError):
        phi_pair(LIN)[0].value(20.0, 0.0)


def test_phi_pair_inverts_f_pair():
    phi1, phi2 = phi_pair(LIN)
    k, b = LIN.k, LIN.beta
    # the cubic coefficient comes from the inversion, not transcription
    t = 0.83
    expect = np.exp(LIN.alpha * k * t + (2.0 / 3.0) * k ** 3 * b ** 2 * t ** 3)
    assert abs(phi1.value(t, 0.0) - expect) < 1e-12
    # printed variant with k^2 beta^3 is measurably different
    printed = np.exp(LIN.alpha * k * t + (2.0 / 3.0) * k ** 2 * b ** 3 * t ** 3)
    assert abs(phi1.value(t, 0.0) - printed) > 1e-3
    # phi1(t,x) * f1(t, x + k^2 b t^2) == 1 pointwise
    f1, _ = f_pair(LIN)
    for _ in range(30):
        t, x = RNG.uniform(0.1, 1.5), RNG.uniform(-1.5, 1.5)
        prod = phi1.value(t, x) * f1.value(t, x + k * k * b * t * t)
        assert abs(prod - 1.0) < 1e-12
    # beta = 0: phi1 = 1/f1 = exp(k alpha t)
    bare = phi_pair(FamilySpec.linear(0.7, 0.3, 0.0))[0]
    assert abs(bare.value(0.9, 2.0) - np.exp(0.7 * 0.3 * 0.9)) < 1e-14


def test_phi2_inverts_f2_with_parity_flip(monkeypatch):
    _, phi2 = phi_pair(LIN)
    # the composition evaluates the forward lift at negative times, so use
    # its principal-branch continuation: the same frame without its guard
    monkeypatch.setattr(multiplier, "_above", lambda z, bound, name: None)
    _, f2_cont = f_pair(LIN)
    k, b = LIN.k, LIN.beta
    k2b = k * k * b
    vals = []
    for _ in range(30):
        t = RNG.uniform(0.3, 1.5)
        x = RNG.uniform(-1.5, 1.5)
        vals.append(phi2.value(t, x) * f2_cont.value(-1.0 / t, x / t + k2b / t ** 2))
    # constant modulus-one phase: the two half-power prefactors differ by i
    assert max(abs(abs(v) - 1.0) for v in vals) < 1e-12
    assert max(abs(v - vals[0]) for v in vals) < 1e-12


def test_g_functions_membership_and_gamma_zero():
    # membership and the gamma = 0 coherent state are
    # solutions.oscillator_states; the ground state's x-dependence is
    # exp(-omega x^2 / 2)
    g2 = g_functions(QUAD, gamma=0.7)[1]
    ratio = g2.value(0.1, 1.0) / g2.value(0.1, 0.0)
    assert abs(ratio - np.exp(-QUAD.omega / 2.0)) < 1e-14


def test_plane_wave_nls_residual():
    # the relative residual is solutions.nls_plane_wave; at zero amplitude
    # the residual is exactly zero
    spec = FamilySpec.nls2d(-0.5j, coupling=1.3)
    zero = plane_wave_nls(0.0, (1.0, 0.0), spec)
    r, _ = residual_arrays(zero, spec, np.array([0.3]), [np.array([0.1]), np.array([0.4])])
    assert abs(r[0]) == 0.0


def test_airy_profile_against_scipy():
    u = AiryFn(AirySpec(alpha=-1.0, beta=1.0))
    # u(x) = 2 pi Ai(x + alpha) for beta = 1
    for x in (0.0, 0.5, 1.3, 2.0):
        want = 2.0 * np.pi * scipy.special.airy(x - 1.0)[0]
        assert abs(u.value(x) - want) < 1e-9
    du = u.derivatives(1.3, 1)[1]
    want = 2.0 * np.pi * scipy.special.airy(0.3)[1]
    assert abs(du - want) < 1e-9


def test_airy_ode_residual_and_decay():
    u = AiryFn(AirySpec(alpha=-1.0, beta=1.0))
    assert abs(suites._airy_residual(u, 1.0)) < 1e-6
    # finite-difference cross-check of the quadrature derivatives
    h = 1e-3
    fd = (u.value(1.0 + h) - 2 * u.value(1.0) + u.value(1.0 - h)) / h ** 2
    _, _, upp = u.derivatives(1.0, 2)
    assert abs(fd - upp) < 1e-5
    assert abs(u.value(10.0)) < 1e-7


def test_eigenvalue_scan_matches_airy_zeros():
    # the first two roots are solutions.airy_roots and acceptance criterion
    # 8; a window without a root raises, and the roots scale as beta^(2/3)
    spec = AirySpec(alpha=-2.0, beta=1.0)
    zeros = -scipy.special.ai_zeros(2)[0]
    with pytest.raises(NoRootError):
        eigenvalue_scan(spec, (0.5, 1.8))
    # beta scaling: roots move as beta^(2/3)
    spec2 = AirySpec(alpha=-2.0, beta=2.0)
    r = eigenvalue_scan(spec2, (2.0, 5.0))
    assert abs(r[0] - zeros[0] * 2.0 ** (2.0 / 3.0)) < 1e-6


def test_a_slipped_airy_phase_fails_airy_roots(slip_literal):
    # the reference zeros are Ai's to the last digit, so airy_roots reads
    # the roots themselves: a 1e-9 slip of the integrand's cubic phase moves
    # them by about 1e-9, past the ROOT_WIDTH gate
    assert np.max(np.abs(np.subtract(suites.AIRY_FIRST_TWO, -scipy.special.ai_zeros(2)[0]))) < 1e-15
    assert run_named_check("solutions.airy_roots", RunConfig(seed=7)).value < 1e-12
    slip_literal(solutions, "_contour_integral", "wf += beta ** 2 * z ** 3 / 3.0", "3.0")
    assert not run_named_check("solutions.airy_roots", RunConfig(seed=7)).passed


def test_a_slipped_airy_slope_fails_airy_ode(monkeypatch):
    # the quadrature's argument alpha + beta x with its slope off by 1e-4; a
    # check that read the same argument as the quadrature would pass it
    source = textwrap.dedent(inspect.getsource(AiryFn.derivatives))
    text = "self.spec.beta * np.asarray(x)"
    assert source.count(text) == 1
    namespace = dict(vars(solutions))
    exec(source.replace(text, "self.spec.beta * (1.0 + 1e-4) * np.asarray(x)"), namespace)
    assert run_named_check("solutions.airy_ode", RunConfig(seed=7)).passed
    monkeypatch.setattr(AiryFn, "derivatives", namespace["derivatives"])
    assert not run_named_check("solutions.airy_ode", RunConfig(seed=7)).passed


def test_a_nan_decay_control_fails_airy_ode(monkeypatch):
    # the decay control passes only on a small finite |u(10)|: a profile that
    # reads NaN beyond x = 5 fails the check
    derivatives = AiryFn.derivatives

    def planted(self, x, max_order):
        return np.where(np.asarray(x) > 5.0, np.nan, derivatives(self, x, max_order))

    assert run_named_check("solutions.airy_ode", RunConfig(seed=7)).passed
    monkeypatch.setattr(AiryFn, "derivatives", planted)
    assert not run_named_check("solutions.airy_ode", RunConfig(seed=7)).passed


def test_airy_loops_raise_at_their_caps(monkeypatch):
    # a phase this steep needs a truncation past the cap, and one Newton
    # step from a bracket's midpoint is not yet shorter than ROOT_WIDTH / 4
    with pytest.raises(ConvergenceError):
        AiryFn(AirySpec(alpha=-1e9, beta=1.0)).value(0.0)
    monkeypatch.setattr(solutions, "ROOT_STEPS", 1)
    with pytest.raises(ConvergenceError):
        eigenvalue_scan(AirySpec(alpha=-2.0, beta=1.0), (1.0, 3.0))


@pytest.mark.parametrize("spec,window", [
    (AirySpec(-2.0, 1.0), (1.0, 3.0)),
    (AirySpec(-2.0, 1.0), (3.0, 5.0)),
    (AirySpec(-2.0, 2.0), (2.0, 5.0)),
])
def test_newton_roots_are_certified_and_match_bisection(monkeypatch, spec, window):
    def u0(E):
        return _contour_integral(-np.asarray(E), spec.beta, (0,))[0]

    calls = []

    def counted(*args):
        calls.append(args)
        return _contour_integral(*args)

    monkeypatch.setattr(solutions, "_contour_integral", counted)
    roots = eigenvalue_scan(spec, window)
    # one call for the scan, then at most 8 per root
    assert len(roots) == 1 and len(calls) - 1 <= 8 * len(roots)
    (r,) = roots
    lo, hi = u0(r - solutions.ROOT_WIDTH / 2), u0(r + solutions.ROOT_WIDTH / 2)
    assert np.sign(lo) * np.sign(hi) < 0
    # plain bisection of the window, which holds this one root
    a, b = window
    fa = u0(a)
    while b - a > solutions.ROOT_WIDTH / 4:
        m = 0.5 * (a + b)
        if np.sign(u0(m)) == np.sign(fa):
            a = m
        else:
            b = m
    assert abs(r - 0.5 * (a + b)) <= solutions.ROOT_WIDTH


def _truncation(p, beta):
    """The least whole truncation from 4 at which the integrand's modulus
    exp(-p r/2 - beta^2 r^3/3) is at most e^-45."""
    trunc = 4.0
    while beta ** 2 * trunc ** 3 / 3.0 + p * trunc / 2.0 < 45.0:
        trunc += 1.0
    return trunc


def _panels(p, beta, trunc):
    """The panel count of ``_contour_integral`` for one p: beta^{-2/3}-wide
    panels, or 8/|p| where that is narrower."""
    scale = beta ** (-2.0 / 3.0)
    return int(np.ceil(trunc / (scale * min(1.0, 8.0 / max(1.0, abs(p) * scale)))))


def _contour_integral_per_panel(p, beta, trunc, moments):
    """The quadrature of ``_contour_integral`` for one p, panel by panel
    along the ray e^{i pi/6} from 0 to ``trunc``."""
    ray = np.exp(1j * np.pi / 6.0)
    total = np.zeros(len(moments), dtype=complex)
    edges = np.linspace(0.0, trunc, _panels(p, beta, trunc) + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        z = ray * (mid + half * _GL_NODES)
        f = np.exp(1j * (p * z + beta ** 2 * z ** 3 / 3.0))
        for mi, m in enumerate(moments):
            total[mi] += np.sum(half * _GL_WEIGHTS * ray * f * (1j * beta * z) ** m)
    return 2.0 * np.real(total)


@pytest.mark.parametrize("beta", [1.0, 2.0, 0.5])
def test_vectorised_contour_integral_matches_the_per_panel_loop(beta):
    # at beta = 0.5 and 1, p = 12 takes 8/|p|-wide panels beside beta^{-2/3}-wide ones
    ps = np.array([-4.3, -1.0, 0.0, 0.7, 2.5, 5.0, 12.0])
    moments = (0, 1, 2, 3)
    batch = _contour_integral(ps, beta, moments)
    assert batch.shape == (4, len(ps))
    for i, p in enumerate(ps):
        want = _contour_integral_per_panel(p, beta, _truncation(p, beta), moments)
        scale = max(1.0, np.abs(want).max())
        np.testing.assert_allclose(batch[:, i], want, rtol=0, atol=1e-14 * scale)
        np.testing.assert_array_equal(_contour_integral(p, beta, moments), batch[:, i])


def test_contour_truncation_is_chosen_per_p(monkeypatch):
    built, linspace = [], np.linspace

    def edges(start, stop, num):  # the panel edges of one (truncation, count)
        built.append((stop, num - 1))
        return linspace(start, stop, num)

    for beta, ps, truncs, panels in (
        # at beta = 0.5, p = 6 decays on a shorter contour than p = 0.5 and -1
        (0.5, (6.0, 0.5, -1.0), (7.0, 9.0, 9.0), (6, 6, 6)),
        # the sign of p picks the truncation: p = 8.5 stops at 5, p = -8.5 at 6,
        # where it takes 8/|p|-wide panels, so one truncation has two counts
        (1.0, (8.5, -8.5, 1.0, -2.0), (5.0, 6.0, 6.0, 6.0), (6, 7, 6, 6)),
    ):
        ps = np.array(ps)
        with monkeypatch.context() as m:
            m.setattr(np, "linspace", edges)
            built.clear()
            batch = _contour_integral(ps, beta, (0, 2))
            assert sorted(built) == sorted(set(zip(truncs, panels)))
            for p, trunc, count in zip(ps, truncs, panels):
                built.clear()
                _contour_integral(p, beta, (0, 2))
                assert built == [(trunc, count)]
        for i, (trunc, count) in enumerate(zip(truncs, panels)):
            assert _truncation(ps[i], beta) == trunc and _panels(ps[i], beta, trunc) == count
            want = _contour_integral_per_panel(ps[i], beta, trunc, (0, 2))
            np.testing.assert_allclose(batch[:, i], want, rtol=0, atol=1e-14 * max(1.0, np.abs(want).max()))
            # one panel more or less would move the sum at round-off
            np.testing.assert_array_equal(batch[:, i], _contour_integral(ps[i], beta, (0, 2)))
    u = AiryFn(AirySpec(alpha=-1.0, beta=1.0))
    xs = np.linspace(0.0, 3.0, 4)
    np.testing.assert_array_equal(u.derivatives(xs, 2)[2], [u.derivatives(x, 2)[2] for x in xs])


def _round_off(p, beta, m):
    """The size the quadrature's error estimate gives its round-off, in
    units of eps: e^g (1 + g) max(1, |p|)^m, g the log of the integrand's
    peak."""
    g = (2.0 / 3.0) * max(-p / 2.0, 0.0) ** 1.5 / beta
    return np.exp(g) * (1.0 + g) * max(1.0, abs(p)) ** m


def _fine_rule(p, beta, moments):
    """The quadrature on 1/256-wide panels, all nodes of one p at once."""
    ray, trunc = np.exp(1j * np.pi / 6.0), _truncation(p, beta)
    edges = np.linspace(0.0, trunc, int(256 * trunc) + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    z = (ray * (mid[:, None] + half[:, None] * _GL_NODES)).ravel()
    f = np.exp(1j * (p * z + beta ** 2 * z ** 3 / 3.0)) * (ray * half[:, None] * _GL_WEIGHTS).ravel()
    return [2.0 * np.real(np.sum(f * (1j * beta * z) ** m)) for m in moments]


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 10.0])
def test_contour_integral_matches_a_fine_rule(beta):
    # from the least p whose peak the error estimate admits at every beta
    # to p = 300, where 0.25-wide panels read 6e10 eps off
    eps = np.finfo(float).eps
    ps = np.concatenate([np.linspace(-5.0 * beta ** (2.0 / 3.0), 10.0, 12), np.linspace(40.0, 300.0, 6)])
    got = _contour_integral(ps, beta, (0, 1, 2))
    for i, p in enumerate(ps):
        for m, want in enumerate(_fine_rule(p, beta, (0, 1, 2))):
            assert abs(got[m, i] - want) <= 16.0 * eps * _round_off(p, beta, m), (p, m)


@pytest.mark.parametrize("beta, x", [(1.0, 101.0), (1.0, 201.0), (1.0, 401.0), (1.0, 891.0), (1.0, 1001.0),
                                     (1.0, 4001.0), (10.0, 20.0)])
def test_airy_far_tail_against_scipy(beta, x):
    # u = 2 pi s Ai(p s), s = beta^{-2/3} and p = alpha + beta x, is ~0 here;
    # 0.25-wide panels read up to 7.8e-5 under an error estimate of 4e-14
    u = AiryFn(AirySpec(alpha=-1.0, beta=beta))
    p, s = -1.0 + beta * x, beta ** (-2.0 / 3.0)
    ai, aip, _, _ = scipy.special.airy(p * s)
    for m, (got, want) in enumerate(zip(u.derivatives(x, 1), (2.0 * np.pi * s * ai, 2.0 * np.pi * beta * s * s * aip))):
        assert abs(got - want) <= 16.0 * np.finfo(float).eps * _round_off(p, beta, m)


def test_a_p_past_the_panel_cap_raises():
    # p = 10000 at beta = 1 needs 5,000 panels, more than PANEL_CAP
    with pytest.raises(QuadratureError, match="5000 panels exceed the cap"):
        AiryFn(AirySpec(alpha=-1.0, beta=1.0)).value(10001.0)


def test_airy_quadrature_error_on_tiny_truncation():
    # for p < 0 the integrand grows to exp((2/3) (-p/2)^{3/2}) before it
    # decays and the sum cancels: at p = -15 the value is still right to
    # 1e-8, further out it raises (at p = -30 the sum read -103, not -0.553)
    got = AiryFn(AirySpec(-15.0, 1.0)).value(0.0)
    assert abs(got - 2.0 * np.pi * scipy.special.airy(-15.0)[0]) < 1e-8
    for p in (-20.0, -30.0):
        with pytest.raises(QuadratureError):
            AiryFn(AirySpec(p, 1.0)).value(0.0)
    with pytest.raises(DomainError):
        AirySpec(alpha=-1.0, beta=0.0)


@pytest.mark.parametrize("fn", [gaussian_free(0.7, t0=2.0), f_pair(LIN)[0], g_functions(QUAD, 0.5)[2],
                                power_static(2.0, 2.0)], ids=["gaussian", "f1", "g3", "power"])
def test_a_function_takes_its_own_number_of_coordinates(fn):
    # a scalar and a 1-tuple are one coordinate; two raise, on every path
    assert fn.value(0.1, 0.3) == fn.value(0.1, (0.3,)) == fn.value(0.1, [0.3])
    for call in (lambda: fn.jet(0.1, (0.2, 0.3), 2), lambda: fn.value(0.1, (0.2, 0.3))):
        with pytest.raises(DomainError, match="a function of 1 space coordinates at 2"):
            call()


def test_a_two_coordinate_function_takes_two():
    fn = plane_wave_nls(1.1, (0.4, -0.7), FamilySpec.nls2d(-0.7j, coupling=1.3))
    assert fn.value(0.1, (0.2, 0.3)) == fn.value(0.1, np.array([0.2, 0.3]))
    for x in (0.2, (0.2,), (0.2, 0.3, 0.4)):
        with pytest.raises(DomainError, match="a function of 2 space coordinates"):
            fn.jet(0.1, x, 2)


def test_exponential_variable_jets():
    g1, _, _ = g_functions(QUAD, 0.0)
    s = g1.s_of_t(0.4)
    j = g1.jet_s(s, 0.7, 2)
    # d/ds of s^rho e^{w x^2/2} = rho/s * value
    rho = (QUAD.omega - QUAD.alpha) / (2 * QUAD.omega)
    assert abs(j.partial((1, 0)) - rho / s * j.value) < 1e-12
    with pytest.raises(DomainError):
        gaussian_free(0.7).jet_s(1.0, 0.0, 1)


def test_mixed_partial_matches_central_difference_of_the_x_partial():
    # partial((1, 1)) needs a jet of parabolic order 3 (t weighs 2)
    # against the first t difference of the x partial at h = 1e-5
    _, f2 = f_pair(LIN)
    t, x = np.array([0.7, 1.2]), np.array([0.3, -0.8])
    fd = stencil(f2, t, [x], 1, [(0, 1e-5)])[1].partial((0, 1))[0, 0]
    exact = f2.jet(t, x, 3).partial((1, 1))
    assert np.all(abs(exact - fd) <= 1e-7 * np.maximum(abs(exact), 1.0))


@pytest.mark.parametrize("seed", [2053341308, 1863541293])
def test_partials_fd_passes_where_the_second_difference_hit_round_off(seed):
    # at these seeds the psi_xx difference at h = 5e-4 sat on its round-off
    # floor and read as order 1.0
    assert run_named_check("solutions.partials_fd", RunConfig(seed=seed)).passed


class _SlippedXX(SmoothFn):
    """``fn`` with its psi_xx partial off by a relative 1e-6."""

    def __init__(self, fn):
        self.fn = fn

    def jet(self, t, x, order):
        j = self.fn.jet(t, x, order)
        if order < 2:
            return j
        return j + Jet(2, order, {(0, 2): 1e-6 * j.coefficient((0, 2))})


def test_partials_fd_fails_a_slipped_second_partial(monkeypatch):
    f1, f2 = f_pair(LIN)
    monkeypatch.setattr(suites, "f_pair", lambda spec: (f1, _SlippedXX(f2)))
    for seed in (7, 11):
        assert run_named_check("solutions.partials_fd", RunConfig(seed=seed)).value == 1.0
