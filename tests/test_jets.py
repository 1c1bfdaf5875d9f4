import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroedsym.errors import OrderError
from schroedsym.jets import Jet, cpow, exp, log, sqrt, weight


def test_polynomial_partials_match_closed_form():
    t = Jet.variable(0.7, 0, 2, 3)
    x = Jet.variable(0.3, 1, 2, 3)
    f = (t * t * x + 1.0).exp()
    v = np.exp(0.7 ** 2 * 0.3 + 1.0)
    assert abs(f.value - v) < 1e-12
    assert abs(f.partial((1, 0)) - 2 * 0.7 * 0.3 * v) < 1e-12
    assert abs(f.partial((0, 1)) - 0.7 ** 2 * v) < 1e-12
    assert abs(f.partial((1, 1)) - (2 * 0.7 + 2 * 0.7 * 0.3 * 0.7 ** 2) * v) < 1e-11


def test_division_and_reciprocal():
    # time weighs 2, so order 8 holds the t-derivatives 0..4
    t = Jet.variable(2.0, 0, 1, 8)
    g = 1.0 / t
    # d^n/dt^n (1/t) = (-1)^n n!/t^(n+1)
    for n in range(5):
        expect = (-1) ** n * math.factorial(n) / 2.0 ** (n + 1)
        assert abs(g.partial((n,)) - expect) < 1e-12


def test_log_exp_roundtrip_and_sqrt():
    # time weighs 2, so order 6 holds every exponent of total degree <= 3
    t = Jet.variable(1.3, 0, 2, 6)
    x = Jet.variable(-0.4, 1, 2, 6)
    z = t + x * x + 0.5
    back = exp(log(z))
    assert len(z.coef) <= 16 and len(back.coef) == 16
    diff = z - back
    assert max(abs(v) for v in diff.coef.values()) < 1e-13
    s = sqrt(z)
    sq = s * s - z
    assert max(abs(v) for v in sq.coef.values()) < 1e-13
    p = cpow(z, 0.5)
    assert all(abs(p.coef[k] - s.coef[k]) < 1e-14 for k in s.coef)


def test_branch_functions_of_a_mixed_sign_constant_match_the_array_path():
    # the constant term of a jet's log, sqrt and cpow is what the plain-array
    # function gives: the principal branch, complex once an entry is negative
    c = np.array([-0.4, 0.5, 2.0])
    z = Jet.variable(c, 0, 1, 2)
    with np.errstate(all="raise"):
        pairs = ((z.log(), log(c)), (z.sqrt(), sqrt(c)), (z.cpow(-0.5), cpow(c, -0.5)))
    for got, want in pairs:
        assert np.iscomplexobj(got.value)
        np.testing.assert_array_equal(got.value, want)
    assert log(c)[0] == pytest.approx(np.log(0.4) + 1j * np.pi, rel=1e-15)
    assert sqrt(c)[0] == pytest.approx(1j * np.sqrt(0.4), rel=1e-15)


@pytest.mark.parametrize("z", [
    np.array([0.0, 0.5, 2.0]), np.array([-0.4, 0.5, 2.0]), np.array([-0.0, 0.5]), -0.0,
    np.array([np.nan, 0.5]), np.array([-0.4 + 0.0j, 0.5 + 0.3j]), np.array([0, 1, 4]),
    np.array([-1, 1, 4]),
], ids=["nonnegative", "one_negative", "negative_zero", "scalar_negative_zero", "nan",
        "complex", "int", "negative_int"])
def test_branch_functions_match_numpy_emath_bit_for_bit(z):
    # the rule is numpy.emath's: complex exactly when a real entry is < 0
    # (-0.0 and NaN are not), and a negative integer exponent turns float
    with np.errstate(all="ignore"):
        pairs = [(log(z), np.emath.log(z)), (sqrt(z), np.emath.sqrt(z))]
        pairs += [(cpow(z, p), np.emath.power(z, p)) for p in (-0.5, -2)]
    for got, want in pairs:
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_real_data_stays_real_until_a_branch_function_leaves_the_half_line():
    t = Jet.variable(np.array([0.5, 1.5]), 0, 2, 4)
    x = Jet.variable(np.array([-0.3, 0.2]), 1, 2, 4)
    z = t + x * x
    for f in (exp(t * x), log(z), sqrt(z), cpow(z, -0.5), exp(z) / z, z ** 3):
        assert all(np.asarray(v).dtype == np.float64 for v in f.coef.values())
    assert np.iscomplexobj(log(x).value) and np.iscomplexobj(exp(1j * x).value)
    assert np.asarray(log(np.array([0.5, 2.0]))).dtype == np.float64


def test_integer_power_keeps_branch_for_negative_base():
    x = Jet.variable(-1.5, 0, 1, 2)
    cube = x ** 3
    assert abs(cube.value - (-3.375)) < 1e-14
    assert abs(np.imag(cube.value)) == 0.0


def test_array_coefficients_vectorize_over_grids():
    tv = np.array([0.5, 0.7, 1.1])
    xv = np.array([0.1, 0.2, 0.3])
    T = Jet.variable(tv, 0, 2, 2)
    X = Jet.variable(xv, 1, 2, 2)
    F = (T * X).exp() / T
    assert np.allclose(F.value, np.exp(tv * xv) / tv)
    eps = 1e-6
    fd = (np.exp((tv + eps) * xv) / (tv + eps) - np.exp((tv - eps) * xv) / (tv - eps)) / (2 * eps)
    assert np.abs(F.partial((1, 0)) - fd).max() < 1e-7


def test_array_times_jet_is_a_jet_with_array_coefficients():
    # numpy must defer to the jet's reflected operators, not build an
    # object array of jets
    arr = np.array([0.1, 0.2])
    X = Jet.variable(0.3, 0, 2, 2)
    for got, want in ((arr * X, X * arr), (arr + X, X + arr), (arr - X, -X + arr),
                      (arr / X, X.reciprocal() * arr)):
        assert isinstance(got, Jet)
        assert set(got.coef) == set(want.coef)
        for k in got.coef:
            np.testing.assert_array_equal(got.coef[k], want.coef[k])
    assert np.shape((arr * X).value) == (2,)


def test_truncation_order_is_respected():
    # exponents of parabolic weight 2 * k[0] + k[1] <= order are kept, the rest dropped
    t = Jet.variable(0.3, 0, 2, 5)
    x = Jet.variable(0.6, 1, 2, 5)
    f = (t + x) ** 6
    assert set(f.coef) == {(i, j) for i in range(3) for j in range(6) if 2 * i + j <= 5}
    assert set((t ** 5).coef) == {(0, 0), (1, 0), (2, 0)}
    assert set((x ** 7).coef) == {(0, j) for j in range(6)}


def test_partial_beyond_the_order_raises():
    t = Jet.variable(0.3, 0, 1, 2)
    with pytest.raises(OrderError):
        (t ** 3).partial((3,))
    with pytest.raises(OrderError):
        (t ** 3).coefficient((2,))
    assert (t ** 3).partial((1,)) == pytest.approx(3 * 0.3 ** 2)
    x = Jet.variable(0.3, 1, 2, 2)
    with pytest.raises(OrderError):
        (t * x).partial((1, 1))


# -- algebra properties, read through the public API only ---------------------


def _exponents(nvars, order):
    """Every exponent of parabolic weight <= order."""
    return [k for k in itertools.product(range(order + 1), repeat=nvars) if weight(k) <= order]


@st.composite
def _jet_draws(draw):
    """(nvars, order, coefficient shape, complex?, numpy generator)."""
    return (draw(st.integers(1, 3)), draw(st.integers(0, 6)), draw(st.sampled_from([(), (3,)])),
            draw(st.booleans()), np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))


def _random_jet(draws, const=None):
    """A jet on a random subset of the exponents, coefficients in the unit
    box; ``const`` (a scalar) overrides the constant term."""
    nvars, order, shape, is_complex, rng = draws
    coef = {}
    for k in _exponents(nvars, order):
        if rng.random() < 0.6:
            coef[k] = rng.uniform(-0.5, 0.5, shape) + (1j * rng.uniform(-0.5, 0.5, shape) if is_complex else 0)
    if const is not None:
        coef[(0,) * nvars] = np.full(shape, const)
    return Jet(nvars, order, coef)


def _assert_close(x, y, rtol=1e-12):
    """Every coefficient agrees to ``rtol`` of the larger jet's size (at least 1)."""
    assert (x.nvars, x.order) == (y.nvars, y.order)
    keys = _exponents(x.nvars, x.order)
    diff = max(np.max(np.abs(x.coefficient(k) - y.coefficient(k))) for k in keys)
    size = max(max(np.max(np.abs(j.coefficient(k))) for k in keys) for j in (x, y))
    assert diff <= rtol * max(size, 1.0), (diff, size)


def _product_keys(a, b):
    return {tuple(p + q for p, q in zip(ka, kb)) for ka in a.coef for kb in b.coef
            if weight(ka) + weight(kb) <= a.order}


@settings(max_examples=40, deadline=None)
@given(_jet_draws())
def test_ring_laws_and_structural_zeros(draws):
    a, b, c = (_random_jet(draws) for _ in range(3))
    _assert_close((a * b) * c, a * (b * c))
    _assert_close(a * (b + c), a * b + a * c)
    assert set((a * b).coef) <= _product_keys(a, b)
    assert set((a + b).coef) <= set(a.coef) | set(b.coef)
    assert all(weight(k) <= a.order for k in ((a * b) * c).coef)


@settings(max_examples=40, deadline=None)
@given(_jet_draws(), st.floats(-1.0, 1.0), st.floats(0.5, 1.5), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_series_laws(draws, c, r, p, q):
    a, b = _random_jet(draws), _random_jet(draws)
    _assert_close((a + b).exp(), a.exp() * b.exp())
    real_constant = _random_jet(draws, const=c)
    _assert_close(real_constant.exp().log(), real_constant)
    away = _random_jet(draws, const=r)  # a constant term away from 0
    _assert_close(away.reciprocal() * away, Jet.const(1.0, away.nvars, away.order))
    _assert_close(cpow(away, p) * cpow(away, q), cpow(away, p + q))


@settings(max_examples=40, deadline=None)
@given(_jet_draws())
def test_batch_equals_its_entries_and_real_stays_real(draws):
    nvars, order, _, is_complex, rng = draws
    draws = (nvars, order, (3,), is_complex, rng)
    a, b = _random_jet(draws), _random_jet(draws, const=1.0)

    def expression(a, b):
        return (a * b).exp() * (a - 2.0) / b + cpow(b, 0.5) * b.log()

    batch = expression(a, b)
    for i in range(3):
        entry = [Jet(nvars, order, {k: v[i] for k, v in j.coef.items()}) for j in (a, b)]
        got = Jet(nvars, order, {k: v[i] for k, v in batch.coef.items()})
        _assert_close(got, expression(*entry))
    if not is_complex:
        assert all(np.asarray(v).dtype == np.float64 for v in batch.coef.values())
