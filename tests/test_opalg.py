import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroedsym import opalg, suites
from schroedsym.coords import FamilySpec, Point
from schroedsym.errors import FamilyMismatch, OrderError
from schroedsym.opalg import (
    DiffOp,
    LINEAR_VARS,
    QUADRATIC_VARS,
    casimir_I2,
    generators_linear,
    generators_quadratic,
)
from schroedsym.solutions import constant_one, f_pair
from schroedsym.suites import RunConfig, _intertwines, _table_defects, run_named_check, worst_defect

RNG = np.random.default_rng(2718)

K, ALPHA, BETA, OMEGA = 0.7, 0.3, 0.9, 0.6
LIN = FamilySpec.linear(K, ALPHA, BETA)
QUAD = FamilySpec.quadratic(K, ALPHA, OMEGA)
GL = generators_linear(LIN)
GQ = generators_quadratic(QUAD)


def lin(c, i=0, j=0, m=0, n=0):
    return DiffOp.monomial(LINEAR_VARS, c, i, j, m, n)


def quad(c, i=0, j=0, m=0, n=0):
    return DiffOp.monomial(QUADRATIC_VARS, c, i, j, m, n)


def test_laurent_poly_ring():
    # products and s-derivatives are liealg.poly_ring; here the x-derivative
    # and evaluation, through the operators' action
    dx = lin(1.0, n=1)
    assert dx.commutator(lin(2.0, 0, 3)).max_abs_diff(lin(6.0, 0, 2)) == 0.0
    p = DiffOp.from_poly(LINEAR_VARS, {(1, 0): 1.0, (-1, 0): 1.0})
    assert p.max_abs_diff(lin(1.0, 1) + lin(1.0, -1)) == 0.0
    assert abs(p.apply(constant_one(), Point(2.0, 0.0)) - 2.5) < 1e-15


_MONOMIALS = st.lists(
    st.tuples(st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 1e-3),
              st.integers(-2, 3), st.integers(0, 3),
              st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=4,
).map(lambda terms: sum((quad(*term) for term in terms), quad(0.0)))


@settings(max_examples=100, deadline=None)
@given(_MONOMIALS, _MONOMIALS, _MONOMIALS)
def test_compose_distributes_over_addition(a, b, c):
    # to 1e-14 of the largest coefficient: the two sides round in another order
    for lhs, rhs in ((a.compose(b + c), a.compose(b) + a.compose(c)),
                     ((a + b).compose(c), a.compose(c) + b.compose(c))):
        scale = max(map(abs, [*lhs.terms.values(), *rhs.terms.values()]), default=0.0)
        assert lhs.max_abs_diff(rhs) <= 1e-14 * scale


def test_leibniz_composition():
    # exact identities of both families, with a negative power
    # d2 . x = x d2 + 1
    assert lin(1.0, n=1).compose(lin(1.0, 0, 1)).max_abs_diff(lin(1.0, 0, 1, n=1) + lin(1.0)) == 0.0
    # d_x^2 . x^2 = x^2 d_x^2 + 4 x d_x + 2
    got = lin(1.0, n=2).compose(lin(1.0, 0, 2))
    assert got.max_abs_diff(lin(1.0, 0, 2, n=2) + lin(4.0, 0, 1, n=1) + lin(2.0)) == 0.0
    # d_t . t^3 = t^3 d_t + 3 t^2
    got = lin(1.0, m=1).compose(lin(1.0, 3))
    assert got.max_abs_diff(lin(1.0, 3, m=1) + lin(3.0, 2)) == 0.0
    # d_s . s^-1 = s^-1 d_s - s^-2
    got = quad(1.0, m=1).compose(quad(1.0, -1))
    assert got.max_abs_diff(quad(1.0, -1, m=1) - quad(1.0, -2)) == 0.0
    # T1^2 = d2^2 + 2 k beta t d2 + k^2 beta^2 t^2
    kb = K * BETA
    want = lin(1.0, n=2) + lin(2.0 * kb, 1, n=1) + lin(kb * kb, 2)
    assert GL.T1.compose(GL.T1).max_abs_diff(want) < 1e-15


def test_compose_associativity_random():
    basis = [GL.L3, GL.Lplus, GL.Lminus, GL.T1, GL.T2]
    for _ in range(20):
        a, b, c = (basis[RNG.integers(0, 5)] for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.max_abs_diff(right) < 1e-13


def test_family_mismatch_raises():
    with pytest.raises(FamilyMismatch):
        GL.T1.compose(GQ.T1)


def test_commutator_tables():
    # the tables are liealg.table_linear and liealg.table_quadratic; here
    # the central brackets explicitly
    assert GL.T1.commutator(GL.T2).max_abs_diff(lin(1.0 / (2.0 * K))) < 1e-15
    assert GQ.T1.commutator(GQ.T2).max_abs_diff(quad(2.0 * OMEGA)) < 1e-15
    assert GL.T1.commutator(GL.T1).max_abs_diff(0.0 * GL.unit) <= 1e-13


def test_tilde_generators_satisfy_same_table():
    tl = replace(GL, L3=GL.L3t, Lplus=GL.Lplust, Lminus=GL.Lminust, T1=GL.T1t, T2=GL.T2t)
    assert worst_defect(_table_defects(tl)) < 1e-13
    tq = replace(GQ, L3=GQ.L3t, Lplus=GQ.Lplust, Lminus=GQ.Lminust, T1=GQ.T1t, T2=GQ.T2t)
    assert worst_defect(_table_defects(tq)) < 1e-13


@pytest.mark.parametrize("nan_at", [(0, 0, 0, 0), (0, 0, 1, 0)])
def test_a_nan_coefficient_difference_is_nan_in_either_term_order(nan_at):
    # the NaN sits at one of two keys and 1.0 at the other, so one of the two
    # cases meets it first and the other last: max kept or dropped it by order
    terms = {(0, 0, 0, 0): 1.0, (0, 0, 1, 0): 1.0, nan_at: math.nan}
    op, zero = DiffOp(LINEAR_VARS, terms), DiffOp(LINEAR_VARS)
    assert math.isnan(op.max_abs_diff(zero)) and math.isnan(zero.max_abs_diff(op))


def test_a_nan_coefficient_fails_the_table_and_intertwine(monkeypatch):
    def planted(spec):  # one NaN coefficient in the linear T1
        g = generators_linear(spec)
        return replace(g, T1=DiffOp(g.family, {**g.T1.terms, (0, 0, 1, 0): math.nan}))

    monkeypatch.setattr(suites, "generators_linear", planted)
    for name in ("liealg.table_linear", "liealg.intertwine"):
        assert not run_named_check(name, RunConfig(seed=7)).passed, name


@pytest.mark.parametrize("function,text,literal,check", [
    ("generators_linear", "mono(0.5 / k, 0, 1)", "0.5", "liealg.table_linear"),
    ("generators_quadratic", "mono(0.5 * omega, 2, 2)", "0.5", "liealg.table_quadratic"),
    ("generators_linear", "Lm + mono(2.0, 1, 0)", "2.0", "liealg.intertwine"),
], ids=["T2-central", "Lminus-omega", "Lminus-tilde-shift"])
def test_a_single_literal_slip_fails_its_liealg_check(slip_literal, function, text, literal,
                                                      check):
    assert run_named_check(check, RunConfig(seed=7)).passed
    slip_literal(opalg, function, text, literal)
    assert not run_named_check(check, RunConfig(seed=7)).passed


def test_evolution_operator_identities():
    # the linear family to 1e-14, which liealg.evolution_identity_linear's gate
    # may not take: 100x its worst over seeds 1-2000 is 1.1e-14; the
    # oscillator's is liealg.evolution_identity_quadratic
    k1 = GL.Lplus - K * GL.T1.compose(GL.T1)
    assert k1.max_abs_diff(GL.Kop) < 1e-14
    d = GL.Lplus - (2.0 * K * K * BETA) * GL.T2 - (K * ALPHA) * GL.unit
    assert d.max_abs_diff(GL.D) < 1e-14


def test_intertwining_and_falsification():
    # both families, the perturbed control and the linear family's brackets
    # with the evolution operator are liealg.intertwine
    with pytest.raises(FamilyMismatch):
        _intertwines(GL, GQ.Kop)
    for gen in (GQ.L3, GQ.T1, GQ.T2):
        assert gen.commutator(GQ.Kop).max_abs_diff(0.0 * GQ.unit) <= 1e-13


def test_casimirs_are_constants_and_factor():
    # the factorizations to 1e-14, which liealg.casimir_factorization's gate
    # may not take: 100x its worst over seeds 1-2000 is 2.2e-14; the constants
    # and the commutators are liealg.casimir_cubic and liealg.casimir_commutes
    poly = lin(1.0, 0, 1) - lin(K * K * BETA, 2, 0)
    rhs = (3.0 / 16.0) * GL.unit + (poly.compose(poly) * (0.25 / K)).compose(GL.Kop)
    assert casimir_I2(GL).max_abs_diff(rhs) < 1e-14
    rhs_q = (3.0 / 16.0) * GQ.unit + quad(0.25 / K, 0, 2).compose(GQ.Kop)
    assert casimir_I2(GQ).max_abs_diff(rhs_q) < 1e-14


def test_casimir_factorization_keeps_tiny_coefficients():
    # only exact zeros are dropped: at k = 1e-100 the oscillator terms of size
    # k omega^2 stay in the algebra
    result = run_named_check("liealg.casimir_factorization", RunConfig(seed=7, k=1e-100))
    assert result.passed, result.value


def test_apply_is_linear_and_needs_exponential_jets():
    f1, f2 = f_pair(LIN)
    z = Point(0.6, 0.4)
    lhs = (GL.Lplus + 2.0 * GL.T1).apply(f2, z)
    rhs = GL.Lplus.apply(f2, z) + 2.0 * GL.T1.apply(f2, z)
    assert abs(lhs - rhs) < 1e-12
    with pytest.raises(OrderError):
        GQ.T1.apply(f1, z)  # linear-family function lacks exponential-variable jets
