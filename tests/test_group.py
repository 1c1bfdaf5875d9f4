import numpy as np
import pytest

from schroedsym.errors import DeterminantError, DomainError, ZeroK, ZeroOmega
from schroedsym.group import (
    DiskParams,
    GroupElement,
    Mat2,
    cocycle_linear,
    cocycle_quadratic,
    compose,
    disk_parametrize,
    inverse,
    is_disk_shaped,
    is_semigroup_admissible,
)
from schroedsym.jets import Jet
from schroedsym.sampling import random_element

RNG = np.random.default_rng(20240817)


def test_determinant_error():
    with pytest.raises(DeterminantError):
        Mat2(1.0, 0.0, 0.0, 1.0 + 1e-10)
    with pytest.raises(DeterminantError):
        Mat2(2.0, 0.0, 0.0, 2.0)


def test_determinant_guard_rejects_nan_and_acts_per_entry():
    with pytest.raises(DeterminantError):
        Mat2(np.nan, 0.0, 0.0, 1.0)
    c = np.ones(5)
    Mat2(c, 0.0, 0.0, c)
    c[2] = 1.1
    with pytest.raises(DeterminantError):
        Mat2(c, 0.0, 0.0, np.ones(5))


def test_determinant_guard_reads_the_value_of_jet_entries():
    # a matrix that depends on a parameter s, with jet entries in s
    s = Jet.variable(np.array([0.0, 0.3]), 0, 1, 2)
    m = Mat2(1.0 + s, 0.0 * s, 0.0 * s, (1.0 + s).reciprocal())
    np.testing.assert_allclose(m.det.value, 1.0, rtol=1e-15)
    s = Jet.variable(0.0, 0, 1, 2)
    with pytest.raises(DeterminantError):
        Mat2((1.0 + 1e-9) * (1.0 + s), 0.0 * s, 0.0 * s, (1.0 + s).reciprocal())
    c = np.array([1.0, 2.0])  # batched float entries, as before
    Mat2(c, 0.0, 0.0, 1.0 / c)
    with pytest.raises(DeterminantError):
        Mat2(c, 0.0, 0.0, 1.0 / c + np.array([0.0, 1e-9]))


def test_compose_time_translations_add():
    l1 = GroupElement(Mat2(1.0, 0.4, 0.0, 1.0))
    l2 = GroupElement(Mat2(1.0, 0.35, 0.0, 1.0))
    p = compose(l1, l2)
    assert abs(p.d - 0.75) < 1e-15
    assert abs(p.c - 1.0) < 1e-15 and abs(p.a) < 1e-15 and abs(p.b - 1.0) < 1e-15


def test_compose_with_identity_and_inverse():
    # the inverse is group.inverse; the unit is a right unit
    for _ in range(50):
        l = random_element(RNG)
        p = compose(l, GroupElement.identity())
        assert max(abs(p.a - l.a), abs(p.mu - l.mu), abs(p.nu - l.nu)) < 1e-15


def test_pure_translation_inverse_negates():
    l = GroupElement(Mat2.identity(), 0.3, -0.8)
    li = inverse(l)
    assert li.mu == -0.3 and li.nu == 0.8


def test_cocycle_linear_values():
    # translation-free second factor gives zero
    l1 = random_element(RNG)
    l2 = GroupElement(l1.m, 0.0, 0.0)
    assert cocycle_linear(l1, l2, 1.0) == 0.0
    # hand substitution: both translations on the unit matrix
    a = GroupElement(Mat2.identity(), 1.0, 0.0)
    b = GroupElement(Mat2.identity(), 0.0, 1.0)
    assert abs(cocycle_linear(a, b, 1.0) - 0.25) < 1e-15
    with pytest.raises(ZeroK):
        cocycle_linear(a, b, 0.0)


def test_cocycle_quadratic_variants_and_cycle():
    a = GroupElement(Mat2.identity(), 1.0, 0.0)
    b = GroupElement(Mat2.identity(), 0.0, 1.0)
    assert abs(cocycle_quadratic(a, b, 1.0) - 1.0) < 1e-15
    with pytest.raises(ZeroOmega):
        cocycle_quadratic(a, b, 0.0)


def test_disk_parametrize_shapes():
    # the unit and the rotation by pi are group.disk_parametrization
    el = disk_parametrize(DiskParams(0.3, 0.2 + 0.4j))
    assert is_disk_shaped(el.m)
    assert abs(el.m.det - 1.0) < 1e-14
    with pytest.raises(DomainError):
        DiskParams(0.0, 1.0)


def test_semigroup_admissibility():
    # closure is group.admissible_closure
    assert is_semigroup_admissible(GroupElement.identity())
    assert not is_semigroup_admissible(GroupElement(Mat2(1.0, 0.0, -1.0, 1.0)))
