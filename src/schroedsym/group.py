"""Symmetry-group algebra: unimodular 2x2 matrices with translation pairs.

The matrix layout is M = [[c, d], [a, b]] with unit determinant
c*b - a*d = 1, so the time variable transforms as t -> (c t + d)/(a t + b).
Group elements pair such a matrix with a translation vector (mu, nu) and
compose semidirectly.

Every entry may be a scalar or a numpy array: an element whose entries
are arrays of one shape is a batch of elements, and composition,
inversion, the cocycles, the determinant guard and the shape predicates
all act per entry.  An entry may also be a ``Jet`` (a matrix that depends
on a parameter); the determinant guard then reads the jet's value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import jets
from .errors import DeterminantError, DomainError, ZeroK, ZeroOmega

DET_TOL = 1e-12
REAL_TOL = 1e-12  # of the reality and sign predicates


@dataclass(frozen=True)
class Mat2:
    """Unimodular 2x2 matrix in the [[c, d], [a, b]] layout; its shape
    predicates are the module's ``is_disk_shaped`` and
    ``is_semigroup_admissible``."""

    c: complex
    d: complex
    a: complex
    b: complex

    def __post_init__(self):
        det = np.asarray(jets.value_of(self.det))  # a jet entry is guarded by its value
        bad = det[~(np.abs(det - 1.0) <= DET_TOL)]  # per entry; NaN is bad too
        if bad.size:
            raise DeterminantError(f"determinant {bad[0]} differs from 1 by more than {DET_TOL}")

    @property
    def det(self):
        return self.c * self.b - self.a * self.d

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    def mul(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.c * other.c + self.d * other.a,
            self.c * other.d + self.d * other.b,
            self.a * other.c + self.b * other.a,
            self.a * other.d + self.b * other.b,
        )

    def inv(self) -> "Mat2":
        return Mat2(self.b, -self.d, -self.a, self.c)

    def apply_vec(self, mu, nu):
        """Matrix action on a translation pair."""
        return self.c * mu + self.d * nu, self.a * mu + self.b * nu


@dataclass(frozen=True)
class GroupElement:
    """Pair of a unimodular matrix and a translation vector (mu, nu)."""

    m: Mat2
    mu: complex = 0.0
    nu: complex = 0.0

    @classmethod
    def identity(cls):
        return cls(Mat2.identity(), 0.0, 0.0)

    @property
    def a(self):
        return self.m.a

    @property
    def b(self):
        return self.m.b

    @property
    def c(self):
        return self.m.c

    @property
    def d(self):
        return self.m.d


def compose(l1: GroupElement, l2: GroupElement) -> GroupElement:
    """Semidirect product: {M M', (mu, nu) + M (mu', nu')}."""
    dmu, dnu = l1.m.apply_vec(l2.mu, l2.nu)
    return GroupElement(l1.m.mul(l2.m), l1.mu + dmu, l1.nu + dnu)


def inverse(l: GroupElement) -> GroupElement:
    """{M^-1, -M^-1 (mu, nu)}."""
    minv = l.m.inv()
    mu, nu = minv.apply_vec(l.mu, l.nu)
    return GroupElement(minv, -mu, -nu)


def symplectic_pairing(l1: GroupElement, l2: GroupElement):
    """(mu, nu)^T J M (mu', nu') of l1 = {M, (mu, nu)} and l2's (mu', nu'),
    which both families' cocycles scale."""
    m, mu, nu = l1.m, l1.mu, l1.nu
    return (mu * m.a - nu * m.c) * l2.mu + (mu * m.b - nu * m.d) * l2.nu


def cocycle_linear(l1: GroupElement, l2: GroupElement, k) -> complex:
    """Cocycle of the linear-potential family: the symplectic pairing
    over 4k."""
    if k == 0:
        raise ZeroK("k must be nonzero")
    return symplectic_pairing(l1, l2) / (4.0 * k)


def cocycle_quadratic(l1: GroupElement, l2: GroupElement, omega) -> complex:
    """Cocycle of the quadratic-potential family: omega times the
    symplectic pairing, the linear family's structure.  The literature also
    prints a second bracket, which the check
    ``multiplier.cocycle_variant_resolution`` rejects."""
    if omega == 0:
        raise ZeroOmega("omega must be nonzero")
    return omega * symplectic_pairing(l1, l2)


@dataclass(frozen=True)
class DiskParams:
    """Angle/disk coordinates for the unit-circle-preserving subgroup."""

    theta: float
    lam: complex

    def __post_init__(self):
        r = np.abs(self.lam)
        if not np.all(r < 1.0):
            raise DomainError(f"|lam| = {np.max(r)} must be < 1")


def disk_parametrize(p: DiskParams) -> GroupElement:
    """Matrix with b = e^{-i theta}/sqrt(1-|lam|^2), a = -lam* e^{i theta}/...,
    c = b*, d = a*; it maps the unit circle onto itself in the Mobius variable."""
    root = np.sqrt(1.0 - abs(p.lam) ** 2)
    eit = np.exp(1j * p.theta)
    a = -np.conj(p.lam) * eit / root
    b = np.conj(eit) / root
    return GroupElement(Mat2(np.conj(b), np.conj(a), a, b), 0.0, 0.0)


def is_disk_shaped(m: Mat2):
    """Per entry: c = b*, d = a* to 1e-10."""
    return (np.abs(m.c - np.conj(m.b)) <= 1e-10) & (np.abs(m.d - np.conj(m.a)) <= 1e-10)


def is_semigroup_admissible(l: GroupElement):
    """Per entry: each of the four matrix entries is real and nonnegative
    to REAL_TOL, so the transformed time stays real for every positive
    Mobius variable."""
    return reduce(operator.and_, ((np.abs(np.imag(v)) <= REAL_TOL) & (np.real(v) >= -REAL_TOL)
                                  for v in (l.a, l.b, l.c, l.d)))
