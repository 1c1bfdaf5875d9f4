"""Deterministic random generators for group elements and test points.

Elements are produced as exponentials of small traceless matrices, which
are unimodular by construction and stay near the unit element.  Nearness
matters: the quadratic family is only a local group (principal branches
wrap under large rotations), and the admissible semigroup needs
nonnegative entries, so every sampler bounds its throw.

Every sampler takes numpy's ``size``: ``None`` draws one element with
scalar entries, a size draws a batch of elements whose entries are arrays
of that shape.  The generator calls are the same whatever the size, so a
batch depends only on the generator state and the size.
"""

from __future__ import annotations

import numpy as np

from .group import DiskParams, GroupElement, Mat2, disk_parametrize


def _stacked(n, size):
    """Shape of n stacked draws, each of numpy's ``size``."""
    return (n,) if size is None else (n, *np.atleast_1d(size))


def _expm_traceless(p, q, r):
    """Entries (c, d, a, b) of exp([[p, q], [r, -p]]) in closed form, per
    entry of the broadcast inputs; always unimodular."""
    d = np.sqrt(np.asarray(p * p + q * r, dtype=complex))
    small = np.abs(d) < 1e-30
    ch = np.where(small, 1.0, np.cosh(d))[()]
    s = np.where(small, 1.0, np.sinh(d) / np.where(small, 1.0, d))[()]
    return ch + s * p, s * q, s * r, ch + s * -p


def random_sl2r(rng, scale=0.35, size=None) -> Mat2:
    p, q, r = rng.uniform(-scale, scale, _stacked(3, size))
    return Mat2(*np.real(_expm_traceless(p, q, r)))


def random_sl2c(rng, scale=0.3, size=None) -> Mat2:
    p, q, r = (rng.uniform(-scale, scale, _stacked(3, size))
               + 1j * rng.uniform(-scale, scale, _stacked(3, size)))
    return Mat2(*_expm_traceless(p, q, r))


def random_element(rng, scale=0.35, translation=0.8, complex_entries=False,
                   size=None) -> GroupElement:
    if complex_entries:
        m = random_sl2c(rng, scale, size)
        mu, nu = (rng.uniform(-translation, translation, size)
                  + 1j * rng.uniform(-translation, translation, size) for _ in range(2))
    else:
        m = random_sl2r(rng, scale, size)
        mu, nu = rng.uniform(-translation, translation, _stacked(2, size))
    return GroupElement(m, mu, nu)


def random_admissible_element(rng, scale=0.3, translation=0.5, size=None) -> GroupElement:
    """Nonnegative-entry matrix (semigroup of the real oscillator family)."""
    p = rng.uniform(-scale, scale, size)
    q, r = rng.uniform(0.0, scale, _stacked(2, size))
    m = Mat2(*np.real(_expm_traceless(p, q, r)))
    mu, nu = rng.uniform(-translation, translation, _stacked(2, size))
    return GroupElement(m, mu, nu)


def random_disk_element(rng, scale=0.3, translation=0.5, size=None) -> GroupElement:
    """Circle-preserving element with the reality pairing mu* = -nu.

    Rotation and disk displacement are both bounded by ``scale`` so that
    composed pairs stay inside the principal branch window of the periodic
    time variable.
    """
    theta = rng.uniform(-scale, scale, size)
    lam = rng.uniform(0.0, scale, size) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
    el = disk_parametrize(DiskParams(theta, lam))
    mu = rng.uniform(-translation, translation, size) + 1j * rng.uniform(-translation, translation, size)
    return GroupElement(el.m, mu, -np.conj(mu))


_SHEARS = np.array([[[1, 0], [1, 1]], [[1, 1], [0, 1]], [[0, -1], [1, 0]]])


def random_modular_matrix(rng, size=None) -> Mat2:
    """Integer unimodular matrix, a product of four shear generators."""
    std = np.eye(2, dtype=int)
    for _ in range(4):
        std = std @ _SHEARS[rng.integers(0, 3, size)]
    # standard [[p, q], [r, s]] maps to the (c, d, a, b) layout as-is
    return Mat2(*(std[..., i, j][()] for i in (0, 1) for j in (0, 1)))


def element_for_family(rng, spec, scale=None, translation=None, size=None) -> GroupElement:
    """An in-domain random element for the spec's family, drawn by that
    family's sampler: admissible elements for the oscillator family at real
    k omega, disk elements at imaginary k omega, translation-free
    ``random_sl2r`` for the scale-invariant family and ``random_element``
    for every other.  A bound left ``None`` takes that sampler's default."""
    bounds = {name: v for name, v in (("scale", scale), ("translation", translation))
              if v is not None}
    if spec.family == "inverse_quadratic":
        bounds.pop("translation", None)
        return GroupElement(random_sl2r(rng, **bounds, size=size), 0.0, 0.0)
    if spec.family == "quadratic":
        sampler = random_admissible_element if spec.komega_is_real else random_disk_element
        return sampler(rng, **bounds, size=size)
    return random_element(rng, **bounds, size=size)
