"""Multiplier functions K(t, x | element) for every potential family, and
the frames of the solution-space lifts.

``multiplier`` reads the exponent coefficients A, B, C of one ``Frame``
evaluation (``coords.frame``), which holds the closed forms of the
solution family.  ``lift_frame`` writes the five lifts between the free
and the potential solution spaces as ``Frame``s too, so that a lift and a
symmetry are pulled back alike.  Every frame, group or lift, is
scalar-generic in t: evaluated once on a time jet, it gives the exact
d/dt of each field, which the registry's structure-equation checks
(``suites``) hold to the first-order equations that A, B, C, xi, f and t'
solve, so that a transcription slip in any closed form is caught.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .coords import SINGULAR_TOL, FamilySpec, Frame, Point, _above, frame
from .errors import DomainError, SingularTime
from .group import GroupElement


@dataclass(frozen=True)
class IntertwinerParams:
    """Constants (sigma, tau, lam) of the free-to-quadratic lift."""

    sigma: complex
    tau: complex = 0.0
    lam: complex = 0.0

    def __post_init__(self):
        if self.sigma == 0:
            raise DomainError("sigma must be nonzero")


def multiplier(l: GroupElement, z: Point, spec: FamilySpec):
    """K(t, x | element) = exp(n A + B sum_j x_j + C sum_j x_j^2) of the frame."""
    return frame(l, spec, z.t).multiplier(z.x)


def lift_frame(kind: str, spec: FamilySpec, params: IntertwinerParams = None):
    """The frame ``t -> Frame`` of one of the named solution-space lifts.

    f1/f2 lift free solutions into the linear family and phi1/phi2 invert
    them; K0, Niederer's map, lifts free solutions into the quadratic
    family with the constants ``params``, in u = e^{4 k omega t} with one
    reciprocal of u + lam.  A pullback through the frame
    (``solutions.PullbackFn``) is the lifted function.  The prefactors
    t^{-1/2} of f2/phi2 and sqrt(e^{2 k omega t}) (u + lam)^{-1/2} of K0
    enter A as principal logarithms.  The cubic coefficients of phi1/phi2
    come from inverting the forward lifts: they must be (2/3) k^3 beta^2
    (and its 1/t^3 mirror) for the round trip to collapse to 1.
    """
    if kind not in ("f1", "f2", "phi1", "phi2", "K0"):
        raise DomainError(f"unknown map kind {kind!r}")
    if kind == "K0" and params is None:
        raise DomainError("the K0 lift needs intertwiner constants")
    k, a, b, omega, p = spec.k, spec.alpha, spec.beta, spec.omega, params
    k2b, cub, kw = k * k * b, k ** 3 * b ** 2, k * omega

    def lift(t):
        if kind == "f1":
            return Frame(t, 1.0, -k2b * t * t, (-k * a) * t + cub / 3.0 * t ** 3, (-k * b) * t, 0.0)
        if kind == "phi1":
            return Frame(t, 1.0, k2b * t * t, (k * a) * t + (2.0 / 3.0) * cub * t ** 3, (k * b) * t, 0.0)
        if kind == "K0":
            u = jets.exp(4.0 * kw * t)
            denom = u + p.lam
            if np.min(np.abs(jets.value_of(denom))) < SINGULAR_TOL:
                raise SingularTime("u + lam vanishes at a requested point")
            inv, rootu = jets.reciprocal(denom), jets.exp(2.0 * kw * t)
            A = (0.5 * (jets.log(rootu) - jets.log(denom))
                 - p.tau ** 2 / (4.0 * omega) * inv - k * a * t)
            return Frame(-(p.sigma ** 2) / (4.0 * kw) * inv, p.sigma * rootu * inv,
                         -p.sigma * p.tau / (2.0 * omega) * inv, A,
                         p.tau * rootu * inv, omega * (p.lam - u) * inv / 2.0)
        _above(t, 0.0, "t")
        r, log_root = jets.reciprocal(t), -0.5 * jets.log(t)  # log t^{-1/2}
        if kind == "f2":
            A = log_root + (-k * a) * t + cub / 12.0 * t ** 3
            return Frame(-r, r, -k2b * t, A, (-k * b / 2.0) * t, (-0.25 / k) * r)
        A = log_root + (-k * a) * r - (2.0 / 3.0) * cub * r ** 3
        return Frame(-r, r, k2b * r * r, A, (-k * b) * r * r, (-0.25 / k) * r)

    return lift
