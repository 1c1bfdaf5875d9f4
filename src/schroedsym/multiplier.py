"""Multiplier functions K(t, x | element) for every potential family, and
the frames of the solution-space lifts.

``multiplier`` reads the exponent coefficients A, B, C of one ``Frame``
evaluation (``coords.frame``), which holds the closed forms of the
solution family.  ``lift_frame`` writes the five lifts between the free
and the potential solution spaces as ``Frame``s too, so that a lift and a
symmetry are pulled back alike.  An independent Runge-Kutta oracle
re-derives A, B, C from their first-order structure equations, reading
only xi and f of the frame, so that any transcription slip in the closed
forms is caught numerically.
The oracle is RK4 with step doubling and reports its own error estimate;
an oracle check's value is the defect against the closed forms plus that
estimate, so integration error cannot pass for agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .coords import (INVERSE_QUADRATIC, QUADRATIC, SINGULAR_TOL, FamilySpec, Frame, Point,
                     _above, frame)
from .errors import DomainError, IntegrationError, SingularTime
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


# -- structure-equation oracle -------------------------------------------------

# first and smallest RK4 step, and the error estimate that ends the doubling
ORACLE_START_STEP = 1e-2
ORACLE_MIN_STEP = 1e-4
ORACLE_EST_TOL = 1e-12


def _forcing(spec: FamilySpec, xi, f):
    """Source terms k (xi^2 V(xi x + f) - V(x)) of the structure equations,
    as the coefficients of 1, x and x^2."""
    k = spec.k
    x2 = xi * xi
    g0 = spec.alpha * k * (x2 - 1.0)
    if spec.family == QUADRATIC:
        w2 = k * spec.omega ** 2
        return g0 + w2 * x2 * f * f, 2.0 * w2 * x2 * xi * f, w2 * (x2 * x2 - 1.0)
    kb = k * spec.beta
    return g0 + kb * x2 * f, kb * (x2 * xi - 1.0), 0.0


def _rk4_sweep(k, start, forcing, widths, stride):
    """Fixed-step RK4 for A, B, C across every grid interval.

    ``forcing`` holds, per interval, the source terms on that interval's
    shared stage grid; a step spans 2*stride grid spacings and reads its
    midpoint stage at +stride.  Returns the (A, B, C) rows at the grid
    times; overflow shows as inf or nan, never as an exception.
    """
    k4 = 4.0 * k
    A, B, C = start
    rows = [start]
    for (gA, gB, gC), width in zip(forcing, widths):
        nstep = (len(gA) - 1) // (2 * stride)
        h = width / nstep
        h2, h6 = h / 2.0, h / 6.0
        for j in range(0, len(gA) - 1, 2 * stride):
            jm, je = j + stride, j + 2 * stride
            a1 = k * (B * B + 2.0 * C) + gA[j]
            b1 = k4 * B * C + gB[j]
            c1 = k4 * C * C + gC[j]
            B2, C2 = B + h2 * b1, C + h2 * c1
            a2 = k * (B2 * B2 + 2.0 * C2) + gA[jm]
            b2 = k4 * B2 * C2 + gB[jm]
            c2 = k4 * C2 * C2 + gC[jm]
            B3, C3 = B + h2 * b2, C + h2 * c2
            a3 = k * (B3 * B3 + 2.0 * C3) + gA[jm]
            b3 = k4 * B3 * C3 + gB[jm]
            c3 = k4 * C3 * C3 + gC[jm]
            B4, C4 = B + h * b3, C + h * c3
            a4 = k * (B4 * B4 + 2.0 * C4) + gA[je]
            b4 = k4 * B4 * C4 + gB[je]
            c4 = k4 * C4 * C4 + gC[je]
            A = A + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            B = B + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            C = C + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        rows.append((A, B, C))
    return np.array(rows).T


def ode_oracle_coefficients(l: GroupElement, spec: FamilySpec, t_grid):
    """Re-derive A, B, C by integrating their structure equations.

    Starts from the closed-form values at the earliest grid point and
    integrates RK4 with step doubling (Richardson extrapolation): the grid
    is swept at n and at 2n steps per interval, and |fine - coarse|/15
    estimates the error of the fine sweep.  n starts at ORACLE_START_STEP
    and doubles until the estimate is at most ORACLE_EST_TOL, stopping at
    ORACLE_MIN_STEP, where a non-finite value raises IntegrationError.  Both
    sweeps read one frame evaluation on the shared stage grid and take only
    xi and f from it, so the closed forms enter only as the start value.
    When n has doubled, the coarse sweep at n is the last level's fine
    sweep (the same steps, stage times and forcing), so it is not run again.
    Returns ((A, B, C), estimate): the fine-sweep arrays at the grid times
    and the error estimate.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise DomainError("t_grid must be strictly increasing with >= 2 points")
    if spec.family == INVERSE_QUADRATIC:
        raise DomainError(f"no structure equations for family {spec.family!r}")
    widths = np.diff(t_grid).tolist()
    n = int(np.ceil(max(widths) / ORACLE_START_STEP))
    n_last = int(np.ceil(max(widths) / ORACLE_MIN_STEP))
    # overflow to inf is the divergence signal, so silence the warning
    with np.errstate(over="ignore", invalid="ignore"):
        fine, n_fine = None, 0  # the last level's fine sweep and its n
        while True:
            n = min(n, n_last)
            # stage times of both sweeps: 4n + 1 per interval
            ts = np.linspace(t_grid[:-1], t_grid[1:], 4 * n + 1, axis=1)
            fr = frame(l, spec, ts)
            # Python scalars of the frame's dtype: real families step in floats
            start = (fr.A[0, 0].item(), fr.B[0, 0].item(), fr.C[0, 0].item())
            forcing = list(zip(*(np.broadcast_to(g, ts.shape).tolist()
                                 for g in _forcing(spec, fr.xi, fr.f))))
            # after a doubling, the coarse sweep is the last level's fine one
            coarse = fine if n == 2 * n_fine else _rk4_sweep(spec.k, start, forcing, widths, 2)
            fine, n_fine = _rk4_sweep(spec.k, start, forcing, widths, 1), n
            estimate = float(np.abs(fine - coarse).max()) / 15.0
            finite = np.isfinite(estimate)
            if n == n_last and not finite:
                raise IntegrationError(
                    f"integrator diverged on [{t_grid[0]}, {t_grid[-1]}] at the smallest step")
            if n == n_last or (finite and estimate <= ORACLE_EST_TOL):
                return tuple(fine), estimate
            n *= 2
