"""Test-only vector fields, their flow map, and a reference cutoff.

A rigid translation and a deforming sine field, both cut off by
`fracfilm.fields.plateau` and each given with its divergence, and the flow
map of the integrator that `pushforward_with_drift` uses.  The package's
checks need none of them.  `reference_plateau` is the cutoff evaluated at
every point, the form `plateau` must reproduce bit for bit.
"""

import numpy as np

from fracfilm import VectorField, plateau
from fracfilm.fields import _check_radii, _f_parts, _radial_parts
from fracfilm.measure import _integrate_flow


def reference_plateau(r, r_inner: float, r_outer: float):
    """`plateau` with its transition evaluated at every point and the
    derivatives masked to zero off the open annulus afterwards."""
    _check_radii(r_inner, r_outer)
    r = np.asarray(r, dtype=float)
    w = r_outer - r_inner
    t = np.clip((r - r_inner) / w, 0.0, 1.0)
    fa, fpa, fppa = _f_parts(1.0 - t)
    fb, fpb, fppb = _f_parts(t)
    D = fa + fb
    chi = fa / D
    Np, Npp = -fpa, fppa
    Dp, Dpp = fpb - fpa, fppb + fppa
    chi_t = (Np - chi * Dp) / D
    chi_tt = (Npp - 2.0 * chi_t * Dp - chi * Dpp) / D
    inside = (r <= r_inner) | (r >= r_outer)
    chi_t = np.where(inside, 0.0, chi_t)
    chi_tt = np.where(inside, 0.0, chi_tt)
    return chi, chi_t / w, chi_tt / w ** 2


def reference_cosine_bump_spatial(points, freq: float, r_inner: float, r_outer: float):
    """psi = cos(k x_1) chi(|x|), grad psi and D^2 psi from `reference_plateau`,
    the Hessian summed as full (npts, d, d) matrices term by term."""
    r, rhat = _radial_parts(points)
    chi, dchi, ddchi = reference_plateau(r, r_inner, r_outer)
    x1 = points[:, 0]
    c, s = np.cos(freq * x1), np.sin(freq * x1)
    psi = c * chi
    dpsi = c[:, None] * dchi[:, None] * rhat
    dpsi[:, 0] -= freq * s * chi
    npts, d = points.shape
    e1 = np.zeros((npts, d))
    e1[:, 0] = 1.0
    H = -(freq ** 2) * (c * chi)[:, None, None] * (e1[:, :, None] * e1[:, None, :])
    cross = e1[:, :, None] * rhat[:, None, :] + rhat[:, :, None] * e1[:, None, :]
    H += -freq * (s * dchi)[:, None, None] * cross
    rr = rhat[:, :, None] * rhat[:, None, :]
    radial = np.where(r > 0, dchi / np.where(r > 0, r, 1.0), 0.0)
    H += c[:, None, None] * (ddchi[:, None, None] * rr + radial[:, None, None] * (np.eye(d) - rr))
    return psi, dpsi, H


def translation_field(direction, r_inner: float, r_outer: float) -> VectorField:
    """eta(x) = a * chi(|x|): rigid translation by `direction` on the plateau."""
    a = np.atleast_1d(np.asarray(direction, dtype=float))

    def func(points):
        points = np.atleast_2d(points)
        r, _ = _radial_parts(points)
        chi, _, _ = plateau(r, r_inner, r_outer)
        return a[None, :] * chi[:, None]

    def divergence(points):
        # div(a chi) = a . grad chi = chi' (a . rhat)
        points = np.atleast_2d(points)
        r, rhat = _radial_parts(points)
        _, dchi, _ = plateau(r, r_inner, r_outer)
        return dchi * (rhat @ a)

    return VectorField(dim=len(a), func=func, divergence=divergence, support_radius=r_outer)


def sine_field(dim: int, r_inner: float, r_outer: float, freq: float = 0.5, axis: int = 0) -> VectorField:
    """eta(x) = e_axis * sin(freq * x_axis) * chi(|x|): a deforming field."""

    def func(points):
        points = np.atleast_2d(points)
        r, _ = _radial_parts(points)
        chi, _, _ = plateau(r, r_inner, r_outer)
        out = np.zeros_like(points)
        out[:, axis] = np.sin(freq * points[:, axis]) * chi
        return out

    def divergence(points):
        # d/dx_axis of sin(freq x_axis) chi
        points = np.atleast_2d(points)
        r, rhat = _radial_parts(points)
        chi, dchi, _ = plateau(r, r_inner, r_outer)
        x = points[:, axis]
        return freq * np.cos(freq * x) * chi + np.sin(freq * x) * dchi * rhat[:, axis]

    return VectorField(dim=dim, func=func, divergence=divergence, support_radius=r_outer)


def flow_map(eta: VectorField, t: float, points: np.ndarray) -> np.ndarray:
    """Integrate dX/dt = eta(X) from the given points over time t (|t| <= 1)."""
    y, _ = _integrate_flow(eta, t, np.atleast_2d(np.asarray(points, dtype=float)))
    return y
