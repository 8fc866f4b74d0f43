"""Test-only vector fields and their flow map.

A rigid translation and a deforming sine field, both cut off by
`fracfilm.fields.plateau`, and the flow map of the integrator that
`pushforward_with_drift` uses.  The package's checks need none of them.
"""

import numpy as np

from fracfilm import VectorField, plateau
from fracfilm.fields import _radial_parts
from fracfilm.measure import _integrate_flow


def translation_field(direction, r_inner: float, r_outer: float) -> VectorField:
    """eta(x) = a * chi(|x|): rigid translation by `direction` on the plateau."""
    a = np.atleast_1d(np.asarray(direction, dtype=float))

    def func(points):
        points = np.atleast_2d(points)
        r, _ = _radial_parts(points)
        chi, _, _ = plateau(r, r_inner, r_outer)
        return a[None, :] * chi[:, None]

    def jac(points):
        points = np.atleast_2d(points)
        r, rhat = _radial_parts(points)
        _, dchi, _ = plateau(r, r_inner, r_outer)
        return a[None, :, None] * (dchi[:, None] * rhat)[:, None, :]

    return VectorField(dim=len(a), func=func, jacobian=jac, support_radius=r_outer)


def sine_field(dim: int, r_inner: float, r_outer: float, freq: float = 0.5, axis: int = 0) -> VectorField:
    """eta(x) = e_axis * sin(freq * x_axis) * chi(|x|): a deforming field."""

    def func(points):
        points = np.atleast_2d(points)
        r, _ = _radial_parts(points)
        chi, _, _ = plateau(r, r_inner, r_outer)
        out = np.zeros_like(points)
        out[:, axis] = np.sin(freq * points[:, axis]) * chi
        return out

    def jac(points):
        points = np.atleast_2d(points)
        npts, d = points.shape
        r, rhat = _radial_parts(points)
        chi, dchi, _ = plateau(r, r_inner, r_outer)
        s = np.sin(freq * points[:, axis])
        c = np.cos(freq * points[:, axis])
        out = np.zeros((npts, d, d))
        out[:, axis, :] = s[:, None] * dchi[:, None] * rhat
        out[:, axis, axis] += freq * c * chi
        return out

    return VectorField(dim=dim, func=func, jacobian=jac, support_radius=r_outer)


def flow_map(eta: VectorField, t: float, points: np.ndarray) -> np.ndarray:
    """Integrate dX/dt = eta(X) from the given points over time t (|t| <= 1)."""
    y, _ = _integrate_flow(eta, t, np.atleast_2d(np.asarray(points, dtype=float)), with_jacobian=False)
    return y
