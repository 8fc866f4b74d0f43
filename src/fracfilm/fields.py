"""Smooth compactly supported test fields with closed-form derivatives.

Everything here is built from the standard exp(-1/t) transition, so the
fields are genuinely C-infinity with analytic first and second derivatives;
the push-forward Jacobians and the weak-form Hessian bounds never fall back
to finite differencing.  The weak-form test function is stored in its
separable form a(t) psi(x), and its Hessian bound is closed-form in the
cutoff's radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import VectorField


def _f_parts(t):
    """f(t) = exp(-1/t) for t > 0 (0 otherwise) and its first two derivatives,
    from one exponential."""
    f, fp, fpp = np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
    m = t > 1e-12
    tm = t[m]
    e = np.exp(-1.0 / tm)
    f[m] = e
    fp[m] = e / tm ** 2
    fpp[m] = e * (1.0 - 2.0 * tm) / tm ** 4
    return f, fp, fpp


# Extremes on [0, 1] of the transition F(t) = f(1-t) / (f(1-t) + f(t)) that
# `plateau` stretches over its annulus: max|F'| = 2 exactly, at t = 1/2, and
# max|F''| as a 20 001-point probe reads it.  The true max|F''| lies 2.4e-8
# (2.5e-9 relative) above the literal, inside the 1e-7 safety factor of the
# Hessian bound.
_TRANSITION_SLOPE_MAX = 2.0
_TRANSITION_CURVATURE_MAX = 9.841042277489374


def _check_radii(r_inner: float, r_outer: float) -> None:
    if not (0 <= r_inner < r_outer):
        raise ValueError(f"need 0 <= r_inner < r_outer, got {(r_inner, r_outer)}")


def plateau(r, r_inner: float, r_outer: float):
    """C-infinity cutoff chi(r): 1 for r <= r_inner, 0 for r >= r_outer.

    Returns ``(chi, dchi_dr, d2chi_dr2)`` evaluated elementwise.
    """
    _check_radii(r_inner, r_outer)
    r = np.asarray(r, dtype=float)
    w = r_outer - r_inner
    t = np.clip((r - r_inner) / w, 0.0, 1.0)
    fa, fpa, fppa = _f_parts(1.0 - t)
    fb, fpb, fppb = _f_parts(t)
    D = fa + fb
    chi = fa / D
    # chi = N/D with N = f(1-t): N' = -f'(1-t), N'' = f''(1-t)
    Np, Npp = -fpa, fppa
    Dp, Dpp = fpb - fpa, fppb + fppa
    chi_t = (Np - chi * Dp) / D
    chi_tt = (Npp - 2.0 * chi_t * Dp - chi * Dpp) / D
    inside = (r <= r_inner) | (r >= r_outer)
    chi_t = np.where(inside, 0.0, chi_t)
    chi_tt = np.where(inside, 0.0, chi_tt)
    return chi, chi_t / w, chi_tt / w ** 2


def _radial_parts(points):
    r = np.linalg.norm(points, axis=1)
    safe = np.where(r > 0, r, 1.0)
    rhat = points / safe[:, None]
    rhat[r == 0] = 0.0
    return r, rhat


def contraction_field(dim: int, r_inner: float, r_outer: float, rate: float = 1.0) -> VectorField:
    """eta(x) = -rate * x * chi(|x|): contracts toward the origin on the plateau."""

    def func(points):
        points = np.atleast_2d(points)
        r, _ = _radial_parts(points)
        chi, _, _ = plateau(r, r_inner, r_outer)
        return -rate * points * chi[:, None]

    def jac(points):
        points = np.atleast_2d(points)
        npts, d = points.shape
        r, rhat = _radial_parts(points)
        chi, dchi, _ = plateau(r, r_inner, r_outer)
        eye = np.tile(np.eye(d), (npts, 1, 1))
        outer = points[:, :, None] * rhat[:, None, :]
        return -rate * (chi[:, None, None] * eye + dchi[:, None, None] * outer)

    return VectorField(dim=dim, func=func, jacobian=jac, support_radius=r_outer)


def _symmetric_spectral_norm(mats: np.ndarray) -> np.ndarray:
    """Spectral norm, the largest |eigenvalue|, of each symmetric matrix in a
    stack of shape (..., d, d).  Closed form for d <= 2: |h| in 1D, and
    |a + c|/2 + hypot((a - c)/2, b) for [[a, b], [b, c]]; `eigvalsh` above."""
    d = mats.shape[-1]
    if d == 1:
        return np.abs(mats[..., 0, 0])
    if d == 2:
        a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
        return np.abs(a + c) / 2 + np.hypot((a - c) / 2, b)
    return np.abs(np.linalg.eigvalsh(mats)).max(axis=-1)


@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """Separable smooth test function phi(t, x) = a(t) psi(x), compact in x.

    ``time_factor(t)`` is a(t).  ``spatial(points, hessian=False)`` returns
    psi, grad psi and, when asked, D^2 psi (else None) at an (npts, dim)
    array of points; `value`, `grad` and `hessian` scale these by a(t).
    ``hessian_sup`` is a certified bound >= sup ||D^2 phi||, validated
    against a sampled estimate on construction.
    """

    dim: int
    time_factor: Callable
    spatial: Callable
    hessian_sup: float
    support_radius: float

    def value(self, t, points):
        psi, _, _ = self.spatial(np.atleast_2d(points))
        return self.time_factor(t) * psi

    def grad(self, t, points):
        _, dpsi, _ = self.spatial(np.atleast_2d(points))
        return self.time_factor(t) * dpsi

    def hessian(self, t, points):
        _, _, d2psi = self.spatial(np.atleast_2d(points), hessian=True)
        return self.time_factor(t) * d2psi

    def sampled_hessian_norm(self) -> float:
        """Largest spectral norm of D^2 phi at 2048 seeded points of the
        support's bounding box and four times.  ||D^2 phi(t, x)|| =
        |a(t)| ||D^2 psi(x)||, so D^2 psi is evaluated once and its largest
        norm is scaled by the largest |a| over the times."""
        rng = np.random.default_rng(3)
        pts = rng.uniform(-self.support_radius, self.support_radius, size=(2048, self.dim))
        _, _, d2psi = self.spatial(pts, hessian=True)
        a_max = max(abs(self.time_factor(t)) for t in (0.0, 0.3, 0.7, 1.3))
        return float(_symmetric_spectral_norm(d2psi).max()) * a_max

    def __post_init__(self):
        worst = self.sampled_hessian_norm()
        if self.hessian_sup < worst:
            raise ValueError(
                f"declared Hessian bound {self.hessian_sup} below sampled estimate {worst}"
            )


def cosine_bump_test_function(
    dim: int,
    amplitude: float = 0.1,
    freq: float = 2.0,
    r_inner: float = 10.0,
    r_outer: float = 16.0,
) -> SpaceTimeTestFunction:
    """phi(t, x) = a(t) cos(k x_1) chi(|x|) with a(t) = A/(1 + t).

    The time factor is smooth and order-one on the horizons used by the
    checks; spatial compact support comes from the plateau cutoff.
    """
    _check_radii(r_inner, r_outer)

    def time_factor(t):
        return 1.0 / (1.0 + t) * amplitude

    def spatial(points, hessian=False):
        r, rhat = _radial_parts(points)
        chi, dchi, ddchi = plateau(r, r_inner, r_outer)
        x1 = points[:, 0]
        c, s = np.cos(freq * x1), np.sin(freq * x1)
        psi = c * chi
        dpsi = c[:, None] * dchi[:, None] * rhat
        dpsi[:, 0] -= freq * s * chi
        if not hessian:
            return psi, dpsi, None
        npts, d = points.shape
        e1 = np.zeros((npts, d))
        e1[:, 0] = 1.0
        H = np.zeros((npts, d, d))
        # cos term: -k^2 cos chi e1 x e1 - k sin dchi (e1 x rhat + rhat x e1)
        H += -(freq ** 2) * (c * chi)[:, None, None] * (e1[:, :, None] * e1[:, None, :])
        cross = e1[:, :, None] * rhat[:, None, :] + rhat[:, :, None] * e1[:, None, :]
        H += -freq * (s * dchi)[:, None, None] * cross
        # chi term: cos [ ddchi rhat x rhat + (dchi/r)(I - rhat x rhat) ]
        rr = rhat[:, :, None] * rhat[:, None, :]
        eye = np.tile(np.eye(d), (npts, 1, 1))
        safe_r = np.where(r > 0, r, 1.0)
        radial = (dchi / safe_r)
        radial = np.where(r > 0, radial, 0.0)  # dchi = 0 near 0: exact zero
        H += c[:, None, None] * (ddchi[:, None, None] * rr + radial[:, None, None] * (eye - rr))
        return psi, dpsi, H

    # sup||D^2 phi|| <= A (k^2 + 2 k max|chi'| + max(|chi''|, |chi'|/r_inner)),
    # with max|chi'| = max|F'|/w and max|chi''| = max|F''|/w^2
    w = r_outer - r_inner
    dchi_max = _TRANSITION_SLOPE_MAX / w
    ddchi_max = _TRANSITION_CURVATURE_MAX / w ** 2
    bound = amplitude * (
        freq ** 2
        + 2.0 * freq * dchi_max
        + ddchi_max
        + dchi_max / max(r_inner, 1e-9)
    )
    return SpaceTimeTestFunction(
        dim=dim,
        time_factor=time_factor,
        spatial=spatial,
        hessian_sup=float(bound) * 1.0000001,
        support_radius=r_outer,
    )
