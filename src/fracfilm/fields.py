"""Smooth compactly supported test fields with closed-form derivatives.

Everything here is built from the standard exp(-1/t) transition, so the
fields are genuinely C-infinity with analytic first and second derivatives;
the push-forward Jacobians and the weak-form Hessian bounds never fall back
to finite differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import VectorField


def _f(t):
    out = np.zeros_like(t)
    m = t > 1e-12
    out[m] = np.exp(-1.0 / t[m])
    return out


def _fp(t):
    out = np.zeros_like(t)
    m = t > 1e-12
    out[m] = np.exp(-1.0 / t[m]) / t[m] ** 2
    return out


def _fpp(t):
    out = np.zeros_like(t)
    m = t > 1e-12
    out[m] = np.exp(-1.0 / t[m]) * (1.0 - 2.0 * t[m]) / t[m] ** 4
    return out


def plateau(r, r_inner: float, r_outer: float):
    """C-infinity cutoff chi(r): 1 for r <= r_inner, 0 for r >= r_outer.

    Returns ``(chi, dchi_dr, d2chi_dr2)`` evaluated elementwise.
    """
    if not (0 <= r_inner < r_outer):
        raise ValueError(f"need 0 <= r_inner < r_outer, got {(r_inner, r_outer)}")
    r = np.asarray(r, dtype=float)
    w = r_outer - r_inner
    t = np.clip((r - r_inner) / w, 0.0, 1.0)
    fa, fb = _f(1.0 - t), _f(t)
    fpa, fpb = _fp(1.0 - t), _fp(t)
    fppa, fppb = _fpp(1.0 - t), _fpp(t)
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


@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """Separable smooth test function phi(t, x) = a(t) psi(x), compact in x.

    Carries the analytic gradient and Hessian plus a certified
    bound ``hessian_sup`` >= sup ||D^2 phi||; the bound is validated against
    a sampled estimate on construction.
    """

    dim: int
    value: Callable
    grad: Callable
    hessian: Callable
    hessian_sup: float
    support_radius: float

    def __post_init__(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-self.support_radius, self.support_radius, size=(2048, self.dim))
        worst = 0.0
        for t in (0.0, 0.3, 0.7, 1.3):
            H = self.hessian(t, pts)
            worst = max(worst, float(np.max(np.linalg.norm(H, axis=(1, 2), ord=2))))
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
    time_scale: float = 1.0,
) -> SpaceTimeTestFunction:
    """phi(t, x) = a(t) A cos(k x_1) chi(|x|) with a(t) = 1/(1 + t/ts).

    The time factor is smooth and order-one on the horizons used by the
    checks; spatial compact support comes from the plateau cutoff.
    """

    def a(t):
        return 1.0 / (1.0 + t / time_scale)

    def psi_parts(points):
        r, rhat = _radial_parts(points)
        chi, dchi, ddchi = plateau(r, r_inner, r_outer)
        x1 = points[:, 0]
        return r, rhat, chi, dchi, ddchi, np.cos(freq * x1), np.sin(freq * x1)

    def value(t, points):
        points = np.atleast_2d(points)
        _, _, chi, _, _, c, _ = psi_parts(points)
        return a(t) * amplitude * c * chi

    def grad(t, points):
        points = np.atleast_2d(points)
        _, rhat, chi, dchi, _, c, s = psi_parts(points)
        out = c[:, None] * dchi[:, None] * rhat
        out[:, 0] -= freq * s * chi
        return a(t) * amplitude * out

    def hessian(t, points):
        points = np.atleast_2d(points)
        npts, d = points.shape
        r, rhat, chi, dchi, ddchi, c, s = psi_parts(points)
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
        return a(t) * amplitude * H

    # sup||D^2 phi|| <= A (k^2 + 2 k max|chi'| + max(|chi''|, |chi'|/r_inner))
    rprobe = np.linspace(r_inner, r_outer, 20001)
    _, dchi, ddchi = plateau(rprobe, r_inner, r_outer)
    bound = amplitude * (
        freq ** 2
        + 2.0 * freq * np.max(np.abs(dchi))
        + np.max(np.abs(ddchi))
        + np.max(np.abs(dchi)) / max(r_inner, 1e-9)
    )
    return SpaceTimeTestFunction(
        dim=dim,
        value=value,
        grad=grad,
        hessian=hessian,
        hessian_sup=float(bound) * 1.0000001,
        support_radius=r_outer,
    )
