"""Smooth compactly supported test fields with closed-form derivatives.

Everything here is built from the standard exp(-1/t) transition, so the
fields are genuinely C-infinity with analytic first and second derivatives;
the push-forward's divergences and the weak-form Hessian bounds never fall
back to finite differencing.  The weak-form test function `CosineBump` is kept
in its separable form a(t) psi(x), and its Hessian bound is closed-form in
the cutoff's radii.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import VectorField, _roberts_points


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

    Returns ``(chi, dchi_dr, d2chi_dr2)`` evaluated elementwise.  The
    exp(-1/t) transition is evaluated only on the open annulus; off it the
    values are the exact 1 or 0 and zero derivatives that the transition
    gives there.
    """
    _check_radii(r_inner, r_outer)
    r = np.asarray(r, dtype=float)
    w = r_outer - r_inner
    below = r <= r_inner
    chi = np.where(below, 1.0, 0.0)
    dchi, ddchi = np.zeros_like(r), np.zeros_like(r)
    # the complement of the plateaus, so that a nan radius stays nan
    ring = ~(below | (r >= r_outer))
    t = (r[ring] - r_inner) / w
    fa, fpa, fppa = _f_parts(1.0 - t)
    fb, fpb, fppb = _f_parts(t)
    D = fa + fb
    c = fa / D
    # chi = N/D with N = f(1-t): N' = -f'(1-t), N'' = f''(1-t)
    Np, Npp = -fpa, fppa
    Dp, Dpp = fpb - fpa, fppb + fppa
    chi_t = (Np - c * Dp) / D
    chi_tt = (Npp - 2.0 * chi_t * Dp - c * Dpp) / D
    chi[ring] = c
    dchi[ring] = chi_t / w
    ddchi[ring] = chi_tt / w ** 2
    return chi, dchi, ddchi


def _radial_parts(points):
    r = np.linalg.norm(points, axis=1)
    safe = np.where(r > 0, r, 1.0)
    rhat = points / safe[:, None]
    rhat[r == 0] = 0.0
    return r, rhat


def contraction_field(dim: int, r_inner: float, r_outer: float) -> VectorField:
    """eta(x) = -x * chi(|x|): contracts toward the origin on the plateau."""

    def func(points):
        points = np.atleast_2d(points)
        r, _ = _radial_parts(points)
        chi, _, _ = plateau(r, r_inner, r_outer)
        return -points * chi[:, None]

    def divergence(points):
        # div(-x chi) = -(d chi + x . grad chi), and x . grad chi = r chi'
        points = np.atleast_2d(points)
        r, _ = _radial_parts(points)
        chi, dchi, _ = plateau(r, r_inner, r_outer)
        return -(dim * chi + r * dchi)

    return VectorField(dim=dim, func=func, divergence=divergence, support_radius=r_outer)


@dataclass(frozen=True)
class CosineBump:
    """The weak-form test function phi(t, x) = a(t) psi(x), compact in x, with
    a(t) = A/(1 + t) and psi = cos(k x_1) chi(|x|) for the plateau cutoff chi
    over the annulus (r_inner, r_outer).

    ``time_factor(t)`` is a(t).  ``spatial(points)`` returns psi and grad psi
    at an (npts, dim) array of points, and ``hessian_norm(points)`` the
    spectral norm of D^2 psi there.  ``hessian_sup`` is a closed-form bound
    >= sup ||D^2 phi||, checked on construction against its maximum over a
    fixed point set.
    The time factor is smooth and order-one on the horizons used by the
    checks.
    """

    dim: int
    r_inner: float
    r_outer: float
    amplitude: float = 0.1
    freq: float = 2.0

    def __post_init__(self):
        _check_radii(self.r_inner, self.r_outer)
        for name in ("amplitude", "freq"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        worst = self.sampled_hessian_norm()
        if self.hessian_sup < worst:
            raise ValueError(
                f"declared Hessian bound {self.hessian_sup} below sampled estimate {worst}"
            )

    @property
    def support_radius(self) -> float:
        return self.r_outer

    @property
    def hessian_sup(self) -> float:
        # sup||D^2 phi|| <= A (k^2 + 2 k max|chi'| + max(|chi''|, |chi'|/r_inner)),
        # with max|chi'| = max|F'|/w and max|chi''| = max|F''|/w^2
        w = self.r_outer - self.r_inner
        dchi_max = _TRANSITION_SLOPE_MAX / w
        ddchi_max = _TRANSITION_CURVATURE_MAX / w ** 2
        bound = self.amplitude * (
            self.freq ** 2
            + 2.0 * self.freq * dchi_max
            + ddchi_max
            + dchi_max / max(self.r_inner, 1e-9)
        )
        return float(bound) * 1.0000001

    def time_factor(self, t):
        return 1.0 / (1.0 + t) * self.amplitude

    def _parts(self, points):
        """The unit radial vector, cos and sin of k x_1, and chi, chi', chi''."""
        r, rhat = _radial_parts(points)
        kx1 = self.freq * points[:, 0]
        return (r, rhat, np.cos(kx1), np.sin(kx1)) + plateau(r, self.r_inner, self.r_outer)

    def spatial(self, points):
        _, rhat, c, s, chi, dchi, _ = self._parts(points)
        dpsi = c[:, None] * dchi[:, None] * rhat
        dpsi[:, 0] -= self.freq * s * chi
        return c * chi, dpsi

    def hessian_norm(self, points):
        """||D^2 psi|| at each point from scalar fields: with c, s = cos, sin of
        k x_1, rho = chi'/r and r the unit radial vector, D^2 psi =
        c [chi'' rr^T + rho (I - rr^T)] - k^2 c chi e1 e1^T - k s chi' (e1 r^T +
        r e1^T).  That is c rho off span{e1, r} and the 2 x 2 block m on it,
        for r = p e1 + sigma u with u orthogonal to e1; using p^2 + sigma^2 = 1
        keeps chi'' and rho apart where the block's diagonal would cancel them."""
        r, rhat, c, s, chi, dchi, ddchi = self._parts(points)
        rho = np.where(r > 0, dchi / np.where(r > 0, r, 1.0), 0.0)  # dchi = 0 near 0
        gamma, delta = -(self.freq ** 2) * (c * chi), -self.freq * (s * dchi)
        p, sigma_sq = rhat[:, 0], np.sum(rhat[:, 1:] ** 2, axis=1)
        m11 = c * (ddchi * p ** 2 + rho * sigma_sq) + (gamma + delta * (2.0 * p))
        if self.dim == 1:
            return np.abs(m11)
        m12 = np.sqrt(sigma_sq) * (c * (ddchi - rho) * p + delta)
        m22 = c * (ddchi * sigma_sq + rho * p ** 2)
        norm = np.abs(m11 + m22) / 2 + np.hypot((m11 - m22) / 2, m12)
        return norm if self.dim == 2 else np.maximum(norm, np.abs(c * rho))

    def sampled_hessian_norm(self) -> float:
        """Largest spectral norm of D^2 phi at the first 2048 points of the
        Roberts R_d sequence, scaled to the support's bounding box.
        ||D^2 phi(t, x)|| = a(t) ||D^2 psi(x)||, and a(t) = A/(1 + t) is
        largest at t = 0, where it is A."""
        pts = _roberts_points(2048, self.dim) * (2.0 * self.support_radius) - self.support_radius
        return float(self.hessian_norm(pts.T).max()) * self.amplitude
