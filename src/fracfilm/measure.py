"""Discrete probability densities and measure-level functionals.

A GridDensity is the nonnegative unit-mass grid function standing in for an
absolutely continuous probability measure on the box.  This module carries
the functionals attached to it (second moment, entropy, the entropy lower
bound), the heat semigroup, and push-forward along the flow of a smooth
compactly supported vector field.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridMismatchError, MassDriftError
from .spectral import PeriodicGrid, apply_multiplier

MASS_TOL = 1e-12
_HEAT_NEG_FLOOR = 1e-13
_PUSHFORWARD_WARN = 1e-6
_PUSHFORWARD_FAIL = 1e-3


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative grid function with unit mass h^d * sum(values) = 1."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"density shape {v.shape} does not match grid {self.grid.shape}"
            )
        if np.min(v) < 0:
            raise ValueError(f"density has negative values (min {np.min(v):.3e})")
        object.__setattr__(self, "values", v)
        m = self.mass()
        if abs(m - 1.0) > MASS_TOL:
            raise ValueError(f"density mass {m!r} deviates from 1 by more than {MASS_TOL}")

    def mass(self) -> float:
        return float(self.grid.cell_volume * np.sum(self.values))

    @classmethod
    def normalized(cls, grid: PeriodicGrid, values: np.ndarray) -> "GridDensity":
        """Rescale nonnegative values to unit mass."""
        v = np.asarray(values, dtype=float)
        if np.min(v) < 0:
            raise ValueError(f"cannot normalize values with negative entries (min {np.min(v):.3e})")
        total = grid.cell_volume * np.sum(v)
        if total <= 0:
            raise ValueError("cannot normalize an identically zero density")
        return cls(grid, v / total)


def gaussian_density(grid: PeriodicGrid, center=0.0, variance=1.0) -> GridDensity:
    """Isotropic Gaussian sampled at the nodes, renormalized to unit mass."""
    center = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (grid.dim,))
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    r2 = sum((c - mu) ** 2 for c, mu in zip(grid.coords, center))
    return GridDensity.normalized(grid, np.exp(-r2 / (2.0 * variance)))


def gaussian_mixture_density(grid: PeriodicGrid, components) -> GridDensity:
    """Mixture of isotropic Gaussians; components are (weight, center, variance)."""
    vals = np.zeros(grid.shape)
    for weight, center, variance in components:
        if weight < 0:
            raise ValueError("mixture weights must be nonnegative")
        g = gaussian_density(grid, center, variance)
        vals += weight * g.values
    return GridDensity.normalized(grid, vals)


def uniform_density(grid: PeriodicGrid) -> GridDensity:
    return GridDensity(grid, np.full(grid.shape, 1.0 / grid.box_length ** grid.dim))


def spike_density(grid: PeriodicGrid) -> GridDensity:
    """All mass in the single cell whose node sits at the origin."""
    vals = np.zeros(grid.shape)
    vals[(grid.n // 2,) * grid.dim] = 1.0 / grid.cell_volume
    return GridDensity(grid, vals)


def second_moment(u: GridDensity) -> float:
    """h^d * sum |x|^2 u(x) over the signed box coordinates."""
    return float(u.grid.cell_volume * np.sum(u.grid.radius_sq * u.values))


def entropy(u: GridDensity) -> float:
    """h^d * sum u log u with the convention 0 log 0 = 0."""
    v = u.values
    mask = v > 0
    return float(u.grid.cell_volume * np.sum(v[mask] * np.log(v[mask])))


def carleman_bound(u: GridDensity):
    """Entropy and its moment-based lower bound.

    Returns ``(entropy(u), -1/e - (d/2) log(4 pi) - second_moment(u)/4)``;
    the first entry always dominates the second up to 1e-9.
    """
    d = u.grid.dim
    lower = -1.0 / np.e - 0.5 * d * np.log(4.0 * np.pi) - 0.25 * second_moment(u)
    return entropy(u), float(lower)


def boundary_shell_mass(u: GridDensity) -> float:
    """Mass carried by the nodes of `PeriodicGrid.boundary_shell`.

    A node is in the shell when any coordinate exceeds 0.9 L/2 in absolute
    value.  Reported each step so that the domain-truncation error stays
    observable.
    """
    return float(u.grid.cell_volume * np.sum(u.values[u.grid.boundary_shell]))


def heat_semigroup(u: GridDensity, t: float) -> GridDensity:
    """Heat flow S_t: spectrum multiplied by exp(-t |xi|^2).

    t = 0 returns an exact copy.  Mass is preserved exactly (the zero mode
    is untouched); spectral ringing below the -1e-13 floor is clamped to
    zero, anything worse raises.
    """
    if t < 0 or not np.isfinite(t):
        raise ValueError(f"heat flow time must satisfy t >= 0, got {t}")
    if t == 0:
        return GridDensity(u.grid, u.values.copy())
    out = apply_multiplier(u.values, u.grid, np.exp(-t * u.grid.freq_sq))
    worst = float(np.min(out))
    if worst < -_HEAT_NEG_FLOOR:
        raise ValueError(
            f"heat flow produced negativity {worst:.3e} beyond the {-_HEAT_NEG_FLOOR} floor"
        )
    np.clip(out, 0.0, None, out=out)
    return GridDensity(u.grid, out)


@dataclass(frozen=True)
class VectorField:
    """Smooth compactly supported velocity field with analytic Jacobian.

    ``func`` maps points of shape (N, d) to velocities (N, d); ``jacobian``
    maps them to (N, d, d).  The field must vanish outside ``support_radius``
    (spot-checked on construction) and the support must fit strictly inside
    the half box so the flow never wraps.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    sup_norm: float = field(default=0.0)

    def __post_init__(self):
        if self.sup_norm == 0.0:
            object.__setattr__(self, "sup_norm", _sample_sup_norm(self))
        # spot-check the declared support on boundary samples
        probe = _boundary_probe(self.dim, self.support_radius)
        if np.max(np.abs(self.func(probe))) > 1e-12:
            raise ValueError("vector field does not vanish on its declared support boundary")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.func(points)


def _sample_sup_norm(fld: VectorField) -> float:
    rng = np.random.default_rng(7)
    pts = rng.uniform(-fld.support_radius, fld.support_radius, size=(4096, fld.dim))
    sup = float(np.max(np.linalg.norm(fld.func(pts), axis=1)))
    return max(sup, 1e-300)


def _boundary_probe(dim: int, radius: float) -> np.ndarray:
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(64, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw * radius * (1.0 + 1e-9)


def _flow_steps(fld: VectorField, t: float) -> int:
    # fixed-step classical RK4: step <= 1e-3 / max(1, ||eta||_inf)
    return max(1, int(np.ceil(abs(t) * max(1.0, fld.sup_norm) / 1e-3)))


def flow_map(eta: VectorField, t: float, points: np.ndarray) -> np.ndarray:
    """Integrate dX/dt = eta(X) from the given points over time t (|t| <= 1)."""
    y, _ = _integrate_flow(eta, t, np.atleast_2d(np.asarray(points, dtype=float)), with_jacobian=False)
    return y


def _integrate_flow(eta: VectorField, t: float, points: np.ndarray, with_jacobian: bool):
    if abs(t) > 1.0 + 1e-12:
        raise ValueError(f"flow time must satisfy |t| <= 1, got {t}")
    npts, d = points.shape
    y = points.copy()
    jac = np.tile(np.eye(d), (npts, 1, 1)) if with_jacobian else None
    nst = _flow_steps(eta, t)
    dt = t / nst
    for _ in range(nst):
        k1 = eta.func(y)
        k2 = eta.func(y + 0.5 * dt * k1)
        k3 = eta.func(y + 0.5 * dt * k2)
        k4 = eta.func(y + dt * k3)
        if with_jacobian:
            # variational equation d/dt (DX) = Deta(X) DX along the same stages
            m1 = eta.jacobian(y) @ jac
            m2 = eta.jacobian(y + 0.5 * dt * k1) @ (jac + 0.5 * dt * m1)
            m3 = eta.jacobian(y + 0.5 * dt * k2) @ (jac + 0.5 * dt * m2)
            m4 = eta.jacobian(y + dt * k3) @ (jac + dt * m3)
            jac = jac + dt / 6.0 * (m1 + 2 * m2 + 2 * m3 + m4)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y, jac


def pushforward_with_drift(u: GridDensity, eta: VectorField, t: float):
    """Push u forward along the flow of eta for time t.

    Evaluates v(x) = u(X_{-t}(x)) det(DX_{-t}(x)) with periodic cubic
    interpolation for the off-grid density values and the Jacobian
    integrated along the backward flow.  The result is renormalized;
    returns ``(density, drift)`` where drift is the pre-normalization mass
    defect (warn above 1e-6, fail above 1e-3).
    """
    grid = u.grid
    if eta.dim != grid.dim:
        raise GridMismatchError(f"field dimension {eta.dim} does not match grid dimension {grid.dim}")
    if eta.support_radius >= grid.box_length / 2.0:
        raise ValueError(
            "vector field support wraps the periodic boundary; "
            f"support radius {eta.support_radius} must stay below L/2 = {grid.box_length / 2}"
        )
    from scipy import ndimage  # loaded on first use: no run or verify path needs it

    pts = np.stack([c.ravel() for c in grid.coords], axis=1)
    back, jac = _integrate_flow(eta, -t, pts, with_jacobian=True)
    det = np.linalg.det(jac)
    # periodic index coordinates for the interpolant
    idx = ((back + grid.box_length / 2.0) / grid.spacing).T
    sampled = ndimage.map_coordinates(
        u.values, idx, order=3, mode="grid-wrap", prefilter=True
    )
    vals = (sampled * det).reshape(grid.shape)
    np.clip(vals, 0.0, None, out=vals)  # cubic undershoot near steep cells
    mass = grid.cell_volume * np.sum(vals)
    drift = abs(mass - 1.0)
    if drift > _PUSHFORWARD_FAIL:
        raise MassDriftError(
            f"push-forward mass drift {drift:.3e} exceeds the {_PUSHFORWARD_FAIL} threshold",
            drift=drift,
        )
    if drift > _PUSHFORWARD_WARN:
        warnings.warn(f"push-forward mass drift {drift:.3e} above the {_PUSHFORWARD_WARN} diagnostic bar")
    return GridDensity(grid, vals / mass), drift
