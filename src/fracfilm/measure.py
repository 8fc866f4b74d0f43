"""Discrete probability densities and measure-level functionals.

A GridDensity is the nonnegative unit-mass grid function standing in for an
absolutely continuous probability measure on the box.  This module carries
the functionals attached to it (second moment, entropy, the entropy lower
bound), the heat semigroup, and push-forward along the flow of a smooth
compactly supported vector field.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import reduce
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
        if not (np.min(v) >= 0):  # also catches nan
            raise ValueError(f"density has negative or nan values (min {np.min(v):.3e})")
        object.__setattr__(self, "values", v)
        m = self.mass()
        if not (abs(m - 1.0) <= MASS_TOL):  # also catches inf
            raise ValueError(f"density mass {m!r} deviates from 1 by more than {MASS_TOL}")

    def mass(self) -> float:
        return float(self.grid.cell_volume * np.sum(self.values))

    @classmethod
    def normalized(cls, grid: PeriodicGrid, values: np.ndarray) -> "GridDensity":
        """Rescale nonnegative values to unit mass."""
        v = np.asarray(values, dtype=float)
        if not (np.min(v) >= 0):  # also catches nan
            raise ValueError(f"cannot normalize values with negative or nan entries (min {np.min(v):.3e})")
        total = grid.cell_volume * np.sum(v)
        if total <= 0:
            raise ValueError("cannot normalize an identically zero density")
        if not np.isfinite(total):
            raise ValueError("cannot normalize values with infinite entries")
        return cls(grid, v / total)


def gaussian_density(grid: PeriodicGrid, center=0.0, variance=1.0) -> GridDensity:
    """Isotropic Gaussian sampled at the nodes, renormalized to unit mass."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape not in ((1,), (grid.dim,)):
        raise ValueError(f"gaussian center has {center.size} coordinates, dimension is {grid.dim}")
    center = np.broadcast_to(center, (grid.dim,))
    if not np.all(np.isfinite(center)):
        raise ValueError(f"gaussian center must be finite, got {tuple(center.tolist())}")
    if not (np.isfinite(variance) and variance > 0):
        raise ValueError(f"gaussian variance must be finite and positive, got {variance}")
    r2 = sum((c - mu) ** 2 for c, mu in zip(grid.coords, center))
    return GridDensity.normalized(grid, np.exp(-r2 / (2.0 * variance)))


def gaussian_mixture_density(grid: PeriodicGrid, components) -> GridDensity:
    """Mixture of isotropic Gaussians; components are (weight, center, variance)."""
    vals = np.zeros(grid.shape)
    for weight, center, variance in components:
        if not (np.isfinite(weight) and weight >= 0):
            raise ValueError(f"mixture weights must be finite and nonnegative, got {weight}")
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
    """Smooth compactly supported velocity field with analytic divergence.

    ``func`` maps points of shape (N, d) to velocities (N, d);
    ``divergence`` maps them to div eta (N,), all that the push-forward's
    Jacobian determinant needs.  The field must vanish outside
    ``support_radius`` (spot-checked on construction) and the support must
    fit strictly inside the half box so the flow never wraps.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    divergence: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    sup_norm: float = field(init=False)

    def __post_init__(self):
        # the largest |eta| at 4096 points of the R_d sequence over the
        # support's bounding box
        box = _roberts_points(4096, self.dim) * (2.0 * self.support_radius) - self.support_radius
        sup = float(np.max(np.linalg.norm(self.func(box.T), axis=1)))
        object.__setattr__(self, "sup_norm", max(sup, 1e-300))
        # spot-check the declared support in 64 directions
        rays = 2.0 * _roberts_points(64, self.dim).T - 1.0
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        if np.max(np.abs(self.func(rays * self.support_radius * (1.0 + 1e-9)))) > 1e-12:
            raise ValueError("vector field does not vanish on its declared support boundary")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.func(points)


def _roberts_points(n: int, dim: int) -> np.ndarray:
    """The first n points of the low-discrepancy R_d sequence, as a (dim, n)
    array: frac(1/2 + k g^-j), k = 1..n, j = 1..dim, for the positive root g
    of g^(dim+1) = g + 1."""
    g = 2.0
    for _ in range(30):  # a contraction by less than 1/3 per pass
        g = (1.0 + g) ** (1.0 / (dim + 1))
    z = g ** -np.arange(1.0, dim + 1)[:, None] * np.arange(1.0, n + 1)
    z += 0.5
    z -= np.floor(z)
    return z


def _flow_steps(fld: VectorField, t: float) -> int:
    # fixed-step classical RK4: step <= 1e-3 / max(1, ||eta||_inf)
    return max(1, int(np.ceil(abs(t) * max(1.0, fld.sup_norm) / 1e-3)))


def _integrate_flow(eta: VectorField, t: float, points: np.ndarray):
    """X_t from `points` by RK4, and log det DX_t from Liouville's formula
    d/dt log det DX_t = (div eta)(X_t) at the same four stage points."""
    if abs(t) > 1.0 + 1e-12:
        raise ValueError(f"flow time must satisfy |t| <= 1, got {t}")
    y = points.copy()
    log_det = np.zeros(len(points))
    nst = _flow_steps(eta, t)
    dt = t / nst
    for _ in range(nst):
        k1 = eta.func(y)
        k2 = eta.func(y2 := y + 0.5 * dt * k1)
        k3 = eta.func(y3 := y + 0.5 * dt * k2)
        k4 = eta.func(y4 := y + dt * k3)
        div = eta.divergence(np.concatenate([y, y2, y3, y4])).reshape(4, -1)
        log_det += dt / 6.0 * (div[0] + 2 * div[1] + 2 * div[2] + div[3])
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y, log_det


def pushforward_with_drift(u: GridDensity, eta: VectorField, t: float):
    """Push u forward along the flow of eta for time t.

    Evaluates v(x) = u(X_{-t}(x)) det(DX_{-t}(x)) with periodic cubic
    interpolation for the off-grid density values and the determinant
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
    pts = np.stack([c.ravel() for c in grid.coords], axis=1)
    back, log_det = _integrate_flow(eta, -t, pts)
    det = np.exp(log_det)
    # periodic index coordinates for the interpolant
    idx = ((back + grid.box_length / 2.0) / grid.spacing).T
    sampled = _periodic_cubic_spline(u.values, grid, idx)
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


def _periodic_cubic_spline(values: np.ndarray, grid: PeriodicGrid, idx: np.ndarray) -> np.ndarray:
    """The periodic cubic B-spline interpolant of grid values at index
    coordinates `idx` of shape (d, npts), any real, wrapped mod n.

    The coefficients divide the spectrum by the B-spline's symbol
    prod_a (4 + 2 cos xi_a h)/6; each point then sums its 4^d-node stencil.
    """
    symbol = (4 + 2 * np.cos(grid.axis_freqs * grid.spacing)) / 6
    coeffs = apply_multiplier(values, grid, 1 / reduce(np.multiply.outer, [symbol] * grid.dim))
    base = np.floor(idx)
    f = idx - base
    base = base.astype(np.intp) - 1  # the stencil's first node on each axis
    weights = np.stack([(1 - f) ** 3, 4 - 6 * f ** 2 + 3 * f ** 3,
                        1 + 3 * f + 3 * f ** 2 - 3 * f ** 3, f ** 3]) / 6
    out = np.zeros(idx.shape[1])
    for offsets in itertools.product(range(4), repeat=grid.dim):
        node = tuple((base[a] + o) % grid.n for a, o in enumerate(offsets))
        out += coeffs[node] * np.prod([weights[o, a] for a, o in enumerate(offsets)], axis=0)
    return out
