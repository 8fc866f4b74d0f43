"""Quadratic optimal transport between grid densities.

Dimension one is handled exactly through quantile functions of the
piecewise-constant-on-cells interpretation of the grid values; the returned
potential is the exact gradient of half the exact squared distance (cell
averages of the Kantorovich potential), which is what the proximal solver
leans on.  Both quantile functions are linear on every interval of the
merged CDF breakpoints, so one search per CDF locates all quadrature nodes
and the exact integrals come out of one vectorised pass, with the
per-cell sums scattered by `np.bincount`.  General dimension runs debiased
log-domain Sinkhorn with separable Gaussian kernel contractions, and
returns the gradient of half the debiased divergence, so both backends
follow one convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, GridMismatchError
from .measure import GridDensity

# Milne's open three-point rule on [a, a + w]: nodes a + w * _MILNE_NODES,
# weights (w / 3) * _MILNE_WEIGHTS.  Exact for cubics, and it never touches
# the interval endpoints (where quantile functions may jump).
_MILNE_NODES = np.array([[0.25], [0.5], [0.75]])
_MILNE_WEIGHTS = np.array([[2.0], [-1.0], [2.0]])


@dataclass(frozen=True)
class TransportConfig:
    method: str = "auto"  # auto | exact | sinkhorn
    epsilon: float = 0.025
    max_iter: int = 20000
    tol: float = 1e-9

    def __post_init__(self):
        if self.method not in ("auto", "exact", "sinkhorn"):
            raise ValueError(f"unknown transport method {self.method!r}")
        if self.epsilon <= 0:
            raise ValueError(f"sinkhorn epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class TransportResult:
    """Squared distance, first-variation potential and solver diagnostics.

    ``potential`` is the first variation of half the squared distance,
    delta(W^2/2), with zero mean, for both backends (Sinkhorn: delta(S_eps/2)).
    """

    w2_squared: float
    potential: Optional[np.ndarray]
    method: str
    sinkhorn_epsilon: Optional[float] = None
    iterations: int = 0
    marginal_error: float = 0.0


def _check_same_grid(u: GridDensity, v: GridDensity):
    if not u.grid.same_as(v.grid):
        raise GridMismatchError("transport requires both densities on the same grid")


def _cdf(values, grid):
    h = grid.spacing
    cum = np.concatenate([[0.0], np.cumsum(values) * h])
    return cum / cum[-1]


def _quantile(q, cum, edges):
    """Left-continuous generalized inverse of the piecewise-linear CDF."""
    q = np.asarray(q, dtype=float)
    idx = np.searchsorted(cum, q, side="left")
    idx = np.clip(idx, 1, len(cum) - 1)
    exact = cum[idx] == q
    denom = cum[idx] - cum[idx - 1]
    safe = denom > 0
    frac = np.where(safe, (q - cum[idx - 1]) / np.where(safe, denom, 1.0), 0.0)
    out = edges[idx - 1] + frac * (edges[idx] - edges[idx - 1])
    return np.where(exact, edges[idx], out)


def _linear_quantile(q, cell, cum, edges):
    """Quantile function at q, given the cell of the CDF that holds every q.

    Inside cell k (cum[k] <= q <= cum[k + 1], cum[k + 1] > cum[k]) the
    inverse of the piecewise-linear CDF is the straight line between the
    cell's edges; the arithmetic is that of `_quantile`.
    """
    return edges[cell] + (q - cum[cell]) / (cum[cell + 1] - cum[cell]) * (edges[cell + 1] - edges[cell])


def w2_exact_1d(u: GridDensity, v: GridDensity, want_potential: bool = True) -> TransportResult:
    """Exact 1D squared Wasserstein distance and Kantorovich potential.

    The squared distance is the quantile integral over the merged breakpoint
    set of both CDFs, evaluated with Milne's rule (exact for the piecewise-
    quadratic integrand).  Each merged interval (a, a + w) lies inside one
    cell of each CDF, so both quantile functions are linear on it: one
    right-sided search of a per CDF finds that cell, and all three Milne
    nodes of every interval are evaluated at once on the cell's line.  No
    node needs a search of its own, and no cell found this way is empty.
    The potential entry j is the exact cell average of phi with
    phi' = x - T, T the monotone optimal map, normalized to zero mean; it
    is the exact partial derivative of W^2/2 with respect to the cell value
    u_j (up to the additive constant the simplex projection removes).
    """
    _check_same_grid(u, v)
    grid = u.grid
    if grid.dim != 1:
        raise ValueError(f"exact transport requires dimension 1, got {grid.dim}")
    n, h = grid.n, grid.spacing
    edges = grid.axis_edges
    cu = _cdf(u.values, grid)
    cv = _cdf(v.values, grid)

    qs = np.union1d(cu, cv)
    a, b = qs[:-1], qs[1:]
    w = b - a
    keep = w > 0
    a, w = a[keep], w[keep]

    # 0 <= a < 1 = cum[-1], so the cell index lies in [0, n - 1]
    own = np.searchsorted(cu, a, side="right") - 1
    q = a + w * _MILNE_NODES                      # (3, m): the nodes of every interval
    tu = _linear_quantile(q, own, cu, edges)
    tv = _linear_quantile(q, np.searchsorted(cv, a, side="right") - 1, cv, edges)
    d = tu - tv
    parts = _MILNE_WEIGHTS[:, 0] * np.sum(w / 3.0 * d * d, axis=1)
    w2 = float(max(parts[0] + parts[1] + parts[2], 0.0))

    if not want_potential:
        return TransportResult(w2_squared=w2, potential=None, method="exact_1d")

    # exact per-cell integrals of (x - T) and (e_right - x)(x - T): the
    # q-substitution dx = (h/dq_j) dq, with dq_j the cell's CDF increment,
    # turns both into piecewise-quadratic q-integrals handled by the same
    # Milne nodes.  The CDF increment (not the stored density value) is the
    # scaling consistent with the quantile function's linear pieces, which
    # matters in tail cells where the cumulative sum saturates.
    dq = np.diff(cu)
    # cells whose increment sits at the rounding floor of the cumulative sum
    # (true zeros, mass below float resolution) carry no resolvable coupling
    # information and are treated as untransported: phi' = 0 there
    flat = dq <= 64 * np.finfo(float).eps
    to_x = h / np.where(flat, np.inf, dq)[own]
    er = edges[own + 1]

    wk = _MILNE_WEIGHTS * (w / 3.0)
    int_t = np.bincount(own, np.sum(wk * tv, axis=0) * to_x, minlength=n)
    int_ext = np.bincount(own, np.sum(wk * (er - tu) * tv, axis=0) * to_x, minlength=n)

    el, e2 = edges[:-1], edges[1:]
    int_x = (e2 ** 2 - el ** 2) / 2.0
    int_ex_x = e2 * (e2 ** 2 - el ** 2) / 2.0 - (e2 ** 3 - el ** 3) / 3.0

    dphi_cell = int_x - int_t                    # integral of (x - T) over each cell
    p_cell = int_ex_x - int_ext                  # integral of (e_right - x)(x - T)
    dphi_cell[flat] = 0.0
    p_cell[flat] = 0.0
    phi_edges = np.concatenate([[0.0], np.cumsum(dphi_cell)])
    phi = phi_edges[:-1] + p_cell / h
    phi = phi - phi.mean()
    return TransportResult(w2_squared=w2, potential=phi, method="exact_1d")


def optimal_map_1d(u: GridDensity, v: GridDensity) -> np.ndarray:
    """Monotone optimal map T = F_v^{-1} o F_u evaluated at the nodes."""
    _check_same_grid(u, v)
    grid = u.grid
    if grid.dim != 1:
        raise ValueError(f"exact transport requires dimension 1, got {grid.dim}")
    edges = grid.axis_edges
    cu = _cdf(u.values, grid)
    cv = _cdf(v.values, grid)
    f_nodes = np.interp(grid.axis_coords, edges, cu)
    return _quantile(f_nodes, cv, edges)


# ---------------------------------------------------------------------------
# entropic transport


def _axis_kernels(grid, epsilon):
    x = grid.axis_coords
    diff = x[:, None] - x[None, :]
    return np.exp(-(diff ** 2) / epsilon)


def _kernel_contract(kmat, vals, dim):
    """Apply the separable Gaussian kernel along every axis."""
    out = vals
    for axis in range(dim):
        out = np.tensordot(kmat, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out


def _softmin(kmat, psi, dim, epsilon):
    """-eps log( K exp(psi/eps) ), computed with a global max shift."""
    shift = np.max(psi[np.isfinite(psi)])
    with np.errstate(divide="ignore"):
        contracted = _kernel_contract(kmat, np.exp((psi - shift) / epsilon), dim)
        out = -epsilon * np.log(contracted) - shift
    return out


def _sym_potential(a_log_mass, kmat, dim, epsilon, max_iter, tol):
    """Fixed point of the symmetric problem OT_eps(a, a); returns f with f=g."""
    f = np.zeros_like(a_log_mass)
    for it in range(max_iter):
        f_new = _softmin(kmat, f + a_log_mass, dim, epsilon)
        f_new = np.where(np.isfinite(f_new), f_new, 0.0)
        f_half = 0.5 * (f + f_new)
        delta = np.max(np.abs(f_half - f))
        f = f_half
        if delta < 0.1 * epsilon * tol + 1e-15:
            return f, it + 1
    return f, max_iter


def w2_sinkhorn(
    u: GridDensity,
    v: GridDensity,
    epsilon: float,
    max_iter: int = 20000,
    tol: float = 1e-9,
) -> TransportResult:
    """Debiased entropic divergence S_eps(u, v) with log-domain iterations.

    The quadratic-cost Gibbs kernel factorizes across axes, so every softmin
    is a sequence of one-dimensional kernel contractions; iterations run in
    the log domain with a global shift.  Returns the debiased value
    OT(u,v) - (OT(u,u) + OT(v,v))/2 as ``w2_squared`` and half the debiased
    dual potential (cross potential minus self potential, zero mean): the
    cost is |x-y|^2, so that half is delta(S_eps/2), the convention of
    `w2_exact_1d`.
    Raises ConvergenceError carrying the marginal error when the plan
    marginals fail to reach `tol` in L^1.
    """
    _check_same_grid(u, v)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    grid = u.grid
    dim, hpow = grid.dim, grid.cell_volume
    a = u.values * hpow
    b = v.values * hpow
    kmat = _axis_kernels(grid, epsilon)
    with np.errstate(divide="ignore"):
        la = np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), -np.inf) * epsilon
        lb = np.where(b > 0, np.log(np.where(b > 0, b, 1.0)), -np.inf) * epsilon

    f = np.zeros(grid.shape)
    g = np.zeros(grid.shape)
    marginal_error = np.inf
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        f = _softmin(kmat, g + lb, dim, epsilon)
        f = np.where(np.isfinite(f), f, 0.0)
        g = _softmin(kmat, f + la, dim, epsilon)
        g = np.where(np.isfinite(g), g, 0.0)
        # after the g-update the b-marginal is exact; the a-marginal defect is
        # a_i (exp((f_i - f_next_i)/eps) - 1)
        f_next = _softmin(kmat, g + lb, dim, epsilon)
        f_next = np.where(np.isfinite(f_next), f_next, f)
        with np.errstate(over="ignore"):
            row = a * np.exp(np.clip((f - f_next) / epsilon, -700, 700))
        marginal_error = float(np.sum(np.abs(row - a)))
        if marginal_error <= tol:
            break
    else:
        raise ConvergenceError(
            f"sinkhorn failed to reach marginal tolerance {tol} in {max_iter} iterations "
            f"(marginal error {marginal_error:.3e})",
            marginal_error=marginal_error,
        )

    ot_uv = float(np.sum(f * a) + np.sum(g * b))
    fa, it_a = _sym_potential(la, kmat, dim, epsilon, max_iter, tol)
    fb, it_b = _sym_potential(lb, kmat, dim, epsilon, max_iter, tol)
    ot_uu = float(2.0 * np.nansum(np.where(a > 0, fa * a, 0.0)))
    ot_vv = float(2.0 * np.nansum(np.where(b > 0, fb * b, 0.0)))
    value = ot_uv - 0.5 * ot_uu - 0.5 * ot_vv
    if abs(value) < 1e3 * tol:
        value = max(value, 0.0)

    debiased = 0.5 * (f - np.where(np.isfinite(fa), fa, 0.0))
    debiased = debiased - debiased.mean()
    return TransportResult(
        w2_squared=float(value),
        potential=debiased,
        method="sinkhorn",
        sinkhorn_epsilon=epsilon,
        iterations=iterations + it_a + it_b,
        marginal_error=marginal_error,
    )


def w2(u: GridDensity, v: GridDensity, config: TransportConfig = TransportConfig(),
       want_potential: bool = True) -> TransportResult:
    """Dispatch: exact quantile transport in 1D, Sinkhorn otherwise."""
    _check_same_grid(u, v)
    method = config.method
    if method == "auto":
        method = "exact" if u.grid.dim == 1 else "sinkhorn"
    if method == "exact":
        return w2_exact_1d(u, v, want_potential=want_potential)
    return w2_sinkhorn(u, v, config.epsilon, config.max_iter, config.tol)
