"""Quadratic optimal transport between grid densities.

Dimension one is handled exactly through quantile functions of the
piecewise-constant-on-cells interpretation of the grid values; the returned
potential is the exact gradient of half the exact squared distance (cell
averages of the Kantorovich potential), which is what the proximal solver
leans on.  Both quantile functions are linear on every interval of the
merged CDF breakpoints, so one search per CDF locates all quadrature nodes
and the exact integrals come out of one vectorised pass, with the
per-cell sums scattered by `np.bincount`.  General dimension runs debiased
log-domain Sinkhorn at one softmin per half-step, each softmin one matrix
product per axis, and returns the gradient of half the debiased
divergence, so both backends follow one convention.

A JKO step measures many densities against one target, so it evaluates
transport through an object prepared for that target (`prepare`):
`ExactTransport` in 1D, `Sinkhorn` otherwise.  A `Sinkhorn` owns its
target, its settings and its warm-start state.  Its first call solves the
target's kernel, log-mass and self-potential once; every call then starts
its main loop from the dual it is handed (`start`), else from the last
converged dual (`dual`; the first call from the target's self-potential,
the exact answer for u = target), and its u-side self-potential from the
last converged one.  `TransportResult.iterations` counts the main passes
plus the self-potential passes the call itself made, so the first call
carries the target's.  The main loop over-relaxes both potential updates
by a fixed factor, taking a relaxed update only when it raises every
cell's term of the dual objective, and stops only when both plan
marginals are within tolerance.  `w2_sinkhorn` is one call on a fresh
`Sinkhorn`, in any dimension.

The axis kernel exp(-|x - y|^2 / eps) is exactly 0 below `_KERNEL_FLOOR`,
the square root of the smallest normal float (about 1.5e-154), so the
product of any two kept axis factors is a normal float.  Without the floor
the sink2d kernel (48 cells, eps = 0.1) holds entries down to 2.6e-302,
their products with O(1) scalings fall into the subnormal range, and one
K e K on the seed-0 sink2d softmin inputs takes 54 us instead of 10-14 us
(one core of a 2-core Xeon VM); truncating the kernel is the standard
remedy (Schmitzer, SIAM J. Sci. Comput. 2019).  After the
max shift every scaling is at most 1, so a dropped term is below the floor:
the floor can change only rows whose contracted sum is itself that close to
underflow.  On the 385 softmins of the seed-0 sink2d step the softmins are
bitwise those of the unfloored kernel; on the reference cases of the tests
only cells without mass, where the kernel underflows anyway, move.
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

# over-relaxation factor of the Sinkhorn main loop (see `_relaxed`)
_OMEGA = 1.6

# axis-kernel entries below this are exactly 0 (see the module docstring):
# the product of any two kept entries is at least the smallest normal float
_KERNEL_FLOOR = np.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class TransportConfig:
    """Sinkhorn settings; exact quantile transport (d = 1) needs none."""

    epsilon: float = 0.025
    max_iter: int = 20000
    tol: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"sinkhorn epsilon must be finite and positive, got {self.epsilon}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"sinkhorn tolerance must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"sinkhorn iteration cap must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class TransportResult:
    """Squared distance, first-variation potential and solver diagnostics.

    ``potential`` is the first variation of half the squared distance,
    delta(W^2/2), with zero mean, for both backends (Sinkhorn: delta(S_eps/2)).
    """

    w2_squared: float
    potential: Optional[np.ndarray]
    method: str
    iterations: int = 0
    marginal_error: float = 0.0


def _check_same_grid(u: GridDensity, v: GridDensity):
    if u.grid != v.grid:
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
    """The 1D Gibbs kernel exp(-|x - y|^2 / eps), zero below `_KERNEL_FLOOR`."""
    x = grid.axis_coords
    diff = x[:, None] - x[None, :]
    kmat = np.exp(-(diff ** 2) / epsilon)
    kmat[kmat < _KERNEL_FLOOR] = 0.0
    return kmat


def _kernel_contract(kmat, vals, dim):
    """Apply the separable Gaussian kernel along every axis of C-ordered
    `vals`, one matrix product per axis and no transposed operand: K from
    the left on the first axis, a stack of such products on each middle
    axis, and K (symmetric) from the right on the last.  In d = 2 this is
    K vals K, with nothing copied."""
    n = len(kmat)
    out = kmat @ vals.reshape(n, -1)
    for axis in range(1, dim - 1):
        out = np.matmul(kmat, out.reshape(n ** axis, n, -1))
    if dim > 1:
        out = out.reshape(-1, n) @ kmat
    return out.reshape(vals.shape)


def _scaled_log(mass, epsilon):
    """eps log(mass), -inf where the mass is zero."""
    with np.errstate(divide="ignore"):
        return np.where(mass > 0, np.log(np.where(mass > 0, mass, 1.0)), -np.inf) * epsilon


def _softmin(kmat, psi, dim, epsilon):
    """-eps log( K exp(psi/eps) ), computed with a global max shift.

    Every caller's `psi` is a potential plus a scaled log-mass, finite or
    -inf in each cell (never nan or +inf), so its plain max is the largest
    finite entry.  A row whose contracted sum is 0 gives +inf; the caller
    holds off numpy's divide warning for that log(0)."""
    shift = psi.max()
    if shift == -np.inf:
        raise ValueError("softmin needs at least one finite entry")
    work = psi - shift
    work /= epsilon
    np.exp(work, out=work)
    out = _kernel_contract(kmat, work, dim)
    np.log(out, out=out)
    out *= -epsilon
    out -= shift
    return out


def _relaxed(mass, pot, pot_soft, epsilon, empty, want_defect=True):
    """Over-relaxed update pot + w (pot_soft - pot), w = _OMEGA, on the cells
    with mass, when it raises every cell's term of the dual objective; the
    plain update pot_soft otherwise.  Returns the new potential and the L^1
    defect of `mass` against its plan marginal.  `empty` indexes the cells
    without mass (np.nonzero(mass == 0), which the main loop computes once
    per call); the f-update, whose defect the loop does not use, passes
    want_defect=False and gets a defect of 0.

    With the other potential fixed, the dual objective depends on this one
    through sum_i mass_i (pot_i - eps exp((pot_i - pot_soft_i)/eps)), which
    pot_soft maximises.  With d = (pot_soft - pot)/eps the relaxed update
    changes cell i's term by eps mass_i (w d_i - exp((w - 1) d_i) + exp(-d_i)).
    That is positive for d_i <= 0 and has one positive root in d_i, so it is
    nonnegative in every cell exactly when it is at the largest d_i: the
    objective is then a Lyapunov function of the loop, in the tail cells
    too, whose mass is too small to show in it (Thibault et al., Overrelaxed
    Sinkhorn-Knopp, 2017).  The new plan marginal is mass_i exp((w - 1) d_i);
    cells without mass take the plain update.
    """
    step = pot_soft - pot
    d = step / epsilon
    d[empty] = 0.0
    top = min(float(d.max()), 700.0)
    if top > 0 and _OMEGA * top - np.exp((_OMEGA - 1.0) * top) + np.exp(-top) < 0:
        return pot_soft, 0.0
    relaxed = _OMEGA * step
    relaxed += pot
    relaxed[empty] = pot_soft[empty]
    if not want_defect:
        return relaxed, 0.0
    d *= _OMEGA - 1.0  # |exp((w - 1) d) - 1|, in place
    np.exp(d, out=d)
    d -= 1.0
    np.abs(d, out=d)
    return relaxed, float(np.vdot(mass, d))


def _sym_potential(a_log_mass, kmat, dim, epsilon, max_iter, tol, f0=None):
    """Fixed point of the symmetric problem OT_eps(a, a); returns (f, passes)
    with f = g, starting from f0 (zero when None).  Raises ConvergenceError,
    carrying the last step size, when `max_iter` passes miss the stopping rule."""
    f = np.zeros_like(a_log_mass) if f0 is None else f0
    delta = np.inf
    with np.errstate(divide="ignore"):
        for it in range(max_iter):
            f_new = _softmin(kmat, f + a_log_mass, dim, epsilon)
            f_new = np.where(np.isfinite(f_new), f_new, 0.0)
            f_half = 0.5 * (f + f_new)
            delta = float(np.max(np.abs(f_half - f)))
            f = f_half
            if delta < 0.1 * epsilon * tol + 1e-15:
                return f, it + 1
    raise ConvergenceError(
        f"sinkhorn self-potential failed to settle in {max_iter} iterations "
        f"(last step {delta:.3e})",
        marginal_error=delta,
    )


class Sinkhorn:
    """Debiased entropic transport to one fixed target, warm-started across
    calls (see the module docstring).

    A call on u returns S_eps(u, target) as ``w2_squared`` and half the
    debiased dual potential (cross potential minus self potential, zero
    mean): the cost is |x-y|^2, so that half is delta(S_eps/2), the
    convention of `w2_exact_1d`.  The potential comes out of the passes
    that give the value, so it is returned whatever `want_potential` says.
    The main loop starts from `start`, else from `dual`, else from the
    target's self-potential; a call that raises leaves `dual` and u's
    cached self-potential as they were.  The main loop over-relaxes both
    updates (`_relaxed`), so ``marginal_error`` is the larger of the two
    marginal defects; ConvergenceError, carrying it, is raised when the
    configured tolerance is not reached in L^1.
    """

    def __init__(self, target: GridDensity, config: TransportConfig):
        self._target = target
        self._config = config
        self._kmat = self._lb = self._fb = None  # the target's, filled by the first call
        self._fa = None  # u's self-potential in the last converged call
        self.dual = None  # g of the last converged call

    def __call__(self, u: GridDensity, want_potential: bool = True,
                 start: Optional[np.ndarray] = None) -> TransportResult:
        v = self._target
        _check_same_grid(u, v)
        epsilon, max_iter, tol = self._config.epsilon, self._config.max_iter, self._config.tol
        grid = u.grid
        dim, hpow = grid.dim, grid.cell_volume
        a = u.values * hpow
        b = v.values * hpow
        la = _scaled_log(a, epsilon)
        it_b = 0
        if self._fb is None:
            self._kmat, self._lb = _axis_kernels(grid, epsilon), _scaled_log(b, epsilon)
            self._fb, it_b = _sym_potential(self._lb, self._kmat, dim, epsilon, max_iter, tol)
        kmat, lb, fb = self._kmat, self._lb, self._fb
        g = next(x for x in (start, self.dual, fb) if x is not None)
        fa0 = fb if self._fa is None else self._fa

        # one softmin per half-step: raw = softmin(g + lb) is the check's f_next and
        # the next f's plain update.  Both updates are over-relaxed (the first f
        # has no previous value), so the b-marginal is not exact and the test
        # bounds both defects of the plan of (f, g):
        # a_i (exp((f_i - f_next_i)/eps) - 1) and b_j (exp((g_j - g_soft_j)/eps) - 1)
        empty_a, empty_b = np.nonzero(a == 0), np.nonzero(b == 0)
        marginal_error = np.inf
        with np.errstate(divide="ignore", over="ignore"):
            raw = _softmin(kmat, g + lb, dim, epsilon)
            f = np.where(np.isfinite(raw), raw, 0.0)
            for it in range(max_iter):
                g_soft = _softmin(kmat, f + la, dim, epsilon)
                g_soft = np.where(np.isfinite(g_soft), g_soft, 0.0)
                g, b_defect = _relaxed(b, g, g_soft, epsilon, empty_b)
                raw = _softmin(kmat, g + lb, dim, epsilon)
                f_next = np.where(np.isfinite(raw), raw, f)
                row = f - f_next  # |a exp((f - f_next)/eps) - a|, in place
                row /= epsilon
                np.clip(row, -700, 700, out=row)
                np.exp(row, out=row)
                row *= a
                row -= a
                np.abs(row, out=row)
                marginal_error = max(float(row.sum()), b_defect)
                if marginal_error <= tol:
                    break
                f = _relaxed(a, f, np.where(np.isfinite(raw), raw, 0.0), epsilon, empty_a, False)[0]
            else:
                raise ConvergenceError(
                    f"sinkhorn failed to reach marginal tolerance {tol} in {max_iter} iterations "
                    f"(marginal error {marginal_error:.3e})",
                    marginal_error=marginal_error,
                )

        ot_uv = float(np.sum(f * a) + np.sum(g * b))
        fa, it_a = _sym_potential(la, kmat, dim, epsilon, max_iter, tol, fa0)
        self.dual, self._fa = g, fa
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
            iterations=it + 1 + it_a + it_b,
            marginal_error=marginal_error,
        )


class ExactTransport:
    """Exact quantile transport to one fixed 1D target (`w2_exact_1d`); it
    keeps no dual, so `dual` is None and `start` is ignored."""

    dual = None

    def __init__(self, target: GridDensity):
        self._target = target

    def __call__(self, u: GridDensity, want_potential: bool = True,
                 start: Optional[np.ndarray] = None) -> TransportResult:
        return w2_exact_1d(u, self._target, want_potential)


def prepare(target: GridDensity, config: TransportConfig):
    """The transport to `target` that a JKO step evaluates: exact quantile
    transport in 1D, Sinkhorn with `config`'s settings otherwise."""
    if target.grid.dim == 1:
        return ExactTransport(target)
    return Sinkhorn(target, config)


def w2(u: GridDensity, transport, want_potential: bool = True,
       start: Optional[np.ndarray] = None) -> TransportResult:
    """Evaluate a prepared transport (`prepare`) at u; `start` is the dual
    a Sinkhorn call starts from in place of the last converged one."""
    return transport(u, want_potential=want_potential, start=start)


def w2_sinkhorn(u: GridDensity, v: GridDensity, epsilon: float,
                max_iter: int = 20000, tol: float = 1e-9) -> TransportResult:
    """One cold `Sinkhorn` call: S_eps(u, v) and delta(S_eps/2), in any
    dimension.  Raises ValueError on settings `TransportConfig` refuses,
    before any pass."""
    return Sinkhorn(v, TransportConfig(epsilon, max_iter, tol))(u)
