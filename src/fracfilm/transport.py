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
`ExactTransport` in 1D, `Sinkhorn` otherwise.  An `ExactTransport` holds
its target's CDF, computed once, and reads the per-cell integrals the
grid keeps (`PeriodicGrid.axis_cell_integrals`), so a call builds only
u's side.  A call at the target itself (u's values equal
the target's bit for bit, the test `Sinkhorn` uses too) runs no quantile
pass: the map is the identity, so W^2 = 0, the potential is zero, and W's
bands follow in closed form from the target's CDF increments (see
`ExactTransport`).  A `Sinkhorn` owns its target, its settings
and its warm-start state.  Its first call solves the target's kernel,
log-mass and self-potential f_b once.  A call at the target itself (u's
values equal the target's bit for bit, as at the first call of every
JKO step) runs no pass: (f_b, f_b) is the exact dual pair of
OT_eps(v, v), so it returns S_eps = 0 and a zero potential, keeps f_b as
its dual and u-side self-potential, and reports the defect of that pair,
measured by one softmin; should the defect miss the tolerance, it runs
the main loop like any call.  Every other call starts its main loop from
the dual it is handed (`start`), else from the last converged dual
(`dual`, else f_b), and its u-side self-potential from the last
converged one.  `TransportResult.iterations` counts the main passes plus
the self-potential passes the call itself made, so the first call
carries the target's.  The main loop over-relaxes both potential updates
by a fixed factor, taking a relaxed update only when it raises every
cell's term of the dual objective, and stops only when both plan
marginals are within tolerance.  A pass costs its two softmins, one
difference raw - f that serves both the a-marginal check and the
relaxed f-update, and a max test per softmin output in place of
masking every output for non-finite rows.  `w2_sinkhorn` is one call on
a fresh `Sinkhorn`, in any dimension.

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

import math
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

# a cell whose CDF increment is at most this carries no transport (`_quantile_transport`)
_FLAT_INCREMENT = 64 * np.finfo(float).eps

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
    ``hessian_bands`` (exact 1D transport with the potential; None otherwise)
    holds the two bands of the tridiagonal W with D delta(phi) = -W delta(F):
    a zero-mass change of u moves the CDF at interior edge k + 1 (face k,
    between cells k and k + 1) by delta(F)_k, and the potential's face
    differences (D phi)_k = phi_{k+1} - phi_k by -(W delta(F))_k.  The
    diagonal has the n - 1 interior faces' entries, the off-diagonal the
    n - 2 couplings of faces k and k + 1.
    """

    w2_squared: float
    potential: Optional[np.ndarray]
    method: str
    iterations: int = 0
    marginal_error: float = 0.0
    hessian_bands: Optional[tuple] = None  # exact 1D only: (diagonal, off-diagonal) of W


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
    cells = grid.axis_cell_integrals if want_potential else None
    return _quantile_transport(u, _cdf(v.values, grid), cells)


def _quantile_transport(u: GridDensity, cv: np.ndarray, cells) -> TransportResult:
    """`w2_exact_1d` of u against the target whose CDF is `cv`; the potential
    only when `cells` holds the grid's `axis_cell_integrals`."""
    grid = u.grid
    n, h = grid.n, grid.spacing
    edges = grid.axis_edges
    cu = _cdf(u.values, grid)

    qs = np.union1d(cu, cv)
    a, b = qs[:-1], qs[1:]
    w = b - a
    keep = w > 0
    a, w = a[keep], w[keep]

    # 0 <= a < 1 = cum[-1], so the cell index lies in [0, n - 1]
    own = np.searchsorted(cu, a, side="right") - 1
    target = np.searchsorted(cv, a, side="right") - 1
    q = a + w * _MILNE_NODES                      # (3, m): the nodes of every interval
    tu = _linear_quantile(q, own, cu, edges)
    tv = _linear_quantile(q, target, cv, edges)
    d = tu - tv
    parts = _MILNE_WEIGHTS[:, 0] * np.sum(w / 3.0 * d * d, axis=1)
    w2 = float(max(parts[0] + parts[1] + parts[2], 0.0))

    if cells is None:
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
    flat = dq <= _FLAT_INCREMENT
    to_x = h / np.where(flat, np.inf, dq)[own]
    er = edges[own + 1]

    wk = _MILNE_WEIGHTS * (w / 3.0)
    int_t = np.bincount(own, np.sum(wk * tv, axis=0) * to_x, minlength=n)
    int_ext = np.bincount(own, np.sum(wk * (er - tu) * tv, axis=0) * to_x, minlength=n)

    int_x, int_ex_x = cells
    dphi_cell = int_x - int_t                    # integral of (x - T) over each cell
    p_cell = int_ex_x - int_ext                  # integral of (e_right - x)(x - T)
    dphi_cell[flat] = 0.0
    p_cell[flat] = 0.0
    phi_edges = np.concatenate([[0.0], np.cumsum(dphi_cell)])
    phi = phi_edges[:-1] + p_cell / h
    phi = phi - phi.mean()

    # W_kl = integral of hat_k hat_l / v(T) dx.  On a merged interval T runs
    # inside one target cell, so 1/v(T) is the constant h / dcv of that cell
    # (dcv > 0: the search above never lands on an empty cell; empty cells'
    # 1/0 is never read), and dx = to_x dq.  In cell j the only hats are
    # those of its left edge, l = (e_right - x)/h, and of its right edge,
    # 1 - l, and l is linear in q: with l = p and r at the outer Milne nodes
    # (a quarter of the way in from either end), its mean over the interval
    # is (p + r)/2 and its variance (r - p)^2/3, which give the integrals of
    # l^2, (1 - l)^2 and l (1 - l) exactly.  A tail cell of v can put 1/v
    # past the float range; its entries are then inf or nan, and the caller
    # closes those faces.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mass = w * (h / np.diff(cv))[target] * to_x
        p, r = (er - tu[0]) / h, (er - tu[2]) / h
        mean = 0.5 * (p + r)
        var = (r - p) ** 2 / 3.0
        sq_left = np.bincount(own, (mean * mean + var) * mass, minlength=n)
        sq_right = np.bincount(own, ((1.0 - mean) ** 2 + var) * mass, minlength=n)
        cross = np.bincount(own, (mean * (1.0 - mean) - var) * mass, minlength=n)
    bands = (sq_right[:-1] + sq_left[1:], cross[1:-1])
    return TransportResult(w2_squared=w2, potential=phi, method="exact_1d", hessian_bands=bands)


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


def _finite(out):
    """A softmin output with its non-finite entries set to 0; `out` itself
    when it has none.  The only non-finite value `_softmin` returns is +inf
    (see there), so one max test decides."""
    if out.max() < np.inf:
        return out
    return np.where(np.isfinite(out), out, 0.0)


def _empty_cells(mass):
    """np.nonzero(mass == 0), or None when every cell has mass."""
    return None if mass.all() else np.nonzero(mass == 0)


def _row_defect(kmat, g, lb, f, a, dim, epsilon):
    """The f-half of a Sinkhorn pass: raw = softmin(g + lb), its finite part
    f_soft, step = f_soft - f and the L^1 defect of the a-marginal of the
    plan of (f, g), sum_i |a_i exp((f_i - raw_i)/eps) - a_i| over the cells
    where raw is finite.  Returns (f_soft, step, defect).  One difference
    serves both uses: step is the numerator of the relaxed f-update
    (`_relaxed`), and its negation over eps is the defect's exponent, bit
    for bit (f - raw)/eps, since IEEE subtraction and division are
    sign-symmetric."""
    raw = _softmin(kmat, g + lb, dim, epsilon)
    f_soft = _finite(raw)
    step = f_soft - f
    row = np.negative(step)
    if f_soft is not raw:
        row[~np.isfinite(raw)] = 0.0
    row /= epsilon
    np.clip(row, -700, 700, out=row)
    np.exp(row, out=row)
    row *= a
    row -= a
    np.abs(row, out=row)
    return f_soft, step, float(row.sum())


def _relaxed(mass, pot, pot_soft, step, epsilon, empty, want_defect=True):
    """Over-relaxed update pot + w (pot_soft - pot), w = _OMEGA, on the cells
    with mass, when it raises every cell's term of the dual objective; the
    plain update pot_soft otherwise.  `step` is pot_soft - pot, which the
    caller already has.  Returns the new potential and the L^1 defect of
    `mass` against its plan marginal.  `empty` is `_empty_cells(mass)`,
    which the main loop computes once per call; the f-update, whose defect
    the loop measures before it (`_row_defect`), passes want_defect=False
    and gets a defect of 0.

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
    d = step / epsilon
    if empty is not None:
        d[empty] = 0.0
    top = min(float(d.max()), 700.0)
    if top > 0 and _OMEGA * top - math.exp((_OMEGA - 1.0) * top) + math.exp(-top) < 0:
        return pot_soft, 0.0
    relaxed = _OMEGA * step
    relaxed += pot
    if empty is not None:
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
    with f = g, starting from f0 (zero when None; never written).  Raises
    ConvergenceError, carrying the last step size, when `max_iter` passes
    miss the stopping rule."""
    f = np.zeros_like(a_log_mass) if f0 is None else f0
    delta = np.inf
    with np.errstate(divide="ignore"):
        for it in range(max_iter):
            f_half = _finite(_softmin(kmat, f + a_log_mass, dim, epsilon))
            f_half += f  # 0.5 (f + f_new), in the softmin's own buffer
            f_half *= 0.5
            change = f_half - f
            np.abs(change, out=change)
            delta = float(change.max())
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
    that give the value.  A call at the target returns 0 and a zero
    potential from the target's self-potential alone, with no pass (see
    the module docstring).  The main loop starts from `start`, else from
    `dual`, else from the target's self-potential; a call that raises
    leaves `dual` and u's cached self-potential as they were.  The main
    loop over-relaxes both updates (`_relaxed`), so ``marginal_error`` is
    the larger of the two marginal defects; ConvergenceError, carrying it,
    is raised when the configured tolerance is not reached in L^1.
    """

    def __init__(self, target: GridDensity, config: TransportConfig):
        self._target = target
        self._config = config
        self._kmat = self._lb = self._fb = None  # the target's, filled by the first call
        self._fa = None  # u's self-potential in the last converged call
        self.dual = None  # g of the last converged call

    def __call__(self, u: GridDensity, start: Optional[np.ndarray] = None) -> TransportResult:
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
        if np.array_equal(u.values, v.values):
            # (fb, fb) is the exact dual pair of OT_eps(v, v), so S_eps is 0
            # and the potential is flat; the defect is measured, not assumed
            with np.errstate(divide="ignore", over="ignore"):
                marginal_error = _row_defect(kmat, fb, lb, fb, a, dim, epsilon)[2]
            if marginal_error <= tol:
                self.dual = self._fa = fb
                return TransportResult(w2_squared=0.0, potential=np.zeros(grid.shape), method="sinkhorn",
                                       iterations=it_b, marginal_error=marginal_error)
        g = next(x for x in (start, self.dual, fb) if x is not None)
        fa0 = fb if self._fa is None else self._fa

        # one softmin per half-step: raw = softmin(g + lb) is the check's f_next and
        # the next f's plain update.  Both updates are over-relaxed (the first f
        # has no previous value), so the b-marginal is not exact and the test
        # bounds both defects of the plan of (f, g):
        # a_i (exp((f_i - f_next_i)/eps) - 1) and b_j (exp((g_j - g_soft_j)/eps) - 1)
        empty_a, empty_b = _empty_cells(a), _empty_cells(b)
        marginal_error = np.inf
        with np.errstate(divide="ignore", over="ignore"):
            f = _finite(_softmin(kmat, g + lb, dim, epsilon))
            for it in range(max_iter):
                g_soft = _finite(_softmin(kmat, f + la, dim, epsilon))
                g, b_defect = _relaxed(b, g, g_soft, g_soft - g, epsilon, empty_b)
                f_soft, step, a_defect = _row_defect(kmat, g, lb, f, a, dim, epsilon)
                marginal_error = max(a_defect, b_defect)
                if marginal_error <= tol:
                    break
                f = _relaxed(a, f, f_soft, step, epsilon, empty_a, False)[0]
            else:
                raise ConvergenceError(
                    f"sinkhorn failed to reach marginal tolerance {tol} in {max_iter} iterations "
                    f"(marginal error {marginal_error:.3e})",
                    marginal_error=marginal_error,
                )

        ot_uv = float(np.sum(f * a) + np.sum(g * b))
        fa, it_a = _sym_potential(la, kmat, dim, epsilon, max_iter, tol, fa0)
        self.dual, self._fa = g, fa
        ot_uu = float(2.0 * np.sum(fa * a))
        ot_vv = float(2.0 * np.sum(fb * b))
        value = ot_uv - 0.5 * ot_uu - 0.5 * ot_vv
        if abs(value) < 1e3 * tol:
            value = max(value, 0.0)

        debiased = 0.5 * (f - fa)
        debiased = debiased - debiased.mean()
        return TransportResult(
            w2_squared=float(value),
            potential=debiased,
            method="sinkhorn",
            iterations=it + 1 + it_a + it_b,
            marginal_error=marginal_error,
        )


class ExactTransport:
    """Exact quantile transport to one fixed 1D target (`w2_exact_1d`).  It
    holds the target's CDF, computed once, and reads the cell integrals its
    grid keeps; it keeps no dual, so `dual` is None and `start` is ignored.

    A call at the target itself (`np.array_equal` of the values) returns
    W^2 = 0.0 and a zero potential, and W in closed form.  With the map the
    identity, W_kl is the integral of hat_k hat_l / v over the cells, and
    1/v on cell j is h/dcv_j, dcv the target's CDF increments: the scaling
    the quantile pass uses, not the stored value.  With c_j = h^2/dcv_j,
    and c_j = 0 on flat cells (dcv_j <= `_FLAT_INCREMENT`, untransported
    as in the quantile pass), the diagonal is (c_k + c_{k+1})/3 and the
    off-diagonal c_{k+1}/6.  The quantile pass there returns a potential
    of rounding noise, largest in the tails where the cumulative sum
    saturates, and bands that agree with these to 1e-5 on the faces a step
    solves for.
    """

    dual = None

    def __init__(self, target: GridDensity):
        grid = target.grid
        if grid.dim != 1:
            raise ValueError(f"exact transport requires dimension 1, got {grid.dim}")
        self._target = target
        self._cdf = _cdf(target.values, grid)

    def __call__(self, u: GridDensity, start: Optional[np.ndarray] = None) -> TransportResult:
        _check_same_grid(u, self._target)
        if np.array_equal(u.values, self._target.values):
            return self._at_target()
        return _quantile_transport(u, self._cdf, self._target.grid.axis_cell_integrals)

    def _at_target(self) -> TransportResult:
        """The call at the target itself, in closed form (see the class docstring)."""
        grid = self._target.grid
        h = grid.spacing
        dcv = np.diff(self._cdf)
        c = h * h / np.where(dcv <= _FLAT_INCREMENT, np.inf, dcv)  # 0 on flat cells
        bands = ((c[:-1] + c[1:]) / 3.0, c[1:-1] / 6.0)
        return TransportResult(w2_squared=0.0, potential=np.zeros(grid.n), method="exact_1d",
                               hessian_bands=bands)


def prepare(target: GridDensity, config: TransportConfig):
    """The transport to `target` that a JKO step evaluates: exact quantile
    transport in 1D, Sinkhorn with `config`'s settings otherwise."""
    if target.grid.dim == 1:
        return ExactTransport(target)
    return Sinkhorn(target, config)


def w2(u: GridDensity, transport, start: Optional[np.ndarray] = None) -> TransportResult:
    """Evaluate a prepared transport (`prepare`) at u: the value and the
    potential; `start` is the dual a Sinkhorn call starts from in place of
    the last converged one."""
    return transport(u, start=start)


def w2_sinkhorn(u: GridDensity, v: GridDensity, epsilon: float,
                max_iter: int = 20000, tol: float = 1e-9) -> TransportResult:
    """One cold `Sinkhorn` call: S_eps(u, v) and delta(S_eps/2), in any
    dimension.  Raises ValueError on settings `TransportConfig` refuses,
    before any pass."""
    return Sinkhorn(v, TransportConfig(epsilon, max_iter, tol))(u)
