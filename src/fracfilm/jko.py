"""Minimizing-movement scheme: proximal steps, trajectories, interpolant.

Each step minimizes  E(u) = F_s(u) + W^2(u, u_prev)/(2 tau)  over the grid
simplex by Newton's method.  Its gradient is G = L_s u + phi/tau, with
phi = delta(W^2/2) the transport potential.  Every direction has zero
mass, and no flux crosses a face that touches a cell where u_prev = 0:
outside u_prev's support the exact 1D potential is flat, so the slope there
would be wrong.  Cells inside it that underflow to zero can refill.

In d = 1 the Hessian of W^2/2 is the exact one of quantile transport.  A
zero-mass change du moves the CDF at interior face k (between cells k and
k + 1) by dF_k = h (du_0 + ... + du_k) and the potential's face differences
by D dphi = -W dF, W tridiagonal and SPD (the transport's
`hessian_bands`).  Projected by the difference D, Newton's equation is the
face system

    (W + (tau/h) K) dF = tau D G,   K = D L_s D^T,   du_j = (dF_j - dF_{j-1})/h,

SPD and solved by one LU on the open faces (`_solve_faces`).  (tau/h) K is
a circulant: the step keeps only its symbol, n values built once per step
from the multiplier of L_s (`_face_laplacian`), and gathers the block on
the solved faces from it.  The first call, at u_prev, gives W in closed
form (`ExactTransport`).  The periodic wrap face is closed,
since exact transport lives on the interval, and so is every face
between two cells the residual ignores (below `_DEGENERATE_SHARE` of the
peak): there the direction is not proportional to u, as the Otto one below
is.  With those faces open it took up to 3.5 times a cell's mass, the
exponential candidate's mass error (7e-14), renormalised away, moved the
right-tail potential, where 1 - F ~ 1e-9, and a step at n = 2048 stalled
at kkt 3e-8.  The reference step from N(0, 1) converges in 2 iterations,
where Otto's model below took 5.

In d >= 2 the Hessian of W^2/2 is taken as the inverse of A_u = -div(u grad)
(Otto 2001), and the direction is

    du = -tau A_u z,   (I + tau L_s A_u) z = G - mean(G),

one linearised implicit step of the equation.  A_u uses face-averaged
mobility, zero on the closed faces.  The system is solved by conjugate
gradients on its SPD zero-mean form in Fourier coordinates, with a Fourier
preconditioner (`_solve_krylov`), stopped at the relative residual
`_NEWTON_FORCING`: an inexact Newton method with a fixed forcing term
(Eisenstat & Walker 1996; `_solve_krylov` says why it suffices).

The candidate u + alpha du (u exp(alpha du / u) where du < 0, then
renormalised) keeps positivity and mass one to rounding; a non-descent
direction falls back to du = -tau u (G - mean(G)).  Armijo backtracking
starts at alpha = min(1, 2 alpha_prev).  Each trial point is evaluated
once: one transport call gives its objective for the Armijo test and, if
it is accepted, its gradient and transport result for the next Newton
iteration, so a step makes one call at u_prev and one per trial (Nocedal
& Wright 2006, section 3.5).  One forward FFT gives a trial point's energy
and L_s u (`energy_and_laplacian`, with the multiplier |xi|^(2s) computed
once per step), and the record keeps the accepted point's energy.  A step
ends `converged` (residual at most `grad_tol`, tested before the cap),
`max_iters`, or `stalled`
(`_STALL_ITERS` iterations without a new smallest residual, or an
exhausted line search after an accepted step).  The residual ignores
cells below 1e-8 of the peak (`_DEGENERATE_SHARE`), whose influence on
any functional of the iterate is bounded by their total mass.  All transport calls of a step go through
one transport object prepared for u_prev (`transport.prepare`), and the
step records how many calls it made and how many Sinkhorn passes they
took, and in d >= 2 how many operator applications its CG solves made
and how many of them missed `_NEWTON_FORCING`.

In d >= 2 each line-search call starts Sinkhorn from the dual that the
Newton solve predicts.  The Hessian of W^2/2 is taken as A_u^-1, so the
step alpha du = -alpha tau A_u z changes the half-potential phi by
-alpha tau z; with the cost |x - y|^2 and a transport map close to the
identity, the dual g on u_prev's side then moves by +2 alpha tau z.  The
call at alpha is handed g_u + 2 alpha tau z as its `start`, g_u the
converged dual of the accepted call at u (the prepared object's `dual`).
That call's dual and potential are used as they are, with no second call
at u: they were converged from its predicted start.  A fallback direction
gets no prediction (z does not describe it), nor does the exact 1D path,
which has no z and whose `dual` is None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import List

import numpy as np

from .errors import FracfilmError, StagnationError
from .measure import GridDensity, boundary_shell_mass, entropy, second_moment
from .spectral import PeriodicGrid, energy_and_laplacian, energy_of_values
# bound here, unused, so that callers that look it up on this module (the
# benchmark's tracer, benchmarks/tracing.py) still find it
from .spectral import fractional_laplacian  # noqa: F401
from .transport import TransportConfig, prepare, w2

_EPS = np.finfo(float).eps
_OBJ_NOISE = 32 * _EPS
_SHRINK = 0.5  # Armijo backtracking factor
_ARMIJO = 1e-4  # sufficient-decrease constant
_ALPHA_MIN = 1e-12  # smallest step the line search tries
_DEGENERATE_SHARE = 1e-8  # residual floor, relative to the peak value
_STALL_ITERS = 20  # iterations without a new smallest residual before a step stalls
_KRYLOV_RTOL = 1e-10  # default tolerance of `_solve_krylov`
_NEWTON_FORCING = 1e-5  # relative linear residual of a d >= 2 Newton solve
_CG_MAX_ITERS = 3050  # operator applications before CG gives up on its tolerance
STOP_REASONS = ("converged", "max_iters", "stalled")


@dataclass(frozen=True)
class InnerConfig:
    """Inner (proximal) solver settings: iteration cap and stationarity target."""

    max_iters: int = 20000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"inner max_iters must be at least 1, got {self.max_iters}")
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"inner grad_tol must be finite and positive, got {self.grad_tol}")


@dataclass(frozen=True)
class JkoConfig:
    """One minimizing-movement run: equation order s, step tau, grid, solvers."""

    grid: PeriodicGrid
    s: float
    tau: float
    inner: InnerConfig = field(default_factory=InnerConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self):
        if self.s <= 0 or not np.isfinite(self.s):
            raise ValueError(f"equation order must satisfy s > 0, got {self.s}")
        if self.tau <= 0 or not np.isfinite(self.tau):
            raise ValueError(f"time step must satisfy tau > 0, got {self.tau}")
        # the entropy check's |xi|^(2 + 2s) is the highest order a run or its checks apply
        with np.errstate(over="ignore"):
            top = self.grid.dim * np.max(self.grid.axis_freqs ** 2)
            if not np.isfinite(top ** (1.0 + self.s)):
                raise ValueError(f"equation order s = {self.s!r} overflows on this grid: "
                                 f"(max |xi|^2)^(1 + s) = {top:.3e}^{1.0 + self.s!r}")


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics of one proximal step."""

    index: int
    density: GridDensity
    w2_sq_to_prev: float
    energy: float
    entropy: float
    second_moment: float
    inner_iterations: int
    kkt_residual: float
    boundary_mass: float
    stop_reason: str  # why the inner loop ended: one of STOP_REASONS
    transport_calls: int  # w2 evaluations the step made
    sinkhorn_iters: int  # Sinkhorn passes of those calls (0 on the exact 1D path)
    krylov_applications: int  # CG operator applications (0 in d = 1)
    krylov_unmet: int  # CG solves that missed their tolerance (0 in d = 1)


@dataclass(frozen=True)
class Trajectory:
    config: JkoConfig
    initial: GridDensity
    steps: List[StepRecord]
    status: str = "ok"

    def __post_init__(self):
        for k, rec in enumerate(self.steps, start=1):
            if rec.index != k:
                raise ValueError(f"step indices must be contiguous from 1, found {rec.index} at {k}")

    def density_at_step(self, k: int) -> GridDensity:
        return self.initial if k == 0 else self.steps[k - 1].density

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    # the initial datum's scalars, computed on first use and kept: every
    # check that needs one reads it here
    @cached_property
    def initial_energy(self) -> float:
        return energy_of_values(self.initial.values, self.config.grid, self.config.s)

    @cached_property
    def initial_entropy(self) -> float:
        return entropy(self.initial)

    @cached_property
    def initial_moment(self) -> float:
        return second_moment(self.initial)


def interpolant(traj: Trajectory, t: float) -> GridDensity:
    """Piecewise-constant interpolant: value u^k on ((k-1) tau, k tau].

    t = 0 returns the initial datum; t = k tau lands on u^k (right-closed
    intervals).  A one-ulp guard keeps exact multiples of tau from drifting
    into the next interval under floating division.
    """
    if t < 0:
        raise ValueError(f"interpolant time must be nonnegative, got {t}")
    tau = traj.config.tau
    horizon = traj.num_steps * tau
    if t > horizon * (1 + 1e-12):
        raise ValueError(f"time {t} beyond trajectory horizon {horizon}")
    if t == 0:
        return traj.initial
    ratio = t / tau
    k = int(math.ceil(ratio * (1.0 - 4 * np.finfo(float).eps)))
    return traj.density_at_step(min(max(k, 1), traj.num_steps))


def _counted(values: np.ndarray) -> np.ndarray:
    """The cells the residual counts: above `_DEGENERATE_SHARE` of the peak."""
    return values > _DEGENERATE_SHARE * np.max(values)


def _open_faces(support: np.ndarray) -> tuple:
    """Per axis, the faces between cell j and j + e_a with both cells in `support`."""
    return tuple(support & np.roll(support, -1, axis=a) for a in range(support.ndim))


def _face_mobility(u: np.ndarray, open_faces: tuple, h: float) -> tuple:
    """Per axis, (u_j + u_{j+e_a}) / (2 h^2) on open faces and 0 on closed ones."""
    return tuple(
        np.where(opened, (u + np.roll(u, -1, axis=a)) / (2 * h * h), 0.0)
        for a, opened in enumerate(open_faces)
    )


def _apply_mobility(z: np.ndarray, mob: tuple) -> np.ndarray:
    """A_u z = sum_a D_a^T (m_a D_a z), D_a the periodic forward difference:
    the discrete -div(u grad z), symmetric positive semidefinite.  Along
    each axis, flux_j = m_j (z_{j+1} - z_j) and out_j += flux_{j-1} - flux_j,
    indexed by slices with the periodic wrap as a one-cell slice."""
    out = np.zeros_like(z)
    for a, m in enumerate(mob):
        lead = (slice(None),) * a
        head, tail = lead + (slice(1, None),), lead + (slice(None, -1),)
        first, last = lead + (slice(None, 1),), lead + (slice(-1, None),)
        flux = np.empty_like(z)
        np.subtract(z[head], z[tail], out=flux[tail])
        np.subtract(z[first], z[last], out=flux[last])
        flux *= m
        out[head] += flux[tail] - flux[head]
        out[first] += flux[last] - flux[first]
    return out


def _face_laplacian(grid: PeriodicGrid, mult: np.ndarray, tau: float) -> np.ndarray:
    """The symbol of (tau/h) K (d = 1), K = D L_s D^T with (D phi)_k =
    phi_{k+1} - phi_k and L_s the circulant of the multiplier `mult` =
    |xi|^(2s): n values k = (tau/h) (2c - roll(c, 1) - roll(c, -1)), c the
    column of L_s.  K is the symmetric circulant of k, entry (i, j) of the
    face matrix being k[(i - j) % n]; `_solve_faces` gathers its block."""
    col = np.fft.ifft(mult).real
    return (tau / grid.spacing) * (2 * col - np.roll(col, 1) - np.roll(col, -1))


def _solve_faces(lap: np.ndarray, bands: tuple, opened: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the 1D face system (W + (tau/h) K) dF = rhs on the open faces;
    dF = 0 on the others and on the periodic wrap face n - 1 (the last entry).

    `lap` is the symbol of (tau/h) K (`_face_laplacian`), whose block on
    the solved faces i, j is gathered as lap[i - j]: a negative difference
    indexes from the end, which is (i - j) mod n.  `bands` are the
    transport's `hessian_bands` (W's diagonal and off-diagonal), `opened`
    marks the faces 0..n-2 that the step may move mass across, and `rhs`
    holds one entry per face 0..n-2.  A face is solved for when it is open
    and its diagonal entry of
    W is finite and positive: a tail cell of the target can put W past the
    float range, and a face between two flat cells carries none of it.  The
    system is SPD; its diagonal spans 3 to 2e7 on the reference run (1/v
    grows like exp(x^2/2) into the Gaussian's tail), so it is scaled
    symmetrically to a unit diagonal before the LU solve.
    """
    diag, off = bands
    idx = np.flatnonzero(opened & np.isfinite(diag) & (diag > 0))
    dF = np.zeros(len(diag) + 1)
    if idx.size == 0:
        return dF
    system = lap[np.subtract.outer(idx, idx)]
    system[np.diag_indices(idx.size)] += diag[idx]
    pair = np.flatnonzero(np.diff(idx) == 1)  # neighbouring open faces k, k + 1
    system[pair, pair + 1] += off[idx[pair]]
    system[pair + 1, pair] += off[idx[pair]]
    scale = 1.0 / np.sqrt(np.diagonal(system))
    system *= scale
    system *= scale[:, None]
    dF[idx] = scale * np.linalg.solve(system, scale * rhs[idx])
    return dF


def _solve_krylov(u: np.ndarray, mob: tuple, tau: float, rhs: np.ndarray,
                  grid: PeriodicGrid, s: float, rtol: float = _KRYLOV_RTOL) -> tuple:
    """Solve (I + tau L_s A_u) z = rhs by preconditioned CG to the relative
    residual `rtol`.  Returns (z, applications, met): met is whether
    |rhs - (I + tau L_s A_u) z| <= rtol |rhs|, and after `_CG_MAX_ITERS`
    applications of A_u the last iterate is returned (the caller checks descent).

    A_u kills constants and maps onto zero-mean functions, where L_s is
    invertible, so z = z0 + mean(rhs) with z0 the solution of the SPD system
    (L_s^-1 + tau A_u) z0 = L_s^-1 (rhs - mean(rhs)).  CG runs on the `rfftn`
    coefficients with the Parseval weights (1 on the first and the Nyquist
    column of the last axis, 2 elsewhere).  There L_s^-1 and the
    preconditioner lambda / (1 + tau m lambda |xi|^2), the inverse symbol at
    the constant mobility m = sum(u^2)/sum(u), are diagonal: an iteration is
    one `irfftn`, one A_u and one `rfftn`.  The original residual is lambda
    times the CG residual, so the stopping test costs no application.

    `jko_step` asks for `_NEWTON_FORCING` only: its loop tests the step's
    own residual and descent-checks every direction, so the extra digits of
    a 1e-10 solve never change a step's Newton count, and they cost half or
    more of its operator applications.  A forcing of 1e-3 is too loose: at
    s = 2 the sink2d step then takes 8 Newton iterations instead of 2.  A
    direct call gets `_KRYLOV_RTOL`, a linear solve that matches a dense
    one to 1e-10.
    """
    cols = rhs.shape[-1] // 2 + 1  # n is even, so `irfftn` restores the grid's shape
    xi_sq = grid.freq_sq[..., :cols]
    lam = xi_sq ** s
    inv_lam = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0)
    m_bar = float(np.sum(u * u) / np.sum(u))
    precond = lam / (1.0 + tau * m_bar * lam * xi_sq)
    weight = np.full(cols, 2.0)
    weight[0] = weight[-1] = 1.0

    def dot(x, y):
        return float(np.vdot(weight * x, y).real)

    coeffs = np.fft.rfftn(rhs)
    target = rtol * math.sqrt(dot(coeffs, coeffs))
    res = inv_lam * coeffs
    sol = np.zeros_like(res)
    direction = precond * res
    rz = dot(res, direction)
    applications = 0
    while True:
        lam_res = lam * res
        met = math.sqrt(dot(lam_res, lam_res)) <= target
        if met or applications == _CG_MAX_ITERS:
            break
        image = inv_lam * direction
        image += tau * np.fft.rfftn(_apply_mobility(np.fft.irfftn(direction), mob))
        applications += 1
        step = rz / dot(direction, image)
        sol += step * direction
        res -= step * image
        pres = precond * res
        rz, rz_prev = dot(res, pres), rz
        direction = pres + (rz / rz_prev) * direction
    return np.fft.irfftn(sol) + np.mean(rhs), applications, met


def _candidate(u: np.ndarray, du: np.ndarray, alpha: float, cell_volume: float) -> np.ndarray:
    """u + alpha du where du >= 0, u exp(alpha du / u) where du < 0, renormalised."""
    with np.errstate(divide="ignore", over="ignore"):  # du / u is -inf where u is 0 or tiny
        ratio = np.divide(du, u, out=np.zeros_like(u), where=du < 0)
    w = np.where(du < 0, u * np.exp(alpha * ratio), u + alpha * du)
    return w / (np.sum(w) * cell_volume)


def jko_step(u_prev: GridDensity, cfg: JkoConfig) -> StepRecord:
    """One proximal step from u_prev; see the module docstring for the solver."""
    grid = u_prev.grid
    if grid != cfg.grid:
        raise ValueError("density grid does not match the configured grid")
    s, tau, inner = cfg.s, cfg.tau, cfg.inner
    hvol = grid.cell_volume
    transport = prepare(u_prev, cfg.transport)
    mult = grid.freq_sq ** s  # the symbol of L_s
    counts = [0, 0, 0, 0]  # transport calls, Sinkhorn passes, CG applications, unmet solves

    def evaluate(values: np.ndarray, start=None):
        """The objective at `values`, its energy, its gradient and the transport result."""
        tr = w2(GridDensity(grid, values), transport, start=start)
        counts[0] += 1
        counts[1] += tr.iterations
        energy, lap_u = energy_and_laplacian(values, grid, mult)
        return energy + tr.w2_squared / (2 * tau), energy, lap_u + tr.potential / tau, tr

    def residual(values: np.ndarray, g: np.ndarray):
        mask = _counted(values)
        p = values[mask] * hvol
        gm = g[mask]
        gbar = float(np.sum(p * gm) / np.sum(p))
        return float(np.sqrt(np.sum(p * (gm - gbar) ** 2))), gbar

    if grid.dim == 1:
        lap = _face_laplacian(grid, mult, tau)
        opened = _open_faces(u_prev.values > 0)[0][:-1]

        def direction(u, g, tr):
            counted = _counted(u)
            movable = opened & (counted[:-1] | counted[1:])
            dF = _solve_faces(lap, tr.hessian_bands, movable, tau * np.diff(g))
            return (dF - np.roll(dF, 1)) / grid.spacing, None
    else:
        open_faces = _open_faces(u_prev.values > 0)

        def direction(u, g, tr):
            mob = _face_mobility(u, open_faces, grid.spacing)
            z, applications, met = _solve_krylov(u, mob, tau, g, grid, s, _NEWTON_FORCING)
            counts[2] += applications
            counts[3] += not met
            return -tau * _apply_mobility(z, mob), z

    u = u_prev.values.copy()
    obj, energy, g, tr = evaluate(u)
    alpha = 0.5  # the first trial step is min(1, 2 alpha) = 1
    accepted_total = since_best = 0
    best_kkt = np.inf
    while True:
        kkt, gbar = residual(u, g)
        if kkt <= inner.grad_tol:
            stop_reason = "converged"
            break
        if accepted_total == inner.max_iters:
            stop_reason = "max_iters"
            break
        if kkt < best_kkt:
            best_kkt, since_best = kkt, 0
        else:
            since_best += 1
            if since_best >= _STALL_ITERS:
                stop_reason = "stalled"
                break

        du, z = direction(u, g - gbar, tr)
        slope = hvol * float(np.sum(g * du))
        dual = transport.dual  # the Sinkhorn dual at u; None on the exact 1D path
        if not slope < 0:
            du = -tau * u * (g - gbar)
            slope = hvol * float(np.sum(g * du))
            dual = None  # z does not describe this step

        alpha = min(1.0, 2 * alpha)
        while alpha >= _ALPHA_MIN:
            cand = _candidate(u, du, alpha, hvol)
            start = None if dual is None else dual + (2 * alpha * tau) * z
            obj_c, energy_c, g_c, tr_c = evaluate(cand, start)
            if obj_c <= obj + _ARMIJO * alpha * slope + _OBJ_NOISE * max(1.0, abs(obj)):
                break
            alpha *= _SHRINK
        else:
            if accepted_total == 0:
                raise StagnationError(
                    f"no descent step above alpha_min={_ALPHA_MIN} "
                    f"(kkt residual {kkt:.3e})",
                    last_iterate=GridDensity(grid, u),
                )
            stop_reason = "stalled"
            break
        u, obj, energy, g, tr = cand, obj_c, energy_c, g_c, tr_c
        accepted_total += 1

    final = GridDensity(grid, u)
    return StepRecord(
        index=0,  # caller assigns
        density=final,
        w2_sq_to_prev=tr.w2_squared,
        energy=energy,
        entropy=entropy(final),
        second_moment=second_moment(final),
        inner_iterations=accepted_total,
        kkt_residual=kkt,
        boundary_mass=boundary_shell_mass(final),
        stop_reason=stop_reason,
        transport_calls=counts[0],
        sinkhorn_iters=counts[1],
        krylov_applications=counts[2],
        krylov_unmet=counts[3],
    )


def run(u0: GridDensity, cfg: JkoConfig, num_steps: int) -> Trajectory:
    """Iterate `jko_step`; on a solver failure (a `FracfilmError`) the
    trajectory stops early with the failing step recorded in `status`.
    Any other exception is a bug and propagates."""
    if num_steps < 0:
        raise ValueError(f"number of steps must be nonnegative, got {num_steps}")
    steps: List[StepRecord] = []
    u = u0
    for k in range(1, num_steps + 1):
        try:
            rec = jko_step(u, cfg)
        except FracfilmError as exc:
            return Trajectory(cfg, u0, steps, status=f"failed:step={k}:{type(exc).__name__}:{exc}")
        rec = replace(rec, index=k)
        steps.append(rec)
        u = rec.density
    return Trajectory(cfg, u0, steps)
