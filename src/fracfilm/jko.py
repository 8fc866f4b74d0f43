"""Minimizing-movement scheme: proximal steps, trajectories, interpolant.

Each step minimizes  E(u) = F_s(u) + W^2(u, u_prev)/(2 tau)  over the grid
simplex by mirror descent: multiplicative updates u <- u exp(-alpha G) with
G = L_s u + phi/tau, phi = delta(W^2/2) the first-variation potential of the
transport term, recomputed every inner iteration.  Updates keep mass one
and positivity exactly, which is the whole point of the parameterization.
All transport calls of a step share one `SinkhornCache` for u_prev, and the
step records how many calls it made and how many Sinkhorn passes they took.

The inner loop runs in two phases.  The first is Nesterov-extrapolated
mirror descent with Armijo backtracking on the objective, starting from
step size tau; once objective decrements fall below double-precision
resolution (long before the stationarity residual is exhausted) it hands
over to a polish phase that accepts steps on strict residual decrease
instead.  The residual ignores cells whose value is below 1e-8 of the peak
(`_DEGENERATE_SHARE`): those cells relax only logarithmically under
multiplicative updates while their influence on any functional of the
iterate is bounded by their total mass, orders below every tolerance in the
verification suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List

import numpy as np

from .errors import FracfilmError, StagnationError
from .measure import GridDensity, boundary_shell_mass, entropy, second_moment
from .spectral import PeriodicGrid, energy_of_values, fractional_laplacian
from .transport import SinkhornCache, TransportConfig, w2

_OBJ_NOISE = 32 * np.finfo(float).eps
_SHRINK = 0.5  # Armijo backtracking factor
_ARMIJO = 1e-4  # sufficient-decrease constant
_ALPHA_MIN = 1e-12  # smallest step the line search tries
_DEGENERATE_SHARE = 1e-8  # residual floor, relative to the peak value
STOP_REASONS = ("converged", "max_iters", "obj_tol", "polish_floor")


@dataclass(frozen=True)
class InnerConfig:
    """Inner (proximal) solver settings: iteration cap and stopping rules."""

    max_iters: int = 20000
    grad_tol: float = 1e-8
    obj_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1 or self.grad_tol <= 0 or self.obj_tol < 0:
            raise ValueError("inner solver tolerances must be positive")
        if not (np.isfinite(self.grad_tol) and np.isfinite(self.obj_tol)):
            raise ValueError("inner solver tolerances must be finite")


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
        if self.transport.method == "exact" and self.grid.dim != 1:
            raise ValueError(f"exact transport requires dimension 1, got {self.grid.dim}")


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
    objective_value: float
    boundary_mass: float
    stop_reason: str  # why the inner loop ended: one of STOP_REASONS
    transport_calls: int  # w2 evaluations the step made, the final one included
    sinkhorn_iters: int  # Sinkhorn passes of those calls (0 on the exact 1D path)


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


def _mirror_candidate(base: np.ndarray, exponent: np.ndarray, cell_volume: float) -> np.ndarray:
    e = exponent - np.max(exponent)
    w = base * np.exp(e)
    return w / (np.sum(w) * cell_volume)


def _extrapolate(u: np.ndarray, u_old: np.ndarray, beta: float, cell_volume: float) -> np.ndarray:
    # geometric extrapolation: the mirror-space analogue of y = u + beta (u - u_old)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(u_old > 0, u / np.where(u_old > 0, u_old, 1.0), 1.0)
    w = u * ratio ** beta
    return w / (np.sum(w) * cell_volume)


def jko_step(u_prev: GridDensity, cfg: JkoConfig) -> StepRecord:
    """One proximal step from u_prev; see the module docstring for the solver."""
    grid = u_prev.grid
    if not grid.same_as(cfg.grid):
        raise ValueError("density grid does not match the configured grid")
    s, tau, inner = cfg.s, cfg.tau, cfg.inner
    hvol = grid.cell_volume
    cache = SinkhornCache(u_prev, cfg.transport)
    counts = [0, 0]  # transport calls, Sinkhorn passes

    def count(tr):
        counts[0] += 1
        counts[1] += tr.iterations
        return tr

    def objective(values: np.ndarray) -> float:
        dens = GridDensity(grid, values)
        tr = count(w2(dens, u_prev, cfg.transport, want_potential=False, cache=cache))
        return energy_of_values(values, grid, s) + tr.w2_squared / (2 * tau)

    def gradient(values: np.ndarray):
        dens = GridDensity(grid, values)
        tr = count(w2(dens, u_prev, cfg.transport, want_potential=True, cache=cache))
        g = fractional_laplacian(values, grid, s) + tr.potential / tau
        return g, tr.w2_squared

    def residual(values: np.ndarray, g: np.ndarray):
        mask = values > _DEGENERATE_SHARE * np.max(values)
        p = values[mask] * hvol
        gm = g[mask]
        gbar = float(np.sum(p * gm) / np.sum(p))
        return float(np.sqrt(np.sum(p * (gm - gbar) ** 2))), gbar

    u = u_old = u_prev.values.copy()
    obj = energy_of_values(u, grid, s)
    alpha, tmom = tau, 1.0
    accepted_total = noise_streak = polish_failures = 0
    polish = False
    stop_reason = "max_iters"
    for _ in range(inner.max_iters):
        beta = 0.0 if polish else (tmom - 1.0) / (tmom + 2.0)
        y = _extrapolate(u, u_old, beta, hvol) if beta > 0 else u

        g, w2_y = gradient(y)
        kkt, gbar = residual(y, g)
        if kkt <= inner.grad_tol:
            u, stop_reason = y, "converged"
            break
        obj_y = energy_of_values(y, grid, s) + w2_y / (2 * tau)

        if not polish:
            alpha = min(2 * alpha, tau)
            accepted = False
            obj_c, cand = None, None
            while alpha >= _ALPHA_MIN:
                cand = _mirror_candidate(y, -alpha * (g - gbar), hvol)
                obj_c = objective(cand)
                if obj_c <= obj_y - _ARMIJO * alpha * kkt * kkt + _OBJ_NOISE * max(1.0, abs(obj_y)):
                    accepted = True
                    break
                alpha *= _SHRINK
            if not accepted:
                if accepted_total == 0:
                    raise StagnationError(
                        f"no descent step above alpha_min={_ALPHA_MIN} "
                        f"(kkt residual {kkt:.3e})",
                        last_iterate=GridDensity(grid, u),
                    )
                polish, tmom = True, 1.0
                continue
            if obj_c <= obj + _OBJ_NOISE * max(1.0, abs(obj)):
                decrease = obj - obj_c
                u_old, u, obj = u, cand, obj_c
                tmom += 1.0
                accepted_total += 1
                if inner.obj_tol > 0 and 0 <= decrease <= inner.obj_tol * abs(obj):
                    stop_reason = "obj_tol"
                    break
                # objective progress at the floating-point noise floor for a
                # sustained stretch: hand over to the residual-driven polish
                if decrease <= 8 * np.finfo(float).eps * max(1.0, abs(obj)):
                    noise_streak += 1
                    if noise_streak >= 10:
                        polish, tmom = True, 1.0
                else:
                    noise_streak = 0
            else:
                tmom, u_old = 1.0, u  # momentum overshoot: restart
        else:
            # polish: accept on strict residual decrease; backtrack patiently
            accepted = False
            fails = 0
            while alpha >= _ALPHA_MIN / 10 and fails < 40:
                cand = _mirror_candidate(y, -alpha * (g - gbar), hvol)
                cand_g, _ = gradient(cand)
                kkt_c, _ = residual(cand, cand_g)
                if kkt_c < kkt:
                    accepted = True
                    break
                alpha *= 0.7
                fails += 1
            if not accepted:
                polish_failures += 1
                if polish_failures >= 3:
                    u, stop_reason = y, "polish_floor"
                    break  # floating-point floor of the residual
                alpha = tau * 2.0 ** -6
                continue
            polish_failures = 0
            u_old, u = u, cand
            accepted_total += 1
            alpha = min(alpha * 1.2, tau)

    final = GridDensity(grid, u)
    tr_final = count(w2(final, u_prev, cfg.transport, want_potential=True, cache=cache))
    g_final = fractional_laplacian(u, grid, s) + tr_final.potential / tau
    kkt_final, _ = residual(u, g_final)
    e_final = energy_of_values(u, grid, s)
    return StepRecord(
        index=0,  # caller assigns
        density=final,
        w2_sq_to_prev=tr_final.w2_squared,
        energy=e_final,
        entropy=entropy(final),
        second_moment=second_moment(final),
        inner_iterations=accepted_total,
        kkt_residual=kkt_final,
        objective_value=e_final + tr_final.w2_squared / (2 * tau),
        boundary_mass=boundary_shell_mass(final),
        stop_reason=stop_reason,
        transport_calls=counts[0],
        sinkhorn_iters=counts[1],
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
