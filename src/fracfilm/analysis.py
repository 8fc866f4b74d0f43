"""Inequality and identity checkers for discrete trajectories.

Every checker is a pure function of a trajectory (or densities) and returns
a CheckReport with per-step left/right-hand sides, the worst measured
violation and a pass flag.  Inequalities that hold only at exact minimizers
are checked with a multiplicative slack plus an absolute floor; the raw
violations are part of the report so a tightened inner solver can be shown
to shrink them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .errors import FracfilmError
from .fields import CosineBump
from .jko import JkoConfig, Trajectory, interpolant, run
from .measure import (
    GridDensity,
    VectorField,
    entropy,
    heat_semigroup,
    pushforward_with_drift,
    spike_density,
)
from .spectral import (
    energy,
    energy_of_values,
    fractional_laplacian,
    sobolev_norm_sq,
    spectral_divergence,
)
from .transport import w2_exact_1d

_FD_STEP = 1e-3  # flow time of the derivative identity's finite difference
_ENERGY_REL_TOL = 1e-8  # relative tolerance of the telescoped energy estimate
_MOMENT_ABS_TOL = 1e-6  # absolute tolerance of the second-moment bound
_MULT_SLACK = 0.05  # multiplicative slack of the inequalities met only at exact minimizers
_ENTROPY_ABS_SLACK = 1e-3  # absolute floor of the entropy-dissipation inequality
_WEAK_FORM_ABS_SLACK = 1e-6  # absolute floor of the discrete weak form
_EVI_TIMES = (1e-2, 5e-3, 2.5e-3)  # decreasing heat-flow times of the EVI check
_EVI_MONO_TOL = 1e-12  # allowed increase of the EVI slack as t decreases


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one checker: series of (k, lhs, rhs), violation, verdict.
    A check that cannot judge its input fails with an empty series,
    max_violation None and the reason in ``extra["reason"]``."""

    name: str
    tolerance: float
    ks: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    max_violation: Optional[float]
    passed: bool
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_series(cls, name, ks, lhs, rhs, tolerance, extra=None):
        ks = np.asarray(ks)
        lhs = np.asarray(lhs, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        violation = float(np.max(lhs - rhs)) if len(lhs) else 0.0
        return cls(
            name=name,
            tolerance=float(tolerance),
            ks=ks,
            lhs=lhs,
            rhs=rhs,
            max_violation=violation,
            passed=bool(violation <= tolerance),
            extra=dict(extra or {}),
        )

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "passed": self.passed,
            "series": [
                {"k": int(k), "lhs": float(l), "rhs": float(r)}
                for k, l, r in zip(self.ks, self.lhs, self.rhs)
            ],
        }
        if self.extra:
            doc["extra"] = self.extra
        return doc


# ---------------------------------------------------------------------------
# the nonlinear form N


def operator_N(v: np.ndarray, grid, eta: np.ndarray, s: float) -> float:
    """Weak-form pairing N(v, eta) = h^d sum (L_s v) * div(eta v).

    This is the exact derivative of the scheme's lattice energy
    `energy_of_values` along dv/dt = -div(eta v), for every s > 0.  The
    paper splits the order at m, the integer part of s/2, moving L_m (and,
    for s in (2m+1, 2m+2), one gradient) onto div(eta v) so that N is
    defined for v in H^{1+s}.  On the grid every derivative is a Fourier
    multiplier, so that split changes nothing but rounding on smooth data,
    and its gradient branch is not the energy's derivative in d >= 2: the
    gradient multipliers zero each axis's Nyquist mode, |xi|^(2s) does not.
    Products eta*v are formed pointwise.
    """
    if s <= 0 or not np.isfinite(s):
        raise ValueError(f"operator order must satisfy s > 0, got {s}")
    v = np.asarray(v, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (grid.dim,) + grid.shape:
        raise ValueError(
            f"vector field values must have shape {(grid.dim,) + grid.shape}, got {eta.shape}"
        )
    div_ev = spectral_divergence(eta * v[None], grid)
    return float(grid.cell_volume * np.sum(fractional_laplacian(v, grid, s) * div_ev))


def derivative_identity_check(v: GridDensity, eta: VectorField, s: float) -> CheckReport:
    """Centered finite difference of F_s along the flow against -N(v, eta).

    Richardson consistency: a third evaluation at t_fd/2 (t_fd = `_FD_STEP`)
    estimates the quadratic truncation constant; pass when the relative
    error stays within max(1e-3, C_est * t_fd^2).
    """
    t_fd = _FD_STEP

    def pushed_energy(t):
        return energy(pushforward_with_drift(v, eta, t)[0], s)

    fp = pushed_energy(t_fd)
    fm = pushed_energy(-t_fd)
    fd_full = (fp - fm) / (2.0 * t_fd)
    fp2 = pushed_energy(t_fd / 2)
    fm2 = pushed_energy(-t_fd / 2)
    fd_half = (fp2 - fm2) / t_fd
    pts = np.stack([c.ravel() for c in v.grid.coords], axis=1)
    eta_vals = eta(pts).T.reshape((v.grid.dim,) + v.grid.shape)
    target = -operator_N(v.values, v.grid, eta_vals, s)
    scale = max(abs(target), 1e-300)
    rel = abs(fd_full - target) / scale
    c_est = abs(fd_full - fd_half) / (0.75 * t_fd ** 2)
    tol = max(1e-3, c_est * t_fd ** 2 / scale)
    return CheckReport.from_series(
        "derivative_identity",
        [0],
        [rel],
        [tol],
        tolerance=0.0,
        extra={
            "s": s,
            "finite_difference": fd_full,
            "minus_N": target,
            "relative_error": rel,
            "richardson_constant": c_est,
        },
    )


# ---------------------------------------------------------------------------
# trajectory checkers


def check_energy_estimate(traj: Trajectory) -> CheckReport:
    """Telescoped one-step minimality: for every prefix N,

        F_s(u^N) + (1/2) sum_{k<=N} W^2_k / tau  <=  F_s(u0) (1 + _ENERGY_REL_TOL).
    """
    cfg = traj.config
    e0 = traj.initial_energy
    energies = np.array([rec.energy for rec in traj.steps])
    w2s = np.array([rec.w2_sq_to_prev for rec in traj.steps])
    dissipation = np.cumsum(w2s) / (2.0 * cfg.tau)
    lhs = np.concatenate([[e0], energies + dissipation])
    rhs = np.full(len(lhs), e0)
    return CheckReport.from_series(
        "energy_estimate",
        np.arange(len(lhs)),
        lhs,
        rhs,
        tolerance=_ENERGY_REL_TOL * max(e0, 1e-300),
        extra={"initial_energy": e0},
    )


def check_moment_bound(traj: Trajectory) -> CheckReport:
    """Second-moment bound M(u^N) <= 2 T F_s(u0) + 2 M(u0), T = num_steps tau.

    In one dimension the series also carries the triangle/Jensen chain rows
    W^2(u^N, spike) <= 2 N tau sum_k W^2_k / tau + 2 W^2(u0, spike), an
    exact inequality of the discrete metric (rows indexed past the steps).
    """
    cfg = traj.config
    e0 = traj.initial_energy
    m0 = traj.initial_moment
    horizon = traj.num_steps * cfg.tau
    bound = 2.0 * horizon * e0 + 2.0 * m0
    ks, lhs, rhs = [0], [m0], [bound]
    for k, rec in enumerate(traj.steps, start=1):
        ks.append(k)
        lhs.append(rec.second_moment)
        rhs.append(bound)
    extra = {"initial_moment": m0, "initial_energy": e0, "horizon": horizon}
    if cfg.grid.dim == 1:
        spike = spike_density(cfg.grid)
        w0 = w2_exact_1d(traj.initial, spike, want_potential=False).w2_squared
        acc = 0.0
        offset = traj.num_steps
        for k, rec in enumerate(traj.steps, start=1):
            acc += rec.w2_sq_to_prev / cfg.tau
            wn = w2_exact_1d(rec.density, spike, want_potential=False).w2_squared
            ks.append(offset + k)
            lhs.append(wn)
            rhs.append(2.0 * k * cfg.tau * acc + 2.0 * w0)
        extra["chain_reference_w2"] = float(w0)
    return CheckReport.from_series("moment_bound", ks, lhs, rhs, tolerance=_MOMENT_ABS_TOL,
                                   extra=extra)


def check_entropy_dissipation(traj: Trajectory) -> CheckReport:
    """Regularity gain from the heat-flow interchange:

        ||u^k||^2_{H^{1+s},hom} <= (H(u^{k-1}) - H(u^k))/tau

    with multiplicative slack for inexact minimizers, plus the
    time-integrated bound with the reconstructed dimensional constant as a
    synthetic row k = N + 1 (no multiplicative slack).
    """
    cfg = traj.config
    lhs, rhs, ks = [], [], []
    ent_prev = traj.initial_entropy
    for k, rec in enumerate(traj.steps, start=1):
        ks.append(k)
        lhs.append(2.0 * energy_of_values(rec.density.values, cfg.grid, 1.0 + cfg.s))
        rhs.append((ent_prev - rec.entropy) / cfg.tau)
        ent_prev = rec.entropy
    lhs = np.array(lhs)
    rhs = np.array(rhs)
    # integrated form: sum tau ||u^k||^2 <= H(u0) + C (1 + T F(u0) + M(u0)),
    # C from the constants of the entropy lower bound
    # H(u) >= -1/e - (d/2) log(4 pi) - M(u)/4
    e0 = traj.initial_energy
    h0 = traj.initial_entropy
    m0 = traj.initial_moment
    horizon = traj.num_steps * cfg.tau
    c_dim = max(1.0 / np.e + 0.5 * cfg.grid.dim * np.log(4.0 * np.pi), 0.5)
    integrated_lhs = float(cfg.tau * np.sum(lhs))
    integrated_rhs = float(h0 + c_dim * (1.0 + horizon * e0 + m0))
    # the integrated bound is one more row, indexed past the steps
    return CheckReport.from_series(
        "entropy_dissipation",
        ks + [len(traj.steps) + 1],
        np.append(lhs, integrated_lhs),
        np.append(rhs * (1.0 + _MULT_SLACK), integrated_rhs),
        tolerance=_ENTROPY_ABS_SLACK,
        extra={
            "raw_violation": float(np.max(lhs - rhs)) if len(lhs) else 0.0,
            "integrated_lhs": integrated_lhs,
            "integrated_rhs": integrated_rhs,
            "integrated_ok": bool(integrated_lhs <= integrated_rhs + _ENTROPY_ABS_SLACK),
            "reconstructed_constant": float(c_dim),
        },
    )


def check_evi_entropy(u: GridDensity, v: GridDensity) -> CheckReport:
    """Evolution variational inequality of the entropy (a 0-flow):

        (W^2(S_t u, v) - W^2(u, v)) / (2t)  <=  H(v) - H(u) + eps(t)

    with the measured slack eps(t) required nonincreasing along the
    decreasing times `_EVI_TIMES`.  When the heat flow of u rings below its
    negativity floor (rough data), the check fails with that reason.
    """
    ts = list(_EVI_TIMES)
    try:
        heated = [heat_semigroup(u, t) for t in ts]
    except ValueError as exc:
        empty = np.zeros(0)
        return CheckReport("evi_entropy", _EVI_MONO_TOL, empty, empty, empty, None, False,
                           extra={"reason": str(exc)})
    w2_uv = w2_exact_1d(u, v, want_potential=False).w2_squared
    rhs_val = entropy(v) - entropy(u)
    lhs = []
    for t, u_t in zip(ts, heated):
        w2_t = w2_exact_1d(u_t, v, want_potential=False).w2_squared
        lhs.append((w2_t - w2_uv) / (2.0 * t))
    slack = np.maximum(0.0, np.array(lhs) - rhs_val)
    # rows: slack(t_{i+1}) vs slack(t_i) -- nonincreasing along decreasing t
    return CheckReport.from_series(
        "evi_entropy",
        np.arange(1, len(ts)),
        slack[1:],
        slack[:-1],
        tolerance=_EVI_MONO_TOL,
        extra={
            "t_list": ts,
            "quotients": [float(x) for x in lhs],
            "entropy_difference": float(rhs_val),
            "slack": [float(x) for x in slack],
        },
    )


def check_weak_form_step(
    traj: Trajectory, phi: Optional[CosineBump] = None, lam: Optional[float] = None
) -> CheckReport:
    """Two-sided discrete weak form from the potential-flow interchange:

        |<phi(t_n), u^n - u^{n-1}> - tau N(u^n, grad phi(t_n))|
            <= (lam/2) W^2(u^n, u^{n-1}) (1 + _MULT_SLACK) + _WEAK_FORM_ABS_SLACK,

    phi sampled at the right endpoint t_n = n tau; by default the bump
    `CosineBump(d, 0.3 L, 0.45 L)` on a box of side L, and lam defaults to
    its Hessian bound.  The report appends two synthetic rows: the
    time-integrated residual against (lam/2) sum W^2, and the vanishing
    bound (1/2) sum W^2 <= tau F_s(u0).
    """
    cfg = traj.config
    grid = cfg.grid
    if phi is None:
        # gentle space-time bump: curvature small enough that the weak-form
        # discretization floor stays under the absolute slack at fine tau
        phi = CosineBump(grid.dim, 0.3 * grid.box_length, 0.45 * grid.box_length)
    lam_val = float(lam if lam is not None else phi.hessian_sup)
    pts = np.stack([c.ravel() for c in grid.coords], axis=1)
    # phi = a(t) psi(x): psi and grad psi on the grid once, scaled per step
    psi, dpsi = phi.spatial(pts)
    psi = psi.reshape(grid.shape)
    dpsi = dpsi.T.reshape((grid.dim,) + grid.shape)
    hvol = grid.cell_volume
    ks, lhs, rhs = [], [], []
    resid_sum = 0.0
    w2_sum = 0.0
    u_prev = traj.initial
    for k, rec in enumerate(traj.steps, start=1):
        a_n = phi.time_factor(k * cfg.tau)
        phi_vals = a_n * psi
        eta_vals = a_n * dpsi
        pairing = hvol * float(np.sum(phi_vals * (rec.density.values - u_prev.values)))
        nval = operator_N(rec.density.values, grid, eta_vals, cfg.s)
        resid = pairing - cfg.tau * nval
        ks.append(k)
        lhs.append(abs(resid))
        rhs.append(0.5 * lam_val * rec.w2_sq_to_prev * (1.0 + _MULT_SLACK))
        resid_sum += resid
        w2_sum += rec.w2_sq_to_prev
        u_prev = rec.density
    e0 = traj.initial_energy
    # integrated residual (discrete weak formulation): per-step absolute
    # slack accumulates coherently over the horizon, hence the (N-1) factor
    nsteps = len(traj.steps)
    ks.append(nsteps + 1)
    lhs.append(abs(resid_sum))
    rhs.append(0.5 * lam_val * w2_sum * (1.0 + _MULT_SLACK)
               + max(nsteps - 1, 0) * _WEAK_FORM_ABS_SLACK)
    # vanishing bound: (1/2) sum W^2 <= tau F_s(u0)
    ks.append(nsteps + 2)
    lhs.append(0.5 * w2_sum)
    rhs.append(cfg.tau * e0 * (1.0 + _MULT_SLACK))
    raw = [l - r / (1.0 + _MULT_SLACK) for l, r in zip(lhs, rhs)]
    return CheckReport.from_series(
        "weak_form",
        ks,
        lhs,
        rhs,
        tolerance=_WEAK_FORM_ABS_SLACK,
        extra={
            "lambda": lam_val,
            "raw_violation": float(np.max(raw)),
            "integrated_residual": float(abs(resid_sum)),
            "w2_sum": float(w2_sum),
        },
    )


# ---------------------------------------------------------------------------
# tau refinement


@dataclass(frozen=True)
class TauRefinementReport:
    taus: List[float]
    l2h_gaps: List[float]  # consecutive-pair integral H^{1+r} gaps
    sup_gaps: List[float]  # consecutive-pair sup-in-time H^r gaps
    rates: List[Optional[float]]  # None where either gap is 0
    cauchy_monotone: bool
    horizon: float
    r: float


def _merged_breakpoints(tau1: float, tau2: float, horizon: float):
    ks1 = np.arange(0, math.ceil(horizon / tau1) + 1) * tau1
    ks2 = np.arange(0, math.ceil(horizon / tau2) + 1) * tau2
    bks = np.union1d(np.union1d(ks1, ks2), [horizon])
    return bks[bks <= horizon * (1 + 1e-12)]


def pairwise_gap(
    t1: Trajectory, t2: Trajectory, horizon: float, r: float
):
    """Integral of the squared H^{1+r} gap and the sup H^r gap in time."""
    grid = t1.config.grid
    bks = _merged_breakpoints(t1.config.tau, t2.config.tau, horizon)
    total = 0.0
    sup_gap = 0.0
    for a, b in zip(bks[:-1], bks[1:]):
        if b - a <= 1e-15:
            continue
        mid = 0.5 * (a + b)
        d = interpolant(t1, mid).values - interpolant(t2, mid).values
        total += (b - a) * sobolev_norm_sq(d, grid, 1.0 + r, homogeneous=False)
        sup_gap = max(sup_gap, math.sqrt(sobolev_norm_sq(d, grid, r, homogeneous=False)))
    return total, sup_gap


def validate_refinement_settings(taus: Sequence[float], horizon: float, r: float, s: float) -> None:
    """Raise ValueError unless the taus are finite, positive and strictly
    decreasing, the horizon is finite and positive, and r is finite with r < s."""
    if not all(math.isfinite(t) and t > 0 for t in taus) or any(
        a <= b for a, b in zip(taus, taus[1:])
    ):
        raise ValueError(f"tau_list must be finite, positive and strictly decreasing, got {taus}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not (math.isfinite(r) and r < s):
        raise ValueError(f"refinement order r must be finite with r < s, got r={r}, s={s}")


def tau_refinement_study(
    u0: GridDensity,
    cfg_base: JkoConfig,
    tau_list: Sequence[float] = (4e-3, 2e-3, 1e-3, 5e-4),
    horizon: float = 0.05,
    r: float = 0.5,
) -> TauRefinementReport:
    """Cauchy study over a decreasing tau list.

    Runs one trajectory per tau, measures consecutive-pair distances in
    L^2((0,T); H^{1+r}) and sup_t H^r, and reports whether the gaps decrease
    monotonically.  No limit object is claimed.  A run that fails raises
    `FracfilmError`.
    """
    taus = list(tau_list)
    validate_refinement_settings(taus, horizon, r, cfg_base.s)
    trajs = []
    for tau in taus:
        cfg = replace(cfg_base, tau=tau)
        nsteps = math.ceil(horizon / tau)
        traj = run(u0, cfg, nsteps)
        if traj.status != "ok":
            raise FracfilmError(f"refinement run at tau={tau} failed: {traj.status}")
        trajs.append(traj)
    gaps, sups = [], []
    for t1, t2 in zip(trajs[:-1], trajs[1:]):
        g, sgap = pairwise_gap(t1, t2, horizon, r)
        gaps.append(float(g))
        sups.append(float(sgap))
    rates = [
        math.log(gaps[i] / gaps[i + 1], 2.0) if gaps[i] > 0 and gaps[i + 1] > 0 else None
        for i in range(len(gaps) - 1)
    ]
    # decreasing gaps; a pair of zero gaps (data that never moves) counts too
    monotone = all(a > b or a == b == 0.0 for a, b in zip(gaps, gaps[1:]))
    return TauRefinementReport(
        taus=taus,
        l2h_gaps=gaps,
        sup_gaps=sups,
        rates=rates,
        cauchy_monotone=monotone,
        horizon=horizon,
        r=r,
    )
