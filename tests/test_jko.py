import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fracfilm
from fracfilm import (
    GridDensity,
    InnerConfig,
    JkoConfig,
    PeriodicGrid,
    StagnationError,
    TransportConfig,
    energy_of_values,
    fractional_laplacian,
    gaussian_density,
    gaussian_mixture_density,
    interpolant,
    jko_step,
    run,
    uniform_density,
    w2,
    w2_sinkhorn,
)
from fracfilm.cli import run_checks
from fracfilm.jko import (
    _DEGENERATE_SHARE,
    _NEWTON_FORCING,
    _apply_mobility,
    _candidate,
    _face_laplacian,
    _face_mobility,
    _open_faces,
    _solve_faces,
    _solve_krylov,
)
from fracfilm.scenario import DEFAULT_CHECKS, KNOWN_CHECKS
from fracfilm.spectral import apply_multiplier
from fracfilm.transport import w2_exact_1d


def make_cfg(n=256, L=40.0, s=1.0, tau=1e-3, grad_tol=1e-8, **inner_kw):
    grid = PeriodicGrid(1, n, L)
    inner = InnerConfig(grad_tol=grad_tol, **inner_kw)
    return JkoConfig(grid=grid, s=s, tau=tau, inner=inner)


class TestJkoStep:
    def test_uniform_is_fixed_point(self):
        cfg = make_cfg(n=128)
        u = uniform_density(cfg.grid)
        rec = jko_step(u, cfg)
        assert rec.inner_iterations == 0
        assert np.max(np.abs(rec.density.values - u.values)) < 1e-14
        assert rec.energy == pytest.approx(0.0, abs=1e-20)
        assert rec.w2_sq_to_prev == pytest.approx(0.0, abs=1e-14)

    def test_small_tau_step_bound(self):
        # one-step minimality rearranged: W^2(u1, u0) <= 2 tau F_s(u0)
        cfg = make_cfg(tau=1e-6, grad_tol=1e-6)
        u0 = gaussian_density(cfg.grid)
        rec = jko_step(u0, cfg)
        e0 = energy_of_values(u0.values, u0.grid, cfg.s)
        assert rec.w2_sq_to_prev <= 2 * cfg.tau * e0 * (1 + 1e-10)

    def test_huge_tau_flattens(self):
        # tau = 1e3: the proximal term is negligible, the minimizer heads to
        # the uniform global minimizer of F_s; needs a deep solve (the
        # proximal term no longer regularizes the low frequencies)
        cfg = make_cfg(tau=1e3, grad_tol=1e-9, max_iters=20000)
        u0 = gaussian_density(cfg.grid, 2.0, 1.0)
        rec = jko_step(u0, cfg)
        assert rec.energy < 0.05 * energy_of_values(u0.values, u0.grid, cfg.s)

    def test_objective_not_above_previous_energy(self):
        cfg = make_cfg()
        u0 = gaussian_density(cfg.grid)
        rec = jko_step(u0, cfg)
        e_prev = energy_of_values(u0.values, u0.grid, cfg.s)
        assert rec.energy + rec.w2_sq_to_prev / (2 * cfg.tau) <= e_prev * (1 + 1e-10)

    def test_mass_and_positivity_exact(self):
        cfg = make_cfg()
        u0 = gaussian_density(cfg.grid)
        rec = jko_step(u0, cfg)
        assert abs(rec.density.mass() - 1.0) <= 1e-12
        assert np.min(rec.density.values) >= 0.0

    def test_reaches_grad_tol(self):
        cfg = make_cfg(grad_tol=1e-8)
        u0 = gaussian_density(cfg.grid)
        rec = jko_step(u0, cfg)
        assert rec.kkt_residual <= 1e-7

    @pytest.mark.parametrize(
        "inner, reason",
        [
            (InnerConfig(), "converged"),
            (InnerConfig(max_iters=1), "max_iters"),
            (InnerConfig(grad_tol=1e-16), "stalled"),  # below the rounding floor
        ],
        ids=["converged", "max_iters", "stalled"],
    )
    def test_stop_reason(self, inner, reason):
        # reference grid, s = 1, tau = 1e-3, one step from N(0, 1)
        cfg = JkoConfig(grid=PeriodicGrid(1, 256, 40.0), s=1.0, tau=1e-3, inner=inner)
        assert jko_step(gaussian_density(cfg.grid), cfg).stop_reason == reason

    def test_reference_step_takes_two_newton_iterations(self):
        # the exact transport Hessian: kkt 0.20 -> 1.0e-4 -> 9.2e-10 (the Otto model took 5)
        cfg = JkoConfig(grid=PeriodicGrid(1, 256, 40.0), s=1.0, tau=1e-3, inner=InnerConfig())
        rec = jko_step(gaussian_density(cfg.grid), cfg)
        assert (rec.stop_reason, rec.inner_iterations, rec.transport_calls) == ("converged", 2, 3)

    def test_cap_met_by_a_converged_iterate_reports_converged(self):
        # the tolerance is tested before the cap: a step that needs exactly
        # `max_iters` iterations ends `converged`, on the same density
        cfg = JkoConfig(grid=PeriodicGrid(1, 256, 40.0), s=1.0, tau=1e-3, inner=InnerConfig())
        u_prev = gaussian_density(cfg.grid)
        free = jko_step(u_prev, cfg)
        capped = jko_step(u_prev, replace(cfg, inner=InnerConfig(max_iters=free.inner_iterations)))
        assert capped.stop_reason == free.stop_reason == "converged"
        assert capped.inner_iterations == free.inner_iterations
        assert np.array_equal(capped.density.values, free.density.values)

    @pytest.mark.parametrize(
        "inner", [InnerConfig(), InnerConfig(max_iters=1)],
        ids=["converged", "max_iters"],
    )
    def test_one_potential_call_per_iterate(self, inner, monkeypatch):
        # every iterate is measured once, by the call that accepted it; the
        # record of a converged or capped step reuses the last such call
        import fracfilm.jko

        calls = []

        def counted(u, transport, start=None):
            calls.append(u.values)
            return w2(u, transport, start=start)

        monkeypatch.setattr(fracfilm.jko, "w2", counted)
        cfg = JkoConfig(grid=PeriodicGrid(1, 256, 40.0), s=1.0, tau=1e-3, inner=inner)
        rec = jko_step(gaussian_density(cfg.grid), cfg)
        assert rec.transport_calls == len(calls)
        assert np.array_equal(calls[-1], rec.density.values)
        assert not any(np.array_equal(a, b) for i, a in enumerate(calls) for b in calls[i + 1:])

    @pytest.mark.parametrize(
        "inner", [InnerConfig(), InnerConfig(max_iters=1)],
        ids=["converged", "max_iters"],
    )
    def test_one_evaluation_per_trial_point(self, inner, candidates):
        # the start u_prev, then one transport call per line-search candidate
        cfg = JkoConfig(grid=PeriodicGrid(1, 256, 40.0), s=1.0, tau=1e-3, inner=inner)
        rec = jko_step(gaussian_density(cfg.grid), cfg)
        assert rec.inner_iterations >= 1
        assert rec.transport_calls == 1 + len(candidates)

    @pytest.mark.parametrize(
        "inner, reason", [(InnerConfig(), "converged"), (InnerConfig(max_iters=1), "max_iters")],
        ids=["converged", "max_iters"],
    )
    def test_record_measures_the_final_density(self, inner, reason):
        # W^2 and the kkt residual of the record are those of its density,
        # recomputed here from scratch: a capped step needs no extra call
        cfg = JkoConfig(grid=PeriodicGrid(1, 256, 40.0), s=1.0, tau=1e-3, inner=inner)
        u_prev = gaussian_density(cfg.grid)
        rec = jko_step(u_prev, cfg)
        assert rec.stop_reason == reason
        fresh = w2_exact_1d(rec.density, u_prev)
        assert rec.w2_sq_to_prev == fresh.w2_squared
        u = rec.density.values
        g = fractional_laplacian(u, cfg.grid, cfg.s) + fresh.potential / cfg.tau
        mask = u > _DEGENERATE_SHARE * np.max(u)
        p = u[mask] * cfg.grid.cell_volume
        gbar = float(np.sum(p * g[mask]) / np.sum(p))
        assert rec.kkt_residual == float(np.sqrt(np.sum(p * (g[mask] - gbar) ** 2)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_energy_and_gradient_are_the_spectral_functions(self, dim, monkeypatch):
        # each trial point's energy and L_s u come from one forward FFT,
        # bitwise `energy_of_values` and `fractional_laplacian`; the record
        # keeps the accepted point's energy, and there is one evaluation per
        # transport call
        import fracfilm.jko

        evaluate = fracfilm.jko.energy_and_laplacian
        seen = []

        def recorded(values, grid, mult):
            out = evaluate(values, grid, mult)
            seen.append((values.copy(), out))
            return out

        monkeypatch.setattr(fracfilm.jko, "energy_and_laplacian", recorded)
        if dim == 1:
            cfg = make_cfg(s=2.0)
            u0 = gaussian_density(cfg.grid)
        else:
            cfg = sink2d_step_config(max_iters=10)
            u0 = gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE)
        rec = jko_step(u0, cfg)
        assert rec.inner_iterations >= 1 and len(seen) == rec.transport_calls
        for values, (e, lap) in seen:
            assert e == fracfilm.energy_of_values(values, cfg.grid, cfg.s)
            assert np.array_equal(lap, fractional_laplacian(values, cfg.grid, cfg.s))
        assert rec.energy == fracfilm.energy_of_values(rec.density.values, cfg.grid, cfg.s)


@pytest.mark.filterwarnings("error")
def test_candidate_is_quiet_on_subnormal_cells():
    # du / u overflows to -inf on a subnormal cell with du < 0, and the
    # cell empties exactly; numpy used to warn "overflow encountered in divide"
    u = np.array([1e-310, 0.25, 0.75])
    du = np.array([-1.0, -0.25, 0.5])
    expected = np.array([0.0, 0.25 * np.exp(0.5 * -1.0), 0.75 + 0.5 * 0.5])
    got = _candidate(u, du, 0.5, 0.5)
    assert np.array_equal(got, expected / (np.sum(expected) * 0.5))


@pytest.fixture
def candidates(monkeypatch):
    """One alpha per `_candidate` call `jko_step` makes: its line-search trials."""
    import fracfilm.jko

    alphas = []
    make = fracfilm.jko._candidate

    def recorded(u, du, alpha, cell_volume):
        alphas.append(alpha)
        return make(u, du, alpha, cell_volume)

    monkeypatch.setattr(fracfilm.jko, "_candidate", recorded)
    return alphas


def compact_bump(grid):
    """(4 - x^2)_+^2, normalised: 25 positive cells on the reference grid."""
    x = grid.axis_coords
    return GridDensity.normalized(grid, np.maximum(4.0 - x * x, 0.0) ** 2)


def sink2d_step_config(max_iters, s=1.0):
    grid = PeriodicGrid(2, 48, 16.0)
    inner = InnerConfig(grad_tol=1e-3, max_iters=max_iters)
    transport = TransportConfig(epsilon=0.1, max_iter=5000, tol=1e-7)
    return JkoConfig(grid=grid, s=s, tau=1e-2, inner=inner, transport=transport)


SINK2D_MIXTURE = ((0.6, (-1.0, 0.5), 0.8), (0.4, (1.2, -0.6), 1.0))


@pytest.fixture(scope="module", params=[0.5, 1.0, 1.5, 2.0, 2.5])
def sink2d_order_step(request):
    """The mixture step at order s, with one (rtol, relative residual,
    operator applications) entry per Newton solve handed to `_solve_krylov`;
    the applications are counted by wrapping `_apply_mobility` during the
    solve, the residual is that of the original system (I + tau L_s A_u) z =
    rhs, and each solve's own count and `met` flag are checked against them."""
    import fracfilm.jko

    solve = fracfilm.jko._solve_krylov
    mobility = fracfilm.jko._apply_mobility
    solves = []
    calls = [0]

    def counted(z, mob):
        calls[0] += 1
        return mobility(z, mob)

    def recorded(u, mob, tau, rhs, grid, s, rtol):
        calls[0] = 0
        z, applications, met = solve(u, mob, tau, rhs, grid, s, rtol)
        made = calls[0]
        image = z + tau * apply_multiplier(mobility(z, mob), grid, grid.freq_sq ** s)
        rel = np.linalg.norm(rhs - image) / np.linalg.norm(rhs)
        assert applications == made
        assert met == (rel <= rtol)
        solves.append((rtol, rel, made))
        return z, applications, met

    cfg = sink2d_step_config(max_iters=10, s=request.param)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracfilm.jko, "_solve_krylov", recorded)
        mp.setattr(fracfilm.jko, "_apply_mobility", counted)
        rec = jko_step(gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE), cfg)
    return rec, solves


class TestRegimes:
    @pytest.mark.parametrize("s, tau", [(0.5, 1e-3), (1.5, 1e-3), (2.0, 1e-3), (1.0, 0.05)])
    def test_gaussian_step_converges(self, s, tau):
        cfg = make_cfg(s=s, tau=tau, grad_tol=1e-8, max_iters=50)
        rec = jko_step(gaussian_density(cfg.grid), cfg)
        assert rec.stop_reason == "converged"
        assert rec.kkt_residual <= 1e-8

    def test_sinkhorn_2d_step_converges(self):
        cfg = sink2d_step_config(max_iters=10)
        rec = jko_step(gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE), cfg)
        assert rec.stop_reason == "converged"
        assert rec.kkt_residual <= 1e-3

    def test_sinkhorn_2d_step_converges_at_order(self, sink2d_order_step):
        rec, _ = sink2d_order_step
        assert rec.stop_reason == "converged"
        assert rec.kkt_residual <= 1e-3
        # the count of exact linear solves; a forcing of 1e-3 takes 8 at s = 2
        assert rec.inner_iterations <= 3

    def test_newton_solves_reach_forcing(self, sink2d_order_step):
        # every Newton solve asks for the forcing tolerance and returns within
        # it, on the residual of the original system
        _, solves = sink2d_order_step
        assert solves
        for rtol, rel, _ in solves:
            assert rtol == _NEWTON_FORCING
            assert rel <= rtol

    @pytest.mark.parametrize("sink2d_order_step", [1.0], indirect=True)
    def test_sinkhorn_2d_newton_work(self, sink2d_order_step):
        # exact (1e-10) solves take 25 + 43 operator applications
        rec, solves = sink2d_order_step
        assert rec.inner_iterations == 2
        # 207 when every line-search call starts from the dual at u; the
        # call at u_prev takes only the passes of u_prev's self-potential
        assert rec.sinkhorn_iters == 124
        assert sum(apps for *_, apps in solves) <= 40

    def test_sinkhorn_2d_one_evaluation_per_trial_point(self, candidates):
        # u_prev and the two accepted alpha = 1 candidates, one call each
        cfg = sink2d_step_config(max_iters=10)
        rec = jko_step(gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE), cfg)
        assert rec.transport_calls == 1 + len(candidates) == 3
        assert candidates == [1.0, 1.0]

    @pytest.mark.parametrize("sink2d_order_step", [1.0], indirect=True)
    def test_sinkhorn_2d_krylov_counts(self, sink2d_order_step):
        # the seed-0 sink2d benchmark step: two Newton solves, 6 + 17
        # operator applications, both within the forcing tolerance
        rec, _ = sink2d_order_step
        assert (rec.krylov_applications, rec.krylov_unmet) == (23, 0)

    def test_step_records_krylov_work(self, sink2d_order_step):
        # the record adds up the applications of every Newton solve and
        # counts the solves that missed the forcing tolerance (none here)
        rec, solves = sink2d_order_step
        assert rec.krylov_applications == sum(apps for *_, apps in solves)
        assert rec.krylov_unmet == 0

    def test_unmet_krylov_solve_is_counted(self, monkeypatch):
        # two CG iterations cannot reach the forcing tolerance: each solve
        # applies the operator twice, and the residual test after the
        # second finds the miss at no extra application
        import fracfilm.jko

        monkeypatch.setattr(fracfilm.jko, "_CG_MAX_ITERS", 2)
        cfg = sink2d_step_config(max_iters=2)
        rec = jko_step(gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE), cfg)
        assert rec.krylov_unmet >= 1
        assert rec.krylov_applications == 2 * rec.krylov_unmet

    def test_sinkhorn_2d_multi_step_high_order(self):
        # three steps at s = 2: each converges inside its Newton solves,
        # keeps mass one and lowers the energy
        cfg = sink2d_step_config(max_iters=10, s=2.0)
        u0 = gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE)
        traj = run(u0, cfg, 3)
        assert traj.status == "ok" and traj.num_steps == 3
        e_prev = energy_of_values(u0.values, u0.grid, cfg.s)
        for rec in traj.steps:
            assert rec.stop_reason == "converged"
            assert abs(rec.density.mass() - 1.0) <= 1e-12
            assert rec.energy <= e_prev
            assert rec.krylov_unmet == 0
            e_prev = rec.energy

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_fine_grid_step_converges(self, s):
        # n = 2048: with the faces between cells below 1e-8 of the peak open,
        # the step stalled at kkt 3e-8 after 50 (s = 1) and 76 (s = 2) iterations
        cfg = make_cfg(n=2048, s=s, tau=1e-3, grad_tol=1e-8)
        rec = jko_step(gaussian_density(cfg.grid), cfg)
        assert rec.stop_reason == "converged"
        assert rec.inner_iterations <= 3

    @pytest.mark.parametrize("tau", [1e-3, 1e-2])
    def test_compact_support_step(self, tau):
        cfg = make_cfg(s=1.0, tau=tau, grad_tol=1e-8, max_iters=50)
        u0 = compact_bump(cfg.grid)
        assert np.count_nonzero(u0.values > 0) == 25
        rec = jko_step(u0, cfg)
        assert rec.stop_reason == "converged"
        assert np.count_nonzero(rec.density.values > 0) == 25
        assert abs(rec.density.mass() - 1.0) <= 1e-12
        assert np.min(rec.density.values) >= 0.0

    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, pytest.param(
        4.0, marks=pytest.mark.xfail(strict=False, reason=(
            "ROADMAP items 2 and 13: the s = 4 candidate adds grid-scale content; all three "
            "steps end stalled (kkt 14, 140, 1.2), the run says ok and entropy_dissipation "
            "FAILs")))])
    def test_order_row_1d(self, s):
        # the 1D row of the regime matrix on the reference grid: three steps
        # at each order, each converged in 2-3 Newton iterations, and every
        # check passes
        traj = run(gaussian_density(make_cfg().grid), make_cfg(s=s), 3)
        assert traj.status == "ok"
        assert [rec.stop_reason for rec in traj.steps] == ["converged"] * 3
        failed = [rep.name for rep in run_checks(traj, KNOWN_CHECKS) if not rep.passed]
        assert failed == []

    @pytest.mark.parametrize("s, num_steps, max_iters", [
        (0.25, 3, 60), (0.5, 3, 60), (1.0, 3, 60), (1.5, 3, 60), (2.0, 3, 60),
        pytest.param(3.0, 1, 2, marks=pytest.mark.xfail(strict=False, reason=(
            "ROADMAP items 3 and 13: the Fourier preconditioner assumes the mean mobility; "
            "both CG solves of the step stop unmet at the 3050-application cap, and the "
            "step ends max_iters at kkt 1.6e-2")))])
    def test_order_row_2d(self, s, num_steps, max_iters):
        # the 2D row of the regime matrix on sink2d's settings and mixture:
        # three steps at each order, each converged in 1-2 Newton iterations,
        # and every d = 2 check passes.  s = 3 runs one step capped at the
        # two iterations the other orders need, which takes about 1 s.
        # Left out for tier-1 time: s = 2.5 takes 1.1 s and its CG up to 2563
        # of the 3050 applications; s = 4 takes 1.3 s for one step, ends at
        # kkt 1.0e2 and FAILs entropy_dissipation (items 2 and 13).
        cfg = sink2d_step_config(max_iters=max_iters, s=s)
        traj = run(gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE), cfg, num_steps)
        assert traj.status == "ok"
        # item 3's done-when: no Newton solve stops at the CG cap unmet
        assert [rec.krylov_unmet for rec in traj.steps] == [0] * num_steps
        assert [rec.stop_reason for rec in traj.steps] == ["converged"] * num_steps
        failed = [rep.name for rep in run_checks(traj, DEFAULT_CHECKS) if not rep.passed]
        assert failed == []


@pytest.fixture
def transport_calls(monkeypatch):
    """One (u, hint, result, dual) entry per transport call `jko_step`
    makes: hint is a copy of the `start` the call was handed (None
    without), dual a copy of the transport's converged dual after the call."""
    import fracfilm.jko

    calls = []
    evaluate = fracfilm.jko.w2

    def recorded(u, transport, start=None):
        hint = None if start is None else start.copy()
        tr = evaluate(u, transport, start=start)
        calls.append((u, hint, tr, None if transport.dual is None else transport.dual.copy()))
        return tr

    monkeypatch.setattr(fracfilm.jko, "w2", recorded)
    return calls


def _unhinted_w2(u, transport, start=None):
    """Drops every predicted start: each call starts from the last converged dual."""
    return w2(u, transport)


class TestPredictedStart:
    """Each line-search call of a d >= 2 step starts from dual + 2 alpha tau z."""

    @pytest.mark.parametrize("s, saved_applications", [(0.5, 0), (1.0, -3), (2.0, 1)])
    def test_fewer_passes_same_newton_work(self, s, saved_applications, monkeypatch):
        # the seed-0 step against the same step with every call started from
        # the last converged dual; the slightly different potentials change
        # the step's CG applications by a few: at s = 1 the hinted step takes
        # 23 against 20, at s = 2 it takes 455 against 456
        import fracfilm.jko

        cfg = sink2d_step_config(max_iters=10, s=s)
        u0 = gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE)
        hinted = jko_step(u0, cfg)
        monkeypatch.setattr(fracfilm.jko, "w2", _unhinted_w2)
        plain = jko_step(u0, cfg)
        assert (hinted.inner_iterations, hinted.stop_reason) == (plain.inner_iterations, plain.stop_reason)
        assert hinted.krylov_applications == plain.krylov_applications - saved_applications
        assert hinted.transport_calls == plain.transport_calls
        assert hinted.sinkhorn_iters < plain.sinkhorn_iters

    def test_hint_is_the_newton_prediction(self, transport_calls, monkeypatch):
        # calls: u_prev, then one line-search call per Newton iteration; both
        # line searches accept alpha = 1 at once, and each call there starts
        # from the dual of the call before it (the dual at u) moved by 2 tau z,
        # z the Newton solve's solution
        import fracfilm.jko

        solve = fracfilm.jko._solve_krylov
        solutions = []

        def recorded(*args):
            out = solve(*args)
            solutions.append(out[0])
            return out

        monkeypatch.setattr(fracfilm.jko, "_solve_krylov", recorded)
        cfg = sink2d_step_config(max_iters=10)
        rec = jko_step(gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE), cfg)
        hints = [hint for _, hint, _, _ in transport_calls]
        assert len(hints) == rec.transport_calls == 3
        assert [h is not None for h in hints] == [False, True, True]
        for k, z in zip((1, 2), solutions):
            dual_at_u = transport_calls[k - 1][3]
            assert np.array_equal(hints[k], dual_at_u + (2 * 1.0 * cfg.tau) * z)

    def test_hinted_potential_matches_tight_reference(self, transport_calls):
        # on the cells the step's residual counts (above 1e-8 of the peak),
        # up to a constant; in the tail the start still shows (CHANGES.md)
        cfg = sink2d_step_config(max_iters=10)
        u_prev = gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE)
        jko_step(u_prev, cfg)
        hinted = [(u, tr) for u, hint, tr, _ in transport_calls if hint is not None]
        assert len(hinted) == 2
        for u, tr in hinted:
            ref = w2_sinkhorn(u, u_prev, cfg.transport.epsilon, 200000, 1e-12)
            live = u.values > 1e-8 * u.values.max()
            gap = tr.potential[live] - ref.potential[live]
            assert np.max(np.abs(gap - gap.mean())) <= 1e-6

    def test_fallback_direction_sets_no_hint(self, transport_calls, candidates, monkeypatch):
        # z = -rhs makes du = tau A_u (g - gbar), an ascent direction, so
        # every step falls back to -tau u (g - gbar), which z does not describe
        import fracfilm.jko

        monkeypatch.setattr(fracfilm.jko, "_solve_krylov", lambda u, mob, tau, rhs, *rest: (-rhs, 0, True))
        cfg = sink2d_step_config(max_iters=2)
        rec = jko_step(gaussian_mixture_density(cfg.grid, SINK2D_MIXTURE), cfg)
        assert rec.inner_iterations >= 1
        assert len(transport_calls) == 1 + len(candidates)
        assert all(hint is None for _, hint, *_ in transport_calls)

    def test_1d_sets_no_hint(self, transport_calls, candidates):
        cfg = make_cfg(s=1.0, tau=1e-3, grad_tol=1e-8, max_iters=50)
        rec = jko_step(gaussian_density(cfg.grid), cfg)
        assert rec.stop_reason == "converged"
        assert len(transport_calls) == 1 + len(candidates)
        assert all(hint is None for _, hint, *_ in transport_calls)


def movable_faces(u, u_prev):
    """The faces 0..n-2 the 1D step may move mass across: both cells in
    u_prev's support and one of them above `_DEGENERATE_SHARE` of u's peak."""
    counted = u > _DEGENERATE_SHARE * np.max(u)
    return _open_faces(u_prev > 0)[0][:-1] & (counted[:-1] | counted[1:])


def face_symbol(grid, s, tau):
    """`_face_laplacian` at order s, from the multiplier `jko_step` builds."""
    return _face_laplacian(grid, grid.freq_sq ** s, tau)


def face_block(grid, s, tau, faces):
    """The block of (tau/h) K on the face indices `faces`, gathered from
    the symbol as `_solve_faces` gathers it."""
    return face_symbol(grid, s, tau)[np.subtract.outer(faces, faces)]


def sliding_window_face_matrix(grid, s, tau):
    """The dense (n-1)^2 face matrix as `_face_laplacian` used to build it:
    entry (i, j) is k[(i - j) % n], so row i is the window of length n - 1
    that starts at n - i in the symbol k reversed and doubled."""
    n = grid.n
    col = np.fft.ifft(grid.freq_sq ** s).real
    col = (tau / grid.spacing) * (2 * col - np.roll(col, 1) - np.roll(col, -1))
    flipped = np.roll(col[::-1], 1)  # k[(-m) % n] at m
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(flipped, 2), n - 1)
    return windows[n:1:-1].copy()


def face_solve(grid, s, tau, u, u_prev, rhs):
    """The face system `jko_step` solves at u against u_prev: (du, dF)."""
    bands = w2_exact_1d(GridDensity(grid, u), GridDensity(grid, u_prev)).hessian_bands
    dF = _solve_faces(face_symbol(grid, s, tau), bands, movable_faces(u, u_prev), rhs)
    return (dF - np.roll(dF, 1)) / grid.spacing, dF


def assert_krylov_matches_direct(grid, u, s, tau=1e-2):
    """`_solve_krylov` against the Otto system assembled densely, column by
    column from unit vectors: the A_u z of both within 1e-10."""
    rhs = np.random.default_rng(5).standard_normal(grid.shape)
    mob = _face_mobility(u, _open_faces(u > 0), grid.spacing)
    lap = grid.freq_sq ** s
    eye = np.eye(grid.size)
    system = np.stack([
        e + tau * apply_multiplier(_apply_mobility(e.reshape(grid.shape), mob), grid, lap).ravel()
        for e in eye], axis=1)
    direct = _apply_mobility(np.linalg.solve(system, rhs.ravel()).reshape(grid.shape), mob)
    z, applications, met = _solve_krylov(u, mob, tau, rhs, grid, s, rtol=1e-10)
    assert met and applications > 1
    krylov = _apply_mobility(z, mob)
    assert np.max(np.abs(krylov - direct)) <= 1e-10 * np.max(np.abs(direct))


class TestNewtonDirection:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_krylov_matches_direct_solve_2d(self, s):
        grid = PeriodicGrid(2, 16, 12.0)
        assert_krylov_matches_direct(grid, gaussian_mixture_density(grid, SINK2D_MIXTURE).values, s)

    def test_krylov_matches_direct_solve_1d(self):
        # d = 1 runs the face solve; CG on the 1D Otto system is checked all the same
        grid = PeriodicGrid(1, 64, 20.0)
        assert_krylov_matches_direct(grid, gaussian_density(grid, 0.5, 1.5).values, 1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_krylov_zero_rhs_returns_zeros(self, dim):
        grid = PeriodicGrid(dim, 16, 12.0)
        u = gaussian_density(grid, 0.0, 1.5).values
        mob = _face_mobility(u, _open_faces(u > 0), grid.spacing)
        z, applications, met = _solve_krylov(u, mob, 1e-2, np.zeros(grid.shape), grid, 1.0,
                                             rtol=1e-10)
        assert met and applications == 0
        assert np.array_equal(z, np.zeros(grid.shape))

    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 48), (3, 12)])
    def test_apply_mobility_matches_roll_formula(self, dim, n):
        # the slice form adds the same terms in the same order as the roll form
        rng = np.random.default_rng(dim)
        z = rng.standard_normal((n,) * dim)
        mob = tuple(rng.uniform(0.0, 2.0, (n,) * dim) for _ in range(dim))
        rolled = np.zeros_like(z)
        for a, m in enumerate(mob):
            flux = m * (np.roll(z, -1, axis=a) - z)
            rolled += np.roll(flux, 1, axis=a) - flux
        assert np.array_equal(_apply_mobility(z, mob), rolled)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_face_laplacian_is_d_ls_dt(self, n, s):
        # (tau/h) D L_s D^T on the interior faces, L_s assembled column by
        # column from `fractional_laplacian` and (D phi)_k = phi_{k+1} - phi_k
        grid = PeriodicGrid(1, n, 40.0)
        tau = 1e-2
        eye = np.eye(n)
        lap = np.stack([fractional_laplacian(e, grid, s) for e in eye], axis=1)
        diff = np.roll(eye, 1, axis=1) - eye
        expected = (tau / grid.spacing) * (diff @ lap @ diff.T)[:-1, :-1]
        faces = face_block(grid, s, tau, np.arange(n - 1))
        assert np.max(np.abs(faces - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_gathered_block_is_the_sliding_window_matrix(self, n, s):
        # on every interior face and on a scattered subset, bit for bit
        grid = PeriodicGrid(1, n, 40.0)
        dense = sliding_window_face_matrix(grid, s, 1e-2)
        every = np.arange(n - 1)
        assert np.array_equal(face_block(grid, s, 1e-2, every), dense)
        some = np.flatnonzero(np.random.default_rng(n).uniform(size=n - 1) < 0.4)
        assert np.array_equal(face_block(grid, s, 1e-2, some), dense[np.ix_(some, some)])

    def test_face_laplacian_is_a_symbol(self):
        # n values, not the (n - 1)^2 matrix (134 MB at n = 4096)
        grid = PeriodicGrid(1, 4096, 40.0)
        assert _face_laplacian(grid, grid.freq_sq ** 2.0, 1e-3).shape == (4096,)

    @pytest.mark.parametrize("datum", ["gaussian", "bump"])
    def test_direction_mass_support_and_slope(self, datum):
        grid = PeriodicGrid(1, 256, 40.0)
        s, tau = 1.0, 1e-2
        u = (gaussian_density(grid) if datum == "gaussian" else compact_bump(grid)).values
        g = fractional_laplacian(u, grid, s)
        du, dF = face_solve(grid, s, tau, u, u, tau * np.diff(g))
        assert abs(np.sum(du)) <= 1e-12 * np.sum(np.abs(du))
        assert dF[-1] == 0.0  # the periodic wrap face is closed
        closed = ~_open_faces(u > 0)[0]
        assert np.all(dF[closed] == 0.0)  # no flux through a face that touches the zero set
        assert np.all(du[u == 0] == 0.0)
        # nor between two cells the residual ignores: only the first such
        # cell on either side of the counted ones moves
        ignored = u <= _DEGENERATE_SHARE * np.max(u)
        assert np.all(du[ignored & np.roll(ignored, 1) & np.roll(ignored, -1)] == 0.0)
        assert np.sum(g * du) * grid.spacing < 0.0

    @pytest.mark.parametrize("tau", [1e-3, 1e-2])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("datum", ["gaussian", "bump"])
    def test_scaled_solve_matches_unscaled_solve(self, datum, n, s, tau):
        # the whole interior-face system W + (tau/h) K, assembled from dense
        # bands, solved without scaling on the faces the step solves for
        grid = PeriodicGrid(1, n, 40.0)
        u_prev = (gaussian_density(grid) if datum == "gaussian" else compact_bump(grid)).values
        u = GridDensity.normalized(grid, np.roll(u_prev, 1) + u_prev).values  # inside the support's faces
        g = fractional_laplacian(u, grid, s)
        rhs = tau * np.diff(g)
        _, dF = face_solve(grid, s, tau, u, u_prev, rhs)
        diag, off = w2_exact_1d(GridDensity(grid, u), GridDensity(grid, u_prev)).hessian_bands
        solved = movable_faces(u, u_prev) & np.isfinite(diag) & (diag > 0)
        full = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) + face_block(grid, s, tau, np.arange(n - 1))
        keep = np.ix_(solved, solved)
        expected = np.zeros(n)
        expected[:-1][solved] = np.linalg.solve(full[keep], rhs[solved])
        assert np.max(np.abs(dF - expected)) <= 1e-11 * np.max(np.abs(expected))

    def test_no_open_face_solves_nothing(self, monkeypatch):
        grid = PeriodicGrid(1, 64, 40.0)
        u = gaussian_density(grid).values
        bands = w2_exact_1d(GridDensity(grid, u), GridDensity(grid, u)).hessian_bands

        def no_solve(*args):
            raise AssertionError("no system to solve")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        dF = _solve_faces(face_symbol(grid, 1.0, 1e-2), bands, np.zeros(63, bool), np.ones(63))
        assert np.array_equal(dF, np.zeros(64))

    def test_bump_solves_only_on_its_open_faces(self, monkeypatch):
        grid = PeriodicGrid(1, 256, 40.0)
        u = compact_bump(grid).values
        sizes = []
        solve = np.linalg.solve

        def recording_solve(a, b):
            sizes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        _, dF = face_solve(grid, 1.0, 1e-2, u, u, 1e-2 * np.diff(fractional_laplacian(u, grid, 1.0)))
        opened = _open_faces(u > 0)[0]
        assert np.count_nonzero(u > 0) == 25 and np.count_nonzero(opened) == 24
        assert sizes == [(24, 24)]
        assert np.all(dF[opened] != 0.0) and np.all(dF[~opened] == 0.0)

    def test_2d_step_does_not_import_sparse_linalg(self):
        code = (
            "import sys\n"
            "import fracfilm as ff\n"
            "grid = ff.PeriodicGrid(2, 16, 12.0)\n"
            "tr = ff.TransportConfig(epsilon=0.2, tol=1e-7)\n"
            "cfg = ff.JkoConfig(grid=grid, s=1.0, tau=1e-2, transport=tr,\n"
            "                   inner=ff.InnerConfig(grad_tol=1e-4, max_iters=5))\n"
            "ff.jko_step(ff.gaussian_density(grid, (0.0, 0.0), 1.0), cfg)\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n"
        )
        src = str(Path(fracfilm.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestRun:
    def test_zero_steps(self):
        cfg = make_cfg(n=128)
        u0 = gaussian_density(cfg.grid)
        traj = run(u0, cfg, 0)
        assert traj.num_steps == 0
        assert traj.status == "ok"
        assert np.array_equal(interpolant(traj, 0.0).values, u0.values)

    def test_reference_run_energies_nonincreasing(self, reference_trajectory):
        traj = reference_trajectory
        energies = [rec.energy for rec in traj.steps]
        e0 = energy_of_values(traj.initial.values, traj.initial.grid, traj.config.s)
        assert traj.status == "ok"
        assert len(energies) == 50
        assert energies[0] <= e0
        assert all(a >= b for a, b in zip(energies, energies[1:]))

    def test_reference_run_basic_estimate(self, reference_trajectory):
        traj = reference_trajectory
        cfg = traj.config
        e0 = energy_of_values(traj.initial.values, traj.initial.grid, cfg.s)
        dissipation = sum(rec.w2_sq_to_prev for rec in traj.steps) / (2 * cfg.tau)
        assert traj.steps[-1].energy + dissipation <= e0 * (1 + 1e-8)

    def test_reference_run_solver_work(self, reference_trajectory):
        # pins the Newton work, so a faster solver cannot trade it for time
        steps = reference_trajectory.steps
        assert sum(rec.inner_iterations for rec in steps) == 100
        assert sum(rec.transport_calls for rec in steps) == 150
        assert all(rec.stop_reason == "converged" for rec in steps)

    def test_indices_contiguous(self, reference_trajectory):
        # a step's number is its position in `steps`
        assert len(reference_trajectory.steps) == 50

    def test_one_step_energy_sandwich(self, reference_trajectory):
        # F_s(u^k) <= objective(u^k) <= F_s(u^{k-1}) for every k
        traj = reference_trajectory
        e_prev = energy_of_values(traj.initial.values, traj.initial.grid, traj.config.s)
        for rec in traj.steps:
            objective = rec.energy + rec.w2_sq_to_prev / (2 * traj.config.tau)
            assert rec.energy <= objective + 1e-16
            assert objective <= e_prev * (1 + 1e-10)
            e_prev = rec.energy

    def test_failed_step_reported_in_status(self):
        # starve the sinkhorn solver so the first step fails; run() must
        # stop early with the step index in the status instead of raising
        grid = PeriodicGrid(2, 32, 16.0)
        transport = TransportConfig(epsilon=0.05, max_iter=2, tol=1e-12)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-2,
                        inner=InnerConfig(grad_tol=1e-6), transport=transport)
        traj = run(gaussian_density(grid, (0.0, 0.0), 1.0), cfg, 2)
        assert traj.status.startswith("failed:step=1:")
        assert traj.num_steps == 0

    def test_no_descent_step_fails_the_first_step(self, monkeypatch):
        # with the smallest trial step above the first one (alpha = 1) the
        # line search tries none: the step raises with the previous density
        # as its last iterate, and run() ends with the failure in its status
        import fracfilm.jko

        monkeypatch.setattr(fracfilm.jko, "_ALPHA_MIN", 2.0)
        cfg = make_cfg()
        u0 = gaussian_density(cfg.grid, 0.0, 1.0)
        with pytest.raises(StagnationError, match="no descent step") as exc:
            jko_step(u0, cfg)
        assert np.array_equal(exc.value.last_iterate.values, u0.values)
        traj = run(u0, cfg, 3)
        assert traj.status.startswith("failed:step=1:StagnationError")
        assert traj.num_steps == 0

    def test_programming_error_propagates(self, monkeypatch):
        # only solver failures (FracfilmError) end a run with a status; a
        # bug inside a step must raise out of run()
        import fracfilm.jko

        def broken(*args, **kwargs):
            raise TypeError("broken operator")

        monkeypatch.setattr(fracfilm.jko, "energy_and_laplacian", broken)
        cfg = make_cfg(n=128)
        with pytest.raises(TypeError, match="broken operator"):
            run(gaussian_density(cfg.grid), cfg, 2)

    def test_determinism_bitwise(self):
        cfg = make_cfg(n=128, grad_tol=1e-6)
        u0 = gaussian_density(cfg.grid)
        t1 = run(u0, cfg, 5)
        t2 = run(u0, cfg, 5)
        for r1, r2 in zip(t1.steps, t2.steps):
            assert np.array_equal(r1.density.values, r2.density.values)
            assert r1.energy == r2.energy
            assert r1.w2_sq_to_prev == r2.w2_sq_to_prev
            assert r1.inner_iterations == r2.inner_iterations


@pytest.fixture(scope="module")
def short_traj():
    cfg = make_cfg(n=128, grad_tol=1e-6)
    u0 = gaussian_density(cfg.grid)
    return run(u0, cfg, 3)


class TestInterpolant:
    def test_t_zero_initial(self, short_traj):
        assert np.array_equal(interpolant(short_traj, 0.0).values, short_traj.initial.values)

    def test_right_endpoint_belongs_to_step(self, short_traj):
        tau = short_traj.config.tau
        u1 = short_traj.steps[0].density
        assert np.array_equal(interpolant(short_traj, tau).values, u1.values)

    def test_just_past_endpoint_advances(self, short_traj):
        tau = short_traj.config.tau
        u2 = short_traj.steps[1].density
        assert np.array_equal(interpolant(short_traj, tau + 1e-15).values, u2.values)

    def test_interior_point(self, short_traj):
        tau = short_traj.config.tau
        u2 = short_traj.steps[1].density
        assert np.array_equal(interpolant(short_traj, 1.5 * tau).values, u2.values)

    def test_beyond_horizon_rejected(self, short_traj):
        tau = short_traj.config.tau
        with pytest.raises(ValueError):
            interpolant(short_traj, 3.5 * tau)

    def test_exact_multiples_stay_left(self, short_traj):
        tau = short_traj.config.tau
        for k in (1, 2, 3):
            uk = short_traj.steps[k - 1].density
            assert np.array_equal(interpolant(short_traj, k * tau).values, uk.values)


class TestTwoDimensional:
    def test_single_step_descends(self):
        grid = PeriodicGrid(2, 48, 16.0)
        inner = InnerConfig(grad_tol=1e-3, max_iters=60)
        transport = TransportConfig(epsilon=0.1, max_iter=5000, tol=1e-7)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-2, inner=inner, transport=transport)
        u0 = gaussian_density(grid, (0.0, 0.0), 1.0)
        rec = jko_step(u0, cfg)
        e0 = energy_of_values(u0.values, u0.grid, 1.0)
        assert rec.energy + rec.w2_sq_to_prev / (2 * cfg.tau) <= e0 * (1 + 1e-8)
        assert abs(rec.density.mass() - 1.0) <= 1e-12
        assert np.min(rec.density.values) >= 0.0

    def test_y_invariant_step_is_the_exact_1d_step_at_tau_over_L(self):
        # u(x, y) = f(x)/L makes the 2D problem a 1D one: only xi_y = 0 modes
        # are present, so the energy is F_1D(f)/L, while W^2 (and debiased
        # Sinkhorn, whose plan factorises for these product marginals) is the
        # 1D value.  L times the 2D objective is F_1D(f) + W^2/(2 tau/L): the
        # 2D step at tau is the 1D step at tau/L.  Against the 1D step at tau
        # the same marginal reads a 93% error.  What is left is Sinkhorn's
        # entropic bias at eps = 0.1 and the loose grad_tol; it read 0.139
        # when the bound was set.
        n, L, tau = 48, 16.0, 1e-2
        mixture = [(0.6, -1.0, 0.8), (0.4, 1.2, 1.0)]  # (weight, centre, variance)
        grid1, grid2 = PeriodicGrid(1, n, L), PeriodicGrid(2, n, L)
        f0 = gaussian_mixture_density(grid1, mixture)
        u0 = GridDensity(grid2, np.repeat(f0.values[:, None], n, axis=1) / L)
        inner = InnerConfig(grad_tol=1e-3)
        transport = TransportConfig(epsilon=0.1, tol=1e-7)
        rec2 = jko_step(u0, JkoConfig(grid=grid2, s=1.0, tau=tau, inner=inner, transport=transport))
        rec1 = jko_step(f0, make_cfg(n=n, L=L, tau=tau / L, grad_tol=1e-9))
        u1 = rec2.density.values
        assert np.max(np.abs(u1 - u1[:, :1])) <= 1e-9
        marginal = u1.sum(axis=1) * grid2.spacing
        moved = np.max(np.abs(rec1.density.values - f0.values))
        error = np.max(np.abs(marginal - rec1.density.values)) / moved
        assert error <= 0.2

    def test_yz_invariant_step_is_the_exact_1d_step_at_tau_over_L_squared(self):
        # the d = 3 case of the test above: u = f(x)/L^2 has energy
        # F_1D(f)/L^2 and the 1D W^2, so the 3D step at tau is the 1D step at
        # tau/L^2.  At eps = h^2 = 0.45 the step converges in 3 Newton
        # iterations at kkt 1.58e-5 and reads an error of 0.170 (206 against
        # the 1D step at tau).  The residual scales like L^-(d-1): at
        # grad_tol 1e-3 the step stops at u0, whose residual is already
        # 5.0e-4, and at 1e-5 it ends stalled at the same 1.58e-5 (ROADMAP
        # item 5's floor).
        n, L, tau = 24, 16.0, 1e-2
        mixture = [(0.6, -1.0, 0.8), (0.4, 1.2, 1.0)]  # (weight, centre, variance)
        grid1, grid3 = PeriodicGrid(1, n, L), PeriodicGrid(3, n, L)
        f0 = gaussian_mixture_density(grid1, mixture)
        u0 = GridDensity(grid3, np.broadcast_to(f0.values[:, None, None], grid3.shape) / L ** 2)
        inner = InnerConfig(grad_tol=3e-5)
        transport = TransportConfig(epsilon=0.45, tol=1e-7)
        rec3 = jko_step(u0, JkoConfig(grid=grid3, s=1.0, tau=tau, inner=inner, transport=transport))
        rec1 = jko_step(f0, make_cfg(n=n, L=L, tau=tau / L ** 2, grad_tol=1e-9))
        assert rec3.stop_reason == "converged"
        u1 = rec3.density.values
        assert np.max(np.abs(u1 - u1[:, :1, :1])) <= 1e-9
        marginal = u1.sum(axis=(1, 2)) * grid3.spacing ** 2
        moved = np.max(np.abs(rec1.density.values - f0.values))
        error = np.max(np.abs(marginal - rec1.density.values)) / moved
        assert error <= 0.25
