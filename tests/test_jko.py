import numpy as np
import pytest

from fracfilm import (
    InnerConfig,
    JkoConfig,
    PeriodicGrid,
    TransportConfig,
    energy,
    gaussian_density,
    interpolant,
    jko_step,
    run,
    uniform_density,
)


def make_cfg(n=256, L=40.0, s=1.0, tau=1e-3, grad_tol=1e-8, **inner_kw):
    grid = PeriodicGrid(1, n, L)
    inner = InnerConfig(grad_tol=grad_tol, obj_tol=0.0, **inner_kw)
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
        assert rec.w2_sq_to_prev <= 2 * cfg.tau * energy(u0, cfg.s) * (1 + 1e-10)

    def test_huge_tau_flattens(self):
        # tau = 1e3: the proximal term is negligible, the minimizer heads to
        # the uniform global minimizer of F_s; needs a deep solve (the
        # proximal term no longer regularizes the low frequencies)
        cfg = make_cfg(tau=1e3, grad_tol=1e-9, max_iters=20000)
        u0 = gaussian_density(cfg.grid, 2.0, 1.0)
        rec = jko_step(u0, cfg)
        assert rec.energy < 0.05 * energy(u0, cfg.s)

    def test_objective_not_above_previous_energy(self):
        cfg = make_cfg()
        u0 = gaussian_density(cfg.grid)
        rec = jko_step(u0, cfg)
        e_prev = energy(u0, cfg.s)
        assert rec.objective_value <= e_prev * (1 + 1e-10)
        assert rec.objective_value == pytest.approx(
            rec.energy + rec.w2_sq_to_prev / (2 * cfg.tau), abs=1e-10
        )

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
        assert rec.kkt_residual <= 1e-7  # polish floor can sit slightly above


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
        e0 = energy(traj.initial, traj.config.s)
        assert traj.status == "ok"
        assert len(energies) == 50
        assert energies[0] <= e0
        assert all(a >= b for a, b in zip(energies, energies[1:]))

    def test_reference_run_basic_estimate(self, reference_trajectory):
        traj = reference_trajectory
        cfg = traj.config
        e0 = energy(traj.initial, cfg.s)
        dissipation = sum(rec.w2_sq_to_prev for rec in traj.steps) / (2 * cfg.tau)
        assert traj.steps[-1].energy + dissipation <= e0 * (1 + 1e-8)

    def test_indices_contiguous(self, reference_trajectory):
        assert [rec.index for rec in reference_trajectory.steps] == list(range(1, 51))

    def test_one_step_energy_sandwich(self, reference_trajectory):
        # F_s(u^k) <= objective(u^k) <= F_s(u^{k-1}) for every k
        traj = reference_trajectory
        e_prev = energy(traj.initial, traj.config.s)
        for rec in traj.steps:
            assert rec.energy <= rec.objective_value + 1e-16
            assert rec.objective_value <= e_prev * (1 + 1e-10)
            e_prev = rec.energy

    def test_failed_step_reported_in_status(self):
        # starve the sinkhorn solver so the first step fails; run() must
        # stop early with the step index in the status instead of raising
        grid = PeriodicGrid(2, 32, 16.0)
        transport = TransportConfig(method="sinkhorn", epsilon=0.05, max_iter=2, tol=1e-12)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-2,
                        inner=InnerConfig(grad_tol=1e-6, obj_tol=0.0), transport=transport)
        traj = run(gaussian_density(grid, (0.0, 0.0), 1.0), cfg, 2)
        assert traj.status.startswith("failed:step=1:")
        assert traj.num_steps == 0

    def test_programming_error_propagates(self, monkeypatch):
        # only solver failures (FracfilmError) end a run with a status; a
        # bug inside a step must raise out of run()
        import fracfilm.jko

        def broken(*args, **kwargs):
            raise TypeError("broken operator")

        monkeypatch.setattr(fracfilm.jko, "fractional_laplacian", broken)
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
        inner = InnerConfig(grad_tol=1e-3, obj_tol=0.0, max_iters=60)
        transport = TransportConfig(method="sinkhorn", epsilon=0.1, max_iter=5000, tol=1e-7)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-2, inner=inner, transport=transport)
        u0 = gaussian_density(grid, (0.0, 0.0), 1.0)
        rec = jko_step(u0, cfg)
        assert rec.objective_value <= energy(u0, 1.0) * (1 + 1e-8)
        assert abs(rec.density.mass() - 1.0) <= 1e-12
        assert np.min(rec.density.values) >= 0.0
