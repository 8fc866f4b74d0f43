import numpy as np
import pytest
from dataclasses import replace

from fracfilm import (
    CheckReport,
    GridDensity,
    InnerConfig,
    JkoConfig,
    PeriodicGrid,
    Trajectory,
    check_energy_estimate,
    check_entropy_dissipation,
    check_evi_entropy,
    check_moment_bound,
    check_weak_form_step,
    contraction_field,
    cosine_bump_test_function,
    derivative_identity_check,
    entropy,
    gaussian_density,
    operator_N,
    operator_N_density,
    plateau,
    run,
    sobolev_norm_sq,
    tau_refinement_study,
    uniform_density,
)

from flow_fields import (
    reference_cosine_bump_spatial,
    reference_plateau,
    sine_field,
    translation_field,
)


def grid1d(n=256, L=40.0):
    return PeriodicGrid(1, n, L)


def field_values(fld, grid):
    pts = np.stack([c.ravel() for c in grid.coords], axis=1)
    return fld(pts).T.reshape((grid.dim,) + grid.shape)


@pytest.fixture(scope="module")
def short_trajectory():
    grid = grid1d()
    cfg = JkoConfig(grid=grid, s=1.0, tau=1e-3, inner=InnerConfig(grad_tol=1e-8))
    return run(gaussian_density(grid, 0.0, 1.0), cfg, 8)


def corrupt_step(traj, k, **changes):
    steps = list(traj.steps)
    steps[k - 1] = replace(steps[k - 1], **changes)
    return Trajectory(traj.config, traj.initial, steps, status=traj.status)


class TestOperatorN:
    def test_zero_field_gives_zero(self):
        g = grid1d()
        u = gaussian_density(g)
        fld = translation_field([0.0], 5.0, 9.0)
        assert operator_N_density(u, fld, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_antisymmetry_in_eta(self):
        g = grid1d(128)
        rng = np.random.default_rng(0)
        v = rng.normal(size=g.shape)
        eta = rng.normal(size=(1,) + g.shape)
        for s in (0.5, 1.0, 1.5, 2.5):
            a = operator_N(v, g, eta, s)
            b = operator_N(v, g, -eta, s)
            assert a == pytest.approx(-b, rel=1e-12)

    def test_linearity_in_eta(self):
        g = grid1d(128)
        rng = np.random.default_rng(1)
        v = rng.normal(size=g.shape)
        e1 = rng.normal(size=(1,) + g.shape)
        e2 = rng.normal(size=(1,) + g.shape)
        s = 1.5
        both = operator_N(v, g, 2.0 * e1 + 3.0 * e2, s)
        split = 2.0 * operator_N(v, g, e1, s) + 3.0 * operator_N(v, g, e2, s)
        assert both == pytest.approx(split, rel=1e-11)

    def test_branches_agree_on_smooth_input(self):
        # both case-split branches represent the same bilinear form for grid
        # functions; cross-check them at an interior order via the identity
        # sum L_{s-m} v * L_m w = sum grad L_{s-m-1} v . grad L_m w
        g = grid1d()
        u = gaussian_density(g, 0.0, 1.5)
        fld = sine_field(1, 9.0, 14.0)
        eta = field_values(fld, g)
        from fracfilm.spectral import fractional_laplacian, spectral_divergence

        s = 1.5
        div_ev = spectral_divergence(eta * u.values[None], g)
        first = g.cell_volume * np.sum(fractional_laplacian(u.values, g, s) * div_ev)
        second = operator_N(u.values, g, eta, s)
        assert first == pytest.approx(second, rel=1e-9)

    def test_invalid_order_rejected(self):
        g = grid1d(64)
        with pytest.raises(ValueError):
            operator_N(np.ones(g.shape), g, np.ones((1,) + g.shape), 0.0)


class TestDerivativeIdentity:
    # the most load-bearing check: the finite difference of the energy along
    # the push-forward flow must reproduce -N across both branches

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_contraction_field(self, s):
        g = grid1d()
        u = gaussian_density(g, 0.0, 2.25)
        fld = contraction_field(1, 9.0, 14.0)
        rep = derivative_identity_check(u, fld, s)
        assert rep.passed
        assert rep.extra["relative_error"] <= 1e-3

    def test_zero_field_both_sides_zero(self):
        g = grid1d()
        u = gaussian_density(g)
        fld = translation_field([0.0], 5.0, 9.0)
        rep = derivative_identity_check(u, fld, 1.0)
        assert abs(rep.extra["minus_N"]) < 1e-13
        assert abs(rep.extra["finite_difference"]) < 1e-10

    def test_gradient_branch_s_fractional(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 2.25)
        fld = sine_field(1, 9.0, 14.0)
        rep = derivative_identity_check(u, fld, 1.5)
        assert rep.passed
        assert rep.extra["relative_error"] <= 1e-3


class TestEnergyEstimate:
    def test_zero_step_trajectory_passes(self):
        grid = grid1d(128)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-3)
        traj = Trajectory(cfg, gaussian_density(grid), [])
        rep = check_energy_estimate(traj)
        assert rep.passed

    def test_reference_passes(self, short_trajectory):
        rep = check_energy_estimate(short_trajectory)
        assert rep.passed
        assert rep.max_violation <= 0.0

    def test_negative_control_energy_bump(self, short_trajectory):
        bad = corrupt_step(short_trajectory, 3, energy=short_trajectory.steps[2].energy + 1e-3)
        rep = check_energy_estimate(bad)
        assert not rep.passed
        # the violation surfaces at the corrupted step
        worst = int(rep.ks[int(np.argmax(rep.lhs - rep.rhs))])
        assert worst == 3


class TestMomentBound:
    def test_uniform_initial_datum(self):
        grid = grid1d(128)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-2, inner=InnerConfig(grad_tol=1e-7))
        traj = run(uniform_density(grid), cfg, 2)
        rep = check_moment_bound(traj)
        assert rep.passed

    def test_reference_passes(self, short_trajectory):
        rep = check_moment_bound(short_trajectory)
        assert rep.passed

    def test_negative_control_inflated_moment(self, short_trajectory):
        bad = corrupt_step(
            short_trajectory, 2, second_moment=short_trajectory.steps[1].second_moment + 10.0
        )
        rep = check_moment_bound(bad)
        assert not rep.passed


class TestEntropyDissipation:
    def test_single_step_from_uniform(self):
        grid = grid1d(128)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-3, inner=InnerConfig(grad_tol=1e-8))
        traj = run(uniform_density(grid), cfg, 1)
        rep = check_entropy_dissipation(traj)
        assert rep.passed
        assert abs(rep.lhs[0]) < 1e-12

    def test_reference_passes(self, short_trajectory):
        rep = check_entropy_dissipation(short_trajectory)
        assert rep.passed
        assert rep.extra["integrated_ok"]

    def test_tau_halving_does_not_grow_slack(self):
        grid = grid1d()
        u0 = gaussian_density(grid, 0.0, 1.0)
        viols = []
        for tau in (2e-3, 1e-3):
            cfg = JkoConfig(grid=grid, s=1.0, tau=tau, inner=InnerConfig(grad_tol=1e-8))
            traj = run(u0, cfg, 4)
            viols.append(check_entropy_dissipation(traj).extra["raw_violation"])
        assert max(viols[1], 0.0) <= max(viols[0], 0.0) + 1e-6

    def test_negative_control_entropy_bump(self, short_trajectory):
        bad = corrupt_step(short_trajectory, 4, entropy=short_trajectory.steps[3].entropy + 0.1)
        rep = check_entropy_dissipation(bad)
        assert not rep.passed

    def test_integrated_bound_row_fails_alone(self, short_trajectory):
        # every step gets a Nyquist-rough density, so sum tau ||u^k||^2 far
        # exceeds the integrated bound; entropies fall just fast enough that
        # every per-step row holds, so only the row k = N + 1 can fail
        traj = short_trajectory
        grid, tau = traj.config.grid, traj.config.tau
        wiggle = 1.0 + 0.5 * (-1.0) ** np.arange(grid.n)
        steps, ent_prev = [], entropy(traj.initial)
        for rec in traj.steps:
            rough = GridDensity.normalized(grid, rec.density.values * wiggle)
            norm = sobolev_norm_sq(rough.values, grid, 1.0 + traj.config.s, lattice=True)
            ent_prev = ent_prev - tau * norm
            steps.append(replace(rec, density=rough, entropy=ent_prev))
        rep = check_entropy_dissipation(Trajectory(traj.config, traj.initial, steps))
        nsteps = len(steps)
        assert list(rep.ks) == list(range(1, nsteps + 2))
        assert np.all(rep.lhs[:nsteps] <= rep.rhs[:nsteps])
        assert rep.lhs[-1] == rep.extra["integrated_lhs"]
        assert rep.rhs[-1] == rep.extra["integrated_rhs"]
        assert rep.lhs[-1] > rep.rhs[-1] + rep.tolerance
        assert not rep.extra["integrated_ok"]
        assert not rep.passed


class TestEviEntropy:
    def test_equal_inputs(self):
        # heat flow leaves u at Fisher-information speed: the quotient is
        # t I(u)/2 + O(t^2), with I = 1 for the unit Gaussian, and the
        # entropy difference vanishes; slack decays linearly in t
        g = grid1d()
        u = gaussian_density(g, 0.0, 1.0)
        rep = check_evi_entropy(u, u)
        assert rep.passed
        assert rep.extra["entropy_difference"] == 0.0
        for t, q in zip(rep.extra["t_list"], rep.extra["quotients"]):
            assert q == pytest.approx(t / 2.0, rel=0.02)

    def test_gaussian_pair_slack_monotone(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.0, 1.21)
        rep = check_evi_entropy(u, v)
        assert rep.passed
        s = rep.extra["slack"]
        assert s[0] >= s[1] >= s[2]

    def test_uniform_heat_fixed_point(self):
        g = grid1d(128)
        u = uniform_density(g)
        v = gaussian_density(g, 0.0, 1.0)
        rep = check_evi_entropy(u, v)
        # LHS = 0 exactly (S_t u = u); RHS = H(v) - H(u) >= 0 by maximality
        # of the uniform entropy on the box
        assert all(abs(q) < 1e-10 for q in rep.extra["quotients"])
        assert rep.extra["entropy_difference"] >= 0.0
        assert rep.passed

    def test_negative_control_inflated_quotient(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.5, 1.0)
        rep = check_evi_entropy(u, v)
        # corrupting the observed slack so it grows as t decreases must fail
        bad = CheckReport.from_series(
            rep.name,
            rep.ks,
            np.array(rep.extra["slack"][1:]) + np.array([0.1, 0.2]),
            rep.extra["slack"][:-1],
            tolerance=rep.tolerance,
        )
        assert not bad.passed


class TestWeakForm:
    def test_constant_phi_reduces_to_mass_conservation(self, short_trajectory):
        # a test function with vanishing gradient on the density support
        # pairs only with the conserved mass: both sides collapse
        g = short_trajectory.config.grid
        phi = cosine_bump_test_function(1, amplitude=0.1, freq=0.0, r_inner=12.0, r_outer=16.0)
        rep = check_weak_form_step(short_trajectory, phi)
        assert rep.passed
        assert np.max(rep.lhs[:-1]) < 1e-12  # last row is the vanishing bound

    def test_reference_passes(self, short_trajectory):
        phi = cosine_bump_test_function(1, amplitude=0.1, freq=2.0, r_inner=12.0, r_outer=16.0)
        rep = check_weak_form_step(short_trajectory, phi)
        assert rep.passed

    def test_negative_control_lambda_over_100(self):
        # a coarse-tau run moves enough mass per step that the quadratic
        # remainder term dominates the absolute slack, so shrinking lambda
        # by 100x must flip the check
        grid = grid1d()
        cfg = JkoConfig(grid=grid, s=1.0, tau=0.05, inner=InnerConfig(grad_tol=1e-8))
        traj = run(gaussian_density(grid, 0.0, 1.0), cfg, 3)
        phi = cosine_bump_test_function(1, amplitude=0.5, freq=3.0, r_inner=12.0, r_outer=16.0)
        good = check_weak_form_step(traj, phi)
        assert good.passed
        bad = check_weak_form_step(traj, phi, lam=phi.hessian_sup / 100.0)
        assert not bad.passed

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_hessian_self_check_matches_svd_norm(self, dim):
        # the eigenvalue estimate is the per-point SVD norm of the same
        # samples, and a declared bound just below it is refused
        phi = cosine_bump_test_function(dim, amplitude=0.1, freq=2.0, r_inner=10.0, r_outer=16.0)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-phi.support_radius, phi.support_radius, size=(2048, dim))
        svd = max(float(np.max(np.linalg.norm(phi.hessian(t, pts), axis=(1, 2), ord=2)))
                  for t in (0.0, 0.3, 0.7, 1.3))
        worst = phi.sampled_hessian_norm()
        assert worst == pytest.approx(svd, rel=1e-12)
        assert phi.hessian_sup >= worst
        with pytest.raises(ValueError, match="below sampled estimate"):
            replace(phi, hessian_sup=worst * (1.0 - 1e-9))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_symmetric_spectral_norm_matches_eigvalsh(self, dim):
        # the closed forms for d <= 2 agree with the eigenvalue route
        from fracfilm.fields import _symmetric_spectral_norm

        rng = np.random.default_rng(11 + dim)
        raw = rng.standard_normal((4096, dim, dim)) * rng.uniform(1e-3, 1e3, (4096, 1, 1))
        mats = raw + np.swapaxes(raw, 1, 2)
        expected = np.abs(np.linalg.eigvalsh(mats)).max(axis=-1)
        assert np.allclose(_symmetric_spectral_norm(mats), expected, rtol=1e-14, atol=0.0)


def _reference_cosine_bump(dim, amplitude, freq, r_inner, r_outer, time_scale=1.0):
    """The test function as closures over a(t) = 1/(1 + t/ts) and
    `reference_cosine_bump_spatial`, with its Hessian bound probed on 20 001
    radii: the reference for the separable form and the closed-form bound.
    Returns (value, grad, hessian, bound)."""

    def scale(t):
        return amplitude / (1.0 + t / time_scale)

    def value(t, points):
        return scale(t) * reference_cosine_bump_spatial(points, freq, r_inner, r_outer)[0]

    def grad(t, points):
        return scale(t) * reference_cosine_bump_spatial(points, freq, r_inner, r_outer)[1]

    def hessian(t, points):
        return scale(t) * reference_cosine_bump_spatial(points, freq, r_inner, r_outer)[2]

    rprobe = np.linspace(r_inner, r_outer, 20001)
    _, dchi, ddchi = reference_plateau(rprobe, r_inner, r_outer)
    bound = amplitude * (freq ** 2 + 2.0 * freq * np.max(np.abs(dchi)) + np.max(np.abs(ddchi))
                         + np.max(np.abs(dchi)) / max(r_inner, 1e-9))
    return value, grad, hessian, float(bound) * 1.0000001


# the radii `fracfilm verify` uses, (0.3 L, 0.45 L) at L = 16 and 40, and
# the radii of the unit tests
_RADII = [(0.3 * 16.0, 0.45 * 16.0), (0.3 * 40.0, 0.45 * 40.0), (10.0, 16.0), (12.0, 16.0)]


class TestCosineBumpTestFunction:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("radii", _RADII)
    def test_closed_form_bound_matches_probe(self, dim, radii):
        phi = cosine_bump_test_function(dim, amplitude=0.1, freq=2.0,
                                        r_inner=radii[0], r_outer=radii[1])
        *_, bound = _reference_cosine_bump(dim, 0.1, 2.0, *radii)
        assert phi.hessian_sup == pytest.approx(bound, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_separable_form_matches_closures(self, dim):
        radii = (10.0, 16.0)
        phi = cosine_bump_test_function(dim, amplitude=0.5, freq=3.0,
                                        r_inner=radii[0], r_outer=radii[1])
        value, grad, hessian, _ = _reference_cosine_bump(dim, 0.5, 3.0, *radii)
        rng = np.random.default_rng(7 + dim)
        # the box around the support, the transition annulus and the origin
        pts = rng.uniform(-17.0, 17.0, size=(1500, dim))
        shell = rng.standard_normal((1500, dim))
        shell *= rng.uniform(*radii, size=(1500, 1)) / np.linalg.norm(shell, axis=1)[:, None]
        pts = np.vstack([pts, shell, np.zeros((1, dim))])
        for t in (0.0, 1e-3, 0.37, 2.0):
            np.testing.assert_allclose(phi.value(t, pts), value(t, pts), rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(phi.grad(t, pts), grad(t, pts), rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(phi.hessian(t, pts), hessian(t, pts),
                                       rtol=1e-15, atol=0.0)

    def test_transition_constants_against_fine_probe(self):
        # F is the plateau profile on [0, 1]: chi on (r_inner, r_outer) =
        # (0, 1) gives F' and F'' directly; 2 000 001 points in chunks
        from fracfilm.fields import _TRANSITION_CURVATURE_MAX, _TRANSITION_SLOPE_MAX

        slope, curvature = 0.0, 0.0
        for chunk in np.array_split(np.linspace(0.0, 1.0, 2_000_001), 8):
            _, d1, d2 = plateau(chunk, 0.0, 1.0)
            slope = max(slope, float(np.max(np.abs(d1))))
            curvature = max(curvature, float(np.max(np.abs(d2))))
        assert abs(plateau(np.array([0.5]), 0.0, 1.0)[1][0]) == _TRANSITION_SLOPE_MAX
        assert slope == pytest.approx(_TRANSITION_SLOPE_MAX, rel=1e-12)
        # the literal sits 2.4e-8 (2.5e-9 relative) below the true maximum,
        # inside the bound's 1e-7 safety factor
        assert _TRANSITION_CURVATURE_MAX <= curvature
        assert curvature - _TRANSITION_CURVATURE_MAX == pytest.approx(2.4e-8, rel=0.05)
        assert curvature <= _TRANSITION_CURVATURE_MAX * (1.0 + 1e-7)

    def test_weak_form_evaluates_spatial_part_once(self, short_trajectory):
        phi = cosine_bump_test_function(1, amplitude=0.1, freq=2.0, r_inner=12.0, r_outer=16.0)
        calls = []

        def counting(points, hessian=False):
            calls.append((points.shape, hessian))
            return phi.spatial(points, hessian)

        counted = replace(phi, spatial=counting)
        calls.clear()  # the construction's self-check made one call
        rep = check_weak_form_step(short_trajectory, counted)
        assert len(short_trajectory.steps) > 1
        assert calls == [((short_trajectory.config.grid.n, 1), False)]
        assert rep.to_json() == check_weak_form_step(short_trajectory, phi).to_json()


class TestTauRefinement:
    def test_uniform_initial_datum_all_zero(self):
        grid = grid1d(128)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-3, inner=InnerConfig(grad_tol=1e-7))
        rep = tau_refinement_study(
            uniform_density(grid), cfg, tau_list=(4e-3, 2e-3), horizon=8e-3, r=0.5
        )
        assert rep.l2h_gaps[0] == pytest.approx(0.0, abs=1e-20)

    def test_single_tau_empty_table(self):
        grid = grid1d(128)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-3, inner=InnerConfig(grad_tol=1e-7))
        rep = tau_refinement_study(
            uniform_density(grid), cfg, tau_list=(4e-3,), horizon=8e-3, r=0.5
        )
        assert rep.l2h_gaps == []
        assert rep.cauchy_monotone

    def test_short_gaussian_study_decreasing(self):
        grid = grid1d()
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-3, inner=InnerConfig(grad_tol=1e-8))
        rep = tau_refinement_study(
            gaussian_density(grid, 0.0, 1.0), cfg, tau_list=(4e-3, 2e-3, 1e-3), horizon=0.02, r=0.5
        )
        assert rep.cauchy_monotone
        assert rep.l2h_gaps[0] > rep.l2h_gaps[1] > 0

    def test_bad_tau_list_rejected(self):
        grid = grid1d(128)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-3)
        with pytest.raises(ValueError):
            tau_refinement_study(uniform_density(grid), cfg, tau_list=(1e-3, 2e-3))

    def test_r_must_be_below_s(self):
        grid = grid1d(128)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-3)
        with pytest.raises(ValueError):
            tau_refinement_study(uniform_density(grid), cfg, tau_list=(2e-3, 1e-3), r=1.0)


class TestCheckReportContract:
    def test_passed_iff_violation_within_tolerance(self):
        rep = CheckReport.from_series("demo", [1, 2], [1.0, 2.0], [1.5, 2.5], tolerance=0.0)
        assert rep.passed and rep.max_violation == -0.5
        rep2 = CheckReport.from_series("demo", [1], [2.0], [1.0], tolerance=0.5)
        assert not rep2.passed and rep2.max_violation == 1.0

    def test_json_schema(self):
        import json

        rep = CheckReport.from_series("demo", [1], [1.0], [2.0], tolerance=0.1)
        doc = json.loads(rep.to_json())
        assert set(doc) >= {"name", "tolerance", "max_violation", "passed", "series"}
        assert doc["series"] == [{"k": 1, "lhs": 1.0, "rhs": 2.0}]
