import numpy as np
import pytest
from dataclasses import replace

from fracfilm import (
    CheckReport,
    CosineBump,
    GridDensity,
    InnerConfig,
    JkoConfig,
    PeriodicGrid,
    TransportConfig,
    Trajectory,
    check_energy_estimate,
    check_entropy_dissipation,
    check_evi_entropy,
    check_moment_bound,
    check_weak_form_step,
    contraction_field,
    derivative_identity_check,
    energy_of_values,
    entropy,
    fractional_laplacian,
    gaussian_density,
    operator_N,
    plateau,
    run,
    spectral_divergence,
    tau_refinement_study,
    uniform_density,
)

from fracfilm.analysis import validate_refinement_settings
from fracfilm.scenario import write_json
from fracfilm.spectral import apply_multiplier

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
        assert operator_N(u.values, g, field_values(fld, g), 1.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_chain_rule_of_lattice_energy(self, dim, s):
        # N(v, eta) is the derivative of the scheme's energy along
        # dv/dt = -div(eta v); the energy is quadratic, so the central
        # difference of unit step in the direction w = div(eta v) is exact
        # up to rounding
        g = PeriodicGrid(dim, 32, 10.0)
        rng = np.random.default_rng(0)
        v = rng.normal(size=g.shape)
        eta = rng.normal(size=(dim,) + g.shape)
        w = spectral_divergence(eta * v[None], g)
        fd = (energy_of_values(v + w, g, s) - energy_of_values(v - w, g, s)) / 2.0
        assert operator_N(v, g, eta, s) == pytest.approx(fd, rel=1e-9)

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

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_branches_agree_on_smooth_input(self, dim, s):
        # the paper's case split at m = int(s/2): (L_{s-m} v) * L_m(div(eta v))
        # for s in [2m, 2m+1], grad L_{s-m-1} v . grad L_m(div(eta v)) for
        # s in (2m+1, 2m+2).  On smooth data it is the single sum of
        # `operator_N`; on rough data in d >= 2 the gradient branch differs,
        # since its multipliers zero each axis's Nyquist mode and |xi|^(2s)
        # does not
        g = grid1d() if dim == 1 else PeriodicGrid(2, 64, 20.0)
        u = gaussian_density(g, 0.0, 1.5).values
        radii = (9.0, 14.0) if dim == 1 else (4.0, 7.0)
        eta = field_values(sine_field(dim, *radii), g)

        def grad(w):
            return np.stack([apply_multiplier(w, g, m) for m in g.derivative_multipliers])

        m = int(s // 2)
        div_ev = fractional_laplacian(spectral_divergence(eta * u[None], g), g, m)
        if s <= 2 * m + 1:
            split = np.sum(fractional_laplacian(u, g, s - m) * div_ev)
        else:
            split = np.sum(grad(fractional_laplacian(u, g, s - m - 1)) * grad(div_ev))
        assert operator_N(u, g, eta, s) == pytest.approx(g.cell_volume * split, rel=1e-10)

    def test_invalid_order_rejected(self):
        g = grid1d(64)
        with pytest.raises(ValueError):
            operator_N(np.ones(g.shape), g, np.ones((1,) + g.shape), 0.0)


class TestDerivativeIdentity:
    # the most load-bearing check: the finite difference of the energy along
    # the push-forward flow must reproduce -N at every order

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

    def test_lhs_is_twice_the_lattice_energy_of_order_one_plus_s(self):
        # at s = 0.5 the order 1 + s is fractional: the per-step norm is the
        # plain lattice sum, bit for bit, not the kink-corrected continuum norm
        grid = grid1d(128)
        cfg = JkoConfig(grid=grid, s=0.5, tau=1e-3, inner=InnerConfig(grad_tol=1e-8))
        traj = run(gaussian_density(grid, 0.0, 1.0), cfg, 2)
        rep = check_entropy_dissipation(traj)
        want = [2 * energy_of_values(rec.density.values, grid, 1.5) for rec in traj.steps]
        assert list(rep.lhs[:-1]) == want

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
            norm = 2 * energy_of_values(rough.values, grid, 1.0 + traj.config.s)
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

    def test_rough_data_fails_with_the_reason(self):
        # the heat flow of a step rings below its negativity floor: the check
        # cannot judge, says why, and its report is strict JSON
        g = grid1d()
        u = GridDensity.normalized(g, (np.abs(g.axis_coords) < 3.0).astype(float))
        rep = check_evi_entropy(u, u)
        assert not rep.passed and rep.max_violation is None and len(rep.ks) == 0
        assert rep.extra["reason"].startswith("heat flow produced negativity")
        assert rep.to_dict()["max_violation"] is None

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
        phi = CosineBump(1, 12.0, 16.0, amplitude=0.1, freq=0.0)
        rep = check_weak_form_step(short_trajectory, phi)
        assert rep.passed
        assert np.max(rep.lhs[:-1]) < 1e-12  # last row is the vanishing bound

    def test_reference_passes(self, short_trajectory):
        phi = CosineBump(1, 12.0, 16.0)
        rep = check_weak_form_step(short_trajectory, phi)
        assert rep.passed

    def test_negative_control_lambda_over_100(self):
        # a coarse-tau run moves enough mass per step that the quadratic
        # remainder term dominates the absolute slack, so shrinking lambda
        # by 100x must flip the check
        grid = grid1d()
        cfg = JkoConfig(grid=grid, s=1.0, tau=0.05, inner=InnerConfig(grad_tol=1e-8))
        traj = run(gaussian_density(grid, 0.0, 1.0), cfg, 3)
        phi = CosineBump(1, 12.0, 16.0, amplitude=0.5, freq=3.0)
        good = check_weak_form_step(traj, phi)
        assert good.passed
        bad = check_weak_form_step(traj, phi, lam=phi.hessian_sup / 100.0)
        assert not bad.passed

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_hessian_self_check_matches_svd_norm(self, dim, monkeypatch):
        # the closed-form estimate is the per-point SVD norm of the reference
        # Hessian at the same samples, and a bound just below it is refused
        from fracfilm import fields

        phi = CosineBump(dim, 10.0, 16.0)
        pts = fields._roberts_points(2048, dim).T * (2.0 * phi.support_radius) - phi.support_radius
        d2psi = reference_cosine_bump_spatial(pts, 2.0, 10.0, 16.0)[2]
        svd = max(float(np.max(np.linalg.norm(phi.time_factor(t) * d2psi, axis=(1, 2), ord=2)))
                  for t in (0.0, 0.3, 0.7, 1.3))
        worst = phi.sampled_hessian_norm()
        assert worst == pytest.approx(svd, rel=1e-12)
        assert phi.hessian_sup >= worst
        # the bound is A k^2 (1 + 1e-7) plus terms linear in the transition
        # constants: scaled down together, they put it 1e-9 below the estimate
        base = 0.1 * 2.0 ** 2 * 1.0000001
        scale = (worst * (1.0 - 1e-9) - base) / (phi.hessian_sup - base)
        assert 0.0 < scale < 1.0
        for name in ("_TRANSITION_SLOPE_MAX", "_TRANSITION_CURVATURE_MAX"):
            monkeypatch.setattr(fields, name, getattr(fields, name) * scale)
        assert phi.hessian_sup == pytest.approx(worst * (1.0 - 1e-9), rel=1e-12)
        with pytest.raises(ValueError, match="below sampled estimate"):
            CosineBump(dim, 10.0, 16.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_hessian_guard_points_are_the_roberts_sequence(self, dim):
        # frac(1/2 + k g^-j) for the positive root g of g^(d+1) = g + 1; the
        # 2048 points reach every cell of an 8^d partition of the unit box
        from fracfilm.fields import _roberts_points

        z = _roberts_points(2048, dim)
        roots = np.roots([1.0] + [0.0] * (dim - 1) + [-1.0, -1.0])
        g = max(r.real for r in roots if abs(r.imag) < 1e-12)
        expected = 0.5 + np.arange(1, 2049) * g ** -np.arange(1.0, dim + 1)[:, None]
        distance = np.abs(z - expected) % 1.0
        assert np.all(np.minimum(distance, 1.0 - distance) < 1e-10)
        assert z.shape == (dim, 2048) and np.all((z >= 0.0) & (z < 1.0))
        cells = np.ravel_multi_index(tuple((8 * z).astype(int)), (8,) * dim)
        assert len(np.unique(cells)) == 8 ** dim


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
        phi = CosineBump(dim, *radii)
        *_, bound = _reference_cosine_bump(dim, 0.1, 2.0, *radii)
        assert phi.hessian_sup == pytest.approx(bound, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("radii", _RADII)
    def test_hessian_norm_matches_svd_norm(self, dim, radii):
        # the closed form against the SVD norm of the reference Hessian over
        # the support's box, the annulus, its edges, the x_1 axis (sigma = 0,
        # the origin included) and, for d >= 2, the plane x_1 = 0
        r_inner, r_outer = radii
        phi = CosineBump(dim, r_inner, r_outer)
        rng = np.random.default_rng(17 + dim)
        dirs = rng.standard_normal((3000, dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        edges = np.array([r_inner, r_outer])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        radius = np.concatenate([rng.uniform(0.0, 1.1 * r_outer, 1000),
                                 rng.uniform(r_inner, r_outer, 1000), np.resize(edges, 1000)])
        axis = np.zeros((2001, dim))
        axis[:, 0] = np.linspace(-1.1 * r_outer, 1.1 * r_outer, 2001)
        plane = np.zeros((1000, dim))
        plane[:, -1] = rng.uniform(r_inner, r_outer, 1000)
        pts = np.vstack([dirs * radius[:, None], axis, plane])
        hess = reference_cosine_bump_spatial(pts, 2.0, r_inner, r_outer)[2]
        svd = np.linalg.norm(hess, axis=(1, 2), ord=2)
        np.testing.assert_allclose(phi.hessian_norm(pts), svd, rtol=1e-12, atol=0.0)
        if dim == 3:
            # alpha = chi'/r, the eigenvalue off span{e1, r}, is the largest
            # eigenvalue over much of the plane's inner half
            _, dchi, _ = reference_plateau(plane[:, -1], r_inner, r_outer)
            largest = np.linalg.eigvalsh(hess[-1000:])[:, -1]
            alpha = dchi / plane[:, -1]
            assert np.sum((alpha < 0) & np.isclose(largest, alpha, rtol=1e-12, atol=0.0)) > 100

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("amplitude", "freq") for value in (np.nan, np.inf, -0.5)])
    def test_refuses_a_non_finite_or_negative_parameter(self, field, value):
        # a nan amplitude used to give lambda = nan and NaN in the check JSON
        with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
            CosineBump(1, 12.0, 16.0, **{field: value})

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_separable_form_matches_closures(self, dim):
        radii = (10.0, 16.0)
        phi = CosineBump(dim, radii[0], radii[1], amplitude=0.5, freq=3.0)
        value, grad, hessian, _ = _reference_cosine_bump(dim, 0.5, 3.0, *radii)
        rng = np.random.default_rng(7 + dim)
        # the box around the support, the transition annulus and the origin
        pts = rng.uniform(-17.0, 17.0, size=(1500, dim))
        shell = rng.standard_normal((1500, dim))
        shell *= rng.uniform(*radii, size=(1500, 1)) / np.linalg.norm(shell, axis=1)[:, None]
        pts = np.vstack([pts, shell, np.zeros((1, dim))])
        psi, dpsi = phi.spatial(pts)
        norm = phi.hessian_norm(pts)
        for t in (0.0, 1e-3, 0.37, 2.0):
            a = phi.time_factor(t)
            np.testing.assert_allclose(a * psi, value(t, pts), rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(a * dpsi, grad(t, pts), rtol=1e-15, atol=0.0)
            svd = np.linalg.norm(hessian(t, pts), axis=(1, 2), ord=2)
            np.testing.assert_allclose(a * norm, svd, rtol=1e-12, atol=0.0)

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

    def test_weak_form_evaluates_spatial_part_once(self, short_trajectory, monkeypatch):
        phi = CosineBump(1, 12.0, 16.0)
        expected = check_weak_form_step(short_trajectory, phi).to_dict()
        spatial = CosineBump.spatial
        calls = []

        def counting(self, points):
            calls.append(points.shape)
            return spatial(self, points)

        monkeypatch.setattr(CosineBump, "spatial", counting)
        rep = check_weak_form_step(short_trajectory, phi)
        assert len(short_trajectory.steps) > 1
        assert calls == [(short_trajectory.config.grid.n, 1)]
        assert rep.to_dict() == expected

    @pytest.mark.parametrize("dim", [1, 2])
    def test_default_phi_is_the_gentle_bump(self, dim):
        # with no phi the check tests against CosineBump(d, 0.3 L, 0.45 L)
        if dim == 1:
            grid = grid1d()
            cfg = JkoConfig(grid=grid, s=1.0, tau=1e-3, inner=InnerConfig(grad_tol=1e-8))
            u0 = gaussian_density(grid, 0.0, 1.0)
        else:
            grid = PeriodicGrid(2, 16, 12.0)
            cfg = JkoConfig(grid=grid, s=1.0, tau=1e-2,
                            transport=TransportConfig(epsilon=0.2, tol=1e-7),
                            inner=InnerConfig(grad_tol=1e-4, max_iters=5))
            u0 = gaussian_density(grid, (0.0, 0.0), 1.0)
        traj = run(u0, cfg, 2)
        assert traj.status == "ok"
        L = grid.box_length
        explicit = check_weak_form_step(traj, CosineBump(dim, 0.3 * L, 0.45 * L))
        assert check_weak_form_step(traj).to_dict() == explicit.to_dict()
        assert explicit.extra["lambda"] == CosineBump(dim, 0.3 * L, 0.45 * L).hessian_sup


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
            tau_refinement_study(
                uniform_density(grid), cfg, tau_list=(1e-3, 2e-3), horizon=4e-3, r=0.5
            )

    @pytest.mark.parametrize("r", [1.0, -np.inf])
    def test_r_must_be_below_s(self, r):
        # a non-finite r would run every solve and write "r": -Infinity,
        # which is not JSON
        grid = grid1d(128)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-3)
        with pytest.raises(ValueError, match="refinement order"):
            tau_refinement_study(
                uniform_density(grid), cfg, tau_list=(2e-3, 1e-3), horizon=4e-3, r=r
            )

    @pytest.mark.parametrize("r", [-np.inf, np.nan])
    def test_validate_refinement_settings_rejects_r(self, r):
        validate_refinement_settings([2e-3, 1e-3], 4e-3, 0.5, 1.0)
        with pytest.raises(ValueError, match="must be finite with r < s"):
            validate_refinement_settings([2e-3, 1e-3], 4e-3, r, 1.0)


class TestCheckReportContract:
    def test_passed_iff_violation_within_tolerance(self):
        rep = CheckReport.from_series("demo", [1, 2], [1.0, 2.0], [1.5, 2.5], tolerance=0.0)
        assert rep.passed and rep.max_violation == -0.5
        rep2 = CheckReport.from_series("demo", [1], [2.0], [1.0], tolerance=0.5)
        assert not rep2.passed and rep2.max_violation == 1.0

    def test_json_schema(self, tmp_path):
        import json

        rep = CheckReport.from_series("demo", [1], [1.0], [2.0], tolerance=0.1)
        write_json(tmp_path / "check_demo.json", rep.to_dict())
        doc = json.loads((tmp_path / "check_demo.json").read_text())
        assert set(doc) >= {"name", "tolerance", "max_violation", "passed", "series"}
        assert doc["series"] == [{"k": 1, "lhs": 1.0, "rhs": 2.0}]

    def test_write_json_is_strict(self, tmp_path):
        # two-space indent, sorted keys, a final newline; NaN and Infinity
        # are refused rather than written as bare constants
        path = tmp_path / "doc.json"
        write_json(path, {"b": [1, None], "a": 0.5})
        assert path.read_text() == '{\n  "a": 0.5,\n  "b": [\n    1,\n    null\n  ]\n}\n'
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="not JSON compliant"):
                write_json(tmp_path / "bad.json", {"x": bad})
