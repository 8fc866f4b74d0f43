import numpy as np
import pytest
from scipy.integrate import quad
from scipy.ndimage import map_coordinates

from fracfilm import (
    GridDensity,
    PeriodicGrid,
    boundary_shell_mass,
    contraction_field,
    entropy,
    gaussian_density,
    gaussian_mixture_density,
    heat_semigroup,
    pushforward_with_drift,
    second_moment,
    sobolev_norm_sq,
    spike_density,
    uniform_density,
    w2_exact_1d,
)

from fracfilm.measure import _integrate_flow, _periodic_cubic_spline

from flow_fields import flow_map, sine_field, translation_field


def grid1d(n=512, L=40.0):
    return PeriodicGrid(1, n, L)


class TestGridDensity:
    def test_negative_values_rejected(self):
        g = grid1d(64)
        vals = np.full(g.shape, 1.0 / g.box_length)
        vals[3] = -1e-6
        with pytest.raises(ValueError):
            GridDensity(g, vals)

    def test_mass_deviation_rejected(self):
        g = grid1d(64)
        with pytest.raises(ValueError):
            GridDensity(g, np.full(g.shape, 2.0 / g.box_length))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, bad):
        g = grid1d(64)
        vals = np.full(g.shape, 1.0 / g.box_length)
        vals[3] = bad
        with pytest.raises(ValueError):
            GridDensity(g, vals)
        with pytest.raises(ValueError):
            GridDensity.normalized(g, vals)

    def test_normalized_constructor(self):
        g = grid1d(64)
        rng = np.random.default_rng(0)
        u = GridDensity.normalized(g, rng.uniform(size=g.shape))
        assert abs(u.mass() - 1.0) <= 1e-12

    def test_mixture_normalizes(self):
        g = grid1d()
        u = gaussian_mixture_density(g, [(0.3, -2.0, 0.5), (0.7, 2.0, 1.0)])
        assert abs(u.mass() - 1.0) <= 1e-12
        assert np.min(u.values) >= 0


class TestSecondMoment:
    def test_centered_spike(self):
        g = grid1d(256)
        assert second_moment(spike_density(g)) <= g.spacing ** 2

    def test_standard_gaussian(self):
        # quadrature oracle: integral x^2 g(x) dx = 1 for the unit Gaussian
        val, _ = quad(lambda x: x * x * np.exp(-x * x / 2) / np.sqrt(2 * np.pi), -np.inf, np.inf)
        assert val == pytest.approx(1.0, rel=1e-10)
        g = grid1d()
        assert second_moment(gaussian_density(g)) == pytest.approx(1.0, abs=1e-6)

    def test_uniform_matches_lattice_quadrature(self):
        # the defined quadrature is the lattice sum; its closed form is
        # L^2/12 + h^2/6 - h L/... computed directly, and it converges to
        # L^2/12 at second order in h
        g = grid1d(512)
        val = second_moment(uniform_density(g))
        lattice = g.cell_volume * np.sum(g.axis_coords ** 2) / g.box_length
        assert val == pytest.approx(lattice, rel=1e-14)
        assert val == pytest.approx(g.box_length ** 2 / 12.0, rel=1e-4)
        finer = PeriodicGrid(1, 2048, g.box_length)
        val_f = second_moment(uniform_density(finer))
        assert abs(val_f - finer.box_length ** 2 / 12.0) < abs(val - g.box_length ** 2 / 12.0)


class TestEntropy:
    def test_uniform_on_unit_box(self):
        g = PeriodicGrid(1, 128, 1.0)
        assert entropy(uniform_density(g)) == pytest.approx(0.0, abs=1e-12)

    def test_standard_gaussian(self):
        # analytic differential entropy of the unit Gaussian, cross-checked
        # by quadrature
        oracle, _ = quad(
            lambda x: (np.exp(-x * x / 2) / np.sqrt(2 * np.pi))
            * (-x * x / 2 - 0.5 * np.log(2 * np.pi)),
            -np.inf,
            np.inf,
        )
        assert oracle == pytest.approx(-0.5 * np.log(2 * np.pi * np.e), rel=1e-10)
        g = grid1d()
        assert entropy(gaussian_density(g)) == pytest.approx(oracle, abs=1e-6)

    def test_uniform_on_large_box(self):
        g = grid1d()
        assert entropy(uniform_density(g)) == pytest.approx(-np.log(40.0), abs=1e-9)

    def test_zero_cells_contribute_zero(self):
        g = grid1d(64)
        vals = np.zeros(g.shape)
        vals[: g.n // 2] = 2.0 / g.box_length
        u = GridDensity(g, vals)
        assert np.isfinite(entropy(u))


class TestHeatSemigroup:
    def test_t_zero_identity(self):
        g = grid1d()
        u = gaussian_density(g)
        assert np.array_equal(heat_semigroup(u, 0.0).values, u.values)

    def test_gaussian_variance_grows_by_2t(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 1.0)
        out = heat_semigroup(u, 0.5)
        target = gaussian_density(g, 0.0, 2.0)
        assert np.max(np.abs(out.values - target.values)) <= 1e-8

    def test_uniform_fixed_point(self):
        g = grid1d(128)
        u = uniform_density(g)
        out = heat_semigroup(u, 0.7)
        assert np.max(np.abs(out.values - u.values)) < 1e-13

    def test_mass_preserved(self):
        g = grid1d()
        u = gaussian_density(g, 1.0, 0.5)
        assert heat_semigroup(u, 0.25).mass() == pytest.approx(1.0, abs=1e-12)

    def test_semigroup_law(self):
        g = grid1d(256)
        u = gaussian_density(g, 0.5, 0.8)
        one = heat_semigroup(heat_semigroup(u, 0.3), 0.2)
        two = heat_semigroup(u, 0.5)
        assert np.max(np.abs(one.values - two.values)) < 1e-12 * np.max(two.values)

    def test_negative_time_rejected(self):
        g = grid1d(64)
        with pytest.raises(ValueError):
            heat_semigroup(uniform_density(g), -0.1)

    def test_dissipates_sobolev_norms(self):
        g = grid1d(256)
        u = gaussian_density(g, 0.3, 0.6)
        for r in (0.0, 0.5, 1.0, 1.5):
            prev = np.inf
            for t in np.arange(0.0, 0.11, 0.01):
                cur = sobolev_norm_sq(heat_semigroup(u, t).values, g, r)
                assert cur <= prev * (1 + 1e-12)
                prev = cur

    def test_entropy_nonincreasing_along_heat_flow(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 0.5)
        h_prev = entropy(u)
        for t in (0.01, 0.05, 0.1, 0.5):
            h_cur = entropy(heat_semigroup(u, t))
            assert h_cur <= h_prev + 1e-12
            h_prev = h_cur


class TestFlowMap:
    def test_zero_field_identity(self):
        fld = translation_field([0.0], 2.0, 4.0)
        pts = np.array([[0.1], [1.5], [-3.0]])
        out = flow_map(fld, 0.7, pts)
        assert np.max(np.abs(out - pts)) < 1e-12

    def test_linear_contraction_exact_solution(self):
        # eta(x) = -x on the plateau: X_t(x0) = x0 exp(-t) for x0 well inside
        fld = contraction_field(1, 5.0, 8.0)
        pts = np.array([[0.5], [1.0], [-2.0]])
        out = flow_map(fld, 0.6, pts)
        assert np.max(np.abs(out - pts * np.exp(-0.6))) < 1e-8

    def test_flow_inverse(self):
        fld = contraction_field(1, 5.0, 8.0)
        pts = np.linspace(-4.0, 4.0, 17)[:, None]
        there = flow_map(fld, 0.5, pts)
        back = flow_map(fld, -0.5, there)
        assert np.max(np.abs(back - pts)) < 1e-8

    def test_group_law(self):
        fld = contraction_field(1, 5.0, 8.0)
        pts = np.linspace(-4.0, 4.0, 9)[:, None]
        two_hops = flow_map(fld, 0.3, flow_map(fld, 0.2, pts))
        one_hop = flow_map(fld, 0.5, pts)
        assert np.max(np.abs(two_hops - one_hop)) < 1e-8

    def test_identity_outside_support(self):
        fld = contraction_field(1, 2.0, 3.0)
        pts = np.array([[3.5], [10.0], [-4.0]])
        out = flow_map(fld, 0.9, pts)
        assert np.array_equal(out, pts)

    def test_long_time_rejected(self):
        fld = contraction_field(1, 2.0, 3.0)
        with pytest.raises(ValueError):
            flow_map(fld, 1.5, np.array([[0.0]]))

    @pytest.mark.parametrize("t", [0.5, -0.5])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_contraction_determinant_on_plateau(self, dim, t):
        # eta = -x on the plateau, so det DX_t = exp(-d t); the points stay
        # inside r_inner = 1.75 (|X_t| <= e^0.5 sqrt(2) 0.7 < 1.7)
        fld = contraction_field(dim, 1.75, 2.0)
        axes = np.meshgrid(*[np.linspace(-0.7, 0.7, 5)] * dim, indexing="ij")
        pts = np.stack([a.ravel() for a in axes], axis=1)
        _, log_det = _integrate_flow(fld, t, pts)
        np.testing.assert_allclose(np.exp(log_det), np.exp(-dim * t), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("t", [0.5, -0.5])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_sine_determinant_on_plateau(self, dim, t):
        # eta = e_1 sin(k x_1) on the plateau: d/dt log sin(k X_1) = k cos(k X_1)
        # = div eta, so det DX_t = sin(k X_t)/sin(k x_0); with k = 1, x_1 stays
        # in (0, pi) or (-pi, 0) and |X_t| < 3.3 < r_inner
        fld = sine_field(dim, 5.0, 8.0, freq=1.0)
        axes = np.meshgrid(np.array([-2.7, -1.9, -1.1, -0.3, 0.3, 1.1, 1.9, 2.7]),
                           *[np.linspace(-1.0, 1.0, 3)] * (dim - 1), indexing="ij")
        pts = np.stack([a.ravel() for a in axes], axis=1)
        there, log_det = _integrate_flow(fld, t, pts)
        exact = np.sin(there[:, 0]) / np.sin(pts[:, 0])
        np.testing.assert_allclose(np.exp(log_det), exact, rtol=1e-12, atol=0)


class TestPushforward:
    def test_t_zero_unchanged(self):
        g = grid1d(256)
        u = gaussian_density(g, 0.0, 0.25)
        fld = translation_field([1.0], 6.0, 9.0)
        out, _ = pushforward_with_drift(u, fld, 0.0)
        assert np.max(np.abs(out.values - u.values)) < 1e-12

    def test_zero_field_unchanged(self):
        g = grid1d(256)
        u = gaussian_density(g, 0.0, 0.25)
        fld = translation_field([0.0], 6.0, 9.0)
        out, _ = pushforward_with_drift(u, fld, 0.4)
        assert np.max(np.abs(out.values - u.values)) < 1e-12

    def test_translation_matches_analytic_target(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 0.25)
        fld = translation_field([1.0], 6.0, 9.0)
        out, drift = pushforward_with_drift(u, fld, 0.3)
        target = gaussian_density(g, 0.3, 0.25)
        dist = w2_exact_1d(out, target, want_potential=False).w2_squared
        assert np.sqrt(max(dist, 0.0)) <= 1e-4
        assert drift <= 1e-6

    def test_narrow_convergence_surrogate(self):
        g = grid1d(256)
        u = gaussian_density(g, 0.0, 0.5)
        fld = translation_field([1.0], 6.0, 9.0)
        prev = np.inf
        for t in (0.2, 0.1, 0.05, 0.025):
            d = w2_exact_1d(pushforward_with_drift(u, fld, t)[0], u, want_potential=False).w2_squared
            assert d < prev
            prev = d
        assert prev < 1e-3

    def test_mass_and_positivity(self):
        g = grid1d(256)
        u = gaussian_density(g, 0.5, 0.7)
        fld = contraction_field(1, 5.0, 9.0)
        out, _ = pushforward_with_drift(u, fld, 0.5)
        assert out.mass() == pytest.approx(1.0, abs=1e-12)
        assert np.min(out.values) >= 0.0

    def test_drift_above_the_bars_warns_then_raises(self, monkeypatch):
        # the measured drift (1.6e-7 here) is below both bars; lowered to 0,
        # the warning bar warns and the hard bar raises with that drift
        import fracfilm.measure
        from fracfilm import MassDriftError

        g = grid1d(512)
        u = gaussian_density(g, 0.0, 0.25)
        fld = contraction_field(1, 9.0, 14.0)
        _, drift = pushforward_with_drift(u, fld, 0.1)
        assert drift > 0.0
        monkeypatch.setattr(fracfilm.measure, "_PUSHFORWARD_WARN", 0.0)
        with pytest.warns(UserWarning, match="push-forward mass drift"):
            _, warned = pushforward_with_drift(u, fld, 0.1)
        assert warned == drift
        monkeypatch.setattr(fracfilm.measure, "_PUSHFORWARD_FAIL", 0.0)
        with pytest.raises(MassDriftError) as exc:
            pushforward_with_drift(u, fld, 0.1)
        assert exc.value.drift == drift

    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 48)])
    def test_spline_matches_map_coordinates(self, dim, n):
        # the push-forward's interpolant against scipy's periodic cubic
        # B-spline, at points up to a period beyond either end of the box
        g = PeriodicGrid(dim, n, 10.0)
        rng = np.random.default_rng(dim)
        values = rng.uniform(size=g.shape)
        idx = rng.uniform(-n, 2 * n, size=(dim, 2000))
        oracle = map_coordinates(values, idx, order=3, mode="grid-wrap", prefilter=True)
        got = _periodic_cubic_spline(values, g, idx)
        assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    def test_wrapping_support_rejected(self):
        g = PeriodicGrid(1, 128, 10.0)
        u = gaussian_density(g, 0.0, 0.25)
        fld = translation_field([1.0], 4.0, 6.0)  # support exceeds L/2
        with pytest.raises(ValueError):
            pushforward_with_drift(u, fld, 0.1)

    def test_field_vanishing_on_boundary_enforced(self):
        def bad_func(pts):
            return np.ones_like(pts)

        def bad_div(pts):
            return np.zeros(len(pts))

        from fracfilm import VectorField

        with pytest.raises(ValueError):
            VectorField(dim=1, func=bad_func, divergence=bad_div, support_radius=3.0)


class TestBoundaryShell:
    def test_gaussian_far_from_boundary(self):
        g = grid1d()
        assert boundary_shell_mass(gaussian_density(g)) < 1e-6

    def test_uniform_carries_shell_mass(self):
        g = grid1d(256)
        m = boundary_shell_mass(uniform_density(g))
        assert m == pytest.approx(0.1, abs=0.02)
