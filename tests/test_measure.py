import numpy as np
import pytest
from scipy.integrate import quad

from fracfilm import (
    GridDensity,
    PeriodicGrid,
    boundary_shell_mass,
    carleman_bound,
    contraction_field,
    entropy,
    flow_map,
    gaussian_density,
    gaussian_mixture_density,
    heat_semigroup,
    pushforward_with_drift,
    second_moment,
    sobolev_norm_sq,
    spike_density,
    translation_field,
    uniform_density,
    w2_exact_1d,
)


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


class TestCarleman:
    def test_standard_gaussian_frozen_values(self):
        g = grid1d()
        ent, bound = carleman_bound(gaussian_density(g))
        assert ent == pytest.approx(-1.4189385332046727, abs=1e-6)
        # closed form: -1/e - log(4 pi)/2 - 1/4
        assert bound == pytest.approx(-1.0 / np.e - 0.5 * np.log(4 * np.pi) - 0.25, abs=1e-6)
        assert ent >= bound - 1e-9
        assert ent - bound == pytest.approx(0.464, abs=5e-3)

    def test_uniform_unit_box(self):
        g = PeriodicGrid(1, 256, 1.0)
        ent, bound = carleman_bound(uniform_density(g))
        assert ent == pytest.approx(0.0, abs=1e-12)
        expected = -1.0 / np.e - 0.5 * np.log(4 * np.pi) - 0.25 * second_moment(uniform_density(g))
        assert bound == pytest.approx(expected, rel=1e-12)
        assert ent >= bound - 1e-9

    def test_random_densities_satisfy_bound(self):
        rng = np.random.default_rng(1)
        g = grid1d(128)
        for _ in range(50):
            u = GridDensity.normalized(g, rng.uniform(size=g.shape) ** 2)
            ent, bound = carleman_bound(u)
            assert ent >= bound - 1e-9


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

    def test_wrapping_support_rejected(self):
        g = PeriodicGrid(1, 128, 10.0)
        u = gaussian_density(g, 0.0, 0.25)
        fld = translation_field([1.0], 4.0, 6.0)  # support exceeds L/2
        with pytest.raises(ValueError):
            pushforward_with_drift(u, fld, 0.1)

    def test_field_vanishing_on_boundary_enforced(self):
        def bad_func(pts):
            return np.ones_like(pts)

        def bad_jac(pts):
            n, d = pts.shape
            return np.zeros((n, d, d))

        from fracfilm import VectorField

        with pytest.raises(ValueError):
            VectorField(dim=1, func=bad_func, jacobian=bad_jac, support_radius=3.0)


class TestBoundaryShell:
    def test_gaussian_far_from_boundary(self):
        g = grid1d()
        assert boundary_shell_mass(gaussian_density(g)) < 1e-6

    def test_uniform_carries_shell_mass(self):
        g = grid1d(256)
        m = boundary_shell_mass(uniform_density(g))
        assert m == pytest.approx(0.1, abs=0.02)
