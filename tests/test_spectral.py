import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from fracfilm import (
    GridMismatchError,
    PeriodicGrid,
    energy,
    energy_of_values,
    forward_transform,
    fractional_laplacian,
    gaussian_density,
    interpolation_check,
    inverse_transform,
    sobolev_norm_sq,
    spike_density,
    uniform_density,
)


def grid1d(n=512, L=40.0):
    return PeriodicGrid(1, n, L)


def gaussian_hdot_oracle(r):
    """(2 pi)^{-1} integral |xi|^{2r} e^{-xi^2} d xi by adaptive quadrature."""
    val, err = quad(lambda xi: xi ** (2 * r) * np.exp(-(xi ** 2)), 0, np.inf)
    assert err < 1e-7  # conservative estimate; the value is far tighter
    return 2 * val / (2 * np.pi)


class TestGridConstruction:
    def test_spacing_times_n_is_length(self):
        g = grid1d(256, 37.5)
        assert g.spacing * g.n == pytest.approx(g.box_length, abs=1e-12)

    def test_frequency_lattice_symmetric_except_nyquist(self):
        g = grid1d(16, 2.0)
        freqs = np.sort(g.axis_freqs)
        # one unpaired mode at -n/2, the rest symmetric
        assert freqs[0] == pytest.approx(-2 * np.pi * 8 / 2.0)
        positive = freqs[freqs > 0]
        negative = freqs[(freqs < 0) & (freqs > freqs[0])]
        assert np.allclose(np.sort(positive), np.sort(-negative))

    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_odd_or_degenerate_n_rejected(self, n):
        with pytest.raises(ValueError):
            PeriodicGrid(1, n, 1.0)

    def test_oversized_grid_rejected(self):
        with pytest.raises(ValueError):
            PeriodicGrid(8, 2 ** 10, 1.0)


class TestForwardTransform:
    def test_constant_function_single_mode(self):
        g = PeriodicGrid(1, 16, 1.0)
        f = np.ones(16)
        field = forward_transform(f, g)
        assert abs(field.coeffs[0] - 1.0) < 1e-14
        assert np.max(np.abs(field.coeffs[1:])) < 1e-14

    def test_single_cosine_mode(self):
        g = PeriodicGrid(1, 16, 1.0)
        f = np.cos(2 * np.pi * g.axis_coords)
        field = forward_transform(f, g)
        idx = {int(round(xi * 1.0 / (2 * np.pi))): j for j, xi in enumerate(g.axis_freqs)}
        assert field.coeffs[idx[1]] == pytest.approx(0.5, abs=1e-14)
        assert field.coeffs[idx[-1]] == pytest.approx(0.5, abs=1e-14)
        rest = np.delete(field.coeffs, [idx[1], idx[-1]])
        assert np.max(np.abs(rest)) < 1e-14

    def test_gaussian_matches_quadrature_oracle(self):
        g = grid1d()
        u = np.exp(-g.axis_coords ** 2 / 2) / np.sqrt(2 * np.pi)
        field = forward_transform(u, g)
        sel = np.abs(g.axis_freqs) <= 10.0
        # independent oracle: continuum transform by high-precision quadrature
        import mpmath as mp

        mp.mp.dps = 30
        for xi, coeff in zip(g.axis_freqs[sel][::16], field.coeffs[sel][::16]):
            xim = mp.mpf(float(xi))
            re = mp.quad(
                lambda x: mp.cos(x * xim) * mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi),
                mp.linspace(-25, 25, 51),
            )
            assert coeff.real == pytest.approx(float(re), abs=1e-10)
            assert abs(coeff.imag) < 1e-10

    def test_round_trip(self):
        g = grid1d(128)
        rng = np.random.default_rng(0)
        f = rng.normal(size=g.shape)
        back = inverse_transform(forward_transform(f, g))
        assert np.max(np.abs(back - f)) < 1e-12 * max(1.0, np.max(np.abs(f)))

    def test_size_mismatch_rejected(self):
        g = grid1d(64)
        with pytest.raises(GridMismatchError):
            forward_transform(np.ones(65), g)

    def test_conjugate_symmetry_for_real_input(self):
        g = PeriodicGrid(2, 32, 5.0)
        rng = np.random.default_rng(1)
        f = rng.normal(size=g.shape)
        assert forward_transform(f, g).conjugate_symmetry_defect() < 1e-12

    def test_plancherel(self):
        g = grid1d(256)
        rng = np.random.default_rng(2)
        f = rng.normal(size=g.shape)
        field = forward_transform(f, g)
        lhs = (2 * np.pi) ** (-1) * (2 * np.pi / g.box_length) * np.sum(np.abs(field.coeffs) ** 2)
        rhs = g.cell_volume * np.sum(f ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestFractionalLaplacian:
    def test_sine_eigenfunction_s1(self):
        g = PeriodicGrid(1, 64, 1.0)
        f = np.sin(2 * np.pi * g.axis_coords)
        out = fractional_laplacian(f, g, 1.0)
        assert np.max(np.abs(out - (2 * np.pi) ** 2 * f)) < 1e-10

    def test_sine_eigenfunction_s_half(self):
        g = PeriodicGrid(1, 64, 1.0)
        f = np.sin(2 * np.pi * g.axis_coords)
        out = fractional_laplacian(f, g, 0.5)
        assert np.max(np.abs(out - (2 * np.pi) * f)) < 1e-11

    def test_constant_annihilated(self):
        g = grid1d(64)
        for s in (0.3, 1.0, 2.5):
            out = fractional_laplacian(np.full(g.shape, 3.7), g, s)
            assert np.max(np.abs(out)) < 1e-12

    def test_s_zero_is_identity(self):
        g = grid1d(64)
        rng = np.random.default_rng(3)
        f = rng.normal(size=g.shape)
        assert np.array_equal(fractional_laplacian(f, g, 0.0), f)

    def test_negative_order_rejected(self):
        g = grid1d(64)
        with pytest.raises(ValueError):
            fractional_laplacian(np.ones(g.shape), g, -0.5)

    @pytest.mark.parametrize("a,b", [(0.25, 0.5), (0.5, 1.0), (0.25, 1.0), (1.0, 1.0)])
    def test_composition(self, a, b):
        g = grid1d(128)
        rng = np.random.default_rng(4)
        f = rng.normal(size=g.shape)
        once = fractional_laplacian(f, g, a + b)
        twice = fractional_laplacian(fractional_laplacian(f, g, b), g, a)
        assert np.max(np.abs(once - twice)) < 1e-11 * np.max(np.abs(once))


class TestSobolevNorms:
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0])
    def test_gaussian_vs_gamma_closed_form_consistency(self, r):
        # the adaptive-quadrature oracle agrees with the Gamma closed form
        assert gaussian_hdot_oracle(r) == pytest.approx(gamma(r + 0.5) / (2 * np.pi), rel=1e-12)

    def test_gaussian_h1(self):
        # frozen from the Gamma-integral oracle: Gamma(3/2)/(2 pi) = 1/(4 sqrt(pi))
        g = grid1d()
        u = gaussian_density(g)
        val = sobolev_norm_sq(u.values, g, 1.0, homogeneous=True)
        assert val == pytest.approx(1.0 / (4.0 * np.sqrt(np.pi)), rel=1e-6)

    def test_gaussian_h_half_lattice_gap(self):
        # |xi| has a kink at 0: the lattice sum (the scheme's energy) carries
        # an O((2 pi/L)^2) quadrature excess over the continuum Gamma
        # integral.  Pin both the oracle and the measured gap so the
        # deviation stays visible.
        g = grid1d()
        u = gaussian_density(g)
        val = 2 * energy(u, 0.5)
        oracle = gaussian_hdot_oracle(0.5)
        assert oracle == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)
        rel_gap = (val - oracle) / oracle
        assert abs(rel_gap) < 0.006
        assert abs(rel_gap) > 1e-4  # genuinely not spectrally convergent

    @pytest.mark.parametrize("r", [0.5, 1.5])
    def test_shifted_gaussian_matches_gamma_oracle(self, r):
        # off-centre data has m1 != 0, which the second kink term carries
        g = grid1d()
        u = gaussian_density(g, 2.0, 1.0)
        val = sobolev_norm_sq(u.values, g, r, homogeneous=True)
        oracle = gamma(r + 0.5) / (2 * np.pi)
        assert val == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("r", [0.5, 1.5])
    def test_box_filling_data_rejected(self, r):
        # uniform data violates the truncation rule; its lattice sum is 0,
        # and the kink correction has opposite signs at these two orders
        g = grid1d()
        with pytest.raises(ValueError):
            sobolev_norm_sq(uniform_density(g).values, g, r)

    def test_zero_function(self):
        g = grid1d(64)
        for r in (-0.5, 0.0, 1.0, 2.5):
            assert sobolev_norm_sq(np.zeros(g.shape), g, r) == 0.0

    def test_order_zero_is_l2(self):
        g = grid1d(128)
        rng = np.random.default_rng(5)
        f = rng.normal(size=g.shape)
        l2 = g.cell_volume * np.sum(f ** 2)
        assert sobolev_norm_sq(f, g, 0.0, homogeneous=True) == pytest.approx(l2, rel=1e-12)
        assert sobolev_norm_sq(f, g, 0.0, homogeneous=False) == pytest.approx(l2, rel=1e-12)

    def test_inhomogeneous_monotone_in_order(self):
        g = grid1d(128)
        rng = np.random.default_rng(6)
        orders = [-1.0, -0.25, 0.0, 0.5, 1.0, 1.7, 2.0]
        for _ in range(100):
            f = rng.normal(size=g.shape)
            norms = [sobolev_norm_sq(f, g, r, homogeneous=False) for r in orders]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_negative_order_homogeneous_requires_zero_mean(self):
        g = grid1d(64)
        with pytest.raises(ValueError):
            sobolev_norm_sq(np.ones(g.shape), g, -0.5, homogeneous=True)


class TestEnergy:
    def test_uniform_density_zero_energy(self):
        g = grid1d(128)
        u = uniform_density(g)
        for s in (0.5, 1.0, 2.0):
            assert energy(u, s) == pytest.approx(0.0, abs=1e-24)

    def test_gaussian_s1_frozen_value(self):
        g = grid1d()
        u = gaussian_density(g)
        assert energy(u, 1.0) == pytest.approx(0.5 / (4.0 * np.sqrt(np.pi)), rel=1e-6)

    def test_spike_energy_grows_under_refinement(self):
        for s in (0.5, 1.0):
            vals = []
            for n in (128, 256):
                g = PeriodicGrid(1, n, 40.0)
                vals.append(energy(spike_density(g), s))
            assert vals[1] > vals[0]

    def test_nonpositive_order_rejected(self):
        g = grid1d(64)
        u = uniform_density(g)
        with pytest.raises(ValueError):
            energy(u, 0.0)
        with pytest.raises(ValueError):
            energy_of_values(u.values, g, -1.0)


class TestInterpolation:
    def test_single_mode_equality(self):
        g = PeriodicGrid(1, 64, 1.0)
        f = np.sin(2 * np.pi * g.axis_coords)
        lhs, rhs = interpolation_check(f, g, 0.0, 1.0, 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_gaussian_strict_inequality(self):
        g = grid1d()
        u = gaussian_density(g)
        lhs, rhs = interpolation_check(u.values, g, 0.0, 1.0, 2.0)
        assert lhs <= rhs * (1 + 1e-12)
        assert lhs < rhs * (1 - 1e-6)

    def test_zero_function(self):
        g = grid1d(64)
        lhs, rhs = interpolation_check(np.zeros(g.shape), g, 0.0, 0.5, 1.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_random_fields_hold(self):
        g = grid1d(128)
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = rng.normal(size=g.shape)
            lhs, rhs = interpolation_check(f, g, 0.0, 0.7, 1.9)
            assert lhs <= rhs * (1 + 1e-12)

    def test_bad_ordering_rejected(self):
        g = grid1d(64)
        with pytest.raises(ValueError):
            interpolation_check(np.ones(g.shape), g, 1.0, 1.0, 2.0)
