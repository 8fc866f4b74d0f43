from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from fracfilm import (
    GridMismatchError,
    PeriodicGrid,
    energy,
    energy_of_values,
    fractional_laplacian,
    gaussian_density,
    sobolev_norm_sq,
    spike_density,
    uniform_density,
)
from fracfilm.spectral import _kink_excess, apply_multiplier, energy_and_laplacian


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


def _phased_norm_sq(values, grid, r, homogeneous=True, lattice=False):
    """Reference: the norm from the continuum-phased coefficients
    h^d * (-1)^(k_1+...+k_d) * fftn(u), the transform the norms once used."""
    d = grid.dim
    alt = (-1.0) ** np.arange(grid.n)
    phase = reduce(np.multiply.outer, [alt] * d)
    coeffs = grid.cell_volume * phase * np.fft.fftn(values)
    weight = (2 * np.pi) ** (-d) * (2 * np.pi / grid.box_length) ** d
    if not homogeneous:
        mult = (1.0 + grid.freq_sq) ** r
    elif r >= 0:
        mult = grid.freq_sq ** r
    else:
        mult = np.where(grid.freq_sq > 0, grid.freq_sq, 1.0) ** r
        mult[(0,) * d] = 0.0
    total = float(weight * np.sum(mult * np.abs(coeffs) ** 2))
    if lattice or not homogeneous or d != 1 or r <= 0 or float(r).is_integer():
        return total
    return total - _kink_excess(values, grid, r)


def _bumpy_gaussian(grid, seed):
    """Positive data with random texture under a unit Gaussian envelope."""
    rng = np.random.default_rng(seed)
    return np.exp(-grid.radius_sq / 2) * (1.0 + 0.5 * rng.uniform(size=grid.shape))


class TestOneTransformPath:
    GRIDS = [PeriodicGrid(1, 64, 20.0), PeriodicGrid(2, 32, 20.0), PeriodicGrid(3, 16, 20.0)]

    @pytest.mark.parametrize("g", GRIDS, ids=["d1", "d2", "d3"])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize(
        "homogeneous,lattice", [(True, False), (False, False), (True, True)],
        ids=["homogeneous", "inhomogeneous", "lattice"],
    )
    def test_bitwise_equal_to_phased_coefficients(self, g, r, homogeneous, lattice):
        # d = 1, r = 0.5 and 1.5, homogeneous: the kink-corrected path
        f = _bumpy_gaussian(g, seed=g.dim)
        got = sobolev_norm_sq(f, g, r, homogeneous=homogeneous, lattice=lattice)
        assert got == _phased_norm_sq(f, g, r, homogeneous=homogeneous, lattice=lattice)

    @pytest.mark.parametrize("g", GRIDS, ids=["d1", "d2", "d3"])
    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_negative_order_zero_mean_bitwise(self, g, homogeneous):
        f = _bumpy_gaussian(g, seed=10 + g.dim)
        f -= np.mean(f)
        got = sobolev_norm_sq(f, g, -0.5, homogeneous=homogeneous)
        assert got == _phased_norm_sq(f, g, -0.5, homogeneous=homogeneous)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_cosine_mode_exact(self, dim, k, r):
        # ||cos(2 pi k x_1/L)||^2 of order r = (2 pi k/L)^(2r) L^d / 2
        g = PeriodicGrid(dim, 16, 3.0)
        f = np.cos(2 * np.pi * k * g.coords[0] / g.box_length)
        exact = (2 * np.pi * k / g.box_length) ** (2 * r) * g.box_length ** dim / 2
        assert sobolev_norm_sq(f, g, r, lattice=True) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize(
        "g,shape",
        [(PeriodicGrid(1, 64, 1.0), (65,)), (PeriodicGrid(2, 32, 1.0), (32,)),
         (PeriodicGrid(1, 32, 1.0), (32, 32))],
        ids=["one_too_many", "1d_on_2d", "2d_on_1d"],
    )
    def test_shape_mismatch_rejected(self, g, shape):
        with pytest.raises(GridMismatchError):
            sobolev_norm_sq(np.ones(shape), g, 1.0)

    def test_unit_multiplier_is_identity(self):
        g = grid1d(128)
        rng = np.random.default_rng(0)
        f = rng.normal(size=g.shape)
        assert np.max(np.abs(apply_multiplier(f, g, np.ones(g.shape)) - f)) < 1e-12


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

    @pytest.mark.parametrize("g", [PeriodicGrid(1, 256, 40.0), PeriodicGrid(2, 32, 20.0)], ids=["d1", "d2"])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_one_fft_energy_and_laplacian_are_bitwise(self, g, s):
        # the step's one-FFT evaluation gives the energy and L_s u of the
        # separate functions, bit for bit
        values = _bumpy_gaussian(g, 3)
        e, lap = energy_and_laplacian(values, g, g.freq_sq ** s)
        assert e == energy_of_values(values, g, s)
        assert np.array_equal(lap, fractional_laplacian(values, g, s))
