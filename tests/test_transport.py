import numpy as np
import pytest

from fracfilm import (
    ConvergenceError,
    GridDensity,
    GridMismatchError,
    PeriodicGrid,
    TransportConfig,
    gaussian_density,
    heat_semigroup,
    optimal_map_1d,
    uniform_density,
    w2,
    w2_exact_1d,
    w2_sinkhorn,
)
from fracfilm.transport import _cdf, _quantile


def grid1d(n=512, L=40.0):
    return PeriodicGrid(1, n, L)


def brute_force_w2(u, v, m=4_000_000):
    """Independent oracle: midpoint quantile sums, Richardson-extrapolated.

    The midpoint sum carries an O(1/m) defect from the bins straddling
    quantile jumps and tails; extrapolating m and 2m removes it.
    """
    grid = u.grid
    edges = grid.axis_edges
    cu = _cdf(u.values, grid)
    cv = _cdf(v.values, grid)

    def midpoint(mm):
        q = (np.arange(mm) + 0.5) / mm
        d = _quantile(q, cu, edges) - _quantile(q, cv, edges)
        return float(np.sum(d * d) / mm)

    return 2.0 * midpoint(2 * m) - midpoint(m)


def per_node_w2_exact_1d(u, v):
    """Reference for `w2_exact_1d`: returns (W^2, potential).

    Every Milne node is searched in both CDFs by `_quantile`, one node at a
    time, and the per-cell integrals are accumulated with `np.add.at`.
    """
    grid = u.grid
    n, h, edges = grid.n, grid.spacing, grid.axis_edges
    cu, cv = _cdf(u.values, grid), _cdf(v.values, grid)
    qs = np.union1d(cu, cv)
    a, w = qs[:-1], np.diff(qs)
    a, w = a[w > 0], w[w > 0]
    dq = np.diff(cu)
    flat = dq <= 64 * np.finfo(float).eps
    own = np.clip(np.searchsorted(cu, a, side="right") - 1, 0, n - 1)
    to_x = h / np.where(flat, np.inf, dq)[own]
    er = edges[own + 1]
    w2_sq, seg_t, seg_ext = 0.0, np.zeros(len(a)), np.zeros(len(a))
    for fr, cf in ((0.25, 2.0), (0.5, -1.0), (0.75, 2.0)):
        tu, tv = _quantile(a + w * fr, cu, edges), _quantile(a + w * fr, cv, edges)
        w2_sq += cf * np.sum(w / 3.0 * (tu - tv) ** 2)
        seg_t += cf * (w / 3.0) * tv
        seg_ext += cf * (w / 3.0) * (er - tu) * tv
    int_t, int_ext = np.zeros(n), np.zeros(n)
    np.add.at(int_t, own, seg_t * to_x)
    np.add.at(int_ext, own, seg_ext * to_x)
    el, e2 = edges[:-1], edges[1:]
    dphi = (e2 ** 2 - el ** 2) / 2.0 - int_t
    p_cell = e2 * (e2 ** 2 - el ** 2) / 2.0 - (e2 ** 3 - el ** 3) / 3.0 - int_ext
    dphi[flat] = 0.0
    p_cell[flat] = 0.0
    phi = np.concatenate([[0.0], np.cumsum(dphi)])[:-1] + p_cell / h
    return max(w2_sq, 0.0), phi - phi.mean()


def rough_density(grid, rng, kind):
    """Random data with the features that stress quantile evaluation."""
    vals = rng.uniform(size=grid.shape) ** 3
    holes = rng.uniform(size=grid.shape) < 0.3
    if kind == "zeros":
        vals[holes] = 0.0
    elif kind == "tiny":
        vals[holes] = 1e-300
    elif kind == "tails":
        # narrow bump: the CDF saturates at 1 (and sits at 0) over most cells
        x = grid.axis_coords
        var = rng.uniform(0.05, 0.5) * (grid.box_length / 40.0) ** 2
        vals = (0.5 + vals) * np.exp(-((x - rng.uniform(-2.0, 2.0)) ** 2) / (2.0 * var))
    if not np.any(vals > 0):
        vals[grid.n // 2] = 1.0
    return GridDensity.normalized(grid, vals)


class TestExact1D:
    def test_identical_inputs(self):
        g = grid1d()
        u = gaussian_density(g)
        res = w2_exact_1d(u, u)
        assert res.w2_squared == pytest.approx(0.0, abs=1e-14)
        # the potential is defined modulo constants; its gauge-invariant
        # content (variation across mass-bearing cells) vanishes.  Cells at
        # the float resolution of the CDF keep noise-level plateaus.
        bearing = res.potential[u.values > 1e-6 * np.max(u.values)]
        assert np.max(bearing) - np.min(bearing) < 1e-9
        assert np.max(np.abs(res.potential)) < 1e-2

    def test_lattice_aligned_translation_exact(self):
        # h = 40/640 = 0.0625 divides the shift 0.5 exactly: W^2 = |a|^2
        g = grid1d(n=640)
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.5, 1.0)
        res = w2_exact_1d(u, v)
        assert res.w2_squared == pytest.approx(0.25, abs=1e-6)

    def test_scaled_gaussians_quantile_formula(self):
        # W = |sigma1 - sigma2| for centered Gaussians; oracle at high n
        g = grid1d(n=2048)
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.0, 1.44)
        res = w2_exact_1d(u, v)
        assert np.sqrt(res.w2_squared) == pytest.approx(0.2, abs=1e-5)
        assert res.w2_squared == pytest.approx(brute_force_w2(u, v), rel=2e-8)

    def test_milne_matches_brute_force_on_rough_density(self):
        g = grid1d(n=128)
        rng = np.random.default_rng(0)
        u = GridDensity.normalized(g, rng.uniform(size=g.shape) ** 2)
        vals = rng.uniform(size=g.shape) ** 2
        vals[40:60] = 0.0  # flat CDF stretch exercises the tie handling
        v = GridDensity.normalized(g, vals)
        res = w2_exact_1d(u, v)
        assert res.w2_squared == pytest.approx(brute_force_w2(u, v), rel=1e-7)

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_matches_per_node_reference(self, n):
        g = grid1d(n=n)
        rng = np.random.default_rng(20 + n)
        kinds = ("zeros", "tiny", "tails", "plain")
        pairs = [(ku, kv) for ku in kinds for kv in kinds] + [(k, "equal") for k in kinds]
        for ku, kv in pairs * 4:
            u = rough_density(g, rng, ku)
            v = u if kv == "equal" else rough_density(g, rng, kv)
            ref_w2, ref_phi = per_node_w2_exact_1d(u, v)
            res = w2_exact_1d(u, v)
            value_only = w2_exact_1d(u, v, want_potential=False)
            assert value_only.w2_squared == res.w2_squared
            assert abs(res.w2_squared - ref_w2) <= 1e-12, (ku, kv)
            assert np.max(np.abs(res.potential - ref_phi)) <= 1e-12, (ku, kv)

    def test_potential_zero_mean(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 1.0, 0.64)
        res = w2_exact_1d(u, v)
        assert abs(np.mean(res.potential)) < 1e-12

    def test_symmetry(self):
        g = grid1d()
        u = gaussian_density(g, -0.5, 1.0)
        v = gaussian_density(g, 0.7, 1.3)
        ab = w2_exact_1d(u, v, want_potential=False).w2_squared
        ba = w2_exact_1d(v, u, want_potential=False).w2_squared
        assert abs(ab - ba) <= 1e-10

    def test_zero_iff_identical(self):
        g = grid1d(256)
        rng = np.random.default_rng(1)
        u = GridDensity.normalized(g, rng.uniform(size=g.shape))
        bump = np.zeros(g.shape)
        bump[100:110] = 0.05
        v = GridDensity.normalized(g, u.values + bump)
        assert w2_exact_1d(u, v, want_potential=False).w2_squared > 1e-8
        l1 = g.cell_volume * np.sum(np.abs(u.values - v.values))
        assert l1 > 1e-10

    def test_dimension_rejected(self):
        g2 = PeriodicGrid(2, 32, 10.0)
        u = uniform_density(g2)
        with pytest.raises(ValueError):
            w2_exact_1d(u, u)

    def test_grid_mismatch_rejected(self):
        u = gaussian_density(grid1d(256))
        v = gaussian_density(grid1d(512))
        with pytest.raises(GridMismatchError):
            w2_exact_1d(u, v)

    def test_optimal_map_translation(self):
        g = grid1d(n=640)
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.5, 1.0)
        T = optimal_map_1d(u, v)
        bulk = np.abs(g.axis_coords) < 5.0
        assert np.max(np.abs(T[bulk] - g.axis_coords[bulk] - 0.5)) < 1e-9

    def test_unaligned_translation_within_spacing(self):
        # shift not on the lattice: the distance is still within one cell
        g = grid1d(n=256)
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.3, 1.0)
        w_val = np.sqrt(w2_exact_1d(u, v, want_potential=False).w2_squared)
        assert abs(w_val - 0.3) <= g.spacing

    def test_triangle_inequality_random(self):
        g = grid1d(128)
        rng = np.random.default_rng(2)
        for _ in range(25):
            u, v, w_ = (
                GridDensity.normalized(g, rng.uniform(size=g.shape) ** 2) for _ in range(3)
            )
            duv = np.sqrt(w2_exact_1d(u, v, want_potential=False).w2_squared)
            dvw = np.sqrt(w2_exact_1d(v, w_, want_potential=False).w2_squared)
            duw = np.sqrt(w2_exact_1d(u, w_, want_potential=False).w2_squared)
            assert duw <= duv + dvw + 1e-12

    def test_lower_semicontinuity_surrogate(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.8, 0.5)
        base = w2_exact_1d(u, v, want_potential=False).w2_squared
        prev_err = np.inf
        for t in (0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125):
            un, vn = heat_semigroup(u, t), heat_semigroup(v, t)
            cur = w2_exact_1d(un, vn, want_potential=False).w2_squared
            assert abs(cur - base) < prev_err + 1e-14
            prev_err = abs(cur - base)
        assert prev_err < 1e-3

    def test_first_variation_contract(self):
        # the contract the proximal solver relies on: the potential is the
        # gradient of W^2/2 for feasible zero-mean perturbations
        g = grid1d(256)
        x = g.axis_coords
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.5, 1.44)
        res = w2_exact_1d(u, v)
        rho = (np.exp(-((x - 1.0) ** 2)) - np.exp(-((x + 1.0) ** 2))) * (np.abs(x) < 5.0)
        rho -= rho.mean()
        delta = 1e-4
        up = GridDensity(g, (u.values + delta * rho) / np.sum(u.values + delta * rho) / g.cell_volume)
        w_plus = w2_exact_1d(up, v, want_potential=False).w2_squared
        fd = (0.5 * w_plus - 0.5 * res.w2_squared) / delta
        pairing = g.cell_volume * np.sum(res.potential * rho)
        assert fd == pytest.approx(pairing, rel=1e-3)


class TestSinkhorn:
    def test_identical_inputs_near_zero(self):
        g = grid1d(n=128, L=20.0)
        u = gaussian_density(g)
        res = w2_sinkhorn(u, u, epsilon=0.1, max_iter=5000, tol=1e-10)
        assert abs(res.w2_squared) <= 1e-8
        assert res.marginal_error <= 1e-10

    def test_1d_translated_gaussians_bias_decreases(self):
        g = grid1d(n=256)
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.5, 1.0)
        errors = []
        for eps in (0.1, 0.05, 0.025):
            res = w2_sinkhorn(u, v, epsilon=eps, max_iter=30000, tol=1e-9)
            errors.append(abs(res.w2_squared - 0.25))
        # debiasing makes the translation case nearly exact; "decreasing"
        # holds up to the residual noise floor
        assert errors[1] <= errors[0] + 2e-6
        assert errors[2] <= errors[1] + 2e-6
        assert errors[2] <= 0.02

    def test_2d_translated_gaussians(self):
        g = PeriodicGrid(2, 96, 20.0)
        u = gaussian_density(g, (0.0, 0.0), 1.0)
        v = gaussian_density(g, (0.3, 0.4), 1.0)
        res = w2_sinkhorn(u, v, epsilon=0.025, max_iter=30000, tol=1e-7)
        assert res.w2_squared == pytest.approx(0.25, abs=0.03)

    def test_potential_zero_mean(self):
        g = grid1d(n=128, L=20.0)
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.4, 0.8)
        res = w2_sinkhorn(u, v, epsilon=0.05, max_iter=20000, tol=1e-9)
        assert abs(np.mean(res.potential)) < 1e-12

    def test_symmetry(self):
        g = grid1d(n=128, L=20.0)
        u = gaussian_density(g, -0.3, 1.0)
        v = gaussian_density(g, 0.4, 0.8)
        ab = w2_sinkhorn(u, v, epsilon=0.05, max_iter=20000, tol=1e-9).w2_squared
        ba = w2_sinkhorn(v, u, epsilon=0.05, max_iter=20000, tol=1e-9).w2_squared
        assert abs(ab - ba) <= 1e-6

    @pytest.mark.parametrize(
        "grid, center, epsilon",
        [(PeriodicGrid(1, 256, 40.0), 0.3, 0.025), (PeriodicGrid(2, 48, 16.0), (0.3, -0.2), 0.1)],
        ids=["1d", "2d"],
    )
    def test_first_variation_contract(self, grid, center, epsilon):
        # same contract as the exact backend: the potential is the gradient
        # of S_eps/2 (the W^2/2 convention) along a feasible perturbation
        u = gaussian_density(grid, (0.0,) * grid.dim, 1.0)
        v = gaussian_density(grid, center, 1.0)
        psi = np.sin(sum(c * w for c, w in zip(grid.coords, (1.0, 0.5))))
        rho = u.values * (psi - grid.cell_volume * np.sum(u.values * psi))
        delta = 1e-4

        def value(sign):
            w = u.values + sign * delta * rho
            up = GridDensity(grid, w / (np.sum(w) * grid.cell_volume))
            return w2_sinkhorn(up, v, epsilon, max_iter=20000, tol=1e-9).w2_squared

        fd = 0.5 * (value(1) - value(-1)) / (2 * delta)
        res = w2_sinkhorn(u, v, epsilon, max_iter=20000, tol=1e-9)
        pairing = grid.cell_volume * np.sum(res.potential * rho)
        assert fd == pytest.approx(pairing, rel=1e-4)

    def test_nonconvergence_raises_with_marginal_error(self):
        g = grid1d(n=128, L=20.0)
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.5, 1.0)
        with pytest.raises(ConvergenceError) as exc_info:
            w2_sinkhorn(u, v, epsilon=0.05, max_iter=3, tol=1e-12)
        assert exc_info.value.marginal_error is not None
        assert exc_info.value.marginal_error > 1e-12


class TestDispatch:
    def test_1d_auto_matches_exact_bitwise(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.5, 1.2)
        auto = w2(u, v, TransportConfig(method="auto"))
        exact = w2_exact_1d(u, v)
        assert auto.w2_squared == exact.w2_squared
        assert np.array_equal(auto.potential, exact.potential)
        assert auto.method == "exact_1d"

    def test_2d_auto_dispatches_to_sinkhorn(self):
        g = PeriodicGrid(2, 48, 16.0)
        u = gaussian_density(g, (0.0, 0.0), 1.0)
        v = gaussian_density(g, (0.5, 0.0), 1.0)
        cfg = TransportConfig(method="auto", epsilon=0.1, max_iter=20000, tol=1e-7)
        res = w2(u, v, cfg)
        assert res.method == "sinkhorn"
        assert res.w2_squared > 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            TransportConfig(method="magic")
