import numpy as np
import pytest

from fracfilm import (
    ConvergenceError,
    GridDensity,
    GridMismatchError,
    InnerConfig,
    JkoConfig,
    ExactTransport,
    PeriodicGrid,
    Sinkhorn,
    TransportConfig,
    gaussian_density,
    gaussian_mixture_density,
    heat_semigroup,
    jko_step,
    optimal_map_1d,
    prepare,
    uniform_density,
    w2,
    w2_exact_1d,
    w2_sinkhorn,
)
from fracfilm import transport
from fracfilm.transport import _axis_kernels, _cdf, _quantile, _scaled_log, _sym_potential


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


def tensordot_softmin(kmat, psi, dim, epsilon):
    """Reference for `_softmin`: shift by the max over a boolean-indexed
    copy, contract every axis with `np.tensordot` and `np.moveaxis`."""
    shift = np.max(psi[np.isfinite(psi)])
    contracted = np.exp((psi - shift) / epsilon)
    for axis in range(dim):
        contracted = np.moveaxis(np.tensordot(kmat, contracted, axes=([1], [axis])), 0, axis)
    with np.errstate(divide="ignore"):
        return -epsilon * np.log(contracted) - shift


def three_softmin_sinkhorn(u, v, epsilon, max_iter, tol):
    """Reference for `w2_sinkhorn`: each pass computes f, g and the f of the
    a-marginal check with three separate softmins.

    Returns (value, potential, iterations, marginal_error, nonfinite), where
    nonfinite counts the raw softmin entries that were not finite.
    """
    grid = u.grid
    dim, hpow = grid.dim, grid.cell_volume
    a, b = u.values * hpow, v.values * hpow
    kmat = _axis_kernels(grid, epsilon)
    nonfinite = 0

    def softmin(psi):
        nonlocal nonfinite
        out = tensordot_softmin(kmat, psi, dim, epsilon)
        nonfinite += int(np.sum(~np.isfinite(out)))
        return out

    with np.errstate(divide="ignore"):
        la = np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), -np.inf) * epsilon
        lb = np.where(b > 0, np.log(np.where(b > 0, b, 1.0)), -np.inf) * epsilon
    f, g = np.zeros(grid.shape), np.zeros(grid.shape)
    for it in range(max_iter):
        f = softmin(g + lb)
        f = np.where(np.isfinite(f), f, 0.0)
        g = softmin(f + la)
        g = np.where(np.isfinite(g), g, 0.0)
        f_next = softmin(g + lb)
        f_next = np.where(np.isfinite(f_next), f_next, f)
        with np.errstate(over="ignore"):
            row = a * np.exp(np.clip((f - f_next) / epsilon, -700, 700))
        marginal_error = float(np.sum(np.abs(row - a)))
        if marginal_error <= tol:
            break
    iterations = it + 1

    def sym_potential(log_mass):
        p = np.zeros_like(log_mass)
        for k in range(max_iter):
            p_new = softmin(p + log_mass)
            p_new = np.where(np.isfinite(p_new), p_new, 0.0)
            p_half = 0.5 * (p + p_new)
            delta = np.max(np.abs(p_half - p))
            p = p_half
            if delta < 0.1 * epsilon * tol + 1e-15:
                return p, k + 1
        return p, max_iter

    fa, it_a = sym_potential(la)
    fb, it_b = sym_potential(lb)
    ot_uv = float(np.sum(f * a) + np.sum(g * b))
    ot_uu = float(2.0 * np.nansum(np.where(a > 0, fa * a, 0.0)))
    ot_vv = float(2.0 * np.nansum(np.where(b > 0, fb * b, 0.0)))
    value = ot_uv - 0.5 * ot_uu - 0.5 * ot_vv
    if abs(value) < 1e3 * tol:
        value = max(value, 0.0)
    debiased = 0.5 * (f - np.where(np.isfinite(fa), fa, 0.0))
    return value, debiased - debiased.mean(), iterations + it_a + it_b, marginal_error, nonfinite


def guarded_relaxed(mass, pot, pot_soft, epsilon, empty, want_defect=True):
    """Reference for `_relaxed`: forms pot_soft - pot itself, writes the
    `empty` cells even when there are none, and makes the overshoot test
    in numpy scalars."""
    step = pot_soft - pot
    d = step / epsilon
    d[empty] = 0.0
    top = min(float(d.max()), 700.0)
    if top > 0 and transport._OMEGA * top - np.exp((transport._OMEGA - 1.0) * top) + np.exp(-top) < 0:
        return pot_soft, 0.0
    relaxed = transport._OMEGA * step
    relaxed += pot
    relaxed[empty] = pot_soft[empty]
    if not want_defect:
        return relaxed, 0.0
    d *= transport._OMEGA - 1.0  # |exp((w - 1) d) - 1|, in place
    np.exp(d, out=d)
    d -= 1.0
    np.abs(d, out=d)
    return relaxed, float(np.vdot(mass, d))


def guarded_sym_potential(a_log_mass, kmat, dim, epsilon, max_iter, tol, f0=None):
    """Reference for `_sym_potential`: every softmin output goes through
    np.where(np.isfinite(...)), and the damped step is formed in new arrays."""
    f = np.zeros_like(a_log_mass) if f0 is None else f0
    delta = np.inf
    with np.errstate(divide="ignore"):
        for it in range(max_iter):
            f_new = transport._softmin(kmat, f + a_log_mass, dim, epsilon)
            f_new = np.where(np.isfinite(f_new), f_new, 0.0)
            f_half = 0.5 * (f + f_new)
            delta = float(np.max(np.abs(f_half - f)))
            f = f_half
            if delta < 0.1 * epsilon * tol + 1e-15:
                return f, it + 1
    raise ConvergenceError(f"self-potential missed after {max_iter} passes", marginal_error=delta)


class GuardedSinkhorn:
    """Reference for `Sinkhorn`: the same state and main loop, but each pass
    guards all three softmin uses with np.where(np.isfinite(...)) and forms
    raw - f twice, once for the a-marginal check (as f - f_next) and once
    inside the f-update; a call at the target runs the loop like any other,
    one main pass from the target's self-potential."""

    def __init__(self, target, config):
        self._target, self._config = target, config
        self._kmat = self._lb = self._fb = None
        self._fa = None
        self.dual = None

    def __call__(self, u, start=None):
        v = self._target
        epsilon, max_iter, tol = self._config.epsilon, self._config.max_iter, self._config.tol
        grid = u.grid
        dim, hpow = grid.dim, grid.cell_volume
        a = u.values * hpow
        b = v.values * hpow
        la = _scaled_log(a, epsilon)
        it_b = 0
        if self._fb is None:
            self._kmat, self._lb = _axis_kernels(grid, epsilon), _scaled_log(b, epsilon)
            self._fb, it_b = guarded_sym_potential(self._lb, self._kmat, dim, epsilon, max_iter, tol)
        kmat, lb, fb = self._kmat, self._lb, self._fb
        g = next(x for x in (start, self.dual, fb) if x is not None)
        fa0 = fb if self._fa is None else self._fa
        softmin = transport._softmin

        empty_a, empty_b = np.nonzero(a == 0), np.nonzero(b == 0)
        marginal_error = np.inf
        with np.errstate(divide="ignore", over="ignore"):
            raw = softmin(kmat, g + lb, dim, epsilon)
            f = np.where(np.isfinite(raw), raw, 0.0)
            for it in range(max_iter):
                g_soft = softmin(kmat, f + la, dim, epsilon)
                g_soft = np.where(np.isfinite(g_soft), g_soft, 0.0)
                g, b_defect = guarded_relaxed(b, g, g_soft, epsilon, empty_b)
                raw = softmin(kmat, g + lb, dim, epsilon)
                f_next = np.where(np.isfinite(raw), raw, f)
                row = f - f_next  # |a exp((f - f_next)/eps) - a|, in place
                row /= epsilon
                np.clip(row, -700, 700, out=row)
                np.exp(row, out=row)
                row *= a
                row -= a
                np.abs(row, out=row)
                marginal_error = max(float(row.sum()), b_defect)
                if marginal_error <= tol:
                    break
                f = guarded_relaxed(a, f, np.where(np.isfinite(raw), raw, 0.0), epsilon, empty_a, False)[0]
            else:
                raise ConvergenceError(f"main loop missed after {max_iter} passes", marginal_error=marginal_error)

        ot_uv = float(np.sum(f * a) + np.sum(g * b))
        fa, it_a = guarded_sym_potential(la, kmat, dim, epsilon, max_iter, tol, fa0)
        self.dual, self._fa = g, fa
        ot_uu = float(2.0 * np.nansum(np.where(a > 0, fa * a, 0.0)))
        ot_vv = float(2.0 * np.nansum(np.where(b > 0, fb * b, 0.0)))
        value = ot_uv - 0.5 * ot_uu - 0.5 * ot_vv
        if abs(value) < 1e3 * tol:
            value = max(value, 0.0)

        debiased = 0.5 * (f - np.where(np.isfinite(fa), fa, 0.0))
        debiased = debiased - debiased.mean()
        return transport.TransportResult(w2_squared=float(value), potential=debiased, method="sinkhorn",
                                         iterations=it + 1 + it_a + it_b, marginal_error=marginal_error)


def compact_bump(grid, center, radius):
    """Density proportional to (1 - |x - center|^2 / radius^2)_+, zero outside."""
    r2 = sum((c - mu) ** 2 for c, mu in zip(grid.coords, center))
    return GridDensity.normalized(grid, np.maximum(1.0 - r2 / radius ** 2, 0.0))


# grid, the pair of densities, epsilon; "wide" puts compactly supported mass
# in a small region of a wide box, so the Gibbs kernel underflows between the
# support and the far cells and the raw softmins have non-finite entries
SINKHORN_CASES = {
    "1d": (PeriodicGrid(1, 64, 16.0), lambda g: (gaussian_density(g, 0.0, 1.0),
                                                 gaussian_density(g, 0.7, 1.5)), 0.05),
    "2d": (PeriodicGrid(2, 24, 12.0), lambda g: (gaussian_density(g, (0.0, 0.0), 1.0),
                                                 gaussian_density(g, (0.5, -0.4), 1.3)), 0.2),
    "3d": (PeriodicGrid(3, 8, 8.0), lambda g: (gaussian_density(g, (0.0, 0.0, 0.0), 1.0),
                                               gaussian_density(g, (0.4, 0.0, -0.3), 1.2)), 0.5),
    "wide": (PeriodicGrid(1, 64, 40.0), lambda g: (compact_bump(g, (0.0,), 2.0),
                                                   compact_bump(g, (1.0,), 2.5)), 0.1),
}


# the reference cases plus a d = 2 pair with cells without mass on both sides
GUARDED_CASES = dict(SINKHORN_CASES, bumps2d=(
    PeriodicGrid(2, 24, 12.0),
    lambda g: (compact_bump(g, (0.0, 0.0), 3.0), compact_bump(g, (0.5, -0.4), 3.5)), 0.2))


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

    @pytest.mark.parametrize("datum, rtol", [("gaussian", 1e-5), ("bump", 1e-5), ("self", 1e-3)])
    def test_hessian_bands_match_finite_differences(self, datum, rtol):
        # D phi(u + d rho) - D phi(u - d rho) = -2 d W dF + O(d^2), with
        # dF_k = h (rho_0 + ... + rho_k) the CDF change at face k, on the
        # faces between two cells above 1e-8 of the peak.  At u = v the map
        # is the identity and the jumps of 1/v(T) sit on the cell edges, so
        # the error there is O(d) (2e-4 at d = 1e-5, 2e-5 at 1e-6)
        g = grid1d(256)
        x = g.axis_coords
        u, v = {"gaussian": (gaussian_density(g, 0.0, 1.0), gaussian_density(g, 0.5, 1.44)),
                "bump": (compact_bump(g, (0.0,), 2.0), compact_bump(g, (0.3,), 2.5)),
                "self": (gaussian_density(g, 0.0, 1.0), gaussian_density(g, 0.0, 1.0))}[datum]
        bulk = u.values > 1e-3 * u.values.max()
        rho = np.where(bulk, np.cos(x) * np.exp(-x * x / 2), 0.0)
        rho[bulk] -= rho[bulk].mean()  # zero mass, inside the bulk
        diag, off = w2_exact_1d(u, v).hessian_bands
        dF = g.spacing * np.cumsum(rho)[:-1]
        w_dF = diag * dF
        w_dF[:-1] += off * dF[1:]
        w_dF[1:] += off * dF[:-1]
        delta = 1e-5
        plus = w2_exact_1d(GridDensity(g, u.values + delta * rho), v).potential
        minus = w2_exact_1d(GridDensity(g, u.values - delta * rho), v).potential
        fd = np.diff(plus - minus) / (2 * delta)
        above = u.values > 1e-8 * u.values.max()
        faces = above[:-1] & above[1:]
        assert np.max(np.abs(fd[faces] + w_dF[faces])) <= rtol * np.max(np.abs(w_dF[faces]))

    def test_hessian_bands_only_with_the_potential(self):
        g = grid1d(64)
        u, v = gaussian_density(g, 0.0, 1.0), gaussian_density(g, 0.5, 1.2)
        diag, off = w2_exact_1d(u, v).hessian_bands
        assert diag.shape == (63,) and off.shape == (62,)
        assert np.all(np.isfinite(diag)) and np.all(np.isfinite(off))
        # a face carries W unless both its cells are flat (CDF increment at
        # the rounding floor of the cumulative sum, as in the potential)
        flat = np.diff(_cdf(u.values, g)) <= 64 * np.finfo(float).eps
        assert np.all(diag >= 0) and np.array_equal(diag == 0, flat[:-1] & flat[1:])
        assert w2_exact_1d(u, v, want_potential=False).hessian_bands is None


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

    @pytest.mark.parametrize("case", sorted(SINKHORN_CASES))
    def test_matches_three_softmin_reference_in_fewer_passes(self, case):
        # the reference starts from zero and never relaxes; on "wide" the
        # potential off u's support is the start-dependent extension (zero
        # where the kernel underflows), so it is compared on the support, up
        # to the constant that the zero-mean normalisation over all cells adds
        grid, densities, epsilon = SINKHORN_CASES[case]
        u, v = densities(grid)
        tol = 1e-9
        value, phi, iterations, _, nonfinite = three_softmin_sinkhorn(u, v, epsilon, 20000, tol)
        res = w2_sinkhorn(u, v, epsilon, max_iter=20000, tol=tol)
        live = u.values > 0
        gap = (res.potential[live] - phi[live]) - np.mean(res.potential[live] - phi[live])
        assert abs(res.w2_squared - value) <= 10 * tol * abs(value)
        assert np.max(np.abs(gap)) <= 100 * tol
        assert res.marginal_error <= tol
        assert res.iterations < iterations
        if case == "wide":
            assert nonfinite > 0

    @pytest.mark.parametrize("settings", [(20000, 0.0), (20000, -1e-9), (20000, np.nan), (0, 1e-9)],
                             ids=["tol=0", "tol<0", "tol=nan", "max_iter=0"])
    def test_settings_refused_before_any_pass(self, settings, monkeypatch):
        # such a call used to run to its cap (20 000 passes at tol = 0)
        monkeypatch.setattr(transport, "_softmin", None)
        max_iter, tol = settings
        g = PeriodicGrid(2, 8, 4.0)
        u = gaussian_density(g, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="sinkhorn"):
            w2_sinkhorn(u, u, 0.1, max_iter, tol)

    def test_two_softmins_per_pass(self, monkeypatch):
        # one softmin before the loop, two per main pass, one per pass of the
        # two self-potential solves
        calls, sym_passes = [0], [0]
        softmin, sym_potential = transport._softmin, transport._sym_potential

        def counted_softmin(*args):
            calls[0] += 1
            return softmin(*args)

        def counted_sym_potential(*args):
            f, passes = sym_potential(*args)
            sym_passes[0] += passes
            return f, passes

        monkeypatch.setattr(transport, "_softmin", counted_softmin)
        monkeypatch.setattr(transport, "_sym_potential", counted_sym_potential)
        g = PeriodicGrid(2, 24, 12.0)
        u = gaussian_density(g, (0.0, 0.0), 1.0)
        v = gaussian_density(g, (0.5, -0.4), 1.3)
        res = w2_sinkhorn(u, v, epsilon=0.2, max_iter=20000, tol=1e-9)
        main_passes = res.iterations - sym_passes[0]
        assert main_passes > 1
        assert calls[0] == 1 + 2 * main_passes + sym_passes[0]

    def test_softmin_without_finite_entry_raises(self):
        g = PeriodicGrid(2, 8, 4.0)
        with pytest.raises(ValueError):
            transport._softmin(_axis_kernels(g, 0.1), np.full(g.shape, -np.inf), 2, 0.1)

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, np.nan, np.inf])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        # a nan or infinite epsilon used to surface as "softmin needs at
        # least one finite entry"
        g = PeriodicGrid(2, 8, 4.0)
        u = gaussian_density(g, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            w2_sinkhorn(u, u, epsilon)
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            TransportConfig(epsilon=epsilon)

    def test_nonconvergence_raises_with_marginal_error(self):
        g = grid1d(n=128, L=20.0)
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.5, 1.0)
        with pytest.raises(ConvergenceError) as exc_info:
            w2_sinkhorn(u, v, epsilon=0.05, max_iter=3, tol=1e-12)
        assert exc_info.value.marginal_error is not None
        assert exc_info.value.marginal_error > 1e-12

    def test_self_potential_miss_raises(self):
        g = PeriodicGrid(2, 24, 12.0)
        lb = _scaled_log(gaussian_density(g, (0.0, 0.0), 1.0).values * g.cell_volume, 0.2)
        _, passes = _sym_potential(lb, _axis_kernels(g, 0.2), 2, 0.2, 20000, 1e-9)
        assert passes > 1
        with pytest.raises(ConvergenceError) as exc_info:
            _sym_potential(lb, _axis_kernels(g, 0.2), 2, 0.2, 1, 1e-9)
        assert exc_info.value.marginal_error > 0.1 * 0.2 * 1e-9


class TestGuardedReference:
    """Every pass of a call off its target is bitwise that of `GuardedSinkhorn`."""

    @pytest.mark.parametrize("hinted", [False, True], ids=["dual", "start"])
    @pytest.mark.parametrize("case", sorted(GUARDED_CASES))
    def test_calls_match_the_guarded_loop_bitwise(self, case, hinted, monkeypatch):
        # three calls on one object: the first solves the target's side, the
        # others start from the dual it keeps, or from a start they are handed
        grid, densities, epsilon = GUARDED_CASES[case]
        u, v = densities(grid)
        cfg = TransportConfig(epsilon, 20000, 1e-9)
        softmin, nonfinite = transport._softmin, [0]

        def counted_softmin(*args):
            out = softmin(*args)
            nonfinite[0] += int(np.sum(~np.isfinite(out)))
            return out

        sink, guarded = Sinkhorn(v, cfg), GuardedSinkhorn(v, cfg)
        mid = GridDensity.normalized(grid, u.values + v.values)
        sink_nonfinite = 0
        for k, w in enumerate((u, mid, u)):
            start = guarded.dual + 0.05 * np.cos(grid.coords[0]) if hinted and k else None
            monkeypatch.setattr(transport, "_softmin", counted_softmin)
            got = sink(w, start=start)
            monkeypatch.setattr(transport, "_softmin", softmin)
            want = guarded(w, start=start)
            assert (got.w2_squared, got.iterations, got.marginal_error) == \
                (want.w2_squared, want.iterations, want.marginal_error)
            assert np.array_equal(got.potential, want.potential)
            assert np.array_equal(sink.dual, guarded.dual)
            assert np.array_equal(sink._fa, guarded._fa)
            sink_nonfinite, nonfinite[0] = sink_nonfinite + nonfinite[0], 0
        assert np.array_equal(sink._fb, guarded._fb)
        if case == "wide":
            assert sink_nonfinite > 0  # the raw softmins have non-finite rows
        if case in ("wide", "bumps2d"):
            assert not u.values.all() and not v.values.all()

    @pytest.mark.parametrize("case", sorted(GUARDED_CASES))
    def test_sym_potential_matches_the_guarded_loop_bitwise(self, case):
        # from zero, and from the other density's potential, which it leaves alone
        grid, densities, epsilon = GUARDED_CASES[case]
        kmat = _axis_kernels(grid, epsilon)
        la, lb = (_scaled_log(w.values * grid.cell_volume, epsilon) for w in densities(grid))
        fb, passes = _sym_potential(lb, kmat, grid.dim, epsilon, 20000, 1e-9)
        want_fb, want_passes = guarded_sym_potential(lb, kmat, grid.dim, epsilon, 20000, 1e-9)
        assert passes == want_passes and np.array_equal(fb, want_fb)
        kept = fb.copy()
        fa, passes = _sym_potential(la, kmat, grid.dim, epsilon, 20000, 1e-9, fb)
        want_fa, want_passes = guarded_sym_potential(la, kmat, grid.dim, epsilon, 20000, 1e-9, fb)
        assert passes == want_passes and np.array_equal(fa, want_fa)
        assert np.array_equal(fb, kept)


def line_search_sequence(grid, v):
    """u = v, then six reweightings v exp(-a G) at halving a, the way a
    backtracking line search approaches its target."""
    x, y = grid.coords
    field = np.sin(x) + 0.5 * np.cos(0.7 * y) + 0.05 * (x * x + y * y)
    return [v] + [GridDensity.normalized(grid, v.values * np.exp(-a * field))
                  for a in (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)]


def unfloored_axis_kernels(grid, epsilon):
    """`_axis_kernels` without the floor: every entry exp(-|x - y|^2 / eps)."""
    x = grid.axis_coords
    return np.exp(-((x[:, None] - x[None, :]) ** 2) / epsilon)


class TestKernelFloor:
    def test_floor_keeps_products_of_kept_entries_normal(self):
        floor = transport._KERNEL_FLOOR
        assert floor * floor >= np.finfo(float).tiny
        grid = PeriodicGrid(2, 48, 16.0)
        plain = unfloored_axis_kernels(grid, 0.1)
        assert np.any((plain > 0) & (plain < floor))
        assert np.array_equal(_axis_kernels(grid, 0.1), np.where(plain < floor, 0.0, plain))

    @pytest.mark.parametrize("case", sorted(SINKHORN_CASES))
    def test_unfloored_kernel_gives_the_same_answer(self, case, monkeypatch):
        grid, densities, epsilon = SINKHORN_CASES[case]
        u, v = densities(grid)
        floored = w2_sinkhorn(u, v, epsilon, 20000, 1e-9)
        monkeypatch.setattr(transport, "_axis_kernels", unfloored_axis_kernels)
        plain = w2_sinkhorn(u, v, epsilon, 20000, 1e-9)
        assert floored.w2_squared == plain.w2_squared
        if case != "wide":
            assert np.array_equal(floored.potential, plain.potential)
            return
        # "wide" has cells without mass where the kernel between them and
        # the support underflows.  Their potential is the start-dependent
        # tail value of the w2_sinkhorn FOUND on tail potentials in
        # CHANGES.md, and the floor moves it by up to 32.5; the zero-mean
        # normalisation turns that into a constant (-0.617) on the support
        live = u.values > 0
        gap = floored.potential[live] - plain.potential[live]
        assert np.max(gap) - np.min(gap) <= 1e-14

    def test_sink2d_step_at_small_epsilon(self, monkeypatch):
        # the d = 2 step of the solver tests at eps = 0.05, where the floor
        # zeroes every entry with |x - y| > 4.2 (the box is 16 wide)
        grid = PeriodicGrid(2, 48, 16.0)
        cfg = JkoConfig(grid=grid, s=1.0, tau=1e-2, inner=InnerConfig(grad_tol=1e-3, max_iters=3),
                        transport=TransportConfig(epsilon=0.05, max_iter=5000, tol=1e-7))
        u0 = gaussian_mixture_density(grid, ((0.6, (-1.0, 0.5), 0.8), (0.4, (1.2, -0.6), 1.0)))
        floored = jko_step(u0, cfg)
        monkeypatch.setattr(transport, "_axis_kernels", unfloored_axis_kernels)
        plain = jko_step(u0, cfg)
        assert floored.sinkhorn_iters == plain.sinkhorn_iters == 519
        assert np.array_equal(floored.density.values, plain.density.values)


class TestSinkhornWarmStart:
    GRID = PeriodicGrid(2, 48, 16.0)
    CFG = TransportConfig(epsilon=0.1, max_iter=20000, tol=1e-7)

    def target(self):
        return gaussian_density(self.GRID, (0.3, -0.2), 1.0)

    def test_warm_matches_cold_with_fewer_passes(self):
        v, tol = self.target(), self.CFG.tol
        sink = Sinkhorn(v, self.CFG)
        warm_passes = cold_passes = 0
        for u in line_search_sequence(self.GRID, v):
            cold = Sinkhorn(v, self.CFG)(u)
            warm = sink(u)
            assert abs(warm.w2_squared - cold.w2_squared) <= 10 * tol * abs(cold.w2_squared)
            assert np.max(np.abs(warm.potential - cold.potential)) <= 100 * tol
            assert warm.marginal_error <= tol
            warm_passes += warm.iterations
            cold_passes += cold.iterations
        assert warm_passes < cold_passes

    def test_failed_call_keeps_last_converged_state(self):
        cfg = TransportConfig(epsilon=0.1, max_iter=40, tol=1e-7)
        v = self.target()
        sink = Sinkhorn(v, cfg)
        sink(v)
        g, fa = sink.dual.copy(), sink._fa.copy()
        far = gaussian_density(self.GRID, (-1.5, 1.0), 1.4)
        with pytest.raises(ConvergenceError):
            sink(far)
        assert np.array_equal(sink.dual, g)
        assert np.array_equal(sink._fa, fa)

    def test_relaxed_update_defect_and_dual_ascent(self):
        # the returned defect is the L1 distance of the dense plan's column
        # sums to b; a relaxed update never lowers the dual objective, and an
        # overshooting one falls back to the plain update
        grid, eps = PeriodicGrid(2, 12, 6.0), 0.2
        a = gaussian_density(grid, (0.0, 0.0), 1.0).values.ravel() * grid.cell_volume
        b = gaussian_density(grid, (0.5, -0.3), 0.8).values.ravel() * grid.cell_volume
        x = np.stack([c.ravel() for c in grid.coords], axis=1)
        cost = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)

        def plan(f, g):
            return np.outer(a, b) * np.exp((f[:, None] + g[None, :] - cost) / eps)

        def dual(f, g):
            return a @ f + b @ g - eps * np.sum(plan(f, g))

        kmat = _axis_kernels(grid, eps)
        f = transport._softmin(kmat, _scaled_log(b, eps).reshape(grid.shape), 2, eps).ravel()
        g_soft = transport._softmin(kmat, (f + _scaled_log(a, eps)).reshape(grid.shape), 2, eps).ravel()
        for shift, relaxed in ((0.3, True), (10.0, False)):
            g_old = g_soft - shift * eps * np.cos(x[:, 0])
            g, defect = transport._relaxed(b, g_old, g_soft, g_soft - g_old, eps, transport._empty_cells(b))
            want_g, want_defect = guarded_relaxed(b, g_old, g_soft, eps, np.nonzero(b == 0))
            assert np.array_equal(g, want_g) and defect == want_defect
            assert np.array_equal(g, g_soft) != relaxed
            assert defect == pytest.approx(np.sum(np.abs(plan(f, g).sum(axis=0) - b)), rel=1e-9, abs=1e-15)
            assert dual(f, g) >= dual(f, g_old)

    @pytest.mark.parametrize("case", ["1d", "2d", "3d"])
    def test_relaxed_call_stops_with_both_marginals_within_tol(self, case, monkeypatch):
        # the last two _relaxed calls of a call give its final f and g; the
        # dense plan of (f, g) misses each marginal by at most tol, and
        # marginal_error is the larger of the two defects
        potentials = []
        relaxed = transport._relaxed

        def recorded_relaxed(*args):
            out = relaxed(*args)
            potentials.append(out[0])
            return out

        monkeypatch.setattr(transport, "_relaxed", recorded_relaxed)
        grid, densities, epsilon = SINKHORN_CASES[case]
        u, v = densities(grid)
        tol = 1e-11
        res = w2_sinkhorn(u, v, epsilon, 20000, tol)
        f, g = potentials[-2].ravel(), potentials[-1].ravel()
        a, b = (w.values.ravel() * grid.cell_volume for w in (u, v))
        x = np.stack([c.ravel() for c in grid.coords], axis=1)
        cost = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
        plan = np.outer(a, b) * np.exp((f[:, None] + g[None, :] - cost) / epsilon)
        a_defect = np.sum(np.abs(plan.sum(axis=1) - a))
        b_defect = np.sum(np.abs(plan.sum(axis=0) - b))
        assert max(a_defect, b_defect) <= tol
        assert b_defect > 0  # the final g-update was relaxed
        assert res.marginal_error == pytest.approx(max(a_defect, b_defect), rel=1e-3)

    def test_call_waits_for_the_b_marginal(self, monkeypatch):
        # close to its target both marginals are met well inside the cap; a
        # b-defect above tol still keeps the loop going to its cap (a call at
        # the target itself runs no pass, see the tests below)
        cfg = TransportConfig(epsilon=0.1, max_iter=50, tol=1e-7)
        v = self.target()
        near = line_search_sequence(self.GRID, v)[-1]
        assert Sinkhorn(v, cfg)(near).marginal_error <= cfg.tol
        relaxed = transport._relaxed
        monkeypatch.setattr(transport, "_relaxed", lambda *args: (relaxed(*args)[0], 1.0))
        with pytest.raises(ConvergenceError) as exc_info:
            Sinkhorn(v, cfg)(near)
        assert exc_info.value.marginal_error == 1.0

    def test_first_call_on_its_target_takes_no_main_pass(self, monkeypatch):
        # (fb, fb) is the exact dual pair of OT_eps(v, v): a call at the
        # target (v itself, or equal values) returns S_eps = 0 and a flat
        # potential, keeps fb as its dual and u-side self-potential, and
        # counts only the passes fb took; its defect is that of the plan of
        # (fb, fb), measured by one softmin
        passes = []
        sym_potential = transport._sym_potential

        def counted_sym_potential(*args):
            f, n = sym_potential(*args)
            passes.append(n)
            return f, n

        monkeypatch.setattr(transport, "_sym_potential", counted_sym_potential)
        v = self.target()
        eps, tol = self.CFG.epsilon, self.CFG.tol
        for u in (v, GridDensity(self.GRID, v.values.copy())):
            sink = Sinkhorn(v, self.CFG)
            passes.clear()
            res = sink(u)
            assert passes == [res.iterations] and res.iterations > 0
            assert res.w2_squared == 0.0
            assert np.array_equal(res.potential, np.zeros(self.GRID.shape))
            assert np.array_equal(sink.dual, sink._fb) and np.array_equal(sink._fa, sink._fb)
            a = v.values * self.GRID.cell_volume
            raw = transport._softmin(sink._kmat, sink._fb + sink._lb, 2, eps)
            defect = np.sum(np.abs(a * np.exp((sink._fb - raw) / eps) - a))
            assert res.marginal_error == defect
            assert 0.0 < res.marginal_error <= tol
        passes.clear()
        again = sink(v)
        assert (again.iterations, again.w2_squared, passes) == (0, 0.0, [])

    def test_call_after_the_target_call_matches_a_one_pass_first_call(self):
        # the first call of a step is at its target; the next call starts
        # from fb instead of from the dual after one relaxed pass, and agrees
        # with the call that follows that one-pass first call and with a
        # cold tol = 1e-12 call on the cells the inner solver counts, up to
        # a constant
        v, tol = self.target(), self.CFG.tol
        near = line_search_sequence(self.GRID, v)[3]
        sink, guarded = Sinkhorn(v, self.CFG), GuardedSinkhorn(v, self.CFG)
        # the one-pass call: fb's passes, one main pass, one u-side pass from fb
        assert guarded(v).iterations == sink(v).iterations + 2
        got = sink(near)
        live = near.values > 1e-8 * near.values.max()
        for want in (guarded(near), w2_sinkhorn(near, v, self.CFG.epsilon, 20000, 1e-12)):
            gap = got.potential[live] - want.potential[live]
            assert np.max(np.abs(gap - gap.mean())) <= 1e-6
            assert abs(got.w2_squared - want.w2_squared) <= 10 * tol * abs(want.w2_squared)
        assert got.marginal_error <= tol

    def test_call_at_its_target_runs_the_loop_when_fb_misses_tol(self, monkeypatch):
        # a target self-potential whose pair (fb, fb) misses the tolerance
        # gets no shortcut: the call runs its main loop like any other
        sym_potential = transport._sym_potential
        x = self.GRID.coords[0]
        passes = []

        def rough_sym_potential(*args):
            f, n = sym_potential(*args)
            passes.append(n)
            return f + 1e-3 * self.CFG.epsilon * np.cos(x), n

        monkeypatch.setattr(transport, "_sym_potential", rough_sym_potential)
        v = self.target()
        sink = Sinkhorn(v, self.CFG)
        res = sink(v)
        assert len(passes) == 2 and res.iterations > sum(passes)
        assert res.marginal_error <= self.CFG.tol
        assert not np.array_equal(sink.dual, sink._fb)

    def test_warm_start_from_far_dual_matches_cold(self):
        # far's tail cells carry masses down to 1e-30, which no L1 stopping
        # rule sees, so cold calls from different starts disagree there by
        # O(1) too; the potentials are compared where u is at least 1e-8 of
        # its peak (the cells the inner solver's residual counts), up to a
        # constant
        v, tol = self.target(), self.CFG.tol
        sink = Sinkhorn(v, self.CFG)
        far = gaussian_density(self.GRID, (-1.5, 1.0), 1.4)
        near = line_search_sequence(self.GRID, v)[3]
        for u in (far, near, far):  # each call starts from the other's dual
            cold = Sinkhorn(v, self.CFG)(u)
            warm = sink(u)
            live = u.values >= 1e-8 * u.values.max()
            warm_live, cold_live = warm.potential[live], cold.potential[live]
            gap = (warm_live - warm_live.mean()) - (cold_live - cold_live.mean())
            assert abs(warm.w2_squared - cold.w2_squared) <= 10 * tol * abs(cold.w2_squared)
            assert np.max(np.abs(gap)) <= 100 * tol
            assert warm.marginal_error <= tol

    @pytest.mark.parametrize("case", sorted(SINKHORN_CASES))
    def test_warm_call_matches_fresh_on_reference_cases(self, case):
        # a Sinkhorn that has served v and a midpoint first starts u's call from
        # the midpoint's dual.  "wide" has zero-mass cells and non-finite
        # softmins.  Off u's support the potential is an extension that
        # depends on the start (zero where the kernel underflows), so it is
        # compared on the support, up to the constant that the zero-mean
        # normalisation over all cells adds
        grid, densities, epsilon = SINKHORN_CASES[case]
        u, v = densities(grid)
        cfg = TransportConfig(epsilon, 20000, 1e-9)
        fresh = w2_sinkhorn(u, v, epsilon, 20000, 1e-9)
        sink = Sinkhorn(v, cfg)
        for w in (v, GridDensity.normalized(grid, u.values + v.values), u):
            warm = sink(w)
        live = u.values > 0
        warm_live, fresh_live = warm.potential[live], fresh.potential[live]
        gap = (warm_live - warm_live.mean()) - (fresh_live - fresh_live.mean())
        assert abs(warm.w2_squared - fresh.w2_squared) <= 10 * cfg.tol * abs(fresh.w2_squared)
        assert np.max(np.abs(gap)) <= 100 * cfg.tol
        assert warm.marginal_error <= cfg.tol
        assert not np.array_equal(warm.potential, fresh.potential)

    @pytest.mark.parametrize("case", sorted(SINKHORN_CASES))
    def test_second_call_leaves_first_results_alone(self, case):
        # no work array of a call aliases what an earlier call returned or
        # kept, nor does anything a call returns alias the object's state
        grid, densities, epsilon = SINKHORN_CASES[case]
        u, v = densities(grid)
        cfg = TransportConfig(epsilon, 20000, 1e-9)
        sink = Sinkhorn(v, cfg)
        first = sink(u)
        kept = {"potential": first.potential, "dual": sink.dual, "fa": sink._fa}
        copies = {name: arr.copy() for name, arr in kept.items()}
        u2 = GridDensity.normalized(grid, u.values + v.values)
        second = sink(u2)
        for name, arr in kept.items():
            assert np.array_equal(arr, copies[name]), name
        held = [second.potential, sink.dual, sink._fa, sink._fb, sink._kmat, sink._lb, *kept.values()]
        for i, x in enumerate(held):
            assert not any(np.shares_memory(x, y) for y in held[i + 1:])

    def test_predicted_start_serves_one_call(self):
        # a call handed a start begins from it (and so ends elsewhere than
        # from dual) and keeps it unchanged; the next call starts from the
        # converged dual again, as if handed a copy of it
        v = self.target()
        u1, u2 = line_search_sequence(self.GRID, v)[2:4]
        hinted, twin, unhinted = sinks = [Sinkhorn(v, self.CFG) for _ in range(3)]
        for sink in sinks:
            sink(v)
        hint = hinted.dual + 0.05 * np.cos(self.GRID.coords[0])
        kept = hint.copy()
        first = hinted(u1, start=hint)
        assert np.array_equal(hint, kept)
        held = [first.potential, hinted.dual, hinted._fa, hinted._fb, hinted._kmat, hinted._lb]
        assert not any(np.shares_memory(hint, x) for x in held)
        plain = unhinted(u1)
        assert not np.array_equal(first.potential, plain.potential)
        twin(u1, start=hint.copy())
        second = hinted(u2)
        second_twin = twin(u2, start=twin.dual.copy())
        assert second.iterations == second_twin.iterations
        assert np.array_equal(second.potential, second_twin.potential)
        assert np.array_equal(hinted.dual, twin.dual)

    def test_exact_1d_keeps_no_dual(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.5, 1.2)
        transport = prepare(v, TransportConfig())
        assert isinstance(transport, ExactTransport)
        plain = w2_exact_1d(u, v)
        prepared = w2(u, transport, start=np.ones(g.shape))
        assert prepared.w2_squared == plain.w2_squared
        assert w2_exact_1d(u, v, want_potential=False).w2_squared == plain.w2_squared
        assert prepared.iterations == plain.iterations == 0
        assert np.array_equal(prepared.potential, plain.potential)
        assert transport.dual is None


class TestDispatch:
    def test_1d_auto_matches_exact_bitwise(self):
        g = grid1d()
        u = gaussian_density(g, 0.0, 1.0)
        v = gaussian_density(g, 0.5, 1.2)
        auto = w2(u, prepare(v, TransportConfig()))
        exact = w2_exact_1d(u, v)
        assert auto.w2_squared == exact.w2_squared
        assert np.array_equal(auto.potential, exact.potential)
        assert auto.method == "exact_1d"

    def test_2d_auto_dispatches_to_sinkhorn(self):
        g = PeriodicGrid(2, 48, 16.0)
        u = gaussian_density(g, (0.0, 0.0), 1.0)
        v = gaussian_density(g, (0.5, 0.0), 1.0)
        cfg = TransportConfig(epsilon=0.1, max_iter=20000, tol=1e-7)
        transport = prepare(v, cfg)
        assert isinstance(transport, Sinkhorn)
        res = w2(u, transport)
        assert res.method == "sinkhorn"
        assert res.w2_squared > 0
        assert res.hessian_bands is None

    @pytest.mark.parametrize("target", ["gaussian", "bump", "mixture"])
    def test_prepared_exact_matches_plain_on_repeated_calls(self, target):
        # the target's CDF and the cell integrals are computed once, when the
        # transport is prepared, and no call changes them
        g = grid1d(n=256)
        v = {"gaussian": gaussian_density(g, 0.5, 1.2),
             "bump": compact_bump(g, (0.3,), 2.0),
             "mixture": gaussian_mixture_density(g, ((0.6, (-1.5,), 0.8), (0.4, (2.0,), 1.2)))}[target]
        transport = ExactTransport(v)
        densities = [gaussian_density(g, 0.0, 1.0), compact_bump(g, (-0.4,), 2.5), v,
                     gaussian_density(g, 0.0, 1.0)]
        for u in densities:
            plain = w2_exact_1d(u, v)
            prepared = transport(u)
            assert prepared.w2_squared == plain.w2_squared
            assert np.array_equal(prepared.potential, plain.potential)
            assert all(np.array_equal(a, b) for a, b in zip(prepared.hessian_bands, plain.hessian_bands))
