"""The cutoff evaluated only on its annulus against the whole-array formula.

`plateau` runs the exp(-1/t) transition only where r_inner < r < r_outer
and writes the exact 1 or 0 and zero derivatives elsewhere.  These tests
hold it, and the test function built from it, to `reference_plateau`,
which evaluates the transition at every point.  The 2048-point guard on the
Hessian bound is held by `test_hessian_self_check_matches_svd_norm`.
"""

import numpy as np
import pytest

from fracfilm import cosine_bump_test_function, plateau
from flow_fields import reference_cosine_bump_spatial, reference_plateau

R_INNER, R_OUTER = 10.0, 16.0
W = R_OUTER - R_INNER


def _edge_radii():
    """The plateau edges, and radii inside the annulus whose t = (r -
    r_inner)/w or 1 - t lies below the 1e-12 cut of the transition."""
    return np.array([
        0.0,
        R_INNER,
        R_OUTER,
        np.nextafter(R_INNER, 0.0),
        np.nextafter(R_INNER, np.inf),
        R_INNER + 0.5e-12 * W,
        np.nextafter(R_OUTER, 0.0),
        np.nextafter(R_OUTER, np.inf),
        R_OUTER - 0.5e-12 * W,
        0.5 * (R_INNER + R_OUTER),
        1e3,
    ])


def _points(dim, rng):
    """Random points over the support's box and the annulus, plus points at
    each edge radius along +e1, -e1 and the last axis."""
    box = rng.uniform(-1.1 * R_OUTER, 1.1 * R_OUTER, size=(5000, dim))
    shell = rng.standard_normal((2000, dim))
    shell *= rng.uniform(R_INNER, R_OUTER, size=(2000, 1)) / np.linalg.norm(shell, axis=1)[:, None]
    edges = []
    for r in _edge_radii():
        for axis, sign in ((0, 1.0), (0, -1.0), (dim - 1, 1.0)):
            p = np.zeros(dim)
            p[axis] = sign * r
            edges.append(p)
    return np.vstack([box, shell, np.array(edges)])


def _assert_bitwise(new, ref):
    for a, b in zip(new, ref):
        assert np.shape(a) == np.shape(b)
        np.testing.assert_array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_plateau_is_bitwise_the_whole_array_formula():
    rng = np.random.default_rng(29)
    radii = np.concatenate([_edge_radii(), rng.uniform(0.0, 1.2 * R_OUTER, 5000),
                            rng.uniform(R_INNER, R_OUTER, 5000)])
    _assert_bitwise(plateau(radii, R_INNER, R_OUTER), reference_plateau(radii, R_INNER, R_OUTER))


@pytest.mark.parametrize("r", list(_edge_radii()))
def test_plateau_on_a_zero_dimensional_radius(r):
    new = plateau(np.float64(r), R_INNER, R_OUTER)
    ref = reference_plateau(np.float64(r), R_INNER, R_OUTER)
    for a, b in zip(new, ref):
        assert np.ndim(a) == 0
        assert float(a) == float(b) and np.signbit(a) == np.signbit(b)
    assert float(plateau(r, R_INNER, R_OUTER)[0]) == float(ref[0])  # a python float too


def test_plateau_at_the_edges():
    chi, dchi, ddchi = plateau(_edge_radii(), R_INNER, R_OUTER)
    assert chi[0] == chi[1] == 1.0 and chi[2] == 0.0
    # t below 1e-12 inside the annulus: the transition's exact 1 and 0
    assert chi[5] == 1.0 and chi[8] == 0.0
    assert not np.any(dchi[[0, 1, 2, 3, 7, 10]]) and not np.any(ddchi[[0, 1, 2, 3, 7, 10]])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_test_function_matches_the_whole_array_reference(dim):
    phi = cosine_bump_test_function(dim, amplitude=0.1, freq=2.0, r_inner=R_INNER, r_outer=R_OUTER)
    pts = _points(dim, np.random.default_rng(31 + dim))
    psi, dpsi, hess = phi.spatial(pts, hessian=True)
    ref_psi, ref_dpsi, ref_hess = reference_cosine_bump_spatial(pts, 2.0, R_INNER, R_OUTER)
    _assert_bitwise((psi, dpsi), (ref_psi, ref_dpsi))
    # without the Hessian, psi and grad psi are the same bits
    _assert_bitwise(phi.spatial(pts)[:2], (ref_psi, ref_dpsi))
    assert np.max(np.abs(hess - ref_hess)) <= 1e-15 * np.max(np.abs(ref_hess))

