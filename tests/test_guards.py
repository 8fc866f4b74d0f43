"""Refusals of bad input that no other test reaches: each raises its
exception type with a message that names what is wrong."""

import numpy as np
import pytest

from fracfilm import (
    GridDensity,
    GridMismatchError,
    JkoConfig,
    PeriodicGrid,
    contraction_field,
    interpolant,
    jko_step,
    operator_N,
    plateau,
    pushforward_with_drift,
    run,
    spectral_divergence,
    uniform_density,
)

GRID = PeriodicGrid(1, 16, 8.0)
CFG = JkoConfig(grid=GRID, s=1.0, tau=1e-3)
U = uniform_density(GRID)

GUARDS = {
    "grid_dimension": (lambda: PeriodicGrid(0, 16, 8.0),
                       ValueError, "dimension must be >= 1"),
    "grid_box_length": (lambda: PeriodicGrid(1, 16, np.nan),
                        ValueError, "box length must be positive and finite"),
    "divergence_shape": (lambda: spectral_divergence(np.zeros((2, 16)), GRID),
                         GridMismatchError, "component shape"),
    "operator_N_eta_shape": (lambda: operator_N(U.values, GRID, np.zeros((1, 8)), 1.0),
                             ValueError, "vector field values must have shape"),
    "jko_config_tau": (lambda: JkoConfig(grid=GRID, s=1.0, tau=0.0),
                       ValueError, "time step must satisfy tau > 0"),
    "interpolant_time": (lambda: interpolant(run(U, CFG, 0), -1e-3),
                         ValueError, "interpolant time must be nonnegative"),
    "step_grid": (lambda: jko_step(uniform_density(PeriodicGrid(1, 32, 8.0)), CFG),
                  ValueError, "density grid does not match"),
    "run_steps": (lambda: run(U, CFG, -1),
                  ValueError, "number of steps must be nonnegative"),
    "density_shape": (lambda: GridDensity(GRID, np.ones(8)),
                      GridMismatchError, "density shape"),
    "pushforward_dimension": (lambda: pushforward_with_drift(U, contraction_field(2, 1.0, 2.0), 0.1),
                              GridMismatchError, "field dimension"),
    "plateau_radii": (lambda: plateau(np.zeros(3), 2.0, 1.0),
                      ValueError, "need 0 <= r_inner < r_outer"),
}


@pytest.mark.parametrize("call, error, fragment", GUARDS.values(), ids=GUARDS.keys())
def test_guard_refuses(call, error, fragment):
    with pytest.raises(ValueError, match=fragment) as exc:
        call()
    assert exc.type is error
