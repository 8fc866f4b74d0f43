import pytest

from fracfilm import InnerConfig, JkoConfig, PeriodicGrid, gaussian_density, run


def reference_config(grad_tol=1e-8):
    """d=1 Gaussian(0,1), s=1, tau=1e-3, L=40, n=256; the stationarity target
    `grad_tol` governs termination."""
    grid = PeriodicGrid(1, 256, 40.0)
    inner = InnerConfig(grad_tol=grad_tol)
    return JkoConfig(grid=grid, s=1.0, tau=1e-3, inner=inner)


@pytest.fixture(scope="session")
def reference_trajectory():
    """The 50-step reference scenario at the tight stationarity tolerance."""
    cfg = reference_config(grad_tol=1e-8)
    u0 = gaussian_density(cfg.grid, 0.0, 1.0)
    return run(u0, cfg, 50)


@pytest.fixture(scope="session")
def reference_trajectory_loose():
    """Same scenario at grad_tol 1e-6, for the tightening protocol."""
    cfg = reference_config(grad_tol=1e-6)
    u0 = gaussian_density(cfg.grid, 0.0, 1.0)
    return run(u0, cfg, 50)
