"""Spectral minimizing-movement solver for a fractional thin-film equation.

The packages splits along the natural seams of the problem: `spectral`
(grid, FFT multipliers, norms), `measure` (densities, entropy,
flows), `transport` (exact 1D and entropic Wasserstein), `jko` (the
proximal scheme), `analysis` (the inequality checkers), and `cli`.
"""

__version__ = "0.1.0"

from .analysis import (
    CheckReport,
    TauRefinementReport,
    check_energy_estimate,
    check_entropy_dissipation,
    check_evi_entropy,
    check_moment_bound,
    check_weak_form_step,
    derivative_identity_check,
    operator_N,
    tau_refinement_study,
)
from .errors import (
    ConvergenceError,
    FracfilmError,
    GridMismatchError,
    MassDriftError,
    StagnationError,
)
from .fields import CosineBump, contraction_field, plateau
from .jko import InnerConfig, JkoConfig, StepRecord, Trajectory, interpolant, jko_step, run
from .measure import (
    GridDensity,
    VectorField,
    boundary_shell_mass,
    entropy,
    gaussian_density,
    gaussian_mixture_density,
    heat_semigroup,
    pushforward_with_drift,
    second_moment,
    spike_density,
    uniform_density,
)
from .spectral import (
    PeriodicGrid,
    energy_of_values,
    fractional_laplacian,
    sobolev_norm_sq,
    spectral_divergence,
)
from .transport import (
    ExactTransport,
    Sinkhorn,
    TransportConfig,
    TransportResult,
    optimal_map_1d,
    prepare,
    w2,
    w2_exact_1d,
    w2_sinkhorn,
)
