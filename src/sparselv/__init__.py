"""Sparse random Lotka-Volterra ecosystems.

Feasibility, stability and seeded Monte Carlo sweeps for the LV system
dx/dt = x(1 - x + Mx) with a sparse d-regular Gaussian interaction matrix
M = (mask * A) / (alpha * sqrt(d)).
"""

__version__ = "0.1.0"

from .patterns import (
    AdjacencyPattern,
    PatternModel,
    block_permutation_pattern,
    full_pattern,
    general_regular_pattern,
    proportional_pattern,
)
from .interaction import InteractionMatrix, SpectralReport, assemble, spectral_norm, singular_gap
from .equilibrium import (
    DivergenceError,
    EquilibriumError,
    EquilibriumReport,
    GumbelConstants,
    SaturatedEquilibrium,
    extreme_value_stat,
    gumbel_constants,
    neumann_summand,
    saturated_equilibrium,
    solve_feasibility,
)
from .dynamics import (
    IntegrationError,
    SpectrumReport,
    StabilityCertificate,
    TrajectoryRecord,
    convergence_rate,
    integrate_lv,
    jacobian_spectrum,
    lv_field,
    stability_certificate,
)
from .experiments import (
    ConfigError,
    SweepConfig,
    SweepResult,
    run_abundance_histogram,
    run_dynamics_trace,
    run_feasibility_sweep,
    run_spectrum_check,
    run_singular_gap_trials,
)
