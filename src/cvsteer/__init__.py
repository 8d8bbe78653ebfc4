"""Steering detection for two-mode Gaussian states.

Builds standard-form covariance matrices for two-mode squeezed vacua under
loss and amplification, decides steerability under the Gaussian-measurement
criterion, and detects steering the Gaussian criterion misses via truncated
local orthogonal observables evaluated on exact Fock-basis reconstructions.
"""

from .covariance import (
    PHYSICALITY_TOL,
    TwoModeCovariance,
    apply_gain,
    apply_loss,
    check_physical,
    physicality_eigenvalue,
    symplectic_form,
    tmsv_covariance,
)
from .fock import (
    MAX_ORDER,
    FockDensity,
    fock_density,
    fock_density_json,
    hermite_coefficient,
    hermite_kernel,
    lossy_tmsv_element,
    thermal_marginal,
    thermal_occupations,
)
from .gaussian_criterion import (
    gaussian_gain_boundary,
    gaussian_loss_boundary,
    gaussian_margin,
    gaussian_steerable,
)
from .observables import TlooSet, build_tloos, expectation_values, rotate_tloos, uncertainty_sum
from .scan import (
    MonogamyReport,
    SqueezingRange,
    SweepRow,
    SweepSpec,
    channel_covariance,
    evaluate_point,
    find_boundary,
    monogamy_report,
    run_sweep,
    squeezing_range,
    write_sweep_csv,
)
from .tloo_criterion import (
    CorrelationMatrix,
    Witness,
    build_witness,
    correlation_matrix,
    criterion_rhs,
    optimal_gain,
    paired_variance_sum,
    swap_fock_modes,
    tloo_steerable,
)
from .verdict import A_TO_B, B_TO_A, MARGIN_TOL, SteeringVerdict

__all__ = [
    "A_TO_B",
    "B_TO_A",
    "CorrelationMatrix",
    "FockDensity",
    "MARGIN_TOL",
    "MAX_ORDER",
    "MonogamyReport",
    "PHYSICALITY_TOL",
    "SqueezingRange",
    "SteeringVerdict",
    "SweepRow",
    "SweepSpec",
    "TlooSet",
    "TwoModeCovariance",
    "Witness",
    "apply_gain",
    "apply_loss",
    "build_tloos",
    "build_witness",
    "channel_covariance",
    "check_physical",
    "correlation_matrix",
    "criterion_rhs",
    "evaluate_point",
    "expectation_values",
    "find_boundary",
    "fock_density",
    "fock_density_json",
    "gaussian_gain_boundary",
    "gaussian_loss_boundary",
    "gaussian_margin",
    "gaussian_steerable",
    "hermite_coefficient",
    "hermite_kernel",
    "lossy_tmsv_element",
    "monogamy_report",
    "optimal_gain",
    "paired_variance_sum",
    "physicality_eigenvalue",
    "rotate_tloos",
    "run_sweep",
    "squeezing_range",
    "swap_fock_modes",
    "symplectic_form",
    "thermal_marginal",
    "thermal_occupations",
    "tloo_steerable",
    "tmsv_covariance",
    "uncertainty_sum",
    "write_sweep_csv",
]

__version__ = "0.1.0"
