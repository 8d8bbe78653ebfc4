"""Steering detection for two-mode Gaussian states.

Builds standard-form covariance matrices for two-mode squeezed vacua under
loss and amplification, decides steerability under the Gaussian-measurement
criterion, and detects steering the Gaussian criterion misses via truncated
local orthogonal observables evaluated on exact Fock-basis reconstructions.
The names imported below are the public API.
"""

from .covariance import (
    MAX_GAIN,
    MAX_SQUEEZING,
    PHYSICALITY_TOL,
    TwoModeCovariance,
    apply_gain,
    apply_loss,
    check_physical,
    physicality_eigenvalue,
    tmsv_covariance,
)
from .fock import (
    MAX_ORDER,
    FockDensity,
    fock_density,
    fock_density_json,
    hermite_kernel,
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
    SweepResult,
    SweepSpec,
    channel_covariance,
    evaluate_point,
    find_boundary,
    monogamy_report,
    run_sweep,
    squeezing_range,
    write_sweep_csv,
    write_sweep_json,
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
    tloo_margin,
    tloo_steerable,
)
from .verdict import A_TO_B, B_TO_A, MARGIN_TOL, SteeringVerdict

__version__ = "0.1.0"
