"""Numerical laboratory for weighted fractional Sobolev norms.

Computes the weighted Gagliardo seminorm and the weighted critical
Lebesgue norm by importance-sampled Monte Carlo (with a deterministic
1-d tensor oracle as ground truth), builds the cutoff-then-mollify
approximating sequence, and runs one verification experiment per
quantitative estimate.
"""

from .errors import (
    DegenerateDenominator,
    IoError,
    NonNormalizableDensity,
    OracleUnavailable,
    ParameterOutOfRange,
    QuadratureFailure,
    RangeViolation,
    SobolevLabError,
    UnknownCatalogId,
    UsageError,
)
from .fields import (
    CutoffProfile,
    MollifierProfile,
    PairField,
    ScalarField,
    clip_to_level,
    cutoff_tau_j,
    default_cutoff,
    default_mollifier,
    dilate,
    field_from_spec,
    gaussian_field,
    hat_1d_field,
    lift_difference_quotient,
    make_field,
    polynomial_tail_field,
    singular_spike_field,
    smooth_bump_field,
    zero_field,
)
from .norms import NormReport, norm_full, norm_lpaa_2n, norm_lpstar_a, seminorm_general, seminorm_wspa
from .params import (
    GeneralWeightParams,
    SpaceParams,
    WeightKind,
    validate_general_weights,
    validate_params,
)
from .quadrature import (
    Estimate,
    METHOD_MONTE_CARLO,
    METHOD_TENSOR_ORACLE,
    QuadratureSpec,
    ball_average,
    estimate_pair_integral_singular,
    estimate_weighted_integral_Rn,
    oracle_pair_integral_1d,
    oracle_weighted_integral_1d,
)
from .smoothing import (
    convolve,
    convolve_field,
    pipeline_rho,
    star_convolve,
    truncate,
)
from .verification import (
    check_averaged_weight_bound,
    check_commutation_identity,
    check_convolution_bound,
    check_finiteness_smooth,
    check_maximal_bound,
    check_sobolev_inequality,
    run_clipping_convergence,
    run_density_experiment,
    run_mollification_convergence,
    run_truncation_convergence,
)

__version__ = "0.1.0"
