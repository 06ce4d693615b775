"""Stability analysis of linear plug-and-play reconstruction operators.

Builds the operator families P(t) = W(I - tB) and
R(t) = I - W + (I + tB)^{-1}(2W - I) from imaging models, profiles their
spectral radii, locates stability thresholds, stress-tests the 2/rho(B)
stability bounds, and validates convergence of the associated fixed-point
iterations.
"""

from .matrices import (
    PerronData,
    StochasticMatrix,
    StructureReport,
    is_positive_semidefinite,
    left_perron_vector,
    read_matrix,
    structure,
    validate_stochastic,
    write_matrix,
)
from .operators import (
    ConjectureHypotheses,
    OperatorFamily,
    P_of,
    R_of,
    alpha_beta_B,
    build_deblur,
    build_inpainting,
    build_superres,
    conjecture_hypotheses,
    gram,
    kernel_denoiser,
    make_family,
    predicted_slope,
)
from .pnp import InverseProblem, IterationTrace, pgd_pnp_run
from .spectral import eigenvalues, rho
from .stability import (
    ConjectureTrialResult,
    StabilityProfile,
    ThresholdReport,
    check_theorem_bound,
    conjecture_trial,
    profile,
    rho_on_grid,
    run_campaign,
    run_suite,
    slope_check,
    stability_threshold,
)

__version__ = "0.1.0"
