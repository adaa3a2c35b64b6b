"""Two-stage bias-corrected least squares for sparse linear regression
with noisy or missing covariates, plus precision-matrix estimation from
partially observed Gaussian data."""

from .data import AdditiveNoise, MissingNoise, SurrogateDataset
from .experiment import ExperimentRecord, GridSpec, emit_results, run_grid
from .metrics import column_norm_error, false_positives, ree
from .moments import (
    CorrectedMoments,
    build_mask_matrix,
    corrected_loss,
    corrected_moments,
    estimate_missing_rates,
    uncorrected_moments,
)
from .post import cross_validate, cs_post_fit, post_cls_fit
from .precision import (
    PrecisionEstimate,
    assemble_precision,
    estimate_precision,
    neighborhood_moments,
    symmetrize,
)
from .selection import (
    FitResult,
    SolverOptions,
    cs_screen,
    l1_cls_fit,
    project_l1_ball,
    support,
)
from .simulate import (
    SimConfig,
    ar1_covariance,
    gen_beta0,
    gen_graph_data,
    gen_regression,
    generate_band_precision,
    generate_cluster_precision,
    sample_gaussian,
)

__version__ = "0.1.0"
