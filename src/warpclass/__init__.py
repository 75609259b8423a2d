"""Joint registration and classification of bivariate curve panels.

Two-level model: subject curves are registered by monotone time warps
within a nonlinear mixed-effects framework, then the aligned curves feed
a penalized functional logistic classifier through functional principal
component scores.
"""

from .basis import (
    BSplineBasis,
    MonotoneInterpolant,
    TruncatedPowerBasis,
    cross_gram,
    hyman_interp,
    quad_weights,
)
from .classify import (
    ClassifierModel,
    FpcaModel,
    LogisticFit,
    PredictionResult,
    classify_prob,
    compute_J,
    cross_validate_K,
    fit_classifier,
    fit_glmm,
    fpca_decompose,
    functional_coefficient,
    predict_new,
    project_scores,
    smooth_covariance,
)
from .config import RunConfig, load_config
from .curves import (
    CurvePanel,
    ScalarRecord,
    SubjectCurve,
    join_panel,
    load_curves,
    load_scalars,
    save_curves,
    save_scalars,
)
from .errors import DataError, NumericalError
from .gp import (
    CholFactor,
    MaternParams,
    matern_cov,
)
from .registration import (
    AlignedPanel,
    GlsContext,
    MeanWeights,
    RegistrationConfig,
    RegistrationFit,
    VarianceParams,
    WarpState,
    align_curves,
    build_context,
    build_linearization,
    estimate_c,
    estimate_d,
    fit_registration,
    fit_subject_warp,
    fit_variance,
    fit_warps,
    gls_normals,
    penalized_objective,
    warp_design,
)
from .simeval import (
    MetricsReport,
    SimTruth,
    Study1Config,
    Study2Config,
    metric_ari,
    metric_bias_ssd,
    metric_ca,
    metric_isbias_imse,
    metric_rand,
    simulate_study1,
    simulate_study2,
    warp_imse,
)

__version__ = "0.1.0"
