"""Reconstruction of second-order statistics of stationary graph signals
from observations on a small subset of graph nodes.

Covers the nonparametric spectral-domain model, moving-average and
autoregressive parameterizations, sparse-ruler samplers for circulant
graphs, greedy log-det sampler design, and finite-snapshot estimation
(LS, weighted LS, Cramer-Rao bound).
"""

from .ar import (
    ARSamplingScheme,
    ar_power_spectrum,
    build_ar_model,
    build_ar_scheme,
    core_by_degree,
    estimate_ar,
    generate_ar_signals,
    neighborhood,
    sample_ar_covariances,
    true_ar_covariance,
    true_ar_covariances,
)
from .design import (
    DesignProblem,
    DesignResult,
    ValidityReport,
    check_valid,
    default_epsilon,
    gram,
    greedy_design,
    is_sparse_ruler,
    minimal_sparse_ruler,
    set_objective,
)
from .errors import (
    CapabilityError,
    ConvergenceError,
    GraphCovError,
    InvalidInputError,
    NumericalError,
    RankDeficiencyError,
    RepeatedEigenvaluesWarning,
    SingularityError,
)
from .estimators import (
    EstimationResult,
    FisherInfo,
    fisher_info,
    ls_estimate,
    nnls_estimate,
    wls_estimate,
    wls_stationarity_residual,
)
from .graphs import (
    ADJACENCY,
    LAPLACIAN,
    Graph,
    GraphFilter,
    ShiftOperator,
    SpectralBasis,
    apply_filter,
    build_shift,
    circulant_dft_basis,
    cycle_graph,
    eigendecompose,
    frequency_response,
    is_circulant,
    mobius_ladder,
    path_graph,
    sensor_graph,
    vandermonde,
)
from .models import (
    CovarianceModel,
    ObservationModel,
    Subsampler,
    build_psi_ma,
    build_psi_spectral,
    compress_model,
    ma_b_from_h,
    unvec,
    vec,
)
from .stationary import (
    CovarianceMatrix,
    SnapshotMatrix,
    generate_signals,
    load_snapshots_csv,
    power_spectrum_from_cov,
    sample_covariance,
    save_snapshots_csv,
    true_covariance,
)

__version__ = "0.1.0"
