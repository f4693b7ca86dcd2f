"""Estimation-theoretic measurement error and disturbance for quantum systems."""

__version__ = "0.1.0"

from .classical import (
    FisherOperator,
    StatisticalModel,
    StochasticKernel,
    fisher_operator,
    locally_unbiased_estimator,
    markov_pushforward,
    model_from_povm,
    monotonicity_check,
    monte_carlo_variance,
)
from .errors import (
    InvalidDimensionError,
    InvalidOperandError,
    NoUnbiasedEstimatorError,
    SingularModelError,
    SingularStateError,
    UrlabError,
)
from .operator_core import (
    BOGOLIUBOV_FUNCTION,
    MonotoneFunction,
    RLD_FUNCTION,
    SLD_FUNCTION,
    SuperOperatorKf,
    TangentBasis,
    is_hermitian,
    kf_superoperator,
    mp_inverse,
    project_traceless,
    schur_positivity_report,
    tangent_basis,
)
from .qfisher import (
    log_derivative,
    quantum_cr_check,
    quantum_fisher,
    sld_optimal_pvm,
)
from .quantum import (
    CpInstrument,
    KrausChannel,
    Povm,
    QuantumState,
    apply_channel,
    average_channel,
    correlation,
    expectation,
    grad_expectation,
    induced_povm,
    pvm_of_observable,
    sym_correlation,
    variance,
)
from .uncertainty import (
    ErrorDisturbanceReport,
    ErrorResult,
    UncertaintyReport,
    disturbance,
    error_disturbance_report,
    error_error_report,
    joint_povm,
    measurement_error,
)
