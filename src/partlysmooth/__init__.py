"""Partly smooth regularizers: geometry, certificates, solvers, experiments.

The package answers one question end to end: given a low-complexity
regression problem, does penalized estimation recover the exact structure
(support, active groups, rank, cosupport) of the ground truth?  It provides
the regularizers themselves, a pre-certificate that predicts recovery from
the design covariance alone, a forward-backward solver that reports when its
iterates lock onto the final model, and Monte-Carlo harnesses that measure
all of this empirically.
"""

from .certificate import (
    Certificate,
    certify_uniqueness,
    check_model_stability,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    MuRule,
    consistency_sweep,
    find_certified_design,
    noise_stability_sweep,
    sharpness_experiment,
    write_plot_csv,
    write_records_csv,
    write_summary_json,
)
from .linalg import (
    InjectivityReport,
    Subspace,
    check_covariance,
    check_symmetric,
    project,
    pseudoinverse,
    restricted_injectivity,
)
from .problems import (
    DesignSpec,
    SignalSpec,
    load_matrix_csv,
    make_design,
    make_signal,
)
from .regularizers import (
    AnalysisL1,
    CertificateVerdict,
    GroupL1L2,
    L1,
    ModelDescriptor,
    ModelGeometry,
    Nuclear,
    Regularizer,
)
from .solver import (
    BatchResult,
    CanonicalParameters,
    Quadratic,
    SolveOptions,
    SolveResult,
    forward_backward,
    forward_backward_batch,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisL1",
    "BatchResult",
    "CanonicalParameters",
    "Certificate",
    "CertificateVerdict",
    "DesignSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "GroupL1L2",
    "InjectivityReport",
    "L1",
    "ModelDescriptor",
    "ModelGeometry",
    "MuRule",
    "Nuclear",
    "Quadratic",
    "Regularizer",
    "SignalSpec",
    "SolveOptions",
    "SolveResult",
    "Subspace",
    "certify_uniqueness",
    "check_covariance",
    "check_model_stability",
    "check_symmetric",
    "consistency_sweep",
    "find_certified_design",
    "forward_backward",
    "forward_backward_batch",
    "load_matrix_csv",
    "make_design",
    "make_signal",
    "noise_stability_sweep",
    "project",
    "pseudoinverse",
    "restricted_injectivity",
    "sharpness_experiment",
    "write_plot_csv",
    "write_records_csv",
    "write_summary_json",
]
