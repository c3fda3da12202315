"""Latent Gaussian trees: sign ambiguity, information measures, synthesis."""

import os as _os

if "LTS_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["LTS_THREADS"])

__version__ = "0.1.0"

from .errors import (
    BadCorrelation,
    CapExceeded,
    DanglingEdge,
    IllConditioned,
    InconsistentCovariance,
    LgtreeError,
    MismatchedNodeSets,
    MissingAssignment,
    MixtureTooLarge,
    NonMinimal,
    NotATree,
    NotLeafOnly,
    ParseError,
    RatioOutOfRange,
    TooManyHidden,
    UnknownNode,
    ValidationError,
    WrongShape,
)
from .trees import (
    CovarianceModel,
    GaussianTree,
    TreeSpec,
    format_tree,
    joint_covariance,
    load_tree,
    pairwise_correlation,
    parse_tree_text,
    random_tree,
    recover_edge_magnitudes,
    tree_determinant,
    validate_tree,
)
from .signs import (
    SignAssignment,
    SignClassReport,
    apply_sign_assignment,
    enumerate_equivalent_trees,
    sign_class_report,
    verify_equivalence,
)
from .info import (
    BernoulliParams,
    MIResult,
    block_mi_fixed,
    block_mi_mixture,
    decomposition_check,
    mi_closed_form,
    mi_direct,
    mi_sign_marginal,
    mixture_mi_profile,
    optimize_pi,
)
from .synthesis import (
    Codebook,
    ConstraintCheck,
    RateTuple,
    SynthesisReport,
    build_codebooks,
    estimate_divergence,
    frontier_rates,
    rate_region_check,
    synthesize,
    verify_encoding_constraints,
)

__all__ = [name for name in dir() if not name.startswith("_")]
