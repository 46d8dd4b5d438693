"""Bilinear similarity learning with matrix-norm regularizers and certificates.

The pipeline has two stages: learn a symmetric matrix A whose bilinear form
scores pairs, then fit an L1-constrained linear separator on top of the
learnt score.  The bounds module certifies both stages with Rademacher-based
deviation bounds that can be checked empirically.
"""

from .bounds import (
    BoundReport,
    build_bound_report,
    khinchin_check,
    rademacher_analytic,
    rademacher_empirical,
    report_to_json_dict,
    save_report,
    theorem1_bound,
    theorem2_bound,
    x_star,
)
from .data import (
    Dataset,
    GeneratorKind,
    GeneratorSpec,
    generate,
    load_csv,
    save_csv,
)
from .errors import NumericalError
from .norms import (
    NormKind,
    dual_norm,
    dual_norm_rank1,
    norm,
    prox,
    sym_eigendecomposition,
    symmetrize,
)
from .separator import (
    Separator,
    anchor_coefficients,
    classify,
    empirical_hinge_error,
    load_separator,
    project_l1_ball,
    save_separator,
    train_separator,
    true_hinge_error,
)
from .similarity import (
    SimilarityConfig,
    SimilarityModel,
    empirical_similarity_error,
    hinge_subgradient,
    load_model,
    save_model,
    similarity_objective,
    train_similarity,
    true_similarity_error,
)

__all__ = [
    "BoundReport",
    "Dataset",
    "GeneratorKind",
    "GeneratorSpec",
    "NormKind",
    "NumericalError",
    "Separator",
    "SimilarityConfig",
    "SimilarityModel",
    "anchor_coefficients",
    "build_bound_report",
    "classify",
    "dual_norm",
    "dual_norm_rank1",
    "empirical_hinge_error",
    "empirical_similarity_error",
    "generate",
    "hinge_subgradient",
    "khinchin_check",
    "load_csv",
    "load_model",
    "load_separator",
    "norm",
    "project_l1_ball",
    "prox",
    "rademacher_analytic",
    "rademacher_empirical",
    "report_to_json_dict",
    "save_csv",
    "save_model",
    "save_report",
    "save_separator",
    "similarity_objective",
    "sym_eigendecomposition",
    "symmetrize",
    "theorem1_bound",
    "theorem2_bound",
    "train_separator",
    "train_similarity",
    "true_hinge_error",
    "true_similarity_error",
    "x_star",
]

__version__ = "0.1.0"
