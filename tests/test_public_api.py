"""The exported surface of simbound, spelled out.

Adding a name to ``simbound.__all__`` or cutting one is a visible edit of
this list, made together with the README's "Python API" section.
"""

import simbound

PUBLIC_NAMES = [
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


def test_all_is_the_listed_surface():
    assert len(PUBLIC_NAMES) == 42
    assert sorted(simbound.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in simbound.__all__:
        assert getattr(simbound, name) is not None, name
