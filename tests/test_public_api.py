"""The names ``planalg`` exports, pinned so that a change to them is deliberate."""

import types

import planalg

PUBLIC = [
    "AdmissibleSet", "AxiomReport", "ConjectureReport", "Context",
    "CoxeterGroup", "DELTA", "DiagramEmbedding", "Element",
    "EmbeddingReport", "HalfDiagram", "Hecke", "LabeledDiagram", "Laurent",
    "ONE", "QSqrt2", "SQRT2", "TL", "TableAlgebra", "TabularDatum", "V",
    "V_INV", "ZERO", "admissible", "admissible_closed_under_mul",
    "check_algebra", "conjecture_436_check", "coxeter_group",
    "cyclic_group_algebra", "datum_build", "diagram_product",
    "drank_sequence", "e_matching", "edge_kinds", "fusion_twist",
    "half_arcs", "half_join", "hecke", "identity_diagram", "is_exposed",
    "make_verlinde", "matchings", "omega_rho_check", "p_tensor_embed",
    "permutation_group_algebra", "principal_pairs", "prop434_test",
    "reduction_structure_constants", "rho_build", "rho_verify_bijection",
    "stack_matchings", "star_diagram", "tensor", "tl", "trace_of_diagram",
    "verify_tensor_iso", "vneg_congruent", "w_identities", "wc_classify",
]


def test_public_names_are_pinned():
    # submodules are attributes of the package too, but not exports
    names = sorted(
        name for name, value in vars(planalg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
