"""The public surface of the package: a change to it is deliberate."""
import qcoha

PUBLIC = {
    "CheckReport",
    "DEFAULT_BIT_BUDGET",
    "DEFAULT_MAX_SUBSETS",
    "DEFAULT_TERM_CAP",
    "KernelSpec",
    "MPoly",
    "NotSymmetricError",
    "ONE",
    "Q",
    "QLaurent",
    "QuasiCommReport",
    "Rational",
    "ResourceLimitError",
    "StructureConstantTable",
    "SymmetricElement",
    "ZERO",
    "as_rational",
    "augmented_monomial",
    "augmented_times_monomial",
    "check_associativity",
    "distinct_permutations",
    "embed",
    "kernel_polynomial",
    "monomial_symmetric",
    "monomial_times_monomial",
    "multiplicity",
    "pairwise_kernel",
    "partition_image",
    "partitions_up_to",
    "product",
    "product_elements",
    "product_via_graphs",
    "q_power",
    "quasi_commutativity_report",
    "shift_sort_product",
    "shuffle_product",
    "signed_q_power",
    "sort_ascending",
    "specialize",
    "structure_constants",
    "structure_table",
    "to_monomial_basis",
    "to_symmetric_element",
    "vec_add",
    "verify_augmented_rule",
    "verify_coefficient_identity",
    "verify_graph_model",
    "verify_homomorphism",
    "verify_monomial_rule",
    "verify_subset_sum_identity",
    "verify_symmetry",
}


def test_public_names_are_pinned_and_import():
    assert set(qcoha.__all__) == PUBLIC
    assert len(qcoha.__all__) == len(PUBLIC)
    namespace = {}
    exec("from qcoha import *", namespace)
    assert PUBLIC <= set(namespace)
    for name in PUBLIC:
        assert getattr(qcoha, name) is namespace[name]
