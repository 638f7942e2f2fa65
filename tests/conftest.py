import pytest
from hypothesis import HealthCheck, settings

from qcoha import suites

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# every function through which a verify suite runs a check or draws a case
SUITE_CHECKS = (
    "_capped_basis_product",
    "_graph_model_reports",
    "_random_partition",
    "check_associativity",
    "grading_failures",
    "quasi_commutativity_report",
    "shift_sort_product",
    "verify_augmented_rule",
    "verify_coefficient_identity",
    "verify_homomorphism",
    "verify_monomial_rule",
    "verify_subset_sum_identity",
)


@pytest.fixture
def refuse_checks(monkeypatch):
    """Make every check of the verify suites raise AssertionError(message)."""

    def patch(message):
        def refuse(*args, **kwargs):
            raise AssertionError(message)

        for name in SUITE_CHECKS:
            monkeypatch.setattr(suites, name, refuse)

    return patch
