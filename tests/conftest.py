import pytest
from hypothesis import HealthCheck, settings

from aced import algorithms

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def empty_round_solves():
    """Start every test with an empty memo of fixed-budget round solves, so
    that a count of solver calls does not depend on the tests run before it."""
    algorithms._ROUND_SOLVES.clear()
