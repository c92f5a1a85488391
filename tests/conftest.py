"""Fixtures shared by the test modules."""

import sys

import pytest
from hypothesis import settings

# one profile for every property test: the same examples on every run, no
# per-example time limit, and no example database written into the checkout
settings.register_profile("finprob", deadline=None, derandomize=True, database=None)
settings.load_profile("finprob")


def _unlimited_str(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def unlimited_str():
    """``str(n)`` with Python's int-to-string limit lifted for that one call
    only, to build the expected text of an integer past the limit."""
    return _unlimited_str
