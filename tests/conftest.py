"""Fixtures shared by the test modules."""

import sys

import pytest


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
