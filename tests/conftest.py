"""Fixtures shared by the test modules."""

import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# one profile for every property test: the same examples on every run, no
# per-example time limit, and no example database written into the checkout
settings.register_profile("finprob", deadline=None, derandomize=True, database=None)
settings.load_profile("finprob")

# Hypothesis keeps its other files (such as the constants it collects from the
# source) under its home directory, ``.hypothesis/`` in the working directory
# by default; a temporary one, removed at exit, keeps the checkout clean
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="finprob-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def _unlimited_str(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="session")
def all_checks_at_100_cases():
    """The checks of ``run_all`` at 100 cases, by name, run once for every
    test that reads them."""
    from finprob import cli
    from finprob.report import SuiteConfig

    return {c.name: c for c in cli.run_all(SuiteConfig(cases=100))}


@pytest.fixture
def unlimited_str():
    """``str(n)`` with Python's int-to-string limit lifted for that one call
    only, to build the expected text of an integer past the limit."""
    return _unlimited_str
