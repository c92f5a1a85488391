"""Fixtures and helpers shared by the test modules."""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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


def finprob(argv, stdin=None):
    """``finprob ARGV`` in this process: ``(exit code, stdout, stderr)``.
    Its standard input is ``stdin``: text, bytes, or any other JSON value
    as its JSON text.  A parser error's ``SystemExit`` gives its code."""
    from finprob import cli

    if stdin is not None and not isinstance(stdin, (str, bytes)):
        stdin = json.dumps(stdin)
    data = stdin.encode() if isinstance(stdin, str) else stdin or b""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.run(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def bench_workloads():
    """The benchmark's ``bench/workloads.py``, which pins the reports it
    runs and builds its instances."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads


def relabelled_cone(m):
    """A codensity instance: a cone on one point over the indicator family
    and two ``m``-label arrows, f with the row (1/3, 1/3, 1/3, 0, ...) and
    g, f relabelled t_i -> t_(i+2 mod m).  The leg at g puts 1/2, 1/4, 1/4
    where g puts 1/3 each, so the triangle from f to g fails."""
    from fractions import Fraction

    from finprob import Algebra, GroundSet, serialize
    from finprob.codensity import Arrow, cone_of_measure, indicator_family
    from finprob.measure import dirac
    from finprob.monad import SimplexPoint

    alg = Algebra.powerset(GroundSet(("x",)))
    targets = tuple(f"t{i}" for i in range(m))
    row = [Fraction(0)] * m
    shifted = [Fraction(0)] * m
    skewed = [Fraction(0)] * m
    for i, w in enumerate((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))):
        row[i] = shifted[(i + 2) % m] = Fraction(1, 3)
        skewed[(i + 2) % m] = w
    legs = serialize.dump_cone(cone_of_measure(dirac("x", alg), indicator_family(alg)))
    for arrow_row, leg in ((row, row), (shifted, skewed)):
        arrow = Arrow(alg, targets, (SimplexPoint(targets, arrow_row),))
        point = SimplexPoint(targets, leg)
        legs.append([serialize.dump_arrow(arrow), serialize.dump_simplex(point)])
    return {"format": 1, "algebra": serialize.dump_algebra(alg), "cone": legs}


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
