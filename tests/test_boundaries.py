"""Constructor behaviour of the exact value types at the edges of what they
accept: sums a hair away from 1, weights of exactly 0 and 1, values a hair
outside [0, 1], and string or integer inputs.  Each rejection is pinned to
its exception type and its exact message."""

from fractions import Fraction as F

import pytest

from finprob import (
    Algebra,
    GroundSet,
    LipschitzFunction,
    Measure,
    MetaMeasure,
    SimpleFunction,
    SimplexPoint,
    discrete_space,
)
from finprob.errors import RangeError

EPS = F(1, 10**9)
LABELS = ("a", "b", "c")
ALGEBRA = Algebra.powerset(GroundSet(LABELS))  # three atoms, in label order
SPACE = discrete_space(LABELS)


def rejects(exc_type, message, build):
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    assert str(info.value) == message


def stored_as_fractions(values):
    return all(type(v) is F for v in values)


def measure(weights):
    return Measure(ALGEBRA, weights)


def meta(weights):
    support = (
        measure((1, 0, 0)),
        measure((0, 1, 0)),
        measure((0, 0, 1)),
    )[: len(weights)]
    return MetaMeasure(support, weights)


@pytest.mark.parametrize("off", [F(1, 997), F(-1, 997)])
def test_sums_off_by_one_997th_are_rejected(off):
    weights = (F(1, 2), F(1, 4), F(1, 4) + off)
    got = 1 + off
    rejects(
        ValueError,
        f"atom weights must sum to 1, got {got}",
        lambda: SimplexPoint(LABELS, weights),
    )
    rejects(
        ValueError, f"atom weights must sum to 1, got {got}", lambda: measure(weights)
    )
    rejects(
        ValueError,
        f"meta-measure weights must sum to 1, got {got}",
        lambda: meta(weights),
    )


def test_the_printed_sums_are_exact():
    rejects(
        ValueError,
        "atom weights must sum to 1, got 998/997",
        lambda: SimplexPoint(LABELS, (F(1, 2), F(1, 4), F(1, 4) + F(1, 997))),
    )
    rejects(
        ValueError,
        "atom weights must sum to 1, got 0",
        lambda: measure((0, 0, 0)),
    )


def test_weights_of_exactly_zero_and_one_are_accepted():
    assert SimplexPoint(LABELS, (0, 1, 0)).weights == (0, 1, 0)
    assert measure((0, 0, 1)).weights == (0, 0, 1)
    assert meta((1,)).weights == (1,)
    assert SimpleFunction(ALGEBRA, (0, 1, 0)).values == (0, 1, 0)
    assert LipschitzFunction(SPACE, (0, 1, 0)).values == (0, 1, 0)


def test_a_meta_measure_weight_of_zero_is_rejected():
    rejects(
        ValueError,
        "meta-measure weights must be strictly positive",
        lambda: meta((0, 1)),
    )


def test_a_hair_below_zero_is_rejected():
    rejects(
        ValueError,
        "atom weights must lie in [0, 1]",
        lambda: SimplexPoint(LABELS, (-EPS, 1 + EPS, 0)),
    )
    rejects(
        ValueError, "atom weights must lie in [0, 1]", lambda: measure((-EPS, 1 + EPS, 0))
    )
    rejects(
        ValueError,
        "meta-measure weights must be strictly positive",
        lambda: meta((-EPS, 1 + EPS)),
    )
    rejects(
        RangeError,
        "simple function value -1/1000000000 outside [0, 1]",
        lambda: SimpleFunction(ALGEBRA, (-EPS, 0, 0)),
    )
    rejects(
        ValueError,
        "value -1/1000000000 outside [0, 1]",
        lambda: LipschitzFunction(SPACE, (-EPS, 0, 0)),
    )


def test_a_hair_above_one_is_rejected():
    rejects(
        ValueError,
        "atom weights must lie in [0, 1]",
        lambda: SimplexPoint(LABELS, (1 + EPS, 0, 0)),
    )
    rejects(
        ValueError, "atom weights must lie in [0, 1]", lambda: measure((1 + EPS, 0, 0))
    )
    rejects(
        ValueError,
        "meta-measure weights must sum to 1, got 1000000001/1000000000",
        lambda: meta((1 + EPS,)),
    )
    rejects(
        RangeError,
        "simple function value 1000000001/1000000000 outside [0, 1]",
        lambda: SimpleFunction(ALGEBRA, (0, 1 + EPS, 0)),
    )
    rejects(
        ValueError,
        "value 1000000001/1000000000 outside [0, 1]",
        lambda: LipschitzFunction(SPACE, (0, 0, 1 + EPS)),
    )


def test_string_and_int_inputs_are_coerced_to_fractions():
    p = SimplexPoint(LABELS, ("1/3", "1/3", "1/3"))
    assert p.weights == (F(1, 3),) * 3 and stored_as_fractions(p.weights)
    q = SimplexPoint(LABELS, (0, 1, "0"))
    assert q.weights == (0, 1, 0) and stored_as_fractions(q.weights)
    m = measure(("1/2", 0, "1/2"))
    assert m.weights == (F(1, 2), 0, F(1, 2)) and stored_as_fractions(m.weights)
    mm = meta(("2/3", 1 - F(2, 3)))
    assert mm.weights == (F(2, 3), F(1, 3)) and stored_as_fractions(mm.weights)
    s = SimpleFunction(ALGEBRA, ("1/3", 1, 0), terms=(("1/3", 1), (1, 2)))
    assert s.values == (F(1, 3), 1, 0) and stored_as_fractions(s.values)
    assert stored_as_fractions(a for a, _ in s.terms)
    f = LipschitzFunction(SPACE, ("1/3", 1, 0))
    assert f.values == (F(1, 3), 1, 0) and stored_as_fractions(f.values)


def test_malformed_strings_are_rejected_by_the_fraction_constructor():
    rejects(
        ValueError,
        "Invalid literal for Fraction: 'x'",
        lambda: SimplexPoint(LABELS, ("x", 0, 1)),
    )
    rejects(
        ValueError,
        "Invalid literal for Fraction: '1/'",
        lambda: measure(("1/", 0, 1)),
    )
