"""Constructor behaviour of the exact value types at the edges of what they
accept: sums a hair away from 1, weights of exactly 0 and 1, values a hair
outside [0, 1], and string or integer inputs; and one row for each
rejection of a value type or its operations that no other test reaches.
Each rejection is pinned to its exception type and its exact message."""

from fractions import Fraction as F

import pytest

from finprob import (
    Algebra,
    Arrow,
    Cone,
    GroundSet,
    LipschitzFunction,
    Measure,
    MetaMeasure,
    SemiRing,
    SimpleFunction,
    SimplexPoint,
    WeakIntegrationLattice,
    bl_distance_subsets,
    caratheodory_extend,
    check_integral_properties,
    check_simplex_lipschitz,
    cone_of_measure,
    daniell_stone,
    discrete_space,
    pushforward,
    total_variation,
)
from finprob.codensity import collapse_arrow
from finprob.errors import DomainError, PreconditionError, RangeError
from finprob.lipmetric import bl_distance_lp_witness

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


ONE_POINT = Algebra.trivial(GroundSet(("a",)))
A = SimplexPoint(LABELS, (1, 0, 0))
X = SimplexPoint(("x",), (1,))
WIDE = SimplexPoint(tuple(map(str, range(21))), (1,) + (0,) * 20)


@pytest.mark.parametrize(
    "exc_type, message, build",
    [
        pytest.param(
            ValueError, "arrow target labels must be distinct",
            lambda: Arrow(ALGEBRA, ("x", "x"), ()), id="arrow-repeated-target",
        ),
        pytest.param(
            ValueError, "one simplex point per source atom required",
            lambda: Arrow(ALGEBRA, ("x",), (X,)), id="arrow-row-count",
        ),
        pytest.param(
            ValueError, "arrow rows must be indexed by the target labels",
            lambda: Arrow(ONE_POINT, ("y",), (X,)), id="arrow-row-labels",
        ),
        pytest.param(
            ValueError, "leg must be indexed by its arrow's targets",
            lambda: Cone("c", ((collapse_arrow(ALGEBRA), X),)), id="cone-leg-labels",
        ),
        pytest.param(
            PreconditionError, "arrow source differs from the measure's algebra",
            lambda: cone_of_measure(A, [collapse_arrow(ONE_POINT)]), id="cone-of-measure-source",
        ),
        pytest.param(
            RangeError, "scalar 2 outside [0, 1]",
            lambda: SimpleFunction(ALGEBRA, (0, 0, 0)).scale(2), id="scale-above-one",
        ),
        pytest.param(
            DomainError, "simple functions live on different algebras",
            lambda: SimpleFunction(ALGEBRA, (0, 0, 0)).add(SimpleFunction(ONE_POINT, (0,))),
            id="add-across-algebras",
        ),
        pytest.param(
            DomainError, "all functions must live on the measure's algebra",
            lambda: check_integral_properties(A, [SimpleFunction(ONE_POINT, (0,))]),
            id="integral-properties-algebra",
        ),
        pytest.param(
            ValueError, "one value per point required",
            lambda: LipschitzFunction(SPACE, (0, 0)), id="lipschitz-value-count",
        ),
        pytest.param(
            DomainError, "simplex points must be indexed by the metric's points",
            lambda: bl_distance_lp_witness(X, X, SPACE), id="lp-witness-labels",
        ),
        pytest.param(
            DomainError, "simplex points must share one index set",
            lambda: bl_distance_subsets(A, X), id="subsets-labels",
        ),
        pytest.param(
            DomainError, "subset enumeration capped at 20 labels; use the LP",
            lambda: bl_distance_subsets(WIDE, WIDE), id="subsets-label-cap",
        ),
        pytest.param(
            DomainError, "simplex points must share one index set",
            lambda: total_variation(A, X), id="total-variation-labels",
        ),
        pytest.param(
            DomainError, "map is not total: missing 'c'",
            lambda: check_simplex_lipschitz({"a": X, "b": X}, SPACE), id="lipschitz-map-not-total",
        ),
        pytest.param(
            DomainError, "images must share one simplex index set",
            lambda: check_simplex_lipschitz({"a": X, "b": A, "c": X}, SPACE),
            id="lipschitz-mixed-images",
        ),
        pytest.param(
            DomainError, "map is not total: missing 'a'",
            lambda: pushforward(A, {}, ALGEBRA), id="pushforward-not-total",
        ),
        pytest.param(
            ValueError, "every function must assign a value to each point",
            lambda: WeakIntegrationLattice(ALGEBRA.ground, ((1,),)), id="lattice-length",
        ),
        pytest.param(
            ValueError, "lattice functions must be nonnegative",
            lambda: WeakIntegrationLattice(ONE_POINT.ground, ((-1,),)), id="lattice-sign",
        ),
        pytest.param(
            DomainError, "premeasure missing a value for member 0x1",
            lambda: caratheodory_extend(SemiRing(ONE_POINT.ground, (0, 1)), {0: 0}),
            id="premeasure-missing-member",
        ),
        pytest.param(
            PreconditionError, "functional value -1 is negative",
            lambda: daniell_stone(WeakIntegrationLattice(ONE_POINT.ground, ((1,),)), {(1,): -1}),
            id="functional-negative",
        ),
        pytest.param(
            ValueError, "atoms must be nonempty",
            lambda: Algebra(ALGEBRA.ground, (0, 7)), id="algebra-empty-atom",
        ),
        pytest.param(
            ValueError, "atoms must be pairwise disjoint",
            lambda: Algebra(ALGEBRA.ground, (3, 6)), id="algebra-overlapping-atoms",
        ),
        pytest.param(
            ValueError, "atoms must cover the ground set",
            lambda: Algebra(ALGEBRA.ground, (1, 2)), id="algebra-uncovering-atoms",
        ),
        pytest.param(
            DomainError, "difference arguments must be members",
            lambda: SemiRing(ALGEBRA.ground, (0, 1)).difference_decomposition(2, 0),
            id="difference-of-a-non-member",
        ),
    ],
)
def test_each_value_type_rejection_names_its_fault(exc_type, message, build):
    rejects(exc_type, message, build)
