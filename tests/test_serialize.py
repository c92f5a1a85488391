"""JSON wire formats: round trips, canonical order, input diagnostics."""

from fractions import Fraction as F

import pytest

from finprob import (
    Algebra,
    Functional,
    GroundSet,
    InputError,
    Measure,
    Mode,
    SimpleFunction,
    SimplexPoint,
    binary_arrow,
    cone_of_measure,
    discrete_space,
    generate_algebra,
    indicator_family,
    simple_integral,
    uniform,
)
from finprob import serialize
from finprob.errors import DomainError
from finprob.exact import wire_text


def test_fraction_round_trip():
    for v in (F(0), F(1), F(-3, 7), F(22, 12)):
        assert serialize.parse_fraction(wire_text(v), "$") == v


def test_fraction_rejects_garbage():
    with pytest.raises(InputError):
        serialize.parse_fraction("1/0", "$.x")
    with pytest.raises(InputError):
        serialize.parse_fraction([1, 2], "$.x")


def test_algebra_round_trip_and_canonical_order():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, [g.mask_of(["0"])])
    data = serialize.dump_algebra(alg)
    assert data["family"] == [[], [0], [1, 2], [0, 1, 2]]
    assert serialize.load_algebra(data) == alg


def test_algebra_load_rejects_non_closed_family():
    data = {"points": ["0", "1"], "family": [[], [0], [0, 1]]}
    with pytest.raises(InputError) as err:
        serialize.load_algebra(data)
    assert "complement" in str(err.value)


def test_measure_round_trip():
    g = GroundSet(("0", "1", "2"))
    p = Measure(Algebra.powerset(g), (F(1, 2), F(1, 3), F(1, 6)))
    assert serialize.dump_measure(p)["mode"] == "sigma"
    data = serialize.dump_measure(p, Mode.FINITELY_ADDITIVE)
    assert data["mode"] == "finitely_additive"
    assert serialize.load_measure(data) == p


def test_measure_load_rejects_bad_weights():
    g = GroundSet(("0", "1"))
    data = serialize.dump_measure(uniform(Algebra.powerset(g)))
    data["weights"]["0"] = "2/3"
    with pytest.raises(InputError) as err:
        serialize.load_measure(data)
    assert "$.weights" in str(err.value)


def test_a_weight_that_names_no_atom_is_rejected():
    data = serialize.dump_measure(uniform(Algebra.powerset(GroundSet(("0", "1")))))
    data["weights"]["2"] = "5/7"
    with pytest.raises(InputError, match=r"^\$\.weights\.2: key '2' names no atom$"):
        serialize.load_measure(data)


def test_simple_function_round_trip():
    g = GroundSet(("0", "1", "2"))
    alg = Algebra.powerset(g)
    s = SimpleFunction.from_terms(
        alg, [(F(1, 2), g.mask_of(["0"])), (F(1, 4), g.mask_of(["0", "1"]))]
    )
    data = serialize.dump_simple_function(s)
    assert serialize.load_simple_function(data, alg) == s


def test_functional_table_round_trip():
    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    p = uniform(alg)
    pairs = [
        (SimpleFunction.indicator(alg, m), simple_integral(p, SimpleFunction.indicator(alg, m)))
        for m in alg.members
    ]
    functional = Functional(alg, dict(pairs))
    data = {
        "family": [serialize.dump_simple_function(s) for s, _ in pairs],
        "values": [wire_text(v) for _, v in pairs],
    }
    loaded = serialize.load_functional_table(data, alg)
    assert loaded.algebra == alg
    assert list(loaded.values.items()) == list(functional.values.items())


def test_metric_round_trip():
    space = discrete_space(("a", "b", "c"))
    assert serialize.load_metric(serialize.dump_metric(space)) == space


def test_simplex_round_trip():
    p = SimplexPoint(("a", "b"), (F(1, 3), F(2, 3)))
    assert serialize.load_simplex(serialize.dump_simplex(p)) == p
    assert serialize.load_simplex(["1/3", "2/3"], labels=("a", "b")) == p


def test_arrow_and_cone_round_trip():
    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    arrow = binary_arrow(SimpleFunction.indicator(alg, g.mask_of(["0"])))
    data = serialize.dump_arrow(arrow)
    assert serialize.load_arrow(data, alg) == arrow

    cone = cone_of_measure(uniform(alg), indicator_family(alg))
    cone_data = serialize.dump_cone(cone)
    loaded = serialize.load_cone(cone_data, alg)
    assert loaded.legs == cone.legs


def test_arrow_targets_must_be_strings():
    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    data = serialize.dump_arrow(binary_arrow(SimpleFunction.indicator(alg, 1)))
    data["targets"] = [0, 1]
    with pytest.raises(InputError, match=r"^\$\.targets\[0\]: label must be a string"):
        serialize.load_arrow(data, alg)


def test_a_row_that_names_no_ground_point_is_rejected():
    alg = Algebra.powerset(GroundSet(("0", "1")))
    data = serialize.dump_arrow(binary_arrow(SimpleFunction.indicator(alg, 1)))
    data["rows"]["z"] = data["rows"]["0"]
    with pytest.raises(InputError, match=r"^\$\.rows\.z: key 'z' names no ground point$"):
        serialize.load_arrow(data, alg)


def test_instance_format_version_enforced():
    with pytest.raises(InputError):
        serialize.loads_instance('{"format": 2}')
    with pytest.raises(InputError):
        serialize.loads_instance("not json")
    assert serialize.loads_instance('{"format": 1, "x": 3}')["x"] == 3


def test_canonical_dump_is_stable():
    payload = {"b": [F(1, 2).denominator], "a": 1}
    assert serialize.dumps_canonical(payload) == serialize.dumps_canonical(
        {"a": 1, "b": [2]}
    )



def test_build_places_a_rejected_value_at_its_location():
    def rejects(kind):
        def make():
            raise kind("bad value")

        return make

    for kind in (ValueError, DomainError):
        with pytest.raises(InputError, match=r"^\$\.x: bad value$"):
            serialize._build("$.x", rejects(kind))
    nested = serialize.parse_fraction  # a loader raising at its own location
    with pytest.raises(InputError, match=r"^\$\.x\.inner: bad rational 'x'"):
        serialize._build("$.x", nested, "x", "$.x.inner")
    with pytest.raises(TypeError):  # a fault of the program, not of the input
        serialize._build("$.x", rejects(TypeError))
    assert serialize._build("$.x", GroundSet, ("a",)) == GroundSet(("a",))
