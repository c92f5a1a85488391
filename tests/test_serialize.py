"""JSON wire formats: round trips, canonical order, input diagnostics."""

import json
from fractions import Fraction as F

import pytest

from finprob import (
    Algebra,
    Functional,
    GroundSet,
    InputError,
    Measure,
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


RATIONAL_CORPUS = [
    "0/1", "1/1", "22/12", "5", "0", "007/3", "00/5", " 1/2", "1/2 ", "1 / 2",
    "+1/2", "-1/2", "0.5", ".5", "1_0/3", "\u0663/\u0664", "\u00b2/2", "1/\u00b2",
    "1/0", "0/00", "", "/", "1/", "/2", "1/2/3", "1e3", "1E3", "abc",
    "1" * 5000 + "/3", "1/" + "3" * 5000, "9" * 4000 + "/" + "7" * 4000,
    0, 7, -2, True, False, 1.5, None, [], {}, ["1/2"],
]


@pytest.mark.parametrize("raw", RATIONAL_CORPUS, ids=lambda raw: repr(raw)[:20])
def test_parse_rational_matches_fraction(raw):
    """The integer parser accepts what ``parse_fraction`` accepts, at the
    value ``Fraction`` gives, and rejects the rest with the same text."""
    try:
        expected = serialize.parse_fraction(raw, "$.w[0]")
    except InputError as exc:
        with pytest.raises(InputError) as caught:
            serialize.parse_rational(raw, "$.w[0]")
        assert (str(caught.value), caught.value.location) == (str(exc), exc.location)
        return
    num, den = serialize.parse_rational(raw, "$.w[0]")
    assert type(num) is int and type(den) is int and den > 0
    assert F(num, den) == expected == F(raw)


def test_algebra_round_trip_and_canonical_order():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, [g.mask_of(["0"])])
    data = serialize.dump_algebra(alg)
    assert data["family"] == [[], [0], [1, 2], [0, 1, 2]]
    assert serialize.load_algebra(data) == alg


def test_measure_round_trip():
    g = GroundSet(("0", "1", "2"))
    p = Measure(Algebra.powerset(g), (F(1, 2), F(1, 3), F(1, 6)))
    data = serialize.dump_measure(p)
    assert sorted(data) == ["algebra", "weights"]
    assert serialize.load_measure(data) == p
    for label in ("sigma", "finitely_additive"):  # format-1 files may carry one
        assert serialize.load_measure({**data, "mode": label}) == p


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


def test_a_cone_loads_each_distinct_row_once_per_request(tmp_path, monkeypatch):
    """Within one ``load_cone`` a row listed again is not built again, and
    nothing is kept between loads: the same file loaded twice builds the
    same number of measures each time."""
    alg = Algebra.powerset(GroundSet(("0", "1", "2")))
    cone = serialize.dump_cone(cone_of_measure(uniform(alg), indicator_family(alg)))
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"format": 1, "cone": cone}))
    # the collapse row and the two indicator rows; each leg is in dict form,
    # which is loaded on its own
    distinct = {
        (tuple(arrow["targets"]), tuple(row))
        for arrow, _ in cone
        for row in arrow["rows"].values()
    }
    assert len(distinct) == 3 and len(cone) == 9
    built = []
    real = Measure.from_numerators.__func__

    def counting(cls, *args):
        built.append(args)
        return real(cls, *args)

    monkeypatch.setattr(Measure, "from_numerators", classmethod(counting))
    for _ in range(2):
        built.clear()
        data = serialize.loads_instance(path.read_text())
        serialize.load_cone(data["cone"], alg)
        assert len(built) == len(distinct) + len(cone)


def test_a_row_equal_only_in_value_to_an_earlier_one_is_loaded_again():
    """Only rows of strings are looked up: ``[true, false]`` equals
    ``[1, 0]`` as a Python list, but only the second is a row of weights."""
    alg = Algebra.powerset(GroundSet(("0", "1")))
    cone = serialize.dump_cone(cone_of_measure(uniform(alg), indicator_family(alg)))
    cone[1][0]["rows"]["0"] = [1, 0]
    cone[2][0]["rows"]["0"] = [True, False]
    with pytest.raises(InputError) as caught:
        serialize.load_cone(cone, alg)
    assert str(caught.value) == "$.cone[2][0].rows.0[0]: expected a 'p/q' string, got bool"


def test_a_row_is_reused_only_on_its_own_labels():
    alg = Algebra.powerset(GroundSet(("0", "1")))
    cone = serialize.dump_cone(cone_of_measure(uniform(alg), indicator_family(alg)))
    cone[1][0]["targets"] = cone[1][1]["labels"] = ["a", "b"]  # the rows of 1_{}
    loaded = serialize.load_cone(cone, alg)
    assert [arrow.targets for arrow in loaded.legs] == [("0",), ("a", "b")] + [("0", "1")] * 3


def test_a_row_that_names_no_ground_point_is_rejected():
    alg = Algebra.powerset(GroundSet(("0", "1")))
    data = serialize.dump_arrow(binary_arrow(SimpleFunction.indicator(alg, 1)))
    data["rows"]["z"] = data["rows"]["0"]
    with pytest.raises(InputError, match=r"^\$\.rows\.z: key 'z' names no ground point$"):
        serialize.load_arrow(data, alg)


def test_an_instance_keeps_keys_it_does_not_know():
    """A command rejects a key it does not take; ``loads_instance`` passes it
    on."""
    assert serialize.loads_instance('{"format": 1, "x": 3}')["x"] == 3


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
