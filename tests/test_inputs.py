"""The input boundary, one row per rejection: a bad option or instance exits
2 with empty stdout and one stderr line, ``input error at <location>:
<message>``, and no traceback.  A file that cannot be read gives ``input
error: <reason>``, and a parser row's stderr is the usage and then its
``finprob: error:`` line.  Every row runs in this process through the
one runner, ``finprob(argv, stdin)``, and a gate requires that the rows
reach every ``InputError(...)`` call in finprob's source."""

import ast
import json
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from conftest import finprob, relabelled_cone

from finprob import Algebra, GroundSet, InputError, cli, cone_of_measure, indicator_family
from finprob import serialize, uniform


class Row(NamedTuple):
    id: str
    argv: tuple  # finprob's arguments
    stdin: object  # bytes, text, a JSON value (sent as its JSON text) or None
    stderr: str  # the one line; a parser row's last line, after the usage


def given(id, command, instance, location, message):
    """``finprob COMMAND --input -`` with ``instance`` on stdin, rejected at
    ``location``."""
    return Row(id, (command, "--input", "-"), instance, f"input error at {location}: {message}")


def option(id, argv, location, message):
    return Row(id, argv, None, f"input error at {location}: {message}")


def usage(id, argv, message, stdin=None):
    return Row(id, argv, stdin, f"finprob: error: {message}")


TWO_POINTS = {
    "format": 1,
    "metric": {"points": ["a", "b"], "dist": [["0/1", "1/1"], ["1/1", "0/1"]]},
    "p": ["1/1", "0/1"],
    "q": ["0/1", "1/1"],
}
ALGEBRA = Algebra.powerset(GroundSet(("0", "1")))
ALGEBRA_DATA = serialize.dump_algebra(ALGEBRA)  # points 0, 1; family [], [0], [1], [0, 1]
SEVENTEEN_POINTS = [f"x{i}" for i in range(17)]
HALF = [{"terms": [["1/2", [0]]]}]  # the function 1/2 on {0}


def distance(**changes):
    return dict(TWO_POINTS, **changes)


def cone(edit):
    """The uniform measure's cone on two points, as a codensity instance,
    after ``edit`` of its legs.  Leg 0's arrow is the collapse, into "0"."""
    legs = serialize.dump_cone(cone_of_measure(uniform(ALGEBRA), indicator_family(ALGEBRA)))
    edit(legs)
    return {"format": 1, "algebra": ALGEBRA_DATA, "cone": legs}


def table(family, values, algebra=ALGEBRA_DATA):
    return {"format": 1, "algebra": algebra, "table": {"family": family, "values": values}}


def premeasure(family, mu, points=("a", "b")):
    return {"format": 1, "points": list(points), "family": family, "mu": mu}


def integrate(weights, functions=HALF, **mode):
    measure = {"algebra": ALGEBRA_DATA, "weights": weights, **mode}
    return {"format": 1, "measure": measure, "functions": functions}


INDICATORS = [{"terms": [["1/1", [0, 1]]]}, {"terms": [["1/1", [0]]]}, {"terms": [["1/1", [1]]]}]
DIGITS = "1" * 4301  # one digit past Python's int-to-string limit
TOO_MANY_DIGITS = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has 4301 digits; "
    "use sys.set_int_max_str_digits() to increase the limit"
)


# fmt: off
ROWS = [
    usage("options.retired-mode", ("laws", "--mode", "sigma"),
          "unrecognized arguments: --mode sigma"),
    usage("options.retired-k", ("codensity", "--k", "2"), "unrecognized arguments: --k 2"),
    usage("options.retired-method", ("distance", "--method", "lp"),
          "unrecognized arguments: --method lp"),
    # a command without an input runner refuses even a valid instance
    usage("options.laws-takes-no-input", ("laws", "--input", "-"),
          "unrecognized arguments: --input -", TWO_POINTS),
    usage("options.all-takes-no-input", ("all", "--input", "-"),
          "unrecognized arguments: --input -", TWO_POINTS),
    option("options.negative-seed", ("laws", "--seed", "-1"),
           "$.seed", "seed must be nonnegative"),
    option("options.zero-cases", ("laws", "--cases", "0"), "$.cases", "cases must be positive"),
    option("options.size-17", ("laws", "--size", "17"),
           "$.max_ground_size", "max_ground_size must be at most 16"),
    option("options.zero-denominator", ("laws", "--denominator", "0"),
           "$.max_denominator", "max_denominator must be positive"),
    *(option(f"options.{command}-size-40", (command, "--size", "40", "--cases", "50"),
             "$.max_ground_size", "max_ground_size must be at most 16")
      for command in ("laws", "reconstruct", "integrate")),
    Row("file.unreadable", ("distance", "--input", "/nonexistent.json"), None,
        "input error: [Errno 2] No such file or directory: '/nonexistent.json'"),

    given("text.not-utf-8", "distance", b'{"format": 1, "p": "\xff\xfe"}',
          "$", "input is not UTF-8: invalid start byte at byte 20"),
    given("text.nested-too-deeply", "integrate", "[" * 100000 + "]" * 100000,
          "$", "JSON nested too deeply"),
    given("text.not-json", "distance", "not json",
          "$", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    given("text.integer-past-the-digit-limit", "distance",
          json.dumps(distance(p=[0, 0])).replace('"p": [0, 0]', f'"p": [{DIGITS}, 0]'),
          "$", f"invalid JSON: {TOO_MANY_DIGITS}"),
    given("instance.format-2", "distance", {"format": 2},
          "$.format", "unsupported format version 2"),
    given("instance.boolean-format", "distance", distance(format=True),
          "$.format", "unsupported format version True"),
    given("instance.unknown-key", "distance", distance(bogus=1), "$.bogus", "unknown key 'bogus'"),
    # an empty instance is not a request for the generated suite
    given("instance.empty", "distance", {}, "$.metric", "expected dict, got NoneType"),

    given("distance.metric-not-an-object", "distance", {"format": 1, "metric": 3},
          "$.metric", "expected dict, got int"),
    given("distance.metric-without-dist", "distance",
          distance(metric={"points": ["a", "b"]}), "$.metric", "missing required field 'dist'"),
    given("distance.empty-metric", "distance", {"format": 1, "metric": {"points": [], "dist": []},
                                                "p": [], "q": []},
          "$.metric", "metric space must contain at least one point"),
    given("distance.positive-self-distance", "distance",
          distance(metric={"points": ["a", "b"], "dist": [["1/2", "1/1"], ["1/1", "0/1"]]}),
          "$.metric", "dist(a, a) must be 0"),
    given("distance.integer-point-label", "distance",
          distance(metric=dict(TWO_POINTS["metric"], points=[0, 1])),
          "$.metric.points[0]", "label must be a string, got int"),
    given("distance.integer-simplex-label", "distance",
          distance(q={"labels": ["a", 1], "weights": ["0/1", "1/1"]}),
          "$.q.labels[1]", "label must be a string, got int"),
    given("distance.foreign-simplex-labels", "distance",
          distance(p={"labels": ["x", "y"], "weights": ["1/2", "1/2"]}),
          "$.p.labels", "labels ['x', 'y'] must be ['a', 'b']"),
    given("distance.boolean-weight", "distance", distance(p=[True, False]),
          "$.p[0]", "expected a 'p/q' string, got bool"),
    given("distance.zero-denominator", "distance", distance(p=["1/0", "1/1"]),
          "$.p[0]", "bad rational '1/0': Fraction(1, 0)"),
    *(given(f"distance.exponent-{raw}", "distance", distance(p=[raw, "0/1"]),
            "$.p[0]", f"bad rational '{raw}': exponent notation is not accepted")
      for raw in ("1e0", "1E0", "1e-10000000")),

    given("reconstruct.integer-point-label", "reconstruct",
          {"format": 1, "algebra": {"points": ["0", 1], "family": [[]]}, "table": {}},
          "$.algebra.points[1]", "label must be a string, got int"),
    given("reconstruct.ground-set-past-the-cap", "reconstruct",
          table([], [], {"points": SEVENTEEN_POINTS, "family": [[]]}),
          "$.algebra.points", "ground set of size 17 exceeds cap 16"),
    given("reconstruct.family-without-a-complement", "reconstruct",
          table([], [], {"points": ["0", "1"], "family": [[], [0], [0, 1]]}),
          "$.algebra.family", "family not closed under complement at 0x1"),
    given("reconstruct.more-values-than-functions", "reconstruct",
          table(INDICATORS[:1], ["1/1", "1/2"]),
          "$.table", "family and values must have equal length"),
    # rows 1 and 3 both give 1_{0}, at different values
    given("reconstruct.conflicting-duplicate-rows", "reconstruct",
          table([*INDICATORS, {"terms": [["1/2", [0]], ["1/2", [0]]]}],
                ["1/1", "1/4", "3/4", "1/3"]),
          "$.table.values[3]", "value 1/3 conflicts with 1/4 given earlier for the same function"),

    given("extend.ground-set-past-the-cap", "extend", premeasure([[]], ["0/1"], SEVENTEEN_POINTS),
          "$.points", "ground set of size 17 exceeds cap 16"),
    given("extend.boolean-point-index", "extend",
          premeasure([[], [False], [True]], ["0/1", "1/2", "1/2"], ("0", "1")),
          "$.family[1][0]", "bad point index False"),
    given("extend.mu-one-short", "extend", premeasure([[], [0], [1]], ["0/1", "1/2"]),
          "$.mu", "mu must list one value per family member"),
    given("extend.repeated-set-with-another-value", "extend",
          premeasure([[], [0], [1], [0]], ["0/1", "3/4", "1/4", "1/2"]),
          "$.mu[3]", "value 1/2 conflicts with 3/4 given earlier for the same set"),

    given("integrate.weights-not-summing-to-one", "integrate", integrate({"0": "2/3", "1": "1/2"}),
          "$.measure.weights", "atom weights must sum to 1, got 7/6"),
    given("integrate.weight-naming-no-atom", "integrate",
          integrate({"0": "1/2", "1": "1/2", "2": "5/7"}),
          "$.measure.weights.2", "key '2' names no atom"),
    given("integrate.missing-weight", "integrate", integrate({"0": "1/1"}),
          "$.measure.weights", "missing weight for atom 1"),
    given("integrate.unknown-mode", "integrate", integrate({"0": "1/2", "1": "1/2"}, mode=["x"]),
          "$.measure.mode", "unknown mode ['x']"),
    given("integrate.no-functions", "integrate", integrate({"0": "1/2", "1": "1/2"}, []),
          "$.functions", "functions must be a nonempty list"),
    given("integrate.term-without-indices", "integrate",
          integrate({"0": "1/2", "1": "1/2"}, [{"terms": [["1/2"]]}]),
          "$.functions[0].terms[0]", "term must be [coefficient, indices]"),

    given("codensity.empty-cone", "codensity", {"format": 1, "algebra": ALGEBRA_DATA, "cone": []},
          "$.cone", "cone needs at least one leg"),
    given("codensity.leg-without-its-point", "codensity", cone(lambda legs: legs[0].pop()),
          "$.cone[0]", "cone leg must be [arrow, point]"),
    given("codensity.integer-arrow-targets", "codensity",
          cone(lambda legs: legs[0][0].update(targets=[0, 1])),
          "$.cone[0][0].targets[0]", "label must be a string, got int"),
    given("codensity.repeated-arrow-target", "codensity",
          cone(lambda legs: legs[0][0].update(targets=["0", "0"])),
          "$.cone[0][0].targets", "arrow target labels must be distinct"),
    given("codensity.row-naming-no-ground-point", "codensity",
          cone(lambda legs: legs[0][0]["rows"].update(z=legs[0][0]["rows"]["0"])),
          "$.cone[0][0].rows.z", "key 'z' names no ground point"),
    given("codensity.missing-row", "codensity", cone(lambda legs: legs[0][0]["rows"].pop("1")),
          "$.cone[0][0].rows", "missing row for point '1'"),
    # naturality would need 5**5 label maps, so the cone is refused, not checked in part
    given("codensity.five-label-arrow", "codensity", relabelled_cone(5),
          "$.cone", "cone arrows have at most 4 target labels"),
]
# fmt: on


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_bad_input_exits_two(row):
    head = cli.build_parser().format_usage() if row.stderr.startswith("finprob: ") else ""
    assert finprob(row.argv, row.stdin) == (2, "", f"{head}{row.stderr}\n")


def input_error_sites():
    """``(file name, line)`` of each ``InputError(...)`` call in finprob."""
    sites = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "InputError":
                sites.add((path.name, node.lineno))
    return sites


def test_every_input_error_site_is_reached_by_a_row(monkeypatch):
    reached = set()
    real = InputError.__init__

    def spy(self, *args, **kwargs):
        caller = sys._getframe(1)
        reached.add((Path(caller.f_code.co_filename).name, caller.f_lineno))
        real(self, *args, **kwargs)

    monkeypatch.setattr(InputError, "__init__", spy)
    for row in ROWS:
        finprob(row.argv, row.stdin)
    sites = input_error_sites()
    assert sites
    assert sorted(sites - reached) == []
