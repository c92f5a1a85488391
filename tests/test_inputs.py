"""The ``--input`` boundary as two tables, every row run in this process
through the one runner, ``finprob(argv, stdin)``.

``ROWS`` holds one row per rejection: a bad option or instance exits 2 with
empty stdout and one stderr line, ``input error at <location>: <message>``,
and no traceback.  A file that cannot be read gives ``input error:
<reason>``, and a parser row's stderr is the usage and then its ``finprob:
error:`` line.  ``ACCEPTED`` holds one row per instance that is checked: it
exits 0 or 1, stderr is the one ``wall time`` line, and the report's checks
are pinned in order with their witnesses.  Two gates require that the rows
reach every ``InputError(...)`` call in finprob's source and every
``CheckOutcome(...)`` call in the ``--input`` runners."""

import ast
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from conftest import finprob, relabelled_cone, unlimited_str

from finprob import Algebra, GroundSet, InputError, Measure, cli, cone_of_measure
from finprob import indicator_family, serialize
from finprob.report import CheckOutcome


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


ALGEBRA = Algebra.powerset(GroundSet(("0", "1")))
ALGEBRA_DATA = serialize.dump_algebra(ALGEBRA)  # points 0, 1; family [], [0], [1], [0, 1]
SEVENTEEN_POINTS = [f"x{i}" for i in range(17)]
HALF = [{"terms": [["1/2", [0]]]}]  # the function 1/2 on {0}


def distance(points=("a", "b"), **changes):
    """The discrete metric on ``points``, with ``p`` the point mass at the
    first point and ``q`` at the last, after ``changes``."""
    n = len(points)

    def one_hot(k, at, elsewhere):
        return [at if i == k else elsewhere for i in range(n)]

    metric = {"points": list(points), "dist": [one_hot(k, "0/1", "1/1") for k in range(n)]}
    p, q = one_hot(0, "1/1", "0/1"), one_hot(n - 1, "1/1", "0/1")
    return {"format": 1, "metric": metric, "p": p, "q": q, **changes}


def without(instance, key):
    return {k: v for k, v in instance.items() if k != key}


def cone(edit=None, weights=("1/2", "1/2")):
    """The cone of the measure with ``weights`` on two points, as a codensity
    instance, after ``edit`` of its legs.  Leg 0's arrow is the collapse,
    into "0", and leg 3's is the binary arrow of 1_{1}."""
    p = Measure(ALGEBRA, tuple(map(Fraction, weights)))
    legs = serialize.dump_cone(cone_of_measure(p, indicator_family(ALGEBRA)))
    if edit:
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
          "unrecognized arguments: --input -", distance()),
    usage("options.all-takes-no-input", ("all", "--input", "-"),
          "unrecognized arguments: --input -", distance()),
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
    given("instance.empty", "distance", {}, "$", "missing required field 'metric'"),

    given("distance.missing-q", "distance", without(distance(), "q"),
          "$", "missing required field 'q'"),
    given("distance.metric-not-an-object", "distance", distance(metric=3),
          "$.metric", "expected dict, got int"),
    given("distance.metric-without-dist", "distance",
          distance(metric={"points": ["a", "b"]}), "$.metric", "missing required field 'dist'"),
    given("distance.empty-metric", "distance", distance(()),
          "$.metric", "metric space must contain at least one point"),
    given("distance.positive-self-distance", "distance",
          distance(metric={"points": ["a", "b"], "dist": [["1/2", "1/1"], ["1/1", "0/1"]]}),
          "$.metric", "dist(a, a) must be 0"),
    given("distance.integer-point-label", "distance",
          distance(metric=dict(distance()["metric"], points=[0, 1])),
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

    given("reconstruct.missing-table", "reconstruct", without(table([], []), "table"),
          "$", "missing required field 'table'"),
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
    given("extend.missing-mu", "extend", without(premeasure([[]], []), "mu"),
          "$", "missing required field 'mu'"),
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
    given("integrate.missing-functions", "integrate",
          without(integrate({"0": "1/2", "1": "1/2"}), "functions"),
          "$", "missing required field 'functions'"),
    given("integrate.no-functions", "integrate", integrate({"0": "1/2", "1": "1/2"}, []),
          "$.functions", "functions must be a nonempty list"),
    given("integrate.term-without-indices", "integrate",
          integrate({"0": "1/2", "1": "1/2"}, [{"terms": [["1/2"]]}]),
          "$.functions[0].terms[0]", "term must be [coefficient, indices]"),

    given("codensity.missing-cone", "codensity", without(cone(), "cone"),
          "$", "missing required field 'cone'"),
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


# 1/A + 1/(A + 1) has a denominator past Python's int-to-string limit
BIG = 10**4001 + 1
BIG_SUM = "<4002-digit integer>/<8003-digit integer>"
BIG_INVERSE = "1/" + unlimited_str(BIG * (BIG + 1))
D, E = 10**300, 10**400  # a distance's weights over D and its distances 1/E, 10/E
MISSING_ONE = (
    "table lacks the indicators needed to determine a measure (every atom and the whole set): 1_{1}"
)


class Accepted(NamedTuple):
    id: str
    command: str  # run as ``finprob COMMAND --input -``
    instance: object  # a JSON value, sent as its JSON text
    code: int  # 0 or 1
    checks: tuple  # each check of the report, in order


def check(name, passed, failed, *witnesses):
    return (name, passed, failed, witnesses)


def weights(w0, w1):
    """A ``reconstruct`` witness: the measure on ``ALGEBRA`` with these weights."""
    return {"algebra": ALGEBRA_DATA, "weights": {"0": w0, "1": w1}}


def atoms(a, b, mass="1/1"):
    """An ``extend`` witness: the atoms {a} and {b} with these weights."""
    return {"mass": mass, "atoms": [{"points": ["a"], "weight": a}, {"points": ["b"], "weight": b}]}


# fmt: off
ACCEPTED = [
    Accepted("distance.point-masses-apart", "distance", distance(), 0,
             (check("distance", 1, 0, {"lp": "1/1", "subsets": "1/1"}),)),
    Accepted("distance.equal-point-masses", "distance", distance(q=["1/1", "0/1"]), 0,
             (check("distance", 1, 0, {"lp": "0/1", "subsets": "0/1"}),)),
    # a distribution's label set has no size cap: 17 points is one more than a ground set's
    Accepted("distance.seventeen-points", "distance", distance(SEVENTEEN_POINTS), 0,
             (check("distance", 1, 0, {"lp": "1/1", "subsets": "1/1"}),)),
    # subset enumeration stops at 20 points; past it the LP is checked against the total
    # variation on its own
    Accepted("distance.past-the-subset-cap", "distance", distance([f"x{i}" for i in range(21)]),
             0, (check("distance", 1, 0, {"lp": "1/1"}),)),
    Accepted("distance.past-the-digit-limit", "distance",
             distance(p=[f"1/{BIG}", f"{BIG - 1}/{BIG}"], q=[f"1/{BIG + 1}", f"{BIG}/{BIG + 1}"]),
             0, (check("distance", 1, 0, {"lp": BIG_INVERSE, "subsets": BIG_INVERSE}),)),
    # the objective row holds 300-digit integers and the optimum a 700-digit denominator; the
    # optimal test function, solved by hand, is f = (0, 1/E, 10/E), and the subset maximum is
    # the total variation, (D - 2)/D
    Accepted("distance.huge-denominators", "distance",
             distance(metric={"points": ["a", "b", "c"],
                              "dist": [["0", f"1/{E}", f"10/{E}"], [f"1/{E}", "0", f"10/{E}"],
                                       [f"10/{E}", f"10/{E}", "0"]]},
                      p=[f"1/{D}", f"2/{D}", f"{D - 3}/{D}"], q=[f"{D - 1}/{D}", f"1/{D}", "0/1"]),
             0, (check("distance", 1, 0, {"lp": str(Fraction(10 * D - 29, D * E)),
                                           "subsets": str(Fraction(D - 2, D))}),)),

    Accepted("reconstruct.indicator-table", "reconstruct", table(INDICATORS, ["1/1", "1/4", "3/4"]),
             0, (check("reconstruct", 1, 0, weights("1/4", "3/4")),)),
    Accepted("reconstruct.atom-values-past-one", "reconstruct",
             table(INDICATORS, ["1/1", "3/4", "3/4"]), 1,
             (check("reconstruct", 0, 1, "additivity violated: the ground set decomposes into "
                                         "atoms with total indicator mass 3/2, but F(1_X) = 1"),)),
    # rows 1 and 3 both give 1_{0}, at one value (at two it is conflicting-duplicate-rows)
    Accepted("reconstruct.equal-duplicate-rows", "reconstruct",
             table([*INDICATORS, {"terms": [["1/2", [0]], ["1/2", [0]]]}],
                   ["1/1", "1/4", "3/4", "1/4"]),
             0, (check("reconstruct", 1, 0, weights("1/4", "3/4")),)),
    # a table without 1_{1} cannot determine a measure: a failed check, not a crash
    Accepted("reconstruct.missing-atom-indicator", "reconstruct",
             table(INDICATORS[:2], ["1/1", "1/4"]), 1, (check("reconstruct", 0, 1, MISSING_ONE),)),
    # the witness codensity.missing-atom-indicator-arrow gives, whatever the row order
    Accepted("reconstruct.missing-atom-indicator-reordered", "reconstruct",
             table(INDICATORS[1::-1], ["1/4", "1/1"]), 1,
             (check("reconstruct", 0, 1, MISSING_ONE),)),
    Accepted("reconstruct.violation-past-the-digit-limit", "reconstruct",
             table(INDICATORS, ["1/1", f"1/{BIG}", f"1/{BIG + 1}"]), 1,
             (check("reconstruct", 0, 1, "additivity violated: the ground set decomposes into "
                    f"atoms with total indicator mass {BIG_SUM}, but F(1_X) = 1"),)),

    Accepted("extend.two-halves", "extend", premeasure([[], [0], [1]], ["0/1", "1/2", "1/2"]), 0,
             (check("extend", 1, 0, atoms("1/2", "1/2")),)),
    Accepted("extend.each-value-on-its-listed-set", "extend",
             premeasure([[1], [0], []], ["0/1", "1/4", "3/4"]), 1,
             (check("extend", 0, 1, "premeasure of the empty set is 3/4, not 0"),)),
    Accepted("extend.negative-value", "extend",
             premeasure([[], [0], [1]], ["0/1", "-1/2", "3/2"]), 1,
             (check("extend", 0, 1, "premeasure value -1/2 on 0x1 is negative"),)),
    # the atoms do not depend on the order the sets are listed in
    Accepted("extend.sets-in-order", "extend", premeasure([[], [0], [1]], ["0/1", "3/4", "1/4"]),
             0, (check("extend", 1, 0, atoms("3/4", "1/4")),)),
    Accepted("extend.sets-reversed", "extend", premeasure([[1], [0], []], ["1/4", "3/4", "0/1"]),
             0, (check("extend", 1, 0, atoms("3/4", "1/4")),)),
    # a set listed again with its value (with another it is repeated-set-with-another-value)
    Accepted("extend.repeated-set-with-its-value", "extend",
             premeasure([[], [0], [1], [0]], ["0/1", "3/4", "1/4", "3/4"]), 0,
             (check("extend", 1, 0, atoms("3/4", "1/4")),)),
    Accepted("extend.violation-past-the-digit-limit", "extend",
             premeasure([[], [0], [1], [0, 1]], ["0/1", f"1/{BIG}", f"1/{BIG + 1}", "1/1"]), 1,
             (check("extend", 0, 1, "premeasure is not additive: mu = 1 on a member whose "
                    f"disjoint decomposition sums to {BIG_SUM}"),)),
    Accepted("extend.mass-past-the-digit-limit", "extend",
             premeasure([[], [0], [1]], ["0/1", f"1/{BIG}", f"1/{BIG + 1}"]), 0,
             (check("extend", 1, 0, atoms(f"1/{BIG}", f"1/{BIG + 1}",
                                          f"{2 * BIG + 1}/{BIG_INVERSE[2:]}")),)),

    Accepted("integrate.sigma-clauses", "integrate",
             integrate({"0": "1/2", "1": "1/2"}, mode="sigma"), 0,
             (check("simple-agreement", 1, 0), check("monotone", 0, 0), check("sup-inf", 1, 0),
              check("additive", 0, 0), check("monotone-limit", 1, 0),
              check("finite-series", 1, 0))),

    Accepted("codensity.cone-of-a-measure", "codensity", cone(weights=("2/5", "3/5")), 0,
             (check("naturality", 23, 0), check("reconstruct", 1, 0, weights("2/5", "3/5")))),
    # one binary leg bumped, and still a distribution
    Accepted("codensity.perturbed-leg", "codensity",
             cone(lambda legs: legs[2][1].update(weights=["49/100", "51/100"])), 1,
             (check("naturality", 0, 1, "failing triangle via {'0': '1', '1': '0'}"),
              check("reconstruct", 0, 1, "additivity violated: the ground set decomposes into "
                    "atoms with total indicator mass 101/100, but F(1_X) = 1"))),
    # four labels are the most a cone arrow may have, so the triangle from f to g is
    # checked, and fails (five labels are the row codensity.five-label-arrow)
    Accepted("codensity.four-label-arrows", "codensity", relabelled_cone(4), 1,
             (check("naturality", 0, 1,
                    "failing triangle via {'t0': 't0', 't1': 't2', 't2': 't3', 't3': 't0'}"),
              check("reconstruct", 0, 1, "cone is not natural"))),
    # without the binary arrow of 1_{1}, the witness of a table without 1_{1}
    Accepted("codensity.missing-atom-indicator-arrow", "codensity",
             cone(lambda legs: legs.pop(3), ("1/4", "3/4")), 1,
             (check("naturality", 17, 0), check("reconstruct", 0, 1, MISSING_ONE))),
]
# fmt: on


@pytest.mark.parametrize("row", ACCEPTED, ids=[row.id for row in ACCEPTED])
def test_an_accepted_instance_reports_its_checks(row):
    code, out, err = finprob((row.command, "--input", "-"), row.instance)
    assert (code, bool(re.fullmatch(r"wall time: \d+\.\d{3}s\n", err))) == (row.code, True), err
    report = json.loads(out)["checks"]
    checks = [(c["name"], c["passed"], c["failed"], tuple(c["witnesses"])) for c in report]
    assert checks == list(row.checks)


def callers(monkeypatch, cls, runs):
    """``(file name, line)`` of each ``cls(...)`` call made while finprob runs
    each ``(argv, stdin)`` of ``runs``."""
    reached = set()
    real = cls.__init__

    def spy(self, *args, **kwargs):
        caller = sys._getframe(1)
        reached.add((Path(caller.f_code.co_filename).name, caller.f_lineno))
        real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", spy)
    for argv, stdin in runs:
        finprob(argv, stdin)
    return reached


def input_error_sites():
    """``(file name, line)`` of each ``InputError(...)`` call in finprob."""
    sites = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "InputError":
                sites.add((path.name, node.lineno))
    return sites


def check_outcome_sites():
    """``(file name, line)`` of each ``CheckOutcome(...)`` call in the
    ``--input`` runners of ``cli`` and in the ``cli`` functions they call."""
    path = Path(cli.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo = [command.run_input for command in cli.COMMANDS.values() if command.run_input]
    seen, sites = set(todo), set()
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            callee = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
            if callee == "CheckOutcome":
                sites.add((path.name, node.lineno))
            elif callee in functions and callee not in seen:
                seen.add(callee)
                todo.append(callee)
    return sites


def test_every_input_error_site_is_reached_by_a_row(monkeypatch):
    reached = callers(monkeypatch, InputError, [(row.argv, row.stdin) for row in ROWS])
    sites = input_error_sites()
    assert sites
    assert sorted(sites - reached) == []


def test_every_input_check_outcome_site_is_reached_by_an_accepted_row(monkeypatch):
    runs = [((row.command, "--input", "-"), row.instance) for row in ACCEPTED]
    reached = callers(monkeypatch, CheckOutcome, runs)
    sites = check_outcome_sites()
    assert sites
    assert sorted(sites - reached) == []
