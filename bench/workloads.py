"""The benchmark's workloads.

Each workload builds its inputs from the seed during set-up, hands the
program only those inputs, and checks every output against answers the
generator knows (a perturbed leg, a broken table, a closed-form count),
never against answers computed by the code under test.  README.md says why
each workload exists and which layers it stresses or skips.

Inputs come in blocks.  A block is the workload's unit mix: the timed loop
only stops between blocks, and ``wall_s`` is the median block time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

from finprob import cli, codensity, gen, serialize
from finprob.integrate import SimpleFunction
from finprob.monad import SimplexPoint
from finprob.setalg import GroundSet

DEN = 12  # the CLI's default denominator bound; every generated input keeps to it
DELTA = Fraction(1, 2 * DEN)  # size of every seeded perturbation

# A 30 s run uses 120 to 185 blocks at the speed of the commit that added
# this benchmark.  A run that exhausts the pool stops early instead of
# repeating inputs; a larger pool would lengthen every set-up.
INSTANCE_BLOCKS = 200
PER_KIND = 5  # valid requests of each kind in an `instances` block
MALFORMED_PER_BLOCK = 3


@dataclass
class Op:
    """One request: ``run`` returns the program's output, ``check`` judges it."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def mask_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def call_cli(argv: list[str]) -> tuple[Any, str]:
    """Run the CLI in process.  An exception that escapes ``cli.run`` is an
    output of its own, which no expected exit code matches."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except Exception as exc:  # the CLI must map every input to 0, 1 or 2
            code = f"exception {type(exc).__name__}"
    return code, out.getvalue()


def output_text(output: Any) -> str:
    """Canonical text of an output, for the run's report hash: a CLI
    report byte for byte, anything else by its repr."""
    if isinstance(output, tuple) and len(output) == 2 and isinstance(output[1], str):
        return output[1]
    return repr(output) + "\n"


# ---------------------------------------------------------------------------
# suite-all: one in-process `finprob all --seed S` at the default config


SUITE_CASES = 500  # the CLI default

EXPECTED_CHECKS = [
    "laws.sigma.associativity",
    "laws.sigma.left-unit",
    "laws.sigma.mult-naturality",
    "laws.sigma.right-unit",
    "laws.sigma.unit-naturality",
    "laws.finitely_additive.associativity",
    "laws.finitely_additive.left-unit",
    "laws.finitely_additive.mult-naturality",
    "laws.finitely_additive.right-unit",
    "laws.finitely_additive.unit-naturality",
    "codensity.sigma.round-trip",
    "codensity.sigma.naturality",
    "codensity.sigma.uniqueness",
    "codensity.finitely_additive.round-trip",
    "codensity.finitely_additive.naturality",
    "codensity.finitely_additive.uniqueness",
    "codensity.sufficiency.k1",
    "codensity.sufficiency.k2",
    "codensity.sufficiency.k3",
    "distance.discrete-identity",
    "distance.worked-pair",
    "lipschitz-equivalence.criteria-agree",
    "lipschitz-equivalence.lp-spot-checks",
    "nonexpansive.unit-contraction",
    "nonexpansive.mult-contraction",
    "nonexpansive.metric-laws",
    "reconstruct.round-trip",
    "reconstruct.adversarial-detection",
    "reconstruct.lattice-route",
    "extend.slab-calculus",
    "extend.singleton-extension",
    "extend.lattice-representation",
    "integrate.properties",
]


def expected_suite_counts(seed: int) -> dict[str, int]:
    """Passed counts that the default config fixes.

    Case counts follow from ``cases`` = 500.  The Lipschitz sweep size is
    seed-free: 800691 (space, map) instances.  Two counts depend on the
    seeded cases and are replayed from the generator: unit pairs of the
    non-expansiveness spaces, and naturality triangles of the indicator
    families, which are 3 + 5 * 2**k on an algebra with k atoms (the
    collapse arrow meets 3 triangles, each binary indicator arrow 5).
    """
    n = SUITE_CASES
    counts = {name: n for name in EXPECTED_CHECKS if name.startswith("laws.")}
    for mode in ("sigma", "finitely_additive"):
        counts[f"codensity.{mode}.round-trip"] = 2 * n // 5
        counts[f"codensity.{mode}.uniqueness"] = 2 * n // 5
    for k in (1, 2, 3):
        counts[f"codensity.sufficiency.k{k}"] = 1
    counts.update(
        {
            "distance.discrete-identity": 3 * n // 5,
            "distance.worked-pair": 1,
            "lipschitz-equivalence.criteria-agree": 800691,
            "lipschitz-equivalence.lp-spot-checks": n // 5,
            "nonexpansive.mult-contraction": n // 5,
            "nonexpansive.metric-laws": n // 5,
            "reconstruct.round-trip": 3 * n // 5,
            "reconstruct.adversarial-detection": n // 10,
            "reconstruct.lattice-route": n // 10,
            "extend.slab-calculus": n,
            "extend.singleton-extension": n // 5,
            "extend.lattice-representation": n // 5,
            "integrate.properties": n,
        }
    )
    unit_pairs = 0
    for case in range(n // 5):
        size = gen.rng_for(seed, "nonexpansive", str(case)).randint(1, 6)
        unit_pairs += size * (size - 1) // 2
    counts["nonexpansive.unit-contraction"] = unit_pairs
    triangles = 0
    for case in range(2 * n // 5):
        rng = gen.rng_for(seed, "codensity", str(case))
        algebra = gen.random_algebra(rng, gen.random_ground(rng, 4))
        triangles += 3 + 5 * 2 ** len(algebra.atoms)
    for mode in ("sigma", "finitely_additive"):
        counts[f"codensity.{mode}.naturality"] = triangles
    return counts


def check_suite(expected: dict[str, int], output) -> bool:
    code, text = output
    if code != 0:
        return False
    try:
        report = json.loads(text)
    except ValueError:
        return False
    checks = report.get("checks", [])
    return (
        report.get("ok") is True
        and [c["name"] for c in checks] == EXPECTED_CHECKS
        and all(c["failed"] == 0 for c in checks)
        and all(c["passed"] == expected[c["name"]] for c in checks)
    )


def suite_all(seed: int, workdir: Path):
    expected = expected_suite_counts(seed)
    op = Op(
        "all",
        partial(call_cli, ["all", "--seed", str(seed)]),
        partial(check_suite, expected),
    )
    return [[op]], []


# ---------------------------------------------------------------------------
# instances: `finprob <cmd> --input FILE` over seeded JSON files


def check_instance(expect_code, expect_checks, output) -> bool:
    """The exit code is the generator's answer; ``expect_checks`` maps a
    report check name to the verdict the generator built in, or to a test
    that its first witness must pass."""
    code, text = output
    if code != expect_code:
        return False
    if not expect_checks:
        return True
    try:
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
    except (ValueError, KeyError, TypeError):
        return False
    for name, want in expect_checks.items():
        check = checks.get(name)
        if check is None:
            return False
        if isinstance(want, bool):
            if (check["failed"] == 0) != want:
                return False
        elif not check["witnesses"] or not want(check["witnesses"][0]):
            return False
    return True


def algebra_with_atoms(rng: random.Random, k: int):
    ground = GroundSet(tuple(f"x{i}" for i in range(rng.randint(k, 6))))
    while True:
        algebra = gen.random_algebra(rng, ground)
        if len(algebra.atoms) == k:
            return algebra


def perturbed_leg(point: SimplexPoint) -> SimplexPoint:
    v = point.weights[1]
    v = v + DELTA if v + DELTA <= 1 else v - DELTA
    return SimplexPoint(point.labels, (1 - v, v))


def cone_instance(rng, k: int, perturb: str | None):
    """A measure's cone over the indicator family plus the binary arrows of
    one random function f and of 1 - f.  Each leg integrates its arrow's
    rows against the atom weights, computed here.  Reconstruction reads
    only indicator legs, so a perturbed f leg is caught by naturality alone
    (via the label swap that takes f to 1 - f); a perturbed indicator leg is
    caught by both."""
    algebra = algebra_with_atoms(rng, k)
    f = gen.random_simple_function(rng, algebra, DEN)
    family = list(codensity.indicator_family(algebra))
    extra = codensity.binary_arrow(f)
    for arrow in (extra, codensity.binary_arrow(SimpleFunction(algebra, tuple(1 - v for v in f.values)))):
        if arrow not in family:
            family.append(arrow)
    weights = gen.random_measure(rng, algebra, DEN).weights
    legs = [(arrow, integrated_leg(arrow, weights)) for arrow in family]
    if perturb == "extra":
        hit = family.index(extra)
    elif perturb == "indicator":
        hit = rng.randrange(1, 1 + 2**k)  # family[0] is the collapse arrow
    if perturb:
        arrow, point = legs[hit]
        legs[hit] = (arrow, perturbed_leg(point))
    cone = codensity.Cone("bench", tuple(legs))
    data = {"algebra": serialize.dump_algebra(algebra), "cone": serialize.dump_cone(cone)}
    return data, (1 if perturb else 0), {"naturality": not perturb}


def integrated_leg(arrow, weights) -> SimplexPoint:
    return SimplexPoint(
        arrow.targets,
        tuple(
            sum((w * row.weights[t] for w, row in zip(weights, arrow.rows)), Fraction(0))
            for t in range(len(arrow.targets))
        ),
    )


def terms_json(terms) -> dict:
    return {"terms": [[fraction_text(c), mask_indices(m)] for c, m in terms]}


def reconstruct_instance(rng, broken: str | None):
    """A functional table that integrates a seeded measure, exactly: each
    value is computed here from the terms and the atom weights."""
    algebra = gen.random_algebra(rng, gen.random_ground(rng, 5))
    weights = gen.random_measure(rng, algebra, DEN).weights
    full = algebra.ground.full_mask
    functions = [[(Fraction(1), atom)] for atom in algebra.atoms] + [[(Fraction(1), full)]]
    functions += [list(gen.random_term_list(rng, algebra, DEN).terms) for _ in range(3)]
    family, values, seen = [], [], set()
    for terms in functions:
        by_atom = tuple(sum((c for c, m in terms if m & atom), Fraction(0)) for atom in algebra.atoms)
        if by_atom in seen:
            continue  # one entry per function, so a perturbed value is never overwritten
        seen.add(by_atom)
        family.append(terms)
        values.append(sum((w * v for w, v in zip(weights, by_atom)), Fraction(0)))
    if broken == "atom":  # atom values no longer sum to F(1_X)
        values[0] += DELTA
    elif broken == "family":
        values[rng.randrange(len(values))] += DELTA
    data = {
        "algebra": serialize.dump_algebra(algebra),
        "table": {
            "family": [terms_json(t) for t in family],
            "values": [fraction_text(v) for v in values],
        },
    }
    return data, (1 if broken else 0), {"reconstruct": not broken}


def extend_instance(rng, broken: bool):
    """A premeasure on the singletons or on all intervals [i, j) of an
    ordered ground set; a broken one overstates a two-point interval."""
    n = rng.randint(2, 5)
    weights = gen.random_weights(rng, n, DEN)
    if broken or rng.randrange(2):
        members = [sum(1 << t for t in range(i, j)) for i in range(n) for j in range(i + 1, n + 1)]
    else:
        members = [1 << i for i in range(n)]
    members = sorted([0] + members)  # the wire format lists families in mask order
    mu = [sum((w for i, w in enumerate(weights) if m >> i & 1), Fraction(0)) for m in members]
    if broken:
        mu[members.index(0b11 << rng.randrange(n - 1))] += DELTA
    data = {
        "points": [f"x{i}" for i in range(n)],
        "family": [mask_indices(m) for m in members],
        "mu": [fraction_text(v) for v in mu],
    }
    return data, (1 if broken else 0), {"extend": not broken}


def integrate_instance(rng):
    algebra = gen.random_algebra(rng, gen.random_ground(rng, 5))
    p = gen.random_measure(rng, algebra, DEN)
    f, g = gen.random_bounded_pair(rng, algebra, DEN)
    data = {
        "measure": serialize.dump_measure(p),
        "functions": [serialize.dump_simple_function(f), serialize.dump_simple_function(g)],
    }
    return data, 0, {}


def distance_values_ok(tv: Fraction, discrete: bool, values) -> bool:
    """The LP distance lies within [0, TV]; on a discrete metric both
    methods report TV exactly."""
    try:
        lp = Fraction(values["lp"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False
    if discrete:
        return values == {"lp": fraction_text(tv), "subsets": fraction_text(tv)}
    return 0 <= lp <= tv


def distance_instance(rng):
    space = gen.random_metric(rng, rng.randint(2, 6), DEN)
    p = gen.random_simplex_point(rng, space.points, DEN)
    q = gen.random_simplex_point(rng, space.points, DEN)
    data = {
        "metric": serialize.dump_metric(space),
        "p": [fraction_text(w) for w in p.weights],
        "q": [fraction_text(w) for w in q.weights],
    }
    tv = sum((abs(a - b) for a, b in zip(p.weights, q.weights)), Fraction(0)) / 2
    discrete = all(v == 1 for i, row in enumerate(space.dist) for j, v in enumerate(row) if i != j)
    return data, 0, {"distance": partial(distance_values_ok, tv, discrete)}


def _valid(kind: str, rng) -> dict:
    maker = {
        "codensity": lambda: cone_instance(rng, 2, None),
        "reconstruct": lambda: reconstruct_instance(rng, None),
        "extend": lambda: extend_instance(rng, False),
        "integrate": lambda: integrate_instance(rng),
        "distance": lambda: distance_instance(rng),
    }[kind]
    return maker()[0]


def _mutate(kind: str, change: Callable[[dict], Any]):
    def build(rng):
        data = _valid(kind, rng)
        data["format"] = 1
        change(data)
        return kind, json.dumps(data).encode()

    return build


def _text(kind: str, text: str | bytes):
    return lambda rng: (kind, text if isinstance(text, bytes) else text.encode())


def _truncated(rng):
    text = json.dumps({"format": 1, **_valid("distance", rng)})
    return "distance", text[: len(text) // 2].encode()


# Malformed inputs the loaders reject today (exit 2): the loaders' own error
# paths.  Each entry builds (command, file bytes); None bytes means a path
# that does not exist.
MALFORMED = [
    ("truncated-json", _truncated),
    ("not-an-object", _text("integrate", "[1, 2]")),
    ("format-version", _mutate("reconstruct", lambda d: d.update(format=2))),
    ("bad-rational", _mutate("distance", lambda d: d["p"].__setitem__(0, "1/0"))),
    ("missing-field", _mutate("codensity", lambda d: d.pop("cone"))),
    (
        "index-out-of-range",
        _mutate("reconstruct", lambda d: d["algebra"]["family"].append([9])),
    ),
    ("mu-length", _mutate("extend", lambda d: d["mu"].pop())),
    ("no-functions", _mutate("integrate", lambda d: d.update(functions=[]))),
    ("ragged-metric", _mutate("distance", lambda d: d["metric"]["dist"][0].pop())),
    (
        "measure-mass",
        _mutate("integrate", lambda d: d["measure"]["weights"].update({"0": "2/1"})),
    ),
    ("table-length", _mutate("reconstruct", lambda d: d["table"]["values"].pop())),
    ("missing-file", lambda rng: ("extend", None)),
    (
        "not-a-semiring",
        _mutate("extend", lambda d: d.update(family=[[], [0, 1], [1]], mu=["0/1", "1/1", "1/2"])),
    ),
    (
        "not-an-algebra",
        _mutate("codensity", lambda d: d["algebra"]["family"].pop()),
    ),
]

# ROADMAP item 5's inputs: the CLI should reject each with exit 2, but at the
# seed commit they raise out of `cli.run` or are accepted.  They run once per
# run as a probe outside the timed stream and are reported by name.
HOSTILE = [
    (
        "labels-mismatch",
        _mutate(
            "distance",
            lambda d: d.update(
                p={"labels": [f"z{i}" for i in range(len(d["p"]))], "weights": d["p"]}
            ),
        ),
    ),
    ("empty-cone", _mutate("codensity", lambda d: d.update(cone=[]))),
    ("non-utf8", _text("distance", b'{"format": 1, "p": "\xff\xfe"}')),
    ("deep-nesting", _text("integrate", "[" * 100000 + "]" * 100000)),
    (
        "bool-rational",
        _mutate("distance", lambda d: d.update(p=[True] + [False] * (len(d["p"]) - 1))),
    ),
    (
        "non-string-labels",
        _mutate("distance", lambda d: d["metric"].update(points=list(range(len(d["p"]))))),
    ),
    ("format-true", _mutate("extend", lambda d: d.update(format=True))),
    ("unknown-key", _mutate("integrate", lambda d: d.update(bogus=1))),
]


def file_op(workdir: Path, name: str, command: str, data: bytes | None, expect_code, expect_checks):
    path = workdir / name
    if data is not None:
        path.write_bytes(data)
    return Op(
        command,
        partial(call_cli, [command, "--input", str(path)]),
        partial(check_instance, expect_code, expect_checks),
    )


def json_bytes(data: dict) -> bytes:
    return json.dumps({"format": 1, **data}, sort_keys=True).encode()


def broken_flags(order: random.Random, ways: list) -> list:
    """One entry per instance of a kind: each of ``ways`` once, the rest
    None (a correct instance), in seeded order."""
    flags = list(ways) + [None] * (PER_KIND - len(ways))
    order.shuffle(flags)
    return flags


def instances(seed: int, workdir: Path):
    """Blocks of 28 requests: five of each valid kind and three malformed
    files (about 1 in 10).  The five cones have 1, 2, 3, 4 and 5 atoms:
    "up to 5 atoms", each size equally often.  In each kind that has a
    wrong-answer variant, two of the five instances, drawn by the seed, are
    broken, one in each way: a cone leg perturbed on the f arrow and one on
    an indicator arrow, a table with a wrong atom value and one with a wrong
    test-function value, and (the one way premeasures break here) two
    premeasures that overstate an interval."""
    order = random.Random(f"{seed}/bench/instances/order")
    malformed = list(range(len(MALFORMED)))
    order.shuffle(malformed)
    broken = partial(broken_flags, order)
    blocks = []
    for b in range(INSTANCE_BLOCKS):
        rng = gen.rng_for(seed, "bench-instances", str(b))
        made = [
            ("codensity", *cone_instance(rng, k, how))
            for k, how in zip(range(1, PER_KIND + 1), broken(["extra", "indicator"]))
        ]
        made += [("reconstruct", *reconstruct_instance(rng, how)) for how in broken(["atom", "family"])]
        made += [("extend", *extend_instance(rng, bool(how))) for how in broken([True, True])]
        made += [("integrate", *integrate_instance(rng)) for _ in range(PER_KIND)]
        made += [("distance", *distance_instance(rng)) for _ in range(PER_KIND)]
        block = [
            file_op(workdir, f"b{b}-{i}.json", command, json_bytes(data), code, checks)
            for i, (command, data, code, checks) in enumerate(made)
        ]
        for j in range(MALFORMED_PER_BLOCK):
            name, build = MALFORMED[malformed[(MALFORMED_PER_BLOCK * b + j) % len(MALFORMED)]]
            command, data = build(rng)
            block.append(file_op(workdir, f"b{b}-bad{j}-{name}.json", command, data, 2, {}))
        order.shuffle(block)
        blocks.append(block)
    probe_rng = gen.rng_for(seed, "bench-instances", "hostile")
    probe = []
    for name, build in HOSTILE:
        command, data = build(probe_rng)
        op = file_op(workdir, f"hostile-{name}.json", command, data, 2, {})
        op.kind = name
        probe.append(op)
    return blocks, probe


WORKLOADS = {
    "suite-all": suite_all,
    "instances": instances,
}
