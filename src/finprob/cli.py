"""Deterministic command-line front end.

Commands load JSON instances or generate seeded cases and run the
verification suites.  Each runner returns its checks; :func:`run` files
them in the command's one report and renders it.  Exit code 0 means every
check passed, 1 means a property was violated, 2 means the input was
malformed, and 3 means finprob itself failed.  Reports are byte-identical
for identical configuration and inputs.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import gen, serialize
from .codensity import (
    check_cone_naturality,
    indicator_table,
    small_index_sufficiency,
    verify_codensity_bijection,
)
from .errors import (
    ExtensionError,
    FinprobError,
    InputError,
    PreconditionError,
    ReconstructionError,
)
from .exact import dot, wire_text
from .integrate import SimpleFunction, check_integral_properties, simple_integral
from .lipmetric import (
    SUBSET_ENUMERATION_CAP,
    bl_distance_lp,
    bl_distance_subsets,
    check_bl_monad_nonexpansive,
    check_lipschitz_criterion_equivalence,
    discrete_space,
    total_variation,
)
from .monad import SimplexPoint, check_monad_laws
from .report import FORMATS, METHODS, CheckOutcome, Mode, Report, SuiteConfig, tally
from .represent import (
    Functional,
    Slab,
    WeakIntegrationLattice,
    caratheodory_extend,
    daniell_stone,
    reconstruct_measure,
    slab_intersect,
    slab_subtract,
)
from .setalg import DEFAULT_SIZE_CAP, SemiRing, sigma_of_functions

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# suite runners: each returns its checks, and `run` files them in a report

LAWS_NOTE = (
    "on finite discrete spaces the Radon- and Baire-style measure monads "
    "coincide with the one checked here, so this suite doubles as their "
    "finite check"
)
CODENSITY_NOTE = (
    "countable-index additivity legs are instantiated with finite index "
    "sets (all but finitely many components zero), the only faithful "
    "finite form"
)


def _prefixed(prefix: str, checks: Iterable[CheckOutcome]) -> list[CheckOutcome]:
    """Each check under the name ``prefix.name``."""
    return [replace(c, name=f"{prefix}.{c.name}") for c in checks]


def run_laws(config: SuiteConfig, modes=None) -> list[CheckOutcome]:
    """The monad laws, run once for each mode label in ``modes`` (default:
    the config's) and named under that label's prefix."""
    checks = []
    for mode in modes or (config.mode,):
        checks += _prefixed(mode.value, check_monad_laws(config))
    return checks


def run_codensity(config: SuiteConfig, modes=None) -> list[CheckOutcome]:
    """The measure/cone bijection, run once for each mode label in ``modes``
    (default: the config's) under that label's prefix, then small-index
    sufficiency once at each k in ``{1, 2, min(config.k, 3)}``: one label
    must leave the reconstruction undetermined, two or more determine it,
    where "determined" means the cones of two sampled measures differ."""
    checks = []
    for mode in modes or (config.mode,):
        checks += _prefixed(mode.value, verify_codensity_bijection(config))
    sufficiency = []
    for k in sorted({1, 2, min(config.k, 3)}):
        determined, reconstruction = small_index_sufficiency(config, k)
        expect_determined = k >= 2
        ok = determined.ok == expect_determined and reconstruction.ok
        witnesses = reconstruction.witnesses or (
            (f"determined={determined.ok}, expected {expect_determined}",)
            if not ok
            else ()
        )
        sufficiency.append(CheckOutcome(f"k{k}", int(ok), int(not ok), witnesses))
    return checks + _prefixed("sufficiency", sufficiency)


def run_distance_suite(config: SuiteConfig) -> tuple[CheckOutcome, ...]:
    """The discrete-metric identity: LP distance, subset maximum, and half
    the L1 distance agree on seeded random pairs."""
    pairs = max(1, 3 * config.cases // 5)
    case = partial(_discrete_identity_case, config)
    identity = gen.run_cases(config.seed, "bl-identity", pairs, ("discrete-identity",), case)

    labels = ("a", "b", "c")
    p = SimplexPoint(labels, (Fraction(1, 2), Fraction(1, 2), ZERO))
    q = SimplexPoint(labels, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    expected = Fraction(1, 3)
    worked = (
        bl_distance_lp(p, q, discrete_space(labels))
        == bl_distance_subsets(p, q)
        == expected
    )
    return *identity, tally("worked-pair", [(worked, f"expected {expected}")])


def _discrete_identity_case(config: SuiteConfig, rng):
    size = rng.randint(2, 8)
    labels = tuple(f"a{i}" for i in range(size))
    space = discrete_space(labels)
    p = gen.random_simplex_point(rng, labels, config.max_denominator)
    q = gen.random_simplex_point(rng, labels, config.max_denominator)
    by_lp = bl_distance_lp(p, q, space)
    by_subsets = bl_distance_subsets(p, q)
    by_l1 = total_variation(p, q)
    yield (
        "discrete-identity",
        by_lp == by_subsets == by_l1,
        lambda: f"lp={by_lp} subsets={by_subsets} l1/2={by_l1}",
    )


def run_lipschitz_equivalence(config: SuiteConfig) -> tuple[CheckOutcome, ...]:
    return check_lipschitz_criterion_equivalence(config).checks


def run_nonexpansive(config: SuiteConfig) -> tuple[CheckOutcome, ...]:
    return check_bl_monad_nonexpansive(config)


def run_reconstruction_suite(config: SuiteConfig) -> tuple[CheckOutcome, ...]:
    round_trips = max(1, 3 * config.cases // 5)
    tenth = max(1, config.cases // 10)
    seed = config.seed
    round_trip = partial(_round_trip_case, config)
    adversarial = partial(_adversarial_case, config)
    lattice = partial(_lattice_case, config, "lattice-route")
    return (
        *gen.run_cases(seed, "reconstruct", round_trips, ("round-trip",), round_trip),
        *gen.run_cases(
            seed, "reconstruct-adversarial", tenth, ("adversarial-detection",), adversarial
        ),
        *gen.run_cases(seed, "reconstruct-lattice", tenth, ("lattice-route",), lattice),
    )


def _round_trip_case(config: SuiteConfig, rng):
    algebra = gen.random_algebra(rng, gen.random_ground(rng, config.max_ground_size))
    p = gen.random_measure(rng, algebra, config.max_denominator)
    family = [
        gen.random_simple_function(rng, algebra, config.max_denominator)
        for _ in range(3)
    ]
    family += [
        SimpleFunction.indicator(algebra, mask)
        for mask in algebra.atoms + (algebra.ground.full_mask,)
    ]
    try:
        back = reconstruct_measure(
            Functional(algebra, {s: simple_integral(p, s) for s in family})
        )
    except ReconstructionError as exc:
        yield "round-trip", False, str(exc)
    else:
        yield "round-trip", back == p, lambda: f"{p.weights} -> {back.weights}"


def _adversarial_case(config: SuiteConfig, rng):
    algebra = gen.random_algebra(rng, gen.random_ground(rng, config.max_ground_size))
    p = gen.random_measure(rng, algebra, config.max_denominator)
    style = rng.randrange(3)
    one_atom = len(algebra.atoms) == 1  # then style 1 bumps 1_X itself
    expected = (
        "normalization violated",
        "normalization violated" if one_atom else "additivity violated: the ground set",
        "additivity violated on the test family",
    )[style]
    bump = Fraction(1, 2 * config.max_denominator)
    full = algebra.ground.full_mask

    def oracle(s: SimpleFunction) -> Fraction:
        value = simple_integral(p, s)
        delta = bump if value + bump <= 1 else -bump
        if style == 0 and s == SimpleFunction.indicator(p.algebra, full):
            return value - bump  # break normalization
        if style == 1 and s == SimpleFunction.indicator(p.algebra, p.algebra.atoms[0]):
            return value + delta  # break atom additivity
        if style == 2 and set(s.values) == {Fraction(1, 2)}:
            return value + delta  # break the test family
        return value

    half = SimpleFunction.constant(algebra, Fraction(1, 2))
    listed = [SimpleFunction.indicator(algebra, m) for m in (full, *algebra.atoms)]
    listed.append(half)
    try:
        reconstruct_measure(Functional(algebra, {s: oracle(s) for s in listed}))
    except ReconstructionError as exc:
        matches = str(exc).startswith(expected) and (
            style < 2 or any(failure[0] == half for failure in exc.witness)
        )
        yield "adversarial-detection", matches, f"wrong witness for style {style}"
    else:
        yield "adversarial-detection", False, f"style {style} violation undetected"


def _lattice_case(config: SuiteConfig, name: str, rng):
    """The check ``name``: Daniell-Stone on a random grid lattice must
    rebuild the hidden measure."""
    lattice, hidden = _random_grid_lattice(rng, config.max_denominator)
    try:
        rebuilt = daniell_stone(lattice, _integration_table(hidden, lattice))
    except FinprobError as exc:
        yield name, False, str(exc)
    else:
        yield name, rebuilt == hidden, lambda: f"{hidden.weights} -> {rebuilt.weights}"


def run_extension_suite(config: SuiteConfig) -> tuple[CheckOutcome, ...]:
    fifth = max(1, config.cases // 5)
    seed = config.seed
    singleton = partial(_singleton_case, config)
    lattice = partial(_lattice_case, config, "lattice-representation")
    return (
        *gen.run_cases(seed, "slabs", config.cases, ("slab-calculus",), _slab_case),
        *gen.run_cases(seed, "caratheodory", fifth, ("singleton-extension",), singleton),
        *gen.run_cases(seed, "daniell", fifth, ("lattice-representation",), lattice),
    )


def _slab_case(rng):
    algebra = gen.random_algebra(rng, gen.random_ground(rng, 4))
    a = _random_slab(rng, algebra, 4)
    b = _random_slab(rng, algebra, 4)
    yield (
        "slab-calculus",
        _slab_calculus_agrees(a, b),
        lambda: f"a=[{a.lower},{a.upper}) b=[{b.lower},{b.upper})",
    )


def _singleton_case(config: SuiteConfig, rng):
    ground = gen.random_ground(rng, 4)
    semiring = SemiRing(ground, (0,) + tuple(1 << i for i in range(ground.size)))
    weights = gen.random_weights(rng, ground.size, config.max_denominator)
    mu = {0: ZERO}
    mu.update({1 << i: w for i, w in enumerate(weights)})
    extension = caratheodory_extend(semiring, mu)
    recovered = all(extension.value(1 << i) == w for i, w in enumerate(weights))
    yield (
        "singleton-extension",
        recovered and extension.mass == 1,
        lambda: f"weights {weights} not recovered",
    )


def _random_slab(rng, algebra, max_denominator) -> Slab:
    lower, upper = [], []
    for _ in algebra.atoms:
        d = rng.randint(1, max_denominator)
        x = Fraction(rng.randint(0, 2 * d), d)
        y = Fraction(rng.randint(0, 2 * d), d)
        lower.append(min(x, y))
        upper.append(max(x, y))
    return Slab(algebra, tuple(lower), tuple(upper))


def _slab_calculus_agrees(a: Slab, b: Slab) -> bool:
    """Extensional soundness of intersection and subtraction on the
    breakpoint grid (breakpoints and midpoints of consecutive ones)."""
    points = a.algebra.ground.points
    values = sorted(set(a.breakpoints()) | set(b.breakpoints()) | {ZERO})
    probes = list(values)
    probes += [(x + y) / 2 for x, y in zip(values, values[1:])]
    probes.append(values[-1] + 1)

    meet = slab_intersect(a, b)
    pieces = slab_subtract(a, b)
    for x in points:
        for t in probes:
            in_a, in_b = a.contains(x, t), b.contains(x, t)
            if meet.contains(x, t) != (in_a and in_b):
                return False
            hits = [piece.contains(x, t) for piece in pieces]
            if sum(hits) != int(in_a and not in_b):
                return False  # also catches overlapping pieces
    return True


def _random_grid_lattice(rng, max_denominator):
    """A weak integration lattice on a small random algebra, plus a hidden
    measure on the algebra its functions generate.

    Half the draws are the full value grid with denominator 1 or 2.  The
    others are sparse: 0, 1 and one function of the denominator-2 grid,
    closed here without :func:`check_weak_lattice`, so that a fault in its
    multiple search cannot shape the lattices it is tested on.  A sparse
    lattice can need multipliers above 1: {(0, 1/2), (1, 0)} closes to
    {(0, 1/2), (1, 0), (1, 1/2), 1}, where the span of 1 and (1, 0) is
    2 * (0, 1/2).
    """
    ground = gen.random_ground(rng, 3)
    algebra = gen.random_algebra(rng, ground)
    sparse = rng.randrange(2)
    denominator = 2 if sparse else rng.randint(1, 2)
    grid = [Fraction(i, denominator) for i in range(denominator + 1)]
    functions = []
    for combo in itertools.product(grid, repeat=len(algebra.atoms)):
        by_point = [ZERO] * ground.size
        for atom, v in zip(algebra.atoms, combo):
            for i in range(ground.size):
                if atom >> i & 1:
                    by_point[i] = v
        functions.append(tuple(by_point))
    if sparse:
        functions = _closed_half_grid(
            [(ZERO,) * ground.size, (ONE,) * ground.size, rng.choice(functions)]
        )
    lattice = WeakIntegrationLattice(ground, tuple(functions))
    sigma = sigma_of_functions(ground, lattice.functions)
    return lattice, gen.random_measure(rng, sigma, max_denominator)


def _closed_half_grid(family: list) -> list:
    """``family`` of functions valued in {0, 1/2, 1}, grown until each join,
    meet, span and clip ``min(2f, 1)`` of members is a member or twice one:
    on this grid those are the only integer multiples below 1."""
    grown = True
    while grown:
        grown = False
        for f, g in itertools.product(list(family), repeat=2):
            join = tuple(map(max, f, g))
            meet = tuple(map(min, f, g))
            span = tuple(a - b for a, b in zip(join, meet))
            clip = tuple(min(2 * v, ONE) for v in f)
            for target in (join, meet, span, clip):
                if target not in family and tuple(v / 2 for v in target) not in family:
                    family.append(target)
                    grown = True
    return family


def _integration_table(p, lattice) -> dict:
    """Each lattice function's integral against ``p``, a measure on the
    lattice's generated algebra: its values at one point of each atom,
    weighted by the atoms' masses."""
    points = [(atom & -atom).bit_length() - 1 for atom in p.algebra.atoms]
    return {f: dot(p.weights, [f[i] for i in points]) for f in lattice.functions}


def run_integrate_suite(config: SuiteConfig) -> tuple[CheckOutcome, ...]:
    case = partial(_integral_case, config)
    return gen.run_cases(config.seed, "integral", config.cases, ("properties",), case)


def _integral_case(config: SuiteConfig, rng):
    algebra = gen.random_algebra(rng, gen.random_ground(rng, config.max_ground_size))
    p = gen.random_measure(rng, algebra, config.max_denominator)
    f = gen.random_term_list(rng, algebra, config.max_denominator)
    g = gen.random_addend(rng, f, config.max_denominator)
    failing = [c.name for c in check_integral_properties(p, [f, g]) if not c.ok]
    yield "properties", not failing, f"clauses {failing} failed"


def run_all(config: SuiteConfig) -> list[CheckOutcome]:
    """Every suite, each check named under its suite's prefix.  The laws and
    the bijection run once under each mode label: the labels select the
    same checks, but each prefix counts only outcomes its own run
    produced."""
    both = (Mode.SIGMA, Mode.FINITELY_ADDITIVE)
    return [
        *_prefixed("laws", run_laws(config, modes=both)),
        *_prefixed("codensity", run_codensity(config, modes=both)),
        *_prefixed("distance", run_distance_suite(config)),
        *_prefixed("lipschitz-equivalence", run_lipschitz_equivalence(config)),
        *_prefixed("nonexpansive", run_nonexpansive(config)),
        *_prefixed("reconstruct", run_reconstruction_suite(config)),
        *_prefixed("extend", run_extension_suite(config)),
        *_prefixed("integrate", run_integrate_suite(config)),
    ]


# ---------------------------------------------------------------------------
# input-driven commands


def run_distance_input(config: SuiteConfig, data: dict) -> tuple[CheckOutcome, ...]:
    space = serialize.load_metric(data.get("metric"), "$.metric")
    p = serialize.load_simplex(data.get("p"), "$.p", labels=space.points)
    q = serialize.load_simplex(data.get("q"), "$.q", labels=space.points)
    if config.method != "lp" and space.size > SUBSET_ENUMERATION_CAP:
        raise InputError(
            f"subset enumeration is capped at {SUBSET_ENUMERATION_CAP} points; "
            "use --method lp",
            "$.metric.points",
        )
    values = {}
    if config.method in ("lp", "both"):
        values["lp"] = bl_distance_lp(p, q, space)
    if config.method in ("subsets", "both"):
        values["subsets"] = bl_distance_subsets(p, q)
    # the subset maximum is total variation, and it bounds the lp: 1-Lipschitz
    # tests are among all [0, 1] tests, and on a discrete metric they are all
    tv = total_variation(p, q)
    lp = values.get("lp", tv)
    in_range = lp == tv if space.is_discrete() else ZERO <= lp <= tv
    ok = values.get("subsets", tv) == tv and in_range
    witness = {key: wire_text(v) for key, v in values.items()}
    return (CheckOutcome("distance", int(ok), int(not ok), (witness,)),)


def run_codensity_input(config: SuiteConfig, data: dict) -> tuple[CheckOutcome, ...]:
    """Check a declared cone's naturality and reconstruct its measure."""
    algebra = serialize.load_algebra(data.get("algebra"), "$.algebra")
    cone = serialize.load_cone(data.get("cone"), algebra, "$.cone")
    nat = check_cone_naturality(cone)
    if nat.ok:
        naturality = CheckOutcome("naturality", nat.triangles, 0)
    else:
        witness = f"failing triangle via {nat.witness[1]}"
        naturality = CheckOutcome("naturality", 0, 1, (witness,))
    failure = None if nat.ok else "cone is not natural"
    return naturality, _reconstruct_check(config, indicator_table(cone), failure)


def run_reconstruct_input(config: SuiteConfig, data: dict) -> tuple[CheckOutcome, ...]:
    algebra = serialize.load_algebra(data.get("algebra"), "$.algebra")
    functional = serialize.load_functional_table(
        data.get("table"), algebra, "$.table"
    )
    return (_reconstruct_check(config, functional),)


def _reconstruct_check(config: SuiteConfig, functional, failure=None) -> CheckOutcome:
    """The ``reconstruct`` check: the measure ``functional`` determines, or
    the reconstruction's error, or else ``failure`` when one is given."""
    try:
        measure = reconstruct_measure(functional)
    except (ReconstructionError, PreconditionError) as exc:
        failure = str(exc)
    if failure is not None:
        return CheckOutcome("reconstruct", 0, 1, (failure,))
    return CheckOutcome("reconstruct", 1, 0, (serialize.dump_measure(measure, config.mode),))


def run_extend_input(config: SuiteConfig, data: dict) -> tuple[CheckOutcome, ...]:
    """Extend the premeasure that gives ``mu[i]`` to the i-th listed set."""
    semiring, mu = serialize.load_premeasure(data)
    try:
        extension = caratheodory_extend(semiring, mu)
    except ExtensionError as exc:
        return (CheckOutcome("extend", 0, 1, (str(exc),)),)
    payload = {
        "mass": wire_text(extension.mass),
        "atoms": [
            {
                "points": list(extension.algebra.ground.labels_of(atom)),
                "weight": wire_text(w),
            }
            for atom, w in zip(extension.algebra.atoms, extension.weights)
        ],
    }
    return (CheckOutcome("extend", 1, 0, (payload,)),)


def run_integrate_input(config: SuiteConfig, data: dict) -> tuple[CheckOutcome, ...]:
    measure = serialize.load_measure(data.get("measure"), "$.measure")
    fns = serialize.load_functions(data.get("functions"), measure.algebra)
    return check_integral_properties(measure, fns)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class Command(NamedTuple):
    help: str
    suite: Callable[[SuiteConfig], Sequence[CheckOutcome]]
    run_input: Callable[[SuiteConfig, dict], Sequence[CheckOutcome]] | None = None
    keys: tuple[str, ...] = ()  # top-level instance keys besides "format"
    notes: tuple[str, ...] = ()  # the generated suite's report notes


# The lambdas look each runner up when they are called, so that rebinding a
# runner on this module (a monkeypatch, a tracer) also reaches the dispatch.
COMMANDS = {
    "laws": Command("monad law suite", lambda c: run_laws(c), notes=(LAWS_NOTE,)),
    "codensity": Command(
        "measure/cone bijection and small-index sufficiency",
        lambda c: run_codensity(c),
        lambda c, data: run_codensity_input(c, data),
        ("algebra", "cone"),
        (CODENSITY_NOTE,),
    ),
    "distance": Command(
        "bounded Lipschitz distances",
        lambda c: run_distance_suite(c),
        lambda c, data: run_distance_input(c, data),
        ("metric", "p", "q"),
    ),
    "reconstruct": Command(
        "functional-to-measure reconstruction",
        lambda c: run_reconstruction_suite(c),
        lambda c, data: run_reconstruct_input(c, data),
        ("algebra", "table"),
    ),
    "extend": Command(
        "semi-ring premeasure extension",
        lambda c: run_extension_suite(c),
        lambda c, data: run_extend_input(c, data),
        ("points", "family", "mu"),
    ),
    "integrate": Command(
        "integral property checks",
        lambda c: run_integrate_suite(c),
        lambda c, data: run_integrate_input(c, data),
        ("measure", "functions"),
    ),
    "all": Command(
        "the full verification suite",
        lambda c: run_all(c),
        notes=(LAWS_NOTE, CODENSITY_NOTE),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command.  An option left unset is absent from
    the parsed namespace, so it takes its ``SuiteConfig`` default."""
    parser = argparse.ArgumentParser(
        prog="finprob",
        description="Exact verification suites for finite probability structures.",
        formatter_class=argparse.RawTextHelpFormatter,
        argument_default=argparse.SUPPRESS,
    )
    commands = "\n".join(f"{name:<12} {c.help}" for name, c in COMMANDS.items())
    parser.add_argument("command", choices=COMMANDS, metavar="command", help=commands)
    defaults = SuiteConfig().to_payload()

    def option(flag, dest, text, **kwargs):
        text = f"{text}; default {defaults[dest]}"
        parser.add_argument(flag, dest=dest, help=text, **kwargs)

    option("--seed", "seed", "case generator seed", type=int)
    option("--cases", "cases", "seeded cases per suite", type=int)
    size = f"largest ground set, at most {DEFAULT_SIZE_CAP}"
    option("--size", "max_ground_size", size, type=int)
    option("--denominator", "max_denominator", "largest denominator", type=int)
    labels = [m.value for m in Mode]
    option("--mode", "mode", "report label; both run the same checks", choices=labels)
    option("--method", "method", "how distance --input computes", choices=METHODS)
    option("--k", "k", "largest sufficiency index", type=int)
    formats = "how the report is rendered; default %(default)s"
    parser.add_argument("--format", choices=FORMATS, default=FORMATS[0], help=formats)
    takers = ", ".join(name for name, c in COMMANDS.items() if c.run_input)
    parser.add_argument(
        "--input",
        help="JSON instance file ('-' for stdin); omit to run generated cases;\n"
        f"taken by {takers}",
    )
    return parser


def _read_input(path: str, keys: tuple[str, ...]) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        message = f"input is not UTF-8: {exc.reason} at byte {exc.start}"
        raise InputError(message, "$") from None
    data = serialize.loads_instance(text)
    for key in data:
        if key != "format" and key not in keys:
            raise InputError(f"unknown key {key!r}", f"$.{key}")
    return data


def run(argv=None) -> int:
    """Run one command and print its report; return the exit code."""
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    name = options.pop("command")
    command = COMMANDS[name]
    fmt = options.pop("format")
    path = options.pop("input", None)
    if path is not None and command.run_input is None:
        parser.error(f"unrecognized arguments: --input {path}")
    started = time.monotonic()
    try:
        config = SuiteConfig(**options)
        if path is None:
            checks, notes = command.suite(config), command.notes
        else:
            checks, notes = command.run_input(config, _read_input(path, command.keys)), ()
        report = Report(name, config.to_payload(), tuple(checks), notes)
        wall_time = time.monotonic() - started
        text = report.render(fmt)
    except InputError as exc:
        print(f"input error at {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of finprob's, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    print(f"wall time: {wall_time:.3f}s", file=sys.stderr)
    return 0 if report.ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
