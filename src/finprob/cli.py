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
import operator
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial, reduce
from pathlib import Path
from typing import Iterable, NamedTuple

from . import gen, serialize, workers
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
from .exact import wire_text
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
from .report import FORMATS, CheckOutcome, Report, SuiteConfig, tally
from .represent import (
    Functional,
    WeakIntegrationLattice,
    caratheodory_extend,
    daniell_stone,
    integration_table,
    reconstruct_measure,
    slab_grid,
)
from .setalg import DEFAULT_SIZE_CAP, GroundSet, SemiRing, sigma_of_functions

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


def run_laws(config: SuiteConfig) -> tuple[CheckOutcome, ...]:
    """The monad laws on seeded cases."""
    return check_monad_laws(config)


def run_codensity(config: SuiteConfig) -> list[CheckOutcome]:
    """The measure/cone bijection, then :func:`run_sufficiency` under
    ``sufficiency``.  ``all`` runs the two as rows of :data:`ALL_JOBS`, which
    decides each job's section, process share and place in the report."""
    sufficiency = _prefixed("sufficiency", run_sufficiency(config))
    return [*verify_codensity_bijection(config), *sufficiency]


def run_sufficiency(config: SuiteConfig) -> list[CheckOutcome]:
    """Small-index sufficiency once at each k in {1, 2, 3}: arrows into one
    label must leave the reconstruction undetermined, arrows into two or
    three determine it, where "determined" means the cones of two sampled
    measures differ.  Each k's cases fold into one check, ``k1`` to ``k3``,
    which keeps the first witness.
    In ``all`` its row of :data:`ALL_JOBS` decides its section, process
    share and place in the report."""
    sufficiency = []
    for k in (1, 2, 3):
        determined, reconstruction = small_index_sufficiency(config, k)
        expect_determined = k >= 2
        ok = determined.ok == expect_determined and reconstruction.ok
        witnesses = reconstruction.witnesses[:1] or (
            (f"determined={determined.ok}, expected {expect_determined}",)
            if not ok
            else ()
        )
        sufficiency.append(CheckOutcome(f"k{k}", int(ok), int(not ok), witnesses))
    return sufficiency


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
    half = SimpleFunction.constant(algebra, Fraction(1, 2))
    full = algebra.ground.full_mask
    listed = [SimpleFunction.indicator(algebra, m) for m in (full, *algebra.atoms)]
    table = {s: simple_integral(p, s) for s in (*listed, half)}
    # shift one entry off the integral, down when up would pass 1: 1_X (which
    # integrates to 1, so normalization breaks), the first atom's indicator
    # (atom additivity) or the constant 1/2 (the test family)
    shifted = (listed[0], listed[1], half)[style]
    table[shifted] += bump if table[shifted] + bump <= 1 else -bump
    try:
        reconstruct_measure(Functional(algebra, table))
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
        rebuilt = daniell_stone(lattice, integration_table(hidden, lattice))
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
    scale = rng.randint(1, 4)
    slabs = []
    for _ in range(2):
        draws = [
            sorted(rng.randint(0, 2 * scale) for _ in range(2)) for _ in algebra.atoms
        ]
        slabs.append(tuple(zip(*draws)))  # (lower, upper), integers over scale
    fault = _slab_mask_fault(slabs, scale)
    yield "slab-calculus", fault is None, fault


def _slab_mask_fault(slabs, scale) -> str | None:
    """The first way the cell masks of :func:`~finprob.represent.slab_grid`
    on the bounds of the two ``slabs`` miss the sets they stand for, or
    ``None``.

    Every mask ``above[lower] & below[upper]`` must hold exactly the cells
    whose midpoint lies in ``[lower, upper)`` on their atom; the meet of the
    two slabs' masks must be the mask of their ``(max lower, min upper)``;
    and the semi-ring of all the masks must split each slab's difference
    from the other into disjoint masks covering it.
    """
    family, cells, above, below = slab_grid(
        [bound for slab in slabs for bound in slab], scale
    )
    width = len(cells)
    values = {v for vec in family for v in vec}
    if cells[0][0] != 0 or any(lo < v < hi for v in values for lo, hi in cells):
        return f"cells {cells} over {scale} miss 0 or split a bound in {sorted(values)}"

    def cells_where(inside) -> dict[int, int]:
        """For each bound value, the mask of the cells of one atom whose
        doubled midpoint ``m`` satisfies ``inside(2 * value, m)``."""
        return {
            v: sum(1 << j for j, (lo, hi) in enumerate(cells) if inside(2 * v, lo + hi))
            for v in values
        }

    from_lower = cells_where(int.__le__)
    under_upper = cells_where(int.__gt__)
    masks = []
    for lower in family:
        for upper in family:
            if any(map(int.__gt__, lower, upper)):
                continue
            mask = above[lower] & below[upper]
            expected = 0
            for i, (lo, up) in enumerate(zip(lower, upper)):
                expected |= (from_lower[lo] & under_upper[up]) << i * width
            wrong = mask ^ expected
            if wrong:
                atom, j = divmod((wrong & -wrong).bit_length() - 1, width)
                side = "in" if mask & wrong & -wrong else "missing from"
                return (
                    f"slab [{lower}, {upper}) over {scale}: cell {cells[j]} "
                    f"of atom {atom} is wrongly {side} its mask"
                )
            masks.append(mask)

    (lower_a, upper_a), (lower_b, upper_b) = slabs
    a = above[lower_a] & below[upper_a]
    b = above[lower_b] & below[upper_b]
    meet = (tuple(map(max, lower_a, lower_b)), tuple(map(min, upper_a, upper_b)))
    if a & b != above[meet[0]] & below[meet[1]]:
        return f"meet of {slabs[0]} and {slabs[1]} over {scale} is not {meet}"

    grid = GroundSet(tuple(f"c{bit}" for bit in range(len(lower_a) * width)))
    try:
        semiring = SemiRing(grid, masks)
    except ValueError as exc:
        return f"masks on bounds {slabs} over {scale}: {exc}"
    for x, y in ((a, b), (b, a)):
        pieces = semiring.difference_decomposition(x, y)
        union = reduce(operator.or_, pieces, 0)
        if union != x & ~y or sum(pieces) != union:  # a larger sum means overlap
            shown = ", ".join(map(hex, pieces))
            return f"pieces ({shown}) of {x:#x} minus {y:#x} overlap or miss part of it"
    return None


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
    functions = [
        tuple(combo[a] for a in algebra.point_atoms)
        for combo in itertools.product(grid, repeat=len(algebra.atoms))
    ]
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
    on this grid those are the only integer multiples below 1.

    The growth runs on the functions doubled, as integer vectors, in the
    order they join; ``covered`` holds each member and twice each member,
    so testing a candidate is one lookup."""
    doubled = [tuple(int(2 * v) for v in f) for f in family]
    covered = {tuple(k * x for x in f) for f in doubled for k in (1, 2)}
    grown = True
    while grown:
        grown = False
        for f, g in itertools.product(list(doubled), repeat=2):
            join = tuple(map(max, f, g))
            meet = tuple(map(min, f, g))
            span = tuple(map(operator.sub, join, meet))
            clip = tuple(min(2 * x, 2) for x in f)
            for target in (join, meet, span, clip):
                if target not in covered:
                    doubled.append(target)
                    covered.update((target, tuple(2 * x for x in target)))
                    grown = True
    return [tuple(Fraction(x, 2) for x in f) for f in doubled]


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


# The jobs of `all`, one row per report section in report order: the name
# of the runner of this module that fills the section, looked up when the
# job runs, so that a rebound runner reaches every worker, and its weight.
# The weights fix which process runs each job, and are kept as they are:
# each was the job's percent of a one-process run at the default config
# before the laws and cone suites got faster.  README's `all` paragraph
# gives today's median per job and how it was measured; as weights, those
# times would give the caller a larger share on two CPUs and on three.
ALL_JOBS = {
    "laws.sigma": ("run_laws", 13),
    "laws.finitely_additive": ("run_laws", 13),
    "codensity.sigma": ("verify_codensity_bijection", 7),
    "codensity.finitely_additive": ("verify_codensity_bijection", 7),
    "codensity.sufficiency": ("run_sufficiency", 4),
    "distance": ("run_distance_suite", 2),
    "lipschitz-equivalence": ("run_lipschitz_equivalence", 5),
    "nonexpansive": ("run_nonexpansive", 11),
    "reconstruct": ("run_reconstruction_suite", 7),
    "extend": ("run_extension_suite", 16),
    "integrate": ("run_integrate_suite", 14),
}


def run_all(config: SuiteConfig) -> list[CheckOutcome]:
    """Every suite, each check named under its row's section.  One table,
    :data:`ALL_JOBS`, decides each job's section, its process share and its
    place in the report.  The laws and the bijection have a row under each
    of :data:`~finprob.report.MODE_LABELS`, each label's checks from a run
    of its own, so that every count comes from a run that produced it.

    The eleven runner calls are independent: each draws its cases from its
    own seeded streams.  :func:`~finprob.workers.run_jobs` splits them by
    their costs into fixed shares, one per available CPU, runs one share
    here and forks a process for each other.  The checks are filed here in
    table order, so the report is the same whatever process ran each call.
    A call's exception is raised here."""
    jobs = [lambda name=name: globals()[name](config) for name, _ in ALL_JOBS.values()]
    costs = [cost for _, cost in ALL_JOBS.values()]
    done = workers.run_jobs(jobs, costs)
    return [c for key, checks in zip(ALL_JOBS, done) for c in _prefixed(key, checks)]


# ---------------------------------------------------------------------------
# input-driven commands


def run_distance_input(data: dict) -> tuple[CheckOutcome, ...]:
    """The distance between ``p`` and ``q`` on the given metric: the LP
    always, and the subset maximum beside it when the metric has at most
    :data:`SUBSET_ENUMERATION_CAP` points."""
    space = serialize.load_metric(data["metric"], "$.metric")
    p = serialize.load_simplex(data["p"], "$.p", labels=space.points)
    q = serialize.load_simplex(data["q"], "$.q", labels=space.points)
    values = {"lp": bl_distance_lp(p, q, space)}
    if space.size <= SUBSET_ENUMERATION_CAP:
        values["subsets"] = bl_distance_subsets(p, q)
    # the subset maximum is total variation, and it bounds the lp: 1-Lipschitz
    # tests are among all [0, 1] tests, and on a discrete metric they are all
    tv = total_variation(p, q)
    lp = values["lp"]
    in_range = lp == tv if space.is_discrete() else ZERO <= lp <= tv
    ok = values.get("subsets", tv) == tv and in_range
    witness = {key: wire_text(v) for key, v in values.items()}
    return (CheckOutcome("distance", int(ok), int(not ok), (witness,)),)


def run_codensity_input(data: dict) -> tuple[CheckOutcome, ...]:
    """Check a declared cone's naturality and reconstruct its measure."""
    algebra = serialize.load_algebra(data["algebra"], "$.algebra")
    cone = serialize.load_cone(data["cone"], algebra, "$.cone")
    nat = check_cone_naturality(cone)
    if nat.ok:
        naturality = CheckOutcome("naturality", nat.triangles, 0)
    else:
        witness = f"failing triangle via {nat.witness[1]}"
        naturality = CheckOutcome("naturality", 0, 1, (witness,))
    failure = None if nat.ok else "cone is not natural"
    return naturality, _reconstruct_check(indicator_table(cone), failure)


def run_reconstruct_input(data: dict) -> tuple[CheckOutcome, ...]:
    algebra = serialize.load_algebra(data["algebra"], "$.algebra")
    functional = serialize.load_functional_table(data["table"], algebra, "$.table")
    return (_reconstruct_check(functional),)


def _reconstruct_check(functional, failure=None) -> CheckOutcome:
    """The ``reconstruct`` check: the measure ``functional`` determines, or
    the reconstruction's error, or else ``failure`` when one is given."""
    try:
        measure = reconstruct_measure(functional)
    except (ReconstructionError, PreconditionError) as exc:
        failure = str(exc)
    if failure is not None:
        return CheckOutcome("reconstruct", 0, 1, (failure,))
    return CheckOutcome("reconstruct", 1, 0, (serialize.dump_measure(measure),))


def run_extend_input(data: dict) -> tuple[CheckOutcome, ...]:
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
                "points": list(labels),
                "weight": wire_text(w),
            }
            for labels, w in zip(extension.algebra.atom_points, extension.weights)
        ],
    }
    return (CheckOutcome("extend", 1, 0, (payload,)),)


def run_integrate_input(data: dict) -> tuple[CheckOutcome, ...]:
    measure = serialize.load_measure(data["measure"], "$.measure")
    fns = serialize.load_functions(data["functions"], measure.algebra)
    return check_integral_properties(measure, fns)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


# A command names its runners on this module.  `run` looks them up when the
# command runs, as `run_all` does for ALL_JOBS, so that rebinding a runner
# on this module (a monkeypatch, a tracer) reaches the dispatch.
class Command(NamedTuple):
    help: str
    suite: str
    run_input: str | None = None
    keys: tuple[str, ...] = ()  # top-level instance keys besides "format"
    notes: tuple[str, ...] = ()  # the generated suite's report notes


COMMANDS = {
    "laws": Command("monad law suite", "run_laws", notes=(LAWS_NOTE,)),
    "codensity": Command(
        "measure/cone bijection and small-index sufficiency",
        "run_codensity",
        "run_codensity_input",
        ("algebra", "cone"),
        (CODENSITY_NOTE,),
    ),
    "distance": Command(
        "bounded Lipschitz distances",
        "run_distance_suite",
        "run_distance_input",
        ("metric", "p", "q"),
    ),
    "reconstruct": Command(
        "functional-to-measure reconstruction",
        "run_reconstruction_suite",
        "run_reconstruct_input",
        ("algebra", "table"),
    ),
    "extend": Command(
        "semi-ring premeasure extension",
        "run_extension_suite",
        "run_extend_input",
        ("points", "family", "mu"),
    ),
    "integrate": Command(
        "integral property checks",
        "run_integrate_suite",
        "run_integrate_input",
        ("measure", "functions"),
    ),
    "all": Command(
        "the full verification suite", "run_all", notes=(LAWS_NOTE, CODENSITY_NOTE)
    ),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every command, built once per process: it depends on
    no input.  An option left unset is absent from the parsed namespace, so
    it takes its ``SuiteConfig`` default."""
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
    for key in keys:
        serialize._field(data, key, "$")
    return data


def run(argv=None) -> int:
    """Run one command and print its report; return the exit code.

    Every call parses ``argv`` with the process's one parser
    (:func:`build_parser`) and keeps nothing of its request afterwards: the
    rows an ``--input`` cone shares are loaded once within the call."""
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
            checks, notes = globals()[command.suite](config), command.notes
        else:
            data = _read_input(path, command.keys)
            checks, notes = globals()[command.run_input](data), ()
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
