"""Seeded faults, one row each, and a gate: every distinct check behind
`finprob all` fails under at least one row, so every pass it counts comes
from a check that could have failed (DeMillo, Lipton and Sayward, "Hints on
test data selection", IEEE Computer, 1978).

A row patches finprob bindings, each named by its dotted path under
``finprob`` and given a wrapper of the real binding, and runs one runner at
one config.  For each check the fault changes, it pins ``(passed, failed)``
and, for a failing check, the witnesses: an exact tuple, or a pattern that
each kept witness matches in full.  The checks a row does not name must
report exactly as they do clean, and a command must exit 1.  The same runner
at the same config with no fault must pass every check; that clean run
happens once per runner and config, and rows share it.  So a fault that does
nothing fails its row."""

import itertools
import json
import re
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce
from typing import Callable, NamedTuple

import conftest
import pytest

import finprob
from finprob import (
    Algebra,
    FiniteMetricSpace,
    GroundSet,
    Measure,
    MetaMeasure,
    ReconstructionError,
    SimpleFunction,
    check_bl_monad_nonexpansive,
    check_integral_properties,
    dirac,
    uniform,
)
from finprob import cli
from finprob.codensity import NaturalityResult
from finprob.linprog import LPResult
from finprob.report import MAX_WITNESSES, SuiteConfig
from finprob.represent import ExtensionResult


class Run(NamedTuple):
    """``runner(*args)``, with each ``(binding, value)`` of ``constants``
    patched in, both when it runs clean and when it runs faulted."""

    runner: Callable
    args: tuple
    constants: tuple = ()


class Row(NamedTuple):
    id: str
    patches: dict  # {binding: wrapper}, where wrapper(real) is the fault
    run: Run
    checks: dict  # {check name: (passed, failed)} or (passed, failed, witnesses)


def binding(path):
    """``(owner, name)`` of a dotted path under ``finprob``, such as
    ``"cli.slab_grid"`` or ``"setalg.SemiRing.difference_decomposition"``."""
    owner, _, name = path.rpartition(".")
    return reduce(getattr, owner.split("."), finprob), name


def suite(runner, *args, constants=(), **config):
    return Run(runner, (SuiteConfig(**config), *args), constants)


def command(*argv, stdin=None):
    """``finprob ARGV`` in this process: its exit code, its stderr and its
    JSON report's checks."""
    code, out, err = conftest.finprob(argv, stdin)
    checks = json.loads(out)["checks"]
    checks = {c["name"]: (c["passed"], c["failed"], tuple(c["witnesses"])) for c in checks}
    return code, err, checks


def with_input(name, instance):
    """``finprob NAME --input -`` in this process, with the JSON text
    ``instance`` on stdin."""
    return command(name, "--input", "-", stdin=instance)


def outcome(run):
    """``(exit code, stderr, {check name: (passed, failed, witnesses)})``; a
    suite function has no exit code and no stderr."""
    result = run.runner(*run.args)
    if run.runner in (command, with_input):
        return result
    return None, "", {c.name: (c.passed, c.failed, c.witnesses) for c in result}


# --- the faults: each wrapper takes the real binding and returns the fault ----


def fault(function):
    """The wrapper of ``function(real, *args)``, which takes the real binding
    first."""
    return lambda real: lambda *args: function(real, *args)


def on_calls(chosen, function):
    """The wrapper that gives the calls whose number, counted from 1,
    ``chosen`` accepts to ``function(real, *args)``, and the others to the
    real binding."""

    def wrapper(real):
        calls = itertools.count(1)
        return lambda *args: function(real, *args) if chosen(next(calls)) else real(*args)

    return wrapper


def adds(amount):
    return fault(lambda real, *args: real(*args) + amount)


def scales(factor):
    return fault(lambda real, *args: real(*args) * factor)


def next_point(points, x):
    return points[(points.index(x) + 1) % len(points)]


uniform_cone = fault(lambda real, p, arrows: real(uniform(p.algebra), arrows))
unit_on_next_point = fault(
    lambda real, x, algebra: real(next_point(algebra.ground.points, x), algebra)
)
drops_last_term = fault(
    lambda real, p, f: real(p, replace(f, terms=f.terms[:-1]) if f.terms else f)
)
halve_subset_sums = fault(lambda real, weights: [F(s, 2) for s in real(weights)])
reversed_scale = fault(lambda real, f, r: real(f, 1 - F(r)))
first_piece_dropped = fault(lambda real, *args: real(*args)[1:])
drop_rows_below_a_half = fault(
    lambda real, space: [(i, j) for i, j in real(space) if space.dist[i][j] >= F(1, 2)]
)
# a direction index keyed by the raw vectors, without the gcd division
raw_direction = fault(lambda real, vec: tuple(vec) if any(vec) else None)
# every third cone fails naturality, with the triangles it checked
every_third_cone_fails = on_calls(
    lambda n: n % 3 == 0,
    lambda real, *args: NaturalityResult(False, real(*args).triangles, (None, "seeded fault")),
)


def raises_seeded_fault(real, functional):
    raise ReconstructionError("seeded fault")


second_reconstruction_raises = on_calls(lambda n: n == 2, raises_seeded_fault)


@fault
def distance_off(real, p, q, space):
    """bench/faults.py's ``distance-off``: every LP distance 1/1000 too large."""
    value, f = real(p, q, space)
    return value + F(1, 1000), f


@fault
def short_off_discrete(real, p, q, space):
    """An LP 9/10 of the optimum wherever the metric is not discrete: it
    stays within every bound."""
    value, f = real(p, q, space)
    return (value if space.is_discrete() else value * F(9, 10)), f


def rejects_optimum(solution):
    """An LP whose optimal test function ``LipschitzFunction`` rejects."""

    @fault
    def rejected(real, *lp):
        result = real(*lp)
        return LPResult(result.value, solution(result.solution))

    return rejected


@fault
def accepts_uniform(real, functional):
    """A reconstruction that returns the uniform measure where it would raise."""
    try:
        return real(functional)
    except ReconstructionError:
        return uniform(functional.algebra)


@fault
def misreports_atom_mass(real, functional):
    """The atom-mass failure reported as a failed normalization, the wrong
    clause, so the style-1 cases on algebras of more than one atom fail."""
    try:
        return real(functional)
    except ReconstructionError as exc:
        if str(exc).startswith("additivity violated: the ground set"):
            raise ReconstructionError(
                "normalization violated: the atoms miss total mass one", witness=exc.witness
            ) from None
        raise


def one_wrong_reconstruction(real):
    """The first reconstruction on two or more atoms gives the point mass on
    a lightest atom, which differs from any measure on 2+ atoms."""
    faulted = []

    def one_wrong(functional):
        back = real(functional)
        if faulted or len(back.weights) < 2:
            return back
        faulted.append(back)
        light = min(range(len(back.weights)), key=back.weights.__getitem__)
        return dirac(back.algebra.ground.labels_of(back.algebra.atoms[light])[0], back.algebra)

    return one_wrong


def q_gets_p_legs(real):
    """Each case takes p's cone, then q's: q gets p's legs, so the legs
    agree while the measures differ."""
    cones = []

    def p_legs(p, family):
        cones.append(cones[-1] if len(cones) % 2 else real(p, family))
        return cones[-1]

    return p_legs


@fault
def swaps_two_weights(real, m):
    p = real(m)
    w = list(p.weights)
    if len(w) > 1:
        w[0], w[1] = w[1], w[0]
    return Measure(p.algebra, tuple(w))


@fault
def shifts_mass(real, *args):
    """Half of the heaviest atom's weight moved to the next atom."""
    p = real(*args)
    weights = list(p.weights)
    if len(weights) < 2:
        return p
    i = max(range(len(weights)), key=weights.__getitem__)
    j = (i + 1) % len(weights)
    weights[i], weights[j] = weights[i] / 2, weights[j] + weights[i] / 2
    return Measure(p.algebra, tuple(weights))


@fault
def unit_meta_on_next_point(real, p):
    """Each atom's mass given to the Dirac measure of the next atom's point,
    which breaks ``mult . eta = id`` on every measure that is not invariant
    under that shift."""
    points = [p.algebra.ground.labels_of(atom)[0] for atom in p.algebra.atoms]
    diracs = ((n, dirac(next_point(points, x), p.algebra)) for n, x in zip(p.nums, points) if n)
    return MetaMeasure.merge(diracs, p.den)


@fault
def shifts_three_valued(real, p, s):
    """Additive no more on functions of three or more values."""
    value = real(p, s)
    return value + F(1, 97) if len(set(s.values)) > 2 else value


@fault
def bumps_single_atom_functions(real, p, s):
    """1/100 added to the integral of every function nonzero on exactly one
    atom: (1/2, 1/2) under the uniform measure lies on two atoms, so its own
    integral is right, but each atom's best piece is 1/100 too large."""
    value = real(p, s)
    return value + F(1, 100) if sum(v != 0 for v in s.values) == 1 else value


@fault
def moves_atom_zero_to_one(real, semiring, mu):
    ext = real(semiring, mu)
    if len(ext.nums) < 2:
        return ext
    nums = [0, ext.nums[0] + ext.nums[1], *ext.nums[2:]]
    return ExtensionResult(ext.algebra, ext.den, nums, ext.covered)


def cell_masks(cells, covers):
    """Per bound vector, the mask of the cells ``(lo, hi)`` on each atom with
    ``covers(v, lo, hi)`` for the vector's value ``v`` there."""
    return lambda vec: sum(
        1 << i * len(cells) + j
        for i, v in enumerate(vec)
        for j, (lo, hi) in enumerate(cells)
        if covers(v, lo, hi)
    )


@fault
def above_off_by_one(real, seeds, scale):
    family, cells, above, below = real(seeds, scale)
    shifted = cell_masks(cells, lambda v, lo, hi: v <= hi)  # one cell too low
    return family, cells, {vec: shifted(vec) for vec in family}, below


@fault
def below_strict(real, seeds, scale):
    family, cells, above, below = real(seeds, scale)
    strict = cell_masks(cells, lambda v, lo, hi: hi < v)  # `<` for `<=`
    return family, cells, above, {vec: strict(vec) for vec in family}


@fault
def last_atom_dropped(real, seeds, scale):
    family, cells, above, below = real(seeds, scale)
    keep = (1 << (len(family[0]) - 1) * len(cells)) - 1
    return family, cells, {vec: mask & keep for vec, mask in above.items()}, below


@fault
def grid_skipping_a_bound(real, seeds, scale):
    """:func:`slab_grid` with the least bound value other than 0 and
    ``scale`` missing from the breakpoints, and its masks built on the
    coarser cells."""
    family, cells, _, _ = real(seeds, scale)
    breakpoints = [lo for lo, _ in cells] + [cells[-1][1]]
    inner = sorted({v for vec in family for v in vec} - {0, scale})
    if inner:
        breakpoints.remove(inner[0])
    cells = list(zip(breakpoints, breakpoints[1:]))
    above = cell_masks(cells, lambda v, lo, hi: v <= lo)
    below = cell_masks(cells, lambda v, lo, hi: hi <= v)
    return family, cells, {v: above(v) for v in family}, {v: below(v) for v in family}


@fault
def cell_moved_below_under_the_top(real, seeds, scale):
    """For every bound under atom 1's top value, the last cell of atom 0,
    which lies past atom 0's top value, moves from ``above`` to ``below``.
    No slab ``lower <= upper`` holds it, so only the meet of two slabs that
    are disjoint on atom 1 shows it."""
    family, cells, above, below = real(seeds, scale)
    if len(family[0]) < 2 or cells[-1][0] < max(vec[0] for vec in family):
        return family, cells, above, below
    cell, top = 1 << len(cells) - 1, max(vec[1] for vec in family)
    under = {vec for vec in family if vec[1] < top}
    above = {vec: m & ~cell if vec in under else m for vec, m in above.items()}
    below = {vec: m | cell if vec in under else m for vec, m in below.items()}
    return family, cells, above, below


@fault
def seeds_without_their_closure(real, seeds, scale):
    """The bound family as the seeds alone, without their join/meet closure;
    the cells and masks are still the real grid's."""
    _, cells, above, below = real(seeds, scale)
    return sorted(set(seeds)), cells, above, below


# --- the runs and the witnesses that rows share -------------------------------


def clauses(p, *functions):
    return Run(check_integral_properties, (p, functions))


def distance_input(dist, p, q):
    instance = {"format": 1, "metric": {"points": ["a", "b", "c"], "dist": dist}, "p": p, "q": q}
    return Run(with_input, ("distance", json.dumps(instance)))


Z, H, W, T = "0/1", "1/2", "1/1", F(1, 3)  # zero, a half, a whole, a third
# three points at mutual distance 1/2: the bounded Lipschitz distance of these
# two point masses is 1/2, their total variation 1
HALF_TRIANGLE = distance_input([[Z, H, H], [H, Z, H], [H, H, Z]], [W, Z, Z], [Z, W, Z])
DISCRETE_PAIR = distance_input([[Z, W, W], [W, Z, W], [W, W, Z]], [H, H, Z], ["1/3"] * 3)
THIRDS = FiniteMetricSpace(("a", "b", "c"), ((0, T, T), (T, 0, T), (T, T, 0)))
TWO_POINTS = Algebra.powerset(GroundSet(("0", "1")))
THREE_POINTS = Algebra.powerset(GroundSet(("0", "1", "2")))
# the 2/3/3 sweep: 2/2/2 misses the scaled total variation, and 2/3/3 catches
# both sweep faults
SWEEP_2_3_3 = (
    ("lipmetric.SWEEP_MAX_SPACE", 2),
    ("lipmetric.SWEEP_MAX_LABELS", 3),
    ("lipmetric.SWEEP_MAX_DENOMINATOR", 3),
)

LAWS_60 = Run(command, ("laws", "--cases", "60"))
BIJECTION_25 = suite(cli.verify_codensity_bijection, seed=0, cases=25)  # 10 cases
BIJECTION_50 = suite(cli.verify_codensity_bijection, seed=0, cases=50)  # 20 cases
SUFFICIENCY = suite(cli.run_sufficiency, cases=50)
RECONSTRUCTION = suite(cli.run_reconstruction_suite, seed=0)
NONEXPANSIVE = suite(cli.run_nonexpansive)  # the suite as `finprob all` runs it
THIRDS_20 = Run(check_bl_monad_nonexpansive, (SuiteConfig(cases=20), THIRDS))  # 4 cases
SWEEP = suite(cli.run_lipschitz_equivalence, seed=0, cases=1000, constants=SWEEP_2_3_3)
EXTENSION_50 = suite(cli.run_extension_suite, cases=50)
INTEGRATE_50 = suite(cli.run_integrate_suite, seed=0, cases=50)
DISTANCE_60 = suite(cli.run_distance_suite, cases=60)
HALF_ON_TWO_POINTS = clauses(uniform(TWO_POINTS), SimpleFunction.constant(TWO_POINTS, F(1, 2)))
THREE_LEVELS = clauses(
    Measure(THREE_POINTS, (F(1, 2), F(1, 3), F(1, 6))),
    SimpleFunction(THREE_POINTS, (F(1, 2), F(1), F(0))),
)

CASE = r"case \d+: "
MAPPED = CASE + r"\(.*\) -> \(.*\)"  # a measure and what came back for it
SWEPT_MAP = r"n=2 m=[23] dist=\(.*\) map=\(\d+, \d+\)"
SPOT_CHECK = r"lp spot check disagrees on dist=\(.*\) map=\(.*\)"
UNIT_PAIR = CASE + r"unit pair \(\w+,\w+\): "
OUTSIDE, STEEP = r"value 2 outside \[0, 1\]", r"not 1-Lipschitz at \(a, b\)"
SLAB_CELL = CASE + r"slab \[\(.*\), \(.*\)\) over \d: cell \(\d+, \d+\) of atom \d is wrongly "
SIMPLE_AGREEMENT = CASE + r"clauses \['simple-agreement'\] failed"


def wrong_at(k):
    return (f"case 1: reconstruction wrong at k={k}",)


# fmt: off
ROWS = [
    Row("laws.mult-swaps-two-weights", {"monad.mult": swaps_two_weights}, LAWS_60,
        {"associativity": (30, 30, CASE + r"outer=\(.*\)"),
         "left-unit": (38, 22, CASE + r"P=\(.*\)"),
         "mult-naturality": (38, 22, CASE + r"f=\{.*\}"),
         "right-unit": (38, 22, CASE + r"P=\(.*\)")}),
    Row("laws.unit-on-the-next-point", {"monad.unit": unit_on_next_point}, LAWS_60,
        {"unit-naturality": (38, 22, CASE + r"x=x\d f=\{.*\}")}),

    Row("codensity.every-third-unnatural",
        {"codensity.check_cone_naturality": every_third_cone_fails}, BIJECTION_50,
        {"round-trip": (14, 0), "uniqueness": (14, 0),
         "naturality": (664, 6, tuple(f"case {i}: seeded fault" for i in (2, 5, 8, 11, 14)))}),
    Row("codensity.one-wrong-reconstruction",
        {"codensity.reconstruct_measure": one_wrong_reconstruction}, BIJECTION_25,
        {"round-trip": (9, 1, ("case 0: (Fraction(0, 1), Fraction(1, 1)) -> "
                               "(Fraction(1, 1), Fraction(0, 1))",)),
         "uniqueness": (9, 0)}),
    Row("codensity.second-reconstruction-raises",
        {"codensity.reconstruct_measure": second_reconstruction_raises}, BIJECTION_25,
        {"round-trip": (9, 1, ("case 1: seeded fault",)), "uniqueness": (9, 0)}),
    Row("codensity.q-gets-p-legs", {"codensity.cone_of_measure": q_gets_p_legs}, BIJECTION_25,
        {"uniqueness": (5, 5, CASE + "legs agree but measures differ")}),
    Row("codensity.reconstruction-shifts-mass",
        {"codensity.reconstruct_measure": shifts_mass}, BIJECTION_50,
        {"round-trip": (7, 13, MAPPED), "uniqueness": (7, 0)}),
    Row("codensity.k1-accepts-uniform",
        {"codensity.reconstruct_measure": accepts_uniform}, SUFFICIENCY,
        {"k1": (0, 1, wrong_at(1))}),
    Row("codensity.cone-of-the-uniform", {"codensity.cone_of_measure": uniform_cone}, SUFFICIENCY,
        {"k2": (0, 1, wrong_at(2)), "k3": (0, 1, wrong_at(3))}),

    Row("distance.lp-off-by-a-thousandth",
        {"lipmetric.bl_distance_lp_witness": distance_off}, DISTANCE_60,
        {"discrete-identity": (0, 36, CASE + r"lp=\d+/\d+ subsets=\d+/\d+ l1/2=\d+/\d+"),
         "worked-pair": (0, 1, ("expected 1/3",))}),
    Row("distance.input-lp-shifted", {"cli.bl_distance_lp": adds(F(3, 2))}, HALF_TRIANGLE,
        {"distance": (0, 1, ({"lp": "2/1", "subsets": "1/1"},))}),
    # off the discrete metric the subset maximum bounds the lp: an lp just past
    # it, still short of twice the clean lp, fails
    Row("distance.input-lp-past-subsets", {"cli.bl_distance_lp": adds(F(3, 4))}, HALF_TRIANGLE,
        {"distance": (0, 1, ({"lp": "5/4", "subsets": "1/1"},))}),
    Row("distance.input-subsets-shifted",
        {"cli.bl_distance_subsets": adds(F(3, 2))}, HALF_TRIANGLE,
        {"distance": (0, 1, ({"lp": "1/2", "subsets": "5/2"},))}),
    # on a discrete metric the lp must equal total variation, not merely lie below it
    Row("distance.input-discrete-lp-halved",
        {"cli.bl_distance_lp": scales(F(1, 2))}, DISCRETE_PAIR,
        {"distance": (0, 1, ({"lp": "1/6", "subsets": "1/3"},))}),

    Row("lipschitz-equivalence.tv-shrunk", {"lipmetric.total_variation": scales(F(3, 4))}, SWEEP,
        {"criteria-agree": (1527, 52, SWEPT_MAP), "lp-spot-checks": (190, 10, SPOT_CHECK)}),
    Row("lipschitz-equivalence.subset-sums-halved",
        {"lipmetric.subset_sums": halve_subset_sums}, SWEEP,
        {"criteria-agree": (1389, 190, SWEPT_MAP), "lp-spot-checks": (175, 25, SPOT_CHECK)}),
    Row("lipschitz-equivalence.lp-plus-one",
        {"lipmetric.bl_distance_lp": adds(1)}, suite(cli.run_lipschitz_equivalence),
        {"lp-spot-checks": (30, 70, SPOT_CHECK)}),

    Row("nonexpansive.pruned-lipschitz-rows",
        {"lipmetric._lipschitz_rows": drop_rows_below_a_half}, NONEXPANSIVE,
        {"unit-contraction": (558, 86, UNIT_PAIR + r"not 1-Lipschitz at \(m\d, m\d\)"),
         "mult-contraction": (28, 72, CASE + r"not 1-Lipschitz at \(s\d, s\d\)")}),
    # the unit's distance must equal min(d(x, y), 1) on every metric, not only
    # be bounded by it
    Row("nonexpansive.lp-short-off-discrete",
        {"lipmetric.bl_distance_lp_witness": short_off_discrete}, NONEXPANSIVE,
        {"unit-contraction": (235, 409, UNIT_PAIR + r"\d+(/\d+)? != min\(\d+(/\d+)?, 1\)"),
         "mult-contraction": (59, 41, CASE + r"d\(mult,mult\)=\d+/\d+ > \d+/\d+")}),
    # a rejected optimum is a failed case, never an exception out of the suite
    Row("nonexpansive.optimum-outside-0-1",
        {"lipmetric.maximize": rejects_optimum(lambda f: (F(2),) + f[1:])}, THIRDS_20,
        {"unit-contraction": (0, 12, UNIT_PAIR + OUTSIDE),
         "mult-contraction": (0, 4, CASE + OUTSIDE)}),
    Row("nonexpansive.steep-optimum",
        {"lipmetric.maximize": rejects_optimum(lambda f: (F(1),) + (F(0),) * (len(f) - 1))},
        THIRDS_20,
        {"unit-contraction": (0, 12, UNIT_PAIR + STEEP),
         "mult-contraction": (0, 4, CASE + STEEP)}),
    Row("nonexpansive.mult-swaps-two-weights",
        {"lipmetric.mult": swaps_two_weights}, suite(cli.run_nonexpansive, cases=100),
        {"mult-contraction": (19, 1, ("case 18: d(mult,mult)=65/144 > 88/225",)),
         "metric-laws": (3, 17, CASE + r"(left unit fails at \(.*\)|associativity fails)")}),
    Row("nonexpansive.unit-on-the-next-point",
        {"lipmetric.eta_as_meta": unit_meta_on_next_point},
        suite(cli.run_nonexpansive, seed=0, cases=50),
        {"metric-laws": (2, 8, CASE + r"right unit fails at \(.*\)")}),

    Row("reconstruct.additivity-broken",
        {"cli.simple_integral": shifts_three_valued},
        Run(command, ("reconstruct", "--seed", "0", "--cases", "40")),
        {"round-trip": (12, 12, CASE + r"additivity violated on the test family: F\(s\) = \d+/\d+ "
                        r"but integration against the indicator reconstruction gives \d+/\d+")}),
    Row("reconstruct.atom-mass-misreported",
        {"cli.reconstruct_measure": misreports_atom_mass}, RECONSTRUCTION,
        {"adversarial-detection": (38, 12, CASE + "wrong witness for style 1")}),
    Row("reconstruct.violation-accepted",
        {"cli.reconstruct_measure": accepts_uniform}, RECONSTRUCTION,
        {"adversarial-detection": (0, 50, CASE + "style [012] violation undetected")}),
    Row("reconstruct.daniell-stone-shifts-mass",
        {"cli.daniell_stone": shifts_mass}, suite(cli.run_reconstruction_suite, seed=0, cases=40),
        {"lattice-route": (3, 1, MAPPED)}),

    Row("extend.daniell-stone-shifts-mass",
        {"cli.daniell_stone": shifts_mass}, suite(cli.run_extension_suite, seed=0, cases=40),
        {"lattice-representation": (2, 6, MAPPED)}),
    # the seeded lattice cases include sparse lattices whose clauses need
    # multiplier 2: a full value grid alone never needs one above 1
    Row("extend.direction-without-gcd",
        {"represent._direction": raw_direction}, suite(cli.run_extension_suite, seed=0),
        {"lattice-representation": (89, 11, CASE + "invalid weak integration lattice: "
                                    r"clause span fails with witness \(.*\)")}),
    Row("extend.atom-zero-moved-to-atom-one",
        {"cli.caratheodory_extend": moves_atom_zero_to_one},
        suite(cli.run_extension_suite, cases=60),
        {"singleton-extension": (7, 5, CASE + r"weights \(.*\) not recovered")}),
    Row("extend.above-off-by-one", {"cli.slab_grid": above_off_by_one}, EXTENSION_50,
        {"slab-calculus": (0, 50, SLAB_CELL + "in its mask")}),
    Row("extend.below-strict", {"cli.slab_grid": below_strict}, EXTENSION_50,
        {"slab-calculus": (1, 49, SLAB_CELL + "missing from its mask")}),
    Row("extend.last-atom-dropped", {"cli.slab_grid": last_atom_dropped}, EXTENSION_50,
        {"slab-calculus": (1, 49, SLAB_CELL + "missing from its mask")}),
    # the later failure branches of `cli._slab_mask_fault`, each under a fault
    # that the branches before it let through
    Row("extend.grid-skips-a-bound", {"cli.slab_grid": grid_skipping_a_bound}, EXTENSION_50,
        {"slab-calculus": (22, 28, CASE + "cells .* miss 0 or split a bound in .*")}),
    Row("extend.cell-moved-below", {"cli.slab_grid": cell_moved_below_under_the_top}, EXTENSION_50,
        {"slab-calculus": (49, 1, CASE + "meet of .* is not .*")}),
    Row("extend.seeds-unclosed", {"cli.slab_grid": seeds_without_their_closure}, EXTENSION_50,
        {"slab-calculus": (40, 10, CASE + "masks on bounds .*: not a semi-ring: .*")}),
    Row("extend.first-piece-dropped",
        {"setalg.SemiRing.difference_decomposition": first_piece_dropped}, EXTENSION_50,
        {"slab-calculus": (8, 42, CASE + "pieces .* overlap or miss part of it")}),

    Row("integrate.integral-scaled",
        {"integrate.simple_integral": scales(F(999, 1000))}, INTEGRATE_50,
        {"properties": (3, 47, SIMPLE_AGREEMENT)}),
    # the suite draws one function of each case as a term list, so the
    # term-sum route is checked, not only the level-set route
    Row("integrate.term-dropped", {"integrate._term_sum": drops_last_term}, INTEGRATE_50,
        {"properties": (34, 16, SIMPLE_AGREEMENT)}),
    Row("integrate.single-atom-bumped",
        {"integrate.simple_integral": bumps_single_atom_functions}, HALF_ON_TWO_POINTS,
        {"sup-inf": (0, 1, ("fn#0",)), "finite-series": (0, 1, ("fn#0",))}),
    # scaling by 1 - r turns the chain f * k/n into a decreasing one, which
    # only the monotone-limit clause reads
    Row("integrate.decreasing-chain",
        {"integrate.SimpleFunction.scale": reversed_scale}, THREE_LEVELS,
        {"monotone-limit": (0, 1, ("fn#0",))}),
]
# fmt: on

@pytest.fixture(scope="module")
def clean_runs():
    """Each run's clean outcome, by run, taken when a row first needs it."""
    return {}


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_a_fault_fails_its_checks(row, clean_runs, monkeypatch):
    for path, value in row.run.constants:
        monkeypatch.setattr(*binding(path), value)
    if row.run not in clean_runs:
        clean_runs[row.run] = outcome(row.run)
    code, _, clean = clean_runs[row.run]
    assert code in (None, 0)
    assert [name for name, (_, failed, _) in clean.items() if failed] == []

    for path, wrapper in row.patches.items():
        owner, name = binding(path)
        monkeypatch.setattr(owner, name, wrapper(getattr(owner, name)))
    code, err, faulted = outcome(row.run)
    if code is not None:
        assert code == 1
        assert re.fullmatch(r"wall time: \d+\.\d{3}s\n", err)
    # the checks the row does not name report as they do clean
    assert {name: faulted[name] for name in clean if name not in row.checks} == {
        name: clean[name] for name in clean if name not in row.checks
    }
    counts = {name: expected[:2] for name, expected in row.checks.items()}
    assert {name: faulted[name][:2] for name in row.checks} == counts
    for name, (passed, failed, *witnesses) in row.checks.items():
        # a fault fails cases or stops them before a check: a failing check
        # keeps every case, and a named check that passes has lost some
        total = sum(clean[name][:2])
        assert passed + failed == total if failed else passed < total, name
        assert bool(failed) == bool(witnesses), name  # a failing check pins its witnesses
        for expected in witnesses:
            kept = faulted[name][2]
            if isinstance(expected, str):  # one per failure, up to the cap
                assert len(kept) == min(failed, MAX_WITNESSES)
                assert [w for w in kept if not re.fullmatch(expected, w)] == []
            else:
                assert kept == expected


def test_off_the_discrete_metric_the_lp_lies_below_the_subset_maximum():
    """The distance rows' three points at mutual distance 1/2: the LP gives
    1/2, the subset maximum (total variation) 1, and the check passes."""
    code, _, checks = outcome(HALF_TRIANGLE)
    assert (code, checks) == (0, {"distance": (1, 0, ({"lp": "1/2", "subsets": "1/1"},))})


JOB_RUNNERS = {runner for runner, _ in cli.ALL_JOBS.values()}


def job(run):
    """The runner of `all` that ``run`` runs, by name, or ``None``."""
    name = cli.COMMANDS[run.args[0]].suite if run.runner is command else run.runner.__name__
    return name if name in JOB_RUNNERS else None


def test_every_check_of_all_fails_under_some_row(all_checks_at_100_cases):
    """`all`'s names, each without its ``ALL_JOBS`` section, are 25 distinct
    checks: the laws and the bijection run once under each mode label."""
    checks = set()
    for name in all_checks_at_100_cases:
        section = next(s for s in cli.ALL_JOBS if name.startswith(f"{s}."))
        checks.add((cli.ALL_JOBS[section][0], name.removeprefix(f"{section}.")))
    assert len(checks) == 25
    failing = {
        (job(row.run), name)
        for row in ROWS
        for name, (_, failed, *_) in row.checks.items()
        if failed
    }
    assert sorted(checks - failing) == []
