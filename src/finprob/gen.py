"""Deterministic seeded generators for random test instances.

Every generator takes an explicit ``random.Random``; :func:`run_cases`
derives one sub-generator per case from ``(seed, stream, case index)`` so
that case outcomes never depend on execution order or worker count, and
names the case in each witness it keeps, so ``rng_for(seed, stream,
str(i))`` replays case ``i``.  String seeding of ``random.Random`` is stable
across runs and platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from .exact import Scaled
from .lipmetric import FiniteMetricSpace
from .measure import Measure, simplex_algebra, uniform
from .monad import MetaMeasure
from .integrate import SimpleFunction
from .report import CheckOutcome, tally
from .setalg import Algebra, GroundSet, generate_algebra

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_TERMS = 4  # terms of a random term list
MAX_SUPPORT = 3  # measures in a random meta-measure's support


def rng_for(seed: int, *path: str) -> random.Random:
    return random.Random(f"{seed}/" + "/".join(path))


def run_cases(
    seed: int,
    stream: str,
    count: int,
    checks: Sequence[str],
    case: Callable[[random.Random], Iterable[tuple[str, bool, Any]]],
) -> tuple[CheckOutcome, ...]:
    """Run ``count`` seeded cases and tally them into one check per name in
    ``checks``, in that order.

    Case ``i`` is ``case(rng_for(seed, stream, str(i)))``, so calling
    ``case`` on a fresh generator from the same path replays it.  It yields
    a ``(check, ok, witness)`` outcome for each check it reached, so a case
    that stops early counts only for the checks it ran.  A witness is text
    or a zero-argument callable that builds it.  Each witness
    :func:`~finprob.report.tally` keeps is written as ``case {i}: ...``; a
    passing case, or a failure past the kept ones, formats nothing.
    """
    outcomes: dict[str, list] = {name: [] for name in checks}
    for i in range(count):
        for name, ok, witness in case(rng_for(seed, stream, str(i))):
            outcomes[name].append((ok, None if ok else _labelled(i, witness)))
    return tuple(tally(name, outcomes[name]) for name in checks)


def _labelled(i: int, witness) -> Callable[[], str]:
    return lambda: f"case {i}: {witness() if callable(witness) else witness}"


def distinct_draws(draw: Callable[[], Any], count: int, attempts: int) -> list:
    """Up to ``count`` distinct values of ``draw()``, in the order first
    drawn, calling it at most ``attempts`` times."""
    values = []
    for _ in range(attempts):
        value = draw()
        if value not in values:
            values.append(value)
        if len(values) == count:
            break
    return values


def random_ground(rng: random.Random, max_size: int) -> GroundSet:
    n = rng.randint(1, max_size)
    return GroundSet(tuple(f"x{i}" for i in range(n)))


def random_algebra(rng: random.Random, ground: GroundSet) -> Algebra:
    style = rng.randrange(4)
    if style == 0:
        return Algebra.powerset(ground)
    if style == 1:
        return Algebra.trivial(ground)
    count = rng.randint(1, max(1, ground.size))
    generators = [rng.randrange(ground.full_mask + 1) for _ in range(count)]
    return generate_algebra(ground, generators)


def random_weights(rng: random.Random, k: int, max_denominator: int) -> tuple[Fraction, ...]:
    """Nonnegative rationals with denominators at most ``max_denominator``
    summing exactly to one, via a random composition of the denominator."""
    d, counts = _composition(rng, k, max_denominator)
    return tuple(Fraction(c, d) for c in counts)


def _composition(
    rng: random.Random, k: int, max_denominator: int, least: int = 0
) -> tuple[int, list[int]]:
    """``(d, counts)``: a random ``d`` from ``max(1, k * least)`` to ``max(k *
    least, max_denominator)`` and ``k`` counts of at least ``least`` summing
    to it, the draws of :func:`random_weights` and :func:`random_positive_weights`."""
    d = rng.randint(max(1, k * least), max(k * least, max_denominator))
    counts = [least] * k
    for _ in range(d - k * least):
        counts[rng.randrange(k)] += 1
    return d, counts


def random_positive_weights(
    rng: random.Random, k: int, max_denominator: int
) -> tuple[Fraction, ...]:
    """As :func:`random_weights` but with every entry strictly positive."""
    d, counts = _composition(rng, k, max_denominator, 1)
    return tuple(Fraction(c, d) for c in counts)


def random_measure(
    rng: random.Random, algebra: Algebra, max_denominator: int
) -> Measure:
    k = len(algebra.atoms)
    style = rng.randrange(8)
    if style == 0:  # forced edge case: all mass on one atom
        i = rng.randrange(k)
        return Measure.from_numerators(algebra, 1, [int(j == i) for j in range(k)])
    if style == 1 and k <= max_denominator:  # forced edge case: uniform
        return uniform(algebra)
    return Measure.from_numerators(algebra, *_composition(rng, k, max_denominator))


def random_simple_function(
    rng: random.Random, algebra: Algebra, max_denominator: int
) -> SimpleFunction:
    values = []
    for _ in algebra.atoms:
        d = rng.randint(1, max_denominator)
        values.append(Fraction(rng.randint(0, d), d))
    return SimpleFunction(algebra, tuple(values))


def random_bounded_pair(
    rng: random.Random, algebra: Algebra, max_denominator: int
) -> tuple[SimpleFunction, SimpleFunction]:
    """Two simple functions whose pointwise sum stays within [0, 1]."""
    f = random_simple_function(rng, algebra, max_denominator)
    return f, random_addend(rng, f, max_denominator)


def random_addend(
    rng: random.Random, f: SimpleFunction, max_denominator: int
) -> SimpleFunction:
    """A simple function ``g`` with ``f + g <= 1`` pointwise."""
    g_values = []
    for v in f.values:
        d = rng.randint(1, max_denominator)
        cap = int((ONE - v) * d)
        g_values.append(Fraction(rng.randint(0, cap), d))
    return SimpleFunction(f.algebra, tuple(g_values))


def random_term_list(
    rng: random.Random, algebra: Algebra, max_denominator: int
) -> SimpleFunction:
    """A simple function built from explicit coefficient/member terms."""
    members = algebra.members
    terms = []
    budget = ONE
    for _ in range(rng.randint(1, MAX_TERMS)):
        if budget <= 0:
            break
        d = rng.randint(1, max_denominator)
        cap = int(budget * d)
        if cap == 0:
            continue
        coeff = Fraction(rng.randint(0, cap), d)
        terms.append((coeff, rng.choice(members)))
        budget -= coeff  # pointwise sums are at most the coefficient sum
    return SimpleFunction.from_terms(algebra, terms)


def random_premeasurable_map(
    rng: random.Random, dom: Algebra
) -> tuple[dict[str, str], Algebra]:
    """A random map constant on the domain's atoms (hence premeasurable into
    any codomain algebra) together with a random codomain algebra."""
    m = rng.randint(1, 3)
    cod_ground = GroundSet(tuple(f"y{i}" for i in range(m)))
    mapping = {}
    for labels in dom.atom_points:
        target = rng.choice(cod_ground.points)
        for label in labels:
            mapping[label] = target
    return mapping, random_algebra(rng, cod_ground)


def random_meta_measure(
    rng: random.Random, algebra: Algebra, max_denominator: int
) -> MetaMeasure:
    count = rng.randint(1, MAX_SUPPORT)
    draw = partial(random_measure, rng, algebra, max_denominator)
    support = distinct_draws(draw, count, 4 * count)
    return MetaMeasure(support, Scaled(*_composition(rng, len(support), max_denominator, 1)))


def random_simplex_point(
    rng: random.Random, labels: Sequence[str], max_denominator: int
) -> Measure:
    algebra = simplex_algebra(tuple(labels))
    return Measure.from_numerators(algebra, *_composition(rng, len(labels), max_denominator))


def random_metric(
    rng: random.Random, size: int, max_denominator: int
) -> FiniteMetricSpace:
    """A random finite metric space with exact rational distances.

    Mixes the discrete metric, metrics with all distances in [1/2, 1] (where
    the triangle inequality is automatic), and shortest-path repairs of
    arbitrary positive symmetric matrices.
    """
    points = tuple(f"m{i}" for i in range(size))
    style = rng.randrange(3)
    dist = [[ZERO] * size for _ in range(size)]
    if style == 0:
        for i in range(size):
            for j in range(i + 1, size):
                dist[i][j] = dist[j][i] = ONE
    elif style == 1:
        for i in range(size):
            for j in range(i + 1, size):
                d = rng.randint(2, max(2, max_denominator))
                v = Fraction(rng.randint((d + 1) // 2, d), d)
                dist[i][j] = dist[j][i] = v
    else:
        for i in range(size):
            for j in range(i + 1, size):
                d = rng.randint(1, max_denominator)
                v = Fraction(rng.randint(1, 2 * d), d)
                dist[i][j] = dist[j][i] = v
        for k in range(size):  # shortest-path closure keeps exactness
            for i in range(size):
                for j in range(size):
                    via = dist[i][k] + dist[k][j]
                    if i != j and via < dist[i][j]:
                        dist[i][j] = via
    return FiniteMetricSpace(points, tuple(tuple(row) for row in dist))
