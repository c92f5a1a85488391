"""Executable form of the limit-cone characterization of the probability
monad: arrows from a space into finite simplices, cones over a declared
finite arrow family, naturality checking, and the round-trip bijection
between measures and cones.

A point of the simplex on a finite label set is a :class:`Measure` on the
labels' powerset (:func:`~finprob.monad.SimplexPoint`), and the simplex map
of a label function is :func:`~finprob.measure.pushforward` into the
target labels' powerset, applied here to integer numerators in two steps.
:func:`naturality_triangles` enumerates a family's commutative triangles:
an arrow composed with a label map is found among the declared arrows by
its summed, reduced integer columns.  The triangles depend on the arrows
alone, so a suite run enumerates each family once and checks the cones of
all its measures over that family on them.  :func:`check_cone_naturality`
compares the legs of each triangle by cross-multiplication, so no measure
or arrow is built unless a triangle fails.  A cone is a table from arrows
to legs; the canonical cone of a measure has, at each arrow, the average of
the arrow's rows weighted by the measure's own numerators
(:func:`~finprob.monad.average`, the body of the monad multiplication).

The full comma category of arrows is infinite; a cone here is declared over
a finite arrow family whose closure (binary arrows of every component, the
collapse arrow to the one-point simplex) is rich enough to replay the
uniqueness argument: the legs on binary indicator arrows form the
:func:`indicator_table` that pins the measure down.  Over this family,
naturality forces only leg(1_empty) = 0, leg(1_X) = 1 and
leg(1_A) + leg(1_(X - A)) = 1; finite additivity comes from the mass check
of :func:`~finprob.represent.reconstruct_measure`.  So a natural cone need
not be a measure's cone: on the powerset of 3 points, the legs 1/2 at
every singleton and pair pass all 43 triangles, then fail that check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from . import gen
from .errors import DomainError, PreconditionError, ReconstructionError
from .exact import common
from .integrate import SimpleFunction
from .measure import Measure, dirac, simplex_algebra
from .monad import average
from .report import CheckOutcome, SuiteConfig
from .represent import Functional, reconstruct_measure
from .setalg import Algebra

BINARY_LABELS = ("0", "1")
MAX_TARGETS = 4  # most target labels of a cone arrow, so naturality tries 4**4 maps
MAX_GROUND_SIZE = 4  # the seeded suites' largest ground set


@dataclass(frozen=True)
class Arrow:
    """A map from a space into the simplex on a finite label set, measurable
    componentwise: each label's weight function is constant on atoms."""

    source: Algebra
    targets: tuple[str, ...]
    rows: tuple[Measure, ...]  # one simplex point per atom of the source

    def __post_init__(self):
        targets = tuple(str(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(set(targets)) != len(targets):
            raise ValueError("arrow target labels must be distinct")
        if len(self.rows) != len(self.source.atoms):
            raise ValueError("one simplex point per source atom required")
        simplex = simplex_algebra(targets)
        for row in self.rows:
            if row.algebra != simplex:
                raise ValueError("arrow rows must be indexed by the target labels")

    @classmethod
    def from_point_rows(
        cls, source: Algebra, targets: Sequence[str], by_point: Mapping[str, Measure]
    ) -> "Arrow":
        """Build from per-point assignments, which must be constant on atoms."""
        rows = []
        for atom in source.atoms:
            labels = source.ground.labels_of(atom)
            first = by_point[labels[0]]
            for other in labels[1:]:
                if by_point[other] != first:
                    raise DomainError(
                        f"assignment not constant on atom {labels}"
                    )
            rows.append(first)
        return cls(source, tuple(targets), tuple(rows))

    @cached_property
    def numerators(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """:func:`~finprob.exact.common` of the rows, once per arrow."""
        return common(self.rows)

    def at(self, label: str) -> Measure:
        return self.rows[self.source.atom_of_point(label)]


def binary_arrow(f: SimpleFunction) -> Arrow:
    """The arrow into the two-label simplex pairing ``f`` with its
    complement: a point maps to ``(1 - f(x), f(x))``."""
    simplex = simplex_algebra(BINARY_LABELS)
    rows = tuple(Measure.from_numerators(simplex, f.den, (f.den - n, n)) for n in f.nums)
    return Arrow(f.algebra, BINARY_LABELS, rows)


def collapse_arrow(source: Algebra) -> Arrow:
    """The unique arrow into the one-point simplex."""
    row = Measure.from_numerators(simplex_algebra(("0",)), 1, (1,))
    return Arrow(source, ("0",), (row,) * len(source.atoms))


def indicator_family(source: Algebra) -> tuple[Arrow, ...]:
    """Binary arrows of every member indicator, plus the collapse arrow.

    This is the closure the reconstruction argument needs: it contains the
    binary arrow of each component of each of its arrows (components of
    binary indicator arrows are indicators again) and the collapsing arrow.
    """
    arrows = [collapse_arrow(source)]
    for member in source.members:
        arrows.append(binary_arrow(SimpleFunction.indicator(source, member)))
    return tuple(arrows)


@dataclass(frozen=True)
class Cone:
    """A family of simplex points, one per declared arrow, required to
    commute with every label map between the arrows' targets.

    Built from ``(arrow, leg)`` pairs; ``legs`` maps each arrow to its leg.
    The arrows are distinct, share one source algebra and have at most
    :data:`MAX_TARGETS` target labels each.
    """

    apex: str
    legs: Mapping[Arrow, Measure]

    def __post_init__(self):
        legs = {}
        for arrow, point in self.legs:
            if len(arrow.targets) > MAX_TARGETS:
                raise ValueError(f"cone arrows have at most {MAX_TARGETS} target labels")
            if point.algebra != simplex_algebra(arrow.targets):
                raise ValueError("leg must be indexed by its arrow's targets")
            if legs and arrow.source != next(iter(legs)).source:
                raise ValueError("cone arrows must share one source algebra")
            declared = len(legs)
            legs[arrow] = point  # the one hash of the arrow
            if len(legs) == declared:
                raise ValueError("cone declares an arrow twice")
        object.__setattr__(self, "legs", legs)


def cone_of_measure(p: Measure, family: Iterable[Arrow]) -> Cone:
    """The canonical cone of a measure: the leg at an arrow is the average
    of the arrow's rows weighted by the measure's atoms."""
    legs = []
    for arrow in family:
        if arrow.source != p.algebra:
            raise PreconditionError("arrow source differs from the measure's algebra")
        target = simplex_algebra(arrow.targets)
        legs.append((arrow, average(p.den, p.nums, target, arrow.numerators)))
    return Cone(f"measure{p.weights}", tuple(legs))


@dataclass(frozen=True)
class NaturalityResult:
    ok: bool
    triangles: int
    witness: tuple | None = None


def naturality_triangles(arrows: Sequence[Arrow]) -> Iterator[tuple[int, int, tuple]]:
    """Every commutative triangle inside a family of arrows, in order, as
    ``(f, g, image)``: ``arrows[g]`` is ``arrows[f]`` composed with the label
    map taking ``arrows[f].targets[t]`` to ``arrows[g].targets[image[t]]``.
    Every map from an arrow's labels into each target set is tried, at most
    ``4**4``, and the composite is found among the arrows by its summed,
    reduced integer columns."""
    target_sets = sorted({arrow.targets for arrow in arrows})
    columns = [(a.numerators[0], tuple(zip(*a.numerators[1]))) for a in arrows]
    # an arrow's targets and integer columns -> its index
    declared = {(a.targets, *c): j for j, (a, c) in enumerate(zip(arrows, columns))}
    for f, arrow in enumerate(arrows):
        for targets in target_sets:
            for image in itertools.product(range(len(targets)), repeat=len(arrow.targets)):
                g = declared.get((targets, *_composed(*columns[f], image, len(targets))))
                if g is not None:
                    yield f, g, image


def check_cone_naturality(cone: Cone, triangles=None) -> NaturalityResult:
    """Check each triangle of :func:`naturality_triangles` in order: the
    pushed leg of ``f`` and the leg of ``g`` are compared by cross-multiplying
    integer numerators.  ``triangles`` are those of the cone's arrows, in its
    order, or else enumerated here in the same pass.  The first failing
    triangle's witness is ``(f, mapping, g, pushed leg of f, leg of g)``."""
    arrows, legs = tuple(cone.legs), tuple(cone.legs.values())
    if triangles is None:
        triangles = naturality_triangles(arrows)
    count = 0
    for count, (f, g, image) in enumerate(triangles, 1):
        leg_f, leg_g = legs[f], legs[g]
        pushed = [0] * len(leg_g.nums)
        for u, n in zip(image, leg_f.nums):
            pushed[u] += n
        if any(n * leg_g.den != m * leg_f.den for n, m in zip(pushed, leg_g.nums)):
            targets = arrows[g].targets
            mapping = {label: targets[u] for label, u in zip(arrows[f].targets, image)}
            expected = Measure.from_numerators(simplex_algebra(targets), leg_f.den, pushed)
            witness = (arrows[f], mapping, arrows[g], expected, leg_g)
            return NaturalityResult(False, count, witness=witness)
    return NaturalityResult(True, count)


def _composed(den: int, columns, image: tuple[int, ...], width: int):
    """The ``(den, columns)`` of an arrow's composite with the label map
    ``t -> image[t]`` into ``width`` labels, from the arrow's own (its
    :func:`~finprob.exact.common` rows, transposed): column
    ``u`` sums the columns mapped to ``u``, reduced to lowest terms."""
    sums = [(0,) * len(columns[0])] * width
    for column, u in zip(columns, image):
        sums[u] = tuple(map(add, sums[u], column))
    g = gcd(den, *itertools.chain.from_iterable(sums))
    return den // g, tuple(tuple(n // g for n in column) for column in sums)


def _binary_indicator_mask(arrow: Arrow) -> int | None:
    """The member whose indicator's binary arrow this is, if it is one."""
    if arrow.targets != BINARY_LABELS:
        return None
    mask = 0
    for atom, row in zip(arrow.source.atoms, arrow.rows):
        if row.nums == (0, 1):  # lowest terms: weight 1 on label 1
            mask |= atom
        elif row.nums != (1, 0):
            return None
    return mask


def indicator_table(cone: Cone) -> Functional:
    """The cone's binary indicator legs as a table in mask order: ``1_A``
    maps to the weight of label 1 in the leg at the binary arrow of
    ``1_A``."""
    if not cone.legs:
        raise ReconstructionError("cone has no legs to reconstruct from")
    source = next(iter(cone.legs)).source
    legs = sorted(
        (mask, point.weights[1])
        for arrow, point in cone.legs.items()
        if (mask := _binary_indicator_mask(arrow)) is not None
    )
    table = {SimpleFunction.indicator(source, mask): value for mask, value in legs}
    return Functional(source, table)


def reconstruct_from_cone(cone: Cone, triangles=None) -> Measure:
    """The unique measure whose canonical cone has the given legs.

    Naturality is checked first, on ``triangles`` as
    :func:`check_cone_naturality` takes them, and failures are reported with
    the violating triangle.  The :func:`indicator_table` is then handed to
    :func:`~finprob.represent.reconstruct_measure`, which names any atom or
    whole-set indicator the family lacks and supplies normalization and
    finite-additivity checking.
    """
    naturality = check_cone_naturality(cone, triangles)
    if not naturality.ok:
        raise ReconstructionError(
            "cone legs do not commute with a label map", witness=naturality.witness
        )
    return reconstruct_measure(indicator_table(cone))


BIJECTION_CHECKS = ("round-trip", "naturality", "uniqueness")


def verify_codensity_bijection(
    config: SuiteConfig, algebra: Algebra | None = None
) -> tuple[CheckOutcome, ...]:
    """Round-trip and uniqueness checks for the measure/cone correspondence,
    one check per property in :data:`BIJECTION_CHECKS` order.

    For ``max(1, 2 * config.cases // 5)`` seeded random measures, each on
    ``algebra`` or else on its own random algebra of at most
    ``min(config.max_ground_size, MAX_GROUND_SIZE)`` points: the cone of the
    measure passes naturality on every enumerated triangle, reconstructing
    from the cone returns the measure exactly (so re-taking the cone would
    reproduce every leg), and distinct measures are separated by some binary
    indicator leg.
    ``naturality`` has one outcome per enumerated triangle; a case whose
    cone fails it reaches neither ``round-trip`` nor ``uniqueness``, and one
    whose reconstruction fails or differs from its measure does not reach
    ``uniqueness``.
    """
    families = {}  # this run's algebras -> (indicator family, its triangles)

    def check_case(rng):
        current = algebra or gen.random_algebra(
            rng, gen.random_ground(rng, min(config.max_ground_size, MAX_GROUND_SIZE))
        )
        if current not in families:
            family = indicator_family(current)
            families[current] = family, tuple(naturality_triangles(family))
        family, triangles = families[current]
        p = gen.random_measure(rng, current, config.max_denominator)
        cone = cone_of_measure(p, family)
        nat = check_cone_naturality(cone, triangles)
        passed = nat.triangles - (not nat.ok)  # a failing triangle ends the check
        yield from itertools.repeat(("naturality", True, None), passed)
        if not nat.ok:
            yield "naturality", False, str(nat.witness[1])
            return
        try:
            back = reconstruct_measure(indicator_table(cone))
        except ReconstructionError as exc:
            yield "round-trip", False, str(exc)
            return
        yield "round-trip", back == p, lambda: f"{p.weights} -> {back.weights}"
        if back != p:
            return

        q = gen.random_measure(rng, current, config.max_denominator)
        legs_q = tuple(cone_of_measure(q, family).legs.values())  # arrows in one order
        same_legs, same_measures = tuple(cone.legs.values()) == legs_q, q == p
        yield (
            "uniqueness",
            same_measures == same_legs,
            lambda: f"legs {'agree' if same_legs else 'differ'} "
            f"but measures {'agree' if same_measures else 'differ'}",
        )

    cases = max(1, 2 * config.cases // 5)
    return gen.run_cases(config.seed, "codensity", cases, BIJECTION_CHECKS, check_case)


def small_index_sufficiency(config: SuiteConfig, k: int) -> tuple[CheckOutcome, ...]:
    """Whether arrows with at most ``k`` target labels already determine the
    reconstruction, over ``max(1, config.cases // 10)`` seeded cases drawn
    as in :func:`verify_codensity_bijection`: a ``determined`` check with
    one outcome per case (the cone reconstructs, and the cones of two
    sampled measures differ unless the measures agree), then a
    ``reconstruction`` check (the reconstructed measure is the original)
    for the cases that reconstruct.  "Determined" is about sampled measure
    cones only: it does not show that every natural cone over the family is
    a measure's cone.

    With one label only the collapse arrow exists, which carries nothing but
    normalization, so reconstruction is undetermined; with two labels the
    binary indicator arrows separate measures and reconstruction succeeds.
    """
    if k < 1:
        raise PreconditionError("label-set size bound must be at least 1")

    families = {}  # this run's algebras -> (small family, its triangles)

    def check_case(rng):
        current = gen.random_algebra(
            rng, gen.random_ground(rng, min(config.max_ground_size, MAX_GROUND_SIZE))
        )
        if current not in families:
            family = tuple(a for a in indicator_family(current) if len(a.targets) <= k)
            if k >= 3 and len(current.atoms) <= 3:
                family = family + (_atom_arrow(current, k),)
            families[current] = family, tuple(naturality_triangles(family))
        family, triangles = families[current]
        p = gen.random_measure(rng, current, config.max_denominator)
        q = gen.random_measure(rng, current, config.max_denominator)
        cone = cone_of_measure(p, family)
        try:
            back = reconstruct_from_cone(cone, triangles)
        except ReconstructionError as exc:
            yield "determined", False, f"no reconstruction at k={k}: {exc}"
            return
        yield "reconstruction", back == p, f"reconstruction wrong at k={k}"
        legs_p = tuple(cone.legs.values())  # q's cone lists the family in one order
        separated = p == q or tuple(cone_of_measure(q, family).legs.values()) != legs_p
        yield "determined", separated, f"distinct measures share their legs at k={k}"

    cases = max(1, config.cases // 10)
    checks = ("determined", "reconstruction")
    return gen.run_cases(config.seed, "sufficiency", cases, checks, check_case)


def _atom_arrow(algebra: Algebra, k: int) -> Arrow:
    """An arrow separating up to ``k`` atoms, used to exercise wider targets."""
    count = min(k, len(algebra.atoms))
    targets = tuple(f"t{i}" for i in range(count))
    simplex = simplex_algebra(targets)
    rows = tuple(
        dirac(targets[min(i, count - 1)], simplex) for i in range(len(algebra.atoms))
    )
    return Arrow(algebra, targets, rows)
