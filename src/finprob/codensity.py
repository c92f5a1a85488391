"""Executable form of the limit-cone characterization of the probability
monad: arrows from a space into finite simplices, cones over a declared
finite arrow family, naturality checking, and the round-trip bijection
between measures and cones.

A point of the simplex on a finite label set is a :class:`Measure` on the
labels' powerset (:func:`~finprob.monad.SimplexPoint`), and the simplex map
of a label function is :func:`~finprob.measure.pushforward` into the
target labels' powerset.  :func:`check_cone_naturality` applies that map
to integer numerators: an arrow composed with a label map is found among
the declared arrows by its summed, reduced integer columns, and the legs of
a triangle are compared by cross-multiplication, so no measure or arrow is
built unless a triangle fails.  A cone is a table from arrows to legs; the
canonical cone of a measure has, at each arrow, the average of the arrow's
rows weighted by the measure's own numerators (:func:`~finprob.monad.average`,
the body of the monad multiplication).

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
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, PreconditionError, ReconstructionError
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

    def at(self, label: str) -> Measure:
        return self.rows[self.source.atom_of_point(label)]


def binary_arrow(f: SimpleFunction) -> Arrow:
    """The arrow into the two-label simplex pairing ``f`` with its
    complement: a point maps to ``(1 - f(x), f(x))``."""
    simplex = simplex_algebra(BINARY_LABELS)
    rows = tuple(
        Measure.from_numerators(simplex, d, (d - n, n))
        for n, d in ((v.numerator, v.denominator) for v in f.values)
    )
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
            if arrow in legs:
                raise ValueError("cone declares an arrow twice")
            if legs and arrow.source != next(iter(legs)).source:
                raise ValueError("cone arrows must share one source algebra")
            legs[arrow] = point
        object.__setattr__(self, "legs", legs)


def cone_of_measure(p: Measure, family: Iterable[Arrow]) -> Cone:
    """The canonical cone of a measure: the leg at an arrow is the average
    of the arrow's rows weighted by the measure's atoms."""
    legs = []
    for arrow in family:
        if arrow.source != p.algebra:
            raise PreconditionError("arrow source differs from the measure's algebra")
        legs.append((arrow, average(p.den, p.nums, arrow.rows)))
    return Cone(f"measure{p.weights}", tuple(legs))


@dataclass(frozen=True)
class NaturalityResult:
    ok: bool
    triangles: int
    witness: tuple | None = None


def check_cone_naturality(cone: Cone) -> NaturalityResult:
    """Enumerate commutative triangles inside the declared family and check
    that the legs commute with the simplex maps of all label functions:
    every map from an arrow's labels into each target set, at most ``4**4``.
    The first failing triangle's witness is ``(f, mapping, g, pushed leg of
    f, leg of g)``, where ``g`` is the declared arrow equal to ``f``
    composed with ``mapping``."""
    legs = cone.legs
    target_sets = sorted({arrow.targets for arrow in legs})
    columns = {arrow: _integer_columns(arrow) for arrow in legs}
    declared = {(g.targets, *columns[g]): g for g in legs}
    triangles = 0
    for f, (den, f_columns) in columns.items():
        leg_f = legs[f]
        for targets in target_sets:
            for image in itertools.product(range(len(targets)), repeat=len(f.targets)):
                g = declared.get((targets, *_composed(den, f_columns, image, len(targets))))
                if g is None:
                    continue
                triangles += 1
                pushed = [0] * len(targets)
                for u, n in zip(image, leg_f.nums):
                    pushed[u] += n
                leg_g = legs[g]
                if any(n * leg_g.den != m * leg_f.den for n, m in zip(pushed, leg_g.nums)):
                    mapping = {label: targets[u] for label, u in zip(f.targets, image)}
                    cod = simplex_algebra(targets)
                    expected = Measure.from_numerators(cod, leg_f.den, pushed)
                    return NaturalityResult(
                        False, triangles, witness=(f, mapping, g, expected, leg_g)
                    )
    return NaturalityResult(True, triangles)


def _integer_columns(arrow: Arrow) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(den, columns)``: column ``t`` holds each row's weight of label ``t``
    times ``den``, the least common denominator of the rows.  Rows are in
    lowest terms, so no common factor divides ``den`` and every entry."""
    den = lcm(*(row.den for row in arrow.rows))
    rows = (tuple(n * (den // row.den) for n in row.nums) for row in arrow.rows)
    return den, tuple(zip(*rows))


def _composed(den: int, columns, image: tuple[int, ...], width: int):
    """The integer columns of an arrow's composite with the label map
    ``t -> image[t]`` into ``width`` labels, in the form of
    :func:`_integer_columns`: column ``u`` sums the columns mapped to ``u``."""
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


def reconstruct_from_cone(cone: Cone) -> Measure:
    """The unique measure whose canonical cone has the given legs.

    Naturality is checked first and failures are reported with the
    violating triangle.  The :func:`indicator_table` is then handed to
    :func:`~finprob.represent.reconstruct_measure`, which names any atom or
    whole-set indicator the family lacks and supplies normalization and
    finite-additivity checking.
    """
    naturality = check_cone_naturality(cone)
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
    from the cone returns the measure exactly, reconstructing and re-taking
    the cone reproduces every leg, and distinct measures are separated by
    some binary indicator leg.
    ``naturality`` has one outcome per enumerated triangle; a case whose
    cone fails it reaches neither ``round-trip`` nor ``uniqueness``, and one
    whose reconstruction fails or differs from its measure does not reach
    ``uniqueness``.
    """
    from . import gen

    def check_case(rng):
        current = algebra or gen.random_algebra(
            rng, gen.random_ground(rng, min(config.max_ground_size, MAX_GROUND_SIZE))
        )
        family = indicator_family(current)
        p = gen.random_measure(rng, current, config.max_denominator)
        cone = cone_of_measure(p, family)
        nat = check_cone_naturality(cone)
        passed = nat.triangles - (not nat.ok)  # a failure ends the enumeration
        yield from itertools.repeat(("naturality", True, None), passed)
        if not nat.ok:
            yield "naturality", False, str(nat.witness[1])
            return
        try:
            back = reconstruct_measure(indicator_table(cone))
        except ReconstructionError as exc:
            yield "round-trip", False, str(exc)
            return
        if back != p:
            yield "round-trip", False, f"{p.weights} -> {back.weights}"
            return
        yield (
            "round-trip",
            cone_of_measure(back, family).legs == cone.legs,
            "cone legs changed on the round trip",
        )

        q = gen.random_measure(rng, current, config.max_denominator)
        legs_q = cone_of_measure(q, family).legs
        same_legs, same_measures = cone.legs == legs_q, q == p
        yield (
            "uniqueness",
            same_measures == same_legs,
            lambda: f"legs {'agree' if same_legs else 'differ'} "
            f"but measures {'agree' if same_measures else 'differ'}",
        )

    cases = max(1, 2 * config.cases // 5)
    return gen.run_cases(config.seed, "codensity", cases, BIJECTION_CHECKS, check_case)


def small_index_sufficiency(
    config: SuiteConfig, k: int, algebra: Algebra | None = None
) -> tuple[CheckOutcome, ...]:
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
    from . import gen

    if k < 1:
        raise PreconditionError("label-set size bound must be at least 1")

    def check_case(rng):
        current = algebra or gen.random_algebra(
            rng, gen.random_ground(rng, min(config.max_ground_size, MAX_GROUND_SIZE))
        )
        family = tuple(a for a in indicator_family(current) if len(a.targets) <= k)
        if k >= 3 and len(current.atoms) <= 3:
            family = family + (_atom_arrow(current, k),)
        p = gen.random_measure(rng, current, config.max_denominator)
        q = gen.random_measure(rng, current, config.max_denominator)
        cone = cone_of_measure(p, family)
        try:
            back = reconstruct_from_cone(cone)
        except ReconstructionError as exc:
            yield "determined", False, f"no reconstruction at k={k}: {exc}"
            return
        yield "reconstruction", back == p, f"reconstruction wrong at k={k}"
        separated = p == q or cone_of_measure(q, family).legs != cone.legs
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
