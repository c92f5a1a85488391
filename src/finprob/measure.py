"""Probability measures and charges on finite algebras.

A measure is stored by its atom weight vector, the unique minimal
representation; the value on any member is the sum of the weights of the
atoms it contains.  The mode flag distinguishes sigma-additive measures from
finitely additive charges: on a finite algebra the two notions coincide
numerically, so the flag is semantic and is preserved by every operation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, PreconditionError
from .exact import fractions, in_unit_interval, total
from .setalg import DEFAULT_SIZE_CAP, Algebra, GroundSet, is_premeasurable

ZERO = Fraction(0)
ONE = Fraction(1)


class Mode(str, enum.Enum):
    SIGMA = "sigma"
    FINITELY_ADDITIVE = "finitely_additive"


@dataclass(frozen=True)
class Measure:
    """A normalized additive set function on a finite algebra."""

    algebra: Algebra
    weights: tuple[Fraction, ...]
    mode: Mode = Mode.SIGMA

    def __post_init__(self):
        weights = fractions(self.weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "mode", Mode(self.mode))
        if len(weights) != len(self.algebra.atoms):
            raise ValueError("one weight per atom required")
        if not all(in_unit_interval(w) for w in weights):
            raise ValueError("atom weights must lie in [0, 1]")
        mass = total(weights)
        if mass != 1:
            raise ValueError(f"atom weights must sum to 1, got {mass}")

    def __call__(self, mask: int) -> Fraction:
        return evaluate(self, mask)

    @property
    def labels(self) -> tuple[str, ...]:
        """The ground set's points; on a simplex algebra, one per weight."""
        return self.algebra.ground.points

    def with_mode(self, mode: Mode) -> "Measure":
        return Measure(self.algebra, self.weights, mode)


@lru_cache
def simplex_algebra(labels: Sequence[str]) -> Algebra:
    """The powerset algebra on ``labels``: a measure on it is a point of
    the simplex on those labels, with one weight per label.

    Any number of labels is accepted.  Equal label tuples share one
    algebra, so comparing measures on it short-circuits on identity.
    """
    return Algebra.powerset(GroundSet(labels, max(DEFAULT_SIZE_CAP, len(labels))))


def evaluate(p: Measure, mask: int) -> Fraction:
    """The measure of a member: the sum of its atoms' weights."""
    p.algebra.check_member(mask)
    return total(w for atom, w in zip(p.algebra.atoms, p.weights) if atom & mask)


def dirac(x: str, algebra: Algebra, mode: Mode = Mode.SIGMA) -> Measure:
    """The point mass at ``x``: every member containing ``x`` has measure 1."""
    hit = algebra.atom_of_point(x)
    weights = tuple(ONE if i == hit else ZERO for i in range(len(algebra.atoms)))
    return Measure(algebra, weights, mode)


def pushforward(p: Measure, mapping: Mapping[str, str], cod: Algebra) -> Measure:
    """The image measure ``B -> p(f^{-1}(B))`` along a premeasurable map.

    One pass over the domain: each domain atom's weight goes to the codomain
    atom its points land in.  The map is premeasurable exactly when no
    domain atom straddles two codomain atoms.
    """
    dom = p.algebra
    dom_atom, cod_atom = dom.point_atoms, cod.point_atoms
    image: list[int | None] = [None] * len(dom.atoms)
    for i, point in enumerate(dom.ground.points):
        if point not in mapping:
            raise DomainError(f"map is not total: missing {point!r}")
        j = cod_atom[cod.ground.index(mapping[point])]
        a = dom_atom[i]
        if image[a] is None:
            image[a] = j
        elif image[a] != j:
            _, witness = is_premeasurable(mapping, dom, cod)
            raise PreconditionError(
                f"map is not premeasurable: preimage of {cod.ground.labels_of(witness)}"
                " is not in the domain algebra"
            )
    buckets: list[list[Fraction]] = [[] for _ in cod.atoms]
    for j, w in zip(image, p.weights):
        buckets[j].append(w)
    return Measure(cod, tuple(total(b) for b in buckets), p.mode)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    diagnostics: tuple[str, ...]


def validate(p: Measure) -> ValidationReport:
    """Check normalization and nonnegativity exactly.

    See :func:`validate_weights`; a constructed :class:`Measure` always
    passes.
    """
    return validate_weights(p.algebra, p.weights)


def validate_weights(algebra: Algebra, weights: Iterable[Fraction]) -> ValidationReport:
    """Diagnose a raw atom-weight vector without constructing a measure.

    Checks the shape, normalization and nonnegativity.  Additivity needs no
    check: every member is a union of atoms and its value is the sum of
    their weights.  Never raises; every violation lands in the diagnostics.
    """
    weights = fractions(weights)
    diagnostics: list[str] = []
    if len(weights) != len(algebra.atoms):
        return ValidationReport(
            False, (f"shape: {len(weights)} weights for {len(algebra.atoms)} atoms",)
        )
    mass = total(weights)
    if mass != 1:
        diagnostics.append(f"normalization: weights sum to {mass}, expected 1")
    for atom, w in zip(algebra.atoms, weights):
        if w < 0:
            diagnostics.append(
                f"negative weight {w} on atom {algebra.ground.labels_of(atom)}"
            )
    return ValidationReport(not diagnostics, tuple(diagnostics))


def uniform(algebra: Algebra, mode: Mode = Mode.SIGMA) -> Measure:
    """Equal weight on every atom."""
    k = len(algebra.atoms)
    return Measure(algebra, (Fraction(1, k),) * k, mode)
