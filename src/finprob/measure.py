"""Probability measures on finite algebras.

A measure is stored by its atom weight vector, the unique minimal
representation; the value on any member is the sum of the weights of the
atoms it contains.  There is no separate type or flag for finitely additive
charges: a finite algebra has finitely many members, so every countable
disjoint family in it has only finitely many nonempty members, and a
finitely additive charge is already sigma-additive.  The two notions name
one object here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import DomainError, PreconditionError
from .exact import fractions, in_unit_interval, total
from .setalg import Algebra, GroundSet, is_premeasurable

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Measure:
    """A normalized additive set function on a finite algebra."""

    algebra: Algebra
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = fractions(self.weights)
        object.__setattr__(self, "weights", weights)
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


@lru_cache
def simplex_algebra(labels: Sequence[str]) -> Algebra:
    """The powerset algebra on ``labels``: a measure on it is a point of
    the simplex on those labels, with one weight per label.

    Any number of labels is accepted.  Equal label tuples share one
    algebra, so comparing measures on it short-circuits on identity.
    """
    return Algebra.powerset(GroundSet(labels))


def evaluate(p: Measure, mask: int) -> Fraction:
    """The measure of a member: the sum of its atoms' weights."""
    p.algebra.check_member(mask)
    return total(w for atom, w in zip(p.algebra.atoms, p.weights) if atom & mask)


def dirac(x: str, algebra: Algebra) -> Measure:
    """The point mass at ``x``: every member containing ``x`` has measure 1."""
    hit = algebra.atom_of_point(x)
    weights = tuple(ONE if i == hit else ZERO for i in range(len(algebra.atoms)))
    return Measure(algebra, weights)


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
    return Measure(cod, tuple(total(b) for b in buckets))


def uniform(algebra: Algebra) -> Measure:
    """Equal weight on every atom."""
    k = len(algebra.atoms)
    return Measure(algebra, (Fraction(1, k),) * k)
