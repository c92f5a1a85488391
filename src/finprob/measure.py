"""Probability measures on finite algebras.

A measure is stored by its atom weight vector, the unique minimal
representation, as a :class:`~finprob.exact.Scaled` vector, so two measures
are equal exactly when their algebras, denominators and numerators are, and
hashing reads only the ints ``(den, nums)``, not the algebra.  The value on
any member is the sum of the weights of the atoms it contains.  There is no
separate type or flag for finitely additive charges: a finite algebra has
finitely many members, so every countable disjoint family in it has only
finitely many nonempty members, and a finitely additive charge is already
sigma-additive.  The two notions name one object here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import DomainError, PreconditionError
from .exact import Scaled, fractions, scaled
from .setalg import Algebra, GroundSet, is_premeasurable


@dataclass(frozen=True, init=False, repr=False)
class Measure(Scaled):
    """A normalized additive set function on a finite algebra.

    Built from one rational weight per atom (``Measure(algebra, weights)``)
    or from integers (:meth:`from_numerators`); either way the weights must
    lie in [0, 1] and sum to 1.  Atom ``i`` weighs ``nums[i] / den``.
    """

    algebra: Algebra
    __hash__ = Scaled.__hash__

    def __init__(self, algebra: Algebra, weights: Sequence) -> None:
        self._init_on(algebra, *scaled(fractions(weights)))

    def _check(self, algebra: Algebra, den: int, nums: tuple[int, ...]) -> None:
        if min(nums) < 0 or max(nums) > den:
            raise ValueError("atom weights must lie in [0, 1]")
        mass = sum(nums)
        if mass != den:
            raise ValueError(f"atom weights must sum to 1, got {Fraction(mass, den)}")

    def __repr__(self) -> str:
        return f"Measure(algebra={self.algebra!r}, weights={self.weights!r})"

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


def evaluate(p: Scaled, mask: int) -> Fraction:
    """The value of a member under ``p``, a measure or another ``Scaled``
    vector on atoms: :func:`masked_sum` over ``p.den``."""
    return Fraction(masked_sum(p, mask), p.den)


def masked_sum(p: Scaled, mask: int) -> int:
    """The numerators of ``p``'s atoms inside the member ``mask``, summed."""
    p.algebra.check_member(mask)
    return sum(n for atom, n in zip(p.algebra.atoms, p.nums) if atom & mask)


def dirac(x: str, algebra: Algebra) -> Measure:
    """The point mass at ``x``: every member containing ``x`` has measure 1."""
    hit = algebra.atom_of_point(x)
    nums = tuple(int(i == hit) for i in range(len(algebra.atoms)))
    return Measure.from_numerators(algebra, 1, nums)


def pushforward(p: Measure, mapping: Mapping[str, str], cod: Algebra) -> Measure:
    """The image measure ``B -> p(f^{-1}(B))`` along a premeasurable map.

    One pass over the domain: each domain atom's numerator goes to the
    codomain atom its points land in.  The map is premeasurable exactly when no
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
    nums = [0] * len(cod.atoms)
    for j, n in zip(image, p.nums):
        nums[j] += n
    return Measure.from_numerators(cod, p.den, nums)


def uniform(algebra: Algebra) -> Measure:
    """Equal weight on every atom."""
    k = len(algebra.atoms)
    return Measure.from_numerators(algebra, k, (1,) * k)
