"""Finite ground sets, algebras of sets, and semi-rings.

Subsets are bit masks over the ground set's canonical point order: bit ``i``
stands for ``points[i]``.  A family of subsets is an iterable of masks;
:class:`SemiRing` and :class:`Algebra` keep theirs sorted and deduplicated so
every operation is deterministic.  An algebra is represented by its atom
partition; its full member list (all unions of atoms) is exposed as a lazy
view, since ``|members| == 2**len(atoms)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError

#: The most points an input file's ground set or a generated suite's may
#: have; bounds the 2**n enumerations they run.  Library ground sets are
#: not capped.
DEFAULT_SIZE_CAP = 16

#: Algebras larger than this refuse to iterate their member view.
MEMBER_ITERATION_CAP = 1 << 20


@dataclass(frozen=True)
class GroundSet:
    """An ordered finite set of distinct point labels."""

    points: tuple[str, ...]

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        object.__setattr__(self, "points", points)
        if not points:
            raise ValueError("ground set must contain at least one point")
        if len(set(points)) != len(points):
            raise ValueError("ground set labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise DomainError(f"point {label!r} not in ground set") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(p for i, p in enumerate(self.points) if mask >> i & 1)

    def check_mask(self, mask: int) -> int:
        if not 0 <= mask <= self.full_mask:
            raise DomainError(f"mask {mask:#x} is not a subset of the ground set")
        return mask

    def complement(self, mask: int) -> int:
        return self.full_mask ^ self.check_mask(mask)


class AlgebraMembers:
    """Lazy view of an algebra's members: all unions of its atoms."""

    def __init__(self, algebra: "Algebra"):
        self._algebra = algebra

    def __contains__(self, mask: int) -> bool:
        return self._algebra.is_member(mask)

    def __len__(self) -> int:
        return 1 << len(self._algebra.atoms)

    def __iter__(self) -> Iterator[int]:
        atoms = self._algebra.atoms
        if len(self) > MEMBER_ITERATION_CAP:
            raise DomainError(
                f"refusing to enumerate {len(self)} members; use is_member instead"
            )
        members = [0]
        for atom in atoms:
            members += [m | atom for m in members]
        return iter(sorted(members))


@dataclass(frozen=True)
class Algebra:
    """A family of subsets closed under complement and intersection.

    Stored by its atom partition; on a finite ground set this determines the
    algebra completely (members are exactly the unions of atoms) and doubles
    as a sigma-algebra.
    """

    ground: GroundSet
    atoms: tuple[int, ...]

    def __post_init__(self):
        atoms = tuple(sorted(self.atoms))
        object.__setattr__(self, "atoms", atoms)
        union = 0
        for atom in atoms:
            self.ground.check_mask(atom)
            if atom == 0:
                raise ValueError("atoms must be nonempty")
            if union & atom:
                raise ValueError("atoms must be pairwise disjoint")
            union |= atom
        if union != self.ground.full_mask:
            raise ValueError("atoms must cover the ground set")

    @classmethod
    def trivial(cls, ground: GroundSet) -> "Algebra":
        return cls(ground, (ground.full_mask,))

    @classmethod
    def powerset(cls, ground: GroundSet) -> "Algebra":
        return cls(ground, tuple(1 << i for i in range(ground.size)))

    @classmethod
    def from_members(cls, ground: GroundSet, masks: Iterable[int]) -> "Algebra":
        """Build from an explicit member list, validating closure."""
        family = tuple(sorted(set(ground.check_mask(m) for m in masks)))
        members = set(family)
        if 0 not in members or ground.full_mask not in members:
            raise ValueError("an algebra must contain the empty set and the ground set")
        for a in family:
            if ground.complement(a) not in members:
                raise ValueError(f"family not closed under complement at {a:#x}")
            for b in family:
                if a & b not in members:
                    raise ValueError(f"family not closed under intersection at ({a:#x}, {b:#x})")
        # closed under complement and intersection, hence under union: the
        # family is the algebra its own atoms generate
        return generate_algebra(ground, family)

    @property
    def members(self) -> AlgebraMembers:
        return AlgebraMembers(self)

    def is_member(self, mask: int) -> bool:
        self.ground.check_mask(mask)
        for atom in self.atoms:
            hit = mask & atom
            if hit and hit != atom:
                return False
        return True

    def check_member(self, mask: int) -> int:
        if not self.is_member(mask):
            raise DomainError(f"set {self.ground.labels_of(mask)} is not in the algebra")
        return mask

    @cached_property
    def point_atoms(self) -> tuple[int, ...]:
        """The index of each ground point's atom, in point order."""
        index = [0] * self.ground.size
        for i, atom in enumerate(self.atoms):
            for j in range(self.ground.size):
                if atom >> j & 1:
                    index[j] = i
        return tuple(index)

    def atom_of_point(self, label: str) -> int:
        return self.point_atoms[self.ground.index(label)]


def generate_algebra(ground: GroundSet, generators: Iterable[int]) -> Algebra:
    """Smallest algebra on ``ground`` containing all generator sets.

    Atoms are computed by partition refinement: two points land in the same
    atom exactly when no generator separates them.  This avoids materializing
    the full closure, whose size is ``2**len(atoms)``.
    """
    masks = tuple(generators)
    for m in masks:
        ground.check_mask(m)
    blocks: dict[tuple[int, ...], int] = {}
    for i in range(ground.size):
        signature = tuple(m >> i & 1 for m in masks)
        blocks[signature] = blocks.get(signature, 0) | (1 << i)
    return Algebra(ground, tuple(sorted(blocks.values())))


def algebra_closure(ground: GroundSet, generators: Iterable[int]) -> tuple[int, ...]:
    """Materialized closure under complement and pairwise intersection.

    Worklist fixpoint; exponential in the number of atoms, so intended for
    small instances and as an independent cross-check of
    :func:`generate_algebra`.
    """
    members = {0, ground.full_mask}
    members.update(ground.check_mask(m) for m in generators)
    work = list(members)
    while work:
        a = work.pop()
        fresh = {ground.complement(a)}
        fresh.update(a & b for b in members)
        for c in fresh:
            if c not in members:
                members.add(c)
                work.append(c)
    return tuple(sorted(members))


@dataclass(frozen=True)
class SemiRingCheck:
    ok: bool
    clause: str | None = None
    witness: tuple | None = None


def _exact_cover(target: int, pieces: Sequence[int]) -> tuple[int, ...] | None:
    """A pairwise-disjoint subfamily of ``pieces`` with union ``target``."""
    usable = [p for p in pieces if p and p & target == p]
    memo: dict[int, tuple[int, ...] | None] = {0: ()}

    def solve(rest: int) -> tuple[int, ...] | None:
        if rest in memo:
            return memo[rest]
        low = rest & -rest
        result = None
        for p in usable:
            if p & low and p & rest == p:
                tail = solve(rest & ~p)
                if tail is not None:
                    result = (p,) + tail
                    break
        memo[rest] = result
        return result

    return solve(target)


def is_semiring(family: Iterable[int]) -> SemiRingCheck:
    """Check the three semi-ring clauses, returning a witness on failure.

    Clauses: the empty set belongs to the family; the family is closed under
    binary intersection; every relative complement of two members decomposes
    as a finite disjoint union of members.
    """
    members = set(family)
    if 0 not in members:
        return SemiRingCheck(False, "missing-empty", ())
    masks = tuple(sorted(members))
    for a in masks:
        for b in masks:
            if a & b not in members:
                return SemiRingCheck(False, "intersection", (a, b))
    for a in masks:
        for b in masks:
            diff = a & ~b
            if diff in members:
                continue
            if _exact_cover(diff, masks) is None:
                return SemiRingCheck(False, "difference", (a, b))
    return SemiRingCheck(True)


@dataclass(frozen=True)
class SemiRing:
    """A validated semi-ring of subsets: contains the empty set, closed under
    intersection, relative complements decompose into disjoint members."""

    ground: GroundSet
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        check = is_semiring(self.members)
        if not check.ok:
            raise ValueError(f"not a semi-ring: {check.clause} witness {check.witness}")

    def difference_decomposition(self, a: int, b: int) -> tuple[int, ...]:
        """Disjoint members whose union is ``a`` minus ``b``."""
        if a not in self.members or b not in self.members:
            raise DomainError("difference arguments must be members")
        cover = _exact_cover(a & ~b, self.members)
        assert cover is not None  # guaranteed by construction-time validation
        return cover


def sigma_of_functions(ground: GroundSet, fns: Sequence[Sequence[Fraction]]) -> Algebra:
    """Algebra generated by the level sets ``{x : f(x) > r}`` of the given
    rational-valued functions (one value tuple per function, aligned with the
    ground's point order)."""
    generators: list[int] = []
    for values in fns:
        if len(values) != ground.size:
            raise DomainError("function must assign a value to every point")
        vals = [Fraction(v) for v in values]
        for r in sorted(set(vals)):
            generators.append(sum(1 << i for i, v in enumerate(vals) if v > r))
    return generate_algebra(ground, generators)


def is_premeasurable(
    mapping: Mapping[str, str], dom: Algebra, cod: Algebra
) -> tuple[bool, int | None]:
    """Whether preimages of codomain members all lie in the domain algebra.

    Equivalent criterion used here: the preimage of every codomain *atom*
    must be a union of domain atoms; a failing atom is itself a violating
    member and is returned as the witness.
    """
    for point in dom.ground.points:
        if point not in mapping:
            raise DomainError(f"map is not total: missing {point!r}")
        cod.ground.index(mapping[point])
    for atom in cod.atoms:
        pre = preimage_mask(mapping, dom.ground, cod.ground, atom)
        if not dom.is_member(pre):
            return False, atom
    return True, None


def preimage_mask(
    mapping: Mapping[str, str], dom: GroundSet, cod: GroundSet, mask: int
) -> int:
    cod.check_mask(mask)
    pre = 0
    for i, point in enumerate(dom.points):
        if mask >> cod.index(mapping[point]) & 1:
            pre |= 1 << i
    return pre
