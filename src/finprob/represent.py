"""Reconstruction of measures from integration functionals, and the measure
extension machinery: weak integration lattices, slabs between functions as
cell masks on a product grid, Carathéodory extension over semi-rings, and the
slab route from a lattice functional to its unique representing measure.

An integration functional on a finite algebra is its finite table of values
on the listed simple functions (:class:`Functional`); one function,
:func:`reconstruct_measure`, decides whether a table's indicators determine
a measure.  A lattice functional is likewise a table, from each lattice
function (a point-indexed vector, which may exceed 1) to its value.

The slab route is deliberately implemented in full -- build the semi-ring of
slabs ``{(x, t) : f(x) <= t < g(x)}``, extend the induced premeasure to the
generated algebra on a finite product grid, and read the measure off the
height-one slice.  One function, :func:`slab_grid`, builds that grid and
every slab's cell mask on it.  The lattice clauses and the slab route hold
every function as integer numerators over the lattice's least common
denominator (:func:`~finprob.exact.common`); the extension and the
reconstruction likewise bring their values over one denominator
(:func:`~finprob.exact.scaled`) and add integer numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import (
    DomainError,
    ExtensionError,
    PreconditionError,
    ReconstructionError,
)
from .exact import Scaled, common, fractions, rational_text, scaled, total
from .integrate import SimpleFunction, simple_integral
from .measure import Measure, evaluate
from .setalg import (
    Algebra,
    ClauseCheck,
    GroundSet,
    SemiRing,
    generate_algebra,
    sigma_of_functions,
)

ZERO = Fraction(0)
ONE = Fraction(1)
BOUND_FAMILY_CAP = 512  # most slab bounds the slab route builds


# ---------------------------------------------------------------------------
# Functionals and indicator reconstruction


@dataclass(frozen=True)
class Functional:
    """An integration functional given by its finite table: ``values`` maps
    each listed simple function to the functional's value on it.

    The additivity hypotheses of the representation results cannot be checked
    on the full function space, so reconstruction asserts them on the listed
    functions and reports violations with witnesses.  Functions are keyed by
    their values on atoms: two term lists of one function are one entry.
    """

    algebra: Algebra
    values: Mapping[SimpleFunction, Fraction]

    def __post_init__(self):
        values = dict(zip(self.values, fractions(self.values.values())))
        if any(s.algebra != self.algebra for s in values):
            raise DomainError("listed functions must live on the functional's algebra")
        object.__setattr__(self, "values", values)


def reconstruct_measure(f: Functional) -> Measure:
    """The unique measure with the table's indicator values.

    The table must list 1_X and the indicator of every atom; the ones it
    lacks are named in one :class:`ReconstructionError`.  Sets
    ``P(A) := F(1_A)`` on atoms, then asserts that the full ground set gets
    mass one, that the atom values are nonnegative and sum to it, and that
    integration against ``P`` reproduces every listed value.

    No separate finite-sum (or countable-sum) check follows, because none
    could fail.  A countable disjoint family in a finite algebra has finitely
    many nonempty members.  Once every listed function, each listed
    indicator included, integrates against ``P`` to its value, every listed
    indicator's value is ``P`` of its set.  ``P`` is additive, so the values
    of a disjoint family of listed indicators add up to the value of their
    union whenever that union is listed too.
    """
    algebra = f.algebra
    table = f.values
    listed = {s.nums: s for s in table if s.den == 1}  # the listed indicators
    needed = {
        mask: listed.get(tuple(int(atom & mask != 0) for atom in algebra.atoms))
        for mask in algebra.atoms + (algebra.ground.full_mask,)
    }
    missing = [mask for mask, s in needed.items() if s is None]
    if missing:
        names = ", ".join(
            "1_{" + ", ".join(algebra.ground.labels_of(mask)) + "}"
            for mask in missing
        )
        raise ReconstructionError(
            "table lacks the indicators needed to determine a measure "
            f"(every atom and the whole set): {names}",
            witness=tuple(missing),
        )
    full = needed[algebra.ground.full_mask]
    at_full = table[full]
    if at_full != 1:
        raise ReconstructionError(
            f"normalization violated: F(1_X) = {at_full}", witness=(full, at_full)
        )
    weights = tuple(table[needed[atom]] for atom in algebra.atoms)
    if any(w < 0 for w in weights):
        bad = next(w for w in weights if w < 0)
        raise ReconstructionError(
            f"negative indicator value {bad}", witness=(weights,)
        )
    den, nums = scaled(weights)
    if sum(nums) != den:
        mass = Fraction(sum(nums), den)
        raise ReconstructionError(
            "additivity violated: the ground set decomposes into atoms with "
            f"total indicator mass {rational_text(mass)}, but F(1_X) = 1",
            witness=(algebra.ground.full_mask, algebra.atoms, mass),
        )
    p = Measure.from_numerators(algebra, den, nums)
    failures = []
    for s, got in table.items():
        expected = simple_integral(p, s)
        if got != expected:
            failures.append((s, expected, got))
    if failures:
        s, expected, got = failures[0]
        raise ReconstructionError(
            f"additivity violated on the test family: F(s) = {got} but "
            "integration against the indicator reconstruction gives "
            f"{rational_text(expected)}",
            witness=tuple(failures),
        )
    return p


# ---------------------------------------------------------------------------
# Weak integration lattices


@dataclass(frozen=True)
class WeakIntegrationLattice:
    """A finite family of nonnegative rational functions on a ground set,
    closed in the weak lattice sense: it contains the constant one, and
    joins, meets, join-minus-meet of members and clipped multiples
    ``min(n*f, 1)`` for every integer ``n >= 1`` are integer multiples of
    members.  The zero function, which always lies in the integer-multiple
    span, is adjoined automatically.

    Functions are deduplicated and sorted at construction."""

    ground: GroundSet
    functions: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        fns = []
        seen = set()
        for vec in self.functions:
            vec = tuple(Fraction(v) for v in vec)
            if len(vec) != self.ground.size:
                raise ValueError("every function must assign a value to each point")
            if any(v < 0 for v in vec):
                raise ValueError("lattice functions must be nonnegative")
            if vec not in seen:
                seen.add(vec)
                fns.append(vec)
        zero = (ZERO,) * self.ground.size
        if zero not in seen:
            fns.append(zero)
        object.__setattr__(self, "functions", tuple(sorted(fns)))


def _direction(vec: Sequence[int]) -> tuple[int, ...] | None:
    """The primitive integer vector on the ray of ``vec`` (``None`` for zero):
    two nonzero vectors are positive multiples of each other exactly when
    their directions agree."""
    g = gcd(*vec)
    if g == 0:
        return None
    return tuple(v // g for v in vec)


def _direction_index(vectors: Sequence[Sequence[int]]) -> dict[tuple, list[int]]:
    """Member indices grouped by direction, each group in ascending order."""
    index: dict[tuple, list[int]] = {}
    for idx, vec in enumerate(vectors):
        d = _direction(vec)
        if d is not None:
            index.setdefault(d, []).append(idx)
    return index


def _as_multiple(
    target: tuple[int, ...],
    members: Sequence[tuple[int, ...]],
    index: Mapping[tuple, list[int]],
) -> tuple[int, int] | None:
    """``(n, idx)`` with ``target == n * members[idx]`` for the smallest
    ``idx`` with any integer ``n >= 1``; ``(0, 0)`` for the zero target
    (member 0 of a lattice is the zero function)."""
    d = _direction(target)
    if d is None:
        return (0, 0)
    k = next(i for i, v in enumerate(d) if v)
    for idx in index.get(d, ()):
        n, rest = divmod(target[k], members[idx][k])
        if not rest:
            return (n, idx)
    return None


def check_weak_lattice(lattice: WeakIntegrationLattice) -> ClauseCheck:
    """Decide the weak-lattice closure clauses exactly: the first clause that
    fails, with its witness ``(i, j, target)`` or ``(i, n, clip)`` by indices
    into the lattice's ``functions``.

    Each join, meet and span of two members, and each clip ``min(n*f, 1)``
    for every integer ``n >= 1``, must be an integer multiple of a member.
    Below the least ``n0`` at which some value of ``f`` reaches 1 the clip is
    ``n*f``, a multiple of ``f`` itself, and from the ``N`` at which every
    positive value has reached 1 the clip stops changing, so trying
    ``n0 ... N`` decides the clause.  That scan needs no cap of its own:

    - the clips for ``n0 <= n <= N`` lie on pairwise distinct rays.  A value
      saturated at ``n0`` is 1 in all of them, so two clips on one ray would
      be equal, yet a value still below 1 at the smaller ``n`` is larger at
      the greater;
    - a passing clip is a multiple of a nonzero member on its ray, and there
      are at most ``|L| - 1`` nonzero members, so one of the first ``|L|``
      values of ``n`` fails;
    - the scan returns at its first failure, so it stops within ``|L|``
      values of ``n`` whatever ``N`` is.

    Every member is held as an integer vector over the lattice's common
    denominator ``D``, so the clauses are integer maxima, minima,
    differences and clips at ``D``.
    """
    if (ONE,) * lattice.ground.size not in lattice.functions:
        return ClauseCheck(False, "contains-one", ())

    scale, vecs = common(map(Scaled.of, lattice.functions))
    index = _direction_index(vecs)

    for i, f in enumerate(vecs):
        for j, g in enumerate(vecs[i:], start=i):
            join = tuple(map(max, f, g))
            meet = tuple(map(min, f, g))
            span = tuple(a - b for a, b in zip(join, meet))
            for kind, target in (("join", join), ("meet", meet), ("span", span)):
                if _as_multiple(target, vecs, index) is None:
                    witness = (i, j, tuple(Fraction(v, scale) for v in target))
                    return ClauseCheck(False, kind, witness)

    for i, f in enumerate(vecs):
        reach = [-(-scale // v) for v in f if v]  # least n with n*v >= D
        if not reach:
            continue  # every clip of zero is zero
        n0 = min(reach)
        for n in range(n0, max(reach) + 1):
            clipped = tuple(min(n * v, scale) for v in f)
            if _as_multiple(clipped, vecs, index) is None:
                witness = (i, n, tuple(Fraction(v, scale) for v in clipped))
                return ClauseCheck(False, "clip", witness)

    return ClauseCheck(True)


# ---------------------------------------------------------------------------
# Caratheodory extension over a semi-ring


@dataclass(frozen=True, init=False)
class ExtensionResult(Scaled):
    """A premeasure extended to the algebra generated by its semi-ring, as
    one :class:`~finprob.exact.Scaled` vector on that algebra's atoms: atom
    ``i`` weighs ``nums[i] / den``.

    Total mass is carried as metadata; normalization is the caller's choice.
    ``covered`` is the union of the semi-ring members -- atoms outside it are
    assigned weight zero and listed in ``uncovered_atoms``.
    """

    algebra: Algebra
    covered: int

    def __init__(self, algebra: Algebra, den: int, nums: Iterable[int], covered: int):
        self._init_on(algebra, den, tuple(nums))
        object.__setattr__(self, "covered", covered)

    @property
    def mass(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    @property
    def uncovered_atoms(self) -> tuple[int, ...]:
        return tuple(a for a in self.algebra.atoms if not a & self.covered)

    def value(self, mask: int) -> Fraction:
        """The extension's value on a member: its atoms' weights summed."""
        return evaluate(self, mask)

    def to_measure(self) -> Measure:
        if self.mass != 1:
            raise DomainError(f"extension has total mass {self.mass}, not 1")
        return Measure.from_numerators(self.algebra, self.den, self.nums)


def caratheodory_extend(
    semiring: SemiRing, mu: Mapping[int, Fraction]
) -> ExtensionResult:
    """Extend an additive premeasure from a semi-ring to the generated algebra.

    Every atom of the generated algebra inside the union of the semi-ring is
    itself a semi-ring member, so atom weights are read off directly; the
    premeasure's additivity over each member's atom decomposition is then
    checked exhaustively, which pins the extension uniquely.
    """
    values = {}
    for member in semiring.members:
        if member not in mu:
            raise DomainError(
                f"premeasure missing a value for member {member:#x}"
            )
        v = Fraction(mu[member])
        if v < 0:
            raise ExtensionError(
                f"premeasure value {v} on {member:#x} is negative", witness=(member, v)
            )
        values[member] = v
    if values.get(0, ZERO) != 0:
        raise ExtensionError(
            f"premeasure of the empty set is {values[0]}, not 0", witness=(0, values[0])
        )

    generated = generate_algebra(semiring.ground, semiring.members)
    covered = 0
    for member in semiring.members:
        covered |= member

    den, nums = scaled(values.values())
    num_of = dict(zip(values, nums))
    # in a validated semi-ring, each covered atom is itself a member
    weights = [num_of[atom] if atom & covered else 0 for atom in generated.atoms]

    for member in semiring.members:
        decomposed = sum(w for a, w in zip(generated.atoms, weights) if a & member)
        if decomposed != num_of[member]:
            parts = tuple(a for a in generated.atoms if a & member)
            raise ExtensionError(
                f"premeasure is not additive: mu = {values[member]} on a member "
                "whose disjoint decomposition sums to "
                f"{rational_text(Fraction(decomposed, den))}",
                witness=(member, parts),
            )

    return ExtensionResult(generated, den, weights, covered)


# ---------------------------------------------------------------------------
# The slab route from a lattice functional to its measure


def slab_grid(
    seeds: Iterable[tuple[int, ...]], scale: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]], dict, dict]:
    """The product grid on which slabs between bound vectors are cell masks.

    A bound vector gives one integer per atom, over the common denominator
    ``scale``.  Returns ``(bound_family, cells, above, below)``:

    - ``bound_family``, the closure of ``seeds`` under pointwise join and
      meet, in ascending order;
    - ``cells``, the pairs ``(lo, hi)`` of consecutive breakpoints, which are
      the values of the bound family together with ``0`` and ``scale``;
    - ``above`` and ``below``, mapping each bound vector to the mask of the
      cells at or above it and of the cells at or below it.

    Bit ``i * len(cells) + j`` of a mask is cell ``j`` over atom ``i``.  The
    slab ``{(x, t) : lower(x) <= t < upper(x)}`` is the mask
    ``above[lower] & below[upper]``.  A closure of more than
    :data:`BOUND_FAMILY_CAP` vectors raises :class:`ExtensionError`.
    """
    bounds = set(seeds)
    frontier = list(bounds)
    while frontier:
        if len(bounds) > BOUND_FAMILY_CAP:
            raise ExtensionError(
                f"slab bound family exceeds the desk-scale cap {BOUND_FAMILY_CAP}"
            )
        f = frontier.pop()
        for g in tuple(bounds):
            for combo in (tuple(map(max, f, g)), tuple(map(min, f, g))):
                if combo not in bounds:
                    bounds.add(combo)
                    frontier.append(combo)
    bound_family = sorted(bounds)
    breakpoints = sorted({v for vec in bound_family for v in vec} | {0, scale})
    cells = list(zip(breakpoints, breakpoints[1:]))

    def cell_mask(covers) -> int:
        return sum(1 << bit for bit, covered in enumerate(covers) if covered)

    above = {
        vec: cell_mask(v <= lo for v in vec for lo, _ in cells) for vec in bound_family
    }
    below = {
        vec: cell_mask(hi <= v for v in vec for _, hi in cells) for vec in bound_family
    }
    return bound_family, cells, above, below


def daniell_stone(
    lattice: WeakIntegrationLattice,
    values: Mapping[tuple[Fraction, ...], Fraction],
) -> Measure:
    """The unique measure representing a lattice functional, via slabs.

    ``values`` maps each lattice function to the functional's value on it;
    the zero function need not be listed, since its value is forced to 0.

    Builds the semi-ring of slabs between members of a join/meet-closed bound
    family, assigns each slab the lifted functional value of its upper bound
    less that of its lower one, runs the Carathéodory extension on the induced
    finite product grid, and reads the measure off the height-one slice.  The
    closure is seeded with the lattice functions bounded by one and nothing
    else; the constants zero and one are among them.  The result must
    represent the functional on every lattice function, those with values
    above one included: its :func:`integration_table` must agree with
    ``values`` everywhere.  So a table that breaks homogeneity on a member
    above one is caught too.  A measure that passes is the only one that
    represents the functional, since on every lattice tried the functions
    bounded by one, read on the generated algebra's atoms, have full rank (a
    test pins this), and two measures that agree on them agree on each atom.

    Bounds, breakpoints and cells are integer vectors over the lattice's
    common denominator ``D``; functional values stay rational.

    Each bound is lifted once, as a rational multiple of a lattice member,
    and a slab ``[lower, upper)`` is worth the lift of ``upper`` less that of
    ``lower``.  Heights are not lifted, since one can lie on no member's
    ray: on two points, the 20-function closure of ``(1/6, 1/3)`` and
    ``(1/2, 1)`` has the bounds ``(0, 2/3)`` and one, whose slab height
    ``(1, 1/3)`` is no multiple of a member.  :class:`ExtensionError` is
    raised when a bound itself lies on no member's ray.
    """
    check = check_weak_lattice(lattice)
    if not check.ok:
        raise PreconditionError(
            f"invalid weak integration lattice: clause {check.clause} fails "
            f"with witness {check.witness}"
        )
    ground = lattice.ground
    one_vec = (ONE,) * ground.size
    zero_vec = (ZERO,) * ground.size
    table = {zero_vec: ZERO}  # I(0) = 0 is forced; a listed value is ignored
    for vec in lattice.functions:
        if vec == zero_vec:
            continue
        if vec not in values:
            named = ", ".join(map(str, vec))
            raise PreconditionError(f"functional lacks a value for ({named})")
        v = Fraction(values[vec])
        if v < 0:
            raise PreconditionError(f"functional value {v} is negative")
        table[vec] = v
    if table[one_vec] != 1:
        raise PreconditionError(f"functional sends 1 to {table[one_vec]}, not 1")

    sigma = sigma_of_functions(ground, lattice.functions)
    atom_count = len(sigma.atoms)
    firsts = [(atom & -atom).bit_length() - 1 for atom in sigma.atoms]
    scale, point_vecs = common(map(Scaled.of, lattice.functions))
    members = [tuple(vec[p] for p in firsts) for vec in point_vecs]
    member_values = [table[vec] for vec in lattice.functions]
    by_direction = _direction_index(members)

    def lift(bound: tuple[int, ...]) -> Fraction:
        """The lifted functional at a bound, a rational multiple of a member."""
        d = _direction(bound)
        if d is None:
            return ZERO
        on_ray = by_direction.get(d)
        if on_ray is None:
            raise ExtensionError(
                "slab bound is not a rational multiple of any declared lattice "
                "member; declare a richer family",
                witness=tuple(Fraction(v, scale) for v in bound),
            )
        j = on_ray[0]
        k = next(i for i, v in enumerate(d) if v)
        return Fraction(bound[k], members[j][k]) * member_values[j]

    # The slabs' bounds: the lattice functions bounded by one, closed.
    seeds = [vec for vec in members if max(vec) <= scale]
    bound_family, cells, above, below = slab_grid(seeds, scale)
    product_points = tuple(
        f"a{i}c{j}" for i in range(atom_count) for j in range(len(cells))
    )
    product_ground = GroundSet(product_points)

    # A slab [lower, upper) is worth I(upper) - I(lower).  Pairs that share a
    # mask keep the first value; a table on which they disagree fails the
    # extension or the final check.
    lifted = {vec: lift(vec) for vec in bound_family}
    slab_values: dict[int, Fraction] = {}
    for lower in bound_family:
        for upper in bound_family:
            if not any(map(int.__gt__, lower, upper)):
                value = lifted[upper] - lifted[lower]
                slab_values.setdefault(above[lower] & below[upper], value)

    semiring = SemiRing(product_ground, tuple(slab_values))
    extension = caratheodory_extend(semiring, slab_values)

    column = (1 << len(cells)) - 1  # every cell of atom 0
    weights = [extension.value(column << i * len(cells)) for i in range(atom_count)]
    try:
        result = Measure(sigma, tuple(weights))
    except ValueError as exc:
        raise ExtensionError(f"slab extension is not a probability measure: {exc}")

    represented = integration_table(result, lattice)
    for vec in lattice.functions:
        if represented[vec] != table[vec]:
            raise ExtensionError(
                "slab route fails to represent the functional",
                witness=(vec, table[vec], represented[vec]),
            )
    return result


def integration_table(
    p: Measure, lattice: WeakIntegrationLattice
) -> dict[tuple[Fraction, ...], Fraction]:
    """Each lattice function's integral against ``p``, a measure on the
    lattice's generated algebra: its values at one point of each atom,
    weighted by the atoms' masses."""
    points = [(atom & -atom).bit_length() - 1 for atom in p.algebra.atoms]
    return {f: total(w * f[i] for w, i in zip(p.weights, points)) for f in lattice.functions}
