"""Reconstruction of measures from integration functionals, and the measure
extension machinery: weak integration lattices, half-open slabs between
functions, Carathéodory extension over semi-rings, and the slab route from a
lattice functional to its unique representing measure.

An integration functional on a finite algebra is its finite table of values
on the listed simple functions (:class:`Functional`); one function,
:func:`reconstruct_measure`, decides whether a table's indicators determine
a measure.  A lattice functional is likewise a table, from each lattice
function (a point-indexed vector, which may exceed 1) to its value.

The slab route is deliberately implemented in full -- build the semi-ring of
slabs ``{(x, t) : f(x) <= t < g(x)}``, extend the induced premeasure to the
generated algebra on a finite product grid, and read the measure off the
height-one slice -- and is then cross-checked against the direct indicator
reconstruction wherever the lattice exposes indicators.  The lattice clauses
and the slab route hold every function as integer numerators over the
lattice's least common denominator (:func:`~finprob.exact.scaled_rows`), and
every rational sum goes through :func:`~finprob.exact.total`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .errors import (
    DomainError,
    ExtensionError,
    PreconditionError,
    ReconstructionError,
)
from .exact import rational_text, scaled_rows, total
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
        values = {s: Fraction(v) for s, v in self.values.items()}
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
    needed = dict.fromkeys(algebra.atoms + (algebra.ground.full_mask,))
    missing = [
        mask
        for mask in needed
        if SimpleFunction.indicator(algebra, mask) not in table
    ]
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
    full = SimpleFunction.indicator(algebra, algebra.ground.full_mask)
    at_full = table[full]
    if at_full != 1:
        raise ReconstructionError(
            f"normalization violated: F(1_X) = {at_full}", witness=(full, at_full)
        )
    weights = tuple(
        table[SimpleFunction.indicator(algebra, atom)] for atom in algebra.atoms
    )
    if any(w < 0 for w in weights):
        bad = next(w for w in weights if w < 0)
        raise ReconstructionError(
            f"negative indicator value {bad}", witness=(weights,)
        )
    mass = total(weights)
    if mass != 1:
        raise ReconstructionError(
            "additivity violated: the ground set decomposes into atoms with "
            f"total indicator mass {rational_text(mass)}, but F(1_X) = 1",
            witness=(algebra.ground.full_mask, algebra.atoms, mass),
        )
    p = Measure(algebra, weights)
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
    ``n*f``, a multiple of ``f`` itself.  From ``n0`` up to the ``N`` at
    which every positive value has reached 1 (after which the clip stops
    changing), each clip lies on a new ray: its saturated values stay 1 while
    some other value grows.  The at most ``|L| - 1`` nonzero members cover as
    many rays, so trying ``n0 ... min(N, n0 + |L| - 1)`` decides the clause
    and finds its first failure.

    Every member is held as an integer vector over the lattice's common
    denominator ``D``, so the clauses are integer maxima, minima,
    differences and clips at ``D``.
    """
    if (ONE,) * lattice.ground.size not in lattice.functions:
        return ClauseCheck(False, "contains-one", ())

    vecs, scale = scaled_rows(lattice.functions)
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
        for n in range(n0, min(max(reach), n0 + len(vecs) - 1) + 1):
            clipped = tuple(min(n * v, scale) for v in f)
            if _as_multiple(clipped, vecs, index) is None:
                witness = (i, n, tuple(Fraction(v, scale) for v in clipped))
                return ClauseCheck(False, "clip", witness)

    return ClauseCheck(True)


# ---------------------------------------------------------------------------
# Slabs


@dataclass(frozen=True)
class Slab:
    """The region ``{(x, t) : lower(x) <= t < upper(x)}`` between two
    nonnegative step functions constant on the atoms of one algebra."""

    algebra: Algebra
    lower: tuple[Fraction, ...]  # per atom
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        lower = tuple(Fraction(v) for v in self.lower)
        upper = tuple(Fraction(v) for v in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        k = len(self.algebra.atoms)
        if len(lower) != k or len(upper) != k:
            raise ValueError("one bound per atom required")
        for lo, hi in zip(lower, upper):
            if lo < 0:
                raise ValueError("slab bounds must be nonnegative")
            if lo > hi:
                raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")

    @property
    def is_empty(self) -> bool:
        return all(lo == hi for lo, hi in zip(self.lower, self.upper))

    def contains(self, label: str, t: Fraction) -> bool:
        i = self.algebra.atom_of_point(label)
        return self.lower[i] <= Fraction(t) < self.upper[i]

    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(sorted(set(self.lower) | set(self.upper)))

    def normalized(self) -> "Slab":
        """Canonical form: per-atom empty intervals collapse to [0, 0), so
        extensional equality becomes structural equality."""
        pairs = [
            (lo, hi) if lo < hi else (ZERO, ZERO)
            for lo, hi in zip(self.lower, self.upper)
        ]
        return Slab(self.algebra, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def _check_same_algebra(a: Slab, b: Slab) -> None:
    if a.algebra != b.algebra:
        raise DomainError("slabs live on different algebras")


def slab_intersect(a: Slab, b: Slab) -> Slab:
    """Pointwise intersection: ``[f1 v f2, g1 ^ g2)``, clamped so the lower
    bound never exceeds the upper."""
    _check_same_algebra(a, b)
    upper = tuple(min(x, y) for x, y in zip(a.upper, b.upper))
    lower = tuple(
        min(max(x, y), u) for x, y, u in zip(a.lower, b.lower, upper)
    )
    return Slab(a.algebra, lower, upper).normalized()


def slab_subtract(a: Slab, b: Slab) -> tuple[Slab, ...]:
    """Set difference as at most two disjoint slabs.

    The lower piece is ``[f1, g1 ^ f2)`` and the upper piece
    ``[f1 v g2, g1)``, each clamped per atom; adjacent pieces merge back into
    one slab and empty pieces are dropped.
    """
    _check_same_algebra(a, b)
    low_piece = Slab(
        a.algebra,
        a.lower,
        tuple(max(lo, min(g1, f2)) for lo, g1, f2 in zip(a.lower, a.upper, b.lower)),
    )
    high_piece = Slab(
        a.algebra,
        tuple(min(g1, max(f1, g2)) for f1, g1, g2 in zip(a.lower, a.upper, b.upper)),
        a.upper,
    )
    if low_piece.upper == high_piece.lower:
        merged = Slab(a.algebra, low_piece.lower, high_piece.upper).normalized()
        return () if merged.is_empty else (merged,)
    pieces = tuple(
        s.normalized() for s in (low_piece, high_piece) if not s.is_empty
    )
    return pieces


# ---------------------------------------------------------------------------
# Caratheodory extension over a semi-ring


@dataclass(frozen=True)
class ExtensionResult:
    """A premeasure extended to the algebra generated by its semi-ring.

    Total mass is carried as metadata; normalization is the caller's choice.
    ``covered`` is the union of the semi-ring members -- atoms outside it are
    assigned weight zero and listed in ``uncovered_atoms``.
    """

    algebra: Algebra
    weights: tuple[Fraction, ...]
    mass: Fraction
    covered: int

    @property
    def uncovered_atoms(self) -> tuple[int, ...]:
        return tuple(a for a in self.algebra.atoms if not a & self.covered)

    def value(self, mask: int) -> Fraction:
        return evaluate(self, mask)  # reads only ``algebra`` and ``weights``

    def to_measure(self) -> Measure:
        if self.mass != 1:
            raise DomainError(f"extension has total mass {self.mass}, not 1")
        return Measure(self.algebra, self.weights)


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

    # in a validated semi-ring, each covered atom is itself a member
    weights = [values[atom] if atom & covered else ZERO for atom in generated.atoms]

    atom_weight = dict(zip(generated.atoms, weights))
    for member in semiring.members:
        parts = [a for a in generated.atoms if a & member]
        decomposed = total(atom_weight[a] for a in parts)
        if decomposed != values[member]:
            raise ExtensionError(
                f"premeasure is not additive: mu = {values[member]} on a member "
                f"whose disjoint decomposition sums to {rational_text(decomposed)}",
                witness=(member, tuple(parts)),
            )

    return ExtensionResult(generated, tuple(weights), total(weights), covered)


# ---------------------------------------------------------------------------
# The slab route from a lattice functional to its measure


def daniell_stone(
    lattice: WeakIntegrationLattice,
    values: Mapping[tuple[Fraction, ...], Fraction],
) -> Measure:
    """The unique measure representing a lattice functional, via slabs.

    ``values`` maps each lattice function to the functional's value on it;
    the zero function need not be listed, since its value is forced to 0.

    Builds the semi-ring of slabs between members of a join/meet-closed bound
    family (the lattice functions bounded by one, the constants zero and one,
    and the indicators of the generated algebra's members, all of which lie
    in the integer-multiple span of a valid lattice), assigns each slab the
    lifted functional value of its height, runs the Carathéodory extension on
    the induced finite product grid, and reads the measure off the
    height-one slice.  The result is cross-checked against the direct
    indicator reconstruction whenever the lattice exposes every indicator.

    Bounds, heights, breakpoints and cells are integer vectors over the
    lattice's common denominator ``D``; functional values stay rational.
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
    point_vecs, scale = scaled_rows(lattice.functions)
    members = [tuple(vec[p] for p in firsts) for vec in point_vecs]
    member_values = [table[vec] for vec in lattice.functions]
    by_direction = _direction_index(members)

    def lift(height: tuple[int, ...]) -> Fraction | None:
        """The lifted functional on rational multiples of declared members."""
        d = _direction(height)
        if d is None:
            return ZERO
        on_ray = by_direction.get(d)
        if on_ray is None:
            return None
        j = on_ray[0]
        k = next(i for i, v in enumerate(d) if v)
        return Fraction(height[k], members[j][k]) * member_values[j]

    # Join/meet-closed family of slab bounds, capped at height one.
    bounds = {(0,) * atom_count, (scale,) * atom_count}
    bounds.update(vec for vec in members if max(vec) <= scale)
    for member_mask in sigma.members:
        bounds.add(
            tuple(scale if atom & member_mask else 0 for atom in sigma.atoms)
        )
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

    # Finite product grid: sigma atoms times vertical cells between breakpoints.
    breakpoints = sorted({v for vec in bound_family for v in vec} | {0, scale})
    cells = list(zip(breakpoints, breakpoints[1:]))
    product_points = tuple(
        f"a{i}c{j}" for i in range(atom_count) for j in range(len(cells))
    )
    product_ground = GroundSet(product_points)

    # A slab [lower, upper) covers the cells at or above lower and at or
    # below upper on every atom: its mask is an AND of two per-bound masks.
    def cell_mask(covers) -> int:
        return sum(1 << bit for bit, covered in enumerate(covers) if covered)

    above = {
        vec: cell_mask(v <= lo for v in vec for lo, _ in cells) for vec in bound_family
    }
    below = {
        vec: cell_mask(hi <= v for v in vec for _, hi in cells) for vec in bound_family
    }

    def fractions_of(slab):
        return tuple(tuple(Fraction(v, scale) for v in vec) for vec in slab)

    slab_values: dict[int, tuple] = {}
    for lower in bound_family:
        for upper in bound_family:
            if any(map(int.__gt__, lower, upper)):
                continue
            mask = above[lower] & below[upper]
            value = lift(tuple(hi - lo for lo, hi in zip(lower, upper)))
            if value is None:
                raise ExtensionError(
                    "slab height is not a rational multiple of any declared "
                    "lattice member; declare a richer family",
                    witness=fractions_of((lower, upper)),
                )
            if mask in slab_values and slab_values[mask][0] != value:
                raise ExtensionError(
                    "functional assigns different masses to one slab set",
                    witness=(
                        fractions_of(slab_values[mask][1]),
                        fractions_of((lower, upper)),
                    ),
                )
            slab_values.setdefault(mask, (value, (lower, upper)))

    semiring = SemiRing(product_ground, tuple(slab_values))
    extension = caratheodory_extend(
        semiring, {mask: value for mask, (value, _) in slab_values.items()}
    )

    column = (1 << len(cells)) - 1  # every cell of atom 0
    weights = [extension.value(column << i * len(cells)) for i in range(atom_count)]
    try:
        result = Measure(sigma, tuple(weights))
    except ValueError as exc:
        raise ExtensionError(f"slab extension is not a probability measure: {exc}")

    # representation property on lattice members bounded by one
    for vec in lattice.functions:
        if any(v > 1 for v in vec):
            continue
        f_simple = SimpleFunction(sigma, tuple(vec[p] for p in firsts))
        if simple_integral(result, f_simple) != table[vec]:
            raise ExtensionError(
                "slab route fails to represent the functional",
                witness=(vec, table[vec], simple_integral(result, f_simple)),
            )

    # uniqueness cross-check against the direct indicator reconstruction,
    # when every member's indicator lifts to a value
    indicators = {}
    for member_mask in sigma.members:
        ind = tuple(scale if atom & member_mask else 0 for atom in sigma.atoms)
        value = lift(ind)
        if value is None:
            break
        indicators[SimpleFunction.indicator(sigma, member_mask)] = value
    else:
        direct = reconstruct_measure(Functional(sigma, indicators))
        if direct != result:
            raise ExtensionError(
                "slab route disagrees with the direct indicator reconstruction",
                witness=(result.weights, direct.weights),
            )
    return result
