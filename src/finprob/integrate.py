"""Simple functions and exact integration against finite measures.

On a finite algebra every measurable [0, 1]-valued function is simple, so one
type carries both roles.  A simple function is held as its atom-indexed
value vector; the original term list, when given, is kept only for the
term-sum check of :func:`check_integral_properties` and is ignored by
equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, RangeError
from .exact import dot, fractions, grid, in_unit_interval, total
from .measure import Measure, evaluate
from .report import CheckOutcome, tally
from .setalg import Algebra

ZERO = Fraction(0)
ONE = Fraction(1)
GRID_DENOMINATOR = 4  # largest denominator of the sup-inf clause's grid
CHAIN_LENGTH = 3  # steps of the monotone-limit clause's increasing chains


@dataclass(frozen=True)
class SimpleFunction:
    """A [0, 1]-valued function constant on the atoms of its algebra."""

    algebra: Algebra
    values: tuple[Fraction, ...]  # one value per atom, canonical form
    terms: tuple[tuple[Fraction, int], ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        values = fractions(self.values)
        object.__setattr__(self, "values", values)
        terms = tuple(self.terms)
        if terms:
            coefficients = fractions(a for a, _ in terms)
            terms = tuple(zip(coefficients, (m for _, m in terms)))
        object.__setattr__(self, "terms", terms)
        if len(values) != len(self.algebra.atoms):
            raise ValueError("one value per atom required")
        for v in values:
            if not in_unit_interval(v):
                raise RangeError(f"simple function value {v} outside [0, 1]")

    @classmethod
    def from_terms(
        cls, algebra: Algebra, terms: Iterable[tuple[Fraction, int]]
    ) -> "SimpleFunction":
        """Build ``sum a_k * 1_{A_k}`` from coefficient/member pairs."""
        terms = tuple((Fraction(a), m) for a, m in terms)
        for a, m in terms:
            if not in_unit_interval(a):
                raise RangeError(f"term coefficient {a} outside [0, 1]")
            algebra.check_member(m)
        values = tuple(
            total(a for a, m in terms if m & atom) for atom in algebra.atoms
        )
        return cls(algebra, values, terms)

    @classmethod
    def indicator(cls, algebra: Algebra, mask: int) -> "SimpleFunction":
        algebra.check_member(mask)
        return cls(
            algebra, tuple(ONE if atom & mask else ZERO for atom in algebra.atoms)
        )

    @classmethod
    def constant(cls, algebra: Algebra, value: Fraction) -> "SimpleFunction":
        return cls(algebra, (Fraction(value),) * len(algebra.atoms))

    def value_at(self, label: str) -> Fraction:
        return self.values[self.algebra.atom_of_point(label)]

    def __le__(self, other: "SimpleFunction") -> bool:
        self._check_same_algebra(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def add(self, other: "SimpleFunction") -> "SimpleFunction":
        """Pointwise sum; the result must stay within [0, 1]."""
        self._check_same_algebra(other)
        return SimpleFunction(
            self.algebra, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def scale(self, r: Fraction) -> "SimpleFunction":
        r = Fraction(r)
        if r < 0 or r > 1:
            raise RangeError(f"scalar {r} outside [0, 1]")
        return SimpleFunction(self.algebra, tuple(r * v for v in self.values))

    def restrict(self, mask: int) -> "SimpleFunction":
        """Pointwise product with the indicator of a member."""
        self.algebra.check_member(mask)
        return SimpleFunction(
            self.algebra,
            tuple(v if atom & mask else ZERO for atom, v in zip(self.algebra.atoms, self.values)),
        )

    def _check_same_algebra(self, other: "SimpleFunction") -> None:
        if other.algebra != self.algebra:
            raise DomainError("simple functions live on different algebras")


def simple_integral(p: Measure, s: SimpleFunction) -> Fraction:
    """Exact integral of a simple function: sum of atom value times weight.

    On a finite algebra the integral of a [0, 1]-valued function, the
    supremum of simple-function integrals below it, is attained at the
    function itself, so this sum is the integral.
    """
    if s.algebra != p.algebra:
        raise DomainError("function and measure live on different algebras")
    return dot(s.values, p.weights)


def _term_sum(p: Measure, f: SimpleFunction) -> Fraction:
    """``sum a_k * P(A_k)`` over the terms of ``f``, computed from measures of
    members rather than atom weights.

    A function with no term list is written as its level-set decomposition
    ``sum_j (v_j - v_{j-1}) * 1{f >= v_j}`` over its distinct nonzero values
    ``v_1 < v_2 < ...`` (with ``v_0 = 0``).
    """
    terms = f.terms
    if not terms:
        levels = sorted(set(f.values) - {ZERO})
        atoms = f.algebra.atoms
        terms = tuple(
            # atoms are disjoint, so their sum is their union
            (v - below, sum(a for a, x in zip(atoms, f.values) if x >= v))
            for below, v in zip([ZERO] + levels, levels)
        )
    return dot((a for a, _ in terms), (evaluate(p, m) for _, m in terms))


def check_integral_properties(
    p: Measure, fns: Sequence[SimpleFunction]
) -> tuple[CheckOutcome, ...]:
    """Exact checks of the integral's additivity and continuity properties.

    Six clauses, one check each in this order: agreement of
    :func:`simple_integral` with the term sum ``sum a_k * P(A_k)``;
    monotonicity; ``sup-inf``, the supremum over minorants equal to the
    infimum over majorants, searched over a rational grid with denominators
    up to :data:`GRID_DENOMINATOR`, or up to 1 on algebras of more than three
    atoms; additivity of sums staying within [0, 1]; monotone limits of eventually
    constant increasing sequences; and finite decompositions standing in for
    countable sums with finitely many nonzero terms.

    The function itself lies in both of ``sup-inf``'s searches, so that
    clause is monotonicity between f and each grid function: it fails only
    where :func:`simple_integral` gives a grid minorant of f more than f, or
    a grid majorant less.
    """
    for f in fns:
        if f.algebra != p.algebra:
            raise DomainError("all functions must live on the measure's algebra")

    # (i) the atom sum agrees with the term sum
    cases = [
        (simple_integral(p, f) == _term_sum(p, f), f"fn#{i}") for i, f in enumerate(fns)
    ]
    results = [tally("simple-agreement", cases)]

    # (ii) monotonicity
    cases = []
    for (i, f), (j, g) in itertools.permutations(enumerate(fns), 2):
        if f <= g:
            cases.append(
                (simple_integral(p, f) <= simple_integral(p, g), f"fn#{i}<=fn#{j}")
            )
    results.append(tally("monotone", cases))

    # (iii) sup over minorants equals inf over majorants
    cases = []
    grid_cap = 3  # exhaustive grid search is exponential in the atom count
    denominator = GRID_DENOMINATOR if len(p.algebra.atoms) <= grid_cap else 1

    def below(limit):  # the grid up to ``limit``, and ``limit`` itself
        return dict.fromkeys([*grid(limit, denominator), limit])

    for i, f in enumerate(fns):
        target = simple_integral(p, f)
        minorant_choices = [below(v) for v in f.values]
        best_lower = max(
            simple_integral(p, SimpleFunction(p.algebra, combo))
            for combo in itertools.product(*minorant_choices)
        )
        majorant_choices = [[ONE - w for w in below(ONE - v)] for v in f.values]
        best_upper = min(
            simple_integral(p, SimpleFunction(p.algebra, combo))
            for combo in itertools.product(*majorant_choices)
        )
        cases.append((best_lower == target == best_upper, f"fn#{i}"))
    results.append(tally("sup-inf", cases))

    # (iv) additivity when the sum stays a [0, 1]-function
    cases = []
    for (i, f), (j, g) in itertools.combinations(enumerate(fns), 2):
        if all(a + b <= 1 for a, b in zip(f.values, g.values)):
            lhs = simple_integral(p, f.add(g))
            rhs = simple_integral(p, f) + simple_integral(p, g)
            cases.append((lhs == rhs, f"fn#{i}+fn#{j}"))
    results.append(tally("additive", cases))

    # (v) monotone limits, finite form: eventually constant increasing chains
    cases = []
    for i, f in enumerate(fns):
        chain = [f.scale(Fraction(step, CHAIN_LENGTH)) for step in range(CHAIN_LENGTH + 1)]
        chain.append(f)  # eventually constant at f
        values = [simple_integral(p, g) for g in chain]
        increasing = all(a <= b for a, b in zip(values, values[1:]))
        cases.append((increasing and values[-1] == simple_integral(p, f), f"fn#{i}"))
    results.append(tally("monotone-limit", cases))

    # (vi) countable sums, finite form: finitely many nonzero terms
    cases = []
    for i, f in enumerate(fns):
        pieces = [f.restrict(atom) for atom in p.algebra.atoms]
        series = total(simple_integral(p, piece) for piece in pieces)
        cases.append((series == simple_integral(p, f), f"fn#{i}"))
    results.append(tally("finite-series", cases))

    return tuple(results)
