"""Simple functions and exact integration against finite measures.

On a finite algebra every measurable [0, 1]-valued function is simple, so one
type carries both roles.  A simple function is, like :class:`Measure`, a
:class:`~finprob.exact.Scaled` vector on atoms, so equality compares ints
and the algebra, and hashing reads only the ints ``(den, nums)``.  The term
list it was built from, when given, is kept beside it for the term-sum
check of :func:`check_integral_properties` alone, and equality ignores it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd
from operator import add, mul
from typing import Iterable, Sequence

from .errors import DomainError, RangeError
from .exact import Scaled, common, fractions, grid, in_unit_interval, scaled, total
from .measure import Measure, masked_sum
from .report import CheckOutcome, tally
from .setalg import Algebra

ONE = Fraction(1)
GRID_DENOMINATOR = 4  # largest denominator of the sup-inf clause's grid, at every size
CHAIN_LENGTH = 3  # steps of the monotone-limit clause's increasing chains


@dataclass(frozen=True, init=False)
class SimpleFunction(Scaled):
    """A [0, 1]-valued function constant on the atoms of its algebra.

    Built from one rational value per atom (``SimpleFunction(algebra,
    values)``), from terms (:meth:`from_terms`) or from integers
    (:meth:`from_numerators`).  Atom ``i`` takes ``nums[i] / den``.
    """

    den: int = field(init=False, repr=False)
    nums: tuple[int, ...] = field(init=False, repr=False)
    algebra: Algebra
    # a field, so the repr and dataclasses.replace read it; its class-level
    # default is Scaled's lazy view, the one way values are read
    values: tuple[Fraction, ...] = field(default=Scaled.values, compare=False)
    terms: tuple[tuple[Fraction, int], ...] = field(default=(), compare=False, repr=False)
    __hash__ = Scaled.__hash__

    def __init__(
        self,
        algebra: Algebra,
        values: Sequence,
        terms: Iterable[tuple[Fraction, int]] = (),
    ) -> None:
        object.__setattr__(self, "terms", _fraction_terms(terms))
        self._init_on(algebra, *scaled(fractions(values)))

    def _check(self, algebra: Algebra, den: int, nums: tuple[int, ...]) -> None:
        if min(nums) < 0 or max(nums) > den:
            bad = next(n for n in nums if not 0 <= n <= den)
            raise RangeError(f"simple function value {Fraction(bad, den)} outside [0, 1]")

    @classmethod
    def from_terms(
        cls, algebra: Algebra, terms: Iterable[tuple[Fraction, int]]
    ) -> "SimpleFunction":
        """Build ``sum a_k * 1_{A_k}`` from coefficient/member pairs."""
        terms = _fraction_terms(terms)
        for a, m in terms:
            if not in_unit_interval(a):
                raise RangeError(f"term coefficient {a} outside [0, 1]")
            algebra.check_member(m)
        den, coeffs = scaled([a for a, _ in terms])
        nums = [sum(n for n, (_, m) in zip(coeffs, terms) if m & atom) for atom in algebra.atoms]
        f = cls.from_numerators(algebra, den, nums)
        object.__setattr__(f, "terms", terms)
        return f

    @classmethod
    def indicator(cls, algebra: Algebra, mask: int) -> "SimpleFunction":
        algebra.check_member(mask)
        return cls.from_numerators(algebra, 1, [int(atom & mask != 0) for atom in algebra.atoms])

    @classmethod
    def constant(cls, algebra: Algebra, value: Fraction) -> "SimpleFunction":
        return cls(algebra, (Fraction(value),) * len(algebra.atoms))

    def value_at(self, label: str) -> Fraction:
        return Fraction(self.nums[self.algebra.atom_of_point(label)], self.den)

    def __le__(self, other: "SimpleFunction") -> bool:
        self._check_same_algebra(other)
        return all(a * other.den <= b * self.den for a, b in zip(self.nums, other.nums))

    def add(self, other: "SimpleFunction") -> "SimpleFunction":
        """Pointwise sum; the result must stay within [0, 1]."""
        self._check_same_algebra(other)
        den, (a, b) = common((self, other))
        return SimpleFunction.from_numerators(self.algebra, den, map(add, a, b))

    def scale(self, r: Fraction) -> "SimpleFunction":
        r = Fraction(r)
        if r < 0 or r > 1:
            raise RangeError(f"scalar {r} outside [0, 1]")
        nums = [n * r.numerator for n in self.nums]
        return SimpleFunction.from_numerators(self.algebra, self.den * r.denominator, nums)

    def restrict(self, mask: int) -> "SimpleFunction":
        """Pointwise product with the indicator of a member."""
        self.algebra.check_member(mask)
        nums = [n if atom & mask else 0 for atom, n in zip(self.algebra.atoms, self.nums)]
        return SimpleFunction.from_numerators(self.algebra, self.den, nums)

    def _check_same_algebra(self, other: "SimpleFunction") -> None:
        if other.algebra != self.algebra:
            raise DomainError("simple functions live on different algebras")


def _fraction_terms(terms: Iterable[tuple]) -> tuple[tuple[Fraction, int], ...]:
    """Coefficient/member pairs with each coefficient as a ``Fraction``."""
    terms = tuple(terms)
    return tuple(zip(fractions(a for a, _ in terms), (m for _, m in terms)))


def simple_integral(p: Measure, s: SimpleFunction) -> Fraction:
    """Exact integral of a simple function: sum of atom value times weight.

    On a finite algebra the integral of a [0, 1]-valued function, the
    supremum of simple-function integrals below it, is attained at the
    function itself, so this sum is the integral.
    """
    if s.algebra != p.algebra:
        raise DomainError("function and measure live on different algebras")
    return Fraction(sum(map(mul, s.nums, p.nums)), s.den * p.den)


def _term_sum(p: Measure, f: SimpleFunction) -> Fraction:
    """``sum a_k * P(A_k)`` over the terms of ``f``, computed from the members'
    numerator sums under ``p`` rather than atom weights, and divided once.

    A function with no term list is written as its level-set decomposition
    ``sum_j (v_j - v_{j-1}) * 1{f >= v_j}`` over its distinct nonzero values
    ``v_1 < v_2 < ...`` (with ``v_0 = 0``)."""
    if f.terms:
        den, coefficients = scaled([a for a, _ in f.terms])
        masks = [m for _, m in f.terms]
    else:
        levels = sorted(set(f.nums) - {0})
        den, coefficients = f.den, [n - below for below, n in zip([0] + levels, levels)]
        # atoms are disjoint, so their sum is their union
        masks = [sum(a for a, x in zip(f.algebra.atoms, f.nums) if x >= n) for n in levels]
    return Fraction(sum(c * masked_sum(p, m) for c, m in zip(coefficients, masks)), den * p.den)


def _grid_bounds(p: Measure, f: SimpleFunction, scores: dict) -> tuple[Fraction, Fraction]:
    """The integrals of the best minorant and the best majorant of ``f``
    whose values lie on ``grid(1, GRID_DENOMINATOR)`` or equal f's own.

    Those functions are a product of per-atom choices, so under an additive
    integral each bound sums the best piece on each atom: ``c <= v_k`` for
    the minorant, ``c >= v_k`` for the majorant, scored by
    :func:`simple_integral` of the function that is ``c`` on atom k and 0
    elsewhere.  Whether the integral is additive across atoms is the
    question of the ``additive`` and ``finite-series`` clauses.  ``scores``
    maps each piece scored so far, as ``(k, c, d)`` with ``c/d`` in lowest
    terms, to its integral; a piece does not depend on ``f``, so it is shared."""
    lower, upper = [], []
    nums = [0] * len(f.nums)
    for k, v in enumerate(f.nums):
        g = gcd(v, f.den)
        scored = []  # (the sign of c - v_k, the piece's integral)
        for c, d in ((v // g, f.den // g), *_grid_levels()):
            score = scores.get((k, c, d))
            if score is None:
                nums[k] = c
                piece = SimpleFunction.from_numerators(p.algebra, d, nums)
                score = scores[k, c, d] = simple_integral(p, piece)
            scored.append((c * f.den - v * d, score))
        nums[k] = 0
        lower.append(max(s for sign, s in scored if sign <= 0))
        upper.append(min(s for sign, s in scored if sign >= 0))
    return total(lower), total(upper)


@cache
def _grid_levels() -> tuple[tuple[int, int], ...]:
    """``grid(1, GRID_DENOMINATOR)`` as (numerator, denominator) pairs."""
    return tuple((c.numerator, c.denominator) for c in grid(ONE, GRID_DENOMINATOR))


def check_integral_properties(
    p: Measure, fns: Sequence[SimpleFunction]
) -> tuple[CheckOutcome, ...]:
    """Exact checks of the integral's additivity and continuity properties.

    Six clauses, one check each in this order: agreement of
    :func:`simple_integral` with the term sum ``sum a_k * P(A_k)``;
    monotonicity; ``sup-inf``, the supremum over grid minorants equal to
    the infimum over grid majorants, found atom by atom at every atom count
    (:func:`_grid_bounds`, each grid piece scored once per call);
    additivity of sums staying within [0, 1]; monotone limits of eventually
    constant increasing sequences; and finite decompositions standing in
    for countable sums with finitely many nonzero terms.  Each listed
    function is integrated once per call, and every clause reads that one
    value.
    """
    for f in fns:
        if f.algebra != p.algebra:
            raise DomainError("all functions must live on the measure's algebra")
    integrals = [simple_integral(p, f) for f in fns]

    # (i) the atom sum agrees with the term sum
    cases = [(integrals[i] == _term_sum(p, f), f"fn#{i}") for i, f in enumerate(fns)]
    results = [tally("simple-agreement", cases)]

    # (ii) monotonicity
    cases = []
    for (i, f), (j, g) in itertools.permutations(enumerate(fns), 2):
        if f <= g:
            cases.append((integrals[i] <= integrals[j], f"fn#{i}<=fn#{j}"))
    results.append(tally("monotone", cases))

    # (iii) sup over minorants equals inf over majorants
    cases = []
    scores = {}  # this call's grid pieces, shared by its functions
    for i, f in enumerate(fns):
        lower, upper = _grid_bounds(p, f, scores)
        cases.append((lower == integrals[i] == upper, f"fn#{i}"))
    results.append(tally("sup-inf", cases))

    # (iv) additivity when the sum stays a [0, 1]-function
    cases = []
    for (i, f), (j, g) in itertools.combinations(enumerate(fns), 2):
        if all(a * g.den + b * f.den <= f.den * g.den for a, b in zip(f.nums, g.nums)):
            lhs = simple_integral(p, f.add(g))
            rhs = integrals[i] + integrals[j]
            cases.append((lhs == rhs, f"fn#{i}+fn#{j}"))
    results.append(tally("additive", cases))

    # (v) monotone limits, finite form: eventually constant increasing chains
    cases = []
    for i, f in enumerate(fns):
        chain = [f.scale(Fraction(step, CHAIN_LENGTH)) for step in range(CHAIN_LENGTH + 1)]
        values = [simple_integral(p, g) for g in chain] + [integrals[i]]  # eventually f
        increasing = all(a <= b for a, b in zip(values, values[1:]))
        cases.append((increasing, f"fn#{i}"))
    results.append(tally("monotone-limit", cases))

    # (vi) countable sums, finite form: finitely many nonzero terms
    cases = []
    for i, f in enumerate(fns):
        pieces = [f.restrict(atom) for atom in p.algebra.atoms]
        series = total(simple_integral(p, piece) for piece in pieces)
        cases.append((series == integrals[i], f"fn#{i}"))
    results.append(tally("finite-series", cases))

    return tuple(results)
