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
from typing import Iterable, Mapping

from .errors import PreconditionError
from .exact import fractions, in_unit_interval, total
from .setalg import Algebra, is_premeasurable, preimage_mask

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

    def with_mode(self, mode: Mode) -> "Measure":
        return Measure(self.algebra, self.weights, mode)


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
    """The image measure ``B -> p(f^{-1}(B))`` along a premeasurable map."""
    ok, witness = is_premeasurable(mapping, p.algebra, cod)
    if not ok:
        raise PreconditionError(
            f"map is not premeasurable: preimage of {cod.ground.labels_of(witness)}"
            " is not in the domain algebra"
        )
    weights = tuple(
        evaluate(p, preimage_mask(mapping, p.algebra.ground, cod.ground, atom))
        for atom in cod.atoms
    )
    return Measure(cod, weights, p.mode)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    diagnostics: tuple[str, ...]


def validate(p: Measure, exhaustive_cap: int = 1 << 9) -> ValidationReport:
    """Check normalization, nonnegativity, and additivity exactly.

    See :func:`validate_weights`; a constructed :class:`Measure` always
    passes, but the pair loop still exercises ``evaluate`` itself.
    """
    return validate_weights(p.algebra, p.weights, exhaustive_cap)


def validate_weights(
    algebra: Algebra,
    weights: Iterable[Fraction],
    exhaustive_cap: int = 1 << 9,
) -> ValidationReport:
    """Diagnose a raw atom-weight vector without constructing a measure.

    Checks normalization and nonnegativity, then additivity
    ``P(A|B) = P(A) + P(B)`` over all disjoint member pairs.  Member values
    are derived from atom weights, so pair additivity is structural; the
    exhaustive loop is skipped (with a diagnostic) above ``exhaustive_cap``
    members.  Never raises; every violation lands in the diagnostics.
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

    def value(mask: int) -> Fraction:
        return total(w for a, w in zip(algebra.atoms, weights) if a & mask)

    if algebra.member_count <= exhaustive_cap:
        members = list(algebra.members)
        for a in members:
            for b in members:
                if a & b:
                    continue
                lhs, rhs = value(a | b), value(a) + value(b)
                if lhs != rhs:
                    diagnostics.append(
                        f"additivity: P(A|B)={lhs} but P(A)+P(B)={rhs} "
                        f"for A={algebra.ground.labels_of(a)}, "
                        f"B={algebra.ground.labels_of(b)}"
                    )
    else:
        diagnostics.append(
            f"additivity pair loop skipped ({algebra.member_count} members)"
        )
    ok = not any(
        d.startswith(("shape", "normalization", "negative", "additivity:"))
        for d in diagnostics
    )
    return ValidationReport(ok, tuple(diagnostics))


def uniform(algebra: Algebra, mode: Mode = Mode.SIGMA) -> Measure:
    """Equal weight on every atom."""
    k = len(algebra.atoms)
    return Measure(algebra, (Fraction(1, k),) * k, mode)
