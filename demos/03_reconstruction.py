"""Walkthrough: a measure is exactly an additive integration functional.

A functional is given by its finite table: its value on each listed
function.  Any table that is normalized and additive on indicators
determines a unique measure; violations are detected and reported with
witnesses.
"""

from fractions import Fraction as F

from finprob import (
    Algebra,
    Functional,
    GroundSet,
    Measure,
    ReconstructionError,
    SimpleFunction,
    reconstruct_measure,
    simple_integral,
)

ground = GroundSet(("a", "b", "c"))
algebra = Algebra.powerset(ground)
indicators = tuple(SimpleFunction.indicator(algebra, m) for m in algebra.members)

# Integration against a hidden measure is the canonical functional.
hidden = Measure(algebra, (F(1, 2), F(1, 4), F(1, 4)))
functional = Functional(algebra, {s: simple_integral(hidden, s) for s in indicators})
print("recovered:", reconstruct_measure(functional).weights)

# Evaluation at a point is also additive; it reconstructs to a Dirac.
evaluation = Functional(algebra, {s: s.value_at("b") for s in indicators})
print("evaluation functional gives:", reconstruct_measure(evaluation).weights)

# A cheating functional: both {a} and its complement claim mass 3/4.
def cheat(s):
    if set(s.values) <= {F(0), F(1)}:
        mask = sum(atom for atom, v in zip(algebra.atoms, s.values) if v == 1)
        if mask in (0, ground.full_mask):
            return F(1) if mask else F(0)
        return F(3, 4) if mask in (1, 6) else simple_integral(hidden, s)
    return simple_integral(hidden, s)

try:
    reconstruct_measure(Functional(algebra, {s: cheat(s) for s in indicators}))
except ReconstructionError as err:
    print("\ncheating detected:", err)
