"""Walkthrough: exact measures, pushforward, and simple-function integrals."""

from fractions import Fraction as F

from finprob import (
    Algebra,
    GroundSet,
    Measure,
    SimpleFunction,
    check_integral_properties,
    dirac,
    evaluate,
    pushforward,
    simple_integral,
    uniform,
)

ground = GroundSet(("red", "green", "blue"))
algebra = Algebra.powerset(ground)

# Measures live on atoms; member values are derived sums, always exact.
p = Measure(algebra, (F(1, 2), F(1, 3), F(1, 6)))
print("P(red or green) =", evaluate(p, ground.mask_of(["red", "green"])))
print("P(everything)   =", evaluate(p, ground.full_mask))

# Dirac measures concentrate on a point.
d = dirac("green", algebra)
print("dirac(green)({green, blue}) =", evaluate(d, ground.mask_of(["green", "blue"])))

# Pushforward along the map collapsing green and blue.
cod = Algebra.powerset(GroundSet(("warm", "cool")))
collapse = {"red": "warm", "green": "cool", "blue": "cool"}
q = pushforward(p, collapse, cod)
print("pushforward weights:", q.weights)  # (1/2, 1/2)

# A simple function is a [0,1]-combination of indicators; its canonical
# form is the atom-value vector, independent of the chosen terms.
s = SimpleFunction.from_terms(
    algebra,
    [(F(1, 2), ground.mask_of(["red"])), (F(1, 2), ground.mask_of(["red", "green"]))],
)
print("\nterms give atom values:", s.values)  # red -> 1, green -> 1/2, blue -> 0
print("integral against P:", simple_integral(p, s))

# The six integral properties, checked exactly.
f = SimpleFunction.constant(algebra, F(1, 3))
g = SimpleFunction.from_terms(algebra, [(F(1, 3), ground.mask_of(["red"]))])
for clause in check_integral_properties(p, [f, g]):
    print(f"  {clause.name}: {clause.passed} checks, {clause.failed} failures")
print("sum rule worked example:", simple_integral(uniform(algebra), f.add(g)))
