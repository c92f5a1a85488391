"""Walkthrough: the bounded Lipschitz distance between distributions.

The distance is the best discrimination achievable by 1-Lipschitz [0,1]
test functions, computed exactly by rational linear programming.  Under the
discrete metric it collapses to the subset maximum, which is half the L1
distance; the monad unit and multiplication are non-expansive for it.
"""

from fractions import Fraction as F

from finprob import (
    FiniteMetricSpace,
    SimplexPoint,
    SuiteConfig,
    bl_distance_lp,
    bl_distance_subsets,
    check_bl_monad_nonexpansive,
    check_simplex_lipschitz,
    dirac,
    discrete_space,
    simplex_algebra,
    total_variation,
)
from finprob.lipmetric import bl_distance_lp_witness

labels = ("a", "b", "c")
p = SimplexPoint(labels, (F(1, 2), F(1, 2), F(0)))
q = SimplexPoint(labels, (F(1, 3), F(1, 3), F(1, 3)))

space = discrete_space(labels)
value, witness = bl_distance_lp_witness(p, q, space)
print("LP distance:", value)
print("optimal test function:", witness.values)
print("subset maximum:", bl_distance_subsets(p, q))
print("half L1:", total_variation(p, q))

# With a finer metric the test functions are more constrained and the
# distance shrinks.
close = FiniteMetricSpace(
    labels,
    (
        (F(0), F(1, 5), F(1, 5)),
        (F(1, 5), F(0), F(1, 5)),
        (F(1, 5), F(1, 5), F(0)),
    ),
)
print("\nsame pair at distance 1/5:", bl_distance_lp(p, q, close))

# Point masses are exactly as far apart as their points (capped at one).
# A distribution on the labels is a measure on their powerset.
simplex = simplex_algebra(labels)
pa = dirac("a", simplex)
pb = dirac("b", simplex)
print("d(point mass a, point mass b) under 1/5 metric:", bl_distance_lp(pa, pb, close))

# A map into the simplex is 1-Lipschitz exactly when all its subset sums
# are; both criteria are evaluated independently.
f = {x: dirac(x, simplex) for x in labels}
result = check_simplex_lipschitz(f, space)
print("\nvertex embedding 1-Lipschitz:", result.is_lipschitz,
      "(criteria agree:", result.verdicts_agree, ")")

# Unit and mult never increase distances; the unit's distance is exactly
# the points' distance capped at 1.  The suite runs a fifth of `cases` (20).
unit_pairs, meta_cases, laws = check_bl_monad_nonexpansive(SuiteConfig(cases=100), space)
print("non-expansiveness on", unit_pairs.passed + unit_pairs.failed, "unit pairs and",
      meta_cases.passed + meta_cases.failed, "meta cases:",
      unit_pairs.ok and meta_cases.ok and laws.ok)
