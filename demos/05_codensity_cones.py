"""Walkthrough: measures are exactly cones over arrows into finite simplices.

Averaging each arrow's rows, weighted by a measure, produces a compatible
family of simplex points (a cone); conversely a natural cone containing the
binary indicator arrows determines the measure uniquely.  Two labels
suffice; one label carries only normalization.
"""

from fractions import Fraction as F

from finprob import (
    Algebra,
    GroundSet,
    Measure,
    binary_arrow,
    check_cone_naturality,
    cone_of_measure,
    indicator_family,
    reconstruct_from_cone,
    small_index_sufficiency,
    SimpleFunction,
    SuiteConfig,
    verify_codensity_bijection,
)

ground = GroundSet(("x", "y", "z"))
algebra = Algebra.powerset(ground)
family = indicator_family(algebra)
print("declared arrow family size:", len(family))

p = Measure(algebra, (F(1, 7), F(2, 7), F(4, 7)))
cone = cone_of_measure(p, family)

# Every leg is the P-weighted average of the arrow's rows; on the binary
# arrow of {x} the second coordinate is just P({x}).
hat_x = binary_arrow(SimpleFunction.indicator(algebra, ground.mask_of(["x"])))
print("leg on the {x} indicator arrow:", cone.legs[hat_x].weights)

nat = check_cone_naturality(cone)
print("naturality over", nat.triangles, "triangles:", nat.ok)

print("round trip returns the measure:", reconstruct_from_cone(cone) == p)

# The seeded bijection suite: round trips, naturality, uniqueness.  Each
# suite takes its share of `cases`: the bijection runs 2/5 of them (50).
round_trip, naturality, uniqueness = verify_codensity_bijection(SuiteConfig(cases=125))
triangles = naturality.passed + naturality.failed
ok = round_trip.ok and naturality.ok and uniqueness.ok
print("bijection suite ok:", ok, f"({triangles} triangles)")

# How many target labels are needed?  Two.  One is not enough.
# Sufficiency runs a tenth of `cases` (25) at each k.
for k in (1, 2, 3):
    determined, _ = small_index_sufficiency(SuiteConfig(cases=250), k)
    print(f"arrows with <= {k} labels determine the measure:", determined.ok)
