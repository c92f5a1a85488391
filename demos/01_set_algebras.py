"""Walkthrough: ground sets, generated algebras, atoms, semi-rings."""

from finprob import (
    Algebra,
    GroundSet,
    generate_algebra,
    is_premeasurable,
    is_semiring,
    sigma_of_functions,
)
from fractions import Fraction as F

# A ground set fixes the canonical point order; subsets are bit masks.
ground = GroundSet(("mon", "tue", "wed", "thu"))
weekend_ish = ground.mask_of(["wed", "thu"])
print("ground:", ground.points)
print("subset {wed,thu} as mask:", bin(weekend_ish))

# The algebra generated by a single set: it, its complement, empty, all.
algebra = generate_algebra(ground, [weekend_ish])
print("\ngenerated members:")
for member in algebra.members:
    print("  ", ground.labels_of(member))
print("atoms:", [ground.labels_of(a) for a in algebra.atoms])
print("member count = 2 ** atom count:", len(algebra.members), "==", 2 ** len(algebra.atoms))

# Level sets of functions generate algebras too; an injective function
# separates every point and yields the powerset.
heights = [(F(1), F(2), F(2), F(3))]
sigma = sigma_of_functions(ground, heights)
print("\nsigma of one function with values 1,2,2,3 has atoms:")
print("  ", [ground.labels_of(a) for a in sigma.atoms])

# Semi-rings are weaker than algebras: singletons plus the empty set.
singles = (0,) + tuple(1 << i for i in range(ground.size))
print("\nsingletons form a semi-ring:", is_semiring(singles).ok)
broken = (0, ground.mask_of(["mon", "tue"]), ground.mask_of(["tue", "wed"]))
check = is_semiring(broken)
print("two overlapping pairs do not:", check.ok, "-> failed clause:", check.clause)

# Premeasurability: preimages of members must be members.
coarse = generate_algebra(ground, [ground.mask_of(["mon", "tue"])])
target = Algebra.powerset(GroundSet(("work", "rest")))
mapping = {"mon": "work", "tue": "work", "wed": "rest", "thu": "rest"}
ok, witness = is_premeasurable(mapping, coarse, target)
print("\nmap folding the week into work/rest is premeasurable:", ok)

bad = {"mon": "work", "tue": "rest", "wed": "rest", "thu": "rest"}
ok, witness = is_premeasurable(bad, coarse, target)
print("splitting an atom is not:", ok, "-> witnessing member:",
      target.ground.labels_of(witness))
