"""Walkthrough: the probability monad and its laws, verified exactly.

A space maps to its measures; points map to Dirac measures (unit); a
finitely supported measure on measures averages to a plain measure (mult).
"""

from fractions import Fraction as F

from finprob import (
    Algebra,
    GroundSet,
    Measure,
    MetaMeasure,
    check_monad_laws,
    dirac,
    mult,
    pushforward,
    simplex_algebra,
    SimplexPoint,
    SuiteConfig,
)

ground = GroundSet(("0", "1"))
algebra = Algebra.powerset(ground)

# A plain distribution is a measure on the powerset of its labels, and the
# functor action is the pushforward: weights move along preimages.
p = SimplexPoint(("0", "1", "2"), (F(1, 6), F(1, 3), F(1, 2)))
fold = {"0": "0", "1": "0", "2": "1"}
print("fold 0,1 -> 0 and 2 -> 1:", pushforward(p, fold, simplex_algebra(("0", "1"))).weights)

# mult averages a measure on measures.
coin = Measure(algebra, (F(1, 2), F(1, 2)))
biased = Measure(algebra, (F(1, 4), F(3, 4)))
meta = MetaMeasure((coin, biased), (F(1, 3), F(2, 3)))
print("average of coin (1/3) and biased (2/3):", mult(meta).weights)

# Left unit: the point mass at P averages back to P.
print("left unit:", mult(MetaMeasure.point_mass(biased)) == biased)

# Right unit: P decomposed into Diracs averages back to P.
diracs = MetaMeasure(
    (dirac("0", algebra), dirac("1", algebra)), biased.weights
)
print("right unit:", mult(diracs) == biased)

# The full seeded law suite.  On a finite algebra every finitely additive
# charge is sigma-additive, so one run covers both readings of the monad.
checks = check_monad_laws(SuiteConfig(seed=0, cases=200))
print("all laws exact on 200 cases ->", all(c.ok for c in checks))
