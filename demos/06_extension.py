"""Walkthrough: premeasure extension and the slab route.

A premeasure on a semi-ring extends uniquely to the generated algebra.  The
slab construction turns a lattice functional into a premeasure on regions
between function graphs and reads the measure off the height-one slice.
"""

import itertools
from fractions import Fraction as F

from finprob import (
    ExtensionError,
    GroundSet,
    WeakIntegrationLattice,
    caratheodory_extend,
    check_weak_lattice,
    daniell_stone,
    slab_grid,
)
from finprob.setalg import SemiRing

# Slabs are regions {(x, t) : lower(x) <= t < upper(x)}.  On one point, with
# bounds counted in quarters, each slab is a mask of the cells between the
# breakpoints 0, 1/4, 1/2 and 1.
family, cells, above, below = slab_grid([(0,), (1,), (2,), (4,)], 4)
slabs = SemiRing(
    GroundSet(tuple(f"c{j}" for j in range(len(cells)))),
    tuple(above[lo] & below[up] for lo in family for up in family if lo <= up),
)


def slab(lower, upper):
    return above[(lower,)] & below[(upper,)]


def interval(mask):
    covered = [cell for j, cell in enumerate(cells) if mask >> j & 1]
    return f"[{F(covered[0][0], 4)}, {F(covered[-1][1], 4)})"


print("cells, in quarters:", cells)
print("[0,1) minus [1/4,1/2):")
for piece in slabs.difference_decomposition(slab(0, 4), slab(1, 2)):
    print("   piece:", interval(piece))
print("[0,1) meet [1/2,1):", interval(slab(0, 4) & slab(2, 4)))

# Caratheodory: weights on singletons extend to the powerset.
g3 = GroundSet(("u", "v", "w"))
semiring = SemiRing(g3, (0, 1, 2, 4))
extension = caratheodory_extend(
    semiring, {0: F(0), 1: F(1, 2), 2: F(1, 3), 4: F(1, 6)}
)
print("\nextended mass:", extension.mass)
print("as a measure:", extension.to_measure().weights)

# An inconsistent premeasure is rejected with the witnessing decomposition.
g2 = GroundSet(("0", "1"))
full = SemiRing(g2, (0, 1, 2, 3))
try:
    caratheodory_extend(full, {0: F(0), 1: F(1, 2), 2: F(3, 4), 3: F(1)})
except ExtensionError as err:
    print("rejected:", err)

# The slab route: a lattice of grid functions plus an integration
# functional determine a measure; here the functional evaluates at "v".
grid = [F(0), F(1, 2), F(1)]
functions = tuple(itertools.product(grid, repeat=3))
lattice = WeakIntegrationLattice(g3, functions)
print("\nlattice valid:", check_weak_lattice(lattice).ok)
measure = daniell_stone(lattice, {f: f[1] for f in lattice.functions})
print("functional f -> f(v) yields the point mass:", measure.weights)
