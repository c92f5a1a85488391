"""Exact-arithmetic finite probability structures.

Finite set algebras, probability measures and charges, simple-function
integration, reconstruction of measures from integration functionals, the
probability monad with exhaustive law verification, its limit-cone
description over finite simplices, Carathéodory/Daniell-Stone extension over
slab semi-rings, and the bounded Lipschitz metric by exact rational linear
programming.  Every quantity is a ``fractions.Fraction``; every check is
exact.
"""

from .errors import (
    DomainError,
    ExtensionError,
    FinprobError,
    InfeasibleError,
    InputError,
    PreconditionError,
    RangeError,
    ReconstructionError,
    UnboundedError,
)
from .setalg import (
    Algebra,
    GroundSet,
    SemiRing,
    algebra_closure,
    generate_algebra,
    is_premeasurable,
    is_semiring,
    sigma_of_functions,
)
from .measure import (
    Measure,
    dirac,
    evaluate,
    pushforward,
    simplex_algebra,
    uniform,
)
from .integrate import (
    SimpleFunction,
    check_integral_properties,
    simple_integral,
)
from .monad import (
    MetaMeasure,
    SimplexPoint,
    check_monad_laws,
    combine_meta,
    mult,
    unit,
)
from .represent import (
    ExtensionResult,
    Functional,
    Slab,
    WeakIntegrationLattice,
    caratheodory_extend,
    check_weak_lattice,
    daniell_stone,
    reconstruct_measure,
    slab_intersect,
    slab_subtract,
)
from .codensity import (
    Arrow,
    Cone,
    binary_arrow,
    check_cone_naturality,
    cone_of_measure,
    indicator_family,
    reconstruct_from_cone,
    small_index_sufficiency,
    verify_codensity_bijection,
)
from .lipmetric import (
    FiniteMetricSpace,
    LipschitzFunction,
    bl_distance_lp,
    bl_distance_subsets,
    check_bl_monad_nonexpansive,
    check_lipschitz_criterion_equivalence,
    check_simplex_lipschitz,
    discrete_space,
    total_variation,
)
from .report import Mode, Report, SuiteConfig

__version__ = "0.1.0"
