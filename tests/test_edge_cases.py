"""Degenerate instances: single points, trivial algebras, coarse lattices."""

from fractions import Fraction as F

import pytest

from finprob import (
    Algebra,
    GroundSet,
    Measure,
    MetaMeasure,
    SimpleFunction,
    SimplexPoint,
    bl_distance_lp,
    bl_distance_subsets,
    check_monad_laws,
    cone_of_measure,
    daniell_stone,
    dirac,
    discrete_space,
    generate_algebra,
    indicator_family,
    mult,
    pushforward,
    reconstruct_from_cone,
    SuiteConfig,
    simple_integral,
    sigma_of_functions,
    uniform,
    verify_codensity_bijection,
    WeakIntegrationLattice,
)


def test_single_point_ground():
    g = GroundSet(("only",))
    alg = Algebra.powerset(g)
    assert alg.atoms == (1,)
    p = dirac("only", alg)
    assert p.weights == (F(1),)
    one = SimpleFunction.constant(alg, F(1))
    assert simple_integral(p, one) == 1
    cone = cone_of_measure(p, indicator_family(alg))
    assert reconstruct_from_cone(cone) == p


def test_trivial_algebra_measure_is_forced():
    g = GroundSet(("a", "b", "c"))
    alg = Algebra.trivial(g)
    p = uniform(alg)
    assert p.weights == (F(1),)
    assert p(g.full_mask) == 1
    assert dirac("b", alg) == p  # every point mass collapses


def test_laws_on_trivial_algebra():
    g = GroundSet(("a", "b"))
    checks = check_monad_laws(SuiteConfig(seed=0, cases=25), Algebra.trivial(g))
    assert all((c.passed, c.failed) == (25, 0) for c in checks)


def test_bijection_on_trivial_algebra():
    g = GroundSet(("a", "b"))
    checks = verify_codensity_bijection(  # 10 cases
        SuiteConfig(seed=0, cases=25), Algebra.trivial(g)
    )
    assert all(c.ok for c in checks)


def test_pushforward_powerset_to_coarse():
    g = GroundSet(("0", "1", "2"))
    dom = Algebra.powerset(g)
    cod = generate_algebra(GroundSet(("u", "v")), [])
    p = Measure(dom, (F(1, 2), F(1, 3), F(1, 6)))
    q = pushforward(p, {"0": "u", "1": "v", "2": "u"}, cod)
    assert q.weights == (F(1),)


def test_one_label_simplex_distance_is_zero():
    p = SimplexPoint(("z",), (F(1),))
    assert bl_distance_lp(p, p, discrete_space(("z",))) == 0
    assert bl_distance_subsets(p, p) == 0


def test_meta_measure_on_single_measure_space():
    g = GroundSet(("a",))
    alg = Algebra.powerset(g)
    p = dirac("a", alg)
    assert mult(MetaMeasure.point_mass(p)) == p


def test_daniell_stone_on_coarse_lattice():
    """A lattice of functions constant on a two-block partition produces a
    measure on that coarse algebra, not on the powerset."""
    g = GroundSet(("0", "1", "2"))
    block = (F(1), F(0), F(0))  # separates {0} from {1,2}
    functions = []
    for a in (F(0), F(1, 2), F(1)):
        for b in (F(0), F(1, 2), F(1)):
            functions.append((a, b, b))
    lattice = WeakIntegrationLattice(g, tuple(functions))
    values = {v: F(1, 4) * v[0] + F(3, 4) * v[1] for v in lattice.functions}
    measure = daniell_stone(lattice, values)
    assert measure.algebra.atoms == (1, 6)
    assert measure.weights == (F(1, 4), F(3, 4))
    assert g.mask_of(["1"]) not in measure.algebra.members


def test_sigma_of_constant_function_is_trivial():
    g = GroundSet(("0", "1"))
    alg = sigma_of_functions(g, [(F(1, 2), F(1, 2))])
    assert alg.atoms == (g.full_mask,)


def test_zero_term_simple_function():
    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    zero = SimpleFunction.from_terms(alg, [(F(0), 0)])
    assert zero.values == (F(0), F(0))
    assert simple_integral(uniform(alg), zero) == 0


def test_measure_equality_requires_same_algebra():
    g = GroundSet(("0", "1"))
    fine = Algebra.powerset(g)
    coarse = Algebra.trivial(g)
    assert Measure(coarse, (F(1),)) != dirac("0", fine)


def test_simplex_point_rejects_bad_data():
    with pytest.raises(ValueError):
        SimplexPoint(("a", "a"), (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        SimplexPoint(("a", "b"), (F(2, 3), F(2, 3)))
    with pytest.raises(ValueError):
        SimplexPoint(("a", "b"), (F(3, 2), F(-1, 2)))
