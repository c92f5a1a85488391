"""Simple functions and the exact integral."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finprob import (
    Algebra,
    DomainError,
    GroundSet,
    RangeError,
    SimpleFunction,
    check_integral_properties,
    simple_integral,
    uniform,
)
from finprob import gen, integrate
from finprob.cli import run_integrate_suite
from finprob.report import SuiteConfig


def two_point_powerset():
    return Algebra.powerset(GroundSet(("0", "1")))


def test_canonicalize_constant():
    alg = two_point_powerset()
    s = SimpleFunction.from_terms(alg, [(F(1, 2), alg.ground.full_mask)])
    assert s.values == (F(1, 2), F(1, 2))


def test_canonicalize_overlapping_terms():
    alg = two_point_powerset()
    s = SimpleFunction.from_terms(
        alg, [(F(1, 2), alg.ground.mask_of(["0"])), (F(1, 2), alg.ground.full_mask)]
    )
    assert s.values == (F(1), F(1, 2))


def test_canonicalize_is_representation_independent():
    alg = two_point_powerset()
    a = SimpleFunction.from_terms(alg, [(F(1, 2), alg.ground.full_mask)])
    b = SimpleFunction.from_terms(
        alg,
        [(F(1, 2), alg.ground.mask_of(["0"])), (F(1, 2), alg.ground.mask_of(["1"]))],
    )
    assert a.values == b.values
    assert a == b  # term lists are ignored by equality


def test_canonicalize_rejects_overflowing_sum():
    alg = two_point_powerset()
    with pytest.raises(RangeError):
        SimpleFunction.from_terms(
            alg, [(F(3, 4), alg.ground.full_mask), (F(1, 2), alg.ground.full_mask)]
        )


def test_integral_of_one_is_one():
    g = GroundSet(("0", "1", "2"))
    p = uniform(Algebra.powerset(g))
    one = SimpleFunction.constant(p.algebra, F(1))
    assert simple_integral(p, one) == 1


def test_integral_term_sum():
    g = GroundSet(("0", "1", "2"))
    p = uniform(Algebra.powerset(g))
    s = SimpleFunction.from_terms(
        p.algebra, [(F(1, 2), g.mask_of(["0"])), (F(1, 2), g.mask_of(["0", "1"]))]
    )
    assert simple_integral(p, s) == F(1, 2)


def test_integral_of_indicator_is_measure():
    g = GroundSet(("0", "1", "2"))
    rng = gen.rng_for(3, "indicator")
    p = gen.random_measure(rng, Algebra.powerset(g), 12)
    for member in p.algebra.members:
        ind = SimpleFunction.indicator(p.algebra, member)
        assert simple_integral(p, ind) == p(member)


def test_integral_attained_value():
    alg = two_point_powerset()
    p = uniform(alg)
    f = SimpleFunction(alg, (F(1), F(1, 2)))
    assert simple_integral(p, f) == F(3, 4)


def test_integral_of_zero():
    alg = two_point_powerset()
    assert simple_integral(uniform(alg), SimpleFunction.constant(alg, F(0))) == 0


def test_integral_requires_matching_algebra():
    p = uniform(two_point_powerset())
    other = Algebra.powerset(GroundSet(("a", "b")))
    with pytest.raises(DomainError):
        simple_integral(p, SimpleFunction.constant(other, F(1)))


@st.composite
def measure_and_terms(draw):
    seed = draw(st.integers(0, 10**9))
    rng = gen.rng_for(seed, "hyp-int")
    algebra = gen.random_algebra(rng, gen.random_ground(rng, 4))
    p = gen.random_measure(rng, algebra, 8)
    s = gen.random_term_list(rng, algebra, 8)
    return p, s


@settings(max_examples=80)
@given(measure_and_terms())
def test_representation_independence(data):
    p, s = data
    # integrating the term list and the canonical form agree exactly
    canonical = SimpleFunction(s.algebra, s.values)
    assert simple_integral(p, s) == simple_integral(p, canonical)


@settings(max_examples=80)
@given(measure_and_terms(), st.integers(0, 6), st.integers(1, 6))
def test_rational_homogeneity(data, num, den):
    p, s = data
    r = F(num, den)
    if r > 1:
        r = 1 / r
    assert simple_integral(p, s.scale(r)) == r * simple_integral(p, s)


@settings(max_examples=80)
@given(measure_and_terms())
def test_integral_equals_simple_integral(data):
    """The atom sum agrees with the term sum, over the term list and over
    the level-set decomposition of the canonical form."""
    p, s = data
    canonical = SimpleFunction(s.algebra, s.values)
    agreement = check_integral_properties(p, [s, canonical])[0]
    assert (agreement.name, agreement.passed, agreement.failed) == (
        "simple-agreement",
        2,
        0,
    )


def test_a_scaled_integral_fails_simple_agreement(monkeypatch):
    real = integrate.simple_integral
    monkeypatch.setattr(
        integrate, "simple_integral", lambda p, s: real(p, s) * F(999, 1000)
    )
    (properties,) = run_integrate_suite(SuiteConfig(seed=0, cases=50))
    assert properties.failed > 0
    assert all("'simple-agreement'" in w for w in properties.witnesses)


def test_a_term_sum_that_drops_a_term_fails_simple_agreement(monkeypatch):
    """The suite draws one function of each case as a term list, so the
    term-sum route of ``simple-agreement`` is checked, not only the
    level-set route."""
    real = integrate._term_sum

    def dropped(p, f):
        if f.terms:
            f = dataclasses.replace(f, terms=f.terms[:-1])
        return real(p, f)

    monkeypatch.setattr(integrate, "_term_sum", dropped)
    (properties,) = run_integrate_suite(SuiteConfig(seed=0, cases=50))
    assert properties.failed > 0
    assert all("'simple-agreement'" in w for w in properties.witnesses)


def test_properties_complement_additivity():
    g = GroundSet(("0", "1", "2"))
    rng = gen.rng_for(11, "complement")
    p = gen.random_measure(rng, Algebra.powerset(g), 12)
    a = g.mask_of(["0", "2"])
    f = SimpleFunction.indicator(p.algebra, a)
    fc = SimpleFunction.indicator(p.algebra, g.full_mask ^ a)
    assert all(c.ok for c in check_integral_properties(p, [f, fc]))
    assert simple_integral(p, f.add(fc)) == 1


def test_properties_worked_sum():
    g = GroundSet(("0", "1", "2"))
    p = uniform(Algebra.powerset(g))
    f = SimpleFunction.constant(p.algebra, F(1, 3))
    s = SimpleFunction.from_terms(p.algebra, [(F(1, 3), g.mask_of(["0"]))])
    assert simple_integral(p, f.add(s)) == F(4, 9)
    assert simple_integral(p, f) + simple_integral(p, s) == F(4, 9)
    assert all(c.ok for c in check_integral_properties(p, [f, s]))


def test_properties_monotone_from_zero():
    alg = two_point_powerset()
    p = uniform(alg)
    zero = SimpleFunction.constant(alg, F(0))
    g = SimpleFunction(alg, (F(1, 3), F(2, 3)))
    monotone = check_integral_properties(p, [zero, g])[1]
    assert (monotone.name, monotone.passed, monotone.failed) == ("monotone", 1, 0)
    assert simple_integral(p, zero) <= simple_integral(p, g)


def test_sup_inf_clause_searches_grid():
    g = GroundSet(("0", "1", "2"))
    rng = gen.rng_for(5, "supinf")
    p = gen.random_measure(rng, Algebra.powerset(g), 4)
    f = gen.random_simple_function(rng, p.algebra, 4)
    sup_inf = check_integral_properties(p, [f])[2]
    assert (sup_inf.name, sup_inf.passed, sup_inf.failed) == ("sup-inf", 1, 0)


def test_properties_report_structure():
    alg = two_point_powerset()
    p = uniform(alg)
    checks = check_integral_properties(p, [SimpleFunction.constant(alg, F(1, 2))])
    names = [c.name for c in checks]
    assert names == [
        "simple-agreement",
        "monotone",
        "sup-inf",
        "additive",
        "monotone-limit",
        "finite-series",
    ]
