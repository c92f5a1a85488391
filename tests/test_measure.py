"""Measures: evaluation, Dirac, pushforward, construction."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finprob import (
    Algebra,
    DomainError,
    GroundSet,
    Measure,
    PreconditionError,
    SimplexPoint,
    dirac,
    evaluate,
    generate_algebra,
    pushforward,
    simplex_algebra,
    uniform,
)
from finprob import gen


def test_evaluate_atom_sum():
    g = GroundSet(("0", "1", "2"))
    p = uniform(Algebra.powerset(g))
    assert evaluate(p, g.mask_of(["0", "1"])) == F(2, 3)


def test_evaluate_normalization_and_empty():
    g = GroundSet(("0", "1", "2"))
    p = Measure(Algebra.powerset(g), (F(1, 2), F(1, 3), F(1, 6)))
    assert evaluate(p, g.full_mask) == 1
    assert evaluate(p, 0) == 0


def test_evaluate_rejects_non_member():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, [g.mask_of(["0"])])
    p = dirac("1", alg)
    with pytest.raises(DomainError):
        evaluate(p, g.mask_of(["1"]))


def test_dirac_on_powerset():
    g = GroundSet(("a", "b"))
    alg = Algebra.powerset(g)
    d = dirac("a", alg)
    assert evaluate(d, g.mask_of(["a"])) == 1
    assert evaluate(d, g.mask_of(["b"])) == 0
    assert evaluate(d, g.full_mask) == 1


def test_dirac_on_coarse_algebra():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, [g.mask_of(["0"])])
    assert evaluate(dirac("1", alg), g.mask_of(["1", "2"])) == 1


def test_dirac_rejects_unknown_point():
    g = GroundSet(("a", "b"))
    with pytest.raises(DomainError):
        dirac("z", Algebra.powerset(g))


def test_pushforward_constant_map_is_dirac():
    g = GroundSet(("0", "1", "2"))
    p = uniform(Algebra.powerset(g))
    cod = Algebra.powerset(GroundSet(("y",)))
    q = pushforward(p, {x: "y" for x in g.points}, cod)
    assert q.weights == (F(1),)


def test_pushforward_identity():
    g = GroundSet(("0", "1", "2"))
    p = Measure(Algebra.powerset(g), (F(1, 2), F(1, 4), F(1, 4)))
    assert pushforward(p, {x: x for x in g.points}, p.algebra) == p


def test_pushforward_preimage_sums():
    g = GroundSet(("0", "1", "2"))
    p = uniform(Algebra.powerset(g))
    cod = Algebra.powerset(GroundSet(("0", "1")))
    q = pushforward(p, {"0": "0", "1": "0", "2": "1"}, cod)
    assert q.weights == (F(2, 3), F(1, 3))


def test_pushforward_requires_premeasurable_map():
    g = GroundSet(("0", "1", "2"))
    dom = generate_algebra(g, [g.mask_of(["0", "1"])])
    cod = Algebra.powerset(GroundSet(("a", "b")))
    p = dirac("0", dom)
    with pytest.raises(PreconditionError):
        pushforward(p, {"0": "a", "1": "b", "2": "b"}, cod)


def test_pushforward_errors_keep_their_types_and_messages():
    g = GroundSet(("0", "1", "2"))
    dom = generate_algebra(g, [g.mask_of(["0", "1"])])  # atoms {0, 1} and {2}
    cod = Algebra.powerset(GroundSet(("a", "b")))
    p = dirac("0", dom)
    # the map also splits {0, 1}; totality is reported first
    with pytest.raises(DomainError, match="^map is not total: missing '2'$"):
        pushforward(p, {"0": "a", "1": "b"}, cod)
    with pytest.raises(DomainError, match="^point 'z' not in ground set$"):
        pushforward(p, {"0": "a", "1": "a", "2": "z"}, cod)
    with pytest.raises(PreconditionError) as info:
        pushforward(p, {"0": "a", "1": "b", "2": "b"}, cod)
    assert str(info.value) == (
        "map is not premeasurable: preimage of ('a',) is not in the domain algebra"
    )


def test_simplex_algebra_is_shared_and_uncapped():
    labels = tuple(f"x{i}" for i in range(17))  # one past the default cap
    algebra = simplex_algebra(labels)
    assert algebra is simplex_algebra(labels)
    assert algebra.atoms == tuple(1 << i for i in range(17))
    p = SimplexPoint(labels, (1,) + (0,) * 16)
    assert p.algebra is algebra and p.labels == labels


def test_validate_allows_zero_weights():
    """The constructor, the one check on weights, accepts a zero weight."""
    g = GroundSet(("0", "1", "2"))
    p = Measure(Algebra.powerset(g), (F(1, 2), F(1, 2), 0))
    assert p.weights == (F(1, 2), F(1, 2), F(0))
    assert p(g.mask_of(["2"])) == 0


def test_measure_constructor_rejects_bad_weights():
    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    with pytest.raises(ValueError):
        Measure(alg, (F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        Measure(alg, (F(3, 2), F(-1, 2)))


@st.composite
def algebra_and_measure(draw):
    rng_seed = draw(st.integers(0, 10**9))
    rng = gen.rng_for(rng_seed, "hyp-measure")
    algebra = gen.random_algebra(rng, gen.random_ground(rng, 5))
    return algebra, gen.random_measure(rng, algebra, 12)


@settings(max_examples=60)
@given(algebra_and_measure(), st.integers(0, 10**9))
def test_pushforward_functoriality(data, salt):
    algebra, p = data
    rng = gen.rng_for(salt, "hyp-functorial")
    f, mid = gen.random_premeasurable_map(rng, algebra)
    g_map, cod = gen.random_premeasurable_map(rng, mid)
    composed = {x: g_map[f[x]] for x in algebra.ground.points}
    assert pushforward(pushforward(p, f, mid), g_map, cod) == pushforward(
        p, composed, cod
    )


@settings(max_examples=60)
@given(algebra_and_measure(), st.integers(0, 10**9))
def test_unit_naturality(data, salt):
    algebra, _ = data
    rng = gen.rng_for(salt, "hyp-unit-nat")
    f, cod = gen.random_premeasurable_map(rng, algebra)
    for x in algebra.ground.points:
        assert pushforward(dirac(x, algebra), f, cod) == dirac(f[x], cod)


def test_additivity_exhaustive_small():
    """Finite additivity over every disjoint decomposition into members."""
    import itertools

    g = GroundSet(("0", "1", "2", "3", "4"))
    rng = gen.rng_for(7, "additivity")
    algebra = gen.random_algebra(rng, g)
    p = gen.random_measure(rng, algebra, 12)
    members = list(algebra.members)
    for r in (2, 3):
        for combo in itertools.combinations(members, r):
            union, disjoint = 0, True
            for m in combo:
                if union & m:
                    disjoint = False
                    break
                union |= m
            if disjoint:
                assert evaluate(p, union) == sum(evaluate(p, m) for m in combo)


def two_point_algebra():
    return Algebra.powerset(GroundSet(("0", "1")))


def test_equal_weights_give_one_canonical_form():
    a = two_point_algebra()
    halves = Measure(a, (F(1, 2), F(1, 2)))
    quarters = Measure(a, ("2/4", "2/4"))
    scaled = Measure.from_numerators(a, 4, (2, 2))
    assert halves == quarters == scaled
    assert hash(halves) == hash(quarters) == hash(scaled)
    assert (scaled.den, scaled.nums) == (2, (1, 1))
    assert Measure(a, (0, 1)) == dirac("1", a)


def test_weights_are_fractions_in_lowest_terms():
    a = Algebra.powerset(GroundSet(("0", "1", "2")))
    p = Measure.from_numerators(a, 12, (2, 4, 6))
    assert (p.den, p.nums) == (6, (1, 2, 3))
    assert p.weights == (F(1, 6), F(1, 3), F(1, 2))
    assert all(type(w) is F for w in p.weights)
    assert [w.denominator for w in p.weights] == [6, 3, 2]


def test_invalid_weights_keep_their_messages():
    a = two_point_algebra()
    bad = [
        ((F(1),), "^one weight per atom required$"),
        ((F(3, 2), F(-1, 2)), r"^atom weights must lie in \[0, 1\]$"),
        ((F(1, 2), F(1)), "^atom weights must sum to 1, got 3/2$"),
    ]
    for weights, message in bad:
        with pytest.raises(ValueError, match=message):
            Measure(a, weights)
        den = 2
        with pytest.raises(ValueError, match=message):
            Measure.from_numerators(a, den, tuple(int(w * den) for w in weights))


def test_a_weight_past_the_int_to_string_limit_constructs_and_dumps_in_full(unlimited_str):
    from finprob.serialize import dump_measure

    tiny = F(1, 10**5000)
    p = Measure(two_point_algebra(), (tiny, 1 - tiny))
    assert p.den == 10**5000 and p.weights == (tiny, 1 - tiny)
    weights = dump_measure(p)["weights"]
    assert weights == {
        "0": "1/" + unlimited_str(10**5000),
        "1": unlimited_str(10**5000 - 1) + "/" + unlimited_str(10**5000),
    }


def test_measures_are_immutable():
    import dataclasses

    p = uniform(two_point_algebra())
    for name, value in (("den", 4), ("nums", (2, 2)), ("algebra", None), ("weights", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)
    assert (p.den, p.nums, p.weights) == (2, (1, 1), (F(1, 2), F(1, 2)))


def test_merge_orders_support_by_the_fraction_weight_vector():
    """(1/3, 2/3) precedes (1/2, 1/2) by weight, though its denominator and
    its numerators are larger."""
    from finprob.monad import MetaMeasure

    a = two_point_algebra()
    thirds, halves = Measure(a, (F(1, 3), F(2, 3))), Measure(a, (F(1, 2), F(1, 2)))
    meta = MetaMeasure.merge([(F(1, 4), halves), (F(1, 2), thirds), (F(1, 4), halves)])
    assert meta.support == (thirds, halves)
    assert meta.weights == (F(1, 2), F(1, 2))


def test_extension_results_share_evaluate_by_duck_typing():
    from finprob.represent import ExtensionResult

    g = GroundSet(("0", "1", "2"))
    a = Algebra.powerset(g)
    weights = (F(1, 2), F(1, 3), F(1, 6))
    extension = ExtensionResult(a, weights, F(1), g.full_mask)
    assert extension.value(g.mask_of(["1", "2"])) == F(1, 2)
    assert extension.to_measure() == Measure(a, weights)
    assert extension.to_measure()(g.mask_of(["1", "2"])) == F(1, 2)
