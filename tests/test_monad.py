"""The probability monad: functor action, unit, multiplication, laws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finprob import (
    Algebra,
    GroundSet,
    Measure,
    MetaMeasure,
    check_monad_laws,
    combine_meta,
    dirac,
    mult,
    pushforward,
    simplex_algebra,
    unit,
)
from finprob.monad import LAWS, eta_as_meta, map_meta
from finprob import gen
from finprob.report import SuiteConfig


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_simplex_pushforward_functoriality(seed):
    rng = gen.rng_for(seed, "hyp-gmap")
    labels_a = tuple(f"a{i}" for i in range(rng.randint(1, 4)))
    labels_b = tuple(f"b{i}" for i in range(rng.randint(1, 3)))
    labels_c = tuple(f"c{i}" for i in range(rng.randint(1, 3)))
    f = {x: rng.choice(labels_b) for x in labels_a}
    g = {x: rng.choice(labels_c) for x in labels_b}
    p = gen.random_simplex_point(rng, labels_a, 10)
    composed = {x: g[f[x]] for x in labels_a}
    mid, cod = simplex_algebra(labels_b), simplex_algebra(labels_c)
    assert pushforward(pushforward(p, f, mid), g, cod) == pushforward(
        p, composed, cod
    )


def test_unit_is_dirac():
    g = GroundSet(("x", "y"))
    alg = Algebra.powerset(g)
    assert unit("x", alg) == dirac("x", alg)


def test_mult_single_support_is_identity():
    g = GroundSet(("0", "1"))
    p = Measure(Algebra.powerset(g), (F(1, 3), F(2, 3)))
    assert mult(MetaMeasure.point_mass(p)) == p


def test_mult_averages_diracs():
    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    m = MetaMeasure((dirac("0", alg), dirac("1", alg)), (F(1, 2), F(1, 2)))
    assert mult(m).weights == (F(1, 2), F(1, 2))


def test_mult_of_equal_support_is_that_measure():
    g = GroundSet(("0", "1"))
    p = Measure(Algebra.powerset(g), (F(1, 4), F(3, 4)))
    # equal support entries are rejected, so convexity shows up via mixing
    meta = MetaMeasure((p,), (F(1),))
    assert mult(meta) == p


def test_meta_measure_rejects_zero_weights_and_duplicates():
    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    p = Measure(alg, (F(1, 2), F(1, 2)))
    q = Measure(alg, (F(1, 4), F(3, 4)))
    with pytest.raises(ValueError):
        MetaMeasure((p, q), (F(1), F(0)))
    with pytest.raises(ValueError):
        MetaMeasure((p, p), (F(1, 2), F(1, 2)))


def test_meta_measure_rejects_a_foreign_algebra_in_first_place():
    """The algebra of the first support measure is compared with every
    other one, not only the rest with each other."""
    a, b = simplex_algebra(("0", "1")), simplex_algebra(("x", "y"))
    p = Measure(b, (F(1, 2), F(1, 2)))
    q = Measure(a, (F(1, 2), F(1, 2)))
    r = Measure(a, (F(1, 4), F(3, 4)))
    with pytest.raises(ValueError, match="support measures must share one algebra"):
        MetaMeasure((p, q, r), (F(1, 3), F(1, 3), F(1, 3)))


def test_right_unit_via_dirac_decomposition():
    g = GroundSet(("0", "1", "2"))
    p = Measure(Algebra.powerset(g), (F(1, 2), F(1, 3), F(1, 6)))
    assert mult(eta_as_meta(p)) == p


def test_associativity_worked_example():
    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    pa = Measure(alg, (F(1), F(0)))
    pb = Measure(alg, (F(0), F(1)))
    pc = Measure(alg, (F(1, 2), F(1, 2)))
    m1 = MetaMeasure((pa, pb), (F(1, 2), F(1, 2)))
    m2 = MetaMeasure((pc,), (F(1),))
    outer = (F(1, 3), F(2, 3))
    # flatten first, then average
    flat = combine_meta(list(zip(outer, (m1, m2))))
    # average inside first, then combine (duplicates merge: mult(m1) == mult(m2))
    inner_first = combine_meta(
        [
            (outer[0], MetaMeasure.point_mass(mult(m1))),
            (outer[1], MetaMeasure.point_mass(mult(m2))),
        ]
    )
    assert mult(flat) == mult(inner_first)
    # both orders agree with the direct weighted sum
    expected = tuple(
        outer[0] * mult(m1).weights[i] + outer[1] * mult(m2).weights[i]
        for i in range(2)
    )
    assert mult(flat).weights == expected


def test_mult_is_affine():
    g = GroundSet(("0", "1", "2"))
    rng = gen.rng_for(17, "affine")
    alg = Algebra.powerset(g)
    m1 = gen.random_meta_measure(rng, alg, 8)
    m2 = gen.random_meta_measure(rng, alg, 8)
    r = F(1, 3)
    mixed = combine_meta([(r, m1), (1 - r, m2)])
    lhs = mult(mixed).weights
    rhs = tuple(
        r * a + (1 - r) * b for a, b in zip(mult(m1).weights, mult(m2).weights)
    )
    assert lhs == rhs


def test_law_suite_passes_both_modes(all_checks_at_100_cases):
    """``all`` files the laws under both labels, each from its own run."""
    checks = [c for name, c in all_checks_at_100_cases.items() if name.startswith("laws.")]
    assert all(c.ok for c in checks), checks
    assert sorted(c.name.split(".")[1] for c in checks) == ["finitely_additive"] * 5 + ["sigma"] * 5
    assert all((c.passed, c.failed) == (100, 0) for c in checks)


def test_law_suite_on_fixed_algebra():
    g = GroundSet(("0", "1"))
    checks = check_monad_laws(SuiteConfig(seed=1, cases=50), Algebra.powerset(g))
    assert [c.name for c in checks] == list(LAWS)
    assert all((c.passed, c.failed) == (50, 0) for c in checks)


def rejection(build):
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def test_every_meta_measure_rejection_keeps_its_text():
    alg = Algebra.powerset(GroundSet(("0", "1")))
    p, q = dirac("0", alg), dirac("1", alg)
    other = dirac("x", simplex_algebra(("x",)))
    m = MetaMeasure.point_mass(p)
    assert [
        rejection(build)
        for build in (
            lambda: MetaMeasure((), ()),
            lambda: MetaMeasure.merge([]),
            lambda: MetaMeasure((p, q), (F(1),)),
            lambda: MetaMeasure((p, p), (F(1, 2), F(1, 2))),
            lambda: MetaMeasure((p, other), (F(1, 2), F(1, 2))),
            lambda: MetaMeasure((p, q), (F(1), F(0))),
            lambda: MetaMeasure((p, q), (F(3, 2), F(-1, 2))),
            lambda: MetaMeasure.merge([(F(1, 2), p), (F(0), q)]),
            lambda: MetaMeasure((p, q), (F(1, 2), F(1, 3))),
            lambda: MetaMeasure.merge([(F(1, 2), p), (F(1, 2), q), (F(1, 3), p)]),
            lambda: combine_meta([]),
            lambda: combine_meta([(F(0), m)]),
            lambda: combine_meta([(F(1, 2), m), (F(1), m)]),
            lambda: MetaMeasure((p,), ("one",)),
        )
    ] == [
        "meta-measure needs at least one support measure",
        "meta-measure needs at least one support measure",
        "one weight per support measure required",
        "support measures must be pairwise distinct",
        "support measures must share one algebra",
        "meta-measure weights must be strictly positive",
        "meta-measure weights must be strictly positive",
        "meta-measure weights must be strictly positive",
        "meta-measure weights must sum to 1, got 5/6",
        "meta-measure weights must sum to 1, got 4/3",
        "empty combination",
        "combination coefficients must be positive",
        "meta-measure weights must sum to 1, got 3/2",
        "Invalid literal for Fraction: 'one'",
    ]


def fraction_merge(pairs):
    """``(support, weights)`` of a merge done on ``Fraction``s: weights of a
    repeated measure added, support sorted by ``Fraction`` weight vector."""
    merged = {}
    for w, p in pairs:
        merged[p] = merged.get(p, 0) + F(w)
    support = tuple(sorted(merged, key=lambda p: p.weights))
    return support, tuple(merged[p] for p in support)


def test_meta_measures_on_numerators_keep_fraction_weights_and_merge_order():
    """Built from numerators, every meta-measure still reads its weights as
    ``Fraction``s and sorts its support as a merge on ``Fraction``s does."""
    rng = gen.rng_for(34, "meta-numerators")
    for _ in range(200):
        alg = gen.random_algebra(rng, gen.random_ground(rng, 4))
        metas = [gen.random_meta_measure(rng, alg, 12) for _ in range(rng.randint(1, 3))]
        outer = gen.random_positive_weights(rng, len(metas), 12)
        mapping, cod = gen.random_premeasurable_map(rng, alg)
        p = gen.random_measure(rng, alg, 12)
        averages = list(zip(outer, map(mult, metas)))
        first = list(zip(metas[0].weights, metas[0].support))
        cases = [
            (
                combine_meta(list(zip(outer, metas))),
                [(c * w, q) for c, m in zip(outer, metas) for w, q in zip(m.weights, m.support)],
            ),
            (
                eta_as_meta(p),
                [
                    (w, dirac(alg.ground.labels_of(atom)[0], alg))
                    for atom, w in zip(alg.atoms, p.weights)
                    if w
                ],
            ),
            (
                map_meta(metas[0], mapping, cod),
                [(w, pushforward(q, mapping, cod)) for w, q in first],
            ),
            (MetaMeasure.merge(averages), averages),
        ]
        for meta, pairs in cases:
            assert all(type(w) is F for w in meta.weights)
            assert (meta.support, meta.weights) == fraction_merge(pairs)
            expected = tuple(
                sum(w * q.weights[i] for w, q in zip(meta.weights, meta.support))
                for i in range(len(meta.algebra.atoms))
            )
            assert mult(meta).weights == expected
        assert all(type(w) is F for m in metas for w in m.weights)
        assert all(sum(m.weights) == 1 and min(m.weights) > 0 for m in metas)
