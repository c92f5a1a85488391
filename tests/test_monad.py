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
from finprob.monad import LAWS, eta_as_meta
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


def test_left_unit_single_case():
    g = GroundSet(("0", "1"))
    p = Measure(Algebra.powerset(g), (F(1, 3), F(2, 3)))
    assert mult(MetaMeasure.point_mass(p)) == p


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


def test_every_failing_law_keeps_its_own_witnesses(monkeypatch, capsys):
    import json

    from finprob import monad
    from finprob.cli import run
    from finprob.report import MAX_WITNESSES

    real = monad.mult

    def swaps_two_weights(m):
        p = real(m)
        w = list(p.weights)
        if len(w) > 1:
            w[0], w[1] = w[1], w[0]
        return Measure(p.algebra, tuple(w))

    monkeypatch.setattr(monad, "mult", swaps_two_weights)
    assert run(["laws", "--cases", "60"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failing = [c for c in checks if c["failed"]]
    assert len(failing) >= 3
    assert sum(c["failed"] for c in failing) > 2 * MAX_WITNESSES
    for c in failing:
        assert len(c["witnesses"]) == min(c["failed"], MAX_WITNESSES), c["name"]
        assert all(w.startswith("case ") for w in c["witnesses"])
