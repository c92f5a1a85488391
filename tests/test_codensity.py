"""Arrows, cones, naturality, and the measure/cone round trip."""

import itertools
from fractions import Fraction as F

import pytest

from finprob import (
    Algebra,
    Cone,
    GroundSet,
    Measure,
    Mode,
    ReconstructionError,
    SimpleFunction,
    SimplexPoint,
    binary_arrow,
    check_cone_naturality,
    cone_of_measure,
    dirac,
    indicator_family,
    reconstruct_from_cone,
    simplex_algebra,
    small_index_sufficiency,
    uniform,
    verify_codensity_bijection,
)
from finprob.codensity import Arrow, NaturalityResult, collapse_arrow
from finprob.measure import pushforward
from finprob.report import SuiteConfig
from finprob import cli, codensity, gen


def powerset3():
    return Algebra.powerset(GroundSet(("0", "1", "2")))


def test_binary_arrow_of_one():
    alg = powerset3()
    arrow = binary_arrow(SimpleFunction.constant(alg, F(1)))
    for point in alg.ground.points:
        assert arrow.at(point).weights == (F(0), F(1))


def test_binary_arrow_of_zero():
    alg = powerset3()
    arrow = binary_arrow(SimpleFunction.constant(alg, F(0)))
    for point in alg.ground.points:
        assert arrow.at(point).weights == (F(1), F(0))


def test_binary_arrow_of_indicator():
    alg = powerset3()
    mask = alg.ground.mask_of(["0", "2"])
    arrow = binary_arrow(SimpleFunction.indicator(alg, mask))
    for i, point in enumerate(alg.ground.points):
        inside = bool(mask >> i & 1)
        assert arrow.at(point).weights == (F(0 if inside else 1), F(1 if inside else 0))
    label_one = tuple(row.weights[1] for row in arrow.rows)
    assert label_one == SimpleFunction.indicator(alg, mask).values


def test_cone_legs_of_dirac_evaluate_the_arrow():
    alg = powerset3()
    family = indicator_family(alg)
    d = dirac("1", alg)
    cone = cone_of_measure(d, family)
    for arrow, leg in cone.legs.items():
        assert leg == arrow.at("1")


def test_cone_legs_of_uniform_on_atom_arrow():
    alg = powerset3()
    targets = ("a", "b", "c")
    rows = tuple(dirac(targets[i], simplex_algebra(targets)) for i in range(3))
    from finprob.codensity import Arrow

    arrow = Arrow(alg, targets, rows)
    cone = cone_of_measure(uniform(alg), (arrow,))
    assert cone.legs[arrow].weights == (F(1, 3), F(1, 3), F(1, 3))


def test_cone_leg_of_constant_arrow_is_the_constant():
    alg = powerset3()
    point = SimplexPoint(("x", "y"), (F(1, 4), F(3, 4)))
    from finprob.codensity import Arrow

    arrow = Arrow(alg, point.labels, (point,) * len(alg.atoms))
    rng = gen.rng_for(2, "const-arrow")
    for _ in range(5):
        p = gen.random_measure(rng, alg, 10)
        assert cone_of_measure(p, (arrow,)).legs[arrow] == point


def test_cone_of_measure_passes_naturality():
    alg = powerset3()
    family = indicator_family(alg)
    rng = gen.rng_for(5, "nat")
    for _ in range(10):
        p = gen.random_measure(rng, alg, 12)
        result = check_cone_naturality(cone_of_measure(p, family))
        assert result.ok
        assert result.triangles > 0


def test_perturbed_cone_fails_naturality():
    alg = powerset3()
    family = indicator_family(alg)
    p = Measure(alg, (F(1, 2), F(1, 4), F(1, 4)))
    cone = cone_of_measure(p, family)
    target = binary_arrow(
        SimpleFunction.indicator(alg, alg.ground.mask_of(["0"]))
    )
    eps = F(1, 100)
    legs = tuple(
        (
            arrow,
            SimplexPoint(leg.labels, (leg.weights[0] + eps, leg.weights[1] - eps))
            if arrow == target
            else leg,
        )
        for arrow, leg in cone.legs.items()
    )
    result = check_cone_naturality(Cone("perturbed", legs))
    assert not result.ok
    assert result.witness is not None


def test_empty_cone_is_vacuously_natural():
    result = check_cone_naturality(Cone("empty", ()))
    assert result.ok
    assert result.triangles == 0


def test_empty_cone_does_not_reconstruct():
    with pytest.raises(ReconstructionError, match="no legs"):
        reconstruct_from_cone(Cone("empty", ()))


def test_cone_rejects_arrows_from_two_algebras():
    ground = GroundSet(("a", "b"))
    fine = binary_arrow(SimpleFunction.constant(Algebra.powerset(ground), F(1, 2)))
    coarse = binary_arrow(SimpleFunction.constant(Algebra.trivial(ground), F(1, 2)))
    point = SimplexPoint(("0", "1"), (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError, match="one source algebra"):
        Cone("mixed", ((fine, point), (coarse, point)))


def test_reconstruct_round_trip():
    alg = powerset3()
    family = indicator_family(alg)
    p = Measure(alg, (F(1, 7), F(2, 7), F(4, 7)))
    assert reconstruct_from_cone(cone_of_measure(p, family)) == p


def test_reconstruct_dirac():
    alg = powerset3()
    family = indicator_family(alg)
    d = dirac("2", alg)
    assert reconstruct_from_cone(cone_of_measure(d, family)) == d


def test_reconstruct_perturbed_cone_raises():
    alg = powerset3()
    family = indicator_family(alg)
    p = uniform(alg)
    cone = cone_of_measure(p, family)
    eps = F(1, 100)
    legs = tuple(
        (
            arrow,
            SimplexPoint(leg.labels, (leg.weights[0] - eps, leg.weights[1] + eps))
            if arrow.targets == ("0", "1") and leg.weights[1] == F(1, 3)
            else leg,
        )
        for arrow, leg in cone.legs.items()
    )
    with pytest.raises(ReconstructionError):
        reconstruct_from_cone(Cone("perturbed", legs))


def test_reconstruct_needs_atom_arrows():
    alg = powerset3()
    p = uniform(alg)
    cone = cone_of_measure(p, (collapse_arrow(alg),))
    with pytest.raises(ReconstructionError):
        reconstruct_from_cone(cone)


def test_uniqueness_distinct_measures_have_distinct_legs():
    alg = powerset3()
    family = indicator_family(alg)
    rng = gen.rng_for(13, "uniq")
    for _ in range(20):
        p = gen.random_measure(rng, alg, 12)
        q = gen.random_measure(rng, alg, 12)
        same_legs = cone_of_measure(p, family).legs == cone_of_measure(q, family).legs
        assert same_legs == (p == q)


def test_bijection_suite_both_modes():
    both = (Mode.SIGMA, Mode.FINITELY_ADDITIVE)
    checks = {c.name: c for c in cli.run_codensity(SuiteConfig(cases=100), modes=both)}
    for name in ("round-trip", "naturality", "uniqueness"):
        sigma, charge = checks[f"sigma.{name}"], checks[f"finitely_additive.{name}"]
        assert sigma.ok and charge.ok
        assert sigma.passed == charge.passed > 0


def codensity_checks_at_50_cases():
    return {c.name: c for c in cli.run_codensity(SuiteConfig(seed=0, cases=50))}


def test_a_cone_that_fails_naturality_reaches_no_later_check(monkeypatch):
    clean = codensity_checks_at_50_cases()
    real = codensity.check_cone_naturality
    calls = []

    def every_third_fails(cone, *args, **kwargs):
        result = real(cone, *args, **kwargs)
        calls.append(cone)
        if len(calls) % 3:
            return result
        return NaturalityResult(False, result.triangles, (None, "seeded fault"))

    monkeypatch.setattr(codensity, "check_cone_naturality", every_third_fails)
    checks = codensity_checks_at_50_cases()
    for name in ("sigma.round-trip", "sigma.uniqueness"):
        assert (checks[name].passed, checks[name].failed) == (14, 0)
    naturality = checks["sigma.naturality"]
    assert naturality.failed == 6
    assert naturality.passed + naturality.failed == clean["sigma.naturality"].passed
    assert naturality.witnesses[0] == "case 2: seeded fault"


def test_a_wrong_reconstruction_keeps_its_case_out_of_uniqueness(monkeypatch):
    real = codensity.reconstruct_measure
    faulted = []

    def one_wrong(functional):
        back = real(functional)
        if faulted or len(back.weights) < 2:
            return back
        faulted.append(back)
        # the point mass on a lightest atom differs from any measure on 2+ atoms
        light = min(range(len(back.weights)), key=back.weights.__getitem__)
        point = back.algebra.ground.labels_of(back.algebra.atoms[light])[0]
        return dirac(point, back.algebra)

    monkeypatch.setattr(codensity, "reconstruct_measure", one_wrong)
    round_trip, naturality, uniqueness = verify_codensity_bijection(
        SuiteConfig(seed=0, cases=25)  # 10 cases
    )
    assert faulted
    assert (round_trip.passed, round_trip.failed) == (9, 1)
    assert (uniqueness.passed, uniqueness.failed) == (9, 0)
    assert naturality.ok


def test_a_failed_reconstruction_fails_round_trip_and_reaches_no_uniqueness(monkeypatch):
    real = codensity.reconstruct_measure
    calls = []

    def second_raises(functional):
        calls.append(functional)
        if len(calls) == 2:
            raise ReconstructionError("seeded fault")
        return real(functional)

    monkeypatch.setattr(codensity, "reconstruct_measure", second_raises)
    round_trip, naturality, uniqueness = verify_codensity_bijection(
        SuiteConfig(seed=0, cases=25)  # 10 cases
    )
    assert (round_trip.passed, round_trip.failed) == (9, 1)
    assert round_trip.witnesses == ("case 1: seeded fault",)
    assert (uniqueness.passed, uniqueness.failed) == (9, 0)
    assert naturality.ok


def test_a_natural_cone_over_the_indicator_family_need_not_be_a_measures_cone():
    """Naturality over ``indicator_family`` forces only the two ends and
    complements: legs 1/2 at every singleton and pair pass every triangle,
    and only the reconstruction's mass check rejects them."""
    legs = []
    for arrow in indicator_family(powerset3()):
        if arrow.targets == ("0",):  # the collapse arrow
            legs.append((arrow, SimplexPoint(("0",), (F(1),))))
            continue
        size = sum(row.weights[1] for row in arrow.rows)
        value = {0: F(0), 3: F(1)}.get(size, F(1, 2))
        legs.append((arrow, SimplexPoint(("0", "1"), (1 - value, value))))
    cone = Cone("half", tuple(legs))
    assert check_cone_naturality(cone) == NaturalityResult(True, 43)
    with pytest.raises(ReconstructionError, match="total indicator mass 3/2"):
        reconstruct_from_cone(cone)


def test_small_index_sufficiency_thresholds():
    config = SuiteConfig(seed=0, cases=200)  # 20 cases
    determined, reconstruction = small_index_sufficiency(config, 1)
    assert not determined.ok
    assert reconstruction.ok
    for k in (2, 3):
        determined, reconstruction = small_index_sufficiency(config, k)
        assert (determined.name, determined.passed) == ("determined", 20)
        assert determined.ok and reconstruction.ok


def test_sufficiency_rejects_bad_bound():
    with pytest.raises(Exception):
        small_index_sufficiency(SuiteConfig(cases=10), 0)


def test_arrow_requires_measurable_components():
    g = GroundSet(("0", "1"))
    coarse = Algebra.trivial(g)
    from finprob.codensity import Arrow

    with pytest.raises(Exception):
        Arrow.from_point_rows(
            coarse,
            ("a", "b"),
            {
                "0": SimplexPoint(("a", "b"), (F(1), F(0))),
                "1": SimplexPoint(("a", "b"), (F(0), F(1))),
            },
        )


def reference_compose_label_map(arrow, mapping, targets):
    """Post-compose an arrow with the simplex map of a label function."""
    cod = simplex_algebra(targets)
    rows = tuple(pushforward(row, mapping, cod) for row in arrow.rows)
    return Arrow(arrow.source, targets, rows)


def reference_check_cone_naturality(cone):
    """Naturality by building each composed arrow and pushed leg as values:
    the composed arrow is found by equality among the declared ones."""
    legs = cone.legs
    target_sets = sorted({arrow.targets for arrow in legs})
    triangles = 0
    for f in legs:
        for targets in target_sets:
            cod = simplex_algebra(targets)
            for image in itertools.product(targets, repeat=len(f.targets)):
                mapping = dict(zip(f.targets, image))
                composed = reference_compose_label_map(f, mapping, targets)
                leg_g = legs.get(composed)
                if leg_g is None:
                    continue
                triangles += 1
                expected = pushforward(legs[f], mapping, cod)
                if expected != leg_g:
                    witness = (f, mapping, composed, expected, leg_g)
                    return NaturalityResult(False, triangles, witness)
    return NaturalityResult(True, triangles)


def seeded_cone(rng, atoms, extra, with_atom_arrow, perturb):
    """A measure's cone over the indicator family on ``atoms`` points, plus
    the binary arrows of ``extra`` random functions and their complements,
    plus optionally a three-label atom arrow; ``perturb`` moves one
    indicator or extra leg by 1/24 (an indicator leg when there is no
    extra arrow)."""
    algebra = Algebra.powerset(GroundSet(tuple(f"x{i}" for i in range(atoms))))
    family = list(indicator_family(algebra))
    extras = []
    for _ in range(extra):
        f = gen.random_simple_function(rng, algebra, 12)
        complement = SimpleFunction(algebra, tuple(1 - v for v in f.values))
        for arrow in (binary_arrow(f), binary_arrow(complement)):
            if arrow not in family:
                family.append(arrow)
                extras.append(arrow)
    if with_atom_arrow:
        family.append(codensity._atom_arrow(algebra, 3))
    legs = list(cone_of_measure(gen.random_measure(rng, algebra, 12), family).legs.items())
    if perturb == "extra" and extras:
        hit = family.index(rng.choice(extras))
    elif perturb:
        hit = rng.randrange(1, 1 + 2**atoms)  # family[0] is the collapse arrow
    if perturb:
        arrow, leg = legs[hit]
        v = leg.weights[1] + F(1, 24)
        v = v if v <= 1 else v - F(2, 24)
        legs[hit] = (arrow, SimplexPoint(leg.labels, (1 - v, v)))
    return Cone("seeded", tuple(legs))


def test_naturality_matches_the_composed_arrow_reference():
    rng = gen.rng_for(21, "naturality-reference")
    failures = 0
    shapes = itertools.product(
        range(1, 6), (0, 1, 2), (False, True), (None, "indicator", "extra")
    )
    for atoms, extra, with_atom_arrow, perturb in shapes:
        cone = seeded_cone(rng, atoms, extra, with_atom_arrow, perturb)
        result = check_cone_naturality(cone)
        expected = reference_check_cone_naturality(cone)
        assert (result.ok, result.triangles) == (expected.ok, expected.triangles)
        assert result.witness == expected.witness
        assert repr(result.witness) == repr(expected.witness)
        assert result.ok == (perturb is None)
        failures += not result.ok
    assert failures == 5 * 3 * 2 * 2
