"""Arrows, cones, naturality, and the measure/cone round trip."""

import itertools
from fractions import Fraction as F
from math import gcd
from operator import add

import pytest

from finprob import (
    Algebra,
    Cone,
    GroundSet,
    Measure,
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
from finprob import codensity, gen


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


@pytest.mark.parametrize("same_leg", [True, False])
def test_cone_rejects_an_arrow_declared_twice(same_leg):
    alg = powerset3()
    arrow = binary_arrow(SimpleFunction.constant(alg, F(1, 2)))
    twin = binary_arrow(SimpleFunction.constant(alg, F(1, 2)))  # equal, not identical
    point = SimplexPoint(("0", "1"), (F(1, 2), F(1, 2)))
    other = point if same_leg else SimplexPoint(("0", "1"), (F(1, 3), F(2, 3)))
    with pytest.raises(ValueError, match="declares an arrow twice"):
        Cone("twice", ((arrow, point), (twin, other)))


def test_an_arrow_computes_its_numerators_once(monkeypatch):
    """The canonical cones of several measures and the naturality check all
    read each arrow's cached integer rows; each naturality check brings its
    own legs to one denominator once."""
    calls = []
    real = codensity.common
    monkeypatch.setattr(codensity, "common", lambda rows: calls.append(rows) or real(rows))
    alg = powerset3()
    family = indicator_family(alg)
    rng = gen.rng_for(4, "numerators-once")
    cones = [cone_of_measure(gen.random_measure(rng, alg, 12), family) for _ in range(3)]
    assert all(check_cone_naturality(cone).ok for cone in cones)
    assert len(calls) == len(family) + len(cones)
    assert all(arrow.numerators == real(arrow.rows) for arrow in family)


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


def test_bijection_suite_both_modes(all_checks_at_100_cases):
    """``all`` files the bijection under both labels, each from its own run,
    and sufficiency once."""
    checks = all_checks_at_100_cases
    for name in ("round-trip", "naturality", "uniqueness"):
        sigma = checks[f"codensity.sigma.{name}"]
        charge = checks[f"codensity.finitely_additive.{name}"]
        assert sigma.ok and charge.ok
        assert sigma.passed == charge.passed > 0
    sufficiency = [name for name in checks if "sufficiency" in name]
    assert sufficiency == [f"codensity.sufficiency.k{k}" for k in (1, 2, 3)]


def test_a_bijection_case_takes_one_cone_per_measure(monkeypatch):
    """The cone of p and the cone of the uniqueness check's q: the round trip
    compares the reconstructed measure with p and re-takes no cone."""
    real = codensity.cone_of_measure
    measures = []

    def counted(p, family):
        measures.append(p)
        return real(p, family)

    monkeypatch.setattr(codensity, "cone_of_measure", counted)
    checks = verify_codensity_bijection(SuiteConfig(seed=0, cases=25))  # 10 cases
    assert all(c.ok for c in checks)
    assert len(measures) == 2 * 10


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


def test_a_perturbed_cone_fails_alike_on_a_shared_enumeration():
    """Triangles enumerated once on a measure's cone check a cone with one
    perturbed leg over the same arrows exactly as a fresh enumeration does:
    same verdict, triangle count and witness."""
    rng = gen.rng_for(34, "shared-triangles")
    shapes = itertools.product(range(1, 6), (0, 1, 2), (False, True))
    for atoms, extra, with_atom_arrow in shapes:
        state = rng.getstate()
        clean = seeded_cone(rng, atoms, extra, with_atom_arrow, None)
        rng.setstate(state)
        perturbed = seeded_cone(rng, atoms, extra, with_atom_arrow, "extra")
        assert tuple(perturbed.legs) == tuple(clean.legs)
        triangles = tuple(codensity.naturality_triangles(tuple(clean.legs)))
        for cone in (clean, perturbed):
            shared = check_cone_naturality(cone, triangles)
            fresh = check_cone_naturality(cone)
            assert shared == fresh
            assert repr(shared.witness) == repr(fresh.witness)
        assert check_cone_naturality(clean).triangles == len(triangles)
        assert not check_cone_naturality(perturbed).ok


def test_a_suite_run_enumerates_each_family_once_and_a_direct_check_every_time(monkeypatch):
    real = codensity.naturality_triangles
    enumerated = []

    def spy(arrows):
        enumerated.append(tuple(arrows))
        return real(arrows)

    drawn = []
    real_cone = codensity.cone_of_measure

    def cone_spy(p, family):
        drawn.append(p.algebra)
        return real_cone(p, family)

    monkeypatch.setattr(codensity, "naturality_triangles", spy)
    monkeypatch.setattr(codensity, "cone_of_measure", cone_spy)
    config = SuiteConfig(seed=0, cases=100)
    for run in (verify_codensity_bijection, lambda c: small_index_sufficiency(c, 3)):
        for _ in range(2):  # a second run enumerates again: nothing outlives a run
            enumerated.clear()
            drawn.clear()
            assert all(c.ok for c in run(config))
            sources = [family[0].source for family in enumerated]
            assert len(set(sources)) == len(sources) == len(set(drawn)) < len(drawn) / 2
            assert set(sources) == set(drawn)
    cone = cone_of_measure(uniform(powerset3()), indicator_family(powerset3()))
    enumerated.clear()
    first, second = check_cone_naturality(cone), check_cone_naturality(cone)
    assert first == second and first.ok
    assert enumerated == [tuple(cone.legs)] * 2


def reference_naturality_triangles(arrows):
    """The triangles found on reduced columns: each arrow's columns over
    its own common denominator, a composite's summed columns reduced to
    lowest terms, then looked up with its targets among the arrows'."""
    target_sets = sorted({arrow.targets for arrow in arrows})
    columns = [(a.numerators[0], tuple(zip(*a.numerators[1]))) for a in arrows]
    declared = {(a.targets, *c): j for j, (a, c) in enumerate(zip(arrows, columns))}
    for f, arrow in enumerate(arrows):
        for targets in target_sets:
            for image in itertools.product(range(len(targets)), repeat=len(arrow.targets)):
                composite = reference_composed(*columns[f], image, len(targets))
                g = declared.get((targets, *composite))
                if g is not None:
                    yield f, g, image


def reference_composed(den, columns, image, width):
    """``(den, columns)`` of the composite with ``t -> image[t]``: column
    ``u`` sums the columns mapped to ``u``, reduced to lowest terms."""
    sums = [(0,) * len(columns[0])] * width
    for column, u in zip(columns, image):
        sums[u] = tuple(map(add, sums[u], column))
    g = gcd(den, *itertools.chain.from_iterable(sums))
    return den // g, tuple(tuple(n // g for n in column) for column in sums)


def arrow_of(algebra, targets, *rows):
    """The arrow from ``algebra`` whose atom ``i`` maps to ``rows[i]``."""
    simplex = simplex_algebra(targets)
    return Arrow(algebra, targets, tuple(Measure(simplex, row) for row in rows))


def with_images(arrows, maps):
    """``arrows`` and, for each ``(arrow, mapping, targets)`` of ``maps``,
    the composite of ``arrow`` with that label map, each arrow once."""
    family = list(arrows)
    for arrow, mapping, targets in maps:
        composite = reference_compose_label_map(arrow, mapping, targets)
        if composite not in family:
            family.append(composite)
    return family


def four_label_family():
    """Arrows into four labels: the atom arrow, an arrow with rows over 2,
    3, 5 and 8, their images under a label cycle, and the second one's
    merges into two labels and into three."""
    algebra = Algebra.powerset(GroundSet(tuple(f"x{i}" for i in range(4))))
    four = ("t0", "t1", "t2", "t3")
    atoms = codensity._atom_arrow(algebra, 4)
    spread = arrow_of(
        algebra,
        four,
        (F(1, 2), F(1, 4), F(1, 8), F(1, 8)),
        (F(0), F(1, 3), F(1, 3), F(1, 3)),
        (F(1, 5), F(1, 5), F(1, 5), F(2, 5)),
        (F(0), F(0), F(0), F(1)),
    )
    cycle = dict(zip(four, four[1:] + four[:1]))
    return with_images(
        [*indicator_family(algebra), atoms, spread],
        [
            (atoms, cycle, four),
            (spread, cycle, four),
            (spread, {"t0": "0", "t1": "0", "t2": "1", "t3": "1"}, codensity.BINARY_LABELS),
            (spread, {"t0": "a", "t1": "b", "t2": "c", "t3": "c"}, ("a", "b", "c")),
        ],
    )


def coprime_family():
    """Rows over 7, 11 and 13, so the family's D is 1001 (fields of 10
    bits) and an indicator row's entry is D.  ``near`` and ``far`` pack
    alike if a field is one bit short: ``near``'s 512/1001 at atom 0 would
    read as ``far``'s 1/1001 at atom 1."""
    algebra = powerset3()
    binary = codensity.BINARY_LABELS
    f = binary_arrow(SimpleFunction(algebra, (F(1, 7), F(2, 11), F(3, 13))))
    near = arrow_of(algebra, binary, (F(489, 1001), F(512, 1001)), (1, 0), (1, 0))
    far = arrow_of(algebra, binary, (1, 0), (F(1000, 1001), F(1, 1001)), (1, 0))
    swap = {"0": "1", "1": "0"}
    family = [*indicator_family(algebra), near, far, f]
    return with_images(family, [(f, swap, binary), (near, swap, binary)])


def equal_columns_family():
    """Two arrows with the same rows into differently named labels."""
    algebra = powerset3()
    f = binary_arrow(SimpleFunction(algebra, (F(1, 3), F(1, 2), F(1))))
    renamed = arrow_of(algebra, ("a", "b"), *(row.weights for row in f.rows))
    zero = binary_arrow(SimpleFunction.constant(algebra, 0))
    return [collapse_arrow(algebra), f, renamed, zero]


def one_atom_family():
    """The indicator family of a one-atom algebra, a constant binary arrow,
    a three-label arrow and their images under label maps."""
    algebra = Algebra.trivial(GroundSet(("x", "y", "z")))
    binary = codensity.BINARY_LABELS
    third = binary_arrow(SimpleFunction.constant(algebra, F(1, 3)))
    spread = arrow_of(algebra, ("a", "b", "c"), (F(1, 3), F(2, 3), F(0)))
    return with_images(
        [*indicator_family(algebra), third, spread],
        [
            (third, {"0": "1", "1": "0"}, binary),
            (spread, {"a": "0", "b": "1", "c": "1"}, binary),
        ],
    )


def seeded_families():
    rng = gen.rng_for(41, "packed-columns")
    return [
        tuple(seeded_cone(rng, atoms, extra, True, None).legs)
        for atoms, extra in itertools.product(range(1, 6), (0, 2))
    ]


@pytest.mark.parametrize(
    "families",
    [
        pytest.param(lambda: [four_label_family()], id="four-labels"),
        pytest.param(lambda: [coprime_family()], id="coprime-denominators"),
        pytest.param(lambda: [equal_columns_family()], id="equal-columns"),
        pytest.param(lambda: [one_atom_family()], id="one-atom"),
        pytest.param(lambda: [()], id="empty"),
        pytest.param(seeded_families, id="seeded"),
    ],
)
def test_packed_columns_give_the_reduced_column_triangles(families):
    """The packed kernel yields exactly the reduced-column enumeration's
    ``(f, g, image)`` sequence, and each family has a triangle between two
    of its arrows to compare."""
    for family in families():
        triangles = list(codensity.naturality_triangles(family))
        assert triangles == list(reference_naturality_triangles(family))
        assert len(triangles) >= len(family)  # each arrow's identity triangle at least
        assert len(family) < 2 or any(f != g for f, g, _ in triangles)


def cross_multiplied_naturality(cone, triangles):
    """:func:`check_cone_naturality` on ``triangles`` by cross-multiplying
    each pushed leg's numerators with the other leg's denominator, label by
    label, as the check did before its legs were packed."""
    arrows, legs = tuple(cone.legs), tuple(cone.legs.values())
    count = 0
    for count, (f, g, image) in enumerate(triangles, 1):
        leg_f, leg_g = legs[f], legs[g]
        pushed = [0] * len(leg_g.nums)
        for u, n in zip(image, leg_f.nums):
            pushed[u] += n
        if any(n * leg_g.den != m * leg_f.den for n, m in zip(pushed, leg_g.nums)):
            targets = arrows[g].targets
            mapping = {label: targets[u] for label, u in zip(arrows[f].targets, image)}
            expected = Measure.from_numerators(simplex_algebra(targets), leg_f.den, pushed)
            witness = (arrows[f], mapping, arrows[g], expected, leg_g)
            return NaturalityResult(False, count, witness)
    return NaturalityResult(True, count)


def constants_cone(move=None):
    """The point mass's cone on a one-atom algebra over its indicator family
    and the binary arrows of 1/7, 2/11 and 3/13 and their complements, so
    the legs lie over 7, 11 and 13 (L = 1001, fields of 10 bits).
    ``move`` replaces the leg of the constant at that index with another
    point: one over a denominator the others do not share."""
    algebra = Algebra.trivial(GroundSet(("x", "y")))
    constants = [F(1, 7), F(6, 7), F(2, 11), F(9, 11), F(3, 13), F(10, 13)]
    family = [*indicator_family(algebra)]
    family += [binary_arrow(SimpleFunction.constant(algebra, c)) for c in constants]
    legs = list(cone_of_measure(dirac("x", algebra), family).legs.items())
    if move is not None:
        index, value = move
        hit = len(family) - len(constants) + index
        legs[hit] = (legs[hit][0], SimplexPoint(("0", "1"), (1 - value, value)))
    return Cone("constants", tuple(legs))


def three_label_cone():
    """Two arrows with the row (0, 1000/1001, 1/1001) into three labels each,
    and the second one's leg moved by (512, -513, 1)/1001: over 1001 it
    packs alike with the first one's leg if a field is one bit short."""
    algebra = Algebra.trivial(GroundSet(("x",)))
    row = (F(0), F(1000, 1001), F(1, 1001))
    f, g = arrow_of(algebra, ("a", "b", "c"), row), arrow_of(algebra, ("d", "e", "f"), row)
    cone = cone_of_measure(dirac("x", algebra), [*indicator_family(algebra), f, g])
    moved = SimplexPoint(g.targets, (F(512, 1001), F(487, 1001), F(2, 1001)))
    return Cone("three-labels", (*tuple(cone.legs.items())[:-1], (g, moved)))


def test_packed_legs_agree_with_cross_multiplication():
    """The packed check gives the cross-multiplying loop's verdict, triangle
    count and witness on seeded cones with and without one perturbed leg,
    and on legs over the coprime denominators 7, 11 and 13: a natural cone,
    one leg moved by as little as 1/1001 or to another denominator, and a
    moved three-label leg that a field one bit short would miss."""
    rng = gen.rng_for(46, "packed-legs")
    cases = [
        (seeded_cone(rng, atoms, extra, with_atom_arrow, perturb), perturb is None)
        for atoms, extra, with_atom_arrow, perturb in itertools.product(
            range(1, 6), (0, 2), (False, True), (None, "indicator", "extra")
        )
    ]
    p = Measure(powerset3(), (F(1, 7), F(2, 11), F(52, 77)))
    cases += [(constants_cone(), True), (cone_of_measure(p, coprime_family()), True)]
    for move in ((0, F(2, 7)), (2, F(2, 11) + F(1, 1001)), (4, F(3, 11)), (5, F(3, 13))):
        cases.append((constants_cone(move), False))
    cases.append((three_label_cone(), False))
    for cone, natural in cases:
        triangles = tuple(codensity.naturality_triangles(tuple(cone.legs)))
        packed = check_cone_naturality(cone, triangles)
        expected = cross_multiplied_naturality(cone, triangles)
        assert (packed.ok, packed.triangles) == (expected.ok, expected.triangles)
        assert packed.witness == expected.witness
        assert repr(packed.witness) == repr(expected.witness)
        assert packed.ok == natural


def test_equal_values_hash_alike_and_the_hash_reads_no_algebra(monkeypatch):
    """A measure, a simple function and an arrow built twice, on equal but
    distinct algebras and by different constructors, are equal and hash
    alike.  The hash reads ints and labels only: it runs with hashing an
    algebra or a ground set made to raise.  Equal numerators on different
    algebras hash alike but stay distinct dict keys."""
    first, second = powerset3(), powerset3()
    assert first == second and first is not second
    p = Measure(first, (F(1, 2), F(1, 4), F(1, 4)))
    q = Measure.from_numerators(second, 8, (4, 2, 2))
    f = SimpleFunction(first, (F(1, 2), F(0), F(1)))
    g = SimpleFunction.from_terms(second, ((F(1, 2), 1), (F(1), 4)))
    a, b = binary_arrow(f), binary_arrow(g)
    renamed = simplex_algebra(("a", "b", "c"))
    others = {
        p: Measure.from_numerators(renamed, 4, (2, 1, 1)),
        f: SimpleFunction.from_numerators(renamed, 2, (1, 0, 2)),
        collapse_arrow(first): collapse_arrow(renamed),
    }

    def unhashable(self):
        raise AssertionError("hashed an algebra")

    monkeypatch.setattr(Algebra, "__hash__", unhashable)
    monkeypatch.setattr(GroundSet, "__hash__", unhashable)
    for one, other in ((p, q), (f, g), (a, b)):
        assert one == other and hash(one) == hash(other)
    for one, other in others.items():
        assert one != other and hash(one) == hash(other)
        assert len({one: 0, other: 1}) == 2


def test_equal_algebras_that_are_distinct_objects_pass_every_check():
    """Arrows and cones compare an algebra by identity first, then by
    value: rows, legs and sources on equal algebras that are distinct
    objects are accepted, and equal rows on one atom make one row."""
    labels = ("0", "1")
    own = Algebra.powerset(GroundSet(labels))
    assert own == simplex_algebra(labels) and own is not simplex_algebra(labels)
    source, twin = (Algebra.trivial(GroundSet(("x", "y"))) for _ in range(2))
    half = Measure.from_numerators(own, 2, (1, 1))
    again = Measure(simplex_algebra(labels), (F(1, 2), F(1, 2)))
    third = Measure.from_numerators(own, 3, (1, 2))
    f = Arrow.from_point_rows(source, labels, {"x": half, "y": again})
    g = Arrow(twin, labels, (third,))
    cone = Cone("twins", ((f, again), (g, third)))
    assert f.rows == (half,) and list(cone.legs) == [f, g]
