"""Reconstruction from functionals, weak lattices, slab masks, and extension."""

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction as F

import pytest

from finprob import (
    Algebra,
    DomainError,
    ExtensionError,
    Functional,
    GroundSet,
    Measure,
    PreconditionError,
    ReconstructionError,
    SimpleFunction,
    WeakIntegrationLattice,
    caratheodory_extend,
    check_weak_lattice,
    daniell_stone,
    dirac,
    generate_algebra,
    reconstruct_measure,
    simple_integral,
    slab_grid,
    uniform,
)
from finprob import cli, exact, gen, represent
from finprob.setalg import ClauseCheck, SemiRing, is_semiring, sigma_of_functions

from test_faults import grid_skipping_a_bound, raw_direction


def indicator_family_of(algebra):
    return tuple(SimpleFunction.indicator(algebra, m) for m in algebra.members)


# --- reconstruction -----------------------------------------------------------


def test_reconstruct_charge_tautological():
    g = GroundSet(("0", "1", "2"))
    p = uniform(Algebra.powerset(g))
    functional = Functional(
        p.algebra, {s: simple_integral(p, s) for s in indicator_family_of(p.algebra)}
    )
    assert reconstruct_measure(functional) == p


def test_reconstruct_evaluation_functional_gives_dirac():
    g = GroundSet(("0", "1", "2"))
    alg = Algebra.powerset(g)
    functional = Functional(alg, {s: s.value_at("1") for s in indicator_family_of(alg)})
    assert reconstruct_measure(functional) == dirac("1", alg)


def test_reconstruct_detects_complement_violation():
    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    a = g.mask_of(["0"])

    def oracle(s):
        if set(s.values) <= {F(0), F(1)}:
            mask = sum(atom for atom, v in zip(alg.atoms, s.values) if v == 1)
            if mask == g.full_mask:
                return F(1)
            return F(3, 4)  # both {0} and {1} get 3/4: pair sums to 3/2
        raise AssertionError("only indicators are consulted")

    functional = Functional(alg, {s: oracle(s) for s in indicator_family_of(alg)})
    with pytest.raises(ReconstructionError) as err:
        reconstruct_measure(functional)
    assert "additivity" in str(err.value)


def test_functional_rejects_a_function_on_another_algebra():
    g = GroundSet(("0", "1"))
    coarse, fine = Algebra.trivial(g), Algebra.powerset(g)
    stray = SimpleFunction.indicator(fine, g.mask_of(["0"]))
    with pytest.raises(DomainError):
        Functional(coarse, {SimpleFunction.constant(coarse, F(1)): F(1), stray: F(1, 2)})


def test_reconstruct_names_the_negative_weight():
    """The first negative atom value is named, not a zero before it."""
    g = GroundSet(("0", "1", "2"))
    alg = Algebra.powerset(g)
    table = {
        SimpleFunction.indicator(alg, g.mask_of([x])): v
        for x, v in zip(g.points, (F(0), F(-1, 2), F(3, 2)))
    }
    table[SimpleFunction.indicator(alg, g.full_mask)] = F(1)
    with pytest.raises(ReconstructionError, match="-1/2"):
        reconstruct_measure(Functional(alg, table))


def test_reconstruct_names_every_missing_indicator():
    g = GroundSet(("0", "1", "2"))
    alg = Algebra.powerset(g)
    only_zero = SimpleFunction.indicator(alg, g.mask_of(["0"]))
    with pytest.raises(ReconstructionError) as err:
        reconstruct_measure(Functional(alg, {only_zero: F(1, 3)}))
    assert str(err.value).endswith(
        "(every atom and the whole set): 1_{1}, 1_{2}, 1_{0, 1, 2}"
    )
    assert err.value.witness == (g.mask_of(["1"]), g.mask_of(["2"]), g.full_mask)


def test_reconstruct_measure_from_table():
    g = GroundSet(("0", "1", "2"))
    alg = Algebra.powerset(g)
    p = Measure(alg, (F(1, 2), F(1, 4), F(1, 4)))
    pairs = [
        (SimpleFunction.indicator(alg, m), simple_integral(p, SimpleFunction.indicator(alg, m)))
        for m in alg.members
    ]
    assert reconstruct_measure(Functional(alg, dict(pairs))) == p


def test_reconstruct_measure_dirac():
    g = GroundSet(("a", "b"))
    alg = Algebra.powerset(g)
    d = dirac("a", alg)
    functional = Functional(
        alg, {s: simple_integral(d, s) for s in indicator_family_of(alg)}
    )
    assert reconstruct_measure(functional) == d


def test_reconstruct_measure_detects_three_term_violation():
    g = GroundSet(("0", "1", "2"))
    alg = Algebra.powerset(g)
    p = uniform(alg)

    def oracle(s):
        value = simple_integral(p, s)
        if s == SimpleFunction.indicator(alg, g.full_mask):
            return value
        if set(s.values) <= {F(0), F(1)} and sum(s.values) == 1:
            return value + F(1, 12)  # every single atom bumped
        return value

    functional = Functional(alg, {s: oracle(s) for s in indicator_family_of(alg)})
    with pytest.raises(ReconstructionError) as err:
        reconstruct_measure(functional)
    assert err.value.witness is not None


def _perturbed_table(rng):
    """A functional table on a random algebra of at most five points: some
    member indicators, every atom indicator, 1_X and three random simple
    functions, valued by integration against a random measure, with zero to
    two values shifted."""
    algebra = gen.random_algebra(rng, gen.random_ground(rng, 5))
    p = gen.random_measure(rng, algebra, 12)
    members = rng.sample(sorted(algebra.members), min(6, len(algebra.members)))
    masks = members + list(algebra.atoms) + [algebra.ground.full_mask]
    family = [SimpleFunction.indicator(algebra, m) for m in masks]
    family += [gen.random_simple_function(rng, algebra, 12) for _ in range(3)]
    table = {s: simple_integral(p, s) for s in family}
    for s in rng.sample(sorted(table, key=lambda s: s.values), rng.randint(0, 2)):
        table[s] += rng.choice((-1, 1)) * F(1, rng.randint(2, 24))
    return algebra, table


def _unbalanced_family(algebra, table):
    """A disjoint family of at most three listed indicators whose union is
    listed but whose values do not add up to the union's, or ``None``."""
    value = {
        sum(a for a, v in zip(algebra.atoms, s.values) if v): table[s]
        for s in table
        if set(s.values) <= {0, 1}
    }
    pool = sorted(m for m in value if m)
    for size in (2, 3):
        for family in itertools.combinations(pool, size):
            union = sum(family)
            if union == functools.reduce(operator.or_, family) and union in value:
                if sum(value[m] for m in family) != value[union]:
                    return family
    return None


def _reconstructions(with_test_family, cases=1000):
    """``(accepted, rejected, unbalanced)`` over seeded perturbed tables;
    the last counts accepted tables with an unbalanced disjoint family.
    Without the test family, only the rows of the atoms and 1_X are given
    to reconstruction."""
    accepted = rejected = unbalanced = 0
    for case in range(cases):
        algebra, table = _perturbed_table(gen.rng_for(case, "disjoint-families"))
        listed = table
        if not with_test_family:
            masks = algebra.atoms + (algebra.ground.full_mask,)
            indicators = [SimpleFunction.indicator(algebra, m) for m in masks]
            listed = {s: table[s] for s in indicators}
        try:
            reconstruct_measure(Functional(algebra, listed))
        except ReconstructionError:
            rejected += 1
            continue
        accepted += 1
        unbalanced += _unbalanced_family(algebra, table) is not None
    return accepted, rejected, unbalanced


def test_accepted_tables_add_up_on_every_disjoint_indicator_family():
    """Once every listed function integrates to its value, no separate
    finite-sum check is needed: disjoint listed indicators add up."""
    accepted, rejected, unbalanced = _reconstructions(with_test_family=True)
    assert accepted > 300 and rejected > 300
    assert unbalanced == 0


def test_disjoint_family_check_fails_without_the_test_family():
    """The same tables cut down to the atoms and 1_X are checked on those
    rows only, so shifted member values pass reconstruction and the disjoint
    family check catches them."""
    accepted, _, unbalanced = _reconstructions(with_test_family=False)
    assert unbalanced > 30 and accepted > unbalanced


def test_reconstruction_order_preservation():
    """Functionals given by integration preserve pointwise order."""
    g = GroundSet(("0", "1", "2"))
    rng = gen.rng_for(23, "order")
    p = gen.random_measure(rng, Algebra.powerset(g), 8)
    triples = []
    for _ in range(40):
        f = gen.random_simple_function(rng, p.algebra, 8)
        g2 = gen.random_simple_function(rng, p.algebra, 8)
        hi = SimpleFunction(
            p.algebra, tuple(max(a, b) for a, b in zip(f.values, g2.values))
        )
        triples.append((f, g2, hi))
    listed = [s for triple in triples for s in triple]
    value = Functional(p.algebra, {s: simple_integral(p, s) for s in listed}).values
    for f, g2, hi in triples:
        if f <= g2:
            assert value[f] <= value[g2]
        assert value[f] <= value[hi]


def test_reconstruction_rational_scaling():
    g = GroundSet(("0", "1"))
    rng = gen.rng_for(29, "scaling")
    p = gen.random_measure(rng, Algebra.powerset(g), 8)
    f = gen.random_simple_function(rng, p.algebra, 8)
    scalars = (F(0), F(1, 3), F(2, 5), F(1))
    listed = [f] + [f.scale(r) for r in scalars]
    value = Functional(p.algebra, {s: simple_integral(p, s) for s in listed}).values
    for r in scalars:
        assert value[f.scale(r)] == r * value[f]


# --- weak integration lattices ---------------------------------------------------


def tabulate(lattice, functional):
    """The table of ``functional`` on every lattice function."""
    return {f: functional(f) for f in lattice.functions}


def grid_lattice(ground, algebra, denominator):
    import itertools

    grid = [F(i, denominator) for i in range(denominator + 1)]
    fns = []
    for combo in itertools.product(grid, repeat=len(algebra.atoms)):
        values = [F(0)] * ground.size
        for atom, v in zip(algebra.atoms, combo):
            for i in range(ground.size):
                if atom >> i & 1:
                    values[i] = v
        fns.append(tuple(values))
    return WeakIntegrationLattice(ground, tuple(fns))


def test_grid_lattice_is_weak_lattice():
    g = GroundSet(("0", "1", "2"))
    lattice = grid_lattice(g, Algebra.powerset(g), 2)
    check = check_weak_lattice(lattice)
    assert check.ok
    assert verdict(check) == reference_check_weak_lattice(lattice)


def test_unit_only_lattice_is_degenerate_weak_lattice():
    g = GroundSet(("0", "1"))
    lattice = WeakIntegrationLattice(g, ((F(1), F(1)),))
    assert check_weak_lattice(lattice).ok


def test_lattice_span_violation_detected():
    g = GroundSet(("0", "1"))
    lattice = WeakIntegrationLattice(g, ((F(1), F(1)), (F(1, 2), F(1, 4))))
    check = check_weak_lattice(lattice)
    assert not check.ok
    assert check.clause == "span"
    assert check.witness is not None


def test_semiring_and_lattice_checks_return_one_verdict_type():
    g = GroundSet(("0", "1"))
    lattice = WeakIntegrationLattice(g, ((F(1), F(1)),))
    assert type(check_weak_lattice(lattice)) is ClauseCheck
    assert type(is_semiring((0, 1))) is ClauseCheck
    assert is_semiring((1,)) == ClauseCheck(False, "missing-empty", ())


def test_a_multiplier_of_any_size_closes_the_lattice():
    """{1, 1/100} on one point: the span 1 - 1/100 is 99 times 1/100, and
    the clip clause holds up to n = 100, where min(n/100, 1) first reaches 1."""
    g = GroundSet(("0",))
    lattice = WeakIntegrationLattice(g, ((F(1),), (F(1, 100),)))
    found = []
    assert verdict(check_weak_lattice(lattice)) == reference_check_weak_lattice(
        lattice, found
    ) == (True, None, None)
    assert _integer_search(lattice.functions, (F(99, 100),)) == (99, 1)
    assert ("span", 1, 2, 99, 1) in found
    assert max(n for kind, i, n, *_ in found if kind == "clip" and i == 1) == 100
    p = daniell_stone(lattice, tabulate(lattice, lambda values: values[0]))
    assert p.weights == (F(1),)


def _recorded_probes(monkeypatch):
    """The targets ``check_weak_lattice`` asks ``_as_multiple`` about."""
    probes = []
    real = represent._as_multiple

    def recorded(target, members, index):
        probes.append(target)
        return real(target, members, index)

    monkeypatch.setattr(represent, "_as_multiple", recorded)
    return probes


def test_clip_clause_runs_until_the_clip_is_the_support_indicator(monkeypatch):
    """On (1/6, 1/6) the clip min(n*f, 1) changes up to n = 6.  Below n0 = 6,
    where a value first reaches 1, it is n*f, so the kernel tries n = 6 alone
    there, n = 1 for the constant one and nothing for zero; the reference
    tries every n and finds each clip below n = 6 on f's own ray."""
    g = GroundSet(("a", "b"))
    lattice = WeakIntegrationLattice(g, ((F(1, 6), F(1, 6)), (F(1), F(1))))
    probes = _recorded_probes(monkeypatch)
    check = check_weak_lattice(lattice)
    assert check.ok
    assert probes[3 * 6 :] == [(6, 6), (6, 6)]  # after 6 pairs' join, meet, span
    found = []
    assert verdict(check) == reference_check_weak_lattice(lattice, found)
    assert [entry for entry in found if entry[0] == "clip"] == [
        ("clip", 0, 1, 0, 0),
        *(("clip", 1, n, n, 1) for n in range(1, 7)),
        ("clip", 2, 1, 6, 1),
    ]


def test_clip_clause_on_a_tiny_value_makes_one_probe_per_member(monkeypatch):
    """{1, 1/10**5} on one point: each clip before n = 10**5 is a multiple of
    1/10**5, and from there on the clip is 1.  The kernel makes 18 probes for
    the 6 pairs' join, meet and span, and one clip probe for each nonzero
    member, where trying every n would make 10**5 + 2."""
    g = GroundSet(("0",))
    lattice = WeakIntegrationLattice(g, ((F(1),), (F(1, 10**5),)))
    probes = _recorded_probes(monkeypatch)
    assert check_weak_lattice(lattice).ok
    assert len(probes) == 3 * 6 + 2
    p = daniell_stone(lattice, tabulate(lattice, lambda values: values[0]))
    assert p.weights == (F(1),)


def test_lattice_clip_violation_detected():
    """Closed under join, meet and span, yet 3 * (1/5, 1/2) clipped at one
    is (3/5, 1), which is no integer multiple of a member: the clause fails
    one step after n0 = 2, where the clip 2 * (1/5, 1/2) is still a
    multiple."""
    g = GroundSet(("a", "b"))
    points = [(0, 0), (0, "1/2"), ("1/5", 0), ("1/5", "1/2"), ("2/5", "1/2"),
              ("3/5", 0), ("3/5", "1/2"), ("4/5", "1/2"), (1, "1/2"), (1, 1)]
    lattice = WeakIntegrationLattice(g, tuple((F(a), F(b)) for a, b in points))
    check = check_weak_lattice(lattice)
    assert (check.ok, check.clause) == (False, "clip")
    assert check.witness == (3, 3, (F(3, 5), F(1)))
    assert verdict(check) == reference_check_weak_lattice(lattice)
    with pytest.raises(PreconditionError, match="clause clip"):
        daniell_stone(lattice, tabulate(lattice, lambda values: values[0]))


def test_lattice_clip_violation_at_the_first_saturating_step_detected():
    """Closed under join, meet and span, yet the first clip of (2/3, 1/4)
    that reaches one, at n0 = 2, overshoots it: min(2 * (2/3, 1/4), 1) is
    (1, 1/2), which is no integer multiple of a member."""
    g = GroundSet(("a", "b"))
    points = [(0, 0), (0, "1/4"), ("1/3", 0), ("1/3", "1/4"), ("1/3", "1/2"),
              ("1/3", "3/4"), ("2/3", "1/4"), ("2/3", "3/4"), (1, 1)]
    lattice = WeakIntegrationLattice(g, tuple((F(a), F(b)) for a, b in points))
    check = check_weak_lattice(lattice)
    assert check == ClauseCheck(False, "clip", (6, 2, (F(1), F(1, 2))))
    assert verdict(check) == reference_check_weak_lattice(lattice)


# --- slab masks --------------------------------------------------------------------


def one_atom_slabs(scale, *slabs):
    """The cell masks of the one-atom slabs ``[lower/scale, upper/scale)``,
    and the semi-ring of every slab mask on their grid."""
    family, cells, above, below = slab_grid(
        [(v,) for slab in slabs for v in slab], scale
    )
    masks = [above[(lower,)] & below[(upper,)] for lower, upper in slabs]
    every = [above[lo] & below[up] for lo in family for up in family if lo <= up]
    ground = GroundSet(tuple(f"c{j}" for j in range(len(cells))))
    return masks, SemiRing(ground, every)


def test_slab_mask_meet_is_idempotent():
    (a,), semiring = one_atom_slabs(1, (0, 1))
    assert a & a == a == semiring.ground.full_mask


def test_slab_mask_meet_of_adjacent_slabs_is_empty():
    (lo, hi, whole), _ = one_atom_slabs(2, (0, 1), (1, 2), (0, 2))
    assert lo & hi == 0
    assert lo | hi == whole


def test_slab_mask_meet_of_nested_slabs_is_the_inner():
    (a, b), _ = one_atom_slabs(2, (0, 2), (1, 2))
    assert a & b == b


def test_slab_mask_difference_with_itself_is_empty():
    (a,), semiring = one_atom_slabs(4, (1, 3))
    assert semiring.difference_decomposition(a, a) == ()


def test_slab_mask_difference_with_the_empty_slab_covers_it():
    (a, empty), semiring = one_atom_slabs(3, (0, 3), (1, 1))
    assert empty == 0
    pieces = semiring.difference_decomposition(a, empty)
    assert sum(pieces) == functools.reduce(operator.or_, pieces) == a


def test_slab_mask_difference_of_a_middle_interval():
    """[0, 1) minus [1/4, 1/2) is [0, 1/4) and [1/2, 1)."""
    (a, b, low, high), semiring = one_atom_slabs(4, (0, 4), (1, 2), (0, 1), (2, 4))
    assert sorted(semiring.difference_decomposition(a, b)) == [low, high]


def test_slab_ops_extensional_on_random_pairs():
    rng = gen.rng_for(0, "slab-ext")
    for _ in range(100):
        [(name, ok, witness)] = cli._slab_case(rng)
        assert (name, ok) == ("slab-calculus", True), witness


def _seeded_bounds(count):
    """``(seeds, scale)`` draws as `extend.slab-calculus` makes them: four
    bound vectors on 1-4 atoms, integers up to ``2 * scale``."""
    rng = gen.rng_for(0, "slab-heights")
    for _ in range(count):
        atoms, scale = rng.randint(1, 4), rng.randint(1, 4)
        draw = [tuple(rng.randint(0, 2 * scale) for _ in range(atoms)) for _ in range(4)]
        yield draw, scale


def _one_mask_two_heights(grid, seeds, scale):
    """Two slabs ``(lower, upper)`` on ``grid``'s bounds with one cell mask
    and different heights, or ``None``."""
    family, _, above, below = grid(seeds, scale)
    first = {}
    for lower, upper in itertools.product(family, repeat=2):
        if all(map(operator.le, lower, upper)):
            height = tuple(map(operator.sub, upper, lower))
            seen = first.setdefault(above[lower] & below[upper], (height, lower, upper))
            if seen[0] != height:
                return seen[1:], (lower, upper)
    return None


def test_slabs_with_one_mask_have_one_height():
    """Why `daniell_stone` lifts each cell mask once: the cells are cut at
    every bound value, so a mask's cells over an atom tile its slab there."""
    draws = list(_seeded_bounds(200))
    assert all(_one_mask_two_heights(slab_grid, *draw) is None for draw in draws)
    assert any(_one_mask_two_heights(grid_skipping_a_bound(slab_grid), *draw) for draw in draws)


# --- caratheodory extension -----------------------------------------------------


def test_extend_from_singletons():
    g = GroundSet(("0", "1", "2"))
    sr = SemiRing(g, (0, 1, 2, 4))
    ext = caratheodory_extend(sr, {0: F(0), 1: F(1, 3), 2: F(1, 3), 4: F(1, 3)})
    assert ext.mass == 1
    assert ext.to_measure() == uniform(Algebra.powerset(g))


def test_extend_from_algebra_is_identity():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, [1])
    p = Measure(alg, (F(1, 4), F(3, 4)))
    sr = SemiRing(g, tuple(alg.members))
    ext = caratheodory_extend(sr, {m: p(m) for m in alg.members})
    assert ext.algebra == alg
    assert ext.to_measure() == p


def test_extend_detects_non_additive_premeasure():
    g = GroundSet(("0", "1"))
    sr = SemiRing(g, (0, 1, 2, 3))
    with pytest.raises(ExtensionError) as err:
        caratheodory_extend(sr, {0: F(0), 1: F(1, 2), 2: F(3, 4), 3: F(1)})
    member, parts = err.value.witness
    assert member == 3
    assert set(parts) == {1, 2}


def test_extend_uncovered_atoms_carry_zero():
    g = GroundSet(("0", "1"))
    sr = SemiRing(g, (0, 1))
    ext = caratheodory_extend(sr, {0: F(0), 1: F(1, 2)})
    assert ext.mass == F(1, 2)
    assert ext.uncovered_atoms == (2,)
    with pytest.raises(Exception):
        ext.to_measure()


def test_extension_uniqueness_under_perturbation():
    """Any single-atom change breaks agreement on some semi-ring member."""
    g = GroundSet(("0", "1", "2"))
    sr = SemiRing(g, (0, 1, 2, 4))
    mu = {0: F(0), 1: F(1, 2), 2: F(1, 4), 4: F(1, 4)}
    ext = caratheodory_extend(sr, mu)
    eps = F(1, 8)
    for i in range(len(ext.weights)):
        perturbed = list(ext.weights)
        perturbed[i] += eps
        perturbed[(i + 1) % len(perturbed)] -= eps
        disagreements = [
            m
            for m in sr.members
            if sum(
                (w for a, w in zip(ext.algebra.atoms, perturbed) if a & m), F(0)
            )
            != mu[m]
        ]
        assert disagreements


FOUR = GroundSet(("a", "b", "c", "d"))
# the four singletons, {a, b} and the whole set, with values over 6 and 12
FOUR_MEMBERS = (0, 1, 2, 4, 8, 3, 15)
FOUR_MU = {0: F(0), 1: F(1, 12), 2: F(1, 12), 4: F(1, 3), 8: F(1, 2), 3: F(1, 6), 15: F(1)}


def test_one_premeasure_over_other_denominators_gives_one_extension():
    semiring = SemiRing(FOUR, FOUR_MEMBERS)
    over_12 = {m: f"{v * 12}/12" for m, v in FOUR_MU.items()}
    over_24 = {m: f"{v * 24}/24" for m, v in FOUR_MU.items()}
    a, b = (caratheodory_extend(semiring, mu) for mu in (FOUR_MU, over_12))
    assert a == b and hash(a) == hash(b)
    assert (a.den, a.nums) == (12, (1, 1, 4, 6))
    assert a == caratheodory_extend(semiring, over_24)
    # the constructor reduces: 2/24, 2/24, 8/24 and 12/24 are the same weights
    twice = represent.ExtensionResult(a.algebra, 24, (2, 2, 8, 12), a.covered)
    assert twice == a and hash(twice) == hash(a)
    assert twice.weights == (F(1, 12), F(1, 12), F(1, 3), F(1, 2))
    assert type(twice.mass) is F and twice.mass == 1
    with pytest.raises(ValueError, match="one weight per atom required"):
        represent.ExtensionResult(a.algebra, 12, (1, 1, 4), a.covered)


def test_an_extension_values_each_member_by_its_summed_atom_weights():
    for case in range(40):
        rng = gen.rng_for(case, "extension-value")
        algebra = gen.random_algebra(rng, gen.random_ground(rng, 5))
        p = gen.random_measure(rng, algebra, 12)
        semiring = SemiRing(algebra.ground, tuple(algebra.members))
        extension = caratheodory_extend(semiring, {m: p(m) for m in algebra.members})
        for m in algebra.members:
            summed = sum(
                (w for atom, w in zip(algebra.atoms, extension.weights) if atom & m), F(0)
            )
            assert extension.value(m) == summed == p(m)
    extension = caratheodory_extend(SemiRing(FOUR, FOUR_MEMBERS), FOUR_MU)
    assert [extension.value(m) for m in FOUR_MEMBERS] == [FOUR_MU[m] for m in FOUR_MEMBERS]


def test_an_extension_of_mass_three_halves_is_no_measure():
    semiring = SemiRing(FOUR, (0, 1, 2, 4))
    extension = caratheodory_extend(semiring, {0: 0, 1: F(1, 2), 2: F(1, 2), 4: F(1, 2)})
    assert extension.mass == F(3, 2) and type(extension.mass) is F
    assert extension.uncovered_atoms == (8,)
    with pytest.raises(DomainError) as err:
        extension.to_measure()
    assert str(err.value) == "extension has total mass 3/2, not 1"


def test_a_member_bumped_by_one_twenty_fourth_is_not_additive():
    bumped = {**FOUR_MU, 3: FOUR_MU[3] + F(1, 24)}
    with pytest.raises(ExtensionError) as err:
        caratheodory_extend(SemiRing(FOUR, FOUR_MEMBERS), bumped)
    assert str(err.value) == (
        "premeasure is not additive: mu = 5/24 on a member whose disjoint "
        "decomposition sums to 1/6"
    )
    assert err.value.witness == (3, (1, 2))


# --- the slab route ----------------------------------------------------------------


def test_daniell_stone_recovers_table_measure():
    g = GroundSet(("0", "1"))
    alg = Algebra.powerset(g)
    lattice = grid_lattice(g, alg, 3)
    hidden = Measure(alg, (F(1, 3), F(2, 3)))

    def integral(values):
        return sum(w * values[i] for i, w in enumerate(hidden.weights))

    assert daniell_stone(lattice, tabulate(lattice, integral)) == hidden


def test_daniell_stone_trivial_lattice():
    g = GroundSet(("0", "1"))
    lattice = WeakIntegrationLattice(g, ((F(1), F(1)),))
    p = daniell_stone(lattice, tabulate(lattice, lambda values: F(1)))
    assert p.algebra.atoms == (g.full_mask,)
    assert p.weights == (F(1),)


def test_daniell_stone_lipschitz_grid_dirac():
    """All [0,1] grid functions on a discrete 3-point space are 1-Lipschitz;
    integrating against a point evaluation recovers the Dirac measure on the
    full powerset."""
    g = GroundSet(("a", "b", "c"))
    lattice = grid_lattice(g, Algebra.powerset(g), 2)
    p = daniell_stone(lattice, tabulate(lattice, lambda values: values[1]))
    assert p.algebra == Algebra.powerset(g)
    assert p == dirac("b", Algebra.powerset(g))


def test_daniell_stone_requires_valid_lattice():
    g = GroundSet(("0", "1"))
    bad = WeakIntegrationLattice(g, ((F(1), F(1)), (F(1, 2), F(1, 4))))
    with pytest.raises(PreconditionError):
        daniell_stone(bad, tabulate(bad, lambda values: F(1)))


def test_daniell_stone_names_a_function_missing_from_the_table():
    g = GroundSet(("0", "1"))
    lattice = grid_lattice(g, Algebra.powerset(g), 2)
    values = tabulate(lattice, lambda values: values[0])
    del values[(F(1, 2), F(0))]
    with pytest.raises(PreconditionError, match=r"lacks a value for \(1/2, 0\)"):
        daniell_stone(lattice, values)


def test_daniell_stone_rejects_inconsistent_oracle():
    g = GroundSet(("0", "1"))
    lattice = grid_lattice(g, Algebra.powerset(g), 2)

    def skewed(values):
        # not additive: indicator masses do not sum to the total
        if values == (F(1), F(0)):
            return F(3, 4)
        if values == (F(0), F(1)):
            return F(3, 4)
        return sum(values) / 2

    with pytest.raises(ExtensionError) as err:
        daniell_stone(lattice, tabulate(lattice, skewed))
    assert str(err.value) == "slab route fails to represent the functional"
    assert err.value.witness == ((0, 1), F(3, 4), F(1, 2))


def test_daniell_stone_matches_direct_reconstruction_on_random_cases():
    from finprob.cli import _random_grid_lattice

    for case in range(25):
        rng = gen.rng_for(99, "daniell-agree", str(case))
        lattice, hidden = _random_grid_lattice(rng, 8)
        rebuilt = daniell_stone(lattice, represent.integration_table(hidden, lattice))
        assert rebuilt.algebra == hidden.algebra
        assert rebuilt.weights == hidden.weights
        family = indicator_family_of(hidden.algebra)
        direct = reconstruct_measure(
            Functional(hidden.algebra, {s: simple_integral(hidden, s) for s in family})
        )
        assert rebuilt == direct


def _two_point_lattice(*pairs):
    return WeakIntegrationLattice(
        GroundSet(("x0", "x1")), tuple((F(a), F(b)) for a, b in pairs)
    )


def test_the_slab_route_represents_an_integral_on_a_lattice_without_atom_indicators():
    """(0, 1/4) and (1/2, 0) closed under the lattice clauses: a valid
    lattice whose functions generate the powerset but hold neither atom's
    indicator.  Its bounded functions close to slabs whose heights all lie
    on members' rays."""
    lattice = _two_point_lattice(
        (0, 0), (0, "1/4"), ("1/2", 0), ("1/2", "1/4"), ("1/2", "1/2"),
        ("1/2", "3/4"), ("1/2", 1), (1, "3/4"), (1, 1),
    )
    assert check_weak_lattice(lattice).ok
    hidden = Measure(Algebra.powerset(lattice.ground), (F(1, 3), F(2, 3)))
    assert daniell_stone(lattice, represent.integration_table(hidden, lattice)) == hidden


def test_the_slab_route_represents_an_integral_on_every_valid_lattice():
    """(1/6, 1/3) and (1/2, 1) closed under the lattice clauses: a valid
    lattice whose functions generate the powerset, so the integral of any
    measure on it is a lattice functional that the route must represent.
    Its closed bounds (0, 2/3) and 1 have the slab height (1, 1/3), on no
    member's ray; that slab, like every slab, is worth the lifted value of
    its upper bound less that of its lower one."""
    lattice = _two_point_lattice(
        (0, 0), (0, "1/3"), (0, 1),
        ("1/6", 0), ("1/6", "1/3"), ("1/6", "2/3"), ("1/6", 1),
        ("1/3", 0), ("1/3", "1/3"), ("1/3", 1),
        ("1/2", 0), ("1/2", "1/3"), ("1/2", "2/3"), ("1/2", 1),
        ("2/3", "1/3"), ("2/3", 1),
        ("5/6", "1/3"), ("5/6", "2/3"), ("5/6", 1),
        (1, 1),
    )
    assert check_weak_lattice(lattice).ok
    hidden = Measure(Algebra.powerset(lattice.ground), (F(1, 3), F(2, 3)))
    assert daniell_stone(lattice, represent.integration_table(hidden, lattice)) == hidden


def _clause_closure(seeds, cap=48):
    """The lattice of zero, one and ``seeds``, each of them a tuple of
    ``Fraction``s, closed under the lattice clauses: each join, meet and
    span of two members and each clip ``min(n f, 1)`` that is no integer
    multiple of a member becomes one, until every such target is covered.
    None once it passes ``cap`` members.

    As :func:`finprob.cli._closed_half_grid` does, it grows integer vectors
    over the seeds' common denominator; ``rays`` maps each primitive
    direction to the gcds of the members on it, so that ``vec`` is a
    multiple of a member when its gcd is a multiple of one of those."""
    scale = math.lcm(*(v.denominator for f in seeds for v in f))
    size = len(seeds[0])
    members, rays = [(0,) * size], {}

    def admit(vec, seed=False):
        k = math.gcd(*vec)
        on_ray = rays.setdefault(tuple(x // k for x in vec), []) if k else [1]
        if all(k % m for m in on_ray) or seed and vec not in members:
            on_ray.append(k)
            members.append(vec)

    for vec in [(scale,) * size, *(tuple(int(v * scale) for v in f) for f in seeds)]:
        admit(vec, seed=True)
    for i, f in enumerate(members):  # grows as it is read
        for n in range(1, scale + 1):
            admit(tuple(min(n * x, scale) for x in f))
        for g in members[: i + 1]:
            join, meet = tuple(map(max, f, g)), tuple(map(min, f, g))
            for target in (join, meet, tuple(map(operator.sub, join, meet))):
                admit(target)
        if len(members) > cap:
            return None
    ground = GroundSet(tuple(f"x{i}" for i in range(size)))
    return WeakIntegrationLattice(
        ground, tuple(tuple(F(x, scale) for x in f) for f in members)
    )


@functools.cache
def _closed_draws(count=250):
    """Clause closures of one or two seeds on one to three points, each
    value at most 1 or at most 2 over a denominator of at most 6, each
    with a hidden measure on the algebra its functions generate."""
    rng = gen.rng_for(7, "clause-closure")
    draws = []
    for _ in range(count):
        size, top = rng.randint(1, 3), rng.choice((1, 2))
        seeds = [
            tuple(F(rng.randint(0, top * d), d) for d in rng.choices(range(1, 7), k=size))
            for _ in range(rng.randint(1, 2))
        ]
        lattice = _clause_closure(seeds)
        if lattice is not None:
            sigma = sigma_of_functions(lattice.ground, lattice.functions)
            draws.append((lattice, gen.random_measure(rng, sigma, 6)))
    return draws


def test_the_slab_route_returns_the_hidden_measure_on_closed_lattices():
    """Every clause closure is a valid lattice, and the route recovers the
    measure from its integration table on each, those whose closed bounds
    have a slab height on no member's ray included.  None has a bound on no
    member's ray."""
    unliftable = 0
    for lattice, hidden in _closed_draws():
        try:
            p = daniell_stone(lattice, represent.integration_table(hidden, lattice))
        except ExtensionError as exc:
            assert str(exc).startswith("slab bound is not a rational multiple")
            unliftable += 1
        else:
            assert p == hidden
    assert (len(_closed_draws()), unliftable) == (206, 0)


def test_the_slab_route_represents_every_two_point_closure_of_small_seeds():
    """Every clause closure of one or two seeds on two points, each value
    in [0, 1] over a denominator of at most 3, within 48 members: 112
    distinct lattices; and on three points, each value in {0, 1/2, 1},
    within 64 members: 59 more.  The route returns a hidden measure on each,
    with a distinct weight per atom of the algebra its functions generate.
    Six of the two-point ones have a slab whose height is on no member's
    ray, so they raise unless slabs are valued by their bounds."""
    closures = {}
    for size, den, cap in ((2, 3, 48), (3, 2, 64)):
        values = sorted({F(n, d) for d in range(1, den + 1) for n in range(d + 1)})
        points = list(itertools.product(values, repeat=size))
        for seeds in [*itertools.combinations(points, 1), *itertools.combinations(points, 2)]:
            lattice = _clause_closure(list(seeds), cap)
            if lattice is not None:
                closures.setdefault(frozenset(lattice.functions), lattice)
    assert collections.Counter(lat.ground.size for lat in closures.values()) == {2: 112, 3: 59}
    for lattice in closures.values():
        sigma = sigma_of_functions(lattice.ground, lattice.functions)
        n = len(sigma.atoms)
        hidden = Measure(sigma, [F(i + 1, n * (n + 1) // 2) for i in range(n)])
        assert daniell_stone(lattice, represent.integration_table(hidden, lattice)) == hidden


def test_a_wrong_value_on_a_member_above_one_is_caught():
    """Homogeneity broken on one multiple: a member above one, off its
    integral by 1/24, is the route's witness."""
    bumped = 0
    for lattice, hidden in _closed_draws():
        table = represent.integration_table(hidden, lattice)
        above = [f for f in lattice.functions if max(f) > 1]
        if not above:
            continue
        f = above[len(above) // 2]
        given = table[f] + F(1, 24)
        with pytest.raises(ExtensionError) as err:
            daniell_stone(lattice, {**table, f: given})
        assert str(err.value) == "slab route fails to represent the functional"
        assert err.value.witness == (f, given, table[f])
        bumped += 1
    assert bumped == 69


def _rank(rows):
    """The rank of ``rows``, by exact Gaussian elimination."""
    rows, rank = [list(map(F, row)) for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        for r in rows[rank + 1 :]:
            ratio = r[col] / pivot[col]
            r[:] = [a - ratio * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def test_the_bounded_functions_have_full_rank_on_the_atoms():
    """Why the route's result is the one measure that represents the
    functional: the lattice functions bounded by one, read on σ(L)'s atoms,
    span every atom's indicator, so two measures that agree on them agree."""
    rng = gen.rng_for(0, "slab-rank")
    grids = [cli._random_grid_lattice(rng, 6) for _ in range(300)]
    for lattice, hidden in _closed_draws() + grids:
        firsts = [(atom & -atom).bit_length() - 1 for atom in hidden.algebra.atoms]
        bounded = [[f[p] for p in firsts] for f in lattice.functions if max(f) <= 1]
        assert _rank(bounded) == len(firsts)


# --- the integer kernel against the Fraction scan it replaced ------------------
#
# ``check_weak_lattice`` and ``daniell_stone`` work on integer vectors over the
# lattice's common denominator and find multiples through a direction index.
# The functions below are the earlier ``Fraction`` implementations, which
# scanned every member for each multiple; they are kept as references only.


def reference_as_multiple(target, members):
    """Find ``(n, index)`` with ``target == n * members[index]``, ``n`` a
    positive integer (zero only for the zero target)."""
    if all(v == 0 for v in target):
        return (0, 0)
    for idx, h in enumerate(members):
        if all(v == 0 for v in h):
            continue
        ratio = None
        consistent = True
        for t, v in zip(target, h):
            if v == 0:
                if t != 0:
                    consistent = False
                    break
                continue
            r = t / v
            if ratio is None:
                ratio = r
            elif r != ratio:
                consistent = False
                break
        if consistent and ratio is not None and ratio.denominator == 1 and ratio >= 1:
            return (int(ratio), idx)
    return None


def reference_check_weak_lattice(lattice, found=None):
    """``(ok, clause, witness)`` for the first failing clause.  Every multiple
    found is appended to ``found`` as ``(clause, i, j-or-n, multiplier,
    index)``, and the clip clause tries every ``n`` up to the first whose
    clip sends each positive value to one."""
    fns = lattice.functions
    n_pts = lattice.ground.size
    one = (F(1),) * n_pts
    found = [] if found is None else found

    if one not in fns:
        return (False, "contains-one", ())

    for i, f in enumerate(fns):
        for j, g in enumerate(fns[i:], start=i):
            join = tuple(max(a, b) for a, b in zip(f, g))
            meet = tuple(min(a, b) for a, b in zip(f, g))
            span = tuple(a - b for a, b in zip(join, meet))
            for kind, target in (("join", join), ("meet", meet), ("span", span)):
                multiple = reference_as_multiple(target, fns)
                if multiple is None:
                    return (False, kind, (i, j, target))
                found.append((kind, i, j, *multiple))

    for i, f in enumerate(fns):
        n = 0
        while n == 0 or any(0 < n * v < 1 for v in f):
            n += 1
            clipped = tuple(min(n * v, F(1)) for v in f)
            multiple = reference_as_multiple(clipped, fns)
            if multiple is None:
                return (False, "clip", (i, n, clipped))
            found.append(("clip", i, n, *multiple))

    return (True, None, None)


def verdict(check):
    return (check.ok, check.clause, check.witness)


def reference_daniell_stone(lattice, oracle, family_cap=512):
    ok, clause, witness = reference_check_weak_lattice(lattice)
    if not ok:
        raise PreconditionError(
            f"invalid weak integration lattice: clause {clause} fails "
            f"with witness {witness}"
        )
    ground = lattice.ground
    one_vec = (F(1),) * ground.size
    zero_vec = (F(0),) * ground.size
    table = {zero_vec: F(0)}  # I(0) = 0 is forced; the oracle is never asked
    for vec in lattice.functions:
        if vec == zero_vec:
            continue
        v = F(oracle(vec))
        if v < 0:
            raise PreconditionError(f"functional value {v} is negative")
        table[vec] = v
    if table[one_vec] != 1:
        raise PreconditionError(f"functional sends 1 to {table[one_vec]}, not 1")

    sigma = sigma_of_functions(ground, lattice.functions)
    atom_count = len(sigma.atoms)

    def to_atom_vec(point_vec):
        out = []
        for atom in sigma.atoms:
            idx = next(i for i in range(ground.size) if atom >> i & 1)
            out.append(point_vec[idx])
        return tuple(out)

    members_atom = {to_atom_vec(vec): vec for vec in lattice.functions}

    def lift(bound):
        """The lifted functional at a rational multiple of a declared member."""
        if all(v == 0 for v in bound):
            return F(0)
        for member, point_vec in members_atom.items():
            if all(v == 0 for v in member):
                continue
            ratio = None
            for t, v in zip(bound, member):
                if v == 0:
                    if t != 0:
                        ratio = None
                        break
                    continue
                r = t / v
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    ratio = None
                    break
            if ratio is not None and ratio > 0:
                return ratio * table[point_vec]
        raise ExtensionError(
            "slab bound is not a rational multiple of any declared lattice "
            "member; declare a richer family",
            witness=bound,
        )

    # Join/meet-closed family of slab bounds, capped at height one.
    bounds = {(F(0),) * atom_count, (F(1),) * atom_count}
    for vec in members_atom:
        if all(v <= 1 for v in vec):
            bounds.add(vec)
    frontier = list(bounds)
    while frontier:
        if len(bounds) > family_cap:
            raise ExtensionError(
                f"slab bound family exceeds the desk-scale cap {family_cap}"
            )
        f = frontier.pop()
        for g in tuple(bounds):
            for combo in (
                tuple(max(x, y) for x, y in zip(f, g)),
                tuple(min(x, y) for x, y in zip(f, g)),
            ):
                if combo not in bounds:
                    bounds.add(combo)
                    frontier.append(combo)
    bound_family = sorted(bounds)

    # Finite product grid: sigma atoms times vertical cells between breakpoints.
    breakpoints = sorted({v for vec in bound_family for v in vec} | {F(0), F(1)})
    cells = list(zip(breakpoints, breakpoints[1:]))
    product_points = tuple(
        f"a{i}c{j}" for i in range(atom_count) for j in range(len(cells))
    )
    product_ground = GroundSet(product_points)

    def slab_mask(lower, upper) -> int:
        mask = 0
        bit = 0
        for i in range(atom_count):
            for lo_cell, hi_cell in cells:
                if lower[i] <= lo_cell and hi_cell <= upper[i]:
                    mask |= 1 << bit
                bit += 1
        return mask

    lifted = {bound: lift(bound) for bound in bound_family}
    slab_values = {}
    for lower in bound_family:
        for upper in bound_family:
            if any(lo > hi for lo, hi in zip(lower, upper)):
                continue
            slab_values.setdefault(slab_mask(lower, upper), lifted[upper] - lifted[lower])

    semiring = SemiRing(product_ground, tuple(slab_values))
    extension = caratheodory_extend(semiring, slab_values)

    weights = []
    for i in range(atom_count):
        column = 0
        for j in range(len(cells)):
            column |= 1 << (i * len(cells) + j)
        weights.append(extension.value(column))
    try:
        result = Measure(sigma, tuple(weights))
    except ValueError as exc:
        raise ExtensionError(f"slab extension is not a probability measure: {exc}")

    # representation property on every lattice member
    for vec in lattice.functions:
        integral = sum(
            (w * v for w, v in zip(result.weights, to_atom_vec(vec))), F(0)
        )
        if integral != table[vec]:
            raise ExtensionError(
                "slab route fails to represent the functional",
                witness=(vec, table[vec], integral),
            )

    return result


def _on_atoms(ground, algebra, atom_values):
    values = [F(0)] * ground.size
    for atom, v in zip(algebra.atoms, atom_values):
        for i in range(ground.size):
            if atom >> i & 1:
                values[i] = v
    return tuple(values)


def _seeded_lattice(case):
    """A grid lattice, a lattice of multiples along rays, or one of those
    perturbed so that some clause may fail."""
    rng = gen.rng_for(7, "integer-kernel", str(case))
    ground = gen.random_ground(rng, 3)
    algebra = gen.random_algebra(rng, ground)
    while len(algebra.atoms) > 3:
        algebra = gen.random_algebra(rng, ground)
    k = len(algebra.atoms)
    if rng.random() < 0.5:
        functions = list(grid_lattice(ground, algebra, rng.randint(1, 3)).functions)
    else:
        # multiples of a few base vectors, so witnesses need n > 1
        functions = [(F(1),) * ground.size]
        for _ in range(rng.randint(1, 3)):
            steps = rng.randint(2, 5)
            base = [F(rng.randint(0, steps), steps) for _ in range(k)]
            for n in range(1, rng.randint(1, steps) + 1):
                functions.append(_on_atoms(ground, algebra, [n * v for v in base]))
    perturbation = rng.randrange(4)
    if perturbation == 1 and len(functions) > 2:
        functions.pop(rng.randrange(len(functions)))
    elif perturbation == 2:
        functions = [f for f in functions if any(v != 1 for v in f)]
    elif perturbation == 3:
        functions.append(
            _on_atoms(ground, algebra, [F(rng.randint(0, 6), 4) for _ in range(k)])
        )
    return rng, WeakIntegrationLattice(ground, tuple(functions))


def _seeded_oracle(rng, lattice):
    """Integration against random point weights, sometimes skewed on one
    member or off normalization."""
    weights = gen.random_weights(rng, lattice.ground.size, 6)
    skew = rng.random()
    target = rng.choice(lattice.functions)

    def oracle(values):
        value = sum((w * v for w, v in zip(weights, values)), F(0))
        if skew < 0.3 and values == target and any(v != 1 for v in values):
            return value + F(1, 7)
        if skew > 0.9:
            return value * F(5, 4)
        return value

    return oracle


def _outcome(run):
    try:
        p = run()
    except (ExtensionError, PreconditionError, ReconstructionError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return p.algebra, p.weights


def test_integer_kernel_matches_fraction_reference_on_seeded_lattices(monkeypatch):
    clauses, errors, found, measures = set(), set(), [], 0
    for case in range(400):
        rng, lattice = _seeded_lattice(case)
        check = check_weak_lattice(lattice)
        assert verdict(check) == reference_check_weak_lattice(lattice, found), case
        clauses.add(check.clause)
        oracle = _seeded_oracle(rng, lattice)
        cap = rng.choice((8, 512))
        values = tabulate(lattice, oracle)
        monkeypatch.setattr(represent, "BOUND_FAMILY_CAP", cap)
        got = _outcome(lambda: daniell_stone(lattice, values))
        want = _outcome(lambda: reference_daniell_stone(lattice, oracle, cap))
        assert got == want, case
        if isinstance(got[0], type):
            errors.add(" ".join(got[1].split()[:3]))
        else:
            measures += 1
    # the seeded lattices reach every clause but clip, multipliers above
    # one, clips past n = 4 in the reference's scan, and every error the
    # slab route raises on them; none of them fails clip (the closed
    # lattices below do)
    assert clauses == {None, "contains-one", "join", "meet", "span"}
    assert max(multiplier for *_, multiplier, _ in found) > 1
    assert max(n for kind, _, n, *_ in found if kind == "clip") > 4
    assert measures >= 40
    assert errors == {
        "invalid weak integration",
        "functional sends 1",
        "slab bound family",
        "premeasure is not",
        "slab extension is",
        "slab route fails",
    }


def _first_saturating_step(f):
    """n0: the least n at which some value of ``f`` reaches one."""
    return min(-(-1 // v) for v in f if v)


def _clip_range(f):
    """N - n0: the clips from n0 on that may differ, less one."""
    return max(-(-1 // v) for v in f if v) - _first_saturating_step(f)


def _closed_lattice(case):
    """A lattice closed under join, meet and span that often fails clip.

    On points (a, b): every (i/p, j/q) with 0 < j < q, the constant one, and
    (i/p, 0) for i = 1 and for some i whose span with one, (1 - i/p, 1), is
    k times the member ((1 - i/p)/k, 1/k) for some k > 1 dividing q; p - 1
    is a multiple of such a k, so i = 1 qualifies.  A clip that saturates b
    before a lands on a ray (x, 1) that only some of these members cover.
    Two thirds of the cases add a third point copying a or b.
    """
    rng = gen.rng_for(7, "closed-lattice", str(case))
    q = rng.randint(2, 4)
    k = rng.choice([k for k in range(2, q + 1) if q % k == 0])
    p = 1 + k * rng.randint(1, 4 // k)
    xs = [F(i, p) for i in range(p + 1)]

    def spans_to_a_multiple(x):
        return any(
            q % m == 0 and ((1 - x) / m * p).denominator == 1 for m in range(2, q + 1)
        )

    functions = [(x, F(j, q)) for x in xs for j in range(1, q)]
    functions += [
        (x, F(0))
        for x in xs
        if x == F(1, p) or (spans_to_a_multiple(x) and rng.random() < 0.6)
    ]
    functions.append((F(1), F(1)))
    copy = rng.randrange(3)
    if copy < 2:
        functions = [f + (f[copy],) for f in functions]
    ground = GroundSet(tuple(f"x{i}" for i in range(len(functions[0]))))
    return WeakIntegrationLattice(ground, tuple(functions))


def test_integer_kernel_matches_fraction_reference_on_closed_lattices():
    """The bounded clip search against the reference's scan of every n, on
    lattices that reach the clip clause: some pass it, some fail it at n0
    and some fail it later."""
    outcomes = set()
    for case in range(120):
        lattice = _closed_lattice(case)
        check = check_weak_lattice(lattice)
        assert verdict(check) == reference_check_weak_lattice(lattice), case
        assert check.clause in (None, "clip"), case
        if check.clause == "clip":
            i, n, _ = check.witness
            outcomes.add(n == _first_saturating_step(lattice.functions[i]))
        else:
            outcomes.add(None)
    assert outcomes == {None, True, False}


def _long_range_lattice(case):
    """One, a member f whose clips from n0 to N(f) outnumber the lattice's
    members, up to two of f's clips and up to two random members."""
    rng = gen.rng_for(7, "long-range-lattice", str(case))
    size = rng.randint(2, 3)
    high = rng.choice((F(1, 2), F(2, 3), F(1), F(3, 2)))
    f = [high, F(rng.randint(1, 2), rng.randint(25, 60))]
    f += [F(rng.randint(0, 4), 4) for _ in range(size - 2)]
    rng.shuffle(f)
    functions = [(F(1),) * size, tuple(f)]
    for n in rng.sample(range(2, 25), rng.randint(0, 2)):
        functions.append(tuple(min(n * v, F(1)) for v in f))
    for _ in range(rng.randint(0, 2)):
        functions.append(tuple(F(rng.randint(0, 6), 6) for _ in range(size)))
    ground = GroundSet(tuple(f"x{i}" for i in range(size)))
    return WeakIntegrationLattice(ground, tuple(functions))


def test_integer_kernel_matches_fraction_reference_on_long_range_lattices():
    """Lattices with a member whose clip range N - n0 is at least |L|: the
    kernel would try at most |L| of those clips, the reference every one.
    Those clips lie on distinct rays, more than the nonzero members cover,
    so no such lattice passes.  None of these reaches the clip clause
    either: no lattice closed under join, meet and span is known with
    N - n0 >= |L|, so the clip failures come from the closed lattices
    above."""
    clauses = set()
    for case in range(150):
        lattice = _long_range_lattice(case)
        assert max(map(_clip_range, lattice.functions[1:])) >= len(lattice.functions)
        check = check_weak_lattice(lattice)
        assert verdict(check) == reference_check_weak_lattice(lattice), case
        assert not check.ok
        clauses.add(check.clause)
    assert clauses == {"join", "meet", "span"}


def _integer_search(members, target):
    """The integer kernel's search over Fraction vectors."""
    scale, vecs = exact.common(map(exact.Scaled.of, tuple(members) + (target,)))
    index = represent._direction_index(vecs[:-1])
    return represent._as_multiple(vecs[-1], vecs[:-1], index)


@pytest.mark.parametrize(
    "members, target, n",
    [
        # a multiplier of 3, and of 3n for n times the target
        (((F(0), F(0)), (F(1, 3), F(2, 3))), (F(1), F(2)), 3),
        (((F(0), F(0)), (F(1, 3), F(2, 3))), (F(1), F(2)), 2),
        # the zero target
        (((F(0), F(0)), (F(1), F(1))), (F(0), F(0)), 64),
        # h and 2h on one ray: the smaller index wins
        (((F(0),), (F(1, 4),), (F(1, 2),)), (F(1),), 4),
        (((F(0),), (F(1, 4),), (F(1, 2),)), (F(1),), 3),
        (((F(0),), (F(1, 4),), (F(1, 2),)), (F(3, 4),), 64),
        # same support, other direction
        (((F(0), F(0)), (F(1, 2), F(1))), (F(1), F(1)), 64),
    ],
)
def test_integer_search_edge_cases(members, target, n):
    """The search on ``target`` and on ``n * target``: a multiplier of any
    size is found, 192 included."""
    expected = {
        ((F(1), F(2)), 3): ((3, 1), (9, 1)),
        ((F(1), F(2)), 2): ((3, 1), (6, 1)),
        ((F(0), F(0)), 64): ((0, 0), (0, 0)),
        ((F(1),), 4): ((4, 1), (16, 1)),
        ((F(1),), 3): ((4, 1), (12, 1)),
        ((F(3, 4),), 64): ((3, 1), (192, 1)),
        ((F(1), F(1)), 64): (None, None),
    }[target, n]
    scaled = tuple(n * v for v in target)
    assert (_integer_search(members, target), _integer_search(members, scaled)) == expected
    assert (
        reference_as_multiple(target, members),
        reference_as_multiple(scaled, members),
    ) == expected


def test_direction_without_gcd_division_is_caught(monkeypatch):
    """A direction index keyed by the raw vectors finds only n = 1, so a
    lattice that needs larger multipliers fails with witnesses."""
    g = GroundSet(("0", "1"))
    chain = WeakIntegrationLattice(g, ((F(1, 4), F(1, 4)), (F(1), F(1))))
    assert check_weak_lattice(chain).ok
    values = tabulate(chain, lambda values: values[0])
    assert daniell_stone(chain, values).weights == (F(1),)
    monkeypatch.setattr(represent, "_direction", raw_direction(represent._direction))
    check = check_weak_lattice(chain)
    assert (check.ok, check.clause) == (False, "span")
    assert check.witness == (1, 2, (F(3, 4), F(3, 4)))
    with pytest.raises(PreconditionError, match="clause span"):
        daniell_stone(chain, values)
