"""Reconstruction from functionals, weak lattices, slabs, and extension."""

import functools
import itertools
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
    Slab,
    WeakIntegrationLattice,
    caratheodory_extend,
    check_weak_lattice,
    daniell_stone,
    dirac,
    generate_algebra,
    reconstruct_measure,
    simple_integral,
    slab_intersect,
    slab_subtract,
    uniform,
)
from finprob import exact, gen, represent
from finprob.represent import WeakLatticeReport
from finprob.setalg import SemiRing, sigma_of_functions


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
    report = check_weak_lattice(lattice)
    assert report.ok
    assert report.witnesses  # membership witnesses recorded


def test_unit_only_lattice_is_degenerate_weak_lattice():
    g = GroundSet(("0", "1"))
    lattice = WeakIntegrationLattice(g, ((F(1), F(1)),))
    assert check_weak_lattice(lattice).ok


def test_lattice_span_violation_detected():
    g = GroundSet(("0", "1"))
    lattice = WeakIntegrationLattice(g, ((F(1), F(1)), (F(1, 2), F(1, 4))))
    report = check_weak_lattice(lattice)
    assert not report.ok
    assert report.clause == "span"
    assert report.witness is not None


def test_a_multiplier_of_any_size_closes_the_lattice():
    """{1, 1/100} on one point: the span 1 - 1/100 is 99 times 1/100, and
    the clip clause runs to n = 100, where min(n/100, 1) first reaches 1."""
    g = GroundSet(("0",))
    lattice = WeakIntegrationLattice(g, ((F(1),), (F(1, 100),)))
    report = check_weak_lattice(lattice)
    assert report.ok
    assert report == reference_check_weak_lattice(lattice)
    found = {key: (n, idx) for key, n, idx in report.witnesses}
    assert found["span", 1, 2] == (99, 1)
    assert max(n for kind, i, n in found if kind == "clip" and i == 1) == 100
    p = daniell_stone(lattice, tabulate(lattice, lambda values: values[0]))
    assert p.weights == (F(1),)


def test_clip_clause_runs_until_the_clip_is_the_support_indicator():
    """On (1/6, 1/6) the clip min(n*f, 1) changes up to n = 6, so the clause
    tries n = 1 ... 6 there, and once for the zero function."""
    g = GroundSet(("a", "b"))
    lattice = WeakIntegrationLattice(g, ((F(1, 6), F(1, 6)), (F(1), F(1))))
    report = check_weak_lattice(lattice)
    assert report.ok
    clips = [(key, n, idx) for key, n, idx in report.witnesses if key[0] == "clip"]
    assert clips == [
        (("clip", 0, 1), 0, 0),
        *((("clip", 1, n), n, 1) for n in range(1, 7)),
        (("clip", 2, 1), 6, 1),
    ]
    assert report == reference_check_weak_lattice(lattice)


def test_lattice_clip_violation_detected():
    """Closed under join, meet and span, yet 3 * (1/5, 1/2) clipped at one
    is (3/5, 1), which is no integer multiple of a member."""
    g = GroundSet(("a", "b"))
    points = [(0, 0), (0, "1/2"), ("1/5", 0), ("1/5", "1/2"), ("2/5", "1/2"),
              ("3/5", 0), ("3/5", "1/2"), ("4/5", "1/2"), (1, "1/2"), (1, 1)]
    lattice = WeakIntegrationLattice(g, tuple((F(a), F(b)) for a, b in points))
    report = check_weak_lattice(lattice)
    assert (report.ok, report.clause) == (False, "clip")
    assert report.witness == (3, 3, (F(3, 5), F(1)))
    assert report == reference_check_weak_lattice(lattice)
    with pytest.raises(PreconditionError, match="clause clip"):
        daniell_stone(lattice, tabulate(lattice, lambda values: values[0]))


# --- slabs -------------------------------------------------------------------------


def one_point_algebra():
    return Algebra.powerset(GroundSet(("0",)))


def test_slab_intersect_idempotent():
    alg = one_point_algebra()
    a = Slab(alg, (F(0),), (F(1),))
    assert slab_intersect(a, a) == a


def test_slab_intersect_disjoint_pieces():
    alg = one_point_algebra()
    lo = Slab(alg, (F(0),), (F(1, 2),))
    hi = Slab(alg, (F(1, 2),), (F(1),))
    assert slab_intersect(lo, hi).is_empty


def test_slab_intersect_interval():
    alg = one_point_algebra()
    a = Slab(alg, (F(0),), (F(1),))
    b = Slab(alg, (F(1, 2),), (F(1),))
    assert slab_intersect(a, b) == b


def test_slab_subtract_self_is_empty():
    alg = one_point_algebra()
    a = Slab(alg, (F(1, 4),), (F(3, 4),))
    assert slab_subtract(a, a) == ()


def test_slab_subtract_empty_returns_original():
    alg = one_point_algebra()
    a = Slab(alg, (F(0),), (F(1),))
    empty = Slab(alg, (F(1, 3),), (F(1, 3),))
    assert slab_subtract(a, empty) == (a,)


def test_slab_subtract_middle_interval():
    alg = one_point_algebra()
    a = Slab(alg, (F(0),), (F(1),))
    b = Slab(alg, (F(1, 4),), (F(1, 2),))
    pieces = slab_subtract(a, b)
    assert [(s.lower, s.upper) for s in pieces] == [
        ((F(0),), (F(1, 4),)),
        ((F(1, 2),), (F(1),)),
    ]


def test_slab_ops_extensional_on_random_pairs():
    from finprob.cli import _random_slab, _slab_calculus_agrees

    rng = gen.rng_for(0, "slab-ext")
    for _ in range(100):
        algebra = gen.random_algebra(rng, gen.random_ground(rng, 4))
        a = _random_slab(rng, algebra, 4)
        b = _random_slab(rng, algebra, 4)
        assert _slab_calculus_agrees(a, b)


def test_slabs_on_different_algebras_are_rejected():
    g = GroundSet(("0", "1"))
    a = Slab(Algebra.trivial(g), (F(0),), (F(1),))
    b = Slab(Algebra.powerset(g), (F(0), F(1, 2)), (F(1, 2), F(1)))
    with pytest.raises(DomainError):
        slab_intersect(a, b)
    with pytest.raises(DomainError):
        slab_subtract(b, a)


def test_slab_rejects_crossed_bounds():
    alg = one_point_algebra()
    with pytest.raises(ValueError):
        Slab(alg, (F(1),), (F(1, 2),))


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

    with pytest.raises((ExtensionError, ReconstructionError)):
        daniell_stone(lattice, tabulate(lattice, skewed))


def test_daniell_stone_matches_direct_reconstruction_on_random_cases():
    from finprob.cli import _integration_table, _random_grid_lattice

    for case in range(25):
        rng = gen.rng_for(99, "daniell-agree", str(case))
        lattice, hidden = _random_grid_lattice(rng, 8)
        rebuilt = daniell_stone(lattice, _integration_table(hidden, lattice))
        assert rebuilt.algebra == hidden.algebra
        assert rebuilt.weights == hidden.weights
        family = indicator_family_of(hidden.algebra)
        direct = reconstruct_measure(
            Functional(hidden.algebra, {s: simple_integral(hidden, s) for s in family})
        )
        assert rebuilt == direct


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


def reference_check_weak_lattice(lattice):
    fns = lattice.functions
    n_pts = lattice.ground.size
    one = (F(1),) * n_pts
    witnesses: list[tuple] = []

    if one not in fns:
        return WeakLatticeReport(False, "contains-one", (), ())

    for i, f in enumerate(fns):
        for j, g in enumerate(fns[i:], start=i):
            join = tuple(max(a, b) for a, b in zip(f, g))
            meet = tuple(min(a, b) for a, b in zip(f, g))
            span = tuple(a - b for a, b in zip(join, meet))
            for kind, target in (("join", join), ("meet", meet), ("span", span)):
                found = reference_as_multiple(target, fns)
                if found is None:
                    return WeakLatticeReport(
                        False, kind, (i, j, target), tuple(witnesses)
                    )
                witnesses.append(((kind, i, j), found[0], found[1]))

    for i, f in enumerate(fns):
        # every n up to the first whose clip sends each positive value to one
        n = 0
        while n == 0 or any(0 < n * v < 1 for v in f):
            n += 1
            clipped = tuple(min(n * v, F(1)) for v in f)
            found = reference_as_multiple(clipped, fns)
            if found is None:
                return WeakLatticeReport(False, "clip", (i, n, clipped), tuple(witnesses))
            witnesses.append((("clip", i, n), found[0], found[1]))

    return WeakLatticeReport(True, None, None, tuple(witnesses))


def reference_daniell_stone(lattice, oracle, family_cap=512):
    report = reference_check_weak_lattice(lattice)
    if not report.ok:
        raise PreconditionError(
            f"invalid weak integration lattice: clause {report.clause} fails "
            f"with witness {report.witness}"
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

    def lift(height):
        """The lifted functional on rational multiples of declared members."""
        if all(v == 0 for v in height):
            return F(0)
        for member, point_vec in members_atom.items():
            if all(v == 0 for v in member):
                continue
            ratio = None
            for t, v in zip(height, member):
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
        return None

    # Join/meet-closed family of slab bounds, capped at height one.
    bounds = {(F(0),) * atom_count, (F(1),) * atom_count}
    for vec in members_atom:
        if all(v <= 1 for v in vec):
            bounds.add(vec)
    for member_mask in sigma.members:
        bounds.add(
            tuple(F(1) if atom & member_mask else F(0) for atom in sigma.atoms)
        )
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

    slab_values = {}
    for lower in bound_family:
        for upper in bound_family:
            if any(lo > hi for lo, hi in zip(lower, upper)):
                continue
            mask = slab_mask(lower, upper)
            height = tuple(hi - lo for lo, hi in zip(lower, upper))
            value = lift(height)
            if value is None:
                raise ExtensionError(
                    "slab height is not a rational multiple of any declared "
                    "lattice member; declare a richer family",
                    witness=(lower, upper),
                )
            if mask in slab_values and slab_values[mask][0] != value:
                raise ExtensionError(
                    "functional assigns different masses to one slab set",
                    witness=(slab_values[mask][1], (lower, upper)),
                )
            slab_values.setdefault(mask, (value, (lower, upper)))

    semiring = SemiRing(product_ground, tuple(slab_values))
    extension = caratheodory_extend(
        semiring, {mask: value for mask, (value, _) in slab_values.items()}
    )

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

    # representation property on lattice members bounded by one
    for vec in lattice.functions:
        if any(v > 1 for v in vec):
            continue
        f_simple = SimpleFunction(sigma, to_atom_vec(vec))
        if simple_integral(result, f_simple) != table[vec]:
            raise ExtensionError(
                "slab route fails to represent the functional",
                witness=(vec, table[vec], simple_integral(result, f_simple)),
            )

    # uniqueness cross-check against the direct indicator reconstruction
    indicator_pairs = []
    complete = True
    for member_mask in sigma.members:
        ind = tuple(F(1) if atom & member_mask else F(0) for atom in sigma.atoms)
        value = lift(ind)
        if value is None:
            complete = False
            break
        indicator_pairs.append((SimpleFunction.indicator(sigma, member_mask), value))
    if complete:
        direct = reconstruct_measure(Functional(sigma, dict(indicator_pairs)))
        if direct != result:
            raise ExtensionError(
                "slab route disagrees with the direct indicator reconstruction",
                witness=(result.weights, direct.weights),
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
    clauses, errors, multipliers, clip_steps, measures = set(), set(), set(), set(), 0
    for case in range(400):
        rng, lattice = _seeded_lattice(case)
        report = check_weak_lattice(lattice)
        assert report == reference_check_weak_lattice(lattice), case
        clauses.add(report.clause)
        multipliers.update(n for _, n, _ in report.witnesses)
        clip_steps.update(key[2] for key, _, _ in report.witnesses if key[0] == "clip")
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
    # one, clips past n = 4, and every error the slab route raises on them;
    # none of them fails clip (test_lattice_clip_violation_detected builds
    # one that does), so here clip is compared through the witnesses of the
    # lattices that pass
    assert clauses == {None, "contains-one", "join", "meet", "span"}
    assert max(multipliers) > 1
    assert max(clip_steps) > 4
    assert measures >= 40
    assert errors == {
        "invalid weak integration",
        "functional sends 1",
        "slab bound family",
        "premeasure is not",
        "slab extension is",
        "slab route fails",
    }


def _integer_search(members, target):
    """The integer kernel's search over Fraction vectors."""
    vecs, scale = exact.scaled_rows(tuple(members) + (target,))
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
    monkeypatch.setattr(
        represent, "_direction", lambda vec: tuple(vec) if any(vec) else None
    )
    report = check_weak_lattice(chain)
    assert (report.ok, report.clause) == (False, "span")
    assert report.witness == (1, 2, (F(3, 4), F(3, 4)))
    with pytest.raises(PreconditionError, match="clause span"):
        daniell_stone(chain, values)


def test_direction_without_gcd_division_fails_the_lattice_cases(monkeypatch):
    """The seeded lattice cases include sparse lattices whose clauses need
    multiplier 2, so the same fault fails them: a full value grid alone
    never needs a multiplier above 1."""
    from functools import partial

    from finprob import cli, gen
    from finprob.report import SuiteConfig

    def lattice_check():
        name = "lattice-representation"
        case = partial(cli._lattice_case, SuiteConfig(seed=0), name)
        (check,) = gen.run_cases(0, "daniell", 100, (name,), case)
        return check

    healthy = lattice_check()
    assert (healthy.passed, healthy.failed) == (100, 0)
    monkeypatch.setattr(
        represent, "_direction", lambda vec: tuple(vec) if any(vec) else None
    )
    assert lattice_check().failed > 0
