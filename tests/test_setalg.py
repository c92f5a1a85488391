"""Set-algebra substrate: generation, atoms, semi-rings, premeasurability."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finprob import (
    Algebra,
    DomainError,
    GroundSet,
    algebra_closure,
    generate_algebra,
    is_premeasurable,
    is_semiring,
    sigma_of_functions,
)
from finprob.setalg import SemiRing
from fractions import Fraction as F


def masks_of(ground, *sets):
    return [ground.mask_of(s) for s in sets]


# --- independent oracles -----------------------------------------------------


def oracle_is_algebra(ground, members):
    members = set(members)
    if 0 not in members or ground.full_mask not in members:
        return False
    for a in members:
        if ground.full_mask ^ a not in members:
            return False
        for b in members:
            if a & b not in members:
                return False
    return True


def oracle_smallest_algebra(ground, generators):
    """Intersection of all algebras containing the generators, by brute
    force over every family of subsets.  Only feasible for tiny grounds."""
    subsets = list(range(ground.full_mask + 1))
    best = None
    for size in range(len(subsets) + 1):
        for family in itertools.combinations(subsets, size):
            fam = set(family)
            if not set(generators) <= fam:
                continue
            if not oracle_is_algebra(ground, fam):
                continue
            if best is None or len(fam) < len(best):
                best = fam
        if best is not None:
            break
    return best


def oracle_is_semiring(members):
    members = set(members)
    if 0 not in members:
        return False
    for a in members:
        for b in members:
            if a & b not in members:
                return False
    for a in members:
        for b in members:
            diff = a & ~b
            if not _has_disjoint_cover(diff, members):
                return False
    return True


def _has_disjoint_cover(target, members):
    if target == 0:
        return True
    usable = [m for m in members if m and m & target == m]
    stack = [(target, ())]
    seen = set()
    while stack:
        rest, _ = stack.pop()
        if rest == 0:
            return True
        if rest in seen:
            continue
        seen.add(rest)
        low = rest & -rest
        for m in usable:
            if m & low and m & rest == m:
                stack.append((rest & ~m, ()))
    return False


# --- generate_algebra --------------------------------------------------------


def test_generate_single_subset():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, masks_of(g, ["0"]))
    expected = oracle_smallest_algebra(g, masks_of(g, ["0"]))
    assert set(alg.members) == expected
    assert set(alg.members) == {0, g.mask_of(["0"]), g.mask_of(["1", "2"]), g.full_mask}


def test_generate_empty_generators_gives_trivial():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, [])
    assert list(alg.members) == [0, g.full_mask]


def test_generate_singletons_gives_powerset():
    g = GroundSet(("a", "b"))
    alg = generate_algebra(g, masks_of(g, ["a"], ["b"]))
    assert len(alg.members) == 4
    assert set(alg.members) == set(range(4))


def test_generate_matches_worklist_closure():
    g = GroundSet(("0", "1", "2", "3"))
    for gens in ([0b0011], [0b0101, 0b0110], [0b0001, 0b0010, 0b0100]):
        assert set(generate_algebra(g, gens).members) == set(algebra_closure(g, gens))


@st.composite
def ground_and_generators(draw, max_size=6):
    n = draw(st.integers(1, max_size))
    g = GroundSet(tuple(f"p{i}" for i in range(n)))
    count = draw(st.integers(0, 3))
    gens = tuple(draw(st.integers(0, g.full_mask)) for _ in range(count))
    return g, gens


@settings(max_examples=60)
@given(ground_and_generators())
def test_generation_is_a_closure_operator(data):
    g, gens = data
    alg = generate_algebra(g, gens)
    # extensive
    for gen_mask in gens:
        assert alg.is_member(gen_mask)
    # idempotent
    again = generate_algebra(g, tuple(alg.members))
    assert again.atoms == alg.atoms
    # monotone
    smaller = generate_algebra(g, gens[:1])
    for m in smaller.members:
        assert alg.is_member(m)


@settings(max_examples=60)
@given(ground_and_generators())
def test_member_count_is_power_of_atom_count(data):
    g, gens = data
    alg = generate_algebra(g, gens)
    assert len(alg.members) == 2 ** len(alg.atoms)


# --- atoms --------------------------------------------------------------------


def test_atoms_of_four_member_algebra():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, masks_of(g, ["0"]))
    assert set(alg.atoms) == {g.mask_of(["0"]), g.mask_of(["1", "2"])}


def test_atoms_of_powerset_are_singletons():
    g = GroundSet(("a", "b", "c"))
    assert set(Algebra.powerset(g).atoms) == {1, 2, 4}


def test_atoms_of_trivial_algebra():
    g = GroundSet(("a", "b", "c"))
    assert Algebra.trivial(g).atoms == (g.full_mask,)


def test_every_member_is_a_union_of_atoms():
    g = GroundSet(("0", "1", "2", "3"))
    alg = generate_algebra(g, [0b0110, 0b1100])
    for m in alg.members:
        union = 0
        for a in alg.atoms:
            if a & m:
                assert a & m == a
                union |= a
        assert union == m


# --- is_semiring ----------------------------------------------------------------


def test_singletons_with_empty_form_semiring():
    g = GroundSet(("0", "1", "2"))
    family = (0, 1, 2, 4)
    assert is_semiring(family).ok
    assert oracle_is_semiring(family)


def test_semiring_missing_intersection_detected():
    g = GroundSet(("0", "1", "2"))
    family = (0, g.mask_of(["0", "1"]), g.mask_of(["1", "2"]))
    check = is_semiring(family)
    assert not check.ok
    assert check.clause == "intersection"
    assert set(check.witness) == {g.mask_of(["0", "1"]), g.mask_of(["1", "2"])}
    assert not oracle_is_semiring(family)


def test_every_algebra_is_a_semiring():
    g = GroundSet(("0", "1", "2", "3"))
    for gens in ([0b1010], [0b0001, 0b0110]):
        alg = generate_algebra(g, gens)
        assert is_semiring(tuple(alg.members)).ok


def test_semiring_difference_clause_detected():
    g = GroundSet(("0", "1", "2"))
    family = (0, g.mask_of(["0"]), g.mask_of(["0", "1", "2"]))
    check = is_semiring(family)
    assert not check.ok
    assert check.clause == "difference"


@settings(max_examples=50)
@given(ground_and_generators(max_size=4))
def test_is_semiring_agrees_with_oracle(data):
    g, gens = data
    family = (0,) + gens
    assert is_semiring(family).ok == oracle_is_semiring(family)


def test_semiring_type_rejects_invalid_family():
    g = GroundSet(("0", "1", "2"))
    with pytest.raises(ValueError):
        SemiRing(g, (0, g.mask_of(["0", "1"]), g.mask_of(["1", "2"])))


def test_semiring_difference_decomposition_witness():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, [1, 2])
    sr = SemiRing(g, tuple(alg.members))
    a, b = g.mask_of(["0", "1", "2"]), g.mask_of(["0"])
    pieces = sr.difference_decomposition(a, b)
    union = 0
    for piece in pieces:
        assert piece & union == 0
        union |= piece
    assert union == a & ~b


# --- sigma_of_functions -----------------------------------------------------------


def test_sigma_of_indicator():
    g = GroundSet(("0", "1", "2"))
    alg = sigma_of_functions(g, [(F(1), F(0), F(0))])
    assert set(alg.members) == {0, 1, 6, 7}


def test_sigma_of_no_functions_is_trivial():
    g = GroundSet(("0", "1", "2"))
    assert sigma_of_functions(g, []).atoms == (g.full_mask,)


def test_sigma_of_injective_function_is_powerset():
    g = GroundSet(("0", "1", "2"))
    alg = sigma_of_functions(g, [(F(0), F(1), F(2))])
    assert len(alg.members) == 8


# --- is_premeasurable --------------------------------------------------------------


def test_any_map_into_trivial_codomain_is_premeasurable():
    dom = Algebra.powerset(GroundSet(("0", "1")))
    cod = Algebra.trivial(GroundSet(("a", "b")))
    ok, witness = is_premeasurable({"0": "a", "1": "b"}, dom, cod)
    assert ok and witness is None


def test_identity_is_premeasurable():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, [0b011])
    ok, _ = is_premeasurable({p: p for p in g.points}, alg, alg)
    assert ok


def test_non_premeasurable_map_with_witness():
    g = GroundSet(("0", "1", "2"))
    dom = generate_algebra(g, masks_of(g, ["0", "1"]))
    cod_ground = GroundSet(("a", "b"))
    cod = Algebra.powerset(cod_ground)
    ok, witness = is_premeasurable({"0": "a", "1": "b", "2": "b"}, dom, cod)
    assert not ok
    assert witness == cod_ground.mask_of(["a"])


@settings(max_examples=50)
@given(ground_and_generators(max_size=4), st.integers(0, 10**6))
def test_premeasurable_atom_criterion_matches_member_criterion(data, salt):
    g, gens = data
    dom = generate_algebra(g, gens)
    cod_ground = GroundSet(("a", "b", "c"))
    cod = Algebra.powerset(cod_ground)
    mapping = {
        p: cod_ground.points[(i * (salt + 1)) % 3] for i, p in enumerate(g.points)
    }
    ok, _ = is_premeasurable(mapping, dom, cod)
    brute = all(
        dom.is_member(
            sum(
                1 << i
                for i, p in enumerate(g.points)
                if member >> cod_ground.index(mapping[p]) & 1
            )
        )
        for member in cod.members
    )
    assert ok == brute


def test_ground_set_rejects_duplicates():
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))


def test_ground_set_is_not_capped():
    # the 16-point cap is an input limit, checked where files are loaded
    assert GroundSet(tuple(str(i) for i in range(20))).size == 20


def test_semiring_members_canonical_order():
    g = GroundSet(("0", "1"))
    assert SemiRing(g, (2, 1, 1, 0)).members == (0, 1, 2)
    assert SemiRing(g, (3, 2, 1, 3, 0)).members == (0, 1, 2, 3)


def test_algebra_from_members_validates_closure():
    g = GroundSet(("0", "1"))
    with pytest.raises(ValueError):
        Algebra.from_members(g, (0, 1, 3))  # missing complement of {0}
    alg = Algebra.from_members(g, (0, 1, 2, 3))
    assert alg.atoms == (1, 2)


def test_member_check_raises_domain_error():
    g = GroundSet(("0", "1", "2"))
    alg = generate_algebra(g, [1])
    with pytest.raises(DomainError):
        alg.check_member(0b011)
