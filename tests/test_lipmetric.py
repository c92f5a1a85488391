"""The bounded Lipschitz distance: exact LP, subset maximum, and the
non-expansiveness of the monad structure maps."""

import itertools
from fractions import Fraction as F

import pytest

from finprob import (
    FiniteMetricSpace,
    LipschitzFunction,
    Measure,
    MetaMeasure,
    SimplexPoint,
    bl_distance_lp,
    bl_distance_subsets,
    check_bl_monad_nonexpansive,
    check_lipschitz_criterion_equivalence,
    check_simplex_lipschitz,
    dirac,
    discrete_space,
    mult,
    simplex_algebra,
    total_variation,
)
from finprob import gen, linprog, lipmetric
from finprob.exact import grid
from finprob.linprog import LPResult, maximize
from finprob.report import SuiteConfig
from finprob.lipmetric import (
    _one_sided_lp,
    bl_distance_lp_witness,
    simplex_grid,
)


def grid_oracle(p, q, space, max_denominator=8):
    """Brute force over all feasible test functions on a rational grid.

    A lower bound on the distance that is tight whenever the LP optimum has
    grid coordinates; test-only, never the production path.
    """
    n = space.size
    values = sorted(
        {F(num, den) for den in range(1, max_denominator + 1) for num in range(den + 1)}
    )
    diff = [a - b for a, b in zip(p.weights, q.weights)]
    best = F(0)
    for combo in itertools.product(values, repeat=n):
        ok = all(
            abs(combo[i] - combo[j]) <= space.dist[i][j]
            for i in range(n)
            for j in range(i + 1, n)
        )
        if ok:
            total = sum(f * d for f, d in zip(combo, diff))
            best = max(best, abs(total))
    return best


def test_identical_points_have_zero_distance():
    labels = ("a", "b")
    p = SimplexPoint(labels, (F(1, 3), F(2, 3)))
    assert bl_distance_lp(p, p, discrete_space(labels)) == 0
    assert bl_distance_subsets(p, p) == 0


def test_discrete_metric_separates_point_masses():
    labels = ("a", "b")
    p = dirac("a", simplex_algebra(labels))
    q = dirac("b", simplex_algebra(labels))
    assert bl_distance_lp(p, q, discrete_space(labels)) == 1
    assert bl_distance_subsets(p, q) == 1


def test_half_distance_two_point_space():
    labels = ("a", "b")
    space = FiniteMetricSpace(labels, ((F(0), F(1, 2)), (F(1, 2), F(0))))
    p = dirac("a", simplex_algebra(labels))
    q = dirac("b", simplex_algebra(labels))
    value = bl_distance_lp(p, q, space)
    assert value == F(1, 2)
    assert value == grid_oracle(p, q, space)


def test_lp_matches_grid_oracle_on_random_small_instances():
    for case in range(15):
        rng = gen.rng_for(31, "lp-oracle", str(case))
        space = gen.random_metric(rng, rng.randint(2, 3), 4)
        p = gen.random_simplex_point(rng, space.points, 4)
        q = gen.random_simplex_point(rng, space.points, 4)
        by_lp = bl_distance_lp(p, q, space)
        by_grid = grid_oracle(p, q, space, max_denominator=8)
        assert by_grid <= by_lp
        if by_lp.denominator <= 8:
            assert by_lp == by_grid


def test_lp_witness_is_optimal_lipschitz_function():
    labels = ("a", "b", "c")
    space = discrete_space(labels)
    rng = gen.rng_for(37, "witness")
    p = gen.random_simplex_point(rng, labels, 10)
    q = gen.random_simplex_point(rng, labels, 10)
    value, witness = bl_distance_lp_witness(p, q, space)
    assert isinstance(witness, LipschitzFunction)
    attained = abs(
        sum(f * (a - b) for f, a, b in zip(witness.values, p.weights, q.weights))
    )
    assert attained == value


def test_reversed_lp_has_the_same_optimum():
    # 1 - f is feasible whenever f is, so one orientation gives the distance
    for case in range(20):
        rng = gen.rng_for(53, "one-lp", str(case))
        space = gen.random_metric(rng, rng.randint(1, 6), 6)
        p = gen.random_simplex_point(rng, space.points, 6)
        q = gen.random_simplex_point(rng, space.points, 6)
        value, _ = bl_distance_lp_witness(p, q, space)
        diff = [a - b for a, b in zip(p.weights, q.weights)]
        assert _one_sided_lp([-v for v in diff], space)[0] == value


def line_metric(rng, size, max_denominator):
    """Points on a line with unit-fraction gaps: every interior point lies
    between its neighbours, so betweenness prunes rows."""
    positions = [F(0)]
    for _ in range(size - 1):
        positions.append(positions[-1] + F(1, rng.randint(2, max_denominator)))
    points = tuple(f"l{i}" for i in range(size))
    return FiniteMetricSpace(
        points, tuple(tuple(abs(x - y) for y in positions) for x in positions)
    )


def full_row_lp(diff, space):
    """The LP with every Lipschitz row and every box row: the reference
    that the pruned LP must match."""
    n = space.size
    rows, rhs = [], []
    for i, j in itertools.permutations(range(n), 2):
        rows.append([F(int(k == i) - int(k == j)) for k in range(n)])
        rhs.append(space.dist[i][j])
    for i in range(n):
        rows.append([F(int(k == i)) for k in range(n)])
        rhs.append(F(1))
    return maximize(diff, rows, rhs).value


PRUNING_CASES = 240


def fresh_rows(space):
    """The Lipschitz rows the LP keeps, by a scan of its own: ``d < 1`` and
    no third point between the ends."""
    n, dist = space.size, space.dist
    return tuple(
        (i, j)
        for i, j in itertools.permutations(range(n), 2)
        if dist[i][j] < 1
        and not any(
            dist[i][k] + dist[k][j] == dist[i][j] for k in range(n) if k not in (i, j)
        )
    )


def cached_rows(space):
    """The ``(i, j)`` of each Lipschitz row in the space's cached LP system,
    with each row's right-hand side checked to be ``d(i, j)``, and each box
    row checked to bound one point by 1."""
    rows, rhs = space.lp_system
    pairs = []
    for row, bound in zip(rows, rhs):
        assert all(type(v) is int for v in row)
        if -1 in row:
            i, j = row.index(1), row.index(-1)
            assert bound == space.dist[i][j]
            pairs.append((i, j))
        else:
            assert sorted(row) == [0] * (space.size - 1) + [1] and bound == 1
    assert len(rows) == len(pairs) + space.size
    return tuple(pairs)


def metric_kind(space, on_line):
    """Which family a test metric belongs to: a line, or the
    ``gen.random_metric`` style it looks like."""
    if on_line:
        return "line"
    pairs = itertools.combinations(range(space.size), 2)
    distances = [space.dist[i][j] for i, j in pairs]
    if all(d == 1 for d in distances):
        return "discrete"
    if all(F(1, 2) <= d <= 1 for d in distances):
        return "half-to-one"
    return "closure"


def pruning_mismatches():
    """Compare the pruned LP with the full-row LP on seeded metrics with
    3 <= n <= 9: three of every four from ``gen.random_metric``, one on a line.
    Returns the mismatches and the set of tags seen: each metric's kind,
    and "far" or "between" when some row was dropped for distance >= 1 or
    for a point between its ends."""
    mismatches, seen = [], set()
    for case in range(PRUNING_CASES):
        rng = gen.rng_for(71, "pruned-lp", str(case))
        size = rng.randint(3, 9)
        on_line = case % 4 == 3
        if on_line:
            space = line_metric(rng, size, 8)
        else:
            space = gen.random_metric(rng, size, 6)
        seen.add(metric_kind(space, on_line))
        p = gen.random_simplex_point(rng, space.points, 6)
        q = gen.random_simplex_point(rng, space.points, 6)
        diff = [a - b for a, b in zip(p.weights, q.weights)]
        value, f = _one_sided_lp(diff, space)
        dist = space.dist
        pairs = list(itertools.permutations(range(size), 2))
        if any(dist[i][j] >= 1 for i, j in pairs):
            seen.add("far")
        if any(
            dist[i][k] + dist[k][j] == dist[i][j]
            for i, j in pairs
            for k in range(size)
            if k not in (i, j)
        ):
            seen.add("between")
        if cached_rows(space) != fresh_rows(space):
            mismatches.append(f"case {case}: cached rows {cached_rows(space)}")
        feasible = all(0 <= v <= 1 for v in f) and all(
            f[i] - f[j] <= dist[i][j] for i, j in pairs
        )
        attained = sum((v * d for v, d in zip(f, diff)), F(0))
        reference = full_row_lp(diff, space)
        if not feasible or attained != value or value != reference:
            mismatches.append(f"case {case}: {value} vs {reference}, f={f}")
    return mismatches, seen


def test_pruned_lp_matches_the_full_row_lp():
    mismatches, seen = pruning_mismatches()
    assert mismatches == []
    assert seen == {"line", "discrete", "half-to-one", "closure", "far", "between"}


def test_rows_are_scanned_once_per_space(monkeypatch):
    real = lipmetric._lipschitz_rows
    scanned = []

    def counting(space):
        scanned.append(space)
        return real(space)

    monkeypatch.setattr(lipmetric, "_lipschitz_rows", counting)
    space = line_metric(gen.rng_for(0, "scan-once"), 6, 8)
    checks = check_bl_monad_nonexpansive(SuiteConfig(cases=15), space)  # 3 cases
    assert all(c.ok for c in checks) and checks[0].passed == 3 * 15
    assert sum(s is space for s in scanned) == 1


def test_the_lp_system_is_put_over_its_denominators_once_per_space(monkeypatch):
    """Twenty distance LPs on one space with fractional distances rescale
    its right-hand side once, when the space first builds its system, and
    keep the full-row LP's optimum."""
    rng = gen.rng_for(0, "convert-once")
    space = line_metric(rng, 5, 8)
    pairs = [
        tuple(gen.random_simplex_point(rng, space.points, 6) for _ in range(2))
        for _ in range(20)
    ]
    expected = [
        full_row_lp([a - b for a, b in zip(p.weights, q.weights)], space)
        for p, q in pairs
    ]
    real = linprog.scaled_rows
    scaled = []

    def counting(rows):
        scaled.append(rows)
        return real(rows)

    monkeypatch.setattr(linprog, "scaled_rows", counting)
    assert [bl_distance_lp(p, q, space) for p, q in pairs] == expected
    assert len(scaled) == 1


def test_discrete_metric_lp_is_the_box_alone():
    assert lipmetric._lipschitz_rows(discrete_space(("a", "b", "c", "d"))) == []


def test_line_metric_keeps_only_neighbour_rows():
    space = line_metric(gen.rng_for(0, "line"), 5, 8)
    kept = lipmetric._lipschitz_rows(space)
    assert sorted(kept) == sorted(
        [(i, i + 1) for i in range(4)] + [(i + 1, i) for i in range(4)]
    )


def _drop_rows_below_a_half(monkeypatch):
    real = lipmetric._lipschitz_rows
    monkeypatch.setattr(
        lipmetric,
        "_lipschitz_rows",
        lambda space: [(i, j) for i, j in real(space) if space.dist[i][j] >= F(1, 2)],
    )


def test_pruning_fault_is_caught_by_the_reference(monkeypatch):
    _drop_rows_below_a_half(monkeypatch)
    mismatches, _ = pruning_mismatches()
    assert len(mismatches) > 0


def test_pruning_fault_is_caught_by_unit_contraction(monkeypatch):
    from finprob.cli import run_nonexpansive

    config = SuiteConfig()  # the suite as `finprob all` runs it
    clean = {c.name: c for c in run_nonexpansive(config)}
    assert clean["unit-contraction"].failed == 0
    _drop_rows_below_a_half(monkeypatch)
    faulty = {c.name: c for c in run_nonexpansive(config)}
    assert faulty["unit-contraction"].failed > 0


def test_subsets_worked_pair():
    labels = ("a", "b", "c")
    p = SimplexPoint(labels, (F(1, 2), F(1, 2), F(0)))
    q = SimplexPoint(labels, (F(1, 3), F(1, 3), F(1, 3)))
    # oracle: enumerate all 8 subsets explicitly
    diffs = [a - b for a, b in zip(p.weights, q.weights)]
    by_enum = max(
        abs(sum((diffs[i] for i in range(3) if mask >> i & 1), F(0)))
        for mask in range(8)
    )
    assert by_enum == F(1, 3)
    assert bl_distance_subsets(p, q) == F(1, 3)
    assert bl_distance_lp(p, q, discrete_space(labels)) == F(1, 3)


def test_discrete_identity_on_random_pairs():
    for case in range(30):
        rng = gen.rng_for(41, "identity", str(case))
        labels = tuple(f"x{i}" for i in range(rng.randint(2, 6)))
        p = gen.random_simplex_point(rng, labels, 12)
        q = gen.random_simplex_point(rng, labels, 12)
        lp = bl_distance_lp(p, q, discrete_space(labels))
        assert lp == bl_distance_subsets(p, q) == total_variation(p, q)


def test_bl_is_a_metric_on_random_triples():
    for case in range(10):
        rng = gen.rng_for(43, "metric-axioms", str(case))
        space = gen.random_metric(rng, rng.randint(2, 4), 6)
        pts = [gen.random_simplex_point(rng, space.points, 6) for _ in range(3)]
        d01 = bl_distance_lp(pts[0], pts[1], space)
        d10 = bl_distance_lp(pts[1], pts[0], space)
        d12 = bl_distance_lp(pts[1], pts[2], space)
        d02 = bl_distance_lp(pts[0], pts[2], space)
        assert d01 == d10
        assert d02 <= d01 + d12
        assert (d01 == 0) == (pts[0] == pts[1])


def test_metric_monotonicity():
    labels = ("a", "b", "c")
    small = FiniteMetricSpace(
        labels,
        (
            (F(0), F(1, 2), F(1, 2)),
            (F(1, 2), F(0), F(1, 2)),
            (F(1, 2), F(1, 2), F(0)),
        ),
    )
    large = discrete_space(labels)
    rng = gen.rng_for(47, "monotone")
    for _ in range(10):
        p = gen.random_simplex_point(rng, labels, 8)
        q = gen.random_simplex_point(rng, labels, 8)
        assert bl_distance_lp(p, q, small) <= bl_distance_lp(p, q, large)


def test_constant_map_is_lipschitz():
    labels = ("u", "v")
    space = discrete_space(("x", "y"))
    image = SimplexPoint(labels, (F(1, 2), F(1, 2)))
    result = check_simplex_lipschitz({"x": image, "y": image}, space)
    assert result.is_lipschitz and result.verdicts_agree


def test_close_points_with_far_images_fail():
    labels = ("u", "v")
    space = FiniteMetricSpace(("x", "y"), ((F(0), F(1, 10)), (F(1, 10), F(0))))
    f = {
        "x": SimplexPoint(labels, (F(1), F(0))),
        "y": SimplexPoint(labels, (F(0), F(1))),
    }
    result = check_simplex_lipschitz(f, space)
    assert not result.is_lipschitz
    assert result.witness is not None


def _halve_subset_sums(monkeypatch):
    real = lipmetric.subset_sums
    monkeypatch.setattr(
        lipmetric, "subset_sums", lambda weights: [s / 2 for s in real(weights)]
    )


def test_disagreeing_criteria_are_reported(monkeypatch):
    _halve_subset_sums(monkeypatch)
    labels = ("u", "v")
    space = FiniteMetricSpace(("x", "y"), ((F(0), F(3, 4)), (F(3, 4), F(0))))
    f = {
        "x": dirac("u", simplex_algebra(labels)),
        "y": dirac("v", simplex_algebra(labels)),
    }
    result = check_simplex_lipschitz(f, space)
    assert not result.is_lipschitz
    assert not result.verdicts_agree


def test_vertex_embedding_of_discrete_space_is_lipschitz():
    points = ("x", "y", "z")
    space = discrete_space(points)
    labels = ("u", "v", "w")
    f = {p: dirac(labels[i], simplex_algebra(labels)) for i, p in enumerate(points)}
    result = check_simplex_lipschitz(f, space)
    assert result.is_lipschitz and result.verdicts_agree


def _sweep(monkeypatch, space, labels, denominator, samples):
    """The sweep over spaces, label sets and denominators up to the given
    sizes, with ``samples`` LP spot checks, or one per map of a smaller
    sweep."""
    monkeypatch.setattr(lipmetric, "SWEEP_MAX_SPACE", space)
    monkeypatch.setattr(lipmetric, "SWEEP_MAX_LABELS", labels)
    monkeypatch.setattr(lipmetric, "SWEEP_MAX_DENOMINATOR", denominator)
    return check_lipschitz_criterion_equivalence(SuiteConfig(seed=0, cases=5 * samples))


def test_equivalence_sweep_small(monkeypatch):
    sweep = _sweep(monkeypatch, 2, 2, 2, samples=20)
    assert sweep.ok
    assert sweep.instances > 0
    assert sweep.checks[1].passed == 20


def test_a_sweep_smaller_than_its_sample_spot_checks_every_map(monkeypatch):
    sweep = _sweep(monkeypatch, 2, 2, 2, samples=200)
    spot = sweep.checks[1]
    assert sweep.instances == 44
    assert (spot.name, spot.passed, spot.failed) == ("lp-spot-checks", 44, 0)


def test_the_spot_checks_build_one_target_space_per_label_set(monkeypatch):
    """The 100 LP spot checks at seed 0 map into simplices on the 3 label
    sets t0..t{m-1} and build each discrete target space once; the sweep's
    source spaces are on points x0, x1, x2."""
    built = []

    class Counted(FiniteMetricSpace):
        def __post_init__(self):
            built.append(self.points)
            super().__post_init__()

    monkeypatch.setattr(lipmetric, "FiniteMetricSpace", Counted)
    lipmetric.discrete_space.cache_clear()  # no space built by an earlier test
    try:
        sweep = check_lipschitz_criterion_equivalence(SuiteConfig(seed=0))
    finally:
        lipmetric.discrete_space.cache_clear()  # no Counted space for a later one
    assert sweep.checks[1].passed == 100
    targets = [points for points in built if points[0].startswith("t")]
    assert 1 <= len(targets) <= 3


def fault_sweep(monkeypatch):
    """The 2/3/3 sweep: 2/2/2 misses the scaled total variation below, and
    2/3/3 catches both faults."""
    return _sweep(monkeypatch, 2, 3, 3, samples=200)


def test_equivalence_sweep_fault_config_passes(monkeypatch):
    sweep = fault_sweep(monkeypatch)
    assert sweep.ok
    assert sweep.instances == 1579
    assert sweep.checks[1].passed == 200


def _shrink_total_variation(monkeypatch):
    real = lipmetric.total_variation
    monkeypatch.setattr(
        lipmetric, "total_variation", lambda p, q: real(p, q) * F(3, 4)
    )


def test_equivalence_sweep_catches_a_wrong_direct_side(monkeypatch):
    _shrink_total_variation(monkeypatch)
    sweep = fault_sweep(monkeypatch)
    assert not sweep.ok
    assert sweep.checks[0].failed == 52


def test_equivalence_sweep_catches_a_wrong_subset_side(monkeypatch):
    _halve_subset_sums(monkeypatch)
    sweep = fault_sweep(monkeypatch)
    assert not sweep.ok
    assert sweep.checks[0].failed == 190


def reference_sweep(config):
    """The scalar map loop the bit-mask sweep replaced: one generator
    resumption per map, each map's two verdicts a conjunction of per-pair
    table cells.  It reads the module's names when it runs, so a
    monkeypatched side or sweep size reaches it as it reaches the sweep."""
    rng = gen.rng_for(config.seed, "lipschitz-sweep")
    grid_distances = grid(2, lipmetric.SWEEP_MAX_DENOMINATOR)[1:]  # positive, up to 2
    grids = {
        m: simplex_grid([f"t{i}" for i in range(m)], lipmetric.SWEEP_MAX_DENOMINATOR)
        for m in range(1, lipmetric.SWEEP_MAX_LABELS + 1)
    }
    spaces = {
        n: tuple(lipmetric._metric_grid(n, grid_distances))
        for n in range(1, lipmetric.SWEEP_MAX_SPACE + 1)
    }
    maps = sum(len(p) ** n * len(s) for p in grids.values() for n, s in spaces.items())
    picks = set(rng.sample(range(maps), min(max(1, config.cases // 5), maps)))
    sampled = []

    def agreement():
        index = 0
        for m, points in grids.items():
            size = len(points)
            # per grid pair (a, b), at index a * size + b
            distances = [lipmetric.total_variation(p, q) for p in points for q in points]
            gaps = [lipmetric.bl_distance_subsets(p, q) for p in points for q in points]
            tables = {
                bound: (
                    [d <= bound for d in distances],
                    [g <= bound for g in gaps],
                )
                for bound in grid_distances
            }
            for n, n_spaces in spaces.items():
                pairs = list(itertools.combinations(range(n), 2))
                for space in n_spaces:
                    bound_tables = [(i, j, *tables[space.dist[i][j]]) for i, j in pairs]
                    for assignment in itertools.product(range(size), repeat=n):
                        direct_ok = True
                        subset_ok = True
                        for i, j, direct, subset in bound_tables:
                            cell = assignment[i] * size + assignment[j]
                            direct_ok = direct_ok and direct[cell]
                            subset_ok = subset_ok and subset[cell]
                        if index in picks:
                            sampled.append(
                                (space, tuple(points[a] for a in assignment), direct_ok)
                            )
                        index += 1
                        if direct_ok == subset_ok:
                            yield True, None
                        else:
                            witness = f"n={n} m={m} dist={space.dist} map={assignment}"
                            yield False, witness

    def spot_checks():
        for space, assignment, verdict in sampled:
            f = dict(zip(space.points, assignment))
            check = lipmetric.check_simplex_lipschitz(f, space)
            yield (
                check.is_lipschitz == verdict and check.verdicts_agree,
                lambda: "lp spot check disagrees on "
                f"dist={space.dist} map={tuple(p.weights for p in assignment)}",
            )

    # the spot checks draw from the maps the full sweep sampled, so they run second
    return lipmetric.EquivalenceSweep(
        (
            lipmetric.tally("criteria-agree", agreement()),
            lipmetric.tally("lp-spot-checks", spot_checks()),
        )
    )


@pytest.mark.parametrize(
    "fault, failed",
    [(None, 0), (_shrink_total_variation, 52), (_halve_subset_sums, 190)],
    ids=["unfaulted", "total-variation", "subset-sums"],
)
def test_the_mask_sweep_matches_the_scalar_reference(monkeypatch, fault, failed):
    """Passes, failures, kept witnesses and spot-check tallies, at 2/3/3."""
    if fault:
        fault(monkeypatch)
    sweep = fault_sweep(monkeypatch)
    assert sweep.checks == reference_sweep(SuiteConfig(seed=0, cases=1000)).checks
    assert sweep.checks[0].failed == failed


def test_the_mask_sweep_matches_the_scalar_reference_on_three_points(monkeypatch):
    """At the default 3/3/3, where a pair inside a map's prefix can fail on
    one side only, the ×3/4 total-variation fault gives the same tallies
    and first witnesses as the reference."""
    _shrink_total_variation(monkeypatch)
    config = SuiteConfig(seed=0, cases=500)
    sweep = check_lipschitz_criterion_equivalence(config)
    expected = reference_sweep(config)
    assert sweep.checks == expected.checks
    assert sweep.checks[0].failed == 50296
    assert sweep.instances == 800691


def test_the_spot_checks_recheck_the_reference_maps(monkeypatch):
    """The LP rechecks the same (space, map) sequence as the reference
    picks, 200 maps at 2/3/3."""
    calls = []
    real = lipmetric.check_simplex_lipschitz

    def spy(f, space):
        calls.append((space, tuple(f[x] for x in space.points)))
        return real(f, space)

    monkeypatch.setattr(lipmetric, "check_simplex_lipschitz", spy)
    fault_sweep(monkeypatch)
    swept = list(calls)
    calls.clear()
    reference_sweep(SuiteConfig(seed=0, cases=1000))
    assert len(swept) == 200
    assert swept == calls


def test_subset_sums_by_mask():
    weights = (F(1, 2), F(1, 3), F(1, 6))
    assert lipmetric.subset_sums(weights) == [
        sum((w for i, w in enumerate(weights) if mask >> i & 1), F(0))
        for mask in range(8)
    ]


def test_simplex_grid_enumeration():
    pts = simplex_grid(("a", "b"), 3)
    weights = {p.weights for p in pts}
    assert (F(1), F(0)) in weights
    assert (F(1, 3), F(2, 3)) in weights
    assert (F(1, 2), F(1, 2)) in weights
    assert all(sum(w) == 1 for w in weights)


def reference_simplex_grid(labels, max_denominator):
    """The recursive enumeration that ``simplex_grid`` replaced: each weight
    runs over the grid in increasing order up to what remains, and the last
    weight is what remains, kept when it lies on the grid."""
    labels = tuple(labels)
    values = grid(F(1), max_denominator)
    points = []

    def build(prefix, remaining, slots):
        if slots == 1:
            if remaining in values:
                points.append(SimplexPoint(labels, tuple(prefix + [remaining])))
            return
        for v in values:
            if v <= remaining:
                build(prefix + [v], remaining - v, slots - 1)

    build([], F(1), len(labels))
    return tuple(points)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_simplex_grid_matches_the_recursive_reference(m):
    """The same points in the same order: the sweep's seeded spot-check
    sample draws from this order, and no report digest would show a
    reorder."""
    labels = tuple(f"t{i}" for i in range(m))
    for max_denominator in range(1, 7):
        got = simplex_grid(labels, max_denominator)
        assert got == reference_simplex_grid(labels, max_denominator)
        assert len(got) == len(set(got))


def test_nonexpansive_unit_tight_on_discrete():
    space = discrete_space(("a", "b", "c"))
    checks = check_bl_monad_nonexpansive(SuiteConfig(cases=25), space)  # 5 cases
    assert all(c.ok for c in checks)
    unit = checks[0]  # d(dirac x, dirac y) == 1 for each of the 3 pairs
    assert (unit.name, unit.passed, unit.failed) == ("unit-contraction", 15, 0)


def test_an_lp_short_on_non_discrete_spaces_fails_unit_contraction(monkeypatch):
    """The unit's distance must equal min(d(x, y), 1) on every metric, not
    only be bounded by it: an LP that returns 9/10 of the optimum wherever
    the metric is not discrete stays within every bound."""
    real = lipmetric.bl_distance_lp_witness

    def short(p, q, space):
        value, f = real(p, q, space)
        return (value if space.is_discrete() else value * F(9, 10)), f

    monkeypatch.setattr(lipmetric, "bl_distance_lp_witness", short)
    unit = check_bl_monad_nonexpansive(SuiteConfig(seed=0, cases=500))[0]  # 100 cases
    assert unit.failed > 0 and unit.witnesses
    assert all(w.startswith("case ") and "unit pair " in w for w in unit.witnesses)


@pytest.mark.parametrize(
    "solution, message",
    [
        (lambda f: (F(2),) + f[1:], "value 2 outside [0, 1]"),
        (lambda f: (F(1),) + (F(0),) * (len(f) - 1), "not 1-Lipschitz at (a, b)"),
    ],
    ids=["outside-unit-interval", "steep"],
)
def test_a_rejected_lp_optimum_fails_the_checks_without_crashing(
    monkeypatch, solution, message
):
    """An optimal test function that ``LipschitzFunction`` rejects is a
    failed ``unit-contraction`` pair or ``mult-contraction`` case, never an
    exception out of the suite."""
    real = lipmetric.maximize

    def rejected(c, a_ub, b_ub):
        result = real(c, a_ub, b_ub)
        return LPResult(result.value, solution(result.solution))

    monkeypatch.setattr(lipmetric, "maximize", rejected)
    third = F(1, 3)
    space = FiniteMetricSpace(
        ("a", "b", "c"), ((0, third, third), (third, 0, third), (third, third, 0))
    )
    unit, meta, laws = check_bl_monad_nonexpansive(SuiteConfig(cases=20), space)  # 4 cases
    assert (unit.passed, unit.failed) == (0, 12)
    assert all(message in w for w in unit.witnesses)
    assert (meta.passed, meta.failed) == (0, 4)
    assert laws.failed == 0


def test_nonexpansive_small_distance():
    labels = ("a", "b")
    space = FiniteMetricSpace(labels, ((F(0), F(1, 3)), (F(1, 3), F(0))))
    pa = dirac("a", simplex_algebra(labels))
    pb = dirac("b", simplex_algebra(labels))
    assert bl_distance_lp(pa, pb, space) == F(1, 3)
    checks = check_bl_monad_nonexpansive(SuiteConfig(cases=25), space)  # 5 cases
    assert all(c.ok for c in checks)


def test_nonexpansive_equal_meta_measures():
    labels = ("a", "b")
    space = discrete_space(labels)
    p = SimplexPoint(labels, (F(1, 4), F(3, 4)))
    assert mult(MetaMeasure.merge([(F(1, 2), p), (F(1, 2), p)])) == p
    assert bl_distance_lp(p, p, space) == 0


def test_a_faulted_mult_fails_metric_laws(monkeypatch):
    from finprob.cli import run_nonexpansive

    def swaps_two_weights(m):
        p = mult(m)
        w = list(p.weights)
        if len(w) > 1:
            w[0], w[1] = w[1], w[0]
        return Measure(p.algebra, tuple(w))

    monkeypatch.setattr(lipmetric, "mult", swaps_two_weights)
    checks = {c.name: c for c in run_nonexpansive(SuiteConfig(cases=100))}
    laws = checks["metric-laws"]
    assert laws.failed > 0 and laws.witnesses
    assert all(w.startswith("case ") for w in laws.witnesses)
    for check in checks.values():
        assert check.passed >= 0
    assert laws.passed + laws.failed == 20  # one outcome per case


def test_each_unit_pair_counts_once(monkeypatch):
    """An off LP breaks the unit equality of every pair; each pair is one
    failed outcome."""
    real = lipmetric.bl_distance_lp
    monkeypatch.setattr(
        lipmetric, "bl_distance_lp", lambda p, q, space: real(p, q, space) + F(1, 1000)
    )
    checks = check_bl_monad_nonexpansive(  # 4 cases
        SuiteConfig(cases=20), discrete_space(("a", "b", "c"))
    )
    unit = checks[0]
    assert (unit.name, unit.passed, unit.failed) == ("unit-contraction", 0, 12)


def test_a_faulted_lp_fails_lp_spot_checks_alone(monkeypatch):
    from finprob.cli import run_lipschitz_equivalence

    real = lipmetric.bl_distance_lp
    monkeypatch.setattr(
        lipmetric, "bl_distance_lp", lambda p, q, space: real(p, q, space) + 1
    )
    checks = {c.name: c for c in run_lipschitz_equivalence(SuiteConfig())}
    spot = checks["lp-spot-checks"]
    assert spot.failed > 0 and spot.witnesses
    assert spot.passed + spot.failed == 100
    assert all(w.startswith("lp spot check disagrees") for w in spot.witnesses)
    assert checks["criteria-agree"].failed == 0


def test_nonexpansive_random_spaces(monkeypatch):
    monkeypatch.setattr(lipmetric, "METRIC_MAX_SIZE", 5)
    checks = check_bl_monad_nonexpansive(SuiteConfig(seed=0, cases=75))  # 15 cases
    assert all(c.ok for c in checks)


def test_metric_space_validation():
    with pytest.raises(ValueError):
        FiniteMetricSpace(("a", "b"), ((F(0), F(1)), (F(2), F(0))))  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetricSpace(("a", "b"), ((F(0), F(0)), (F(0), F(0))))  # zero distance
    with pytest.raises(ValueError):
        FiniteMetricSpace(
            ("a", "b", "c"),
            (
                (F(0), F(1), F(3)),
                (F(1), F(0), F(1)),
                (F(3), F(1), F(0)),
            ),
        )  # triangle violation


def test_lipschitz_function_validation():
    space = FiniteMetricSpace(("a", "b"), ((F(0), F(1, 4)), (F(1, 4), F(0))))
    LipschitzFunction(space, (F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        LipschitzFunction(space, (F(1), F(0)))  # slope 4 over distance 1/4
