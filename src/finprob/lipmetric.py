"""The bounded Lipschitz distance on finite simplices, exactly.

Two independent routes are provided: an exact rational linear program over
1-Lipschitz [0, 1]-valued test functions (any metric), and the subset-maximum
formula valid under the discrete metric, where the distance also equals half
the L1 distance.  A distribution is a :class:`Measure` on the powerset of the
space's points (:func:`~finprob.monad.SimplexPoint`).  Non-expansiveness of
the monad unit and of :func:`~finprob.monad.mult` is checked against these
exact distances.  Distances and test-function values are compared as integer
numerators (:func:`~finprob.exact.scaled_rows`), and the exhaustive sweep
draws its weights and distances from :func:`~finprob.exact.grid`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DomainError
from .exact import fractions, grid, in_unit_interval, scaled_rows, total
from .linprog import Rationals, maximize
from .measure import Measure, common_numerators, dirac, simplex_algebra
from .monad import MetaMeasure, SimplexPoint, combine_meta, eta_as_meta, mult
from .report import CheckOutcome, SuiteConfig, tally

ZERO = Fraction(0)
ONE = Fraction(1)

#: Largest label set for which subset enumeration is offered (2**n additions).
SUBSET_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space with an exact rational distance matrix."""

    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        dist = tuple(fractions(row) for row in self.dist)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", dist)
        n = len(points)
        if len(set(points)) != n:
            raise ValueError("metric space labels must be distinct")
        if len(dist) != n or any(len(row) != n for row in dist):
            raise ValueError("distance matrix must be square over the points")
        num = self.scaled_dist[0]
        for i in range(n):
            if num[i][i] != 0:
                raise ValueError(f"dist({points[i]}, {points[i]}) must be 0")
            for j in range(n):
                if i != j and num[i][j] <= 0:
                    raise ValueError("distinct points must be at positive distance")
                if num[i][j] != num[j][i]:
                    raise ValueError("distance matrix must be symmetric")
        for i, j, k in itertools.permutations(range(n), 3):
            if num[i][j] > num[i][k] + num[k][j]:
                raise ValueError(
                    f"triangle inequality fails at ({points[i]}, {points[j]}, {points[k]})"
                )

    @cached_property
    def scaled_dist(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(num, den)``: the distance matrix as integer numerators over
        one common denominator, ``dist[i][j] == num[i][j] / den``."""
        return scaled_rows(self.dist)

    @cached_property
    def lp_system(self) -> tuple[tuple[Rationals, ...], Rationals]:
        """``(rows, rhs)``: the distance LP's constraints, built and put over
        their common denominators once per space.  The rows are 0/±1 ints:
        ``f_i - f_j <= d(i, j)`` for each pair :func:`_lipschitz_rows`
        keeps, then the box rows ``f_i <= 1``."""
        n = self.size
        rows, rhs = [], []
        for i, j in _lipschitz_rows(self):
            rows.append(tuple(1 if k == i else -1 if k == j else 0 for k in range(n)))
            rhs.append(self.dist[i][j])
        for i in range(n):
            rows.append(tuple(int(k == i) for k in range(n)))
            rhs.append(1)
        return tuple(Rationals(row) for row in rows), Rationals(rhs)

    @property
    def size(self) -> int:
        return len(self.points)

    def is_discrete(self) -> bool:
        return all(
            self.dist[i][j] == 1
            for i in range(self.size)
            for j in range(self.size)
            if i != j
        )


@dataclass(frozen=True)
class LipschitzFunction:
    """A 1-Lipschitz function into [0, 1] on a finite metric space."""

    space: FiniteMetricSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = fractions(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.space.size:
            raise ValueError("one value per point required")
        for v in values:
            if not in_unit_interval(v):
                raise ValueError(f"value {v} outside [0, 1]")
        # |f_i - f_j| <= d(i, j), cross-multiplied onto integers
        (f,), f_den = scaled_rows((values,))
        dist, dist_den = self.space.scaled_dist
        for i in range(self.space.size):
            for j in range(i + 1, self.space.size):
                if abs(f[i] - f[j]) * dist_den > dist[i][j] * f_den:
                    raise ValueError(
                        f"not 1-Lipschitz at ({self.space.points[i]}, {self.space.points[j]})"
                    )


def _check_indexing(p: Measure, q: Measure, points: tuple[str, ...]) -> None:
    simplex = simplex_algebra(points)
    if p.algebra != simplex or q.algebra != simplex:
        raise DomainError("simplex points must be indexed by the metric's points")


def _lipschitz_rows(space: FiniteMetricSpace) -> list[tuple[int, int]]:
    """The ordered pairs ``(i, j)`` whose row ``f_i - f_j <= d(i, j)`` the
    LP keeps: ``d(i, j) < 1`` and no third point lies between them (see
    :func:`bl_distance_lp`)."""
    n = space.size
    dist = space.dist
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and dist[i][j] < ONE
        and not any(
            dist[i][k] + dist[k][j] == dist[i][j]
            for k in range(n)
            if k != i and k != j
        )
    ]


def _one_sided_lp(
    diff: Sequence, space: FiniteMetricSpace
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The optimum and an optimal ``f`` of ``sum f_i diff_i`` under the
    space's :attr:`~FiniteMetricSpace.lp_system`."""
    result = maximize(diff, *space.lp_system)
    return result.value, result.solution


def bl_distance_lp(p: Measure, q: Measure, space: FiniteMetricSpace) -> Fraction:
    """Bounded Lipschitz distance: the exact optimum of the test-function LP.

    Maximizes ``sum f(x) (p_x - q_x)`` over 1-Lipschitz ``f`` into [0, 1].
    One orientation suffices: ``1 - f`` is feasible whenever ``f`` is, and
    the weights of ``p`` and ``q`` both sum to 1, so ``sum (1 - f)(q - p)``
    equals ``sum f (p - q)`` and the reversed LP has the same optimum.

    The LP keeps the box rows ``f_i <= 1`` and only the Lipschitz rows
    ``f_i - f_j <= d(i, j)`` with ``d(i, j) < 1`` and no point ``k`` between
    them (``d(i, k) + d(k, j) == d(i, j)``).  The dropped rows are implied,
    so the feasible set and the optimum are unchanged: with ``d >= 1`` by
    the box rows and ``f >= 0``, and with such a ``k`` by the rows
    ``(i, k)`` and ``(k, j)``, both at strictly smaller distance, hence by
    induction on distance by kept rows.  Under the discrete metric only the
    box rows remain.
    """
    return bl_distance_lp_witness(p, q, space)[0]


def bl_distance_lp_witness(
    p: Measure, q: Measure, space: FiniteMetricSpace
) -> tuple[Fraction, LipschitzFunction]:
    """As :func:`bl_distance_lp`, also returning an optimal test function.

    The LP's objective is ``p - q`` on integer numerators over
    ``lcm(p.den, q.den)``, a positive multiple of it with the same optimal
    ``f``; its optimum is divided back."""
    _check_indexing(p, q, space.points)
    den, (p_nums, q_nums) = common_numerators((p, q))
    diff = [a - b for a, b in zip(p_nums, q_nums)]
    value, f = _one_sided_lp(diff, space)
    return value / den, LipschitzFunction(space, f)


def bl_distance_subsets(p: Measure, q: Measure) -> Fraction:
    """Subset-maximum form of the distance under the discrete metric:
    the largest absolute gap between subset sums."""
    if p.algebra != q.algebra:
        raise DomainError("simplex points must share one index set")
    n = len(p.labels)
    if n > SUBSET_ENUMERATION_CAP:
        raise DomainError(
            f"subset enumeration capped at {SUBSET_ENUMERATION_CAP} labels; use the LP"
        )
    diff = [a - b for a, b in zip(p.weights, q.weights)]
    return max(abs(s) for s in subset_sums(diff))


def subset_sums(weights: Sequence[Fraction]) -> list[Fraction]:
    """The sum of ``weights`` over every subset of indices, listed by bit
    mask: entry ``mask`` sums the weights whose bit is set in ``mask``."""
    sums = [ZERO]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def total_variation(p: Measure, q: Measure) -> Fraction:
    """Half the L1 distance between the weight vectors."""
    if p.algebra != q.algebra:
        raise DomainError("simplex points must share one index set")
    return total(abs(a - b) for a, b in zip(p.weights, q.weights)) / 2


@dataclass(frozen=True)
class SimplexLipschitzCheck:
    is_lipschitz: bool
    subset_verdict: bool
    witness: tuple | None

    @property
    def verdicts_agree(self) -> bool:
        return self.is_lipschitz == self.subset_verdict


def check_simplex_lipschitz(
    f: Mapping[str, Measure], space: FiniteMetricSpace
) -> SimplexLipschitzCheck:
    """Whether a map into a discrete-metric simplex is 1-Lipschitz.

    Two criteria are evaluated independently and both verdicts are
    returned, with ``verdicts_agree`` saying whether they match: the direct
    definition (the simplex distance between images, solved as a linear
    program, is at most the distance between arguments), which decides
    ``is_lipschitz``, and the subset-sum criterion (every subset sum of
    components is 1-Lipschitz into [0, 1]).  The direct side never uses
    subset sums, so the two verdicts are independent.  On failure the
    witness is the offending pair and, for the subset route, the offending
    subset.
    """
    points = space.points
    images = []
    for x in points:
        if x not in f:
            raise DomainError(f"map is not total: missing {x!r}")
        img = f[x]
        if images and img.algebra != images[0].algebra:
            raise DomainError("images must share one simplex index set")
        images.append(img)
    labels = images[0].labels
    target = discrete_space(labels)

    direct, direct_witness = True, None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            gap = bl_distance_lp(images[i], images[j], target)
            if gap > space.dist[i][j]:
                direct, direct_witness = False, (points[i], points[j], gap)
                break
        if not direct:
            break

    subset, subset_witness = True, None
    m = len(labels)
    sums = [subset_sums(img.weights) for img in images]
    for mask in range(1 << m):
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if abs(sums[i][mask] - sums[j][mask]) > space.dist[i][j]:
                    chosen = tuple(labels[k] for k in range(m) if mask >> k & 1)
                    subset, subset_witness = False, (points[i], points[j], chosen)
                    break
            if not subset:
                break
        if not subset:
            break

    return SimplexLipschitzCheck(direct, subset, direct_witness or subset_witness)


@lru_cache
def discrete_space(labels: Sequence[str]) -> FiniteMetricSpace:
    """The discrete metric on ``labels``: distance 1 between distinct
    points.  Equal label tuples share one space, so its LP system is built
    once however many distances are taken on it."""
    labels = tuple(labels)
    n = len(labels)
    dist = tuple(tuple(ZERO if i == j else ONE for j in range(n)) for i in range(n))
    return FiniteMetricSpace(labels, dist)


NONEXPANSIVE_CHECKS = ("unit-contraction", "mult-contraction", "metric-laws")
METRIC_MAX_SIZE = 6  # the nonexpansive suite's largest random metric space
METRIC_MAX_DENOMINATOR = 6  # and its largest weight and distance denominator


def check_bl_monad_nonexpansive(
    config: SuiteConfig, space: FiniteMetricSpace | None = None
) -> tuple[CheckOutcome, ...]:
    """Non-expansiveness of the monad structure maps, exactly, over
    ``max(1, config.cases // 5)`` seeded cases with denominators up to
    ``min(config.max_denominator, METRIC_MAX_DENOMINATOR)``, as one check
    per property in :data:`NONEXPANSIVE_CHECKS` order: ``unit-contraction``
    with one outcome per pair of points, then ``mult-contraction`` and
    ``metric-laws`` with one outcome per case.

    Unit: the distance between two point masses is exactly the distance
    between the points capped at 1 (the test function ``max(0, 1 - d(x, .))``
    attains it), so never more than it.  Mult: the
    distance between the :func:`~finprob.monad.mult` averages of two
    meta-distributions is bounded by the bounded Lipschitz distance between
    the meta-distributions themselves, computed over the finite support with
    exact pairwise base distances.  The monad's unit and associativity laws
    are checked on ``mult`` over the same instances; a case's witness is its
    first failing law.  An LP whose optimal test function is not 1-Lipschitz
    into [0, 1] counts as a failure of the unit or mult check that asked for
    it.  With no space given, each case draws its own random metric space
    of at most :data:`METRIC_MAX_SIZE` points.
    """
    from . import gen  # deferred: gen builds on this module's types

    max_denominator = min(config.max_denominator, METRIC_MAX_DENOMINATOR)

    def check_case(rng):
        current = space or gen.random_metric(
            rng, rng.randint(1, METRIC_MAX_SIZE), max_denominator
        )
        labels = current.points
        simplex = simplex_algebra(labels)

        for i in range(current.size):
            for j in range(i + 1, current.size):
                pair = f"({labels[i]},{labels[j]})"
                px, py = dirac(labels[i], simplex), dirac(labels[j], simplex)
                try:
                    d = bl_distance_lp(px, py, current)
                except ValueError as exc:  # the LP's optimum is not 1-Lipschitz
                    yield "unit-contraction", False, f"unit pair {pair}: {exc}"
                    continue
                bound = current.dist[i][j]
                yield (
                    "unit-contraction",
                    d == min(bound, ONE),
                    f"unit pair {pair}: {d} != min({bound}, 1)",
                )

        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        draw = partial(gen.random_simplex_point, rng, labels, max_denominator)
        support1 = gen.distinct_draws(draw, k1, 6 * k1)
        support2 = gen.distinct_draws(draw, k2, 6 * k2)
        w1 = gen.random_positive_weights(rng, len(support1), max_denominator)
        w2 = gen.random_positive_weights(rng, len(support2), max_denominator)
        meta1 = MetaMeasure(tuple(support1), w1)
        meta2 = MetaMeasure(tuple(support2), w2)
        averages = (mult(meta1), mult(meta2))

        merged = list(dict.fromkeys(support1 + support2))
        try:
            base = [
                [
                    ZERO if a == b else bl_distance_lp(merged[a], merged[b], current)
                    for b in range(len(merged))
                ]
                for a in range(len(merged))
            ]
            if len(merged) == 1:
                meta_distance = ZERO
            else:
                meta_labels = tuple(f"s{a}" for a in range(len(merged)))
                meta_space = FiniteMetricSpace(
                    meta_labels, tuple(tuple(row) for row in base)
                )
                weights = [dict(zip(m.support, m.weights)) for m in (meta1, meta2)]
                ext1, ext2 = (
                    SimplexPoint(meta_labels, tuple(w.get(s, ZERO) for s in merged))
                    for w in weights
                )
                meta_distance = bl_distance_lp(ext1, ext2, meta_space)
            lhs = bl_distance_lp(*averages, current)
        except ValueError as exc:  # an LP optimum or the meta metric is invalid
            yield "mult-contraction", False, str(exc)
        else:
            yield (
                "mult-contraction",
                lhs <= meta_distance,
                f"d(mult,mult)={lhs} > {meta_distance}",
            )

        # the monad laws, on mult itself, in the metric setting
        p = gen.random_simplex_point(rng, labels, max_denominator)
        outer = gen.random_positive_weights(rng, 2, max_denominator)
        if mult(MetaMeasure.point_mass(p)) != p:
            law = f"left unit fails at {p.weights}"
        elif mult(eta_as_meta(p)) != p:
            law = f"right unit fails at {p.weights}"
        elif mult(MetaMeasure.merge(zip(outer, averages))) != mult(
            combine_meta(list(zip(outer, (meta1, meta2))))
        ):
            law = "associativity fails"
        else:
            law = None
        yield "metric-laws", law is None, law

    cases = max(1, config.cases // 5)
    return gen.run_cases(
        config.seed, "nonexpansive", cases, NONEXPANSIVE_CHECKS, check_case
    )


def simplex_grid(labels: Sequence[str], max_denominator: int) -> tuple[Measure, ...]:
    """All simplex points whose weights have denominators at most the bound,
    in lexicographic order of their weight vectors."""
    labels = tuple(labels)
    values = grid(ONE, max_denominator)
    return tuple(
        SimplexPoint(labels, weights)
        for weights in itertools.product(values, repeat=len(labels))
        if sum(weights) == 1
    )


@dataclass(frozen=True)
class EquivalenceSweep:
    """``criteria-agree`` with one outcome per (space, map) instance, then
    ``lp-spot-checks`` with one per sampled map."""

    checks: tuple[CheckOutcome, CheckOutcome]

    @property
    def instances(self) -> int:
        return self.checks[0].passed + self.checks[0].failed

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# the exhaustive sweep: metric spaces, target label sets and grid denominators
SWEEP_MAX_SPACE = 3
SWEEP_MAX_LABELS = 3
SWEEP_MAX_DENOMINATOR = 3


def check_lipschitz_criterion_equivalence(config: SuiteConfig) -> EquivalenceSweep:
    """Exhaustive agreement of the two 1-Lipschitz criteria for maps into a
    discrete-metric simplex.

    Enumerates every metric space up to :data:`SWEEP_MAX_SPACE` points with
    distances on the grid of denominators up to :data:`SWEEP_MAX_DENOMINATOR`
    and every map into every simplex grid up to :data:`SWEEP_MAX_LABELS`
    labels, and compares two criteria on each map.  The direct criterion
    bounds the simplex distance between images by the distance between
    arguments, with the simplex distance taken from the total-variation
    closed form.  The subset criterion bounds the gap
    ``|p(A) - q(A)|`` between the images' subset sums, for every subset
    ``A``.  Both verdicts depend only on a pair of grid points and a bound,
    so each side is decided once per (bound, grid pair), by its own
    computation, into row masks: bit ``b`` of row ``a`` is set when the pair
    ``(a, b)`` is within the bound.  The maps of an ``n``-point space that
    share a prefix ``(a_0, ..., a_{n-2})`` are decided together, as one mask
    per side whose bit ``b`` is the verdict on the map ending in ``b``: 0
    when a pair inside the prefix fails, else the AND of the rows
    ``a_i`` at the bounds ``d(i, n-1)``.  The XOR of the two masks holds the
    disagreeing maps.  The linear program is a third route: it rechecks a
    seeded uniform sample of exactly ``max(1, config.cases // 5)`` maps, or
    every map when the sweep has fewer.
    """
    from . import gen

    rng = gen.rng_for(config.seed, "lipschitz-sweep")
    grid_distances = grid(2, SWEEP_MAX_DENOMINATOR)[1:]  # positive, up to 2
    grids = {
        m: simplex_grid([f"t{i}" for i in range(m)], SWEEP_MAX_DENOMINATOR)
        for m in range(1, SWEEP_MAX_LABELS + 1)
    }
    spaces = {n: tuple(_metric_grid(n, grid_distances)) for n in range(1, SWEEP_MAX_SPACE + 1)}
    maps = sum(len(p) ** n * len(s) for p in grids.values() for n, s in spaces.items())
    picks = iter(sorted(rng.sample(range(maps), min(max(1, config.cases // 5), maps))))
    sampled: list[tuple] = []
    agreed = 0

    def disagreements():
        """One ``(False, witness)`` per map whose verdicts differ, in
        product order; counts the others into ``agreed`` and collects the
        picked maps into ``sampled`` on the way."""
        nonlocal agreed
        index = 0  # of the first map sharing the current prefix
        pick = next(picks, maps)
        for m, points in grids.items():
            size = len(points)
            full = (1 << size) - 1
            direct_rows = _row_masks(
                [[total_variation(p, q) for q in points] for p in points], grid_distances
            )
            subset_rows = _row_masks(
                [[bl_distance_subsets(p, q) for q in points] for p in points], grid_distances
            )
            for n, n_spaces in spaces.items():
                last = n - 1
                for space in n_spaces:
                    dist = space.dist
                    inner = [
                        (i, j, direct_rows[dist[i][j]], subset_rows[dist[i][j]])
                        for i, j in itertools.combinations(range(last), 2)
                    ]
                    outer = [
                        (i, direct_rows[dist[i][last]], subset_rows[dist[i][last]])
                        for i in range(last)
                    ]
                    for prefix in itertools.product(range(size), repeat=last):
                        direct = subset = full
                        for i, j, direct_row, subset_row in inner:
                            if not direct_row[prefix[i]] >> prefix[j] & 1:
                                direct = 0
                            if not subset_row[prefix[i]] >> prefix[j] & 1:
                                subset = 0
                        for i, direct_row, subset_row in outer:
                            direct &= direct_row[prefix[i]]
                            subset &= subset_row[prefix[i]]
                        while pick < index + size:
                            b = pick - index
                            images = tuple(points[a] for a in prefix) + (points[b],)
                            sampled.append((space, images, bool(direct >> b & 1)))
                            pick = next(picks, maps)
                        index += size
                        bad = direct ^ subset
                        agreed += size - bad.bit_count()
                        while bad:
                            low = bad & -bad
                            bad ^= low
                            yield False, partial(
                                "n={} m={} dist={} map={}".format,
                                n, m, dist, prefix + (low.bit_length() - 1,),
                            )

    def spot_checks():
        for space, assignment, verdict in sampled:
            f = dict(zip(space.points, assignment))
            check = check_simplex_lipschitz(f, space)
            yield (
                check.is_lipschitz == verdict and check.verdicts_agree,
                lambda: "lp spot check disagrees on "
                f"dist={space.dist} map={tuple(p.weights for p in assignment)}",
            )

    # tally consumes the generator before agreed is read; the spot checks
    # draw from the maps the full sweep sampled, so they run second
    disagreeing = tally("criteria-agree", disagreements())
    return EquivalenceSweep(
        (
            replace(disagreeing, passed=agreed),
            tally("lp-spot-checks", spot_checks()),
        )
    )


def _row_masks(values, bounds) -> dict:
    """For each bound, one int per row of ``values`` whose bit ``b`` is set
    when ``values[a][b] <= bound``."""
    return {
        bound: [sum(1 << b for b, v in enumerate(row) if v <= bound) for row in values]
        for bound in bounds
    }


def _metric_grid(n: int, distances: Sequence[Fraction]):
    """All metric spaces on ``n`` points with the given candidate distances:
    the candidates :class:`FiniteMetricSpace` accepts, in product order."""
    points = tuple(f"x{i}" for i in range(n))
    pairs = list(itertools.combinations(range(n), 2))
    for combo in itertools.product(distances, repeat=len(pairs)):
        dist = [[ZERO] * n for _ in range(n)]
        for (i, j), v in zip(pairs, combo):
            dist[i][j] = dist[j][i] = v
        try:
            space = FiniteMetricSpace(points, tuple(tuple(row) for row in dist))
        except ValueError:  # the triangle inequality fails
            continue
        yield space

