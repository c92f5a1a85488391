"""Exact simplex solver."""

import itertools
from fractions import Fraction as F

import pytest

from finprob import InfeasibleError, UnboundedError, gen, lipmetric
from finprob.errors import FinprobError
from finprob.exact import Scaled, fractions
from finprob.linprog import LPResult, maximize
from finprob.lipmetric import bl_distance_lp_witness
from finprob.measure import dirac, simplex_algebra


def test_single_variable_box():
    result = maximize([F(1)], [[F(1)]], [F(1)])
    assert result.value == 1
    assert result.solution == (F(1),)


def test_two_variable_budget():
    result = maximize(
        [F(3), F(2)],
        [[F(1), F(1)], [F(1), F(0)], [F(0), F(1)]],
        [F(4), F(2), F(3)],
    )
    # optimum at x=2, y=2
    assert result.value == 10
    assert result.solution == (F(2), F(2))


def test_exact_rational_optimum():
    result = maximize(
        [F(1), F(1)],
        [[F(2), F(1)], [F(1), F(3)]],
        [F(1), F(1)],
    )
    # vertex of 2x+y=1 and x+3y=1 is (2/5, 1/5)
    assert result.value == F(3, 5)
    assert result.solution == (F(2, 5), F(1, 5))


def test_degenerate_constraints_terminate():
    # x1 = x2 forced through a degenerate vertex at the origin
    result = maximize(
        [F(1), F(1)],
        [
            [F(1), F(-1)],
            [F(-1), F(1)],
            [F(1), F(0)],
            [F(0), F(1)],
        ],
        [F(0), F(0), F(1), F(1)],
    )
    assert result.value == 2
    assert result.solution == (F(1), F(1))


def test_zero_objective():
    result = maximize([F(0)], [[F(1)]], [F(5)])
    assert result.value == 0


def test_unbounded_detected():
    with pytest.raises(UnboundedError):
        maximize([F(1), F(0)], [[F(0), F(1)]], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(InfeasibleError):
        maximize([F(1)], [[F(1)]], [F(-1)])


def test_agrees_with_vertex_enumeration():
    """Independent oracle: scan all constraint-intersection vertices."""
    import itertools

    c = [F(2), F(1)]
    rows = [[F(1), F(2)], [F(3), F(1)], [F(1), F(0)], [F(0), F(1)]]
    rhs = [F(2), F(3), F(1), F(1)]

    def feasible(x):
        return all(v >= 0 for v in x) and all(
            sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(rows, rhs)
        )

    best = F(0)  # origin
    candidates = [[F(0), F(0)]]
    axes = rows + [[F(1), F(0)], [F(0), F(1)]]
    bs = rhs + [F(0), F(0)]
    for (r1, b1), (r2, b2) in itertools.combinations(zip(axes, bs), 2):
        det = r1[0] * r2[1] - r1[1] * r2[0]
        if det == 0:
            continue
        x = [(b1 * r2[1] - b2 * r1[1]) / det, (r1[0] * b2 - r2[0] * b1) / det]
        if feasible(x):
            candidates.append(x)
    best = max(sum(a * v for a, v in zip(c, x)) for x in candidates)
    assert maximize(c, rows, rhs).value == best


def reference_maximize(c, a_ub, b_ub, seen=None):
    """The rational tableau the integer one replaced: every entry a
    ``Fraction``, the pivot row divided by its pivot.  ``seen`` counts the
    pivots other than 1 and the ratio ties broken on the basic index."""
    seen = {} if seen is None else seen
    n = len(c)
    m = len(a_ub)
    c = fractions(c)
    b = fractions(b_ub)
    for i, v in enumerate(b):
        if v < 0:
            raise InfeasibleError(
                f"right-hand side {v} of row {i} is negative; origin start requires b >= 0"
            )
    width = n + m + 1
    rows = []
    for i, a_row in enumerate(a_ub):
        if len(a_row) != n:
            raise ValueError("constraint row length mismatch")
        row = list(fractions(a_row))
        row += [F(int(j == i)) for j in range(m)]
        row.append(b[i])
        rows.append(row)
    cost = [-v for v in c] + [F(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), -1)
        if enter < 0:
            break
        leave, best_ratio = -1, None
        for i in range(m):
            coef = rows[i][enter]
            if coef > 0:
                ratio = rows[i][width - 1] / coef
                if ratio == best_ratio:
                    seen["ties"] = seen.get("ties", 0) + 1
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            raise UnboundedError("objective unbounded above on the feasible set")
        pivot_row = rows[leave]
        pivot = pivot_row[enter]
        if pivot != 1:
            seen["non-unit pivots"] = seen.get("non-unit pivots", 0) + 1
            pivot_row[:] = [v / pivot for v in pivot_row]
        for target in rows + [cost]:
            if target is not pivot_row and target[enter]:
                factor = target[enter]
                target[:] = [t - factor * r for t, r in zip(target, pivot_row)]
        basis[leave] = enter
    solution = [F(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = rows[i][width - 1]
    return LPResult(cost[width - 1], tuple(solution))


def outcome(solve, *lp):
    """A solver's result, or the type and message of what it raised."""
    try:
        return solve(*lp)
    except (FinprobError, ValueError) as exc:
        return type(exc), str(exc)


def random_rational(rng, low, high, max_denominator):
    d = rng.randint(1, max_denominator)
    return F(rng.randint(low * d, high * d), d)


def random_lp(rng, kind):
    """A seeded LP with 1-4 variables and 1-5 rows of small rationals, a
    quarter of them zero.  ``kind`` bends it towards one path of the
    solver: zeros in the right-hand side and a multiple of a row (degenerate
    ratio ties), a column with no positive entry (unbounded), a negative
    right-hand side, or a row of the wrong length."""
    n, m = rng.randint(1, 4), rng.randint(1, 5)

    def entry(low, high):
        return F(0) if rng.random() < 0.25 else random_rational(rng, low, high, 4)

    c = [entry(-2, 3) for _ in range(n)]
    a = [[entry(-2, 3) for _ in range(n)] for _ in range(m)]
    b = [random_rational(rng, 0, 3, 4) for _ in range(m)]
    if kind == "ties":
        b = [F(rng.choice((0, 0, 1, 2))) for _ in range(m)]
        k = rng.randint(2, 3)  # a multiple of row 0 ties with it at every ratio
        a.append([k * v for v in a[0]])
        b.append(k * b[0])
    elif kind == "unbounded":
        j = rng.randrange(n)
        c[j] = F(1)
        for row in a:
            row[j] = -abs(row[j])
    elif kind == "negative":
        b[rng.randrange(m)] = -random_rational(rng, 1, 3, 4)
    elif kind == "mismatch":
        a[rng.randrange(m)].append(F(1))
    return c, a, b


LP_KINDS = ("plain", "ties", "unbounded", "negative", "mismatch")


def test_integer_tableau_matches_the_rational_tableau_on_random_lps():
    """Value and solution, or exception type and message, agree with the
    rational tableau on 600 seeded LPs, which reach non-unit pivots,
    degenerate ratio ties, unbounded and infeasible problems and malformed
    rows, whether the rows and right-hand side come as plain sequences or
    already converted to ``Scaled`` vectors.  A last, fixed LP pivots twice
    on 2, so its second pivot equals the running denominator above 1."""
    lps = [
        random_lp(gen.rng_for(22, "lp-oracle", str(case)), LP_KINDS[case % len(LP_KINDS)])
        for case in range(600)
    ]
    lps.append(([1, 1], [[2, 1], [2, 0]], [3, 2]))
    seen, outcomes = {}, set()
    for case, lp in enumerate(lps):
        expected = outcome(reference_maximize, *lp, seen)
        assert outcome(maximize, *lp) == expected, f"case {case}: {lp}"
        c, a, b = lp
        converted = (c, [Scaled.of(row) for row in a], Scaled.of(b))
        assert outcome(maximize, *converted) == expected, f"case {case}: {lp}"
        outcomes.add(expected[0] if isinstance(expected, tuple) else "optimum")
    assert outcomes == {"optimum", UnboundedError, InfeasibleError, ValueError}
    assert seen["non-unit pivots"] > 100 and seen["ties"] > 30
    assert expected == LPResult(F(3), (F(0), F(3)))


def distance_lp_pairs(space, rng):
    """The point-mass pairs of the space, then three seeded pairs of
    simplex points on it, as the nonexpansive suite asks them."""
    simplex = simplex_algebra(space.points)
    masses = [dirac(x, simplex) for x in space.points]
    yield from itertools.combinations(masses, 2)
    for _ in range(3):
        yield (
            gen.random_simplex_point(rng, space.points, 6),
            gen.random_simplex_point(rng, space.points, 6),
        )


def test_distance_lps_match_the_rational_tableau():
    """Every distance LP of 1-6 point ``gen.random_metric`` spaces gives the
    value and test function of the rational tableau on ``Fraction`` data,
    with every pivot 1."""
    seen, solved = {}, 0
    for case in range(90):
        rng = gen.rng_for(22, "distance-oracle", str(case))
        space = gen.random_metric(rng, case % 6 + 1, 6)
        n = space.size
        rows, rhs = [], []
        for i, j in lipmetric._lipschitz_rows(space):
            rows.append([F(int(k == i) - int(k == j)) for k in range(n)])
            rhs.append(space.dist[i][j])
        rows += [[F(int(k == i)) for k in range(n)] for i in range(n)]
        rhs += [F(1)] * n
        for p, q in distance_lp_pairs(space, rng):
            diff = [a - b for a, b in zip(p.weights, q.weights)]
            expected = reference_maximize(diff, rows, rhs, seen)
            value, f = bl_distance_lp_witness(p, q, space)
            assert (value, f.values) == (expected.value, expected.solution)
            solved += 1
    assert solved > 500 and "non-unit pivots" not in seen
