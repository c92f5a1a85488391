"""Exact rational linear programming by the simplex method.

Solves  maximize c.x  subject to  A x <= b,  x >= 0  with every right-hand
side nonnegative, so the origin is a feasible start and no phase-one step is
needed.  Bland's anti-cycling rule makes termination unconditional.  The
optimum is attained at a basic feasible point, hence rational.

The tableau holds integers only (Edmonds' integer-preserving pivoting).
Each row of ``A`` is multiplied by the least common denominator of its
entries, which rescales only that row's slack; ``b`` is put over one common
denominator ``D`` (the substitution ``x' = D x``) and ``c`` over its own.
The rational tableau is the integer one over a running common denominator
``det``: a pivot on the entry ``p`` replaces every other entry ``t`` by
``(p t - f r) // det``, where ``f`` is the pivot column's entry in ``t``'s
row and ``r`` the pivot row's entry in ``t``'s column; the division is
exact, and ``det`` becomes ``p``.  When ``A`` is integral and totally
unimodular, as the 0/±1 rows of the bounded Lipschitz LP are, every pivot
is 1.  The scalings are positive, so the entering column (Bland) and the
leaving row (least ratio, compared by cross-multiplication, ties to the
smallest basic index) are those of the rational tableau, and ``Fraction``s
are built only for the inputs and the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InfeasibleError, UnboundedError
from .exact import scaled_rows


@dataclass(frozen=True)
class LPResult:
    value: Fraction
    solution: tuple[Fraction, ...]


def _rationals(values) -> tuple:
    """The values as exact rationals: ``int``s and ``Fraction``s as they
    are, anything else through ``Fraction(v)``, which accepts or rejects it
    as the constructor does."""
    return tuple(v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values)


def _numerators(values) -> tuple[list[int], int]:
    """``(nums, den)`` with ``values[j] == nums[j] / den`` over the least
    common denominator of the values (see :func:`_rationals`)."""
    if all(type(v) is int for v in values):
        return list(values), 1
    (nums,), den = scaled_rows((_rationals(values),))
    return list(nums), den


def maximize(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
) -> LPResult:
    n = len(c)
    m = len(a_ub)
    c_nums, c_den = _numerators(c)
    b = _rationals(b_ub)
    for i, v in enumerate(b):
        if v < 0:
            raise InfeasibleError(
                f"right-hand side {v} of row {i} is negative; origin start requires b >= 0"
            )
    b_nums, b_den = _numerators(b)

    # integer tableau rows: [s A_i | e_i | s D b_i]; cost row: [-C c | 0 | 0]
    rows: list[list[int]] = []
    for i, a_row in enumerate(a_ub):
        if len(a_row) != n:
            raise ValueError("constraint row length mismatch")
        row, scale = _numerators(a_row)
        row += [0] * m
        row[n + i] = 1
        row.append(scale * b_nums[i])
        rows.append(row)
    cost = [-v for v in c_nums] + [0] * (m + 1)
    basis = list(range(n, n + m))
    det = 1

    while True:
        enter = -1
        for j in range(n + m):  # Bland: smallest improving index enters
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i, row in enumerate(rows):
            coef = row[enter]
            if coef > 0:
                if leave >= 0:  # ratio row[-1] / coef against the best's
                    lhs, rhs = row[-1] * best_coef, best_rhs * coef
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_coef, best_rhs = i, coef, row[-1]
        if leave < 0:
            raise UnboundedError("objective unbounded above on the feasible set")
        pivot_row = rows[leave]
        pivot = pivot_row[enter]
        support = [j for j, v in enumerate(pivot_row) if v]
        for target in (*rows, cost):
            if target is pivot_row:
                continue
            factor = target[enter]
            if pivot == det == 1:
                if factor:
                    for j in support:
                        target[j] -= factor * pivot_row[j]
            elif factor or pivot != det:
                target[:] = [
                    (pivot * t - factor * r) // det for t, r in zip(target, pivot_row)
                ]
        det = pivot
        basis[leave] = enter

    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = Fraction(rows[i][-1], det * b_den)
    return LPResult(Fraction(cost[-1], det * c_den * b_den), tuple(solution))
