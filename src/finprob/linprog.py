"""Exact rational linear programming by the simplex method.

Solves  maximize c.x  subject to  A x <= b,  x >= 0  with every right-hand
side nonnegative, so the origin is a feasible start and no phase-one step is
needed.  All arithmetic is in ``Fraction``; Bland's anti-cycling rule makes
termination unconditional.  The optimum is attained at a basic feasible
point, hence rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InfeasibleError, UnboundedError
from .exact import fractions

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    value: Fraction
    solution: tuple[Fraction, ...]


def maximize(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
) -> LPResult:
    n = len(c)
    m = len(a_ub)
    c = fractions(c)
    b = fractions(b_ub)
    for i, v in enumerate(b):
        if v < 0:
            raise InfeasibleError(
                f"right-hand side {v} of row {i} is negative; origin start requires b >= 0"
            )

    # tableau rows: [A | I | b]; cost row: [-c | 0 | 0]
    width = n + m + 1
    rows: list[list[Fraction]] = []
    for i, a_row in enumerate(a_ub):
        if len(a_row) != n:
            raise ValueError("constraint row length mismatch")
        row = list(fractions(a_row))
        row += [ONE if j == i else ZERO for j in range(m)]
        row.append(b[i])
        rows.append(row)
    cost = [-v for v in c] + [ZERO] * (m + 1)
    basis = list(range(n, n + m))

    while True:
        enter = -1
        for j in range(n + m):  # Bland: smallest improving index enters
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = None
        for i in range(m):
            coef = rows[i][enter]
            if coef > 0:
                ratio = rows[i][width - 1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise UnboundedError("objective unbounded above on the feasible set")
        pivot_row = rows[leave]
        pivot = pivot_row[enter]
        if pivot != 1:
            for j in range(width):
                pivot_row[j] /= pivot
        for target in rows:
            if target is pivot_row:
                continue
            factor = target[enter]
            if factor:
                for j in range(width):
                    if pivot_row[j]:
                        target[j] -= factor * pivot_row[j]
        factor = cost[enter]
        if factor:
            for j in range(width):
                if pivot_row[j]:
                    cost[j] -= factor * pivot_row[j]
        basis[leave] = enter

    solution = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = rows[i][width - 1]
    return LPResult(cost[width - 1], tuple(solution))
