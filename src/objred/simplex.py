"""Exact two-phase simplex over the rationals.

Maximization problems with <=, ==, >= rows, nonnegative or free variables.
Pivoting follows Bland's smallest-index rule, which guarantees termination
even on degenerate (cycling-prone) instances; all arithmetic is Fraction,
so feasibility and optimality are decided without tolerances.  The reduced
costs live in the tableau as cost rows below the constraints, so each pivot
reprices them and no iteration sums over the basis.  It builds the step-1
and step-2 directions, the step-3 interior point and the step-4 weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .linalg import ONE, ZERO, Vector, dot


class Relation(enum.Enum):
    LE = "<="
    EQ = "=="
    GE = ">="


class VarKind(enum.Enum):
    NONNEG = "nonneg"
    FREE = "free"


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


Constraint = tuple[Vector, Relation, Fraction]


@dataclass(frozen=True)
class LpProblem:
    """max objective . x subject to the given rows and variable kinds."""

    objective: Vector
    constraints: tuple[Constraint, ...]
    variable_kinds: tuple[VarKind, ...]

    def __post_init__(self) -> None:
        n = len(self.variable_kinds)
        if n == 0:
            raise ValueError("LP needs at least one variable")
        if len(self.objective) != n:
            raise ValueError("objective length != variable count")
        for row, _, _ in self.constraints:
            if len(row) != n:
                raise ValueError("constraint row length != variable count")


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    value: Fraction | None = None
    point: Vector | None = None


_MAX_PIVOTS = 100_000  # far beyond any basis count seen here; guards bugs only


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    inv = ONE / tableau[row][col]
    tableau[row] = [inv * a for a in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[row])]
    basis[row] = col


def _optimize(tableau: list[list[Fraction]], basis: list[int]) -> bool:
    """Run simplex iterations in place; True when optimal, False when unbounded.

    The reduced costs are the tableau's last row, kept current by ``_pivot``;
    the ratio test reads only the first ``len(basis)`` (constraint) rows.
    Bland's rule: entering column is the smallest index with positive reduced
    cost, leaving row is the minimum-ratio row with the smallest basic index.
    """
    for _ in range(_MAX_PIVOTS):
        entering = next((j for j, r in enumerate(tableau[-1][:-1]) if r > 0), None)
        if entering is None:
            return True
        leave = None
        best: Fraction | None = None
        for i in range(len(basis)):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return False
        _pivot(tableau, basis, leave, entering)
    raise RuntimeError("simplex failed to terminate")  # pragma: no cover


def solve(problem: LpProblem) -> LpOutcome:
    """Exact optimum of an LpProblem; status is always one of the three."""
    kinds = problem.variable_kinds

    # Column layout: nonnegative variables map to one column, free variables
    # split into a positive and a negative part; slacks come afterwards.
    col_of: list[tuple[int, int | None]] = []
    n_std = 0
    for kind in kinds:
        if kind is VarKind.FREE:
            col_of.append((n_std, n_std + 1))
            n_std += 2
        else:
            col_of.append((n_std, None))
            n_std += 1

    def expand(row: Vector) -> list[Fraction]:
        out = [ZERO] * n_std
        for j, a in enumerate(row):
            pos, neg = col_of[j]
            out[pos] = a
            if neg is not None:
                out[neg] = -a
        return out

    rows: list[tuple[list[Fraction], Relation, Fraction]] = []
    for row, rel, rhs in problem.constraints:
        if rel is Relation.GE:  # normalize to <= at ingestion
            rows.append(([-a for a in expand(row)], Relation.LE, -rhs))
        else:
            rows.append((expand(row), rel, Fraction(rhs)))

    n_slacks = sum(1 for _, rel, _ in rows if rel is Relation.LE)
    width = n_std + n_slacks
    body: list[list[Fraction]] = []
    rhs_col: list[Fraction] = []
    slack = n_std
    for row, rel, rhs in rows:
        full = row + [ZERO] * n_slacks
        if rel is Relation.LE:
            full[slack] = ONE
            slack += 1
        if rhs < 0:
            full = [-a for a in full]
            rhs = -rhs
        body.append(full)
        rhs_col.append(rhs)

    m = len(body)
    tableau = [body[i] + [ZERO] * m + [rhs_col[i]] for i in range(m)]
    for i in range(m):
        tableau[i][width + i] = ONE
    basis = [width + i for i in range(m)]
    # Cost rows: the phase-2 objective, then phase 1's -(sum of artificials)
    # priced out against the starting basis; its last cell is that sum.
    tableau.append(expand(problem.objective) + [ZERO] * (n_slacks + m + 1))
    phase1 = [sum((row[j] for row in body), ZERO) for j in range(width)]
    tableau.append(phase1 + [ZERO] * m + [sum(rhs_col, ZERO)])

    _optimize(tableau, basis)  # bounded above by 0, never unbounded
    if tableau.pop()[-1] > 0:
        return LpOutcome(LpStatus.INFEASIBLE)

    # Drive zero-valued artificials out of the basis; rows with no real
    # pivot left are redundant and get dropped.
    for i in reversed(range(len(basis))):
        if basis[i] >= width:
            pivot_col = next((j for j in range(width) if tableau[i][j] != 0), None)
            if pivot_col is None:
                del tableau[i]
                del basis[i]
            else:
                _pivot(tableau, basis, i, pivot_col)
    tableau = [row[:width] + [row[-1]] for row in tableau]

    if not _optimize(tableau, basis):
        return LpOutcome(LpStatus.UNBOUNDED)

    std_point = [ZERO] * width
    for i, b in enumerate(basis):
        std_point[b] = tableau[i][-1]
    x = tuple(
        std_point[pos] if neg is None else std_point[pos] - std_point[neg] for pos, neg in col_of
    )
    return LpOutcome(LpStatus.OPTIMAL, value=dot(problem.objective, x), point=x)


def positive_optimum(problem: LpProblem, width: int) -> Vector | None:
    """The first ``width`` coordinates of an optimal point when the optimum
    is positive; None when it is not, or when there is no optimum."""
    out = solve(problem)
    if out.status is not LpStatus.OPTIMAL or out.value is None or out.value <= 0:
        return None
    assert out.point is not None
    return out.point[:width]
