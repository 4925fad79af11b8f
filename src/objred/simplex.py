"""Exact two-phase simplex over the rationals.

Maximization problems with <=, ==, >= rows, nonnegative or free variables.
Pivoting follows Bland's smallest-index rule, which guarantees termination
even on degenerate (cycling-prone) instances.  The tableau is put over one
denominator (``linalg.integer_frame``) and pivoted on integers by the
fraction-free kernel of ``linalg`` (``phase1``, ``drive_out``, ``bland``), which
makes exactly the pivots of the rational tableau: feasibility and
optimality are decided without tolerances, and a ``Fraction`` is built only
for the point returned.  The reduced costs live in the tableau as cost rows
below the constraints, so each pivot reprices them and no iteration sums
over the basis.  No other module of the library imports this one; it stays
as a public exact LP solver, and the tests' references run on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .linalg import ONE, ZERO, Vector, bland, drive_out, integer_frame, phase1, ratio


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

    n_slacks = sum(1 for _, rel, _ in problem.constraints if rel is not Relation.EQ)
    width = n_std + n_slacks
    rows: list[list[Fraction]] = []
    slack = n_std
    for row, rel, rhs in problem.constraints:
        full = expand(row) + [ZERO] * n_slacks + [rhs]
        if rel is Relation.GE:  # normalize to <= at ingestion
            full = [-a for a in full]
        if rel is not Relation.EQ:
            full[slack] = ONE
            slack += 1
        rows.append(full)
    rows.append(expand(problem.objective) + [ZERO] * (n_slacks + 1))

    # Over one denominator, the integer pivots repeat the rational ones
    # (``linalg.integer_frame``): phase 1 negates the rows with b < 0 and
    # minimizes the sum of one artificial per row, with the objective riding
    # along, so both phases make the pivots of the Fraction tableau.
    body, d = integer_frame(rows)
    basis, tableau, d = phase1(body[:-1], d, body[-1:])
    if tableau.pop()[-1] * d > 0:
        return LpOutcome(LpStatus.INFEASIBLE)

    d = drive_out(tableau, basis, d, width)
    d = bland(tableau, basis, d, len(basis))
    if d is None:  # Bland's rule stopped on a ray
        return LpOutcome(LpStatus.UNBOUNDED)

    values = {c: row[-1] for c, row in zip(basis, tableau)}
    x = tuple(ratio(values.get(pos, 0) - values.get(neg, 0), d) for pos, neg in col_of)
    return LpOutcome(LpStatus.OPTIMAL, value=Fraction(-tableau[-1][-1], d), point=x)
