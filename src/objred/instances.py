"""Seeded random problem generation for stress and property tests.

Instances keep the origin feasible (b >= 0) and are capped to a bounded
region by default, so classify always runs to a verdict on them.  The
rungs of the size ladder come from ``ladder_region``, with objectives from
``ladder_problem`` and ``ladder_stack``, and two degenerate families from
``degenerate_cube`` and ``ordered_cone``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .efficiency import ObjectiveStack
from .engine import MolpProblem
from .linalg import Vector
from .polytope import Polytope, is_bounded


def _row(rng: random.Random, width: int, spread: int) -> Vector:
    while True:
        row = tuple(Fraction(rng.randint(-spread, spread)) for _ in range(width))
        if any(row):
            return row


def random_problem(
    rng: random.Random,
    max_variables: int = 4,
    max_constraints: int = 6,
    max_objectives: int = 4,
    spread: int = 3,
    ensure_bounded: bool = True,
) -> MolpProblem:
    """A small random instance with integer data; bounded unless asked not
    to be, and never infeasible (the origin always satisfies Ax <= b)."""
    k = rng.randint(2, max_variables)
    m = rng.randint(1, max_constraints)
    n = rng.randint(2, max_objectives)
    a = tuple(_row(rng, k, spread) for _ in range(m))
    b = tuple(Fraction(rng.randint(0, 5)) for _ in range(m))
    objectives = tuple(_row(rng, k, spread) for _ in range(n))
    problem = MolpProblem(objectives, a, b)
    if ensure_bounded and not is_bounded(problem.region()):
        cap = Fraction(rng.randint(2, 4) * k)
        problem = MolpProblem(
            objectives, a + ((Fraction(1),) * k,), b + (cap,)
        )
    return problem


def plant_combination(
    rng: random.Random, base: MolpProblem | None = None, spread: int = 3
) -> tuple[MolpProblem, Vector]:
    """Append a candidate built as a nonnegative combination of the existing
    objective rows; returns the extended problem and the multipliers used."""
    if base is None:
        base = random_problem(rng)
    while True:
        alpha = tuple(
            Fraction(rng.randint(0, spread)) for _ in range(base.n_objectives)
        )
        if any(alpha):
            break
    candidate = tuple(
        sum((a * row[j] for a, row in zip(alpha, base.objectives)), Fraction(0))
        for j in range(base.n_variables)
    )
    extended = MolpProblem(base.objectives + (candidate,), base.a, base.b)
    return extended, alpha


def ladder_region(k: int, seed: int = 0) -> Polytope:
    """Rung k of the vertex-enumeration size ladder: k variables and k + 4
    rows with integer entries in [0, 3] and right-hand sides in [3, 9].
    Each rung draws from its own stream, keyed by seed and k."""
    rng = random.Random(f"ladder:{seed}:{k}")
    a = tuple(tuple(Fraction(rng.randint(0, 3)) for _ in range(k)) for _ in range(k + 4))
    b = tuple(Fraction(rng.randint(3, 9)) for _ in range(k + 4))
    return Polytope(a, b)


def ladder_problem(k: int, seed: int = 0) -> MolpProblem:
    """Rung k's region with k + 1 objectives, integer entries in [-2, 3],
    drawn from their own stream."""
    region = ladder_region(k, seed)
    rng = random.Random(f"{k}:{seed}")
    objectives = tuple(tuple(Fraction(rng.randint(-2, 3)) for _ in range(k)) for _ in range(k + 1))
    return MolpProblem(objectives, region.a, region.b)


def ladder_stack(k: int, seed: int = 0) -> ObjectiveStack:
    """Rung k's stack of 3 objectives, integer entries in [-3, 3], drawn
    from its own stream."""
    rng = random.Random(f"ladder-stack:{seed}:{k}")
    return ObjectiveStack(tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(k)) for _ in range(3)))


def degenerate_cube(k: int) -> Polytope:
    """The unit cube [0, 1]^k plus the row x_i + x_j <= 2 for every pair
    i < j: its 2^k vertices are those of the cube, and each pair row is
    tight at every vertex with x_i = x_j = 1, so most of them are degenerate."""
    unit = [tuple(Fraction(int(c == i)) for c in range(k)) for i in range(k)]
    pairs = [tuple(a + b for a, b in zip(unit[i], unit[j])) for i, j in combinations(range(k), 2)]
    return Polytope(tuple(unit + pairs), (Fraction(1),) * k + (Fraction(2),) * len(pairs))


def ordered_cone(k: int) -> Polytope:
    """The cone x_i - x_j <= 0 for every pair i < j: one vertex, the origin,
    on which every row is tight, and the rays of 0 <= x_1 <= ... <= x_k."""
    rows = tuple(
        tuple(Fraction((c == i) - (c == j)) for c in range(k)) for i, j in combinations(range(k), 2)
    )
    return Polytope(rows, (Fraction(0),) * len(rows))
