"""Independent re-checks of a verdict's certificates.

Exact arithmetic on the problem's raw data, with its own brute force:
nothing here calls the rest of objred, so a fault in its integer kernels
cannot vouch for itself.  ``feasible_bases`` and ``vertices`` are the tests'
brute-force vertex reference too.  Each check returns None when the
certificate holds, else why not.
Steps 0 to 5 are checked fully (multipliers that rebuild the candidate, a
semipositive direction, a strictly interior point, positive weights that sum
to one and equalize every vertex, and the face: exactly the vertices where
the candidate is largest, with no extreme ray along which it grows); steps 6
and 7 only in part (the witness lies on the face, the kernel vectors are in
the kernel).  A "no" of steps 0, 1 and 3 carries no certificate yet, and
step 2 never answers "no" inside a verdict.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, Iterator, Sequence

Row = tuple[Fraction, ...]


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _feasible(a: Sequence[Row], b: Row, x: Sequence[Fraction]) -> bool:
    return all(v >= 0 for v in x) and all(_dot(row, x) <= r for row, r in zip(a, b))


def feasible_bases(a: Sequence[Row], b: Row) -> Iterator[tuple[tuple[int, ...], list[Fraction]]]:
    """Each feasible basis of [A | I] y = b, y >= 0, as its columns and
    their values: every choice of len(a) columns, solved by Gauss–Jordan,
    whose system is nonsingular and whose solution is nonnegative."""
    m, k = len(a), len(a[0])
    full = [_integer([*row, *(int(i == j) for j in range(m)), b[i]]) for i, row in enumerate(a)]
    for cols in itertools.combinations(range(k + m), m):
        y = _solve([[row[c] for c in cols] + [row[-1]] for row in full])
        if y is not None and all(v >= 0 for v in y):
            yield cols, y


def vertices(a: Sequence[Row], b: Row) -> set[Row]:
    """All vertices of {x >= 0 : Ax <= b}: the x-parts of its feasible bases."""
    k = len(a[0])
    return {tuple(dict(zip(cols, y)).get(j, Fraction(0)) for j in range(k)) for cols, y in feasible_bases(a, b)}


def _extreme_rays(a: Sequence[Row]) -> set[Row]:
    """The extreme rays of the cone {r >= 0 : Ar <= 0}, each scaled to sum
    1: the points of the cone where sum(r) = 1 and k - 1 independent walls
    (r_j = 0 or a_i . r = 0) are tight."""
    k = len(a[0])
    walls = [[int(i == j) for j in range(k)] for i in range(k)] + [_integer(row) for row in a]
    found: set[Row] = set()
    for tight in itertools.combinations(walls, k - 1):
        r = _solve([*([*row, 0] for row in tight), [1] * (k + 1)])
        if r is not None and all(v >= 0 for v in r) and all(_dot(row, r) <= 0 for row in a):
            found.add(tuple(r))
    return found


def _integer(row: Sequence[Fraction]) -> list[int]:
    """The row times the least common multiple of its denominators."""
    scale = math.lcm(*(v.denominator for v in row))
    return [int(v * scale) for v in row]


def _solve(rows: list[list[int]]) -> list[Fraction] | None:
    """The solution of a square integer system given as [M | rhs] rows, or
    None when M is singular, by fraction-free Gauss–Jordan: each step
    divides exactly by the last pivot, and det M ends on the diagonal."""
    n = len(rows)
    prev = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        top = rows[c]
        for i in range(n):
            if i != c:
                f = rows[i][c]
                rows[i] = [(top[c] * v - f * w) // prev for v, w in zip(rows[i], top)]
        prev = top[c]
    return [Fraction(row[n], row[i]) for i, row in enumerate(rows)]


def check_verdict(objectives: Sequence[Row], a: Sequence[Row], b: Row, verdict: Any) -> str | None:
    """Check every certificate in the trace of ``verdict``, a verdict of
    max {F(x) : Ax <= b, x >= 0} with F's rows ``objectives``."""
    if not verdict.trace or verdict.trace[-1].step != verdict.decided_at:
        return "decided_at is not the last traced step"
    others = [row for i, row in enumerate(objectives) if i != verdict.candidate]
    target = objectives[verdict.candidate]
    face: Sequence[Row] = ()
    for entry in verdict.trace:
        step = int(entry.step)
        problem = check_step(step, entry.answer, entry.certificate, others, target, a, b, face)
        if problem:
            return f"step {step}: {problem}"
        if step == 5:
            face = entry.certificate
    return None


def check_step(
    step: int,
    answer: bool,
    cert: Any,
    others: Sequence[Row],
    target: Row,
    a: Sequence[Row],
    b: Row,
    face: Sequence[Row] = (),
) -> str | None:
    """Check one trace entry of a verdict on ``target``, the candidate's row,
    with ``others`` the other objectives; ``face`` is step 5's certificate."""
    k = len(target)
    if not answer and step in (0, 1, 2, 3, 6):
        return None if cert is None else "certificate on a failed test"
    if step == 0:
        if len(cert) != len(others) or any(c < 0 for c in cert):
            return "multipliers not nonnegative"
        rebuilt = tuple(sum((c * row[j] for c, row in zip(cert, others)), Fraction(0)) for j in range(k))
        return None if rebuilt == tuple(target) else "multipliers do not rebuild the row"
    if step in (1, 2):
        values = [_dot(row, cert) for row in ([*others, target] if step == 1 else others)]
        if len(cert) != k or any(v < 0 for v in values) or not any(values):
            return "direction is not semipositive improving"
        return None
    if step == 3:
        strict = len(cert) == k and all(v > 0 for v in cert)
        if strict and all(_dot(row, cert) < r for row, r in zip(a, b)):
            return None
        return "point is not strictly interior"
    if step == 4:
        if not answer:  # no weights exist, or an inefficient vertex
            if cert is None or tuple(cert) in vertices(a, b):
                return None
            return "bad vertex is not a vertex"
        if len(cert) != len(others) or any(w <= 0 for w in cert) or sum(cert) != 1:
            return "weights not positive or not summing to one"
        weighted = {_dot(cert, [_dot(row, v) for row in others]) for v in vertices(a, b)}
        return None if len(weighted) == 1 else "weights do not equalize the vertices"
    if step == 5:
        values = {v: _dot(target, v) for v in vertices(a, b)}
        best = max(values.values(), default=None)
        if not cert or sorted(map(tuple, cert)) != sorted(v for v, value in values.items() if value == best):
            return "face is not every vertex where the candidate is largest"
        if any(_dot(target, r) > 0 for r in _extreme_rays(a)):
            return "the candidate grows along an extreme ray"
        return None
    if step == 6:
        return None if cert in tuple(face) else "witness is not on the optimal face"
    if step == 7:
        for v in cert["kernel"]:
            if not any(v) or any(_dot(row, v) for row in others):
                return "kernel vector not in the kernel"
        if answer and cert["intersection"]:
            return "separated, yet the intersection is nonzero"
        if not all(_feasible(a, b, point) for point in cert.get("uncontained", ())):
            return "uncontained point is infeasible"
        return None
    return f"unknown step {step}"
