"""Feasible regions of the form {x : Ax <= b, x >= 0} with exact geometry.

Vertices come from basis enumeration on the slack-extended system, so the
results are exact rational points, deterministic, and sorted; nothing here
depends on floating point.

Each fact about a region is computed at most once per ``Polytope``, on
first use, and lives exactly as long as that object; nothing is cached at
module level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import InfeasibleRegion, UnboundedObjective
from .linalg import ONE, ZERO, Matrix, Vector, dot, eliminate, integer_rows
from .simplex import Constraint, LpProblem, LpStatus, Relation, VarKind, positive_optimum, solve


@dataclass(frozen=True)
class Polytope:
    """Region Ax <= b together with x >= 0; may be empty or unbounded.  Its
    facts are the cached properties below, each computed once per object, on
    first use, and kept only as long as the object is."""

    a: Matrix
    b: Vector

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValueError("row count of A != length of b")
        if not self.a:
            raise ValueError("need at least one constraint row")
        widths = {len(row) for row in self.a}
        if len(widths) != 1 or widths == {0}:
            raise ValueError("A must be rectangular with at least one column")

    @property
    def dim(self) -> int:
        return len(self.a[0])

    @cached_property
    def rows(self) -> tuple[Constraint, ...]:
        """The constraints Ax <= b, as used by every LP over the region."""
        return tuple((tuple(row), Relation.LE, Fraction(rhs)) for row, rhs in zip(self.a, self.b))

    @cached_property
    def status(self) -> LpStatus:
        """Status of max sum(x): INFEASIBLE iff the region is empty, and, as
        x >= 0 makes sum(x) a gauge, UNBOUNDED iff it is unbounded."""
        return solve(LpProblem((ONE,) * self.dim, self.rows, (VarKind.NONNEG,) * self.dim)).status

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        return enumerate_vertices(self)

    @cached_property
    def faces(self) -> tuple[tuple[Vector, ...], ...]:
        return face_vertex_sets(self)

    @cached_property
    def interior_point(self) -> Vector | None:
        return find_interior_point(self)

    @cached_property
    def efficient(self) -> dict[tuple[frozenset[Vector], Vector], bool]:
        """Answers of ``efficiency.is_efficient``, keyed by the set of stack
        rows and the point: efficiency does not depend on row order."""
        return {}


def tight_rows(p: Polytope, x: Vector) -> tuple[int, ...] | None:
    """Indices i of the rows with a_i . x = b_i, or None when x is not in
    the region; exact, no tolerance."""
    if len(x) != p.dim or any(c < 0 for c in x):
        return None
    tight = []
    for i, (row, rhs) in enumerate(zip(p.a, p.b)):
        value = dot(row, x)
        if value > rhs:
            return None
        if value == rhs:
            tight.append(i)
    return tuple(tight)


def contains(p: Polytope, x: Vector) -> bool:
    """Exact membership test, no tolerance."""
    return tight_rows(p, x) is not None


def enumerate_vertices(p: Polytope) -> tuple[Vector, ...]:
    """All vertices of the region, sorted lexicographically.

    Works on the slack form [A | I] y = b, y >= 0: every choice of m basic
    columns whose square system is nonsingular and solves nonnegatively is a
    basic feasible solution, and its x-part is a vertex.  [A | I | b] is made
    integer once; each basis is eliminated on integers, where y_c = num / d
    is nonnegative iff num * d >= 0, so only feasible bases build Fractions.
    """
    m = len(p.a)
    k = p.dim
    full = integer_rows(
        tuple(row) + tuple(ONE if j == i else ZERO for j in range(m)) + (p.b[i],)
        for i, row in enumerate(p.a)
    )
    seen: set[Vector] = set()
    for cols in itertools.combinations(range(k + m), m):
        rows, pivots, d = eliminate([[r[c] for c in cols] + [r[-1]] for r in full], m)
        if len(pivots) < m or any(r[m] * d < 0 for r in rows):
            continue
        y = [ZERO] * (k + m)
        for c, r in zip(cols, rows):
            y[c] = Fraction(r[m], d)
        seen.add(tuple(y[:k]))
    return tuple(sorted(seen))


def find_interior_point(p: Polytope) -> Vector | None:
    """A point with Ax < b and x > 0 strictly, or None if the interior is empty.

    Maximizes a common slack margin a with Ax + a*1 <= b, x >= a*1, a <= 1;
    the interior is nonempty exactly when the optimal margin is positive.
    """
    k = p.dim
    rows = [(row + (ONE,), rel, rhs) for row, rel, rhs in p.rows]
    for j in range(k):
        margin = tuple(ONE if i == j else ZERO for i in range(k)) + (Fraction(-1),)
        rows.append((margin, Relation.GE, ZERO))
    rows.append(((ZERO,) * k + (ONE,), Relation.LE, ONE))
    objective = (ZERO,) * k + (ONE,)
    kinds = (VarKind.FREE,) * k + (VarKind.NONNEG,)
    return positive_optimum(LpProblem(objective, tuple(rows), kinds), k)


def interior_nonempty(p: Polytope) -> bool:
    return p.interior_point is not None


def nonempty(p: Polytope) -> bool:
    """True when some x >= 0 satisfies Ax <= b."""
    return p.status is not LpStatus.INFEASIBLE


def is_bounded(p: Polytope) -> bool:
    """True when the region is bounded; an empty region counts as bounded."""
    return p.status is not LpStatus.UNBOUNDED


def face_vertex_sets(p: Polytope) -> tuple[tuple[Vector, ...], ...]:
    """Vertex sets of every nonempty face of a bounded region, sorted.

    Each constraint row (including the sign bounds x_j >= 0) supports a face
    whose vertices are exactly the vertices lying on that hyperplane, and the
    remaining faces are intersections of those, so the full face lattice is
    the closure of the facet vertex sets under intersection.  The region
    itself appears as the set of all vertices.  Faces are returned as tuples
    of vertices, ordered by size and then lexicographically; only meaningful
    when the region is bounded, since an unbounded face is not spanned by its
    vertices.
    """
    vertices = p.vertices
    everything = frozenset(range(len(vertices)))
    facets: list[frozenset[int]] = []
    for row, rhs in zip(p.a, p.b):
        facets.append(frozenset(i for i, v in enumerate(vertices) if dot(row, v) == rhs))
    for j in range(p.dim):
        facets.append(frozenset(i for i, v in enumerate(vertices) if v[j] == ZERO))
    closed: set[frozenset[int]] = {everything} if vertices else set()
    queue = [everything] if vertices else []
    while queue:
        current = queue.pop()
        for facet in facets:
            meet = current & facet
            if meet and meet not in closed:
                closed.add(meet)
                queue.append(meet)
    faces = [tuple(vertices[i] for i in sorted(members)) for members in closed]
    return tuple(sorted(faces, key=lambda face: (len(face), face)))


def optimal_face_vertices(p: Polytope, c: Vector) -> tuple[Vector, ...]:
    """Vertices of the region where c . x attains its maximum, sorted.

    A finite maximum is attained at a vertex, so it is the best c . v over
    the vertices; only an unbounded region needs the LP max c . x, to decide
    whether the maximum is finite.  Raises InfeasibleRegion on an empty
    region and UnboundedObjective when c . x has no finite maximum.
    """
    if p.status is LpStatus.INFEASIBLE:
        raise InfeasibleRegion("region is empty")
    if p.status is LpStatus.UNBOUNDED:
        out = solve(LpProblem(tuple(c), p.rows, (VarKind.NONNEG,) * p.dim))
        if out.status is LpStatus.UNBOUNDED:
            raise UnboundedObjective("objective has no finite maximum on the region")
    values = [dot(c, v) for v in p.vertices]
    best = max(values)
    return tuple(v for v, value in zip(p.vertices, values) if value == best)
