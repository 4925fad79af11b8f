"""Feasible regions of the form {x : Ax <= b, x >= 0} with exact geometry.

Everything here pivots one integer dictionary of the slack-extended system
[A | I] y = b, y >= 0 with the fraction-free step of ``lrs``.  ``start`` is
its first feasible basis, found by a phase 1 of Bland's rule when some
b_i < 0; there is none iff the region is empty.  From it, ``search`` pivots
from basis to adjacent feasible basis on the edges Bland's rule can take
(in the feasible-basis graph of Avis & Fukuda's reverse search) and yields
the vertices and the rays it meets: the region is bounded iff it meets none,
and c . x has no finite maximum iff c . r > 0 for one of them.  Its work
grows with the feasible bases those edges reach, not with all C(k + m, m)
bases.  The results are exact, deterministic and sorted.  The Bland kernel
lives in ``linalg``, and the step-3 interior point is the end point of one
of its phase 1s; no LP is solved.

A point's zero set holds the columns c of [A | I] y = b where y = (x, b - Ax)
is 0: c < k for x_c = 0, k + i for a tight row i.  Only this module computes
it: ``search`` reads each vertex's off a dictionary, and ``zero_set`` compares
any point with the integer rows of [A | b].  Faces are read from these sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import InfeasibleRegion, UnboundedObjective
from .linalg import (
    ONE,
    ZERO,
    Dictionary,
    Matrix,
    Vector,
    bland,
    _normalized,
    integer_frame,
    integer_rows,
    integer_solution,
    leaving_row,
    pivot,
    ratio,
    require_rational,
)


@dataclass(frozen=True)
class Polytope:
    """Region Ax <= b together with x >= 0; may be empty or unbounded.  Its
    facts are the cached properties below, each computed once per object, on
    first use, and kept only as long as the object is; nothing is cached at
    module level."""

    a: Matrix
    b: Vector

    def __post_init__(self) -> None:
        check_region(self.a, self.b)
        require_rational((*self.a, self.b), lambda i: f"A[{i}]" if i < len(self.a) else "b")

    @property
    def dim(self) -> int:
        return len(self.a[0])

    @cached_property
    def int_rows(self) -> list[list[int]]:
        """The rows of [A | b], each scaled to integers by ``integer_rows``;
        the scale is positive, so every comparison a_i . x <= b_i keeps its
        answer."""
        return integer_rows(tuple(row) + (rhs,) for row, rhs in zip(self.a, self.b))

    @cached_property
    def start(self) -> Dictionary | None:
        """The first feasible dictionary of [A | I] y = b, where the vertex
        search starts, or None iff the region is empty."""
        return _first_feasible(self)

    @cached_property
    def search(self) -> tuple[dict[Vector, frozenset[int]], frozenset[Vector]]:
        """The vertices, sorted, each with its zero set, and the x-parts of
        the rays met by the search over the feasible bases from ``start``."""
        return _search(self)

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
    def efficient(self) -> dict[tuple[frozenset[Vector], frozenset[int]], bool]:
        """Answers of the efficiency test, keyed by the set of stack rows and
        the zero set of the point: they depend on nothing else."""
        return {}


def check_region(a: Matrix, b: Vector) -> None:
    """Raise ValueError unless A is rectangular, with at least one column
    and a row per entry of b."""
    if len(a) != len(b):
        raise ValueError("row count of A != length of b")
    if not a:
        raise ValueError("need at least one constraint row")
    widths = {len(row) for row in a}
    if len(widths) != 1 or widths == {0}:
        raise ValueError("A must be rectangular with at least one column")


def zero_set(p: Polytope, x: Vector) -> frozenset[int] | None:
    """The zero set of x, or None when x is not in the region; exact, no
    tolerance.  x is put over its common denominator once, and each row is
    compared in integers.  Raises TypeError on an entry that is neither an
    int nor a Fraction."""
    require_rational((x,), "x".format)
    if len(x) != p.dim:
        return None
    scale = math.lcm(*(c.denominator for c in x))
    xs = [c.numerator * (scale // c.denominator) for c in x]
    if min(xs) < 0:
        return None
    zeros = [j for j, c in enumerate(xs) if c == 0]
    for i, row in enumerate(p.int_rows):
        # zip stops at len(xs), so row[-1] (b_i) is left out of the sum.
        slack = row[-1] * scale - sum(a * c for a, c in zip(row, xs))
        if slack < 0:
            return None
        if slack == 0:
            zeros.append(p.dim + i)
    return frozenset(zeros)


def contains(p: Polytope, x: Vector) -> bool:
    """Exact membership test, no tolerance."""
    return zero_set(p, x) is not None


def enumerate_vertices(p: Polytope) -> tuple[Vector, ...]:
    """All vertices of the region, sorted lexicographically, as found by its
    vertex search (``Polytope.search``)."""
    return tuple(p.search[0])


def _search(p: Polytope) -> tuple[dict[Vector, frozenset[int]], frozenset[Vector]]:
    """The vertices, sorted, each with its zero set (the columns not basic
    at a nonzero value, in any of its bases), and the x-parts of the rays
    met, by a search over the feasible bases of [A | I] y = b from ``start``.

    Each nonbasic column j of a basis enters on Bland's row, the tied
    minimum-ratio row of lowest basic index (``linalg.leaving_row``), or is
    a ray if it has none: x-part r_j = 1 if j < k and r_c = -rows[i][j] / d
    for each basic x-column c = basis[i], scaled so that its first nonzero
    entry is 1 (r >= 0, as x >= 0), so that each direction is kept once.
    Each basis is visited once, keyed by its set of columns, at the cost of
    one ``pivot``.

    Bland's rule on any c from ``start`` takes only these edges, so every
    path it takes lies in the search: every vertex is reached, as some c is
    maximized there alone, and when c . x has no finite maximum the ray it
    ends on, with c . r > 0, is met.  As sum(x) grows along every recession
    direction, a ray is met iff the region is unbounded.  The work still
    grows with the bases these edges reach: 6,867 pivots for the one vertex
    of ``instances.ordered_cone(6)``.
    """
    if p.start is None:
        return {}, frozenset()
    k = p.dim
    n = k + len(p.a)
    stack = [p.start]
    seen = {frozenset(p.start[0])}
    vertices: dict[Vector, frozenset[int]] = {}
    rays: set[Vector] = set()
    while stack:
        basis, rows, d = stack.pop()
        x = [ZERO] * k
        for c, row in zip(basis, rows):
            if c < k:
                x[c] = ratio(row[-1], d)
        vertices[tuple(x)] = frozenset(range(n)).difference(c for c, row in zip(basis, rows) if row[-1])
        basic = set(basis)
        for j in range(n):
            if j in basic:
                continue
            i = leaving_row(rows, basis, j, d)
            if i is None:
                r = [ONE if c == j else ZERO for c in range(k)]
                for c, row in zip(basis, rows):
                    if c < k:
                        r[c] = Fraction(-row[j], d)
                rays.add(_normalized(r))
                continue
            neighbour = basis.copy()
            neighbour[i] = j
            key = frozenset(neighbour)
            if key not in seen:
                seen.add(key)
                after = list(rows)
                stack.append((neighbour, after, pivot(after, i, j, d)))
    return dict(sorted(vertices.items())), frozenset(rays)


def _first_feasible(p: Polytope) -> Dictionary | None:
    """A feasible dictionary of [A | I] y = b, or None iff the region is
    empty.  The slack-basis dictionary is ``integer_frame`` of [A | I | b],
    over d > 0; it is feasible when b >= 0.  Otherwise phase 1 adds one
    auxiliary column x0 = n with -1 in every row and a cost row for max
    -x0; x0 enters on the row of the most negative b_i, which makes the
    dictionary feasible, and Bland's rule then drives x0 to its least value.
    A positive least value proves the region empty.  Otherwise a zero-valued
    x0 still basic is pivoted out on the lowest nonzero column of its row
    (one exists: [A | I] has full row rank), and its column and cost row
    are dropped.
    """
    m = len(p.a)
    k = p.dim
    n = k + m
    rows, d = integer_frame(
        tuple(row) + tuple(ONE if j == i else ZERO for j in range(m)) + (p.b[i],)
        for i, row in enumerate(p.a)
    )
    basis = list(range(k, n))
    if any(row[-1] < 0 for row in rows):
        rows = [row[:n] + [-d] + row[n:] for row in rows]
        rows.append([0] * n + [-d, 0])
        r = min(range(m), key=lambda i: rows[i][-1])
        d = pivot(rows, r, n, d)
        basis[r] = n
        d = bland(rows, basis, d, m)  # max -x0 <= 0 is never unbounded
        # The cost row ends holding x0's least value times d.
        if rows.pop()[-1] * d > 0:
            return None
        if n in basis:
            r = basis.index(n)
            j = next(j for j in range(n) if rows[r][j])
            d = pivot(rows, r, j, d)
            basis[r] = j
        rows = [row[:n] + row[-1:] for row in rows]
    return basis, rows, d


def find_interior_point(p: Polytope) -> Vector | None:
    """A point with Ax < b and x > 0 strictly, or None if the interior is empty.

    The strict system as a phase 1: Aq + s - tb = b - A1 - 1 with q, s, t >= 0
    gives A(1 + q) + (1 + s) = (1 + t)b, so x = (1 + q) / (1 + t) is strictly
    interior; and any interior point, scaled up, gives such q, s and t.
    """
    m = len(p.a)
    rows = [
        (*row, *(ONE if j == i else ZERO for j in range(m)), -rhs, rhs - sum(row) - 1)
        for i, (row, rhs) in enumerate(zip(p.a, p.b))
    ]
    found = integer_solution(rows)
    if found is None:
        return None
    y, d = found
    return tuple(ratio(d + q, d + y[-1]) for q in y[: p.dim])


def interior_nonempty(p: Polytope) -> bool:
    return p.interior_point is not None


def nonempty(p: Polytope) -> bool:
    """True when some x >= 0 satisfies Ax <= b."""
    return p.start is not None


def is_bounded(p: Polytope) -> bool:
    """True when the region is bounded; an empty region counts as bounded.
    It is bounded iff its vertex search meets no ray."""
    return not p.search[1]


def face_vertex_sets(p: Polytope) -> tuple[tuple[Vector, ...], ...]:
    """Vertex sets of every nonempty face of a bounded region, sorted.

    Each column c of [A | I] y = b (a sign bound x_c >= 0 or a constraint
    row) supports a face whose vertices are exactly those with c in their
    zero set, read from the vertex search, and the remaining faces are
    intersections of those, so the full face lattice is the closure of the
    facet vertex sets under intersection.  The region itself appears as the
    set of all vertices.  Faces are returned as tuples of vertices, ordered
    by size and then lexicographically; only meaningful when the region is
    bounded, since an unbounded face is not spanned by its vertices.
    """
    vertices = p.vertices
    everything = frozenset(range(len(vertices)))
    on_facet: list[set[int]] = [set() for _ in range(p.dim + len(p.a))]
    for index, zeros in enumerate(p.search[0].values()):
        for c in zeros:
            on_facet[c].add(index)
    facets = [frozenset(s) for s in on_facet]
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

    c . x has no finite maximum iff c . r > 0 for a ray r met by the vertex
    search (see ``_search``); otherwise the maximum is attained at a vertex,
    so it is the best c . v over the vertices, each compared in integers over
    its common denominator.  Raises InfeasibleRegion on an empty region and
    UnboundedObjective when c . x has no finite maximum, and TypeError on an
    entry of c that is neither an int nor a Fraction.
    """
    require_rational((c,), "c".format)
    if p.start is None:
        raise InfeasibleRegion("region is empty")
    (cs,) = integer_rows((c,))  # a positive scale keeps the maximizers
    if any(sum(a * b for a, b in zip(cs, r)) > 0 for r in integer_rows(p.search[1])):
        raise UnboundedObjective("objective has no finite maximum on the region")
    face, best, best_q = [], 0, 1
    for v in p.vertices:
        # c . v is value / q: compare it with the best by cross-multiplying.
        q = math.lcm(*(x.denominator for x in v))
        value = sum(a * x.numerator * (q // x.denominator) for a, x in zip(cs, v))
        diff = value * best_q - best * q
        if diff > 0 or not face:
            face, best, best_q = [v], value, q
        elif diff == 0:
            face.append(v)
    return tuple(face)
