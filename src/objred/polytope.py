"""Regions {x : Ax <= b, x >= 0} with exact geometry.

Each fact about a region is a cached property of its ``Polytope``, computed
on first use from one integer dictionary of [A | I] y = b over the frame of
[A | b] (``Polytope.frame``): its first feasible basis (``start``), the
vertex search along Bland's edges (``walk``) with its vertices, zero sets
and rays, the face lattice, the interior point, and the efficiency records.
An objective's optimal face and the region's boundedness are read off the
search once it has run, and otherwise climbed to (``_climb``).  A point's
zero set holds the columns of [A | I] y = b where y = (x, b - Ax) is 0: c < k
for x_c = 0, and k + i for a tight row i.  README, "Library quickstart", has
the design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InfeasibleRegion, UnboundedObjective, UnboundedRegion
from .linalg import (
    Dictionary,
    Matrix,
    ONE,
    Vector,
    alternative,
    bland,
    drive_out,
    integer_frame,
    integer_rows,
    leaving_row,
    pivot,
    ratio,
    require_rational,
)

Key = tuple[int, ...]  # a vertex x / d as primitive (x, d), d > 0; a ray's x-part
Face = tuple[tuple[Vector, ...], tuple[frozenset[int], ...]]  # vertices, sorted; zero sets


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
    def frame(self) -> tuple[list[list[int]], int]:
        """[A | b] over its common denominator d (``integer_frame``), the
        region's one integer image.  The phase 1s of ``start`` and
        ``interior_point`` are built from it, with the same d, so their
        pivots repeat the rational ones.  ``zero_set`` and every efficiency
        test read its rows: a positive scale of a row keeps each slack's
        sign and the normal cone of the tight rows.  Not to be mutated."""
        return integer_frame(tuple(row) + (rhs,) for row, rhs in zip(self.a, self.b))

    @cached_property
    def start(self) -> Dictionary | None:
        """The first feasible dictionary of [A | I] y = b, where the vertex
        search starts, or None iff the region is empty."""
        return _first_feasible(self)

    @cached_property
    def walk(self) -> tuple[tuple[Key, ...], tuple[frozenset[int], ...], frozenset[Key]]:
        """The integer vertex search from ``start``: see ``_search``."""
        return _search(self)

    @property
    def walked(self) -> bool:
        """Whether ``walk`` has run; ``bounded`` and ``face_of`` then read it."""
        return "walk" in self.__dict__  # a cached property keeps its value there

    @cached_property
    def bounded(self) -> bool:
        """Whether the region is bounded; an empty region counts as bounded.
        sum(x) grows along every recession direction, so the region is
        bounded iff sum(x) has a finite maximum.  When ``walk`` has run,
        that is read off its rays; otherwise off Bland's rule on sum(x)
        from ``start`` (``_climb``), which builds no vertex search."""
        if self.walked:
            return not self.walk[2]
        return self.start is None or _climb(self, [1] * self.dim) is not None

    @property
    def zero_sets(self) -> tuple[frozenset[int], ...]:
        """Each vertex's zero set, at its index in ``vertices``."""
        return self.walk[1]

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        return enumerate_vertices(self)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Every nonempty face of a bounded region as the increasing indices
        of its vertices in ``vertices``, by size and then by those indices.

        Each column c of [A | I] y = b (a sign bound x_c >= 0 or a row)
        supports a face whose vertices are those with c in their zero set,
        and the other faces are intersections of those: the face lattice is
        the closure of these facets under intersection, with the region
        itself as the set of all vertices.  Only meaningful on a bounded
        region, since an unbounded face is not spanned by its vertices.
        """
        zero_sets = self.zero_sets
        everything = frozenset(range(len(zero_sets)))
        on_facet: list[set[int]] = [set() for _ in range(self.dim + len(self.a))]
        for index, zeros in enumerate(zero_sets):
            for c in zeros:
                on_facet[c].add(index)
        facets = [frozenset(s) for s in on_facet]
        closed: set[frozenset[int]] = {everything} if zero_sets else set()
        queue = list(closed)
        while queue:
            current = queue.pop()
            for facet in facets:
                meet = current & facet
                if meet and meet not in closed:
                    closed.add(meet)
                    queue.append(meet)
        faces = sorted(tuple(sorted(members)) for members in closed)
        return tuple(sorted(faces, key=len))  # stable: by size, then by indices

    @cached_property
    def interior_point(self) -> Vector | None:
        return find_interior_point(self)

    @cached_property
    def certificates(self) -> dict:
        """What the efficiency test has found, one record per set of stack
        rows: the efficient set depends on nothing else.  Only
        ``efficiency`` builds and reads the records (``efficient_at``)."""
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
    tolerance.  x is put over its common denominator once, and each row of
    ``Polytope.frame`` is compared with it in integers.  Raises TypeError on
    an entry that is neither an int nor a Fraction."""
    require_rational((x,), "x".format)
    if len(x) != p.dim:
        return None
    *xs, scale = integer_rows(((*x, ONE),))[0]
    if min(xs) < 0:
        return None
    zeros = [j for j, c in enumerate(xs) if c == 0]
    for i, row in enumerate(p.frame[0]):
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
    """All vertices of the region, sorted lexicographically: x / d for each
    key (x, d) of its vertex search (``Polytope.walk``)."""
    return tuple(map(_vertex, p.walk[0]))


def _vertex(key: Key) -> Vector:
    """The vertex x / d of the key (x, d)."""
    return tuple(ratio(c, key[-1]) for c in key[:-1])


def _search(p: Polytope) -> tuple[tuple[Key, ...], tuple[frozenset[int], ...], frozenset[Key]]:
    """The whole vertex search, ``_explore`` from ``start`` with no column
    fixed: every vertex's key, sorted, its zero set, aligned, and the rays
    met.

    Bland's rule on any c from ``start`` takes only the search's edges, so
    every path it takes lies in the search: every vertex is reached, as some
    c is maximized there alone, and when c . x has no finite maximum the ray
    it ends on, with c . r > 0, is met.  As sum(x) grows along every
    recession direction, a ray is met iff the region is unbounded.  The work
    still grows with the bases these edges reach: 6,867 pivots for the one
    vertex of ``instances.ordered_cone(6)``.
    """
    if p.start is None:
        return (), (), frozenset()
    return _explore(p, p.start, 0)


def _explore(
    p: Polytope, start: Dictionary, fixed: int
) -> tuple[tuple[Key, ...], tuple[frozenset[int], ...], frozenset[Key]]:
    """The vertices' keys, sorted, their zero sets (the columns not basic at
    a nonzero value), aligned, and the primitive x-parts of the rays met, by
    a search over the feasible bases of [A | I] y = b from the feasible
    dictionary ``start`` that keep every column of the bitmask ``fixed``
    nonbasic, each visited once, keyed by the bitmask of its columns, at one
    ``pivot``.  Those bases are the feasible bases of the system without the
    fixed columns, the face where they are 0, so the search lists that
    face's vertices (``_search``'s argument, on the smaller system).

    A basis over d is at x / d, x its basic x-columns' values: key (x, d)
    over their gcd, d > 0, with the zero set of the first basis met there.
    x over the keys' common denominator sorts them.  Each nonbasic column j
    enters on Bland's row, the tied minimum-ratio row of lowest basic index
    (``linalg.leaving_row``), or is a ray if it has none: x-part r / d >= 0
    (as x >= 0), r_j = d if j < k and r_c = -rows[i][j] for each basic
    x-column c = basis[i], kept primitive so that each direction is kept once.
    """
    k = p.dim
    n = k + len(p.a)
    everything = frozenset(range(n))
    free = [j for j in range(n) if not fixed >> j & 1]
    mask = sum(1 << c for c in start[0])
    stack = [(mask, *start)]
    seen = {mask}
    found: dict[Key, frozenset[int]] = {}
    rays: set[Key] = set()
    while stack:
        mask, basis, rows, d = stack.pop()
        x = [0] * k + [d]
        for c, row in zip(basis, rows):
            if c < k:
                x[c] = row[-1]
        key = _primitive(x, d)
        if key not in found:
            found[key] = everything.difference(c for c, row in zip(basis, rows) if row[-1])
        for j in free:
            if mask >> j & 1:
                continue
            i = leaving_row(rows, basis, j, d)
            if i is None:
                r = [d if c == j else 0 for c in range(k)]
                for c, row in zip(basis, rows):
                    if c < k:
                        r[c] = -row[j]
                rays.add(_primitive(r, d))
                continue
            neighbour = mask ^ 1 << basis[i] ^ 1 << j
            if neighbour not in seen:
                seen.add(neighbour)
                after = list(rows)
                changed = basis.copy()
                changed[i] = j
                stack.append((neighbour, changed, after, pivot(after, i, j, d)))
    scale = math.lcm(*(key[-1] for key in found))
    keys = sorted(found, key=lambda key: [c * (scale // key[-1]) for c in key[:-1]])
    return tuple(keys), tuple(found[key] for key in keys), frozenset(rays)


def _primitive(v: list[int], d: int) -> Key:
    """v divided by its gcd, and negated when d < 0."""
    g = math.gcd(*v) if d > 0 else -math.gcd(*v)
    return tuple(c // g for c in v)


def _climb(p: Polytope, c: list[int]) -> Dictionary | None:
    """Bland's rule maximizing the integer c . x from ``start``, which must
    exist: the optimal dictionary with its cost row below it, or None when
    the rule ends on a ray, as it does iff c . x has no finite maximum.

    Over start's d, the cost row is d (c, 0) minus c_B times the basic
    rows: d times c's reduced costs, the row that would have ridden along
    every pivot from the slack dictionary (``linalg.bland``), so each later
    ``pivot`` divides exactly.  Its last entry is -d c . x.  The start is
    not touched: ``pivot`` leaves its rows as they are."""
    basis, rows, d = p.start
    k = p.dim
    cost = [d * a for a in c] + [0] * (len(rows[0]) - k)
    for col, row in zip(basis, rows):
        if col < k and c[col]:
            cost = [a - c[col] * b for a, b in zip(cost, row)]
    rows = [*rows, cost]
    basis = basis.copy()
    d = bland(rows, basis, d, len(basis))
    return None if d is None else (basis, rows, d)


def face_of(p: Polytope, c: list[int]) -> Face:
    """The vertices of a nonempty region where the integer c . x attains its
    maximum, sorted, and their zero sets, aligned; UnboundedObjective when
    it has none.  Once the region has walked, both are read off ``walk``:
    c . x has no maximum iff c . r > 0 for a ray r met (``_search``), and
    the face is the keys (x, d) of best c . x / d, compared in integers.
    Otherwise ``_climb`` to an optimal dictionary, where c . x is its
    maximum minus a nonnegative combination of the columns of nonzero
    reduced cost, and ``_explore`` the face where those are 0, building
    ``Fraction``s for its vertices alone.  Both give one face, in one order."""
    if p.walked:
        keys, zero_sets, rays = p.walk
        if any(sum(a * b for a, b in zip(c, r)) > 0 for r in rays):
            raise UnboundedObjective("objective has no finite maximum on the region")
        scale = math.lcm(*(key[-1] for key in keys))
        # zip stops at len(c), so each key's d is left out of its sum.
        values = [sum(a * x for a, x in zip(c, key)) * (scale // key[-1]) for key in keys]
        best = max(values)
        face = [i for i, value in enumerate(values) if value == best]
        return tuple(p.vertices[i] for i in face), tuple(zero_sets[i] for i in face)
    top = _climb(p, c)
    if top is None:
        raise UnboundedObjective("objective has no finite maximum on the region")
    basis, rows, d = top
    fixed = sum(1 << j for j, a in enumerate(rows.pop()[:-1]) if a)
    keys, zero_sets, _ = _explore(p, (basis, rows, d), fixed)
    return tuple(map(_vertex, keys)), zero_sets


def _first_feasible(p: Polytope) -> Dictionary | None:
    """A feasible dictionary of [A | I] y = b, or None iff the region is
    empty.  The slack-basis dictionary is d [A | I | b] over d > 0, the
    product of the rows' denominator LCMs (``Polytope.frame``); it
    is feasible when b >= 0.  Otherwise phase 1 adds one
    auxiliary column x0 = n with -1 in every row and a cost row for max
    -x0; x0 enters on the row of the most negative b_i, which makes the
    dictionary feasible, and Bland's rule then drives x0 to its least value.
    A positive least value proves the region empty.  Otherwise the cost row
    is dropped, and ``drive_out`` pivots x0 out if it is still basic (its row
    has a nonzero column: [A | I] has full row rank) and drops its column.
    """
    m = len(p.a)
    k = p.dim
    n = k + m
    rows, d = p.frame
    rows = [row[:k] + [d if j == i else 0 for j in range(m)] + row[k:] for i, row in enumerate(rows)]
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
        d = drive_out(rows, basis, d, n)
    return basis, rows, d


def find_interior_point(p: Polytope) -> Vector | None:
    """A point with Ax < b and x > 0 strictly, or None if the interior is empty.

    The strict system as a phase 1: Aq + s - tb = b - A1 - 1 with q, s, t >= 0
    gives A(1 + q) + (1 + s) = (1 + t)b, so x = (1 + q) / (1 + t) is strictly
    interior; and any interior point, scaled up, gives such q, s and t.
    The system's rows are built from ``p.frame``: they have the common
    denominator d of [A | b], so the phase 1 over d makes the rational
    pivots, as ``alternative`` over ``integer_frame`` of the system would.
    """
    frame, d = p.frame
    m = len(frame)
    rows = [
        row[:-1] + [d if j == i else 0 for j in range(m)] + [-row[-1], row[-1] - sum(row[:-1]) - d]
        for i, row in enumerate(frame)
    ]
    found = alternative(rows, d)[0]
    if found is None:
        return None
    y, d = found
    return tuple(ratio(d + q, d + y[-1]) for q in y[: p.dim])


def nonempty(p: Polytope) -> bool:
    """True when some x >= 0 satisfies Ax <= b."""
    return p.start is not None


def is_bounded(p: Polytope) -> bool:
    """True when the region is bounded; an empty region counts as bounded
    (``Polytope.bounded``)."""
    return p.bounded


def require_bounded(p: Polytope, what: str) -> None:
    """Raise UnboundedRegion, saying that ``what`` needs a bounded region,
    unless the region is bounded."""
    if not is_bounded(p):
        raise UnboundedRegion(f"{what} needs a bounded region, and this one is unbounded")


def face_vertex_sets(p: Polytope) -> tuple[tuple[Vector, ...], ...]:
    """Vertex sets of every nonempty face of a bounded region, sorted: the
    vertices of each face of ``Polytope.faces``."""
    vertices = p.vertices
    return tuple(tuple(vertices[i] for i in face) for face in p.faces)


def vertex_zero_sets(p: Polytope, points: tuple[Vector, ...]) -> tuple[frozenset[int], ...]:
    """Each point's zero set, read off the vertex search; ValueError names a
    point that is not a vertex."""
    index = {v: i for i, v in enumerate(p.vertices)}
    if missing := [x for x in points if tuple(x) not in index]:
        raise ValueError(f"({', '.join(map(str, missing[0]))}) is not a vertex of the region")
    return tuple(p.zero_sets[index[tuple(x)]] for x in points)


def optimal_face_vertices(p: Polytope, c: Vector) -> tuple[Vector, ...]:
    """The vertices of ``optimal_face``."""
    return optimal_face(p, c)[0]


def optimal_face(p: Polytope, c: Vector) -> Face:
    """``face_of`` c scaled to integers, which keeps its maximizers.  Raises
    TypeError on an entry of c that is neither an int nor a Fraction,
    ValueError on a c of the wrong length, InfeasibleRegion on an empty
    region, and UnboundedObjective when c . x has no finite maximum."""
    require_rational((c,), "c".format)
    if len(c) != p.dim:
        raise ValueError(f"c has {len(c)} entries and the region {p.dim} columns")
    if p.start is None:
        raise InfeasibleRegion("region is empty")
    return face_of(p, integer_rows((c,))[0])
