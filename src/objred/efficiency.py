"""Efficiency for linear multiobjective maximization.

Holds the objective stack (``ObjectiveStack``, with its step-0 combinations
and its step-1 direction), the cone test (``find_cone_point``), the point
efficiency test (``efficient_at``, after Isermann 1974), the face sweep
(``efficient_point_outside``) and the equalizing weights.  Each test is one
integer phase 1 (``linalg.alternative``), whose end point or Farkas vector
is its certificate.  The efficiency test reads only a point's zero set and
keeps each certificate on the region, one record per set of stack rows
(``Polytope.certificates``, laid out by ``_record``), which answers later
zero sets it settles with no phase 1.  The vertices of a walked region are
tested in turn by ``vertex_efficiency``, which answers "no" with no phase 1
for a vertex that one anchor vertex dominates.  It relies on a positive
scale of an objective keeping the efficient set, and of a tight row the
normal cone.  README, "Library quickstart", has the design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import InfeasibleInput
from .linalg import (
    Matrix,
    Vector,
    alternative,
    integer_frame,
    integer_rows,
    mat_vec,
    ratio,
    require_rational,
    vsub,
)
from .polytope import Key, Polytope, require_bounded, zero_set


@dataclass(frozen=True)
class ObjectiveStack:
    """Rows are objective gradients; F(x) stacks their values at x."""

    rows: Matrix

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("need at least one objective")
        widths = {len(row) for row in self.rows}
        if len(widths) != 1 or widths == {0}:
            raise ValueError("objective rows must share a positive length")
        require_rational(self.rows, "rows[{}]".format)

    @cached_property
    def row_set(self) -> frozenset[Vector]:
        """The key of the stack's record in ``Polytope.certificates``: the
        efficient set depends on the set of rows alone, not on their order
        or repeats.  Built on the first efficiency test, and once, so that
        each lookup hashes no Fraction."""
        return frozenset(self.rows)

    @cached_property
    def image(self) -> list[list[int]]:
        """The rows scaled to integers (``integer_rows``), which step 0 and
        every efficiency test read: built on first use, and once, and handed
        down by ``drop``.  A positive scale of a row keeps the efficient set
        and the multipliers' support.  Not to be mutated."""
        return integer_rows(self.rows)

    @cached_property
    def direction(self) -> Vector | None:
        """The step-1 direction of the stack, ``find_cone_point`` on its rows
        in their order: built on first use, and once, so that every
        candidate of a reduce pass reads one."""
        return find_cone_point(self.rows)

    @cached_property
    def combinations(self) -> dict[int, tuple[Vector | None, list[int] | None]]:
        """``combination``'s answer for each row it has been asked about."""
        return {}

    @property
    def count(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def values(self, x: Vector) -> Vector:
        return mat_vec(self.rows, x)

    def _check_index(self, k: int) -> None:
        """Refuse a row index that is not an int (a bool too) or not in
        0..count - 1, before it slices or keys a cache."""
        if isinstance(k, bool) or not isinstance(k, int):
            raise TypeError(f"objective index is a {type(k).__name__}, not an int")
        if not 0 <= k < self.count:
            raise IndexError(f"objective index {k} out of range 0..{self.count - 1}")

    def combination(self, k: int) -> tuple[Vector | None, list[int] | None]:
        """Step 0 for row k, once per row: (alpha, None) with alpha >= 0 and
        sum_i alpha_i c_i = c_k over the other rows, or (None, z) with z the
        Farkas vector of their "no": c_i . z <= 0 on every other row and
        c_k . z > 0.

        The system has one equation per column, sum_i y_i s_i c_i = s_k c_k
        on the image's rows s_i c_i, over the frame d = 1.  That is the
        system on the rows themselves with column i scaled by s_i > 0 and
        the right-hand side by s_k, so Bland's rule takes the same pivots to
        the same basis, and alpha_i = y_i s_i / (d s_k) is the same point."""
        self._check_index(k)
        known = self.combinations
        if k not in known:
            image = self.image
            found, z = alternative([list(column) for column in zip(*image[:k], *image[k + 1 :], image[k])])
            if found is None:
                known[k] = None, z
            else:
                y, d = found
                scale = [math.lcm(*(a.denominator for a in row)) for row in self.rows]
                s_k = scale.pop(k)
                known[k] = tuple(ratio(v * s, d * s_k) for v, s in zip(y, scale)), None
        return known[k]

    def drop(self, index: int) -> "ObjectiveStack":
        """The stack without row ``index``, with its image.  What efficiency
        tests of those rows found is kept on the region by row set, so a
        stack built here anew reads all of it.

        When this stack is known to have no step-1 direction and row
        ``index`` to be a combination of the others, the kept stack has
        none either, and gets that "no" with no cone test: step 1's "no" is
        some y > 0 with sum_i y_i c_i = 0, and c_index = sum_i alpha_i c_i
        with alpha >= 0, so y_i + y_index alpha_i > 0 is the kept stack's.
        Both facts are read off the caches, never computed."""
        self._check_index(index)
        kept = _checked(tuple(row for i, row in enumerate(self.rows) if i != index))
        # A cached property keeps its value in the instance's __dict__.
        kept.__dict__["image"] = self.image[:index] + self.image[index + 1 :]
        if self.__dict__.get("direction", ()) is None and self.combinations.get(index, (None,))[0] is not None:
            kept.__dict__["direction"] = None
        return kept


def _checked(rows: Matrix) -> ObjectiveStack:
    """The stack of ``rows``, which some stack's ``__post_init__`` has
    already checked, built without checking them again."""
    stack = object.__new__(ObjectiveStack)
    object.__setattr__(stack, "rows", rows)  # as the frozen dataclass's __init__ does
    return stack


def find_cone_point(c: Matrix) -> Vector | None:
    """Some x with Cx >= 0 and Cx != 0, or None when no such x exists.

    By Stiemke's lemma one exists iff no y > 0 has C^T y = 0: Isermann's
    test with nothing tight, on C's rows scaled to integers (which keeps
    y > 0 and the cone).  The Farkas vector z of its "no" has c_i . z <= 0
    on every row and -sum_i c_i . z > 0, so x = -z, scaled to a primitive
    integer vector; it depends on the order of C's rows alone.
    """
    z = alternative(_isermann(integer_rows(c), [], []))[1]
    return None if z is None else opposite(z)


def opposite(z: list[int]) -> Vector:
    """-z over the gcd of its entries, for a Farkas vector z != 0: the
    primitive integer direction it gives, as Fractions."""
    g = math.gcd(*z)
    return tuple(ratio(-a // g, 1) for a in z)


def _isermann(objectives: list[list[int]], tight: list[list[int]], at_zero: list[int]) -> list[list[int]]:
    """The rows of the phase 1 of ``is_efficient`` on integer rows F and A_T
    and zero coordinates J: F^T mu - A_T^T u + E_J w = -F^T 1, mu, u, w >= 0."""
    return [
        [row[j] for row in objectives]
        + [-row[j] for row in tight]
        + [int(i == j) for i in at_zero]
        + [-sum(row[j] for row in objectives)]
        for j in range(len(objectives[0]))
    ]


def is_efficient(p: Polytope, f: ObjectiveStack, x0: Vector) -> bool:
    """Whether x0 is efficient: no feasible x has F(x) >= F(x0), F(x) != F(x0).

    By Isermann's theorem x0 is efficient exactly when some strictly positive
    weighting l of the objectives is maximized at x0, that is, when F^T l
    lies in the normal cone of the region at x0.  That cone is spanned by
    the rows a_i tight at x0 and by -e_j for x0_j = 0: by x0's zero set.
    Writing l = 1 + mu with mu >= 0, the test is one phase-1 problem with a
    row per variable: F^T mu - A_T^T u + E_J w = -F^T 1, mu, u, w >= 0,
    decided on integers: x0 is efficient iff ``linalg.alternative`` finds no
    Farkas vector.
    F enters as the stack's ``image``, each row times the LCM of its own
    denominators, and A_T as rows of ``Polytope.frame``, [A | b] times one
    common denominator: a positive scale of an objective keeps the efficient
    set, and one of a tight row keeps the normal cone.  Holds on unbounded
    regions as well as bounded ones.
    Raises ValueError when the stack's width or x0's length is not the
    region's dimension, and TypeError on an entry of x0 that is neither an
    int nor a Fraction.
    """
    require_rational((x0,), "x0".format)
    if len(x0) != p.dim:
        raise ValueError(f"x0 has {len(x0)} entries and the region {p.dim} columns")
    zeros = zero_set(p, x0)
    if zeros is None:
        raise InfeasibleInput("point is not in the region")
    return efficient_at(p, f, zeros)


def efficient_at(p: Polytope, f: ObjectiveStack, zeros: frozenset[int]) -> bool:
    """``is_efficient`` at a point of zero set ``zeros``, such as a vertex's
    in ``p.zero_sets``.

    The answer is read off the record of f's row set (``_record``) when a
    certificate there settles ``zeros``; otherwise one phase 1 decides it,
    and its certificate, which settles ``zeros`` too, joins the record:

    - A "yes" ends at a point (mu, u, w) / d.  With l = 1 + mu / d > 0,
      d l^T F = sum_i u_i a_i - sum_j w_j e_j, so every feasible x has
      d l^T F x <= sum_i u_i b_i, with equality exactly where x is tight
      on the columns of positive u_i or w_j: the support S, a subset of
      ``zeros``.  Every point of a zero set that contains S maximizes
      l^T F, so it is efficient (Isermann 1974): ``_supporting``.
    - A "no" ends with a Farkas vector z: F . z <= 0 with 1^T F . z < 0,
      a_i . z >= 0 on each tight row and z_j <= 0 on each zero coordinate,
      so d = -z improves F semipositively and stays feasible at every
      point of a zero set it covers, ``zeros`` among them: ``_covering``."""
    if f.dim != p.dim:
        raise ValueError(f"the stack has {f.dim} columns and the region {p.dim}")
    if _supporting(p, f, zeros) is not None:
        return True
    if _covering(p, f, zeros) is not None:
        return False
    tight = [c for c in zeros if c >= p.dim]
    at_zero = [c for c in zeros if c < p.dim]
    rows = p.frame[0]
    found, z = alternative(_isermann(f.image, [rows[c - p.dim] for c in tight], at_zero))
    supports, directions = _record(p, f)
    if found is not None:
        multipliers = found[0][f.count :]
        supports.append(frozenset(c for c, m in zip(tight + at_zero, multipliers) if m > 0))
        return True
    d = [-a for a in z]
    # zip stops at len(d), so row[-1] (b_i) is left out of the sum.
    covered = frozenset(
        [j for j, a in enumerate(d) if a >= 0]
        + [p.dim + i for i, row in enumerate(rows) if sum(a * b for a, b in zip(row, d)) <= 0]
    )
    directions.append((d, covered))
    return False


def _record(p: Polytope, f: ObjectiveStack) -> tuple[list[frozenset[int]], list[tuple[list[int], frozenset[int]]]]:
    """The record of f's row set in ``p.certificates``, made empty on first
    use: the supports of its "yes"s, and each "no"'s direction d with the
    columns it covers.  d covers j < k when d_j >= 0 and k + i when
    a_i . d <= 0 on row i of ``Polytope.frame`` (a positive scale of a_i)."""
    return p.certificates.setdefault(f.row_set, ([], []))


def _supporting(p: Polytope, f: ObjectiveStack, zeros: frozenset[int]) -> frozenset[int] | None:
    """The first support in f's record that ``zeros`` contains, or None.  A
    point of such a zero set is tight on every column of the support, so it
    maximizes the weighted sum l^T F of the "yes" that found it, with l > 0:
    it is efficient."""
    return next((s for s in _record(p, f)[0] if s <= zeros), None)


def _covering(p: Polytope, f: ObjectiveStack, zeros: frozenset[int]) -> list[int] | None:
    """The first direction d in f's record that covers every column of
    ``zeros``, or None.  At a point of such a zero set x + eps d is feasible
    for a small eps > 0, and F . d >= 0 with 1^T F . d > 0, so the point is
    not efficient."""
    return next((d for d, covered in _record(p, f)[1] if zeros <= covered), None)


def vertex_efficiency(p: Polytope, f: ObjectiveStack) -> Iterator[bool]:
    """Whether each vertex of the region is efficient for f, in the order of
    ``p.vertices``, one answer per step.

    The record of f's row set answers first (``_supporting``,
    ``_covering``).  A vertex it does not settle is compared with one
    anchor, the vertex of greatest sum of f's ``image``: when the anchor's
    F is at least as high everywhere and higher somewhere, the vertex is
    not efficient, with no phase 1.  The anchor is feasible, so that holds
    on unbounded regions too.  Only the vertices left go to
    ``efficient_at``.  A dominance answer does not join the record."""
    if f.dim != p.dim:
        raise ValueError(f"the stack has {f.dim} columns and the region {p.dim}")
    keys = p.walk[0]
    image = f.image
    anchor = None
    for key, zeros in zip(keys, p.zero_sets):
        if _supporting(p, f, zeros) is not None:
            yield True
        elif _covering(p, f, zeros) is not None:
            yield False
        else:
            if anchor is None:
                anchor = _anchor(image, keys)
            yield not _dominates(image, anchor, key) and efficient_at(p, f, zeros)


def _anchor(image: list[list[int]], keys: tuple[Key, ...]) -> tuple[list[int], int]:
    """(F x, d) on the integer rows ``image`` at the key (x, d) of greatest
    sum of the rows' values x / d, the first of those in ``keys``: values
    over two keys' d > 0 compare by cross-multiplying."""
    # zip stops at len(sums), so each key's d is left out of its sum.
    sums = [sum(column) for column in zip(*image)]
    best = keys[0]
    top = sum(a * x for a, x in zip(sums, best))
    for key in keys[1:]:
        value = sum(a * x for a, x in zip(sums, key))
        if value * best[-1] > top * key[-1]:
            best, top = key, value
    return [sum(a * x for a, x in zip(row, best)) for row in image], best[-1]


def _dominates(image: list[list[int]], anchor: tuple[list[int], int], key: Key) -> bool:
    """Whether the anchor's F is at least F at the key (x, d) in every row
    and above it in some row, in integers: each side over the other's d."""
    values, e = anchor
    d = key[-1]
    # zip stops at len(row), so the key's d is left out of each sum.
    gaps = [a * d - sum(c * x for c, x in zip(row, key)) * e for a, row in zip(values, image)]
    return min(gaps) >= 0 and max(gaps) > 0


def efficient_vertices(p: Polytope, f: ObjectiveStack) -> tuple[Vector, ...]:
    """The efficient vertices of the region, sorted lexicographically."""
    return tuple(v for v, efficient in zip(p.vertices, vertex_efficiency(p, f)) if efficient)


def efficient_point_outside(
    p: Polytope, outer: ObjectiveStack, inner: ObjectiveStack
) -> Vector | None:
    """A point efficient under the outer stack but not under the inner one,
    or None when every outer-efficient point is inner-efficient.

    The efficient set of a bounded region is a union of faces, and a face is
    efficient exactly when the centroid of its vertices is, whose zero set is
    the meet of theirs: a centroid is built only for the face returned.
    Faces whose vertices are not all outer-efficient cannot be
    outer-efficient and are skipped, so with fewer than two outer-efficient
    vertices no face is left to test and the lattice is not built.  Raises
    UnboundedRegion on an unbounded region, where a face need not be
    spanned by its vertices.
    """
    require_bounded(p, "the face-by-face efficiency sweep")
    vertices, zero_sets = p.vertices, p.zero_sets
    outer_eff = list(vertex_efficiency(p, outer))
    for v, zeros, efficient in zip(vertices, zero_sets, outer_eff):
        if efficient and not efficient_at(p, inner, zeros):
            return v
    if sum(outer_eff) < 2:
        return None
    for face in p.faces:
        if len(face) < 2 or not all(outer_eff[i] for i in face):
            continue
        zeros = frozenset.intersection(*(zero_sets[i] for i in face))
        if efficient_at(p, outer, zeros) and not efficient_at(p, inner, zeros):
            size = Fraction(len(face))
            return tuple(sum(column) / size for column in zip(*(vertices[i] for i in face)))
    return None


def equalizing_weights(f: ObjectiveStack, points: tuple[Vector, ...]) -> Vector | None:
    """Strictly positive weights summing to one that give every listed point
    the same weighted objective value, or None when no such weights exist.

    With l = 1 + mu, the weights are a Stiemke point of the rows
    F(v_0) - F(v_i): mu >= 0 with M mu = -M 1, the end point of one phase 1.
    """
    if not points:
        raise ValueError("need at least one point")
    first = f.values(points[0])
    rows = [vsub(first, f.values(v)) for v in points[1:]]
    found = alternative(*integer_frame(row + (-sum(row),) for row in rows))[0] if rows else ([0] * f.count, 1)
    if found is None:
        return None
    mu, d = found
    total = sum(mu) + d * f.count
    return tuple(ratio(d + m, total) for m in mu)
