"""Exact linear algebra over the rationals, run on integers.

Vectors and matrices are tuples of ``fractions.Fraction``.  Every
elimination and every simplex step is ``pivot``, one fraction-free
Gauss–Jordan step (Bareiss; as in ``lrs``): each entry stays a minor of the
row-scaled input, so each division is exact, and a ``Fraction`` is built
only for a result (``ratio``).  That holds only over a frame d, a multiple
of the rows' denominators (``integer_frame``), which ``phase1`` checks.
``bland`` runs Bland's rule with ``leaving_row`` as its tie-break, and
``phase1``, ``drive_out`` and ``alternative`` build on it.  README,
"Library quickstart", has the design.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# (basis, rows, d): rows[i] / d is the dictionary row of basic column
# basis[i], and its last entry is that column's value.
Dictionary = tuple[list[int], list[list[int]], int]

# The small rationals, one shared object each, as the interpreter shares its
# small ints: most entries of the inputs and certificates a run keeps are
# small, and each Fraction object takes 48 bytes.
_SMALL = {
    (p, q): Fraction(p, q) for q in range(1, 13) for p in range(-12, 13) if math.gcd(p, q) == 1
}
ZERO = _SMALL[0, 1]
ONE = _SMALL[1, 1]
_RATIONAL = frozenset((int, Fraction))


def ratio(n: int, d: int) -> Fraction:
    """n / d for integers n and d != 0, as a shared object when it is a
    small rational."""
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    q = _SMALL.get((n // g, d // g))
    return Fraction(n, d) if q is None else q


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot of vectors of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def mat_vec(m: Matrix, x: Sequence[Fraction]) -> Vector:
    return tuple(dot(row, x) for row in m)


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in u)


def _normalized(u: Sequence[Fraction]) -> Vector:
    """Scale so the first nonzero component is +1 (zero vectors pass through)."""
    for a in u:
        if a != 0:
            return vscale(ONE / a, u)
    return tuple(u)


def require_rational(rows: Sequence[Sequence[object]], row_name: Callable[[int], str]) -> None:
    """Raise a TypeError at an entry of rows that is neither an int nor a
    Fraction, naming it ``row_name(i)[j]``.  One pass over the entries'
    types clears the usual input; only a failing one is searched."""
    if _RATIONAL.issuperset(map(type, chain.from_iterable(rows))):
        return
    for i, row in enumerate(rows):
        for j, a in enumerate(row):
            if not isinstance(a, (int, Fraction)):
                raise TypeError(f"{row_name(i)}[{j}] is a {type(a).__name__}, not an int or a Fraction")


def integer_rows(m: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the LCM of its denominators; keeps solutions and kernels."""
    out = []
    for row in m:
        lcm = math.lcm(*(a.denominator for a in row))
        out.append([a.numerator * (lcm // a.denominator) for a in row])
    return out


def pivot(rows: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free Gauss–Jordan step on rows[r][c], in place.

    ``prev`` is the previous pivot (1 before the first).  Every other row
    becomes ``(p * row - row[c] * top) // prev`` with ``top = rows[r]`` and
    ``p = top[c]``: ``p * row // prev`` when its row[c] is 0, and the row
    itself when p == prev as well.  The pivot row is left as it is.  A row
    is never changed in place, only replaced by a new list, so a shallow
    copy of ``rows`` keeps the old state, though the rows left as they are
    stay shared with it.  Returns p, the ``prev`` of the next step.
    """
    top = rows[r]
    p = top[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f:
            if i != r:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        elif p != prev:
            rows[i] = [p * a // prev for a in row]
    return p


def bland(rows: list[list[int]], basis: list[int], d: int, cost: int) -> int | None:
    """Bland's rule on the dictionary ``rows[:len(basis)]`` over ``d``,
    maximizing the cost row ``rows[cost]``, in place.  Every row below the
    dictionary rides along in each pivot but stays out of the ratio test.
    The entering column is the lowest one whose reduced cost ``rows[cost][j]
    / d`` is positive, and the leaving row is ``leaving_row``'s.  Returns
    the final pivot at an optimum, where no reduced cost is positive, and
    None at a ray: an entering column with no leaving row."""
    last = len(rows[cost]) - 1
    while True:
        costs = rows[cost]
        for j in range(last):
            if costs[j] * d > 0:
                break
        else:
            return d
        r = leaving_row(rows, basis, j, d)
        if r is None:
            return None
        d = pivot(rows, r, j, d)
        basis[r] = j


def drive_out(rows: list[list[int]], basis: list[int], d: int, width: int) -> int:
    """After a phase 1 that reached 0, pivot each artificial column still
    basic (``basis[i] >= width``, at value 0) out of the dictionary on the
    lowest nonzero column of its row below ``width``; a row with none is
    redundant and is deleted.  Then every row keeps its first ``width``
    columns and its last entry.  In place; returns the final pivot."""
    for i in reversed(range(len(basis))):
        if basis[i] >= width:
            j = next((j for j in range(width) if rows[i][j]), None)
            if j is None:
                del rows[i], basis[i]
            else:
                d = pivot(rows, i, j, d)
                basis[i] = j
    rows[:] = [row[:width] + row[-1:] for row in rows]
    return d


def integer_frame(m: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """(rows, d): m's rows times d, the product of their denominator LCMs.
    With unit columns (d in their row) as basis, ``pivot`` repeats rational
    pivots on m: each entry stays d times a minor, an integer."""
    m = list(m)
    d = math.prod(math.lcm(*(a.denominator for a in row)) for row in m)
    return [[a.numerator * (d // a.denominator) for a in row] for row in m], d


def phase1(rows: list[list[int]], d: int, riders: Sequence[list[int]] = ()) -> Dictionary:
    """Phase 1 of Bland's rule for y >= 0 with ``row[:-1] . y = row[-1]``
    over d > 0: rows with b < 0 negated, one artificial column (d in its
    row) per row, whose sum is minimized from their basis.  Each of
    ``riders`` (an objective, say; with no rows, they give the width) rides
    along below the dictionary with zero artificial entries.  The final
    dictionary's last row, the cost row, ends at that least sum times d.

    Raises ValueError unless d is a multiple of the product over the rows
    of d / gcd(d, row): the rows' rational images ``row / d`` have those
    denominators, and over a smaller d a ``pivot`` would truncate.  The
    frame d = 1 needs no check."""
    if d != 1 and (d < 1 or d % math.prod(d // math.gcd(d, *row) for row in rows)):
        raise ValueError(f"{d} is not a frame of the rows: not a positive multiple of their denominators")
    m = len(rows)
    n = len((rows or riders)[0]) - 1
    zeros = [0] * m
    tableau = []
    for r, row in enumerate(rows):
        unit = zeros.copy()
        unit[r] = d
        b = row[-1]
        tableau.append(row[:-1] + unit + [b] if b >= 0 else [-a for a in row[:-1]] + unit + [-b])
    # The cost row sums the rows, with 0 in the artificial columns.
    sums = [sum(column) for column in zip(*tableau)] or [0] * (n + 1)
    sums[n:-1] = zeros
    tableau.extend([*(row[:-1] + zeros + row[-1:] for row in riders), sums])
    basis = list(range(n, n + m))
    return basis, tableau, bland(tableau, basis, d, len(tableau) - 1)  # max -sum <= 0 is never unbounded


def alternative(rows: list[list[int]], d: int = 1) -> tuple[tuple[list[int], int] | None, list[int] | None]:
    """Farkas's alternative for y >= 0 with ``row[:-1] . y = row[-1]`` on the
    integer rows over a frame d > 0 (1, or ``integer_frame``'s d), decided
    by one ``phase1``.  When there
    is a solution: ((y, d'), None), where y / d' is the point it ends at.
    Otherwise: (None, z) with z . column <= 0 on every column and
    z . rhs > 0, read off the cost row.  That row starts as the sum of the
    rows, each row with b < 0 negated (s_i = -1, else 1), and each pivot
    subtracts a multiple of a row; artificial i starts at 0 and is nonzero
    in row i alone.  So the final row is sum_i (1 + u_i) s_i row_i / d, where
    u_i is artificial i's entry over the final pivot d'.  At a positive least
    sum it is nowhere positive and its right-hand side is positive:
    z_i = s_i (1 + u_i), returned times d' > 0, whatever the frame d."""
    basis, tableau, d = phase1(rows, d)
    cost = tableau[-1]
    n = len(cost) - 1 - len(rows)
    if cost[-1]:
        return None, [d + u if row[-1] >= 0 else -d - u for row, u in zip(rows, cost[n:-1])]
    values = {c: row[-1] for c, row in zip(basis, tableau)}
    return ([values.get(j, 0) for j in range(n)], d), None


def leaving_row(rows: list[list[int]], basis: list[int], j: int, d: int) -> int | None:
    """Bland's leaving row for column j of the dictionary ``rows[:len(basis)]``
    over d: of the rows with a positive entry (``rows[i][j] / d > 0``) that
    attain the minimum ratio ``rows[i][-1] / rows[i][j]``, the one of lowest
    basic index ``basis[i]``; None for a ray."""
    best = None
    for i, (c, row) in enumerate(zip(basis, rows)):
        a = row[j]
        if a * d <= 0:
            continue
        if best is not None:
            # a and best_a have the sign of d, so cross-multiplying keeps the order.
            diff = row[-1] * best_a - best_b * a
            if diff > 0 or diff == 0 and c > best_c:
                continue
        best, best_c, best_a, best_b = i, c, a, row[-1]
    return best


def eliminate(rows: list[list[int]], n_cols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss–Jordan on integer rows, in place.

    Pivots are taken left to right in the first ``n_cols`` columns; later
    columns ride along.  Returns (rows, pivot columns, final pivot d): row i
    has pivot ``pivots[i]``, and ``rows[i] / d`` is row i of the reduced
    row echelon form.
    """
    n_rows = len(rows)
    pivots: list[int] = []
    prev = 1
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prev = pivot(rows, r, c, prev)
        pivots.append(c)
    return rows, pivots, prev


def null_space(m: Matrix) -> list[Vector]:
    """Basis of {x : m x = 0}; empty list iff the kernel is trivial.

    Basis vectors are normalized so their first nonzero component is +1,
    which makes the output deterministic and directly comparable.
    """
    if not m:
        return []
    n_cols = len(m[0])
    rows, pivots, d = eliminate(integer_rows(m), n_cols)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [0] * n_cols
        v[f] = d
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(_normalized(v))
    return basis


def span_basis(vs: Sequence[Vector]) -> list[Vector]:
    """Maximal linearly independent subset of vs, greedy in input order
    (the pivot columns of the matrix whose columns are vs)."""
    if not vs:
        return []
    return [vs[c] for c in eliminate(integer_rows(zip(*vs)), len(vs))[1]]


def intersect_spans(b1: Sequence[Vector], b2: Sequence[Vector]) -> list[Vector]:
    """Basis of span(b1) ∩ span(b2); empty list iff the intersection is {0}.

    Uses the stacked-coefficient construction: kernel vectors (lam, mu) of
    the matrix whose columns are b1 and -b2 satisfy sum(lam_i b1_i) =
    sum(mu_j b2_j), i.e. they parameterize the intersection.
    """
    if not b1 or not b2:
        return []
    dim = len(b1[0])
    if any(len(v) != dim for v in (*b1, *b2)):
        raise ValueError("spanning vectors differ in dimension")
    stacked = tuple(
        tuple(v[i] for v in b1) + tuple(-v[i] for v in b2) for i in range(dim)
    )
    lams = [coeffs[: len(b1)] for coeffs in null_space(stacked)]
    # Kernel vectors with lam = 0 give zero points, which span_basis skips.
    members = [tuple(dot(lam, column) for column in zip(*b1)) for lam in lams]
    return [_normalized(v) for v in span_basis(members)]


def solve_square(m: Matrix, rhs: Vector) -> Vector | None:
    """Unique solution of a square system m x = rhs, or None if singular."""
    n = len(m)
    if any(len(row) != n for row in m) or len(rhs) != n:
        raise ValueError("solve_square needs an n x n matrix and n right-hand sides")
    rows, pivots, d = eliminate(integer_rows(tuple(r) + (b,) for r, b in zip(m, rhs)), n)
    if len(pivots) < n:
        return None
    return tuple(Fraction(row[n], d) for row in rows)
