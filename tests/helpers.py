"""Fixture problems, the example problems of ``problems/``, the independent
efficiency and essentiality oracles, the metamorphic relations and the
classify-each-pass reference of a reduce, the plain ``Fraction``
elimination references, the two-LP region checks, the LP-based efficiency
and optimal-face references, the LP-only step-0 to step-4 tests, the
``Fraction`` zero-set and face references and the externally priced
simplex reference shared by tests."""

import json
from fractions import Fraction
from pathlib import Path

from objred import MolpProblem, ObjectiveStack, Outcome, Polytope, classify, reduce_objectives, verify
from objred.errors import InfeasibleInput, InfeasibleRegion, UnboundedObjective, UnboundedRegion
from objred.linalg import ONE, ZERO, Vector, dot
from objred.polytope import contains
from objred.simplex import (
    LpOutcome,
    LpProblem,
    LpStatus,
    Relation,
    VarKind,
    solve,
)


PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def fvec(xs):
    return tuple(Fraction(x) for x in xs)


def frows(*rs):
    return tuple(fvec(r) for r in rs)


def _raise_on_lp(*args, **kwargs):
    """Monkeypatched over an LP or phase-1 entry point that must not run."""
    raise AssertionError("an LP or a phase 1 was run")


SEGMENT = Polytope(frows([1, 1], [-1, -1]), fvec([1, -1]))
SQUARE = Polytope(frows([1, 0], [0, 1]), fvec([1, 1]))
CUBE = Polytope(frows([1, 0, 0], [0, 1, 0], [0, 0, 1]), fvec([1, 1, 1]))


def segment_3obj():
    """Three objectives on the segment; the last is essential."""
    return MolpProblem(frows([1, 1], [1, 0], [-3, -1]), SEGMENT.a, SEGMENT.b)


def slab3_3obj():
    """3 variables, 5 rows, empty interior; all vertices efficient but the
    equal-weight criterion fails, so the last objective is essential."""
    a = frows([0, 1, 1], [0, -1, -1], [1, 1, 1], [-1, -1, -1], [1, 1, 0])
    b = fvec([2, -2, 3, -2, 2])
    return MolpProblem(frows([-1, -2, 2], [2, 3, 0], [-1, -1, -2]), a, b)


def example(stem):
    """``problems/<stem>.json`` as a MolpProblem, read with ``json`` and
    ``Fraction`` alone, so that engine tests do not rest on the parser."""
    raw = json.loads((PROBLEMS / f"{stem}.json").read_text())
    objectives = tuple(fvec(entry["coeffs"]) for entry in raw["objectives"])
    a = tuple(fvec(row["coeffs"]) for row in raw["constraints"])
    return MolpProblem(objectives, a, fvec(row["rhs"] for row in raw["constraints"]))


def segment_4obj():
    return example("segment_4obj")


def cube_3obj():
    return example("cube_3obj")


def simplex_3obj():
    return example("simplex_3obj")


def box5_4obj():
    return example("box5_4obj")


def unbounded6_3obj():
    return example("unbounded6_3obj")


def wide7_3obj():
    """7 variables, 4 rows; no optimal-face vertex of the last objective
    stays efficient, so it is essential."""
    a = frows(
        [1, 2, 1, 1, 2, 1, 2],
        [-2, -1, 0, 1, 2, 0, 1],
        [-1, 0, 1, 0, 2, 0, -2],
        [0, 1, 2, -1, 1, -2, -1],
    )
    objectives = frows(
        [1, 2, -1, 3, 2, 0, 1], [0, 1, 1, 2, 3, 1, 0], [1, 0, 1, -1, 0, -1, -1]
    )
    return MolpProblem(objectives, a, fvec([16, 16, 16, 1]))


def dominance_oracle(
    vertices: tuple, stack: ObjectiveStack, x0
) -> bool:
    """Efficiency decided from the vertex representation: on a bounded
    region, x0 is efficient iff no convex combination of vertices gives a
    componentwise-greater objective image.  Independent formulation used to
    cross-check the halfspace-based test."""
    q = len(vertices)
    n = stack.count
    base = stack.values(x0)
    images = [stack.values(v) for v in vertices]
    rows = []
    for i in range(n):
        coeff = tuple(images[j][i] for j in range(q)) + tuple(
            Fraction(-1) if t == i else ZERO for t in range(n)
        )
        rows.append((coeff, Relation.EQ, base[i]))
    rows.append(((ONE,) * q + (ZERO,) * n, Relation.EQ, ONE))
    objective = (ZERO,) * q + (ONE,) * n
    out = solve(
        LpProblem(objective, tuple(rows), (VarKind.NONNEG,) * (q + n))
    )
    assert out.status is LpStatus.OPTIMAL
    return out.value == 0


def essential_oracle(problem, candidate):
    """Whether objective ``candidate`` is essential by the paper's
    definition: deleting it changes the efficient set.  For a bounded,
    nonempty region only.  The efficient set is then a union of faces, and a
    face is efficient iff the centroid of its vertices is, so the objective
    is essential iff ``dominance_oracle`` tells the full and the reduced
    stack apart at some face centroid.  The vertices come from every basis
    (``objred.verify.vertices``) and the faces from ``faces_reference``:
    nothing here reads a ``Polytope``."""
    vertices = tuple(sorted(verify.vertices(problem.a, problem.b)))
    full = ObjectiveStack(problem.objectives)
    reduced = ObjectiveStack(tuple(row for i, row in enumerate(problem.objectives) if i != candidate))
    for face in faces_reference(vertices, problem.a, problem.b):
        size = Fraction(len(face))
        centroid = tuple(sum(column) / size for column in zip(*face))
        if dominance_oracle(vertices, full, centroid) != dominance_oracle(vertices, reduced, centroid):
            return True
    return False


# The metamorphic relations of essentiality: it depends on the region and
# on the objectives' efficient sets alone, so every change here keeps each
# candidate's outcome, step and relation (a permutation of the objectives
# moves the candidate with its row), and a reduce's removals and survivors
# under a permutation of the variables.


def changed_problem(problem, change, rng, index=None):
    """``problem`` with its "variables", its "rows" or its "objectives"
    permuted, one row of [A | b] ("row scale") or one objective ("objective
    scale") scaled by a positive factor, or the sum of two rows added
    ("redundant row"), with each choice drawn from ``rng``.  A scale takes
    the row or objective ``index``, or one drawn when it is None."""
    objectives, a, b = problem.objectives, problem.a, problem.b
    if change == "objectives":
        return MolpProblem(tuple(rng.sample(objectives, len(objectives))), a, b)
    if change == "variables":
        order = rng.sample(range(problem.n_variables), problem.n_variables)
        return MolpProblem(
            tuple(tuple(row[j] for j in order) for row in objectives),
            tuple(tuple(row[j] for j in order) for row in a),
            b,
        )
    if change == "rows":
        order = rng.sample(range(len(a)), len(a))
        return MolpProblem(objectives, tuple(a[i] for i in order), tuple(b[i] for i in order))
    if change == "redundant row":
        i, j = rng.sample(range(len(a)), 2) if len(a) > 1 else (0, 0)
        return MolpProblem(objectives, a + (tuple(p + q for p, q in zip(a[i], a[j])),), b + (b[i] + b[j],))
    rows = {"row scale": a, "objective scale": objectives}[change]
    i = rng.randrange(len(rows)) if index is None else index
    factor = Fraction(rng.randint(1, 6), rng.randint(1, 6))
    scaled = tuple(tuple(factor * c for c in row) if r == i else row for r, row in enumerate(rows))
    if change == "objective scale":
        return MolpProblem(scaled, a, b)
    return MolpProblem(objectives, scaled, tuple(factor * c if r == i else c for r, c in enumerate(b)))


def verdict_key(problem, candidate):
    """The outcome, step and relation of ``classify``, or UnboundedRegion."""
    try:
        verdict = classify(problem, candidate)
    except UnboundedRegion:
        return UnboundedRegion
    return verdict.outcome, verdict.decided_at, verdict.relation


def reduce_key(problem):
    """The removals and survivors of ``reduce_objectives``, or UnboundedRegion."""
    try:
        result = reduce_objectives(problem)
    except UnboundedRegion:
        return UnboundedRegion
    return result.removals, result.survivors


def classify_each_pass(problem):
    """The verdicts of reduce's passes, each pass's candidates from the
    highest down until one is nonessential, each found by ``classify`` of
    that pass's problem on a fresh region."""
    rows = list(problem.objectives)
    verdicts = []
    removed = True
    while removed and len(rows) > 1:
        removed = False
        for pos in reversed(range(len(rows))):
            verdicts.append(classify(MolpProblem(tuple(rows), problem.a, problem.b), pos))
            if verdicts[-1].outcome is Outcome.NONESSENTIAL:
                del rows[pos]
                removed = True
                break
    return verdicts


# Plain Fraction Gauss-Jordan references.  The library eliminates on
# integers instead; tests require its results to equal these exactly.


def rref_reference(m):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * a for a in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def pivot_reference(rows, r, c, prev):
    """(new rows, p): ``linalg.pivot``'s step by its full formula, every row
    but the pivot row as ``(p * row - row[c] * top) // prev``, into new
    lists."""
    top = rows[r]
    p = top[c]
    new = [list(top) if i == r else [(p * a - row[c] * b) // prev for a, b in zip(row, top)] for i, row in enumerate(rows)]
    return new, p


def rank_reference(m):
    return len(rref_reference(m)[1])


def null_space_reference(m):
    if not m:
        return []
    n_cols = len(m[0])
    rows, pivots = rref_reference(m)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [ZERO] * n_cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        lead = next(a for a in v if a != 0)
        basis.append(tuple(a / lead for a in v))
    return basis


def span_basis_reference(vs):
    kept = []
    echelon = []
    for v in vs:
        residue = list(v)
        for row in echelon:
            lead = next(i for i, a in enumerate(row) if a != 0)
            if residue[lead] != 0:
                f = residue[lead] / row[lead]
                residue = [a - f * b for a, b in zip(residue, row)]
        if any(a != 0 for a in residue):
            kept.append(v)
            echelon.append(residue)
            echelon.sort(key=lambda r: next(i for i, a in enumerate(r) if a != 0))
    return kept


def solve_square_reference(m, rhs):
    n = len(m)
    rows = [list(r) + [rhs[i]] for i, r in enumerate(m)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return None
        rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
        inv = ONE / rows[c][c]
        rows[c] = [inv * a for a in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return tuple(rows[i][n] for i in range(n))


def count_feasible_bases(p):
    """Number of feasible bases of [A | I] y = b, y >= 0, by brute force."""
    return sum(1 for _ in verify.feasible_bases(p.a, p.b))


# The region checks as two separate LPs.  The library reads both from one
# LP, max sum(x); tests require the answers to agree.


def _region_rows(p):
    return tuple((tuple(row), Relation.LE, Fraction(rhs)) for row, rhs in zip(p.a, p.b))


def nonempty_reference(p):
    """True when some x >= 0 satisfies Ax <= b (a phase-1 LP)."""
    out = solve(LpProblem((ZERO,) * p.dim, _region_rows(p), (VarKind.NONNEG,) * p.dim))
    return out.status is LpStatus.OPTIMAL


def is_bounded_reference(p):
    """True when sum(x) has no unbounded maximum; x >= 0 makes it a gauge."""
    out = solve(LpProblem((ONE,) * p.dim, _region_rows(p), (VarKind.NONNEG,) * p.dim))
    return out.status is not LpStatus.UNBOUNDED


# Steps 0 to 4 as the library decided them before it read every
# certificate off the integer phase 1 that decides its answer: one LP for
# every answer.  Tests require the same answer, and step 0 the same
# multipliers; the other certificates may differ, and each is checked.


def positive_optimum(problem, width):
    """The first ``width`` coordinates of an optimal point when the optimum
    is positive; None when it is not, or when there is no optimum."""
    out = solve(problem)
    if out.status is not LpStatus.OPTIMAL or out.value is None or out.value <= 0:
        return None
    return out.point[:width]


def find_cone_point_reference(c):
    """Maximize sum(v) with v = Cx, x free, v >= 0 and sum(v) <= 1; some x
    has Cx >= 0 and Cx != 0 exactly when the optimum is positive."""
    p = len(c)
    k = len(c[0])
    rows = []
    for i, row in enumerate(c):
        coeff = tuple(-a for a in row) + tuple(ONE if j == i else ZERO for j in range(p))
        rows.append((coeff, Relation.EQ, ZERO))
    rows.append(((ZERO,) * k + (ONE,) * p, Relation.LE, ONE))
    objective = (ZERO,) * k + (ONE,) * p
    kinds = (VarKind.FREE,) * k + (VarKind.NONNEG,) * p
    return positive_optimum(LpProblem(objective, tuple(rows), kinds), k)


def find_interior_point_reference(p):
    """Maximize a common slack margin a with Ax + a*1 <= b, x >= a*1, a <= 1;
    the interior is nonempty exactly when the optimal margin is positive."""
    k = p.dim
    rows = [(row + (ONE,), rel, rhs) for row, rel, rhs in _region_rows(p)]
    for j in range(k):
        margin = tuple(ONE if i == j else ZERO for i in range(k)) + (Fraction(-1),)
        rows.append((margin, Relation.GE, ZERO))
    rows.append(((ZERO,) * k + (ONE,), Relation.LE, ONE))
    objective = (ZERO,) * k + (ONE,)
    kinds = (VarKind.FREE,) * k + (VarKind.NONNEG,)
    return positive_optimum(LpProblem(objective, tuple(rows), kinds), k)


def equalizing_weights_reference(f, points):
    """Maximize the smallest weight subject to the weights summing to one
    and equalizing the points; a positive optimum certifies positivity."""
    n = f.count
    rows = [((ONE,) * n + (ZERO,), Relation.EQ, ONE)]
    for i in range(n):
        coeff = tuple(ONE if j == i else ZERO for j in range(n)) + (Fraction(-1),)
        rows.append((coeff, Relation.GE, ZERO))
    first = f.values(points[0])
    for other in points[1:]:
        diff = tuple(a - b for a, b in zip(first, f.values(other)))
        rows.append((diff + (ZERO,), Relation.EQ, ZERO))
    objective = (ZERO,) * n + (ONE,)
    kinds = (VarKind.NONNEG,) * (n + 1)
    return positive_optimum(LpProblem(objective, tuple(rows), kinds), n)


def combination_multipliers_reference(stack):
    """A phase-1 point alpha >= 0 of sum(alpha_i c^i) = the last row, or None."""
    others = stack.rows[:-1]
    target = stack.rows[-1]
    rows = tuple(
        (tuple(row[j] for row in others), Relation.EQ, target[j]) for j in range(stack.dim)
    )
    out = solve(LpProblem((ZERO,) * len(others), rows, (VarKind.NONNEG,) * len(others)))
    return out.point if out.status is LpStatus.OPTIMAL else None


# The LP formulations the library used before it decided efficiency on the
# normal cone of the tight constraints and read bounded optimal faces off
# the vertex list, and the Fraction zero sets and facets it used before it
# compared in integers; tests require the answers to agree exactly.


def is_efficient_reference(p, f, x0):
    """Maximize the total slack by which another feasible point dominates
    x0; x0 is efficient exactly when that optimum is zero (an unbounded
    auxiliary problem means domination without limit)."""
    if not contains(p, x0):
        raise InfeasibleInput("point is not in the region")
    k = p.dim
    n = f.count
    base = f.values(x0)
    rows = [(row + (ZERO,) * n, rel, rhs) for row, rel, rhs in _region_rows(p)]
    for i, row in enumerate(f.rows):
        coeff = tuple(row) + tuple(
            Fraction(-1) if j == i else ZERO for j in range(n)
        )
        rows.append((coeff, Relation.EQ, base[i]))
    objective = (ZERO,) * k + (ONE,) * n
    kinds = (VarKind.NONNEG,) * (k + n)
    out = solve(LpProblem(objective, tuple(rows), kinds))
    assert out.status is not LpStatus.INFEASIBLE  # x0 itself is feasible
    return out.status is LpStatus.OPTIMAL and out.value == 0


def zero_set_reference(p, x):
    """The columns of [A | I] y = b at which y = (x, b - Ax) is 0, or None
    when x is not in the region, from one Fraction dot product per row."""
    if len(x) != p.dim or any(c < 0 for c in x):
        return None
    slacks = [rhs - dot(row, x) for row, rhs in zip(p.a, p.b)]
    if any(s < 0 for s in slacks):
        return None
    return {c for c, value in enumerate(tuple(x) + tuple(slacks)) if value == 0}


def faces_reference(vertices, a, b):
    """The vertex sets of every nonempty face of {x >= 0 : Ax <= b}, given
    its vertices: the facet vertex sets from a Fraction dot product of every
    row with every vertex (and the zero coordinates), closed under
    intersection."""
    everything = frozenset(range(len(vertices)))
    facets = []
    for row, rhs in zip(a, b):
        facets.append(frozenset(i for i, v in enumerate(vertices) if dot(row, v) == rhs))
    for j in range(len(a[0])):
        facets.append(frozenset(i for i, v in enumerate(vertices) if v[j] == ZERO))
    closed = {everything} if vertices else set()
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


def optimal_face_vertices_reference(p, c):
    """Solve max c . x, then keep the vertices attaining the optimum."""
    out = solve(LpProblem(tuple(c), _region_rows(p), (VarKind.NONNEG,) * p.dim))
    if out.status is LpStatus.INFEASIBLE:
        raise InfeasibleRegion("region is empty")
    if out.status is LpStatus.UNBOUNDED:
        raise UnboundedObjective("objective has no finite maximum on the region")
    assert out.value is not None
    return tuple(v for v in p.vertices if dot(c, v) == out.value)


# The simplex as it was when phase 1 and phase 2 each repriced every column
# of a Fraction tableau from a cost vector outside it on every iteration.
# The library pivots an integer tableau over one denominator and carries the
# reduced costs in it as rows; tests require equal outcomes.

_MAX_PIVOTS = 100_000  # far beyond any basis count seen here; guards bugs only


def _pivot_reference(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    inv = ONE / tableau[row][col]
    tableau[row] = [inv * a for a in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[row])]
    basis[row] = col


def _optimize_reference(tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> bool:
    """Run simplex iterations in place; True when optimal, False when unbounded.

    Bland's rule: entering column is the smallest index with positive reduced
    cost, leaving row is the minimum-ratio row with the smallest basic index.
    """
    n_cols = len(cost)
    for _ in range(_MAX_PIVOTS):
        entering = None
        for j in range(n_cols):
            reduced = cost[j] - sum(
                (cost[basis[i]] * tableau[i][j] for i in range(len(basis))), ZERO
            )
            if reduced > 0:
                entering = j
                break
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
        _pivot_reference(tableau, basis, leave, entering)
    raise RuntimeError("simplex failed to terminate")  # pragma: no cover


def solve_reference(problem: LpProblem) -> LpOutcome:
    """Exact optimum of an LpProblem; status is always one of the three."""
    kinds = problem.variable_kinds
    n_vars = len(kinds)

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

    phase1_cost = [ZERO] * width + [Fraction(-1)] * m
    _optimize_reference(tableau, basis, phase1_cost)  # bounded above by 0, never unbounded
    artificial_sum = sum((tableau[i][-1] for i in range(m) if basis[i] >= width), ZERO)
    if artificial_sum > 0:
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
                _pivot_reference(tableau, basis, i, pivot_col)
    tableau = [row[:width] + [row[-1]] for row in tableau]

    phase2_cost = expand(problem.objective) + [ZERO] * n_slacks
    if not _optimize_reference(tableau, basis, phase2_cost):
        return LpOutcome(LpStatus.UNBOUNDED)

    std_point = [ZERO] * width
    for i, b in enumerate(basis):
        std_point[b] = tableau[i][-1]
    point = []
    for pos, neg in col_of:
        point.append(std_point[pos] - (std_point[neg] if neg is not None else ZERO))
    x = tuple(point)
    return LpOutcome(LpStatus.OPTIMAL, value=dot(problem.objective, x), point=x)
