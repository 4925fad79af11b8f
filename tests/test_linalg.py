from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from objred.linalg import (
    ZERO,
    alternative,
    dot,
    integer_frame,
    integer_rows,
    intersect_spans,
    leaving_row,
    mat_vec,
    null_space,
    phase1,
    pivot,
    ratio,
    solve_square,
    span_basis,
)
from objred.simplex import LpProblem, LpStatus, Relation, VarKind

from helpers import (
    frows,
    fvec,
    null_space_reference,
    pivot_reference,
    rank_reference,
    solve_reference,
    solve_square_reference,
    span_basis_reference,
)


def test_dot_and_mat_vec():
    assert dot(fvec([1, 2, 3]), fvec([4, 5, 6])) == 32
    assert mat_vec(frows([1, 0], [0, 2]), fvec([3, 4])) == fvec([3, 8])


def test_dot_rejects_mismatched_lengths():
    # A ValueError, not an assert, so the check also holds under python -O.
    with pytest.raises(ValueError):
        dot(fvec([1, 2]), fvec([3]))
    with pytest.raises(ValueError):
        dot(fvec([1]), fvec([2, 3]))


def test_rank_fixtures():
    assert rank_reference(frows([1, 1, 1], [-1, 1, 1])) == 2
    assert rank_reference(frows([1, 2], [2, 4])) == 1
    assert rank_reference(frows([0, 0], [0, 0])) == 0
    assert rank_reference(frows([1, 1, 1, 1, 1], [-1, 1, 1, 1, 1], [-1, -1, 1, 1, 1])) == 3


def test_null_space_of_reduced_cube_stack():
    basis = null_space(frows([1, 1, 1], [-1, 1, 1]))
    assert basis == [fvec([0, 1, -1])]


def test_null_space_trivial_when_full_column_rank():
    assert null_space(frows([1, 3], [2, 1])) == []


def test_null_space_dimension():
    m = frows([1, 1, 1, 1, 1], [-1, 1, 1, 1, 1], [-1, -1, 1, 1, 1])
    basis = null_space(m)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(m, v) == fvec([0, 0, 0])


def test_span_basis_keeps_original_vectors():
    vs = frows([1, 0], [2, 0], [1, 1])
    basis = span_basis(vs)
    assert basis == [fvec([1, 0]), fvec([1, 1])]


def test_span_basis_of_nothing():
    assert span_basis(()) == []
    assert span_basis(frows([0, 0, 0])) == []


def test_intersect_spans_disjoint():
    assert intersect_spans((fvec([1, 0, 0]),), (fvec([0, 1, -1]),)) == []


def test_intersect_spans_overlap():
    left = frows([1, 0], [0, 1])
    right = frows([1, 1])
    meet = intersect_spans(left, right)
    assert len(meet) == 1
    assert meet[0] == fvec([1, 1])


def test_intersect_spans_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        intersect_spans((fvec([1, 0]),), (fvec([1, 0, 0]),))


def test_solve_square():
    m = frows([2, 1], [1, 3])
    rhs = fvec([5, 10])
    x = solve_square(m, rhs)
    assert mat_vec(m, x) == rhs
    assert solve_square(frows([1, 2], [2, 4]), fvec([1, 1])) is None


def test_leaving_row_is_blands_row():
    # Rows [column 0, column 1, value] over d = 1.  Column 0 attains its
    # minimum ratio 2 on the rows of basic columns 5, 3 and 6: Bland's row
    # is that of column 3, neither the first nor the last of the tie.  The
    # row of column 2 has a negative entry and that of column 4 ratio 3.
    # Column 1 has no positive entry, a ray.  The cost row below the
    # dictionary is not read, and negating every row with d keeps both
    # answers.
    basis = [5, 2, 3, 4, 6]
    rows = [[1, 0, 2], [-1, -1, 0], [2, 0, 4], [1, -2, 3], [3, 0, 6], [1, 1, 0]]
    negated = [[-a for a in row] for row in rows]
    assert leaving_row(rows, basis, 0, 1) == leaving_row(negated, basis, 0, -1) == 2
    assert leaving_row(rows, basis, 1, 1) is None
    assert leaving_row(negated, basis, 1, -1) is None


@st.composite
def pivot_sequences(draw):
    """An integer matrix of up to 5 rows and 6 columns with entries in
    [-2, 2], so that many pivot-column entries are 0 and many pivots equal
    the one before, and pivot positions in distinct rows and columns, as
    Gauss–Jordan takes them (each division is then exact)."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = [[draw(st.integers(-2, 2)) for _ in range(n_cols)] for _ in range(n_rows)]
    order = draw(st.permutations(range(n_rows)))
    columns = draw(st.permutations(range(n_cols)))
    return rows, list(zip(order, columns))


@settings(deadline=None, max_examples=300)
@given(pivot_sequences())
@example(([[1, 2, 3], [0, 4, 5], [2, 0, 1]], [(0, 0), (1, 1)]))  # p == prev, a zero entry, then neither
def test_pivot_matches_the_full_formula(drawn):
    # ``pivot`` skips the product with the pivot row where row[c] is 0, and
    # leaves the row as it is when p == prev too; every row must still be
    # the full formula's.  A shallow copy taken before keeps the old state.
    rows, steps = drawn
    prev = 1
    for r, c in steps:
        if rows[r][c] == 0:
            continue
        want = pivot_reference(rows, r, c, prev)
        copy = list(rows)
        before = [list(row) for row in rows]
        p = pivot(rows, r, c, prev)
        assert (rows, p) == want
        assert copy == before
        # The pivot row stays, and so does a row with a 0 in the pivot
        # column when p == prev; every other row is a new list.
        for i, (new, old) in enumerate(zip(rows, copy)):
            assert (new is old) == (i == r or old[c] == 0 and p == prev)
        prev = p


def test_solve_square_rejects_non_square():
    with pytest.raises(ValueError):
        solve_square(frows([1, 2, 3], [4, 5, 6]), fvec([1, 1]))
    with pytest.raises(ValueError):
        solve_square(frows([1, 2], [3, 4]), fvec([1]))


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def matrices(draw, max_rows=3, max_cols=3):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    return tuple(
        tuple(draw(fractions_st) for _ in range(c)) for _ in range(r)
    )


@settings(deadline=None, max_examples=80)
@given(matrices())
def test_null_space_annihilates_and_counts(m):
    basis = null_space(m)
    zero = (Fraction(0),) * len(m)
    for v in basis:
        assert mat_vec(m, v) == zero
    assert rank_reference(m) + len(basis) == len(m[0])


@settings(deadline=None, max_examples=80)
@given(matrices())
def test_span_basis_is_independent_subset(m):
    basis = span_basis(m)
    assert len(basis) == rank_reference(m)
    for v in basis:
        assert v in m
    if basis:
        assert rank_reference(basis) == len(basis)


@settings(deadline=None, max_examples=60)
@given(matrices(max_rows=3, max_cols=3))
def test_intersect_spans_with_itself(m):
    basis = span_basis(m)
    if not basis:
        return
    meet = intersect_spans(basis, basis)
    assert len(meet) == len(basis)


@settings(deadline=None, max_examples=80)
@given(matrices(max_rows=3, max_cols=3), st.data())
def test_solve_square_roundtrip(m, data):
    if len(m) != len(m[0]):
        return
    n = len(m)
    x = fvec([data.draw(fractions_st) for _ in range(n)])
    rhs = mat_vec(m, x)
    sol = solve_square(m, rhs)
    if rank_reference(m) == n:
        assert sol is not None
        assert sol == x
    elif sol is not None:
        assert mat_vec(m, sol) == rhs


# Inputs for the comparison with the plain Fraction references: fractional
# entries (denominators up to 9), frequent zeros, zero leading columns that
# force row swaps, and rows that are combinations of earlier rows.
nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool)
awkward_entries = st.one_of(st.just(Fraction(0)), nonzero)


@st.composite
def awkward_matrices(draw, max_rows=4, max_cols=5, square=False):
    r = draw(st.integers(1, max_rows))
    c = r if square else draw(st.integers(1, max_cols))
    rows = [[draw(awkward_entries) for _ in range(c)] for _ in range(r)]
    for i in range(draw(st.integers(0, r - 1))):
        rows[i][0] = Fraction(0)
    for i in range(1, r):
        if draw(st.integers(0, 3)) == 0:
            j = draw(st.integers(0, i - 1))
            a, b = draw(awkward_entries), draw(awkward_entries)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[0])]
    order = draw(st.permutations(range(r)))
    return tuple(tuple(rows[i]) for i in order)


@settings(deadline=None, max_examples=200)
@given(awkward_matrices())
def test_kernel_matches_fraction_reference(m):
    assert null_space(m) == null_space_reference(m)
    assert span_basis(m) == span_basis_reference(m)
    columns = tuple(zip(*m))
    assert span_basis(columns) == span_basis_reference(columns)


@settings(deadline=None, max_examples=200)
@given(awkward_matrices(square=True), st.data())
def test_solve_square_matches_fraction_reference(m, data):
    rhs = tuple(data.draw(awkward_entries) for _ in m)
    assert solve_square(m, rhs) == solve_square_reference(m, rhs)


def test_integer_frame_puts_rows_over_one_denominator():
    rows, d = integer_frame(frows(["1/2", "1/3"], [2, "3/4"]))
    assert d == 6 * 4
    assert rows == [[12, 8], [48, 18]]


@st.composite
def rational_systems(draw):
    """Equations row[:-1] . y = row[-1] whose rows have denominators up to 6,
    so that the rows' scales to integers differ; half of them get a
    right-hand side planted at some y >= 0."""
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    rows = [[draw(entries) for _ in range(c + 1)] for _ in range(r)]
    if draw(st.booleans()):
        y = [draw(st.sampled_from([0, 0, 1, 2, Fraction(1, 3)])) for _ in range(c)]
        for row in rows:
            row[-1] = dot(row[:-1], y)
    return frows(*rows)


@settings(deadline=None, max_examples=200)
@given(rational_systems())
@example(frows([1, 1, 0, 3], [1, "1/2", -3, -1]))  # per-row scales end elsewhere
def test_the_framed_phase_1_point_is_the_simplex_phase_1_point(m):
    # Over one denominator, the integer phase 1 makes the Fraction simplex's
    # pivots, so it ends on the point that simplex returns for a zero
    # objective, and on None exactly when the simplex finds no point.
    width = len(m[0]) - 1
    rows = tuple((row[:-1], Relation.EQ, row[-1]) for row in m)
    out = solve_reference(LpProblem((ZERO,) * width, rows, (VarKind.NONNEG,) * width))
    assert rational_solution(m) == out.point
    assert (out.status is LpStatus.INFEASIBLE) == (alternative(integer_rows(m))[1] is not None)
    # The same phase 1 reads the Farkas vector off its cost row over the
    # frame's d as over 1.
    z = alternative(*integer_frame(m))[1]
    assert (out.status is LpStatus.INFEASIBLE) == (z is not None)
    if z is not None:
        assert all(dot(z, column) <= 0 for column in list(zip(*m))[:-1])
        assert dot(z, [row[-1] for row in m]) > 0


def rational_solution(m):
    """The point y / d where ``alternative`` ends over ``integer_frame(m)``,
    as Fractions, or None."""
    found = alternative(*integer_frame(m))[0]
    return None if found is None else tuple(Fraction(v, found[1]) for v in found[0])


def test_phase_1_refuses_a_d_that_is_not_a_frame():
    # Over d = 2 the rows stand for 0 . y = 1/2 and y_4 = 0, and pivot's
    # floor division would truncate the 1/2 away and report a solution.
    rows = [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0]]
    for call in (alternative, phase1):
        with pytest.raises(ValueError, match="not a frame"):
            call(rows, 2)
    with pytest.raises(ValueError, match="not a frame"):
        alternative([[1, 1]], 0)
    # Over 1 the system is decided: 0 . y = 1 has a Farkas vector.
    assert alternative(rows, 1)[1] is not None
    # A multiple of the product of d / gcd(d, row) passes: y_1 / 2 = 1/2
    # and y_2 / 2 = 1/2 over d = 4 have denominators 2 and 2, and 2 * 2
    # divides 4.
    assert alternative([[2, 0, 2], [0, 2, 2]], 4)[0] is not None


@st.composite
def integer_systems(draw):
    """Integer equations row[:-1] . y = row[-1], up to 5 rows and 7 columns,
    with right-hand sides of both signs, so that phase 1 negates some rows;
    half of them get a right-hand side planted at some y >= 0."""
    c = draw(st.integers(1, 7))
    rows = [[draw(st.integers(-3, 3)) for _ in range(c + 1)] for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        y = [draw(st.integers(0, 2)) for _ in range(c)]
        for row in rows:
            row[-1] = sum(a * b for a, b in zip(row, y))
    return rows


@settings(deadline=None, max_examples=300)
@given(integer_systems())
@example([[1, 1, -1]])  # a negated row: s_i = -1
@example([[1, 0, 1], [1, 0, 2]])  # one pivot, so u is nonzero: z is (1 + u) s, not u s
@example([[2, -1, 3], [1, 1, -2], [0, 1, 1]])
def test_alternative_certifies_exactly_the_infeasible_systems(rows):
    # No Farkas vector exactly when some y >= 0 solves the rows, and then
    # there is one; otherwise z . column <= 0 on every column and
    # z . rhs > 0, which proves by itself that none does.
    z = alternative(rows)[1]
    if z is None:
        y = rational_solution(frows(*rows))
        assert all(dot(row[:-1], y) == row[-1] for row in rows) and min(y) >= 0
        return
    assert len(z) == len(rows)
    assert all(dot(z, column) <= 0 for column in list(zip(*rows))[:-1])
    assert dot(z, [row[-1] for row in rows]) > 0


@given(st.integers(-40, 40), st.integers(-40, 40).filter(bool))
def test_ratio_is_the_fraction_shared_when_small(n, d):
    q = ratio(n, d)
    assert type(q) is Fraction and q == Fraction(n, d)
    # Small rationals are one object each, however they are written.
    small = abs(q.numerator) <= 12 and q.denominator <= 12
    assert (ratio(3 * n, 3 * d) is q) == small
