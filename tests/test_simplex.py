from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from objred.linalg import dot
from objred.simplex import (
    LpProblem,
    LpStatus,
    Relation,
    VarKind,
    solve,
)

from helpers import frows, fvec, solve_reference

NN = VarKind.NONNEG
FR = VarKind.FREE


def lp(c, rows, kinds=None):
    constraints = tuple(
        (fvec(row), rel, Fraction(rhs)) for row, rel, rhs in rows
    )
    kinds = kinds or (NN,) * len(c)
    return LpProblem(fvec(c), constraints, tuple(kinds))


def test_simple_box():
    out = solve(lp([1, 1], [([1, 0], Relation.LE, 1), ([0, 1], Relation.LE, 1)]))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 2
    assert out.point == fvec([1, 1])


def test_equality_and_ge_rows():
    out = solve(
        lp(
            [0, 1],
            [([1, 1], Relation.EQ, 1), ([1, 0], Relation.GE, Fraction(1, 3))],
        )
    )
    assert out.status is LpStatus.OPTIMAL
    assert out.value == Fraction(2, 3)


def test_negative_rhs_normalization():
    # x1 + x2 >= 1 written as -x1 - x2 <= -1
    out = solve(lp([-1, -1], [([-1, -1], Relation.LE, -1)]))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == -1


def test_infeasible():
    out = solve(lp([1], [([1], Relation.LE, -2)]))
    assert out.status is LpStatus.INFEASIBLE


def test_unbounded():
    out = solve(lp([1, 0], [([0, 1], Relation.LE, 1)]))
    assert out.status is LpStatus.UNBOUNDED


def test_free_variable_goes_negative():
    out = solve(lp([-1], [([-1], Relation.LE, 5)], kinds=[FR]))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 5
    assert out.point == fvec([-5])


def test_free_variables_in_equality_system():
    # x - y == 3 with both free; maximize -x^2 surrogate: max -(x+y) bounded?
    out = solve(
        lp(
            [0, 1],
            [([1, -1], Relation.EQ, 3), ([0, 1], Relation.LE, 2)],
            kinds=[FR, FR],
        )
    )
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 2
    assert out.point[0] - out.point[1] == 3


def test_redundant_equality_rows_dropped():
    out = solve(
        lp(
            [1, 0],
            [([1, 1], Relation.EQ, 1), ([2, 2], Relation.EQ, 2)],
        )
    )
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1


def test_degenerate_cycling_instance_terminates():
    # Classic cycling example for naive pivoting; Bland's rule must finish.
    out = solve(
        lp(
            [Fraction(3, 4), -150, Fraction(1, 50), -6],
            [
                ([Fraction(1, 4), -60, Fraction(-1, 25), 9], Relation.LE, 0),
                ([Fraction(1, 2), -90, Fraction(-1, 50), 3], Relation.LE, 0),
                ([0, 0, 1, 0], Relation.LE, 1),
            ],
        )
    )
    assert out.status is LpStatus.OPTIMAL
    assert out.value == Fraction(1, 20)
    assert out.point == fvec([Fraction(1, 25), 0, 1, 0])


def test_feasible_point_finds_one():
    # With a zero objective the optimum is the point phase 1 ends on.
    out = solve(lp([0, 0], [([1, 1], Relation.LE, 1), ([-1, -1], Relation.LE, -1)]))
    assert out.status is LpStatus.OPTIMAL
    assert sum(out.point) == 1


def test_optimal_point_satisfies_constraints_exactly():
    problem = lp(
        [2, 3, 1],
        [
            ([1, 1, 1], Relation.LE, 10),
            ([1, 0, 0], Relation.LE, 4),
            ([0, 1, 0], Relation.LE, Fraction(7, 2)),
        ],
    )
    out = solve(problem)
    assert out.status is LpStatus.OPTIMAL
    for row, rel, rhs in problem.constraints:
        assert dot(row, out.point) <= rhs
    assert dot(problem.objective, out.point) == out.value


fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def primal_data(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    a = [[draw(fractions_st) for _ in range(n)] for _ in range(m)]
    b = [draw(fractions_st) for _ in range(m)]
    c = [draw(fractions_st) for _ in range(n)]
    return a, b, c


@settings(deadline=None, max_examples=120)
@given(primal_data())
def test_strong_duality(data):
    a, b, c = data
    primal = lp(c, [(row, Relation.LE, rhs) for row, rhs in zip(a, b)])
    dual = lp(
        [-x for x in b],
        [
            ([a[i][j] for i in range(len(a))], Relation.GE, c[j])
            for j in range(len(c))
        ],
    )
    p = solve(primal)
    d = solve(dual)
    if p.status is LpStatus.OPTIMAL:
        assert d.status is LpStatus.OPTIMAL
        assert d.value == -p.value
    elif p.status is LpStatus.UNBOUNDED:
        assert d.status is LpStatus.INFEASIBLE
    else:
        assert d.status is not LpStatus.OPTIMAL


def test_no_rows_unbounded_and_optimal():
    up = solve(lp([1], []))
    assert up.status is LpStatus.UNBOUNDED
    down = solve(lp([-1], []))
    assert down.status is LpStatus.OPTIMAL
    assert down.value == 0
    assert down.point == fvec([0])


# Inputs for the comparison with the externally priced reference: LE, EQ and
# GE rows with rhs of either sign, free and nonnegative variables, frequent
# zeros, a repeated row (the artificial drive-out and the row deletion) and
# problems with no constraint rows at all.
entries = st.one_of(st.just(Fraction(0)), fractions_st)


@st.composite
def mixed_lps(draw):
    n = draw(st.integers(1, 4))
    kinds = tuple(draw(st.sampled_from([NN, NN, FR])) for _ in range(n))
    rows = [
        (
            tuple(draw(entries) for _ in range(n)),
            draw(st.sampled_from(list(Relation))),
            draw(entries),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    if rows and draw(st.booleans()):
        row, rel, rhs = rows[draw(st.integers(0, len(rows) - 1))]
        scale = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(-1, 2)]))
        if scale < 0 and rel is not Relation.EQ:
            rel = Relation.GE if rel is Relation.LE else Relation.LE
        rows.insert(
            draw(st.integers(0, len(rows))),
            (tuple(scale * a for a in row), rel, scale * rhs),
        )
    objective = tuple(draw(entries) for _ in range(n))
    return LpProblem(objective, tuple(rows), kinds)


EQ, LE, GE = Relation.EQ, Relation.LE, Relation.GE


@settings(deadline=None, max_examples=300)
@given(mixed_lps())
# A redundant equality row: its artificial stays basic at zero with no real
# entry left, and the drive-out deletes the row.
@example(lp([1, 0], [([1, 1], EQ, 1), ([2, 2], EQ, 2)], (NN, NN)))
@example(lp([1, 1], [([1, 1], EQ, -1), (["-1/2", "-1/2"], EQ, "1/2")], (FR, NN)))
# The drive-out pivots on the -1 of x1, which makes the integer pivot d < 0;
# phase 2 then enters x3 with d < 0.
@example(lp([0, 0, 1], [([-1, 0, 0], EQ, 0), ([0, 1, 1], LE, 1)], (NN, NN, NN)))
@example(lp([2, "-1/2"], [([-3, 0], EQ, 0)], (NN, FR)))
# >= rows with b < 0, flipped to <= rows with b > 0, and free variables.
@example(lp([1, 1], [([1, -1], GE, -1), ([1, 1], LE, 2)], (FR, NN)))
@example(lp([-1, "1/3"], [(["1/2", 1], GE, "-3/2"), ([1, 0], GE, -1)], (FR, FR)))
# No rows at all: phase 1 has nothing to do, phase 2 starts from no basis.
@example(lp([1, -1], [], (FR, NN)))
@example(lp(["-1/2", 0], [], (NN, NN)))
def test_tableau_priced_simplex_matches_reference(problem):
    out = solve(problem)
    ref = solve_reference(problem)
    assert (out.status, out.value, out.point) == (ref.status, ref.value, ref.point)
