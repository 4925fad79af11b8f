"""Acceptance gate.

One test per shipping criterion; conftest.py prints a PASS/FAIL line for
each after the run.  Everything here goes through the public API only.
"""

import random
import time
from fractions import Fraction

from objred import (
    FULL_WITHIN_REDUCED,
    MolpProblem,
    ObjectiveStack,
    Outcome,
    Step,
    classify,
    efficient_vertices,
    is_efficient,
    parse_document,
    reduce_objectives,
)
from objred.engine import step0, step1, step2, step3, step4, step5, step6, step7
from objred.instances import plant_combination, random_problem
from objred.linalg import dot, mat_vec
from objred.polytope import enumerate_vertices
from objred.simplex import LpProblem, LpStatus, Relation, VarKind, solve

from helpers import (
    CUBE,
    PROBLEMS,
    SEGMENT,
    SQUARE,
    box5_4obj,
    cube_3obj,
    dominance_oracle,
    frows,
    fvec,
    segment_3obj,
    segment_4obj,
    simplex_3obj,
    slab3_3obj,
    unbounded6_3obj,
    wide7_3obj,
)


def load(name):
    return parse_document((PROBLEMS / name).read_text())


def test_criterion_1_step_booleans():
    # Combination test: candidate last, nonnegative multipliers or nothing.
    assert step0(ObjectiveStack(frows([1, 3], [3, 0], [2, 1], [-3, -1]))) is False
    assert step0(ObjectiveStack(frows([1, 3], [3, 0], [-3, -1], [2, 1]))) is True
    assert step0(ObjectiveStack(frows([1, 1, 1], [-1, 1, 1], [1, 1, 0]))) is False

    # Improvement cone of the full stack.
    assert step1(segment_4obj().stack()) is False
    assert step1(cube_3obj().stack()) is True

    # Reduced cone, interior test on both regions.
    assert step2(segment_4obj().stack()) is True
    assert step3(SQUARE) is True
    assert step3(SEGMENT) is False

    # Three-objective segment problem: the essential pattern.
    three = segment_3obj()
    assert step1(three.stack()) is False
    assert step2(three.stack()) is True
    assert step3(three.region()) is False
    assert step4(SEGMENT, three.stack()) is False

    # Four-objective segment problem: vertices all efficient, weights exist.
    assert step4(SEGMENT, segment_4obj().stack()) is True

    # Flat 3-variable region: vertices all efficient but no weights.
    slab = slab3_3obj()
    assert step1(slab.stack()) is False
    assert step2(slab.stack()) is True
    assert step3(slab.region()) is False
    assert step4(slab.region(), slab.stack()) is False

    # Optimal face, face efficiency, kernel condition.
    assert step5(CUBE, cube_3obj().stack()) == (fvec([1, 1, 0]), fvec([1, 1, 1]))
    assert step6(CUBE, cube_3obj().stack()) is True
    wide = wide7_3obj()
    assert step6(wide.region(), wide.stack()) is False
    assert step7(CUBE, cube_3obj().stack()) is True


def test_criterion_2_session_verdicts():
    first = classify(load("simplex_3obj.json").problem)
    assert first.outcome is Outcome.ESSENTIAL
    assert first.decided_at is Step.INTERIOR

    second = classify(load("box5_4obj.json").problem)
    assert second.outcome is Outcome.NONESSENTIAL
    assert second.decided_at is Step.KERNEL

    third = classify(load("unbounded6_3obj.json").problem)
    assert third.outcome is Outcome.INCONCLUSIVE
    assert third.decided_at is Step.KERNEL
    assert third.relation == FULL_WITHIN_REDUCED

    chain = reduce_objectives(load("segment_4obj.json").problem)
    assert [
        (verdict.outcome, verdict.decided_at) for _, verdict in chain.history
    ] == [
        (Outcome.NONESSENTIAL, Step.ALL_EFFICIENT),
        (Outcome.NONESSENTIAL, Step.KERNEL),
        (Outcome.ESSENTIAL, Step.FACE_EFFICIENT),
        (Outcome.ESSENTIAL, Step.FACE_EFFICIENT),
    ]
    assert [(r.objective, r.step) for r in chain.removals] == [
        (3, Step.ALL_EFFICIENT),
        (2, Step.KERNEL),
    ]
    assert chain.survivors == (0, 1)


def test_criterion_3_oracle_equivalence():
    rng = random.Random(33003)
    instances = 0
    vertices_checked = 0
    while instances < 200:
        problem = random_problem(rng, max_constraints=5)
        region = problem.region()
        stack = problem.stack()
        vs = enumerate_vertices(region)
        for v in vs:
            assert is_efficient(region, stack, v) == dominance_oracle(vs, stack, v)
            vertices_checked += 1
        instances += 1
    assert instances >= 200 and vertices_checked >= 200


def test_criterion_4_planted_combinations():
    rng = random.Random(44004)
    for _ in range(100):
        base = random_problem(rng, max_objectives=3)
        extended, alpha = plant_combination(rng, base)
        assert step0(extended.stack()) is True
        verdict = classify(extended)
        assert verdict.outcome is Outcome.NONESSENTIAL
        assert verdict.decided_at is Step.COMBINATION
        rebuilt = tuple(
            sum(
                (a * row[j] for a, row in zip(alpha, base.objectives)),
                Fraction(0),
            )
            for j in range(base.n_variables)
        )
        assert rebuilt == extended.objectives[-1]


def test_criterion_5_consistency():
    rng = random.Random(55005)
    nonessential_seen = 0
    interior_essential_seen = 0
    for _ in range(200):
        problem = random_problem(rng)
        verdict = classify(problem)
        region = problem.region()
        full = problem.stack()
        reduced = full.drop(full.count - 1)
        if verdict.outcome is Outcome.NONESSENTIAL:
            assert efficient_vertices(region, full) == efficient_vertices(
                region, reduced
            )
            nonessential_seen += 1
        elif (
            verdict.outcome is Outcome.ESSENTIAL
            and verdict.decided_at is Step.INTERIOR
        ):
            direction = next(
                e.certificate for e in verdict.trace if e.step is Step.REDUCED_CONE
            )
            image = mat_vec(reduced.rows, direction)
            assert all(a >= 0 for a in image) and any(a > 0 for a in image)
            point = verdict.trace[-1].certificate
            assert all(c > 0 for c in point)
            for row, rhs in zip(region.a, region.b):
                assert dot(row, point) < rhs
            interior_essential_seen += 1
    assert nonessential_seen >= 10
    assert interior_essential_seen >= 10


def verdict_key(verdict):
    return (verdict.outcome, verdict.decided_at, verdict.relation)


def scaled_problem(problem, row, factor):
    objectives = tuple(
        tuple(factor * c for c in r) if i == row else r
        for i, r in enumerate(problem.objectives)
    )
    return MolpProblem(objectives, problem.a, problem.b)


def others_permuted(problem, order):
    head = [problem.objectives[i] for i in order]
    return MolpProblem(
        tuple(head) + (problem.objectives[-1],), problem.a, problem.b
    )


def rows_permuted(problem, order):
    return MolpProblem(
        problem.objectives,
        tuple(problem.a[i] for i in order),
        tuple(problem.b[i] for i in order),
    )


def test_criterion_6_invariance():
    fixtures = [
        segment_4obj(),
        segment_3obj(),
        slab3_3obj(),
        cube_3obj(),
        simplex_3obj(),
        box5_4obj(),
        unbounded6_3obj(),
        wide7_3obj(),
    ]
    scales = [Fraction(3, 2), Fraction(2, 5), Fraction(7)]
    for problem in fixtures:
        base = verdict_key(classify(problem))
        for row in range(problem.n_objectives):
            factor = scales[row % len(scales)]
            assert verdict_key(classify(scaled_problem(problem, row, factor))) == base
        flipped = list(reversed(range(problem.n_objectives - 1)))
        assert verdict_key(classify(others_permuted(problem, flipped))) == base
        backwards = list(reversed(range(len(problem.a))))
        assert verdict_key(classify(rows_permuted(problem, backwards))) == base

    rng = random.Random(66006)
    for _ in range(100):
        problem = random_problem(rng)
        base = verdict_key(classify(problem))
        row = rng.randrange(problem.n_objectives)
        factor = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        assert verdict_key(classify(scaled_problem(problem, row, factor))) == base
        order = list(range(problem.n_objectives - 1))
        rng.shuffle(order)
        assert verdict_key(classify(others_permuted(problem, order))) == base
        rows = list(range(len(problem.a)))
        rng.shuffle(rows)
        assert verdict_key(classify(rows_permuted(problem, rows))) == base


def test_criterion_7_solver_suite():
    # Degenerate instance that cycles under naive pivoting.
    beale = LpProblem(
        fvec([Fraction(3, 4), -150, Fraction(1, 50), -6]),
        (
            (fvec([Fraction(1, 4), -60, Fraction(-1, 25), 9]), Relation.LE, Fraction(0)),
            (fvec([Fraction(1, 2), -90, Fraction(-1, 50), 3]), Relation.LE, Fraction(0)),
            (fvec([0, 0, 1, 0]), Relation.LE, Fraction(1)),
        ),
        (VarKind.NONNEG,) * 4,
    )
    out = solve(beale)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == Fraction(1, 20)
    assert out.point == fvec([Fraction(1, 25), 0, 1, 0])

    # Strong duality spot checks: max cx, Ax <= b, x >= 0 against the dual
    # written as max -by, A^T y >= c, y >= 0.
    cases = [
        (((2, 1), (1, 3)), (4, 6), (3, 2)),
        (((1, 1),), (5,), (1, 1)),
        (((1, 0), (0, 1), (1, 1)), (2, 3, 4), (1, 2)),
    ]
    for a, b, c in cases:
        primal = LpProblem(
            fvec(c),
            tuple((fvec(row), Relation.LE, Fraction(rhs)) for row, rhs in zip(a, b)),
            (VarKind.NONNEG,) * len(c),
        )
        dual = LpProblem(
            fvec([-x for x in b]),
            tuple(
                (fvec([a[i][j] for i in range(len(a))]), Relation.GE, Fraction(c[j]))
                for j in range(len(c))
            ),
            (VarKind.NONNEG,) * len(b),
        )
        p, d = solve(primal), solve(dual)
        assert p.status is LpStatus.OPTIMAL and d.status is LpStatus.OPTIMAL
        assert d.value == -p.value

    # Unbounded primal pairs with an infeasible dual.
    primal = LpProblem(
        fvec([1, 0]),
        ((fvec([0, 1]), Relation.LE, Fraction(1)),),
        (VarKind.NONNEG,) * 2,
    )
    dual = LpProblem(
        fvec([-1]),
        (
            (fvec([0]), Relation.GE, Fraction(1)),
            (fvec([1]), Relation.GE, Fraction(0)),
        ),
        (VarKind.NONNEG,),
    )
    assert solve(primal).status is LpStatus.UNBOUNDED
    assert solve(dual).status is LpStatus.INFEASIBLE

    # Free variables: the improvement-direction formulation needs points
    # with negative coordinates.
    free = LpProblem(
        fvec([1, 0]),
        (
            (fvec([1, 1]), Relation.EQ, Fraction(-2)),
            (fvec([1, -1]), Relation.LE, Fraction(0)),
        ),
        (VarKind.FREE, VarKind.FREE),
    )
    out = solve(free)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == -1
    assert out.point == fvec([-1, -1])

    direction = __import__("objred").find_cone_point(
        frows([-1, 0], [-1, -1])
    )
    assert direction is not None and any(c < 0 for c in direction)


def test_full_runs_stay_under_ten_seconds():
    documents = sorted(PROBLEMS.glob("*.json"))
    assert documents
    for path in documents:
        doc = parse_document(path.read_text())
        start = time.perf_counter()
        if path.name == "empty_region.json":
            try:
                classify(doc.problem)
            except Exception:
                pass
        elif doc.problem.n_objectives > 1:
            reduce_objectives(doc.problem)
        else:
            classify(doc.problem)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{path.name} took {elapsed:.2f}s"
