import collections
import contextlib
import copy
import dataclasses
import functools
import pickle
import random
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from objred import (
    FULL_WITHIN_REDUCED,
    REDUCED_WITHIN_FULL,
    MolpProblem,
    ObjectiveStack,
    Outcome,
    Polytope,
    Step,
    classify,
    efficiency,
    engine,
    linalg,
    parse_document,
    polytope,
    reduce_objectives,
    simplex,
)
from objred.efficiency import find_cone_point
from objred.engine import (
    TraceEntry,
    combination_multipliers,
    kernel_separation,
    step0,
    step1,
    step2,
    step3,
    step4,
    step5,
    step6,
    step7,
)
from objred.errors import InfeasibleRegion, UnboundedObjective, UnboundedRegion
from objred.instances import degenerate_cube, random_problem
from objred.linalg import dot, integer_rows, mat_vec
from objred.polytope import enumerate_vertices, face_of, zero_set
from objred.verify import check_verdict

from helpers import (
    CUBE,
    PROBLEMS,
    SEGMENT,
    box5_4obj,
    changed_problem,
    classify_each_pass,
    combination_multipliers_reference,
    cube_3obj,
    essential_oracle,
    find_cone_point_reference,
    frows,
    fvec,
    is_bounded_reference,
    optimal_face_vertices_reference,
    reduce_key,
    segment_3obj,
    segment_4obj,
    simplex_3obj,
    slab3_3obj,
    unbounded6_3obj,
    verdict_key,
    wide7_3obj,
)

RAY = Polytope(frows([1, -1], [-1, 1]), fvec([0, 0]))  # x1 = x2, x >= 0


def steps_of(verdict):
    return [entry.step for entry in verdict.trace]


def answers_of(verdict):
    return [entry.answer for entry in verdict.trace]


# Step-level fixtures (candidate always last in the stack).


def test_step0_combination_fixtures():
    assert not step0(ObjectiveStack(frows([1, 3], [3, 0], [2, 1], [-3, -1])))
    assert step0(ObjectiveStack(frows([1, 3], [3, 0], [-3, -1], [2, 1])))
    assert not step0(ObjectiveStack(frows([1, 1, 1], [-1, 1, 1], [1, 1, 0])))


def test_step0_certificate_reconstructs_candidate():
    stack = ObjectiveStack(frows([1, 3], [3, 0], [-3, -1], [2, 1]))
    alpha = combination_multipliers(stack)
    assert alpha is not None and all(a >= 0 for a in alpha)
    combo = fvec([0, 0])
    for a, row in zip(alpha, stack.rows[:-1]):
        combo = tuple(x + a * c for x, c in zip(combo, row))
    assert combo == stack.rows[-1]


def test_step1_fixtures():
    assert not step1(segment_3obj().stack())
    assert not step1(segment_4obj().stack())
    assert step1(cube_3obj().stack())
    assert step1(box5_4obj().stack())


def test_step2_fixture():
    assert step2(segment_3obj().stack())


@st.composite
def step_2_problems(draw):
    """A bounded region, a stack and a candidate.  Half the stacks end in a
    row that balances the others with positive weights, so that step 1
    answers "no"; the candidate is any row."""
    k = draw(st.integers(1, 3))
    ints = st.integers(-3, 3)
    rows = [[draw(ints) for _ in range(k)] for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        weights = [draw(st.integers(1, 3)) for _ in rows]
        scale = Fraction(draw(st.integers(1, 3)))
        rows.append([-sum(w * row[j] for w, row in zip(weights, rows)) / scale for j in range(k)])
    else:
        rows.append([draw(ints) for _ in range(k)])
    a = [[draw(ints) for _ in range(k)] for _ in range(draw(st.integers(0, 2)))] + [[1] * k]
    b = [draw(st.integers(0, 4)) for _ in a[:-1]] + [draw(st.integers(1, 4))]
    return frows(*rows), draw(st.integers(0, len(rows) - 1)), frows(*a), fvec(b)


@settings(deadline=None, max_examples=80)
@given(step_2_problems())
def test_steps_0_and_1_decide_step_2(drawn):
    # Step 0's "no" gives z with c_i . z <= 0 on the others and c_k . z > 0,
    # and step 1's "no" some y > 0 with sum_i y_i c_i = 0; so some other
    # c_i . z < 0, and -z is a step-2 direction: step 2 always answers yes.
    rows, candidate, a, b = drawn
    stack = ObjectiveStack(rows[:candidate] + rows[candidate + 1 :] + rows[candidate : candidate + 1])
    assume(not step0(stack) and not step1(stack))
    assert step2(stack) is True
    others = stack.rows[:-1]
    assert find_cone_point_reference(others) is not None
    verdict = classify(MolpProblem(rows, a, b), candidate)
    entry = verdict.trace[Step.REDUCED_CONE]
    assert (entry.step, entry.answer) == (Step.REDUCED_CONE, True)
    values = [sum((c * x for c, x in zip(row, entry.certificate)), Fraction(0)) for row in others]
    assert all(v >= 0 for v in values) and any(values)
    assert check_verdict(rows, a, b, verdict) is None


def test_no_answers_of_steps_0_to_2_solve_no_lp():
    # A "no" of steps 0 to 2 has no certificate: Farkas's and Stiemke's
    # alternatives decide it on integers.
    stack = segment_3obj().stack()
    cube = cube_3obj().stack().rows
    assert find_cone_point(stack.rows) is None
    assert find_cone_point(cube + tuple(tuple(-a for a in row) for row in cube)) is None
    # Twice the second row is minus the first; without its scale to
    # integers, (-1, 1), the rows would not balance.
    assert find_cone_point(frows([1, -2], ["-1/2", 1])) is None
    no_combination = ObjectiveStack(frows([1, 1, 1], [-1, 1, 1], [1, 1, 0]))
    assert combination_multipliers(no_combination) is None
    assert find_cone_point(stack.drop(2).rows) is not None


def test_step0_solves_no_lp_with_either_answer():
    # One integer phase 1 decides step 0 and yields its multipliers, the
    # point the step-0 LP used to return.  The target is planted with
    # weights (1, 2, 1).  Each column is one equation, and the second has
    # a half, so scaling it alone to integers would change the phase-1 cost
    # row and end on (3, 0, 4/3) instead of the LP's (0, 3, 5/6).
    planted = frows([1, 1], [1, "1/2"], [0, -3])
    target = fvec([3, -1])
    duplicate = MolpProblem(frows([1, 1], [1, 1]), frows([1, 0], [0, 1]), fvec([1, 1]))
    yes = [
        ObjectiveStack(frows([1, 3], [3, 0], [-3, -1], [2, 1])),
        ObjectiveStack(planted + (target,)),
        duplicate.stack(),
    ]
    no = [
        ObjectiveStack(frows([1, 3], [3, 0], [2, 1], [-3, -1])),
        ObjectiveStack(planted + (tuple(-a for a in target),)),
    ]
    expected = [combination_multipliers_reference(stack) for stack in yes]
    assert None not in expected
    assert expected[1] == fvec([0, 3, "5/6"])
    assert all(combination_multipliers_reference(stack) is None for stack in no)
    problems = [MolpProblem(stack.rows, SEGMENT.a, SEGMENT.b) for stack in yes[:2]] + [duplicate]
    for stack, alpha, problem in zip(yes, expected, problems):
        assert combination_multipliers(stack) == alpha
        assert step0(stack) is True
        v = classify(problem)
        assert (v.outcome, v.decided_at) == (Outcome.NONESSENTIAL, Step.COMBINATION)
        assert v.trace[0].certificate == alpha
    for stack in no:
        assert combination_multipliers(stack) is None
        assert step0(stack) is False
    # A step-0 "no" on an empty region ends at the region check.
    with pytest.raises(InfeasibleRegion):
        classify(MolpProblem(frows([1, 0], [0, 1]), frows([1, 1]), fvec([-1])))
    result = reduce_objectives(duplicate)
    assert [(r.objective, r.step) for r in result.removals] == [(1, Step.COMBINATION)]


def test_float_entries_raise_type_error_naming_their_position():
    # An objective entry is named by its place in the problem, before
    # classify builds a stack on it.
    floated = MolpProblem(((1, 0.5), (1, 1), (0, 1)), ((1, 1),), (4,))
    for run in (lambda: classify(floated, 0), lambda: reduce_objectives(floated)):
        with pytest.raises(TypeError, match=r"objectives\[0\]\[1\] is a float"):
            run()
    with pytest.raises(TypeError, match=r"A\[1\]\[0\] is a float"):
        classify(MolpProblem(((1, 2), (2, 1)), ((1, 1), (0.5, 1)), (4, 2)))
    with pytest.raises(TypeError, match=r"A\[1\]\[0\] is a float"):
        Polytope(((1, 1), (0.5, 1)), (4, 2))
    with pytest.raises(TypeError, match=r"b\[0\] is a str"):
        Polytope(((1, 1),), ("4",))
    with pytest.raises(TypeError, match=r"rows\[1\]\[1\] is a float"):
        ObjectiveStack(((1, 2), (2, 1.5)))
    # An int or a Fraction passes.
    v = classify(MolpProblem(((1, 2), (2, Fraction(1, 2))), ((1, 1),), (4,)))
    assert v.outcome in Outcome


def test_a_step_0_deletion_keeps_step_1s_no(monkeypatch):
    # The objectives span the plane, so no direction improves one of them
    # and hurts none: step 1 says "no".  (1, 0) is half of (2, 0), so step
    # 0 deletes it, which leaves the cone of the objectives, and with it
    # that "no": the next pass runs no cone test.  Running one made 2.
    calls = []
    find = efficiency.find_cone_point
    monkeypatch.setattr(efficiency, "find_cone_point", lambda c: calls.append(c) or find(c))
    problem = MolpProblem(frows([2, 0], [1, 0], [-1, 0], [0, 1], [0, -1]), frows([1, 0], [0, 1]), fvec([1, 1]))
    result = reduce_objectives(problem)
    assert [(r.objective, r.step) for r in result.removals] == [(1, Step.COMBINATION)]
    assert len(result.history) == 8 and len(calls) == 1
    # The carried "no" has no certificate, so each verdict is classify's.
    assert [v for _, v in result.history] == classify_each_pass(problem)
    # The step functions share the carry: once steps 0 and 1 have answered
    # "yes" and "no" on a stack ending in (1, 0), step 2 reads the "no" that
    # ``drop`` carries, the answer its own cone test gives.
    stack = ObjectiveStack(problem.objectives[:1] + problem.objectives[2:] + problem.objectives[1:2])
    calls.clear()
    assert (step0(stack), step1(stack), step2(stack)) == (True, False, False)
    assert len(calls) == 1 and find_cone_point(stack.rows[:-1]) is None


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32), st.integers(0, 3))
def test_decisive_verdicts_match_the_definition(seed, candidate):
    # The paper's definition, face by face, on small bounded draws: an
    # essential verdict needs the efficient set to change when the
    # candidate is deleted, and a nonessential one needs it to stay.
    problem = random_problem(random.Random(seed), max_variables=3, max_constraints=5, max_objectives=4)
    candidate %= problem.n_objectives
    verdict = classify(problem, candidate)
    if verdict.outcome is not Outcome.INCONCLUSIVE:
        assert (verdict.outcome is Outcome.ESSENTIAL) == essential_oracle(problem, candidate)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32), st.sampled_from(["variables", "row scale", "redundant row"]), st.booleans())
def test_verdicts_keep_to_the_region_and_the_objectives(seed, change, bounded):
    # Essentiality depends on the region and the objectives' efficient sets
    # alone, so a permutation of the variables, a positive scale of one row
    # of [A | b] and a redundant row (the sum of two rows) keep each
    # candidate's outcome, step and relation, and a reduce's removals and
    # survivors under the permutation.  Acceptance criterion 6 checks
    # objective scales and the two other permutations.
    rng = random.Random(seed)
    problem = random_problem(rng, max_variables=4, max_constraints=5, max_objectives=4, ensure_bounded=bounded)
    changed = changed_problem(problem, change, rng)
    if change == "variables":
        assert reduce_key(changed) == reduce_key(problem)
    for candidate in range(problem.n_objectives):
        assert verdict_key(changed, candidate) == verdict_key(problem, candidate)


def test_no_library_module_holds_the_simplex():
    # objred loads objred.simplex as a public solver; no other module of
    # the library holds it or any of its names.
    own = [v for v in vars(simplex).values() if getattr(v, "__module__", None) == simplex.__name__]
    own.append(simplex)
    assert simplex.solve in own and simplex.LpProblem in own
    for name, module in sorted(sys.modules.items()):
        if name.startswith("objred.") and name != "objred.simplex":
            held = [attr for attr, value in vars(module).items() if any(value is v for v in own)]
            assert not held, (name, held)


def test_step5_and_step6_reject_a_stack_of_the_wrong_width():
    stack = ObjectiveStack(frows([1], [2]))
    for step in (step5, step6):
        with pytest.raises(ValueError, match="c has 1 entries and the region 2 columns"):
            step(SEGMENT, stack)


def test_step3_fixtures():
    assert step3(simplex_3obj().region())
    assert not step3(SEGMENT)


def test_step4_fixtures():
    assert not step4(SEGMENT, segment_3obj().stack())
    assert step4(SEGMENT, segment_4obj().stack())
    problem = slab3_3obj()
    assert not step4(problem.region(), problem.stack())


def test_step5_cube_face():
    assert step5(CUBE, cube_3obj().stack()) == (fvec([1, 1, 0]), fvec([1, 1, 1]))


def test_step6_fixtures():
    assert step6(CUBE, cube_3obj().stack())
    problem = wide7_3obj()
    assert not step6(problem.region(), problem.stack())


def test_step6_names_a_face_point_that_is_not_a_vertex():
    # x1 + x2 <= 4 has the vertices (0, 0), (0, 4) and (4, 0); x1 + x2 is
    # optimal on the edge from (0, 4) to (4, 0), where x1 and x2 are
    # efficient.  step6 reads the face step5 names, so every point of it is
    # a vertex.
    region = Polytope(frows([1, 1]), fvec([4]))
    stack = ObjectiveStack(frows([1, 0], [0, 1], [1, 1]))
    assert step5(region, stack) == (fvec([0, 4]), fvec([4, 0]))
    assert all(point in region.vertices for point in step5(region, stack))
    assert step6(region, stack) is True


def test_steps_4_and_6_test_vertices_on_search_zero_sets(monkeypatch):
    # The vertex search holds every vertex's zero set, so no vertex is scanned.
    def scanned(*args):
        raise AssertionError("a zero set was scanned")

    monkeypatch.setattr(efficiency, "zero_set", scanned)
    assert not step4(Polytope(SEGMENT.a, SEGMENT.b), segment_3obj().stack())
    assert step4(Polytope(SEGMENT.a, SEGMENT.b), segment_4obj().stack())
    assert step6(Polytope(CUBE.a, CUBE.b), cube_3obj().stack())
    problem = wide7_3obj()
    assert not step6(problem.region(), problem.stack())


def test_step7_cube():
    assert step7(CUBE, cube_3obj().stack())


def test_kernel_separation_certificate_for_cube():
    separated, cert = kernel_separation(CUBE, cube_3obj().stack().drop(2))
    assert separated
    assert cert["kernel"] == [fvec([0, 1, -1])]
    assert cert["differences"] == [fvec([1, 0, 0])]
    assert cert["intersection"] == []


# End-to-end classification.


def test_classify_essential_at_interior():
    v = classify(simplex_3obj())
    assert v.outcome is Outcome.ESSENTIAL
    assert v.decided_at is Step.INTERIOR
    assert v.relation is None
    assert steps_of(v) == [Step.COMBINATION, Step.IMPROVEMENT_CONE, Step.REDUCED_CONE, Step.INTERIOR]
    assert answers_of(v) == [False, False, True, True]
    interior = v.trace[-1].certificate
    region = simplex_3obj().region()
    assert all(c > 0 for c in interior)
    for row, rhs in zip(region.a, region.b):
        assert dot(row, interior) < rhs
    direction = v.trace[2].certificate
    reduced = mat_vec(simplex_3obj().stack().drop(2).rows, direction)
    assert all(a >= 0 for a in reduced) and any(a > 0 for a in reduced)


def test_classify_essential_at_vertex_check():
    v = classify(segment_3obj())
    assert v.outcome is Outcome.ESSENTIAL
    assert v.decided_at is Step.ALL_EFFICIENT
    assert v.relation == REDUCED_WITHIN_FULL
    assert steps_of(v)[-1] is Step.ALL_EFFICIENT
    assert v.trace[-1].answer is False
    assert v.trace[-1].certificate == fvec([0, 1])  # vertex losing efficiency


def test_classify_essential_when_weights_missing():
    v = classify(slab3_3obj())
    assert v.outcome is Outcome.ESSENTIAL
    assert v.decided_at is Step.ALL_EFFICIENT
    assert v.relation == REDUCED_WITHIN_FULL
    assert v.trace[-1].answer is False
    assert v.trace[-1].certificate is None  # no weights, not a bad vertex


def test_classify_nonessential_by_weights():
    v = classify(segment_4obj())
    assert v.outcome is Outcome.NONESSENTIAL
    assert v.decided_at is Step.ALL_EFFICIENT
    assert v.relation is None
    assert answers_of(v) == [False, False, True, False, True]
    assert v.trace[-1].certificate == fvec(["1/2", "1/4", "1/4"])


def test_classify_nonessential_at_kernel():
    v = classify(cube_3obj())
    assert v.outcome is Outcome.NONESSENTIAL
    assert v.decided_at is Step.KERNEL
    assert steps_of(v) == [
        Step.COMBINATION,
        Step.IMPROVEMENT_CONE,
        Step.OPTIMAL_FACE,
        Step.FACE_EFFICIENT,
        Step.KERNEL,
    ]
    assert v.trace[2].certificate == (fvec([1, 1, 0]), fvec([1, 1, 1]))
    assert v.trace[3].certificate == fvec([1, 1, 1])
    assert "uncontained" not in v.trace[-1].certificate


def test_classify_box5_nonessential_at_kernel():
    v = classify(box5_4obj())
    assert v.outcome is Outcome.NONESSENTIAL
    assert v.decided_at is Step.KERNEL
    assert answers_of(v) == [False, True, True, True, True]


def test_classify_essential_at_kernel_when_a_vertex_escapes():
    # The kernel condition holds, yet the vertex (9/2, 0, 9/2) is efficient
    # for the full stack and dominated once the candidate is deleted, so the
    # efficient set shrinks and the candidate is essential.
    problem = MolpProblem(
        frows([-3, -1, -1], [1, 1, 3], [1, -1, -2]),
        frows([2, 2, -2], [1, 1, 1]),
        fvec([0, 9]),
    )
    v = classify(problem)
    assert v.outcome is Outcome.ESSENTIAL
    assert v.decided_at is Step.KERNEL
    assert v.relation == REDUCED_WITHIN_FULL
    assert v.trace[-1].answer is True
    assert v.trace[-1].certificate["uncontained"] == (fvec(["9/2", 0, "9/2"]),)


def test_classify_essential_at_kernel_when_an_edge_escapes():
    # Every full-stack efficient vertex stays efficient after deletion, but
    # the open edge between the first two unit points does not; only a face
    # representative can witness the difference.
    problem = MolpProblem(
        frows([1, 0, "3/5"], [0, 1, "3/5"], [0, 0, -1]),
        frows([1, 1, 1]),
        fvec([1]),
    )
    v = classify(problem)
    assert v.outcome is Outcome.ESSENTIAL
    assert v.decided_at is Step.KERNEL
    assert v.relation == REDUCED_WITHIN_FULL
    escaped = v.trace[-1].certificate["uncontained"][0]
    assert escaped == fvec(["1/2", "1/2", 0])
    assert escaped not in enumerate_vertices(problem.region())


def test_classify_essential_when_face_loses_efficiency():
    v = classify(wide7_3obj())
    assert v.outcome is Outcome.ESSENTIAL
    assert v.decided_at is Step.FACE_EFFICIENT
    assert v.trace[-1].answer is False


def test_classify_inconclusive_on_unbounded_region():
    v = classify(unbounded6_3obj())
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.decided_at is Step.KERNEL
    assert v.relation == FULL_WITHIN_REDUCED
    # The kernel condition itself holds; only boundedness is missing.
    assert v.trace[-1].step is Step.KERNEL
    assert v.trace[-1].answer is True


def test_classify_candidate_selection():
    problem = segment_4obj()
    assert classify(problem).candidate == 3
    v = classify(problem, 2)
    assert v.candidate == 2
    assert v.outcome is Outcome.NONESSENTIAL


def test_classify_rejects_bad_candidate():
    with pytest.raises(ValueError):
        classify(segment_4obj(), 4)
    with pytest.raises(ValueError):
        classify(segment_4obj(), -1)


@pytest.mark.parametrize("candidate", [1.0, Fraction(1), True, False, "1"])
def test_classify_refuses_a_candidate_that_is_not_an_int(candidate):
    # 1.0 and Fraction(1) would fail deep inside as slice indices, and True
    # would test objective 1 in silence: a bool is an int to Python.
    with pytest.raises(TypeError, match="candidate is a"):
        classify(segment_4obj(), candidate)


def test_classify_needs_two_objectives():
    lone = MolpProblem(frows([1, 1]), SEGMENT.a, SEGMENT.b)
    with pytest.raises(ValueError):
        classify(lone)


def test_problem_validation():
    with pytest.raises(ValueError):
        MolpProblem((), SEGMENT.a, SEGMENT.b)
    with pytest.raises(ValueError):
        MolpProblem(frows([1, 2, 3]), SEGMENT.a, SEGMENT.b)


# Region pathologies.


def test_combination_reported_even_on_empty_region():
    twin = MolpProblem(frows([1, 1], [1, 1]), frows([1, 1]), fvec([-1]))
    v = classify(twin)
    assert v.outcome is Outcome.NONESSENTIAL
    assert v.decided_at is Step.COMBINATION
    assert v.trace[0].certificate == (Fraction(1),)


def test_empty_region_raises_past_step0():
    problem = MolpProblem(frows([1, 0], [0, 1]), frows([1, 1]), fvec([-1]))
    with pytest.raises(InfeasibleRegion):
        classify(problem)


def test_unbounded_region_blocks_weight_criterion():
    problem = MolpProblem(frows([-1, -1], [1, 1]), RAY.a, RAY.b)
    with pytest.raises(UnboundedRegion):
        classify(problem)


def test_unbounded_candidate_blocks_face_step():
    problem = MolpProblem(frows([1, 1], [1, 0]), frows([1, -1]), fvec([0]))
    with pytest.raises(UnboundedRegion):
        classify(problem)


def test_unbounded_region_blocks_essential_at_face_step():
    problem = MolpProblem(frows([1, 0], [-1, -1]), RAY.a, RAY.b)
    with pytest.raises(UnboundedRegion):
        classify(problem)


def test_kernel_success_degrades_on_unbounded_region():
    problem = MolpProblem(frows([-1, 0], [-1, -1]), RAY.a, RAY.b)
    v = classify(problem)
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.decided_at is Step.KERNEL
    assert v.relation == FULL_WITHIN_REDUCED
    assert v.trace[-1].answer is True


# Iterated deletion.


def test_reduce_segment_chain():
    result = reduce_objectives(segment_4obj())
    assert [(r.objective, r.step) for r in result.removals] == [
        (3, Step.ALL_EFFICIENT),
        (2, Step.KERNEL),
    ]
    assert result.survivors == (0, 1)
    assert result.problem.objectives == frows([1, 3], [2, 1])
    log = [
        (idx, v.outcome, v.decided_at) for idx, v in result.history
    ]
    assert log == [
        (3, Outcome.NONESSENTIAL, Step.ALL_EFFICIENT),
        (2, Outcome.NONESSENTIAL, Step.KERNEL),
        (1, Outcome.ESSENTIAL, Step.FACE_EFFICIENT),
        (0, Outcome.ESSENTIAL, Step.FACE_EFFICIENT),
    ]


def test_reduce_removes_duplicate_objective():
    problem = MolpProblem(
        frows([1, 1], [1, 1]), frows([1, 0], [0, 1]), fvec([1, 1])
    )
    result = reduce_objectives(problem)
    assert [(r.objective, r.step) for r in result.removals] == [(1, Step.COMBINATION)]
    assert result.survivors == (0,)


def test_reduce_keeps_single_objective_untouched():
    problem = MolpProblem(frows([1, 1]), SEGMENT.a, SEGMENT.b)
    result = reduce_objectives(problem)
    assert result.removals == ()
    assert result.survivors == (0,)
    assert result.history == ()


def test_reduce_result_is_slotted_and_survives_copies():
    result = reduce_objectives(parse_document((PROBLEMS / "box5_4obj.json").read_text()).problem)
    assert pickle.loads(pickle.dumps(result)) == result
    assert copy.deepcopy(result) == result
    assert dataclasses.replace(result) == result
    verdict = result.history[0][1]
    for held in (result, result.problem, result.removals[0], verdict, verdict.trace[0]):
        assert not hasattr(held, "__dict__")
    # A test that found nothing is recorded by one entry per step, shared by
    # every verdict; it equals a fresh entry, and survives a pickle as one.
    failed = [entry for _, v in result.history for entry in v.trace if entry.certificate is None]
    assert len(failed) > len({entry.step for entry in failed}) == len(set(map(id, failed)))
    assert failed == [TraceEntry(entry.step, False) for entry in failed]
    copied = pickle.loads(pickle.dumps(result))
    again = [entry for _, v in copied.history for entry in v.trace if entry.certificate is None]
    assert again == failed and len(set(map(id, again))) == len(set(map(id, failed)))


def test_step_functions_answer_on_unbounded_regions():
    # classify raises UnboundedRegion for both (see the tests above); the
    # step functions share its step-4 and step-6 code but only answer.
    assert step4(RAY, ObjectiveStack(frows([-1, -1], [1, 1]))) is True
    assert step6(RAY, ObjectiveStack(frows([1, 0], [-1, -1]))) is False


# One counted run over problems/: each document is reduced once, and each of
# its objectives classified once, with every counter installed.  The pins
# below read its log.

REGION_FUNCTIONS = ("enumerate_vertices", "find_interior_point")
REGION_PROPERTIES = ("frame", "start", "walk", "bounded", "faces")
# The public form of the lattice, which objred never builds.
REGION_VIEWS = ("face_vertex_sets",)


def _tallied(counter, name, fn):
    """fn, with each call counted in counter[name]."""
    return lambda *args: counter.update([name]) or fn(*args)


@contextlib.contextmanager
def counted():
    """Install every counter wherever objred calls it, and yield the log
    they fill: the call's ``result``, set by the caller; the rows of each
    cone test; each ObjectiveStack built; each ``integer_rows`` or
    ``integer_frame`` call as (name, caller, rows, argument); each
    ``_search`` or ``_climb`` as (kind, region); each LP that
    ``simplex.solve`` was given; and how often each region fact (a cached
    property, counted when computed), or the public face lattice, was
    computed."""
    log = types.SimpleNamespace(result=None, cones=[], stacks=[], conversions=[], events=[], lps=[])
    log.facts = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        find, check, solve = efficiency.find_cone_point, ObjectiveStack.__post_init__, simplex.solve
        patch.setattr(simplex, "solve", lambda lp: log.lps.append(lp) or solve(lp))
        patch.setattr(efficiency, "find_cone_point", lambda c: log.cones.append(c) or find(c))
        patch.setattr(ObjectiveStack, "__post_init__", lambda self: log.stacks.append(self) or check(self))
        # ``drop`` builds its stack without ``__post_init__``, from rows
        # already checked.
        checked = efficiency._checked
        patch.setattr(efficiency, "_checked", lambda rows: log.stacks.append(checked(rows)) or log.stacks[-1])
        for name in ("integer_rows", "integer_frame"):
            convert = getattr(linalg, name)

            def conversion(m, convert=convert, name=name):
                rows = tuple(tuple(row) for row in m)
                log.conversions.append((name, sys._getframe(1).f_code.co_name, rows, m))
                return convert(rows)

            for module in (linalg, efficiency, polytope, engine):
                if getattr(module, name, None) is convert:
                    patch.setattr(module, name, conversion)
        search, climb = polytope._search, polytope._climb
        patch.setattr(polytope, "_search", lambda p: log.events.append(("search", p)) or search(p))
        patch.setattr(polytope, "_climb", lambda p, c: log.events.append(("climb", p)) or climb(p, c))
        for name in (*REGION_FUNCTIONS, *REGION_VIEWS):
            original = getattr(polytope, name)
            for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "objred"]:
                if getattr(module, name, None) is original:
                    patch.setattr(module, name, _tallied(log.facts, name, original))
        for name in REGION_PROPERTIES:
            fact = functools.cached_property(_tallied(log.facts, name, Polytope.__dict__[name].func))
            fact.__set_name__(Polytope, name)
            patch.setattr(Polytope, name, fact)
        yield log


@pytest.fixture(scope="module")
def counted_run():
    """{stem: (problem, the reduce's log, [each classify's log])} for each
    ``problems/*.json`` document; only the empty region raises, an
    InfeasibleRegion, which its logs hold as their result."""

    def run(call, *args):
        with counted() as log:
            try:
                log.result = call(*args)
            except InfeasibleRegion:
                log.result = InfeasibleRegion
        return log

    runs = {}
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = parse_document(path.read_text()).problem
        classified = [run(classify, problem, c) for c in range(problem.n_objectives)]
        runs[path.stem] = problem, run(reduce_objectives, problem), classified
    return runs


def _reduced(counted_run):
    """(stem, problem, log) of each reduce that returned a result."""
    return [(stem, problem, log) for stem, (problem, log, _) in counted_run.items() if log.result is not InfeasibleRegion]


def test_reduce_over_problems_solves_no_lp(counted_run):
    # Every certificate is read off the integer phase 1 that decides its
    # answer.  Building each by an LP made 20 here, and one LP per answer
    # of steps 0 to 2 made 42.  tests/test_source.py holds the static rule
    # behind this: no library module but __init__ imports objred.simplex.
    reduced = _reduced(counted_run)
    assert [stem for stem, *_ in reduced] == sorted(set(counted_run) - {"empty_region"})
    assert counted_run["empty_region"][2][0].result is InfeasibleRegion
    assert [lp for _, log, classified in counted_run.values() for run in (log, *classified) for lp in run.lps] == []


def test_reduce_pass_finds_the_step_1_direction_once(counted_run):
    # The step-1 direction depends on the problem alone, so the candidates
    # of one reduce pass share it, as ``ObjectiveStack.direction`` of the
    # pass's stack, and step 2 reads step 0's Farkas vector.  Over
    # problems/, 17 classifications make 9 cone tests; with a cone test for
    # each step 2 they made 13, and with one per candidate 21.
    reduced = _reduced(counted_run)
    history = sum(len(log.result.history) for *_, log in reduced)
    assert (history, sum(len(log.cones) for _, log, _ in counted_run.values())) == (17, 9)
    # Each shared direction is the one classify finds on its own.
    for _, problem, log in reduced:
        assert [v for _, v in log.result.history] == classify_each_pass(problem)


def test_reduce_builds_one_stack_per_pass_and_one_per_step_4_or_6(counted_run):
    # A reduce builds the stack of the problem's objectives, each deletion
    # drops its candidate from it for the next pass, once, and a
    # classification builds the stack without its candidate only when step
    # 4 or step 6 reads it.  What that stack's efficiency tests found stays
    # on the region, so the next pass needs no copy of it.
    counts = {}
    for stem, _, log in _reduced(counted_run):
        reading = sum(v.decided_at >= Step.ALL_EFFICIENT for _, v in log.result.history)
        assert len(log.stacks) == 1 + len(log.result.removals) + reading, stem
        counts[stem] = len(log.stacks)
    assert counts == {"box5_4obj": 6, "cube_3obj": 5, "segment_4obj": 7, "simplex_3obj": 1, "unbounded6_3obj": 4}


def test_reduce_repeats_no_cone_test(counted_run):
    # Within one reduce, every cone test is a pass's step-1 direction, and
    # each pass has its own objectives, so no cone test repeats the rows of
    # an earlier one.  A cone test for each step 2 repeated one in
    # segment_4obj.
    for stem, _, log in _reduced(counted_run):
        assert len(set(log.cones)) == len(log.cones), stem


def test_the_problem_goes_into_integers_once(counted_run):
    # Step 0 and every efficiency test read the stack's integer image, which
    # a reduce builds once and ``drop`` hands down, and the region's phase 1s
    # and every efficiency test's tight rows come from its one frame.
    # Neither step 0 nor ``efficient_at`` scales a stack's Fraction rows
    # itself, and nothing scales [A | b] row by row.  Over problems/, the
    # efficiency tests scaled the stacks 136 times and step 0 framed its
    # system 18 times, the start and the interior point framed the region 8
    # times, and a second, row-wise image of [A | b] was built 4 times.
    images = 0
    for stem, (problem, log, _) in counted_run.items():
        stacks = {id(stack.rows) for stack in log.stacks}
        region = tuple(row + (rhs,) for row, rhs in zip(problem.a, problem.b))
        assert not [c for c in log.conversions if c[1] in ("efficient_at", "combination")], stem
        # Step 1's direction and step 7's kernel scale the rows on their own.
        on_stacks = {caller for name, caller, _, m in log.conversions if id(m) in stacks}
        assert on_stacks <= {"image", "find_cone_point", "null_space"}, stem
        built = [rows for name, caller, rows, _ in log.conversions if caller == "image"]
        assert built == [problem.objectives][: len(built)], stem
        framed = [c[:2] for c in log.conversions if c[2] == region]
        assert framed == [("integer_frame", "frame")], stem
        images += len(built)
    # The empty region ends after step 0, which builds the image too.
    assert images == 6


def test_reduce_climbs_until_a_step_searches_its_region(counted_run):
    # reduce classifies every candidate on one region: it climbs to each
    # optimal face and on sum(x) until a step 4 or 7 builds the region's
    # whole vertex search, and from then on reads both off that search.  So
    # each region is searched at most once, and never climbed on after.
    counts = {}
    for stem, (_, log, _) in counted_run.items():
        kinds = [kind for kind, _ in log.events]
        assert len({id(p) for _, p in log.events}) <= 1
        assert kinds.count("search") <= 1
        if "search" in kinds:
            assert "climb" not in kinds[kinds.index("search") :]
        if kinds:
            counts[stem] = dict(collections.Counter(kinds))
    assert counts == {
        "box5_4obj": {"climb": 1, "search": 1},
        "cube_3obj": {"climb": 1, "search": 1},
        "unbounded6_3obj": {"climb": 1, "search": 1},
        "segment_4obj": {"search": 1},
    }


# Each region fact is computed at most once per classify or reduce call.

EXAMPLES = ["box5_4obj", "segment_4obj", "cube_3obj", "simplex_3obj", "unbounded6_3obj"]


@pytest.mark.parametrize("stem", EXAMPLES)
def test_reduce_computes_each_region_fact_once(counted_run, stem):
    log = counted_run[stem][1]
    assert len(log.result.history) > 1
    assert log.facts["start"] == 1
    assert max(log.facts.values()) == 1
    assert not set(log.facts) & set(REGION_VIEWS)


@pytest.mark.parametrize("stem", EXAMPLES)
def test_classify_computes_each_region_fact_once(counted_run, stem):
    for log in counted_run[stem][2]:
        assert max(log.facts.values(), default=0) <= 1
        assert not set(log.facts) & set(REGION_VIEWS)


def test_fact_counts_see_every_kind_of_fact(counted_run):
    # The reduces above reach every counted fact, so the bound is not vacuous.
    seen = set(counted_run["box5_4obj"][1].facts) | set(counted_run["segment_4obj"][1].facts)
    assert seen == {*REGION_PROPERTIES, *REGION_FUNCTIONS}
    # The view is counted too, built on its own facts.
    with counted() as log:
        region = cube_3obj().region()
        assert len(polytope.face_vertex_sets(region)) == len(region.vertices) + 19
    assert log.facts == dict.fromkeys(("frame", "start", "walk", "faces", "enumerate_vertices", *REGION_VIEWS), 1)


# Steps 5 and 6 climb to the candidate's optimal face until the region's
# whole vertex search has run, and then read that search.


def _refused(*args):
    raise AssertionError("a refused search, climb or zero-set scan was run")


@pytest.mark.parametrize("make, candidate", [(cube_3obj, 1), (box5_4obj, 2), (wide7_3obj, 2)])
def test_classify_ending_at_step_6_runs_no_search(monkeypatch, make, candidate):
    # Steps 5 and 6 need the candidate's optimal face and whether the region
    # is bounded: a climb to the face, a search of the face alone, and a
    # climb on sum(x).  The face's search records each vertex's zero set, so
    # none is scanned either.
    monkeypatch.setattr(polytope, "_search", _refused)
    monkeypatch.setattr(efficiency, "zero_set", _refused)
    verdict = classify(make(), candidate)
    assert (verdict.outcome, verdict.decided_at) == (Outcome.ESSENTIAL, Step.FACE_EFFICIENT)


@st.composite
def climbing_problems(draw):
    """Problems on which a climb starts off the slack basis, ends on a ray,
    or crosses degenerate vertices: nonempty regions with some b_i < 0 (a
    point x0 >= 0 meets every row, the row -sum(x) <= -1 cuts off the
    origin, and a cap sum(x) <= c may bound the region), unbounded regions (b >= 0 and a nonpositive column j,
    so that e_j is a recession direction), and subsets of the rows of
    ``degenerate_cube(k)``, which tie for the minimum ratio."""
    kind = draw(st.sampled_from(["negative-b", "unbounded", "pair-rows"]))
    k = draw(st.integers(2, 4))
    if kind == "pair-rows":
        cube = degenerate_cube(k)
        chosen = draw(st.lists(st.sampled_from(range(len(cube.a))), min_size=1, max_size=8, unique=True))
        a = [cube.a[i] for i in chosen]
        b = [cube.b[i] for i in chosen]
    else:
        a = [[draw(st.integers(-2, 3)) for _ in range(k)] for _ in range(draw(st.integers(1, 4)))]
        if kind == "negative-b":
            x0 = [draw(st.integers(0, 2)) for _ in range(k)]
            x0[draw(st.integers(0, k - 1))] = 1
            b = [dot(row, x0) + draw(st.integers(0, 2)) for row in a]
            a.append([-1] * k)
            b.append(-1)
            if draw(st.booleans()):
                a.append([1] * k)
                b.append(sum(x0) + draw(st.integers(0, 3)))
        else:
            b = [draw(st.integers(0, 4)) for _ in a]
            j = draw(st.integers(0, k - 1))
            for row in a:
                row[j] = -abs(row[j])
    objectives = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(draw(st.integers(2, 3)))]
    return kind, MolpProblem(frows(*objectives), frows(*a), fvec(b))


def _result_or_error(run, *args):
    try:
        return run(*args)
    except (UnboundedRegion, ValueError) as exc:
        return type(exc), str(exc)


def _classify_on_searched_region(problem, candidate):
    region = problem.region()
    region.walk
    return engine._classify(problem.stack(), candidate, region)


def _climbed_face(p, c):
    try:
        return face_of(p, integer_rows((c,))[0])
    except UnboundedObjective as exc:
        return type(exc)


@settings(deadline=None, max_examples=150)
@given(climbing_problems(), st.data())
def test_climb_matches_the_whole_search(drawn, data):
    # classify climbs on a fresh region; the same tree on a region whose
    # vertex search is built reads steps 5 and 6 off that search.  Verdicts,
    # certificates and errors must be the same, and the climb's face and
    # boundedness must match the LP references.
    _, problem = drawn
    candidate = data.draw(st.integers(0, problem.n_objectives - 1))
    expected = _result_or_error(_classify_on_searched_region, problem, candidate)
    assert _result_or_error(classify, problem, candidate) == expected
    fresh = problem.region()
    c = problem.objectives[candidate]
    face = _climbed_face(fresh, c)
    assert fresh.bounded is is_bounded_reference(fresh)
    if face is UnboundedObjective:
        with pytest.raises(UnboundedObjective):
            optimal_face_vertices_reference(fresh, c)
        return
    vertices, zero_sets = face
    assert vertices == optimal_face_vertices_reference(fresh, c)
    assert zero_sets == tuple(zero_set(fresh, v) for v in vertices)


@settings(deadline=None, max_examples=100)
@given(climbing_problems())
def test_reduce_history_matches_classify_of_each_pass(drawn):
    # reduce climbs on its region until a step 4 or 7 searches it, and then
    # reads steps 5 and 6 off that search; classify on a fresh region
    # climbs.  Each verdict, and an error's type and message, must agree.
    _, problem = drawn
    history = _result_or_error(lambda: [verdict for _, verdict in reduce_objectives(problem).history])
    assert history == _result_or_error(classify_each_pass, problem)
