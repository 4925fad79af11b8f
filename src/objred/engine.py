"""The decision tree: ``classify`` one objective, ``reduce_objectives`` all.

An objective is nonessential when deleting it leaves the efficient set of
max {F(x) : Ax <= b, x >= 0} unchanged.  ``_classify`` runs steps 0 to 7
once, on one ``ObjectiveStack`` in the problem's order and one
``Polytope``, and records each answer, with its certificate, in the trace;
``step0`` to ``step7`` run the steps one at a time.  An exit whose theorem
needs a bounded region raises UnboundedRegion on an unbounded one, and
step 7 there degrades to inconclusive.  README, "The decision tree" and
"Boundedness policy", has the steps and their certificates, and "Library
quickstart" what the classifications of a reduce share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from .efficiency import (
    ObjectiveStack,
    efficient_at,
    efficient_point_outside,
    efficient_vertices,
    equalizing_weights,
    opposite,
)
from .errors import InfeasibleRegion, UnboundedObjective, UnboundedRegion
from .linalg import (
    Matrix,
    Vector,
    intersect_spans,
    null_space,
    require_rational,
    span_basis,
    vsub,
)
from .polytope import (
    Face,
    Polytope,
    check_region,
    face_of,
    is_bounded,
    nonempty,
    optimal_face,
    require_bounded,
    vertex_zero_sets,
)

# Containment notes attached to verdicts.  The first one is proven on its
# branch; the second restates what is known when step 7 cannot decide.
REDUCED_WITHIN_FULL = "X_E^n ⊆ X_E^{n+1}"
FULL_WITHIN_REDUCED = "X_E^{n+1} ⊆ X_E^n"


class Step(enum.IntEnum):
    COMBINATION = 0
    IMPROVEMENT_CONE = 1
    REDUCED_CONE = 2
    INTERIOR = 3
    ALL_EFFICIENT = 4
    OPTIMAL_FACE = 5
    FACE_EFFICIENT = 6
    KERNEL = 7


class Outcome(enum.Enum):
    NONESSENTIAL = "nonessential"
    ESSENTIAL = "essential"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class TraceEntry:
    step: Step
    answer: bool
    certificate: Any = None


# One shared entry per step for a test that found nothing: verdicts kept by
# the thousand (a reduce's history) mostly hold such entries.
_NOT_FOUND = {step: TraceEntry(step, False) for step in Step}


def _entry(step: Step, certificate: Any) -> TraceEntry:
    """The entry of a test that found ``certificate``, or found nothing
    when it is None."""
    return _NOT_FOUND[step] if certificate is None else TraceEntry(step, True, certificate)


@dataclass(frozen=True, slots=True)
class Verdict:
    """Classification of one objective, with the executed step trace."""

    candidate: int  # 0-based row index into the problem's objectives
    outcome: Outcome
    decided_at: Step
    relation: str | None = None
    trace: tuple[TraceEntry, ...] = ()


@dataclass(frozen=True, slots=True)
class MolpProblem:
    """max {F(x) : Ax <= b, x >= 0} with F given row-wise."""

    objectives: Matrix
    a: Matrix
    b: Vector

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("need at least one objective")
        # Shapes only: classify and reduce_objectives check the objectives'
        # entries, naming each objectives[i][j]; the region checks its own.
        check_region(self.a, self.b)
        if any(len(row) != len(self.a[0]) for row in self.objectives):
            raise ValueError("objective length != variable count")

    @property
    def n_objectives(self) -> int:
        return len(self.objectives)

    @property
    def n_variables(self) -> int:
        return len(self.a[0])

    def region(self) -> Polytope:
        return Polytope(self.a, self.b)

    def stack(self) -> ObjectiveStack:
        return ObjectiveStack(self.objectives)


def combination_multipliers(stack: ObjectiveStack) -> Vector | None:
    """alpha >= 0 with sum(alpha_i * c^i) equal to the last objective row,
    or None when no such multipliers exist (Farkas's alternative: then some
    direction hurts no other objective but lowers the last); see
    ``ObjectiveStack.combination``."""
    if stack.count < 2:
        raise ValueError("need a second objective to combine from")
    return stack.combination(stack.count - 1)[0]


def kernel_separation(
    region: Polytope, reduced: ObjectiveStack
) -> tuple[bool, dict[str, tuple[Vector, ...]]]:
    """Step-7 test with its certificate bases.

    True when the kernel of the reduced stack meets the span of efficient
    vertex differences only at the origin; then the reduced objective map
    is one-to-one on the efficient set.
    """
    kernel = null_space(reduced.rows)
    if not kernel:
        return True, {"kernel": (), "differences": (), "intersection": ()}
    efficient = efficient_vertices(region, reduced)
    diffs = tuple(vsub(v, efficient[0]) for v in efficient[1:]) if efficient else ()
    differences = span_basis(diffs)
    meet = intersect_spans(kernel, differences) if differences else ()
    certificate = {
        "kernel": kernel,
        "differences": differences,
        "intersection": meet,
    }
    return not meet, certificate


def _all_efficient(region: Polytope, reduced: ObjectiveStack, check_bounded: bool) -> TraceEntry:
    """Step 4: a vertex the reduced stack leaves inefficient, or else strictly
    positive weights equalizing the reduced stack across all vertices."""
    pairs = zip(region.vertices, region.zero_sets)
    bad = next((v for v, zeros in pairs if not efficient_at(region, reduced, zeros)), None)
    if bad is not None:
        return TraceEntry(Step.ALL_EFFICIENT, False, bad)
    if check_bounded:
        require_bounded(region, "the equal-weight criterion")
    return _entry(Step.ALL_EFFICIENT, equalizing_weights(reduced, region.vertices))


def _face_efficient(region: Polytope, reduced: ObjectiveStack, face: Face, check_bounded: bool) -> TraceEntry:
    """Step 6: a vertex of the candidate's optimal face, given as its
    vertices and their zero sets, that stays efficient for the reduced
    stack."""
    witness = next((v for v, zeros in zip(*face) if efficient_at(region, reduced, zeros)), None)
    if witness is None and check_bounded:
        require_bounded(region, "the optimal-face separation argument")
    return _entry(Step.FACE_EFFICIENT, witness)


def classify(problem: MolpProblem, candidate: int | None = None) -> Verdict:
    """Decide whether the candidate objective (default: the last one) is
    essential, nonessential, or undecidable by this procedure.

    Raises InfeasibleRegion when the region is empty and UnboundedRegion
    when an exit would need a boundedness hypothesis that does not hold;
    the combination test at step 0 is region-independent and is reported
    before either check.  A TypeError names an entry ``objectives[i][j]``,
    or a candidate that is not an int (a bool is refused too).
    """
    require_rational(problem.objectives, "objectives[{}]".format)
    if candidate is None:
        candidate = problem.n_objectives - 1
    elif isinstance(candidate, bool) or not isinstance(candidate, int):
        raise TypeError(f"candidate is a {type(candidate).__name__}, not an int")
    if not 0 <= candidate < problem.n_objectives:
        raise ValueError(f"objective index {candidate} out of range")
    if problem.n_objectives < 2:
        raise ValueError("need a second objective to compare against")
    return _classify(problem.stack(), candidate, problem.region())


def _classify(stack: ObjectiveStack, candidate: int, region: Polytope) -> Verdict:
    """classify() of row ``candidate`` of ``stack`` on a region object whose
    facts may already be known.  The stack is in the problem's own order, so
    that its step-1 direction does not depend on the candidate; a reduce
    pass shares one stack, and with it one direction.  Step 2 is read off
    steps 0 and 1, and the stack without the candidate is built only for
    steps 4, 6 and 7, which read it.

    Steps 5 and 6 ask the region for the candidate's optimal face and its
    boundedness, which it reads off its vertex search or climbs to."""
    trace: list[TraceEntry] = []

    def verdict(outcome: Outcome, step: Step, relation: str | None = None) -> Verdict:
        return Verdict(candidate, outcome, step, relation, tuple(trace))

    alpha, z = stack.combination(candidate)
    trace.append(_entry(Step.COMBINATION, alpha))
    if alpha is not None:
        return verdict(Outcome.NONESSENTIAL, Step.COMBINATION)

    if not nonempty(region):
        raise InfeasibleRegion("the region Ax <= b, x >= 0 is empty")

    trace.append(_entry(Step.IMPROVEMENT_CONE, stack.direction))

    if stack.direction is None:
        # No semipositive improving direction for the full stack exists, so
        # every feasible point is efficient before deletion.  Then step 2
        # always finds one for the reduced stack: step 1's "no" gives some
        # y > 0 with sum_i y_i c_i = 0, and step 0's Farkas vector z has
        # c_i . z <= 0 on the others and c_k . z > 0, so that
        # sum_{i != k} y_i c_i . z = -y_k c_k . z < 0.  Some other c_i . z is
        # negative, and -z improves the reduced stack semipositively.
        trace.append(TraceEntry(Step.REDUCED_CONE, True, opposite(z)))

        interior = region.interior_point
        trace.append(_entry(Step.INTERIOR, interior))
        if interior is not None:
            # Moving from the interior point along the improving direction
            # stays feasible and leaves the reduced efficient set.
            return verdict(Outcome.ESSENTIAL, Step.INTERIOR)

        trace.append(_all_efficient(region, stack.drop(candidate), check_bounded=True))
        if trace[-1].answer:
            return verdict(Outcome.NONESSENTIAL, Step.ALL_EFFICIENT)
        return verdict(Outcome.ESSENTIAL, Step.ALL_EFFICIENT, REDUCED_WITHIN_FULL)

    try:
        face = face_of(region, stack.image[candidate])
    except UnboundedObjective as exc:
        raise UnboundedRegion(str(exc)) from exc
    trace.append(TraceEntry(Step.OPTIMAL_FACE, True, face[0]))

    reduced = stack.drop(candidate)
    trace.append(_face_efficient(region, reduced, face, check_bounded=True))
    if not trace[-1].answer:
        return verdict(Outcome.ESSENTIAL, Step.FACE_EFFICIENT)

    separated, certificate = kernel_separation(region, reduced)
    if separated and is_bounded(region):
        # Separation gives one direction: every reduced-efficient point stays
        # efficient for the full stack.  Deletion preserves the efficient set
        # only if the other direction holds as well, so confirm it face by
        # face before concluding; a point that is efficient for the full
        # stack but not the reduced one settles the question the other way.
        escaped = efficient_point_outside(region, stack, reduced)
        if escaped is not None:
            certificate = {**certificate, "uncontained": (escaped,)}
        trace.append(TraceEntry(Step.KERNEL, separated, certificate))
        if escaped is None:
            return verdict(Outcome.NONESSENTIAL, Step.KERNEL)
        return verdict(Outcome.ESSENTIAL, Step.KERNEL, REDUCED_WITHIN_FULL)
    trace.append(TraceEntry(Step.KERNEL, separated, certificate))
    # Either the kernel meets the efficient-vertex span, or the region is
    # unbounded and the theorems behind a nonessential conclusion do not
    # apply; both ways this procedure cannot decide.
    return verdict(Outcome.INCONCLUSIVE, Step.KERNEL, FULL_WITHIN_REDUCED)


# Step-level entry points mirroring the decision tree, mainly for tests and
# interactive use.  Each takes the full stack with the candidate last.


def step0(stack: ObjectiveStack) -> bool:
    return combination_multipliers(stack) is not None


def step1(stack: ObjectiveStack) -> bool:
    return stack.direction is not None


def step2(stack: ObjectiveStack) -> bool:
    return stack.drop(stack.count - 1).direction is not None


def step3(region: Polytope) -> bool:
    return region.interior_point is not None


def step4(region: Polytope, stack: ObjectiveStack) -> bool:
    return _all_efficient(region, stack.drop(stack.count - 1), check_bounded=False).answer


def step5(region: Polytope, stack: ObjectiveStack) -> tuple[Vector, ...]:
    return optimal_face(region, stack.rows[-1])[0]


def step6(
    region: Polytope, stack: ObjectiveStack, face: tuple[Vector, ...] | None = None
) -> bool:
    found = optimal_face(region, stack.rows[-1]) if face is None else (face, vertex_zero_sets(region, face))
    return _face_efficient(region, stack.drop(stack.count - 1), found, check_bounded=False).answer


def step7(region: Polytope, stack: ObjectiveStack) -> bool:
    return kernel_separation(region, stack.drop(stack.count - 1))[0]


@dataclass(frozen=True, slots=True)
class Removal:
    objective: int  # index into the original problem's objectives, 0-based
    step: Step


@dataclass(frozen=True, slots=True)
class ReduceResult:
    """Outcome of iterated deletion of nonessential objectives."""

    problem: MolpProblem
    removals: tuple[Removal, ...]
    survivors: tuple[int, ...]  # original 0-based indices, in original order
    history: tuple[tuple[int, Verdict], ...] = field(repr=False, default=())


def reduce_objectives(problem: MolpProblem) -> ReduceResult:
    """Repeatedly delete one nonessential objective until none is found.

    Each pass tries candidates from the highest index down and restarts
    after a deletion, so later (typically auxiliary) objectives go first;
    history records every classification performed, keyed by the original
    objective index.  All classifications share one region object, so each
    region fact is computed once per call: once a step 4 or 7 has built the
    region's whole vertex search, steps 5 and 6 read it instead of climbing,
    and every efficiency answer covers later tests of the same rows, in any
    stack (``efficient_at``).  The candidates of a pass share one
    ``ObjectiveStack``, whose step-1 direction is found once.  The next
    pass's stack is ``drop`` of the deleted candidate, so the problem's
    objectives go into integers once per call, and across a deletion at
    step 0 ``drop`` carries step 1's "no", when its pass found one.
    """
    require_rational(problem.objectives, "objectives[{}]".format)
    labels = list(range(problem.n_objectives))
    removals: list[Removal] = []
    history: list[tuple[int, Verdict]] = []
    region = problem.region()
    removed = True
    stack = problem.stack()
    while removed and stack.count > 1:
        removed = False
        for pos in reversed(range(stack.count)):
            result = _classify(stack, pos, region)
            history.append((labels[pos], result))
            if result.outcome is Outcome.NONESSENTIAL:
                removals.append(Removal(labels[pos], result.decided_at))
                stack = stack.drop(pos)
                del labels[pos]
                removed = True
                break
    reduced = MolpProblem(stack.rows, problem.a, problem.b)
    return ReduceResult(reduced, tuple(removals), tuple(labels), tuple(history))
