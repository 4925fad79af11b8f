"""Exact detection of redundant objectives in linear multiobjective programs.

Given max {F(x) : Ax <= b, x >= 0}, decide for a chosen objective whether
deleting it changes the efficient set (essential) or not (nonessential),
with every computation done in rational arithmetic.
"""

# The exact LP solver is public (README), and the decision tree no longer
# imports it: load it here so ``objred.simplex`` is there for every user of
# the package, the benchmark's tracer among them.
from . import simplex
from .efficiency import (
    ObjectiveStack,
    efficient_point_outside,
    efficient_vertices,
    equalizing_weights,
    find_cone_point,
    is_efficient,
)
from .engine import (
    FULL_WITHIN_REDUCED,
    REDUCED_WITHIN_FULL,
    MolpProblem,
    Outcome,
    ReduceResult,
    Removal,
    Step,
    TraceEntry,
    Verdict,
    classify,
    combination_multipliers,
    reduce_objectives,
)
from .errors import (
    DimensionError,
    Error,
    InfeasibleInput,
    InfeasibleRegion,
    ParseError,
    RelationError,
    UnboundedObjective,
    UnboundedRegion,
)
from .polytope import (
    Polytope,
    contains,
    enumerate_vertices,
    face_vertex_sets,
    find_interior_point,
    is_bounded,
    optimal_face_vertices,
)
from .problem_io import (
    ProblemDocument,
    format_verdict,
    parse_document,
    parse_problem,
    serialize_document,
    verdict_to_jsonable,
)

__all__ = [
    "DimensionError",
    "Error",
    "FULL_WITHIN_REDUCED",
    "REDUCED_WITHIN_FULL",
    "InfeasibleInput",
    "InfeasibleRegion",
    "MolpProblem",
    "ObjectiveStack",
    "Outcome",
    "ParseError",
    "Polytope",
    "ProblemDocument",
    "ReduceResult",
    "RelationError",
    "Removal",
    "Step",
    "TraceEntry",
    "UnboundedObjective",
    "UnboundedRegion",
    "Verdict",
    "classify",
    "combination_multipliers",
    "contains",
    "efficient_point_outside",
    "efficient_vertices",
    "enumerate_vertices",
    "face_vertex_sets",
    "equalizing_weights",
    "find_cone_point",
    "find_interior_point",
    "format_verdict",
    "is_bounded",
    "is_efficient",
    "optimal_face_vertices",
    "parse_document",
    "parse_problem",
    "reduce_objectives",
    "serialize_document",
    "verdict_to_jsonable",
]

__version__ = "0.1.0"
