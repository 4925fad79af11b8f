"""Command-line front end.

Subcommands: classify (one objective), reduce (drop nonessential objectives
until none is left), vertices (list region or optimal-face vertices).
Exit codes: 0 completed with any verdict, 2 input error, 3 empty region,
4 unbounded region where a bounded one is required.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import classify, reduce_objectives
from .errors import InfeasibleRegion, ParseError, UnboundedObjective, UnboundedRegion
from .polytope import nonempty, optimal_face_vertices
from .problem_io import (
    ProblemDocument,
    format_outcome,
    format_trace,
    format_verdict,
    parse_document,
    reduce_to_jsonable,
    verdict_to_jsonable,
)


def _load(path: str) -> ProblemDocument:
    with open(path, "rb") as handle:
        return parse_document(handle.read())


def _objective_index(doc: ProblemDocument, number: int | None) -> int | None:
    if number is None:
        return None
    if not 1 <= number <= doc.problem.n_objectives:
        raise ParseError(
            f"--objective {number} out of range 1..{doc.problem.n_objectives}"
        )
    return number - 1


def _cmd_classify(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    count = doc.problem.n_objectives
    if count < 2:
        raise ParseError(f"classify needs at least 2 objectives, and the document has {count}")
    verdict = classify(doc.problem, _objective_index(doc, args.objective))
    if args.json:
        print(json.dumps(verdict_to_jsonable(verdict), ensure_ascii=False, indent=2))
        return 0
    if args.trace:
        print(format_trace(verdict))
    print(format_verdict(verdict, doc.objective_names))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    result = reduce_objectives(doc.problem)
    names = doc.objective_names
    if args.json:
        print(
            json.dumps(reduce_to_jsonable(result, names), ensure_ascii=False, indent=2)
        )
        return 0
    for original, verdict in result.history:
        print(format_outcome(names[original], verdict))
    print("Objectives kept: " + ", ".join(names[i] for i in result.survivors))
    return 0


def _cmd_vertices(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    region = doc.problem.region()
    if not nonempty(region):
        raise InfeasibleRegion("region is empty")
    if args.face is not None:
        index = _objective_index(doc, args.face)
        points = optimal_face_vertices(region, doc.problem.objectives[index])
    else:
        points = region.vertices
    for point in points:
        print("(" + ", ".join(str(c) for c in point) + ")")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="objred",
        description="Decide whether objectives of a linear multiobjective "
        "problem are essential or nonessential, using exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem document (JSON)")

    p_classify = sub.add_parser(
        "classify", parents=[common], help="classify one objective"
    )
    p_classify.add_argument(
        "--objective",
        type=int,
        metavar="K",
        help="1-based objective to test (default: the last one)",
    )
    p_classify.add_argument(
        "--trace", action="store_true", help="print the per-step answers"
    )
    p_classify.add_argument("--json", action="store_true", help="JSON verdict")
    p_classify.set_defaults(func=_cmd_classify)

    p_reduce = sub.add_parser(
        "reduce", parents=[common], help="delete nonessential objectives"
    )
    p_reduce.add_argument("--json", action="store_true", help="JSON summary")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_vertices = sub.add_parser(
        "vertices", parents=[common], help="list vertices of the region"
    )
    p_vertices.add_argument(
        "--face",
        type=int,
        metavar="K",
        help="list the optimal-face vertices of objective K instead",
    )
    p_vertices.set_defaults(func=_cmd_vertices)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleRegion as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnboundedRegion, UnboundedObjective) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
