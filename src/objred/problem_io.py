"""Problem files and verdict rendering.

The on-disk format is a small JSON document; every numeric literal is read
exactly (JSON decimals go through Fraction, never float), and rationals are
written back as integers or "p/q" strings, so parse -> serialize -> parse
is the identity.

Document shape:

    {
      "variables": ["x1", "x2"],
      "objectives": [{"name": "f1", "coeffs": [1, 3]}, ...],
      "constraints": [{"coeffs": [1, 1], "relation": "<=", "rhs": 1}, ...]
    }

Only "<=" rows are accepted; x >= 0 is implicit.  Equalities are written as
two opposing rows.  Coefficients may be integers, "p/q" strings, or decimal
literals such as 0.5 (read as 1/2).  "variables" and objective names are
optional; defaults are x1..xk and f1..fn.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .engine import MolpProblem, Outcome, ReduceResult, Step, Verdict
from .errors import DimensionError, ParseError, RelationError
from .linalg import ratio


@dataclass(frozen=True)
class ProblemDocument:
    variables: tuple[str, ...]
    objective_names: tuple[str, ...]
    problem: MolpProblem


_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _decimal(literal: str) -> Fraction:
    """Fraction(literal), refusing an exponent larger in magnitude than the
    interpreter's integer digit limit, which integer literals already obey:
    Fraction builds 10**exponent, at a cost that grows without bound."""
    limit = sys.get_int_max_str_digits()
    match = _EXPONENT.search(literal)
    if limit and match and abs(int(match.group(1))) > limit:
        raise ValueError(f"exponent magnitude exceeds {limit}")
    return Fraction(literal)


def _rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):  # bool is an int; reject it explicitly
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _decimal(value)
        except (ValueError, ZeroDivisionError) as exc:
            shown = repr(value)
            if len(value) > 40:  # quote a prefix, not a line of any length
                shown = f"{value[:40]!r}... ({len(value)} characters)"
            raise ParseError(f"{where}: bad rational literal {shown}") from exc
    raise ParseError(f"{where}: expected a rational, got {type(value).__name__}")


def _shared(value: Any, where: str, ints: dict[int, Fraction]) -> Fraction:
    """_rational(value), one Fraction per distinct JSON integer in ``ints``.
    The key is the int itself, tested by exact type: a boolean equals 0 or 1
    but must still be refused, and hashing an int is cheap where hashing a
    Fraction is not."""
    if type(value) is not int:
        return _rational(value, where)
    q = ints.get(value)
    if q is None:
        q = ints[value] = ratio(value, 1)
    return q


def _coeffs(value: Any, width: int, where: str, ints: dict[int, Fraction]) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{where}: coeffs must be a list")
    if len(value) != width:
        raise DimensionError(
            f"{where}: expected {width} coefficients, got {len(value)}"
        )
    return tuple(_shared(v, where, ints) for v in value)


def parse_document(text: str | bytes) -> ProblemDocument:
    """Parse a problem document, exactly; see the module docstring for the
    format and the errors raised on malformed input."""
    try:
        raw = json.loads(text, parse_float=_decimal)
    except ValueError as exc:  # JSONDecodeError, or a number literal too long to read
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("not valid JSON: nested too deeply to read") from exc
    if not isinstance(raw, dict):
        raise ParseError("top level must be a JSON object")

    objectives = raw.get("objectives")
    constraints = raw.get("constraints")
    if not isinstance(objectives, list) or not objectives:
        raise ParseError('"objectives" must be a non-empty list')
    if not isinstance(constraints, list) or not constraints:
        raise ParseError('"constraints" must be a non-empty list')

    variables = raw.get("variables")
    if variables is None:
        first = objectives[0]
        probe = first.get("coeffs") if isinstance(first, dict) else first
        if not isinstance(probe, list):
            raise ParseError("objective entries must be lists or {name, coeffs}")
        variables = [f"x{i + 1}" for i in range(len(probe))]
    if not isinstance(variables, list) or not all(
        isinstance(v, str) for v in variables
    ):
        raise ParseError('"variables" must be a list of names')
    if not variables:
        raise ParseError("need at least one variable")
    width = len(variables)
    ints: dict[int, Fraction] = {}

    names: list[str] = []
    rows: list[tuple[Fraction, ...]] = []
    for i, entry in enumerate(objectives):
        where = f"objective {i + 1}"
        if isinstance(entry, list):
            entry = {"coeffs": entry}
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be a list or {{name, coeffs}}")
        name = entry.get("name", f"f{i + 1}")
        if not isinstance(name, str):
            raise ParseError(f"{where}: name must be a string")
        names.append(name)
        rows.append(_coeffs(entry.get("coeffs"), width, where, ints))

    a_rows: list[tuple[Fraction, ...]] = []
    b: list[Fraction] = []
    for i, entry in enumerate(constraints):
        where = f"constraint {i + 1}"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object with coeffs and rhs")
        relation = entry.get("relation", "<=")
        if relation != "<=":
            raise RelationError(
                f'{where}: only "<=" rows are supported, got {relation!r}'
            )
        a_rows.append(_coeffs(entry.get("coeffs"), width, where, ints))
        b.append(_shared(entry.get("rhs"), where, ints))

    try:
        problem = MolpProblem(tuple(rows), tuple(a_rows), tuple(b))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return ProblemDocument(tuple(variables), tuple(names), problem)


def parse_problem(text: str | bytes) -> MolpProblem:
    return parse_document(text).problem


def _literal(q: Fraction) -> int | str:
    return int(q) if q.denominator == 1 else str(q)


def serialize_document(doc: ProblemDocument) -> str:
    payload = {
        "variables": list(doc.variables),
        "objectives": [
            {"name": name, "coeffs": [_literal(c) for c in row]}
            for name, row in zip(doc.objective_names, doc.problem.objectives)
        ],
        "constraints": [
            {
                "coeffs": [_literal(c) for c in row],
                "relation": "<=",
                "rhs": _literal(rhs),
            }
            for row, rhs in zip(doc.problem.a, doc.problem.b)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _jsonable(value: Any) -> Any:
    """Certificates hold Fractions, vectors, vector tuples, and dicts of
    those; everything becomes strings, lists, and objects."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return str(value)


def verdict_to_jsonable(verdict: Verdict) -> dict[str, Any]:
    out: dict[str, Any] = {
        "candidate": verdict.candidate + 1,
        "outcome": verdict.outcome.value,
        "decided_at_step": int(verdict.decided_at),
        "trace": [
            {"step": int(entry.step), "answer": entry.answer}
            for entry in verdict.trace
        ],
    }
    if verdict.relation is not None:
        out["relation"] = verdict.relation
    certificates = {
        str(int(entry.step)): _jsonable(entry.certificate)
        for entry in verdict.trace
        if entry.certificate is not None
    }
    if certificates:
        out["certificates"] = certificates
    return out


def reduce_to_jsonable(result: ReduceResult, names: Sequence[str]) -> dict[str, Any]:
    return {
        "removals": [
            {"objective": names[r.objective], "step": int(r.step)}
            for r in result.removals
        ],
        "survivors": [names[i] for i in result.survivors],
        "history": [
            {
                "objective": names[i],
                "outcome": v.outcome.value,
                "decided_at_step": int(v.decided_at),
            }
            for i, v in result.history
        ],
    }


def format_outcome(name: str, verdict: Verdict) -> str:
    step = int(verdict.decided_at)
    if verdict.outcome is Outcome.INCONCLUSIVE:
        return (
            f"Classification of objective function {name} is inconclusive "
            f"(step {step}); known relation: {verdict.relation}"
        )
    return f"Objective function {name} is {verdict.outcome.value} (step {step})"


def format_verdict(verdict: Verdict, names: Sequence[str]) -> str:
    return format_outcome(names[verdict.candidate], verdict)


def format_trace(verdict: Verdict) -> str:
    lines = []
    for entry in verdict.trace:
        if entry.step is Step.OPTIMAL_FACE:
            count = len(entry.certificate) if entry.certificate else 0
            lines.append(f"step 5: optimal face with {count} vertex(es)")
        else:
            lines.append(f"step {int(entry.step)}: {str(entry.answer).lower()}")
    return "\n".join(lines)
