import json
from fractions import Fraction

import pytest

from objred import (
    FULL_WITHIN_REDUCED,
    REDUCED_WITHIN_FULL,
    MolpProblem,
    classify,
    parse_document,
    parse_problem,
    reduce_objectives,
    serialize_document,
    verdict_to_jsonable,
)
from objred import problem_io
from objred.errors import DimensionError, ParseError, RelationError
from objred.problem_io import (
    ProblemDocument,
    format_outcome,
    format_trace,
    format_verdict,
    reduce_to_jsonable,
)

from helpers import frows, fvec, segment_3obj, segment_4obj, unbounded6_3obj

CUBE_DOC = """
{
  "variables": ["x1", "x2", "x3"],
  "objectives": [
    {"name": "f1", "coeffs": [1, 1, 1]},
    {"name": "f2", "coeffs": [-1, 1, 1]},
    {"name": "f3", "coeffs": [1, 1, 0]}
  ],
  "constraints": [
    {"coeffs": [1, 0, 0], "relation": "<=", "rhs": 1},
    {"coeffs": [0, 1, 0], "relation": "<=", "rhs": 1},
    {"coeffs": [0, 0, 1], "relation": "<=", "rhs": 1}
  ]
}
"""


def test_parse_cube_document():
    doc = parse_document(CUBE_DOC)
    assert doc.variables == ("x1", "x2", "x3")
    assert doc.objective_names == ("f1", "f2", "f3")
    assert doc.problem.objectives == frows([1, 1, 1], [-1, 1, 1], [1, 1, 0])
    assert doc.problem.a == frows([1, 0, 0], [0, 1, 0], [0, 0, 1])
    assert doc.problem.b == fvec([1, 1, 1])


def test_parse_defaults_names_and_variables():
    doc = parse_document(
        '{"objectives": [[1, 0], [0, 1]],'
        ' "constraints": [{"coeffs": [1, 1], "rhs": 1}]}'
    )
    assert doc.variables == ("x1", "x2")
    assert doc.objective_names == ("f1", "f2")


def test_parse_exact_rationals():
    doc = parse_document(
        '{"objectives": [["1/3", 0.5]],'
        ' "constraints": [{"coeffs": [1, 1], "rhs": 0.1}]}'
    )
    assert doc.problem.objectives[0] == (Fraction(1, 3), Fraction(1, 2))
    assert doc.problem.b[0] == Fraction(1, 10)


def test_parse_rejects_booleans():
    with pytest.raises(ParseError):
        parse_problem(
            '{"objectives": [[true, 1]],'
            ' "constraints": [{"coeffs": [1, 1], "rhs": 1}]}'
        )


def test_parse_shares_one_fraction_per_integer_literal():
    text = (
        '{"objectives": [[1, 20], [20, 1]],'
        ' "constraints": [{"coeffs": [1, 0.5], "rhs": 20}]}'
    )
    problem = parse_problem(text)
    (f1, f2), (a,), (b,) = problem.objectives, problem.a, problem.b
    assert f1[0] is f2[1] is a[0] == 1
    assert f1[1] is f2[0] is b == 20
    # A small rational is one shared constant; a larger literal is shared
    # within its document only, so no table outlives a parse.
    again = parse_problem(text)
    assert again.objectives[0][0] is f1[0]
    assert again.objectives[0][1] == f1[1] and again.objectives[0][1] is not f1[1]


@pytest.mark.parametrize("literals", ["1, true", "0, false", "true, 1"])
def test_parse_rejects_a_boolean_after_an_equal_integer(literals):
    with pytest.raises(ParseError, match="boolean"):
        parse_problem(
            f'{{"objectives": [[{literals}]],'
            ' "constraints": [{"coeffs": [1, 1], "rhs": 1}]}'
        )


def test_parse_rejects_other_relations():
    with pytest.raises(RelationError):
        parse_problem(
            '{"objectives": [[1, 1]],'
            ' "constraints": [{"coeffs": [1, 1], "relation": ">=", "rhs": 1}]}'
        )


def test_parse_rejects_short_rows():
    with pytest.raises(DimensionError):
        parse_problem(
            '{"variables": ["x1", "x2"], "objectives": [[1]],'
            ' "constraints": [{"coeffs": [1, 1], "rhs": 1}]}'
        )
    with pytest.raises(DimensionError):
        parse_problem(
            '{"objectives": [[1, 1]],'
            ' "constraints": [{"coeffs": [1], "rhs": 1}]}'
        )


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError):
        parse_document("{not json")
    with pytest.raises(ParseError):
        parse_document("[1, 2, 3]")
    with pytest.raises(ParseError):
        parse_document('{"objectives": [], "constraints": []}')
    with pytest.raises(ParseError):
        parse_document('{"objectives": [[1]]}')
    with pytest.raises(ParseError):
        parse_document(
            '{"objectives": [[1]], "constraints": [{"coeffs": [1], "rhs": "x"}]}'
        )


def test_parse_rejects_deeply_nested_json():
    # The json module recurses once per level and raises RecursionError.
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_document("[" * 100_000)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_document("[" * 100_000 + "]" * 100_000)


def test_parse_shortens_over_long_literals_in_errors():
    literal = "1/" + "x" * 4998
    doc = '{"objectives": [["%s"]], "constraints": [{"coeffs": [1], "rhs": 1}]}' % literal
    with pytest.raises(ParseError) as info:
        parse_document(doc)
    message = str(info.value)
    assert len(message) < 200
    assert "objective 1" in message
    assert "5000 characters" in message
    assert literal[:40] in message


def _one_rhs(literal):
    return '{"objectives": [[1]], "constraints": [{"coeffs": [1], "rhs": %s}]}' % literal


def test_parse_rejects_over_long_integer_literal():
    # Integer literals of more digits than the interpreter's limit raise
    # ValueError inside json.loads; the parser reports it as ParseError.
    with pytest.raises(ParseError):
        parse_document(_one_rhs("1" * 4301))
    assert parse_problem(_one_rhs("1" * 4300)).b == (Fraction("1" * 4300),)


@pytest.mark.parametrize("literal", ["1e5000", "1E-5000", '"1e5000"', '"-2.5e-5000"', '"1e' + "9" * 5000 + '"'])
def test_parse_rejects_huge_decimal_exponents(literal):
    # Fraction builds 10**exponent, so an unchecked exponent of a few digits
    # more would take minutes; these fail at once.
    with pytest.raises(ParseError):
        parse_document(_one_rhs(literal))


@pytest.mark.parametrize("literal", ["1e4300", '"1e4300"', "1e-4300", '"-2.5E+4300"'])
def test_parse_accepts_decimal_exponents_up_to_the_limit(literal):
    expected = Fraction(literal.strip('"'))
    assert parse_problem(_one_rhs(literal)).b == (expected,)


def test_serialize_roundtrip_is_identity():
    doc = parse_document(CUBE_DOC)
    text = serialize_document(doc)
    again = parse_document(text)
    assert again == doc
    assert serialize_document(again) == text


def test_serialize_writes_fraction_strings():
    doc = ProblemDocument(
        ("x1",),
        ("f1",),
        MolpProblem(frows(["1/2"]), frows([1]), fvec(["2/3"])),
    )
    text = serialize_document(doc)
    assert '"1/2"' in text and '"2/3"' in text
    assert parse_document(text) == doc


def test_verdict_jsonable_schema():
    payload = verdict_to_jsonable(classify(segment_4obj()))
    assert payload["candidate"] == 4
    assert payload["outcome"] == "nonessential"
    assert payload["decided_at_step"] == 4
    assert payload["trace"] == [
        {"step": 0, "answer": False},
        {"step": 1, "answer": False},
        {"step": 2, "answer": True},
        {"step": 3, "answer": False},
        {"step": 4, "answer": True},
    ]
    assert "relation" not in payload
    assert payload["certificates"]["4"] == ["1/2", "1/4", "1/4"]
    json.dumps(payload)  # everything must be plain JSON types


def test_parse_reports_a_rejected_problem_as_parse_error(monkeypatch):
    # Whatever MolpProblem refuses is a fault of the document.
    def refuse(*args):
        raise ValueError("objective length != variable count")

    monkeypatch.setattr(problem_io, "MolpProblem", refuse)
    with pytest.raises(ParseError, match="objective length"):
        parse_document(CUBE_DOC)


def test_verdict_jsonable_includes_relation():
    payload = verdict_to_jsonable(classify(segment_3obj()))
    assert payload["outcome"] == "essential"
    assert payload["relation"] == REDUCED_WITHIN_FULL
    json.dumps(payload)


def test_reduce_jsonable():
    result = reduce_objectives(segment_4obj())
    payload = reduce_to_jsonable(result, ("f1", "f2", "f3", "f4"))
    assert payload["removals"] == [
        {"objective": "f4", "step": 4},
        {"objective": "f3", "step": 7},
    ]
    assert payload["survivors"] == ["f1", "f2"]
    assert [h["objective"] for h in payload["history"]] == ["f4", "f3", "f2", "f1"]
    json.dumps(payload)


def test_format_verdict_lines():
    names = ("f1", "f2", "f3", "f4")
    assert (
        format_verdict(classify(segment_4obj()), names)
        == "Objective function f4 is nonessential (step 4)"
    )
    assert (
        format_verdict(classify(segment_3obj()), names)
        == "Objective function f3 is essential (step 4)"
    )


def test_format_inconclusive_line():
    line = format_outcome("f3", classify(unbounded6_3obj()))
    assert line == (
        "Classification of objective function f3 is inconclusive (step 7); "
        f"known relation: {FULL_WITHIN_REDUCED}"
    )


def test_format_trace():
    text = format_trace(classify(segment_4obj()))
    assert text.splitlines() == [
        "step 0: false",
        "step 1: false",
        "step 2: true",
        "step 3: false",
        "step 4: true",
    ]
    from helpers import cube_3obj

    text = format_trace(classify(cube_3obj()))
    assert "step 5: optimal face with 2 vertex(es)" in text.splitlines()
