import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objred import ParseError, cli, parse_document
from objred.cli import main

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_prints_verdict(capsys):
    code, out, err = run(capsys, "classify", PROBLEMS / "simplex_3obj.json")
    assert code == 0
    assert out.strip() == "Objective function f3 is essential (step 3)"
    assert err == ""


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", PROBLEMS / "box5_4obj.json", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["candidate"] == 4
    assert payload["outcome"] == "nonessential"
    assert payload["decided_at_step"] == 7
    assert [t["step"] for t in payload["trace"]] == [0, 1, 5, 6, 7]


def test_classify_trace(capsys):
    code, out, _ = run(capsys, "classify", PROBLEMS / "segment_4obj.json", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step 0: false"
    assert lines[-1] == "Objective function f4 is nonessential (step 4)"


def test_classify_objective_option(capsys):
    code, out, _ = run(
        capsys, "classify", PROBLEMS / "segment_4obj.json", "--objective", 1
    )
    assert code == 0
    assert out.strip() == "Objective function f1 is nonessential (step 0)"


def test_classify_inconclusive_still_succeeds(capsys):
    code, out, _ = run(capsys, "classify", PROBLEMS / "unbounded6_3obj.json")
    assert code == 0
    assert "inconclusive (step 7)" in out
    assert "X_E^{n+1} ⊆ X_E^n" in out


def test_classify_empty_region_exit_code(capsys):
    code, out, err = run(capsys, "classify", PROBLEMS / "empty_region.json")
    assert code == 3
    assert out == ""
    assert "empty" in err


def test_classify_unbounded_exit_code(capsys, tmp_path):
    doc = {
        "objectives": [[-1, -1], [1, 1]],
        "constraints": [
            {"coeffs": [1, -1], "rhs": 0},
            {"coeffs": [-1, 1], "rhs": 0},
        ],
    }
    path = tmp_path / "ray.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", path)
    assert code == 4
    assert "unbounded" in err


def test_input_errors_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "classify", tmp_path / "missing.json")
    assert code == 2 and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "classify", bad)
    assert code == 2 and "not valid JSON" in err

    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    code, _, err = run(capsys, "classify", nested)
    assert code == 2 and "nested too deeply" in err

    code, _, err = run(
        capsys, "classify", PROBLEMS / "cube_3obj.json", "--objective", 9
    )
    assert code == 2 and "out of range" in err

    code, _, err = run(
        capsys, "classify", PROBLEMS / "cube_3obj.json", "--objective", 0
    )
    assert code == 2

    single = tmp_path / "single.json"
    document = json.loads((PROBLEMS / "cube_3obj.json").read_text())
    document["objectives"] = document["objectives"][:1]
    single.write_text(json.dumps(document))
    code, _, err = run(capsys, "classify", single)
    assert code == 2 and "error:" in err and "has 1" in err


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    # Exit code 2 means the document is at fault; a ValueError raised inside
    # the library is a bug and must not be reported as one.
    def broken(*args):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "classify", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["classify", str(PROBLEMS / "cube_3obj.json")])


def test_reduce_output(capsys):
    code, out, _ = run(capsys, "reduce", PROBLEMS / "segment_4obj.json")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Objective function f4 is nonessential (step 4)"
    assert lines[1] == "Objective function f3 is nonessential (step 7)"
    assert lines[2] == "Objective function f2 is essential (step 6)"
    assert lines[3] == "Objective function f1 is essential (step 6)"
    assert lines[4] == "Objectives kept: f1, f2"


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", PROBLEMS / "segment_4obj.json", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["removals"] == [
        {"objective": "f4", "step": 4},
        {"objective": "f3", "step": 7},
    ]
    assert payload["survivors"] == ["f1", "f2"]


def test_vertices_listing(capsys):
    code, out, _ = run(capsys, "vertices", PROBLEMS / "cube_3obj.json")
    assert code == 0
    assert len(out.splitlines()) == 8
    assert "(0, 0, 0)" in out


def test_vertices_face(capsys):
    code, out, _ = run(
        capsys, "vertices", PROBLEMS / "cube_3obj.json", "--face", 3
    )
    assert code == 0
    assert out.splitlines() == ["(1, 1, 0)", "(1, 1, 1)"]


def test_vertices_empty_region_exit_code(capsys):
    # Exit code 3 means an empty region, with or without --face.
    for extra in ((), ("--face", 1)):
        code, out, err = run(capsys, "vertices", PROBLEMS / "empty_region.json", *extra)
        assert code == 3
        assert out == ""
        assert "empty" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "objred", "classify", str(PROBLEMS / "cube_3obj.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "nonessential (step 7)" in proc.stdout


DOCUMENTS = [json.loads(path.read_text()) for path in sorted(PROBLEMS.glob("*.json"))]
BAD_LITERALS = ["1/0", "x", "", "--1", "1e99999", "nan", None, [], {}]
SUBCOMMANDS = (
    ("classify", "--trace"),
    ("classify", "--json"),
    ("reduce", "--json"),
    ("vertices",),
    ("vertices", "--face", "1"),
)


@st.composite
def mutated_documents(draw):
    """A problems/*.json document with up to two breaking mutations (a bad
    literal or a boolean in place of a coefficient or right-hand side, a
    relation other than "<=", a row one entry too long or too short) and up
    to three extra "<=" rows whose right-hand sides have either sign."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    width = len(doc["variables"])
    for _ in range(draw(st.integers(0, 3))):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(width)]
        doc["constraints"].append({"coeffs": coeffs, "relation": "<=", "rhs": draw(st.integers(-6, 6))})
    rows = doc["objectives"] + doc["constraints"]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("literal", "boolean", "relation", "width")))
        if kind in ("literal", "boolean"):
            row = draw(st.sampled_from(rows))
            slots = [(row["coeffs"], j) for j in range(len(row["coeffs"]))]
            slots += [(row, "rhs")] if "rhs" in row else []
            target, key = draw(st.sampled_from(slots))
            target[key] = draw(st.sampled_from(BAD_LITERALS) if kind == "literal" else st.booleans())
        elif kind == "relation":
            draw(st.sampled_from(doc["constraints"]))["relation"] = draw(st.sampled_from((">=", "=")))
        else:
            coeffs = draw(st.sampled_from(rows))["coeffs"]
            if len(coeffs) < 2 or draw(st.booleans()):
                coeffs.append(1)
            else:
                coeffs.pop()
    return doc


@settings(deadline=None, max_examples=250)
@given(mutated_documents())
def test_mutated_documents_end_in_an_exit_code(doc):
    # Every subcommand ends in a documented exit code, and a document that
    # does not parse is an input error for every one of them.
    text = json.dumps(doc)
    try:
        parse_document(text)
        parsed = True
    except ParseError:
        parsed = False
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "problem.json"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = {main([command, str(path), *options]) for command, *options in SUBCOMMANDS}
    assert codes <= {0, 2, 3, 4}
    assert parsed or codes == {2}
