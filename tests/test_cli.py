import json
import subprocess
import sys
from pathlib import Path

import pytest

from objred import cli
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
