"""The command-line scripts under scripts/ still run end to end."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_random_stress_finds_no_mismatch():
    proc = run_script("random_stress.py", "--count", "10", "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "10 instances" in proc.stdout
    assert " 0 mismatch(es)" in proc.stdout


def test_bench_runs_its_smallest_rungs():
    proc = run_script("bench.py", "--max-k", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "k=3 m=7 " in proc.stdout and "k=4 m=8 " in proc.stdout
    assert "  k=4 n=5 essential at step 6 83 faces " in proc.stdout
    assert "  k=5 " not in proc.stdout and "cube k=5" not in proc.stdout
    assert "  cube k=4 m=10 16 vertices 0 rays " in proc.stdout
    assert "  cone k=6 m=15 1 vertices 6 rays " in proc.stdout
    assert "cube_3obj.json: classify " in proc.stdout


def test_freeze_golden_rewrites_nothing_on_help_or_a_bad_flag():
    golden = SCRIPTS.parent / "tests" / "golden_verdicts.json"
    before = golden.read_bytes(), golden.stat().st_mtime_ns
    helped = run_script("freeze_golden.py", "--help")
    assert helped.returncode == 0, helped.stdout + helped.stderr
    assert "golden verdict corpus" in helped.stdout
    bad = run_script("freeze_golden.py", "--no-such-flag")
    assert bad.returncode == 2
    assert "unrecognized arguments" in bad.stderr
    assert "wrote" not in helped.stdout + bad.stdout
    assert (golden.read_bytes(), golden.stat().st_mtime_ns) == before


def test_check_traced_line_wants_strict_json_with_every_per_layer_metric():
    benchmark = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in benchmark["per_layer"]]
    metrics = {name: {"value": 0.0, "unit": "1/op"} for name in names}

    def check(result):
        stdin = "a progress line\n" + json.dumps(result) + "\n"
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "check_traced_line.py")],
            input=stdin, capture_output=True, text=True, timeout=60,
        )

    passed = check({"correct": True, "metrics": metrics})
    assert passed.returncode == 0, passed.stderr
    dropped = dict(metrics)
    del dropped["linalg.solve_square.calls"]
    missing = check({"correct": True, "metrics": dropped})
    assert missing.returncode == 1 and "missing: linalg.solve_square.calls" in missing.stderr
    nan = check({"correct": True, "metrics": {**metrics, "trace.overhead_ratio": float("nan")}})
    assert nan.returncode == 1 and "NaN is not a JSON number" in nan.stderr
    wrong = check({"correct": False, "metrics": metrics})
    assert wrong.returncode == 1 and "not correct" in wrong.stderr
