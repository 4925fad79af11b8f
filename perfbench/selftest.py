#!/usr/bin/env python3
"""Self-test for the benchmark itself; exits 0 when every check passes.

    python3 perfbench/selftest.py

1. Runs every workload in BENCHMARK.json for three seconds, plain and traced,
   and checks that each run is correct and emits exactly the metrics that
   BENCHMARK.json names.
2. Checks that every wrapped layer function records a nonzero call count on
   at least one workload, so a renamed function shows up here instead of as
   a silent zero.
3. Feeds deliberately altered verdicts straight to the output checker and
   checks that each one is rejected.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, corpus  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_runs(errors: list[str]) -> None:
    calls: dict[str, float] = {}
    for spec in SPEC["workloads"]:
        name = spec["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(name, trace)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{name} trace={trace}: not correct: {result}")
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != wanted:
                errors.append(
                    f"{name} trace={trace}: missing {sorted(set(wanted) - set(got))}, "
                    f"unexpected {sorted(set(got) - set(wanted))}, "
                    f"units differ {sorted(m for m in wanted if m in got and got[m] != wanted[m])}"
                )
            if trace:
                for metric, entry in result["metrics"].items():
                    if metric.endswith(".calls"):
                        calls[metric] = max(calls.get(metric, 0), entry["value"])
                if result["metrics"].get("engine.step.mismatch_ratio", {}).get("value"):
                    errors.append(f"{name}: step attribution disagrees with verdict traces")
    for layer, functions in tracer.LAYERS.items():
        for fn in functions:
            if not calls.get(f"{layer}.{fn}.calls"):
                errors.append(f"{layer}.{fn} recorded no calls on any workload")


def test_checker_rejects_altered_verdicts(errors: list[str]) -> None:
    import objred

    classify_workload = next(w for w in WORKLOADS.values() if w.operation == "classify")
    cube = next(inst for inst in corpus() if inst.label == "cube_3obj")
    problem = objred.MolpProblem(cube.objectives, cube.a, cube.b)
    verdict = objred.classify(problem)
    expected = check.op_code(verdict, None)
    if run.judge(classify_workload, cube, verdict, None, expected) is not None:
        errors.append("checker rejects an unaltered verdict")

    def altered(step: int, certificate: object) -> object:
        trace = tuple(
            dataclasses.replace(e, certificate=certificate) if int(e.step) == step else e
            for e in verdict.trace
        )
        return dataclasses.replace(verdict, trace=trace)

    face = next(e.certificate for e in verdict.trace if int(e.step) == 5)
    direction = next(e.certificate for e in verdict.trace if int(e.step) == 1)
    bad = {
        "flipped outcome": dataclasses.replace(verdict, outcome=objred.Outcome.ESSENTIAL),
        "other step": dataclasses.replace(verdict, decided_at=objred.Step.FACE_EFFICIENT),
        "infeasible face vertex": altered(5, face + (tuple(v + 5 for v in face[0]),)),
        "reversed direction": altered(1, tuple(-v for v in direction)),
    }
    for what, verdict_bad in bad.items():
        if run.judge(classify_workload, cube, verdict_bad, None, expected) is None:
            errors.append(f"checker accepts a verdict with a {what}")

    planted = dataclasses.replace(
        cube, objectives=cube.objectives[:2] + (tuple(a + b for a, b in zip(*cube.objectives[:2])),)
    )
    step0 = objred.classify(objred.MolpProblem(planted.objectives, planted.a, planted.b))
    if run.judge(classify_workload, planted, step0, None, None) is not None:
        errors.append("checker rejects a correct step-0 verdict")
    wrong = dataclasses.replace(
        step0, trace=(dataclasses.replace(step0.trace[0], certificate=(1, 2)),)
    )
    if run.judge(classify_workload, planted, wrong, None, None) is None:
        errors.append("checker accepts step-0 multipliers that do not rebuild the row")
    if run.judge(classify_workload, cube, None, objred.UnboundedRegion("x"), None) is None:
        errors.append("checker accepts UnboundedRegion on a bounded region")


def main() -> int:
    errors: list[str] = []
    test_checker_rejects_altered_verdicts(errors)
    test_runs(errors)
    for line in errors:
        print(f"FAIL {line}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
