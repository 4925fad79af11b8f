#!/usr/bin/env python3
"""Check the result line of a traced benchmark run against BENCHMARK.json.

    python3 perfbench/run.py --workload reduce-many --seconds 3 --trace 1 \
        | python3 scripts/check_traced_line.py

Reads the run's standard output and checks its last line: it must be strict
JSON (no NaN or Infinity), report a correct run, and hold every ``per_layer``
metric that BENCHMARK.json lists.  ``perfbench/tracer.py`` skips a layer
function it cannot find, so renaming or deleting one in the library drops
its metrics from that line with no error.  Exits 0 when the line passes;
otherwise prints what is wrong to standard error and exits 1.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _refuse(constant: str) -> None:
    raise ValueError(f"{constant} is not a JSON number")


def faults(line: str, names: list[str]) -> list[str]:
    """What is wrong with the result line, given the per-layer names."""
    try:
        result = json.loads(line, parse_constant=_refuse)
    except ValueError as exc:
        return [f"the last line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["the last line is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append("the run is not correct")
    metrics = result.get("metrics")
    missing = [name for name in names if not isinstance(metrics, dict) or name not in metrics]
    if missing:
        found.append(f"{len(missing)} per-layer metrics missing: {', '.join(missing)}")
    return found


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    lines = sys.stdin.read().splitlines()
    found = faults(lines[-1] if lines else "", names)
    for fault in found:
        print(fault, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
