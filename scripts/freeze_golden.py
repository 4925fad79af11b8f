#!/usr/bin/env python3
"""Write the golden verdict corpus to tests/golden_verdicts.json.

The corpus pins every verdict the library gives on a fixed set of inputs,
certificates included, so a change that should keep verdicts can be checked
against it exactly (tests/test_golden.py recomputes each section):

- ``problems``: ``classify`` of every objective of every problems/*.json,
  and ``reduce_objectives`` of every document;
- ``classify``: ``classify`` of ``random_problem(Random(s))``, s = 0..149;
- ``unbounded``: ``classify`` of ``random_problem(Random(1000 + s),
  ensure_bounded=False)``, s = 0..29;
- ``reduce``: ``reduce_objectives`` of ``random_problem(Random(2000 + s))``,
  s = 0..29, with every verdict of its history.

A raised library error is recorded by its class name.  Regenerate only when
a verdict is meant to change, and say which and why:

    python3 scripts/freeze_golden.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
from typing import Any, Callable

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from objred import Error, classify, parse_document, reduce_objectives  # noqa: E402
from objred.instances import random_problem  # noqa: E402
from objred.problem_io import reduce_to_jsonable, verdict_to_jsonable  # noqa: E402

GOLDEN = ROOT / "tests" / "golden_verdicts.json"


def _classified(problem: Any, candidate: int | None = None) -> Any:
    """``verdict_to_jsonable`` of the verdict, or the library error's name."""
    try:
        return verdict_to_jsonable(classify(problem, candidate))
    except Error as exc:
        return {"error": type(exc).__name__}


def _reduced(problem: Any, names: list[str] | None = None) -> Any:
    """``reduce_to_jsonable`` plus every verdict of the history, or the
    library error's name."""
    try:
        result = reduce_objectives(problem)
    except Error as exc:
        return {"error": type(exc).__name__}
    out = reduce_to_jsonable(result, names or [f"f{i + 1}" for i in range(problem.n_objectives)])
    out["verdicts"] = [verdict_to_jsonable(v) for _, v in result.history]
    return out


def problems_section() -> dict[str, Any]:
    out = {}
    for path in sorted((ROOT / "problems").glob("*.json")):
        doc = parse_document(path.read_bytes())
        out[path.name] = {
            "classify": [_classified(doc.problem, k) for k in range(doc.problem.n_objectives)],
            "reduce": _reduced(doc.problem, list(doc.objective_names)),
        }
    return out


def classify_inputs() -> list[Any]:
    return [random_problem(random.Random(s)) for s in range(150)]


def unbounded_inputs() -> list[Any]:
    return [random_problem(random.Random(1000 + s), ensure_bounded=False) for s in range(30)]


def reduce_inputs() -> list[Any]:
    return [random_problem(random.Random(2000 + s)) for s in range(30)]


def classify_section() -> list[Any]:
    return [_classified(problem) for problem in classify_inputs()]


def unbounded_section() -> list[Any]:
    return [_classified(problem) for problem in unbounded_inputs()]


def reduce_section() -> list[Any]:
    return [_reduced(problem) for problem in reduce_inputs()]


SECTIONS: dict[str, Callable[[], Any]] = {
    "problems": problems_section,
    "classify": classify_section,
    "unbounded": unbounded_section,
    "reduce": reduce_section,
}


def main() -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    corpus = {name: build() for name, build in SECTIONS.items()}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
