#!/usr/bin/env python3
"""Classify seeded random instances, tally the verdicts, re-check every
verdict's certificates with ``objred.verify.check_verdict``, and cross-check
every nonessential verdict against a direct comparison of the efficient
vertex sets before and after deleting the candidate.  A refused certificate
counts as a mismatch.

The efficient vertices are found by the vertex-image dominance LP of
``tests/helpers.dominance_oracle``, not by ``objred.is_efficient``, so the
cross-check does not rest on the efficiency test that ``classify`` uses.
The instances are bounded, which that formulation needs.

    python3 scripts/random_stress.py --count 30 --seed 1
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import dominance_oracle  # noqa: E402
from objred import MolpProblem, Outcome, classify  # noqa: E402
from objred.instances import random_problem  # noqa: E402
from objred.verify import check_verdict  # noqa: E402


def check_nonessential(problem: MolpProblem, candidate: int) -> bool:
    vertices = problem.region().vertices
    full = problem.stack()
    reduced = full.drop(candidate)
    return all(
        dominance_oracle(vertices, full, v) == dominance_oracle(vertices, reduced, v)
        for v in vertices
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=50)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tally: collections.Counter[str] = collections.Counter()
    mismatches = 0
    started = time.perf_counter()
    for _ in range(args.count):
        problem = random_problem(rng)
        verdict = classify(problem)
        key = f"{verdict.outcome.value}@{int(verdict.decided_at)}"
        tally[key] += 1
        fault = check_verdict(problem.objectives, problem.a, problem.b, verdict)
        if fault is not None:
            mismatches += 1
            print(f"REFUSED CERTIFICATE ({fault}) on {problem}")
        if verdict.outcome is Outcome.NONESSENTIAL:
            if not check_nonessential(problem, verdict.candidate):
                mismatches += 1
                print(f"MISMATCH on {problem}")
    elapsed = time.perf_counter() - started

    for key in sorted(tally):
        print(f"{key:20s} {tally[key]}")
    print(f"{args.count} instances in {elapsed:.2f}s, {mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
