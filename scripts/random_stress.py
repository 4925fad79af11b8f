#!/usr/bin/env python3
"""Classify seeded random instances, tally the verdicts, re-check every
verdict's certificates with ``objred.verify.check_verdict``, and cross-check
every essential and nonessential verdict against the paper's definition:
whether deleting the candidate changes the efficient set, face by face
(``tests/helpers.essential_oracle``).  A refused certificate or a verdict
the definition contradicts counts as a mismatch; the true answer of each
inconclusive verdict is tallied.  Each instance is reduced too: every
verdict of the reduce's history is re-checked on the objectives left at
its pass, and every deletion against the definition.

The efficient faces are found by the vertex-image dominance LP of
``tests/helpers.dominance_oracle`` at each face centroid, over vertices and
faces found by brute force, not by ``objred.is_efficient`` or ``Polytope``,
so the cross-check does not rest on what ``classify`` uses.  The instances
are bounded, which that formulation needs.

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

from helpers import essential_oracle  # noqa: E402
from objred import MolpProblem, Outcome, classify, reduce_objectives  # noqa: E402
from objred.instances import random_problem  # noqa: E402
from objred.verify import check_verdict  # noqa: E402


def check_reduce(problem: MolpProblem) -> int:
    """The faults of ``reduce_objectives`` on ``problem``, each printed: a
    history verdict whose certificates fail on the objectives left at its
    pass, or a deletion of an objective that is essential there."""
    faults = 0
    rows = list(problem.objectives)
    for _, verdict in reduce_objectives(problem).history:
        fault = check_verdict(rows, problem.a, problem.b, verdict)
        if fault is not None:
            faults += 1
            print(f"REFUSED REDUCE CERTIFICATE ({fault}) on {problem}")
        if verdict.outcome is Outcome.NONESSENTIAL:
            if essential_oracle(MolpProblem(tuple(rows), problem.a, problem.b), verdict.candidate):
                faults += 1
                print(f"ESSENTIAL OBJECTIVE {verdict.candidate} DELETED on {problem}")
            del rows[verdict.candidate]
    return faults


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=50)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tally: collections.Counter[str] = collections.Counter()
    settled: collections.Counter[bool] = collections.Counter()  # inconclusive, by the true answer
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
        essential = essential_oracle(problem, verdict.candidate)
        if verdict.outcome is Outcome.INCONCLUSIVE:
            settled[essential] += 1
        elif essential != (verdict.outcome is Outcome.ESSENTIAL):
            mismatches += 1
            print(f"MISMATCH on {problem}")
        mismatches += check_reduce(problem)
    elapsed = time.perf_counter() - started

    for key in sorted(tally):
        print(f"{key:20s} {tally[key]}")
    print(f"inconclusive verdicts, truly: {settled[True]} essential, {settled[False]} nonessential")
    print(f"{args.count} instances in {elapsed:.2f}s, {mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
