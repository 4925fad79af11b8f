#!/usr/bin/env python3
"""Check that verdicts on the larger rungs of the size ladder keep to the
region and the objectives.

Essentiality depends on the region and on the objectives' efficient sets
alone.  So on each rung k = 7 to 10 and seed s = 0 to 2
(``objred.instances.ladder_problem(k, s)``), ``classify`` of every objective
must keep its outcome, decided step and relation under each of these
changes: a permutation of the variables, a permutation of the rows of
[A | b], a positive scale of one row of [A | b], a positive scale of one
objective, and the sum of two rows added as a redundant row.
``reduce_objectives`` must keep its removals and survivors under the
variable permutation, and each verdict of its history, on the problem and
on the permuted one, must equal ``classify`` of the objectives left at its
pass.  The changes and the pass-by-pass reference are those of
``tests/helpers`` (``changed_problem``, ``classify_each_pass``), which the
tier-1 test ``test_verdicts_keep_to_the_region_and_the_objectives`` runs on
small random draws.

Each change is drawn from its own stream, keyed by k and s.  One line is
printed per problem, one per mismatch, and a total; the exit code is 1 on
any mismatch.

    python3 scripts/scale_stress.py
"""

from __future__ import annotations

import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import changed_problem, classify_each_pass, verdict_key  # noqa: E402
from objred import reduce_objectives  # noqa: E402
from objred.instances import ladder_problem  # noqa: E402

RUNGS = range(7, 11)
SEEDS = range(3)
CHANGES = ("variables", "rows", "row scale", "objective scale", "redundant row")


def check(k: int, seed: int) -> int:
    """The mismatches found on rung k, seed ``seed``, each printed."""
    problem = ladder_problem(k, seed)
    rng = random.Random(f"scale-stress:{k}:{seed}")
    base = [verdict_key(problem, c) for c in range(problem.n_objectives)]
    faults = []
    for change in CHANGES:
        changed = changed_problem(problem, change, rng)
        for candidate, want in enumerate(base):
            got = verdict_key(changed, candidate)
            if got != want:
                faults.append(f"{change}: objective {candidate} was {want}, now {got}")
        if change == "variables":
            first, second = reduce_objectives(problem), reduce_objectives(changed)
            if (first.removals, first.survivors) != (second.removals, second.survivors):
                faults.append(f"variables: reduce removed {first.removals}, now {second.removals}")
            for name, reduced, result in (("problem", problem, first), ("permuted", changed, second)):
                if [v for _, v in result.history] != classify_each_pass(reduced):
                    faults.append(f"{name}: reduce history is not classify of each pass")
    for fault in faults:
        print(f"    {fault}")
    return len(faults)


def main() -> int:
    started = time.perf_counter()
    mismatches = 0
    for k in RUNGS:
        for seed in SEEDS:
            begun = time.perf_counter()
            found = check(k, seed)
            mismatches += found
            print(f"k={k} seed={seed}: {found} mismatch(es) in {time.perf_counter() - begun:.1f} s", flush=True)
    count = len(RUNGS) * len(SEEDS)
    print(f"{count} problems, {mismatches} mismatch(es) in {time.perf_counter() - started:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
