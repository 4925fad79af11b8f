#!/usr/bin/env python3
"""Replay a frozen list of mutants of the library, each against the tests
that must kill it.

Each entry names a file, an exact text in it, the text that replaces it, and
the tier-1 tests that must fail once it is replaced.  The checkout is copied
to a temporary directory, and each entry in turn is applied to the copy, its
tests are run there with ``-x`` and a fixed hypothesis seed, and the file is
put back.  A mutant is killed when pytest reports a failing test (exit code
1).  The run fails when a mutant survives, when its tests cannot run (any
other exit code), or when an entry's old text is not in its file exactly
once, as after a refactor of the code it mutates: then the entry is to be
rewritten against the new code, with the tests that now kill it.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
EFFICIENCY = "src/objred/efficiency.py"
ENGINE = "src/objred/engine.py"
LINALG = "src/objred/linalg.py"
POLYTOPE = "src/objred/polytope.py"
EFFICIENCY_TESTS = "tests/test_efficiency.py::"
ENGINE_TESTS = "tests/test_engine.py::"
POLYTOPE_TESTS = "tests/test_polytope.py::"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "empty support",
        EFFICIENCY,
        "supports.append(frozenset(c for c, m in zip(tight + at_zero, multipliers) if m > 0))",
        "supports.append(frozenset())",
        (EFFICIENCY_TESTS + "test_each_yes_read_from_a_support_is_efficient",),
    ),
    Mutant(
        "support from the zero-multiplier columns",
        EFFICIENCY,
        "zip(tight + at_zero, multipliers) if m > 0))",
        "zip(tight + at_zero, multipliers) if m == 0))",
        (EFFICIENCY_TESTS + "test_each_yes_read_from_a_support_is_efficient",),
    ),
    Mutant(
        "cover with d_j <= 0",
        EFFICIENCY,
        "[j for j, a in enumerate(d) if a >= 0]",
        "[j for j, a in enumerate(d) if a <= 0]",
        (EFFICIENCY_TESTS + "test_each_no_read_from_a_cover_is_an_improving_direction",),
    ),
    Mutant(
        "cover with a_i . d >= 0",
        EFFICIENCY,
        "sum(a * b for a, b in zip(row, d)) <= 0]",
        "sum(a * b for a, b in zip(row, d)) >= 0]",
        (EFFICIENCY_TESTS + "test_each_no_read_from_a_cover_is_an_improving_direction",),
    ),
    Mutant(
        "_supporting never finds a support",
        EFFICIENCY,
        "return next((s for s in _record(p, f)[0] if s <= zeros), None)",
        "return None",
        (EFFICIENCY_TESTS + "test_a_zero_set_runs_one_phase_1_for_every_order_of_the_rows",),
    ),
    Mutant(
        "_covering never finds a direction",
        EFFICIENCY,
        "return next((d for d, covered in _record(p, f)[1] if zeros <= covered), None)",
        "return None",
        (EFFICIENCY_TESTS + "test_a_zero_set_runs_one_phase_1_for_every_order_of_the_rows",),
    ),
    Mutant(
        "records keyed by the stack object, not its row set",
        EFFICIENCY,
        "p.certificates.setdefault(f.row_set, ([], []))",
        "p.certificates.setdefault(id(f), ([], []))",
        (EFFICIENCY_TESTS + "test_a_zero_set_runs_one_phase_1_for_every_order_of_the_rows",),
    ),
    Mutant(
        "no step-1 carry across a step-0 deletion",
        EFFICIENCY,
        'kept.__dict__["direction"] = None',
        "pass",
        (ENGINE_TESTS + "test_a_step_0_deletion_keeps_step_1s_no",),
    ),
    Mutant(
        "drop carries step 1's no on every drop",
        EFFICIENCY,
        'if self.__dict__.get("direction", ()) is None and self.combinations.get(index, (None,))[0] is not None:',
        "if True:",
        (ENGINE_TESTS + "test_step2_fixture", ENGINE_TESTS + "test_reduce_history_matches_classify_of_each_pass"),
    ),
    Mutant(
        "drop reads a step-1 direction not yet found as no",
        EFFICIENCY,
        'self.__dict__.get("direction", ()) is None',
        'self.__dict__.get("direction") is None',
        (
            ENGINE_TESTS + "test_reduce_history_matches_classify_of_each_pass",
            "tests/test_golden.py::test_section_matches_golden",
        ),
    ),
    Mutant(
        "combination without its index check",
        EFFICIENCY,
        "        self._check_index(k)\n        known = self.combinations\n",
        "        known = self.combinations\n",
        (EFFICIENCY_TESTS + "test_combination_and_drop_refuse_an_index_that_is_not_a_row",),
    ),
    Mutant(
        "bland returns its pivot at a ray",
        LINALG,
        "        if r is None:\n            return None\n",
        "        if r is None:\n            return d\n",
        (POLYTOPE_TESTS + "test_optimal_face_raises_on_unbounded_objective", "tests/test_simplex.py::test_unbounded"),
    ),
    Mutant(
        "drive_out skips its pivot",
        LINALG,
        "                d = pivot(rows, i, j, d)\n                basis[i] = j\n",
        "                basis[i] = j\n",
        (POLYTOPE_TESTS + "test_is_bounded", POLYTOPE_TESTS + "test_vertices_match_fraction_reference"),
    ),
    Mutant(
        "step 6 answers no on every face",
        ENGINE,
        "witness = next((v for v, zeros in zip(*face) if efficient_at(region, reduced, zeros)), None)",
        "witness = None",
        (ENGINE_TESTS + "test_step6_fixtures", ENGINE_TESTS + "test_decisive_verdicts_match_the_definition"),
    ),
    Mutant(
        "efficient_point_outside without its face loop",
        EFFICIENCY,
        "    for face in p.faces:",
        "    for face in ():",
        (
            EFFICIENCY_TESTS + "test_escaping_efficient_point_inside_an_edge",
            ENGINE_TESTS + "test_classify_essential_at_kernel_when_an_edge_escapes",
        ),
    ),
    Mutant(
        "_climb without its c_B subtraction",
        POLYTOPE,
        "cost = [a - c[col] * b for a, b in zip(cost, row)]",
        "cost = cost",
        (ENGINE_TESTS + "test_climb_matches_the_whole_search",),
    ),
    Mutant(
        "_first_feasible always runs its phase 1",
        POLYTOPE,
        "    if any(row[-1] < 0 for row in rows):\n",
        "    if True:\n",
        (POLYTOPE_TESTS + "test_nonempty_runs_no_phase_1_when_b_is_nonnegative",),
    ),
    Mutant(
        "walked always False",
        POLYTOPE,
        'return "walk" in self.__dict__',
        "return False",
        (ENGINE_TESTS + "test_reduce_climbs_until_a_step_searches_its_region",),
    ),
    Mutant(
        "a walk read that drops face vertices",
        POLYTOPE,
        "face = [i for i, value in enumerate(values) if value == best]",
        "face = [values.index(best)]",
        (ENGINE_TESTS + "test_climb_matches_the_whole_search", POLYTOPE_TESTS + "test_optimal_face_vertices_cube_edge"),
    ),
    Mutant(
        "efficiency test blind to the last variable's zero",
        EFFICIENCY,
        "at_zero = [c for c in zeros if c < p.dim]",
        "at_zero = [c for c in zeros if c < p.dim - 1]",
        (ENGINE_TESTS + "test_verdicts_keep_to_the_region_and_the_objectives",),
    ),
)


def replay(tree: pathlib.Path, mutant: Mutant) -> str | None:
    """Apply ``mutant`` to the copy ``tree``, run its tests and restore the
    file: None when a test fails, else what went wrong."""
    path = tree / mutant.path
    source = path.read_text()
    if source.count(mutant.old) != 1:
        return f"its old text occurs {source.count(mutant.old)} times in {mutant.path}"
    path.write_text(source.replace(mutant.old, mutant.new))
    try:
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        command += ["--hypothesis-seed=0", *mutant.tests]
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        run = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    finally:
        path.write_text(source)
    if run.returncode == 1:
        return None
    if run.returncode == 0:
        return "it survived its tests"
    output = run.stdout[-2000:] + run.stderr[-2000:]
    return f"its tests could not run (pytest exit code {run.returncode}):\n{output}"


def main() -> int:
    started = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = pathlib.Path(scratch) / "tree"
        ignored = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
        shutil.copytree(ROOT, tree, ignore=ignored)
        for mutant in MUTANTS:
            begun = time.perf_counter()
            fault = replay(tree, mutant)
            seconds = time.perf_counter() - begun
            print(f"{'killed' if fault is None else 'FAILED'}  {mutant.name}  ({seconds:.1f} s)")
            if fault is not None:
                failures += 1
                print(f"  {fault}")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed in {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
