#!/usr/bin/env python3
"""Wall times outside the perfbench harness: vertex enumeration, the
efficient vertices and classify on a seeded size ladder, and classify and
reduce on every document under problems/.

Ladder rung k has k variables and k + 4 rows with entries in [0, 3] and
right-hand sides in [3, 9] (``objred.instances.ladder_region``).  Its empty
variant adds the row -sum(x) <= -1000, and enumerating it proves it empty.
Its efficient vertices are those of a seeded stack of 3 objectives with
integer entries in [-3, 3] (``objred.instances.ladder_stack``); that time
leaves out enumeration, which runs before the clock starts.  Each time is
the best of three runs on a fresh ``Polytope`` or problem, so no fact
computed by one run is reused by the next.

The classify ladder follows: for each rung, ``classify`` on its region with
k + 1 objectives with integer entries in [-2, 3], the last one the candidate
(``objred.instances.ladder_problem``).  Each line gives the verdict, the
step that decided it, the faces of the region and the time; step 7 sweeps
the faces, so its cost grows with them.

Two degenerate families follow: the cube [0, 1]^k plus
x_i + x_j <= 2 for every pair (``objred.instances.degenerate_cube``), for
k = 3 up to the largest ladder rung, and the cone x_i <= x_j for i < j
(``objred.instances.ordered_cone``), for k = 3 to 6.  Each line gives the
vertices and the rays the vertex search meets, and its time.

    python3 scripts/bench.py [--seed S] [--max-k K]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from fractions import Fraction
from typing import Callable

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from objred import (  # noqa: E402
    Error,
    Polytope,
    classify,
    efficient_vertices,
    face_vertex_sets,
    parse_document,
    reduce_objectives,
)
from objred.instances import (  # noqa: E402
    degenerate_cube,
    ladder_problem,
    ladder_region,
    ladder_stack,
    ordered_cone,
)
from objred.polytope import enumerate_vertices  # noqa: E402

REPEATS = 3
SMALLEST_K = 3
# The cone's search still grows fast: k = 7 takes about 15 s.
LARGEST_CONE_K = 6


def best_time(run: Callable[[], object]) -> tuple[object, float]:
    """(result, best wall time in seconds) over REPEATS runs of ``run``."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return result, best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="ladder seed")
    parser.add_argument("--max-k", type=int, default=8, help="largest ladder rung")
    args = parser.parse_args()
    if args.max_k < SMALLEST_K:
        parser.error(f"--max-k must be at least {SMALLEST_K}")

    print(
        f"ladder (seed {args.seed}): k, m, vertices, seconds; the same for the empty"
        " variant and for the efficient vertices"
    )
    for k in range(SMALLEST_K, args.max_k + 1):
        region = ladder_region(k, args.seed)
        vertices, seconds = best_time(lambda: enumerate_vertices(Polytope(region.a, region.b)))
        empty_a = region.a + ((Fraction(-1),) * k,)
        empty_b = region.b + (Fraction(-1000),)
        left, empty_seconds = best_time(lambda: enumerate_vertices(Polytope(empty_a, empty_b)))
        stack = ladder_stack(k, args.seed)
        enumerated = [Polytope(region.a, region.b) for _ in range(REPEATS)]
        for fresh in enumerated:
            fresh.vertices  # enumerated and cached before the clock starts
        efficient, efficient_seconds = best_time(lambda: efficient_vertices(enumerated.pop(), stack))
        print(
            f"  k={k} m={len(region.a)} {len(vertices)} vertices {seconds:.4f} s;"
            f" empty variant {len(left)} vertices {empty_seconds:.4f} s;"
            f" {len(efficient)} efficient {efficient_seconds:.4f} s"
        )

    print("classify ladder: k, n = k + 1 objectives, verdict, step, faces, seconds")
    for k in range(SMALLEST_K, args.max_k + 1):
        problem = ladder_problem(k, args.seed)
        verdict, seconds = best_time(lambda: classify(problem))
        faces = face_vertex_sets(problem.region())
        print(
            f"  k={k} n={k + 1} {verdict.outcome.value} at step {int(verdict.decided_at)}"
            f" {len(faces)} faces {seconds:.4f} s"
        )

    print("degenerate families: k, m, vertices, rays met, seconds")
    for name, make, largest in (
        ("cube", degenerate_cube, args.max_k),
        ("cone", ordered_cone, LARGEST_CONE_K),
    ):
        for k in range(SMALLEST_K, largest + 1):
            region = make(k)
            fresh = [Polytope(region.a, region.b) for _ in range(REPEATS)]
            runs = iter(fresh)
            vertices, seconds = best_time(lambda: next(runs).vertices)
            print(
                f"  {name} k={k} m={len(region.a)} {len(vertices)} vertices"
                f" {len(fresh[0].walk[2])} rays {seconds:.4f} s"
            )

    print("problems/: classify (last objective) and reduce, seconds")
    for path in sorted((ROOT / "problems").glob("*.json")):
        problem = parse_document(path.read_bytes()).problem
        cells = []
        for name, run in (("classify", classify), ("reduce", reduce_objectives)):
            try:
                _, seconds = best_time(lambda: run(problem))
            except Error as exc:
                cells.append(f"{name} {type(exc).__name__}")
            else:
                cells.append(f"{name} {seconds:.4f} s")
        print(f"  {path.name}: " + ", ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
