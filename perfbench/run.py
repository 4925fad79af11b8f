#!/usr/bin/env python3
"""objred benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload classify-enum --seed 0 --seconds 45 --trace 0

Builds the workload's inputs from the seed, imports objred from ``src/`` of
the checkout this file sits in, runs one op after another for ``--seconds``
seconds (each op starts when the previous verdict returns), re-checks every
result outside the timed region, and prints the metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` every op also runs on a second copy of objred whose layer
functions are wrapped, and the metrics are the per-layer ones (README.md).
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import random
import resource
import statistics
import sys
import time
from typing import Any

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Instance, Workload, generate, pool_size  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 7
DIGEST = HERE / "digest.json"
SPANS_DIR = ROOT / ".perfbench_out"

Outcome = tuple[Instance, Any, "BaseException | None"]
Metrics = dict[str, tuple[float, str]]


def import_objred() -> Any:
    """A fresh import of objred from the checkout, dropping any earlier one
    so each set-up pays the whole import and starts with empty caches."""
    for name in [n for n in sys.modules if n == "objred" or n.startswith("objred.")]:
        del sys.modules[name]
    return importlib.import_module("objred")


def build(objred: Any, inst: Instance) -> Any:
    if inst.document is not None:
        return objred.parse_document(inst.document).problem
    return objred.MolpProblem(inst.objectives, inst.a, inst.b)


def set_up(instances: list[Instance], tracer: tracing.Tracer | None) -> tuple[Any, list[Any], float]:
    started = time.perf_counter()
    objred = import_objred()
    if tracer is not None:
        tracer.install()
    problems = [build(objred, inst) for inst in instances]
    return objred, problems, time.perf_counter() - started


def run_op(objred: Any, workload: Workload, problem: Any) -> tuple[Any, BaseException | None]:
    try:
        if workload.operation == "reduce":
            return objred.reduce_objectives(problem), None
        return objred.classify(problem), None
    except Exception as exc:  # every failure is recorded and counted
        return None, exc


def judge(
    workload: Workload,
    inst: Instance,
    result: Any,
    error: BaseException | None,
    expected: str | None = None,
) -> str | None:
    """None when the op's result is right, else the reason it is not.

    ``expected`` is the op's code from the default-seed digest, if any.
    """
    if error is not None:
        kind = type(error).__name__
        if kind == "UnboundedRegion" and inst.unbounded:
            problem_found = None
        elif kind == "InfeasibleRegion" and not check.vertices(inst.a, inst.b):
            problem_found = None  # a nonempty region x >= 0 always has a vertex
        else:
            problem_found = f"{kind}: {error}"
    elif workload.operation == "reduce":
        problem_found = check.check_reduce(inst.objectives, inst.a, inst.b, result)
    else:
        problem_found = check.check_verdict(
            inst.objectives, inst.a, inst.b, len(inst.objectives) - 1, result
        )
    if problem_found is None and expected is not None:
        code = check.op_code(result, error)
        if code != expected:
            problem_found = f"digest mismatch: {code} != {expected}"
    return problem_found


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


def load_digest(workload: str) -> list[str]:
    if not DIGEST.is_file():
        return []
    return json.loads(DIGEST.read_text()).get(workload, [])


def record_digest(workload: Workload, count: int) -> int:
    """Run the first ``count`` ops of the default seed and store their codes."""
    timed, warmup = generate(workload, DEFAULT_SEED, count)
    objred, problems, _ = set_up(timed + warmup, None)
    codes = []
    for inst, problem in zip(timed, problems):
        result, error = run_op(objred, workload, problem)
        problem_found = judge(workload, inst, result, error)
        if problem_found:
            print(f"refusing to record: {inst.label}: {problem_found}", file=sys.stderr)
            return 1
        codes.append(check.op_code(result, error))
    digest = json.loads(DIGEST.read_text()) if DIGEST.is_file() else {}
    digest[workload.name] = codes
    DIGEST.write_text(json.dumps(digest, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(codes)} ops of {workload.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", type=int, metavar="N", default=0,
                        help="store the results of the first N default-seed ops and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "objred" / "__init__.py").is_file():
        print(f"objred sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    if args.record_digest:
        return record_digest(workload, args.record_digest)

    timed, warmup = generate(workload, args.seed, pool_size(workload, args.seconds))
    if args.trace:
        outcomes, elapsed, metrics = measure_traced(workload, timed, warmup, args.seconds, args.seed)
    else:
        outcomes, elapsed, metrics = measure(workload, timed, warmup, args.seconds)

    failures = []
    expected = load_digest(workload.name) if args.seed == DEFAULT_SEED else []
    for op, (inst, result, error) in enumerate(outcomes):
        code = expected[op] if op < len(expected) else None
        problem_found = judge(workload, inst, result, error, code)
        if problem_found:
            failures.append(f"op {op} ({inst.label}): {problem_found}")
    for line in failures[:20]:
        print(f"FAILED {line}")

    attempted = len(outcomes)
    distinct_regions = len({inst.region_key for inst, _, _ in outcomes})
    if args.trace:
        metrics["input.distinct_regions"] = (distinct_regions, "count")
    print(
        f"{workload.name}: seed {args.seed}, {attempted} ops in {elapsed:.2f} s "
        f"(closed loop, 1 client), {distinct_regions} distinct regions, "
        f"{len(expected[:attempted])} ops compared with the digest"
    )
    print(f"  failed_ratio {len(failures) / max(attempted, 1):.4f} ({len(failures)} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures and attempted > 0,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def measure(
    workload: Workload, timed: list[Instance], warmup: list[Instance], seconds: float
) -> tuple[list[Outcome], float, Metrics]:
    """The end-to-end run: no wrappers anywhere, set-up repeated and its
    median reported, then ops back to back until the time is up."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        objred, problems, setup_s = set_up(timed + warmup, None)
        setup_times.append(setup_s)
    for problem in problems[len(timed):]:
        run_op(objred, workload, problem)

    outcomes: list[Outcome] = []
    latencies: list[float] = []
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    for inst, problem in zip(timed, problems):
        if clock() >= deadline:
            break
        t0 = clock()
        result, error = run_op(objred, workload, problem)
        latencies.append(clock() - t0)
        outcomes.append((inst, result, error))
    elapsed = clock() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ordered = sorted(latencies)
    beyond = len(ordered) - 1 - int(0.9 * (len(ordered) - 1))
    print(f"  latency samples {len(ordered)}; {beyond} lie beyond p90")
    return outcomes, elapsed, {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(outcomes) / elapsed, "1/s"),
        "op_p50_ms": (1000 * percentile(ordered, 0.5), "ms"),
        "op_p90_ms": (1000 * percentile(ordered, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def measure_traced(
    workload: Workload, timed: list[Instance], warmup: list[Instance], seconds: float, seed: int
) -> tuple[list[Outcome], float, Metrics]:
    """The per-layer run.  Two separate imports of objred, each with its own
    caches: one plain, one with every layer function wrapped.  Each op runs
    on both, in seeded random order, so the tracing overhead is measured on
    identical work; the traced copy's results are the ones checked."""
    plain, plain_problems, _ = set_up(timed + warmup, None)
    tracer = tracing.Tracer()
    objred, problems, _ = set_up(timed + warmup, tracer)
    tracer.active = False
    for a, b in zip(plain_problems[len(timed):], problems[len(timed):]):
        run_op(plain, workload, a)
        run_op(objred, workload, b)

    coin = random.Random(f"{seed}:trace")
    outcomes: list[Outcome] = []
    on = off = 0.0
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    for op, (inst, a, b) in enumerate(zip(timed, plain_problems, problems)):
        if clock() >= deadline:
            break
        tracer.op = op
        traced_first = coin.random() < 0.5
        for traced in (traced_first, not traced_first):
            tracer.active = traced
            t0 = clock()
            result, error = run_op(objred if traced else plain, workload, b if traced else a)
            if traced:
                on += clock() - t0
                outcomes.append((inst, result, error))
            else:
                off += clock() - t0
    elapsed = clock() - started
    tracer.active = False

    metrics = tracer.metrics(len(outcomes))
    metrics["trace.overhead_ratio"] = (off / on if on else 0.0, "ratio")
    tracer.dump(SPANS_DIR / f"spans-{workload.name}-{seed}.csv.gz")
    print(f"  traced ops {len(outcomes)}, each also run untraced; {len(tracer.spans)} spans")
    return outcomes, elapsed, metrics


if __name__ == "__main__":
    sys.exit(main())
