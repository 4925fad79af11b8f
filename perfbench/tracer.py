"""Outside-in tracing of objred's layer functions.

``Tracer.install`` wraps each layer function listed in ``LAYERS`` and rebinds
the wrapper in every ``objred`` module namespace that holds the original,
found by identity: ``from .polytope import enumerate_vertices`` leaves a
binding in each importing module, and a module calling its own global (as
``optimal_face_vertices`` calls ``enumerate_vertices``) must see the wrapper
too.  Functions behind ``functools.lru_cache`` are wrapped outside the cache,
so cache hits count as calls.  A function that no longer exists under its
listed name is skipped, so its metrics go missing instead of reading zero.

Spans (name, start, end, parent, op id) are kept in memory and written out
by ``dump`` when the run ends.  Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import collections
import functools
import gzip
import math
import pathlib
import sys
import time
from typing import Any, Callable

LAYERS = {
    "simplex": ("solve",),
    "linalg": ("solve_square", "null_space", "span_basis", "intersect_spans"),
    "polytope": (
        "enumerate_vertices",
        "face_vertex_sets",
        "optimal_face_vertices",
        "find_interior_point",
        "nonempty",
        "is_bounded",
    ),
    "efficiency": (
        "is_efficient",
        "efficient_point_outside",
        "find_cone_point",
        "equalizing_weights",
    ),
    "engine": ("classify", "kernel_separation", "reduce_objectives"),
    "problem_io": ("parse_document",),
}
# Called while inputs are built, not inside ops: reported per set-up.
SETUP_FUNCTIONS = ("problem_io.parse_document",)

# Which decision step a direct child span of classify belongs to, in tree
# order.  The region checks (nonempty, is_bounded) run between step 0 and
# the step-1 cone test and are charged to step 1.  is_efficient serves step
# 4 on the no-direction branch and step 6 after the optimal face (step 5).
_STEP_OF = {
    "simplex.solve": 0,  # combination_multipliers -> feasible_point -> solve
    "polytope.nonempty": 1,
    "polytope.is_bounded": 1,
    "polytope.find_interior_point": 3,
    "polytope.enumerate_vertices": 4,
    "efficiency.equalizing_weights": 4,
    "polytope.optimal_face_vertices": 5,
    "engine.kernel_separation": 7,
    "efficiency.efficient_point_outside": 7,
}
STEPS = range(8)
EXITS = (
    "nonessential.0",
    "nonessential.2",
    "nonessential.4",
    "nonessential.7",
    "essential.3",
    "essential.4",
    "essential.6",
    "essential.7",
    "inconclusive.7",
    "unbounded.4",
    "unbounded.5",
    "unbounded.6",
    "infeasible.1",
)


def _attribute(children: list[tuple[str, float]]) -> list[tuple[int | None, float]]:
    """Map classify's direct child spans, in call order, to decision steps."""
    cursor = 0
    cone_tests = 0
    out: list[tuple[int | None, float]] = []
    for name, duration in children:
        if name == "efficiency.find_cone_point":
            cone_tests += 1
            step: int | None = 1 if cone_tests == 1 else 2
        elif name == "efficiency.is_efficient":
            step = 6 if cursor >= 5 else 4
        else:
            step = _STEP_OF.get(name)
        if step is not None:
            cursor = max(cursor, step)
        out.append((step, duration))
    return out


class _Call:
    """The arguments of one call, read by position or by keyword."""

    __slots__ = ("args", "kwargs")

    def __init__(self, args: tuple, kwargs: dict) -> None:
        self.args = args
        self.kwargs = kwargs

    def arg(self, position: int, name: str) -> Any:
        return self.args[position] if position < len(self.args) else self.kwargs[name]


class _Frame:
    """An open span: its index, the time its children took so far, and (for
    classify only) the names and durations of its direct children."""

    __slots__ = ("index", "child_time", "children")

    def __init__(self, index: int, children: list | None) -> None:
        self.index = index
        self.child_time = 0.0
        self.children = children


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index, op]
        self.stack: list[_Frame] = []
        self.op: int | None = None  # None while building inputs
        self.active = True
        self.installed: list[str] = []
        self.calls: collections.Counter[str] = collections.Counter()
        self.self_s: collections.Counter[str] = collections.Counter()
        self.extra: collections.Counter[str] = collections.Counter()
        self._regions: set[Any] = set()
        self._efficient_keys: set[Any] = set()
        self._efficient_op: int | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "objred" or name.startswith("objred."))
        ]
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"objred.{layer}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None or not callable(original):
                    continue
                name = f"{layer}.{fn_name}"
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                self.installed.append(name)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        is_classify = name == "engine.classify"
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = len(spans)
            record = [name, 0.0, 0.0, parent.index if parent else None, self.op]
            spans.append(record)
            frame = _Frame(index, [] if is_classify else None)
            stack.append(frame)
            result = exc = None
            record[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                record[2] = end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame.child_time
                if parent is not None:
                    parent.child_time += duration
                    if parent.children is not None:
                        parent.children.append((name, duration))
                if observe is not None:
                    observe(_Call(args, kwargs), result, exc, frame)

        return functools.wraps(fn)(traced)

    # -- per-function observations (counts computed from arguments) ---------

    def _observe_simplex_solve(self, call, result, exc, frame) -> None:
        problem = call.arg(0, "problem")
        self.extra["simplex.solve.cells"] += len(problem.constraints) * len(
            problem.variable_kinds
        )
        if result is not None:
            status = result.status.name.lower()
            if status in ("infeasible", "unbounded"):
                self.extra[f"simplex.solve.{status}"] += 1

    def _observe_linalg_solve_square(self, call, result, exc, frame) -> None:
        if exc is None and result is None:
            self.extra["linalg.solve_square.singular"] += 1

    def _observe_polytope_enumerate_vertices(self, call, result, exc, frame) -> None:
        region = call.arg(0, "p")
        key = ("vertices", region)
        if result is None or key in self._regions:
            return
        self._regions.add(key)
        m, k = len(region.a), len(region.a[0])
        self.extra["polytope.enumerate_vertices.distinct_regions"] += 1
        self.extra["polytope.enumerate_vertices.bases_tried"] += math.comb(k + m, m)
        self.extra["polytope.enumerate_vertices.vertices"] += len(result)

    def _observe_polytope_face_vertex_sets(self, call, result, exc, frame) -> None:
        key = ("faces", call.arg(0, "p"))
        if result is not None and key not in self._regions:
            self._regions.add(key)
            self.extra["polytope.face_vertex_sets.faces"] += len(result)

    def _observe_efficiency_is_efficient(self, call, result, exc, frame) -> None:
        if self._efficient_op != self.op:
            self._efficient_op = self.op
            self._efficient_keys = set()
        # Efficiency does not depend on the order of the stack's rows, and
        # classify rotates the candidate last, so the stack counts as a set.
        stack = call.arg(1, "f")
        key = (call.arg(0, "p"), frozenset(stack.rows), call.arg(2, "x0"))
        if key in self._efficient_keys:
            self.extra["efficiency.is_efficient.repeats"] += 1
        self._efficient_keys.add(key)

    def _observe_engine_classify(self, call, result, exc, frame) -> None:
        attributed = _attribute(frame.children)
        for step, duration in attributed:
            if step is not None:
                self.extra[f"engine.step.{step}.s"] += duration
        steps = {step for step, _ in attributed}
        last = max((s for s in steps if s is not None), default=0)
        if result is not None:
            self.extra[f"engine.exit.{result.outcome.value}.{int(result.decided_at)}"] += 1
            if steps != {int(entry.step) for entry in result.trace}:
                self.extra["engine.step.mismatches"] += 1
        elif exc is not None:
            kind = type(exc).__name__
            outcome = {"UnboundedRegion": "unbounded", "InfeasibleRegion": "infeasible"}
            self.extra[f"engine.exit.{outcome.get(kind, 'error')}.{last}"] += 1

    def _observe_engine_reduce_objectives(self, call, result, exc, frame) -> None:
        if result is not None:
            self.extra["engine.reduce_objectives.classifies"] += len(result.history)

    # -- results ------------------------------------------------------------

    def metrics(self, traced_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts and times are per traced op unless the
        function only runs while inputs are built."""
        ops = max(traced_ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for name in self.installed:
            if name in SETUP_FUNCTIONS:
                out[f"{name}.calls"] = (self.calls[name], "count")
                out[f"{name}.self_s"] = (self.self_s[name], "s")
            else:
                out[f"{name}.calls"] = (self.calls[name] / ops, "1/op")
                out[f"{name}.self_s"] = (self.self_s[name] / ops, "s/op")
        x = self.extra
        if "simplex.solve" in self.installed:
            out["simplex.solve.cells"] = (x["simplex.solve.cells"] / ops, "cells/op")
            for status in ("infeasible", "unbounded"):
                out[f"simplex.solve.{status}"] = (x[f"simplex.solve.{status}"] / ops, "1/op")
        if "linalg.solve_square" in self.installed:
            out["linalg.solve_square.singular_ratio"] = (
                _ratio(x["linalg.solve_square.singular"], self.calls["linalg.solve_square"]),
                "ratio",
            )
        if "polytope.enumerate_vertices" in self.installed:
            distinct = x["polytope.enumerate_vertices.distinct_regions"]
            bases = x["polytope.enumerate_vertices.bases_tried"]
            out["polytope.enumerate_vertices.distinct_regions"] = (distinct / ops, "1/op")
            out["polytope.enumerate_vertices.region_reuse"] = (
                _ratio(self.calls["polytope.enumerate_vertices"], distinct),
                "calls/region",
            )
            out["polytope.enumerate_vertices.bases_tried"] = (bases / ops, "1/op")
            out["polytope.enumerate_vertices.vertex_yield"] = (
                _ratio(x["polytope.enumerate_vertices.vertices"], bases),
                "ratio",
            )
        if "polytope.face_vertex_sets" in self.installed:
            out["polytope.face_vertex_sets.faces"] = (
                x["polytope.face_vertex_sets.faces"] / ops,
                "1/op",
            )
        if "efficiency.is_efficient" in self.installed:
            out["efficiency.is_efficient.repeat_ratio"] = (
                _ratio(x["efficiency.is_efficient.repeats"], self.calls["efficiency.is_efficient"]),
                "ratio",
            )
        if "engine.classify" in self.installed:
            for step in STEPS:
                out[f"engine.step.{step}.s"] = (x[f"engine.step.{step}.s"] / ops, "s/op")
            out["engine.step.mismatch_ratio"] = (
                _ratio(x["engine.step.mismatches"], self.calls["engine.classify"]),
                "ratio",
            )
            for key in EXITS:
                out[f"engine.exit.{key}"] = (x[f"engine.exit.{key}"] / ops, "1/op")
            other = self.calls["engine.classify"] - sum(x[f"engine.exit.{key}"] for key in EXITS)
            out["engine.exit.other"] = (other / ops, "1/op")
        if "engine.reduce_objectives" in self.installed:
            out["engine.reduce_objectives.classifies_per_op"] = (
                _ratio(x["engine.reduce_objectives.classifies"], self.calls["engine.reduce_objectives"]),
                "1/op",
            )
        return out

    def dump(self, path: pathlib.Path) -> None:
        """Write every span as one CSV line: name,start,end,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                out.write(
                    f"{name},{start:.9f},{end:.9f},"
                    f"{'' if parent is None else parent},{'' if op is None else op}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
