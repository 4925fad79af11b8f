"""Frozen input generators for the three benchmark workloads.

Everything here is plain Python data (tuples of ``Fraction``) or JSON text,
produced from ``random.Random`` streams keyed by workload name, seed and
purpose, so the same seed always gives the same inputs and nothing depends on
``objred.instances``.  The library only sees these inputs once ``run.py``
has turned them into ``MolpProblem`` objects or parsed them with
``parse_document``.

Each workload draws a *timed* pool and a separate *warm-up* pool.  Regions
are never repeated across the two pools or within one, so no timed region is
already in the library's caches when timing starts, and every cache hit
during a timed op comes from work repeated inside that op.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

Row = tuple[Fraction, ...]


@dataclass(frozen=True)
class Instance:
    """One op's input: the raw problem data plus how to hand it over."""

    objectives: tuple[Row, ...]
    a: tuple[Row, ...]
    b: Row
    label: str  # cell or corpus file name, for reports
    unbounded: bool  # region built to be unbounded (UnboundedRegion allowed)
    document: str | None = None  # JSON text, for workloads fed documents

    @property
    def region_key(self) -> tuple[tuple[Row, ...], Row]:
        return self.a, self.b


SPREAD = 3  # coefficients are integers in [-SPREAD, SPREAD]
MAX_RHS = 5  # b_i in [0, MAX_RHS]: the origin is feasible, never infeasible
WARMUP_OPS = 3
ONE = Fraction(1)
CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"


def _row(rng: random.Random, width: int) -> Row:
    while True:
        row = tuple(Fraction(rng.randint(-SPREAD, SPREAD)) for _ in range(width))
        if any(row):
            return row


def _capped(rng: random.Random, k: int, a: list[Row], b: list[Fraction]) -> None:
    """Append the cap sum(x) <= c with c in {2k, 3k, 4k}: bounded for sure."""
    a.append((ONE,) * k)
    b.append(Fraction(rng.randint(2, 4) * k))


def _draw(rng: random.Random, k: int, m: int, n: int, unbounded: bool) -> tuple:
    """m random rows with b >= 0 and n objectives over k variables.

    Bounded draws get the cap row (so they have m + 1 rows).  Unbounded draws
    get no cap, and one column is made nonpositive so that the unit vector
    of that variable is a recession direction: unbounded by construction,
    without solving an LP.
    """
    a = [_row(rng, k) for _ in range(m)]
    b = [Fraction(rng.randint(0, MAX_RHS)) for _ in range(m)]
    objectives = tuple(_row(rng, k) for _ in range(n))
    if unbounded:
        j = rng.randrange(k)
        a = [row[:j] + (-abs(row[j]),) + row[j + 1 :] for row in a]
    else:
        _capped(rng, k, a, b)
    return objectives, tuple(a), tuple(b)


# classify-mixed: the ROADMAP's reference random set, k 2-4, m 1-6, n 2-4.
# Cells are visited in a fixed cycle instead of being drawn independently:
# the marginal distribution is the same uniform one, but every run covers
# the cells in equal shares, so run-to-run spread comes from the
# coefficients and not from how many large cells one seed happened to
# draw.  k varies fastest because it drives the cost most, then m.  Its
# spread across seeds is too wide to gate a change on (README.md).
MIXED_CELLS = [(k, m, n) for n in (2, 3, 4) for m in range(1, 7) for k in (2, 3, 4)]
UNBOUNDED_EVERY = 5  # one op in five keeps an unbounded region


def _mixed(rng: random.Random, index: int) -> Instance:
    k, m, n = MIXED_CELLS[index % len(MIXED_CELLS)]
    unbounded = index % UNBOUNDED_EVERY == UNBOUNDED_EVERY - 1
    objectives, a, b = _draw(rng, k, m, n, unbounded)
    return Instance(objectives, a, b, f"k{k}m{m}n{n}", unbounded)


# classify-enum: one fixed size where vertex enumeration over all
# C(k+m, m) = C(10, 6) = 210 bases dominates the verdict and per-op time is
# homogeneous (about 0.2 s per verdict on a 2-core x86 VM), so a run holds
# well over 100 verdicts and p90 has at least ten samples beyond it.
ENUM_K, ENUM_ROWS, ENUM_N = 4, 5, 2  # 5 random rows + the cap = 6 rows


def _enum(rng: random.Random, index: int) -> Instance:
    objectives, a, b = _draw(rng, ENUM_K, ENUM_ROWS, ENUM_N, False)
    return Instance(objectives, a, b, f"k{ENUM_K}m{ENUM_ROWS + 1}n{ENUM_N}", False)


# reduce-many: small planar regions with 5-6 objectives, so one reduction
# classifies each region about six times over and the efficiency LPs
# dominate.  Regions are handed over as JSON documents.
REDUCE_CELLS = [(m, n) for n in (5, 6) for m in (2, 3)]
REDUCE_K = 2


def _reduce(rng: random.Random, index: int) -> Instance:
    m, n = REDUCE_CELLS[index % len(REDUCE_CELLS)]
    objectives, a, b = _draw(rng, REDUCE_K, m, n, False)
    return Instance(
        objectives, a, b, f"k{REDUCE_K}m{m}n{n}", False, to_document(objectives, a, b)
    )


def _literal(q: Fraction) -> int | str:
    return q.numerator if q.denominator == 1 else str(q)


def to_document(objectives: tuple[Row, ...], a: tuple[Row, ...], b: Row) -> str:
    return json.dumps(
        {
            "objectives": [{"coeffs": [_literal(c) for c in row]} for row in objectives],
            "constraints": [
                {"coeffs": [_literal(c) for c in row], "relation": "<=", "rhs": _literal(r)}
                for row, r in zip(a, b)
            ],
        }
    )


def corpus() -> list[Instance]:
    """The frozen copies of the repository's example problem documents.

    Read with plain ``json`` so the checker has the data independently of
    ``objred.problem_io``; the library parses the same text during set-up.
    """
    out = []
    for path in sorted(CORPUS.glob("*.json")):
        text = path.read_text()
        raw = json.loads(text)
        objectives = tuple(
            tuple(Fraction(c) for c in entry["coeffs"]) for entry in raw["objectives"]
        )
        a = tuple(tuple(Fraction(c) for c in row["coeffs"]) for row in raw["constraints"])
        b = tuple(Fraction(row["rhs"]) for row in raw["constraints"])
        unbounded = path.stem.startswith("unbounded")
        out.append(Instance(objectives, a, b, path.stem, unbounded, text))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    operation: str  # "classify" or "reduce"
    draw: Callable[[random.Random, int], Instance]
    ops_cap_per_s: int  # pool size = seconds * cap, several times today's rate
    uses_corpus: bool = False  # the corpus documents run first


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify-mixed", "classify", _mixed, 120),
        Workload("classify-enum", "classify", _enum, 50),
        Workload("reduce-many", "reduce", _reduce, 150, uses_corpus=True),
    )
}


def pool_size(workload: Workload, seconds: float) -> int:
    return max(8, math.ceil(seconds * workload.ops_cap_per_s))


def generate(workload: Workload, seed: int, size: int) -> tuple[list[Instance], list[Instance]]:
    """(timed pool, warm-up pool) for a seed, with no region repeated.

    The timed pool is a prefix-stable stream: the first i instances do not
    depend on ``size``, so a digest recorded for a prefix stays valid for
    runs of any length.
    """
    seen: set[Any] = set()
    timed: list[Instance] = []
    if workload.uses_corpus:
        for inst in corpus():
            seen.add(inst.region_key)
            timed.append(inst)
    timed_rng = random.Random(f"{workload.name}:{seed}:timed")
    timed.extend(_stream(workload, timed_rng, size - len(timed), seen))
    warmup_rng = random.Random(f"{workload.name}:{seed}:warmup")
    warmup = _stream(workload, warmup_rng, WARMUP_OPS, seen)
    return timed, warmup


def _stream(workload: Workload, rng: random.Random, count: int, seen: set[Any]) -> list[Instance]:
    out: list[Instance] = []
    index = 0
    while len(out) < count:
        inst = workload.draw(rng, index)
        if inst.region_key in seen:
            continue  # redraw the same cell
        seen.add(inst.region_key)
        out.append(inst)
        index += 1
    return out
