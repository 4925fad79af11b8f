"""Independent re-checks of verdicts, in plain ``Fraction`` arithmetic.

Nothing here imports objred: verdicts are read by attribute (``outcome``,
``decided_at``, ``relation``, ``trace`` entries with ``step``, ``answer``,
``certificate``) and every certificate is re-checked against the raw problem
data the benchmark generated.  ``op_code`` condenses one op's result into the
short string stored in the default-seed digest.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Sequence

Row = tuple[Fraction, ...]

# Containment notes, as the library words them (README, "Verdicts at steps 4
# and 7 carry a containment note").
RELATIONS = {"X_E^n ⊆ X_E^{n+1}": "<", "X_E^{n+1} ⊆ X_E^n": ">"}


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _feasible(a: Sequence[Row], b: Row, x: Sequence[Fraction]) -> bool:
    return all(v >= 0 for v in x) and all(_dot(row, x) <= r for row, r in zip(a, b))


def vertices(a: Sequence[Row], b: Row) -> set[Row]:
    """All vertices of {x >= 0 : Ax <= b}, by brute force over the bases of
    the slack form; used only to re-check step-4 weight certificates."""
    m, k = len(a), len(a[0])
    full = [list(a[i]) + [Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    found: set[Row] = set()
    for cols in itertools.combinations(range(k + m), m):
        rows = [[full[i][c] for c in cols] + [b[i]] for i in range(m)]
        solution = _gauss(rows, m)
        if solution is None or any(v < 0 for v in solution):
            continue
        y = [Fraction(0)] * (k + m)
        for c, v in zip(cols, solution):
            y[c] = v
        found.add(tuple(y[:k]))
    return found


def _gauss(rows: list[list[Fraction]], n: int) -> list[Fraction] | None:
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        lead = rows[c][c]
        rows[c] = [v / lead for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[c])]
    return [rows[i][n] for i in range(n)]


def check_verdict(
    objectives: Sequence[Row], a: Sequence[Row], b: Row, candidate: int, verdict: Any
) -> str | None:
    """None when every certificate in the verdict's trace holds, else why not."""
    if verdict.candidate != candidate:
        return f"candidate {verdict.candidate} != {candidate}"
    others = [row for i, row in enumerate(objectives) if i != candidate]
    target = objectives[candidate]
    full = others + [target]
    if not verdict.trace or int(verdict.trace[-1].step) != int(verdict.decided_at):
        return "decided_at is not the last traced step"
    face: Sequence[Row] = ()
    for entry in verdict.trace:
        step, answer, cert = int(entry.step), entry.answer, entry.certificate
        problem = _check_step(step, answer, cert, others, target, full, a, b, face)
        if problem:
            return f"step {step}: {problem}"
        if step == 5:
            face = cert
    return None


def _check_step(step, answer, cert, others, target, full, a, b, face) -> str | None:
    k = len(target)
    if step == 0:
        if not answer:
            return None if cert is None else "certificate on a failed test"
        if len(cert) != len(others) or any(c < 0 for c in cert):
            return "multipliers not nonnegative"
        rebuilt = tuple(sum((c * row[j] for c, row in zip(cert, others)), Fraction(0)) for j in range(k))
        return None if rebuilt == tuple(target) else "multipliers do not rebuild the row"
    if step in (1, 2):
        if not answer:
            return None if cert is None else "certificate on a failed test"
        values = [_dot(row, cert) for row in (full if step == 1 else others)]
        if any(v < 0 for v in values) or not any(values):
            return "direction is not semipositive improving"
        return None
    if step == 3:
        if not answer:
            return None if cert is None else "certificate on a failed test"
        strict = all(v > 0 for v in cert) and all(_dot(row, cert) < r for row, r in zip(a, b))
        return None if strict else "point is not strictly interior"
    if step == 4:
        if not answer:  # no weights exist, or an inefficient vertex
            if cert is None or tuple(cert) in vertices(a, b):
                return None
            return "bad vertex is not a vertex"
        if any(w <= 0 for w in cert) or sum(cert) != 1:
            return "weights not positive or not summing to one"
        weighted = {
            sum((w * _dot(row, v) for w, row in zip(cert, others)), Fraction(0))
            for v in vertices(a, b)
        }
        return None if len(weighted) == 1 else "weights do not equalize the vertices"
    if step == 5:
        if not cert or not all(_feasible(a, b, v) for v in cert):
            return "face vertices missing or infeasible"
        return None if len({_dot(target, v) for v in cert}) == 1 else "face does not tie"
    if step == 6:
        if not answer:
            return None if cert is None else "certificate on a failed test"
        return None if cert in tuple(face) else "witness is not on the optimal face"
    if step == 7:
        for v in cert["kernel"]:
            if not any(v) or any(_dot(row, v) for row in others):
                return "kernel vector not in the kernel"
        if answer and cert["intersection"]:
            return "separated, yet the intersection is nonzero"
        for point in cert.get("uncontained", ()):
            if not _feasible(a, b, point):
                return "uncontained point is infeasible"
        return None
    return f"unknown step {step}"


def check_reduce(objectives: Sequence[Row], a: Sequence[Row], b: Row, result: Any) -> str | None:
    """Replay the deletions in ``result.history``, checking each verdict
    against the objectives left at that point, and the final survivors."""
    rows = list(objectives)
    labels = list(range(len(rows)))
    for label, verdict in result.history:
        if label not in labels:
            return f"objective {label} classified after deletion"
        pos = labels.index(label)
        problem = check_verdict(rows, a, b, pos, verdict)
        if problem:
            return f"objective {label}: {problem}"
        if verdict.outcome.value == "nonessential":
            del rows[pos]
            del labels[pos]
    if tuple(labels) != tuple(result.survivors):
        return f"survivors {result.survivors} != replayed {labels}"
    return None


def _verdict_code(verdict: Any) -> str:
    relation = "" if verdict.relation is None else RELATIONS.get(verdict.relation, "?")
    return f"{verdict.outcome.value[0].upper()}{int(verdict.decided_at)}{relation}"


def op_code(result: Any, error: BaseException | None) -> str:
    """(outcome, decided_at, relation[, survivors]) of one op, as a string:
    'E6', 'N7', 'I7>' for verdicts, 'R0,2:N7 E6 E6' for reductions (survivors,
    then every classification), '!UnboundedRegion' for a raised error."""
    if error is not None:
        return "!" + type(error).__name__
    if hasattr(result, "survivors"):
        survivors = ",".join(str(i) for i in result.survivors)
        return f"R{survivors}:" + " ".join(_verdict_code(v) for _, v in result.history)
    return _verdict_code(result)
