"""Every verdict in the golden corpus, certificates included, is reproduced
exactly, and ``objred.verify`` accepts every certificate in it.  The corpus
and how it is built are described in scripts/freeze_golden.py."""

import importlib.util
import json
import pathlib
from fractions import Fraction
from types import SimpleNamespace

import pytest

from objred import Error, ObjectiveStack, classify, parse_document
from objred.engine import step0, step1, step2, step3, step4, step5, step6, step7
from objred.verify import check_step, check_verdict

from helpers import fvec

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("freeze_golden", ROOT / "scripts" / "freeze_golden.py")
freeze_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze_golden)

GOLDEN = json.loads(freeze_golden.GOLDEN.read_text())


def test_corpus_has_every_section():
    assert sorted(GOLDEN) == sorted(freeze_golden.SECTIONS)


@pytest.mark.parametrize("section", sorted(freeze_golden.SECTIONS))
def test_section_matches_golden(section):
    # Round-trip through JSON so tuples and lists compare alike.
    fresh = json.loads(json.dumps(freeze_golden.SECTIONS[section]()))
    golden = GOLDEN[section]
    assert len(fresh) == len(golden)
    for key, expected in golden.items() if isinstance(golden, dict) else enumerate(golden):
        assert fresh[key] == expected, f"{section}[{key!r}] differs from the golden file"


def _certificate(value):
    """A certificate as the library returns it, from its JSON form."""
    if isinstance(value, dict):
        return {key: _certificate(v) for key, v in value.items()}
    if isinstance(value, list):
        return tuple(_certificate(v) for v in value)
    return Fraction(value)


def _verdict(entry):
    """The attributes of a Verdict that ``check_verdict`` reads."""
    certificates = {int(step): _certificate(c) for step, c in entry.get("certificates", {}).items()}
    trace = [
        SimpleNamespace(step=t["step"], answer=t["answer"], certificate=certificates.get(t["step"]))
        for t in entry["trace"]
    ]
    candidate = entry["candidate"] - 1
    return SimpleNamespace(candidate=candidate, decided_at=entry["decided_at_step"], trace=trace)


def _checks(problem, entries, deleting=False):
    """(entry, fault) for each verdict of ``entries`` on ``problem``; when
    ``deleting``, as in a reduce, a nonessential verdict deletes its
    candidate from the objectives the later ones see."""
    rows = list(problem.objectives)
    for entry in entries:
        if "error" in entry:
            continue
        yield entry, check_verdict(rows, problem.a, problem.b, _verdict(entry))
        if deleting and entry["outcome"] == "nonessential":
            del rows[entry["candidate"] - 1]


def _golden_checks():
    for path in sorted((ROOT / "problems").glob("*.json")):
        problem = parse_document(path.read_bytes()).problem
        golden = GOLDEN["problems"][path.name]
        yield from _checks(problem, golden["classify"])
        yield from _checks(problem, golden["reduce"].get("verdicts", []), deleting=True)
    for section in ("classify", "unbounded"):
        for problem, entry in zip(getattr(freeze_golden, f"{section}_inputs")(), GOLDEN[section]):
            yield from _checks(problem, [entry])
    for problem, entry in zip(freeze_golden.reduce_inputs(), GOLDEN["reduce"]):
        yield from _checks(problem, entry.get("verdicts", []), deleting=True)


def test_verify_accepts_every_golden_certificate():
    checked = 0
    for entry, fault in _golden_checks():
        assert fault is None, (fault, entry)
        checked += 1
    assert checked >= 300


# Perturbations that break any certificate of a step: doubled multipliers no
# longer rebuild a nonzero row, a negated direction lowers some objective, a
# negated point leaves x > 0, and doubled weights sum to 2.
_PERTURB = {0: 2, 1: -1, 2: -1, 3: -1, 4: 2}


def test_verify_rejects_perturbed_certificates():
    rejected = set()
    for problem, entry in zip(freeze_golden.classify_inputs(), GOLDEN["classify"]):
        verdict = _verdict(entry)
        for t in verdict.trace:
            if t.answer and t.step in _PERTURB and t.step not in rejected:
                kept, t.certificate = t.certificate, tuple(_PERTURB[t.step] * c for c in t.certificate)
                assert check_verdict(problem.objectives, problem.a, problem.b, verdict) is not None, entry
                t.certificate = kept
                rejected.add(t.step)
    assert rejected == set(_PERTURB)


_NOT_THE_FACE = "face is not every vertex where the candidate is largest"


def test_verify_refuses_a_face_missing_a_maximizing_vertex():
    # Step 5's face is every vertex where the candidate is largest: a golden
    # face of several vertices with one dropped is refused.
    refused = 0
    for section in ("classify", "unbounded"):
        for problem, entry in zip(getattr(freeze_golden, f"{section}_inputs")(), GOLDEN[section]):
            if "error" in entry:
                continue
            verdict = _verdict(entry)
            face = next((t for t in verdict.trace if t.step == 5), None)
            if face is None or len(face.certificate) < 2:
                continue
            assert check_verdict(problem.objectives, problem.a, problem.b, verdict) is None
            face.certificate = face.certificate[1:]
            fault = check_verdict(problem.objectives, problem.a, problem.b, verdict)
            assert fault == f"step 5: {_NOT_THE_FACE}", entry
            refused += 1
    assert refused >= 10


def test_verify_refuses_a_face_of_an_unbounded_candidate():
    # On x >= 0, x1 - x2 <= 1 the vertex (1, 0) maximizes x1 over the
    # vertices, but x1 grows along the ray (1, 1).
    a, b = (fvec([1, -1]),), fvec([1])
    def check(face, target):
        return check_step(5, True, (fvec(face),), [], fvec(target), a, b)

    assert check([1, 0], [1, 0]) == "the candidate grows along an extreme ray"
    # Both vertices maximize -x2, and the face holds one.
    assert check([0, 0], [0, -1]) == _NOT_THE_FACE
    assert check([0, 0], [-1, -1]) is None


_STEPS = (step0, step1, step2, step3, step4, step5, step6, step7)


def _classify_cases():
    """(problem, candidate) for every objective of every problems/*.json and
    the candidate of every golden ``classify`` and ``unbounded`` input."""
    for path in sorted((ROOT / "problems").glob("*.json")):
        problem = parse_document(path.read_bytes()).problem
        yield from ((problem, candidate) for candidate in range(problem.n_objectives))
    for problem in (*freeze_golden.classify_inputs(), *freeze_golden.unbounded_inputs()):
        yield problem, problem.n_objectives - 1


def test_step_functions_agree_with_classify():
    # Each step function reads the code the tree reads, so on the stack with
    # the candidate last, and on a fresh region, it gives the answer of every
    # step the tree executed (step 5: the face the trace holds).  Steps 4 and
    # 6 raise nothing on an unbounded region, where classify raises rather
    # than answer true, so every entry of the trace compares.
    compared = set()
    for problem, candidate in _classify_cases():
        try:
            verdict = classify(problem, candidate)
        except Error:
            continue
        rows = problem.objectives
        stack = ObjectiveStack((*rows[:candidate], *rows[candidate + 1 :], rows[candidate]))
        region = problem.region()
        for entry in verdict.trace:
            step = int(entry.step)
            args = (stack,) if step < 3 else (region,) if step == 3 else (region, stack)
            expected = entry.certificate if step == 5 else entry.answer
            assert _STEPS[step](*args) == expected, (problem, candidate, step)
            compared.add(step)
    assert compared == set(range(8)), compared
