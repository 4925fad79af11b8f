"""Every verdict in the golden corpus, certificates included, is reproduced
exactly.  The corpus and how it is built are described in
scripts/freeze_golden.py."""

import importlib.util
import json
import pathlib

import pytest

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
