"""Replay the CLI golden corpus (``tests/golden/cli.jsonl``) through ``cli.main``.

Each recorded call must give the same stdout, stderr and exit code, byte
for byte.  ``tests/golden/regen.py`` rewrites the corpus.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN = Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location("golden_regen", _GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

_RECORDS = [json.loads(line) for line in regen.CORPUS.read_text(encoding="utf-8").splitlines()]


def test_corpus_covers_every_case():
    assert [rec["argv"] for rec in _RECORDS] == regen.CASES


@pytest.mark.parametrize("record", _RECORDS, ids=[" ".join(rec["argv"]) for rec in _RECORDS])
def test_replay_is_byte_identical(record, monkeypatch):
    monkeypatch.delenv("TWISTSUM_TOL", raising=False)
    monkeypatch.setenv("COLUMNS", regen.USAGE_COLUMNS)
    assert regen.replay(record["argv"]) == record
