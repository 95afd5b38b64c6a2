"""Replay the golden CLI corpus in ``tests/golden/`` byte for byte.

Each case pins the exact stdout and exit status of one argv under its
environment; ``tests/golden/record.py`` regenerates the corpus.
"""

import json
from pathlib import Path

import pytest

from modgeo.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden(case, capsysbinary, monkeypatch):
    for var in ("MODGEO_NUMERIC_DIGITS", "MODGEO_STEP_BUDGET"):
        monkeypatch.delenv(var, raising=False)
    for var, value in case["env"].items():
        monkeypatch.setenv(var, value)
    code = main(list(case["argv"]))
    assert capsysbinary.readouterr().out == (GOLDEN / f"{case['name']}.out").read_bytes()
    assert code == case["exit"]
