"""Replay the committed CLI output corpus (tests/cli_corpus, written by
tests/make_cli_corpus.py) against this tree."""

import json
import re
from pathlib import Path

from make_cli_corpus import run

CORPUS = Path(__file__).resolve().parent / "cli_corpus"
# Two numbers match when they differ by at most ABS_TOL + REL_TOL times the
# larger magnitude: an eigensolver change moves results by ulps, never by
# this much, and a verdict, branch, count or message not at all.
REL_TOL = 1e-9
ABS_TOL = 1e-12
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _mismatch(expected: str, actual: str):
    """None when the outputs match: the text between numbers, so every
    key, verdict, branch and message, exactly, and the numbers within the
    tolerances; else the first difference."""
    if _NUMBER.split(expected) != _NUMBER.split(actual):
        return "text differs"
    for x, y in zip(map(float, _NUMBER.findall(expected)), map(float, _NUMBER.findall(actual))):
        if not abs(x - y) <= ABS_TOL + REL_TOL * max(abs(x), abs(y)):
            return f"{x!r} != {y!r}"
    return None


def test_mismatch_reads_text_exactly_and_numbers_within_tolerance():
    assert _mismatch("xi_sq = 1\n", "xi_sq = 0.99999999999999989\n") is None
    assert _mismatch('"I5": 1e-17', '"I5": -3e-17') is None
    assert _mismatch("entangled = true", "entangled = false") == "text differs"
    assert _mismatch("0 disagreements / 200", "1 disagreements / 200") == "0.0 != 1.0"
    assert _mismatch("min = 0.25", "min = 0.2500001") == "0.25 != 0.2500001"


def test_cli_outputs_match_the_corpus(monkeypatch):
    """Every recorded analyze, sweep and verify call gives its recorded
    exit code, and stdout and stderr that match the record."""
    cases = json.loads((CORPUS / "expected.json").read_text(encoding="utf-8"))
    monkeypatch.delenv("SYMSQ_TOL", raising=False)
    monkeypatch.chdir(CORPUS)
    failures = []
    for case in cases:
        got = run(case["argv"])
        if got["exit"] != case["exit"]:
            failures.append((case["argv"], "exit", f"{case['exit']} != {got['exit']}"))
        for stream in ("stdout", "stderr"):
            if (diff := _mismatch(case[stream], got[stream])) is not None:
                failures.append((case["argv"], stream, diff))
    assert len(cases) > 100
    assert failures == []
