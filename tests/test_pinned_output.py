"""Replay the benchmark's pinned requests in process: same exit code, same stdout bytes.

perfbench/expected.json pins the exit code and the SHA-256 of stdout for
every request the benchmark sends.  The `--n 9` requests take seconds
each and are left to the benchmark.  Every polytope bound is read off the
closed-form Schubert vertices, so no request may reach the exact simplex:
it is made to raise for the whole replay.
"""

import hashlib
import json
from pathlib import Path

import chernbounds.polytope
from chernbounds.cli import main

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def _fast(argv):
    return argv[0] not in ("polytope", "generate") or argv[2] != "9"


def _no_simplex(*args):
    raise AssertionError("exact simplex called while replaying a pinned request")


def test_pinned_outputs_are_byte_identical(capsys, monkeypatch):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    replayed = 0
    diffs = []
    monkeypatch.setattr(chernbounds.polytope, "simplex_max", _no_simplex)
    for request, pin in pins.items():
        argv = request.split()
        if not _fast(argv):
            continue
        code = main(argv)
        out = capsys.readouterr().out.encode("utf-8")
        if (code, hashlib.sha256(out).hexdigest()) != (pin["exit"], pin["sha256"]):
            diffs.append(request)
        replayed += 1
    assert replayed == 302
    assert diffs == []
