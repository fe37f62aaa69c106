"""Replay the benchmark's pinned requests in process: same exit code, same stdout bytes.

perfbench/expected.json pins the exit code and the SHA-256 of stdout for
every request the benchmark sends.  The `--n 9` requests take seconds
each and are left to the benchmark.  `polytope --n 6 --bounds --chi` is
served from the closed-form Schubert vertices; the exact simplex would take
seconds per request there, so it is made to raise during the replay.
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
    raise AssertionError("exact simplex called while replaying polytope --n 6")


def test_pinned_outputs_are_byte_identical(capsys, monkeypatch):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    replayed = 0
    diffs = []
    for request, pin in pins.items():
        argv = request.split()
        if not _fast(argv):
            continue
        with monkeypatch.context() as patch:
            if argv[:3] == ["polytope", "--n", "6"]:
                patch.setattr(chernbounds.polytope, "simplex_max", _no_simplex)
            code = main(argv)
        out = capsys.readouterr().out.encode("utf-8")
        if (code, hashlib.sha256(out).hexdigest()) != (pin["exit"], pin["sha256"]):
            diffs.append(request)
        replayed += 1
    assert replayed == 302
    assert diffs == []
