"""Record the exit code and stdout digest of every request in the pinned space.

    python3 perfbench/pin.py

Run from the root of a checkout of the commit whose outputs are the
reference; it rewrites `perfbench/expected.json`.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    pins = {}
    space = workloads.pinned_space()
    for i, argv in enumerate(space, 1):
        _, code, _, _, out, err = run._spawn([sys.executable, "-c", run.ENTRY, *argv], env)
        if run._traceback_line(err):
            sys.stderr.write(f"error: {' '.join(argv)} raised\n{err.decode()}")
            return 1
        pins[" ".join(argv)] = {"exit": code, "sha256": checks.digest(out), "bytes": len(out)}
        print(f"{i}/{len(space)} exit={code} {' '.join(argv)}", flush=True)
    with open(checks.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
