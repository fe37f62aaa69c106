"""Output checks for every request the benchmark sends.

- Argv from the finite spaces in `workloads.py` must reproduce the exit code
  and the SHA-256 of stdout pinned in `expected.json` byte for byte.
- `verify-paper` must exit 2 with exactly three diffs for `n4`, and exit 0
  with none for every other section.
- `polytope ... --bounds --chi --format json` bounds are re-derived by an
  independent floating-point LP (scipy HiGHS) over the emitted H-rep rows.
- `schubert mult` must equal the Littlewood-Richardson oracle, truncated to
  the box in box mode, rendered the way the command renders it.

`check` returns None when the output passes, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from lr import lr_product, truncate

PINS_PATH = Path(__file__).with_name("expected.json")


def load_pins() -> dict[str, dict]:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def needs_body(argv) -> bool:
    """Whether `check` reads the output itself and not only its digest."""
    return argv[0] in ("schubert", "verify-paper") or (
        argv[0] == "polytope" and "--bounds" in argv and argv[-1] == "json"
    )


def check(argv, code: int, sha256: str, body: bytes, pins: dict) -> str | None:
    """`body` is the stdout itself where `needs_body(argv)`, else unused."""
    if argv[0] == "schubert":
        return _check_schubert(argv, code, body)
    pin = pins.get(" ".join(argv))
    if pin is None:
        return "request outside the pinned space"
    if code != pin["exit"]:
        return f"exit code {code}, pinned {pin['exit']}"
    if sha256 != pin["sha256"]:
        return "stdout differs from the pinned digest"
    if argv[0] == "verify-paper":
        return _check_verify(argv, code, body)
    if needs_body(argv):
        return _check_bounds(json.loads(body))
    return None


def _check_verify(argv, code: int, body: bytes) -> str | None:
    section = argv[1]
    if argv[-1] == "json":
        diffs = json.loads(body)["mismatches"]
    else:
        diffs = sum(line.startswith("[DIFF]") for line in body.decode().splitlines())
    want = (2, 3) if section == "n4" else (0, 0)
    if (code, diffs) != want:
        return f"verify-paper {section}: exit {code} with {diffs} diffs, want {want}"
    return None


def _parse_partition(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _render(product: dict, fmt: str) -> bytes:
    terms = sorted(product.items(), reverse=True)
    if fmt == "json":
        doc = {"terms": [{"partition": list(p), "coeff": str(c)} for p, c in terms]}
        return (json.dumps(doc, indent=2) + "\n").encode()
    parts = []
    for p, c in terms:
        inner = ",".join(map(str, p))
        if fmt == "latex":
            parts.append(("" if c == 1 else str(c)) + f"\\sigma_{{{inner}}}")
        else:
            parts.append(("" if c == 1 else f"{c}*") + f"s({inner})")
    text = " + ".join(parts) or "0"
    if fmt == "latex":
        text = f"\\[ {text} \\]"
    return (text + "\n").encode()


def _check_schubert(argv, code: int, body: bytes) -> str | None:
    if code != 0:
        return f"exit code {code}, want 0"
    a, b = _parse_partition(argv[2]), _parse_partition(argv[3])
    product = lr_product(a, b)
    if "--box" in argv:
        rows, cols = _parse_partition(argv[argv.index("--box") + 1])
        product = truncate(product, rows, cols)
    if body != _render(product, argv[-1]):
        return "product differs from the Littlewood-Richardson oracle"
    return None


def _check_bounds(doc: dict) -> str | None:
    """Every coordinate bound and d1, d2 against a float LP on the H-rep."""
    import numpy as np
    from scipy.optimize import linprog

    hrep = doc["hrep"]
    # a row reads coeffs . t + constant >= 0
    a_ub = -np.array([[float(Fraction(v)) for v in r["coeffs"]] for r in hrep["rows"]])
    b_ub = np.array([float(Fraction(r["constant"])) for r in hrep["rows"]])
    k = a_ub.shape[1]

    def solve(q: int, sense: int):
        c = np.zeros(k)
        c[q] = sense
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * k, method="highs")
        if res.status == 3:
            return "unbounded", None
        if res.status != 0:
            return f"status {res.status}", None
        return "optimal", sense * res.fun

    def agrees(status, value, want_status, want_value) -> bool:
        if status != want_status:
            return False
        if status != "optimal":
            return True
        want = float(Fraction(want_value))
        return abs(value - want) <= 1e-6 * max(1.0, abs(want))

    coords = hrep["coordinates"]
    for q, entry in enumerate(doc["certificate"]["coords"]):
        for sense, key in ((1, "min"), (-1, "max")):
            status, value = solve(q, sense)
            if not agrees(status, value, entry[f"{key}_status"], entry[key]):
                return f"{key} of t{entry['partition']}: float LP gives {status} {value}"
    # d1, d2 bound (-1)^n t[n]
    n = hrep["n"]
    top = coords.index([n])
    sign = -1 if n % 2 else 1
    chi = doc["chi"]
    for idx, sense in ((0, 1), (1, -1)):
        status, value = solve(top, sense * sign)
        value = None if value is None else sign * value
        if not agrees(status, value, chi["statuses"][idx], chi[f"d{idx + 1}"]):
            return f"d{idx + 1}: float LP gives {status} {value}"
    return None
