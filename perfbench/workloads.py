"""Seeded request sequences for the three workloads.

A request is only the argv handed to the `chernbounds` command line; the
seed decides which argv are drawn and in what order, and nothing else
reaches the program.  Every argv outside `schubert mult` comes from a finite
space (`pinned_space`) whose exit codes and output digests are pinned in
`expected.json`; Schubert products are checked against the
Littlewood-Richardson oracle instead.
"""

from __future__ import annotations

import random

GENERAL_M = (1, 2, 3, 4, 5, 6)
FANO_M = (-1, -2, -3, -4)
SECTIONS = ("lemmas", "n2", "n3", "n4", "n5", "schubert")
FORMATS = ("text", "json", "latex")

CERTIFY_N = 6
GENERATE_N = 9


def _polytope(n: int, m: int, fmt: str, bounds: bool) -> tuple[str, ...]:
    argv = ("polytope", "--n", str(n), "--m", str(m))
    if m < 0:
        argv += ("--mode", "fano")
    if bounds:
        argv += ("--bounds", "--chi")
    return argv + ("--format", fmt)


def _generate(m: int | None, fmt: str) -> tuple[str, ...]:
    argv = ("generate", "--n", str(GENERATE_N))
    if m is not None:
        argv += ("--m", str(m))
    return argv + ("--format", fmt)


def _partition(rng: random.Random) -> tuple[int, ...]:
    # four parts of 2 or 3: a product costs about 34 ms (at most about
    # 0.12 s), enough for the Schubert layer to lead calculus even with
    # module loading counted, without a heavy tail of rare huge products
    return tuple(sorted((rng.randint(2, 3) for _ in range(4)), reverse=True))


def _schubert(a, b, fmt: str, box=None) -> tuple[str, ...]:
    argv = ("schubert", "mult", ",".join(map(str, a)), ",".join(map(str, b)))
    if box is not None:
        argv += ("--box", f"{box[0]},{box[1]}")
    return argv + ("--format", fmt)


# ---------------------------------------------------------------------------
# finite spaces (pinned)


def certify_space() -> list[tuple[str, ...]]:
    return [
        _polytope(CERTIFY_N, m, fmt, True)
        for m in GENERAL_M + FANO_M
        for fmt in ("text", "json")
    ]


def generate_space() -> list[tuple[str, ...]]:
    out = [_generate(None, fmt) for fmt in FORMATS]
    out += [_generate(m, fmt) for m in GENERAL_M + FANO_M for fmt in FORMATS]
    out += [_polytope(GENERATE_N, m, fmt, False) for m in GENERAL_M + FANO_M for fmt in FORMATS]
    return out


def calculus_space() -> list[tuple[str, ...]]:
    out = [("verify-paper", s, "--format", fmt) for s in SECTIONS for fmt in FORMATS]
    for n in range(2, 9):
        out += [("gauss-chern", "--n", str(n), "--p", str(p), "--format", fmt)
                for p in range(n + 1) for fmt in FORMATS]
    out += [("todd", str(d), "--format", fmt) for d in range(1, 9) for fmt in FORMATS]
    out += [("sigma-to-chern", str(w), "--format", fmt) for w in range(1, 9) for fmt in FORMATS]
    out += [_polytope(n, m, fmt, True) for n in (2, 3, 4) for m in GENERAL_M + FANO_M
            for fmt in FORMATS]
    return out


def pinned_space() -> list[tuple[str, ...]]:
    return certify_space() + generate_space() + calculus_space()


# ---------------------------------------------------------------------------
# one pass of each workload


def certify(rng: random.Random) -> list[tuple[str, ...]]:
    """Two distinct general-type m and every Fano m; formats drawn.

    General type takes about 3.4-3.7 s and Fano 4.3-4.9 s, so the median
    falls among the faster Fano requests and p90 among the slower ones,
    neither on the boundary between the two clusters.  Taking every Fano m
    keeps the Fano share, and so the figures, from depending on the seed.
    """
    ms = rng.sample(GENERAL_M, 2) + list(FANO_M)
    reqs = [_polytope(CERTIFY_N, m, rng.choice(("text", "json")), True) for m in ms]
    rng.shuffle(reqs)
    return reqs


def generate(rng: random.Random) -> list[tuple[str, ...]]:
    """Symbolic and specialized `generate --n 9`, and H-rep-only `polytope --n 9`."""
    reqs = [_generate(None, fmt) for fmt in FORMATS]
    reqs += [_generate(rng.choice(GENERAL_M + FANO_M), rng.choice(FORMATS)) for _ in range(5)]
    ms = rng.sample(GENERAL_M, 3) + rng.sample(FANO_M, 3)
    reqs += [_polytope(GENERATE_N, m, rng.choice(FORMATS), False) for m in ms]
    rng.shuffle(reqs)
    return reqs


#: Schubert products per calculus pass, in each of stable and box mode
PRODUCTS = 144


def calculus(rng: random.Random) -> list[tuple[str, ...]]:
    """Short interactive requests, Schubert products being most of the work.

    Box rows run from max(len) to max(len)+3.  Each of the four offsets,
    and each polytope dimension, is drawn equally often: the pass is uniform
    over them without the share of each depending on the seed.
    """
    reqs = [("verify-paper", s, "--format", rng.choice(FORMATS)) for s in SECTIONS * 2]
    for _ in range(20):
        n = rng.randint(2, 8)
        reqs.append(("gauss-chern", "--n", str(n), "--p", str(rng.randint(0, n)),
                     "--format", rng.choice(FORMATS)))
        reqs.append(("todd", str(rng.randint(1, 8)), "--format", rng.choice(FORMATS)))
        reqs.append(("sigma-to-chern", str(rng.randint(1, 8)), "--format", rng.choice(FORMATS)))
    for n in (2, 3, 4) * 16:
        reqs.append(_polytope(n, rng.choice(GENERAL_M + FANO_M), rng.choice(FORMATS), True))
    for _ in range(PRODUCTS):
        reqs.append(_schubert(_partition(rng), _partition(rng), rng.choice(FORMATS)))
    offsets = [i % 4 for i in range(PRODUCTS)]
    rng.shuffle(offsets)
    for offset in offsets:
        a, b = _partition(rng), _partition(rng)
        box = (max(len(a), len(b)) + offset, max(a[0], b[0]) + rng.randint(0, 2))
        reqs.append(_schubert(a, b, rng.choice(FORMATS), box))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"certify": certify, "generate": generate, "calculus": calculus}
