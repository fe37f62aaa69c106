"""Littlewood-Richardson oracle for Schubert products.

The coefficient of s_nu in s_lam * s_mu counts the skew tableaux of shape
nu/lam and content mu whose reverse reading word is a lattice word.  The
tableaux are built one label at a time: label k fills a horizontal strip of
mu_k boxes, and each strip is kept only while the word stays lattice in k
against k-1.  This shares no code with the program's Pieri/Giambelli route.
"""

from __future__ import annotations


def _strips(shape: tuple[int, ...], size: int):
    """Yield per-row box counts of every horizontal strip of `size` boxes."""
    rows = len(shape) + 1
    padded = shape + (0,)

    def rec(i: int, left: int, counts: tuple[int, ...]):
        if i == rows:
            if left == 0:
                yield counts
            return
        room = left if i == 0 else min(left, padded[i - 1] - padded[i])
        for add in range(room, -1, -1):
            yield from rec(i + 1, left - add, counts + (add,))

    yield from rec(0, size, ())


def _lattice(fill: list[list[int]], k: int) -> bool:
    """Reading rows top to bottom, right to left, k never outnumbers k-1."""
    surplus = 0
    for row in fill:
        for label in reversed(row):
            if label == k - 1:
                surplus += 1
            elif label == k:
                surplus -= 1
                if surplus < 0:
                    return False
    return True


def lr_product(lam, mu) -> dict[tuple[int, ...], int]:
    """s_lam * s_mu in the stable ring, as {partition: coefficient}."""
    lam, mu = tuple(lam), tuple(mu)
    if len(mu) > len(lam):
        lam, mu = mu, lam
    out: dict[tuple[int, ...], int] = {}

    def rec(k: int, shape: tuple[int, ...], fill: list[list[int]]):
        if k > len(mu):
            out[shape] = out.get(shape, 0) + 1
            return
        for counts in _strips(shape, mu[k - 1]):
            rows = len(shape) + 1
            padded = shape + (0,)
            new_shape = tuple(padded[i] + counts[i] for i in range(rows))
            new_fill = [
                (fill[i] if i < len(fill) else []) + [k] * counts[i] for i in range(rows)
            ]
            if k > 1 and not _lattice(new_fill, k):
                continue
            rec(k + 1, tuple(p for p in new_shape if p), new_fill)

    rec(1, lam, [[] for _ in lam])
    return out


def truncate(product: dict[tuple[int, ...], int], rows: int, cols: int) -> dict:
    """Keep the terms whose diagrams fit a rows x cols box (Grassmannian product)."""
    return {p: c for p, c in product.items() if len(p) <= rows and (not p or p[0] <= cols)}
