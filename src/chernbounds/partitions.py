"""Integer partitions: the index set for Schubert classes and Chern monomials.

Partitions are weakly decreasing tuples of positive integers; trailing zeros
are stripped so each partition has one canonical form.  The total order used
throughout is the "alphabet" order: pad with zeros and compare part by part.
Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    >>> Partition((3, 1, 0))
    Partition((3, 1))
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(operator.index(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"parts must be positive integers: {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def padded(self, k: int) -> tuple[int, ...]:
        """The parts extended with zeros to length at least k."""
        return tuple(self) + (0,) * max(0, k - len(self))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (column lengths)."""
        if not self:
            return self
        return Partition(sum(1 for p in self if p > j) for j in range(self[0]))

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def alphabet_compare(a: Partition, b: Partition) -> int:
    """Compare two partitions in alphabet order; returns -1, 0 or +1.

    Pads the shorter with zeros and compares componentwise from the first
    part, so (2,) < (2,1) < (2,2) and any (1,...,1) is minimal in its weight.
    """
    k = max(len(a), len(b))
    pa = tuple(a) + (0,) * (k - len(a))
    pb = tuple(b) + (0,) * (k - len(b))
    if pa < pb:
        return -1
    if pa > pb:
        return 1
    return 0


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, sorted descending in alphabet order.

    The first entry is (n), the last is (1,)*n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [Partition()]
    out = []
    parts = [n]
    while True:
        out.append(Partition(parts))
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            break
        # decrement the rightmost part above 1, redistribute the remainder
        rem = len(parts) - i
        parts[i] -= 1
        del parts[i + 1 :]
        cap = parts[i]
        while rem > 0:
            take = min(cap, rem)
            parts.append(take)
            rem -= take
    return out


_PCOUNT = [1]


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, by Euler's pentagonal recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_PCOUNT) <= n:
        k = len(_PCOUNT)
        total = 0
        j = 1
        while True:
            g = j * (3 * j - 1) // 2
            if g > k:
                break
            sign = 1 if j % 2 else -1
            total += sign * _PCOUNT[k - g]
            h = j * (3 * j + 1) // 2
            if h <= k:
                total += sign * _PCOUNT[k - h]
            j += 1
        _PCOUNT.append(total)
    return _PCOUNT[n]


def hardy_ramanujan_estimate(n: int) -> Fraction:
    """The classical asymptotic p(n) ~ exp(pi*sqrt(2n/3)) / (4n*sqrt(3)).

    The only place in the package where floating point is used; the float is
    converted exactly to a Fraction so callers stay in rational arithmetic.
    """
    if n < 1:
        raise ValueError("n must be positive")
    value = math.exp(math.pi * math.sqrt(2.0 * n / 3.0)) / (4.0 * n * math.sqrt(3.0))
    return Fraction(value)
