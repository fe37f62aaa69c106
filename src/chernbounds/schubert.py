"""Schubert calculus on Grassmannians in the basis of Schubert classes.

Two modes share one code path.  Stable mode (box=None) is the ring of
symmetric functions: products never truncate and weights only grow; this is
the default for the inequality pipeline.  Box mode works in the cohomology of
a fixed Grassmannian, indexed by partitions inside a rows x cols rectangle;
classes falling outside the box vanish.

Products are computed by expanding one factor through its Giambelli
determinant into signed products of special classes and folding those in with
the Pieri rule.  The SchubertExpr constructor is the one place where terms are
merged; every operation hands it (partition, coefficient) pairs.  All values
are immutable; all functions are pure.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .partitions import Partition


class BoxSpec(NamedTuple("BoxSpec", [("rows", int), ("cols", int)])):
    """Grassmannian truncation box: `rows` allowed parts, each at most `cols`."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("box dimensions must be positive")
        return super().__new__(cls, rows, cols)

    def fits(self, a: Partition) -> bool:
        return len(a) <= self.rows and (not a or a[0] <= self.cols)

    def complement(self, a: Partition) -> Partition:
        """The dual partition: rotate the complement of the diagram by 180 degrees."""
        if not self.fits(a):
            raise ValueError(f"{a} does not fit in {self.rows}x{self.cols}")
        pad = a.padded(self.rows)
        return Partition(self.cols - pad[self.rows - 1 - i] for i in range(self.rows))


class SchubertExpr:
    """Integer linear combination of Schubert classes, keyed by partition.

    `terms` is a mapping or an iterable of (partition, coefficient) pairs.
    Repeated partitions are added up here, once, and zero coefficients are
    dropped.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d: dict[Partition, int] = {}
        for part, coeff in terms.items() if hasattr(terms, "items") else terms or ():
            if not isinstance(part, Partition):
                part = Partition(part)
            coeff = operator.index(coeff)
            if coeff:
                d[part] = d.get(part, 0) + coeff
        self.terms = {p: c for p, c in d.items() if c}

    def coeff(self, part) -> int:
        if not isinstance(part, Partition):
            part = Partition(part)
        return self.terms.get(part, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchubertExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "SchubertExpr") -> "SchubertExpr":
        if not isinstance(other, SchubertExpr):
            return NotImplemented
        return SchubertExpr([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "SchubertExpr") -> "SchubertExpr":
        if not isinstance(other, SchubertExpr):
            return NotImplemented
        return SchubertExpr([*self.terms.items(), *((p, -c) for p, c in other.terms.items())])

    def __neg__(self) -> "SchubertExpr":
        return SchubertExpr({p: -c for p, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return SchubertExpr({p: c * other for p, c in self.terms.items()})
        if isinstance(other, SchubertExpr):
            return multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SchubertExpr":
        if k < 0:
            raise ValueError("negative power")
        out = sigma()
        for _ in range(k):
            out = multiply(out, self)
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "SchubertExpr(0)"
        items = sorted(self.terms.items(), reverse=True)
        body = " + ".join(f"{c}*s{tuple(p)}" for p, c in items)
        return f"SchubertExpr({body})"


def sigma(*parts: int) -> SchubertExpr:
    """The single Schubert class for the given parts; sigma() is the unit."""
    return SchubertExpr({Partition(parts): 1})


def pieri_multiply(expr: SchubertExpr, b: int, box: BoxSpec | None = None) -> SchubertExpr:
    """Multiply by the special class of a single part b via the Pieri rule.

    For each partition a in expr the result collects all c with
    |c| = |a| + b and a_i <= c_i <= a_{i-1}, where a_0 is cols in box mode
    and unbounded in stable mode.
    """
    if b < 0:
        raise ValueError("special class index must be nonnegative")
    if box is not None:
        for a in expr.terms:
            if not box.fits(a):
                raise ValueError(f"{a} does not fit in the box")
    return SchubertExpr((c, coeff) for a, coeff in expr.terms.items() for c in _pieri_partitions(a, b, box))


def _pieri_partitions(a: Partition, b: int, box: BoxSpec | None) -> list[Partition]:
    k = len(a)
    max_rows = k + 1 if box is None else box.rows
    out: list[Partition] = []

    def rec(i: int, extra: int, prefix: tuple[int, ...]):
        if i == max_rows:
            if extra == b:
                out.append(Partition(prefix))
            return
        lo = a[i] if i < k else 0
        if i > 0:
            up = a[i - 1] if i <= k else 0
        elif box is not None:
            up = box.cols
        else:
            up = lo + (b - extra)
        hi = min(up, lo + (b - extra))
        for c in range(lo, hi + 1):
            rec(i + 1, extra + (c - lo), prefix + (c,))

    rec(0, 0, ())
    return out


def giambelli_matrix(a: Partition) -> list[list[int]]:
    """Index matrix of the Giambelli determinant: entry (i,j) = a_i + j - i.

    Negative entries stand for the zero class, entry 0 for the unit.
    """
    if not isinstance(a, Partition):
        a = Partition(a)
    q = len(a)
    if q == 0:
        raise ValueError("partition must be nonempty")
    return [[a[i] + j - i for j in range(q)] for i in range(q)]


def special_expansion(a: Partition) -> dict[tuple[int, ...], int]:
    """Laplace expansion of the Giambelli determinant for `a`.

    Returns a map from products of special-class indices (weakly decreasing
    tuples) to integer coefficients, with minors memoized.  The empty product
    is the unit, so special_expansion of the empty partition is {(): 1}.
    """
    if not isinstance(a, Partition):
        a = Partition(a)
    if not a:
        return {(): 1}
    mat = giambelli_matrix(a)
    q = len(a)
    memo: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def expand(cols: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        if not cols:
            return {(): 1}
        if cols in memo:
            return memo[cols]
        i = q - len(cols)
        acc: dict[tuple[int, ...], int] = {}
        for pos, j in enumerate(cols):
            idx = mat[i][j]
            if idx < 0:
                continue
            sign = -1 if pos % 2 else 1
            for prod, c in expand(cols[:pos] + cols[pos + 1 :]).items():
                newprod = tuple(sorted(prod + (idx,), reverse=True)) if idx > 0 else prod
                acc[newprod] = acc.get(newprod, 0) + sign * c
        acc = {p: c for p, c in acc.items() if c}
        memo[cols] = acc
        return acc

    return expand(tuple(range(q)))


def _single_product(a: Partition, b: Partition, box: BoxSpec | None) -> SchubertExpr:
    # expand the shorter factor; its determinant has fewer rows
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return SchubertExpr({b: 1})
    terms = []
    for prod, sign in special_expansion(a).items():
        e = SchubertExpr({b: 1})
        for idx in prod:
            e = pieri_multiply(e, idx, box)
            if e.is_zero():
                break
        terms += ((p, sign * c) for p, c in e.terms.items())
    return SchubertExpr(terms)


def multiply(e1: SchubertExpr, e2: SchubertExpr, box: BoxSpec | None = None) -> SchubertExpr:
    """Product of two Schubert expressions (Giambelli expansion + Pieri folds)."""
    terms = []
    cache: dict[tuple[Partition, Partition], SchubertExpr] = {}
    for a, ca in e1.terms.items():
        for b, cb in e2.terms.items():
            key = (a, b) if a <= b else (b, a)
            prod = cache.get(key)
            if prod is None:
                prod = _single_product(a, b, box)
                cache[key] = prod
            scale = ca * cb
            terms += ((p, scale * c) for p, c in prod.terms.items())
    return SchubertExpr(terms)


def is_effective(expr: SchubertExpr) -> bool:
    """True when every Schubert coefficient is nonnegative."""
    return all(c >= 0 for c in expr.terms.values())


def dual_pairing(a: Partition, b: Partition, box: BoxSpec) -> int:
    """Coefficient of the full-box class in the product of a and b.

    Equals 1 exactly when b is the box complement of a, else 0, provided the
    weights add up to the box area.
    """
    if box is None:
        raise ValueError("dual_pairing requires a box")
    if not isinstance(a, Partition):
        a = Partition(a)
    if not isinstance(b, Partition):
        b = Partition(b)
    if not box.fits(a) or not box.fits(b):
        raise ValueError("partitions must fit in the box")
    if a.weight + b.weight != box.rows * box.cols:
        raise ValueError("weights must fill the box area")
    full = Partition((box.cols,) * box.rows)
    return _single_product(a, b, box).coeff(full)
